"""The specdiff command line: gen-data, train, sample, reconstruct, eval and inspect.

Each command reads and checks every input, and builds what it runs on, before
it makes its output directory. A setting that shapes a command's bytes lives
in the config, whose digest its outputs carry; a flag names a file. Any
command run twice on the same inputs writes byte-identical files. The row
tables live in :mod:`specdiff.schema`, the on-disk kinds in
:mod:`specdiff.artifacts` and the signal sources in :mod:`specdiff.signals`.
"""

from __future__ import annotations

import argparse
import dataclasses
from pathlib import Path

import numpy as np

from .artifacts import (
    Checkpoint,
    describe,
    describe_tensor,
    load_checkpoint,
    read_gen_data,
    read_samples,
    read_tensor_file,
    save_checkpoint,
    write_checkpoint,
    write_csv,
    write_gen_data,
    write_json,
    write_pgm,
    write_samples,
    write_tensor_file,
)
from .diffusion import (
    DiffusionSchedule,
    InfeasibleScheduleError,
    ddim_sample,
    ddpm_sample,
    reconstruct,
    t_min_for_noise_var,
    zero_filled,
)
from .evaluation import (
    GaussianPosteriorDenoiser,
    TwoDeltasPosteriorDenoiser,
    denoising_mse_sweep,
    distribution_distance,
    generalization_psnr,
    independence_demo,
    uncertainty_map,
)
from .losses import LossConfig
from .model import Denoiser
from .operators import (
    DegradationFamily,
    FixedMask,
    IdentityTransform,
    LineSubsampleMasks,
    Measurement,
    PatchDropMasks,
    RealDFTTransform,
    SingleDropMasks,
    corrupt,
)
from .schema import (
    EVAL_INPUTS,
    FLAG_RULES,
    ConfigError,
    build_schedule,
    config_digest,
    data_digest,
    load_config,
)
from .signals import generate_signals
from .training import PrecomputedDataset, TrainConfig, derived_rng, precompute, train

# the commands, and the names the benchmark reads through this module
__all__ = [
    "Checkpoint",
    "build_degradation_family",
    "build_model",
    "build_schedule",
    "build_train_config",
    "cmd_eval",
    "cmd_gen_data",
    "cmd_inspect",
    "cmd_reconstruct",
    "cmd_sample",
    "cmd_train",
    "config_digest",
    "generate_signals",
    "load_checkpoint",
    "load_config",
    "main",
    "save_checkpoint",
]


# -- experiment assembly --------------------------------------------------------


def build_degradation_family(cfg: dict) -> DegradationFamily:
    """The configured family for the configured signals' width (of an
    ``external-binary`` source, its header alone is read); masks that cannot
    fit the signal raise ``ConfigError``."""
    deg = cfg["degradation"]
    n = generate_signals(cfg["data"], 0, 0).shape[1]
    family = deg["family"]
    vt = IdentityTransform(n)
    if family == "line-subsample":
        if n % 2:
            raise ConfigError("line-subsample needs an even signal dimension "
                              "(real/imaginary channel pairs)")
        vt = RealDFTTransform(n // 2)
    try:
        if family == "patch-drop":  # flat signals: patches tile a single row
            flat = cfg["data"]["kind"] != "synthetic-shapes"
            h, w = (1, n) if flat else (cfg["data"]["height"], cfg["data"]["width"])
            masks = PatchDropMasks(h, w, deg["patch"], deg["p"])
        elif family == "line-subsample":
            masks = LineSubsampleMasks(lines=n // 2, accel=deg["accel"])
        elif family == "single-drop":
            masks = SingleDropMasks(n)
        else:
            masks = FixedMask(np.ones(n, dtype=bool))
    except ValueError as exc:
        key = {"patch-drop": "patch", "line-subsample": "accel"}.get(family, "family")
        raise ConfigError(f"degradation.{key}: {exc} ({family}, n = {n})") from exc
    return DegradationFamily(vt, masks, deg["sigma0"])


def build_model(cfg: dict, n: int) -> Denoiser:
    m = cfg["model"]
    return Denoiser.create(n, hidden=tuple(m["hidden"]), emb_dim=m["emb_dim"],
                           mean_type=m["mean_type"], ema_decay=m["ema_decay"],
                           rng=derived_rng(m["seed"], 77))


def build_train_config(cfg: dict) -> TrainConfig:
    """The loop's config; an unset ``chunk_size`` resolves to ``batch_size``."""
    t = cfg["train"]
    chunk = t["batch_size"] if t["chunk_size"] is None else t["chunk_size"]
    loss = t["loss"]
    loss_cfg = LossConfig(gamma=loss["gamma"], lam=loss["lambda"],
                          lam_coef=loss["lambda_coef"],
                          use_ybar_variant=loss["use_ybar_variant"],
                          probes=loss["probes"])
    return TrainConfig(iterations=t["iterations"], batch_size=t["batch_size"],
                       learning_rate=t["learning_rate"],
                       seed=t["seed"], loss=loss_cfg, oracle_mode=t["oracle_mode"],
                       log_interval=t["log_interval"], chunk_size=chunk)


# -- commands ---------------------------------------------------------------------


def _check_noise_floor(schedule: DiffusionSchedule, noise_var, source: str) -> None:
    """Raise ``ConfigError`` naming ``source`` when no timestep of ``schedule``
    can top up the measurement variance ``noise_var`` (its largest entry)."""
    try:
        t_min_for_noise_var(schedule, noise_var)
    except InfeasibleScheduleError as exc:
        raise ConfigError(f"{source}: {exc} on a schedule with T = {schedule.T}, "
                          f"betaT = {schedule.betaT:.3g}") from exc


def _check_flag(flag: str, value) -> None:
    """A command-line ``value`` obeys the flag's schema rule; None is unset."""
    rule = FLAG_RULES[flag]
    if value is not None and not rule.holds(value):
        raise ConfigError(f"{flag} must {rule.text}, got {value}")


def _out_dir(out) -> Path:
    """The output directory, made once every input is read and checked."""
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_gen_data(cfg: dict, out) -> Path:
    """Write clean signals and precomputed measurements with a JSON sidecar."""
    seed, count = cfg["data"]["seed"], cfg["data"]["count"]
    signals = generate_signals(cfg["data"], count + cfg["data"]["holdout"], seed)
    family = build_degradation_family(cfg)
    clean, holdout = signals[:count], signals[count:]
    data = precompute(clean, family, seed=seed)
    out_path = _out_dir(out)
    write_gen_data(out_path, clean, holdout, data, family,
                   config_digest=config_digest(cfg), data_digest=data_digest(cfg),
                   kind=cfg["data"]["kind"], seed=seed)
    return out_path


def _dataset(cfg: dict, measurements):
    """Training data, its family and the ``config_digest`` in ``dataset.json``:
    read from the gen-data directory ``measurements``, which the config's
    ``data`` and ``degradation`` sections must have written, or simulated when
    that is None (no digest); only the oracle reads the directory's
    ``clean.bin``, its target."""
    family = build_degradation_family(cfg)
    if measurements is None:
        signals = generate_signals(cfg["data"], cfg["data"]["count"],
                                   cfg["data"]["seed"])
        return precompute(signals, family, seed=cfg["data"]["seed"]), family, None
    oracle = cfg["train"]["oracle_mode"]
    if oracle and not (Path(measurements) / "clean.bin").exists():
        raise ConfigError(f"train.oracle_mode needs clean.bin in --measurements "
                          f"{measurements}")
    meta, ybar, masks, var, clean = read_gen_data(measurements, clean=oracle)
    if meta.get("data_digest") is None:
        raise ConfigError(f"--measurements {measurements}: dataset.json records no "
                          "data_digest; re-run gen-data to train on it")
    # an external-binary source may have changed width since gen-data read it
    if meta["data_digest"] != data_digest(cfg) or meta["n"] != family.n:
        raise ConfigError(f"--measurements {measurements} was not written from the "
                          "configured data and degradation sections")
    clean_xbar = None if clean is None else family.vt.apply(clean)
    data = PrecomputedDataset(ybar=ybar, masks=masks, var=var, w=family.weights(),
                              clean_xbar=clean_xbar)
    return data, family, meta.get("config_digest")


def cmd_train(cfg: dict, out, measurements=None) -> Path:
    """Precompute measurements, or read them from the gen-data directory
    ``measurements``, run the training loop, persist the outcome."""
    data, family, measurements_digest = _dataset(cfg, measurements)
    schedule = build_schedule(cfg)
    _check_noise_floor(schedule, data.worst_noise_var(),
                       "degradation.sigma0" if measurements is None
                       else f"--measurements {measurements}: sigma0")
    model = build_model(cfg, family.n)
    train_cfg = build_train_config(cfg)
    out_path = _out_dir(out)
    result = train(model, train_cfg, data, schedule)

    digest = config_digest(cfg)
    schedule = dataclasses.replace(schedule, t_min_valid=result.t_min_valid)
    write_checkpoint(out_path / "checkpoint.bin", model.arch(), model.params,
                     model.ema_params, train_cfg.iterations, digest,
                     schedule.header(), family.vt.descriptor())
    write_csv(out_path / "metrics.csv",
              ["step", "loss", "divergence_term", "grad_norm"],
              [(r.step, r.loss, r.divergence_term, r.grad_norm)
               for r in result.metrics])
    write_json(out_path / "run.json", {
        "config_digest": digest,
        "measurements_config_digest": measurements_digest,
        "steps": train_cfg.iterations,
        "t_min_valid": result.t_min_valid,
    }, version=None)
    return out_path


def _check_steps(steps: int, schedule: DiffusionSchedule, name: str = "--steps") -> None:
    if not 1 <= steps <= schedule.T:
        raise ConfigError(f"{name} must lie in [1, {schedule.T}] for this "
                          f"checkpoint's schedule, got {steps}")


def _read_samples(path, flag: str, width: int | None = None) -> tuple:
    """The samples file ``path`` and its sidecar (:func:`read_samples`), the
    file a 2-D array of at least 2 rows, ``width`` wide when given; any other
    array raises ``ConfigError`` naming ``flag``."""
    rows, meta = read_samples(path)
    if rows.ndim != 2 or rows.size == 0 or width not in (None, rows.shape[1]):
        raise ConfigError(f"{flag} {path}: an array of shape {rows.shape} is not a "
                          "non-empty 2-D array of rows"
                          + ("" if width is None else f" of width {width}"))
    if rows.shape[0] < 2:
        raise ConfigError(f"{flag} {path}: {rows.shape[0]} row(s), fewer than "
                          "the 2 needed")
    return rows, meta


SAMPLE_CHUNK = 64  # samples per derived-seed chunk


def cmd_sample(checkpoint_path, out, sampler: str, steps: int,
               count: int, seed: int, eta: float = 0.0) -> Path:
    """Generate samples from a checkpoint; chunks use derived seeds."""
    if sampler not in ("ddim", "ddpm"):
        raise ValueError("sampler must be 'ddim' or 'ddpm'")
    _check_flag("--count", count)
    _check_flag("--seed", seed)
    if sampler == "ddim":  # DDPM ignores --eta, as it does --steps
        _check_flag("--eta", eta)
    ckpt = load_checkpoint(checkpoint_path)
    model, schedule, vt = ckpt.model(), ckpt.rebuild_schedule(), ckpt.vt
    if sampler == "ddim":
        _check_steps(steps, schedule)
    out_path = _out_dir(out)
    blocks = []
    for ci, lo in enumerate(range(0, count, SAMPLE_CHUNK)):
        size = min(SAMPLE_CHUNK, count - lo)
        rng = derived_rng(seed, ci)
        if sampler == "ddim":
            blocks.append(ddim_sample(model, schedule, steps, eta, rng, vt,
                                      count=size))
        else:
            blocks.append(ddpm_sample(model, schedule, rng, vt, count=size))
    samples = np.concatenate(blocks) if blocks else np.zeros((0, vt.n))
    write_samples(out_path, samples, config_digest=ckpt.config_digest, sampler=sampler,
                  steps=steps if sampler == "ddim" else None,  # DDPM visits every t
                  eta=eta if sampler == "ddim" else None, count=count, seed=seed)
    return out_path


def cmd_reconstruct(checkpoint_path, measurements_dir, out,
                    steps: int, seed: int, eta: float = 0.0,
                    limit: int | None = None) -> Path:
    """Reconstruct stored measurements, and write their zero-filled baseline."""
    _check_flag("--limit", limit)
    _check_flag("--seed", seed)
    _check_flag("--eta", eta)
    ckpt = load_checkpoint(checkpoint_path)
    model, schedule, vt = ckpt.model(), ckpt.rebuild_schedule(), ckpt.vt
    _check_steps(steps, schedule)
    meta, ybar, masks, var, _ = read_gen_data(measurements_dir, limit)
    if meta["n"] != vt.n or meta["vt"] != ckpt.vt_descriptor:
        raise ConfigError(f"--measurements {measurements_dir}: n = {meta['n']}, vt = "
                          f"{meta['vt']} differ from the checkpoint's n = {vt.n}, "
                          f"vt = {ckpt.vt_descriptor}")
    count = len(ybar)
    _check_noise_floor(schedule, var if masks.any() else 0.0,
                       f"--measurements {measurements_dir}: sigma0")
    out_path = _out_dir(out)
    recons = np.empty((count, vt.n))
    zf = np.empty((count, vt.n))
    for i in range(count):
        m = Measurement(ybar=ybar[i], mask=masks[i], noise_var=masks[i] * var)
        zf[i] = zero_filled(m, vt)
        recons[i] = reconstruct(model, schedule, m, steps, derived_rng(seed, i),
                                vt, eta=eta)
    write_tensor_file(out_path / "recon.bin", recons)
    write_tensor_file(out_path / "zero_filled.bin", zf)
    write_json(out_path / "recon.json", {
        "config_digest": ckpt.config_digest,
        "measurements_config_digest": meta.get("config_digest"),
        "steps": steps,
        "eta": eta,
        "seed": seed,
        "count": count,
    })
    return out_path


def _eval_ts(cfg: dict, schedule: DiffusionSchedule) -> list[int]:
    """``eval.ts``, or every ``eval.t_stride``-th timestep from the schedule's
    ``t_min_valid`` on, with ``T`` last."""
    ts = list(cfg["eval"]["ts"])
    if not ts:
        ts = list(range(schedule.t_min_valid, schedule.T + 1, cfg["eval"]["t_stride"]))
        if ts[-1] != schedule.T:
            ts.append(schedule.T)
    return ts


def cmd_eval(cfg: dict, out, checkpoint=None, checkpoint_b=None, samples_a=None,
             samples_b=None) -> Path:
    """Run the configured evaluation operations, one CSV per operation, and
    write ``eval.json``, which names the config and each checkpoint and
    samples file an operation read. Every input is read and checked, and what
    the operations share is built, once before the output directory is made;
    README's ``eval`` walkthrough lists each check and the error it raises.
    """
    ev = cfg["eval"]
    ops, seed = ev["operations"], ev["seed"]
    given = {"checkpoint": checkpoint, "checkpoint_b": checkpoint_b,
             "samples_a": samples_a, "samples_b": samples_b}
    for op in ops:
        for name in EVAL_INPUTS[op]:
            if given[name] is None:
                flag = "--" + name.replace("_", "-")
                raise ConfigError(f"eval operation {op!r} needs {flag}")
    if "acceleration_sweep" in ops and not ev["accels"]:
        raise ConfigError("eval operation 'acceleration_sweep' needs eval.accels")
    needs = {name for op in ops for name in EVAL_INPUTS[op]}
    ca = load_checkpoint(checkpoint) if "checkpoint" in needs else None
    cb = load_checkpoint(checkpoint_b) if "checkpoint_b" in needs else None
    if ca is not None:  # every operation that reads B reads A too
        if max(ev["ts"], default=0) > ca.schedule["T"]:
            raise ConfigError(f"eval.ts must be <= T = {ca.schedule['T']} of the "
                              "--checkpoint schedule")
        # one read of the eval set: the width and every operation's clean rows;
        # an external file's are the rows after the data.count that train read
        clean_rows = generate_signals(cfg["data"], ev["count"], seed,
                                      start=cfg["data"]["count"])
        width = clean_rows.shape[1]
        if width != ca.vt.n:
            raise ConfigError(f"data: signals of width {width} do not fit "
                              f"--checkpoint's n = {ca.vt.n}")
        schedule, model_a = ca.rebuild_schedule(), ca.model()
    if cb is not None:
        # B is scored on A's timesteps and inputs; t_min_valid may differ (a GSURE
        # model and its oracle do)
        pairs = [(f"schedule {key}", ca.schedule[key], cb.schedule[key])
                 for key in ("T", "beta1", "betaT")]
        pairs += [("n", ca.arch["n"], cb.arch["n"]),
                  ("vt", ca.vt_descriptor, cb.vt_descriptor)]
        for what, a, b in pairs:
            if a != b:
                raise ConfigError(f"--checkpoint-b {what} = {b} differs from "
                                  f"--checkpoint's {a}")
        model_b = cb.model()
        xbar = ca.vt.apply(clean_rows)
        ts = _eval_ts(cfg, schedule)
    if "uncertainty" in ops:
        sigma0 = ev["uncertainty_sigma0"]
        _check_noise_floor(schedule, sigma0 * sigma0, "eval.uncertainty_sigma0")
        clean = clean_rows[0]
    if "uncertainty" in ops or "acceleration_sweep" in ops:
        _check_steps(ev["steps"], schedule, "eval.steps")
    if "acceleration_sweep" in ops:
        kind = ca.vt_descriptor["kind"]
        if kind != "real_dft":
            raise ConfigError("an acceleration sweep masks DFT lines; the "
                              f"checkpoint's transform is {kind!r}")
        families = []
        for r in ev["accels"]:
            try:
                masks = LineSubsampleMasks(lines=ca.vt.n // 2, accel=r)
            except ValueError as exc:
                raise ConfigError(f"eval.accels entry {r}: {exc}") from exc
            families.append((r, DegradationFamily(ca.vt, masks, sigma0=0.01)))
        _check_noise_floor(schedule, 0.01 * 0.01, "acceleration_sweep's sigma0 = 0.01")
        sweep = clean_rows[:8]
    sa = sb = {}
    if "distribution_distance" in ops:
        a, sa = _read_samples(samples_a, "--samples-a")
        b, sb = _read_samples(samples_b, "--samples-b", a.shape[1])
    out_path = _out_dir(out)

    for op in ops:
        if op == "mse_sweep":
            res = denoising_mse_sweep(model_a, model_b, xbar, schedule, ts,
                                      derived_rng(seed, 1))
            write_csv(out_path / "mse_sweep.csv", ["t", "mse_a", "mse_b"], res.rows)
        elif op == "generalization_psnr":
            rows = generalization_psnr(model_a, model_b, xbar, schedule, ts,
                                       derived_rng(seed, 2), peak=ev["peak"])
            write_csv(out_path / "psnr.csv", ["t", "psnr"], rows)
        elif op == "independence_demo":
            rows = []
            for prior, model in (("isotropic-gaussian", GaussianPosteriorDenoiser()),
                                 ("two-deltas", TwoDeltasPosteriorDenoiser())):
                recs = independence_demo(prior, model, ev["snr_levels"],
                                         ev["n_samples"], derived_rng(seed, 3),
                                         n_permutations=ev["n_permutations"])
                rows += [(prior, r.snr, r.abar, r.energy, r.z, r.null_mean,
                          r.null_sd) for r in recs]
            write_csv(out_path / "independence.csv",
                      ["prior", "snr", "abar", "energy", "z", "null_mean", "null_sd"],
                      rows)
        elif op == "distribution_distance":
            res = distribution_distance(a, b, ev["n_projections"], derived_rng(seed, 4))
            write_csv(out_path / "distance.csv",
                      ["sliced_wasserstein", "mean_gap", "cov_gap"],
                      [(res.sliced_wasserstein, res.mean_gap, res.cov_gap)])
        elif op == "uncertainty":
            fam = DegradationFamily(ca.vt, FixedMask(np.ones(ca.vt.n, dtype=bool)),
                                    sigma0)
            rng = derived_rng(seed, 5)
            m = corrupt(clean, fam, rng)
            mean, std = uncertainty_map(model_a, schedule, m, ev["uncertainty_k"],
                                        rng=derived_rng(seed, 6), vt=ca.vt,
                                        steps=ev["steps"], eta=max(ev["eta"], 0.5))
            write_tensor_file(out_path / "uncertainty_mean.bin", mean)
            write_tensor_file(out_path / "uncertainty_std.bin", std)
        else:  # acceleration_sweep
            rows = []
            for r, fam in families:
                resid = 0.0
                for i, x in enumerate(sweep):
                    rng = derived_rng(seed, 7, r, i)
                    m = corrupt(x, fam, rng)
                    rec = reconstruct(model_a, schedule, m, ev["steps"],
                                      derived_rng(seed, 7, r, i, 1), ca.vt, eta=ev["eta"])
                    gap = rec - x  # einsum, not BLAS: same bits at any thread count
                    resid += float(np.sqrt(np.einsum("i,i->", gap, gap)))
                rows.append((r, resid / len(sweep), bool(np.isfinite(resid))))
            write_csv(out_path / "rsweep.csv", ["accel", "residual_norm", "finite"], rows)
    write_json(out_path / "eval.json", {
        "config_digest": config_digest(cfg),
        "checkpoint_config_digest": None if ca is None else ca.config_digest,
        "checkpoint_b_config_digest": None if cb is None else cb.config_digest,
        "samples_a_config_digest": sa.get("config_digest"),
        "samples_a_seed": sa.get("seed"),
        "samples_b_config_digest": sb.get("config_digest"),
        "samples_b_seed": sb.get("seed"),
    })
    return out_path


def cmd_inspect(path, pgm=None, index: int = 0, height: int | None = None,
                width: int | None = None) -> None:
    """Describe an artifact file (:func:`~specdiff.artifacts.describe`);
    optionally dump one record of a tensor file as a graymap."""
    if pgm is None:
        print(describe(path))
        return
    arr = read_tensor_file(path)
    print(describe_tensor(path, arr))
    if arr.ndim == 2 and not 0 <= index < len(arr):
        raise ConfigError(f"--index must lie in [0, {len(arr)}), got {index}")
    record = arr[index] if arr.ndim == 2 else arr
    if height is None or width is None:
        side = int(np.sqrt(record.size))
        if side * side != record.size:
            raise ConfigError(f"a record of {record.size} values is not square; "
                              "pass --height and --width")
        height = width = side
    if height * width != record.size:
        raise ConfigError(f"--height {height} x --width {width} does not match "
                          f"the record's {record.size} values")
    write_pgm(pgm, record.reshape(height, width))


# -- argument parsing ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="specdiff",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_configured(name, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", required=True, help="output directory")
        return p

    def add_reverse(name, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--steps", type=int, default=100)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--eta", type=float, default=0.0)
        return p

    add_configured("gen-data", "write clean signals and measurements")
    p = add_configured("train", "train a model per the config")
    p.add_argument("--measurements", default=None,
                   help="gen-data output directory to train on (default: simulate)")

    p = add_reverse("sample", "generate samples from a checkpoint")
    p.add_argument("--sampler", choices=["ddim", "ddpm"], default="ddim")
    p.add_argument("--count", type=int, default=1)

    p = add_reverse("reconstruct", "reconstruct stored measurements")
    p.add_argument("--measurements", required=True, help="gen-data output directory")
    p.add_argument("--limit", type=int, default=None)

    p = add_configured("eval", "run configured evaluation operations")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--checkpoint-b", default=None)
    p.add_argument("--samples-a", default=None)
    p.add_argument("--samples-b", default=None)

    p = sub.add_parser("inspect", help="describe an artifact file")
    p.add_argument("path")
    p.add_argument("--pgm", default=None)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--height", type=int, default=None)
    p.add_argument("--width", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "gen-data":
        cmd_gen_data(load_config(args.config), args.out)
    elif args.command == "train":
        cmd_train(load_config(args.config), args.out, args.measurements)
    elif args.command == "sample":
        cmd_sample(args.checkpoint, args.out, args.sampler, args.steps,
                   args.count, args.seed, eta=args.eta)
    elif args.command == "reconstruct":
        cmd_reconstruct(args.checkpoint, args.measurements, args.out, args.steps,
                        args.seed, eta=args.eta, limit=args.limit)
    elif args.command == "eval":
        cmd_eval(load_config(args.config), args.out, checkpoint=args.checkpoint,
                 checkpoint_b=args.checkpoint_b, samples_a=args.samples_a,
                 samples_b=args.samples_b)
    elif args.command == "inspect":
        cmd_inspect(args.path, pgm=args.pgm, index=args.index,
                    height=args.height, width=args.width)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
