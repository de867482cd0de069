"""Workloads, and the phases each one runs through the specdiff library.

Every workload is one preset from ``configs/`` run end to end with the calls
the CLI makes: set-up (signals and measurement precompute), GSURE training,
oracle training, checkpoint round trips, DDIM and DDPM sampling, per-record
reconstruction and the evaluation operations. Only seeds, iteration counts and
evaluation sizes differ from the preset; architecture, batch, ``chunk_size``
and ``threads`` stay as shipped. Training runs as one ``train`` call per
round, each continuing from the previous round's weights. Sampling and
reconstruction use an untrained model from the model seed, so their outputs
(checked against stored reference values) do not depend on the training code;
their cost does not depend on the weights.

The work done is fixed by the seed and ``--seconds``: op counts are sized
from nominal per-op costs measured on the reference machine (2-vCPU Xeon VM,
OpenBLAS, one BLAS thread), so a faster commit does the same work in less
time and its outputs hash the same.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import shutil
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from specdiff import autodiff, cli, diffusion, evaluation, losses, model, training
from specdiff.training import derived_rng

ROOT = Path(__file__).resolve().parents[1]
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

DEFAULT_SEED = 0
DDIM_STEPS = 50        # as the sampling examples in README
DDIM_ROWS = 64         # cmd_sample's chunk
DDPM_ROWS = 4          # one small chunk per call, so that every round has calls
RECON_STEPS = 100      # cmd_reconstruct's default
N_PERMUTATIONS = 4     # fixed; the preset's 200 would take ~146 s
SETUP_REPS = 5
WARMUP_STEPS = 3
FLOOR_REPS = 200
ROUNDS = 10            # phases interleave over this many rounds
REF_RTOL, REF_ATOL = 1e-7, 1e-9  # reduction-order rounding passes, real changes do not

FAILURES = (training.TrainingDiverged, autodiff.NonFiniteError,
            diffusion.InfeasibleTimestepError)

PHASES = ("gsure", "oracle", "ddim", "ddpm", "recon")
SHARE = {"gsure": 0.25, "oracle": 0.15, "ddim": 0.1, "ddpm": 0.15, "recon": 0.35}
# >= 100 samples behind every p90, and at least one op of every phase per round
MIN_OPS = {"gsure": 100, "oracle": 100, "ddim": ROUNDS, "ddpm": ROUNDS, "recon": 100}
SMOKE_OPS = {"gsure": 3, "oracle": 3, "ddim": 1, "ddpm": 1, "recon": 2}


@dataclass(frozen=True)
class Workload:
    preset: str
    op_seconds: dict        # nominal seconds per op of each phase (reference machine)
    demo_samples: int | None  # independence-demo size; None keeps the preset's
    eval_reps: int          # eval passes; eval_s is the mean pass time


WORKLOADS = {
    # arithmetic-bound: n = 256, 271k params, 2 chunks per step
    "patch-train": Workload("shapes_patch.json",
                            {"gsure": 0.020, "oracle": 0.014, "ddim": 0.12,
                             "ddpm": 0.47, "recon": 0.056}, 1000, 10),
    # overhead-bound: n = 2, 4 chunks of ~31 tape nodes per step; its eval is
    # the preset's independence demo, the heaviest pure-numpy kernel
    "deltas-train": Workload("two_deltas.json",
                             {"gsure": 0.007, "oracle": 0.0046, "ddim": 0.036,
                              "ddpm": 0.045, "recon": 0.036}, None, 1),
}


@dataclass(frozen=True)
class Sizes:
    ops: dict
    ddim_rows: int
    ddpm_rows: int
    data_count: int | None = None
    eval_count: int | None = None
    demo_samples: int | None = None
    eval_reps: int = 1


def sizes_for(wl: Workload, seconds: float, smoke: bool) -> Sizes:
    if smoke:
        return Sizes(ops=dict(SMOKE_OPS), ddim_rows=4, ddpm_rows=2, data_count=64,
                     eval_count=16, demo_samples=200)
    ops = {p: max(MIN_OPS[p], round(seconds * SHARE[p] / wl.op_seconds[p]))
           for p in PHASES}
    return Sizes(ops=ops, ddim_rows=DDIM_ROWS, ddpm_rows=DDPM_ROWS,
                 demo_samples=wl.demo_samples,
                 eval_reps=wl.eval_reps)


SEED_KEYS = ("data", "model", "train", "oracle", "eval", "sample", "recon")


def derive_seeds(seed: int) -> dict:
    """Independent seeds for every consumer, all from the workload seed."""
    state = np.random.SeedSequence(seed).generate_state(len(SEED_KEYS))
    return {key: int(s) for key, s in zip(SEED_KEYS, state)}


def preset_config(wl: Workload, seeds: dict, sizes: Sizes) -> dict:
    cfg = cli.load_config(ROOT / "configs" / wl.preset)
    cfg["data"]["seed"] = seeds["data"]
    cfg["model"]["seed"] = seeds["model"]
    cfg["train"]["seed"] = seeds["train"]
    cfg["eval"]["seed"] = seeds["eval"]
    cfg["eval"]["n_permutations"] = N_PERMUTATIONS
    if sizes.data_count is not None:
        cfg["data"]["count"] = sizes.data_count
    if sizes.eval_count is not None:
        cfg["eval"]["count"] = sizes.eval_count
    if sizes.demo_samples is not None:
        cfg["eval"]["n_samples"] = sizes.demo_samples
    return cfg


# -- bookkeeping ------------------------------------------------------------------


class Run:
    """Timings, checks, op accounting and the output hash of one pass."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.checks: list[tuple[str, bool, str]] = []
        self.values: dict = {}
        self.counts: dict = defaultdict(int)
        self.ms: dict = defaultdict(list)      # per-op times of each phase
        self.wall: dict = defaultdict(float)   # seconds spent in each phase
        self.digest = hashlib.sha256()

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    @contextlib.contextmanager
    def phase(self, name: str):
        if self.tracer is None:
            yield
            return
        outer = self.tracer.phase
        self.tracer.phase = name
        try:
            with self.tracer.span(f"bench.{name}"):
                yield
        finally:
            self.tracer.phase = outer

    def start_op(self, count: int = 1) -> None:
        """Count ``count`` attempted ops and give their spans a new op id."""
        self.attempted += count
        if self.tracer is not None:
            self.tracer.op += 1

    def attempt(self, fn, *args, **kwargs):
        """One op: counted, and a library failure is counted instead of raised."""
        self.start_op()
        try:
            return fn(*args, **kwargs)
        except FAILURES as exc:
            self.failed += 1
            self.errors.append(f"{fn.__name__}: {exc!r}")
            return None

    def record(self, arr) -> None:
        self.digest.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def finite(arr) -> bool:
    return bool(np.all(np.isfinite(np.asarray(arr, dtype=np.float64))))


def p50_p90(ms) -> tuple[float, float]:
    return float(np.percentile(ms, 50)), float(np.percentile(ms, 90))


# -- phases --------------------------------------------------------------------------


def setup(wl: Workload, seeds: dict, sizes: Sizes):
    """Config, clean signals and precomputed measurements, as ``specdiff train``."""
    cfg = preset_config(wl, seeds, sizes)
    family = cli.build_degradation_family(cfg)
    signals = cli.generate_signals(cfg["data"], cfg["data"]["count"],
                                   cfg["data"]["seed"])
    data = training.precompute(signals, family, seed=cfg["data"]["seed"])
    return cfg, family, data, cli.build_schedule(cfg)


@contextlib.contextmanager
def stamped(obj, method: str):
    """Times at which each call of ``obj.method`` returned, via an instance override."""
    stamps: list[float] = []
    inner = getattr(obj, method)

    def wrapper(*args, **kwargs):
        out = inner(*args, **kwargs)
        stamps.append(time.perf_counter())
        return out

    setattr(obj, method, wrapper)
    try:
        yield stamps
    finally:
        delattr(obj, method)


def slice_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def train_slice(run: Run, name: str, net, tcfg, data, schedule, steps: int,
                index: int) -> None:
    """``steps`` steps of ``train``, unmodified, continuing from ``net``.

    Step boundaries come from ``ema_update``, which ``train`` calls once per
    step. Each slice draws its batches from its own derived seed.
    """
    if steps == 0:
        return
    cfg = dataclasses.replace(tcfg, iterations=steps, seed=slice_seed(tcfg.seed, index))
    run.start_op(steps)
    with stamped(net, "ema_update") as stamps:
        try:
            with run.phase(name):
                start = time.perf_counter()
                result = training.train(net, cfg, data, schedule)
                run.wall[name] += time.perf_counter() - start
        except FAILURES as exc:
            run.failed += steps - len(stamps)
            run.errors.append(f"{name} slice {index}: {exc!r}")
            return
    run.ms[name].extend(np.diff([start] + stamps) * 1e3)
    run.counts[f"{name}_steps"] += steps
    rows = [(r.loss, r.grad_norm) for r in result.metrics]
    run.check(f"{name}.slice{index}.finite_loss_and_grad", rows and finite(rows))


def gradient_check(net, tcfg, data, schedule, rng, rows: int = 4,
                   h: float = 1e-5, rtol: float = 1e-6) -> tuple[bool, str]:
    """Directional derivative of the chunk loss: tape gradient vs central FD."""
    idx = rng.integers(0, len(data), size=rows)
    t_min = diffusion.t_min_for_noise_var(schedule, data.worst_noise_var())
    t = rng.integers(t_min, schedule.T + 1, size=rows)
    if tcfg.oracle_mode:
        xbar = data.clean_xbar[idx]
        abar = np.asarray(schedule.abar(t))[:, None]
        xbar_t = np.sqrt(abar) * xbar + np.sqrt(1.0 - abar) * rng.standard_normal(xbar.shape)

        def loss_of(m):
            return losses.supervised_loss_from_samples(m, xbar, xbar_t, t, schedule,
                                                       tcfg.loss)
    else:
        xbar_t = diffusion.perturb_batch(data.ybar[idx], data.noise_var[idx], t,
                                         schedule, rng)
        probes = rng.standard_normal((tcfg.loss.probes * rows, data.n))

        def loss_of(m):
            return losses.gsure_loss_from_samples(m, data.ybar[idx], data.masks[idx],
                                                  xbar_t, t, probes, schedule,
                                                  data.w, tcfg.loss)

    grad = loss_of(net).backward_flat(net)
    v = rng.standard_normal(net.param_count)
    v /= np.linalg.norm(v)

    def shifted(sign):
        m = model.Denoiser.from_arch(net.arch(), net.params + sign * h * v)
        return loss_of(m).value

    fd = (shifted(1.0) - shifted(-1.0)) / (2.0 * h)
    analytic = float(grad @ v)
    err = abs(fd - analytic)
    ok = finite(grad) and err <= rtol * max(abs(analytic), abs(fd)) + 1e-12
    return ok, f"tape {analytic:.9g} fd {fd:.9g}"


def schedule_meta(schedule, data) -> dict:
    return {"T": schedule.T, "beta1": float(schedule.betas[0]),
            "betaT": float(schedule.betas[-1]),
            "t_min_valid": diffusion.t_min_for_noise_var(schedule,
                                                         data.worst_noise_var())}


def checkpoint_round_trip(run: Run, ckpts: dict, out_dir: Path) -> dict:
    """Save and load each checkpoint, as ``specdiff train`` and ``sample`` do."""
    loaded = {}
    with run.phase("checkpoint"):
        for name, ckpt in ckpts.items():
            path = out_dir / f"{name}.bin"
            run.start_op()
            t0 = time.perf_counter()
            cli.save_checkpoint(path, ckpt)
            t1 = time.perf_counter()
            loaded[name] = cli.load_checkpoint(path)
            run.ms["checkpoint_save"].append((t1 - t0) * 1e3)
            run.ms["checkpoint_load"].append((time.perf_counter() - t1) * 1e3)
            run.check(f"checkpoint.{name}.round_trip", loaded[name] == ckpt)
    return loaded


def timed(run: Run, phase: str, fn, *args, **kwargs):
    """One op of ``phase``: its time is kept, a library failure counted."""
    with run.phase(phase):
        t0 = time.perf_counter()
        out = run.attempt(fn, *args, **kwargs)
        dt = time.perf_counter() - t0
    run.wall[phase] += dt
    if out is not None:
        run.ms[phase].append(dt * 1e3)
    return out


def sample_op(run: Run, phase: str, net, draw, ci: int, rows: int, n: int) -> None:
    """One sampler chunk; its reverse steps are timed at ``net.denoise`` returns."""
    with stamped(net, "denoise") as stamps:
        start = time.perf_counter()
        out = timed(run, phase, draw, ci)
    if out is not None:
        run.ms[f"{phase}_step"].extend(np.diff([start] + stamps) * 1e3)
        run.counts[f"{phase}_samples"] += out.shape[0]
        run.check(f"{phase}.chunk{ci}", out.shape == (rows, n) and finite(out),
                  f"shape {out.shape}")
        run.record(out)


def recon_op(run: Run, net, schedule, m, vt, seed: int, i: int) -> None:
    """Zero-fill and reconstruct one stored record, as ``cmd_reconstruct``."""

    def both():
        return diffusion.zero_filled(m, vt), diffusion.reconstruct(
            net, schedule, m, RECON_STEPS, derived_rng(seed, i), vt, eta=0.0)

    out = timed(run, "recon", both)
    if out is not None:
        zf, rec = out
        run.counts["recon_records"] += 1
        run.check(f"recon.record{i}", rec.shape == (vt.n,) and finite(rec) and finite(zf))
        run.record(rec)
        run.record(zf)


def eval_ts(cfg: dict, schedule, t_min: int) -> list[int]:
    """The timestep grid ``specdiff eval`` uses when ``eval.ts`` is empty."""
    ts = list(range(t_min, schedule.T + 1, cfg["eval"]["t_stride"]))
    if ts[-1] != schedule.T:
        ts.append(schedule.T)
    return ts


def eval_ops(cfg: dict, family) -> list:
    """One evaluation pass as separate ops, each ``op(ca, cb) -> rows``.

    These are the calls ``cmd_eval`` makes for ``mse_sweep``,
    ``generalization_psnr`` and ``independence_demo`` (both priors), with the
    demo split per SNR level so that no single op spans much of the run.
    Every workload runs all three so every per-layer evaluation metric is
    measured on every workload; the demo runs at the preset's ``n_samples``
    where the preset lists it and at a small fixed size elsewhere.
    """
    ev = cfg["eval"]
    seed = ev["seed"]

    def xbar_and_ts(ca):
        schedule = ca.rebuild_schedule()
        clean = cli.generate_signals(cfg["data"], ev["count"], seed)
        return family.vt.apply(clean), schedule, eval_ts(cfg, schedule,
                                                         ca.schedule["t_min_valid"])

    def mse_sweep(ca, cb):
        xbar, schedule, ts = xbar_and_ts(ca)
        res = evaluation.denoising_mse_sweep(ca.model(), cb.model(), xbar, schedule,
                                             ts, derived_rng(seed, 1))
        return res.rows, len(ts)

    def psnr(ca, cb):
        xbar, schedule, ts = xbar_and_ts(ca)
        rows = evaluation.generalization_psnr(ca.model(), cb.model(), xbar, schedule,
                                              ts, derived_rng(seed, 2), peak=ev["peak"])
        return rows, len(ts)

    def demo(prior, den, j):
        def op(ca, cb):
            recs = evaluation.independence_demo(
                prior, den, [ev["snr_levels"][j]], ev["n_samples"],
                derived_rng(seed, 3, j), n_permutations=ev["n_permutations"])
            return [(r.snr, r.abar, r.energy, r.z, r.null_mean, r.null_sd)
                    for r in recs], 1
        op.__name__ = f"independence_demo[{prior},{j}]"
        return op

    ops = [mse_sweep, psnr]
    for prior, den in (("isotropic-gaussian", evaluation.GaussianPosteriorDenoiser()),
                       ("two-deltas", evaluation.TwoDeltasPosteriorDenoiser())):
        ops += [demo(prior, den, j) for j in range(len(ev["snr_levels"]))]
    return ops


def eval_op(run: Run, op, ca, cb, index: int) -> None:
    out = timed(run, "eval", op, ca, cb)
    if out is not None:
        rows, expected = out
        run.check(f"eval.{op.__name__}.{index}.finite_and_complete",
                  len(rows) == expected and finite(rows))
        run.record(rows)


# -- reference outputs ------------------------------------------------------------------


def reference_outputs(wl: Workload) -> dict:
    """Small DDIM, DDPM and reconstruction outputs for the default seed."""
    seeds = derive_seeds(DEFAULT_SEED)
    cfg = preset_config(wl, seeds, sizes_for(wl, 1, smoke=False))
    family = cli.build_degradation_family(cfg)
    signals = cli.generate_signals(cfg["data"], 1, cfg["data"]["seed"])
    data = training.precompute(signals, family, seed=cfg["data"]["seed"])
    schedule = dataclasses.replace(
        cli.build_schedule(cfg),
        t_min_valid=diffusion.t_min_for_noise_var(cli.build_schedule(cfg),
                                                  data.worst_noise_var()))
    net = cli.build_model(cfg, family.n)
    return {
        "ddim": diffusion.ddim_sample(net, schedule, DDIM_STEPS, 0.0,
                                      derived_rng(seeds["sample"], 0, 0), family.vt,
                                      count=2),
        "ddpm": diffusion.ddpm_sample(net, schedule, derived_rng(seeds["sample"], 1, 0),
                                      family.vt, count=1),
        "recon": diffusion.reconstruct(net, schedule, data.measurement(0), RECON_STEPS,
                                       derived_rng(seeds["recon"], 0), family.vt),
    }


def load_reference() -> dict:
    if REFERENCE_PATH.exists():
        return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    return {}


def write_reference(name: str) -> None:
    refs = load_reference()
    refs[name] = {k: [[float(f"{v:.15g}") for v in row] for row in np.atleast_2d(a)]
                  for k, a in reference_outputs(WORKLOADS[name]).items()}
    REFERENCE_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")


def reference_check(run: Run, name: str) -> None:
    expected = load_reference().get(name)
    if not run.check(f"reference.{name}.stored", expected is not None,
                     "no stored reference; run with --write-reference"):
        return
    with run.phase("check"):
        outputs = reference_outputs(WORKLOADS[name])
    for key, arr in outputs.items():
        ref = np.asarray(expected[key])
        got = np.atleast_2d(arr)
        ok = got.shape == ref.shape and finite(got) \
            and np.allclose(got, ref, rtol=REF_RTOL, atol=REF_ATOL)
        worst = float(np.max(np.abs(got - ref))) if got.shape == ref.shape else np.inf
        run.check(f"reference.{key}", ok, f"max abs diff {worst:.3g}")


# -- the arithmetic floor ---------------------------------------------------------------


def weight_shapes(net) -> list[tuple[int, int]]:
    """(out, in) of every affine map in the denoiser, the embedding block included."""
    dims = [net.n, *net.hidden]
    shapes = [(net.hidden[0], net.n), (net.hidden[0], net.emb_dim)]
    shapes += [(dims[i + 1], dims[i]) for i in range(1, len(net.hidden))]
    return shapes + [(net.n, net.hidden[-1])]


def value_forward_floor_ms(net, rows: int, rng) -> float:
    """Median ms of a plain numpy value forward of the same MLP at ``rows`` rows."""
    ws = [rng.standard_normal(s) / np.sqrt(s[1]) for s in weight_shapes(net)]
    bs = [np.zeros(s[0]) for s in weight_shapes(net)]
    x = rng.standard_normal((rows, net.n))
    temb = rng.standard_normal((rows, net.emb_dim))

    def fwd():
        h = np.tanh(x @ ws[0].T + temb @ ws[1].T + bs[0])
        for w, b in zip(ws[2:-1], bs[2:-1]):
            h = np.tanh(h @ w.T + b)
        return h @ ws[-1].T + bs[-1]

    times = []
    for _ in range(FLOOR_REPS):
        t0 = time.perf_counter()
        fwd()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) * 1e3


def gsure_matmul_flop_per_row(net) -> float:
    """Matmul flops of one GSURE row's dual forward and backward, per the tape's rules.

    The value forward costs 2W and the tangent 2W_x more; the two-stream
    backward costs 8W + 2W_x. W counts all weights and W_x those of affines
    whose input carries a tangent (all but the embedding block).
    """
    shapes = weight_shapes(net)
    w_all = sum(o * i for o, i in shapes)
    w_x = w_all - shapes[1][0] * shapes[1][1]
    return float(10 * w_all + 4 * w_x)


# -- one pass ------------------------------------------------------------------------------


def per_round(total: int, rounds: int = ROUNDS) -> list[int]:
    """``total`` ops spread as evenly as possible over the rounds."""
    return [(r + 1) * total // rounds - r * total // rounds for r in range(rounds)]


def run_workload(name: str, seed: int, seconds: float, smoke: bool, out_dir: Path,
                 tracer=None) -> Run:
    """Every phase of one workload, interleaved over ``ROUNDS`` rounds.

    The machine's speed drifts over seconds (shared hosts), so each phase's
    ops are spread across the whole run instead of running back to back;
    every metric then samples the same stretch of time. Each round trains a
    GSURE slice and an oracle slice, round-trips their checkpoints, evaluates
    the loaded checkpoints, and samples and reconstructs with the untrained
    model.
    """
    wl = WORKLOADS[name]
    sizes = sizes_for(wl, seconds, smoke)
    seeds = derive_seeds(seed)
    run = Run(tracer)

    def setup_op():
        run.start_op()
        with run.phase("setup"):
            t0 = time.perf_counter()
            out = setup(wl, seeds, sizes)
            run.ms["setup"].append((time.perf_counter() - t0) * 1e3)
        return out

    cfg, family, data, schedule = setup_op()
    base = cli.build_train_config(cfg)
    nets = {"gsure": cli.build_model(cfg, family.n),
            "oracle": cli.build_model(cfg, family.n)}
    tcfgs = {"gsure": base,
             "oracle": dataclasses.replace(base, seed=seeds["oracle"], oracle_mode=True)}
    with run.phase("warmup"):
        for tcfg in tcfgs.values():
            run.attempt(training.train, cli.build_model(cfg, family.n),
                        dataclasses.replace(tcfg, iterations=WARMUP_STEPS), data, schedule)

    meta = schedule_meta(schedule, data)
    digest = cli.config_digest(cfg)

    def ckpt(net, steps):
        return cli.Checkpoint(arch=net.arch(), params=net.params,
                              ema_params=net.ema_params, step_count=steps,
                              config_digest=digest, schedule=meta,
                              vt_descriptor=family.vt.descriptor())

    untrained = ckpt(cli.build_model(cfg, family.n), 0)
    sampler = untrained.model()
    sched = untrained.rebuild_schedule()
    vt = family.vt

    def ddim(ci):
        return diffusion.ddim_sample(sampler, sched, DDIM_STEPS, 0.0,
                                     derived_rng(seeds["sample"], 0, ci), vt,
                                     count=sizes.ddim_rows)

    def ddpm(ci):
        return diffusion.ddpm_sample(sampler, sched, derived_rng(seeds["sample"], 1, ci),
                                     vt, count=sizes.ddpm_rows)

    ops = eval_ops(cfg, family)
    plan = {p: per_round(sizes.ops[p]) for p in PHASES}
    plan["setup"] = per_round(SETUP_REPS - 1)
    plan["eval"] = per_round(len(ops) * sizes.eval_reps)
    done = {p: 0 for p in plan}
    ckpt_dir = out_dir / f"ckpt-{name}-{os.getpid()}"
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    try:
        for r in range(ROUNDS):
            for _ in range(plan["setup"][r]):
                setup_op()
            for phase in ("gsure", "oracle"):
                train_slice(run, phase, nets[phase], tcfgs[phase], data, schedule,
                            plan[phase][r], r)
            loaded = checkpoint_round_trip(run, {
                "gsure": ckpt(nets["gsure"], done["gsure"] + plan["gsure"][r]),
                "oracle": ckpt(nets["oracle"], done["oracle"] + plan["oracle"][r]),
                "untrained": untrained}, ckpt_dir)
            for k in range(done["eval"], done["eval"] + plan["eval"][r]):
                eval_op(run, ops[k % len(ops)], loaded["gsure"], loaded["oracle"], k)
            for ci in range(done["ddim"], done["ddim"] + plan["ddim"][r]):
                sample_op(run, "ddim", sampler, ddim, ci, sizes.ddim_rows, vt.n)
            for ci in range(done["ddpm"], done["ddpm"] + plan["ddpm"][r]):
                sample_op(run, "ddpm", sampler, ddpm, ci, sizes.ddpm_rows, vt.n)
            for i in range(done["recon"], done["recon"] + plan["recon"][r]):
                recon_op(run, sampler, sched, data.measurement(i % len(data)), vt,
                         seeds["recon"], i)
            for p in plan:
                done[p] += plan[p][r]
    finally:
        shutil.rmtree(ckpt_dir, ignore_errors=True)

    for phase, net in nets.items():
        run.check(f"{phase}.finite_params", finite(net.params) and finite(net.ema_params))
        run.record(net.params)
        run.record(net.ema_params)
    # the presets weight the divergence term by ~1e-4, which hides its
    # second-order tape rules from a check of the preset loss; weight 1 exposes them
    weighted = dataclasses.replace(base.loss, lam_coef=1.0)
    for label, net, tcfg in (("gsure", nets["gsure"], tcfgs["gsure"]),
                             ("oracle", nets["oracle"], tcfgs["oracle"]),
                             ("gsure.divergence_weighted", nets["gsure"],
                              dataclasses.replace(tcfgs["gsure"], loss=weighted))):
        with run.phase("check"):
            ok, detail = gradient_check(net, tcfg, data, schedule,
                                        derived_rng(tcfg.seed, 99))
        run.check(f"{label}.gradient_vs_central_difference", ok, detail)
    reference_check(run, name)

    run.counts.update(setups=SETUP_REPS, eval_passes=sizes.eval_reps,
                      params=nets["gsure"].param_count)
    run.values["floor.value_forward_ms"] = value_forward_floor_ms(
        nets["gsure"], base.chunk_size, derived_rng(seed, 7))
    run.values["gsure_matmul_flop_per_row"] = gsure_matmul_flop_per_row(nets["gsure"])
    summarize(run, base.batch_size, sizes.eval_reps)
    return run


def summarize(run: Run, batch: int, passes: int) -> None:
    """End-to-end values from the pass's op times; phases that failed are left out."""
    v = run.values
    v["setup_s"] = float(np.median(run.ms["setup"])) / 1e3
    for phase in ("gsure", "oracle"):
        if run.ms[phase]:
            v[f"{phase}_samples_per_s"] = batch * len(run.ms[phase]) / run.wall[phase]
            v[f"{phase}_step_ms.p50"], v[f"{phase}_step_ms.p90"] = p50_p90(run.ms[phase])
    for phase in ("ddim", "ddpm"):
        if run.counts[f"{phase}_samples"]:
            v[f"{phase}_samples_per_s"] = run.counts[f"{phase}_samples"] / run.wall[phase]
            v[f"{phase}_step_ms.p50"], v[f"{phase}_step_ms.p90"] = \
                p50_p90(run.ms[f"{phase}_step"])
    if run.ms["recon"]:
        v["recon_per_s"] = len(run.ms["recon"]) / run.wall["recon"]
        v["recon_ms.p50"], v["recon_ms.p90"] = p50_p90(run.ms["recon"])
    if run.ms["eval"]:
        v["eval_s"] = run.wall["eval"] / passes
    v["timed_s"] = sum(run.wall[p] for p in (*PHASES, "eval"))
