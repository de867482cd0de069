"""Benchmark of the specdiff presets: train, sample, reconstruct and evaluate.

    python3 perfbench/run.py --workload patch-train --seed 1 --seconds 30 --trace 0

One workload per process, one caller (a closed loop), BLAS pinned to one
thread. ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload once untraced and once with spans at every layer boundary, and prints
the per-layer metrics plus the tracing overhead between the two passes. The
last line of standard output is the result object; the line before it holds
the run metadata, the failed checks and the sha256 of the outputs. The exit
code is 1 when any output check fails. ``--smoke`` runs tiny sizes, for
``perfbench/selftest.py``; ``--write-reference`` stores the default-seed
reference outputs of one workload.
"""

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ENV_BEFORE = {k: os.environ.get(k) for k in THREAD_VARS}
THREADS_PINNED = "numpy" not in sys.modules  # env is read when numpy loads BLAS
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import pipeline  # noqa: E402
import tracing  # noqa: E402

OUT_DIR = HERE / "out"


# p90s, not medians or throughputs: the host switches between speed states
# (about 1.5x apart) for seconds at a time, and a median or a mean moves with
# the share of the run spent in each, while the p90 stays in the dominant one
END_TO_END = [("setup_s", "s"), ("gsure_step_ms.p90", "ms"), ("oracle_step_ms.p90", "ms"),
              ("ddim_step_ms.p90", "ms"), ("ddpm_step_ms.p90", "ms"),
              ("recon_ms.p90", "ms"), ("eval_s", "s")]
# reported with the per-layer metrics, from the untraced pass
CENTRAL = [("gsure_samples_per_s", "1/s"), ("oracle_samples_per_s", "1/s"),
           ("ddim_samples_per_s", "1/s"), ("ddpm_samples_per_s", "1/s"),
           ("recon_per_s", "1/s"), ("gsure_step_ms.p50", "ms"),
           ("oracle_step_ms.p50", "ms"), ("ddim_step_ms.p50", "ms"),
           ("ddpm_step_ms.p50", "ms"), ("recon_ms.p50", "ms")]


def end_to_end(run: pipeline.Run) -> dict:
    # a phase whose every op failed leaves its metrics null, and the run incorrect
    out = {name: {"value": run.values.get(name), "unit": unit}
           for name, unit in END_TO_END}
    out["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "unit": "MB"}
    return out


def per_layer(plain: pipeline.Run, traced: pipeline.Run, tracer: tracing.Tracer) -> dict:
    """Layer metrics from the traced pass's spans, each scoped to one phase.

    ``*_per_step`` are over the GSURE steps (``forward_value`` and
    ``supervised`` over the oracle steps), ``denoise`` and ``transform`` over
    the reconstruct records, ``corrupt``, ``signals`` and ``precompute`` per
    set-up, and evaluation per eval pass. ``CENTRAL``, ``floor`` and
    ``step_over_floor`` come from the untraced pass.
    """
    tab = tracing.SpanTable(tracer.spans)
    c = traced.counts
    steps, osteps = c["gsure_steps"], c["oracle_steps"]
    records, passes, setups = c["recon_records"], c["eval_passes"], c["setups"]
    dual_s = tab.attr("gsure", "autodiff.forward", "busy_dual")
    bwd_s = tab.busy("gsure", "autodiff.backward")
    jvp_rows = tab.attr("gsure", "losses.gsure", "rows")
    gflop_step = jvp_rows / steps * traced.values["gsure_matmul_flop_per_row"] / 1e9
    denoise_calls = tab.count("recon", "model.denoise")
    saves = tab.count("checkpoint", "cli.checkpoint_save")
    loads = tab.count("checkpoint", "cli.checkpoint_load")
    perms = tab.attr("eval", "evaluation.energy_perm", "perms")
    metrics = [
        ("autodiff.forward_value.ms_per_step", "ms",
         1e3 * (tab.busy("oracle", "autodiff.forward")
                - tab.attr("oracle", "autodiff.forward", "busy_dual")) / osteps),
        ("autodiff.forward_dual.ms_per_step", "ms", 1e3 * dual_s / steps),
        ("autodiff.backward.ms_per_step", "ms", 1e3 * bwd_s / steps),
        ("autodiff.nodes_per_step", "count",
         tab.attr("gsure", "autodiff.forward", "nodes") / steps),
        ("autodiff.matmul_gflop_per_step", "GFLOP", gflop_step),
        ("autodiff.gflops", "GFLOP/s", gflop_step * steps / (dual_s + bwd_s)),
        ("model.build_graph.ms_per_step", "ms",
         1e3 * tab.busy("gsure", "model.build_graph") / steps),
        ("model.build_graph.calls_per_step", "count",
         tab.count("gsure", "model.build_graph") / steps),
        ("model.denoise.calls_per_record", "count", denoise_calls / records),
        ("model.denoise.rows_per_call", "count",
         tab.attr("recon", "model.denoise", "rows") / denoise_calls),
        ("model.denoise.ms_per_call", "ms",
         1e3 * tab.busy("recon", "model.denoise") / denoise_calls),
        ("model.ema.ms_per_step", "ms", 1e3 * tab.busy("gsure", "model.ema") / steps),
        ("training.adam.ms_per_step", "ms",
         1e3 * tab.busy("gsure", "training.adam") / steps),
        # least traffic an update needs: read params, grads, m, v; write params, m, v
        ("training.adam.bytes_per_step", "B", 7 * 8 * c["params"]),
        ("training.chunks_per_step", "count", tab.count("gsure", "losses.gsure") / steps),
        ("training.loop_self_ms_per_step", "ms",
         1e3 * tab.self_time("gsure", "training.train") / steps),
        ("training.precompute_s", "s", tab.busy("setup", "training.precompute") / setups),
        ("losses.gsure.self_ms_per_step", "ms",
         1e3 * tab.self_time("gsure", "losses.gsure") / steps),
        ("losses.supervised.self_ms_per_step", "ms",
         1e3 * tab.self_time("oracle", "losses.supervised") / osteps),
        ("losses.jvp_rows_per_step", "count", jvp_rows / steps),
        ("losses.useful_row_frac", "frac",
         tab.attr("gsure", "losses.gsure", "mse_rows") / jvp_rows),
        ("diffusion.perturb.ms_per_step", "ms",
         1e3 * tab.busy("gsure", "diffusion.perturb") / steps),
        ("diffusion.ddim.self_ms_per_sample", "ms",
         1e3 * tab.self_time("ddim", "diffusion.ddim") / c["ddim_samples"]),
        ("diffusion.ddpm.self_ms_per_sample", "ms",
         1e3 * tab.self_time("ddpm", "diffusion.ddpm") / c["ddpm_samples"]),
        ("diffusion.reconstruct.self_ms_per_record", "ms",
         1e3 * tab.self_time("recon", "diffusion.reconstruct") / records),
        ("operators.corrupt.calls", "count", tab.count("setup", "operators.corrupt") / setups),
        ("operators.corrupt.s", "s", tab.busy("setup", "operators.corrupt") / setups),
        ("operators.transform.ms", "ms",
         1e3 * tab.busy("recon", "operators.transform") / records),
        ("evaluation.mse_sweep.s", "s", tab.busy("eval", "evaluation.mse_sweep") / passes),
        ("evaluation.psnr.s", "s", tab.busy("eval", "evaluation.psnr") / passes),
        ("evaluation.energy_distance.s", "s",
         tab.busy("eval", "evaluation.energy_distance") / passes),
        ("evaluation.energy_perm.ms_per_perm", "ms",
         1e3 * tab.busy("eval", "evaluation.energy_perm") / perms),
        ("evaluation.energy_perm.bytes_per_perm", "B",
         tab.attr("eval", "evaluation.energy_perm", "bytes") / perms),
        ("cli.signals.s", "s", tab.busy("setup", "cli.signals") / setups),
        ("cli.checkpoint_save.ms", "ms",
         1e3 * tab.busy("checkpoint", "cli.checkpoint_save") / saves),
        ("cli.checkpoint_load.ms", "ms",
         1e3 * tab.busy("checkpoint", "cli.checkpoint_load") / loads),
        *((name, unit, plain.values[name]) for name, unit in CENTRAL),
        ("floor.value_forward_ms", "ms", plain.values["floor.value_forward_ms"]),
        ("training.step_over_floor", "ratio",
         plain.values["gsure_step_ms.p50"] / plain.values["floor.value_forward_ms"]),
        ("trace.overhead_frac", "frac",
         traced.values["timed_s"] / plain.values["timed_s"] - 1.0),
        ("trace.spans", "count", len(tracer.spans)),
        ("failed_frac", "frac", (plain.failed + traced.failed)
         / (plain.attempted + traced.attempted)),
    ]
    return {name: {"value": float(value), "unit": unit} for name, unit, value in metrics}


def git_sha(root: Path):
    """HEAD of the checkout, read from ``.git`` without starting a process."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = root / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def metadata(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "threads_pinned": THREADS_PINNED,
        "thread_env_before": ENV_BEFORE,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": git_sha(HERE.parent),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(pipeline.WORKLOADS))
    parser.add_argument("--seed", type=int, default=pipeline.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if args.write_reference:
        pipeline.write_reference(args.workload)
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    plain = pipeline.run_workload(args.workload, args.seed, args.seconds, args.smoke,
                                  OUT_DIR)
    runs = [plain]
    if args.trace:
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            traced = pipeline.run_workload(args.workload, args.seed, args.seconds,
                                           args.smoke, OUT_DIR, tracer=tracer)
        runs.append(traced)
        tracer.write(OUT_DIR / f"spans-{args.workload}.jsonl")
        metrics = per_layer(plain, traced, tracer)
    else:
        metrics = end_to_end(plain)

    correct = all(r.correct for r in runs) \
        and all(m["value"] is not None for m in metrics.values())
    print(json.dumps({
        "meta": metadata(args),
        "outputs_sha256": plain.digest.hexdigest(),
        "checks": sum(len(r.checks) for r in runs),
        "failed_checks": [c for r in runs for c in r.checks if not c[1]],
        "errors": [e for r in runs for e in r.errors],
    }))
    print(json.dumps({"correct": correct,
                      "attempted": sum(r.attempted for r in runs),
                      "failed": sum(r.failed for r in runs),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
