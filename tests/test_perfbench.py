"""The benchmark harness still runs against the library: a smoke run of every
workload, in both trace modes, checked against ``BENCHMARK.json``, and a fast
check that every library name the harness traces or catches exists."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

from specdiff import operators

ROOT = Path(__file__).resolve().parents[1]


def load_bench_module(name: str):
    """``perfbench/<name>.py`` as a module, without putting ``perfbench`` on the path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_bench_names_resolve():
    tracing = load_bench_module("tracing")
    pipeline = load_bench_module("pipeline")  # resolves FAILURES at import
    assert all(issubclass(exc, Exception) for exc in pipeline.FAILURES)
    for span, mod_name, attr, _ in tracing.TARGETS:
        obj = importlib.import_module(f"specdiff.{mod_name}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), span
    assert list(tracing._transform_methods(operators))


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr
