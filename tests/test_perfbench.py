"""The benchmark harness still runs against the library: a smoke run of every
workload, in both trace modes, checked against ``BENCHMARK.json``, and a fast
check that every library name the harness traces, catches or reads exists."""

import ast
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


def bench_reads():
    """``(file, module, dotted name)`` for each name that a ``perfbench/*.py``
    file imports from a library module or reads as an attribute of one."""
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {}  # local name -> library module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "specdiff":
                modules.update({a.asname or a.name: f"specdiff.{a.name}"
                                for a in node.names})
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
                    "specdiff."):
                yield from ((path.name, node.module, a.name) for a in node.names)
        for node in ast.walk(tree):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.insert(0, node.attr)
                node = node.value
            if chain and isinstance(node, ast.Name) and node.id in modules:
                yield path.name, modules[node.id], ".".join(chain)


def test_bench_names_resolve():
    reads = set(bench_reads())
    assert {module for _, module, _ in reads} >= {
        f"specdiff.{name}" for name in ("cli", "training", "diffusion", "evaluation",
                                        "model", "losses", "autodiff")}
    for file, module, dotted in sorted(reads):
        obj = importlib.import_module(module)
        for part in dotted.split("."):
            assert hasattr(obj, part), f"{file} reads {module}.{dotted}"
            obj = getattr(obj, part)
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
