"""Smoke run of every workload, checked against ``BENCHMARK.json``.

    python3 perfbench/selftest.py

For each workload and both trace modes this runs ``run.py --smoke`` (tiny
sizes) and checks that it exits 0, reports ``correct``, and prints exactly the
declared metrics with their declared units and finite values. It then copies
``BENCHMARK.json`` and ``perfbench/`` alone into ``perfbench/out/bare`` and
checks that the benchmark fails there without printing a result, as it must
when the library is absent. Exits 1 on any mismatch.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_metrics(declared: list, printed: dict) -> list[str]:
    problems = []
    want = {m["name"]: m["unit"] for m in declared}
    for name in sorted(set(want) - set(printed)):
        problems.append(f"declared but not printed: {name}")
    for name, entry in printed.items():
        if name not in want:
            problems.append(f"printed but not declared: {name}")
        elif entry["unit"] != want[name]:
            problems.append(f"{name}: unit {entry['unit']!r}, declared {want[name]!r}")
        if not isinstance(entry["value"], (int, float)) or not math.isfinite(entry["value"]):
            problems.append(f"{name}: value {entry['value']!r} is not a finite number")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run(ROOT, workload, trace)
            problems = []
            if proc.returncode != 0:
                problems.append(f"exit code {proc.returncode}: {proc.stderr[-2000:]}")
            else:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"result keys {sorted(result)}")
                if result["correct"] is not True or result["attempted"] < 1:
                    problems.append(f"correct={result['correct']} "
                                    f"attempted={result['attempted']}")
                problems += check_metrics(declared, result["metrics"])
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {workload} --trace {trace}")
            for p in problems:
                print(f"     {p}")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run(bare, spec["workloads"][0]["name"], 0)
        printed = any(line.startswith('{"correct"') for line in proc.stdout.splitlines())
        ok = proc.returncode != 0 and not printed
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} without the library: exit {proc.returncode}, "
              f"result printed: {printed}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
