"""Reduced-size self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload once untraced and once traced at self-test size (d=4
tomography, 3 ks-sat bases, one operation) and checks that every metric
BENCHMARK.json declares is emitted with its unit, that no operation failed
and that the traced run covers at least 90% of ``main``. It also checks
that the benchmark refuses to run, without a result line, where there is no
effectkit source. Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
MIN_COVERAGE = 0.9
TIMEOUT_S = 180


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT_S)


def check_workload(name: str, trace: int, declared: dict) -> list[str]:
    proc = run(["--workload", name, "--seed", "0", "--seconds", "1",
                "--trace", str(trace), "--small"], ROOT)
    where = f"{name} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} "
                        f"failed={result['failed']}/{result['attempted']}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(declared) - set(got))}, "
                        f"extra {sorted(set(got) - set(declared))}, units "
                        f"{sorted(k for k in got if declared.get(k, got[k]) != got[k])}")
    shown = {line.split()[1]: float(line.split()[2])
             for line in lines if line.startswith("metric ")}
    if shown.get("fail_ratio") != 0.0:
        problems.append(f"{where}: fail_ratio {shown.get('fail_ratio')}")
    if trace:
        coverage = result["metrics"]["trace.coverage"]["value"]
        if coverage < MIN_COVERAGE:
            problems.append(f"{where}: trace.coverage {coverage:.3f} < {MIN_COVERAGE}")
    return problems


def check_refuses_without_source() -> list[str]:
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(RUN.parent, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", "ks-sat", "--seed", "0", "--seconds", "1",
                    "--trace", "0"], bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[:200]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    if [w["name"] for w in spec["workloads"]] != list(workloads.NAMES):
        print("BENCHMARK.json workloads differ from workloads.NAMES")
        return 1
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    problems = check_refuses_without_source()
    for name in workloads.NAMES:
        for trace in (0, 1):
            found = check_workload(name, trace, declared[trace])
            print(f"{name:14} trace={trace}: {'ok' if not found else 'FAIL'}",
                  flush=True)
            problems += found
    for p in problems:
        print("  " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
