"""Smoke test of the benchmark: every workload at minimum length, both modes.

    python3 perfbench/smoke.py [workload ...]

Run from the repository root. Each run must exit 0, print every metric that
BENCHMARK.json names for its mode with the declared unit, print the readable
metrics of the issue's list, and report correct outputs. ``lp-random`` must
report at least one failed operation while its simplex can cycle. Last, the
benchmark must refuse to run in a directory that holds only BENCHMARK.json and
its own files. Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
READABLE = ("fail_ratio", "time_to_target_s", "expl_at_budget")


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
               "--seed", "0", "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(spec: dict, workload: str, trace: int) -> list:
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        problems.append("outputs not correct or nothing attempted")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != expected:
        problems.append(f"metrics {printed} differ from BENCHMARK.json {expected}")
    text = "\n".join(lines[:-1])
    problems += [f"readable report lacks {name}" for name in READABLE if name not in text]
    if workload == "lp-random" and result["failed"] < 1:
        problems.append("lp-random reports no failed operation")
    return problems


def check_refuses_without_sources(spec: dict) -> list:
    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["the benchmark ran without the fosg sources"]
    return []


def main(argv) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    names = argv or [w["name"] for w in spec["workloads"]]
    failures = 0
    for workload in names:
        for trace in (0, 1):
            problems = check_run(spec, workload, trace)
            failures += bool(problems)
            print(f"{workload} trace {trace}: {'ok' if not problems else '; '.join(problems)}")
    problems = check_refuses_without_sources(spec)
    failures += bool(problems)
    print(f"bare directory: {'ok' if not problems else '; '.join(problems)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
