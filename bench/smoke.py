#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at the acceptance suite's c12 scale.

    python3 bench/smoke.py

Runs every workload on the small corpora (8x3x10 specific, 12x2x10
generalized) once untraced and twice traced, and checks that:

- every run is correct, with no failed command;
- each run prints exactly the metrics BENCHMARK.json names for its mode,
  each with its unit;
- every count of the traced run repeats exactly across the two traced runs;
- in each traced command the summed self time never exceeds its wall time;
- in a directory holding only BENCHMARK.json and bench/ the benchmark exits
  nonzero without printing a result.

It takes about a minute and is not part of the tier-1 suite (the file name
does not match pytest's test pattern).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_out" / "smoke"
TIMEOUT_S = 180


def run(workload: str, trace: int, tag: str, cwd: Path = ROOT, bench: Path = HERE):
    out = SCRATCH / f"{workload}-{tag}.json"
    cmd = [sys.executable, str(bench / "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--scale", "c12", "--out", str(out)]
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)
    return done, out


def result_line(done) -> dict:
    assert done.returncode == 0, f"exit {done.returncode}: {done.stderr[-2000:]}"
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}, line.keys()
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, line
    return line


def check_metrics(line: dict, declared: list, label: str) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in line["metrics"].items()}
    assert got == want, f"{label}: metrics differ from BENCHMARK.json: " \
        f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, " \
        f"units {[(n, got[n], want[n]) for n in want if n in got and got[n] != want[n]]}"
    for name, m in line["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{label}: {name} is not a number"


def check_self_time(result_file: Path, label: str) -> None:
    spans_by_command = json.loads(result_file.read_text())["spans_by_command"]
    for cmd in spans_by_command.values():
        self_sum = sum(e["self_s"] for e in cmd["spans"].values())
        assert self_sum <= cmd["wall_s"] * (1 + 1e-9) + 1e-9, \
            f"{label}/{cmd['label']}: self time {self_sum} exceeds wall {cmd['wall_s']}"


def check_bare_directory() -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done, _ = run("specific", 0, "bare", cwd=bare, bench=bare / "bench")
    assert done.returncode != 0, "benchmark succeeded without the farecast sources"
    assert '"correct"' not in done.stdout, "benchmark printed a result without sources"
    shutil.rmtree(bare)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    for workload in (w["name"] for w in spec["workloads"]):
        done, _ = run(workload, 0, "untraced")
        check_metrics(result_line(done), spec["end_to_end"], f"{workload} trace 0")
        traced = []
        for tag in ("traced-a", "traced-b"):
            done, out = run(workload, 1, tag)
            line = result_line(done)
            check_metrics(line, spec["per_layer"], f"{workload} trace 1")
            check_self_time(out, f"{workload} {tag}")
            traced.append(line["metrics"])
        for name in counts:
            a, b = traced[0][name]["value"], traced[1][name]["value"]
            assert a == b, f"{workload}: count {name} differs between traced runs: {a} != {b}"
        print(f"ok {workload}", flush=True)
    check_bare_directory()
    print("ok bare directory")
    shutil.rmtree(SCRATCH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
