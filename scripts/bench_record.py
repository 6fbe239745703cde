#!/usr/bin/env python3
"""Record one point of the benchmark trajectory as BENCH_<label>.json.

    python3 scripts/bench_record.py LABEL

Runs ``python3 perfbench/run.py --workload W --seed S --seconds 20 --trace 0``
for seeds 1-3 on every workload of BENCHMARK.json, then one ``--trace 1``
run per workload (seed 1), and writes BENCH_<LABEL>.json at the repository
root.  The file holds the commit and whether the working tree differed from
it, a digest of the measured sources, and for each workload every run's
``correct``/``attempted``/``failed`` and metrics, the per-metric medians
over the seeds, the traced per-layer metrics, and each untraced run's mean
time of the phasekit-free reference task its times are scaled by.  A run
that exits non-zero or prints no result stops the recording.  Takes about
seven minutes on a 2-vCPU machine.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)
TRACE_SEED = 1
SECONDS = 20


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def source_digest() -> str:
    """sha256 over the paths and bytes of src/**/*.py, in path order."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def bench(workload: str, seed: int, trace: int) -> dict:
    """One perfbench run; its last line of standard output is the JSON result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    print("running", " ".join(cmd[1:]), flush=True)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    # traced runs time no reference task
    reference = re.search(r"^reference task: mean ([0-9.]+) ms", proc.stdout, re.M)
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "reference_ms": float(reference.group(1)) if reference else None,
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "units": {name: m["unit"] for name, m in result["metrics"].items()}}


def record_workload(workload: str) -> dict:
    runs = [bench(workload, seed, 0) for seed in SEEDS]
    trace = bench(workload, TRACE_SEED, 1)
    units = [run.pop("units") for run in runs][0]
    median = {name: statistics.median(run["metrics"][name] for run in runs) for name in units}
    return {"units": units, "median": median, "runs": runs, "trace": trace}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label", help="names the output file BENCH_<label>.json")
    args = parser.parse_args()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {
        "label": args.label,
        "commit": git("rev-parse", "HEAD"),
        # uncommitted changes outside the BENCH_*.json files themselves
        "dirty": any(not line[3:].startswith("BENCH_")
                     for line in git("status", "--porcelain").splitlines()),
        "src_sha256": source_digest(),
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} "
                   f"--trace T (seeds {', '.join(map(str, SEEDS))} with T=0; "
                   f"seed {TRACE_SEED} with T=1)",
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version()},
        "workloads": {w["name"]: record_workload(w["name"]) for w in declared["workloads"]},
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
