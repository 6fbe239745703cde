"""phasekit benchmark: three workloads, end-to-end metrics, and a traced run.

    python3 perfbench/run.py --workload cli-record --seed 1 --seconds 20 --trace 0

Workloads (see README.md for why each exists):
  cli-record   one `python -m phasekit` process per operation on a long record
  cli-wide     one process per operation whose output dwarfs its input
  api-compute  in-process library calls on arrays held in memory

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics instead.
Every output is checked; `correct` is false if any successful operation
produced a wrong result.
"""
from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
import time

import cli_bench
from harness import (API_REFERENCE_S, BENCH_DIR, PYTHON, REFERENCE_S, ROOT, WORK, Launcher, median,
                     op_geomean_ms, per_op_wall, percentile_line)

SETUPS = 5          # CLI set-up is repeated and its median reported
API_WORKERS = 3     # api-compute splits its time over this many fresh processes
WORKLOADS = ("cli-record", "cli-wide", "api-compute")


class Result:
    def __init__(self):
        self.metrics: dict[str, tuple[float, str]] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.scaled: set[str] = set()   # metrics to report at the reference.py speed
        self.raw: dict[str, float] = {}  # raw values of metrics scaled before emit

    def add_runner(self, runner) -> None:
        self.problems += runner.problems
        self.attempted += runner.attempted
        self.failed += runner.failed

    def add_worker(self, worker: dict) -> None:
        self.problems += worker["problems"]
        self.attempted += worker["attempted"]
        self.failed += worker["failed"]

    def emit(self, refs: list[float]) -> None:
        """Print the notes and every metric, then the JSON result as the last line.

        The metrics named in `scaled` are reported at the speed where
        reference.py takes REFERENCE_S on average; the raw value is printed
        beside each."""
        speed = REFERENCE_S / statistics.fmean(refs) if refs else 1.0
        for note in self.notes:
            print(note)
        if refs:
            print(f"reference task: mean {statistics.fmean(refs) * 1e3:.1f} ms over {len(refs)} runs; "
                  f"{', '.join(sorted(self.scaled))} scaled by {speed:.4f}")
        scaled = {}
        for name, (value, unit) in self.metrics.items():
            scaled[name] = value * speed if name in self.scaled else value
            print(f"{name:36s} {scaled[name]:14.4f} {unit:6s} (raw {self.raw.get(name, value):.4f})")
        for problem in self.problems:
            print(f"INCORRECT {problem}", file=sys.stderr)
        print(json.dumps({
            "correct": not self.problems, "attempted": self.attempted, "failed": self.failed,
            "metrics": {k: {"value": scaled[k], "unit": u} for k, (_, u) in self.metrics.items()}}))


def log_paths(name: str):
    logs = WORK / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    return logs / f"{name}.out", logs / f"{name}.err"


def version_ratio(launcher: Launcher) -> tuple[float, float]:
    """Wall time of one `--version`, and that time over the reference run
    right before it."""
    ref = launcher.reference()
    wall = launcher.run(cli_bench.PHASEKIT + ["--version"], *log_paths("version"))["wall_s"]
    return wall, wall / ref


# ---------------------------------------------------------------------------
# untraced runs: end-to-end metrics
# ---------------------------------------------------------------------------

def run_cli(launcher: Launcher, workload: str, seed: int, seconds: float, result: Result) -> None:
    setups = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        data = cli_bench.set_up(launcher, seed, [workload])
        setups.append(time.perf_counter() - start)
    ops = cli_bench.OPS[workload](data)
    runner = cli_bench.Runner(launcher)
    rounds = cli_bench.rounds_for(lambda: runner.round(ops, workload), seconds)
    result.add_runner(runner)
    latencies = [v for vs in runner.latencies.values() for v in vs]
    result.notes.append(f"{workload}: {rounds} rounds; operation latency {percentile_line(latencies)}; "
                        f"--version {percentile_line(runner.starts)}")
    result.metrics["setup_s"] = (median(setups), "s")
    for name, value in cli_bench.end_to_end(runner).items():
        result.metrics[name] = value
    result.raw["cli_start_ms"] = median(runner.starts) * 1e3
    # every timed step here is a fresh interpreter, like reference.py
    result.scaled = {"setup_s", "wall_s", "op_geomean_ms"}


def run_worker(launcher: Launcher, name: str, args: list[str]) -> dict:
    out = WORK / "api" / f"{name}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    reply = launcher.run([PYTHON, str(BENCH_DIR / "api_worker.py")] + args + ["--out", str(out)],
                         *log_paths(name))
    if reply["rc"] != 0:
        err = log_paths(name)[1].read_text(errors="replace")
        raise RuntimeError(f"api worker {name} exited {reply['rc']}: {err[-600:]}")
    data = json.loads(out.read_text())
    data["maxrss_kb"] = reply["maxrss_kb"]
    return data


def run_api(launcher: Launcher, seed: int, seconds: float, result: Result) -> None:
    verified_path = WORK / "api" / "verified.json"
    verified_path.parent.mkdir(parents=True, exist_ok=True)
    verified: dict = {}
    workers, starts = [], []
    for i in range(API_WORKERS):
        starts += [version_ratio(launcher) for _ in range(2)]
        verified_path.write_text(json.dumps(verified))
        w = run_worker(launcher, f"measure{i}", ["measure", "--seed", str(seed),
                                                 "--seconds", str(seconds / API_WORKERS),
                                                 "--verified", str(verified_path)])
        verified = w["verified"]
        workers.append(w)
        result.add_worker(w)
    latencies: dict[str, list[float]] = {}
    ratios: dict[str, list[float]] = {}
    for w in workers:
        for op, values in w["latencies"].items():
            latencies.setdefault(op, []).extend(values)
        for op, values in w["ratios"].items():
            ratios.setdefault(op, []).extend(values)
    pooled = [v for vs in latencies.values() for v in vs]
    result.notes.append(f"api-compute: {sum(len(w['round_walls']) for w in workers)} rounds in "
                        f"{API_WORKERS} workers; call latency {percentile_line(pooled)}")
    # in-process times are reported at the speed where the in-process
    # reference (api_worker.Reference) takes API_REFERENCE_S: each call is
    # divided by the reference timed right before it
    result.raw = {"setup_s": median([w["setup_s"] for w in workers]),
                  "wall_s": per_op_wall(latencies),
                  "op_geomean_ms": op_geomean_ms(latencies)}
    result.metrics.update({
        "setup_s": (median([w["setup_ratio"] for w in workers]) * API_REFERENCE_S, "s"),
        "wall_s": (per_op_wall(ratios) * API_REFERENCE_S, "s"),
        "op_geomean_ms": (op_geomean_ms(ratios) * API_REFERENCE_S, "ms"),
        "peak_rss_mb": (median([w["maxrss_kb"] for w in workers]) / 1024, "MB"),
        "cli_start_ms": (median([ratio for _, ratio in starts]) * REFERENCE_S * 1e3, "ms"),
    })
    result.raw["cli_start_ms"] = median([wall for wall, _ in starts]) * 1e3


# ---------------------------------------------------------------------------
# traced runs: per-layer metrics
# ---------------------------------------------------------------------------

def import_probes(launcher: Launcher) -> dict:
    """Import cost in fresh interpreters, and scipy's share from -X importtime."""
    bare, full = [], []
    for _ in range(3):
        bare.append(launcher.run([PYTHON, "-c", "pass"], *log_paths("bare"))["wall_s"])
        full.append(launcher.run([PYTHON, "-c", "import phasekit"], *log_paths("import"))["wall_s"])
    _, err = log_paths("importtime")
    launcher.run([PYTHON, "-X", "importtime", "-c", "import phasekit"], log_paths("importtime")[0], err)
    cumulative = {}
    for line in err.read_text().splitlines():
        m = re.match(r"import time:\s*\d+ \|\s*(\d+) \|\s*(\S+)", line)
        if m:
            cumulative[m.group(2)] = int(m.group(1)) / 1e3
    return {"import.phasekit_ms": (median(full) - median(bare)) * 1e3,
            "import.scipy_fft_ms": cumulative.get("scipy.fft", 0.0),
            "import.scipy_integrate_ms": cumulative.get("scipy.integrate", 0.0)}


def run_trace(launcher: Launcher, workload: str, seed: int, result: Result) -> None:
    data = cli_bench.set_up(launcher, seed, ["cli-record", "cli-wide"])
    digests: dict = {}
    # per-layer metrics are raw, so no reference runs between processes
    plain = cli_bench.Runner(launcher, digests, references=False)
    traced = cli_bench.Runner(launcher, digests, references=False)
    if workload in cli_bench.OPS:
        ops = cli_bench.OPS[workload](data)
        plain.round(ops, workload)
        traced.round(ops, workload, traced=True)
    for other, make_ops in cli_bench.OPS.items():
        if other != workload:
            traced.round(make_ops(data), other, traced=True)
    result.add_runner(plain)
    result.add_runner(traced)
    layer_spans = WORK / "trace" / "layers.json"
    layers = run_worker(launcher, "layers", ["layers", "--seed", str(seed), "--spans", str(layer_spans),
                                             "--overhead-rounds", "1" if workload == "api-compute" else "0"])
    result.add_worker(layers)
    if workload in cli_bench.OPS:
        own = {k: v for k, v in traced.latencies.items() if k.startswith(workload + "/")}
        layers["trace.overhead_s"] = per_op_wall(own) - per_op_wall(plain.latencies)
    cli_metrics, rows = cli_bench.cli_layers(traced.traced)
    for op_id, r in rows.items():
        result.notes.append(
            f"trace {op_id:22s} wall {r['wall'] * 1e3:7.0f} ms = import {r['import'] * 1e3:6.0f} "
            f"+ layers {r['layers'] * 1e3:6.0f} + cli self {r['self'] * 1e3:5.1f} "
            f"+ interpreter {(r['unaccounted'] - r['self']) * 1e3:5.0f}")
    trace_file = WORK / "trace" / f"{workload}-seed{seed}.json"
    trace_file.write_text(json.dumps({"cli": traced.traced,
                                      "layers": json.loads(layer_spans.read_text())}))
    result.notes.append(f"spans written to {trace_file.relative_to(ROOT)}")
    metrics = {**import_probes(launcher), **cli_metrics, **layers}
    for name, unit in PER_LAYER.items():
        result.metrics[name] = (float(metrics[name]), unit)


# per-layer metric -> unit, in report order
PER_LAYER = {
    "import.phasekit_ms": "ms",
    "import.scipy_fft_ms": "ms",
    "import.scipy_integrate_ms": "ms",
    "io.read_signal_csv_ms": "ms",
    "io.read_wav_ms": "ms",
    "io.read_pgm_ms": "ms",
    "io.write_columns_csv_narrow_ms": "ms",
    "io.write_columns_csv_wide_ms": "ms",
    "io.write_grid_csv_ms": "ms",
    "io.write_pgm_ms": "ms",
    "io.bytes_read": "bytes",
    "io.bytes_written": "bytes",
    "cli.main_ms": "ms",
    "cli.self_ms": "ms",
    "cli.unaccounted_ms": "ms",
    "spectral.fft_pair_ms": "ms",
    "spectral.fft_pair_prime_ms": "ms",
    "spectral.dct_pair_ms": "ms",
    "spectral.analytic_signal_ms": "ms",
    "phase.pt_dft_ms": "ms",
    "phase.pt_dft_prime_ms": "ms",
    "phase.pt_dct_ms": "ms",
    "phase.hilbert_ms": "ms",
    "phase.pt_dft_overhead_ms": "ms",
    "phase.sweep41_ms": "ms",
    "fractional.frac_delay_dft_ms": "ms",
    "fractional.frac_delay_dct_ms": "ms",
    "fractional.frac_differintegrate_ms": "ms",
    "image.mask_build_ms": "ms",
    "image.pt2d_ms": "ms",
    "image.analytic2d_ms": "ms",
    "wavelet.awt_ms": "ms",
    "wavelet.cpsi_delta_ms": "ms",
    "wavelet.analytic_signal_ms": "ms",
    "wavelet.peak_mb": "MB",
    "wavelet.scales": "count",
    "repro.example1_ms": "ms",
    "repro.example5_ms": "ms",
    "trace.overhead_s": "s",
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "phasekit" / "__init__.py").is_file():
        print(f"perfbench: no phasekit source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = Result()
    with Launcher() as launcher:
        if args.trace:
            run_trace(launcher, args.workload, args.seed, result)
        elif args.workload == "api-compute":
            run_api(launcher, args.seed, args.seconds, result)
        else:
            run_cli(launcher, args.workload, args.seed, args.seconds, result)
    result.emit(launcher.refs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
