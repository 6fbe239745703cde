"""The two CLI workloads: one ``python -m phasekit`` process per operation.

cli-record runs the narrow operations on the long record (CSV and WAV) plus
two hostile inputs that today end in the wrong exit code; cli-wide runs the
operations whose output is far larger than their input.  Every process is
started by the lean launcher, which reports its wall time and peak RSS.
"""
from __future__ import annotations

import hashlib
import json
import re
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import inputs
from harness import BENCH_DIR, PYTHON, REFERENCE_S, WORK, Launcher, median, op_geomean_ms, per_op_wall
from spans import duration

PHASEKIT = [PYTHON, "-m", "phasekit"]


@dataclass
class Op:
    name: str
    args: list[str]
    outputs: list[str] = field(default_factory=list)   # paths under WORK
    check: Callable[[], list[str]] | None = None
    kind: str = "op"          # "op", "probe" (--version) or "hostile"
    expect_rc: int = 0


def version_probe() -> Op:
    return Op("version", ["--version"], kind="probe")


def record_ops(data: inputs.CliInputs) -> list[Op]:
    p = data.params
    rec = data.record
    x = rec.samples()
    x32 = x.astype(np.float32).astype(float)
    n = rec.n
    rate = inputs.CSV_RATE
    t_csv = np.arange(n) / rate
    t_wav = np.arange(n) / float(inputs.SAMPLE_RATE)
    src = "in/cli-record/"
    out = "out/cli-record/"

    def signal_op(name, args, column, times, original, want):
        path = out + name + ".csv"
        return Op(name, args + ["-o", path], [path],
                  lambda: checks.check_signal_csv(WORK / path, column, times, original, want()))

    alpha, delay, order = repr(p.alpha), repr(p.delay), repr(p.order)
    return [
        version_probe(),
        signal_op("pt", ["pt", src + "record.csv", "--alpha", alpha], "transformed",
                  t_csv, x, lambda: rec.shifted(p.alpha)),
        signal_op("pt-dct", ["pt", src + "record.csv", "--alpha", alpha, "--basis", "dct"],
                  "transformed", t_csv, x, lambda: rec.shifted(p.alpha)),
        version_probe(),
        signal_op("delay", ["delay", src + "record.csv", "--samples", delay], "delayed",
                  t_csv, x, lambda: rec.shifted(delay=p.delay)),
        version_probe(),
        signal_op("differint", ["differint", src + "record.csv", "--order", order],
                  "transformed", t_csv, x, lambda: rec.differintegrated(p.order, rate)),
        signal_op("pt-wav", ["pt", src + "record.wav", "--alpha", alpha], "transformed",
                  t_wav, x32, lambda: checks.pt_dft_ref(x32, p.alpha)),
        signal_op("delay-wav", ["delay", src + "record.wav", "--samples", delay], "delayed",
                  t_wav, x32, lambda: checks.delay_dft_ref(x32, p.delay)),
        version_probe(),
        # known faults: the CLI contract says exit 2 (unreadable file) and 4
        # (numeric failure), without a traceback
        Op("truncated-wav", ["pt", src + "truncated.wav", "--alpha", "0.5", "-o", out + "truncated.csv"],
           kind="hostile", expect_rc=2),
        Op("overflow-csv", ["pt", src + "overflow.csv", "--alpha", "0.5", "-o", out + "overflow.csv"],
           kind="hostile", expect_rc=4),
    ]


def wide_ops(data: inputs.CliInputs) -> list[Op]:
    p = data.params
    sweep = data.sweep
    xs = sweep.samples()
    alphas = inputs.sweep_alphas()
    src = "in/cli-wide/"
    out = "out/cli-wide/"
    grid, preview = out + "image_pt2d.csv", out + "image_preview.pgm"
    return [
        version_probe(),
        Op("sweep", ["pt", src + "sweep.csv", "--alpha-sweep", inputs.SWEEP_SPEC, "-o", out + "sweep.csv"],
           [out + "sweep.csv"],
           lambda: checks.check_sweep_csv(WORK / out / "sweep.csv", np.arange(sweep.n) / inputs.CSV_RATE, xs,
                                          alphas, [sweep.shifted(a) for a in alphas])),
        Op("image-pt", ["image-pt", src + "image.pgm", "--alpha", repr(p.image_alpha),
                        "--preview", preview, "-o", grid], [grid, preview],
           lambda: checks.check_image_outputs(WORK / grid, WORK / preview, data.image, p.image_alpha)),
        version_probe(),
        Op("repro1", ["repro", "1", "--outdir", out + "repro1"], [out + "repro1"],
           lambda: checks.check_repro1(WORK / out / "repro1")),
        version_probe(),
        Op("repro5", ["repro", "5", "--outdir", out + "repro5"], [out + "repro5"],
           lambda: checks.check_repro5(WORK / out / "repro5")),
        version_probe(),
    ]


OPS = {"cli-record": record_ops, "cli-wide": wide_ops}


def _digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        for f in sorted(path.rglob("*")) if path.is_dir() else [path]:
            if f.is_file():
                h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


class Runner:
    """Runs operations through the launcher and keeps what they measured.

    The first successful run of each operation is checked in full; every
    later run must produce byte-identical output files and standard output.
    """

    def __init__(self, launcher: Launcher, digests: dict | None = None, references: bool = True):
        self.launcher = launcher
        self.references = references   # time reference.py before each process
        self.digests: dict[str, str] = {} if digests is None else digests
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.latencies: dict[str, list[float]] = {}
        self.rss_kb: dict[str, list[int]] = {}
        self.starts: list[float] = []
        self.start_ratios: list[float] = []   # each --version over the reference before it
        self.traced: dict[str, list[dict]] = {}

    def invoke(self, op: Op, workload: str, traced: bool = False) -> None:
        self.attempted += 1
        for rel in op.outputs:
            target = WORK / rel
            if target.is_dir():
                shutil.rmtree(target)
            elif target.exists():
                target.unlink()
            target.parent.mkdir(parents=True, exist_ok=True)
        logs = WORK / "logs"
        logs.mkdir(exist_ok=True)
        stdout, stderr = logs / f"{op.name}.out", logs / f"{op.name}.err"
        op_id = f"{workload}/{op.name}"
        if traced:
            spans_path = WORK / "trace" / f"{workload}-{op.name}.json"
            spans_path.parent.mkdir(exist_ok=True)
            argv = [PYTHON, str(BENCH_DIR / "shim.py"), str(spans_path), op_id] + op.args
        else:
            argv = PHASEKIT + op.args
        if self.references and op.kind != "hostile":
            # machine speed right before each timed process (README.md, "Machine speed")
            ref = self.launcher.reference()
        reply = self.launcher.run(argv, stdout, stderr)
        rc, err = reply["rc"], stderr.read_text(errors="replace")
        if op.kind == "hostile":
            ok = rc == op.expect_rc and "Traceback" not in err
        elif op.kind == "probe":
            ok = rc == 0 and re.fullmatch(r"phasekit \S+\n", stdout.read_text()) is not None
        else:
            ok = rc == 0
        if not ok:
            self.failed += 1
            if op.kind != "hostile":
                print(f"{op_id}: exit {rc}: {err.strip()[-400:]}", file=sys.stderr)
            return
        if op.kind == "probe":
            self.starts.append(reply["wall_s"])
            if self.references:
                self.start_ratios.append(reply["wall_s"] / ref)
            return
        if op.kind == "op":
            self.latencies.setdefault(op_id, []).append(reply["wall_s"])
            self.rss_kb.setdefault(op_id, []).append(reply["maxrss_kb"])
            if traced:
                self.traced.setdefault(op_id, []).append(
                    {"wall_s": reply["wall_s"], "spans": json.loads(spans_path.read_text())})
            key = _digest([WORK / rel for rel in op.outputs] + [stdout])
            if op_id not in self.digests:
                self.digests[op_id] = key
                self.problems += op.check()
            elif self.digests[op_id] != key:
                self.problems.append(f"{op_id}: output differs between two runs of the same input")

    def round(self, ops: list[Op], workload: str, traced: bool = False) -> None:
        for op in ops:
            self.invoke(op, workload, traced)


def set_up(launcher: Launcher, seed: int, workloads) -> inputs.CliInputs:
    """Generate and write the inputs, then warm the interpreter once."""
    data = inputs.cli_inputs(seed)
    for workload in workloads:
        inputs.write_cli_files(data, workload, WORK / "in" / workload)
    logs = WORK / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    launcher.run(PHASEKIT + ["--version"], logs / "warmup.out", logs / "warmup.err")
    return data


def end_to_end(runner: Runner) -> dict:
    return {
        "wall_s": (per_op_wall(runner.latencies), "s"),
        "op_geomean_ms": (op_geomean_ms(runner.latencies), "ms"),
        "peak_rss_mb": (max(median(v) for v in runner.rss_kb.values()) / 1024, "MB"),
        "cli_start_ms": (median(runner.start_ratios) * REFERENCE_S * 1e3, "ms"),
    }


def trace_breakdown(traced: dict[str, list[dict]]) -> dict[str, dict]:
    """Per operation: wall, import, layer time, cli.main self time, and the
    rest of the wall time no span covers (interpreter start and exit)."""
    rows = {}
    for op_id, runs in traced.items():
        parts = []
        for run in runs:
            spans = run["spans"]
            main = next(i for i, s in enumerate(spans) if s["name"] == "cli.main")
            imp = next(duration(s) for s in spans if s["name"] == "import")
            layers = sum(duration(s) for s in spans if s["parent"] == main)
            main_s = duration(spans[main])
            parts.append({"wall": run["wall_s"], "import": imp, "main": main_s, "layers": layers,
                          "self": main_s - layers, "unaccounted": run["wall_s"] - imp - layers})
        rows[op_id] = {k: median([p[k] for p in parts]) for k in parts[0]}
    return rows


def span_median_ms(traced: dict, ops: tuple, name: str) -> float:
    values = [duration(s) for op in ops for run in traced.get(op, ())
              for s in run["spans"] if s["name"] == name]
    return median(values) * 1e3 if values else 0.0


RECORD_CSV = tuple(f"cli-record/{n}" for n in ("pt", "pt-dct", "delay", "differint"))
RECORD_WAV = ("cli-record/pt-wav", "cli-record/delay-wav")


def cli_layers(traced: dict) -> tuple[dict, dict]:
    """Per-layer metrics of io, cli and repro from the traced CLI runs, and
    the per-operation breakdown they come from."""
    rows = trace_breakdown(traced)
    io_bytes = {"read": 0, "written": 0}
    for runs in traced.values():
        for s in runs[0]["spans"]:
            if "bytes" in s:
                io_bytes["read" if s["name"].startswith("io.read") else "written"] += s["bytes"]
    return {
        "io.read_signal_csv_ms": span_median_ms(traced, RECORD_CSV, "io.read_signal_csv"),
        "io.read_wav_ms": span_median_ms(traced, RECORD_WAV, "io.read_wav"),
        "io.read_pgm_ms": span_median_ms(traced, ("cli-wide/image-pt",), "io.read_pgm"),
        "io.write_columns_csv_narrow_ms": span_median_ms(traced, RECORD_CSV + RECORD_WAV,
                                                         "io.write_columns_csv"),
        "io.write_columns_csv_wide_ms": span_median_ms(traced, ("cli-wide/sweep",), "io.write_columns_csv"),
        "io.write_grid_csv_ms": span_median_ms(traced, ("cli-wide/image-pt",), "io.write_grid_csv"),
        "io.write_pgm_ms": span_median_ms(traced, ("cli-wide/image-pt",), "io.write_pgm"),
        "io.bytes_read": io_bytes["read"],
        "io.bytes_written": io_bytes["written"],
        "cli.main_ms": median([r["main"] for r in rows.values()]) * 1e3,
        "cli.self_ms": median([r["self"] for r in rows.values()]) * 1e3,
        "cli.unaccounted_ms": median([r["unaccounted"] for r in rows.values()]) * 1e3,
        "repro.example1_ms": span_median_ms(traced, ("cli-wide/repro1",), "repro.run_example"),
        "repro.example5_ms": span_median_ms(traced, ("cli-wide/repro5",), "repro.run_example"),
    }, rows


def rounds_for(run_round, seconds: float) -> int:
    """Whole rounds until the next one would end past `seconds`; at least two,
    so that every operation runs twice and its outputs can be compared."""
    start = time.perf_counter()
    rounds = 0
    while rounds < 2 or (time.perf_counter() - start) * (rounds + 1) / rounds <= seconds:
        run_round()
        rounds += 1
    return rounds
