#!/usr/bin/env python3
"""Run one CLI matrix from two source trees and compare what each wrote.

    python3 scripts/compare_trees.py PARENT CHANGE

PARENT and CHANGE are checkouts of phasekit; each command runs as
``python -m phasekit`` with ``PYTHONPATH=TREE/src``, in a fresh directory
per tree and command.  The inputs are the benchmark's seed-1 files, written
by ``perfbench/inputs.py`` of this repository (so both trees read the same
bytes), plus a 3,001-sample CSV, a 65,537-sample CSV (a prime length, where
a constant phase or a scalar delay is one power-of-two convolution with a
closed-form kernel), per-bin phase files for both, and the benchmark's
hostile inputs.  The matrix covers ``pt`` (``--alpha``, ``--alpha-per-bin``,
``--alpha-sweep``) and ``delay`` on both bases, both also on the float32 WAV
(whose output is rich in 17th-digit ties), a delay of 600,200,000.25 samples
(0.25 plus whole periods of the small CSV on both bases), ``pt --alpha``,
``--alpha-per-bin``, ``--alpha-sweep`` and ``delay`` on both bases and
``differint`` on the prime-length CSV, ``differint``, ``wpt``,
``image-pt --preview``, ``synth``, ``repro 1``-``5`` and the hostile inputs
(a truncated, a stereo and an 8-bit WAV, an overflowing CSV, a missing file,
a bad sweep), ``--version``, and failed writes: to ``/dev/full`` where it
exists (an output file, and ``--version``'s standard output), and under a
file-size limit where the platform has one.

For each command it prints the exit code of each tree, and for each output
file "identical" or the largest |delta| / max|out| over its numbers (CSV,
PGM and JSON; the header is compared as text); then, when a tree wrote to
standard output, "identical" or each tree's lines; then each tree's standard
error when they differ.  Exits 1 when an exit code changes, else 0.  Takes
about 30 s on a 2-vCPU machine.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

try:
    import resource
except ImportError:  # not on Windows: no file-size-limited runs
    resource = None

REPO = Path(__file__).resolve().parents[1]
SMALL_N = 3001  # odd, and below both of the writer's and reader's split thresholds
PRIME_N = 65537  # prime and above 4096: the closed-form kernel route
FAR_DELAY = "600200000.25"  # 0.25 + 200,000 x 3,001 = 0.25 + 100,000 x 6,002


@functools.lru_cache(maxsize=None)
def _perfbench_inputs():
    spec = importlib.util.spec_from_file_location("perfbench_inputs",
                                                  REPO / "perfbench" / "inputs.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass(frozen=True)
class Case:
    name: str
    argv: list[str]  # '{in}' stands for the inputs directory
    file_limit: int | None = None  # RLIMIT_FSIZE of the run, in bytes
    stdout: str | None = None  # a file standard output goes to, else it is captured


def _pcm_wav(channels: int, bits: int) -> bytes:
    """A PCM WAV of 8 sample frames of silence."""
    block = channels * bits // 8
    payload = bytes(8 * block)
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload), b"WAVE", b"fmt ", 16,
                         1, channels, 8000, 8000 * block, block, bits, b"data", len(payload))
    return header + payload


def write_inputs(directory: Path) -> None:
    """The seed-1 benchmark inputs, the small and the prime-length CSV and
    per-bin phases for each, and a stereo and an 8-bit PCM WAV, which the
    reader rejects."""
    inputs = _perfbench_inputs()
    data = inputs.cli_inputs(1)
    for workload in ("cli-record", "cli-wide"):
        inputs.write_cli_files(data, workload, directory)
    small = inputs.make_tones(inputs.rng_for(1, "compare-small"), SMALL_N)
    inputs.write_signal_csv(directory / "small.csv", small.samples(), inputs.SAMPLE_RATE)
    prime = inputs.make_tones(inputs.rng_for(1, "compare-prime"), PRIME_N)
    inputs.write_signal_csv(directory / "prime.csv", prime.samples(), inputs.SAMPLE_RATE)
    rng = inputs.rng_for(1, "compare-phases")
    for basis, bins in (("dft", SMALL_N // 2 + 1), ("dct", SMALL_N)):
        inputs.write_signal_csv(directory / f"phases_{basis}.csv",
                                rng.uniform(-math.pi, math.pi, bins), 1.0)
    rng = inputs.rng_for(1, "compare-prime-phases")
    for basis, bins in (("dft", PRIME_N // 2 + 1), ("dct", PRIME_N)):
        inputs.write_signal_csv(directory / f"phases_prime_{basis}.csv",
                                rng.uniform(-math.pi, math.pi, bins), 1.0)
    (directory / "stereo.wav").write_bytes(_pcm_wav(2, 16))
    (directory / "pcm8.wav").write_bytes(_pcm_wav(1, 8))


def matrix() -> list[Case]:
    inputs = _perfbench_inputs()
    p = inputs.cli_params(inputs.rng_for(1, "params"))
    alpha, delay, order, sweep = repr(p.alpha), repr(p.delay), repr(p.order), inputs.SWEEP_SPEC
    cases = []
    for basis in ("dft", "dct"):
        b = ["--basis", basis]
        cases += [
            Case(f"pt-record-{basis}", ["pt", "{in}/record.csv", "--alpha", alpha, *b]),
            Case(f"pt-small-{basis}", ["pt", "{in}/small.csv", "--alpha", alpha, *b]),
            Case(f"pt-per-bin-{basis}", ["pt", "{in}/small.csv", "--alpha-per-bin",
                                         f"{{in}}/phases_{basis}.csv", *b]),
            Case(f"pt-sweep-{basis}", ["pt", "{in}/sweep.csv", "--alpha-sweep", sweep, *b]),
            Case(f"delay-record-{basis}", ["delay", "{in}/record.csv", "--samples", delay, *b]),
            Case(f"delay-small-{basis}", ["delay", "{in}/small.csv", "--samples", delay, *b]),
            Case(f"delay-far-{basis}", ["delay", "{in}/small.csv", "--samples", FAR_DELAY, *b]),
            Case(f"overflow-{basis}", ["pt", "{in}/overflow.csv", "--alpha", "0.5", *b]),
            Case(f"pt-prime-{basis}", ["pt", "{in}/prime.csv", "--alpha", alpha, *b]),
            Case(f"pt-per-bin-prime-{basis}", ["pt", "{in}/prime.csv", "--alpha-per-bin",
                                               f"{{in}}/phases_prime_{basis}.csv", *b]),
            Case(f"pt-sweep-prime-{basis}", ["pt", "{in}/prime.csv", "--alpha-sweep", sweep, *b]),
            Case(f"delay-prime-{basis}", ["delay", "{in}/prime.csv", "--samples", delay, *b]),
        ]
    cases += [
        Case("pt-wav", ["pt", "{in}/record.wav", "--alpha", alpha]),
        Case("delay-wav", ["delay", "{in}/record.wav", "--samples", delay]),
        Case("differint-record", ["differint", "{in}/record.csv", "--order", order]),
        Case("differint-small", ["differint", "{in}/small.csv", "--order", order,
                                 "--scaling", "normalized", "--no-dc-term"]),
        Case("differint-prime", ["differint", "{in}/prime.csv", "--order", order]),
        Case("wpt-small", ["wpt", "{in}/small.csv", "--alpha", alpha]),
        Case("image-pt", ["image-pt", "{in}/image.pgm", "--alpha", repr(p.image_alpha),
                          "--preview", "preview.pgm"]),
        *(Case(f"synth-{kind}", ["synth", "--case", kind]) for kind in ("fourier", "am", "pm")),
        *(Case(f"repro-{n}", ["repro", str(n), "--outdir", "."]) for n in range(1, 6)),
        Case("truncated-wav", ["pt", "{in}/truncated.wav", "--alpha", "0.5"]),
        Case("stereo-wav", ["pt", "{in}/stereo.wav", "--alpha", "0.5"]),
        Case("pcm8-wav", ["pt", "{in}/pcm8.wav", "--alpha", "0.5"]),
        Case("missing-input", ["pt", "{in}/missing.csv", "--alpha", "0.5"]),
        Case("bad-sweep", ["pt", "{in}/small.csv", "--alpha-sweep", "0:-1:3"]),
        Case("version", ["--version"]),
    ]
    if os.path.exists("/dev/full"):
        cases += [Case("write-dev-full", ["pt", "{in}/small.csv", "--alpha", alpha,
                                          "-o", "/dev/full"]),
                  Case("version-dev-full", ["--version"], stdout="/dev/full")]
    if resource is not None:  # each output is at least ten times the limit
        cases += [Case("write-file-limit", ["pt", "{in}/record.csv", "--alpha", alpha], 1 << 17),
                  Case("repro-1-file-limit", ["repro", "1", "--outdir", "."], 1 << 17)]
    return cases


def run(tree: Path, case: Case, inputs_dir: Path, cwd: Path) -> subprocess.CompletedProcess:
    """Run ``case`` from ``tree``'s src in a new directory ``cwd``; a
    command other than ``repro`` and ``--version`` writes ``out.csv``
    unless it has ``-o``."""
    cwd.mkdir(parents=True)
    argv = [arg.replace("{in}", str(inputs_dir)) for arg in case.argv]
    if "-o" not in argv and case.argv[0] not in ("repro", "--version"):
        argv += ["-o", "out.csv"]
    env = {key: value for key, value in os.environ.items() if key != "PHASEKIT_OUTDIR"}
    env.update(PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    limit = None
    if case.file_limit is not None:
        def limit():
            resource.setrlimit(resource.RLIMIT_FSIZE, (case.file_limit, case.file_limit))
    with open(case.stdout, "w") if case.stdout else contextlib.nullcontext() as stdout:
        return subprocess.run([sys.executable, "-m", "phasekit", *argv], cwd=cwd, env=env,
                              stdout=stdout or subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, errors="replace", preexec_fn=limit)


def _numbers(path: Path):
    """(The text that is not numbers, the numbers) of a CSV, PGM or JSON
    output, or None for any other file."""
    if path.suffix == ".csv":
        lines = path.read_text("utf-8", "surrogateescape").splitlines()
        text = [line for line in lines if line.startswith("#")]
        rows = [line for line in lines if line and not line.startswith("#")]
        try:
            float(rows[0].split(",")[0])
        except (IndexError, ValueError):
            text += rows[:1]
            rows = rows[1:]
        return text, np.loadtxt(rows, delimiter=",", ndmin=2)
    if path.suffix == ".pgm":
        magic, size, maxval, pixels = path.read_bytes().split(b"\n", 3)  # phasekit's layout
        dtype = ">u2" if int(maxval) > 255 else "u1"
        return [magic, size, maxval], np.frombuffer(pixels, dtype).astype(float)
    if path.suffix == ".json":
        metrics = json.loads(path.read_text())
        return sorted(metrics), np.array([metrics[key] for key in sorted(metrics)], float)
    return None


def describe(old: Path, new: Path) -> str:
    """'identical', or how the output ``new`` differs from ``old``."""
    if old.read_bytes() == new.read_bytes():
        return "identical"
    try:
        parsed = _numbers(old), _numbers(new)
    except ValueError:
        parsed = None, None
    if None in parsed:
        return "bytes differ"
    (old_text, a), (new_text, b) = parsed
    if a.shape != b.shape:
        return f"shape {a.shape} -> {b.shape}"
    scale = np.max(np.abs(a), initial=0.0) or 1.0
    delta = np.max(np.abs(a - b), initial=0.0) / scale
    note = "" if old_text == new_text else ", header differs"
    return f"max|delta|/max|out| = {delta:.3g}{note}"


def _print_lines(old: str, new: str) -> None:
    """Print a stream's lines from each tree, marked - and +."""
    print("".join(f"    - {line}\n" for line in old.splitlines()), end="")
    print("".join(f"    + {line}\n" for line in new.splitlines()), end="")


def _outputs(directory: Path) -> set[Path]:
    return {path.relative_to(directory) for path in directory.rglob("*") if path.is_file()}


def compare(parent: Path, change: Path, cases: list[Case], inputs_dir: Path, work: Path) -> int:
    """Run every case from both trees under ``work`` and print the report;
    returns 1 if an exit code changed, else 0."""
    changed, outputs, identical = 0, 0, 0
    for case in cases:
        old_dir, new_dir = work / "parent" / case.name, work / "change" / case.name
        old = run(parent, case, inputs_dir, old_dir)
        new = run(change, case, inputs_dir, new_dir)
        if old.returncode == new.returncode:
            print(f"{case.name}: exit {old.returncode}")
        else:
            changed = 1
            print(f"{case.name}: exit {old.returncode} -> {new.returncode} CHANGED")
        old_files, new_files = _outputs(old_dir), _outputs(new_dir)
        for name in sorted(old_files | new_files):
            if name not in new_files:
                status = "only in PARENT"
            elif name not in old_files:
                status = "only in CHANGE"
            else:
                status = describe(old_dir / name, new_dir / name)
            outputs += 1
            identical += status == "identical"
            print(f"  {name}: {status}")
        if old.stdout or new.stdout:  # None when it went to case.stdout
            outputs += 1
            if old.stdout == new.stdout:
                identical += 1
                print("  stdout: identical")
            else:
                print("  stdout differs:")
                _print_lines(old.stdout, new.stdout)
        if old.stderr != new.stderr:
            print("  stderr differs:")
            _print_lines(old.stderr, new.stderr)
    print(f"{identical} of {outputs} outputs identical; "
          + ("an exit code changed" if changed else "every exit code unchanged"))
    return changed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the tree compared against")
    parser.add_argument("change", type=Path, help="the tree under review")
    args = parser.parse_args(argv)
    work = Path(tempfile.mkdtemp(prefix="compare_trees_"))
    try:
        write_inputs(work / "in")
        return compare(args.parent.resolve(), args.change.resolve(), matrix(), work / "in", work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
