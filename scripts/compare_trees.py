#!/usr/bin/env python3
"""Run one CLI matrix from two source trees, FIRST then SECOND, and compare
what each wrote; FIRST and SECOND the same tree check that tree alone.

    python3 scripts/compare_trees.py FIRST SECOND
    python3 scripts/compare_trees.py . .

FIRST and SECOND are checkouts of phasekit; each command runs as
``python -m phasekit`` would, through ``runpy``, with ``PYTHONPATH=TREE/src``,
in a fresh directory per tree and command.  The launcher first sets
``sys.modules['scipy'] = None``, so any import of scipy fails as if it were
not installed: the package needs none.  The inputs are the benchmark's seed-1 files, written
by ``perfbench/inputs.py`` of this repository (so both trees read the same
bytes), plus a 3,001-sample CSV, a 65,537-sample CSV (a prime length, where
a constant phase or a scalar delay is one convolution at a 5-smooth size with
a closed-form kernel, and every other DFT gain one with its own kernel),
per-bin phase files for both, a headerless CSV that starts with a UTF-8
byte-order mark, and the benchmark's hostile inputs.  The matrix covers
``pt`` (``--alpha``, ``--alpha-per-bin``, ``--alpha-sweep``) and ``delay``
on both bases, both also on the float32 WAV
(whose output is rich in 17th-digit ties), delays of 600,200,000.25 and of
2^52 samples (0.25 and -80 plus whole periods of the small CSV on both
bases) and of 1e308 samples (on both CSVs and bases),
``pt --alpha``, ``--alpha-per-bin``, ``--alpha-sweep`` and
``delay`` on both bases and ``differint`` on the prime-length CSV,
``differint`` (physical on the record, normalized with and without the
mean term on the small CSV), ``pt`` on the byte-order-marked CSV,
``wpt`` on both CSVs,
``image-pt --preview`` (on the benchmark's 1024x1024 PGM, a 301x517 PGM and a
700x206 CSV grid, each of several blocks of the 2-D transform, the last two
of partial ones, a 257x1 CSV grid, and a 16x16 ramp PGM of one block),
``synth``, ``repro 1``-``5``,
``analytic_signal`` in process on 4,096 and 4,099 samples (no subcommand
reaches it), and the hostile inputs (a truncated, a stereo and an 8-bit WAV, an
overflowing CSV, a missing file, a bad sweep), ``--version``, and failed writes: to ``/dev/full`` where it
exists (an output file, and ``--version``'s standard output), and under a
file-size limit where the platform has one.  Each case carries the exit code
the CLI contract gives it.

For each command it prints the exit code of each tree, and for each output
file "identical" or the largest |delta| / max|out| over its numbers (CSV,
PGM and JSON; the header is compared as text); then, when a tree wrote to
standard output, "identical" or each tree's lines; then each fault of the
case; then, when they differ or the case failed, each tree's standard error.
A case fails when a run of SECOND exits with another code than the case's
own or prints a Python traceback to standard error, or when the exit code
changed between FIRST and SECOND.  When the two are the same tree, both runs
are runs of SECOND, and an output file or standard output that differs
between them fails the case too.  Exits 1 when a case failed, else 0.  Takes
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
DELAY_2P52 = "4503599627370496"  # 2^52 = -80 plus whole periods of 3,001 and of 6,002
# rows x columns of two images whose 2-D transform ends on a partial block of
# rows and of columns: an odd 8-bit PGM, and an even CSV grid whose Nyquist
# column falls in the last, partial block of columns
ODD_IMAGE = (301, 517)
GRID_IMAGE = (700, 206)
# a one-column CSV grid: each 16-byte complex row of the half spectrum lies
# over an 8-byte real row of the result that reuses its bytes, the tightest layout
COLUMN_IMAGE = (257, 1)


@functools.lru_cache(maxsize=None)
def _perfbench_inputs():
    spec = importlib.util.spec_from_file_location("perfbench_inputs",
                                                  REPO / "perfbench" / "inputs.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the prefix of every case's Python code, and the launcher of a command
NO_SCIPY = "import sys; sys.modules['scipy'] = None\n"
CLI = NO_SCIPY + "import runpy; runpy.run_module('phasekit', run_name='__main__', alter_sys=True)"


@dataclass(frozen=True)
class Case:
    name: str
    argv: list[str]  # '{in}' stands for the inputs directory; ['-c', CODE] runs Python code
    exit_code: int = 0  # the exit code the CLI contract gives the command
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
    per-bin phases for each, a headerless 4-row CSV that starts with a UTF-8
    byte-order mark (as a spreadsheet's "CSV UTF-8" does), an odd PGM and a
    CSV grid of several blocks of the 2-D transform, a one-column CSV grid, a
    16x16 ramp PGM of one block, and a stereo and an 8-bit PCM WAV, which the
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
    (directory / "bom.csv").write_bytes(b"\xef\xbb\xbf0,1\n0.5,2\n1,3\n1.5,4\n")
    inputs.write_pgm(directory / "odd.pgm",
                     inputs.make_image(inputs.rng_for(1, "compare-image"), ODD_IMAGE))
    grid = inputs.make_image(inputs.rng_for(1, "compare-grid"), GRID_IMAGE) / 255.0 - 0.5
    np.savetxt(directory / "grid.csv", grid, fmt="%.17g", delimiter=",")
    column = inputs.make_image(inputs.rng_for(1, "compare-column"), COLUMN_IMAGE) / 255.0 - 0.5
    np.savetxt(directory / "column.csv", column, fmt="%.17g", delimiter=",")
    inputs.write_pgm(directory / "ramp.pgm", np.arange(256, dtype=np.uint8).reshape(16, 16))
    (directory / "stereo.wav").write_bytes(_pcm_wav(2, 16))
    (directory / "pcm8.wav").write_bytes(_pcm_wav(1, 8))


# analytic_signal, which no subcommand reaches, on the N-point route and the
# kernel route: z as rows of (Re, Im)
ANALYTIC_SIGNAL = """import numpy, phasekit
for n in (4096, 4099):
    z = phasekit.analytic_signal(numpy.cos(numpy.arange(n) / 7.0))
    numpy.savetxt(f"analytic_{n}.csv", z.view(float).reshape(n, 2), fmt="%.17g", delimiter=",")
"""


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
            Case(f"delay-2p52-{basis}", ["delay", "{in}/small.csv", "--samples", DELAY_2P52, *b]),
            Case(f"delay-1e308-{basis}", ["delay", "{in}/small.csv", "--samples", "1e308", *b]),
            Case(f"overflow-{basis}", ["pt", "{in}/overflow.csv", "--alpha", "0.5", *b], 4),
            Case(f"pt-prime-{basis}", ["pt", "{in}/prime.csv", "--alpha", alpha, *b]),
            Case(f"pt-per-bin-prime-{basis}", ["pt", "{in}/prime.csv", "--alpha-per-bin",
                                               f"{{in}}/phases_prime_{basis}.csv", *b]),
            Case(f"pt-sweep-prime-{basis}", ["pt", "{in}/prime.csv", "--alpha-sweep", sweep, *b]),
            Case(f"delay-prime-{basis}", ["delay", "{in}/prime.csv", "--samples", delay, *b]),
            Case(f"delay-1e308-prime-{basis}", ["delay", "{in}/prime.csv", "--samples", "1e308", *b]),
        ]
    cases += [
        Case("pt-wav", ["pt", "{in}/record.wav", "--alpha", alpha]),
        Case("delay-wav", ["delay", "{in}/record.wav", "--samples", delay]),
        Case("differint-record", ["differint", "{in}/record.csv", "--order", order]),
        Case("differint-small", ["differint", "{in}/small.csv", "--order", order,
                                 "--scaling", "normalized", "--no-dc-term"]),
        Case("differint-small-normalized-dc", ["differint", "{in}/small.csv", "--order", order,
                                               "--scaling", "normalized"]),
        Case("differint-prime", ["differint", "{in}/prime.csv", "--order", order]),
        Case("pt-bom", ["pt", "{in}/bom.csv", "--alpha", "1"]),
        Case("wpt-small", ["wpt", "{in}/small.csv", "--alpha", alpha]),
        Case("wpt-prime", ["wpt", "{in}/prime.csv", "--alpha", alpha]),
        Case("image-pt", ["image-pt", "{in}/image.pgm", "--alpha", repr(p.image_alpha),
                          "--preview", "preview.pgm"]),
        Case("image-pt-odd", ["image-pt", "{in}/odd.pgm", "--alpha", "2.3",
                              "--preview", "preview.pgm"]),
        Case("image-pt-grid", ["image-pt", "{in}/grid.csv", "--alpha", "0.7",
                               "--preview", "preview.pgm"]),
        Case("image-pt-column", ["image-pt", "{in}/column.csv", "--alpha", "0.7",
                                 "--preview", "preview.pgm"]),
        Case("image-pt-ramp", ["image-pt", "{in}/ramp.pgm", "--alpha", "0.5",
                               "--preview", "preview.pgm"]),
        *(Case(f"synth-{kind}", ["synth", "--case", kind]) for kind in ("fourier", "am", "pm")),
        *(Case(f"repro-{n}", ["repro", str(n), "--outdir", "."]) for n in range(1, 6)),
        Case("analytic-signal", ["-c", ANALYTIC_SIGNAL]),
        Case("truncated-wav", ["pt", "{in}/truncated.wav", "--alpha", "0.5"], 2),
        Case("stereo-wav", ["pt", "{in}/stereo.wav", "--alpha", "0.5"], 2),
        Case("pcm8-wav", ["pt", "{in}/pcm8.wav", "--alpha", "0.5"], 2),
        Case("missing-input", ["pt", "{in}/missing.csv", "--alpha", "0.5"], 2),
        Case("bad-sweep", ["pt", "{in}/small.csv", "--alpha-sweep", "0:-1:3"], 3),
        Case("version", ["--version"]),
    ]
    if os.path.exists("/dev/full"):
        cases += [Case("write-dev-full", ["pt", "{in}/small.csv", "--alpha", alpha,
                                          "-o", "/dev/full"], 2),
                  Case("version-dev-full", ["--version"], 2, stdout="/dev/full")]
    if resource is not None:  # each output is at least ten times the limit
        cases += [Case("write-file-limit", ["pt", "{in}/record.csv", "--alpha", alpha], 2,
                       file_limit=1 << 17),
                  Case("repro-1-file-limit", ["repro", "1", "--outdir", "."], 2,
                       file_limit=1 << 17)]
    return cases


def run(tree: Path, case: Case, inputs_dir: Path, cwd: Path) -> subprocess.CompletedProcess:
    """Run ``case`` from ``tree``'s src in a new directory ``cwd``, with
    scipy hidden; a command other than ``repro``, ``--version`` and Python
    code writes ``out.csv`` unless it has ``-o``."""
    cwd.mkdir(parents=True)
    argv = [arg.replace("{in}", str(inputs_dir)) for arg in case.argv]
    if argv[0] == "-c":
        argv = ["-c", NO_SCIPY + argv[1]]
    else:
        if "-o" not in argv and argv[0] not in ("repro", "--version"):
            argv += ["-o", "out.csv"]
        argv = ["-c", CLI, *argv]
    env = {key: value for key, value in os.environ.items() if key != "PHASEKIT_OUTDIR"}
    env.update(PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    limit = None
    if case.file_limit is not None:
        def limit():
            resource.setrlimit(resource.RLIMIT_FSIZE, (case.file_limit, case.file_limit))
    with open(case.stdout, "w") if case.stdout else contextlib.nullcontext() as stdout:
        return subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
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
    if not new.exists():
        return "only in FIRST"
    if not old.exists():
        return "only in SECOND"
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


def compare(first: Path, second: Path, cases: list[Case], inputs_dir: Path, work: Path) -> int:
    """Run every case from ``first``, then from ``second``, under ``work``
    and print the report; returns 1 if a case failed, else 0.  When the two
    are the same tree, both runs are runs of ``second``."""
    failed, outputs, identical = 0, 0, 0
    for case in cases:
        old_dir, new_dir = work / "first" / case.name, work / "second" / case.name
        old = run(first, case, inputs_dir, old_dir)
        new = run(second, case, inputs_dir, new_dir)
        print(f"{case.name}: exit {old.returncode}"
              + ("" if old.returncode == new.returncode else f" -> {new.returncode}"))
        statuses = {str(name): describe(old_dir / name, new_dir / name)
                    for name in sorted(_outputs(old_dir) | _outputs(new_dir))}
        if old.stdout or new.stdout:  # None when it went to case.stdout
            statuses["stdout"] = "identical" if old.stdout == new.stdout else "differs"
        for name, status in statuses.items():
            print(f"  {name}: {status}")
        if statuses.get("stdout") == "differs":
            _print_lines(old.stdout, new.stdout)
        differ = [name for name, status in statuses.items() if status != "identical"]
        outputs += len(statuses)
        identical += len(statuses) - len(differ)
        checked = (old, new) if first == second else (new,)
        faults = [f"exit {code}, expected {case.exit_code}"
                  for code in sorted({result.returncode for result in checked} - {case.exit_code})]
        if any("Traceback (most recent call last)" in result.stderr for result in checked):
            faults.append("a traceback on stderr")
        if old.returncode != new.returncode:
            faults.append("the exit code changed")
        if first == second and differ:
            faults.append("differs between runs: " + ", ".join(differ))
        print("".join(f"  FAILED: {fault}\n" for fault in faults), end="")
        if faults or old.stderr != new.stderr:
            print("  stderr:")
            _print_lines(old.stderr, new.stderr)
        failed |= bool(faults)
    print(f"{identical} of {outputs} outputs identical; "
          + ("a case failed" if failed else "every case passed"))
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("first", type=Path, metavar="FIRST", help="the tree compared against")
    parser.add_argument("second", type=Path, metavar="SECOND",
                        help="the tree under review; FIRST again checks that tree alone")
    args = parser.parse_args(argv)
    work = Path(tempfile.mkdtemp(prefix="compare_trees_"))
    try:
        write_inputs(work / "in")
        return compare(args.first.resolve(), args.second.resolve(), matrix(), work / "in", work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
