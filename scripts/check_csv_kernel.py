#!/usr/bin/env python3
"""Check the CSV writer's '%.17g' kernel against Python's '%', value by value.

    python3 scripts/check_csv_kernel.py N [--seed S]

Formats three populations through ``phasekit.io._g17_records``: the
boundary list below with both signs; 200,000 float32 samples widened to
doubles, log-uniform over 1e-8..1e8 with both signs (seeded); and the finite
values among N random 64-bit patterns (seeded).  Every value the kernel
decides must give the text of '%.17g'; every value it leaves undecided must
be below 1e-291 or an exact tie at the 17th digit.  The writer
(``phasekit.io._write_rows``), which formats each undecided value with '%'
alone, must give the text of '%.17g' for every value.  Prints the counts of
each population and exits 0, or prints the first failing value and exits 1.
"""
from __future__ import annotations

import argparse
import io
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
import phasekit.io as pkio  # noqa: E402


def neighbours(value: float, count: int) -> list[float]:
    """``value`` and the ``count`` doubles on either side of it."""
    below, above = [value], [value]
    for _ in range(count):
        below.append(float(np.nextafter(below[-1], -np.inf)))
        above.append(float(np.nextafter(above[-1], np.inf)))
    return below[:0:-1] + above


def boundary_values() -> np.ndarray:
    """Doubles whose '%.17g' text is easy to get wrong, positive and negative:
    every 10**k (k in [-300, 300]) with its neighbours, among them the ones
    whose 17 digits carry to the next power of ten; a few ulps around 1e16,
    1e17 and the fixed/exponent switch between 1e-5 and 1e-4; dyadic ties
    at the 17th digit; zero, the extreme subnormals and the largest double."""
    values = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1,
              9.99999999999999999e-5, 1234567890123456.25, 1234567890123456.75]
    for k in range(-300, 301):
        values += neighbours(float(Fraction(10) ** k), 1)
    for value in (1e16, 1e17, 1e-5, 1e-4, 9.9999999999999999e-5):
        values += neighbours(value, 8)
    # 16 and 15 integer digits and a fraction of .25/.75 or .125/.375: 18 digits ending in 5
    values += [10.0 ** 15 + j + f for j in (0, 7, 10 ** 14) for f in (0.25, 0.75)]
    values += [10.0 ** 14 + j + f for j in (0, 3, 10 ** 13) for f in (0.125, 0.375)]
    values = np.array(values)
    return np.concatenate([values, -values])


def float32_values(rng: np.random.Generator, count: int = 200_000) -> np.ndarray:
    """``count`` float32 samples widened to doubles, log-uniform in magnitude
    over 1e-8..1e8, with random signs.  Their exact decimal expansions are
    short, so they tie at the 17th digit far more often than random bit
    patterns do: these are the undecided values of a float32 WAV's output."""
    magnitudes = 10.0 ** rng.uniform(-8.0, 8.0, count)
    signs = rng.choice([-1.0, 1.0], count)
    return (signs * magnitudes).astype(np.float32).astype(np.float64)


def exact_tie(value: float) -> bool:
    """Whether |value| lies exactly halfway between two 17-digit decimals."""
    scaled = abs(Fraction(value))
    while scaled >= 10 ** 17:
        scaled /= 10
    while scaled < 10 ** 16:
        scaled *= 10
    return scaled.denominator == 2


def check(values: np.ndarray, chunk: int = 1 << 16):
    """(The first value that fails the check, with what went wrong (the
    kernel's or the writer's text, or 'undecided') and its '%.17g' text, or
    None; how many were undecided)."""
    undecided_count = 0
    for start in range(0, values.size, chunk):
        part = values[start:start + chunk]
        records, undecided = pkio._g17_records(part.reshape(-1, 1))
        undecided_count += int(undecided.sum())
        decided = part[~undecided]
        texts = records[~undecided].tobytes().translate(None, b"\0").decode("ascii")
        if texts != "".join(f"{v:.17g}\n" for v in decided.tolist()):
            for value, text in zip(decided.tolist(), texts.split("\n")):
                if text != f"{value:.17g}":
                    return (value, f"kernel {text}", f"{value:.17g}"), undecided_count
        for value in part[undecided].tolist():
            if abs(value) >= 1e-291 and not exact_tie(value):
                return (value, "undecided", f"{value:.17g}"), undecided_count
        written = io.BytesIO()
        pkio._write_rows(written, [part.reshape(-1, 1)])
        if written.getvalue() != "".join(f"{v:.17g}\n" for v in part.tolist()).encode("ascii"):
            for value, text in zip(part.tolist(), written.getvalue().decode("ascii").split("\n")):
                if text != f"{value:.17g}":
                    return (value, f"writer {text}", f"{value:.17g}"), undecided_count
    return None, undecided_count


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n", type=int, help="random 64-bit patterns to check")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    patterns = np.random.default_rng(args.seed).integers(0, 2 ** 64, args.n, np.uint64,
                                                         endpoint=False)
    randoms = patterns.view(np.float64)
    populations = {"boundary": boundary_values(),
                   "float32": float32_values(np.random.default_rng(args.seed)),
                   "random": randoms[np.isfinite(randoms)]}
    for name, values in populations.items():
        failure, undecided = check(values)
        if failure is not None:
            value, got, want = failure
            print(f"{name}: mismatch at {value!r} (bits "
                  f"{np.float64(value).view(np.uint64):#018x}): {got}, '%.17g' {want}")
            return 1
        print(f"{name}: {values.size} values match '%.17g'; {undecided} undecided, each "
              "below 1e-291 or an exact tie")
    return 0


if __name__ == "__main__":
    sys.exit(main())
