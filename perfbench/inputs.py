"""Seeded benchmark inputs, built and written without phasekit.

Every 1-D input is a DC term plus zero-phase DCT-2 basis tones
cos(pi k (2n+1) / 2N) with even k.  Such a tone is also an exact DFT bin
(bin k/2), so every 1-D route of the program -- DFT or DCT phase transform,
fractional delay on either basis, fractional differintegration -- has a
closed form the checkers evaluate directly.

The CSV (``%.17g``), WAV and PGM bytes are written here, not by
``phasekit.io``, so a change to the program's writers cannot change the
inputs.  Hostile inputs do not depend on the seed.

Regenerate the inputs of one seed and print their digests:

    python3 perfbench/inputs.py --seed 1 --outdir .perfbench_work/inputs
"""
from __future__ import annotations

import argparse
import hashlib
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RECORD_N = 131_072          # cli-record: long 1-D record (CSV and WAV)
SWEEP_N = 32_768            # cli-wide: input of the 41-column alpha sweep
IMAGE_SHAPE = (1024, 1024)  # cli-wide PGM and api-compute image
API_N = 2 ** 20             # api-compute radix-2 length
API_PRIME_N = 1_000_003     # api-compute prime length (non-radix FFT path)
API_SWEEP_N = 65_536        # api-compute 41-step constant-alpha sweep
WAVELET_N = 20_000          # api-compute wavelet length
SAMPLE_RATE = 8000          # Hz, CSV time column and WAV header
CSV_RATE = 1.0 / float(f"{1 / SAMPLE_RATE:.17g}")    # the rate phasekit infers from the t column
N_TONES = 8
SWEEP_SPEC = f"0:{math.pi / 20!r}:{2 * math.pi!r}"   # 41 steps of pi/20


def sweep_alphas() -> np.ndarray:
    """The phases of SWEEP_SPEC, computed as start + step * k like the CLI."""
    start, step, _ = (float(v) for v in SWEEP_SPEC.split(":"))
    return start + step * np.arange(41)


@dataclass(frozen=True)
class Tones:
    """a0 + sum_j amps[j] cos(pi ks[j] (2n+1) / 2N), ks even, n = 0..N-1."""

    n: int
    a0: float
    ks: np.ndarray
    amps: np.ndarray

    def _phases(self, k: int) -> np.ndarray:
        # reduce k(2n+1) modulo 4N in exact integers before scaling, so the
        # reference keeps full precision at N = 2^20
        m = (k * (2 * np.arange(self.n, dtype=np.int64) + 1)) % (4 * self.n)
        return m * (np.pi / (2 * self.n))

    def samples(self) -> np.ndarray:
        return self.shifted(alpha=0.0)

    def shifted(self, alpha: float = 0.0, delay: float = 0.0) -> np.ndarray:
        """Phase transform by alpha (DC scaled by cos alpha) or delay in samples."""
        out = np.full(self.n, self.a0 * math.cos(alpha))
        for k, amp in zip(self.ks, self.amps):
            out += amp * np.cos(self._phases(int(k)) - (alpha + math.pi * k * delay / self.n))
        return out

    def differintegrated(self, mu: float, rate: float) -> np.ndarray:
        """Order-mu differintegral: tone gains omega^mu and phase advance mu pi/2,
        plus the mean term a0 t^-mu / Gamma(1-mu) (zero at t = 0)."""
        out = np.zeros(self.n)
        for k, amp in zip(self.ks, self.amps):
            omega = math.pi * k * rate / self.n
            out += amp * omega ** mu * np.cos(self._phases(int(k)) + mu * math.pi / 2)
        t = np.arange(1, self.n) / rate
        out[1:] += self.a0 * t ** (-mu) / math.gamma(1.0 - mu)
        return out


def make_tones(rng: np.random.Generator, n: int) -> Tones:
    ks = 2 * rng.choice(np.arange(1, n // 4), size=N_TONES, replace=False)
    amps = rng.uniform(0.02, 0.1, size=N_TONES)
    return Tones(n, float(rng.uniform(0.05, 0.15)), np.sort(ks), amps)


def make_image(rng: np.random.Generator, shape=IMAGE_SHAPE) -> np.ndarray:
    """8-bit grey levels: four seeded plane waves plus uniform noise."""
    rows, cols = shape
    r = np.arange(rows)[:, None] / rows
    c = np.arange(cols)[None, :] / cols
    field = np.full(shape, 128.0)
    for _ in range(4):
        f1, f2 = rng.integers(-60, 61, size=2)
        field += rng.uniform(10, 25) * np.cos(2 * np.pi * (f1 * r + f2 * c) + rng.uniform(0, 2 * np.pi))
    field += rng.uniform(-20, 20, size=shape)
    return np.clip(np.rint(field), 0, 255).astype(np.uint8)


@dataclass(frozen=True)
class TwoTone:
    """In-band two-tone signal at exact DFT bins, with its Hilbert transform."""

    n: int
    bins: tuple
    amps: tuple
    phases: tuple

    def _eval(self, fn) -> np.ndarray:
        t = np.arange(self.n)
        return sum(a * fn(2 * np.pi * m * t / self.n + p)
                   for m, a, p in zip(self.bins, self.amps, self.phases))

    def samples(self) -> np.ndarray:
        return self._eval(np.cos)

    def hilbert(self) -> np.ndarray:
        return self._eval(np.sin)


def make_two_tone(rng: np.random.Generator, n: int = WAVELET_N) -> TwoTone:
    # periods of 333..133 and 100..33 samples.  Longer periods reach the
    # record ends at the large scales: a 1000-sample period with a nonzero
    # phase leaves 3 % reconstruction error inside the 5 % edge margin, more
    # than the 2e-2 the acceptance suite asserts for its phase-0 cosine.
    bins = (int(rng.integers(60, 151)), int(rng.integers(200, 601)))
    return TwoTone(n, bins, (1.0, float(rng.uniform(0.3, 0.8))),
                   tuple(float(p) for p in rng.uniform(0, 2 * np.pi, size=2)))


@dataclass(frozen=True)
class CliParams:
    """Seeded operation parameters of the two CLI workloads."""

    alpha: float
    delay: float
    order: float
    image_alpha: float


def cli_params(rng: np.random.Generator) -> CliParams:
    return CliParams(alpha=float(rng.uniform(0.3, 2.8)),
                     delay=float(rng.uniform(0.1, 4.9)),
                     order=float(rng.uniform(0.25, 0.75)),
                     image_alpha=float(rng.uniform(0.3, 2.8)))


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per input, so adding one input moves no other."""
    tag = int.from_bytes(hashlib.sha256(stream.encode()).digest()[:4], "little")
    return np.random.default_rng([seed, tag])


# ---------------------------------------------------------------------------
# writers of the benchmark's own
# ---------------------------------------------------------------------------

def write_signal_csv(path, x: np.ndarray, rate: float) -> None:
    t = np.arange(x.size) / rate
    body = "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(t.tolist(), x.tolist()))
    Path(path).write_text("t,value\n" + body)


def write_wav_float32(path, x: np.ndarray, rate: int) -> None:
    payload = np.asarray(x, dtype="<f4").tobytes()
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload), b"WAVE",
                         b"fmt ", 16, 3, 1, rate, rate * 4, 4, 32, b"data", len(payload))
    Path(path).write_bytes(header + payload)


def write_pgm(path, pixels: np.ndarray) -> None:
    rows, cols = pixels.shape
    Path(path).write_bytes(f"P5\n{cols} {rows}\n255\n".encode() + pixels.astype(np.uint8).tobytes())


def truncated_fmt_wav() -> bytes:
    """RIFF/WAVE whose fmt chunk announces 16 bytes but holds 6."""
    return (b"RIFF" + struct.pack("<I", 4 + 8 + 6) + b"WAVE"
            + b"fmt " + struct.pack("<I", 16) + struct.pack("<HHH", 3, 1, 8000))


def overflow_csv() -> str:
    """64 samples of alternating +-1e308: finite input whose spectrum overflows."""
    return "t,value\n" + "".join(f"{n},{'1e308' if n % 2 == 0 else '-1e308'}\n" for n in range(64))


# ---------------------------------------------------------------------------
# the CLI workloads' files
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CliInputs:
    record: Tones
    sweep: Tones
    image: np.ndarray
    params: CliParams


def cli_inputs(seed: int) -> CliInputs:
    return CliInputs(record=make_tones(rng_for(seed, "record"), RECORD_N),
                     sweep=make_tones(rng_for(seed, "sweep"), SWEEP_N),
                     image=make_image(rng_for(seed, "image")),
                     params=cli_params(rng_for(seed, "params")))


def write_cli_files(inputs: CliInputs, workload: str, outdir: Path) -> dict:
    """Write one CLI workload's input files; returns {name: path}."""
    outdir.mkdir(parents=True, exist_ok=True)
    files = {}
    if workload == "cli-record":
        x = inputs.record.samples()
        files["record.csv"] = outdir / "record.csv"
        write_signal_csv(files["record.csv"], x, SAMPLE_RATE)
        files["record.wav"] = outdir / "record.wav"
        write_wav_float32(files["record.wav"], x, SAMPLE_RATE)
        files["truncated.wav"] = outdir / "truncated.wav"
        files["truncated.wav"].write_bytes(truncated_fmt_wav())
        files["overflow.csv"] = outdir / "overflow.csv"
        files["overflow.csv"].write_text(overflow_csv())
    elif workload == "cli-wide":
        files["sweep.csv"] = outdir / "sweep.csv"
        write_signal_csv(files["sweep.csv"], inputs.sweep.samples(), SAMPLE_RATE)
        files["image.pgm"] = outdir / "image.pgm"
        write_pgm(files["image.pgm"], inputs.image)
    else:
        raise ValueError(f"no input files for workload {workload!r}")
    return files


def api_inputs(seed: int) -> dict:
    """The seeded inputs of api-compute, as closed-form specs and an image."""
    return {"tones": make_tones(rng_for(seed, "api"), API_N),
            "tones_prime": make_tones(rng_for(seed, "api-prime"), API_PRIME_N),
            "tones_sweep": make_tones(rng_for(seed, "api-sweep"), API_SWEEP_N),
            "image": make_image(rng_for(seed, "api-image")),
            "two_tone": make_two_tone(rng_for(seed, "api-wavelet"))}


def main() -> int:
    parser = argparse.ArgumentParser(description="write the seeded CLI inputs and print digests")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--outdir", required=True)
    args = parser.parse_args()
    inputs = cli_inputs(args.seed)
    outdir = Path(args.outdir)
    for workload in ("cli-record", "cli-wide"):
        for name, path in write_cli_files(inputs, workload, outdir).items():
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {workload}/{name}")
    print(f"params {inputs.params}")
    for name, spec in api_inputs(args.seed).items():
        x = spec if isinstance(spec, np.ndarray) else spec.samples()
        print(f"{hashlib.sha256(x.tobytes()).hexdigest()}  api-compute/{name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
