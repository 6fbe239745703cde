"""Output checkers, written apart from the program.

Each checker returns a list of problems; an empty list means the output is
correct.  References are closed forms (see ``inputs.Tones``), numpy.fft
computations written here from the README definitions, or properties the
method must have.  No checker compares against a stored copy of an earlier
output.  ``selftest.py`` shows that each checker rejects a perturbed output.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

RTOL = 1e-9   # FFT result against an exact reference, relative to its peak


# ---------------------------------------------------------------------------
# independent numpy.fft references (README definitions)
# ---------------------------------------------------------------------------

def _one_sided(n: int, positive, edge) -> np.ndarray:
    """Multiplier: `positive` on bins 1..ceil(N/2)-1, `edge` on DC and Nyquist."""
    gain = np.zeros(n, dtype=complex)
    gain[1:(n + 1) // 2] = positive[1:(n + 1) // 2] if np.ndim(positive) else positive
    gain[0] = edge[0] if np.ndim(edge) else edge
    if n % 2 == 0:
        gain[n // 2] = edge[n // 2] if np.ndim(edge) else edge
    return gain


def pt_dft_ref(x: np.ndarray, alpha: float) -> np.ndarray:
    """Positive frequencies shifted by -alpha, DC/Nyquist scaled by cos(alpha)."""
    gain = _one_sided(x.size, 2 * np.exp(-1j * alpha), math.cos(alpha))
    return np.fft.ifft(np.fft.fft(x) * gain).real


def delay_dft_ref(x: np.ndarray, delay: float) -> np.ndarray:
    """Linear phase ramp exp(-j 2 pi k d / N) on the one-sided spectrum."""
    n = x.size
    ramp = np.exp(-2j * np.pi * np.arange(n) * delay / n)
    gain = _one_sided(n, 2 * ramp, ramp)
    gain[0] = 1.0
    return np.fft.ifft(np.fft.fft(x) * gain).real


def hilbert_ref(x: np.ndarray) -> np.ndarray:
    return pt_dft_ref(x, math.pi / 2)


def _half_plane(rows: int, cols: int):
    """Sign of Omega_1 + Omega_2 per bin, and the bins on the split line."""
    k1 = np.rint(np.fft.fftfreq(rows) * rows).astype(np.int64)
    k2 = np.rint(np.fft.fftfreq(cols) * cols).astype(np.int64)
    total = k1[:, None] * cols + k2[None, :] * rows
    line = total == 0
    if rows % 2 == 0:
        line[rows // 2, :] = True
    if cols % 2 == 0:
        line[:, cols // 2] = True
    return np.sign(total), line


def pt2d_ref(g: np.ndarray, alpha: float) -> np.ndarray:
    sign, line = _half_plane(*g.shape)
    gain = np.exp(-1j * alpha * sign)
    gain[line] = math.cos(alpha)
    return np.fft.ifft2(np.fft.fft2(g) * gain).real


def analytic2d_ref(g: np.ndarray) -> np.ndarray:
    sign, line = _half_plane(*g.shape)
    gain = np.where(sign > 0, 2.0, 0.0)
    gain[line] = 1.0
    return np.fft.ifft2(np.fft.fft2(g) * gain)


def interior(n: int, fraction: float = 0.9) -> slice:
    margin = int(round(n * (1.0 - fraction) / 2.0))
    return slice(margin, n - margin)


def rel_l2(estimate, truth, window: slice) -> float:
    return float(np.linalg.norm(estimate[window] - truth[window]) / np.linalg.norm(truth[window]))


# ---------------------------------------------------------------------------
# array comparisons
# ---------------------------------------------------------------------------

def close(label: str, got, want, rtol: float = RTOL) -> list[str]:
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape}, expected {want.shape}"]
    if not np.all(np.isfinite(got)):
        return [f"{label}: non-finite values"]
    err = float(np.max(np.abs(got - want)))
    scale = float(np.max(np.abs(want)))
    if err > rtol * scale:
        return [f"{label}: max abs error {err:.3e} > {rtol:.0e} x {scale:.3e}"]
    return []


def below(label: str, value: float, bound: float) -> list[str]:
    return [] if value <= bound else [f"{label}: {value:.3e} > {bound:.0e}"]


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------

def read_columns(path) -> tuple[list[str], np.ndarray]:
    """Names and data of a '#'-headed column CSV (data as rows x columns)."""
    lines = Path(path).read_text().splitlines()
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    names = body[0].split(",")
    data = np.loadtxt(body[1:], delimiter=",", ndmin=2)
    return names, data


def check_signal_csv(path, column: str, times, original, want) -> list[str]:
    """A 't,original,<column>' output: times, input echo and the result."""
    names, data = read_columns(path)
    if names != ["t", "original", column]:
        return [f"{path}: columns {names}"]
    problems = close(f"{path}: t", data[:, 0], times, 1e-12)
    if not np.array_equal(data[:, 1], original):
        problems.append(f"{path}: original column differs from input")
    return problems + close(f"{path}: {column}", data[:, 2], want)


def check_sweep_csv(path, times, original, alphas, columns_want) -> list[str]:
    names, data = read_columns(path)
    want_names = ["t", "original"] + [f"alpha_{a:.6f}" for a in alphas]
    if names != want_names:
        return [f"{path}: columns {names[:4]}... ({len(names)}), expected {len(want_names)}"]
    problems = close(f"{path}: t", data[:, 0], times, 1e-12)
    if not np.array_equal(data[:, 1], original):
        problems.append(f"{path}: original column differs from input")
    for i, (a, want) in enumerate(zip(alphas, columns_want)):
        problems += close(f"{path}: alpha {a:.6f}", data[:, 2 + i], want)
    return problems


def read_pgm(path) -> np.ndarray:
    """8-bit binary PGM: four header tokens, one whitespace byte, then pixels."""
    raw = Path(path).read_bytes()
    tokens, pos = [], 0
    while len(tokens) < 4:
        while raw[pos:pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        tokens.append(raw[start:pos])
    if tokens[0] != b"P5" or int(tokens[3]) != 255:
        raise ValueError(f"{path}: not an 8-bit P5 file")
    cols, rows = int(tokens[1]), int(tokens[2])
    return np.frombuffer(raw, dtype=np.uint8, count=rows * cols, offset=pos + 1).reshape(rows, cols)


def check_image_outputs(grid_path, preview_path, pixels, alpha) -> list[str]:
    """The 2-D phase transform grid against numpy.fft, and its PGM preview."""
    data = np.loadtxt(grid_path, delimiter=",", comments="#", ndmin=2)
    problems = close(f"{grid_path}", data, pt2d_ref(pixels.astype(float), alpha))
    if problems:
        return problems
    preview = read_pgm(preview_path).astype(float)
    lo, hi = data.min(), data.max()
    want = np.rint((data - lo) / (hi - lo) * 255.0)
    if preview.shape != want.shape or np.max(np.abs(preview - want)) > 1:
        return [f"{preview_path}: preview differs from the rescaled grid by more than one level"]
    return []


def check_repro1(outdir) -> list[str]:
    """Example 1: Gaussian phase sweep in pi/20 steps on both routes."""
    d = Path(outdir) / "example1"
    names, dft = read_columns(d / "phase_sweep_dft.csv")
    names_dct, dct = read_columns(d / "phase_sweep_dct.csv")
    alphas = np.arange(41) * np.pi / 20
    if names != ["t"] + [f"alpha_{a:.6f}" for a in alphas] or names_dct != names:
        return [f"{d}: sweep columns {names[:3]}..."]
    t = (np.arange(5000) + 0.5) / 1000.0
    x = np.exp(-(t - 2.5) ** 2)
    problems = close(f"{d}: t", dft[:, 0], t, 1e-12)
    cols = dft[:, 1:]
    problems += below(f"{d}: closure at 2 pi", float(np.max(np.abs(cols[:, 40] - cols[:, 0]))), 1e-9)
    problems += below(f"{d}: negation at pi", float(np.max(np.abs(cols[:, 20] + cols[:, 0]))), 1e-9)
    problems += below(f"{d}: DFT/DCT gap on the Gaussian", float(np.max(np.abs(cols - dct[:, 1:]))), 1e-8)
    for i, a in enumerate(alphas):
        problems += close(f"{d}: alpha {a:.6f}", cols[:, i], pt_dft_ref(x, a))
    json.loads((d / "summary.json").read_text())
    return problems


def check_repro5(outdir) -> list[str]:
    """Example 5: wavelet phase sweep of cos(2 pi t) against numpy.fft Hilbert."""
    d = Path(outdir) / "example5"
    names, data = read_columns(d / "wpt_sweep.csv")
    alphas = np.arange(21) * np.pi / 10
    if names != ["t"] + [f"alpha_{a:.6f}" for a in alphas]:
        return [f"{d}: sweep columns {names[:3]}..."]
    t = np.arange(5000) / 1000.0
    x = np.cos(2 * np.pi * t)
    win = interior(x.size)
    real, quad = data[:, 1], data[:, 6]   # alpha = 0 and alpha = pi/2
    problems = close(f"{d}: t", data[:, 0], t, 1e-12)
    problems += below(f"{d}: reconstruction rel L2", rel_l2(real, x, win), 2e-2)
    problems += below(f"{d}: WQT vs numpy.fft Hilbert", rel_l2(quad, hilbert_ref(x), win), 5e-2)
    for i, a in enumerate(alphas):
        problems += close(f"{d}: rotation alpha {a:.6f}", data[:, 1 + i],
                          math.cos(a) * real + math.sin(a) * quad, 1e-10)
    json.loads((d / "summary.json").read_text())
    return problems


def check_wavelet(z: np.ndarray, signal, label: str) -> list[str]:
    """Analytic signal of a two-tone signal: reconstruction and quadrature."""
    x, h = signal.samples(), signal.hilbert()
    win = interior(x.size)
    return (below(f"{label}: reconstruction rel L2", rel_l2(z.real, x, win), 2e-2)
            + below(f"{label}: quadrature rel L2", rel_l2(z.imag, h, win), 5e-2))


def check_wpt(y: np.ndarray, z: np.ndarray, alpha: float, label: str) -> list[str]:
    """WPT equals the rotated analytic signal: cos(a) Re z + sin(a) Im z."""
    return close(label, y, math.cos(alpha) * z.real + math.sin(alpha) * z.imag, 1e-10)
