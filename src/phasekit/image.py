"""2-D phase transform and analytic signal for images.

The frequency plane is split along the line Omega_1 + Omega_2 = 0: bins
above it receive e^{-j alpha}, bins below it the conjugate, which is the
unique splitting consistent with treating the higher-frequency factor of a
separable product as the carrier.  Bins *on* the line (DC included) and the
Nyquist rows/columns of even dimensions, whose frequency sign is ambiguous,
are scaled by cos(alpha), like the DC and Nyquist bins of the 1-D transform.

The mask is Hermitian (line bins are real, every other bin pairs e^{-j alpha}
with e^{j alpha} on its mirror), so a real image's transform is real and runs
block by block, in place, on the half spectrum of a real-input 2-D FFT
(:func:`_half_plane_gain`).  :func:`analytic2d` takes the pair (0, 1).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import Image, _require_finite

_BLOCK_VALUES = 1 << 16  # float64 words per block of rows or columns: 64 rows of a 1024-wide image


def _signed_bin_sums(rows: int, cols: int, part: slice = slice(None)):
    """Integer-valued grid with the sign of Omega_1 + Omega_2, plus line mask,
    over the columns ``part`` (default all).

    Signed frequencies are compared through k1*cols + k2*rows (both mapped
    to [-N/2, N/2]), which is exact integer arithmetic: no float tolerance
    is involved in classifying a bin.
    """
    k1 = np.fft.fftfreq(rows, d=1.0 / rows).astype(int)
    k2 = np.fft.fftfreq(cols, d=1.0 / cols).astype(int)[part]
    total = k1[:, None] * cols + k2[None, :] * rows
    on_line = total == 0
    if rows % 2 == 0:
        on_line[rows // 2, :] = True
    if cols % 2 == 0:
        on_line[:, k2 == -(cols // 2)] = True
    return total, on_line


def _mask_values(rows: int, cols: int, alpha: float | None, part: slice) -> np.ndarray:
    """Columns ``part`` of the half-plane mask of (cos alpha, sin alpha), or (0, 1) for None."""
    if rows < 1 or cols < 1:
        raise ValueError("mask dimensions must be >= 1")
    if alpha is not None and not np.isfinite(alpha):
        raise ValueError("alpha must be finite")
    cos, sin = (0.0, 1.0) if alpha is None else (np.cos(alpha), np.sin(alpha))
    total, on_line = _signed_bin_sums(rows, cols, part)
    values = np.where(total > 0, complex(cos, -sin), complex(cos, sin))
    values[on_line] = cos
    return values


@dataclass(frozen=True)
class HalfPlaneMask:
    """Frequency-domain 2-D phase-transform multiplier."""

    values: np.ndarray

    @classmethod
    def build(cls, rows: int, cols: int, alpha: float) -> "HalfPlaneMask":
        return cls(_mask_values(rows, cols, alpha, slice(None)))


def _half_plane_gain(g: np.ndarray, alpha: float | None) -> np.ndarray:
    """irfftn(rfftn(g) * H) bit for bit, H the half mask of ``alpha``, in one half spectrum whose
    bytes the result reuses: each 1-D FFT runs on blocks of rows or columns of about
    ``_BLOCK_VALUES`` float64 words, H is built a block at a time, and a non-finite result raises
    FloatingPointError."""
    (rows, cols), half = g.shape, g.shape[1] // 2 + 1
    step_r, step_c = max(1, _BLOCK_VALUES // cols), max(1, _BLOCK_VALUES // (2 * rows))
    by_rows = [slice(r, r + step_r) for r in range(0, rows, step_r)]
    spectrum = np.empty((rows, half), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for part in by_rows:
            spectrum[part] = np.fft.rfft(g[part])
        for part in (slice(c, min(c + step_c, half)) for c in range(0, half, step_c)):
            block = np.fft.fft(spectrum[:, part], axis=0)
            block *= _mask_values(rows, cols, alpha, part)
            spectrum[:, part] = np.fft.ifft(block, axis=0)
        # real row r ends at word (r + 1) cols, before complex row r + 1 starts at 2 (r + 1) half
        out = spectrum.reshape(-1).view(float)[:rows * cols].reshape(rows, cols)
        for part in by_rows:
            out[part] = np.fft.irfft(spectrum[part], cols)
    return _require_finite(out, "spectral gain")


def pt2d(image, alpha: float) -> Image:
    """Phase transform of a real image.

    Returns Re(idft2d(dft2d(g) * H)) with H the half-plane mask, which for
    any alpha equals cos(alpha) g + sin(alpha) Im analytic2d(g) to round-off.
    Only the columns 0..cols//2 of H that a real-input 2-D FFT keeps are
    built, one block of columns at a time (:func:`_half_plane_gain`).

    Raises
    ------
    FloatingPointError
        If the image spectrum overflows.
    """
    img = image if isinstance(image, Image) else Image(np.asarray(image, dtype=float))
    return Image(_half_plane_gain(img.pixels, alpha))


def analytic2d(image) -> np.ndarray:
    """2-D analytic signal g + j q, q the quadrature of the exact pair (0, 1).

    The spectrum of the result vanishes on bins with Omega_1 + Omega_2 < 0;
    line bins keep their original value (q is exactly 0 there), as DC does in 1-D.
    """
    img = image if isinstance(image, Image) else Image(np.asarray(image, dtype=float))
    q = _half_plane_gain(img.pixels, None)
    z = np.empty(q.shape, dtype=complex)  # g + 1j q in place, with the same signs of zero:
    np.multiply(q, 0.0, out=z.real)  # the real part g + 0 q
    z.real += img.pixels
    np.add(q, 0.0, out=z.imag)  # and q + 0, which turns -0 into +0
    return z
