"""2-D phase transform and analytic signal for images.

The frequency plane is split along the line Omega_1 + Omega_2 = 0: bins
above it receive e^{-j alpha}, bins below it the conjugate, which is the
unique splitting consistent with treating the higher-frequency factor of a
separable product as the carrier.  Bins *on* the line (DC included) and the
Nyquist rows/columns of even dimensions, whose frequency sign is ambiguous,
are scaled by cos(alpha), like the DC and Nyquist bins of the 1-D transform.

The mask is Hermitian (line bins are real, every other bin pairs e^{-j alpha}
with e^{j alpha} on its mirror), so the transform of a real image is real
and runs through :func:`phasekit.spectral.apply_gain` on the half spectrum
of a real-input 2-D FFT, like every 1-D gain in the package.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import Image, apply_gain


def _signed_bin_sums(rows: int, cols: int):
    """Integer-valued grid with the sign of Omega_1 + Omega_2, plus line mask.

    Signed frequencies are compared through k1*cols + k2*rows (both mapped
    to [-N/2, N/2]), which is exact integer arithmetic: no float tolerance
    is involved in classifying a bin.
    """
    k1 = np.fft.fftfreq(rows, d=1.0 / rows).astype(int)
    k2 = np.fft.fftfreq(cols, d=1.0 / cols).astype(int)
    total = k1[:, None] * cols + k2[None, :] * rows
    on_line = total == 0
    if rows % 2 == 0:
        on_line[rows // 2, :] = True
    if cols % 2 == 0:
        on_line[:, cols // 2] = True
    return total, on_line


@dataclass(frozen=True)
class HalfPlaneMask:
    """Frequency-domain 2-D phase-transform multiplier."""

    values: np.ndarray

    @classmethod
    def build(cls, rows: int, cols: int, alpha: float) -> "HalfPlaneMask":
        if rows < 1 or cols < 1:
            raise ValueError("mask dimensions must be >= 1")
        if not np.isfinite(alpha):
            raise ValueError("alpha must be finite")
        total, on_line = _signed_bin_sums(rows, cols)
        values = np.empty((rows, cols), dtype=complex)
        values[total > 0] = np.exp(-1j * alpha)
        values[total < 0] = np.exp(1j * alpha)
        values[on_line] = np.cos(alpha)
        return cls(values)


def pt2d(image, alpha: float) -> Image:
    """Phase transform of a real image.

    Returns Re(idft2d(dft2d(g) * H)) with H the half-plane mask, which for
    any alpha equals cos(alpha) g + sin(alpha) pt2d(g, pi/2).  H is applied
    through :func:`phasekit.spectral.apply_gain` on the columns 0..cols//2
    that a real-input 2-D FFT keeps.

    Raises
    ------
    FloatingPointError
        If the image spectrum overflows.
    """
    img = image if isinstance(image, Image) else Image(np.asarray(image, dtype=float))
    mask = HalfPlaneMask.build(img.rows, img.cols, alpha)
    return Image(apply_gain(img.pixels, mask.values[:, :img.cols // 2 + 1]))


def analytic2d(image) -> np.ndarray:
    """2-D analytic signal g + j pt2d(g, pi/2).

    The spectrum of the result vanishes on bins with Omega_1 + Omega_2 < 0;
    line bins keep their original value, mirroring the 1-D DC treatment.
    """
    img = image if isinstance(image, Image) else Image(np.asarray(image, dtype=float))
    return img.pixels + 1j * pt2d(img, np.pi / 2.0).pixels


def kernel2d_closed_form(m: int, n: int) -> float:
    """Infinite-extent 2-D quadrature kernel h[m, n].

    Supported only on the main diagonal and the axes:
    h[0,0] = 0, h[m,m] = 1/(pi m), h[m,0] = -cos(pi m)/(pi m),
    h[0,n] = -cos(pi n)/(pi n), zero elsewhere.  This is the limit shape of
    the circular kernel idft2d(H) as the image grows; it is used for sign
    checks, never as the computational path.
    """
    m = int(m)
    n = int(n)
    if m == 0 and n == 0:
        return 0.0
    if m == n:
        return 1.0 / (np.pi * m)
    if n == 0:
        return -np.cos(np.pi * m) / (np.pi * m)
    if m == 0:
        return -np.cos(np.pi * n) / (np.pi * n)
    return 0.0
