"""Arbitrary-phase shifting of real signals.

A phase transform (PT) applies a phase shift -alpha to the positive
frequencies of a signal and +alpha to the negative ones; the Hilbert
transform is the alpha = pi/2 case.  Two spectral routes are provided: the
DFT route (N-periodic extension) and the DCT-2 route (2N-periodic symmetric
extension), which differ whenever those extensions disagree.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft as _fft

from .spectral import Signal, apply_gain, as_signal, dct2_forward


@dataclass(frozen=True)
class PhaseProfile:
    """Per-bin phase specification over non-negative frequency bins.

    Three kinds are supported:

    * ``constant`` -- one phase for every bin;
    * ``per_bin`` -- an explicit phase per bin (bins 0..N//2 for the DFT
      basis, bins 0..N-1 for the DCT basis);
    * ``delay`` -- phases derived from a delay of n_k samples, i.e.
      alpha_k = Omega_k * n_k with Omega_k the digital frequency of bin k
      in the chosen basis.  n_k is a scalar or one value per bin k >= 1.
    """

    kind: str
    value: float | np.ndarray

    def __post_init__(self):
        if self.kind not in ("constant", "per_bin", "delay"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        value = self.value
        if self.kind == "constant":
            value = float(value)
            if not np.isfinite(value):
                raise ValueError("phase must be finite")
        else:
            value = np.atleast_1d(np.asarray(value, dtype=float))
            if value.ndim != 1 or not np.all(np.isfinite(value)):
                raise ValueError("profile values must be a finite 1-D sequence")
        object.__setattr__(self, "value", value)

    @classmethod
    def constant(cls, alpha: float) -> "PhaseProfile":
        return cls("constant", alpha)

    @classmethod
    def per_bin(cls, alphas) -> "PhaseProfile":
        return cls("per_bin", alphas)

    @classmethod
    def delay(cls, n_samples) -> "PhaseProfile":
        return cls("delay", n_samples)

    def bin_phases(self, n: int, basis: str = "dft") -> np.ndarray:
        """Resolve to a phase per non-negative bin of an N-point transform.

        Returns bins 0..N//2 for ``basis="dft"`` and bins 0..N-1 for
        ``basis="dct"``.
        """
        if basis == "dft":
            n_bins = n // 2 + 1
            digital = 2.0 * np.pi * np.arange(n_bins) / n
        elif basis == "dct":
            n_bins = n
            digital = np.pi * np.arange(n_bins) / n
        else:
            raise ValueError(f"unknown basis {basis!r}")
        if self.kind == "constant":
            return np.full(n_bins, self.value)
        if self.kind == "per_bin":
            if self.value.size != n_bins:
                raise ValueError(
                    f"per-bin profile has {self.value.size} values, "
                    f"{basis} length {n} needs {n_bins}")
            return self.value.copy()
        # delay: alpha_k = Omega_k * n_k, alpha_0 = 0
        delays = np.zeros(n_bins)
        if self.value.size == 1:
            delays[1:] = self.value[0]
        elif self.value.size == n_bins - 1:
            delays[1:] = self.value
        else:
            raise ValueError(
                f"delay profile needs 1 or {n_bins - 1} values, got {self.value.size}")
        return digital * delays


def pt_kernel(alpha: float, n: int) -> Signal:
    """Sampled impulse response of the constant phase shifter.

    kernel[m] = cos(alpha) delta[m] + sin(alpha) h[m] with
    h[m] = (1 - cos(pi m)) / (pi m) and h[0] = 0, for m = 0..n-1.
    """
    if n < 1:
        raise ValueError("kernel length must be >= 1")
    m = np.arange(n)
    h = np.zeros(n)
    h[1:] = (1.0 - np.cos(np.pi * m[1:])) / (np.pi * m[1:])
    kernel = np.sin(alpha) * h
    kernel[0] += np.cos(alpha)
    return Signal(kernel)


def pt_dft(signal, profile: PhaseProfile) -> Signal:
    """Phase transform of a real signal via the DFT.

    Applies the gain e^{-j alpha_k} to the non-negative frequency bins;
    negative frequencies receive the conjugate shift implicitly, so the
    output is real by construction.  The DC bin and the Nyquist bin of an
    even length are real, so a real output can only scale them by
    cos(alpha_k).

    Parameters
    ----------
    signal : Signal or array_like
        Real input samples.
    profile : PhaseProfile
        Phase per non-negative bin.
    """
    sig = as_signal(signal)
    alphas = profile.bin_phases(len(sig), basis="dft")
    return Signal(apply_gain(sig.samples, np.exp(-1j * alphas)), sig.sample_rate)


def hilbert(signal) -> Signal:
    """Hilbert transform: the pi/2 phase transform (zero-mean output)."""
    return pt_dft(signal, PhaseProfile.constant(np.pi / 2.0))


def _sine_resynthesis(coeffs: np.ndarray) -> np.ndarray:
    """sqrt(2/N) sum_k coeffs[k] sin(pi k (2n+1) / 2N) in O(N log N).

    The k = 0 term vanishes, so this maps onto a type-3 DST of the
    half-weighted coefficients 1..N-1 padded with a trailing zero.
    """
    n = coeffs.size
    if n == 1:
        return np.zeros(1)
    staged = np.zeros(n)
    staged[:n - 1] = coeffs[1:] / 2.0
    return np.sqrt(2.0 / n) * _fft.dst(staged, type=3)


def fcqt(signal) -> Signal:
    """Fourier cosine quadrature transform.

    Resynthesizes the DCT-2 coefficients on the sine companion basis:
    xq[n] = sqrt(2/N) sum_k X[k] sin(pi k (2n+1) / 2N).  This is the
    quadrature of the signal's symmetric 2N-periodic extension and the
    alpha = pi/2 case of :func:`pt_dct`.
    """
    sig = as_signal(signal)
    bins = dct2_forward(sig).bins
    return Signal(_sine_resynthesis(bins), sig.sample_rate)


def pt_dct(signal, profile: PhaseProfile) -> Signal:
    """Phase transform of a real signal via the DCT-2.

    y[n] = sqrt(2/N) sum_k sigma_k X[k] cos(pi k (2n+1) / 2N - alpha_k)

    For a constant profile this reduces to cos(alpha) x + sin(alpha) fcqt(x);
    the DC term is carried entirely by the cosine branch since the k = 0
    sine basis vector is identically zero.
    """
    sig = as_signal(signal)
    n = len(sig)
    alphas = profile.bin_phases(n, basis="dct")
    bins = dct2_forward(sig).bins
    in_phase = _fft.idct(bins * np.cos(alphas), type=2, norm="ortho")
    quadrature = _sine_resynthesis(bins * np.sin(alphas))
    return Signal(in_phase + quadrature, sig.sample_rate)


def pt_sweep(signal, alphas, basis: str = "dft") -> np.ndarray:
    """Constant phase transforms for each of ``alphas``, one row per alpha.

    By linearity y(alpha) = cos(alpha) x + sin(alpha) q, where the
    quadrature q is :func:`hilbert` on the DFT basis and :func:`fcqt` on the
    DCT basis, so the whole sweep costs one transform.
    """
    sig = as_signal(signal)
    if basis == "dft":
        quadrature = hilbert(sig).samples
    elif basis == "dct":
        quadrature = fcqt(sig).samples
    else:
        raise ValueError(f"unknown basis {basis!r}")
    alphas = np.asarray(alphas, dtype=float)[:, None]
    return np.cos(alphas) * sig.samples + np.sin(alphas) * quadrature
