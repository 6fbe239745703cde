"""Arbitrary-phase shifting of real signals.

A phase transform (PT) applies a phase shift -alpha to the positive
frequencies of a signal and +alpha to the negative ones; the Hilbert
transform is the alpha = pi/2 case.  Two spectral routes are provided: the
DFT route (N-periodic extension) and the DCT-2 route (2N-periodic symmetric
extension), which differ whenever those extensions disagree.  Both run on
``numpy.fft``: the DFT route as one real-FFT gain, the DCT route as one
DCT-2 and one inverse that resynthesizes X cos alpha on the cosine basis and
X sin alpha on the sine basis together (see :mod:`phasekit.spectral`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import Signal, _dct2, _dct3_pair, _require_finite, apply_gain, as_signal


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

    def bin_phases(self, n: int, basis: str = "dft") -> float | np.ndarray:
        """Resolve to a phase per non-negative bin of an N-point transform.

        Returns bins 0..N//2 for ``basis="dft"`` and bins 0..N-1 for
        ``basis="dct"``; a constant profile returns its float, which
        broadcasts over those bins.
        """
        if basis == "dft":
            n_bins, scale = n // 2 + 1, 2.0 * np.pi
        elif basis == "dct":
            n_bins, scale = n, np.pi
        else:
            raise ValueError(f"unknown basis {basis!r}")
        if self.kind == "constant":
            return self.value
        if self.kind == "per_bin":
            if self.value.size != n_bins:
                raise ValueError(
                    f"per-bin profile has {self.value.size} values, "
                    f"{basis} length {n} needs {n_bins}")
            return self.value.copy()
        # delay: alpha_k = Omega_k * n_k, alpha_0 = 0 since Omega_0 = 0
        if self.value.size == 1:
            delays = self.value[0]
        elif self.value.size == n_bins - 1:
            delays = np.append(0.0, self.value)
        else:
            raise ValueError(
                f"delay profile needs 1 or {n_bins - 1} values, got {self.value.size}")
        return scale * np.arange(n_bins) / n * delays


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
    with np.errstate(over="ignore", invalid="ignore"):  # apply_gain raises on overflow
        gain = np.exp(-1j * profile.bin_phases(len(sig), basis="dft"))
    return Signal(apply_gain(sig.samples, gain), sig.sample_rate)


def hilbert(signal) -> Signal:
    """Hilbert transform: the pi/2 phase transform with the exact gain -j of
    :func:`phasekit.spectral.analytic_signal` (zero-mean output)."""
    sig = as_signal(signal)
    return Signal(apply_gain(sig.samples, -1j), sig.sample_rate)


def fcqt(signal) -> Signal:
    """Fourier cosine quadrature transform.

    Resynthesizes the DCT-2 coefficients on the sine companion basis:
    xq[n] = sqrt(2/N) sum_k X[k] sin(pi k (2n+1) / 2N).
    This is the quadrature of the signal's symmetric 2N-periodic extension
    and the alpha = pi/2 case of :func:`pt_dct`.
    """
    sig = as_signal(signal)
    out = _dct3_pair(np.zeros(len(sig)), _dct2(sig.samples))
    return Signal(_require_finite(out, "spectral gain"), sig.sample_rate)


def pt_dct(signal, profile: PhaseProfile) -> Signal:
    """Phase transform of a real signal via the DCT-2.

    y[n] = sqrt(2/N) sum_k sigma_k X[k] cos(pi k (2n+1) / 2N - alpha_k)

    resynthesizes X cos(alpha) on the cosine basis and X sin(alpha) on the
    sine basis in one inverse transform.  Every profile, a constant too,
    takes the same arithmetic.  For a constant profile this equals
    cos(alpha) x + sin(alpha) fcqt(x) to round-off; the DC term is carried
    entirely by the cosine branch since the k = 0 sine basis vector is
    identically zero.

    Raises
    ------
    FloatingPointError
        If the result is not finite, as on the DFT route.
    """
    sig = as_signal(signal)
    with np.errstate(over="ignore", invalid="ignore"):
        alphas = profile.bin_phases(len(sig), basis="dct")
        bins = _dct2(sig.samples)
        out = _dct3_pair(bins * np.cos(alphas), bins * np.sin(alphas))
    return Signal(_require_finite(out, "spectral gain"), sig.sample_rate)


def pt_sweep(signal, alphas, basis: str = "dft") -> np.ndarray:
    """Constant phase transforms for each of ``alphas``, one row per alpha.

    By linearity y(alpha) = cos(alpha) x + sin(alpha) q, where the
    quadrature q is :func:`hilbert` on the DFT basis and :func:`fcqt` on the
    DCT basis, so the whole sweep costs one transform.  A non-finite phase
    raises ValueError and a non-finite result FloatingPointError.
    """
    sig = as_signal(signal)
    alphas = np.asarray(alphas, dtype=float)[:, None]
    if not np.all(np.isfinite(alphas)):
        raise ValueError("phases must be finite")
    if basis == "dft":
        quadrature = hilbert(sig).samples
    elif basis == "dct":
        quadrature = fcqt(sig).samples
    else:
        raise ValueError(f"unknown basis {basis!r}")
    return _require_finite(np.cos(alphas) * sig.samples + np.sin(alphas) * quadrature,
                           "phase sweep")
