"""Arbitrary-phase shifting of real signals.

A phase transform (PT) applies a phase shift -alpha to the positive
frequencies of a signal and +alpha to the negative ones; the Hilbert
transform is the alpha = pi/2 case.  Two spectral routes are provided: the
DFT route (N-periodic extension) and the DCT-2 route (2N-periodic symmetric
extension), which differ whenever those extensions disagree.

Every 1-D phase transform, the Hilbert transform, the cosine quadrature and
the fractional delays included, is one call into one core, :func:`_shift`,
the one place that decides how a profile runs.  On the N-point routes a
constant profile equals its per-bin equivalent bit for bit.  On a length
with a large prime factor (see :func:`_kernel_route`), a constant or
scalar-delay profile is instead one convolution with a closed-form periodic
kernel, and agrees with the per-bin profile to round-off.  Both routes
reduce a delay exactly into its period with :func:`_reduce`.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .spectral import (Signal, _dct2, _dct3_pair, _delay_kernel, _periodic_convolve,
                       _quadrature_kernel, _require_finite, apply_gain, as_signal)


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

        A delay is first reduced exactly into its period, L = N (DFT) or 2N
        (DCT), by :func:`_reduce`, so its phases cannot overflow.
        """
        if basis == "dft":
            n_bins, scale, period = n // 2 + 1, 2.0 * np.pi, n
        elif basis == "dct":
            n_bins, scale, period = n, np.pi, 2 * n
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
        return scale * np.arange(n_bins) / n * _reduce(delays, period)


def _reduce(delay, period: int):
    """A delay d (scalar or array) moved by whole periods L into [-L/2, L/2],
    the same shift of the L-periodic extension.  Exact for every finite d:
    fmod is exact, and so is the one subtraction of +-L after it (Sterbenz)."""
    delay = np.fmod(delay, period)
    return np.where(np.abs(delay) > period / 2, delay - np.sign(delay) * period, delay)[()]


def pt_kernel(alpha: float, n: int) -> Signal:
    """Sampled impulse response of the constant phase shifter.

    kernel[m] = cos(alpha) delta[m] + sin(alpha) h[m] with
    h[m] = (1 - cos(pi m)) / (pi m) and h[0] = 0, for m = 0..n-1.  h is the
    L -> infinity limit of the periodic quadrature kernel that the DFT route
    applies on L samples: (2/L) cot(pi m / L) -> 2 / (pi m) for odd m.

    Raises
    ------
    ValueError
        If alpha is not finite, or n is not an integer >= 1.
    """
    alpha = PhaseProfile.constant(alpha).value
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"kernel length must be an integer, got {n!r}") from None
    if n < 1:
        raise ValueError("kernel length must be >= 1")
    m = np.arange(n)
    h = np.zeros(n)
    h[1:] = (1.0 - np.cos(np.pi * m[1:])) / (np.pi * m[1:])
    kernel = np.sin(alpha) * h
    kernel[0] += np.cos(alpha)
    return Signal(kernel)


def _kernel_route(n: int) -> bool:
    """Whether :func:`_shift` runs a constant phase or a scalar delay on N
    samples as one convolution instead of an N-point pair.

    True when N's largest prime factor p has p^2 > N, which is when pocketfft
    considers Bluestein's chirp-z for an N-point transform (and numpy plans
    it anew on every call), and N >= 4096: below that both routes take under
    about 1 ms.  Not cached: 0.1 ms at N = 1,000,003, far below any transform.
    """
    if n < 4096:
        return False
    rest, factor = n, 2
    while factor * factor <= rest:
        while rest % factor == 0:
            rest //= factor
        factor += 1
    # rest is N's largest prime factor, or 1 when that factor was divided
    # out above, which makes it at most sqrt(N)
    return rest * rest > n


def _shift(signal, basis: str, profile: PhaseProfile | None = None) -> Signal:
    """The one core of every 1-D phase transform: the gain
    e^{-j alpha_k} = cos alpha_k - j sin alpha_k on the positive frequencies
    of ``signal`` on ``basis`` "dft" or "dct", every route reading the one
    complex array pair = cos alpha_k + j sin alpha_k, exactly 1j for ``profile=None``.

    On a length that :func:`_kernel_route` selects, a scalar profile (a
    constant, the quadrature or a scalar delay) is one convolution with a
    closed-form kernel of period L = N (DFT) or 2N (DCT, the extension
    [x, x reversed]): cos x + sin (h_L * x) with the discrete Hilbert kernel,
    which is zero on DC and Nyquist as the N-point route's quadrature is, or
    the periodic sinc of the delay as :func:`_reduce` leaves it, as on the
    N-point route.  Every other profile and length takes the N-point gain:
    apply_gain(x, conj(pair)) on the DFT basis, and on the DCT basis the DCT-2
    bins X resynthesized from X pair in one inverse, X cos on the cosine
    basis and X sin on the sine.  A non-finite result raises FloatingPointError.
    """
    sig = as_signal(signal)
    x, n = sig.samples, len(sig)
    if basis not in ("dft", "dct"):
        raise ValueError(f"unknown basis {basis!r}")
    period = n if basis == "dft" else 2 * n
    route = _kernel_route(n) and (
        profile is None or (profile.kind != "per_bin" and np.size(profile.value) == 1))
    if profile is None:
        pair = np.array(1j)
    elif not (route and profile.kind == "delay"):
        alphas = profile.bin_phases(n, basis)
        pair = np.empty(np.shape(alphas), dtype=complex)
        np.cos(alphas, out=pair.real)
        np.sin(alphas, out=pair.imag)
        del alphas
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result raises below
        if route and profile is not None and profile.kind == "delay":
            out = _periodic_convolve(x, _delay_kernel(period, _reduce(profile.value[0], period)))
        elif route:
            out = pair.real * x + pair.imag * _periodic_convolve(x, _quadrature_kernel(period))
        elif basis == "dft":
            np.conjugate(pair, out=pair)
            return Signal(apply_gain(x, pair), sig.sample_rate)  # checks its own result
        else:
            out = _dct3_pair(_dct2(x) * pair)
    return Signal(_require_finite(out, "spectral gain"), sig.sample_rate)


def pt_dft(signal, profile: PhaseProfile) -> Signal:
    """Phase transform of a real signal via the DFT.

    Applies the gain e^{-j alpha_k} to the non-negative frequency bins;
    negative frequencies receive the conjugate shift implicitly, so the
    output is real by construction.  The DC bin and the Nyquist bin of an
    even length are real, so a real output can only scale them by
    cos(alpha_k).  A constant profile equals its per-bin equivalent, bit for
    bit or to round-off (see the module docstring).

    Parameters
    ----------
    signal : Signal or array_like
        Real input samples.
    profile : PhaseProfile
        Phase per non-negative bin.
    """
    return _shift(signal, "dft", profile)


def hilbert(signal) -> Signal:
    """Hilbert transform: the pi/2 phase transform with the exact gain -j
    (zero-mean output), the imaginary part of
    :func:`phasekit.spectral.analytic_signal`."""
    return _shift(signal, "dft")


def fcqt(signal) -> Signal:
    """Fourier cosine quadrature transform.

    Resynthesizes the DCT-2 coefficients on the sine companion basis:
    xq[n] = sqrt(2/N) sum_k X[k] sin(pi k (2n+1) / 2N).
    This is the quadrature of the signal's symmetric 2N-periodic extension
    and the alpha = pi/2 case of :func:`pt_dct`, with the exact gain -j.
    """
    return _shift(signal, "dct")


def pt_dct(signal, profile: PhaseProfile) -> Signal:
    """Phase transform of a real signal via the DCT-2.

    y[n] = sqrt(2/N) sum_k sigma_k X[k] cos(pi k (2n+1) / 2N - alpha_k)

    resynthesizes X cos(alpha) on the cosine basis and X sin(alpha) on the
    sine basis in one inverse transform; a constant profile equals its
    per-bin equivalent, bit for bit or to round-off (see the module
    docstring).  For a constant profile this equals
    cos(alpha) x + sin(alpha) fcqt(x) to round-off; the DC term is carried
    entirely by the cosine branch since the k = 0 sine basis vector is
    identically zero.

    Raises
    ------
    FloatingPointError
        If the result is not finite, as on the DFT route.
    """
    return _shift(signal, "dct", profile)


def pt_sweep(signal, alphas, basis: str = "dft") -> np.ndarray:
    """Constant phase transforms for each of ``alphas``, one row per alpha.

    By linearity y(alpha) = cos(alpha) x + sin(alpha) q, where the
    quadrature q is :func:`hilbert` on the DFT basis and :func:`fcqt` on the
    DCT basis, so the whole sweep costs one transform.  A non-finite phase
    raises ValueError and a non-finite result FloatingPointError.
    """
    sig = as_signal(signal)
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim != 1:
        raise ValueError(f"phases must be a 1-D sequence, got {alphas.ndim} dimensions")
    if not np.all(np.isfinite(alphas)):
        raise ValueError("phases must be finite")
    alphas = alphas[:, None]
    quadrature = _shift(sig, basis).samples
    return _require_finite(np.cos(alphas) * sig.samples + np.sin(alphas) * quadrature,
                           "phase sweep")
