"""Fractional delay and fractional-order differintegration via spectral kernels.

Sub-sample delays are linear phase ramps applied to the one-sided spectrum;
fractional derivatives/integrals multiply each positive bin by
(omega_k)^mu e^{j mu pi/2} and correct the mean separately through a
reciprocal-gamma power-law term.  Both parts are in per-sample units unless
time is measured in seconds, which multiplies both by sample_rate^mu.  Both
routes assume the signal's periodic extension, so accuracy claims hold on
interior samples of smooth signals.  This module builds the differintegration
gain; :func:`phasekit.phase._shift` runs it and chooses its route, as for every PT.
"""
from __future__ import annotations

import math

import numpy as np

from .phase import PhaseProfile, _shift, pt_dct, pt_dft
from .spectral import Signal, _require_finite, _warn, as_signal


def _rgamma(z: float) -> float:
    """Reciprocal gamma 1/Gamma(z) for a real z.

    0 at the poles z = 0, -1, -2, ... and where Gamma(z) overflows;
    signed infinity where Gamma(z) underflows to a signed zero (as at
    z = -200.5).
    """
    try:
        g = math.gamma(z)
    except (ValueError, OverflowError):  # a pole, or Gamma overflows
        return 0.0
    if g == 0.0:
        return math.copysign(math.inf, g)
    return 1.0 / g


def _differintegration_pair(n: int, mu: float, rate) -> np.ndarray:
    """The conjugate of the gain (2 pi k / N)^mu e^{j mu pi/2} rate^mu on bins
    0..N//2 (0 at DC), conjugated last, so that ``_shift``'s conjugate gives
    back the gain bit for bit, signs of zero included."""
    gain = np.zeros(n // 2 + 1, dtype=complex)
    # an overflowing scale or gain is reported by _require_finite, not by
    # numpy warnings or an OverflowError
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(np.arange(1, n // 2 + 1), 2.0 * np.pi, out=gain.real[1:])
        gain.real[1:] /= n
        gain.real[1:] **= mu
        gain[1:] *= np.exp(1j * mu * np.pi / 2.0)
        gain[1:] *= rate ** mu
    return np.conjugate(_require_finite(gain, "differintegration"), out=gain)


def frac_delay_dft(signal, delay) -> Signal:
    """Delay a real signal by a (possibly fractional) number of samples.

    The DFT twin of :func:`frac_delay_dct`: :func:`phasekit.phase.pt_dft`
    with the delay profile alpha_k = 2 pi k n_k / N (n_0 = 0), so the
    Nyquist bin of an even N is scaled by cos(pi n_k).  Integer delays
    reduce to exact circular shifts.  A scalar delay equals the same delay
    given per bin, bit for bit or to round-off (see :mod:`phasekit.phase`).

    Parameters
    ----------
    signal : Signal or array_like
    delay : float or array_like
        Scalar delay in samples, or one delay per bin 1..N//2.

    Raises
    ------
    ValueError
        If a delay is not finite, or a per-bin delay has the wrong length.
    """
    return pt_dft(signal, PhaseProfile.delay(delay))


def frac_delay_dct(signal, n0: float) -> Signal:
    """Fractional delay on the DCT-2 symmetric extension.

    Equivalent to :func:`phasekit.phase.pt_dct` with the per-bin delay
    profile alpha_k = pi k n0 / N.  The symmetric extension avoids the
    wrap-around leakage of the DFT route at the signal ends.  A non-finite
    delay raises ValueError, as on the DFT route.  It equals the per-bin ramp
    bit for bit or to round-off (see :mod:`phasekit.phase`).
    """
    return pt_dct(signal, PhaseProfile.delay(float(n0)))


def frac_differintegrate(signal, order: float, physical: bool = True,
                         include_dc_term: bool = True) -> Signal:
    """Fractional derivative (mu > 0) or integral (mu < 0) of a real signal.

    The signed order mu must be finite (ValueError otherwise).  In
    per-sample units the oscillatory part applies the gain
    (2 pi k / N)^mu e^{j mu pi/2} to bins k = 1..N//2 (DC: 0), as
    :func:`phasekit.spectral.apply_gain` does, and the mean a0 contributes
    a0 n^{-mu} / Gamma(1 - mu), evaluated with the reciprocal gamma so
    integer derivative orders yield a zero mean term instead of
    overflowing.  ``physical`` measures time in seconds, t = n /
    sample_rate, which multiplies both parts by sample_rate^mu: the bin
    gain becomes omega_k^mu in rad/s, and order 1 matches d/dt.

    For mu > 0 the mean term diverges at n = 0; that sample's contribution
    is set to zero and a RuntimeWarning is emitted when a0 != 0.
    """
    mu = float(order)
    if not math.isfinite(mu):
        raise ValueError("order must be finite")
    sig = as_signal(signal)
    x = sig.samples
    n = x.size
    rate = np.float64(sig.sample_rate) if physical else 1.0  # the time unit of both parts

    out = _shift(sig, "dft", lambda size: _differintegration_pair(size, mu, rate)).samples

    if include_dc_term:
        a0 = float(np.mean(x))
        t = np.arange(n) / rate
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            np.power(t, -mu, out=t)  # a0 t^{-mu} / Gamma(1 - mu) in t's own bytes
            t *= a0
            t *= _rgamma(1.0 - mu)
            if mu > 0:
                t[0] = 0.0
            out = np.add(t, out, out=t)
        # means at the round-off floor are not worth a warning
        if mu > 0 and abs(a0) > 64.0 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(x)))):
            _warn("mean term of a fractional derivative diverges at t = 0; "
                  "that sample's contribution was set to zero")
    return Signal(_require_finite(out, "differintegration"), sig.sample_rate)
