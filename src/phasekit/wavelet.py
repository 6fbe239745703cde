"""Analytic wavelet transform, wavelet phase transform, and quadrature.

The analyzing wavelet is a generalized Morse wavelet, analytic by
construction (its spectrum vanishes for omega <= 0).  Phase shifting in
coefficient space is a plain rotation W -> W e^{-j alpha}, and the signal
is brought back with the single-integral inverse: a log-scale quadrature of
the coefficients against the delta-wavelet pairing constant
C = integral of Psi(omega)/omega over omega > 0 = A Gamma(beta/gamma)/gamma.

Notes
-----
Coefficients carry the sqrt(s) unit-energy daughter normalization, so the
single-integral inverse integrates W(s, t) s^{-3/2} ds, i.e. the log-scale
weights include a 1/sqrt(s) factor.  Dropping that factor (a common slip
when the transform is written with sqrt(s) up front) mis-weights low
frequencies by sqrt(omega) and does not reconstruct.

The inverse is linear in the coefficients, and each coefficient row is a
spectral multiplier, so analysis followed by the inverse collapses into the
single multiplier R(omega) = (2/C) sum_j dln(s_j) Psi(s_j omega): the
1/sqrt(s) weight cancels the sqrt(s) daughter normalization.  The analytic
signal is computed through R without forming the scale-by-time
coefficients; :func:`awt` remains for callers who want the scalogram.

Both share one front, the real FFT of the record extended by reflection
(one length each side), kept on the bins below Nyquist, and one inverse, a
complex inverse FFT with the Nyquist and negative bins zero, trimmed back
to the record.  Both run on ``numpy.fft``, and the pairing constant has a
closed form, so this module needs no scipy.

R and the awt rows are built in log space.  ln omega and omega^gamma are
computed once on the positive bins, and scale s_j contributes
exp(c_j + beta ln omega - s_j^gamma omega^gamma), with
c_j = ln w_j + ln A + beta ln s_j for its weight w_j ((2/C) dln(s_j) for R,
sqrt(s_j) for awt): one exp per bin instead of a log, a pow and an exp.
The Morse log spectrum E(u) = ln A + beta ln u - u^gamma depends only on
u = s omega and is unimodal, so E(u) = -750 - max_j ln w_j, solved once
per call, bounds one interval of u; each scale evaluates only the bins of
that interval divided by s_j.  Every skipped bin has an exponent below
-750, and exp rounds anything below -745.13 to exactly 0.0, so the cut
drops only zeros.  The log-space rounding moves results in the last digits
only (about 1e-14 of max|R| for the default wavelet).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import Signal, _require_finite, _warn, as_signal

MAX_SCALES = 4096  # ScaleGrid.default; the default grids of 1e6 samples hold ~180
RESIDUAL_WARN = 0.05  # wavelet_analytic_signal warns above this relative residual
UNDERFLOW_CUT = -750.0  # exp of anything below about -745.13 rounds to 0.0


@dataclass(frozen=True)
class MorseWavelet:
    """Generalized Morse wavelet Psi(w) = A w^beta exp(-w^gamma), w > 0.

    The amplitude A is fixed so the peak value is 2, which makes the
    analytic-signal convention line up with the one-sided DFT masks used
    elsewhere in the package.  A (beta, gamma) pair whose peak frequency,
    amplitude or pairing constant is not a finite float raises ValueError.
    """

    beta: float = 20.0
    gamma: float = 3.0

    def __post_init__(self):
        if not (np.isfinite(self.beta) and self.beta > 0):
            raise ValueError("beta must be positive")
        if not (np.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError("gamma must be positive")
        try:
            with np.errstate(all="ignore"):
                representable = (math.isfinite(self.log_amplitude)
                                 and 0 < self.peak_omega < math.inf
                                 and 0 < cpsi_delta(self) < math.inf)
        except (OverflowError, ValueError):  # from float power, math.lgamma or math.exp
            representable = False
        if not representable:
            raise ValueError(f"Morse wavelet with beta = {self.beta:g} and gamma = "
                             f"{self.gamma:g} has no finite peak, amplitude or pairing constant")

    @property
    def peak_omega(self) -> float:
        """Frequency of the spectral peak: (beta/gamma)^(1/gamma)."""
        return (self.beta / self.gamma) ** (1.0 / self.gamma)

    @property
    def log_amplitude(self) -> float:
        # ln A with A = 2 / (peak^beta e^{-beta/gamma}), evaluated in log
        # space to survive large beta
        r = self.beta / self.gamma
        return np.log(2.0) - r * np.log(r) + r


def morse_spectrum(spec: MorseWavelet, omega_grid) -> np.ndarray:
    """Evaluate the wavelet spectrum on a frequency grid (zero for w <= 0)."""
    omega = np.asarray(omega_grid, dtype=float)
    if not np.all(np.isfinite(omega)):
        raise ValueError("omega_grid must be finite")
    out = np.zeros_like(omega)
    pos = omega > 0
    out[pos] = np.exp(spec.log_amplitude + spec.beta * np.log(omega[pos])
                      - omega[pos] ** spec.gamma)
    return out


@dataclass(frozen=True)
class ScaleGrid:
    """Logarithmically spaced analysis scales."""

    scales: np.ndarray

    def __post_init__(self):
        scales = np.asarray(self.scales, dtype=float)
        if scales.ndim != 1 or scales.size < 2:
            raise ValueError("need at least two scales")
        if np.any(scales <= 0) or np.any(np.diff(scales) <= 0):
            raise ValueError("scales must be positive and strictly increasing")
        object.__setattr__(self, "scales", scales)

    @classmethod
    def default(cls, n_samples: int, spec: MorseWavelet,
                voices_per_octave: int = 10) -> "ScaleGrid":
        """Grid placing the wavelet peak between two resolvability limits.

        Scales run from 2 samples per period (the Nyquist limit) up to N/2
        samples per period (anything much longer cannot complete a cycle in
        the record and only degrades the reconstruction quadrature).
        """
        if not n_samples > 4:
            raise ValueError("a default scale grid needs more than 4 samples")
        if voices_per_octave < 1:  # before it divides the grid exponents
            raise ValueError("voices_per_octave must be >= 1")
        s_min = spec.peak_omega * 2.0 / (2.0 * np.pi)
        s_max = spec.peak_omega * (n_samples / 2.0) / (2.0 * np.pi)
        n_octaves = np.log2(s_max / s_min)
        # checked before the product, which overflows for huge voice counts
        if voices_per_octave > MAX_SCALES or n_octaves * voices_per_octave >= MAX_SCALES:
            raise ValueError(f"scale grid would exceed {MAX_SCALES} scales")
        count = int(np.ceil(n_octaves * voices_per_octave)) + 1
        scales = s_min * 2.0 ** (np.arange(count) / voices_per_octave)
        return cls(scales)

    def log_weights(self) -> np.ndarray:
        """Trapezoidal quadrature weights over ln(s)."""
        w = np.gradient(np.log(self.scales))  # one-sided differences at the ends
        w[[0, -1]] /= 2.0
        return w


@dataclass(frozen=True)
class Scalogram:
    """Complex wavelet coefficients on a (scale x time) grid."""

    coeffs: np.ndarray
    scale_grid: ScaleGrid
    spec: MorseWavelet
    sample_rate: float

    def __post_init__(self):
        if self.coeffs.shape[0] != self.scale_grid.scales.size:
            raise ValueError("coefficient rows must match the scale grid")


def _reflected_spectrum(signal, grid, spec):
    """Fill in the defaults, warn about aliased scales, and return
    (signal, grid, spec, X, omega): X is the real FFT of the reflected
    extension on its bins below Nyquist (an even extension's Nyquist bin is
    also the negative frequency -1/2, so it is left out) and omega their
    frequencies."""
    sig = as_signal(signal)
    spec = spec if spec is not None else MorseWavelet()
    grid = grid if grid is not None else ScaleGrid.default(len(sig), spec)
    aliased = int(np.sum(grid.scales * np.pi < spec.peak_omega))
    if aliased:
        _warn(f"{aliased} scale(s) place the wavelet peak above Nyquist")
    padded = np.pad(sig.samples, len(sig), mode="symmetric")
    below_nyquist = (padded.size + 1) // 2
    omega = 2.0 * np.pi * np.fft.rfftfreq(padded.size)[:below_nyquist]
    return sig, grid, spec, np.fft.rfft(padded)[:below_nyquist], omega


def _inverse(products: np.ndarray, n: int) -> np.ndarray:
    """Complex inverse FFT of one-sided products on the reflected extension
    of an n-sample record (Nyquist and negative bins zero), trimmed to the
    record; FloatingPointError if it is not finite."""
    return _require_finite(np.fft.ifft(products, 3 * n)[n:2 * n], "spectral gain")


def _morse_support(spec, floor):
    """(u_lo, u_hi) outside which E(u) = ln A + beta ln u - u^gamma, the log
    of the wavelet spectrum at u, lies below ``floor``.

    E is concave in v = ln u and peaks at ln 2, so it crosses the floor once
    on each side of the peak.  Each crossing is bisected in v, keeping the
    end below the floor, so the interval only ever errs wide.  A side that
    stays above the floor out to |v| = 800, where e^v leaves the floats, is
    left open (0 or inf).
    """
    ln_a, beta, gamma = spec.log_amplitude, spec.beta, spec.gamma

    def below(v):
        power = math.exp(gamma * v) if gamma * v < 709.0 else math.inf
        return ln_a + beta * v - power < floor

    peak = math.log(beta / gamma) / gamma
    ends = []
    for outer in (min(-800.0, peak), max(800.0, peak)):
        inner = peak
        if below(outer):
            for _ in range(64):
                mid = 0.5 * (outer + inner)
                if below(mid):
                    outer = mid
                else:
                    inner = mid
        ends.append(outer)
    with np.errstate(over="ignore"):
        return tuple(np.exp(ends))


def _scale_terms(spec, scales, log_coef, omega):
    """Yield (bins, term) per scale: term = w_j Psi(s_j omega[bins]) with
    ln w_j = ``log_coef[j]``, computed as exp(ln w_j + ln A + beta ln s_j
    + beta ln omega - s_j^gamma omega^gamma); the term is zero on every
    other bin.  ``omega`` runs from DC up to, not including, Nyquist, so
    every bin after DC is a positive frequency.

    ``bins`` is the scale's interval of positive bins outside which the
    exponent is below UNDERFLOW_CUT, so that exp would give exactly 0.0.
    Where s_j^gamma or the range of omega^gamma is not a normal float (large
    gamma), the product could be inf * 0, so that scale raises s_j omega to
    gamma instead.  Each term is a view of one work buffer, overwritten at
    the next step, so no scale allocates.
    """
    beta, gamma = spec.beta, spec.gamma
    w = omega[1:]
    beta_ln_w = beta * np.log(w)
    with np.errstate(over="ignore", under="ignore"):
        w_g = w ** gamma
        s_g = scales ** gamma
        u_lo, u_hi = _morse_support(spec, UNDERFLOW_CUT - np.max(log_coef))
        lo = np.searchsorted(w, u_lo / scales)
        hi = np.searchsorted(w, u_hi / scales, side="right")
    tiny = np.finfo(float).tiny  # the smallest normal float
    factored = (s_g >= tiny) & (s_g < np.inf) & (w_g[0] >= tiny) & (w_g[-1] < np.inf)
    c = log_coef + spec.log_amplitude + beta * np.log(scales)
    term_buf, power_buf = np.empty_like(w), np.empty_like(w)
    for j, (a, b) in enumerate(zip(lo, hi)):
        term, power = term_buf[a:b], power_buf[a:b]
        if factored[j]:
            np.multiply(w_g[a:b], s_g[j], out=power)
        else:
            np.power(np.multiply(w[a:b], scales[j], out=power), gamma, out=power)
        np.add(beta_ln_w[a:b], c[j], out=term)
        term -= power
        yield slice(1 + a, 1 + b), np.exp(term, out=term)


def _response(spec, grid, omega):
    """The multiplier R(omega) = (2/C) sum_j dln(s_j) Psi(s_j omega)."""
    response = np.zeros_like(omega)
    log_coef = np.log(2.0 / cpsi_delta(spec) * grid.log_weights())
    for bins, term in _scale_terms(spec, grid.scales, log_coef, omega):
        response[bins] += term
    return response


def awt(signal, grid: ScaleGrid | None = None,
        spec: MorseWavelet | None = None) -> Scalogram:
    """Analytic wavelet transform of a real signal.

    Per scale s, the coefficients are the inverse DFT of the one-sided
    product sqrt(s) Psi(s omega_k) X[k].  The signal is extended by
    reflection (one signal length each side) before the transform and the
    coefficients are trimmed back, which pushes wrap-around artifacts of
    the largest scales away from the record.

    Scales whose peak frequency exceeds Nyquist cannot be represented and
    trigger a RuntimeWarning.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises in _inverse
        sig, grid, spec, spectrum, omega = _reflected_spectrum(signal, grid, spec)
        coeffs = np.empty((grid.scales.size, len(sig)), dtype=complex)
        product = np.empty_like(spectrum)
        terms = _scale_terms(spec, grid.scales, 0.5 * np.log(grid.scales), omega)
        for row, (bins, term) in zip(coeffs, terms):
            product.fill(0.0)
            np.multiply(term, spectrum[bins], out=product[bins])
            row[:] = _inverse(product, len(sig))
    return Scalogram(coeffs, grid, spec, sig.sample_rate)


def cpsi_delta(spec: MorseWavelet) -> float:
    """Delta-pairing reconstruction constant of the wavelet.

    This is the admissibility-type integral of Psi(omega)/omega over the
    positive axis, finite for every beta > 0 since Psi ~ omega^beta kills
    the 1/omega pole.  Substituting v = omega^gamma gives the closed form
    A Gamma(beta/gamma) / gamma, evaluated in log space.
    """
    r = spec.beta / spec.gamma
    return math.exp(spec.log_amplitude + math.lgamma(r)) / spec.gamma


def wavelet_analytic_signal(signal, grid: ScaleGrid | None = None,
                            spec: MorseWavelet | None = None) -> np.ndarray:
    """Analytic signal from the single-integral inverse wavelet transform.

    z[n] = (2 / C) sum_j W[j, n] s_j^{-1/2} dln(s_j), computed as the
    one-sided multiplier R(omega) = (2 / C) sum_j dln(s_j) Psi(s_j omega)
    on the same reflected extension :func:`awt` uses, then trimmed.

    Re(z) approximates the input; Im(z) is the wavelet quadrature.  A
    RuntimeWarning reports the relative reconstruction residual when it
    exceeds ``RESIDUAL_WARN`` (content outside the scale grid's band, e.g.
    strong trends or near-Nyquist components, ends up there).
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises in _inverse
        sig, grid, spec, spectrum, omega = _reflected_spectrum(signal, grid, spec)
        z = _inverse(_response(spec, grid, omega) * spectrum, len(sig))
    x = sig.samples
    norm = float(np.linalg.norm(x))
    if norm > 0:
        residual = float(np.linalg.norm(z.real - x)) / norm
        if residual > RESIDUAL_WARN:
            _warn(f"wavelet reconstruction residual {residual:.3g} exceeds "
                  f"{RESIDUAL_WARN:.3g}; scale grid may not cover the signal band")
    return z


def wpt(signal, alpha: float, grid: ScaleGrid | None = None,
        spec: MorseWavelet | None = None) -> Signal:
    """Wavelet phase transform: rotate coefficients by e^{-j alpha}, invert.

    Equal to cos(alpha) wpt(x, 0) + sin(alpha) wqt(x) to round-off, since
    the rotation commutes with the linear reconstruction sum.
    """
    if not np.isfinite(alpha):
        raise ValueError("alpha must be finite")
    sig = as_signal(signal)
    z = wavelet_analytic_signal(sig, grid, spec)
    return Signal((z * np.exp(-1j * alpha)).real, sig.sample_rate)


def wqt(signal, grid: ScaleGrid | None = None,
        spec: MorseWavelet | None = None) -> Signal:
    """Wavelet quadrature transform: exactly Im :func:`wavelet_analytic_signal`."""
    sig = as_signal(signal)
    return Signal(wavelet_analytic_signal(sig, grid, spec).imag, sig.sample_rate)
