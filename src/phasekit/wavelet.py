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
(one length each side) on whose even-length Nyquist bin Psi is taken as 0,
and one inverse, a complex inverse FFT with zero negative bins trimmed back
to the record.  Both run on ``numpy.fft``, and the pairing constant has a
closed form, so this module needs no scipy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import Signal, _require_finite, _warn, as_signal

MAX_SCALES = 4096  # ScaleGrid.default; the default grids of 1e6 samples hold ~180
RESIDUAL_WARN = 0.05  # wavelet_analytic_signal warns above this relative residual


@dataclass(frozen=True)
class MorseWavelet:
    """Generalized Morse wavelet Psi(w) = A w^beta exp(-w^gamma), w > 0.

    The amplitude A is fixed so the peak value is 2, which makes the
    analytic-signal convention line up with the one-sided DFT masks used
    elsewhere in the package.
    """

    beta: float = 20.0
    gamma: float = 3.0

    def __post_init__(self):
        if not (np.isfinite(self.beta) and self.beta > 0):
            raise ValueError("beta must be positive")
        if not (np.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError("gamma must be positive")

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
    voices_per_octave: int

    def __post_init__(self):
        scales = np.asarray(self.scales, dtype=float)
        if scales.ndim != 1 or scales.size < 2:
            raise ValueError("need at least two scales")
        if np.any(scales <= 0) or np.any(np.diff(scales) <= 0):
            raise ValueError("scales must be positive and strictly increasing")
        if self.voices_per_octave < 1:
            raise ValueError("voices_per_octave must be >= 1")
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
        s_min = spec.peak_omega * 2.0 / (2.0 * np.pi)
        s_max = spec.peak_omega * (n_samples / 2.0) / (2.0 * np.pi)
        n_octaves = np.log2(s_max / s_min)
        # checked before the product, which overflows for huge voice counts
        if voices_per_octave > MAX_SCALES or n_octaves * voices_per_octave >= MAX_SCALES:
            raise ValueError(f"scale grid would exceed {MAX_SCALES} scales")
        count = int(np.ceil(n_octaves * voices_per_octave)) + 1
        scales = s_min * 2.0 ** (np.arange(count) / voices_per_octave)
        return cls(scales, voices_per_octave)

    def log_weights(self) -> np.ndarray:
        """Trapezoidal quadrature weights over ln(s)."""
        ln_s = np.log(self.scales)
        w = np.zeros_like(ln_s)
        w[1:-1] = (ln_s[2:] - ln_s[:-2]) / 2.0
        w[0] = (ln_s[1] - ln_s[0]) / 2.0
        w[-1] = (ln_s[-1] - ln_s[-2]) / 2.0
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
    extension and omega its bin frequencies."""
    sig = as_signal(signal)
    spec = spec if spec is not None else MorseWavelet()
    grid = grid if grid is not None else ScaleGrid.default(len(sig), spec)
    aliased = int(np.sum(grid.scales * np.pi < spec.peak_omega))
    if aliased:
        _warn(f"{aliased} scale(s) place the wavelet peak above Nyquist")
    padded = np.pad(sig.samples, len(sig), mode="symmetric")
    omega = 2.0 * np.pi * np.fft.rfftfreq(padded.size)
    if padded.size % 2 == 0:
        omega[-1] = 0.0  # Nyquist is also the negative frequency -1/2
    return sig, grid, spec, np.fft.rfft(padded), omega


def _inverse(products: np.ndarray, n: int) -> np.ndarray:
    """Complex inverse FFT of one-sided products on the reflected extension
    of an n-sample record (negative bins zero), trimmed to the record."""
    return np.fft.ifft(products, 3 * n)[n:2 * n]


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
    sig, grid, spec, spectrum, omega = _reflected_spectrum(signal, grid, spec)
    coeffs = np.empty((grid.scales.size, len(sig)), dtype=complex)
    for row, scale in zip(coeffs, grid.scales):
        product = morse_spectrum(spec, scale * omega) * np.sqrt(scale) * spectrum
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
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        sig, grid, spec, spectrum, omega = _reflected_spectrum(signal, grid, spec)
        response = np.zeros_like(omega)
        for scale, weight in zip(grid.scales, grid.log_weights()):
            response += weight * morse_spectrum(spec, scale * omega)
        response *= 2.0 / cpsi_delta(spec)
        z = _inverse(response * spectrum, len(sig))
    _require_finite(z, "spectral gain")
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

    Equal to cos(alpha) wpt(x, 0) + sin(alpha) wpt(x, pi/2) exactly, since
    the rotation commutes with the linear reconstruction sum.
    """
    if not np.isfinite(alpha):
        raise ValueError("alpha must be finite")
    sig = as_signal(signal)
    z = wavelet_analytic_signal(sig, grid, spec)
    return Signal((z * np.exp(-1j * alpha)).real, sig.sample_rate)


def wqt(signal, grid: ScaleGrid | None = None,
        spec: MorseWavelet | None = None) -> Signal:
    """Wavelet quadrature transform: the alpha = pi/2 phase transform."""
    return wpt(signal, np.pi / 2.0, grid, spec)
