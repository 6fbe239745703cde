"""Core spectral transforms and the generalized Fourier synthesizer.

This module owns the transform conventions used everywhere else in the
package.  The discrete Fourier transform places the 1/N factor on the
*forward* transform, so the inverse is a bare exponential sum; the DCT-2
pair is orthonormal.  A spectrum's ``origin`` names which of the two it
holds, so a mismatched inverse raises instead of silently scaling.  Every
N-point gain on the DFT basis, 1-D and 2-D, is applied through
:func:`apply_gain`, the one place that decides how a positive-frequency gain
acts on real samples; the DCT basis resynthesizes its bins times
e^{j alpha_k} in :func:`_dct3_pair`.

Every transform runs on ``numpy.fft``; the package needs no scipy.  The
DCT basis is one orthonormal type-2 family on Makhoul's N-point route
(Makhoul 1980, "A fast cosine transform in one and two dimensions"): the
DCT-2 is one ``rfft`` of the even samples followed by the odd ones reversed,
and every inverse, the phase transforms included, is one complex ``ifft``
that carries the real DCT-3s of one spectrum's two parts (:func:`_dct3_pair`).

All operations here are pure functions of their inputs and safe to call
concurrently.
"""
from __future__ import annotations

import functools
import sys
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Signal:
    """A finite real-valued sample sequence with a sample rate in Hz."""

    samples: np.ndarray
    sample_rate: float = 1.0

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size < 1:
            raise ValueError("signal must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(samples)):
            raise ValueError("signal samples must be finite")
        if not (np.isfinite(self.sample_rate) and self.sample_rate > 0):
            raise ValueError("sample_rate must be a positive finite number")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", float(self.sample_rate))

    def __len__(self) -> int:
        return self.samples.size

    @property
    def times(self) -> np.ndarray:
        """Sample instants n / sample_rate."""
        return np.arange(self.samples.size) / self.sample_rate


@dataclass(frozen=True)
class Spectrum:
    """Complex coefficients tied to an explicit transform convention.

    ``origin="dft"`` bins carry 1/N on the forward transform (see
    :func:`dft`); ``origin="dct2"`` bins are orthonormal DCT-2 coefficients.
    """

    bins: np.ndarray
    origin: str = "dft"
    sample_rate: float = 1.0

    def __post_init__(self):
        bins = np.asarray(self.bins)
        if bins.ndim != 1 or bins.size < 1:
            raise ValueError("spectrum must be a non-empty 1-D sequence")
        if self.origin not in ("dft", "dct2"):
            raise ValueError(f"unknown spectrum origin {self.origin!r}")
        object.__setattr__(self, "bins", bins)

    def __len__(self) -> int:
        return self.bins.size


@dataclass(frozen=True)
class FourierSeriesCoeffs:
    """Amplitude/phase form of a real Fourier series.

    ``amplitudes[k-1]`` and ``phases[k-1]`` hold the magnitude r_k >= 0 and
    phase (radians) of the k-th harmonic of a_0 + sum_k r_k cos(k w0 t + phi_k).
    """

    a0: float
    amplitudes: np.ndarray
    phases: np.ndarray
    omega0: float

    def __post_init__(self):
        amplitudes = np.asarray(self.amplitudes, dtype=float)
        phases = np.asarray(self.phases, dtype=float)
        if amplitudes.shape != phases.shape or amplitudes.ndim != 1:
            raise ValueError("amplitudes and phases must be 1-D and equal length")
        if np.any(amplitudes < 0):
            raise ValueError("harmonic amplitudes must be non-negative")
        if not np.all(np.isfinite(phases)):
            raise ValueError("harmonic phases must be finite")
        if not (np.isfinite(self.omega0) and self.omega0 > 0):
            raise ValueError("omega0 must be positive and finite")
        object.__setattr__(self, "amplitudes", amplitudes)
        object.__setattr__(self, "phases", phases)

    @property
    def n_harmonics(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True)
class ModulationSpec:
    """Per-harmonic amplitude and phase modulation callbacks.

    ``c0(t)`` and ``alpha0(t)`` modulate the mean term; ``ck(k, t)`` and
    ``alphak(k, t)`` modulate harmonic k >= 1.  All callbacks must return
    finite values for every requested (k, t).
    """

    c0: Callable[[np.ndarray], np.ndarray]
    alpha0: Callable[[np.ndarray], np.ndarray]
    ck: Callable[[int, np.ndarray], np.ndarray]
    alphak: Callable[[int, np.ndarray], np.ndarray]

    @classmethod
    def identity(cls) -> "ModulationSpec":
        """No modulation: plain truncated Fourier series resynthesis."""
        return cls(
            c0=lambda t: np.ones_like(t),
            alpha0=lambda t: np.zeros_like(t),
            ck=lambda k, t: np.ones_like(t),
            alphak=lambda k, t: np.zeros_like(t),
        )

    @classmethod
    def amplitude_modulation(cls, message: Callable[[np.ndarray], np.ndarray],
                             bias: float = 1.0) -> "ModulationSpec":
        """AM of the first harmonic: c1(t) = bias + message(t), others muted."""
        return cls(
            c0=lambda t: np.zeros_like(t),
            alpha0=lambda t: np.zeros_like(t),
            ck=lambda k, t: bias + np.asarray(message(t), dtype=float)
            if k == 1 else np.zeros_like(t),
            alphak=lambda k, t: np.zeros_like(t),
        )

    @classmethod
    def angle_modulation(cls, message: Callable[[np.ndarray], np.ndarray]) -> "ModulationSpec":
        """PM of the first harmonic: alpha1(t) = message(t), others muted."""
        return cls(
            c0=lambda t: np.zeros_like(t),
            alpha0=lambda t: np.zeros_like(t),
            ck=lambda k, t: np.ones_like(t) if k == 1 else np.zeros_like(t),
            alphak=lambda k, t: np.asarray(message(t), dtype=float)
            if k == 1 else np.zeros_like(t),
        )


@dataclass(frozen=True)
class Image:
    """A 2-D real-valued pixel grid."""

    pixels: np.ndarray

    def __post_init__(self):
        pixels = np.asarray(self.pixels, dtype=float)
        if pixels.ndim != 2 or pixels.size < 1:
            raise ValueError("image must be a non-empty 2-D grid")
        if not np.all(np.isfinite(pixels)):
            raise ValueError("image entries must be finite")
        object.__setattr__(self, "pixels", pixels)

    @property
    def rows(self) -> int:
        return self.pixels.shape[0]

    @property
    def cols(self) -> int:
        return self.pixels.shape[1]


def as_signal(x, sample_rate: float = 1.0) -> Signal:
    """Coerce an array or Signal into a Signal."""
    if isinstance(x, Signal):
        return x
    return Signal(np.asarray(x, dtype=float), sample_rate)


def dft(x) -> Spectrum:
    """Discrete Fourier transform with 1/N on the forward sum.

    Parameters
    ----------
    x : array_like
        Real or complex sequence of length >= 1.  Arbitrary (including
        prime) lengths are supported in O(N log N).

    Returns
    -------
    Spectrum
        bins[k] = (1/N) sum_n x[n] exp(-j 2 pi k n / N).
    """
    if isinstance(x, Signal):
        arr = x.samples
        rate = x.sample_rate
    else:
        arr = np.asarray(x)
        rate = 1.0
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("dft input must be a non-empty 1-D sequence")
    bins = np.fft.fft(arr) / arr.size
    return Spectrum(bins, "dft", rate)


def idft(spectrum: Spectrum) -> np.ndarray:
    """Inverse of :func:`dft`: the bare exponential sum of the bins."""
    if spectrum.origin != "dft":
        raise ValueError(f"idft expects a dft spectrum, got {spectrum.origin!r}")
    return np.fft.ifft(spectrum.bins) * spectrum.bins.size


def dct2_forward(signal) -> Spectrum:
    """Orthonormal DCT-2.

    X[k] = sqrt(2/N) sigma_k sum_n x[n] cos(pi k (2n+1) / 2N) with
    sigma_0 = 1/sqrt(2) and sigma_k = 1 otherwise, computed in O(N log N).
    """
    sig = as_signal(signal)
    return Spectrum(_dct2(sig.samples), "dct2", sig.sample_rate)


def dct2_inverse(spectrum: Spectrum) -> Signal:
    """Exact inverse of :func:`dct2_forward`."""
    if spectrum.origin != "dct2":
        raise ValueError(f"dct2_inverse expects a dct2 spectrum, got {spectrum.origin!r}")
    return Signal(_dct3_pair(np.asarray(spectrum.bins, dtype=float)), spectrum.sample_rate)


@functools.lru_cache(maxsize=8)
def _dct_twiddles(n: int, forward: bool) -> np.ndarray:
    """The twiddles of :func:`_dct2` (``forward``) or :func:`_dct3_pair`.

    Forward: sqrt(2/N) e^{-j pi k / 2N} on k = 0..N//2; inverse, on the
    sequence folded from the one spectrum: sqrt(1/2N) e^{j pi k / 2N} on
    k = 0..N-1; both sqrt(1/N) at k = 0.  Cached per length and shared by
    every caller, so read-only.  The table is allocated before its temporaries,
    which then free back to the top of the heap instead of leaving a hole below it.
    """
    size, sign, scale = (n // 2 + 1, -1.0, 2.0 / n) if forward else (n, 1.0, 0.5 / n)
    table = np.empty(size, dtype=complex)
    angle = np.arange(size) * (sign * np.pi / (2 * n))
    np.cos(angle, out=table.real)
    np.sin(angle, out=table.imag)
    table *= np.sqrt(scale)
    table[0] = np.sqrt(1.0 / n)
    table.setflags(write=False)
    return table


def _dct2(x: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-2 of real x through one N-point ``rfft``.

    W = rfft(x[0], x[2], ..., x[3], x[1]) times the forward twiddles gives
    X[k] = Re W[k] for k <= N//2 and X[N-k] = -Im W[k].  An overflow leaves
    non-finite bins, without a warning.
    """
    n = x.size
    twiddles = _dct_twiddles(n, True)
    out = np.empty(n)  # before the temporaries, as in _dct_twiddles
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.fft.rfft(np.concatenate((x[::2], x[1::2][::-1])))
        w *= twiddles
    out[:n // 2 + 1] = w.real
    np.negative(w.imag[(n - 1) // 2:0:-1], out=out[n // 2 + 1:])
    return out


def _dct3_pair(c: np.ndarray) -> np.ndarray:
    """y[n] = sqrt(2/N) sum_k sigma_k (a[k] cos t_kn + b[k] sin t_kn), t_kn = pi k (2n+1) / 2N,
    of the one spectrum c = a + jb (a real c gives one DCT-3).

    Since sin t_{N-k,n} = (-1)^n cos t_kn, this is the orthonormal DCT-3 of
    a plus (-1)^n times that of (0, b[N-1], ..., b[1]); b[0] drops out.
    Both ride on one complex sequence d = a + j(0, b[N-1], ..., b[1]),
    whose DCT-3, reordered, is u = N ifft(v) with v[k] = e^{j pi k / 2N}
    (d[k] - j d[N-k]) / 2 and v[0] = d[0], the weights folded into the
    twiddles.  u holds the even outputs first and the odd ones reversed:
    y[2m] = Re u[m] + Im u[m] and y[2m+1] = Re u[N-1-m] - Im u[N-1-m].  An
    overflow leaves non-finite samples, without a warning.
    """
    a, b = c.real, c.imag
    n = c.size
    half = (n + 1) // 2
    twiddles = _dct_twiddles(n, False)
    out = np.empty(n)  # before the temporaries, as in _dct_twiddles
    with np.errstate(over="ignore", invalid="ignore"):
        v = np.empty(n, dtype=complex)
        np.add(a, b, out=v.real)
        np.subtract(b[:0:-1], a[:0:-1], out=v.imag[1:])
        v[0] = a[0]
        v *= twiddles
        u = np.fft.ifft(v, norm="forward")
        np.add(u.real[:half], u.imag[:half], out=out[::2])
        np.subtract(u.real[:half - 1:-1], u.imag[:half - 1:-1], out=out[1::2])
    return out


def dft2d(image) -> np.ndarray:
    """Separable 2-D DFT with 1/(M N) on the forward transform."""
    pixels = image.pixels if isinstance(image, Image) else np.asarray(image)
    if pixels.ndim != 2 or pixels.size < 1:
        raise ValueError("dft2d input must be a non-empty 2-D grid")
    return np.fft.fft2(pixels) / pixels.size


def idft2d(grid: np.ndarray) -> Image:
    """Inverse 2-D DFT; returns the real part as an Image."""
    grid = np.asarray(grid)
    if grid.ndim != 2 or grid.size < 1:
        raise ValueError("idft2d input must be a non-empty 2-D grid")
    return Image(np.real(np.fft.ifft2(grid)) * grid.size)


def apply_gain(x, gain) -> np.ndarray:
    """Apply a positive-frequency gain to real samples over the trailing axes.

    The transform runs over the last ``max(gain.ndim, 1)`` axes of x: a
    scalar or 1-D gain acts along the last axis, a 2-D gain on the last two.
    Returns irfftn(rfftn(x) * gain) with the gain given on the half spectrum
    rfftn produces (bins 0..N//2 of the last axis, every bin of the others),
    broadcast against the leading axes of x.  In 1-D this equals
    Re(ifft(H X)) for the one-sided multiplier H that is gain on DC, twice
    the gain on bins strictly between DC and Nyquist, gain on the Nyquist bin
    of an even N, and zero on negative frequencies: the inverse real
    transform keeps only the real part of the DC and Nyquist products, which
    is all a real output can carry.  A Hermitian multiplier H on a full
    grid, restricted to that half spectrum, gives Re(ifftn(H X)).

    Raises
    ------
    FloatingPointError
        If the result is not finite (the input spectrum or the gain
        overflowed).
    """
    x = np.asarray(x, dtype=float)
    axes = tuple(range(-max(np.ndim(gain), 1), 0))
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.fft.irfftn(np.fft.rfftn(x, axes=axes) * gain, x.shape[axes[0]:], axes=axes)
    return _require_finite(out, "spectral gain")


def _require_finite(out: np.ndarray, what: str) -> np.ndarray:
    """Return ``out``, or raise FloatingPointError if it is not finite."""
    if not np.all(np.isfinite(out)):
        raise FloatingPointError(f"{what} produced non-finite values")
    return out


def _warn(message: str) -> None:
    """Issue a RuntimeWarning that names the first line outside phasekit:
    the caller's, however deep inside the package the warning starts."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_globals.get("__package__") == __package__:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, RuntimeWarning, stacklevel=level)


def harmonic_series(signal, n_harmonics: int) -> FourierSeriesCoeffs:
    """Leading Fourier-series coefficients of one period of a sampled signal.

    Treats the N samples as one period; harmonics above (N-1)//2 are not
    representable and are rejected.
    """
    sig = as_signal(signal)
    n = len(sig)
    if not 0 <= n_harmonics <= (n - 1) // 2:
        raise ValueError(f"n_harmonics must be in [0, {(n - 1) // 2}] for length {n}")
    bins = np.fft.rfft(sig.samples) / n
    a0 = float(np.real(bins[0]))
    k = np.arange(1, n_harmonics + 1)
    amplitudes = 2.0 * np.abs(bins[k])
    phases = np.angle(bins[k])
    omega0 = 2.0 * np.pi * sig.sample_rate / n
    return FourierSeriesCoeffs(a0, amplitudes, phases, omega0)


def gfr_synthesize(coeffs: FourierSeriesCoeffs, mods: ModulationSpec,
                   n_harmonics: int, t_grid) -> Signal:
    """Evaluate the generalized Fourier representation on a time grid.

    x(t) = a0 c0(t) cos(alpha0(t))
         + sum_{k=1..K} ck(k, t) r_k cos(k w0 t + phi_k - alphak(k, t))

    With identity modulation this is the plain truncated Fourier series;
    amplitude modulation, angle modulation, phase shifting and fractional
    differintegration are all particular choices of the four callbacks.

    Parameters
    ----------
    coeffs : FourierSeriesCoeffs
        Series mean, harmonic amplitudes/phases and fundamental omega0.
    mods : ModulationSpec
        Amplitude/phase modulation callbacks.
    n_harmonics : int
        Number of harmonics K to include (0 <= K <= coeffs.n_harmonics).
    t_grid : array_like
        Uniformly spaced time instants in seconds.

    Raises
    ------
    ValueError
        If a modulation callback returns non-finite values, or the grid is
        not uniformly spaced.
    FloatingPointError
        If a modulation callback or the sum overflows or computes an
        invalid value (both run under ``np.errstate(over="raise",
        invalid="raise")``).
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 1 or not np.all(np.isfinite(t)):
        raise ValueError("t_grid must be a non-empty finite 1-D grid")
    if not 0 <= n_harmonics <= coeffs.n_harmonics:
        raise ValueError(f"n_harmonics must be in [0, {coeffs.n_harmonics}]")
    if t.size > 1:
        steps = np.diff(t)
        if steps[0] <= 0 or not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
            raise ValueError("t_grid must be uniformly increasing")
        sample_rate = 1.0 / steps[0]
    else:
        sample_rate = 1.0

    def _eval(fn, *args):
        out = np.broadcast_to(np.asarray(fn(*args), dtype=float), t.shape)
        if not np.all(np.isfinite(out)):
            raise ValueError("modulation callback returned non-finite values")
        return out

    # an overflow inside a callback or the sum raises instead of warning and
    # passing inf on
    with np.errstate(over="raise", invalid="raise"):
        x = coeffs.a0 * _eval(mods.c0, t) * np.cos(_eval(mods.alpha0, t))
        for k in range(1, n_harmonics + 1):
            r_k = coeffs.amplitudes[k - 1]
            phi_k = coeffs.phases[k - 1]
            c_k = _eval(mods.ck, k, t)
            a_k = _eval(mods.alphak, k, t)
            x = x + c_k * r_k * np.cos(k * coeffs.omega0 * t + phi_k - a_k)
    return Signal(_require_finite(x, "synthesis"), sample_rate)
