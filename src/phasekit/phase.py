"""Arbitrary-phase shifting of real signals.

A phase transform (PT) applies a phase shift -alpha to the positive
frequencies of a signal and +alpha to the negative ones; the Hilbert
transform is the alpha = pi/2 case.  Two spectral routes are provided: the
DFT route (N-periodic extension) and the DCT-2 route (2N-periodic symmetric
extension), which differ whenever those extensions disagree.

Every 1-D phase transform, the Hilbert transform, the analytic signal, the
cosine quadrature and the fractional delays included, is one call into one
core, :func:`_shift`, the one place that decides how a profile runs; the
fractional differintegration passes it its gain the same way.  On the
N-point DFT route a constant profile equals its per-bin equivalent bit for
bit.  On the N-point DCT route a constant profile is, by linearity,
cos(alpha) x + sin(alpha) q with the quadrature q resynthesized by one real
``irfft``, and agrees with the per-bin profile to round-off.  On a length
with a large prime factor (see :func:`_kernel_route`), where numpy.fft runs
Bluestein's chirp-z, a constant or scalar-delay profile is one real
convolution at a 5-smooth size (:func:`_periodic_convolve`) with the discrete
Hilbert kernel or the periodic sinc, and every other DFT-basis gain one with
the gain's N-point inverse as its kernel: one Bluestein, not two.  Both
agree with the N-point gain to round-off; a per-bin DCT profile keeps the
N-point route.  Both routes reduce a delay exactly into its period with
:func:`_reduce`.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .spectral import Signal, _dct2, _dct3, _dct3_pair, _require_finite, apply_gain, as_signal


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
        n_bins, period = _basis(n, basis)
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
        return 2.0 * np.pi * np.arange(n_bins) / period * _reduce(delays, period)


def _basis(n: int, basis: str) -> tuple[int, int]:
    """The non-negative bins of an N-point transform on ``basis`` and the
    period L of its extension: N//2 + 1 bins and L = N for "dft", N bins and
    L = 2N (the extension [x, x reversed]) for "dct"."""
    if basis == "dft":
        return n // 2 + 1, n
    if basis == "dct":
        return n, 2 * n
    raise ValueError(f"unknown basis {basis!r}")


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
    """Whether a DFT-basis gain, or a constant phase or scalar delay on either
    basis, runs on N samples as one convolution instead of an N-point pair.

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


def _fast_size(n: int) -> int:
    """The least 2^a 3^b 5^c >= n: pocketfft runs it faster than the next power of two."""
    bits = n.bit_length()  # 3^b 5^c < 2n needs b, c < bits; times the least 2^a that reaches n
    return min(odd << ((n - 1) // odd).bit_length()
               for odd in (3 ** b * 5 ** c for b in range(bits) for c in range(bits)))


def _periodic_convolve(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """y[n] = sum_q x[q] kernel[(n - q) mod L] for n < N, with L = N or 2N;
    for L = 2N, x continues as x reversed, which adds sum_q x[q] kernel[n + q + 1].

    One real convolution at the 5-smooth size M >= 2N - 1 (:func:`_fast_size`):
    the kernel's lags -(N-1)..N-1 wrapped onto M points (Toeplitz), plus for
    L = 2N the correlation with kernel[1:] (Hankel), which reuses x's spectrum
    conjugated.  Each M-point temporary is dropped before the next transform
    allocates, which bounds the peak at about four of them.
    """
    n, period = x.size, kernel.size
    size = _fast_size(2 * n - 1)
    wrapped = np.zeros(size)
    wrapped[:n] = kernel[:n]
    wrapped[size - n + 1:] = kernel[period - n + 1:]
    spectrum = np.fft.rfft(x, size)
    out = np.fft.rfft(wrapped)
    del wrapped
    out *= spectrum
    if period == 2 * n:
        hankel = np.fft.rfft(kernel[1:], size)
        np.conjugate(spectrum, out=spectrum)
        hankel *= spectrum
        out += hankel
        del hankel
    del spectrum
    return np.fft.irfft(out, size)[:n]


def _quadrature_kernel(period: int) -> np.ndarray:
    """h[m], m = 0..L-1: the circular kernel of the gain -j on bins
    1..ceil(L/2)-1 (and +j on their negatives, 0 at DC and Nyquist).

    h[m] = (2/L) cot(pi m / L) for odd m and 0 for even m when L is even;
    (1/L) cot(pi m / 2L) for odd m and -(1/L) tan(pi m / 2L) for even m when
    L is odd (Kak 1970, "The discrete Hilbert transform").  It is evaluated on
    0 < m < L/2 only, where the argument stays at most pi/2, and mirrored with
    h[L - m] = -h[m]: near pi the cotangent would lose about log10 L digits.
    """
    kernel = np.zeros(period)
    half = (period - 1) // 2  # the lags 0 < m < L/2
    if period % 2 == 0:
        kernel[1:half + 1:2] = (2.0 / period) / np.tan(np.arange(1, half + 1, 2) * (np.pi / period))
    else:
        t = np.tan(np.arange(1, half + 1) * (np.pi / (2 * period)))
        kernel[1:half + 1:2] = 1.0 / (period * t[::2])
        kernel[2:half + 1:2] = -t[1::2] / period
    kernel[:period - half - 1:-1] = -kernel[1:half + 1]
    return kernel


def _delay_kernel(period: int, delay: float) -> np.ndarray:
    """s[m], m = 0..L-1: the circular kernel of the delay d, the periodic sinc

    s[m] = sin(pi u) / (L sin(pi u / L)) for odd L and
    sin(pi u) / (L tan(pi u / L)) for even L, u = m - d,

    the kernel of the gain e^{-j 2 pi k d / L} on bins 0..L//2, with
    cos(pi d) on the Nyquist bin of an even L.  (On the DCT basis, L = 2N,
    the symmetric extension has no Nyquist content, so that bin's gain does
    not matter.)  Both forms are L-periodic in u, so with d = k + r, k an
    integer and |r| <= 1/2, the kernel is evaluated at the lags
    u = j - r, j in (-L/2, L/2], and rotated by k; its numerator is
    -(-1)^j sin(pi r), never a sine of a large argument.  An integer delay
    (r = 0) is the limit 1 at u = 0 and 0 elsewhere: an exact shift.
    It is exact for any finite d; its caller passes d reduced into [-L/2, L/2].
    """
    shift = round(float(delay))
    frac = delay - shift
    first = period // 2 + 1 - period  # the lowest lag j
    if frac == 0:
        kernel = np.zeros(period)
        kernel[0] = 1.0
        return np.roll(kernel, shift)
    kernel = np.arange(first, period + first, dtype=float)
    kernel -= frac
    kernel *= np.pi / period
    (np.tan if period % 2 == 0 else np.sin)(kernel, out=kernel)
    kernel *= period
    np.divide(np.sin(np.pi * frac), kernel, out=kernel)
    kernel[first % 2::2] *= -1.0  # the even lags j
    return np.roll(kernel, shift + first)


def _shift(signal, basis: str, profile=None) -> Signal:
    """The one core of every 1-D phase transform: the gain
    e^{-j alpha_k} = cos alpha_k - j sin alpha_k on the positive frequencies
    of ``signal`` on ``basis`` "dft" or "dct", every route reading the one
    complex array pair = cos alpha_k + j sin alpha_k, exactly 1j for ``profile=None``.
    On the DFT basis ``profile`` may be a builder ``pair(N)`` of any gain's
    conjugate on bins 0..N//2 (the differintegration's): called here, it leaves
    the only reference to the pair here, so the kernel route can free it.

    On a length that :func:`_kernel_route` selects, a scalar profile (a
    constant, the quadrature or a scalar delay) is one convolution with a
    closed-form kernel of period L = N (DFT) or 2N (DCT, the extension
    [x, x reversed]): cos x + sin (h_L * x) with the discrete Hilbert kernel,
    which is zero on DC and Nyquist as the N-point route's quadrature is, or
    the periodic sinc of the delay as :func:`_reduce` leaves it, as on the
    N-point route.  Every other profile takes the gain conj(pair): on the DFT
    basis through ``apply_gain``, or on a route length as one convolution with
    its kernel irfft(conj(pair), N), which replaces the gain before the
    convolution allocates.  On the DCT basis a scalar
    pair (a constant or the quadrature) is cos x + sin q, q the DCT-2 bins X
    resynthesized on the sine basis by one ``irfft`` (:func:`_dct3`); a
    per-bin pair (per-bin phases or a delay) resynthesizes X pair in one
    complex inverse, X cos on the cosine basis and X sin on the sine.  A
    non-finite result raises FloatingPointError.
    """
    sig = as_signal(signal)
    x, n = sig.samples, len(sig)
    period = _basis(n, basis)[1]
    kernel_route = _kernel_route(n)
    route = kernel_route and (profile is None or (
        not callable(profile) and profile.kind != "per_bin" and np.size(profile.value) == 1))
    if profile is None:
        pair = np.array(1j)
    elif callable(profile):
        pair = profile(n)
    elif not (route and profile.kind == "delay"):
        alphas = profile.bin_phases(n, basis)
        pair = np.empty(np.shape(alphas), dtype=complex)
        np.cos(alphas, out=pair.real)
        np.sin(alphas, out=pair.imag)
        del alphas
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result raises below
        if route and profile is not None and profile.kind == "delay":
            out = _periodic_convolve(x, _delay_kernel(period, _reduce(profile.value[0], period)))
        elif route or (basis == "dct" and pair.ndim == 0):
            quadrature = (_periodic_convolve(x, _quadrature_kernel(period)) if route
                          else _dct3(_dct2(x), sine=True))
            out = pair.real * x + pair.imag * quadrature
        elif basis == "dft":
            np.conjugate(pair, out=pair)
            if not kernel_route:
                return Signal(apply_gain(x, pair), sig.sample_rate)  # checks its own result
            pair = np.fft.irfft(pair, n)  # rebound: the gain is freed before the convolution
            out = _periodic_convolve(x, pair)
        else:
            pair = _dct2(x) * pair  # rebound: the phases' pair is freed before the inverse
            out = _dct3_pair(pair)
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
    (zero-mean output), the imaginary part of :func:`analytic_signal`."""
    return _shift(signal, "dft")


def analytic_signal(signal) -> np.ndarray:
    """Analytic signal z with Re(z) = x and one-sided spectrum.

    Im(z) is the Hilbert transform of x (the -j gain on positive
    frequencies), so the DC and Nyquist components stay on the real part.
    """
    sig = as_signal(signal)
    return sig.samples + 1j * _shift(sig, "dft").samples


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
    sine basis in one inverse transform.  A constant profile is computed as
    cos(alpha) x + sin(alpha) fcqt(x), which equals its per-bin equivalent
    to round-off (see the module docstring); the DC term is carried entirely
    by the cosine branch since the k = 0 sine basis vector is identically
    zero.

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
    quadrature = _shift(sig, basis).samples
    out = np.empty((alphas.size, quadrature.size))
    for cos, sin, row in zip(np.cos(alphas), np.sin(alphas), out):
        np.multiply(cos, sig.samples, out=row)
        row += sin * quadrature
    return _require_finite(out, "phase sweep")
