"""The kernel route: on a length with a large prime factor, a constant phase
or a scalar delay runs as one convolution at a 5-smooth size with a
closed-form periodic kernel, in the one core of every 1-D phase transform
(phasekit.phase._shift); every other DFT-basis gain there (per-bin phases
and delays, frac_differintegrate) is one such convolution with the gain's
own N-point inverse as its kernel; a per-bin DCT-basis profile keeps the
N-point inverse."""
import warnings

import numpy as np
import pytest

import phasekit as pk
from phasekit.phase import _delay_kernel, _fast_size, _kernel_route, _quadrature_kernel
from phasekit.spectral import apply_gain
from oracles import circular_convolve, fcqt_direct, gain_direct, pt_dct_direct, pt_dft_direct

# a prime, a prime whose double-length DCT extension is 2 x prime, and an even
# length 2 x prime: all on the route, small enough for the O(N^2) oracles
ORACLE_LENGTHS = [4099, 8191, 8198]
PRIME_N = 1_000_003


@pytest.mark.parametrize("n, on_route", [
    (2 ** 20, False), (131_072, False), (32_768, False),
    (999_999, False),        # 3^3 7 11 13 37: every factor is small
    (4_093, False),          # a prime below the floor
    (4_099, True), (1_000_003, True),
    (2 * 500_009, True),     # 500,009 is prime and its square exceeds N
])
def test_route_is_chosen_by_the_largest_prime_factor(n, on_route):
    assert _kernel_route(n) is on_route


def test_fast_size_is_the_least_5_smooth_size():
    limit = 40_000
    smooth = np.zeros(limit + 1, dtype=bool)
    smooth[1] = True
    for m in range(2, limit + 1):  # m is 5-smooth when m / p is, p its least factor in 2, 3, 5
        smooth[m] = any(m % p == 0 and smooth[m // p] for p in (2, 3, 5))
    least = np.where(smooth, np.arange(limit + 1), 0)
    for m in range(limit - 1, 0, -1):
        least[m] = least[m] or least[m + 1]
    assert [_fast_size(n) for n in range(1, 20_001)] == list(least[1:20_001])
    # the convolution sizes of 65,537 and 1,000,003 samples, 2N - 1 rounded up
    assert _fast_size(2 * 65_537 - 1) == 131_220 == 2 ** 2 * 3 ** 8 * 5
    assert _fast_size(2 * PRIME_N - 1) == 2_025_000 == 2 ** 3 * 3 ** 4 * 5 ** 5


@pytest.mark.parametrize("period", range(1, 65))
def test_quadrature_kernel_is_the_inverse_transform_of_its_gain(period):
    gain = np.full(period // 2 + 1, -1j)
    gain[0] = 0.0
    if period % 2 == 0:
        gain[-1] = 0.0
    want = np.fft.irfft(gain, period) if period > 1 else np.zeros(1)
    assert np.max(np.abs(_quadrature_kernel(period) - want)) < 1e-15


@pytest.mark.parametrize("period", range(1, 65))
def test_delay_kernel_is_the_inverse_transform_of_its_gain(period):
    k = np.arange(period // 2 + 1)
    for delay in (0.37, -2.6, 3.0, period + 0.5):
        want = np.fft.irfft(np.exp(-2j * np.pi * k * delay / period), period)
        assert np.max(np.abs(_delay_kernel(period, delay) - want)) < 1e-14, delay


def test_an_integer_delay_kernel_is_a_unit_impulse():
    for period, delay, peak in ((7, 3.0, 3), (8, -2.0, 6), (8198, 8200.0, 2)):
        want = np.zeros(period)
        want[peak] = 1.0
        assert np.array_equal(_delay_kernel(period, delay), want)


def two_sided_kernel(n, gain_of_frequency):
    """The circular kernel of a gain given on the signed bin frequencies, the
    even length's Nyquist bin taking the real part: an N-point inverse FFT,
    not the route's closed form."""
    k = np.fft.fftfreq(n, d=1.0 / n)
    gain = gain_of_frequency(k)
    if n % 2 == 0:
        gain[n // 2] = gain[n // 2].real
    kernel = np.fft.ifft(gain)
    assert np.max(np.abs(kernel.imag)) < 1e-12
    return kernel.real


@pytest.mark.parametrize("n", ORACLE_LENGTHS)
def test_dft_basis_against_the_oracles(n):
    x = np.random.default_rng(n).standard_normal(n)
    got = pk.pt_dft(x, pk.PhaseProfile.constant(0.9)).samples
    assert np.max(np.abs(got - pt_dft_direct(x, 0.9))) < 1e-12
    alphas = np.random.default_rng(n + 3).uniform(-np.pi, np.pi, n // 2 + 1)
    got = pk.pt_dft(x, pk.PhaseProfile.per_bin(alphas)).samples  # the gain's own kernel
    assert np.max(np.abs(got - pt_dft_direct(x, alphas))) < 1e-12
    hilbert = circular_convolve(x, two_sided_kernel(n, lambda k: -1j * np.sign(k)))
    assert np.max(np.abs(pk.hilbert(x).samples - hilbert)) < 1e-10
    delayed = circular_convolve(x, two_sided_kernel(n, lambda k: np.exp(-2j * np.pi * k * 0.37 / n)))
    assert np.max(np.abs(pk.frac_delay_dft(x, 0.37).samples - delayed)) < 1e-10


ORDERS = (0.37, -0.6, 1.0, 2.5, -1.0)


def differintegration_gain(n, mu, rate):
    """(2 pi k rate / N)^mu e^{j mu pi / 2} on bins 1..N//2, 0 on DC."""
    gain = np.zeros(n // 2 + 1, dtype=complex)
    gain[1:] = (2 * np.pi * np.arange(1, n // 2 + 1) * rate / n) ** mu * np.exp(0.5j * np.pi * mu)
    return gain


@pytest.mark.parametrize("n", ORACLE_LENGTHS)
def test_dft_gains_against_the_oracle(n):
    # per-bin delays and the differintegration (physical, at 8 kHz), each one
    # convolution with its gain's own kernel
    x = np.random.default_rng(n + 5).standard_normal(n)
    delays = np.random.default_rng(n + 6).uniform(-3, 3, n // 2)
    ramp = np.exp(-2j * np.pi * np.arange(n // 2 + 1) * np.append(0.0, delays) / n)
    gains = [ramp] + [differintegration_gain(n, mu, 8000.0) for mu in ORDERS]
    got = [pk.frac_delay_dft(x, delays)] + [
        pk.frac_differintegrate(pk.Signal(x, 8000.0), mu, include_dc_term=False) for mu in ORDERS]
    for out, want in zip(got, gain_direct(x, np.stack(gains, axis=1)).T):
        assert np.max(np.abs(out.samples - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n", ORACLE_LENGTHS)
def test_dct_basis_against_the_oracles(n):
    x = np.random.default_rng(n + 1).standard_normal(n)
    assert np.max(np.abs(pk.fcqt(x).samples - fcqt_direct(x))) < 1e-9
    got = pk.pt_dct(x, pk.PhaseProfile.constant(0.9)).samples
    assert np.max(np.abs(got - pt_dct_direct(x, np.full(n, 0.9)))) < 1e-10
    alphas = np.random.default_rng(n + 4).uniform(-np.pi, np.pi, n)
    got = pk.pt_dct(x, pk.PhaseProfile.per_bin(alphas)).samples  # the N-point gain
    assert np.max(np.abs(got - pt_dct_direct(x, alphas))) < 1e-10
    ramp = np.pi * np.arange(n) * 0.37 / n
    assert np.max(np.abs(pk.frac_delay_dct(x, 0.37).samples - pt_dct_direct(x, ramp))) < 1e-10


@pytest.fixture(scope="module")
def prime_record():
    return np.random.default_rng(PRIME_N).standard_normal(PRIME_N) * 1e3


def bins(x):
    return np.arange(x.size // 2 + 1)


# each pair: the kernel route, and the same transform through the N-point
# transforms (the direct route): apply_gain with the gain on the DFT basis, a
# per-bin profile on the DCT basis
PRIME_PAIRS = {
    "hilbert": (lambda x: pk.hilbert(x).samples,
                lambda x: apply_gain(x, np.full(x.size // 2 + 1, -1j))),
    "pt_dft": (lambda x: pk.pt_dft(x, pk.PhaseProfile.constant(2.2)).samples,
               lambda x: apply_gain(x, np.full(x.size // 2 + 1, np.exp(-2.2j)))),
    "pt_dft per-bin": (lambda x: pk.pt_dft(x, pk.PhaseProfile.per_bin(0.1 * np.sqrt(bins(x)))).samples,
                       lambda x: apply_gain(x, np.exp(-0.1j * np.sqrt(bins(x))))),
    "frac_delay_dft": (lambda x: pk.frac_delay_dft(x, -2.6).samples,
                       lambda x: apply_gain(x, np.exp(2j * np.pi * bins(x) * 2.6 / x.size))),
    "frac_differintegrate": (
        lambda x: pk.frac_differintegrate(pk.Signal(x, 8000.0), 0.37, include_dc_term=False).samples,
        lambda x: apply_gain(x, differintegration_gain(x.size, 0.37, 8000.0))),
    "fcqt": (lambda x: pk.fcqt(x).samples,
             lambda x: pk.pt_dct(x, pk.PhaseProfile.per_bin(np.full(x.size, np.pi / 2))).samples),
    "pt_dct": (lambda x: pk.pt_dct(x, pk.PhaseProfile.constant(2.2)).samples,
               lambda x: pk.pt_dct(x, pk.PhaseProfile.per_bin(np.full(x.size, 2.2))).samples),
    "frac_delay_dct": (lambda x: pk.frac_delay_dct(x, 3.7).samples,
                       lambda x: pk.pt_dct(x, pk.PhaseProfile.per_bin(
                           np.pi * np.arange(x.size) * 3.7 / x.size)).samples),
}


@pytest.mark.parametrize("name", PRIME_PAIRS)
def test_matches_the_direct_route_on_a_prime_record(prime_record, name):
    route, direct = PRIME_PAIRS[name]
    x = prime_record
    want = direct(x)
    # a phase transform (|gain| = 1) is bounded against its input, the
    # differintegration against its output
    scale = np.max(np.abs(want)) if name == "frac_differintegrate" else max(1.0, np.max(np.abs(x)))
    assert np.max(np.abs(route(x) - want)) <= 1e-13 * scale


@pytest.mark.parametrize("n", [4099, 8198])
def test_integer_delays_are_exact_shifts(n):
    x = np.random.default_rng(n + 2).standard_normal(n)
    for delay in (3, -5, n + 1):
        assert np.max(np.abs(pk.frac_delay_dft(x, float(delay)).samples - np.roll(x, delay))) < 1e-10
        mirrored = np.roll(np.concatenate((x, x[::-1])), delay)[:n]
        assert np.max(np.abs(pk.frac_delay_dct(x, float(delay)).samples - mirrored)) < 1e-10


@pytest.mark.parametrize("transform", [
    pk.hilbert, pk.analytic_signal, pk.fcqt,
    lambda x: pk.pt_dft(x, pk.PhaseProfile.constant(0.5)),
    lambda x: pk.pt_dct(x, pk.PhaseProfile.constant(0.5)),
    lambda x: pk.frac_delay_dft(x, 0.5), lambda x: pk.frac_delay_dct(x, 0.5),
    lambda x: pk.pt_sweep(x, [0.5], "dft"), lambda x: pk.pt_sweep(x, [0.5], "dct"),
    lambda x: pk.pt_dft(x, pk.PhaseProfile.per_bin(np.full(x.size // 2 + 1, 0.5))),
    lambda x: pk.frac_differintegrate(x, 0.5)])
def test_overflow_is_floating_point_error_without_a_warning(transform):
    x = np.where(np.arange(4099) % 2 == 0, 1e308, -1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="spectral gain"):
            transform(x)
