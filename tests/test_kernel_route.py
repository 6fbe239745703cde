"""The kernel route: a constant phase or a scalar delay on a length with a
large prime factor runs as one power-of-two convolution with a closed-form
periodic kernel, in the one core of every 1-D phase transform
(phasekit.phase._shift); a per-bin profile on such a length keeps the
N-point gain."""
import warnings

import numpy as np
import pytest

import phasekit as pk
from phasekit.phase import _delay_kernel, _kernel_route, _quadrature_kernel
from oracles import circular_convolve, fcqt_direct, pt_dct_direct, pt_dft_direct

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
    got = pk.pt_dft(x, pk.PhaseProfile.per_bin(alphas)).samples  # the N-point gain
    assert np.max(np.abs(got - pt_dft_direct(x, alphas))) < 1e-12
    hilbert = circular_convolve(x, two_sided_kernel(n, lambda k: -1j * np.sign(k)))
    assert np.max(np.abs(pk.hilbert(x).samples - hilbert)) < 1e-10
    delayed = circular_convolve(x, two_sided_kernel(n, lambda k: np.exp(-2j * np.pi * k * 0.37 / n)))
    assert np.max(np.abs(pk.frac_delay_dft(x, 0.37).samples - delayed)) < 1e-10


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


# each pair: the kernel route, and the same transform through a per-bin
# profile or gain, which keeps the N-point transforms (the direct route)
PRIME_PAIRS = {
    "hilbert": (lambda x: pk.hilbert(x).samples,
                lambda x: pk.spectral.apply_gain(x, np.full(x.size // 2 + 1, -1j))),
    "pt_dft": (lambda x: pk.pt_dft(x, pk.PhaseProfile.constant(2.2)).samples,
               lambda x: pk.pt_dft(x, pk.PhaseProfile.per_bin(np.full(x.size // 2 + 1, 2.2))).samples),
    "frac_delay_dft": (lambda x: pk.frac_delay_dft(x, -2.6).samples,
                       lambda x: pk.frac_delay_dft(x, np.full(x.size // 2, -2.6)).samples),
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
    assert np.max(np.abs(route(x) - direct(x))) <= 1e-13 * max(1.0, np.max(np.abs(x)))


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
    lambda x: pk.pt_sweep(x, [0.5], "dft"), lambda x: pk.pt_sweep(x, [0.5], "dct")])
def test_overflow_is_floating_point_error_without_a_warning(transform):
    x = np.where(np.arange(4099) % 2 == 0, 1e308, -1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="spectral gain"):
            transform(x)
