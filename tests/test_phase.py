"""Tests for the DFT- and DCT-based phase transforms."""
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

import phasekit as pk
from phasekit.phase import _quadrature_kernel
from phasekit.repro import example1_signal, example2_signal
from oracles import (circular_convolve, fcqt_direct, pt_dct_direct, pt_dft_direct,
                     zero_mean_zero_nyquist)

# every DCT-basis length from 1 to 16
SMALL_LENGTHS = list(range(1, 17))
# lengths for the DCT route: 1 and 2 (no odd or no mirrored bins), primes,
# both parities around 1000 and a prime past 4096
MAKHOUL_LENGTHS = [1, 2, 3, 7, 8, 101, 1000, 1001, 4099]
# against scipy.fft on standard-normal input: about 45 ulp of 1.0
SCIPY_BOUND = 1e-14


def scipy_pt_dct(x, alphas):
    """The DCT route on scipy.fft: idct(X cos alpha) + idst(X[1:] sin alpha[1:], 0)."""
    bins = scipy.fft.dct(x, norm="ortho")
    sine = np.append((bins * np.sin(alphas))[1:], 0.0)
    return scipy.fft.idct(bins * np.cos(alphas), norm="ortho") + scipy.fft.idst(sine, norm="ortho")


def random_clean_signal(rng, n):
    return zero_mean_zero_nyquist(rng.standard_normal(n))


class TestPtKernel:
    def test_zero_phase_is_unit_impulse(self):
        kernel = pk.pt_kernel(0.0, 8).samples
        assert kernel[0] == pytest.approx(1.0)
        assert np.max(np.abs(kernel[1:])) == 0.0

    def test_quadrature_kernel_values(self):
        kernel = pk.pt_kernel(np.pi / 2, 4).samples
        assert kernel[1] == pytest.approx(2.0 / np.pi, abs=1e-15)
        assert kernel[2] == pytest.approx(0.0, abs=1e-15)
        assert kernel[3] == pytest.approx(2.0 / (3.0 * np.pi), abs=1e-15)

    def test_pi_phase_negates_impulse(self):
        kernel = pk.pt_kernel(np.pi, 8).samples
        assert kernel[0] == pytest.approx(-1.0)
        assert np.max(np.abs(kernel[1:])) < 1e-15

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            pk.pt_kernel(0.3, 0)
        with pytest.raises(ValueError, match="integer"):
            pk.pt_kernel(0.3, 4.5)

    @pytest.mark.parametrize("alpha", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_phase_without_a_warning(self, alpha):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="phase must be finite"):
                pk.pt_kernel(alpha, 4)

    @pytest.mark.parametrize("period", [2 ** 10, 2 ** 14 + 1, 2 ** 18])
    def test_is_the_limit_of_the_periodic_quadrature_kernel(self, period):
        # (2/L) cot(pi m / L) = 2 / (pi m) - 2 pi m / (3 L^2) + ... for odd m,
        # and the odd-L form converges alike
        limit = pk.pt_kernel(np.pi / 2, 16).samples
        periodic = _quadrature_kernel(period)[:16]
        assert np.max(np.abs(periodic - limit)) < 64 / period ** 2


class TestPtDft:
    def test_quarter_turn_of_sine_is_negated_cosine(self):
        n = 64
        theta = 2 * np.pi * np.arange(n) / n
        out = pk.pt_dft(np.sin(theta), pk.PhaseProfile.constant(np.pi / 2))
        assert np.max(np.abs(out.samples + np.cos(theta))) < 1e-10

    def test_constant_scales_by_cos_alpha(self):
        for alpha in (0.0, 0.4, np.pi / 2, 2.2):
            out = pk.pt_dft(np.full(10, 1.7), pk.PhaseProfile.constant(alpha))
            assert np.allclose(out.samples, 1.7 * np.cos(alpha), atol=1e-12)

    def test_gaussian_sweep_closes_at_two_pi(self):
        sig = example1_signal()
        closed = pk.pt_dft(sig, pk.PhaseProfile.constant(2 * np.pi))
        assert np.max(np.abs(closed.samples - sig.samples)) < 1e-9

    def test_per_bin_profile_length_mismatch(self):
        with pytest.raises(ValueError):
            pk.pt_dft(np.ones(8), pk.PhaseProfile.per_bin(np.zeros(3)))

    @pytest.mark.parametrize("call, message", [
        (lambda: pk.PhaseProfile("ramp", 1.0), "unknown profile kind 'ramp'"),
        (lambda: pk.PhaseProfile.constant(0.5).bin_phases(8, "dst"), "unknown basis 'dst'")],
        ids=["kind", "basis"])
    def test_rejects_unknown_kind_or_basis(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_per_bin_profile_matches_constant(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(32)
        a = pk.pt_dft(x, pk.PhaseProfile.constant(0.7)).samples
        b = pk.pt_dft(x, pk.PhaseProfile.per_bin(np.full(17, 0.7))).samples
        assert np.max(np.abs(a - b)) < 1e-14


CONSTANT_CASES = [(n, alpha) for n in (1, 2, 3, 8, 101, 1000, 1001)
                  for alpha in (0.0, 0.3, np.pi / 2, 2.0, np.pi, 5.9)]


@pytest.mark.parametrize("n, alpha", CONSTANT_CASES)
@pytest.mark.parametrize("transform, n_bins", [(pk.pt_dft, lambda n: n // 2 + 1),
                                               (pk.pt_dct, lambda n: n)])
def test_constant_profile_equals_per_bin_bit_for_bit(transform, n_bins, n, alpha):
    # on the DFT basis a constant is one scalar gain, broadcast over the
    # bins; on the DCT basis it is cos(alpha) x + sin(alpha) fcqt(x), bit for
    # bit, which meets the per-bin profile to round-off
    x = np.random.default_rng(n).standard_normal(n)
    got = transform(x, pk.PhaseProfile.constant(alpha)).samples
    want = transform(x, pk.PhaseProfile.per_bin(np.full(n_bins(n), alpha))).samples
    if transform is pk.pt_dct:
        assert np.max(np.abs(got - want)) < 1e-12
        want = np.cos(alpha) * x + np.sin(alpha) * pk.fcqt(x).samples
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_constant_bin_phases_is_the_float():
    for basis in ("dft", "dct"):
        phase = pk.PhaseProfile.constant(0.7).bin_phases(16, basis)
        assert type(phase) is float and phase == 0.7


class TestHilbert:
    def test_cosine_to_sine(self):
        n = 128
        theta = 2 * np.pi * 5 * np.arange(n) / n
        out = pk.hilbert(np.cos(theta))
        assert np.max(np.abs(out.samples - np.sin(theta))) < 1e-10

    def test_constant_maps_to_zero(self):
        # the real FFT of a constant of this length has exactly zero bins
        # past DC, so only the gain at DC is left: exactly -j, not cos(pi/2)
        x = np.full(9, 4.2)
        assert np.all(np.fft.rfft(x)[1:] == 0)
        assert np.all(pk.hilbert(x).samples == 0)

    @pytest.mark.parametrize("n", [1, 2, 9, 64, 101, 4099])  # 4099: the kernel route
    def test_equals_analytic_signal_imag_bit_for_bit(self, n):
        x = np.random.default_rng(n).standard_normal(n)
        assert np.array_equal(pk.hilbert(x).samples, pk.analytic_signal(x).imag)

    def test_output_is_orthogonal_to_input(self):
        rng = np.random.default_rng(1)
        for n in (64, 101):
            x = rng.standard_normal(n)
            assert abs(np.dot(x, pk.hilbert(x).samples)) < 1e-9

    def test_matches_circular_kernel_convolution(self):
        # spectral path == convolution with the periodized kernel, i.e. the
        # idft of the two-sided Hilbert mask -j sign(k), built here from the
        # signed bin frequencies rather than from the library's gain
        rng = np.random.default_rng(2)
        n = 24
        x = rng.standard_normal(n)
        k = np.fft.fftfreq(n, d=1.0 / n)  # signed integer frequencies
        two_sided = -1j * np.sign(k)
        two_sided[k == -(n // 2)] = 0.0  # the even-length Nyquist bin is real
        kernel = np.fft.ifft(two_sided)
        assert np.max(np.abs(kernel.imag)) < 1e-12
        conv = circular_convolve(x, kernel.real)
        assert np.max(np.abs(conv - pk.hilbert(x).samples)) < 1e-10


class TestFcqt:
    def test_constant_maps_to_zero(self):
        out = pk.fcqt(np.full(12, 2.5))
        assert np.max(np.abs(out.samples)) < 1e-12

    def test_single_cosine_basis_maps_to_sine_basis(self):
        n, k0 = 40, 6
        grid = np.arange(n)
        x = np.cos(np.pi * k0 * (2 * grid + 1) / (2 * n))
        want = np.sin(np.pi * k0 * (2 * grid + 1) / (2 * n))
        assert np.max(np.abs(pk.fcqt(x).samples - want)) < 1e-10

    @pytest.mark.parametrize("n", [*SMALL_LENGTHS, 17, 128, 511])
    def test_matches_direct_summation(self, n):
        rng = np.random.default_rng(n + 7)
        x = rng.standard_normal(n)
        assert np.max(np.abs(pk.fcqt(x).samples - fcqt_direct(x))) < 1e-9


class TestPtDct:
    def test_zero_phase_is_identity(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(50)
        out = pk.pt_dct(x, pk.PhaseProfile.constant(0.0))
        assert np.max(np.abs(out.samples - x)) < 1e-10

    def test_constant_alpha_identity_on_zero_mean_input(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(64)
        x -= x.mean()
        for alpha in (0.3, np.pi / 2, 4.0):
            direct = pk.pt_dct(x, pk.PhaseProfile.constant(alpha)).samples
            split = np.cos(alpha) * x + np.sin(alpha) * pk.fcqt(x).samples
            assert np.max(np.abs(direct - split)) < 1e-12

    def test_matches_direct_summation_with_per_bin_profile(self):
        rng = np.random.default_rng(5)
        n = 33
        x = rng.standard_normal(n)
        alphas = rng.uniform(0, 2 * np.pi, n)
        out = pk.pt_dct(x, pk.PhaseProfile.per_bin(alphas))
        assert np.max(np.abs(out.samples - pt_dct_direct(x, alphas))) < 1e-10

    @pytest.mark.parametrize("n", SMALL_LENGTHS)
    def test_matches_direct_summation_on_small_lengths(self, n):
        rng = np.random.default_rng(n + 100)
        x = rng.standard_normal(n)
        alphas = rng.uniform(0, 2 * np.pi, n)
        out = pk.pt_dct(x, pk.PhaseProfile.per_bin(alphas)).samples
        assert np.max(np.abs(out - pt_dct_direct(x, alphas))) < 1e-12
        delayed = pk.pt_dct(x, pk.PhaseProfile.delay(0.37)).samples
        ramp = np.pi * np.arange(n) * 0.37 / n
        assert np.max(np.abs(delayed - pt_dct_direct(x, ramp))) < 1e-12

    def test_gaussian_family_matches_dft_family(self):
        sig = example1_signal()
        for alpha in (np.pi / 4, np.pi / 2, 1.3 * np.pi):
            a = pk.pt_dft(sig, pk.PhaseProfile.constant(alpha)).samples
            b = pk.pt_dct(sig, pk.PhaseProfile.constant(alpha)).samples
            assert np.max(np.abs(a - b)) < 1e-8

    def test_sine_families_differ(self):
        sig = example2_signal()
        gap = 0.0
        for alpha in np.arange(21) * np.pi / 10:
            a = pk.pt_dft(sig, pk.PhaseProfile.constant(alpha)).samples
            b = pk.pt_dct(sig, pk.PhaseProfile.constant(alpha)).samples
            gap = max(gap, float(np.max(np.abs(a - b))))
        assert gap > 0.1


    @pytest.mark.parametrize("transform", [
        lambda x: pk.pt_dct(x, pk.PhaseProfile.constant(0.5)), pk.fcqt,
        lambda x: pk.pt_sweep(x, [0.5], "dct"),
        lambda x: pk.pt_dct(x, pk.PhaseProfile.per_bin(np.linspace(0.0, 3.0, 64))),
        lambda x: pk.frac_delay_dct(x, 0.5)])
    def test_overflowing_spectrum_is_floating_point_error(self, transform):
        # the same error as the DFT route's spectral.apply_gain, and no numpy
        # warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="spectral gain"):
                transform(np.where(np.arange(64) % 2 == 0, 1e308, -1e308))


class TestDctRouteOracles:
    @pytest.mark.parametrize("n", MAKHOUL_LENGTHS)
    def test_fcqt(self, n):
        x = np.random.default_rng(n + 11).standard_normal(n)
        got = pk.fcqt(x).samples
        bins = scipy.fft.dct(x, norm="ortho")
        assert np.max(np.abs(got - fcqt_direct(x))) < 1e-9
        assert np.max(np.abs(got - scipy.fft.idst(np.append(bins[1:], 0.0), norm="ortho"))) \
            < SCIPY_BOUND

    @pytest.mark.parametrize("kind", ["constant", "per_bin", "delay"])
    @pytest.mark.parametrize("n", MAKHOUL_LENGTHS)
    def test_pt_dct(self, n, kind):
        rng = np.random.default_rng(n + 13)
        x = rng.standard_normal(n)
        alphas = {"constant": np.full(n, 0.9), "per_bin": rng.uniform(0, 2 * np.pi, n),
                  "delay": np.pi * np.arange(n) * 0.37 / n}[kind]
        profile = {"constant": pk.PhaseProfile.constant(0.9),
                   "per_bin": pk.PhaseProfile.per_bin(alphas),
                   "delay": pk.PhaseProfile.delay(0.37)}[kind]
        got = pk.pt_dct(x, profile).samples
        assert np.max(np.abs(got - pt_dct_direct(x, alphas))) < 1e-10
        assert np.max(np.abs(got - scipy_pt_dct(x, profile.bin_phases(n, "dct")))) < SCIPY_BOUND


class TestPtSweep:
    @pytest.mark.parametrize("n", [1, 2, 7, 64, 101])
    def test_matches_direct_summation_on_both_bases(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        alphas = np.arange(41) * np.pi / 20
        dft = pk.pt_sweep(x, alphas, "dft")
        dct = pk.pt_sweep(x, alphas, "dct")
        assert dft.shape == dct.shape == (41, n)
        for alpha, a, b in zip(alphas, dft, dct):
            assert np.max(np.abs(a - pt_dft_direct(x, alpha))) < 1e-12
            assert np.max(np.abs(b - pt_dct_direct(x, np.full(n, alpha)))) < 1e-12

    @pytest.mark.parametrize("basis, transform", [("dft", pk.pt_dft), ("dct", pk.pt_dct)])
    def test_matches_per_alpha_transforms(self, basis, transform):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(4099) * 1e3
        alphas = np.linspace(-7.0, 7.0, 29)
        sweep = pk.pt_sweep(pk.Signal(x, 50.0), alphas, basis)
        for alpha, row in zip(alphas, sweep):
            want = transform(x, pk.PhaseProfile.constant(alpha)).samples
            assert np.max(np.abs(row - want)) <= 1e-12 * max(1.0, np.max(np.abs(x)))

    @pytest.mark.parametrize("basis", ["dft", "dct"])
    def test_rows_are_the_one_shot_expression(self, basis):
        alphas = np.linspace(-3.0, 3.0, 41)
        for n in (1, 2, 3, 8, 9, 1000, 1001, 4099, 65536):
            x = np.random.default_rng(n).standard_normal(n)
            q = pk.hilbert(x) if basis == "dft" else pk.fcqt(x)
            want = np.cos(alphas)[:, None] * x + np.sin(alphas)[:, None] * q.samples
            assert np.array_equal(pk.pt_sweep(x, alphas, basis).view(np.int64),
                                  want.view(np.int64))

    @pytest.mark.parametrize("basis", ["dft", "dct"])
    def test_peak_memory(self, basis):
        # the output, the quadrature and one row of temporaries; cos x + sin q
        # held two outputs (2.03)
        x = np.random.default_rng(9).standard_normal(4096)
        alphas = np.linspace(0.0, np.pi, 41)
        pk.pt_sweep(x, alphas, basis)
        tracemalloc.start()
        try:
            out = pk.pt_sweep(x, alphas, basis)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * out.nbytes

    def test_rejects_unknown_basis(self):
        with pytest.raises(ValueError):
            pk.pt_sweep(np.ones(8), [0.0], "dst")

    @pytest.mark.parametrize("basis", ["dft", "dct"])
    def test_rejects_non_finite_phases(self, basis):
        with pytest.raises(ValueError, match="finite"):
            pk.pt_sweep(np.ones(8), [np.nan], basis)

    @pytest.mark.parametrize("alphas", [0.3, [[0.1, 0.2]]], ids=["scalar", "2-D"])
    def test_rejects_phases_that_are_not_one_dimensional(self, alphas):
        with pytest.raises(ValueError, match="phases must be a 1-D sequence"):
            pk.pt_sweep(np.ones(8), alphas)


class TestPtProperties:
    def test_composition_and_inversion(self):
        rng = np.random.default_rng(6)
        for n in (64, 101):
            x = random_clean_signal(rng, n)
            a1, a2 = rng.uniform(0, 2 * np.pi, 2)
            once = pk.pt_dft(x, pk.PhaseProfile.constant(a1))
            twice = pk.pt_dft(once, pk.PhaseProfile.constant(a2))
            direct = pk.pt_dft(x, pk.PhaseProfile.constant(a1 + a2))
            assert np.max(np.abs(twice.samples - direct.samples)) < 1e-9
            back = pk.pt_dft(once, pk.PhaseProfile.constant(-a1))
            assert np.max(np.abs(back.samples - x)) < 1e-9

    @given(alpha=st.floats(min_value=-10.0, max_value=10.0))
    @settings(max_examples=25, deadline=None)
    def test_two_pi_periodicity(self, alpha):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(48)
        a = pk.pt_dft(x, pk.PhaseProfile.constant(alpha)).samples
        b = pk.pt_dft(x, pk.PhaseProfile.constant(alpha + 2 * np.pi)).samples
        assert np.max(np.abs(a - b)) < 1e-10

    @given(a1=st.floats(-5, 5), a2=st.floats(-5, 5),
           alpha=st.floats(0, 2 * np.pi))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, a1, a2, alpha):
        rng = np.random.default_rng(8)
        x1 = rng.standard_normal(40)
        x2 = rng.standard_normal(40)
        profile = pk.PhaseProfile.constant(alpha)
        combined = pk.pt_dft(a1 * x1 + a2 * x2, profile).samples
        split = a1 * pk.pt_dft(x1, profile).samples + a2 * pk.pt_dft(x2, profile).samples
        assert np.max(np.abs(combined - split)) < 1e-10 * max(1.0, abs(a1) + abs(a2))

    def test_energy_preserved_on_clean_signals(self):
        rng = np.random.default_rng(9)
        for n in (64, 257):
            x = random_clean_signal(rng, n)
            for alpha in (0.3, 1.1, 5.0):
                y = pk.pt_dft(x, pk.PhaseProfile.constant(alpha)).samples
                assert abs(np.sum(y**2) - np.sum(x**2)) < 1e-9

    def test_inner_product_traces_cos_alpha(self):
        rng = np.random.default_rng(10)
        x = random_clean_signal(rng, 200)
        for alpha in np.linspace(0, 2 * np.pi, 9):
            y = pk.pt_dft(x, pk.PhaseProfile.constant(alpha)).samples
            ratio = np.dot(x, y) / np.dot(x, x)
            assert abs(ratio - np.cos(alpha)) < 1e-8

    def test_bedrosian_product_splitting(self):
        rng = np.random.default_rng(11)
        n = 1024
        from oracles import bandlimited_signal
        low = bandlimited_signal(rng, n, range(1, 8))
        high = bandlimited_signal(rng, n, range(40, 64))
        alpha = 1.2
        profile = pk.PhaseProfile.constant(alpha)
        lhs = pk.pt_dft(low * high, profile).samples
        rhs = low * pk.pt_dft(high, profile).samples
        assert np.max(np.abs(lhs - rhs)) < 1e-6

    def test_delay_profile_equals_fractional_delay_phases(self):
        profile = pk.PhaseProfile.delay(2.5)
        alphas = profile.bin_phases(16, basis="dft")
        k = np.arange(9)
        assert np.allclose(alphas, 2 * np.pi * k * 2.5 / 16, atol=1e-15)
        alphas_dct = profile.bin_phases(16, basis="dct")
        assert np.allclose(alphas_dct, np.pi * np.arange(16) * 2.5 / 16, atol=1e-15)

    def test_tiny_lengths(self):
        # N = 1 and N = 2 consist solely of edge bins
        out = pk.pt_dft(np.array([3.0]), pk.PhaseProfile.constant(np.pi / 3))
        assert out.samples[0] == pytest.approx(3.0 * 0.5, abs=1e-14)
        out2 = pk.pt_dft(np.array([1.0, -1.0]), pk.PhaseProfile.constant(np.pi))
        assert np.allclose(out2.samples, [-1.0, 1.0], atol=1e-14)

    def test_concurrent_invocations_are_deterministic(self):
        from concurrent.futures import ThreadPoolExecutor
        rng = np.random.default_rng(12)
        signals = [rng.standard_normal(256) for _ in range(16)]
        alphas = rng.uniform(0, 2 * np.pi, 16)
        expected = [pk.pt_dft(x, pk.PhaseProfile.constant(a)).samples
                    for x, a in zip(signals, alphas)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(
                lambda pair: pk.pt_dft(pair[0], pk.PhaseProfile.constant(pair[1])).samples,
                zip(signals, alphas)))
        for got, want in zip(results, expected):
            assert np.array_equal(got, want)
