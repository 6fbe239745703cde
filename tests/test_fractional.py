"""Tests for fractional delay and fractional-order differintegration."""
import numpy as np
import pytest
import scipy.special

import phasekit as pk
from phasekit.fractional import _rgamma
from phasekit.repro import example3_cosine, example3_gaussian, interior, rel_l2
from oracles import bandlimited_signal, zero_mean_zero_nyquist


def xcorr_peak_lag(a, b, max_lag):
    """Sub-sample lag of the circular cross-correlation peak (parabolic fit).

    The search window is limited to |lag| < max_lag so periodic signals,
    whose correlation repeats every cycle, resolve to the principal peak.
    """
    n = a.size
    corr = np.fft.ifft(np.fft.fft(a) * np.conj(np.fft.fft(b))).real
    lags = np.arange(-max_lag + 1, max_lag)
    k = int(lags[np.argmax(corr[lags % n])])
    left, mid, right = corr[(k - 1) % n], corr[k % n], corr[(k + 1) % n]
    denom = left - 2 * mid + right
    offset = 0.5 * (left - right) / denom if denom != 0 else 0.0
    return k + offset


class TestFracDelayDft:
    def test_integer_delay_is_exact_circular_shift(self):
        rng = np.random.default_rng(0)
        for n in (32, 33):
            x = rng.standard_normal(n)
            for shift in (1, 3, 7):
                out = pk.frac_delay_dft(x, float(shift)).samples
                assert np.max(np.abs(out - np.roll(x, shift))) < 1e-10

    def test_example_gaussian_delay(self):
        sig, n0 = example3_gaussian()
        t0 = n0 / sig.sample_rate
        out = pk.frac_delay_dft(sig, n0).samples
        truth = np.exp(-(sig.times - t0 - 5.0) ** 2)
        assert np.max(np.abs(out - truth)) < 1e-9

    def test_example_cosine_delay(self):
        sig, n0 = example3_cosine()
        out = pk.frac_delay_dft(sig, n0).samples
        truth = np.cos(np.pi * (sig.times - n0))
        assert np.max(np.abs(out - truth)) < 1e-12

    def test_pure_tone_gets_exact_phase_ramp(self):
        n, k0, phi = 200, 11, 0.37
        grid = np.arange(n)
        x = np.cos(2 * np.pi * k0 * grid / n + phi)
        for n0 in (0.25, 1.9, -0.6):
            out = pk.frac_delay_dft(x, n0).samples
            want = np.cos(2 * np.pi * k0 * grid / n + phi - 2 * np.pi * k0 * n0 / n)
            assert np.max(np.abs(out - want)) < 1e-10

    def test_delays_compose(self):
        rng = np.random.default_rng(1)
        x = zero_mean_zero_nyquist(rng.standard_normal(128))
        step1 = pk.frac_delay_dft(x, 0.4)
        step2 = pk.frac_delay_dft(step1, 1.35)
        direct = pk.frac_delay_dft(x, 1.75)
        assert np.max(np.abs(step2.samples - direct.samples)) < 1e-9

    def test_is_linear(self):
        rng = np.random.default_rng(2)
        x1 = rng.standard_normal(64)
        x2 = rng.standard_normal(64)
        lhs = pk.frac_delay_dft(2.0 * x1 - 3.0 * x2, 0.8).samples
        rhs = 2.0 * pk.frac_delay_dft(x1, 0.8).samples - 3.0 * pk.frac_delay_dft(x2, 0.8).samples
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_per_bin_delays(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(64)
        uniform = pk.frac_delay_dft(x, np.full(32, 0.9)).samples
        scalar = pk.frac_delay_dft(x, 0.9).samples
        assert np.max(np.abs(uniform - scalar)) < 1e-14
        with pytest.raises(ValueError):
            pk.frac_delay_dft(x, np.zeros(5))

    @pytest.mark.parametrize("n", [2, 3, 8, 101, 1000, 1001])
    @pytest.mark.parametrize("delay", [0.9, -2.6, 17.0])
    def test_scalar_delay_equals_per_bin_vector_bit_for_bit(self, n, delay):
        x = np.random.default_rng(n).standard_normal(n)
        scalar = pk.frac_delay_dft(x, delay).samples
        uniform = pk.frac_delay_dft(x, np.full(n // 2, delay)).samples
        assert np.array_equal(scalar.view(np.int64), uniform.view(np.int64))

    def test_rejects_non_finite_delay(self):
        with pytest.raises(ValueError):
            pk.frac_delay_dft(np.ones(8), np.nan)


class TestFracDelayDct:
    def test_zero_delay_is_identity(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(50)
        assert np.max(np.abs(pk.frac_delay_dct(x, 0.0).samples - x)) < 1e-10

    def test_matches_dft_route_in_the_interior(self):
        sig, n0 = example3_gaussian()
        a = pk.frac_delay_dft(sig, n0).samples
        b = pk.frac_delay_dct(sig, n0).samples
        margin = len(sig) // 20  # exclude 5% at each end
        window = slice(margin, len(sig) - margin)
        assert np.max(np.abs(a[window] - b[window])) < 1e-6

    def test_single_mode_closed_form(self):
        n, k0, n0 = 64, 7, 0.37
        grid = np.arange(n)
        x = np.cos(np.pi * k0 * (2 * grid + 1) / (2 * n))
        out = pk.frac_delay_dct(x, n0).samples
        want = np.cos(np.pi * k0 * (2 * (grid - n0) + 1) / (2 * n))
        assert np.max(np.abs(out - want)) < 1e-9


@pytest.mark.parametrize("delay, transform, periods_of_n, n_delays", [
    (pk.frac_delay_dft, pk.pt_dft, 1, lambda n: n // 2),
    (pk.frac_delay_dct, pk.pt_dct, 2, lambda n: n - 1)], ids=["dft", "dct"])
@pytest.mark.parametrize("periods", [10 ** 6, -10 ** 6, 3])
def test_far_delay_equals_its_reduction_bit_for_bit(delay, transform, periods_of_n, n_delays,
                                                    periods):
    # moved by whole periods L (N on the DFT basis, 2N on the DCT basis), a
    # delay gives the same phases modulo 2 pi; each delay is reduced into its
    # period before the phases are formed, so none of its digits is lost
    n = 1000
    period = periods_of_n * n
    rng = np.random.default_rng(periods % 7)
    x = rng.standard_normal(n)
    far = delay(x, 0.25 + periods * period).samples
    assert np.array_equal(far.view(np.int64), delay(x, 0.25).samples.view(np.int64))
    near = rng.integers(-12, 13, n_delays(n)) / 4  # quarters: exact after the offset
    offsets = np.sign(periods) * rng.integers(1, abs(periods) + 1, near.size) * period
    far = transform(x, pk.PhaseProfile.delay(near + offsets)).samples
    want = transform(x, pk.PhaseProfile.delay(near)).samples
    assert np.array_equal(far.view(np.int64), want.view(np.int64))


class TestFracDifferintegrate:
    def test_zero_order_is_identity(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(100) + 0.5
        out = pk.frac_differintegrate(x, 0.0).samples
        assert np.max(np.abs(out - x)) < 1e-10

    def test_first_derivative_of_sine(self):
        t = np.arange(10000) / 1000.0
        sig = pk.Signal(np.sin(2 * np.pi * t), 1000.0)
        out = pk.frac_differintegrate(sig, 1.0).samples
        truth = 2 * np.pi * np.cos(2 * np.pi * t)
        assert rel_l2(out, truth, interior(t.size)) < 1e-6

    def test_half_derivative_of_sine(self):
        t = np.arange(10000) / 1000.0
        sig = pk.Signal(np.sin(2 * np.pi * t), 1000.0)
        out = pk.frac_differintegrate(sig, 0.5).samples
        truth = np.sqrt(2 * np.pi) * np.sin(2 * np.pi * t + np.pi / 4)
        assert rel_l2(out, truth, interior(t.size)) < 1e-3

    def test_normalized_scaling_differs_by_rate_power(self):
        t = np.arange(1000) / 100.0
        sig = pk.Signal(np.sin(2 * np.pi * t) + 0.0, 100.0)
        mu = 0.6
        physical = pk.frac_differintegrate(
            sig, pk.DifferintegrationOrder(mu, pk.KernelScaling.PHYSICAL)).samples
        normalized = pk.frac_differintegrate(
            sig, pk.DifferintegrationOrder(mu, pk.KernelScaling.NORMALIZED)).samples
        assert np.max(np.abs(physical - normalized * 100.0**mu)) < 1e-9

    def test_semigroup_on_clean_bandlimited_signals(self):
        rng = np.random.default_rng(6)
        n = 2048
        x = bandlimited_signal(rng, n, range(8, 40))
        sig = pk.Signal(x, 100.0)
        win = interior(n)
        for mu in (0.25, 0.5, 0.75):
            for nu in (0.25, 0.5, 0.75):
                steps = pk.frac_differintegrate(pk.frac_differintegrate(sig, mu), nu)
                direct = pk.frac_differintegrate(sig, mu + nu)
                assert rel_l2(steps.samples, direct.samples, win) < 1e-6

    def test_derivative_then_integral_recovers_signal(self):
        rng = np.random.default_rng(7)
        n = 2048
        x = bandlimited_signal(rng, n, range(8, 40))
        sig = pk.Signal(x, 100.0)
        win = interior(n)
        for mu in (0.25, 0.5, 0.75):
            back = pk.frac_differintegrate(pk.frac_differintegrate(sig, mu), -mu)
            assert rel_l2(back.samples, x, win) < 1e-6

    def test_order_sweep_advances_phase_by_pi_over_8(self):
        t = np.arange(10000) / 1000.0
        sig = pk.Signal(np.sin(2 * np.pi * t), 1000.0)
        outputs = [pk.frac_differintegrate(sig, mu).samples
                   for mu in (0.0, 0.25, 0.5, 0.75, 1.0)]
        period = 1000  # samples per cycle of the 1 Hz tone
        for previous, current in zip(outputs, outputs[1:]):
            lag = xcorr_peak_lag(current / np.linalg.norm(current),
                                 previous / np.linalg.norm(previous),
                                 max_lag=period // 2)
            phase_lead = 2 * np.pi * (-lag) / period
            # a derivative advances the tone: the correlation peak sits at a
            # negative circular lag worth pi/8 of phase
            assert abs(phase_lead - np.pi / 8) < 0.01

    def test_integral_of_constant_grows_as_power_law(self):
        n, fs, c = 64, 2.0, 3.0
        out = pk.frac_differintegrate(pk.Signal(np.full(n, c), fs), -1.0).samples
        t = np.arange(n) / fs
        assert np.max(np.abs(out - c * t)) < 1e-9

    def test_integer_order_gamma_pole_zeroes_mean_term(self):
        # derivative of a constant: the 1/Gamma(1 - mu) pole at mu = 1 must
        # produce a zero mean term, not an overflow
        with pytest.warns(RuntimeWarning):
            out = pk.frac_differintegrate(pk.Signal(np.full(32, 5.0), 1.0), 1.0).samples
        assert np.max(np.abs(out)) < 1e-12

    def test_warns_on_divergent_mean_term(self):
        sig = pk.Signal(np.full(16, 1.0) + np.arange(16) * 0.0 + 1.0, 1.0)
        with pytest.warns(RuntimeWarning):
            pk.frac_differintegrate(sig, 0.5)

    def test_no_warning_for_zero_mean(self):
        import warnings
        x = np.sin(2 * np.pi * np.arange(64) / 64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pk.frac_differintegrate(pk.Signal(x, 1.0), 0.5)

    def test_overflowing_mean_term_is_floating_point_error(self):
        # the oscillatory part is exactly zero; the mean term t^200 overflows
        with pytest.raises(FloatingPointError):
            pk.frac_differintegrate(pk.Signal(np.ones(100)), -200)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_gain_is_floating_point_error_without_warning(self):
        # (2 pi / 3001)^-200 overflows in the bin gain, before the mean term
        with pytest.raises(FloatingPointError):
            pk.frac_differintegrate(pk.Signal(np.ones(3001)), -200)

    @pytest.mark.parametrize("z", [0.0, -1.0, -2.0, 0.5, -0.5, 1.0, 171.7, 201.0, -170.5,
                                   -171.5, -200.5, 1e-300, -1e-300, 1e300, -1e300])
    def test_rgamma_matches_scipy(self, z):
        # poles and Gamma overflow give 0, Gamma underflow to a signed zero
        # gives a signed infinity, every other value the ordinary reciprocal
        ours, oracle = _rgamma(z), float(scipy.special.rgamma(z))
        assert np.sign(ours) == np.sign(oracle)
        assert np.isinf(ours) == np.isinf(oracle)
        np.testing.assert_allclose(ours, oracle, rtol=4e-15, atol=0.0)

    def test_rgamma_is_finite_where_gamma_is(self):
        # 1/Gamma(-170.9) is about -7.3e307; scipy's rgamma reports -inf here
        mpmath = pytest.importorskip("mpmath")
        np.testing.assert_allclose(_rgamma(-170.9), float(mpmath.rgamma(-170.9)),
                                   rtol=1e-13, atol=0.0)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            pk.DifferintegrationOrder(np.inf)
