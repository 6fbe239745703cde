"""Tests for fractional delay and fractional-order differintegration."""
import numpy as np
import pytest

import phasekit as pk
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

    def test_order_validation(self):
        with pytest.raises(ValueError):
            pk.DifferintegrationOrder(np.inf)
