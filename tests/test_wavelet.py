"""Tests for the analytic wavelet transform and wavelet phase transforms."""
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.signal

import phasekit as pk
import phasekit.wavelet as wavelet
from phasekit.repro import example5_signal, interior, rel_l2
from oracles import admissibility_integral, awt_direct, morse_cpsi_closed_form

# value pinned from the adaptive-quadrature run for beta=20, gamma=3 and
# cross-checked against the closed form A Gamma(beta/gamma) / gamma
CPSI_MORSE_20_3 = 0.655343414979164


@pytest.fixture(scope="module")
def tone():
    return example5_signal()


@pytest.fixture(scope="module")
def tone_analytic(tone):
    return pk.wavelet_analytic_signal(tone)


class TestMorseSpectrum:
    def test_vanishes_at_and_below_zero(self):
        spec = pk.MorseWavelet()
        values = pk.morse_spectrum(spec, np.array([-2.0, -1e-9, 0.0]))
        assert np.all(values == 0.0)

    def test_peak_location_and_height(self):
        spec = pk.MorseWavelet(beta=20.0, gamma=3.0)
        peak = (20.0 / 3.0) ** (1.0 / 3.0)
        assert spec.peak_omega == pytest.approx(peak, rel=1e-14)
        assert pk.morse_spectrum(spec, np.array([peak]))[0] == pytest.approx(2.0, rel=1e-12)
        # sampled maximum sits at the analytic peak
        grid = np.linspace(0.5 * peak, 2.0 * peak, 20001)
        values = pk.morse_spectrum(spec, grid)
        assert abs(grid[np.argmax(values)] - peak) < 2e-4
        assert np.max(values) <= 2.0 + 1e-12

    def test_tail_decays_hard(self):
        spec = pk.MorseWavelet(beta=20.0, gamma=3.0)
        far = 4.0 * spec.peak_omega
        assert pk.morse_spectrum(spec, np.array([far]))[0] < 1e-12

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            pk.MorseWavelet(beta=-1.0)
        with pytest.raises(ValueError):
            pk.MorseWavelet(gamma=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_grid(self, bad):
        with pytest.raises(ValueError, match="omega_grid must be finite"):
            pk.morse_spectrum(pk.MorseWavelet(), np.array([1.0, bad]))

    @pytest.mark.parametrize("beta, gamma", [(1e308, 3.0), (20.0, 1e-300)])
    def test_rejects_unrepresentable_wavelet(self, beta, gamma):
        # ln A overflows and lgamma raises at beta = 1e308; the peak
        # (beta / gamma)^(1 / gamma) overflows at gamma = 1e-300
        with pytest.raises(ValueError, match=re.escape(f"beta = {beta:g} and gamma = {gamma:g}")):
            pk.MorseWavelet(beta, gamma)

    def test_accepts_huge_gamma(self):
        spec = pk.MorseWavelet(20.0, 1e308)
        assert spec.peak_omega == 1.0 and 0.0 < pk.cpsi_delta(spec) < np.inf


class TestScaleGrid:
    def test_default_spans_requested_periods(self):
        spec = pk.MorseWavelet()
        grid = pk.ScaleGrid.default(5000, spec)
        periods = 2 * np.pi * grid.scales / spec.peak_omega
        assert periods[0] == pytest.approx(2.0, rel=1e-12)
        assert periods[-1] >= 5000 / 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            pk.ScaleGrid(np.array([1.0]))
        with pytest.raises(ValueError):
            pk.ScaleGrid(np.array([2.0, 1.0]))

    @pytest.mark.parametrize("voices", [10 ** 12, 10 ** 400])
    def test_default_caps_the_scale_count(self, voices):
        with pytest.raises(ValueError, match="4096 scales"):
            pk.ScaleGrid.default(1000, pk.MorseWavelet(), voices_per_octave=voices)
        grid = pk.ScaleGrid.default(1000, pk.MorseWavelet(), voices_per_octave=400)
        assert grid.scales.size < 4096

    @pytest.mark.parametrize("voices", [0, -3])
    def test_default_rejects_voices_below_one_before_dividing(self, voices):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="voices_per_octave must be >= 1"):
                pk.ScaleGrid.default(1000, pk.MorseWavelet(), voices_per_octave=voices)

    @pytest.mark.parametrize("n", [1, 4])
    def test_default_needs_more_than_four_samples(self, n):
        spec = pk.MorseWavelet()
        with pytest.raises(ValueError, match="more than 4 samples"):
            pk.ScaleGrid.default(n, spec)
        with pytest.raises(ValueError, match="more than 4 samples"):
            pk.wavelet_analytic_signal(np.ones(n))
        assert pk.ScaleGrid.default(5, spec).scales.size >= 2


class TestAwt:
    def test_zero_signal_gives_zero_scalogram(self):
        out = pk.awt(pk.Signal(np.zeros(256), 10.0))
        assert np.max(np.abs(out.coeffs)) == 0.0

    @pytest.mark.parametrize("rows", [0, 2, 4])
    def test_scalogram_rows_must_match_the_grid(self, rows):
        grid = pk.ScaleGrid(np.array([1.0, 2.0, 4.0]))
        with pytest.raises(ValueError, match="coefficient rows must match the scale grid"):
            pk.Scalogram(np.zeros((rows, 8), complex), grid, pk.MorseWavelet(), 1.0)

    def test_time_axis_matches_signal_length(self):
        sig = pk.Signal(np.random.default_rng(0).standard_normal(300), 5.0)
        out = pk.awt(sig)
        assert out.coeffs.shape[1] == 300

    def test_tone_peaks_at_matching_scale(self, tone):
        spec = pk.MorseWavelet()
        grid = pk.ScaleGrid.default(len(tone), spec)
        out = pk.awt(tone, grid, spec)
        energy = np.sum(np.abs(out.coeffs) ** 2, axis=1)
        s_star = grid.scales[np.argmax(energy)]
        digital = 2 * np.pi * 1.0 / tone.sample_rate  # 1 Hz tone
        # the energy-weighted peak scale maps the tone onto the wavelet peak,
        # within a voice step of the sqrt(s)-weighted optimum
        voice_step = np.log(grid.scales[1] / grid.scales[0])
        assert abs(np.log(s_star * digital) - np.log(spec.peak_omega)) < 2 * voice_step

    def test_is_linear(self):
        rng = np.random.default_rng(1)
        x1 = rng.standard_normal(200)
        x2 = rng.standard_normal(200)
        spec = pk.MorseWavelet()
        grid = pk.ScaleGrid.default(200, spec)
        a = pk.awt(pk.Signal(2.0 * x1 + 0.5 * x2), grid, spec).coeffs
        b = 2.0 * pk.awt(pk.Signal(x1), grid, spec).coeffs \
            + 0.5 * pk.awt(pk.Signal(x2), grid, spec).coeffs
        assert np.max(np.abs(a - b)) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 63, 64])
    def test_matches_direct_sums(self, n):
        x = 3.0 * np.random.default_rng(n).standard_normal(n)
        spec = pk.MorseWavelet()
        grid = (pk.ScaleGrid.default(n, spec) if n > 4
                else pk.ScaleGrid(np.array([0.7, 1.4, 2.8])))
        got = pk.awt(x, grid, spec).coeffs
        want = awt_direct(x, grid.scales, spec.beta, spec.gamma)
        assert np.max(np.abs(want)) > 0.1 or n == 1
        assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(np.abs(x)))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_spectrum_is_floating_point_error(self):
        # the same error as wavelet_analytic_signal, and no numpy warning
        with pytest.raises(FloatingPointError, match="spectral gain"):
            pk.awt(np.where(np.arange(64) % 2 == 0, 1e308, -1e308))

    def test_warns_on_aliased_scales(self):
        spec = pk.MorseWavelet()
        scales = np.array([0.1, 1.0, 10.0]) * spec.peak_omega / np.pi
        with pytest.warns(RuntimeWarning, match="Nyquist"):
            pk.awt(pk.Signal(np.ones(64)), pk.ScaleGrid(scales), spec)


class TestCpsiDelta:
    def test_matches_closed_form_and_regression_value(self):
        spec = pk.MorseWavelet(20.0, 3.0)
        value = pk.cpsi_delta(spec)
        assert value == pytest.approx(morse_cpsi_closed_form(20.0, 3.0), rel=1e-10)
        assert value == pytest.approx(CPSI_MORSE_20_3, rel=1e-12)

    def test_scaling_the_spectrum_scales_the_constant(self):
        spec = pk.MorseWavelet(20.0, 3.0)
        base = pk.cpsi_delta(spec)
        doubled = admissibility_integral(
            lambda w: 2.0 * float(pk.morse_spectrum(spec, np.array([w]))[0]))
        assert doubled == pytest.approx(2.0 * base, rel=1e-9)

    def test_small_beta_still_converges(self):
        value = pk.cpsi_delta(pk.MorseWavelet(beta=0.5, gamma=3.0))
        assert np.isfinite(value) and value > 0
        assert value == pytest.approx(morse_cpsi_closed_form(0.5, 3.0), rel=1e-9)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.filterwarnings("ignore:divide by zero")
    def test_divergent_integrand_is_rejected(self):
        with pytest.raises(ValueError):
            admissibility_integral(lambda w: 1.0)  # integral of 1/w diverges

    def test_matches_quadrature_and_closed_form_on_a_parameter_grid(self):
        converged = 0
        for beta in (1, 2, 5, 10, 20, 30, 40, 50, 60, 80, 100):
            for gamma in (1, 2, 3, 4, 6):
                spec = pk.MorseWavelet(beta, gamma)
                value = pk.cpsi_delta(spec)
                assert value == pytest.approx(morse_cpsi_closed_form(beta, gamma), rel=1e-12)
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        reference = admissibility_integral(
                            lambda w: float(pk.morse_spectrum(spec, np.array([w]))[0]))
                except ValueError:
                    continue  # adaptive quadrature fails on some peaked integrands
                converged += 1
                assert value == pytest.approx(reference, rel=1e-10)
        assert converged >= 30


class TestSingleMultiplier:
    @pytest.mark.parametrize("n", [1000, 1001])
    def test_matches_scale_by_time_inverse(self, n):
        # the single-integral inverse summed over the awt coefficient rows
        t = np.arange(n)
        x = np.cos(2 * np.pi * t / 40.0) + 0.5 * np.sin(2 * np.pi * t / 97.0 + 0.3)
        spec = pk.MorseWavelet()
        grid = pk.ScaleGrid.default(n, spec)
        weights = grid.log_weights() / np.sqrt(grid.scales)
        rows = (2.0 / pk.cpsi_delta(spec)) * (weights @ pk.awt(x, grid, spec).coeffs)
        z = pk.wavelet_analytic_signal(x, grid, spec)
        assert np.max(np.abs(z - rows)) < 1e-12 * max(1.0, np.max(np.abs(x)))

    def test_one_sample_gives_zeros(self):
        # one sample reflects to a constant of three, which has no content
        # at the wavelet's positive frequencies
        grid = pk.ScaleGrid(np.array([2.0, 4.0]))
        coeffs = pk.awt(np.array([1.5]), grid).coeffs
        assert coeffs.shape == (2, 1) and np.all(coeffs == 0)
        with pytest.warns(RuntimeWarning, match="residual"):
            z = pk.wavelet_analytic_signal(np.array([1.5]), grid)
        assert z.shape == (1,) and np.all(z == 0)

    @pytest.mark.parametrize("module", ["phasekit", "phasekit.cli"])
    def test_import_loads_no_scipy(self, module):
        code = (f"import sys, {module}; "
                "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


def _multiplier(n, spec, errors="raise"):
    """The response R on the reflected extension of an n-sample record, its
    scale grid and its bin frequencies."""
    x = np.random.default_rng(n).standard_normal(n)
    _, grid, spec, _, omega = wavelet._reflected_spectrum(x, None, spec)
    with np.errstate(all=errors, under="ignore"):
        return wavelet._response(spec, grid, omega), grid, omega


def _assert_cut_drops_only_zeros(spec, scales, coef, omega, monkeypatch):
    """Each scale's term on its interval, zero elsewhere, is bit for bit the
    same formula evaluated on every positive bin."""
    def terms():  # each term is a view of a buffer the next step reuses
        return [(bins, term.copy()) for bins, term in
                wavelet._scale_terms(spec, scales, coef, omega)]

    rows = terms()
    with monkeypatch.context() as patch, np.errstate(over="ignore"):
        patch.setattr(wavelet, "_morse_support", lambda spec, floor: (0.0, np.inf))
        full_rows = terms()
    for (bins, term), (every, full) in zip(rows, full_rows):
        got = np.zeros(omega.size)
        got[bins] = term
        want = np.zeros(omega.size)
        want[every] = full
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


LOG_SPACE_CASES = [(beta, gamma, n) for beta in (0.5, 20.0, 200.0)
                   for gamma in (0.25, 1.0, 3.0, 60.0, 300.0)
                   for n in (5, 6, 7, 64, 1000, 1001)]


@pytest.mark.filterwarnings("ignore:.*peak above Nyquist:RuntimeWarning")
class TestLogSpaceResponse:
    @pytest.mark.parametrize("beta, gamma, n", LOG_SPACE_CASES)
    def test_matches_morse_spectrum_sum(self, beta, gamma, n):
        spec = pk.MorseWavelet(beta, gamma)
        got, grid, omega = _multiplier(n, spec)
        want = np.zeros_like(omega)
        with np.errstate(over="ignore"):  # (s omega)^gamma overflows where Psi is 0
            for scale, weight in zip(grid.scales, grid.log_weights()):
                want += weight * pk.morse_spectrum(spec, scale * omega)
        want *= 2.0 / pk.cpsi_delta(spec)
        assert np.all(np.isfinite(got))
        # the 3n-sample extension carries only its bins below Nyquist
        assert omega.size == (3 * n + 1) // 2
        # both sides round beta ln u in double precision; with beta = 200 and
        # gamma = 1/4 the peak sits at ln u ~ 27, and that rounding alone
        # moves the morse_spectrum sum by 2.6e-13 of max|R| (measured against
        # an extended-precision sum)
        bound = 1e-13 * max(1.0, beta / 20.0)
        assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))

    @pytest.mark.parametrize("beta, gamma, n", LOG_SPACE_CASES)
    def test_cut_drops_only_zeros(self, beta, gamma, n, monkeypatch):
        spec = pk.MorseWavelet(beta, gamma)
        cut, grid, omega = _multiplier(n, spec)
        # awt's coefficients sqrt(s) and the response's (2/C) dln(s) weights
        for coef in (0.5 * np.log(grid.scales),
                     np.log(2.0 / pk.cpsi_delta(spec) * grid.log_weights())):
            _assert_cut_drops_only_zeros(spec, grid.scales, coef, omega, monkeypatch)
        monkeypatch.setattr(wavelet, "_morse_support", lambda spec, floor: (0.0, np.inf))
        # off the interval (s omega)^gamma may overflow, which exp turns into 0
        every_bin, _, _ = _multiplier(n, spec, errors="ignore")
        assert np.array_equal(cut.view(np.int64), every_bin.view(np.int64))

    def test_cut_allows_for_large_coefficients(self, monkeypatch):
        # sqrt(s) reaches e^13.8 here, past the 4.87 between -750 and where
        # exp starts to round to 0.0
        scales = np.geomspace(1.0, 1e12, 40)
        omega = 2.0 * np.pi * np.fft.rfftfreq(192)[:96]
        _assert_cut_drops_only_zeros(pk.MorseWavelet(), scales, 0.5 * np.log(scales), omega,
                                     monkeypatch)

    def test_cut_skips_most_bins_of_the_default_grid(self):
        spec = pk.MorseWavelet()
        _, grid, omega = _multiplier(20000, spec)
        terms = wavelet._scale_terms(spec, grid.scales, np.log(grid.log_weights()), omega)
        evaluated = sum(term.size for _, term in terms)
        assert evaluated < 0.4 * grid.scales.size * (omega.size - 1)


class TestWpt:
    def test_zero_phase_reconstructs_input(self, tone, tone_analytic):
        err = rel_l2(tone_analytic.real, tone.samples, interior(len(tone)))
        assert err < 0.02

    def test_quadrature_matches_fft_hilbert(self, tone, tone_analytic):
        truth = scipy.signal.hilbert(tone.samples).imag
        err = rel_l2(tone_analytic.imag, truth, interior(len(tone)))
        assert err < 0.05

    def test_rotation_identity_is_exact(self, tone, tone_analytic):
        base = tone_analytic.real
        quad = tone_analytic.imag
        for alpha in (0.3, 1.0, 2.5, 5.0):
            direct = (tone_analytic * np.exp(-1j * alpha)).real
            split = np.cos(alpha) * base + np.sin(alpha) * quad
            assert np.max(np.abs(direct - split)) < 1e-10

    def test_rotations_compose_exactly(self, tone_analytic):
        a1, a2 = 0.7, 1.9
        rotated = (tone_analytic * np.exp(-1j * a1)) * np.exp(-1j * a2)
        direct = tone_analytic * np.exp(-1j * (a1 + a2))
        assert np.max(np.abs(rotated - direct)) < 1e-12

    def test_two_pi_period(self, tone):
        a = pk.wpt(tone, 0.0)
        b = pk.wpt(tone, 2 * np.pi)
        assert np.max(np.abs(a.samples - b.samples)) < 1e-12

    def test_sweep_family_advances_phase(self, tone, tone_analytic):
        # each pi/10 step leads the previous by pi/10 of interior phase;
        # analytic envelopes are taken on the full records (an integer
        # number of cycles) and only then windowed
        win = interior(len(tone))
        previous = None
        for alpha in np.arange(5) * np.pi / 10:
            current = scipy.signal.hilbert((tone_analytic * np.exp(-1j * alpha)).real)[win]
            if previous is not None:
                step = np.angle(np.vdot(current, previous))
                assert abs(step - np.pi / 10) < 0.01
            previous = current

    def test_wqt_is_quarter_turn_wpt(self, tone):
        a = pk.wqt(tone)
        b = pk.wpt(tone, np.pi / 2)
        assert np.max(np.abs(a.samples - b.samples)) < 1e-14

    @pytest.mark.parametrize("voices", [None, 4])
    def test_wqt_is_exactly_the_analytic_imaginary_part(self, tone, voices):
        # bit for bit, with the default grid and with a grid passed in
        spec = pk.MorseWavelet()
        grid = None if voices is None else pk.ScaleGrid.default(len(tone), spec, voices)
        want = pk.wavelet_analytic_signal(tone, grid).imag
        assert pk.wqt(tone, grid).samples.tobytes() == want.tobytes()

    def test_midband_tones_match_hilbert(self):
        fs, n = 200.0, 2000
        t = np.arange(n) / fs
        win = interior(n)
        for f0 in (2.0, 5.0, 10.0):
            x = np.cos(2 * np.pi * f0 * t)
            out = pk.wqt(pk.Signal(x, fs)).samples
            truth = scipy.signal.hilbert(x).imag
            assert rel_l2(out, truth, win) < 0.05

    def test_warns_when_band_not_covered(self):
        # a pure trend lives at scales far beyond the grid
        sig = pk.Signal(np.linspace(-1.0, 1.0, 400), 10.0)
        spec = pk.MorseWavelet()
        grid = pk.ScaleGrid.default(64, spec)  # deliberately too narrow
        with pytest.warns(RuntimeWarning, match="residual"):
            pk.wavelet_analytic_signal(sig, grid, spec)

    def test_rejects_non_finite_alpha(self, tone):
        with pytest.raises(ValueError):
            pk.wpt(tone, np.nan)
