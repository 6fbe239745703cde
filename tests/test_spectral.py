"""Tests for the core transforms and the generalized Fourier synthesizer."""
import ast
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

import phasekit as pk
import phasekit.io as pkio
from phasekit.spectral import _dct_twiddles
from oracles import (
    dct2_direct,
    dft2d_direct,
    dft_direct,
    idct2_direct,
    idft_direct,
)


class TestDft:
    def test_constant_signal_is_dc_only(self):
        bins = pk.dft([1.0, 1.0, 1.0, 1.0]).bins
        assert np.allclose(bins, [1, 0, 0, 0], atol=1e-15)

    def test_unit_impulse_is_flat(self):
        bins = pk.dft([1.0, 0.0, 0.0, 0.0]).bins
        assert np.allclose(bins, 0.25, atol=1e-15)

    def test_cosine_splits_into_two_half_bins(self):
        # frozen from the direct-summation oracle
        x = np.cos(2 * np.pi * np.arange(8) / 8)
        expected = dft_direct(x)
        assert abs(expected[1] - 0.5) < 1e-12 and abs(expected[7] - 0.5) < 1e-12
        bins = pk.dft(x).bins
        assert np.allclose(bins, expected, atol=1e-12)
        assert abs(bins[1] - 0.5) < 1e-10
        assert abs(bins[7] - 0.5) < 1e-10
        others = np.delete(bins, [1, 7])
        assert np.max(np.abs(others)) < 1e-10

    @pytest.mark.parametrize("n", [8, 17, 127, 256, 512])
    def test_matches_direct_summation(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        assert np.max(np.abs(pk.dft(x).bins - dft_direct(x))) < 1e-9

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            pk.dft(np.array([]))

    @given(st.integers(min_value=1, max_value=64), st.integers())
    @settings(max_examples=30, deadline=None)
    def test_real_input_gives_conjugate_symmetric_bins(self, n, seed):
        rng = np.random.default_rng(abs(seed) % 2**32)
        bins = pk.dft(rng.standard_normal(n)).bins
        k = np.arange(1, n)
        assert np.allclose(bins[n - k], np.conj(bins[k]), atol=1e-12)

    def test_signal_keeps_its_rate(self):
        spectrum = pk.dft(pk.Signal(np.ones(4), 250.0))
        assert spectrum.sample_rate == 250.0
        assert np.allclose(spectrum.bins, [1, 0, 0, 0], atol=1e-15)


class TestIdft:
    def test_dc_bin_gives_constant(self):
        spectrum = pk.Spectrum(np.array([1.0, 0, 0, 0], dtype=complex))
        assert np.allclose(pk.idft(spectrum), 1.0, atol=1e-15)

    def test_two_half_bins_give_cosine(self):
        # direct-sum oracle: bins [0, 0.5, 0, 0.5] -> cos(2 pi n / 4) = [1, 0, -1, 0]
        bins = np.array([0.0, 0.5, 0.0, 0.5], dtype=complex)
        assert np.allclose(idft_direct(bins), [1, 0, -1, 0], atol=1e-15)
        assert np.allclose(pk.idft(pk.Spectrum(bins)), [1, 0, -1, 0], atol=1e-12)

    def test_round_trip_1024_random(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(1024)
        assert np.max(np.abs(pk.idft(pk.dft(x)) - x)) < 1e-10

    def test_rejects_wrong_origin(self):
        spectrum = pk.dct2_forward(pk.Signal(np.ones(8)))
        with pytest.raises(ValueError):
            pk.idft(spectrum)


@pytest.mark.parametrize("n", [1, 2, 7, 64, 257, 1000])
def test_transform_pairs_are_mutual_inverses(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    assert np.max(np.abs(pk.idft(pk.dft(x)) - x)) < 1e-10
    sig = pk.Signal(x, 5.0)
    back = pk.dct2_inverse(pk.dct2_forward(sig))
    assert np.max(np.abs(back.samples - x)) < 1e-10
    assert back.sample_rate == 5.0


# lengths for the DCT route: 1 and 2 (no odd or no mirrored bins), primes,
# both parities around 1000 and a prime past 4096
MAKHOUL_LENGTHS = [1, 2, 3, 7, 8, 101, 1000, 1001, 4099]
# against scipy.fft on standard-normal input: about 45 ulp of 1.0
SCIPY_BOUND = 1e-14


class TestDct2:
    def test_constant_concentrates_in_dc(self):
        c, n = 0.7, 16
        bins = pk.dct2_forward(pk.Signal(np.full(n, c))).bins
        assert abs(bins[0] - c * np.sqrt(n)) < 1e-12
        assert np.max(np.abs(bins[1:])) < 1e-12

    def test_single_basis_vector_recovers_single_bin(self):
        n, k0 = 32, 5
        grid = np.arange(n)
        x = np.cos(np.pi * k0 * (2 * grid + 1) / (2 * n))
        expected = dct2_direct(x)
        bins = pk.dct2_forward(pk.Signal(x)).bins
        assert np.max(np.abs(bins - expected)) < 1e-12
        assert abs(bins[k0]) > 1.0
        assert np.max(np.abs(np.delete(bins, k0))) < 1e-10

    def test_parseval_n257(self):
        rng = np.random.default_rng(257)
        x = rng.standard_normal(257)
        bins = pk.dct2_forward(pk.Signal(x)).bins
        assert abs(np.sum(x**2) - np.sum(bins**2)) < 1e-10

    @pytest.mark.parametrize("n", [*range(1, 17), 64, 255, 512])
    def test_matches_direct_summation(self, n):
        rng = np.random.default_rng(n + 1)
        x = rng.standard_normal(n)
        assert np.max(np.abs(pk.dct2_forward(pk.Signal(x)).bins - dct2_direct(x))) < 1e-9
        back = pk.dct2_inverse(pk.Spectrum(x, "dct2")).samples
        assert np.max(np.abs(back - idct2_direct(x))) < 1e-9

    def test_inverse_rejects_dft_spectrum(self):
        with pytest.raises(ValueError):
            pk.dct2_inverse(pk.dft(np.ones(8)))

    @pytest.mark.parametrize("n", MAKHOUL_LENGTHS)
    def test_numpy_route_matches_direct_summation_and_scipy(self, n):
        x = np.random.default_rng(n + 2).standard_normal(n)
        bins = pk.dct2_forward(pk.Signal(x)).bins
        back = pk.dct2_inverse(pk.Spectrum(x, "dct2")).samples
        assert np.max(np.abs(bins - dct2_direct(x))) < 1e-9
        assert np.max(np.abs(back - idct2_direct(x))) < 1e-9
        assert np.max(np.abs(bins - scipy.fft.dct(x, norm="ortho"))) < SCIPY_BOUND
        assert np.max(np.abs(back - scipy.fft.idct(x, norm="ortho"))) < SCIPY_BOUND

    def test_twiddle_tables_are_cached_read_only(self):
        for n, forward, size in [(12, True, 7), (12, False, 12), (7, True, 4), (7, False, 7)]:
            table = _dct_twiddles(n, forward)
            assert table.size == size and _dct_twiddles(n, forward) is table
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0.0

    def test_overflow_gives_non_finite_bins_without_warning(self):
        x = np.where(np.arange(64) % 2 == 0, 1e308, -1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bins = pk.dct2_forward(pk.Signal(x)).bins
        assert not np.all(np.isfinite(bins))


def _run_without_scipy(argv):
    """Run ``phasekit.cli.main(argv)`` in a child where any scipy import fails;
    return the last line it prints: its exit code and the scipy modules it loaded."""
    code = ("import sys; sys.modules['scipy'] = None; from phasekit.cli import main; "
            f"code = main({argv!r}); "
            "print(code, [m for m, mod in sys.modules.items() if mod is not None\n"
            "             and (m == 'scipy' or m.startswith('scipy.'))])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


class TestScipyBoundary:
    def test_package_imports_no_scipy(self):
        # every transform runs on numpy.fft: no module of the package imports
        # scipy, at module level, inside a function or by name
        found = []
        for path in sorted(Path(pk.__file__).parent.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                elif (isinstance(node, ast.Call) and node.args
                      and isinstance(node.args[0], ast.Constant)
                      and isinstance(node.args[0].value, str)
                      and getattr(node.func, "id", getattr(node.func, "attr", None))
                      in ("__import__", "import_module")):
                    modules = [node.args[0].value]
                else:
                    continue
                found += [(path.name, node.lineno, m) for m in modules
                          if m.split(".")[0] == "scipy"]
        assert found == []

    @pytest.mark.parametrize("mode", [["--alpha", "0.5"], ["--alpha-sweep", "0:0.5:3"]])
    def test_dft_pt_run_loads_no_scipy(self, tmp_path, mode):
        record, out = tmp_path / "in.csv", tmp_path / "out.csv"
        t = np.arange(64) / 8.0
        pkio.write_columns_csv(record, {}, ["t", "value"], [t, np.cos(t)])
        argv = ["pt", str(record), *mode, "--basis", "dft", "-o", str(out)]
        assert _run_without_scipy(argv) == "0 []"
        assert out.exists()

    @pytest.mark.parametrize("command", [
        ["pt", "{record}", "--alpha", "0.5", "--basis", "dct", "-o", "{out}/pt.csv"],
        ["pt", "{record}", "--alpha-sweep", "0:0.5:3", "--basis", "dct", "-o", "{out}/pt.csv"],
        ["delay", "{record}", "--samples", "0.5", "--basis", "dct", "-o", "{out}/delay.csv"],
        ["repro", "1", "--outdir", "{out}"],
    ], ids=["pt", "pt-sweep", "delay", "repro-1"])
    def test_dct_command_runs_without_scipy(self, tmp_path, command):
        record, out = tmp_path / "in.csv", tmp_path / "out"
        t = np.arange(64) / 8.0
        pkio.write_columns_csv(record, {}, ["t", "value"], [t, np.cos(t)])
        argv = [arg.format(record=record, out=out) for arg in command]
        assert _run_without_scipy(argv) == "0 []"
        assert any(out.rglob("*.csv"))


def test_spectral_imports_nothing_from_phase():
    # phase builds on spectral; spectral holds the transform conventions only
    # and imports no phase module back, at module level or inside a function
    tree = ast.parse(Path(pk.spectral.__file__).read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            found += [(node.lineno, f"{base}.{alias.name}") for alias in node.names]
    assert [(line, name) for line, name in found if "phase" in name.split(".")] == []
    for name in ("analytic_signal", "_periodic_convolve", "_quadrature_kernel", "_delay_kernel"):
        assert not hasattr(pk.spectral, name), name
    assert pk.analytic_signal is pk.phase.analytic_signal


class TestDft2d:
    def test_constant_image_is_dc_only(self):
        grid = pk.dft2d(pk.Image(np.full((4, 4), 2.0)))
        assert abs(grid[0, 0] - 2.0) < 1e-14
        grid[0, 0] = 0
        assert np.max(np.abs(grid)) < 1e-14

    def test_impulse_is_flat(self):
        img = np.zeros((4, 4))
        img[0, 0] = 1.0
        grid = pk.dft2d(img)
        assert np.allclose(grid, 1.0 / 16.0, atol=1e-14)

    def test_round_trip_33x17(self):
        rng = np.random.default_rng(33)
        img = rng.standard_normal((33, 17))
        back = pk.idft2d(pk.dft2d(img))
        assert np.max(np.abs(back.pixels - img)) < 1e-10

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(12)
        img = rng.standard_normal((9, 6))
        assert np.max(np.abs(pk.dft2d(img) - dft2d_direct(img))) < 1e-10

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            pk.dft2d(np.zeros((0, 4)))

    @pytest.mark.parametrize("grid", [np.zeros(4), np.zeros((0, 4)), np.zeros((2, 2, 2))])
    def test_inverse_rejects_a_grid_that_is_not_2d(self, grid):
        with pytest.raises(ValueError, match="idft2d input must be a non-empty 2-D grid"):
            pk.idft2d(grid)


class TestAnalyticSignal:
    def test_cosine_becomes_complex_exponential(self):
        n = 16
        theta = 2 * np.pi * np.arange(n) / n
        z = pk.analytic_signal(np.cos(theta))
        assert np.max(np.abs(z - np.exp(1j * theta))) < 1e-10

    def test_constant_stays_real(self):
        z = pk.analytic_signal(np.full(10, 3.25))
        assert np.allclose(z.real, 3.25, atol=1e-12)
        assert np.max(np.abs(z.imag)) < 1e-12

    def test_quadrature_has_zero_mean(self):
        rng = np.random.default_rng(5)
        z = pk.analytic_signal(rng.standard_normal(200))
        assert abs(np.mean(z.imag)) < 1e-12

    @pytest.mark.parametrize("n", [64, 128])
    def test_negative_frequency_bins_vanish(self, n):
        rng = np.random.default_rng(n)
        z = pk.analytic_signal(rng.standard_normal(n))
        bins = pk.dft(z).bins
        assert np.max(np.abs(bins[n // 2 + 1:])) < 1e-10

    def test_real_part_is_input_and_imag_is_hilbert(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(101)
        z = pk.analytic_signal(x)
        assert np.max(np.abs(z.real - x)) < 1e-10
        assert np.max(np.abs(z.imag - pk.hilbert(x).samples)) < 1e-10


class TestGfrSynthesize:
    def test_identity_modulation_matches_truncated_idft_resynthesis(self):
        rng = np.random.default_rng(8)
        n, n_harmonics = 101, 12
        fs = 50.0
        x = rng.standard_normal(n)
        sig = pk.Signal(x, fs)
        coeffs = pk.harmonic_series(sig, n_harmonics)
        out = pk.gfr_synthesize(coeffs, pk.ModulationSpec.identity(),
                                n_harmonics, sig.times)
        bins = pk.dft(x).bins
        truncated = bins.copy()
        truncated[n_harmonics + 1:n - n_harmonics] = 0.0
        resynth = pk.idft(pk.Spectrum(truncated)).real
        assert np.max(np.abs(out.samples - resynth)) < 1e-8

    def test_case_fourier_single_harmonic(self):
        t = np.arange(100) / 100.0
        coeffs = pk.FourierSeriesCoeffs(0.5, np.array([2.0]), np.array([0.3]),
                                        2 * np.pi * 3.0)
        out = pk.gfr_synthesize(coeffs, pk.ModulationSpec.identity(), 1, t)
        want = 0.5 + 2.0 * np.cos(2 * np.pi * 3.0 * t + 0.3)
        assert np.max(np.abs(out.samples - want)) < 1e-12

    def test_case_am(self):
        t = np.arange(1000) / 1000.0
        message = lambda tt: 0.4 * np.cos(2 * np.pi * 2.0 * tt)
        coeffs = pk.FourierSeriesCoeffs(1.0, np.array([1.5]), np.array([0.2]),
                                        2 * np.pi * 40.0)
        out = pk.gfr_synthesize(
            coeffs, pk.ModulationSpec.amplitude_modulation(message, bias=1.0), 1, t)
        want = (1.0 + message(t)) * 1.5 * np.cos(2 * np.pi * 40.0 * t + 0.2)
        assert np.max(np.abs(out.samples - want)) < 1e-12

    def test_case_pm(self):
        t = np.arange(1000) / 1000.0
        message = lambda tt: 0.8 * np.sin(2 * np.pi * 1.0 * tt)
        coeffs = pk.FourierSeriesCoeffs(0.0, np.array([1.0]), np.array([0.0]),
                                        2 * np.pi * 40.0)
        out = pk.gfr_synthesize(
            coeffs, pk.ModulationSpec.angle_modulation(message), 1, t)
        want = np.cos(2 * np.pi * 40.0 * t - message(t))
        assert np.max(np.abs(out.samples - want)) < 1e-12

    def test_rejects_non_finite_modulation(self):
        coeffs = pk.FourierSeriesCoeffs(1.0, np.array([1.0]), np.array([0.0]), 1.0)
        bad = pk.ModulationSpec(
            c0=lambda t: np.full_like(t, np.inf),
            alpha0=lambda t: np.zeros_like(t),
            ck=lambda k, t: np.ones_like(t),
            alphak=lambda k, t: np.zeros_like(t))
        with pytest.raises(ValueError):
            pk.gfr_synthesize(coeffs, bad, 1, np.arange(4.0))

    def test_overflowing_sum_is_floating_point_error(self):
        coeffs = pk.FourierSeriesCoeffs(1e308, np.array([1e308]), np.array([0.0]), 1.0)
        with pytest.raises(FloatingPointError):
            pk.gfr_synthesize(coeffs, pk.ModulationSpec.identity(), 1, np.arange(4.0))

    def test_overflowing_callback_is_floating_point_error(self):
        coeffs = pk.FourierSeriesCoeffs(0.0, np.array([1.0]), np.array([0.0]), 1.0)
        am = pk.ModulationSpec.amplitude_modulation(lambda t: np.full_like(t, 1e308), bias=1e308)
        with pytest.raises(FloatingPointError):
            pk.gfr_synthesize(coeffs, am, 1, np.arange(4.0))

    def test_rejects_non_uniform_grid(self):
        coeffs = pk.FourierSeriesCoeffs(1.0, np.array([1.0]), np.array([0.0]), 1.0)
        with pytest.raises(ValueError):
            pk.gfr_synthesize(coeffs, pk.ModulationSpec.identity(), 1,
                              np.array([0.0, 1.0, 3.0]))

    def test_rejects_too_many_harmonics(self):
        coeffs = pk.FourierSeriesCoeffs(1.0, np.array([1.0]), np.array([0.0]), 1.0)
        with pytest.raises(ValueError):
            pk.gfr_synthesize(coeffs, pk.ModulationSpec.identity(), 2, np.arange(4.0))


class TestDomainTypes:
    def test_signal_validation(self):
        with pytest.raises(ValueError):
            pk.Signal(np.array([]))
        with pytest.raises(ValueError):
            pk.Signal(np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            pk.Signal(np.ones(4), sample_rate=0.0)

    def test_spectrum_validation(self):
        with pytest.raises(ValueError):
            pk.Spectrum(np.ones(3), origin="mdct")

    @pytest.mark.parametrize("bins", [np.ones((2, 2)), np.ones(0)], ids=["2-D", "empty"])
    def test_spectrum_rejects_bins_that_are_not_a_sequence(self, bins):
        with pytest.raises(ValueError, match="spectrum must be a non-empty 1-D sequence"):
            pk.Spectrum(bins)

    def test_image_validation(self):
        with pytest.raises(ValueError):
            pk.Image(np.ones(3))
        with pytest.raises(ValueError):
            pk.Image(np.array([[1.0, np.inf]]))

    def test_harmonic_series_limits(self):
        sig = pk.Signal(np.ones(10))
        with pytest.raises(ValueError):
            pk.harmonic_series(sig, 5)

    def test_fourier_series_coeffs_validation(self):
        with pytest.raises(ValueError):
            pk.FourierSeriesCoeffs(0.0, np.array([-1.0]), np.array([0.0]), 1.0)
        with pytest.raises(ValueError):
            pk.FourierSeriesCoeffs(0.0, np.array([1.0]), np.array([0.0]), -2.0)

    @pytest.mark.parametrize("amplitudes, phases, message", [
        ([1.0, 2.0], [0.0], "amplitudes and phases must be 1-D and equal length"),
        ([[1.0]], [[0.0]], "amplitudes and phases must be 1-D and equal length"),
        ([1.0], [np.nan], "harmonic phases must be finite"),
        ([1.0], [np.inf], "harmonic phases must be finite")])
    def test_fourier_series_coeffs_rejects_bad_phases(self, amplitudes, phases, message):
        with pytest.raises(ValueError, match=message):
            pk.FourierSeriesCoeffs(0.0, np.array(amplitudes), np.array(phases), 1.0)


def _aliased_grid():
    spec = pk.MorseWavelet()
    return pk.ScaleGrid(np.array([0.1, 1.0, 10.0]) * spec.peak_omega / np.pi), spec


def _uncovered_trend():
    # a trend far beyond a grid made for 64 samples leaves a large residual
    spec = pk.MorseWavelet()
    return pk.Signal(np.linspace(-1.0, 1.0, 400), 10.0), pk.ScaleGrid.default(64, spec), spec


@pytest.mark.parametrize("call", [
    pytest.param(lambda: pk.awt(np.ones(64), *_aliased_grid()), id="awt-aliased"),
    pytest.param(lambda: pk.wavelet_analytic_signal(np.ones(64), *_aliased_grid()),
                 id="analytic-aliased"),
    pytest.param(lambda: pk.wavelet_analytic_signal(*_uncovered_trend()), id="analytic-residual"),
    pytest.param(lambda: pk.wpt(np.ones(64), 0.5, *_aliased_grid()), id="wpt-aliased"),
    pytest.param(lambda: pk.wpt(_uncovered_trend()[0], 0.5, *_uncovered_trend()[1:]),
                 id="wpt-residual"),
    pytest.param(lambda: pk.wqt(np.ones(64), *_aliased_grid()), id="wqt-aliased"),
    pytest.param(lambda: pk.wqt(*_uncovered_trend()), id="wqt-residual"),
    pytest.param(lambda: pk.frac_differintegrate(pk.Signal(np.full(16, 2.0)), 0.5),
                 id="differint-mean"),
])
def test_library_warnings_name_the_callers_line(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call()
    assert caught and all(w.category is RuntimeWarning for w in caught)
    assert [w.filename for w in caught] == [__file__] * len(caught)
