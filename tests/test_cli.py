"""End-to-end tests of the command-line interface."""
import json
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import phasekit as pk
import phasekit.cli as cli
import phasekit.io as pkio
from phasekit.cli import MAX_SWEEP_STEPS, main
from test_io import CSV_BYTES, PGM_BYTES, run_with_file_limit


@pytest.fixture()
def gauss_csv(tmp_path):
    t = np.arange(100) / 10.0
    x = np.exp(-(t - 5.0) ** 2)
    path = tmp_path / "gauss.csv"
    pkio.write_columns_csv(path, {}, ["t", "value"], [t, x])
    return path


@pytest.fixture()
def wave_pgm(tmp_path):
    m, n = np.meshgrid(np.arange(32), np.arange(32), indexing="ij")
    wave = np.cos(2 * np.pi * (3 * m + 5 * n) / 32)
    path = tmp_path / "wave.pgm"
    pkio.write_pgm(path, pkio.pgm_preview(wave), maxval=255)
    return path


class TestPtCommand:
    def test_zero_alpha_is_identity(self, gauss_csv, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["pt", str(gauss_csv), "--alpha", "0", "-o", str(out)]) == 0
        _, names, cols = pkio.read_columns_csv(out)
        assert names == ["t", "original", "transformed"]
        assert np.max(np.abs(cols[1] - cols[2])) < 1e-10

    def test_quarter_turn_matches_hilbert(self, gauss_csv, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["pt", str(gauss_csv), "--alpha", "1.5707963267948966",
                     "-o", str(out)]) == 0
        _, _, cols = pkio.read_columns_csv(out)
        want = pk.hilbert(pk.Signal(cols[1], 10.0)).samples
        assert np.max(np.abs(cols[2] - want)) < 1e-12

    def test_sweep_mode_emits_one_column_per_step(self, gauss_csv, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["pt", str(gauss_csv), "--alpha-sweep", "0:0.157:6.283",
                     "-o", str(out)]) == 0
        _, names, cols = pkio.read_columns_csv(out)
        assert len(names) == 2 + 41  # t, original, 41 sweep steps
        assert names[2].startswith("alpha_0.000000")

    def test_dct_basis(self, gauss_csv, tmp_path):
        out = tmp_path / "dct.csv"
        assert main(["pt", str(gauss_csv), "--alpha", "0.9", "--basis", "dct",
                     "-o", str(out)]) == 0
        _, _, cols = pkio.read_columns_csv(out)
        want = pk.pt_dct(pk.Signal(cols[1], 10.0), pk.PhaseProfile.constant(0.9))
        assert np.max(np.abs(cols[2] - want.samples)) < 1e-12

    def test_per_bin_file(self, gauss_csv, tmp_path):
        phases = np.linspace(0, np.pi, 51)
        pfile = tmp_path / "phases.csv"
        pkio.write_columns_csv(pfile, {}, ["alpha"], [phases])
        out = tmp_path / "pb.csv"
        assert main(["pt", str(gauss_csv), "--alpha-per-bin", str(pfile),
                     "-o", str(out)]) == 0
        _, _, cols = pkio.read_columns_csv(out)
        want = pk.pt_dft(pk.Signal(cols[1], 10.0), pk.PhaseProfile.per_bin(phases))
        assert np.max(np.abs(cols[2] - want.samples)) < 1e-12

    def test_requires_some_alpha(self, gauss_csv):
        assert main(["pt", str(gauss_csv)]) == 3

    def test_header_records_parameters(self, gauss_csv, tmp_path):
        out = tmp_path / "h.csv"
        main(["pt", str(gauss_csv), "--alpha", "0.25", "-o", str(out)])
        header, _, _ = pkio.read_columns_csv(out)
        assert header["tool"].startswith("phasekit ")
        assert header["command"] == "pt"
        assert header["alpha"] == "0.25"
        assert header["basis"] == "dft"

    def test_byte_identical_reruns(self, gauss_csv, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["pt", str(gauss_csv), "--alpha", "0.77", "-o", str(a)])
        main(["pt", str(gauss_csv), "--alpha", "0.77", "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestDelayCommand:
    def test_zero_delay_is_identity(self, gauss_csv, tmp_path):
        out = tmp_path / "d0.csv"
        assert main(["delay", str(gauss_csv), "--samples", "0", "-o", str(out)]) == 0
        _, _, cols = pkio.read_columns_csv(out)
        assert np.max(np.abs(cols[1] - cols[2])) < 1e-10

    def test_integer_delay_is_circular_shift(self, gauss_csv, tmp_path):
        out = tmp_path / "d3.csv"
        assert main(["delay", str(gauss_csv), "--samples", "3", "-o", str(out)]) == 0
        _, _, cols = pkio.read_columns_csv(out)
        assert np.max(np.abs(cols[2] - np.roll(cols[1], 3))) < 1e-10

    def test_wav_input(self, tmp_path):
        x = np.sin(2 * np.pi * 5 * np.arange(200) / 100.0)
        pkio.write_wav(tmp_path / "tone.wav", pk.Signal(x, 100.0))
        out = tmp_path / "delayed.csv"
        assert main(["delay", str(tmp_path / "tone.wav"), "--samples", "0.5",
                     "-o", str(out)]) == 0
        _, _, cols = pkio.read_columns_csv(out)
        assert cols[0][1] == pytest.approx(0.01)  # 100 Hz rate carried through


class TestDifferintCommand:
    def test_first_derivative_of_sine(self, tmp_path):
        t = np.arange(1000) / 1000.0
        pkio.write_columns_csv(tmp_path / "sine.csv", {}, ["t", "value"],
                               [t, np.sin(2 * np.pi * t)])
        out = tmp_path / "deriv.csv"
        assert main(["differint", str(tmp_path / "sine.csv"), "--order", "1",
                     "-o", str(out)]) == 0
        _, _, cols = pkio.read_columns_csv(out)
        truth = 2 * np.pi * np.cos(2 * np.pi * t)
        win = slice(50, 950)
        err = np.linalg.norm(cols[2][win] - truth[win]) / np.linalg.norm(truth[win])
        assert err < 1e-6

    def test_numeric_failure_exit_code(self, gauss_csv, tmp_path):
        # an absurd order overflows the kernel to infinity
        code = main(["differint", str(gauss_csv), "--order", "400",
                     "-o", str(tmp_path / "x.csv")])
        assert code == 4

    def test_warning_is_one_line_without_a_source_location(self, tmp_path):
        path = tmp_path / "offset.csv"
        pkio.write_columns_csv(path, {}, ["t", "value"], [np.arange(64.0), np.full(64, 2.0)])
        argv = ["differint", str(path), "--order", "0.5", "-o", str(tmp_path / "out.csv")]
        proc = subprocess.run([sys.executable, "-m", "phasekit", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stderr == ("phasekit: RuntimeWarning: mean term of a fractional derivative "
                               "diverges at t = 0; that sample's contribution was set to zero\n")
        # in process, main restores the format and pytest.warns still records
        before = warnings.formatwarning
        with pytest.warns(RuntimeWarning, match="mean term"):
            assert main(argv) == 0
        assert warnings.formatwarning is before


class TestWptCommand:
    def test_gamma_four_runs(self, tmp_path):
        t = np.arange(600) / 100.0
        pkio.write_columns_csv(tmp_path / "tone.csv", {}, ["t", "value"],
                               [t, np.cos(2 * np.pi * 2.0 * t)])
        out = tmp_path / "wpt.csv"
        assert main(["wpt", str(tmp_path / "tone.csv"), "--alpha", "0.5",
                     "--gamma", "4", "-o", str(out)]) == 0
        header, _, cols = pkio.read_columns_csv(out)
        assert header["gamma"] == "4"
        assert np.all(np.isfinite(cols[2]))

    def test_record_too_short_for_a_scale_grid_is_argument_error(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        pkio.write_columns_csv(path, {}, ["t", "value"], [np.arange(4.0), np.ones(4)])
        out = tmp_path / "out.csv"
        assert main(["wpt", str(path), "--alpha", "0.5", "-o", str(out)]) == 3
        assert "more than 4 samples" in capsys.readouterr().err
        assert not out.exists()


class TestImagePtCommand:
    def test_quadrature_of_plane_wave(self, wave_pgm, tmp_path):
        out = tmp_path / "out.csv"
        preview = tmp_path / "out.pgm"
        assert main(["image-pt", str(wave_pgm), "--alpha", "1.5707963267948966",
                     "-o", str(out), "--preview", str(preview)]) == 0
        result = pkio.read_grid_csv(out)
        source = pkio.read_pgm(wave_pgm)
        want = pk.pt2d(source, np.pi / 2).pixels
        assert np.max(np.abs(result.pixels - want)) < 1e-9
        assert preview.exists()
        assert pkio.read_pgm(preview).pixels.max() == 255

    def test_csv_grid_input(self, tmp_path):
        rng = np.random.default_rng(0)
        pixels = rng.standard_normal((8, 8))
        pkio.write_grid_csv(tmp_path / "g.csv", {}, pixels)
        out = tmp_path / "gout.csv"
        assert main(["image-pt", str(tmp_path / "g.csv"), "--alpha", "0",
                     "-o", str(out)]) == 0
        assert np.max(np.abs(pkio.read_grid_csv(out).pixels - pixels)) < 1e-10


class TestSynthCommand:
    def test_fourier_case(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["synth", "--case", "fourier", "--carrier-freq", "3",
                     "--amplitude", "2", "--mean", "0.5", "--rate", "100",
                     "--duration", "1", "-o", str(out)]) == 0
        _, _, cols = pkio.read_columns_csv(out)
        t = np.arange(100) / 100.0
        want = 0.5 + 2.0 * np.cos(2 * np.pi * 3.0 * t)
        assert np.max(np.abs(cols[1] - want)) < 1e-12

    def test_am_and_pm_cases_run(self, tmp_path):
        for case in ("am", "pm"):
            out = tmp_path / f"{case}.csv"
            assert main(["synth", "--case", case, "--rate", "200",
                         "--duration", "0.5", "-o", str(out)]) == 0
            _, _, cols = pkio.read_columns_csv(out)
            assert np.all(np.isfinite(cols[1]))


class TestReproCommand:
    def test_example_3_artifacts_and_summary(self, tmp_path):
        assert main(["repro", "3", "--outdir", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "example3" / "summary.json").read_text())
        assert summary["gaussian_max_abs_error"] < 1e-9
        assert summary["cosine_max_abs_error"] < 1e-12
        _, names, cols = pkio.read_columns_csv(tmp_path / "example3" / "gaussian_delay.csv")
        assert names == ["t", "original", "delayed", "truth", "error"]

    def test_example_2_shows_dft_dct_gap(self, tmp_path):
        assert main(["repro", "2", "--outdir", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "example2" / "summary.json").read_text())
        assert summary["max_abs_dft_dct_gap"] > 0.1

    def test_rejects_unknown_example(self, tmp_path):
        assert main(["repro", "9", "--outdir", str(tmp_path)]) == 3


class TestErrorPaths:
    def test_missing_input_file_is_io_error(self, tmp_path):
        assert main(["pt", str(tmp_path / "nope.csv"), "--alpha", "0"]) == 2

    def test_unparseable_input_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\nfoo,bar\n")
        assert main(["pt", str(bad), "--alpha", "0"]) == 2

    def test_bad_sweep_spec_is_argument_error(self, gauss_csv, tmp_path):
        out = tmp_path / "x.csv"
        for spec in ("0:-1:5", "0:1:inf", "nan:1:2", "0:inf:5", "-inf:1:0", "-1e308:1e-300:1e308"):
            assert main(["pt", str(gauss_csv), "--alpha-sweep", spec, "-o", str(out)]) == 3
        assert not out.exists()

    def test_sweep_step_cap_is_checked_before_allocating(self, gauss_csv, tmp_path):
        # 0:1e-9:6.28 would be about 6e9 columns
        out = tmp_path / "x.csv"
        tracemalloc.start()
        try:
            code = main(["pt", str(gauss_csv), "--alpha-sweep", "0:1e-9:6.28", "-o", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3
        assert peak < 4e6
        assert not out.exists()

    def test_sweep_cap_is_inclusive(self, gauss_csv, tmp_path):
        out = tmp_path / "x.csv"
        assert main(["pt", str(gauss_csv), "--alpha-sweep", f"0:1:{MAX_SWEEP_STEPS}",
                     "-o", str(out)]) == 3
        assert main(["pt", str(gauss_csv), "--alpha-sweep", f"0:1:{MAX_SWEEP_STEPS - 1}",
                     "-o", str(out)]) == 0
        _, names, _ = pkio.read_columns_csv(out)
        assert len(names) == 2 + MAX_SWEEP_STEPS

    @pytest.mark.parametrize("head", [b"P5 99999999999 99999999999 255\n", b"P5\n-2 -2\n255\n"])
    def test_hostile_pgm_size_is_io_error(self, tmp_path, head):
        path = tmp_path / "bad.pgm"
        path.write_bytes(head + bytes(16))
        assert main(["image-pt", str(path), "--alpha", "0.5",
                     "-o", str(tmp_path / "x.csv")]) == 2

    def test_unknown_flag_is_argument_error(self, gauss_csv, capsys):
        assert main(["pt", str(gauss_csv), "--frobnicate"]) == 3
        capsys.readouterr()

    def test_non_finite_alpha_is_argument_error(self, gauss_csv, tmp_path):
        assert main(["pt", str(gauss_csv), "--alpha", "nan",
                     "-o", str(tmp_path / "x.csv")]) == 3

    @pytest.mark.parametrize("command", [["pt", "--alpha", "0.5"], ["delay", "--samples", "0.5"],
                                         ["pt", "--alpha-sweep", "0:0.5:3"],
                                         ["image-pt", "--alpha", "0.5"],
                                         ["pt", "--alpha", "0.5", "--basis", "dct"],
                                         ["pt", "--alpha-sweep", "0:0.5:3", "--basis", "dct"],
                                         ["delay", "--samples", "0.5", "--basis", "dct"],
                                         ["wpt", "--alpha", "0.5"]])
    def test_overflowing_samples_are_numeric_failure(self, command, tmp_path, capsys):
        # finite samples whose spectrum overflows
        path = tmp_path / "huge.csv"
        x = np.where(np.arange(64) % 2 == 0, 1e308, -1e308)
        if command[0] == "image-pt":
            pkio.write_grid_csv(path, {}, x.reshape(8, 8))
        else:
            pkio.write_columns_csv(path, {}, ["t", "value"], [np.arange(64.0), x])
        out = tmp_path / "out.csv"
        assert main([command[0], str(path), *command[1:], "-o", str(out)]) == 4
        assert "numeric failure" in capsys.readouterr().err
        assert not out.exists()

    def test_synth_overflow_is_numeric_failure(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main(["synth", "--amplitude", "1e308", "--mean", "1e308", "-o", str(out)]) == 4
        assert "numeric failure" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--amplitude", "1e308", "--mean", "1e308"],
        # finite flags whose AM envelope bias + message overflows in its callback
        ["--case", "am", "--bias", "1e308", "--message-amp", "1e308"],
    ])
    def test_synth_overflow_exits_4_without_warning(self, tmp_path, flags):
        out = tmp_path / "out.csv"
        proc = subprocess.run([sys.executable, "-m", "phasekit", "synth", *flags, "-o", str(out)],
                              capture_output=True, text=True)
        assert proc.returncode == 4
        assert "numeric failure" in proc.stderr
        assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("order, own_warning, rate", [
        # the mean term t^200 overflows
        pytest.param("-200", False, 1.0, id="-200-False"),
        # Gamma(1 - 200.5) underflows to 0, so 1/Gamma is inf, not a division error
        pytest.param("200.5", True, 1.0, id="200.5-True"),
        # the physical scale 8000^200 overflows before the gain is applied
        pytest.param("200", False, 8000.0, id="200-False-8000Hz"),
    ])
    def test_differint_overflow_exits_4_without_numpy_warning(self, tmp_path, order, own_warning,
                                                              rate):
        path = tmp_path / "ones.csv"
        pkio.write_columns_csv(path, {}, ["t", "value"], [np.arange(100.0) / rate, np.ones(100)])
        out = tmp_path / "out.csv"
        proc = subprocess.run([sys.executable, "-m", "phasekit", "differint", str(path),
                               "--order", order, "-o", str(out)],
                              capture_output=True, text=True)
        assert proc.returncode == 4
        assert "differintegration produced non-finite values" in proc.stderr
        assert "Traceback" not in proc.stderr and "encountered in" not in proc.stderr
        # phasekit's own warning about the divergent mean term of a derivative
        assert ("RuntimeWarning" in proc.stderr) == own_warning
        assert not out.exists()

    def test_overflowing_time_step_is_io_error_without_warning(self, tmp_path):
        path = tmp_path / "huge_t.csv"
        path.write_text("t,x\n-1e308,1\n1e308,2\n")
        out = tmp_path / "out.csv"
        proc = subprocess.run([sys.executable, "-m", "phasekit", "pt", str(path),
                               "--alpha", "1", "-o", str(out)],
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert "not uniformly increasing" in proc.stderr
        assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["wpt", "{input}", "--alpha", "inf"],
        # each would allocate terabytes or more; the bounds reject them first
        ["wpt", "{input}", "--alpha", "0.5", "--voices", "1000000000000"],
        ["synth", "--duration", "inf"],
        ["synth", "--duration", "1e12"],
        ["synth", "--rate", "1e300", "--duration", "1e300"],
    ])
    def test_bad_or_oversized_argument_is_argument_error(self, gauss_csv, tmp_path, command):
        out = tmp_path / "out.csv"
        argv = [str(gauss_csv) if arg == "{input}" else arg for arg in command]
        tracemalloc.start()
        try:
            code = main([*argv, "-o", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3
        assert peak < 4e6
        assert not out.exists()

    def test_memory_error_is_numeric_failure(self, gauss_csv, tmp_path, monkeypatch, capsys):
        def exhausted(*args):
            raise MemoryError("cannot allocate")
        monkeypatch.setattr(cli, "pt_dft", exhausted)
        assert main(["pt", str(gauss_csv), "--alpha", "0.5", "-o", str(tmp_path / "x.csv")]) == 4
        assert "numeric failure" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        pytest.param(["pt", "{record}", "--alpha", "0.3"], id="pt"),
        pytest.param(["pt", "{record}", "--alpha-sweep", "0:0.5:3"], id="pt-sweep"),
        pytest.param(["delay", "{record}", "--samples", "0.5"], id="delay"),
        pytest.param(["differint", "{record}", "--order", "0.5"], id="differint"),
        pytest.param(["wpt", "{record}", "--alpha", "0.5"], id="wpt"),
        pytest.param(["image-pt", "{grid}", "--alpha", "0.5"], id="image-pt"),
        pytest.param(["synth", "--duration", "10"], id="synth"),
        pytest.param(["repro", "1"], id="repro-1"),
        pytest.param(["repro", "5"], id="repro-5"),
    ])
    def test_failed_write_leaves_no_partial_output(self, command, tmp_path):
        # every output is ten or more times the file-size limit
        rng = np.random.default_rng(1)
        record, grid = tmp_path / "record.csv", tmp_path / "grid.csv"
        pkio.write_columns_csv(record, {}, ["t", "value"],
                               [np.arange(20000) / 1000.0, rng.standard_normal(20000)])
        pkio.write_grid_csv(grid, {}, rng.standard_normal((128, 128)))
        argv = [arg.format(record=record, grid=grid) for arg in command]
        out = tmp_path / "out"
        flag = "--outdir" if command[0] == "repro" else "-o"
        proc = run_with_file_limit(["-m", "phasekit", *argv, flag, str(out)])
        assert proc.returncode == 2
        assert "File too large" in proc.stderr and "Traceback" not in proc.stderr
        if command[0] != "repro":
            assert not out.exists()
            return
        # the message names the artifact whose write failed
        written = out / f"example{command[1]}"
        assert f"File too large: '{written}{os.sep}" in proc.stderr
        # each artifact is complete or absent, and the summary is never written
        assert main([*argv, "--outdir", str(tmp_path / "whole")]) == 0
        assert not (written / "summary.json").exists()
        for path in written.iterdir():
            whole = tmp_path / "whole" / written.name / path.name
            assert path.read_bytes() == whole.read_bytes()

    def test_failed_write_through_a_symlink_keeps_the_symlink(self, tmp_path):
        record = tmp_path / "record.csv"
        pkio.write_columns_csv(record, {}, ["t", "value"],
                               [np.arange(20000) / 1000.0, np.ones(20000)])
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("old\n")
        link.symlink_to(target)
        proc = run_with_file_limit(["-m", "phasekit", "pt", str(record), "--alpha", "0.3",
                                    "-o", str(link)])
        assert proc.returncode == 2 and "Traceback" not in proc.stderr
        assert link.is_symlink() and target.exists()

    def test_failed_write_leaves_special_and_untouched_files(self, gauss_csv, tmp_path):
        # a device and a directory are not removed; neither is a file the
        # writer never opened (a sample rate that fits no WAV header)
        targets = [tmp_path]
        if os.path.exists("/dev/full"):
            targets.append(Path("/dev/full"))
        for target in targets:
            assert main(["pt", str(gauss_csv), "--alpha", "0.3", "-o", str(target)]) == 2
            assert target.exists()
        kept = tmp_path / "kept.wav"
        kept.write_bytes(b"old")
        with pytest.raises(ValueError, match="whole number of Hz"):
            cli._write(kept, pkio.write_wav, pk.Signal(np.zeros(4), 0.5))
        assert kept.read_bytes() == b"old"

    def test_truncated_wav_is_io_error_without_traceback(self, tmp_path):
        # the fmt chunk announces 16 bytes but holds 6
        path = tmp_path / "short.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", 18) + b"WAVE"
                         + b"fmt " + struct.pack("<I", 16) + bytes(6))
        assert path.stat().st_size == 26
        proc = subprocess.run([sys.executable, "-m", "phasekit", "pt", str(path),
                               "--alpha", "0.5", "-o", str(tmp_path / "x.csv")],
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr


class TestHeaders:
    """The exact header lines of each command: keys, order and text."""

    @pytest.mark.parametrize("argv, params", [
        (["pt", "gauss.csv", "--alpha", "0.1"],
         ["input = gauss.csv", "basis = dft", "sample_rate = 10", "alpha = 0.10000000000000001"]),
        (["pt", "gauss.csv", "--alpha-per-bin", "phases.csv"],
         ["input = gauss.csv", "basis = dft", "sample_rate = 10", "alpha_per_bin = phases.csv"]),
        (["pt", "gauss.csv", "--alpha-sweep", "0:0.5:3", "--basis", "dct"],
         ["input = gauss.csv", "basis = dct", "sample_rate = 10", "alpha_sweep = 0:0.5:3"]),
        (["delay", "gauss.csv", "--samples", "2.5", "--basis", "dct"],
         ["input = gauss.csv", "basis = dct", "samples = 2.5", "sample_rate = 10"]),
        (["differint", "gauss.csv", "--order", "0.3", "--no-dc-term"],
         ["input = gauss.csv", "order = 0.29999999999999999", "scaling = physical",
          "dc_term = false", "sample_rate = 10"]),
        (["differint", "gauss.csv", "--order", "-1", "--scaling", "normalized"],
         ["input = gauss.csv", "order = -1", "scaling = normalized", "dc_term = true",
          "sample_rate = 10"]),
        (["wpt", "gauss.csv", "--alpha", "0.5", "--voices", "4"],
         ["input = gauss.csv", "alpha = 0.5", "beta = 20", "gamma = 3", "voices = 4",
          "sample_rate = 10"]),
        (["image-pt", "wave.pgm", "--alpha", "0.1"],
         ["input = wave.pgm", "alpha = 0.10000000000000001", "rows = 32", "cols = 32"]),
        (["synth", "--case", "pm", "--rate", "100", "--duration", "0.5"],
         ["case = pm", "carrier_freq = 10", "amplitude = 1", "phase = 0", "mean = 0",
          "message_freq = 1", "message_amp = 0.5", "bias = 1", "rate = 100",
          "duration = 0.5"]),
    ])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_header_lines(self, gauss_csv, wave_pgm, tmp_path, monkeypatch, argv, params):
        monkeypatch.chdir(tmp_path)
        pkio.write_columns_csv("phases.csv", {}, ["alpha"], [np.linspace(0, 1, 51)])
        assert main([*argv, "-o", "out.csv"]) == 0
        lines = [line for line in (tmp_path / "out.csv").read_text().splitlines()
                 if line.startswith("#")]
        assert lines == [f"# tool = phasekit {pk.__version__}", f"# command = {argv[0]}",
                         *(f"# {param}" for param in params)]

    def test_input_path_that_is_not_utf8_is_recorded_as_its_bytes(self, gauss_csv, tmp_path):
        data = gauss_csv.read_bytes()
        outputs = {}
        for name in (b"good.csv", b"bad\xff.csv"):
            path = os.fsencode(tmp_path) + b"/" + name
            with open(path, "wb") as fh:
                fh.write(data)
            proc = subprocess.run([sys.executable, "-m", "phasekit", "pt", path, "--alpha", "0.3",
                                   "-o", path + b".out"], capture_output=True)
            assert proc.returncode == 0, proc.stderr
            with open(path + b".out", "rb") as fh:
                outputs[name] = fh.read().splitlines()
        assert b"# input = " + os.fsencode(tmp_path) + b"/bad\xff.csv" in outputs[b"bad\xff.csv"]
        assert [line for line in outputs[b"bad\xff.csv"] if not line.startswith(b"#")] \
            == [line for line in outputs[b"good.csv"] if not line.startswith(b"#")]
        # phasekit reads its own output back
        header, _, _ = pkio.read_columns_csv(os.fsencode(tmp_path) + b"/bad\xff.csv.out")
        assert header["input"] == os.fsdecode(os.fsencode(tmp_path) + b"/bad\xff.csv")


class TestArbitraryInput:
    """Any input file ends in exit 0, 2, 3 or 4: never a traceback."""

    @given(raw=CSV_BYTES)
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_pt_exits_within_contract(self, tmp_path_factory, raw):
        path = tmp_path_factory.mktemp("pt") / "any.csv"
        path.write_bytes(raw)
        code = main(["pt", str(path), "--alpha", "0.5", "-o", str(path.with_name("out.csv"))])
        assert code in (0, 2, 3, 4)

    @given(raw=CSV_BYTES | PGM_BYTES, suffix=st.sampled_from([".csv", ".pgm"]))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_image_pt_exits_within_contract(self, tmp_path_factory, raw, suffix):
        path = tmp_path_factory.mktemp("image") / f"any{suffix}"
        path.write_bytes(raw)
        code = main(["image-pt", str(path), "--alpha", "0.5",
                     "-o", str(path.with_name("out.csv"))])
        assert code in (0, 2, 3, 4)

    @given(flag=st.sampled_from([
        ("delay", "--samples"), ("differint", "--order"), ("wpt", "--alpha"),
        ("wpt", "--beta"), ("wpt", "--gamma"), ("wpt", "--voices"),
        ("synth", "--carrier-freq"), ("synth", "--amplitude"), ("synth", "--phase"),
        ("synth", "--mean"), ("synth", "--message-freq"), ("synth", "--message-amp"),
        ("synth", "--bias"), ("synth", "--rate"), ("synth", "--duration")]),
        value=st.floats() | st.integers(-10, 10 ** 30),
        case=st.sampled_from(["fourier", "am", "pm"]))
    @settings(max_examples=150, deadline=None, derandomize=True)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_flags_exit_within_contract(self, tmp_path_factory, flag, value, case):
        command, name = flag
        if name == "--voices":
            value = int(value) if np.isfinite(value) else value
        elif name in ("--rate", "--duration"):
            # 100 samples by default; valid sizes up to the 2^24 cap cost seconds each
            assume(not 1e4 < abs(value) * 100 <= 2 ** 24 + 1)
        base = {"delay": ["--samples", "0.5"], "differint": ["--order", "0.5"],
                "wpt": ["--alpha", "0.5"],
                "synth": ["--case", case, "--rate", "100", "--duration", "1"]}[command]
        directory = tmp_path_factory.mktemp(command)
        argv = [command, *base, name, str(value), "-o", str(directory / "out.csv")]
        if command != "synth":
            t = np.arange(64) / 8.0
            pkio.write_columns_csv(directory / "in.csv", {}, ["t", "value"], [t, np.cos(t)])
            argv.insert(1, str(directory / "in.csv"))
        assert main(argv) in (0, 3, 4)


class TestConfigAndEnvironment:
    def test_config_supplies_defaults(self, gauss_csv, tmp_path):
        config = tmp_path / "conf.txt"
        config.write_text("alpha = 0.5\nbasis = dct\n")
        out = tmp_path / "c.csv"
        assert main(["pt", str(gauss_csv), "--config", str(config),
                     "-o", str(out)]) == 0
        header, _, _ = pkio.read_columns_csv(out)
        assert header["alpha"] == "0.5"
        assert header["basis"] == "dct"

    def test_flags_override_config(self, gauss_csv, tmp_path):
        config = tmp_path / "conf.txt"
        config.write_text("alpha = 0.5\nbasis = dct\n")
        out = tmp_path / "c.csv"
        # a flag wins even when it repeats the flag's default
        assert main(["pt", str(gauss_csv), "--config", str(config),
                     "--alpha", "1.25", "--basis", "dft", "-o", str(out)]) == 0
        header, _, _ = pkio.read_columns_csv(out)
        assert header["alpha"] == "1.25"
        assert header["basis"] == "dft"

    def test_config_sweep_equals_flag(self, gauss_csv, tmp_path):
        config = tmp_path / "conf.txt"
        config.write_text("alpha_sweep = 0:0.5:3\n")
        from_config, from_flag = tmp_path / "c.csv", tmp_path / "f.csv"
        assert main(["pt", str(gauss_csv), "--config", str(config), "-o", str(from_config)]) == 0
        assert main(["pt", str(gauss_csv), "--alpha-sweep", "0:0.5:3", "-o", str(from_flag)]) == 0
        assert from_config.read_bytes() == from_flag.read_bytes()

    @pytest.mark.parametrize("command, line, message", [
        # a string flag's value reaches the same check as the flag
        (["pt", "--alpha", "0.5"], "alpha_sweep = 5", "sweep must be start:step:stop"),
        (["pt", "--alpha", "0.5"], "basis = fft", "config key basis"),
        (["differint", "--order", "0.5"], "scaling = foo", "config key scaling"),
        (["differint", "--order", "0.5"], "no_dc_term = maybe", "config key no_dc_term"),
        (["wpt", "--alpha", "0.5"], "voices = 2.5", "config key voices"),
    ])
    def test_bad_config_value_is_argument_error(self, gauss_csv, tmp_path, capsys,
                                                command, line, message):
        config = tmp_path / "conf.txt"
        config.write_text(line + "\n")
        out = tmp_path / "out.csv"
        assert main([command[0], str(gauss_csv), *command[1:], "--config", str(config),
                     "-o", str(out)]) == 3
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    def test_config_is_read_as_utf8(self, gauss_csv, tmp_path, capsys):
        # a Latin-1 byte in a comment is skipped with the comment
        config = tmp_path / "conf.txt"
        config.write_bytes(b"# caf\xe9 settings\nalpha = 0.5\n")
        out = tmp_path / "out.csv"
        assert main(["pt", str(gauss_csv), "--config", str(config), "-o", str(out)]) == 0
        assert pkio.read_columns_csv(out)[0]["alpha"] == "0.5"
        # inside a value it fails that value's check, which names the key
        config.write_bytes(b"alpha = 0.5\xe9\n")
        out.unlink()
        assert main(["pt", str(gauss_csv), "--config", str(config), "-o", str(out)]) == 3
        err = capsys.readouterr().err
        assert "config key alpha" in err and "Traceback" not in err
        assert not out.exists()

    def test_config_output_is_a_path(self, gauss_csv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "conf.txt"
        config.write_text("output = 7\n")
        assert main(["pt", str(gauss_csv), "--alpha", "0.5", "--config", str(config)]) == 0
        header, _, _ = pkio.read_columns_csv(tmp_path / "7")
        assert header["alpha"] == "0.5"

    def test_outdir_environment_variable(self, gauss_csv, tmp_path, monkeypatch):
        outdir = tmp_path / "results"
        outdir.mkdir()
        monkeypatch.setenv("PHASEKIT_OUTDIR", str(outdir))
        assert main(["pt", str(gauss_csv), "--alpha", "0.1"]) == 0
        assert (outdir / "gauss_pt.csv").exists()


def test_module_entry_point_reports_version():
    proc = subprocess.run([sys.executable, "-m", "phasekit", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "phasekit" in proc.stdout
