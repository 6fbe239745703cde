"""Tests for the CSV / WAV / PGM readers and writers."""
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phasekit.io as pkio
from phasekit import Image, Signal


class TestColumnsCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        t = np.arange(64) / 10.0
        x = rng.standard_normal(64) * 1e3
        path = tmp_path / "sig.csv"
        pkio.write_columns_csv(path, {"tool": "phasekit test", "alpha": "0.5"},
                               ["t", "value"], [t, x])
        header, names, cols = pkio.read_columns_csv(path)
        assert header["alpha"] == "0.5"
        assert names == ["t", "value"]
        assert np.array_equal(cols[0], t)   # 17 significant digits round-trip
        assert np.array_equal(cols[1], x)

    def test_signal_round_trip_infers_rate(self, tmp_path):
        sig = Signal(np.sin(np.arange(100)), 250.0)
        path = tmp_path / "sig.csv"
        pkio.write_columns_csv(path, {}, ["t", "value"], [sig.times, sig.samples])
        back = pkio.read_signal_csv(path)
        assert back.sample_rate == pytest.approx(250.0, rel=1e-9)
        assert np.array_equal(back.samples, sig.samples)

    def test_headerless_numeric_file(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("0.0,1.0\n0.1,2.0\n0.2,3.0\n")
        sig = pkio.read_signal_csv(path)
        assert np.allclose(sig.samples, [1.0, 2.0, 3.0])
        assert sig.sample_rate == pytest.approx(10.0)

    def test_rejects_non_uniform_time(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,value\n0.0,1.0\n0.1,2.0\n0.5,3.0\n")
        with pytest.raises(ValueError):
            pkio.read_signal_csv(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# nothing here\n")
        with pytest.raises(ValueError):
            pkio.read_columns_csv(path)

    def test_mismatched_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            pkio.write_columns_csv(tmp_path / "x.csv", {}, ["a"],
                                   [np.ones(3), np.ones(3)])


class TestWav:
    def test_float32_round_trip(self, tmp_path):
        x = np.sin(2 * np.pi * np.arange(500) / 50.0) * 0.8
        sig = Signal(x, 8000.0)
        path = tmp_path / "tone.wav"
        pkio.write_wav(path, sig, encoding="float32")
        back = pkio.read_wav(path)
        assert back.sample_rate == 8000.0
        assert np.max(np.abs(back.samples - x)) < 1e-7

    def test_pcm16_round_trip(self, tmp_path):
        x = np.sin(2 * np.pi * np.arange(500) / 50.0) * 0.8
        path = tmp_path / "tone16.wav"
        pkio.write_wav(path, Signal(x, 44100.0), encoding="pcm16")
        back = pkio.read_wav(path)
        assert back.sample_rate == 44100.0
        assert np.max(np.abs(back.samples - x)) < 1.0 / 32768.0
        assert np.max(np.abs(back.samples)) <= 1.0

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "not.wav"
        path.write_bytes(b"RIFFxxxxNOPE")
        with pytest.raises(ValueError):
            pkio.read_wav(path)

    def test_rejects_unknown_encoding(self, tmp_path):
        with pytest.raises(ValueError):
            pkio.write_wav(tmp_path / "x.wav", Signal(np.zeros(4)), encoding="mp3")

    @given(raw=st.one_of(
        st.binary(max_size=64),
        # RIFF/WAVE containers of short chunks whose sizes may lie
        st.lists(st.tuples(st.sampled_from([b"fmt ", b"data", b"LIST"]),
                           st.integers(0, 64), st.binary(max_size=40)),
                 max_size=3).map(lambda chunks: b"RIFF\0\0\0\0WAVE" + b"".join(
                     name + struct.pack("<I", size) + body for name, size, body in chunks))))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_bytes_give_a_signal_or_value_error(self, tmp_path_factory, raw):
        path = tmp_path_factory.mktemp("wav") / "any.wav"
        path.write_bytes(raw)
        try:
            sig = pkio.read_wav(path)
        except (ValueError, OSError):
            return
        assert isinstance(sig, Signal)


class TestPgm:
    def test_8bit_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        pixels = rng.integers(0, 256, size=(9, 13)).astype(float)
        path = tmp_path / "img.pgm"
        pkio.write_pgm(path, pixels, maxval=255)
        back = pkio.read_pgm(path)
        assert np.array_equal(back.pixels, pixels)

    def test_16bit_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        pixels = rng.integers(0, 65536, size=(5, 7)).astype(float)
        path = tmp_path / "img16.pgm"
        pkio.write_pgm(path, pixels, maxval=65535)
        back = pkio.read_pgm(path)
        assert np.array_equal(back.pixels, pixels)

    def test_reads_comments(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([0, 4, 250, 255]))
        back = pkio.read_pgm(path)
        assert np.array_equal(back.pixels, [[0, 4], [250, 255]])

    def test_rejects_truncated_data(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
        with pytest.raises(ValueError):
            pkio.read_pgm(path)

    def test_rejects_out_of_range_pixels(self, tmp_path):
        with pytest.raises(ValueError):
            pkio.write_pgm(tmp_path / "x.pgm", np.array([[300.0]]), maxval=255)

    def test_preview_rescales_to_full_range(self):
        pixels = np.array([[-2.0, 0.0], [1.0, 6.0]])
        preview = pkio.pgm_preview(pixels, maxval=255)
        assert preview.min() == 0.0
        assert preview.max() == 255.0
        flat = pkio.pgm_preview(np.full((3, 3), 7.0))
        assert np.all(flat == 0.0)


class TestGridCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        pixels = rng.standard_normal((6, 4))
        path = tmp_path / "grid.csv"
        pkio.write_grid_csv(path, {"rows": "6"}, pixels)
        back = pkio.read_grid_csv(path)
        assert np.array_equal(back.pixels, pixels)

    def test_read_image_dispatch(self, tmp_path):
        pixels = np.arange(6, dtype=float).reshape(2, 3)
        pkio.write_grid_csv(tmp_path / "g.csv", {}, pixels)
        pkio.write_pgm(tmp_path / "g.pgm", pixels, maxval=255)
        assert isinstance(pkio.read_image(tmp_path / "g.csv"), Image)
        assert isinstance(pkio.read_image(tmp_path / "g.pgm"), Image)
