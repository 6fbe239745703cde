"""Tests for the CSV / WAV / PGM readers and writers."""
import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phasekit.io as pkio
from phasekit import Image, Signal
from oracles import csv_bytes

# values whose '%.17g' text is easy to get wrong: signed zero, the smallest
# subnormal, the largest finite doubles, integers, and 0.1
EDGE_VALUES = np.array([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                        -1.7976931348623157e308, 1.0, -3.0, 2.0 ** 53, 0.1])

CSV_TOKENS = ["0", "1", "-2.5", " 0.1 ", "1e308", "-1e308", "5e-324", "1e999", "nan",
              "inf", "t", "value", "", " ", "1_000", "\uff11\uff12", "0x1", "# k = v", "\x00"]
# arbitrary bytes, and comma-separated lines of number-like and hostile tokens
CSV_BYTES = st.one_of(
    st.binary(max_size=200),
    st.lists(st.lists(st.sampled_from(CSV_TOKENS), min_size=1, max_size=4).map(",".join),
             max_size=12).map(lambda lines: "\n".join(lines).encode("utf-8")))
_PGM_SIZE = st.one_of(st.integers(-3, 8), st.integers(-3, 2 ** 70))
# arbitrary bytes, and P5 headers of any size and maxval over a short payload
PGM_BYTES = st.one_of(
    st.binary(max_size=100),
    st.tuples(_PGM_SIZE, _PGM_SIZE, st.integers(-1, 70000), st.binary(max_size=64)).map(
        lambda f: b"P5\n%d %d\n%d\n" % f[:3] + f[3]))


def bit_pattern(values):
    return np.asarray(values, dtype=float).view(np.int64)


def edge_case_grid(rng, shape):
    """Random values over the full exponent range, led by EDGE_VALUES."""
    grid = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    grid.flat[:EDGE_VALUES.size] = EDGE_VALUES
    grid.flat[-shape[1]:] = rng.integers(-10 ** 6, 10 ** 6, shape[1])
    return grid


class TestCsvCodec:
    @pytest.mark.parametrize("rows, cols", [(40, 2), (30, 43)])
    def test_column_bytes_match_per_value_reference(self, tmp_path, rows, cols):
        data = edge_case_grid(np.random.default_rng(cols), (rows, cols))
        header = {"tool": "phasekit test", "alpha": "0.5"}
        names = [f"c{i}" for i in range(cols)]
        path = tmp_path / "cols.csv"
        pkio.write_columns_csv(path, header, names, list(data.T))
        assert path.read_bytes() == csv_bytes(header, names, data)
        back_header, back_names, back = pkio.read_columns_csv(path)
        assert (back_header, back_names) == (header, names)
        assert np.array_equal(bit_pattern(np.column_stack(back)), bit_pattern(data))

    def test_grid_bytes_match_per_value_reference(self, tmp_path):
        data = edge_case_grid(np.random.default_rng(7), (17, 23))
        path = tmp_path / "grid.csv"
        pkio.write_grid_csv(path, {"rows": "17"}, data)
        assert path.read_bytes() == csv_bytes({"rows": "17"}, None, data)
        assert np.array_equal(bit_pattern(pkio.read_grid_csv(path).pixels), bit_pattern(data))

    @pytest.mark.parametrize("rows, cols", [
        (2 * (pkio._BLOCK_VALUES // 3) + 5, 3),  # whole blocks and a remainder
        (pkio._BLOCK_VALUES + 7, 1), (1, 3), (1, 5000), (70, 1024)])
    def test_bytes_match_across_block_boundaries(self, tmp_path, rows, cols):
        data = edge_case_grid(np.random.default_rng(rows + cols), (rows, cols))
        names = [f"c{i}" for i in range(cols)]
        path = tmp_path / "cols.csv"
        pkio.write_columns_csv(path, {"n": rows}, names, list(data.T))
        assert path.read_bytes() == csv_bytes({"n": rows}, names, data)
        assert np.array_equal(bit_pattern(np.column_stack(pkio.read_columns_csv(path)[2])),
                              bit_pattern(data))
        pkio.write_grid_csv(path, {}, data)
        assert path.read_bytes() == csv_bytes({}, None, data)
        assert np.array_equal(bit_pattern(pkio.read_grid_csv(path).pixels), bit_pattern(data))

    def test_header_is_the_comment_block_before_the_data(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("# early = 1\nt,value\n# after_names = 2\n0,1\n# late = 3\n1,2\n")
        header, names, cols = pkio.read_columns_csv(path)
        assert header == {"early": "1", "after_names": "2"}
        assert names == ["t", "value"]
        assert np.array_equal(np.column_stack(cols), [[0, 1], [1, 2]])

    def test_blank_lines_between_names_and_data(self, tmp_path):
        path = tmp_path / "b.csv"
        for text in ("t,value\n\n\n0,1\n1,2\n", "t,value\r\n\r\n  \r\n0,1\r\n1,2"):
            path.write_text(text, newline="")
            header, names, cols = pkio.read_columns_csv(path)
            assert (header, names) == ({}, ["t", "value"])
            assert np.array_equal(np.column_stack(cols), [[0, 1], [1, 2]])

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs POSIX named pipes")
    def test_reads_a_pipe(self, tmp_path):
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=("# k = v\nt,value\n0,1\n1,2\n",),
                                  daemon=True)
        writer.start()
        header, names, cols = pkio.read_columns_csv(fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert (header, names) == ({"k": "v"}, ["t", "value"])
        assert np.array_equal(np.column_stack(cols), [[0, 1], [1, 2]])

    def test_read_peak_memory(self, tmp_path):
        n = 131072
        path = tmp_path / "long.csv"
        pkio.write_columns_csv(path, {"rate": 1000.0}, ["t", "value"],
                               [np.arange(n) / 1000.0, np.random.default_rng(3).standard_normal(n)])
        tracemalloc.start()
        try:
            pkio.read_signal_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the parsed n x 2 array twice over, and 1 MB; the file is 4.7 MB
        assert peak < 2 * (n * 2 * 8) + 2 ** 20

    def test_write_peak_memory(self, tmp_path):
        n = 131072
        columns = list(np.random.default_rng(4).standard_normal((3, n)))
        tracemalloc.start()
        try:
            pkio.write_columns_csv(tmp_path / "long.csv", {}, ["a", "b", "c"], columns)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the n x 3 column_stack, and 4 MB; the file is 7.9 MB
        assert peak < n * 3 * 8 + 4 * 2 ** 20

    @given(raw=CSV_BYTES)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_arbitrary_bytes_give_a_value_or_value_error(self, tmp_path_factory, raw):
        path = tmp_path_factory.mktemp("csv") / "any.csv"
        path.write_bytes(raw)
        for read, kind in ((pkio.read_signal_csv, Signal), (pkio.read_grid_csv, Image)):
            try:
                value = read(path)
            except (ValueError, OSError):
                continue
            assert isinstance(value, kind)

    @pytest.mark.parametrize("value, text", [
        (0.1, "0.10000000000000001"), (250.0, "250"), (-0.0, "-0"),
        (5e-324, "4.9406564584124654e-324"),
        (np.float64(0.3), "0.29999999999999999"), (np.float64(1e308), "1e+308"),
        (10, "10"), (-3, "-3"), (True, "true"), (False, "false"),
        ("0:0.5:3", "0:0.5:3"), ("in/x.csv", "in/x.csv")])
    def test_header_value_text(self, tmp_path, value, text):
        path = tmp_path / "h.csv"
        pkio.write_columns_csv(path, {"key": value}, ["x"], [np.zeros(1)])
        assert path.read_text().splitlines()[0] == f"# key = {text}"
        pkio.write_grid_csv(path, {"key": value}, np.zeros((1, 1)))
        assert path.read_text().splitlines()[0] == f"# key = {text}"


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
        for text in ("0.0,1.0\n0.1,2.0\n0.2,3.0\n",
                     # CRLF, blank and whitespace lines, padded fields, late comment
                     "\r\n0.0, 1.0\r\n  \r\n0.1 ,2.0\r\n# k = v\r\n0.2,3.0"):
            path.write_text(text, newline="")
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
        for text in ("# nothing here\n", "# names only\nt,value\n"):
            path.write_text(text)
            with pytest.raises(ValueError):
                pkio.read_columns_csv(path)

    @pytest.mark.parametrize("field", ["1_000", "\uff11\uff12", "0x1", ""])
    def test_rejects_numbers_outside_loadtxt_syntax(self, tmp_path, field):
        path = tmp_path / "odd.csv"
        path.write_text(f"t,value\n0,1\n1,{field}\n")
        with pytest.raises(ValueError):
            pkio.read_signal_csv(path)

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

    # the byte-rate field, rate * bytes per sample, is also an unsigned 32-bit word
    @pytest.mark.parametrize("encoding, rate", [("float32", 8000.5), ("pcm16", 2.0 ** 32),
                                                ("float32", 2.0 ** 30)])
    def test_rejects_rate_the_header_cannot_hold(self, tmp_path, encoding, rate):
        with pytest.raises(ValueError, match="whole number of Hz that fits"):
            pkio.write_wav(tmp_path / "x.wav", Signal(np.zeros(4), rate), encoding=encoding)
        assert not (tmp_path / "x.wav").exists()
        pkio.write_wav(tmp_path / "ok.wav", Signal(np.zeros(4), 2.0 ** 30 - 1), encoding="float32")
        assert pkio.read_wav(tmp_path / "ok.wav").sample_rate == 2.0 ** 30 - 1

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
        for raw in (b"P5\n4 4\n255\n" + bytes(3), b"P5\n2 2\n65535\n" + bytes(7),
                    # a size whose pixel count overflows a C size
                    b"P5 99999999999 99999999999 255\n" + bytes(16)):
            path.write_bytes(raw)
            with pytest.raises(ValueError):
                pkio.read_pgm(path)

    @pytest.mark.parametrize("size", [b"-2 -2", b"-4 1", b"0 4", b"4 0"])
    def test_rejects_non_positive_size(self, tmp_path, size):
        path = tmp_path / "neg.pgm"
        path.write_bytes(b"P5\n" + size + b"\n255\n" + bytes(16))
        with pytest.raises(ValueError, match="bad size"):
            pkio.read_pgm(path)

    @given(raw=PGM_BYTES)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_arbitrary_bytes_give_an_image_or_value_error(self, tmp_path_factory, raw):
        path = tmp_path_factory.mktemp("pgm") / "any.pgm"
        path.write_bytes(raw)
        try:
            img = pkio.read_pgm(path)
        except (ValueError, OSError):
            return
        assert isinstance(img, Image)

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
        path = tmp_path / "grid.csv"
        for pixels in (rng.standard_normal((6, 4)), rng.standard_normal((1, 5)),
                       rng.standard_normal((5, 1))):
            pkio.write_grid_csv(path, {"rows": str(len(pixels))}, pixels)
            back = pkio.read_grid_csv(path)
            assert np.array_equal(back.pixels, pixels)

    @pytest.mark.parametrize("shape", [(3,), (0, 3), (3, 0), (2, 2, 2)])
    def test_writer_rejects_a_non_grid(self, tmp_path, shape):
        with pytest.raises(ValueError):
            pkio.write_grid_csv(tmp_path / "g.csv", {}, np.zeros(shape))

    @pytest.mark.parametrize("text", ["a,b\n1,2\n", "1,2\nx,3\n"])
    def test_rejects_text_row(self, tmp_path, text):
        path = tmp_path / "text.csv"
        path.write_text(text)
        with pytest.raises(ValueError):
            pkio.read_grid_csv(path)

    def test_read_image_dispatch(self, tmp_path):
        pixels = np.arange(6, dtype=float).reshape(2, 3)
        pkio.write_grid_csv(tmp_path / "g.csv", {}, pixels)
        pkio.write_pgm(tmp_path / "g.pgm", pixels, maxval=255)
        assert isinstance(pkio.read_image(tmp_path / "g.csv"), Image)
        assert isinstance(pkio.read_image(tmp_path / "g.pgm"), Image)
