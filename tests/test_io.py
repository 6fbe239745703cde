"""Tests for the CSV / WAV / PGM readers and writers."""
import ast
import io
import math
import os
import re
import runpy
import signal
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import phasekit.io as pkio
from phasekit import Image, Signal
from phasekit.cli import main
from oracles import csv_bytes

# values whose '%.17g' text is easy to get wrong: signed zero, the smallest
# subnormal, the largest finite doubles, integers, and 0.1
EDGE_VALUES = np.array([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                        -1.7976931348623157e308, 1.0, -3.0, 2.0 ** 53, 0.1])

CHECK_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_csv_kernel.py"
# boundary_values() and check(values) of the kernel's byte-identity check
CHECK = runpy.run_path(str(CHECK_SCRIPT))

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


SOURCE = Path(__file__).resolve().parents[1] / "src" / "phasekit"
FILE_LIMIT = 2 ** 17  # RLIMIT_FSIZE of a limited run: a tenth or less of each output


def run_with_file_limit(args):
    """Run ``python *args`` with the file-size limit set in the child only."""
    resource = pytest.importorskip("resource")

    def limit_file_size():
        resource.setrlimit(resource.RLIMIT_FSIZE, (FILE_LIMIT, FILE_LIMIT))

    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          preexec_fn=limit_file_size)


def wav_bytes(channels: int = 1, bits: int = 16, samples=None, rate: int = 8000) -> bytes:
    """A WAV of 8 sample frames of silence, or of the mono ``samples``: PCM,
    or 32-bit float when ``bits`` is 32 (16-bit PCM rounds and clips)."""
    block = channels * bits // 8
    if samples is None:
        payload = bytes(8 * block)
    elif bits == 32:
        payload = np.asarray(samples, dtype="<f4").tobytes()
    else:
        pcm = np.clip(np.rint(np.asarray(samples) * 32768.0), -32768, 32767)
        payload = pcm.astype("<i2").tobytes()
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload), b"WAVE", b"fmt ", 16,
                         3 if bits == 32 else 1, channels, rate, rate * block, block, bits,
                         b"data", len(payload))
    return header + payload


def _opens_for_writing(call: ast.Call) -> bool:
    """Whether a call of ``open`` has a write mode on anything but a file
    descriptor (``x.fileno()``); a mode that is not a literal counts."""
    path = call.args[0] if call.args else None
    if (isinstance(path, ast.Call) and isinstance(path.func, ast.Attribute)
            and path.func.attr == "fileno"):
        return False
    modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    if not modes:
        return False
    mode = modes[0]
    return not (isinstance(mode, ast.Constant) and not set(str(mode.value)) & set("wax+"))


def unguarded_writes(package: Path) -> list[str]:
    """'module:line' of every write in ``package`` that bypasses
    ``io.output_file``: a write-mode ``open`` on a path, or a
    ``write_bytes``/``write_text`` call, outside that function."""
    found = []
    for source in sorted(package.glob("*.py")):
        tree = ast.parse(source.read_text(), str(source))
        opener = {id(node) for function in ast.walk(tree)
                  if isinstance(function, ast.FunctionDef) and source.name == "io.py"
                  and function.name == "output_file" for node in ast.walk(function)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in opener:
                continue
            func = node.func
            if ((isinstance(func, ast.Attribute) and func.attr in ("write_bytes", "write_text"))
                    or (isinstance(func, ast.Name) and func.id == "open"
                        and _opens_for_writing(node))):
                found.append(f"{source.name}:{node.lineno}")
    return found


def bit_pattern(values):
    return np.asarray(values, dtype=float).view(np.int64)


def edge_case_grid(rng, shape):
    """Random values over the full exponent range, led by EDGE_VALUES."""
    grid = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    grid.flat[:EDGE_VALUES.size] = EDGE_VALUES
    grid.flat[-shape[1]:] = rng.integers(-10 ** 6, 10 ** 6, shape[1])
    return grid


def signal_rows(n, seed=0, cols=2):
    """n 't,value' rows of an 8 kHz record (more columns repeat the value)."""
    values = np.random.default_rng(seed).standard_normal(n).tolist()
    return [",".join([repr(i / 8000.0)] + [repr(v)] * (cols - 1)) for i, v in enumerate(values)]


ROWS = signal_rows(60)
# split reads of small files (the threshold is lowered in the test): the
# input, whether it forks, and whether the two halves give the result (an
# all-comment tail fails the child, and the one stream parse runs instead)
SPLIT_READS = {
    "lf": ("t,value\n" + "\n".join(ROWS) + "\n", True, True),
    "crlf": ("t,value\r\n" + "\r\n".join(ROWS) + "\r\n", True, True),
    "lone cr": ("t,value\r" + "\r".join(ROWS) + "\r", False, False),
    "lone cr, then lf": ("\r".join(ROWS[:30]) + "\r" + "\n".join(ROWS[30:]), True, True),
    "no names, no final line end": ("\n".join(ROWS), True, True),
    # separators that end a line for str.splitlines but not for the reader
    "comments and blanks": ("# a = 1\n\nt,value\n# b = " + "\u00e9" * 40 + "\n" + "".join(
        f"{row}\n# note {i} \u00fc\x0c\x1c\u0085\u2028 x\n\n  \n" if i % 3 else f"{row}\r\n"
        for i, row in enumerate(ROWS)), True, True),
    "one-row tail": ("t,value\n" + "\n".join(ROWS[:20]) + "\n# " + "x" * 2000 + "\n"
                     + ROWS[20] + "\n", True, True),
    "all-comment tail": ("\n".join(ROWS[:20]) + "\n" + "# tail\n" * 200, True, False),
    "all-comment tail, one column": ("\n".join(row.split(",")[1] for row in ROWS[:20])
                                     + "\n" + "# tail\n" * 200, True, False),
    "one column": ("x\n" + "\n".join(row.split(",")[1] for row in ROWS), True, True),
    "wide rows": ("\n".join(signal_rows(40, cols=30)), True, True),
}
SPLIT_ERRORS = {
    "bad cell in the head": ROWS[:5] + ["0.1,x"] + ROWS[6:],
    "bad cell in the tail": ROWS[:-5] + ["0.1,x"] + ROWS[-4:],
    "columns change in the tail": ROWS[:-5] + ["1,2,3"] + ROWS[-4:],
    # both halves parse, with two and three columns
    "columns change at the cut": ROWS[:30] + ["# " + "x" * 2000] + [r + ",0" for r in ROWS[30:]],
}


def read_outcome(path):
    """_read_csv's (header, names, data bits and shape), or its ValueError text."""
    try:
        header, names, data = pkio._read_csv(path)
    except ValueError as exc:
        return str(exc)
    return header, names, data.shape, bit_pattern(data).tolist()


def split_results(monkeypatch) -> list:
    """What each _split_rows call returns from now on: its rows, or None."""
    results, split_rows = [], pkio._split_rows
    monkeypatch.setattr(pkio, "_split_rows",
                        lambda *args: results.append(split_rows(*args)) or results[-1])
    return results


def unsplit_outcome(path, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(pkio, "_SPLIT_BYTES", math.inf)
        return read_outcome(path)


def fork_and_wait_calls(package: Path, helper: str | None = "_forked") -> list[str]:
    """'module:line' of every call of a fork or wait function of ``os`` in
    ``package`` outside the function ``helper`` of io.py, and every import of
    one from ``os``."""
    names = {"fork", "forkpty", "wait", "wait3", "wait4", "waitid", "waitpid"}
    found = []
    for source in sorted(package.glob("*.py")):
        tree = ast.parse(source.read_text(), str(source))
        allowed = {id(node) for function in ast.walk(tree)
                   if isinstance(function, ast.FunctionDef) and source.name == "io.py"
                   and function.name == helper for node in ast.walk(function)}
        for node in ast.walk(tree):
            if id(node) in allowed:
                continue
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in names and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "os"):
                found.append(f"{source.name}:{node.lineno}")
            elif (isinstance(node, ast.ImportFrom) and node.module == "os"
                    and names & {alias.name for alias in node.names}):
                found.append(f"{source.name}:{node.lineno}")
    return found


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

    # as a spreadsheet's "CSV UTF-8" starts: the mark is not part of the first row
    def test_byte_order_mark_before_a_data_row(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf0,1\n0.5,2\n1,3\n1.5,4\n")
        assert pkio._read_csv(path)[1] is None
        sig = pkio.read_signal_csv(path)
        assert sig.samples.tolist() == [1, 2, 3, 4] and sig.sample_rate == 2.0

    def test_byte_order_mark_before_the_names_row(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbft,value\n0,1\n1,2\n")
        header, names, cols = pkio.read_columns_csv(path)
        assert (header, names) == ({}, ["t", "value"])
        assert np.array_equal(np.column_stack(cols), [[0, 1], [1, 2]])

    def test_byte_order_mark_before_a_split_read(self, tmp_path, forks, monkeypatch):
        # the cut is counted in bytes from the file's start, mark included
        text = ("\n".join(signal_rows(40000)) + "\n").encode()
        assert len(text) > 2 * pkio._SPLIT_BYTES
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text)
        results = split_results(monkeypatch)
        want, got = read_outcome(plain), read_outcome(marked)
        assert len(forks) == 2 and all(rows is not None for rows in results)
        assert got[2] == (40000, 2) and got == want

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs POSIX named pipes")
    def test_reads_a_pipe(self, tmp_path, forks, monkeypatch):
        # a pipe is read as one stream, however large
        monkeypatch.setattr(pkio, "_SPLIT_BYTES", 1)
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
        assert forks == []

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

    @pytest.mark.parametrize("n, cols", [(131072, 3), (32768, 43)])
    def test_write_peak_memory(self, tmp_path, n, cols):
        columns = list(np.random.default_rng(4).standard_normal((cols, n)))
        tracemalloc.start()
        try:
            pkio.write_columns_csv(tmp_path / "long.csv", {}, [f"c{i}" for i in range(cols)],
                                   columns)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 4 MB and no copy of the table (3 and 11 MB); the files are 7.9 and 26 MB
        assert peak < 4 * 2 ** 20

    @pytest.fixture
    def forks(self, monkeypatch):
        """Let the writer and the reader see two CPUs and no cgroup quota;
        returns the list of their fork() calls."""
        calls = []
        fork = os.fork

        def counted_fork():
            calls.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(pkio, "_quota_cpus", lambda: math.inf)
        monkeypatch.setattr(os, "fork", counted_fork)
        return calls

    @pytest.mark.parametrize("rows, cols, splits", [
        (pkio._SPLIT_VALUES // 3, 3, False),  # one row short of the threshold
        (pkio._SPLIT_VALUES // 3 + 1, 3, True),  # one row past it
        (pkio._SPLIT_VALUES // 2, 2, True),  # exactly at it
        (2 * (pkio._SPLIT_VALUES // 3) + 1, 3, True),  # an odd row count
        (1, 70000, False),  # too few rows to split
        (70, 1024, True)])
    def test_split_write_bytes(self, tmp_path, forks, rows, cols, splits):
        data = edge_case_grid(np.random.default_rng(rows + cols), (rows, cols))
        names = [f"c{i}" for i in range(cols)]
        path = tmp_path / "cols.csv"
        pkio.write_columns_csv(path, {"n": rows}, names, list(data.T))
        assert path.read_bytes() == csv_bytes({"n": rows}, names, data)
        pkio.write_grid_csv(path, {}, data)
        assert path.read_bytes() == csv_bytes({}, None, data)
        assert len(forks) == (2 if splits else 0)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("failure", ["child", "fork", "temporary file"])
    def test_failed_split_writes_the_same_bytes(self, tmp_path, forks, monkeypatch, failure):
        parent = os.getpid()
        write_rows = pkio._write_rows

        def child_raises(fh, columns):
            if os.getpid() != parent:
                raise RuntimeError("child formatting failed")
            write_rows(fh, columns)

        def raise_os_error(*args):
            raise OSError("no resources")

        if failure == "child":
            monkeypatch.setattr(pkio, "_write_rows", child_raises)
        elif failure == "fork":
            monkeypatch.setattr(os, "fork", raise_os_error)
        else:
            monkeypatch.setattr(pkio.tempfile, "TemporaryFile", raise_os_error)
        data = edge_case_grid(np.random.default_rng(5), (30000, 3))
        path = tmp_path / "cols.csv"
        pkio.write_columns_csv(path, {}, ["a", "b", "c"], list(data.T))
        assert path.read_bytes() == csv_bytes({}, ["a", "b", "c"], data)
        assert len(forks) == (1 if failure == "child" else 0)
        # no child is left to reap
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("one_cpu", ["affinity", "no affinity call", "cgroup quota"])
    def test_one_cpu_never_forks(self, tmp_path, forks, monkeypatch, one_cpu):
        if one_cpu == "affinity":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        elif one_cpu == "no affinity call":
            monkeypatch.delattr(os, "sched_getaffinity")
        else:  # two CPUs in the mask, 1.5 CPUs' worth of time
            monkeypatch.setattr(pkio, "_quota_cpus", lambda: 1.5)
        data = np.random.default_rng(6).standard_normal((30000, 3))
        pkio.write_columns_csv(tmp_path / "cols.csv", {}, ["a", "b", "c"], list(data.T))
        assert (tmp_path / "cols.csv").read_bytes() == csv_bytes({}, ["a", "b", "c"], data)
        assert (tmp_path / "cols.csv").stat().st_size > 2 * pkio._SPLIT_BYTES
        assert np.array_equal(np.column_stack(pkio.read_columns_csv(tmp_path / "cols.csv")[2]),
                              data)
        assert forks == []

    @pytest.mark.parametrize("table, files, cpus", [
        # v2: the least quota over the cgroup and its ancestors
        ("0::/a/b\n", {"a/cpu.max": "150000 100000\n", "a/b/cpu.max": "max 100000\n"}, 1.5),
        ("0::/a/b\n", {"a/cpu.max": "150000 100000\n", "a/b/cpu.max": "50000 100000\n"}, 0.5),
        ("0::/\n", {"cpu.max": "max 100000\n"}, math.inf),
        # v1: the cpu hierarchy only; a container sees its own cgroup at the
        # mount root while its table names the host's path
        ("4:cpu,cpuacct:/docker/x\n3:cpuset:/\n0::/\n",
         {"cpu/cpu.cfs_quota_us": "100000\n", "cpu/cpu.cfs_period_us": "100000\n",
          "cpuset/cpu.cfs_quota_us": "1000\n"}, 1.0),
        ("1:cpu:/\n", {"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"},
         math.inf),
        ("malformed\n1:cpu:/\n", {"cpu/cpu.cfs_quota_us": "300000\n",
                                   "cpu/cpu.cfs_period_us": "100000\n"}, 3.0),
        (None, {}, math.inf)])
    def test_quota_cpus_reads_cgroup_files(self, tmp_path, table, files, cpus):
        root = tmp_path / "cgroup"
        for name, text in files.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(text)
        if table is not None:
            (tmp_path / "table").write_text(table)
        assert pkio._quota_cpus(str(tmp_path / "table"), str(root)) == cpus
        assert pkio._quota_cpus() > 0  # this machine's own files parse

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_split_write_flushes_no_inherited_buffer(self, tmp_path):
        path = tmp_path / "cols.csv"
        script = (
            "import os, sys, numpy as np\n"
            "import phasekit.io as pkio\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "pkio._quota_cpus = lambda: 2.0\n"
            "print('before the write')\n"
            "columns = list(np.random.default_rng(8).standard_normal((3, 131072)))\n"
            f"pkio.write_columns_csv({str(path)!r}, {{}}, ['a', 'b', 'c'], columns)\n")
        # block-buffered stdout: the line is still in the buffer at the fork
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "before the write\n"
        data = np.random.default_rng(8).standard_normal((3, 131072)).T
        assert path.read_bytes() == csv_bytes({}, ["a", "b", "c"], data)

    def test_split_write_completes_under_warnings_as_errors(self, tmp_path, forks):
        # a second thread makes Python 3.12+ warn on fork()
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait, daemon=True)
        thread.start()
        data = np.random.default_rng(9).standard_normal((30000, 3))
        path = tmp_path / "cols.csv"
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                filters = list(warnings.filters)
                pkio.write_columns_csv(path, {}, ["a", "b", "c"], list(data.T))
                back = np.column_stack(pkio.read_columns_csv(path)[2])
                assert warnings.filters == filters
        finally:
            stop.set()
            thread.join()
        assert len(forks) == 2
        assert path.read_bytes() == csv_bytes({}, ["a", "b", "c"], data)
        assert np.array_equal(back, data)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_split_write_beside_a_thread_that_allocates_arrays(self, tmp_path):
        # the forked child runs numpy while another thread of the parent
        # allocates and frees arrays; a child that deadlocked would hang the
        # write, so it runs in a subprocess with a timeout
        path = tmp_path / "cols.csv"
        script = (
            "import os, threading, numpy as np\n"
            "import phasekit.io as pkio\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "pkio._quota_cpus = lambda: 2.0\n"
            "forks, fork = [], os.fork\n"
            "os.fork = lambda: forks.append(1) or fork()\n"
            "stop = threading.Event()\n"
            "def churn():\n"
            "    while not stop.is_set():\n"
            "        np.sqrt(np.arange(50000.0)).sum()\n"
            "thread = threading.Thread(target=churn)\n"
            "thread.start()\n"
            "columns = list(np.random.default_rng(8).standard_normal((3, 131072)))\n"
            "for _ in range(5):\n"
            f"    pkio.write_columns_csv({str(path)!r}, {{}}, ['a', 'b', 'c'], columns)\n"
            "stop.set()\n"
            "thread.join()\n"
            "print(len(forks))\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "5\n"
        data = np.random.default_rng(8).standard_normal((3, 131072)).T
        assert path.read_bytes() == csv_bytes({}, ["a", "b", "c"], data)

    @pytest.mark.parametrize("chunk", [7, pkio._CHUNK_BYTES])
    @pytest.mark.parametrize("case", SPLIT_READS)
    def test_split_read_matches_one_parse(self, tmp_path, forks, monkeypatch, capfd, case,
                                          chunk):
        text, splits, halves = SPLIT_READS[case]
        path = tmp_path / "in.csv"
        # a header value that is not UTF-8 counts as its bytes
        path.write_bytes(b"# raw = \xff\xfe\n" + text.encode("utf-8"))
        monkeypatch.setattr(pkio, "_SPLIT_BYTES", 64)
        monkeypatch.setattr(pkio, "_CHUNK_BYTES", chunk)
        results = split_results(monkeypatch)
        outcome = read_outcome(path)
        assert len(forks) == splits
        assert [rows is not None for rows in results] == [halves]
        assert not isinstance(outcome, str)
        assert outcome == unsplit_outcome(path, monkeypatch)
        # no warning or traceback from either process
        assert capfd.readouterr().err == ""
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("case", SPLIT_ERRORS)
    def test_split_read_errors_match_one_parse(self, tmp_path, forks, monkeypatch, case):
        path = tmp_path / "in.csv"
        path.write_text("t,value\n" + "\n".join(SPLIT_ERRORS[case]) + "\n")
        monkeypatch.setattr(pkio, "_SPLIT_BYTES", 64)
        results = split_results(monkeypatch)
        outcome = read_outcome(path)
        assert len(forks) == 1 and results == [None]
        assert isinstance(outcome, str) and "row" in outcome
        assert outcome == unsplit_outcome(path, monkeypatch)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_split_read_of_an_all_comment_tail_prints_no_warning(self, tmp_path):
        # the child's loadtxt finds no data, which would warn on its standard
        # error; a subprocess, since pytest records the warnings of the tests
        path = tmp_path / "in.csv"
        path.write_text(SPLIT_READS["all-comment tail"][0])
        script = (
            "import os, numpy as np\n"
            "import phasekit.io as pkio\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "pkio._quota_cpus = lambda: 2.0\n"
            "pkio._SPLIT_BYTES = 64\n"
            # os.fork itself stays unwrapped: Python 3.12+ shows its warning
            # about threads when the caller is in __main__
            "forks, forked = [], pkio._forked\n"
            "pkio._forked = lambda *args: forks.append(1) or forked(*args)\n"
            f"rows = pkio._read_csv({str(path)!r})[2]\n"
            "print(rows.shape, len(forks))\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "(20, 2) 1\n", "")

    @pytest.mark.parametrize("extra, splits", [
        (-1, False),  # one byte short of the threshold
        (0, True),  # exactly at it
        (1, True)])  # one byte past it
    def test_split_read_threshold(self, tmp_path, forks, monkeypatch, extra, splits):
        size = pkio._SPLIT_BYTES + extra  # bytes after the first data row
        rows = "".join(row + "\n" for row in signal_rows(size // 50, seed=3))
        path = tmp_path / "in.csv"
        path.write_text("0,0\n" + rows + "#" + "x" * (size - len(rows) - 2) + "\n")
        assert path.stat().st_size == 4 + size
        results = split_results(monkeypatch)
        outcome = read_outcome(path)
        assert len(forks) == splits
        assert [rows is not None for rows in results] == [splits]
        assert outcome[2] == (size // 50 + 1, 2)
        assert outcome == unsplit_outcome(path, monkeypatch)

    def test_raising_parent_kills_the_child(self, forks):
        def parent():
            raise RuntimeError("this half failed")

        start = time.monotonic()
        with pytest.raises(RuntimeError, match="this half failed"):
            pkio._forked(lambda tmp: time.sleep(60), parent)
        # killed at once, not at the deadline, and reaped
        assert time.monotonic() - start < pkio._CHILD_GRACE_S
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_child_reaped_elsewhere_is_not_killed(self, forks, monkeypatch):
        # with SIGCHLD ignored the kernel reaps the child, and its pid may be
        # another process's by the time this one's half raises
        kills = []
        monkeypatch.setattr(os, "kill", lambda *args: kills.append(args))

        def parent():
            time.sleep(0.2)  # the child has exited by now
            raise RuntimeError("this half failed")

        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            with pytest.raises(RuntimeError, match="this half failed"):
                pkio._forked(lambda tmp: None, parent)
            assert pkio._forked(lambda tmp: None, lambda: 7) == (7, None)
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert len(forks) == 2 and kills == []

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_child_that_never_exits_is_killed_and_its_half_redone(self, tmp_path):
        # a child that deadlocks (here: sleeps for a minute, far past the
        # deadline) costs the deadline and no more; run in a subprocess with a
        # timeout in case it did not
        path = tmp_path / "cols.csv"
        script = (
            "import os, time, numpy as np\n"
            "import phasekit.io as pkio\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "pkio._quota_cpus = lambda: 2.0\n"
            "forks, fork = [], os.fork\n"
            "os.fork = lambda: forks.append(1) or fork()\n"
            "parent, write_rows = os.getpid(), pkio._write_rows\n"
            "def child_sleeps(*args, **kwargs):\n"
            "    if os.getpid() != parent:\n"
            "        time.sleep(60)\n"
            "    write_rows(*args, **kwargs)\n"
            "pkio._write_rows = child_sleeps\n"
            "pkio._put_rows = lambda *args: time.sleep(60)\n"
            "columns = list(np.random.default_rng(8).standard_normal((3, 131072)))\n"
            f"pkio.write_columns_csv({str(path)!r}, {{}}, ['a', 'b', 'c'], columns)\n"
            f"_, _, back = pkio.read_columns_csv({str(path)!r})\n"
            "assert np.array_equal(np.column_stack(back), np.column_stack(columns))\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "except ChildProcessError:\n"
            "    print(len(forks), 'forks, no child left')\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "2 forks, no child left\n"
        data = np.random.default_rng(8).standard_normal((3, 131072)).T
        assert path.read_bytes() == csv_bytes({}, ["a", "b", "c"], data)

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


class TestG17Kernel:
    """The writer's '%.17g' kernel against Python's '%', one value at a time
    (tests/oracles.csv_bytes), alone and through both writers."""

    def write_both(self, path, values):
        """Write ``values`` as one column and as one grid row; both must have
        the bytes of '%'."""
        pkio.write_columns_csv(path, {}, ["v"], [values])
        assert path.read_bytes() == csv_bytes({}, ["v"], values[:, None])
        pkio.write_grid_csv(path, {}, values[None, :])
        assert path.read_bytes() == csv_bytes({}, None, values[None, :])

    def test_boundary_values(self, tmp_path):
        values = CHECK["boundary_values"]()
        assert CHECK["check"](values)[0] is None
        self.write_both(tmp_path / "v.csv", values)

    @given(bits=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_raw_bit_patterns(self, tmp_path_factory, bits):
        values = np.array(bits, np.uint64).view(np.float64)
        values = values[np.isfinite(values)]  # subnormals included
        assume(values.size > 0)
        assert CHECK["check"](values)[0] is None
        self.write_both(tmp_path_factory.mktemp("g17") / "v.csv", values)

    def test_block_with_an_undecided_value_is_formatted_with_percent(self, tmp_path):
        # a tie that '%' rounds half to even, here up: 1234567890123456.75
        # has the 18 digits ...675 and prints as ...56.8; and a subnormal
        block = np.array([[0.5, 1234567890123456.75, 3.0], [5e-324, -2.0, 7.0]])
        assert pkio._g17_records(block)[1].tolist() == [False, True, False, True, False, False]
        path = tmp_path / "g.csv"
        pkio.write_grid_csv(path, {}, block)
        assert path.read_bytes() == csv_bytes({}, None, block)
        assert b",1234567890123456.8," in path.read_bytes()

    def test_ties_among_decided_values_are_formatted_with_percent_alone(self):
        # 1 + 2**-17, a float32 sample, has the 18 digits 1.00000762939453125:
        # a tie that '%' rounds half to even, down to ...5312; the tie sits in
        # the first, middle and last column among decided values, with a NaN,
        # an inf and a 1e-300 (all undecided too)
        tie = float(np.float32(1 + 2 ** -17))
        block = np.array([[tie, 0.5, -3.25], [0.1, -tie, 7.0], [2.5, 1e-300, tie],
                          [np.nan, -np.inf, 1e3]])
        assert pkio._g17_records(block)[1].reshape(block.shape).tolist() == [
            [True, False, False], [False, True, False], [False, True, True], [True, True, False]]
        # 4,000 rows span two blocks of 8,192 values
        for rows in (block, np.tile(block, (1000, 1))):
            out = io.BytesIO()
            pkio._write_rows(out, [rows])
            want = "".join("%.17g,%.17g,%.17g\n" % tuple(row) for row in rows.tolist())
            assert out.getvalue() == want.encode("ascii")
        assert out.getvalue().startswith(b"1.0000076293945312,0.5,-3.25\n")

    def test_check_script_passes(self):
        proc = subprocess.run([sys.executable, str(CHECK_SCRIPT), "20000", "--seed", "1"],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "values match '%.17g'" in proc.stdout
        # the float32-derived population runs at any N, and meets ties
        float32 = re.search(r"^float32: 200000 values match '%.17g'; (\d+) undecided",
                            proc.stdout, re.M)
        assert float32 and int(float32.group(1)) > 0, proc.stdout

    def test_tables_are_built_on_the_first_write(self, tmp_path):
        script = (
            "import numpy as np\n"
            "import phasekit.cli, phasekit.io as pkio\n"
            "print(pkio._g17_tables.cache_info().currsize)\n"
            f"pkio.write_grid_csv({str(tmp_path / 'g.csv')!r}, {{}}, np.ones((2, 2)))\n"
            "print(pkio._g17_tables.cache_info().currsize)\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0\n1\n"


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

    @pytest.mark.parametrize("rows", ["-1e308,1\n1e308,2\n", "0,1\ninf,2\n",
                                      "inf,1\ninf,2\ninf,3\n", "0,1\n1,2\n1e308,3\n-1e308,4\n"])
    @pytest.mark.filterwarnings("error")
    def test_rejects_non_finite_time_step(self, tmp_path, rows):
        # the step overflows or is inf/nan; rejected without a numpy warning
        path = tmp_path / "bad.csv"
        path.write_text("t,value\n" + rows)
        with pytest.raises(ValueError, match="not uniformly increasing"):
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

    @pytest.mark.parametrize("lengths", [(3, 2), (1, 4, 4)])
    def test_rejects_columns_of_different_lengths(self, tmp_path, lengths):
        with pytest.raises(ValueError, match="columns must share one length"):
            pkio.write_columns_csv(tmp_path / "x.csv", {}, [f"c{n}" for n in lengths],
                                   [np.ones(n) for n in lengths])
        assert not (tmp_path / "x.csv").exists()


class TestWav:
    def test_float32_round_trip(self, tmp_path):
        x = np.sin(2 * np.pi * np.arange(500) / 50.0) * 0.8
        path = tmp_path / "tone.wav"
        path.write_bytes(wav_bytes(bits=32, samples=x))
        back = pkio.read_wav(path)
        assert back.sample_rate == 8000.0
        assert np.max(np.abs(back.samples - x)) < 1e-7

    def test_pcm16_round_trip(self, tmp_path):
        x = np.sin(2 * np.pi * np.arange(500) / 50.0) * 0.8
        path = tmp_path / "tone16.wav"
        path.write_bytes(wav_bytes(samples=x, rate=44100))
        back = pkio.read_wav(path)
        assert back.sample_rate == 44100.0
        assert np.max(np.abs(back.samples - x)) < 1.0 / 32768.0
        assert np.max(np.abs(back.samples)) <= 1.0

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "not.wav"
        path.write_bytes(b"RIFFxxxxNOPE")
        with pytest.raises(ValueError):
            pkio.read_wav(path)

    @pytest.mark.parametrize("channels, bits, message", [
        (2, 16, "only mono WAV is supported (got 2 channels)"),
        (1, 8, "unsupported WAV format (format=1, bits=8)")])
    def test_rejects_unsupported_layout(self, tmp_path, channels, bits, message):
        path = tmp_path / "x.wav"
        path.write_bytes(wav_bytes(channels, bits))
        # the message leaves naming the file to the caller (cli._read)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pkio.read_wav(path)

    @pytest.mark.parametrize("cut", [50, 51])
    def test_rejects_a_data_chunk_shorter_than_its_header(self, tmp_path, capsys, cut):
        path = tmp_path / "x.wav"
        path.write_bytes(wav_bytes(samples=np.zeros(100))[:-cut])
        with pytest.raises(ValueError, match="^truncated data chunk$"):
            pkio.read_wav(path)
        out = tmp_path / "out.csv"
        assert main(["pt", str(path), "--alpha", "0.5", "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert "truncated data chunk" in err and "Traceback" not in err
        assert not out.exists()

    def test_rejects_a_data_chunk_of_part_of_a_sample(self, tmp_path):
        path = tmp_path / "x.wav"
        raw = bytearray(wav_bytes(1, 16) + b"\0")  # 17 data bytes, all of them present
        struct.pack_into("<I", raw, 40, 17)
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="^data chunk of 17 bytes is not a whole number "
                                             "of 2-byte samples$"):
            pkio.read_wav(path)

    def test_reads_the_largest_float32_rate_the_header_holds(self, tmp_path):
        # the byte-rate field, rate * 4 bytes per sample, is an unsigned 32-bit word
        path = tmp_path / "x.wav"
        path.write_bytes(wav_bytes(bits=32, samples=np.zeros(4), rate=2 ** 30 - 1))
        assert pkio.read_wav(path).sample_rate == 2.0 ** 30 - 1

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
        for header in (b"P5\n# a comment\n2 2\n255\n",
                       b"P5\t# one\n2\t#two 3\n\t2 # three\n255\n"):  # one between every field
            path.write_bytes(header + bytes([0, 4, 250, 255]))
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

    @pytest.mark.parametrize("raw", [b"P5", b"P5\n4\n", b"P5\n4 4\n", b"P5 4 4 # 255\n"])
    def test_rejects_truncated_header(self, tmp_path, raw):
        path = tmp_path / "h.pgm"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="^truncated header$"):
            pkio.read_pgm(path)

    @pytest.mark.parametrize("field, shown", [
        (b"abc", "abc"),
        (b"1_0", "1_0"),  # int() would read 10
        ("\u0661".encode(), "\\xd9\\xa1"),  # ARABIC-INDIC DIGIT ONE in UTF-8
    ])
    def test_rejects_a_header_field_that_is_not_ascii_digits(self, tmp_path, field, shown):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P5\n" + field + b" 4\n255\n" + bytes(16))
        with pytest.raises(ValueError) as raised:
            pkio.read_pgm(path)
        assert str(raised.value) == f"bad header field '{shown}'"

    def test_rejects_a_header_field_past_int_digit_limit(self, tmp_path):
        # 5,000 digits: int() would refuse it with its own message
        path = tmp_path / "long.pgm"
        path.write_bytes(b"P5\n" + b"1" * 5000 + b" 4\n255\n" + bytes(16))
        with pytest.raises(ValueError) as raised:
            pkio.read_pgm(path)
        assert str(raised.value) == f"bad header field '{'1' * 20}...'"

    def test_accepts_a_twenty_digit_header_field(self, tmp_path):
        path = tmp_path / "padded.pgm"
        path.write_bytes(b"P5\n" + b"0" * 19 + b"2 2\n255\n" + bytes(range(4)))
        assert pkio.read_pgm(path).pixels.tolist() == [[0.0, 1.0], [2.0, 3.0]]

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

    @pytest.mark.parametrize("pixels", [[[np.nan, 3.0]], [[3.0, np.nan]], [[np.inf, 3.0]]])
    def test_rejects_non_finite_pixels_and_leaves_no_file(self, tmp_path, pixels):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="outside"):
                pkio.write_pgm(tmp_path / "x.pgm", np.array(pixels))
        assert not (tmp_path / "x.pgm").exists()

    @pytest.mark.parametrize("maxval", [0, 65536])
    def test_rejects_bad_maxval(self, tmp_path, maxval):
        with pytest.raises(ValueError, match=f"bad maxval {maxval}"):
            pkio.write_pgm(tmp_path / "x.pgm", np.zeros((2, 2)), maxval=maxval)
        assert not (tmp_path / "x.pgm").exists()

    @pytest.mark.parametrize("maxval", [255, 1000, 65535])
    def test_preview_and_bytes_are_the_one_shot_expressions(self, tmp_path, maxval):
        pixels = np.random.default_rng(maxval).standard_normal((33, 17)) * 1e3
        lo, hi = pixels.min(), pixels.max()
        preview = pkio.pgm_preview(pixels, maxval)
        want = np.rint((pixels - lo) / (hi - lo) * maxval)
        assert np.array_equal(preview.view(np.int64), want.view(np.int64))
        pkio.write_pgm(tmp_path / "p.pgm", preview, maxval)
        dtype = ">u2" if maxval > 255 else "u1"
        assert (tmp_path / "p.pgm").read_bytes() == (
            f"P5\n17 33\n{maxval}\n".encode() + np.rint(preview).astype(dtype).tobytes())

    @pytest.mark.parametrize("maxval", [None, 255, 65535],
                             ids=["preview", "pgm-8-bit", "pgm-16-bit"])
    def test_preview_and_writer_peak_memory(self, tmp_path, maxval):
        # the preview rescales one copy in place (2.0 images with a temporary
        # per step); the writer rounds straight into 1 or 2 bytes a pixel
        # (1.1 images with a float rint, its bytes and the header prepended)
        pixels = np.random.default_rng(8).standard_normal((512, 512))
        preview = pkio.pgm_preview(pixels, maxval or 255)
        tracemalloc.start()
        try:
            if maxval is None:
                pkio.pgm_preview(pixels)
            else:
                pkio.write_pgm(tmp_path / "p.pgm", preview, maxval)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= (1.1 if maxval is None else 0.3) * pixels.nbytes

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


class TestOutputFile:
    def test_failed_body_removes_the_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        with pytest.raises(RuntimeError):
            with pkio.output_file(path) as fh:
                fh.write(b"partial")
                raise RuntimeError("failed")
        assert not path.exists()
        with pkio.output_file(path) as fh:
            fh.write(b"whole")
        assert path.read_bytes() == b"whole"

    @pytest.mark.parametrize("call", [
        "pkio.write_pgm(path, np.zeros((512, 512)))",
    ], ids=["pgm"])
    def test_library_writer_leaves_no_partial_file(self, tmp_path, call):
        path = tmp_path / "out.bin"
        script = ("import sys; import numpy as np; import phasekit.io as pkio; "
                  f"from phasekit import Signal; path = sys.argv[1]; {call}")
        proc = run_with_file_limit(["-c", script, str(path)])
        assert proc.returncode == 1 and "File too large" in proc.stderr
        assert not path.exists()

    def test_every_written_path_goes_through_the_opener(self):
        assert unguarded_writes(SOURCE) == []

    def test_only_the_fork_helper_forks_and_waits(self):
        assert fork_and_wait_calls(SOURCE) == []
        # the scan sees the helper's own fork and waits
        assert len(fork_and_wait_calls(SOURCE, helper=None)) >= 3
