"""File formats for the command-line tools: CSV, mono WAV, binary PGM.

Column files and grid files share one CSV codec: '# key = value' header
lines, an optional row of column names, then comma-separated numbers.  The
writer formats blocks of rows with one '%' each on a repeated '%.17g' row
format (round-trippable, '.' radix, '\\n' line endings, no timestamps).
A large output is formatted in two halves on two CPUs where the platform
allows (a forked child formats the second half), with the same bytes.  The
reader parses the data rows with one ``np.loadtxt`` call on the stream
of stripped lines, so numbers take its syntax.  The header is the
'# key = value' pairs of the comment lines before the first data row;
later comment lines are skipped.  Header values are rendered by the
writer: a float as '%.17g', a bool as 'true'/'false', anything else
through ``str``.  All writers are deterministic.
"""
from __future__ import annotations

import itertools
import math
import os
import shutil
import struct
import tempfile
from pathlib import Path

import numpy as np

from .spectral import Image, Signal


def format_float(value: float) -> str:
    """Round-trippable decimal rendering of a double."""
    return f"{value:.17g}"


def _header_text(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    return format_float(value) if isinstance(value, float) else str(value)


# values formatted per '%' call (whole rows, at least one): a block's text is
# about 100 kB, and blocks of 2**10 to 2**16 values write equally fast
_BLOCK_VALUES = 1 << 12
# outputs of at least this many values (and two rows) are formatted in two
# halves, the second by a forked child, when this process may use two CPUs:
# the split costs about 3.5 ms, breaks even between 12k and 16k values and,
# on two CPUs, saved 15-47 % of every write from 2**15 values on
_SPLIT_VALUES = 1 << 15


def _write_rows(fh, rows: np.ndarray, row_format: str) -> None:
    """Write ``rows`` to the text file ``fh``, one '%' per block of rows."""
    step = max(1, _BLOCK_VALUES // rows.shape[1])
    for start in range(0, rows.shape[0], step):
        block = rows[start:start + step]
        fh.write((row_format * block.shape[0]) % tuple(block.ravel().tolist()))


def _quota_cpus(table: str = "/proc/self/cgroup", root: str = "/sys/fs/cgroup") -> float:
    """The CPUs' worth of time that cgroup quotas allow this process: the
    least quota / period over its cgroups and their ancestors (v2 'cpu.max',
    v1 'cpu/cpu.cfs_quota_us'); inf where none is set or readable."""
    cpus = math.inf
    try:
        with open(table) as fh:
            entries = [line.rstrip("\n").split(":", 2) for line in fh]
    except OSError:
        return cpus
    for entry in entries:
        if len(entry) != 3 or not (entry[1] == "" or "cpu" in entry[1].split(",")):
            continue
        v2 = entry[1] == ""
        base = Path(root) if v2 else Path(root, "cpu")
        parts = Path(entry[2]).parts[1:]
        for depth in range(len(parts) + 1):
            where = base.joinpath(*parts[:depth])
            try:
                if v2:
                    quota, period = (where / "cpu.max").read_text().split()
                else:
                    quota, period = ((where / f"cpu.cfs_{name}_us").read_text()
                                     for name in ("quota", "period"))
                if int(quota) > 0:
                    cpus = min(cpus, int(quota) / int(period))
            except (OSError, ValueError):  # no file here, or no quota ('max')
                pass
    return cpus


def _splits(rows: np.ndarray) -> bool:
    # without sched_getaffinity (Windows, macOS) the CPU count is unknown; a
    # cgroup quota (a container's CPU limit) leaves the affinity mask alone
    return (rows.size >= _SPLIT_VALUES and rows.shape[0] >= 2
            and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1
            and _quota_cpus() >= 2)


def _fork_rows(rows: np.ndarray, row_format: str):
    """Format ``rows`` into an unnamed temporary file in a forked child.

    Returns (child pid, binary file), or None if the file or the fork cannot
    be made.  The child leaves through ``os._exit`` (0 once its text is
    flushed, 1 on any exception): it never returns into the caller's frames
    and never flushes the buffers it inherited.
    """
    try:
        tmp = tempfile.TemporaryFile()
    except OSError:
        return None
    try:
        # Python 3.12+ warns (a DeprecationWarning, hidden by the default
        # filters and never raised) that forking a multi-threaded process such
        # as numpy's BLAS pool may deadlock the child; this child calls no BLAS
        # and runs only tolist, '%'-formatting and file writes before os._exit
        pid = os.fork()
    except OSError:
        tmp.close()
        return None
    if pid == 0:
        status = 1
        try:
            with open(tmp.fileno(), "w", newline="\n", closefd=False) as out:
                _write_rows(out, rows, row_format)
            status = 0
        finally:
            os._exit(status)
    return pid, tmp


def _join(pid: int, tmp):
    """Wait for the child; return its file if it exited 0, else close the
    file and return None."""
    try:
        _, status = os.waitpid(pid, 0)
    except ChildProcessError:  # reaped elsewhere: its exit status is unknown
        status = -1
    if status == 0:
        return tmp
    tmp.close()
    return None


def _write_csv(path, header: dict, names: list[str] | None, rows: np.ndarray) -> None:
    """Write phasekit's CSV layout: '# key = value' lines, an optional names
    row, then one '%.17g' row per row of ``rows`` (2-D, at least one column),
    formatted a block of rows at a time.

    A large output is written in two halves: a forked child formats the
    second into a temporary file while this process formats the first, then
    this process appends the child's text.  If the file, the fork or the
    child fails, this process formats the second half itself.
    """
    row = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    with open(path, "w", newline="\n") as fh:
        for key, value in header.items():
            fh.write(f"# {key} = {_header_text(value)}\n")
        if names is not None:
            fh.write(",".join(names) + "\n")
        mid = rows.shape[0] // 2 if _splits(rows) else rows.shape[0]
        tail = _fork_rows(rows[mid:], row) if mid < rows.shape[0] else None
        try:
            _write_rows(fh, rows[:mid], row)
        finally:
            # the child is reaped also when the first half raised
            if tail is not None:
                tail = _join(*tail)
        if tail is None:
            _write_rows(fh, rows[mid:], row)
            return
        with tail:
            tail.seek(0)
            fh.flush()
            shutil.copyfileobj(tail, fh.buffer)


def _parses(line: str) -> bool:
    try:
        np.loadtxt([line], delimiter=",")
    except ValueError:
        return False
    return True


def _read_csv(path) -> tuple[dict, list[str] | None, np.ndarray]:
    """Parse phasekit's CSV layout into (header, names or None, 2-D data).

    The '# key = value' pairs come from the comment lines before the first
    data row; the first non-comment, non-blank row is the names row unless
    it parses as numbers.  The rest of the file goes to one ``np.loadtxt``
    call as a stream of stripped lines, which skips blank and comment lines;
    the file is read once, front to back, so a pipe works too.
    """
    header = {}
    names = None
    with open(path, "r", newline="") as fh:
        for line in fh:
            body = line.strip()
            if body.startswith("#"):
                key, eq, value = body.lstrip("#").partition("=")
                if eq:
                    header[key.strip()] = value.strip()
            elif body:
                if names is not None or _parses(body):
                    break
                names = [p.strip() for p in body.split(",")]
        else:
            raise ValueError(f"no data rows in {path}")
        data = np.loadtxt(itertools.chain([body], map(str.strip, fh)), delimiter=",", ndmin=2)
    return header, names, data


def write_columns_csv(path, header: dict, names: list[str], columns: list[np.ndarray]) -> None:
    """Write named columns with a '#'-comment metadata header."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    if len(names) != len(columns) or not columns:
        raise ValueError("need one name per column")
    if any(c.size != columns[0].size for c in columns):
        raise ValueError("columns must share one length")
    _write_csv(path, header, names, np.column_stack(columns))


def read_columns_csv(path):
    """Read a column CSV; returns (header dict, names, list of arrays)."""
    header, names, data = _read_csv(path)
    if names is None or len(names) != data.shape[1]:
        names = [f"col{i}" for i in range(data.shape[1])]
    return header, names, [data[:, i] for i in range(data.shape[1])]


def read_signal_csv(path) -> Signal:
    """Load a two-column (t, value) CSV as a Signal.

    The sample rate is inferred from the time column; single-column files
    are accepted with an implied unit rate.
    """
    _, _, cols = read_columns_csv(path)
    if len(cols) == 1:
        return Signal(cols[0])
    t, x = cols[0], cols[1]
    if t.size < 2:
        return Signal(x)
    # a step between huge times overflows to inf, which is rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        steps = np.diff(t)
    if not 0 < steps[0] < np.inf or not np.allclose(steps, steps[0], rtol=1e-6, atol=0.0):
        raise ValueError(f"time column of {path} is not uniformly increasing")
    return Signal(x, 1.0 / steps[0])


# ---------------------------------------------------------------------------
# WAV: minimal RIFF reader/writer for mono 16-bit PCM and 32-bit float
# ---------------------------------------------------------------------------

def read_wav(path) -> Signal:
    """Read a mono WAV file (16-bit PCM or 32-bit float) into [-1, 1]."""
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise ValueError(f"{path} is not a RIFF/WAVE file")
    pos = 12
    fmt = None
    data = None
    while pos + 8 <= len(raw):
        chunk_id = raw[pos:pos + 4]
        size = struct.unpack_from("<I", raw, pos + 4)[0]
        body = raw[pos + 8:pos + 8 + size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise ValueError(f"{path}: truncated fmt chunk")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            data = body
        pos += 8 + size + (size & 1)
    if fmt is None or data is None:
        raise ValueError(f"{path} is missing fmt/data chunks")
    audio_format, channels, rate, _, _, bits = fmt
    if channels != 1:
        raise ValueError(f"{path}: only mono WAV is supported (got {channels} channels)")
    if audio_format == 1 and bits == 16:
        samples = np.frombuffer(data, dtype="<i2").astype(float) / 32768.0
    elif audio_format == 3 and bits == 32:
        samples = np.frombuffer(data, dtype="<f4").astype(float)
    else:
        raise ValueError(f"{path}: unsupported WAV format (format={audio_format}, bits={bits})")
    return Signal(samples, float(rate))


def write_wav(path, signal: Signal, encoding: str = "float32") -> None:
    """Write a mono WAV file as 16-bit PCM or 32-bit float."""
    x = signal.samples
    if encoding == "pcm16":
        clipped = np.clip(np.rint(x * 32768.0), -32768, 32767).astype("<i2")
        payload = clipped.tobytes()
        audio_format, bits = 1, 16
    elif encoding == "float32":
        payload = x.astype("<f4").tobytes()
        audio_format, bits = 3, 32
    else:
        raise ValueError(f"unknown WAV encoding {encoding!r}")
    block = bits // 8
    rate = int(signal.sample_rate)
    if rate != signal.sample_rate or rate * block > 0xFFFFFFFF:
        raise ValueError(f"WAV sample rate {signal.sample_rate!r} is not a whole number "
                         "of Hz that fits the header")
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, audio_format, 1, rate, rate * block, block, bits,
        b"data", len(payload))
    Path(path).write_bytes(header + payload)


# ---------------------------------------------------------------------------
# PGM (binary P5) and CSV grids
# ---------------------------------------------------------------------------

def read_pgm(path) -> Image:
    """Read an 8- or 16-bit binary (P5) portable graymap."""
    raw = Path(path).read_bytes()
    if raw[:2] != b"P5":
        raise ValueError(f"{path} is not a binary PGM (P5) file")
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if raw[pos:pos + 1] == b"#":
            while pos < len(raw) and raw[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        fields.append(int(raw[start:pos]))
    pos += 1  # single whitespace after maxval
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise ValueError(f"{path}: bad size {width}x{height}")
    if not 0 < maxval < 65536:
        raise ValueError(f"{path}: bad maxval {maxval}")
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    count = width * height
    if count * dtype.itemsize > len(raw) - pos:
        raise ValueError(f"{path}: truncated pixel data")
    pixels = np.frombuffer(raw, dtype=dtype, count=count, offset=pos)
    return Image(pixels.reshape(height, width).astype(float))


def write_pgm(path, pixels: np.ndarray, maxval: int = 255) -> None:
    """Write integer-valued pixels in [0, maxval] as a binary PGM."""
    pixels = np.asarray(pixels)
    if not 0 < maxval < 65536:
        raise ValueError(f"bad maxval {maxval}")
    if pixels.min() < 0 or pixels.max() > maxval:
        raise ValueError("pixel values outside [0, maxval]; rescale first")
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    height, width = pixels.shape
    header = f"P5\n{width} {height}\n{maxval}\n".encode("ascii")
    Path(path).write_bytes(header + np.rint(pixels).astype(dtype).tobytes())


def pgm_preview(pixels: np.ndarray, maxval: int = 255) -> np.ndarray:
    """Rescale arbitrary real pixels onto [0, maxval] for a PGM preview."""
    pixels = np.asarray(pixels, dtype=float)
    lo = pixels.min()
    hi = pixels.max()
    if hi == lo:
        return np.zeros_like(pixels)
    return np.rint((pixels - lo) / (hi - lo) * maxval)


def write_grid_csv(path, header: dict, pixels: np.ndarray) -> None:
    """Write a 2-D grid as full-precision CSV rows with a comment header."""
    pixels = np.asarray(pixels, dtype=float)
    if pixels.ndim != 2 or pixels.size < 1:
        raise ValueError(f"grid must be a non-empty 2-D array, got shape {pixels.shape}")
    _write_csv(path, header, None, pixels)


def read_grid_csv(path) -> Image:
    """Read a CSV grid (comment lines ignored) as an Image."""
    _, names, data = _read_csv(path)
    if names is not None:
        raise ValueError(f"{path}: non-numeric row {','.join(names)!r}")
    return Image(data)


def read_image(path) -> Image:
    """Dispatch PGM vs CSV grid by file suffix."""
    suffix = Path(path).suffix.lower()
    if suffix == ".pgm":
        return read_pgm(path)
    return read_grid_csv(path)


def read_any_signal(path) -> Signal:
    """Dispatch WAV vs column CSV by file suffix."""
    suffix = Path(path).suffix.lower()
    if suffix == ".wav":
        return read_wav(path)
    return read_signal_csv(path)
