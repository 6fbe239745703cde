"""File formats for the command-line tools: CSV, mono WAV, binary PGM.

Column files and grid files share one CSV codec: '# key = value' header
lines, an optional row of column names, then comma-separated numbers, each
the text of Python's '%.17g' (round-trippable, '.' radix, '\\n' line endings,
no timestamps).  The writer formats a block of rows at a time with a numpy
kernel that computes the correctly rounded 17 digits of every value at once
from a double-double table of powers of ten; a block holding a value the
kernel cannot decide (a tie at the 17th digit, a magnitude below about
1e-292, a non-finite value) is formatted with one Python '%' on a repeated
'%.17g' row format, so the bytes are those of '%' either way.  A large
output is formatted in two halves on two CPUs where the platform allows (a
forked child formats the second half), with the same bytes.  The reader
parses the data rows with one ``np.loadtxt`` call on the stream of stripped
lines, so numbers take its syntax.  The header is the '# key = value' pairs
of the comment lines before the first data row; later comment lines are
skipped.  Header values are rendered by the writer: a float as '%.17g', a
bool as 'true'/'false', anything else through ``str``.  All writers are
deterministic, and each opens its file with :func:`output_file`, so a
failed write leaves no partial file.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os
import shutil
import stat
import struct
import tempfile
from pathlib import Path

import numpy as np

from .spectral import Image, Signal


def format_float(value: float) -> str:
    """Round-trippable decimal rendering of a double."""
    return f"{value:.17g}"


@contextlib.contextmanager
def output_file(path, mode: str = "w", **kwargs):
    """``open(path, mode, **kwargs)`` for writing.  If the body or the close
    raises, ``path`` is removed when it is the regular file this call opened
    (never a symlink, device, FIFO or directory); the exception propagates,
    and an OSError that names no file (a failed write) is given ``path``."""
    opened = False
    try:
        with open(path, mode, **kwargs) as fh:
            st = os.lstat(path)
            opened = stat.S_ISREG(st.st_mode) and os.path.samestat(st, os.fstat(fh.fileno()))
            yield fh
    except BaseException as exc:
        if opened:
            with contextlib.suppress(OSError):
                os.unlink(path)
        if isinstance(exc, OSError) and exc.filename is None:
            exc.filename = os.fspath(path)
        raise


def _header_text(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    return format_float(value) if isinstance(value, float) else str(value)


# values formatted per block (whole rows, at least one): blocks of 2**13 to
# 2**15 values write equally fast (2**12 about 8 % slower), and a block's
# working arrays take about 2 MB at 2**13
_BLOCK_VALUES = 1 << 13
# outputs of at least this many values (and two rows) are formatted in two
# halves, the second by a forked child, when this process may use two CPUs:
# the split costs about 3 ms and, with the '%.17g' kernel, breaks even
# between 2**15 and 2**15.25 values; on two CPUs it saved 5-12 % of a write
# at 2**15.5 and 13-32 % from 2**16 on
_SPLIT_VALUES = 1 << 15

# 10**s as the double-double hh + hl + lo (hh and hl hold 26 bits each) for s
# in [_POW_MIN, _POW_MAX]: 17 digits of every magnitude from about 1e-292 up
_POW_MIN, _POW_MAX = -300, 308
# a scaled value whose fraction is this close to one half may be a tie; the
# double-double product is good to about 4e-15 of the last digit
_TIE = 2.0 ** -30
_TOP26 = np.int64(~((1 << 27) - 1))  # keeps a double's top 26 significand bits
_WORD = np.dtype("<u8")  # a record is 6 words; byte k of a word is bits 8k..8k+7


def _word(text: str) -> int:
    return int.from_bytes(text.encode("ascii").ljust(8, b"\0"), "little")


@functools.lru_cache(maxsize=None)
def _g17_tables():
    """The tables of the '%.17g' kernel, built on first use in a few ms:
    10**s split as (hh, hl, lo); the digits of 0000-9999 at a word's even
    bytes and their trailing zeros; sign and '0.000' heads; 'e+XX' tails for
    exponents -400..399 after a blank one; the masks of the four digit words
    that keep k digits; and the highest set bit of 0..15 (-1 for 0)."""
    pow10 = []
    for s in range(_POW_MIN, _POW_MAX + 1):
        num, den = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
        m, q = (num / den).as_integer_ratio()
        shift = max(m.bit_length() - 26, 0)
        top = (m + (1 << shift >> 1)) >> shift << shift
        pow10.append((top / q, (m - top) / q, (num * q - m * den) / (den * q)))
    g = np.arange(10000)
    digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10]).astype(np.uint64)
    groups = sum((d + np.uint64(48)) << np.uint64(16 * j) for j, d in enumerate(digits))
    zeros = sum((g % 10 ** k == 0).astype(np.int64) for k in range(1, 5))
    heads = [_word(sign + prefix) for sign in ("\0", "-")
             for prefix in ("", "0.", "0.0", "0.00", "0.000")]
    tails = [0] + [_word(f"e{x:+03d}") for x in range(-400, 400)]
    masks = [[(1 << 16 * min(max(k - j, 0), 4)) - 1 for j in range(1, 17, 4)]
             for k in range(18)]
    tables = (np.array(pow10).T.copy(), groups.astype(_WORD), zeros,
              np.array(heads, _WORD), np.array(tails, _WORD), np.array(masks, _WORD),
              np.array([b.bit_length() - 1 for b in range(16)]))
    for table in tables:
        table.flags.writeable = False
    return tables


def _g17_scaled(a: np.ndarray, e: np.ndarray, pow10: np.ndarray):
    """floor(a * 10**(16 - e)) and its fraction, to about 4e-15: Dekker's
    exact product of a and hh + hl, plus a * lo."""
    hh, hl, lo = pow10[:, 16 - e - _POW_MIN]
    p = a * (hh + hl)
    ah = (a.view(np.int64) & _TOP26).view(np.float64)
    al = a - ah
    t = ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * lo
    whole = np.floor(p)
    t += p - whole
    r = np.floor(t)
    return whole.astype(np.int64) + r.astype(np.int64), t - r


def _g17_records(block: np.ndarray):
    """The '%.17g' text of each value of a 2-D ``block``, followed by ',' or,
    at the end of a row, '\n', as 48-byte records padded with NULs; and
    which values the kernel could not decide (non-finite, below about
    1e-292, or within _TIE of a rounding tie), whose records are garbage.

    The 17 digits D and the exponent x follow Python's correctly rounded
    '%.17g': D = round(|v| * 10**(16 - x)) in [10**16, 10**17), with
    x = floor(log10 |v|) moved by one where D falls outside; then the text
    is laid out as '%g' does, with trailing zeros dropped.  A record is a
    head word (sign, the '0.000' of -4 <= x < 0, the first digit), four
    words of digits at their even bytes, and a tail word ('e+XX' and the
    separator); the decimal point goes into the odd byte after its digit.
    """
    pow10, groups, zeros, heads, tails, masks, top_bit = _g17_tables()
    values = block.ravel()
    n = values.size
    a = np.abs(values)
    zero = a == 0
    undecided = ~np.isfinite(a)
    a[undecided | zero] = 1.0
    x = np.floor(np.log10(a)).astype(np.int64)
    outside = (x < 16 - _POW_MAX) | (x > 16 - _POW_MIN)
    undecided |= outside
    x[outside] = 0
    low, frac = _g17_scaled(a, x, pow10)
    digits = low + (frac > 0.5)
    # log10 may put x one too high (low < 10**16) or one too low: redo those
    redo = np.flatnonzero((low < 10 ** 16) | (digits > 10 ** 17))
    if redo.size:
        x2 = x[redo] + np.where(digits[redo] > 10 ** 17, 1, -1)
        inside = (16 - x2 >= _POW_MIN) & (16 - x2 <= _POW_MAX)
        x2[~inside] = 0
        low2, frac[redo] = _g17_scaled(a[redo], x2, pow10)
        digits[redo] = low2 + (frac[redo] > 0.5)
        undecided[redo] |= ~inside | (low2 < 10 ** 16) | (digits[redo] > 10 ** 17)
        x[redo] = x2
    undecided |= np.abs(frac - 0.5) < _TIE
    carry = digits == 10 ** 17  # 99999999999999999.5 and up rounds to 1e17
    digits[carry] = 10 ** 16
    x += carry
    digits[zero] = 0
    x[zero] = 0

    upper = digits // 100000000
    first = upper // 100000000
    quads = np.empty((n, 4), np.int64)
    quads[:, 0], quads[:, 1] = np.divmod(upper - first * 100000000, 10000)
    quads[:, 2], quads[:, 3] = np.divmod(digits - upper * 100000000, 10000)
    # significant digits: through the last nonzero quad, less its trailing zeros
    last = top_bit[(quads != 0) @ np.array([1, 2, 4, 8])]
    significant = np.where(last < 0, 1, 5 + 4 * last - zeros[quads.ravel()[4 * np.arange(n) + last]])
    fixed = (x >= -4) & (x < 17)
    whole = np.where(fixed & (x > 0), x + 1, 1)  # digits before the point
    records = np.empty((n, 6), _WORD)
    records[:, 0] = heads[np.signbit(values) * 5 + np.where(fixed & (x < 0), -x, 0)]
    records[:, 0] |= (first + 48).astype(np.uint64) << np.uint64(48)
    records[:, 1:5] = groups[quads]
    keep = np.maximum(significant, whole)
    short = np.flatnonzero(keep < 17)
    records[short, 1:5] &= masks[keep[short]]
    ends = np.full(block.shape[1], _word("\0\0\0\0\0,"), np.uint64)
    ends[-1] = _word("\0\0\0\0\0\n")
    records[:, 5] = tails[np.where(fixed, 0, x + 401)]
    records[:, 5] |= np.tile(ends, block.shape[0])
    point = np.flatnonzero((significant > whole) & ~(fixed & (x < 0)))
    records.view(np.uint8).reshape(-1)[48 * point + 5 + 2 * whole[point]] = ord(".")
    return records, undecided


def _write_rows(fh, rows: np.ndarray, row_format: str) -> None:
    """Write ``rows`` to the text file ``fh`` a block of rows at a time: the
    '%.17g' kernel's text, or one '%' on the repeated ``row_format`` for a
    block that holds a value the kernel cannot decide."""
    step = max(1, _BLOCK_VALUES // rows.shape[1])
    for start in range(0, rows.shape[0], step):
        block = rows[start:start + step]
        records, undecided = _g17_records(block)
        if undecided.any():
            fh.write((row_format * block.shape[0]) % tuple(block.ravel().tolist()))
        else:
            fh.write(records.tobytes().translate(None, b"\0").decode("ascii"))


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
    _g17_tables()  # built once, before the fork, for both processes
    try:
        tmp = tempfile.TemporaryFile()
    except OSError:
        return None
    try:
        # Python 3.12+ warns (a DeprecationWarning, hidden by the default
        # filters and never raised) that forking a multi-threaded process such
        # as numpy's BLAS pool may deadlock the child; this child calls no BLAS
        # and runs only numpy's element-wise and integer loops, tolist,
        # '%'-formatting and file writes before os._exit
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
    # UTF-8 whatever the locale; a path byte that is not UTF-8 (a surrogate
    # from os.fsdecode) is written back as itself, and _read_csv reads it
    with output_file(path, "w", newline="\n", encoding="utf-8", errors="surrogateescape") as fh:
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
    with open(path, "r", newline="", encoding="utf-8", errors="surrogateescape") as fh:
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
    with output_file(path, "wb") as fh:
        fh.write(header + payload)


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
    with output_file(path, "wb") as fh:
        fh.write(header + np.rint(pixels).astype(dtype).tobytes())


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
