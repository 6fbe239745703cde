"""File formats for the command-line tools: CSV, mono WAV, binary PGM.

Column files and grid files share one CSV codec: '# key = value' header
lines, an optional row of column names, then comma-separated numbers, each
the text of Python's '%.17g' (round-trippable, '.' radix, '\\n' line endings,
no timestamps).  The writer formats a block of rows at a time, stacked from
the columns' slices of those rows (no copy of the whole table), with a numpy
kernel that computes the correctly rounded 17 digits of every value at once
from a double-double table of powers of ten; a value the kernel cannot
decide (a tie at the 17th digit, a magnitude below about 1e-292, a
non-finite value) is formatted with Python's '%' alone, while the rest of
its block keeps the kernel's text, so the bytes are those of '%'.  A large
output is formatted in two halves on two CPUs where the platform allows (a
forked child formats the second half), with the same bytes.  The reader
parses the data rows with one ``np.loadtxt`` call on the stream of stripped
lines, so numbers take its syntax.  A large regular file is parsed in two
halves on two CPUs instead, cut at the first '\n' past the midpoint of the
bytes after the first data row: a forked child parses the second half with
the same call and hands back its float64 rows.  A pipe, a file with no '\n'
to cut at, a failed or late child, a parse error in either half and column
counts that differ fall back to the one stream parse, so the data, the
errors and the warnings are those of that parse.  Both splits run through
one fork helper, whose wait for the child is bounded.  The header is the
'# key = value' pairs of the comment lines before the first data row; later
comment lines are skipped.  Header values are rendered by the writer: a
float as '%.17g', a bool as 'true'/'false', anything else through ``str``.
All writers are deterministic.  Each writes one binary stream to the file
it opens with :func:`output_file`, so a failed write leaves no partial file;
a CSV's header lines and names row are encoded once as UTF-8 and go to the
same stream as its ASCII rows.
"""
from __future__ import annotations

import contextlib
import errno
import functools
import itertools
import math
import os
import re
import shutil
import stat
import struct
import tempfile
import time
import warnings
from io import StringIO
from pathlib import Path

import numpy as np

from .spectral import Image, Signal


def _make_dirs(directory) -> None:
    if os.path.lexists(directory) and not os.path.isdir(directory):  # mkdir says "File exists"
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(directory))
    Path(directory).mkdir(parents=True, exist_ok=True)


@contextlib.contextmanager
def output_file(path):
    """``open(path, "wb")``.  If the body or the close raises, ``path`` is
    removed when it is the regular file this call opened (never a symlink,
    device, FIFO or directory); the exception propagates, and an OSError
    that names no file (a failed write) is given ``path``."""
    opened = False
    try:
        with open(path, "wb") as fh:
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
    return f"{value:.17g}" if isinstance(value, float) else str(value)


# values formatted per block (whole rows, at least one): blocks of 2**13 to
# 2**15 values write equally fast (2**12 about 8 % slower), and a block's
# working arrays take about 2 MB at 2**13
_BLOCK_VALUES = 1 << 13
# a forked child may run this long, and as long again as the parent's own
# half took, after that half is done; then it is killed and its half redone
_CHILD_GRACE_S = 1.0
# outputs of at least this many values (and two rows) are formatted in two
# halves, the second by a forked child, when this process may use two CPUs:
# the split costs about 3 ms and, with the '%.17g' kernel, breaks even
# between 2**15 and 2**15.25 values; on two CPUs it saved 5-12 % of a write
# at 2**15.5 and 13-32 % from 2**16 on
_SPLIT_VALUES = 1 << 15
# inputs with at least this many bytes after the first data row are parsed
# in two halves, the second by a forked child, when this process may use two
# CPUs: the split costs about 4 ms and breaks even near 2**18.6 bytes (two
# CPUs, 8 kHz t,value rows); it saved 8 % of a read at 2**19 bytes and
# 19-24 % from 2**19.3 on
_SPLIT_BYTES = 1 << 19
_CHUNK_BYTES = 1 << 16  # bytes read at a time by a half's parse

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


def _write_rows(fh, columns: list[np.ndarray]) -> None:
    """Write the rows of ``columns`` (2-D arrays of one length, side by side)
    to the binary file ``fh`` a block of rows at a time as the '%.17g'
    kernel's ASCII text, each block stacked from the columns' slices; the
    record of each value the kernel cannot decide is overwritten with the
    text of '%' for that value alone."""
    cols = sum(c.shape[1] for c in columns)
    step = max(1, _BLOCK_VALUES // cols)
    for start in range(0, columns[0].shape[0], step):
        block = np.concatenate([c[start:start + step] for c in columns], axis=1)
        records, undecided = _g17_records(block)
        texts = records.view("S48")[:, 0]  # a record per value; assigning pads with NULs
        for i in np.flatnonzero(undecided).tolist():
            end = b"\n" if i % cols == cols - 1 else b","
            texts[i] = b"%.17g" % block.flat[i] + end
        fh.write(records.tobytes().translate(None, b"\0"))


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


def _two_cpus() -> bool:
    # without sched_getaffinity (Windows, macOS) the CPU count is unknown; a
    # cgroup quota (a container's CPU limit) leaves the affinity mask alone
    return (hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1
            and _quota_cpus() >= 2)


def _forked(child, parent):
    """Run ``child(file)`` in a forked child process, ``file`` being an
    unnamed temporary binary file, while this process runs ``parent()``.

    Returns ``parent()``'s result and the child's file, rewound, or None in
    its place if the file or the fork cannot be made or the child fails.
    The child leaves through ``os._exit`` (1 on any exception): it never
    returns into the caller's frames nor flushes the buffers it inherited.
    A child still running when ``parent()`` raises, or _CHILD_GRACE_S plus
    as long as ``parent()`` took after ``parent()`` returned, is killed with
    SIGKILL and reaped, and counts as failed.
    """
    try:
        tmp = tempfile.TemporaryFile()
    except OSError:
        return parent(), None
    try:
        # Python 3.12+ warns (hidden by the default filters) that forking a
        # multi-threaded process such as numpy's BLAS pool may deadlock the
        # child; no child here calls BLAS, and one that deadlocks is killed
        pid = os.fork()
    except OSError:
        tmp.close()
        return parent(), None
    if pid == 0:
        status = 1
        try:
            child(tmp)
            tmp.flush()
            status = 0
        finally:
            os._exit(status)
    status = None  # the child's wait status once reaped, -1 if reaped elsewhere
    try:
        start = time.monotonic()
        result = parent()
        deadline, delay = 2 * time.monotonic() - start + _CHILD_GRACE_S, 1e-4
        while status is None and time.monotonic() < deadline:  # polled: a bounded wait
            try:
                done, code, _ = os.wait4(pid, os.WNOHANG)
            except ChildProcessError:
                done, code = pid, -1
            if done:
                status = code
            else:
                time.sleep(delay)
                delay = min(2 * delay, 2e-3)
    finally:
        if status is None:  # parent() raised, or the child is late
            import signal  # only this path needs it

            # only a live child: one reaped elsewhere (SIGCHLD ignored) frees its pid
            with contextlib.suppress(ChildProcessError):
                if not os.wait4(pid, os.WNOHANG)[0]:
                    os.kill(pid, signal.SIGKILL)
                    os.wait4(pid, 0)
        if status != 0:
            tmp.close()
    if status != 0:
        return result, None
    tmp.seek(0)
    return result, tmp


def _write_csv(path, header: dict, names: list[str] | None, columns: list[np.ndarray]) -> None:
    """Write phasekit's CSV layout: '# key = value' lines, an optional names
    row, then one '%.17g' row per row of ``columns`` (2-D arrays of one
    length, side by side, at least one column), formatted a block of rows at
    a time.

    A large output is written in two halves (see ``_forked``): a forked child
    formats the second into a temporary file while this process formats the
    first, then this process appends the child's text.  If the file, the fork
    or the child fails, this process formats the second half itself.
    """
    # UTF-8 whatever the locale; a path byte that is not UTF-8 (a surrogate
    # from os.fsdecode) is written back as itself, and _read_csv reads it
    head = "".join(f"# {key} = {_header_text(value)}\n" for key, value in header.items())
    if names is not None:
        head += ",".join(names) + "\n"
    with output_file(path) as fh:
        # may sit in the buffer at the fork below, which the child never flushes
        fh.write(head.encode("utf-8", "surrogateescape"))
        rows = columns[0].shape[0]
        mid, tail = 0, None
        if rows * sum(c.shape[1] for c in columns) >= _SPLIT_VALUES and rows >= 2 and _two_cpus():
            mid = rows // 2
            _g17_tables()  # built once, before the fork, for both processes
            _, tail = _forked(functools.partial(_write_rows, columns=[c[mid:] for c in columns]),
                              functools.partial(_write_rows, fh, [c[:mid] for c in columns]))
        if tail is None:
            _write_rows(fh, [c[mid:] for c in columns])
            return
        with tail:
            shutil.copyfileobj(tail, fh)


def _parses(line: str) -> bool:
    try:
        np.loadtxt([line], delimiter=",")
    except ValueError:
        return False
    return True


_loadtxt = functools.partial(np.loadtxt, delimiter=",", ndmin=2)


def _lines(fd: int, start: int, stop: int):
    """The stripped lines of bytes ``start`` to ``stop`` of the file ``fd``, read with
    ``os.pread`` in chunks ending at '\\n' or '\\r' (a cut '\\r\\n' adds a blank line)."""
    rest = b""
    while start < stop and (data := os.pread(fd, min(_CHUNK_BYTES, stop - start), start)):
        start += len(data)
        chunk = rest + data
        cut = max(chunk.rfind(b"\n"), chunk.rfind(b"\r")) + 1 if start < stop else len(chunk)
        rest = chunk[cut:]
        yield from map(str.strip, StringIO(chunk[:cut].decode("utf-8", "surrogateescape"),
                                           newline=""))


def _put_rows(fd: int, start: int, stop: int, tmp) -> None:
    warnings.simplefilter("error")  # the child's own filters: no data fails it
    np.save(tmp, _loadtxt(_lines(fd, start, stop)))


def _split_rows(fd: int, body: str, start: int):
    """The rows of the file ``fd`` from ``body``, whose line ends at byte
    ``start``, parsed in two halves on two CPUs, or None where the module
    docstring says the one stream parse runs instead."""
    st = os.fstat(fd)
    if not (stat.S_ISREG(st.st_mode) and st.st_size - start >= _SPLIT_BYTES and _two_cpus()):
        return None
    split = (start + st.st_size) // 2
    while (window := os.pread(fd, _CHUNK_BYTES, split)) and b"\n" not in window:
        split += len(window)
    split += window.find(b"\n") + 1
    if split >= st.st_size:  # no '\n' past the midpoint, or none before the end
        return None
    try:
        head, tail = _forked(functools.partial(_put_rows, fd, split, st.st_size),
                             lambda: _loadtxt(itertools.chain([body], _lines(fd, start, split))))
    except ValueError:
        return None
    if tail is not None:
        with tail:
            rows = np.load(tail)
        if rows.shape[1] == head.shape[1]:
            return np.concatenate([head, rows])
    return None


def _read_csv(path) -> tuple[dict, list[str] | None, np.ndarray]:
    """Parse phasekit's CSV layout into (header, names or None, 2-D data).

    The '# key = value' pairs come from the comment lines before the first
    data row; the first non-comment, non-blank row is the names row unless
    it parses as numbers; a UTF-8 byte-order mark that starts the file is
    dropped.  The rest of the file goes to one ``np.loadtxt``
    call as a stream of stripped lines, which skips blank and comment lines;
    the file is read once, front to back, so a pipe works too.  A large
    regular file is parsed in two halves instead, with the same result.
    """
    header = {}
    names = None
    start = 0  # bytes of the lines read so far
    with open(path, "r", newline="", encoding="utf-8", errors="surrogateescape") as fh:
        for line in fh:
            body = (line if start else line.removeprefix("\ufeff")).strip()  # a byte-order mark
            start += len(line.encode("utf-8", "surrogateescape"))
            if body.startswith("#"):
                key, eq, value = body.lstrip("#").partition("=")
                if eq:
                    header[key.strip()] = value.strip()
            elif body:
                if names is not None or _parses(body):
                    break
                names = [p.strip() for p in body.split(",")]
        else:
            raise ValueError("no data rows")
        data = _split_rows(fh.fileno(), body, start)
        if data is None:
            data = _loadtxt(itertools.chain([body], map(str.strip, fh)))
    return header, names, data


def write_columns_csv(path, header: dict, names: list[str], columns: list[np.ndarray]) -> None:
    """Write named columns with a '#'-comment metadata header."""
    columns = [np.asarray(c, dtype=float).reshape(-1, 1) for c in columns]
    if len(names) != len(columns) or not columns:
        raise ValueError("need one name per column")
    if any(c.size != columns[0].size for c in columns):
        raise ValueError("columns must share one length")
    _write_csv(path, header, names, columns)


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
        raise ValueError("time column is not uniformly increasing")
    return Signal(x, 1.0 / steps[0])


# ---------------------------------------------------------------------------
# WAV: minimal RIFF reader for mono 16-bit PCM and 32-bit float
# ---------------------------------------------------------------------------

def read_wav(path) -> Signal:
    """Read a mono WAV file (16-bit PCM or 32-bit float) into [-1, 1]."""
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE file")
    pos = 12
    fmt = None
    data = None
    while pos + 8 <= len(raw):
        chunk_id = raw[pos:pos + 4]
        size = struct.unpack_from("<I", raw, pos + 4)[0]
        body = raw[pos + 8:pos + 8 + size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise ValueError("truncated fmt chunk")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            if len(body) < size:
                raise ValueError("truncated data chunk")
            data = body
        pos += 8 + size + (size & 1)
    if fmt is None or data is None:
        raise ValueError("missing fmt/data chunks")
    audio_format, channels, rate, _, _, bits = fmt
    if channels != 1:
        raise ValueError(f"only mono WAV is supported (got {channels} channels)")
    if (audio_format, bits) not in ((1, 16), (3, 32)):
        raise ValueError(f"unsupported WAV format (format={audio_format}, bits={bits})")
    if len(data) % (bits // 8):
        raise ValueError(f"data chunk of {len(data)} bytes is not a whole number "
                         f"of {bits // 8}-byte samples")
    if audio_format == 1:
        samples = np.frombuffer(data, dtype="<i2").astype(float) / 32768.0
    else:
        samples = np.frombuffer(data, dtype="<f4").astype(float)
    return Signal(samples, float(rate))


# ---------------------------------------------------------------------------
# PGM (binary P5) and CSV grids
# ---------------------------------------------------------------------------

_PGM_FIELD = re.compile(rb"(?:\s|#[^\n]*)*(\S*)")  # whitespace and comments, then one field


def read_pgm(path) -> Image:
    """Read an 8- or 16-bit binary (P5) portable graymap."""
    raw = Path(path).read_bytes()
    if raw[:2] != b"P5":
        raise ValueError("not a binary PGM (P5) file")
    fields = []
    pos = 2
    for _ in range(3):
        match = _PGM_FIELD.match(raw, pos)
        field, pos = match[1], match.end()
        if not field:
            raise ValueError("truncated header")
        # ASCII digits only, unlike int(); a minus is left for the size check.
        # A size or maxval of more than 20 digits fits no file, and int()
        # refuses more than 4,300 digits.
        if not field.removeprefix(b"-").isdigit() or len(field) > 20:
            shown = field[:20].decode("ascii", "backslashreplace") + "..." * (len(field) > 20)
            raise ValueError(f"bad header field '{shown}'")
        fields.append(int(field))
    pos += 1  # single whitespace after maxval
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise ValueError(f"bad size {width}x{height}")
    if not 0 < maxval < 65536:
        raise ValueError(f"bad maxval {maxval}")
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    count = width * height
    if count * dtype.itemsize > len(raw) - pos:
        raise ValueError("truncated pixel data")
    pixels = np.frombuffer(raw, dtype=dtype, count=count, offset=pos)
    return Image(pixels.reshape(height, width).astype(float))


def write_pgm(path, pixels: np.ndarray, maxval: int = 255) -> None:
    """Write integer-valued pixels in [0, maxval] as a binary PGM."""
    pixels = np.asarray(pixels)
    if not 0 < maxval < 65536:
        raise ValueError(f"bad maxval {maxval}")
    if not (pixels.min() >= 0 and pixels.max() <= maxval):  # NaN fails both comparisons
        raise ValueError("pixel values outside [0, maxval]; rescale first")
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    height, width = pixels.shape
    with output_file(path) as fh:
        fh.write(f"P5\n{width} {height}\n{maxval}\n".encode("ascii"))
        fh.write(np.rint(pixels, out=np.empty(pixels.shape, dtype), casting="unsafe"))


def pgm_preview(pixels: np.ndarray, maxval: int = 255) -> np.ndarray:
    """Rescale arbitrary real pixels onto [0, maxval] for a PGM preview."""
    pixels = np.asarray(pixels, dtype=float)
    lo = pixels.min()
    hi = pixels.max()
    if hi == lo:
        return np.zeros_like(pixels)
    out = pixels - lo
    out /= hi - lo
    out *= maxval
    return np.rint(out, out=out)


def write_grid_csv(path, header: dict, pixels: np.ndarray) -> None:
    """Write a 2-D grid as full-precision CSV rows with a comment header."""
    pixels = np.asarray(pixels, dtype=float)
    if pixels.ndim != 2 or pixels.size < 1:
        raise ValueError(f"grid must be a non-empty 2-D array, got shape {pixels.shape}")
    _write_csv(path, header, None, [pixels])


def read_grid_csv(path) -> Image:
    """Read a CSV grid (comment lines ignored) as an Image."""
    _, names, data = _read_csv(path)
    if names is not None:
        raise ValueError(f"non-numeric row {','.join(names)!r}")
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
