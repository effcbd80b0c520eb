"""Read and write channel-estimate traces as plain CSV.

Format:

    #CSI,m_full=<int>,interval_us=<real>,desc=<text>
    <time_index>,<link_label>,<re0>,<im0>,...,<re{m_full-1}>,<im{m_full-1}>

One row per recorded estimate.  Numbers are written in the shortest decimal
form that parses back to the identical float (Python repr); negative zero is
canonicalized to positive zero on write.  On read a numeric field must be
spelled as the writer spells numbers: one holding '_', a non-ASCII
character, a space or tab, a '+' that is not an exponent sign, or a special
value other than lowercase inf, -inf and nan is an error, though Python's
int() and float() would take it; a plain decimal such as 0.50 is read.
Time indices must be strictly increasing per link label.  Lines after the
header that are blank or start with '#' are skipped on read.

The file is UTF-8.  Rows end at \n (as written), \r\n or \r; any other
character `str.splitlines` breaks at (\v, \f, \x1c-\x1e, \x85,
\u2028, \u2029) is an error inside a row.

Neither direction holds the whole trace.  `write_trace` takes the link
labels, checked once, and an iterable of (slots, links, m_full) chunks; it
numbers the slots from 1 and formats each chunk's rows, slot by slot in
label order, into a temporary file beside the destination, which replaces
the destination once the last chunk is written.  `TraceReader`
reads the header on opening; its `chunks` parses each row straight into
the chunk its link is filling, one (rows, m_full) array per link, and
hands a chunk of every link out once each has one, so a file that
interleaves the links holds about one chunk.  The time indices are
checked as they are read and not handed out.  A replay stops at the first
fault it meets, in file order: a row of a replayed link with a non-finite
gain is refused at its line, and a link with too few rows is found at the
end of the file.
"""

from __future__ import annotations

import errno
import math
import numbers
import os
import stat
from collections import deque
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TraceDestinationError", "TraceFormatError", "TraceHeader", "TraceReadError", "TraceReader",
    "write_trace",
]

DEFAULT_INTERVAL_US = 998.4

# the widest row numpy can hold as complex128
_MAX_M_FULL = np.iinfo(np.intp).max // 16
_INT64 = np.iinfo(np.int64)


class TraceFormatError(ValueError):
    """Malformed trace content, or a non-finite gain on a replayed link;
    carries the offending 1-based line number."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


class TraceReadError(OSError):
    """The trace file could not be opened or read; names the file."""


class TraceDestinationError(ValueError):
    """An existing destination that `write_trace` will not replace, such as
    a device or a FIFO."""


# every character `str.splitlines` breaks at
_LINE_BREAKS = "\n\v\f\r\x1c\x1d\x1e\x85\u2028\u2029"


def _breaks_line(text: str) -> bool:
    """Whether `str.splitlines` would break the text.

    One substring test per character: each is a memchr-speed scan, and a
    non-ASCII character is not searched for at all in an ASCII row.
    """
    return any(brk in text for brk in _LINE_BREAKS)


def _check_utf8(text: str) -> None:
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValueError(f"{text!r} cannot be written as UTF-8: {exc}") from exc


@dataclass(frozen=True)
class TraceHeader:
    """The header line of a trace.

    A header the reader would refuse is refused here, so every header that
    exists can be written and read back.
    """

    m_full: int
    sample_interval_us: float = DEFAULT_INTERVAL_US
    description: str = ""

    def __post_init__(self):
        # a bool or a float would be written as True or 2.0
        if isinstance(self.m_full, bool) or not isinstance(self.m_full, numbers.Integral):
            raise ValueError(f"m_full must be an integer, got {self.m_full!r}")
        if not 1 <= self.m_full <= _MAX_M_FULL:
            raise ValueError("m_full must be >= 1 and fit in an array")
        if not 0 < self.sample_interval_us < math.inf:
            raise ValueError("interval_us must be a finite positive real")
        if _breaks_line(self.description):
            raise ValueError("description must not contain newlines or other line breaks")
        _check_utf8(self.description)


_SPECIAL_VALUES = ("inf", "-inf", "nan")


def _plain_number(text: str) -> bool:
    """Whether a numeric field, or a comma-joined run of them, is spelled as
    `write_trace` spells numbers.  int() and float() also take '_' digit
    separators, non-ASCII digits, padding whitespace, a '+' sign and special
    values such as 'Infinity' or '-nan'; a plain decimal such as '0.50' is
    fine.  Substring tests keep the common case cheap."""
    if not text.isascii() or "_" in text or " " in text or "\t" in text:
        return False
    # the writer's only '+' is an exponent sign, as in 1e+300
    if "+" in text and text.count("+") != text.count("e+") + text.count("E+"):
        return False
    if "n" in text or "N" in text:  # every spelling of inf and nan holds one
        return all(
            cell in _SPECIAL_VALUES for cell in text.split(",") if "n" in cell or "N" in cell
        )
    return True


def _format_row(t: int, label: str, values: list) -> str:
    # adding 0.0 canonicalizes -0.0
    return f"{t},{label}," + ",".join([repr(v + 0.0) for v in values]) + "\n"


def _format_header(header: TraceHeader) -> str:
    return (
        f"#CSI,m_full={header.m_full},"
        f"interval_us={float(header.sample_interval_us)!r},"
        f"desc={header.description}\n"
    )


def _checked_labels(labels) -> list:
    """The link labels as a list, each one a label the reader reads back."""
    labels = list(labels)
    for label in labels:
        if "," in label or _breaks_line(label):
            raise ValueError(f"link label {label!r} contains a delimiter or line break")
        _check_utf8(label)
    if len(set(labels)) != len(labels):
        # its rows would repeat a time index of one link
        raise ValueError(f"link labels must be distinct, got {labels!r}")
    return labels


def _create_beside(path) -> tuple[str, int]:
    """(name, descriptor) of a new file in `path`'s directory, created with
    the permissions open() gives a new file: 0o666 less the umask.  A path
    with no file name, such as '', names no file to replace."""
    directory, name = os.path.split(os.fspath(path))
    if not name:  # else the rows would go out and only the replace fail
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT))
    while True:
        temp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
        try:
            return temp, os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:
            continue


def write_trace(header: TraceHeader, path: str | os.PathLike, labels, chunks) -> None:
    """Write a trace of the links `labels` to the file at `path`, one chunk
    of time slots at a time.

    Each chunk is a (slots, len(labels), m_full) complex array.  The
    writer numbers the slots from 1 across the chunks and writes each
    slot's rows in label order.  The labels must be distinct, UTF-8 and
    free of delimiters and line breaks; they are checked before anything
    is written.  The rows go to a temporary file beside `path` that
    replaces it only after the last chunk, so a refused chunk, or a fault
    raised by `chunks`, leaves no file and an existing `path` as it was.
    An existing `path` that is not a regular file, such as a device or a
    FIFO, is refused rather than replaced.  Output is byte-deterministic.
    """
    labels = _checked_labels(labels)
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        raise TraceDestinationError(f"{os.fspath(path)} exists and is not a regular file")
    try:
        temp, fd = _create_beside(path)
    except OSError as exc:  # name the destination, not the temporary file
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
    shape = (len(labels), header.m_full)
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(_format_header(header))
            slot = 0
            for chunk in chunks:
                gains = np.asarray(chunk, dtype=np.complex128)
                if gains.shape[1:] != shape:
                    raise ValueError(f"a chunk must have shape (slots, {shape[0]}, m_full={shape[1]}), not {gains.shape}")
                # one slot at a time: Python floats for a whole chunk outweigh its text
                for rows in np.ascontiguousarray(gains).view(np.float64):
                    slot += 1
                    for label, values in zip(labels, rows.tolist()):
                        fh.write(_format_row(slot, label, values))
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise


def _lines(text):
    r"""(line number, line) of each row of a text-mode file, one at a time.

    Universal newlines end rows at \n, \r\n or \r; any other line-break
    character, or a byte that is not UTF-8 (decoded to a lone surrogate),
    raises TraceFormatError.  A fault reading the file raises
    TraceReadError.
    """
    try:
        for lineno, line in enumerate(text, start=1):
            line = line.removesuffix("\n")
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as exc:
                    raise TraceFormatError(
                        f"not valid UTF-8 at column {exc.start + 1}", line=lineno
                    ) from None
            if _breaks_line(line):
                raise TraceFormatError("line break character inside a row", line=lineno)
            yield lineno, line
    except OSError as exc:  # only a read: a row's faults are TraceFormatErrors
        raise TraceReadError(exc.errno, exc.strerror, text.name) from exc


def _parse_header(header: str) -> TraceHeader:
    if not header.startswith("#CSI,"):
        raise TraceFormatError("missing '#CSI' header", line=1)
    parts = header.split(",", 3)
    if len(parts) != 4:
        raise TraceFormatError("header needs m_full, interval_us, and desc fields", line=1)
    if not parts[1].startswith("m_full="):
        raise TraceFormatError("second header field must be m_full=<int>", line=1)
    if not parts[2].startswith("interval_us="):
        raise TraceFormatError("third header field must be interval_us=<real>", line=1)
    if not parts[3].startswith("desc="):
        raise TraceFormatError("fourth header field must be desc=<text>", line=1)
    m_text = parts[1][len("m_full="):]
    interval_text = parts[2][len("interval_us="):]
    for text in (m_text, interval_text):
        if not _plain_number(text):
            raise TraceFormatError(f"bad header value {text!r}: not a plain number", line=1)
    try:
        m_full, interval = int(m_text), float(interval_text)
    except ValueError as exc:
        raise TraceFormatError(f"bad header value: {exc}", line=1) from exc
    try:
        return TraceHeader(m_full, interval, parts[3][len("desc="):])
    except ValueError as exc:
        raise TraceFormatError(str(exc), line=1) from exc


def _parse_row(line: str, lineno: int, fields: int, last_time: dict):
    """(label, gain values) of one row, or None for a blank or comment
    line.  `last_time` maps each link label to its last time index."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    # padding is not stripped from the fields: the numeric ones refuse it
    cells = line.split(",")
    if len(cells) != fields:
        raise TraceFormatError(f"expected {fields} fields, got {len(cells)}", line=lineno)
    try:
        if not _plain_number(cells[0]):
            raise ValueError  # refused like any other bad index
        t = int(cells[0])
        if not _INT64.min <= t <= _INT64.max:
            raise ValueError
    except ValueError as exc:
        raise TraceFormatError(f"time index {cells[0]!r} is not an int64", line=lineno) from exc
    label = cells[1]
    # the gains are everything after the label's comma
    if not _plain_number(line[len(cells[0]) + len(label) + 2 :]):
        raise TraceFormatError("bad gain value: not a plain number", line=lineno)
    try:
        values = list(map(float, cells[2:]))
    except ValueError as exc:
        raise TraceFormatError(f"bad gain value: {exc}", line=lineno) from exc
    prev = last_time.get(label)
    if prev is not None and t <= prev:
        raise TraceFormatError(
            f"time index {t} not increasing for link {label!r} (previous {prev})", line=lineno
        )
    last_time[label] = t
    return label, values


class _LinkRows:
    """One requested link's rows, gathered into chunks of (rows, m_full).

    A full chunk waits in `ready` until it is handed out; the link keeps no
    reference to it then, so it is freed once the caller lets it go.  Rows
    past the last wanted chunk are only counted.
    """

    def __init__(self, m_full: int, sizes: list, wanted: int):
        self.m_full = m_full
        self.sizes = sizes  # the rows of each chunk of a block, in order
        self.wanted = wanted  # chunks to fill
        self.records = 0
        self.filled = 0
        self.ready = deque()
        # made on a chunk's first row: a link holds no empty chunk while the
        # one it filled last is in use, nor after its last row
        self.gains = None

    def add(self, values: list) -> bool:
        """Store one row; whether it completed a chunk."""
        self.records += 1
        if self.filled == self.wanted:
            return False
        if self.gains is None:
            rows = self.sizes[self.filled % len(self.sizes)]
            self.gains = np.empty((rows, self.m_full), dtype=np.complex128)
            self.reals = self.gains.view(np.float64)
            self.row = 0
        self.reals[self.row] = values
        self.row += 1
        if self.row < len(self.gains):
            return False
        self.ready.append(self.gains)
        self.gains = self.reals = None
        self.filled += 1
        return True


class TraceReader:
    """A trace file opened for reading, with its header read.

    Use it as a context manager, which closes the file; `chunks` parses
    the rows.  A leading byte-order mark is skipped, and bytes that are not
    UTF-8 are kept as lone surrogates for `_lines` to report.  A file that
    cannot be opened or read raises TraceReadError, here or in `chunks`.
    """

    def __init__(self, path: str | os.PathLike):
        try:
            self._file = open(path, encoding="utf-8-sig", errors="surrogateescape")
        except OSError as exc:
            raise TraceReadError(exc.errno, exc.strerror, os.fspath(path)) from exc
        try:
            self._lines = _lines(self._file)
            self.header = _parse_header(next(self._lines, (1, ""))[1])
        except BaseException:
            self._file.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._file.close()

    def chunks(self, labels, sizes, count: int):
        """Yield `count` blocks of the links `labels`, a chunk of rows at a
        time, reading to the end of the file.

        A block is cut into chunks of `sizes` rows, in order.  Each chunk
        is a tuple with one C-contiguous (rows, m_full) complex128 array
        per label, of that link's next rows in file order; the time
        indices are only checked.  A link that runs ahead queues its
        chunks until every link has one, so a file that interleaves the
        links holds about one chunk.  Rows of other links, and rows past
        the last block, are parsed and checked, then dropped.  A format
        fault, or a non-finite gain in a row of `labels`, raises
        TraceFormatError at its line, so no chunk that holds one is
        yielded; a link with fewer than count * sum(sizes) rows raises
        ValueError once the file has been read.  The rows are read on from
        the header, so a reader serves one call.
        """
        fields = 2 + 2 * self.header.m_full
        sizes = list(sizes)
        wanted = count * len(sizes)
        links = {label: _LinkRows(self.header.m_full, sizes, wanted) for label in labels}
        last_time: dict[str, int] = {}
        for lineno, line in self._lines:
            row = _parse_row(line, lineno, fields, last_time)
            link = None if row is None else links.get(row[0])
            if link is None:
                continue
            # an inf or a NaN makes the sum non-finite, and so do finite
            # values that overflow it: only then is each value checked
            if not math.isfinite(sum(row[1])) and not all(map(math.isfinite, row[1])):
                raise TraceFormatError("gains must be finite", line=lineno)
            if link.add(row[1]) and all(other.ready for other in links.values()):
                # not bound to a name: a suspended generator keeps its locals alive
                yield tuple(other.ready.popleft() for other in links.values())
        need = count * sum(sizes)
        for label, link in links.items():
            if link.records < need:
                raise ValueError(
                    f"trace has {link.records} records for link {label!r}, need {need}"
                )
