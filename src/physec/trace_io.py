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
character `str.splitlines` breaks at (\v, \f, \x1c-\x1e, \x85, \u2028,
\u2029) is an error inside a row.  Both directions work one row at a time, so
memory stays near the size of the gains array.
"""

from __future__ import annotations

import math
import os
from array import array
from dataclasses import dataclass

import numpy as np

__all__ = ["TraceFormatError", "CsiTrace", "read_trace", "write_trace"]

DEFAULT_INTERVAL_US = 998.4


class TraceFormatError(ValueError):
    """Malformed trace content; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass
class CsiTrace:
    """A recorded trace as parallel arrays, one row per estimate in file order.

    `time_index` is an (n,) int64 array, `link_labels` a sequence of n
    Python strings (kept as `str`: a numpy string array drops trailing NULs
    and would merge distinct labels), and `gains` an (n, m_full) complex128
    array.
    """

    m_full: int
    sample_interval_us: float = DEFAULT_INTERVAL_US
    description: str = ""
    time_index: np.ndarray = ()
    link_labels: list = ()
    gains: np.ndarray = None

    def __post_init__(self):
        if self.m_full < 1:
            raise ValueError("m_full must be >= 1")
        # the reader's rule: a header that could not be read back is refused
        if not 0 < self.sample_interval_us < math.inf:
            raise ValueError("sample_interval_us must be a finite positive real")
        try:
            self.time_index = np.asarray(self.time_index, dtype=np.int64)
        except OverflowError as exc:
            raise ValueError(f"time index outside int64: {exc}") from exc
        if self.gains is None:
            self.gains = np.empty((0, self.m_full), dtype=np.complex128)
        self.gains = np.asarray(self.gains, dtype=np.complex128)
        n = len(self.link_labels)
        if self.time_index.shape != (n,) or self.gains.shape != (n, self.m_full):
            raise ValueError(
                f"{n} link labels need time_index of shape ({n},) and gains of shape "
                f"(n, m_full) = ({n}, {self.m_full}); got {self.time_index.shape} "
                f"and {self.gains.shape}"
            )


def _breaks_line(text: str) -> bool:
    r"""Whether `str.splitlines` would break the text: besides \n and \r it
    breaks at \v, \f, \x1c-\x1e, \x85, \u2028 and \u2029."""
    return text.splitlines() not in ([text], [])


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


def write_trace(trace: CsiTrace, path: str | os.PathLike) -> None:
    """Write a trace to the file at `path`; output is byte-deterministic.

    Every record is checked before the file is opened, so a bad one leaves
    no partial file; rows are then formatted and written one at a time.
    """
    if _breaks_line(trace.description):
        raise ValueError("description must not contain newlines or other line breaks")
    labels = dict.fromkeys(trace.link_labels)
    for label in labels:
        if "," in label or _breaks_line(label):
            raise ValueError(f"link label {label!r} contains a delimiter or line break")
    for text in (trace.description, *labels):
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ValueError(f"{text!r} cannot be written as UTF-8: {exc}") from exc
    times = trace.time_index.tolist()
    last_time: dict[str, int] = {}
    for t, label in zip(times, trace.link_labels):
        prev = last_time.get(label)
        if prev is not None and t <= prev:
            raise ValueError(
                f"time indices must be strictly increasing per link; "
                f"{label} goes {prev} -> {t}"
            )
        last_time[label] = t
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(
            f"#CSI,m_full={trace.m_full},interval_us={float(trace.sample_interval_us)!r},"
            f"desc={trace.description}\n"
        )
        # one row at a time: Python floats for the whole array would outweigh the text
        floats = np.ascontiguousarray(trace.gains).view(np.float64)
        for t, label, row in zip(times, trace.link_labels, floats):
            # adding 0.0 canonicalizes -0.0
            fh.write(f"{t},{label}," + ",".join([repr(v + 0.0) for v in row.tolist()]) + "\n")


def _lines(text):
    r"""(line number, line) of each row of a text-mode file, one at a time.

    Universal newlines end rows at \n, \r\n or \r; any other line-break
    character, or a byte that is not UTF-8 (decoded to a lone surrogate),
    raises TraceFormatError.
    """
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


def read_trace(path: str | os.PathLike) -> CsiTrace:
    """Parse the trace in the file at `path`, row by row.

    Every failure raises TraceFormatError with the offending line number;
    arbitrary junk input never escapes as another exception type.  Bytes
    that are not UTF-8 are kept as lone surrogates for `_lines` to report.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as text:
        return _parse(_lines(text))


def _parse(lines) -> CsiTrace:
    _, header = next(lines, (1, ""))
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
        m_full = int(m_text)
        interval = float(interval_text)
    except ValueError as exc:
        raise TraceFormatError(f"bad header value: {exc}", line=1) from exc
    desc = parts[3][len("desc="):]
    # the upper bound is the widest row numpy can hold as complex128
    if not 1 <= m_full <= np.iinfo(np.intp).max // 16:
        raise TraceFormatError("m_full must be >= 1 and fit in an array", line=1)
    if not interval > 0 or not np.isfinite(interval):
        raise TraceFormatError("interval_us must be a positive real", line=1)

    times = array("q")
    labels: list[str] = []
    reals = array("d")  # re0, im0, re1, ... of every row, in file order
    last_time: dict[str, int] = {}
    expected = 2 + 2 * m_full
    for lineno, line in lines:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        # padding is not stripped from the fields: the numeric ones refuse it
        cells = line.split(",")
        if len(cells) != expected:
            raise TraceFormatError(
                f"expected {expected} fields, got {len(cells)}", line=lineno
            )
        try:
            if not _plain_number(cells[0]):
                raise ValueError  # refused like any other bad index
            t = int(cells[0])
            times.append(t)  # array("q") refuses what int64 cannot hold
        except (ValueError, OverflowError) as exc:
            raise TraceFormatError(
                f"time index {cells[0]!r} is not an int64", line=lineno
            ) from exc
        label = cells[1]
        # the gains are everything after the label's comma
        if not _plain_number(line[len(cells[0]) + len(label) + 2 :]):
            raise TraceFormatError("bad gain value: not a plain number", line=lineno)
        try:
            reals.extend(map(float, cells[2:]))
        except ValueError as exc:
            raise TraceFormatError(f"bad gain value: {exc}", line=lineno) from exc
        prev = last_time.get(label)
        if prev is not None and t <= prev:
            raise TraceFormatError(
                f"time index {t} not increasing for link {label!r} (previous {prev})",
                line=lineno,
            )
        last_time[label] = t
        labels.append(label)
    return CsiTrace(
        m_full=m_full,
        sample_interval_us=interval,
        description=desc,
        time_index=np.frombuffer(times, dtype=np.int64),
        link_labels=labels,
        gains=np.frombuffer(reals, dtype=np.float64)
        .reshape(-1, 2 * m_full)
        .view(np.complex128),
    )
