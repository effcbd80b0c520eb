"""Read and write channel-estimate traces as plain CSV.

Format:

    #CSI,m_full=<int>,interval_us=<real>,desc=<text>
    <time_index>,<link_label>,<re0>,<im0>,...,<re{m_full-1}>,<im{m_full-1}>

One row per recorded estimate.  Numbers are written in the shortest decimal
form that parses back to the identical float (Python repr); negative zero is
canonicalized to positive zero on write.  Time indices must be strictly
increasing per link label.  Lines after the header starting with '#' are
skipped on read.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from pathlib import Path

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
        if not self.sample_interval_us > 0:
            raise ValueError("sample_interval_us must be positive")
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
    r"""Whether `str.splitlines`, which the reader splits the file with, would
    break the text: besides \n and \r it breaks on \v, \f, \x1c-\x1e, \x85,
    \u2028 and \u2029."""
    return len(f".{text}.".splitlines()) > 1


def write_trace(trace: CsiTrace, dest) -> None:
    """Write a trace to a path or text stream; output is byte-deterministic."""
    if _breaks_line(trace.description):
        raise ValueError("description must not contain newlines or other line breaks")
    for label in dict.fromkeys(trace.link_labels):
        if "," in label or _breaks_line(label):
            raise ValueError(f"link label {label!r} contains a delimiter or line break")
    lines = [
        f"#CSI,m_full={trace.m_full},interval_us={float(trace.sample_interval_us)!r},"
        f"desc={trace.description}"
    ]
    last_time: dict[str, int] = {}
    # one row at a time: Python floats for the whole array would outweigh the text
    floats = np.ascontiguousarray(trace.gains).view(np.float64)
    for t, label, row in zip(trace.time_index.tolist(), trace.link_labels, floats):
        prev = last_time.get(label)
        if prev is not None and t <= prev:
            raise ValueError(
                f"time indices must be strictly increasing per link; "
                f"{label} goes {prev} -> {t}"
            )
        last_time[label] = t
        # adding 0.0 canonicalizes -0.0
        lines.append(f"{t},{label}," + ",".join([repr(v + 0.0) for v in row.tolist()]))
    text = "\n".join(lines) + "\n"
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        Path(dest).write_text(text, encoding="utf-8")


def _read_text(src) -> str:
    if hasattr(src, "read"):
        data = src.read()
    else:
        data = Path(src).read_bytes()
    if isinstance(data, bytes):
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TraceFormatError(f"not valid UTF-8: {exc}") from exc
    return data


def read_trace(src) -> CsiTrace:
    """Parse a trace from a path or stream.

    Every failure raises TraceFormatError with the offending line number;
    arbitrary junk input never escapes as another exception type.
    """
    text = _read_text(src)
    lines = text.splitlines()
    if not lines or not lines[0].startswith("#CSI,"):
        raise TraceFormatError("missing '#CSI' header", line=1)
    parts = lines[0].split(",", 3)
    if len(parts) != 4:
        raise TraceFormatError("header needs m_full, interval_us, and desc fields", line=1)
    if not parts[1].startswith("m_full="):
        raise TraceFormatError("second header field must be m_full=<int>", line=1)
    if not parts[2].startswith("interval_us="):
        raise TraceFormatError("third header field must be interval_us=<real>", line=1)
    if not parts[3].startswith("desc="):
        raise TraceFormatError("fourth header field must be desc=<text>", line=1)
    try:
        m_full = int(parts[1][len("m_full="):])
        interval = float(parts[2][len("interval_us="):])
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
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            continue
        cells = line.split(",")
        if len(cells) != expected:
            raise TraceFormatError(
                f"expected {expected} fields, got {len(cells)}", line=lineno
            )
        try:
            t = int(cells[0])
            times.append(t)  # array("q") refuses what int64 cannot hold
        except (ValueError, OverflowError) as exc:
            raise TraceFormatError(
                f"time index {cells[0]!r} is not an int64", line=lineno
            ) from exc
        label = cells[1]
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
