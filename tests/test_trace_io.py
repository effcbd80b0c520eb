"""Estimate-trace format: lossless round trips, strict parsing, fuzz safety."""

import math
import pathlib
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from physec import evaluation as ev
from physec import trace_io
from physec.trace_io import CsiTrace, TraceFormatError

from conftest import desk_config


def two_link_trace() -> CsiTrace:
    tricky = [
        [1.5 + 2.5j, math.pi - 1e-9j],
        [-0.0 + 0.0j, 1e-300 + 1e300j],
        [0.1 + 0.2j, -7.25 + 0j],
        [3.0 - 4.0j, 2.2250738585072014e-308 + 0j],
    ]
    return CsiTrace(
        m_full=2,
        sample_interval_us=998.4,
        description="bench test",
        time_index=[1, 2, 1, 2],
        link_labels=["AB", "AB", "AE", "AE"],
        gains=tricky,
    )


def one_row_trace(gains, **kwargs) -> CsiTrace:
    return CsiTrace(
        m_full=len(gains), time_index=[1], link_labels=["AB"], gains=[gains], **kwargs
    )


def as_file(directory, content, name="trace.csv") -> pathlib.Path:
    """Write text, its row ends kept as given, or bytes to a file in
    `directory`; return the path."""
    path = pathlib.Path(directory) / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8", newline="")
    return path


def round_trip(tmp_path, trace) -> tuple[str, CsiTrace]:
    """The text `write_trace` gives for `trace`, and the trace read back."""
    path = tmp_path / "trace.csv"
    trace_io.write_trace(trace, path)
    return path.read_text(encoding="utf-8"), trace_io.read_trace(path)


def canonical(gains: np.ndarray) -> np.ndarray:
    """What the format preserves: values with -0.0 mapped to +0.0."""
    re = np.where(gains.real == 0.0, 0.0, gains.real)
    im = np.where(gains.imag == 0.0, 0.0, gains.imag)
    return re + 1j * im


def test_round_trip_is_lossless(tmp_path):
    trace = two_link_trace()
    path = tmp_path / "trace.csv"
    trace_io.write_trace(trace, path)
    loaded = trace_io.read_trace(path)
    assert loaded.m_full == trace.m_full
    assert loaded.sample_interval_us == trace.sample_interval_us
    assert loaded.description == trace.description
    assert len(loaded.link_labels) == len(trace.link_labels)
    assert np.array_equal(loaded.time_index, trace.time_index)
    assert loaded.time_index.dtype == np.int64
    assert loaded.link_labels == trace.link_labels
    assert loaded.gains.shape == trace.gains.shape
    assert np.array_equal(loaded.gains, canonical(trace.gains))
    rewritten = tmp_path / "rewritten.csv"
    trace_io.write_trace(loaded, rewritten)
    assert rewritten.read_bytes() == path.read_bytes()  # write is byte-deterministic


def test_negative_zero_is_canonicalized(tmp_path):
    text, loaded = round_trip(tmp_path, one_row_trace([-0.0 - 0.0j]))
    assert "-0.0" not in text
    gain = loaded.gains[0, 0]
    assert gain == 0
    assert not np.signbit(gain.real)
    assert not np.signbit(gain.imag)


def test_description_may_contain_commas(tmp_path):
    trace = one_row_trace([1 + 1j], description="office, day 2, desk by the window")
    _, loaded = round_trip(tmp_path, trace)
    assert loaded.description == "office, day 2, desk by the window"


def test_labels_and_descriptions_stay_free_text(tmp_path):
    # only numeric fields refuse '_' and non-ASCII characters
    trace = CsiTrace(
        m_full=1,
        description="büro_2 \uff12",
        time_index=[1, 1],
        link_labels=["A_B", "\u00c6\uff12"],
        gains=[[1 + 1j], [2 - 1j]],
    )
    _, loaded = round_trip(tmp_path, trace)
    assert loaded.description == trace.description
    assert loaded.link_labels == trace.link_labels
    assert np.array_equal(loaded.gains, trace.gains)


def test_comments_and_blank_lines_are_skipped(tmp_path):
    text = (
        "#CSI,m_full=1,interval_us=1.0,desc=x\n"
        "\n"
        "# a comment line\n"
        "1,AB,0.5,0.25\n"
        "\n"
    )
    loaded = trace_io.read_trace(as_file(tmp_path, text))
    assert len(loaded.link_labels) == 1
    assert loaded.gains[0, 0] == 0.5 + 0.25j


def test_the_writers_spellings_and_plain_decimals_are_read(tmp_path):
    text = (
        "#CSI,m_full=2,interval_us=1e+3,desc=\n"
        "1,AB,0.50,-inf,nan,1e+300\n"
        "2,AB,inf,-0.5,1E+5,2.5e-7\n"
        "   \n"
        "  # an indented comment\n"
    )
    loaded = trace_io.read_trace(as_file(tmp_path, text))
    assert loaded.sample_interval_us == 1000.0
    assert loaded.time_index.tolist() == [1, 2]
    assert loaded.gains[0, 0] == complex(0.5, -math.inf)
    assert math.isnan(loaded.gains[0, 1].real) and loaded.gains[0, 1].imag == 1e300
    assert loaded.gains[1].tolist() == [complex(math.inf, -0.5), complex(1e5, 2.5e-7)]


def test_header_errors_carry_line_one(tmp_path):
    for text in (
        "",
        "not a header\n",
        "#CSI,m_full=2\n",
        "#CSI,m_full=x,interval_us=1.0,desc=\n",
        "#CSI,m_full=2,interval_us=-1.0,desc=\n",
        "#CSI,m_full=0,interval_us=1.0,desc=\n",
        "#CSI,interval_us=1.0,m_full=2,desc=\n",
        f"#CSI,m_full={2**60},interval_us=1.0,desc=\n",  # too wide for any array
        # int() and float() take these; the writer never writes them
        "#CSI,m_full=1_0,interval_us=1.0,desc=\n",
        "#CSI,m_full=2,interval_us=1_0.0,desc=\n",
        "#CSI,m_full=\uff12,interval_us=1.0,desc=\n",  # fullwidth digit two
        "#CSI,m_full=2,interval_us=\u0661.5,desc=\n",  # Arabic-Indic digit one
        "#CSI,m_full= +1 ,interval_us= 1e0 ,desc=\n +7 ,AB, +0.5 ,Infinity\n",
        "#CSI,m_full=+2,interval_us=1.0,desc=\n",
        "#CSI,m_full= 2,interval_us=1.0,desc=\n",
        "#CSI,m_full=2,interval_us=\t1.0,desc=\n",
        "#CSI,m_full=2,interval_us=+1.0,desc=\n",
        "#CSI,m_full=2,interval_us=1.0 ,desc=\n",
    ):
        with pytest.raises(TraceFormatError) as err:
            trace_io.read_trace(as_file(tmp_path, text))
        assert err.value.line == 1


def test_data_errors_carry_their_line_number(tmp_path):
    header = "#CSI,m_full=1,interval_us=1.0,desc=\n"
    cases = [
        (header + "1,AB,0.5\n", 2),  # wrong field count
        (header + "1,AB,0.5,0.5\nx,AB,0.5,0.5\n", 3),  # bad time index
        (header + "1,AB,0.5,0.5\n2,AB,zz,0.5\n", 3),  # bad gain value
        (header + "1,AB,0.5,0.5\n9223372036854775808,AB,0.5,0.5\n", 3),  # 2**63
        (header + "1,AB,0.5,0.5\n-9223372036854775809,AE,0.5,0.5\n", 3),  # -2**63 - 1
        # digit separators and non-ASCII digits or spaces that int() and
        # float() would take
        (header + "1,AB,0.5,0.5\n1_0,AB,0.5,0.5\n", 3),
        (header + "1,AB,0.5,0.5\n2,AB,0.1_5,0.5\n", 3),
        (header + "1,AB,0.5,0.5\n2,AB,0.5,2_0\n", 3),
        (header + "1,AB,0.5,0.5\n\uff12,AB,0.5,0.5\n", 3),
        (header + "1,AB,0.5,0.5\n2,AB,\uff12,0.5\n", 3),
        (header + "1,AB,0.5,0.5\n2,AB,0.5,\u20030.5\n", 3),  # em space
        # padding, a '+' sign and special values spelled other than the
        # writer's inf, -inf and nan, which int() and float() also take
        ("#CSI,m_full=1,interval_us=1e0,desc=\n +7 ,AB, +0.5 ,Infinity\n", 2),
        (header + "1,AB,0.5,0.5\n 2,AB,0.5,0.5\n", 3),
        (header + "1,AB,0.5,0.5\n2 ,AB,0.5,0.5\n", 3),
        (header + "1,AB,0.5,0.5\n+2,AB,0.5,0.5\n", 3),
        (header + "1,AB,0.5,0.5\n2,AB,0.5, 0.5\n", 3),
        (header + "1,AB,0.5,0.5\n2,AB,0.5,0.5 \n", 3),
        (header + "1,AB,0.5,0.5\n2,AB,0.5,\t0.5\n", 3),
        (header + "1,AB,0.5,0.5\n2,AB,+0.5,0.5\n", 3),
        (header + "1,AB,0.5,0.5\n2,AB,0.5,1e5+\n", 3),
        (header + "1,AB,0.5,0.5\n2,AB,+inf,0.5\n", 3),
        (header + "1,AB,0.5,0.5\n2,AB,0.5,Infinity\n", 3),
        (header + "1,AB,0.5,0.5\n2,AB,0.5,infinity\n", 3),
        (header + "1,AB,0.5,0.5\n2,AB,INF,0.5\n", 3),
        (header + "1,AB,0.5,0.5\n2,AB,-Inf,0.5\n", 3),
        (header + "1,AB,0.5,0.5\n2,AB,NaN,0.5\n", 3),
        (header + "1,AB,0.5,0.5\n2,AB,-nan,0.5\n", 3),
    ]
    for text, lineno in cases:
        with pytest.raises(TraceFormatError) as err:
            trace_io.read_trace(as_file(tmp_path, text))
        assert err.value.line == lineno


def test_time_must_increase_per_link_on_read(tmp_path):
    text = (
        "#CSI,m_full=1,interval_us=1.0,desc=\n"
        "2,AB,0.5,0.5\n"
        "2,AB,0.6,0.6\n"
    )
    with pytest.raises(TraceFormatError, match="not increasing"):
        trace_io.read_trace(as_file(tmp_path, text))
    interleaved = (
        "#CSI,m_full=1,interval_us=1.0,desc=\n"
        "1,AB,0.5,0.5\n"
        "1,AE,0.5,0.5\n"
        "2,AB,0.6,0.6\n"
        "2,AE,0.6,0.6\n"
    )
    loaded = trace_io.read_trace(as_file(tmp_path, interleaved))  # per-link rule only
    assert len(loaded.link_labels) == 4


def test_write_rejects_bad_records(tmp_path):
    path = tmp_path / "trace.csv"
    gains = [[1 + 0j, 2 + 0j]] * 2
    trace = CsiTrace(m_full=2, time_index=[2, 1], link_labels=["AB", "AB"], gains=gains)
    with pytest.raises(ValueError, match="increasing"):
        trace_io.write_trace(trace, path)

    label = CsiTrace(m_full=1, time_index=[1], link_labels=["A,B"], gains=[[1 + 0j]])
    with pytest.raises(ValueError, match="delimiter"):
        trace_io.write_trace(label, path)

    newline = CsiTrace(m_full=1, description="two\nlines")
    with pytest.raises(ValueError, match="newline"):
        trace_io.write_trace(newline, path)

    # every line break the reader's str.splitlines honours, not just \n and \r
    for brk in ("\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"):
        label = CsiTrace(m_full=1, time_index=[1], link_labels=[f"A{brk}B"], gains=[[1 + 0j]])
        with pytest.raises(ValueError, match="delimiter"):
            trace_io.write_trace(label, path)
        description = CsiTrace(m_full=1, description=f"x{brk}y")
        with pytest.raises(ValueError, match="newline"):
            trace_io.write_trace(description, path)
    assert not path.exists()


def test_non_utf8_bytes_rejected_cleanly(tmp_path):
    with pytest.raises(TraceFormatError, match="UTF-8"):
        trace_io.read_trace(as_file(tmp_path, b"\xff\xfe\x00\x01#CSI"))


def test_trace_validation():
    with pytest.raises(ValueError):
        CsiTrace(m_full=0)
    with pytest.raises(ValueError):
        CsiTrace(m_full=1, sample_interval_us=0.0)
    # the reader refuses these headers, so the trace may not hold them
    for interval in (math.inf, math.nan, -1.0):
        with pytest.raises(ValueError, match="finite positive"):
            CsiTrace(m_full=1, sample_interval_us=interval)
    with pytest.raises(ValueError, match="m_full"):
        CsiTrace(m_full=2, time_index=[1], link_labels=["AB"], gains=[[1 + 0j]])
    with pytest.raises(ValueError, match="m_full"):
        CsiTrace(m_full=2, time_index=[1], link_labels=["AB"], gains=np.zeros((1, 2, 2)))
    with pytest.raises(ValueError, match="m_full"):
        CsiTrace(m_full=1, time_index=[1], link_labels=["AB"], gains=np.zeros((2, 1)))
    with pytest.raises(ValueError, match="time_index"):
        CsiTrace(m_full=1, time_index=[1, 2], link_labels=["AB"], gains=[[1 + 0j]])
    with pytest.raises(ValueError, match="int64"):
        CsiTrace(m_full=1, time_index=[2**63], link_labels=["AB"], gains=[[1 + 0j]])
    empty = CsiTrace(m_full=3)
    assert empty.gains.shape == (0, 3) and empty.time_index.shape == (0,)


def test_labels_differing_only_by_a_trailing_nul_stay_apart(tmp_path):
    header = "#CSI,m_full=1,interval_us=1.0,desc=\n"
    loaded = trace_io.read_trace(as_file(tmp_path, header + "1,AB,0.5,0.5\n1,AB\x00,0.5,0.5\n"))
    assert loaded.link_labels == ["AB", "AB\x00"]
    # enough rows for both links, but the legitimate one is labelled "AB\x00"
    cfg = desk_config(num_blocks=2, block_size=2, m_full=1, m_subcarriers=1, num_taps=1)
    rows = "".join(f"{t},AB\x00,0.5,0.5\n{t},AE,0.25,0.5\n" for t in range(1, 5))
    nul_only = trace_io.read_trace(as_file(tmp_path, header + rows))
    with pytest.raises(ValueError, match="trace has 0 records for link 'AB'"):
        ev.run_experiment_from_trace(nul_only, cfg)


def outcome(path):
    """What reading `path` gives: the trace's contents or the error's line."""
    try:
        t = trace_io.read_trace(path)
    except TraceFormatError as exc:
        return ("error", exc.line)
    return (t.m_full, t.sample_interval_us, t.description, t.time_index.tolist(),
            t.link_labels, t.gains.tobytes())


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_every_row_end_reads_alike(tmp_path, end):
    written = tmp_path / "written.csv"
    trace_io.write_trace(two_link_trace(), written)
    good = written.read_text(encoding="utf-8").splitlines()
    cases = [
        (good, None),
        (good[:2] + ["# a comment", ""] + good[2:], None),
        (good[:3] + ["2,AB,0.5,0.5,0.5,0.5"] + good[3:], 4),  # time goes back
        (good + ["5,AE,0.5"], 6),  # too few fields
    ]
    for lines, error_line in cases:
        got = outcome(as_file(tmp_path, end.join(lines) + end))
        if error_line is None:
            assert got == outcome(written)
        else:
            assert got == ("error", error_line)


@pytest.mark.parametrize("brk", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_other_line_breaks_inside_a_row_are_errors_on_its_line(tmp_path, brk):
    header = "#CSI,m_full=1,interval_us=1.0,desc=\n"
    for row in (f"2,AB,0.5{brk},0.5", f"2,A{brk}B,0.5,0.5", f"2,AB,0.5,0.5{brk}", brk):
        text = header + "1,AB,0.5,0.5\n" + row + "\n3,AB,0.5,0.5\n"
        with pytest.raises(TraceFormatError) as err:
            trace_io.read_trace(as_file(tmp_path, text))
        assert err.value.line == 3


def test_non_utf8_byte_reports_its_line(tmp_path, rng):
    # rows of 48 subcarriers put the bad byte far past the first read-ahead
    n = 400
    trace = CsiTrace(
        m_full=48, time_index=np.arange(1, n + 1), link_labels=["AB"] * n,
        gains=rng.standard_normal((n, 48)) + 1j * rng.standard_normal((n, 48)),
    )
    path = tmp_path / "trace.csv"
    trace_io.write_trace(trace, path)
    lines = path.read_bytes().split(b"\n")
    for k in (1, 2, 300, n + 1):
        bad = lines.copy()
        bad[k - 1] = bad[k - 1][:20] + b"\xff" + bad[k - 1][20:]
        with pytest.raises(TraceFormatError, match="UTF-8") as err:
            trace_io.read_trace(as_file(tmp_path, b"\n".join(bad)))
        assert err.value.line == k


def test_a_bad_last_record_is_found_before_anything_is_written(tmp_path):
    gains = [[1 + 0j]] * 4
    bad_time = CsiTrace(
        m_full=1, time_index=[1, 1, 2, 2], link_labels=["AB", "AE", "AB", "AB"], gains=gains
    )
    bad_text = CsiTrace(
        m_full=1, time_index=[1, 1, 2, 2], link_labels=["AB", "AE", "AB", "A\ud800"],
        gains=gains,
    )
    for trace, reason in ((bad_time, "increasing"), (bad_text, "UTF-8")):
        path = tmp_path / "trace.csv"
        with pytest.raises(ValueError, match=reason):
            trace_io.write_trace(trace, path)
        assert not path.exists()


def test_memory_stays_near_the_size_of_the_gains(tmp_path, rng):
    n, m_full = 2000, 48
    trace = CsiTrace(
        m_full=m_full, time_index=np.repeat(np.arange(1, n // 2 + 1), 2),
        link_labels=["AB", "AE"] * (n // 2),
        gains=rng.standard_normal((n, m_full)) + 1j * rng.standard_normal((n, m_full)),
    )
    path = tmp_path / "trace.csv"
    tracemalloc.start()
    try:
        trace_io.write_trace(trace, path)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        loaded = trace_io.read_trace(path)
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.gains, trace.gains)
    assert write_peak < 0.25 * trace.gains.nbytes
    assert read_peak < 2 * trace.gains.nbytes


def reads_cleanly(content):
    """Read `content` from a file; a TraceFormatError is the only way to fail.

    The fuzz tests make their own directory: hypothesis refuses a
    function-scoped fixture such as tmp_path, which is not reset between
    examples."""
    with tempfile.TemporaryDirectory() as directory:
        try:
            trace_io.read_trace(as_file(directory, content))
        except TraceFormatError:
            pass


@settings(max_examples=200)
@given(text=st.text(max_size=400))
def test_fuzzed_text_never_raises_anything_else(text):
    reads_cleanly(text)


@settings(max_examples=200)
@given(blob=st.binary(max_size=400))
def test_fuzzed_bytes_never_raise_anything_else(blob):
    reads_cleanly(blob)


@settings(max_examples=60)
@given(
    prefix=st.just("#CSI,m_full=1,interval_us=1.0,desc=\n"),
    lines=st.lists(st.text(alphabet="0123456789,.ABe-+ \t", max_size=40), max_size=6),
)
def test_fuzzed_structured_lines_never_raise_anything_else(prefix, lines):
    reads_cleanly(prefix + "\n".join(lines))
