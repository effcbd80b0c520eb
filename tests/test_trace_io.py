"""Estimate-trace format: lossless round trips, strict parsing, fuzz safety."""

import itertools
import math
import os
import pathlib
import stat
import sys
import tempfile
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from physec import evaluation as ev
from physec import trace_io
from physec.cli import main
from physec.trace_io import TraceFormatError, TraceHeader

from conftest import (
    check_chunk, desk_config, lines_read, read_links, relinked_order, slot_rows, write_rows,
)

TRICKY = [
    [1.5 + 2.5j, math.pi - 1e-9j],
    [-0.0 + 0.0j, 1e-300 + 1e300j],
    [0.1 + 0.2j, -7.25 + 0j],
    [3.0 - 4.0j, 2.2250738585072014e-308 + 0j],
]


def write_two_links(path):
    """Two rows of each of two links, all of the first link's rows first."""
    rows = [(1, "AB", TRICKY[0]), (2, "AB", TRICKY[1]), (1, "AE", TRICKY[2]), (2, "AE", TRICKY[3])]
    write_rows(path, 2, rows, sample_interval_us=998.4, description="bench test")


def write(path, labels, *chunks, m_full=None, **header):
    """Write `chunks` of the links `labels` with `trace_io.write_trace`;
    `m_full` defaults to the chunks' width."""
    m_full = np.shape(chunks[0])[-1] if m_full is None else m_full
    trace_io.write_trace(TraceHeader(m_full, **header), path, labels, chunks)


def as_file(directory, content, name="trace.csv") -> pathlib.Path:
    """Write text, its row ends kept as given, or bytes to a file in
    `directory`; return the path."""
    path = pathlib.Path(directory) / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8", newline="")
    return path


def parse(path, labels=(), block_size=1, count=0):
    """Read every row of the file at `path`; the chunks it yields, one a block."""
    with trace_io.TraceReader(path) as reader:
        return list(reader.chunks(labels, [block_size], count))


def canonical(gains: np.ndarray) -> np.ndarray:
    """What the format preserves: values with -0.0 mapped to +0.0."""
    re = np.where(gains.real == 0.0, 0.0, gains.real)
    im = np.where(gains.imag == 0.0, 0.0, gains.imag)
    return re + 1j * im


def test_round_trip_is_lossless(tmp_path):
    path = tmp_path / "trace.csv"
    # two slots of two links, in two chunks
    gains = np.array(TRICKY).reshape(2, 2, 2)
    write(path, ["AB", "AE"], gains[:1], gains[1:], sample_interval_us=998.4, description="bench test")
    header, (bob, eve) = read_links(path, ("AB", "AE"), 2)
    assert header == TraceHeader(2, 998.4, "bench test")
    assert bob.shape == eve.shape == (2, 2)
    assert np.array_equal(np.stack([bob, eve], axis=1), canonical(gains))
    # rewritten from what was read, every column, the time index too,
    # comes back byte for byte
    rewritten = tmp_path / "rewritten.csv"
    trace_io.write_trace(header, rewritten, ["AB", "AE"], [np.stack([bob, eve], axis=1)])
    assert rewritten.read_bytes() == path.read_bytes()  # write is byte-deterministic


def test_the_writer_numbers_simulated_chunks_that_read_back_as_they_were_drawn(tmp_path):
    # the simulated stream's chunks, at the sizes run_grid reads a block
    # in, read back as the arrays drawn: the writer takes each before the
    # stream draws the next into the same array
    cfg = desk_config(num_blocks=2)
    sizes = [part.stop - part.start for part in ev._chunks(cfg.block_size, cfg.m_full)]
    assert sizes == [85, 85, 30]
    drawn = []

    def chunks():
        for chunk in itertools.islice(ev.simulated_estimate_chunks(cfg), 2 * len(sizes)):
            if not drawn:
                chunk[0, 1, 3] = complex(-0.0, -0.0)  # written as 0.0
            drawn.append(chunk.copy())
            yield chunk

    path = tmp_path / "trace.csv"
    trace_io.write_trace(TraceHeader(cfg.m_full), path, [ev.BOB_LINK, ev.EVE_LINK], chunks())
    with trace_io.TraceReader(path) as reader:
        read = list(reader.chunks((ev.BOB_LINK, ev.EVE_LINK), sizes, 2))
    assert len(read) == len(drawn)
    for (bob, eve), gains in zip(read, drawn):
        check_chunk((bob, eve), 2, len(gains), cfg.m_full)
        assert np.array_equal(np.stack([bob, eve], axis=1), canonical(gains))
    assert not np.signbit(read[0][1][0, 3].real)
    # slots numbered from 1 across the chunks, each slot's rows in label order
    rows = [line.split(",", 2)[:2] for line in path.read_text(encoding="utf-8").splitlines()[1:]]
    total = 2 * cfg.block_size
    assert rows == [[str(t), label] for t in range(1, total + 1) for label in (ev.BOB_LINK, ev.EVE_LINK)]


def test_negative_zero_is_canonicalized(tmp_path):
    path = tmp_path / "trace.csv"
    write(path, ["AB"], [[[complex(-0.0, -0.0)]]])
    assert "-0.0" not in path.read_text(encoding="utf-8")
    gain = read_links(path, ("AB",), 1)[1][0][0, 0]
    assert gain == 0
    assert not np.signbit(gain.real)
    assert not np.signbit(gain.imag)


def test_description_may_contain_commas(tmp_path):
    path = tmp_path / "trace.csv"
    write(path, ["AB"], [[[1 + 1j]]], description="office, day 2, desk by the window")
    assert read_links(path, ("AB",), 1)[0].description == "office, day 2, desk by the window"


def test_labels_and_descriptions_stay_free_text(tmp_path):
    # only numeric fields refuse '_' and non-ASCII characters
    path = tmp_path / "trace.csv"
    labels = ("A_B", "\xc6\uff12")
    write(path, labels, [[[1 + 1j], [2 - 1j]]], description="b\xfcro_2 \uff12")
    header, gains = read_links(path, labels, 1)
    assert header.description == "b\xfcro_2 \uff12"
    assert [g.tolist() for g in gains] == [[[1 + 1j]], [[2 - 1j]]]


def test_comments_and_blank_lines_are_skipped(tmp_path):
    text = (
        "#CSI,m_full=1,interval_us=1.0,desc=x\n"
        "\n"
        "# a comment line\n"
        "1,AB,0.5,0.25\n"
        "\n"
    )
    _, (gains,) = read_links(as_file(tmp_path, text), ("AB",), 1)
    assert gains.tolist() == [[0.5 + 0.25j]]


def test_the_writers_spellings_and_plain_decimals_are_read(tmp_path):
    rows = ["1,AB,0.50,-inf,nan,1e+300", "2,AB,inf,-0.5,1E+5,2.5e-7"]
    text = "#CSI,m_full=2,interval_us=1e+3,desc=\n" + "\n".join(rows) + "\n   \n  # an indented comment\n"
    path = as_file(tmp_path, text)
    assert parse(path) == []  # every row reads, blank and comment lines too
    with trace_io.TraceReader(path) as reader:
        assert reader.header.sample_interval_us == 1000.0
    # the row parser's values: replay refuses non-finite gains on its links
    label, first = trace_io._parse_row(rows[0], 2, 6, {})
    assert label == "AB"
    assert first[:2] == [0.5, -math.inf]
    assert math.isnan(first[2]) and first[3] == 1e300
    assert trace_io._parse_row(rows[1], 3, 6, {})[1] == [math.inf, -0.5, 1e5, 2.5e-7]


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
            trace_io.TraceReader(as_file(tmp_path, text))
        assert err.value.line == 1


@pytest.mark.parametrize(
    "text, message",
    [
        ("#CSI,m_full=2,desc=x,interval_us=1.0\n", "third header field must be interval_us=<real>"),
        ("#CSI,m_full=2,interval_us=1.0,note=x\n", "fourth header field must be desc=<text>"),
    ],
    ids=["third", "fourth"],
)
def test_header_fields_out_of_order_are_named(tmp_path, text, message):
    with pytest.raises(TraceFormatError, match=message) as err:
        trace_io.TraceReader(as_file(tmp_path, text))
    assert err.value.line == 1


def test_a_trace_saved_with_a_byte_order_mark_replays(tmp_path):
    desk = ["--preset", "desk", "--seed", "0"]
    trace = tmp_path / "trace.csv"
    assert main(["simulate", *desk, "--out", str(trace)]) == 0
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + trace.read_bytes())
    results = []
    for path in (trace, bom):
        results.append(tmp_path / f"{path.stem}-results.csv")
        assert main(["evaluate", *desk, "--m", "8", "--trace", str(path), "--out", str(results[-1])]) == 0
    assert results[0].read_bytes() == results[1].read_bytes()


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
            parse(as_file(tmp_path, text))
        assert err.value.line == lineno


def test_time_must_increase_per_link_on_read(tmp_path):
    text = (
        "#CSI,m_full=1,interval_us=1.0,desc=\n"
        "2,AB,0.5,0.5\n"
        "2,AB,0.6,0.6\n"
    )
    with pytest.raises(TraceFormatError, match="not increasing"):
        parse(as_file(tmp_path, text))
    interleaved = (
        "#CSI,m_full=1,interval_us=1.0,desc=\n"
        "1,AB,0.5,0.5\n"
        "1,AE,0.5,0.5\n"
        "2,AB,0.6,0.6\n"
        "2,AE,0.6,0.6\n"
    )
    # the per-link rule only
    _, gains = read_links(as_file(tmp_path, interleaved), ("AB", "AE"), 2)
    assert [g.tolist() for g in gains] == [[[0.5 + 0.5j], [0.6 + 0.6j]]] * 2


# every line break the reader's str.splitlines honours, not just \n and \r
LINE_BREAKS = ("\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


@pytest.mark.parametrize(
    "labels, reason",
    [(["AB", "A,B"], "delimiter"), (["AB", "AE", "A\ud800"], "UTF-8"),
     (["AB", "AE", "AB"], "distinct")]
    + [(["AB", f"A{brk}B"], "delimiter") for brk in LINE_BREAKS],
    ids=["comma", "not-utf8", "repeated"] + [f"break-{ord(brk):x}" for brk in LINE_BREAKS],
)
def test_write_rejects_bad_records(tmp_path, labels, reason):
    # a repeated label would write two rows of one link at each time index
    chunks = iter([np.ones((2, len(labels), 1))])
    with pytest.raises(ValueError, match=reason):
        trace_io.write_trace(TraceHeader(1), tmp_path / "trace.csv", labels, chunks)
    assert os.listdir(tmp_path) == []  # neither the trace nor a temporary file
    assert next(chunks, None) is not None  # refused before a chunk was taken


def test_line_break_check_agrees_with_splitlines_for_every_code_point():
    differ = [
        hex(c)
        for c in range(sys.maxunicode + 1)
        if trace_io._breaks_line(chr(c)) != (chr(c).splitlines() != [chr(c)])
    ]
    assert differ == []
    # inside a row, at its end and alone
    for text in ("1,A\x85B,0.5", "1,AB,0.5\u2028", "\x1e", "1,AB,0.5", ""):
        assert trace_io._breaks_line(text) == (text.splitlines() not in ([text], []))


def test_non_utf8_bytes_rejected_cleanly(tmp_path):
    with pytest.raises(TraceFormatError, match="UTF-8"):
        trace_io.TraceReader(as_file(tmp_path, b"\xff\xfe\x00\x01#CSI"))


@pytest.mark.parametrize("m_full", [2.0, True, np.float64(2.0), np.bool_(True), "2"])
def test_a_header_refuses_an_m_full_that_is_not_an_integer(m_full):
    # written as 2.0 or True, it would make a header the reader refuses
    with pytest.raises(ValueError, match="m_full must be an integer"):
        TraceHeader(m_full)


@pytest.mark.parametrize("m_full", [np.int64(2), np.uint16(2)])
def test_a_header_takes_numpy_integers(tmp_path, m_full):
    path = tmp_path / "trace.csv"
    write(path, ["AB"], [[[1 + 0j, 2 + 0j]]], m_full=m_full)
    assert read_links(path, ["AB"], 1)[0] == TraceHeader(2)


def test_trace_validation(tmp_path):
    with pytest.raises(ValueError):
        TraceHeader(0)
    with pytest.raises(ValueError):
        TraceHeader(1, sample_interval_us=0.0)
    # the reader refuses these headers, so no header may hold them
    for interval in (math.inf, math.nan, -1.0):
        with pytest.raises(ValueError, match="finite positive"):
            TraceHeader(1, sample_interval_us=interval)
    with pytest.raises(ValueError, match="UTF-8"):
        TraceHeader(1, description="\ud800")
    for brk in LINE_BREAKS:
        with pytest.raises(ValueError, match="newline"):
            TraceHeader(1, description=f"x{brk}y")
    path = tmp_path / "trace.csv"
    # chunks of another width, of another number of links, or not (slots, links, m_full)
    for chunk in (np.zeros((1, 1, 1)), np.zeros((1, 2, 2)), np.zeros((2, 2)), np.zeros((1, 1, 1, 2))):
        with pytest.raises(ValueError, match="m_full"):
            write(path, ["AB"], chunk, m_full=2)
    assert os.listdir(tmp_path) == []
    # no link, or no slot, writes the header alone
    write(path, [], np.empty((4, 0, 3)))
    assert parse(path) == []
    write(path, ["AB"], np.empty((0, 1, 3)))
    assert path.read_text(encoding="utf-8") == "#CSI,m_full=3,interval_us=998.4,desc=\n"


def test_labels_differing_only_by_a_trailing_nul_stay_apart(tmp_path):
    header = "#CSI,m_full=1,interval_us=1.0,desc=\n"
    path = as_file(tmp_path, header + "1,AB,0.5,0.5\n1,AB\x00,0.25,0.5\n")
    _, gains = read_links(path, ("AB", "AB\x00"), 1)
    assert [g.tolist() for g in gains] == [[[0.5 + 0.5j]], [[0.25 + 0.5j]]]
    # enough rows for both links, but the legitimate one is labelled "AB\x00"
    cfg = desk_config(num_blocks=2, block_size=2, m_full=1, m_subcarriers=1, num_taps=1)
    rows = "".join(f"{t},AB\x00,0.5,0.5\n{t},AE,0.25,0.5\n" for t in range(1, 5))
    with trace_io.TraceReader(as_file(tmp_path, header + rows)) as nul_only:
        with pytest.raises(ValueError, match="trace has 0 records for link 'AB'"):
            ev.run_grid([cfg], nul_only)


def outcome(path):
    """What reading `path` gives: the trace's contents or the error's line."""
    try:
        header, gains = read_links(path, ("AB", "AE"), 2)
    except TraceFormatError as exc:
        return ("error", exc.line)
    return (header, [g.tobytes() for g in gains])


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_every_row_end_reads_alike(tmp_path, end):
    written = tmp_path / "written.csv"
    write_two_links(written)
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
            parse(as_file(tmp_path, text))
        assert err.value.line == 3


def test_non_utf8_byte_reports_its_line(tmp_path, rng):
    # rows of 48 subcarriers put the bad byte far past the first read-ahead
    n = 400
    path = tmp_path / "trace.csv"
    gains = rng.standard_normal((n, 48)) + 1j * rng.standard_normal((n, 48))
    write(path, ["AB"], gains[:, None])
    lines = path.read_bytes().split(b"\n")
    for k in (1, 2, 300, n + 1):
        bad = lines.copy()
        bad[k - 1] = bad[k - 1][:20] + b"\xff" + bad[k - 1][20:]
        with pytest.raises(TraceFormatError, match="UTF-8") as err:
            parse(as_file(tmp_path, b"\n".join(bad)), ("AB",), 100, 4)
        assert err.value.line == k


def test_writes_are_atomic(tmp_path):
    header, labels = TraceHeader(1), ["AB", "AE"]

    def chunks(last):
        """Two chunks of both links, then `last`: a chunk, or the fault
        raised by the iterable."""
        yield [[[1 + 0j], [2 + 0j]]]
        yield [[[3 + 0j], [4 + 0j]], [[5 + 0j], [6 + 0j]]]
        if isinstance(last, Exception):
            raise last
        yield last

    path = tmp_path / "trace.csv"
    wrong_shape = [[[7 + 0j], [8 + 0j], [9 + 0j]]]  # three links
    # a chunk refused after two were written, or a fault of the iterable,
    # leaves nothing behind
    with pytest.raises(ValueError, match="m_full"):
        trace_io.write_trace(header, path, labels, chunks(wrong_shape))
    with pytest.raises(ZeroDivisionError):
        trace_io.write_trace(header, path, labels, chunks(ZeroDivisionError()))
    assert os.listdir(tmp_path) == []
    # an existing file keeps its bytes, whatever fails
    path.write_bytes(b"precious")
    with pytest.raises(ValueError, match="m_full"):
        trace_io.write_trace(header, path, labels, chunks(wrong_shape))
    with pytest.raises(ZeroDivisionError):
        trace_io.write_trace(header, path, labels, chunks(ZeroDivisionError()))
    assert os.listdir(tmp_path) == ["trace.csv"]
    assert path.read_bytes() == b"precious"
    # a finished write replaces it and has the permissions open() would give
    old_mask = os.umask(0o027)
    try:
        trace_io.write_trace(header, path, labels, chunks([[[5 + 0j], [6 + 0j]]]))
        fresh = tmp_path / "fresh.csv"
        trace_io.write_trace(header, fresh, labels, chunks([[[5 + 0j], [6 + 0j]]]))
    finally:
        os.umask(old_mask)
    assert sorted(os.listdir(tmp_path)) == ["fresh.csv", "trace.csv"]
    assert path.read_bytes() == fresh.read_bytes()
    assert path.read_bytes().startswith(b"#CSI,m_full=1,")
    assert stat.S_IMODE(fresh.stat().st_mode) == 0o666 & ~0o027


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_destination_that_is_not_a_regular_file_is_refused(tmp_path):
    # os.replace would swap a device or FIFO out for a regular file
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    # a read end held open: were the FIFO opened for writing, the open
    # would not block and the test would fail rather than hang
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        with pytest.raises(ValueError, match="not a regular file"):
            trace_io.write_trace(TraceHeader(1), fifo, ["AB"], [[[1 + 0j]]])
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert os.listdir(tmp_path) == ["pipe"]


def test_memory_stays_near_the_size_of_the_gains(tmp_path, rng):
    # The writer formats one slot at a time and the reader fills one chunk
    # of both links, so neither holds the whole trace as Python floats
    # (about 24 bytes per float against the array's 8) or as text.
    n, m_full = 2000, 48
    sizes = [part.stop - part.start for part in ev._chunks(n // 2, m_full)]
    gains = rng.standard_normal((n, m_full)) + 1j * rng.standard_normal((n, m_full))
    path = tmp_path / "trace.csv"
    tracemalloc.start()
    try:
        write(path, ["AB", "AE"], gains.reshape(n // 2, 2, m_full))
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        read = 0
        with trace_io.TraceReader(path) as reader:
            for k, chunk in enumerate(reader.chunks(("AB", "AE"), sizes, 1)):
                check_chunk(chunk, 2, sizes[k], m_full)
                bob, eve = chunk
                assert np.array_equal(bob, gains[2 * read : 2 * (read + len(bob)) : 2])
                assert np.array_equal(eve, gains[2 * read + 1 : 2 * (read + len(eve)) : 2])
                read += len(bob)
                del chunk, bob, eve  # not kept while the next one is read
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert read == n // 2
    assert write_peak < 0.25 * gains.nbytes
    assert read_peak < 0.25 * gains.nbytes, read_peak / gains.nbytes


def test_a_block_handed_out_is_freed_once_the_caller_drops_it(tmp_path, rng):
    # the reader keeps no reference to the link arrays of a chunk it
    # yielded, so a replay holds the chunks being filled and no earlier ones
    n, m_full = 3, 2
    gains = rng.standard_normal((4 * n, m_full)) + 1j * rng.standard_normal((4 * n, m_full))
    path = tmp_path / "trace.csv"
    write(path, ["AB", "AE"], gains.reshape(2 * n, 2, m_full))
    with trace_io.TraceReader(path) as reader:
        chunks = reader.chunks(("AB", "AE"), [2, 1], 2)
        chunk = next(chunks)
        check_chunk(chunk, 2, 2, m_full)
        refs = [weakref.ref(array) for array in chunk]
        del chunk
        assert [ref() for ref in refs] == [None] * 2
        rest = list(chunks)
    for chunk, rows in zip(rest, [1, 2, 1], strict=True):
        check_chunk(chunk, 2, rows, m_full)
    bob, eve = (np.concatenate(link) for link in zip(*rest))
    assert np.array_equal(bob, gains[4::2]) and np.array_equal(eve, gains[5::2])


def test_no_chunk_after_a_non_finite_one_is_handed_out(tmp_path, rng):
    # AE's rows run five ahead of AB's, and AB's chunk 2 (of 2 rows) holds
    # a NaN in AB's row 5: chunks 0 and 1 go out as written, and the fault
    # is raised at the NaN's line before a later line is read
    n, m_full = 8, 3
    gains = rng.standard_normal((2 * n, m_full)) + 1j * rng.standard_normal((2 * n, m_full))
    gains[2 * 5, 1] = np.nan  # AB's row 5
    order = relinked_order(n, 5)  # the second link's rows, here AE's, run ahead
    nan_line = 2 + int(np.flatnonzero(order == 2 * 5)[0])  # the header is line 1
    assert nan_line == 15  # of 17: every AE row and AB's rows 0-4 come first
    path = tmp_path / "trace.csv"
    write_rows(path, m_full, slot_rows(gains.reshape(n, 2, m_full), order=order))
    handed_out = []
    with trace_io.TraceReader(path) as reader:
        read = lines_read(reader)
        with pytest.raises(TraceFormatError, match=f"^line {nan_line}: gains must be finite$"):
            for chunk in reader.chunks(("AB", "AE"), [2], 4):
                handed_out.append(chunk)
    assert read[-1] == nan_line
    assert len(handed_out) == 2
    for k, chunk in enumerate(handed_out):
        check_chunk(chunk, 2, 2, m_full)
        rows = slice(2 * k, 2 * k + 2)
        ab, ae = chunk
        assert np.array_equal(ab, gains[0::2][rows]) and np.array_equal(ae, gains[1::2][rows])


@pytest.mark.parametrize(
    "ab_rows, nan_row, ae_rows", [(4, 2, 3), (3, 2, 4), (5, 4, 3)],
    ids=["queued", "unfilled", "past-the-last-block"],
)
def test_a_non_finite_gain_never_handed_out_is_reported_before_a_short_link(
    tmp_path, rng, ab_rows, nan_row, ae_rows
):
    # two chunks of 2 rows a link, every AB row first: the NaN is in an AB
    # chunk that AE never completes, in an AB chunk that AB never
    # completes, or in an AB row past the last chunk; either way a link is
    # short, and the non-finite gain, met first, is the fault reported
    m_full = 2
    gains = rng.standard_normal((ab_rows + ae_rows, m_full)) + 0j
    gains[nan_row, 1] = np.nan
    rows = [(t, "AB", gains[t - 1]) for t in range(1, ab_rows + 1)]
    rows += [(t, "AE", gains[ab_rows + t - 1]) for t in range(1, ae_rows + 1)]
    path = tmp_path / "trace.csv"
    write_rows(path, m_full, rows)
    with pytest.raises(TraceFormatError, match=f"^line {2 + nan_row}: gains must be finite$"):
        parse(path, ("AB", "AE"), 2, 2)


def reads_cleanly(content):
    """Read `content` from a file; a TraceFormatError, or a replay's refusal
    of too few rows, is the only way to fail.

    The fuzz tests make their own directory: hypothesis refuses a
    function-scoped fixture such as tmp_path, which is not reset between
    examples."""
    with tempfile.TemporaryDirectory() as directory:
        try:
            parse(as_file(directory, content), ("AB", "AE"), 1, 1)
        except TraceFormatError:
            pass
        except ValueError as exc:
            assert str(exc).startswith("trace has ")


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
    lines=st.lists(st.text(alphabet="0123456789,.ABEe-+ \t", max_size=40), max_size=6),
)
def test_fuzzed_structured_lines_never_raise_anything_else(prefix, lines):
    reads_cleanly(prefix + "\n".join(lines))
