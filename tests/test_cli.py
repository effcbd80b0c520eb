"""Command-line interface: parsing, layering, CSV output, trace round trips.

Everything runs in-process through `main(argv)` so coverage and determinism
checks see the same code paths the installed console script uses.
"""

import argparse
import csv
import errno
import hashlib
import io
import os
import re
import sys
import tracemalloc

import pytest

from physec import evaluation as ev
from physec import cli, gmm, trace_io
from physec.cli import RESULT_COLUMNS, build_parser, main, read_config_file
from physec.evaluation import ExperimentConfig

from conftest import relinked_order


def run_cli(*argv) -> int:
    return main(list(argv))


def read_rows(text: str) -> list:
    return list(csv.DictReader(io.StringIO(text)))


DESK = ("--preset", "desk", "--seed", "0")


@pytest.fixture
def drawn_chunks(monkeypatch):
    """The row count of each simulated chunk drawn while the test runs."""
    drawn = []
    simulated_estimate_chunks = ev.simulated_estimate_chunks

    def counted_chunks(config, blocks):
        for chunk in simulated_estimate_chunks(config, blocks):
            drawn.append(len(chunk))
            yield chunk

    monkeypatch.setattr(ev, "simulated_estimate_chunks", counted_chunks)
    return drawn


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def test_evaluate_writes_the_documented_csv_schema(tmp_path, capsys):
    out = tmp_path / "results.csv"
    assert run_cli("evaluate", *DESK, "--m", "8", "--out", str(out)) == 0
    rows = read_rows(out.read_text())
    assert list(rows[0].keys()) == RESULT_COLUMNS
    assert len(rows) == 1
    row = rows[0]
    assert row["detector"] == "gmm"
    assert row["M"] == "8"
    assert row["snr_db"] == "20.0"
    assert row["target_fa"] == "0.01"
    assert row["blocks"] == "10"
    assert row["seed"] == "0"
    assert 0.0 <= float(row["realized_fa"]) <= 1.0
    assert float(row["p_d"]) + float(row["p_md"]) == pytest.approx(1.0, abs=1e-12)
    # the human-readable table goes to stderr, never into the CSV
    err = capsys.readouterr().err
    assert "detector" in err and "p_md" in err


def test_evaluate_streams_csv_to_stdout_without_out(capsys):
    assert run_cli("evaluate", *DESK, "--m", "8") == 0
    captured = capsys.readouterr()
    rows = read_rows(captured.out)
    assert list(rows[0].keys()) == RESULT_COLUMNS
    assert "----" in captured.err  # table rule lines stay on stderr


def test_evaluate_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("evaluate", *DESK, "--m", "8", "--out", str(a)) == 0
    assert run_cli("evaluate", *DESK, "--m", "8", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_detector_and_m_lists_multiply_into_rows(tmp_path):
    out = tmp_path / "grid.csv"
    assert (
        run_cli(
            "evaluate", *DESK, "--detector", "gmm", "--detector", "mse",
            "--m", "4,8", "--out", str(out),
        )
        == 0
    )
    rows = read_rows(out.read_text())
    assert [(r["detector"], r["M"]) for r in rows] == [
        ("gmm", "4"), ("gmm", "8"), ("mse", "4"), ("mse", "8"),
    ]


def test_update_off_changes_the_detector_label(tmp_path):
    out = tmp_path / "r.csv"
    assert run_cli("evaluate", *DESK, "--m", "8", "--update", "off", "--out", str(out)) == 0
    row = read_rows(out.read_text())[0]
    assert (row["detector"], row["update"]) == ("gmm-noupdate", "off")


def test_desk_preset_sets_only_the_block_shape(monkeypatch, capsys):
    # every value no option sets is ExperimentConfig's own default
    seen = []

    def run(config):
        seen.append(config)
        return ev.TrialResult(counts=ev.Counts(0, 0, 0, 0), p_d=None, p_fa=None, p_md=None)

    def run_grid(configs, trace=None):
        return [run(config) for config in configs]

    monkeypatch.setattr(ev, "run_grid", run_grid)
    assert run_cli("evaluate", "--preset", "desk") == 0
    assert seen == [ev.ExperimentConfig(num_blocks=10, block_size=200)]


def test_imitating_attacker_is_detected_only_at_chance_level(tmp_path):
    out = tmp_path / "r.csv"
    assert run_cli("evaluate", *DESK, "--m", "8", "--imitate", "--out", str(out)) == 0
    row = read_rows(out.read_text())[0]
    assert abs(float(row["p_d"]) - float(row["realized_fa"])) <= 0.2


# ---------------------------------------------------------------------------
# layering: flag > config file > preset > default
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("env", ["42", "not-a-number"])
def test_the_seed_comes_from_the_options_alone(tmp_path, monkeypatch, env):
    # no environment variable sets an option, not even a seed
    monkeypatch.setenv("PHYSEC_SEED", env)
    out = tmp_path / "r.csv"
    assert run_cli("evaluate", *DESK, "--m", "8", "--seed", "3", "--out", str(out)) == 0
    assert read_rows(out.read_text())[0]["seed"] == "3"


@pytest.mark.parametrize("config, seed", [("seed = 5\n", "5"), ("", "0")], ids=["config", "default"])
def test_a_seed_the_flags_leave_unset_ignores_the_environment(tmp_path, monkeypatch, config, seed):
    monkeypatch.setenv("PHYSEC_SEED", "42")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / "r.csv"
    assert run_cli("evaluate", "--preset", "desk", "--m", "8", "--config", str(cfg), "--out", str(out)) == 0
    assert read_rows(out.read_text())[0]["seed"] == seed


def test_config_file_fills_gaps_but_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("snr = 5        # low-quality estimates\nm = 8\n\n")
    out = tmp_path / "r.csv"
    assert (
        run_cli("evaluate", *DESK, "--config", str(cfg), "--m", "4", "--out", str(out))
        == 0
    )
    row = read_rows(out.read_text())[0]
    assert row["M"] == "4"  # flag beat the file
    assert row["snr_db"] == "5.0"  # file beat the default


def test_read_config_file_parses_flat_key_value_lines(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# full line comment\nblock-size=64\ndetector=gmm,mse\n")
    values = read_config_file(str(cfg))
    assert values == {"block_size": "64", "detector": "gmm,mse"}


def test_a_config_file_saved_with_a_byte_order_mark_is_read(tmp_path):
    # the mark used to become part of the first key: "unknown config file key '\ufeffsnr'"
    cfg = tmp_path / "bom.cfg"
    cfg.write_text("snr = 5\nm = 8\n", encoding="utf-8-sig")
    assert read_config_file(str(cfg)) == {"snr": "5", "m": "8"}


@pytest.mark.parametrize(
    "content, message",
    [
        ("mystery_key=1\n", "unknown config file key 'mystery_key'"),
        ("snr=not-a-float\n", "config file key 'snr'"),
        ("just some words\n", "expected key=value"),
        ("detector=foo\n", "config file key 'detector'"),
        ("feature = delta\n", "unknown config file key 'feature'"),  # an option that is gone
    ],
)
def test_bad_config_files_are_usage_errors(tmp_path, capsys, content, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(content)
    with pytest.raises(SystemExit) as exc:
        run_cli("evaluate", *DESK, "--m", "8", "--config", str(cfg))
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "content, lines",
    [("m = 4\n# the grid\nm = 8\n", (1, 3)), ("snr = 5\nblock-size = 64\nblock_size = 50\n", (2, 3))],
    ids=["same spelling", "dash and underscore"],
)
def test_a_key_given_twice_in_a_config_file_is_a_usage_error(tmp_path, capsys, content, lines):
    # the last line used to win without a word: `m = 4` then `m = 8` wrote
    # one row, gmm,8
    cfg = tmp_path / "twice.cfg"
    cfg.write_text(content)
    out = tmp_path / "rows.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli("evaluate", *DESK, "--blocks", "2", "--block-size", "50", "--config", str(cfg),
                "--out", str(out))
    assert exc.value.code == 2
    first, second = lines
    assert f"line {second}: key" in capsys.readouterr().err
    with pytest.raises(ValueError, match=f"line {second}: key '.*' repeats line {first}"):
        read_config_file(str(cfg))
    assert not out.exists()


# ---------------------------------------------------------------------------
# roc output
# ---------------------------------------------------------------------------


def test_roc_subcommand_writes_a_monotone_curve(tmp_path):
    out = tmp_path / "roc.csv"
    assert run_cli("roc", *DESK, "--m", "8", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "p_fa,p_d"
    points = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    fas = [p[0] for p in points]
    assert all(b > a for a, b in zip(fas, fas[1:]))
    assert points[-1] == (1.0, 1.0)


def test_roc_flag_requires_out_and_a_single_combo(tmp_path):
    out = str(tmp_path / "roc.csv")
    with pytest.raises(SystemExit) as exc:
        run_cli("roc", *DESK, "--m", "8")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli("roc", *DESK, "--m", "4,8", "--out", out)
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli("roc", *DESK, "--m", "8", "--detector", "gmm", "--detector", "mse", "--out", out)
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli("roc", *DESK, "--m", "8", "--update", "decisions,off", "--out", out)
    assert exc.value.code == 2
    # `physec roc` is the one way to write a curve
    with pytest.raises(SystemExit) as exc:
        run_cli("evaluate", *DESK, "--m", "8", "--roc", "--out", out)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "grid",
    [("--m", "4,8"), ("--m", "8", "--detector", "gmm,mse"), ("--m", "8", "--update", "decisions,off")],
    ids=["m", "detector", "update"],
)
def test_a_roc_grid_is_refused_before_a_row_is_drawn(tmp_path, capsys, drawn_chunks, grid):
    out = tmp_path / "roc.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli("roc", *DESK, *grid, "--out", str(out))
    assert exc.value.code == 2
    assert "roc needs exactly one detector, m value and update mode" in capsys.readouterr().err
    assert drawn_chunks == []
    assert not out.exists()


# ---------------------------------------------------------------------------
# simulate + trace replay
# ---------------------------------------------------------------------------


def test_simulate_reports_record_totals(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    assert run_cli("simulate", *DESK, "--blocks", "3", "--out", str(out)) == 0
    err = capsys.readouterr().err
    assert "wrote 1200 records (600 per link)" in err
    assert out.exists()


def test_simulate_writes_one_block_of_two_messages(tmp_path, capsys):
    # the smallest trace: one block, of the smallest block size a config takes
    out = tmp_path / "trace.csv"
    assert run_cli("simulate", "--blocks", "1", "--block-size", "2", "--out", str(out)) == 0
    assert "wrote 4 records (2 per link)" in capsys.readouterr().err
    rows = [line.split(",")[:2] for line in out.read_text().splitlines()[1:]]
    assert rows == [["1", "AB"], ["1", "AE"], ["2", "AB"], ["2", "AE"]]


@pytest.mark.parametrize(
    "argv, size, digest",
    [
        # recorded from the per-record writer this format started with
        (
            ("--blocks", "1", "--block-size", "7", "--m-full", "16", "--taps", "4"),
            8993,
            "22f634bd6762382e5e4bf60c3d52d1980720967721d6b115a0374c80c48f7b50",
        ),
        # recorded from the stream that drew a whole block at a time: each
        # block is drawn in chunks of 85, 85 and 30 rows at m_full 48
        (
            ("--blocks", "3", "--block-size", "200", "--coherence", "1e3"),
            2286684,
            "cf57c4e681f8bc6e5aad806419cb98f7be6b04960e70c78fe99223e923697cd8",
        ),
        (
            ("--blocks", "3", "--block-size", "200", "--coherence", "1e3", "--imitate"),
            2295207,
            "e6f01f5fc628c4e66cfd35c63d801124daf20ce59f29003c28262ca85f75735b",
        ),
        (
            ("--blocks", "3", "--block-size", "200", "--imitate"),
            2297362,
            "88bf40eb4e0bb227d974cfd889ae0e9e123e929b57d62c6eaa1df405d89ca9ce",
        ),
    ],
    ids=["one-chunk", "drifting-chunks", "drifting-imitate-chunks", "static-imitate-chunks"],
)
def test_simulate_writes_the_pinned_csv_bytes(tmp_path, argv, size, digest):
    out = tmp_path / "trace.csv"
    assert run_cli("simulate", *argv, "--seed", "0", "--out", str(out)) == 0
    data = out.read_bytes()
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, size, digest, nine_column_digest",
    [
        (
            ("evaluate", "--detector", "gmm", "--detector", "mse", "--m", "4,8",
             "--update", "decisions,off"),
            434,
            "32f37eda6d04904cc9e20954ab2c02ccb74e091dbd4f988c30a48958a68adb06",
            "122b755007a100921669fd174763092d3eeeb6d80790e174d1c3fd28a96ee6a2",
        ),
        (
            ("roc", "--m", "8"),
            20419,
            "d0e3d92564761bb1cbf1232875622a75f5a4d2aac8ebee02b4c2b17c2ff4bb37",
            "d0e3d92564761bb1cbf1232875622a75f5a4d2aac8ebee02b4c2b17c2ff4bb37",
        ),
    ],
    ids=["evaluate-grid", "roc"],
)
def test_evaluate_and_roc_write_the_pinned_bytes(tmp_path, argv, size, digest, nine_column_digest):
    # recorded before the trial loop was split into stream, feature and
    # detector stages; any change to a score or a rate moves these bytes.
    # The first nine columns of each line are the bytes of the results CSV
    # before it gained its update and components columns.
    out = tmp_path / "out.csv"
    assert run_cli(*argv, *DESK, "--out", str(out)) == 0
    data = out.read_bytes()
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == digest
    nine_columns = b"".join(b",".join(line.split(b",")[:9]) + b"\n" for line in data.splitlines())
    assert hashlib.sha256(nine_columns).hexdigest() == nine_column_digest


@pytest.mark.parametrize("option", ["--interval-us 5", "--desc x"])
def test_simulate_takes_no_header_label_options(tmp_path, capsys, option):
    # every simulated trace's header reads interval_us=998.4,desc=simulated
    out = tmp_path / "trace.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli("simulate", *DESK, *option.split(), "--out", str(out))
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err
    assert not out.exists()


# one more than ExperimentConfig admits, and a width a trace header admits:
# a (rows, 2, m_full) complex chunk of it is too big for numpy
TOO_WIDE = 2**58


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--m-full", str(TOO_WIDE), "--taps", "1", "--out", "{tmp}/trace.csv"),
        ("evaluate", "--m-full", str(TOO_WIDE), "--taps", "1"),
        ("roc", "--m-full", str(TOO_WIDE), "--taps", "1", "--out", "{tmp}/roc.csv"),
        ("evaluate", "--trace", "{tmp}/wide.csv"),
        ("roc", "--trace", "{tmp}/wide.csv", "--out", "{tmp}/roc.csv"),
    ],
    ids=["simulate", "evaluate", "roc", "evaluate-replay", "roc-replay"],
)
def test_an_m_full_no_array_can_hold_is_a_usage_error(tmp_path, capsys, drawn_chunks, argv):
    wide = tmp_path / "wide.csv"
    wide.write_text(f"#CSI,m_full={TOO_WIDE},interval_us=998.4,desc=x\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(*(arg.format(tmp=tmp_path) for arg in argv))
    assert exc.value.code == 2
    assert "m_full must fit in an array" in capsys.readouterr().err
    assert drawn_chunks == []
    assert os.listdir(tmp_path) == ["wide.csv"]


# A block is cut into chunks of 85 rows at m_full 48 (ev._chunks): block
# sizes that straddle a chunk's edge, one smaller than a chunk and one of
# many chunks, and an m_full wide enough that a chunk is a single row.
# 2 is the smallest block size a config takes, too few training messages
# for a mixture of 3 components.
@pytest.mark.parametrize(
    "shape, run",
    [
        ((), ()),
        (("--blocks", "3", "--block-size", "2"), ("--detector", "mse")),
        (("--blocks", "3", "--block-size", "84"), ()),
        (("--blocks", "3", "--block-size", "85"), ()),
        (("--blocks", "3", "--block-size", "86"), ()),
        (("--blocks", "3", "--block-size", "1000"), ()),
        (("--blocks", "2", "--block-size", "5", "--m-full", "2049"), ("--detector", "mse")),
    ],
    ids=["desk", "block-2", "block-84", "block-85", "block-86", "block-1000", "one-row-chunks"],
)
def test_replaying_a_simulated_trace_matches_the_direct_run(tmp_path, shape, run):
    trace = tmp_path / "trace.csv"
    direct = tmp_path / "direct.csv"
    replial = tmp_path / "replay.csv"
    assert run_cli("simulate", *DESK, *shape, "--out", str(trace)) == 0
    assert run_cli("evaluate", *DESK, *shape, *run, "--m", "8", "--out", str(direct)) == 0
    assert (
        run_cli("evaluate", *DESK, *shape, *run, "--m", "8", "--trace", str(trace),
                "--out", str(replial))
        == 0
    )
    assert direct.read_bytes() == replial.read_bytes()


@pytest.mark.parametrize(
    "eve_ahead", [None, 300, "all"], ids=["links-apart", "eve-ahead", "eve-first"]
)
def test_a_replay_does_not_depend_on_how_the_links_interleave(tmp_path, eve_ahead):
    # 300 rows is three chunks and more of a desk block (85 rows a chunk);
    # with all of AE's rows ahead, every AE row comes before every AB row
    trace = tmp_path / "trace.csv"
    moved = tmp_path / "moved.csv"
    assert run_cli("simulate", *DESK, "--out", str(trace)) == 0
    header, *rows = trace.read_text(encoding="utf-8").splitlines(keepends=True)
    total = len(rows) // 2
    order = relinked_order(total, total if eve_ahead == "all" else eve_ahead)
    moved.write_text("".join([header, *(rows[i] for i in order)]), encoding="utf-8", newline="")
    assert sorted(moved.read_bytes().splitlines()) == sorted(trace.read_bytes().splitlines())
    results = {}
    for path in (trace, moved):
        results[path] = tmp_path / f"{path.stem}-results.csv"
        argv = ("--detector", "gmm", "--detector", "mse", "--m", "8")
        assert run_cli("evaluate", *DESK, *argv, "--trace", str(path),
                       "--out", str(results[path])) == 0
    assert results[trace].read_bytes() == results[moved].read_bytes()


@pytest.mark.parametrize("imitate", [(), ("--imitate",)], ids=["plain", "imitate"])
def test_replaying_a_drifting_trace_matches_the_direct_run(tmp_path, imitate):
    # every simulated block is drawn into one reused array, so the writer
    # must have taken each block before the next draw overwrites it
    shape = ("--preset", "desk", "--seed", "3")
    trace = tmp_path / "trace.csv"
    direct = tmp_path / "direct.csv"
    replayed = tmp_path / "replay.csv"
    detectors = ("--detector", "gmm", "--detector", "mse", "--m", "8")
    assert run_cli("simulate", *shape, "--coherence", "1e3", *imitate, "--out", str(trace)) == 0
    assert run_cli("evaluate", *shape, "--coherence", "1e3", *imitate, *detectors,
                   "--out", str(direct)) == 0
    # the recording holds the drift and the imitation: a replay takes neither option
    assert run_cli("evaluate", *shape, *detectors, "--trace", str(trace),
                   "--out", str(replayed)) == 0
    assert len(read_rows(direct.read_text())) == 2
    assert direct.read_bytes() == replayed.read_bytes()


def test_trace_problems_are_usage_errors(tmp_path, capsys):
    # a missing trace file is among the file errors below
    malformed = tmp_path / "junk.csv"
    malformed.write_text("this is not a trace\n")
    with pytest.raises(SystemExit) as exc:
        run_cli("evaluate", *DESK, "--m", "8", "--trace", str(malformed))
    assert exc.value.code == 2

    short = tmp_path / "short.csv"
    assert run_cli("simulate", *DESK, "--blocks", "2", "--out", str(short)) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run_cli("evaluate", *DESK, "--m", "8", "--trace", str(short))
    assert exc.value.code == 2
    # the count is the whole file's
    assert "trace has 400 records for link 'AB', need 2000" in capsys.readouterr().err

    # a recording cannot be re-filtered to imitate the legitimate link
    full = tmp_path / "full.csv"
    assert run_cli("simulate", *DESK, "--out", str(full)) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run_cli("evaluate", *DESK, "--m", "8", "--trace", str(full), "--imitate")
    assert exc.value.code == 2
    assert "prefilters require the simulator" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_traces_with_non_finite_gains_are_usage_errors(tmp_path, bad):
    trace = tmp_path / "trace.csv"
    assert run_cli("simulate", *DESK, "--out", str(trace)) == 0
    lines = trace.read_text().splitlines()
    cells = lines[3].split(",")
    cells[4] = bad
    lines[3] = ",".join(cells)
    trace.write_text("\n".join(lines) + "\n")
    with pytest.raises(SystemExit) as exc:
        run_cli("evaluate", *DESK, "--m", "8", "--trace", str(trace))
    assert exc.value.code == 2


def test_a_trace_row_whose_magnitudes_overflow_is_a_usage_error(tmp_path, capsys):
    # every gain is finite, but the row's magnitudes sum to inf: normalized,
    # it used to become an all-zero feature that was scored like any other
    trace = tmp_path / "trace.csv"
    assert run_cli("simulate", *DESK, "--out", str(trace)) == 0
    lines = trace.read_text().splitlines()
    cells = lines[3].split(",")
    lines[3] = ",".join(cells[:2] + ["1e308"] * (len(cells) - 2))
    trace.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run_cli("evaluate", *DESK, "--m", "8", "--trace", str(trace))
    assert exc.value.code == 2
    assert "do not sum to a finite value" in capsys.readouterr().err


def test_trace_time_index_outside_int64_is_a_usage_error(tmp_path, capsys):
    # magnitude features never read time, but the index must still fit int64
    trace = tmp_path / "trace.csv"
    assert run_cli("simulate", *DESK, "--out", str(trace)) == 0
    lines = trace.read_text().splitlines()
    lines[-1] = str(2**63) + lines[-1][lines[-1].index(","):]
    trace.write_text("\n".join(lines) + "\n")
    with pytest.raises(SystemExit) as exc:
        run_cli("evaluate", *DESK, "--m", "8", "--trace", str(trace))
    assert exc.value.code == 2
    assert "bad trace file" in capsys.readouterr().err


def edit_cell(row: str, column: int, value: str) -> str:
    cells = row.split(",")
    cells[column] = value
    return ",".join(cells)


@pytest.mark.parametrize(
    "line, edit, message",
    [
        (4799, lambda row: edit_cell(row, 6, "zz"),
         "bad trace file: line 4799: bad gain value: could not convert string to float: 'zz'"),
        (4798, lambda row: edit_cell(row, 4, "nan"), "bad trace file: line 4798: gains must be finite"),
        (4799, lambda row: edit_cell(row, 4, "inf"), "bad trace file: line 4799: gains must be finite"),
        (4800, lambda row: edit_cell(row, 0, "3"),
         "bad trace file: line 4800: time index 3 not increasing for link 'AB' (previous 2399)"),
    ],
    ids=["malformed-field", "nan-bob", "inf-eve", "time-goes-back"],
)
def test_faults_after_the_rows_a_run_needs_are_usage_errors(tmp_path, capsys, line, edit, message):
    # 12 blocks on file; the run reads 10 (lines 2-4001), and the file is read to its end
    trace = tmp_path / "trace.csv"
    assert run_cli("simulate", *DESK, "--blocks", "12", "--out", str(trace)) == 0
    lines = trace.read_text().splitlines()
    assert len(lines) == 4801
    lines[line - 1] = edit(lines[line - 1])
    trace.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run_cli("evaluate", *DESK, "--m", "8", "--trace", str(trace))
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def traced_peak(*argv) -> int:
    """Peak bytes that tracemalloc sees while `physec argv` runs."""
    tracemalloc.start()
    try:
        assert run_cli(*argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_stays_per_block(tmp_path):
    # simulate and a trace replay hold one block at a time, so their peak
    # does not grow with the number of blocks.  Code that holds the whole
    # trace grows with it: such a writer peaked 2.7x and such a replay 3.7x
    # higher at 16 blocks than at 4.  What does grow per block is small: 16
    # bytes of scores per message and one BlockTrace per block, 0.1 MB at 16
    # blocks against a peak above 1 MB.  1.5x leaves room for that and for
    # allocator noise, and fails any copy of the whole trace.
    shape = ("--block-size", "250", "--seed", "0")
    warm_up = tmp_path / "warm-up.csv"
    assert run_cli("simulate", "--blocks", "1", *shape, "--out", str(warm_up)) == 0
    peaks = {}
    for blocks in (4, 16):
        trace = tmp_path / f"trace-{blocks}.csv"
        peaks["simulate", blocks] = traced_peak(
            "simulate", "--blocks", str(blocks), *shape, "--out", str(trace)
        )
        peaks["replay", blocks] = traced_peak(
            "evaluate", "--blocks", str(blocks), *shape, "--detector", "mse", "--m", "16",
            "--trace", str(trace), "--out", str(tmp_path / "results.csv"),
        )
    for command in ("simulate", "replay"):
        assert peaks[command, 16] <= 1.5 * peaks[command, 4], peaks


def test_simulate_and_replay_peak_near_one_block(tmp_path):
    # A block is one (block_size, 2, m_full) complex array, both links'
    # rows.  simulate writes views of the stream's chunks, and a replay
    # holds only the chunk of each link it is filling and the trials'
    # feature arrays: 0.25 and 0.34 blocks here.  A writer handed a copy of
    # each block peaks at 3.19 blocks, and a reader that filled a whole
    # block of each link before handing it out at 1.22.
    shape = ("--block-size", "1000", "--seed", "0")
    block = 1000 * 2 * ExperimentConfig.m_full * 16
    trace = tmp_path / "trace.csv"
    assert run_cli("simulate", "--blocks", "1", "--block-size", "10", "--out", str(trace)) == 0
    peaks = {
        "simulate": traced_peak("simulate", "--blocks", "3", *shape, "--out", str(trace)),
        "replay": traced_peak(
            "evaluate", "--blocks", "3", *shape, "--detector", "mse", "--m", "16",
            "--trace", str(trace), "--out", str(tmp_path / "results.csv"),
        ),
    }
    bounds = {"simulate": 1.3, "replay": 0.6}
    assert all(peak < bounds[command] * block for command, peak in peaks.items()), {
        command: peak / block for command, peak in peaks.items()
    }


def test_a_replay_with_the_links_apart_peaks_under_two_blocks(tmp_path):
    # With every AB row before every AE row, the AB link queues each of its
    # chunks, half a block of rows per block, until the AE rows reach it:
    # 1.75 blocks here.  A reader that gathered both links into one zeroed
    # (rows, 2, m_full) chunk buffered the AE half of each as zeros and
    # peaked at 3.23 blocks.
    shape = ("--block-size", "1000", "--seed", "0")
    block = 1000 * 2 * ExperimentConfig.m_full * 16
    trace, apart = tmp_path / "trace.csv", tmp_path / "apart.csv"
    assert run_cli("simulate", "--blocks", "3", *shape, "--out", str(trace)) == 0
    header, *rows = trace.read_text(encoding="utf-8").splitlines(keepends=True)
    ab, ae = ([row for row in rows if f",{label}," in row] for label in ("AB", "AE"))
    apart.write_text("".join([header, *ab, *ae]), encoding="utf-8", newline="")
    argv = ("evaluate", "--blocks", "3", *shape, "--detector", "mse", "--m", "16", "--trace")
    assert run_cli(*argv, str(apart), "--out", str(tmp_path / "warm-up.csv")) == 0
    peak = traced_peak(*argv, str(apart), "--out", str(tmp_path / "results.csv"))
    assert peak < 2.0 * block, peak / block


@pytest.mark.parametrize("detector", ["mse", "gmm"])
def test_a_simulated_evaluate_peaks_under_half_a_block(tmp_path, detector):
    # The stream draws a chunk of rows at a time into one array, and each
    # trial keeps only the (block_size, M) features of the block: 0.41
    # (mse) and 0.42 (gmm) blocks here.  With the stream's one
    # (block_size, 2, m_full) array and the feature stage's block-sized
    # temporaries, the run peaked at 1.46 and 1.47 blocks.
    block = 1000 * 2 * ExperimentConfig.m_full * 16
    run_cli("evaluate", "--blocks", "2", "--block-size", "10", "--detector", detector,
            "--out", str(tmp_path / "warm-up.csv"))
    peak = traced_peak(
        "evaluate", "--blocks", "3", "--block-size", "1000", "--seed", "0", "--detector", detector,
        "--m", "16", "--out", str(tmp_path / "results.csv"),
    )
    assert peak < 0.5 * block, peak / block


# ---------------------------------------------------------------------------
# grids with update comparison
# ---------------------------------------------------------------------------


def test_update_list_emits_a_mixture_row_per_mode(tmp_path):
    out = tmp_path / "grid.csv"
    assert (
        run_cli("evaluate", *DESK, "--detector", "gmm", "--detector", "mse", "--m", "4,8",
                "--update", "decisions,off,labels", "--components", "2", "--coherence", "100000",
                "--out", str(out))
        == 0
    )
    rows = read_rows(out.read_text())
    # the mixture detector runs once per mode, in the order given, and labelled
    # updates read "gmm" as they still update; the baseline has neither an
    # update mode nor mixture components
    assert [(r["detector"], r["M"], r["update"], r["components"]) for r in rows] == [
        ("gmm", "4", "decisions", "2"), ("gmm-noupdate", "4", "off", "2"),
        ("gmm", "4", "labels", "2"), ("gmm", "8", "decisions", "2"),
        ("gmm-noupdate", "8", "off", "2"), ("gmm", "8", "labels", "2"),
        ("mse", "4", "", ""), ("mse", "8", "", ""),
    ]


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        (),  # missing subcommand
        ("evaluate", "--preset", "desk", "--m", "4,x"),
        ("evaluate", "--preset", "desk", "--detector", "foo"),
        ("evaluate", "--preset", "desk", "--m", "8", "--fa", "1.5"),
        ("simulate", "--preset", "desk", "--blocks", "0", "--out", "t.csv"),
        ("simulate", "--preset", "desk"),  # --out is required
        ("evaluate", "--preset", "desk", "--m", "999"),  # exceeds m_full
        ("sweep", "--preset", "desk", "--m", "4"),  # folded into evaluate
        ("evaluate", "--preset", "full", "--m", "4"),  # the defaults are full scale
        # noise variance 10^308.3 is not a finite float
        ("evaluate", "--preset", "desk", "--m", "8", "--snr", "-3083"),
        ("simulate", "--preset", "desk", "--snr", "-3083", "--out", "t.csv"),
    ],
)
def test_usage_errors_exit_with_code_two(argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (("evaluate", *DESK, "--m", "8", "--trace", "{missing}/trace.csv"), "cannot read trace"),
        (("evaluate", *DESK, "--m", "8", "--config", "{missing}/run.cfg"),
         "cannot read config file"),
        (("simulate", *DESK, "--out", "{missing}/trace.csv"), "cannot write trace"),
        (("evaluate", *DESK, "--m", "8", "--out", "{missing}/results.csv"),
         "cannot write results"),
        (("roc", *DESK, "--m", "8", "--out", "{missing}/roc.csv"), "cannot write ROC curve"),
    ],
    ids=["trace", "config", "simulate-out", "evaluate-out", "roc-out"],
)
def test_unreadable_and_unwritable_files_are_usage_errors(tmp_path, capsys, argv, message):
    missing = tmp_path / "missing"
    (path,) = [arg.format(missing=missing) for arg in argv if "{missing}" in arg]
    with pytest.raises(SystemExit) as exc:
        run_cli(*(arg.format(missing=missing) for arg in argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    # the message names the path given, not a temporary file beside it
    assert message in err and f"'{path}'" in err
    assert ".tmp" not in err
    assert "Traceback" not in err
    assert not missing.exists()  # nothing was created


def test_a_directory_given_as_the_trace_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("evaluate", *DESK, "--m", "8", "--trace", str(tmp_path))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "cannot read trace" in err and f"'{tmp_path}'" in err


def test_a_fault_reading_the_trace_rows_is_a_usage_error(tmp_path, monkeypatch, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_text("#CSI,m_full=48,interval_us=998.4,desc=x\n1,AB\n")

    class UnreadableRows(io.StringIO):
        """The header reads; the first row fails as a disk read can."""

        name = str(trace)

        def __next__(self):
            line = super().__next__()
            if not line.startswith("#"):
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            return line

    monkeypatch.setattr(trace_io, "open", lambda *args, **kwargs: UnreadableRows(trace.read_text()),
                        raising=False)
    with pytest.raises(SystemExit) as exc:
        run_cli("evaluate", *DESK, "--m", "8", "--trace", str(trace))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "cannot read trace: [Errno 5]" in err and f"'{trace}'" in err


@pytest.mark.parametrize("replay", [True, False], ids=["replay", "simulation"])
def test_a_reader_of_stdout_that_goes_away_ends_the_run_quietly(tmp_path, monkeypatch, capsys, replay):
    argv = ("evaluate", *DESK, "--m", "8", "--blocks", "3")
    if replay:
        trace = tmp_path / "trace.csv"
        assert run_cli("simulate", *DESK, "--blocks", "3", "--out", str(trace)) == 0
        argv += ("--trace", str(trace))
    read_end, write_end = os.pipe()
    os.close(read_end)  # writing to the pipe now raises BrokenPipeError
    with open(write_end, "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert "cannot read trace" not in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        # noise variance near 1e307: magnitude features still lie in [0, 1]
        ("--snr", "-3079", "--detector", "gmm,mse"),
        # the smallest block gives the baseline the 2 features it trains on
        ("--blocks", "3", "--block-size", "2", "--detector", "mse"),
    ],
    ids=["snr", "mse-training"],
)
def test_simulated_runs_at_the_edge_of_their_options_finish(tmp_path, argv):
    out = tmp_path / "r.csv"
    assert run_cli("evaluate", *DESK, "--m", "8", *argv, "--out", str(out)) == 0
    for row in read_rows(out.read_text()):
        assert all(0.0 <= float(row[column]) <= 1.0 for column in ("realized_fa", "p_d", "p_md"))


def test_a_fault_inside_a_simulated_run_is_not_a_usage_error(monkeypatch):
    # a simulated run's data is the program's: its refusal is a fault to report
    def broken(*args):
        raise ValueError("a fault inside the refit")

    monkeypatch.setattr(gmm, "update_block", broken)
    with pytest.raises(ValueError, match="a fault inside the refit"):
        run_cli("evaluate", *DESK, "--m", "8")


def test_a_closed_stdout_is_not_a_usage_error(monkeypatch):
    stdout = io.StringIO()
    stdout.close()
    monkeypatch.setattr(sys, "stdout", stdout)
    with pytest.raises(ValueError, match="closed file"):
        run_cli("evaluate", *DESK, "--m", "8", "--blocks", "2")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("evaluate", *DESK, "--m", "8", "--components", "201"),
         "block 0 gives 200 training features; the gmm detector needs 201"),
        (("roc", *DESK, "--m", "8", "--attack", "0", "--out", "roc.csv"),
         "roc needs legitimate and attacker messages"),
        (("simulate", *DESK, "--out", "fifo"), "exists and is not a regular file"),
        # an option that is gone
        (("evaluate", *DESK, "--m", "8", "--feature", "delta"), "unrecognized arguments: --feature delta"),
        (("roc", *DESK, "--m", "8", "--feature", "delta", "--out", "roc.csv"),
         "unrecognized arguments: --feature delta"),
    ],
    ids=["components", "roc-one-kind", "simulate-fifo", "evaluate-feature", "roc-feature"],
)
def test_options_a_run_cannot_serve_are_usage_errors(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    os.mkfifo("fifo")
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert sorted(os.listdir()) == ["fifo"]  # nothing was written


@pytest.mark.parametrize(
    "argv",
    [
        ("evaluate", "--trace", "missing.csv"),
        ("simulate", *DESK, "--out", "missing/x.csv"),
        ("roc", *DESK, "--m", "8"),  # roc requires --out
        ("evaluate", "--preset", "desk", "--update", "on"),  # modes, not a boolean
        ("evaluate", "--preset", "desk", "--update", ","),
        # an option the command does not know
        ("simulate", "--out", "x.csv", "--bogus"),
        ("evaluate", "--preset", "desk", "--bogus", "1"),
        ("roc", "--out", "roc.csv", "--bogus"),
        ("simulate", "--attack", "0.5", "--out", "x.csv"),  # the stream has no attacker share
        # one the top-level parser does not know
        ("--bogus", "evaluate"),
    ],
)
def test_usage_errors_show_the_usage_of_their_command(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    usage = "usage: physec [-h] " if argv[0].startswith("-") else f"usage: physec {argv[0]} "
    assert capsys.readouterr().err.startswith(usage)


SHAPE = ("--blocks", "2", "--block-size", "50")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("evaluate", *SHAPE, "--trace", ""), "cannot read trace"),
        (("roc", *SHAPE, "--m", "8", "--trace", "", "--out", "roc.csv"), "cannot read trace"),
        (("evaluate", *SHAPE, "--config", ""), "cannot read config file"),
        (("evaluate", *SHAPE, "--out", ""), "cannot write results"),
        (("simulate", *SHAPE, "--out", ""), "cannot write trace"),
        (("roc", *SHAPE, "--m", "8", "--out", ""), "cannot write ROC curve"),
    ],
    ids=["evaluate-trace", "roc-trace", "config", "evaluate-out", "simulate-out", "roc-out"],
)
def test_an_empty_path_is_a_usage_error_that_names_it(
    tmp_path, monkeypatch, capsys, drawn_chunks, argv, message
):
    # an empty path names no file: not a simulation in place of a replay,
    # not a config left unread, not stdout, not a temporary file
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{message}: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: ''" in err
    assert os.listdir() == []  # nothing was written, not even a temporary file
    if argv[0] == "simulate" or "--trace" in argv or "--config" in argv:
        assert drawn_chunks == []  # refused before a row was drawn


# ---------------------------------------------------------------------------
# the option table: one declaration per option
# ---------------------------------------------------------------------------

STREAM_OPTIONS = ("seed", "snr", "m_full", "taps", "coherence", "blocks", "block_size", "imitate")
RUN_OPTIONS = (*STREAM_OPTIONS, "attack", "detector", "m", "fa", "components", "update")
COMMAND_OPTIONS = {"simulate": STREAM_OPTIONS, "evaluate": RUN_OPTIONS, "roc": RUN_OPTIONS}
PLAIN_FLAGS = {
    "simulate": ("--config", "--preset", "--out"),
    "evaluate": ("--config", "--preset", "--trace", "--out"),
    "roc": ("--config", "--preset", "--trace", "--out"),
}
# a text each option's parser accepts, other than its default
SAMPLES = {
    "seed": "7", "snr": "5", "m_full": "32", "taps": "4", "coherence": "1e3", "blocks": "3",
    "block_size": "50", "imitate": "true", "attack": "0.25", "detector": "mse,gmm", "m": "4,8",
    "fa": "0.05", "components": "2", "update": "off,labels",
}


def flag_of(key: str) -> str:
    return "--" + key.replace("_", "-")


def subparsers(parser):
    """{name: parser} of each command of the physec parser."""
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return commands.choices


@pytest.mark.parametrize("command", [None, "simulate", "evaluate", "roc"])
def test_help_shows_the_usage_and_every_option_of_its_command(capsys, command):
    # help text is built from defaults and presets, and argparse expands
    # its % formatting only when it prints: every command's help must print
    parser = build_parser()
    if command is not None:
        parser = subparsers(parser)[command]
    with pytest.raises(SystemExit) as exc:
        run_cli(*filter(None, [command, "--help"]))
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: {parser.prog} ")
    options = [o for a in parser._actions for o in a.option_strings if o.startswith("--")]
    assert options and all(option in out for option in options)
    if command is None:
        assert all(name in out for name in subparsers(parser))
    else:
        # exactly the command's table options and its plain flags
        table = {flag_of(key) for key in COMMAND_OPTIONS[command]}
        assert set(re.findall(r"--[a-z][a-z-]*", out)) == {"--help", *PLAIN_FLAGS[command], *table}


def test_every_option_has_a_sample_and_a_command():
    assert set(SAMPLES) == set(cli._OPTIONS) == set(RUN_OPTIONS)


@pytest.mark.parametrize(
    "command, key", [(command, key) for command, keys in COMMAND_OPTIONS.items() for key in keys]
)
def test_a_flag_and_its_config_file_key_give_the_same_settings(tmp_path, command, key):
    out = () if command == "evaluate" else ("--out", "x.csv")
    # the one switch takes no value on the command line
    flag = (flag_of(key),) if key == "imitate" else (flag_of(key), SAMPLES[key])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {SAMPLES[key]}\n")
    parser = build_parser()

    def options(*argv):
        settings = cli._settings(parser.parse_args([command, *argv, *out]))
        return {name: value for name, value in settings.items() if name in cli._OPTIONS}

    by_flag = options(*flag)
    assert list(by_flag) == [key]
    assert options("--config", str(cfg)) == by_flag


def test_list_options_take_commas_and_a_repeated_flag_extends_them(tmp_path):
    shape = (*DESK, "--blocks", "2", "--block-size", "50", "--update", "off")
    commas, repeated = tmp_path / "commas.csv", tmp_path / "repeated.csv"
    assert run_cli("evaluate", *shape, "--detector", "gmm,mse", "--m", "4", "--m", "8",
                   "--out", str(commas)) == 0
    assert run_cli("evaluate", *shape, "--detector", "gmm", "--detector", "mse", "--m", "4,8",
                   "--out", str(repeated)) == 0
    assert commas.read_bytes() == repeated.read_bytes()
    assert [(r["detector"], r["M"]) for r in read_rows(commas.read_text())] == [
        ("gmm-noupdate", "4"), ("gmm-noupdate", "8"), ("mse", "4"), ("mse", "8"),
    ]


def test_a_config_file_key_of_another_command_is_skipped(tmp_path, capsys):
    # fa = 2 would stop evaluate; simulate has no target false-alarm rate
    shape = ("--seed", "0", "--blocks", "1", "--block-size", "20")
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("snr = 5\nfa = 2\ncomponents = 2\nattack = 0.25\n")
    by_file, by_flag = tmp_path / "by-file.csv", tmp_path / "by-flag.csv"
    assert run_cli("simulate", *shape, "--config", str(cfg), "--out", str(by_file)) == 0
    assert run_cli("simulate", *shape, "--snr", "5", "--out", str(by_flag)) == 0
    assert by_file.read_bytes() == by_flag.read_bytes()
    # a key that no command takes is still refused
    cfg.write_text("snr = 5\nmystery = 1\n")
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run_cli("simulate", *shape, "--config", str(cfg), "--out", str(by_file))
    assert exc.value.code == 2
    assert "unknown config file key 'mystery'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, reason",
    [
        (("--detector", "mse", "--update", "off"), "mse has no update mode"),
        (("--detector", "mse", "--update", "decisions"), "mse has no update mode"),
        (("--detector", "mse", "--update", "labels"), "mse has no update mode"),
        (("--detector", "mse", "--update", "decisions,off"), "mse has no update mode"),
    ],
)
def test_update_flags_that_change_nothing_are_usage_errors(flags, reason, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("evaluate", *DESK, "--m", "8", *flags)
    assert exc.value.code == 2
    assert reason in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, spelling",
    [("--no-update", "off"), ("--oracle-update", "labels"), ("--compare-update", "decisions,off")],
)
def test_update_flags_other_than_the_mode_list_are_gone(flag, spelling, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("evaluate", *DESK, "--m", "8", flag)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert run_cli("evaluate", *DESK, "--m", "8", "--update", spelling, "--out", str(tmp_path / "r.csv")) == 0


def test_update_keys_in_a_config_file_count_as_explicit(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("update = off\n")
    with pytest.raises(SystemExit) as exc:
        run_cli("evaluate", *DESK, "--m", "8", "--config", str(cfg), "--detector", "mse")
    assert exc.value.code == 2
    assert "mse has no update mode" in capsys.readouterr().err


def test_update_key_of_a_config_file_takes_a_list_and_the_flag_wins(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("update = labels, off\n")
    out = tmp_path / "grid.csv"
    assert run_cli("evaluate", *DESK, "--m", "8", "--config", str(cfg), "--out", str(out)) == 0
    assert [r["update"] for r in read_rows(out.read_text())] == ["labels", "off"]
    assert run_cli("evaluate", *DESK, "--m", "8", "--config", str(cfg), "--update", "decisions",
                   "--out", str(out)) == 0
    assert [r["update"] for r in read_rows(out.read_text())] == ["decisions"]
    # labelled updating is a mode of the update key, no longer a key of its own
    cfg.write_text("oracle_update = true\n")
    with pytest.raises(SystemExit) as exc:
        run_cli("evaluate", *DESK, "--m", "8", "--config", str(cfg))
    assert exc.value.code == 2
    assert "unknown config file key 'oracle_update'" in capsys.readouterr().err


def test_update_flag_with_a_mixture_detector_in_the_grid_is_accepted(tmp_path):
    out = tmp_path / "grid.csv"
    assert (
        run_cli("evaluate", *DESK, "--m", "8", "--detector", "gmm", "--detector", "mse",
                "--update", "off", "--out", str(out))
        == 0
    )
    assert [r["detector"] for r in read_rows(out.read_text())] == ["gmm-noupdate", "mse"]


@pytest.fixture(scope="module")
def desk_trace(tmp_path_factory):
    trace = tmp_path_factory.mktemp("replay") / "trace.csv"
    assert run_cli("simulate", *DESK, "--out", str(trace)) == 0
    return trace


@pytest.mark.parametrize("command", ["evaluate", "roc"])
@pytest.mark.parametrize(
    "flag, value, reason",
    [
        ("--coherence", "5", "--coherence shapes the simulated channel"),
        ("--taps", "2", "--taps shapes the simulated channel"),
        ("--m-full", "20", "--m-full 20 differs from the trace's m_full=48"),
    ],
    ids=["coherence", "taps", "m_full"],
)
def test_simulation_options_with_a_trace_are_usage_errors(
    desk_trace, tmp_path, capsys, command, flag, value, reason
):
    # a replay takes its channel from the recording: these would change nothing
    out = str(tmp_path / "out.csv")
    replay = (command, *DESK, "--m", "8", "--trace", str(desk_trace), "--out", out)
    with pytest.raises(SystemExit) as exc:
        run_cli(*replay, flag, value)
    assert exc.value.code == 2
    assert reason in capsys.readouterr().err

    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag[2:].replace('-', '_')} = {value}\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(*replay, "--config", str(cfg))
    assert exc.value.code == 2
    assert reason in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "roc"])
def test_a_recording_narrower_than_the_default_tap_count_replays(tmp_path, capsys, command):
    # a replay draws no taps, so the simulator's default of 8 must not
    # refuse a recording of 4 subcarriers
    shape = ("--seed", "0", "--blocks", "3", "--block-size", "20")
    trace = tmp_path / "trace.csv"
    assert run_cli("simulate", *shape, "--m-full", "4", "--taps", "2", "--out", str(trace)) == 0
    direct, replayed = tmp_path / "direct.csv", tmp_path / "replayed.csv"
    run = (command, *shape, "--m", "2")
    assert run_cli(*run, "--m-full", "4", "--taps", "2", "--out", str(direct)) == 0
    assert run_cli(*run, "--trace", str(trace), "--out", str(replayed)) == 0
    assert direct.read_bytes() == replayed.read_bytes()
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run_cli(*run, "--taps", "2", "--trace", str(trace), "--out", str(replayed))
    assert exc.value.code == 2
    assert "--taps shapes the simulated channel" in capsys.readouterr().err


def test_a_trace_replay_accepts_its_own_m_full_and_an_snr_label(desk_trace, tmp_path):
    plain, labelled = tmp_path / "plain.csv", tmp_path / "labelled.csv"
    replay = ("evaluate", *DESK, "--m", "8", "--trace", str(desk_trace))
    assert run_cli(*replay, "--out", str(plain)) == 0
    assert run_cli(*replay, "--m-full", "48", "--snr", "5", "--out", str(labelled)) == 0
    (row,), (labelled_row,) = read_rows(plain.read_text()), read_rows(labelled.read_text())
    # --snr only labels the row: the recorded estimates already hold their noise
    assert labelled_row.pop("snr_db") == "5.0"
    row.pop("snr_db")
    assert labelled_row == row
