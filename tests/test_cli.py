"""Command-line interface: parsing, layering, CSV output, trace round trips.

Everything runs in-process through `main(argv)` so coverage and determinism
checks see the same code paths the installed console script uses.
"""

import csv
import hashlib
import io
import tracemalloc

import pytest

from physec import evaluation as ev
from physec.cli import RESULT_COLUMNS, main, read_config_file


@pytest.fixture(autouse=True)
def _clean_seed_env(monkeypatch):
    monkeypatch.delenv("PHYSEC_SEED", raising=False)


def run_cli(*argv) -> int:
    return main(list(argv))


def read_rows(text: str) -> list:
    return list(csv.DictReader(io.StringIO(text)))


DESK = ("--preset", "desk", "--seed", "0")


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


def test_no_update_flag_changes_the_detector_label(tmp_path):
    out = tmp_path / "r.csv"
    assert run_cli("evaluate", *DESK, "--m", "8", "--no-update", "--out", str(out)) == 0
    assert read_rows(out.read_text())[0]["detector"] == "gmm-noupdate"


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
# seed layering: env > flag > config file > default
# ---------------------------------------------------------------------------


def test_seed_env_variable_beats_the_flag(tmp_path, monkeypatch):
    monkeypatch.setenv("PHYSEC_SEED", "42")
    out = tmp_path / "r.csv"
    assert run_cli("evaluate", *DESK, "--m", "8", "--seed", "3", "--out", str(out)) == 0
    assert read_rows(out.read_text())[0]["seed"] == "42"


def test_invalid_seed_env_variable_is_a_usage_error(monkeypatch):
    monkeypatch.setenv("PHYSEC_SEED", "not-a-number")
    with pytest.raises(SystemExit) as exc:
        run_cli("evaluate", *DESK, "--m", "8")
    assert exc.value.code == 2


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
    "content",
    ["mystery_key=1\n", "snr=not-a-float\n", "just some words\n", "detector=foo\n"],
)
def test_bad_config_files_are_usage_errors(tmp_path, content):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(content)
    with pytest.raises(SystemExit) as exc:
        run_cli("evaluate", *DESK, "--m", "8", "--config", str(cfg))
    assert exc.value.code == 2


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
    # `physec roc` is the one way to write a curve
    with pytest.raises(SystemExit) as exc:
        run_cli("evaluate", *DESK, "--m", "8", "--roc", "--out", out)
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# simulate + trace replay
# ---------------------------------------------------------------------------


def test_simulate_reports_record_totals(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    assert run_cli("simulate", *DESK, "--blocks", "3", "--out", str(out)) == 0
    err = capsys.readouterr().err
    assert "wrote 1200 records (600 per link)" in err
    assert out.exists()


def test_simulate_writes_the_pinned_csv_bytes(tmp_path):
    # recorded from the per-record writer this format started with
    out = tmp_path / "trace.csv"
    argv = ("--blocks", "1", "--block-size", "7", "--m-full", "16", "--taps", "4")
    assert run_cli("simulate", *argv, "--seed", "0", "--out", str(out)) == 0
    data = out.read_bytes()
    assert len(data) == 8993
    assert hashlib.sha256(data).hexdigest() == (
        "22f634bd6762382e5e4bf60c3d52d1980720967721d6b115a0374c80c48f7b50"
    )


@pytest.mark.parametrize(
    "argv, size, digest",
    [
        (
            ("evaluate", "--detector", "gmm", "--detector", "mse", "--m", "4,8",
             "--compare-update"),
            376,
            "122b755007a100921669fd174763092d3eeeb6d80790e174d1c3fd28a96ee6a2",
        ),
        (
            ("evaluate", "--detector", "gmm", "--detector", "mse", "--m", "4,8",
             "--compare-update", "--feature", "delta"),
            549,
            "80aac8eaa2bed300937bd1a2a0dde348e5f239f4b6bfe7691dd3927af231ee68",
        ),
        (
            ("roc", "--m", "8"),
            20419,
            "d0e3d92564761bb1cbf1232875622a75f5a4d2aac8ebee02b4c2b17c2ff4bb37",
        ),
    ],
    ids=["evaluate-grid", "evaluate-grid-delta", "roc"],
)
def test_evaluate_and_roc_write_the_pinned_bytes(tmp_path, argv, size, digest):
    # recorded before the trial loop was split into stream, feature and
    # detector stages; any change to a score or a rate moves these bytes
    out = tmp_path / "out.csv"
    assert run_cli(*argv, *DESK, "--out", str(out)) == 0
    data = out.read_bytes()
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize(
    "option, message",
    [
        (("--interval-us", "inf"), "interval"),
        (("--interval-us", "nan"), "interval"),
        (("--interval-us", "-1"), "interval"),
        (("--desc", "two\nlines"), "newline"),
    ],
    ids=["interval-inf", "interval-nan", "interval-negative", "desc-newline"],
)
def test_simulate_refuses_a_header_the_reader_would_reject(tmp_path, capsys, option, message):
    out = tmp_path / "trace.csv"
    argv = ("--blocks", "1", "--block-size", "7", "--m-full", "16", "--taps", "4")
    with pytest.raises(SystemExit) as exc:
        run_cli("simulate", *argv, *option, "--out", str(out))
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_replaying_a_simulated_trace_matches_the_direct_run(tmp_path):
    trace = tmp_path / "trace.csv"
    direct = tmp_path / "direct.csv"
    replial = tmp_path / "replay.csv"
    assert run_cli("simulate", *DESK, "--out", str(trace)) == 0
    assert run_cli("evaluate", *DESK, "--m", "8", "--out", str(direct)) == 0
    assert (
        run_cli("evaluate", *DESK, "--m", "8", "--trace", str(trace), "--out", str(replial))
        == 0
    )
    assert direct.read_bytes() == replial.read_bytes()


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
        (4798, lambda row: edit_cell(row, 4, "nan"), "error: gains must be finite"),
        (4799, lambda row: edit_cell(row, 4, "inf"), "error: gains must be finite"),
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


# ---------------------------------------------------------------------------
# grids with update comparison
# ---------------------------------------------------------------------------


def test_sweep_compare_update_emits_paired_rows(tmp_path):
    out = tmp_path / "grid.csv"
    assert (
        run_cli("evaluate", *DESK, "--detector", "gmm", "--detector", "mse", "--m", "4,8",
                "--compare-update", "--coherence", "100000", "--out", str(out))
        == 0
    )
    rows = read_rows(out.read_text())
    # the mixture detector runs with and without updating; MSE has no update mode
    assert [(r["detector"], r["M"]) for r in rows] == [
        ("gmm", "4"), ("gmm-noupdate", "4"), ("gmm", "8"), ("gmm-noupdate", "8"),
        ("mse", "4"), ("mse", "8"),
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


@pytest.mark.parametrize(
    "argv",
    [
        ("evaluate", "--trace", "missing.csv"),
        ("simulate", *DESK, "--out", "missing/x.csv"),
        ("roc", *DESK, "--m", "8"),  # roc requires --out
    ],
)
def test_usage_errors_show_the_usage_of_their_command(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(f"usage: physec {argv[0]} ")


@pytest.mark.parametrize("detector", ["mse", "gmm"])
def test_delta_features_whose_squares_overflow_are_usage_errors(detector, capsys):
    # noise variance near 1e307: the delta magnitudes are finite, their
    # squares are not, and used to come out as rates of 0.0 or a numpy error
    with pytest.raises(SystemExit) as exc:
        run_cli("evaluate", "--preset", "desk", "--m", "8", "--snr", "-3079",
                "--feature", "delta", "--detector", detector)
    assert exc.value.code == 2
    assert "overflow" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, reason",
    [
        (("--compare-update", "--no-update"), "--compare-update runs with and without"),
        (("--compare-update", "--update"), "--compare-update runs with and without"),
        (("--detector", "mse", "--no-update"), "mse has no update mode"),
        (("--detector", "mse", "--update"), "mse has no update mode"),
        (("--detector", "mse", "--oracle-update"), "mse has no update mode"),
        (("--detector", "mse", "--compare-update"), "mse has no update mode"),
        (("--no-update", "--oracle-update"), "--no-update makes none"),
    ],
)
def test_update_flags_that_change_nothing_are_usage_errors(flags, reason, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("evaluate", *DESK, "--m", "8", *flags)
    assert exc.value.code == 2
    assert reason in capsys.readouterr().err


def test_update_keys_in_a_config_file_count_as_explicit(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("update = off\n")
    with pytest.raises(SystemExit) as exc:
        run_cli("evaluate", *DESK, "--m", "8", "--config", str(cfg), "--compare-update")
    assert exc.value.code == 2
    assert "--compare-update runs with and without" in capsys.readouterr().err


def test_update_flag_with_a_mixture_detector_in_the_grid_is_accepted(tmp_path):
    out = tmp_path / "grid.csv"
    assert (
        run_cli("evaluate", *DESK, "--m", "8", "--detector", "gmm", "--detector", "mse",
                "--no-update", "--out", str(out))
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
