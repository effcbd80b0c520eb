"""Experiment harness: metrics, ROC, determinism, trace replay, grids of runs."""

import csv
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from physec import cli
from physec import evaluation as ev
from physec import gmm
from physec import trace_io
from physec.evaluation import DetectorKind
from physec.features import FeatureKind

from conftest import desk_config, lines_read, relinked_order, slot_rows, write_rows


# ---------------------------------------------------------------------------
# metric identities
# ---------------------------------------------------------------------------


def test_counts_conserve_message_totals():
    cfg = desk_config()
    r = ev.run_experiment(cfg)
    expected = (cfg.num_blocks - 1) * cfg.block_size
    assert sum(r.counts) == expected
    assert len(r.bob_scores) + len(r.eve_scores) == expected
    assert len(r.blocks) == cfg.num_blocks - 1
    for i, b in enumerate(r.blocks, start=1):
        assert b.block_index == i
        assert b.bob_messages + b.eve_messages == cfg.block_size
        assert 0 <= b.false_alarms <= b.bob_messages
        assert 0 <= b.detections <= b.eve_messages
    # the block records are the tally the trial's counts are summed from
    c = r.counts
    assert sum(b.false_alarms for b in r.blocks) == c.false_alarms
    assert sum(b.detections for b in r.blocks) == c.true_detects
    assert sum(b.bob_messages for b in r.blocks) == c.false_alarms + c.correct_accepts
    assert sum(b.eve_messages for b in r.blocks) == c.true_detects + c.misses
    assert sum(b.bob_messages for b in r.blocks) == len(r.bob_scores)


def solo_stream(monkeypatch, cfg) -> list:
    """The (rows, from_eve) the trial of a solo run of `cfg` is handed, block
    by block: the rows are the block's chunks, concatenated."""
    received, chunks = [], []
    add_rows, step = ev._Trial.add_rows, ev._Trial.step

    def spy_rows(trial, rows):
        # the rows are a view of the stream's chunk, valid until the next draw
        chunks.append(rows.copy())
        add_rows(trial, rows)

    def spy_step(trial, from_eve):
        received.append((np.concatenate(chunks), from_eve))
        chunks.clear()
        step(trial, from_eve)

    with monkeypatch.context() as patched:
        patched.setattr(ev._Trial, "add_rows", spy_rows)
        patched.setattr(ev._Trial, "step", spy_step)
        ev.run_experiment(cfg)
    return received


def test_every_config_of_a_seed_sees_one_message_stream(monkeypatch):
    base = solo_stream(monkeypatch, desk_config())
    for other in (
        desk_config(m_subcarriers=4, detector=DetectorKind.MSE),
        desk_config(feature_kind=FeatureKind.DELTA, update_enabled=False, target_fa=0.05),
    ):
        for (rows, from_eve), (rows2, from_eve2) in zip(base, solo_stream(monkeypatch, other)):
            assert np.array_equal(rows, rows2) and np.array_equal(from_eve, from_eve2)
    assert len(base) == desk_config().num_blocks
    assert not base[0][1].any()  # the training block is legitimate only


# a valid value other than desk_config's, for every ExperimentConfig field
OTHER_VALUES = {
    "m_subcarriers": 4, "snr_db": 5.0, "attack_intensity": 0.25, "num_blocks": 3,
    "block_size": 100, "coherence_samples": 1e5, "detector": DetectorKind.MSE,
    "update_enabled": False, "feature_kind": FeatureKind.DELTA,
    "prefilter": ev.PERFECT_IMITATION, "rng_seed": 1, "target_fa": 0.05, "m_full": 32,
    "num_taps": 4, "gmm_components": 2, "oracle_update": True,
}


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(ev.ExperimentConfig)])
def test_only_the_fields_a_stream_reads_split_a_grid(monkeypatch, field):
    # a field the stream reads must be in _STREAM_FIELDS, or a grid that
    # mixes it would hand some config another config's messages
    base = desk_config()
    other = dataclasses.replace(base, **{field: OTHER_VALUES[field]})
    assert getattr(other, field) != getattr(base, field)
    if field in ev._STREAM_FIELDS:
        with pytest.raises(ValueError, match="share one message stream"):
            ev.run_grid([base, other])
        return
    expected = solo_stream(monkeypatch, base)
    received = solo_stream(monkeypatch, other)
    assert len(received) == len(expected)
    for (rows, from_eve), (rows2, from_eve2) in zip(expected, received):
        assert np.array_equal(rows, rows2) and np.array_equal(from_eve, from_eve2)


@pytest.mark.parametrize(
    "overrides",
    [dict(), dict(detector=DetectorKind.MSE, coherence_samples=1e6)],
    ids=["gmm", "mse-drift"],
)
def test_a_run_holds_no_block_while_its_trials_step(overrides):
    # A warm run peaks at 0.39 (block_size, 2, m_full) blocks: the stream
    # draws a chunk of rows at a time into its one reused array, and the
    # trial keeps the block's features and its scores.  A stream that drew
    # whole blocks peaked at 1.44 blocks, and one that drew each block into
    # a fresh array while the rows of the last one were still held at 2.44.
    cfg = desk_config(m_subcarriers=16, num_blocks=4, block_size=1000, **overrides)
    ev.run_experiment(cfg)  # warm: first-call allocations are not the run's
    tracemalloc.start()
    try:
        ev.run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.2 * cfg.block_size * 2 * cfg.m_full * 16


def test_misdetection_is_exactly_one_minus_detection():
    r = ev.run_experiment(desk_config())
    assert r.p_d is not None
    assert r.p_md == 1.0 - r.p_d  # computed, not approximated


def test_all_legitimate_traffic_leaves_detection_undefined():
    r = ev.run_experiment(desk_config(attack_intensity=0.0))
    assert r.p_d is None
    assert r.p_md is None
    assert r.p_fa is not None
    assert r.counts.true_detects == 0
    assert r.counts.misses == 0
    assert r.eve_scores.size == 0
    with pytest.raises(ValueError):
        ev.detection_at_fa(r, 0.01)


def test_all_attack_traffic_freezes_updates_and_leaves_fa_undefined():
    r = ev.run_experiment(desk_config(attack_intensity=1.0))
    assert r.p_fa is None
    assert r.p_d is not None
    assert r.bob_scores.size == 0
    # a block of pure attack traffic must never be absorbed into the model
    assert all(not b.model_updated for b in r.blocks)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("detector", [DetectorKind.GMM, DetectorKind.MSE])
def test_identical_seeds_give_identical_results(detector):
    cfg = desk_config(detector=detector)
    a = ev.run_experiment(cfg)
    b = ev.run_experiment(cfg)
    assert a.counts == b.counts
    assert np.array_equal(a.bob_scores, b.bob_scores)
    assert np.array_equal(a.eve_scores, b.eve_scores)


def test_different_seeds_give_different_streams():
    a = ev.run_experiment(desk_config(rng_seed=0))
    b = ev.run_experiment(desk_config(rng_seed=1))
    assert not np.array_equal(a.bob_scores, b.bob_scores)


# ---------------------------------------------------------------------------
# ROC curves
# ---------------------------------------------------------------------------


def test_roc_of_identical_score_arrays_is_the_diagonal():
    scores = np.random.default_rng(3).standard_normal(500)
    curve = ev.compute_roc(scores, scores.copy())
    assert np.array_equal(curve.p_fa, curve.p_d)


def test_roc_of_same_distribution_hugs_the_diagonal():
    rng = np.random.default_rng(4)
    curve = ev.compute_roc(rng.standard_normal(2000), rng.standard_normal(2000))
    assert float(np.max(np.abs(curve.p_d - curve.p_fa))) <= 0.06
    assert np.trapezoid(curve.p_d, curve.p_fa) == pytest.approx(0.5, abs=0.03)


def test_roc_is_strictly_increasing_and_ends_at_one():
    rng = np.random.default_rng(5)
    curve = ev.compute_roc(rng.standard_normal(300) + 1.0, rng.standard_normal(400))
    assert np.all(np.diff(curve.p_fa) > 0)
    assert np.all(np.diff(curve.p_d) >= 0)
    assert curve.p_fa[-1] == 1.0 and curve.p_d[-1] == 1.0
    assert curve.p_fa[0] >= 0.0


def test_roc_area_matches_known_separation():
    # acceptance scores: legitimate ~ N(3,1), attacker ~ N(0,1).  The exact
    # area is Phi(3/sqrt(2)) ~= 0.983; the sampled estimate at n=4000 has
    # standard error ~0.002.
    rng = np.random.default_rng(6)
    curve = ev.compute_roc(
        rng.standard_normal(4000) + 3.0, rng.standard_normal(4000)
    )
    assert 0.97 <= np.trapezoid(curve.p_d, curve.p_fa) <= 0.995


def test_roc_rejects_empty_inputs():
    with pytest.raises(ValueError):
        ev.compute_roc(np.empty(0), np.arange(3.0))
    with pytest.raises(ValueError):
        ev.compute_roc(np.arange(3.0), np.empty(0))


NAN_SCORES = {
    "bob": ([0.0, math.nan, 1.0], [0.5, 2.0]),
    "eve": ([0.0, 1.0], [0.5, math.nan]),
    "only-nan": ([math.nan], [math.nan]),
}


@pytest.mark.parametrize("bob, eve", NAN_SCORES.values(), ids=NAN_SCORES.keys())
def test_a_nan_score_is_refused(bob, eve):
    # NaN compares false both ways: it would be counted on neither side of
    # any threshold, and the rates would come out as numbers
    with pytest.raises(ValueError, match="NaN"):
        ev.compute_roc(bob, eve)
    result = ev.TrialResult(
        counts=ev.Counts(0, 0, 0, 0), p_d=None, p_fa=None, p_md=None,
        bob_scores=np.array(bob), eve_scores=np.array(eve),
    )
    with pytest.raises(ValueError, match="NaN"):
        ev.detection_at_fa(result, 0.5)


def test_infinite_scores_are_scores():
    bob, eve = np.array([-math.inf, 1.0, math.inf, 2.0]), np.array([-math.inf, 0.0])
    curve = ev.compute_roc(bob, eve)
    assert curve.p_fa.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert curve.p_d.tolist() == [0.0, 1.0, 1.0, 1.0, 1.0]
    result = ev.TrialResult(
        counts=ev.Counts(0, 0, 0, 0), p_d=None, p_fa=None, p_md=None,
        bob_scores=bob, eve_scores=eve,
    )
    assert ev.detection_at_fa(result, 0.5) == 1.0  # threshold 2.0


def test_detection_at_matched_false_alarm_hand_example():
    r = ev.TrialResult(
        counts=ev.Counts(0, 0, 0, 0),
        p_d=None,
        p_fa=None,
        p_md=None,
        bob_scores=np.arange(1.0, 101.0),
        eve_scores=np.array([0.5, 10.5, 200.0]),
    )
    # threshold at the 10% quantile of 1..100 is 11 -> two attacker scores below
    assert ev.detection_at_fa(r, 0.10) == pytest.approx(2.0 / 3.0, abs=1e-15)


# ---------------------------------------------------------------------------
# grids and paired comparisons (grids of runs go through `physec evaluate`)
# ---------------------------------------------------------------------------


def sweep_rows(tmp_path, *argv) -> list:
    """Result rows of a desk-scale `physec evaluate` with desk_config()'s seed."""
    out = tmp_path / "grid.csv"
    assert cli.main(["evaluate", "--preset", "desk", "--seed", "0", *argv, "--out", str(out)]) == 0
    with open(out, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def test_sweep_repeats_are_bit_identical(tmp_path):
    first, second = sweep_rows(tmp_path, "--m", "8,8")
    assert first["M"] == second["M"] == "8"
    assert first == second  # rates are written repr-exact


def test_sweep_records_requested_subcarrier_counts(tmp_path):
    rows = sweep_rows(tmp_path, "--m", "4,8")
    assert [r["M"] for r in rows] == ["4", "8"]
    with pytest.raises(SystemExit) as exc:
        sweep_rows(tmp_path, "--m", ",")
    assert exc.value.code == 2


def test_update_comparison_on_a_slow_channel_changes_nothing(tmp_path):
    with_update, without_update = sweep_rows(
        tmp_path, "--m", "8", "--coherence", "1e12", "--update", "decisions,off"
    )
    assert (with_update["update"], without_update["update"]) == ("decisions", "off")
    assert abs(float(with_update["p_d"]) - float(without_update["p_d"])) <= 0.02
    assert float(with_update["p_md"]) <= 0.02
    assert float(without_update["p_md"]) <= 0.02


# ---------------------------------------------------------------------------
# detectors and features end to end
# ---------------------------------------------------------------------------


def test_mse_detector_is_healthy_at_high_snr():
    r = ev.run_experiment(desk_config(detector=DetectorKind.MSE))
    assert r.p_md <= 0.05
    assert r.p_fa <= 0.10


def test_delta_feature_pipeline_runs():
    from physec.features import FeatureKind

    r = ev.run_experiment(desk_config(feature_kind=FeatureKind.DELTA))
    assert sum(r.counts) == 1800
    assert r.p_fa is not None and r.p_d is not None


@pytest.mark.parametrize("detector", list(DetectorKind), ids=lambda d: d.value)
def test_delta_features_whose_squares_overflow_are_rejected(detector):
    # noise variance near 1e307: the delta magnitudes are finite, their
    # squares are not, and used to come out as rates of 0.0 or a numpy error
    cfg = desk_config(snr_db=-3079.0, feature_kind=FeatureKind.DELTA, detector=detector)
    with pytest.raises(gmm.FeatureOverflowError, match="overflow"):
        ev.run_experiment(cfg)


def test_a_delta_baseline_with_one_training_feature_is_refused():
    # block 0 of 2 messages gives one delta feature; the baseline needs 2
    with pytest.raises(ValueError, match="block 0 gives 1 training features; the mse detector needs 2"):
        desk_config(feature_kind=FeatureKind.DELTA, detector=DetectorKind.MSE, num_blocks=3, block_size=2)


@pytest.mark.parametrize(
    "overrides, trained, needed",
    [
        (dict(block_size=2), 2, 3),
        (dict(block_size=4, gmm_components=5), 4, 5),
        (dict(block_size=3, feature_kind=FeatureKind.DELTA), 2, 3),
    ],
    ids=["default-components", "more-components", "delta"],
)
def test_a_mixture_that_block_0_cannot_train_is_refused_by_the_config(overrides, trained, needed):
    # refused where the config is made, not once block 0 has been drawn
    message = f"block 0 gives {trained} training features; the gmm detector needs {needed}"
    with pytest.raises(ValueError, match=message):
        desk_config(**overrides)
    # one more message trains each detector
    desk_config(**{**overrides, "block_size": overrides["block_size"] + 1})
    desk_config(**overrides, detector=DetectorKind.MSE)


def test_oracle_labeled_updates_fire():
    r = ev.run_experiment(desk_config(oracle_update=True))
    assert any(b.model_updated for b in r.blocks)


@pytest.mark.parametrize("oracle", [False, True])
@pytest.mark.parametrize("blocks", [2, 3, 6])
def test_no_refit_follows_the_last_block(monkeypatch, oracle, blocks):
    # the model a refit after the last block would give scores nothing
    calls = []
    refit = gmm.update_block
    monkeypatch.setattr(gmm, "update_block", lambda *args: calls.append(args) or refit(*args))
    r = ev.run_experiment(desk_config(num_blocks=blocks, oracle_update=oracle))
    assert len(calls) == blocks - 2
    assert [b.model_updated for b in r.blocks] == [True] * (blocks - 2) + [False]


def test_perfect_imitation_collapses_detection_to_chance_desk_scale():
    r = ev.run_experiment(desk_config(prefilter=ev.PERFECT_IMITATION))
    assert r.p_d is not None and r.p_fa is not None
    assert abs(r.p_d - r.p_fa) <= 0.10


# ---------------------------------------------------------------------------
# trace replay
# ---------------------------------------------------------------------------


LINKS = (ev.BOB_LINK, ev.EVE_LINK)


def simulated_chunks(cfg):
    """The chunks of `cfg`'s simulated stream that its blocks take."""
    return ev.simulated_estimate_chunks(cfg, cfg.num_blocks)


def simulated_gains(cfg) -> np.ndarray:
    """Both links' gains of `cfg`'s simulation, one (2, m_full) row a slot."""
    # the stream draws its next chunk into the one it yielded last
    return np.concatenate([chunk.copy() for chunk in simulated_chunks(cfg)])


def write_simulated(path, cfg, chunks=None):
    """Write a trace as `physec simulate` does, of `chunks` or else of
    `cfg`'s simulated stream."""
    chunks = simulated_chunks(cfg) if chunks is None else chunks
    trace_io.write_trace(trace_io.TraceHeader(cfg.m_full), path, LINKS, chunks)
    return path


def replay(path, *configs) -> list:
    with trace_io.TraceReader(path) as trace:
        return ev.run_grid(list(configs), trace)


def replay_gains(tmp_path, gains, *configs) -> list:
    return replay(write_simulated(tmp_path / "trace.csv", configs[0], [gains]), *configs)


def assert_same_trial(result, expected):
    assert result.counts == expected.counts
    assert np.array_equal(result.bob_scores, expected.bob_scores)
    assert np.array_equal(result.eve_scores, expected.eve_scores)


def test_replaying_a_recorded_trace_reproduces_the_simulation(tmp_path):
    cfg = desk_config()
    (replayed,) = replay(write_simulated(tmp_path / "trace.csv", cfg), cfg)
    assert_same_trial(replayed, ev.run_experiment(cfg))


def test_a_replay_reads_the_links_in_any_order_beside_other_links(tmp_path):
    # all of the legitimate link's rows first, then the attacker's, each
    # followed by a row of a third link whose gains no replay reads
    cfg = desk_config(num_blocks=3)
    gains = simulated_gains(cfg)
    third = np.full(cfg.m_full, np.nan)
    rows = [(t, ev.BOB_LINK, pair[0]) for t, pair in enumerate(gains, start=1)]
    for t, pair in enumerate(gains, start=1):
        rows += [(t, ev.EVE_LINK, pair[1]), (t, "XY", third)]
    path = tmp_path / "trace.csv"
    write_rows(path, cfg.m_full, rows)
    (replayed,) = replay(path, cfg)
    assert_same_trial(replayed, ev.run_experiment(cfg))


# the links as `physec simulate` writes them, one after the other, and Eve's
# three desk chunks and more (85 rows a chunk) ahead of Bob's
@pytest.mark.parametrize("eve_ahead", [0, None, 300], ids=["as-written", "links-apart", "eve-ahead"])
@pytest.mark.parametrize("fault", ["non-finite", "short"])
def test_a_late_trace_fault_is_reported_once_the_last_row_is_read(tmp_path, eve_ahead, fault):
    cfg = desk_config()
    total = cfg.num_blocks * cfg.block_size
    order = relinked_order(total, eve_ahead)
    rows = slot_rows(simulated_gains(cfg), LINKS, order)
    if fault == "non-finite":  # a message of Bob's in the last block's first chunk
        nan_row = next(k for k, (t, label, _) in enumerate(rows) if (t, label) == (total - 150, ev.BOB_LINK))
        rows[nan_row][2][3] = np.nan
        last_line = 2 + nan_row  # the header is line 1
        message = f"line {last_line}: gains must be finite"
    else:  # Eve's link ends 10 messages early
        message = f"trace has {total - 10} records for link 'AE', need {total}"
        rows = [row for row in rows if row[0] <= total - 10 or row[1] != ev.EVE_LINK]
        last_line = 1 + len(rows)  # the header and every row
    path = tmp_path / "trace.csv"
    write_rows(path, cfg.m_full, rows)
    with trace_io.TraceReader(path) as trace:
        read = lines_read(trace)
        with pytest.raises(ValueError, match=f"^{message}$"):
            ev.run_grid([cfg], trace)
    assert read[-1] == last_line


def test_replay_rejects_short_traces_and_prefilters(tmp_path):
    cfg = desk_config()
    path = write_simulated(tmp_path / "trace.csv", dataclasses.replace(cfg, num_blocks=2))
    # the count is the whole file's
    with pytest.raises(ValueError, match="trace has 400 records for link 'AB', need 2000"):
        replay(path, cfg)
    with pytest.raises(ValueError, match="prefilter"):
        replay(path, dataclasses.replace(cfg, prefilter=ev.PERFECT_IMITATION))


def test_replay_rejects_a_config_of_another_width(tmp_path):
    path = write_simulated(tmp_path / "trace.csv", desk_config())
    with pytest.raises(ValueError, match="m_full=16"):
        replay(path, desk_config(m_full=16, num_taps=4))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_replay_rejects_non_finite_gains(tmp_path, bad):
    cfg = desk_config()
    gains = simulated_gains(cfg)
    gains[cfg.block_size, 1, 5] = complex(bad, 0.0)  # Eve's first test message
    with pytest.raises(ValueError, match="finite"):
        replay_gains(tmp_path, gains, cfg)


def test_replay_rejects_all_zero_selected_estimates(tmp_path):
    cfg = desk_config()
    gains = simulated_gains(cfg)
    gains[cfg.block_size] = 0.0  # both links of the first test message
    with pytest.raises(ValueError, match="all-zero"):
        replay_gains(tmp_path, gains, cfg)


@pytest.mark.parametrize("kinds", [["delta"], ["magnitude", "delta"]], ids=["delta", "mixed"])
def test_a_replay_with_delta_features_is_refused_before_a_row_is_parsed(
    tmp_path, monkeypatch, kinds
):
    # a delta feature differences consecutive messages of two links'
    # recordings; any config of a grid that uses them refuses the replay
    path = write_simulated(tmp_path / "trace.csv", desk_config())
    configs = [desk_config(feature_kind=FeatureKind(kind)) for kind in kinds]
    parsed = []

    def counting_parse(*args):
        parsed.append(args[1])
        return parse_row(*args)

    parse_row = trace_io._parse_row
    monkeypatch.setattr(trace_io, "_parse_row", counting_parse)
    with pytest.raises(ValueError, match="^delta features require the simulator; "
                       "a replay takes magnitude features only$"):
        replay(path, *configs)
    assert parsed == []


def test_a_replay_does_not_read_the_time_indices_across_links(tmp_path):
    # the attacker link's clock runs far ahead of the legitimate one's, so
    # the mixed stream steps back in time whenever it returns to Bob
    cfg = desk_config()
    rows = [(t + 10**6 if label == ev.EVE_LINK else t, label, gains)
            for t, label, gains in slot_rows(simulated_gains(cfg), LINKS)]
    path = tmp_path / "trace.csv"
    write_rows(path, cfg.m_full, rows)
    (replayed,) = replay(path, cfg)
    assert_same_trial(replayed, ev.run_experiment(cfg))


@pytest.mark.parametrize("case", ["run-fault-first", "nan-before-malformed", "nan-before-short"])
def test_a_replay_stops_at_its_first_fault_in_file_order(tmp_path, case):
    # `last_line` is the last line the replay reads
    cfg = desk_config()
    gains = simulated_gains(cfg)
    if case == "run-fault-first":  # the first test message all-zero, a NaN in the last row
        gains[cfg.block_size] = 0.0
        gains[-1, 1, 0] = np.nan
        error, message = ValueError, "^all-zero estimate"
        # the chunk that holds the message is featurized once it is full
        last_line = 1 + 2 * (cfg.block_size + ev._chunks(cfg.block_size, cfg.m_full)[0].stop)
        assert last_line < 1 + 2 * len(gains)  # the NaN is never read
    elif case == "nan-before-malformed":  # the run's last row, then a row after it
        gains[-1, 1, 0] = np.nan
        last_line = 1 + 2 * len(gains)
        error, message = trace_io.TraceFormatError, f"^line {last_line}: gains must be finite$"
    else:  # Bob's row 2 of a trace with 2 of the 10 blocks the run needs
        gains = simulated_gains(dataclasses.replace(cfg, num_blocks=2))
        gains[2, 0, 0] = np.nan
        last_line = 6
        error, message = trace_io.TraceFormatError, f"^line {last_line}: gains must be finite$"
    path = write_simulated(tmp_path / "trace.csv", cfg, [gains])
    if case == "nan-before-malformed":
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("not,a,row\n")
    with trace_io.TraceReader(path) as trace:
        read = lines_read(trace)
        with pytest.raises(error, match=message):
            ev.run_grid([cfg], trace)
    assert read[-1] == last_line


def test_a_grid_must_share_one_message_stream():
    for other in (
        desk_config(rng_seed=1), desk_config(attack_intensity=0.25), desk_config(num_blocks=3),
        desk_config(snr_db=5.0), desk_config(coherence_samples=1e5),
    ):
        with pytest.raises(ValueError, match="share one message stream"):
            ev.run_grid([desk_config(), other])
    with pytest.raises(ValueError, match="at least one"):
        ev.run_grid([])


def captured_grid(monkeypatch, argv) -> list:
    """(config, result) of every row of `physec evaluate argv`."""
    seen = []

    def run_grid(configs, trace=None):
        results = real(configs, trace)
        seen.extend(zip(configs, results))
        return results

    real = ev.run_grid
    monkeypatch.setattr(ev, "run_grid", run_grid)
    assert cli.main(["evaluate", "--preset", "desk", "--seed", "0", *argv]) == 0
    monkeypatch.setattr(ev, "run_grid", real)
    return seen


GRID = ("--detector", "gmm", "--detector", "mse", "--m", "4,16", "--update", "decisions,off,labels")


def test_every_grid_row_is_its_solo_run(tmp_path, monkeypatch):
    simulated = captured_grid(monkeypatch, GRID)
    assert len(simulated) == 8
    assert {(c.update_enabled, c.oracle_update) for c, _ in simulated} == set(cli.UPDATE_MODES.values())
    for config, result in simulated:
        assert_same_trial(result, ev.run_experiment(config))
    trace = tmp_path / "trace.csv"
    assert cli.main(["simulate", "--preset", "desk", "--seed", "0", "--out", str(trace)]) == 0
    replayed = captured_grid(monkeypatch, (*GRID, "--trace", str(trace)))
    assert [config for config, _ in replayed] == [config for config, _ in simulated]
    for (config, result), (_, replay_result) in zip(simulated, replayed):
        assert_same_trial(replay_result, result)
        (solo_replay,) = replay(trace, config)
        assert_same_trial(replay_result, solo_replay)


def test_every_row_of_a_delta_grid_is_its_solo_run():
    # the command line takes magnitude features only; the library's grid
    # still runs delta features, each row as it would run alone
    configs = [
        desk_config(feature_kind=FeatureKind.DELTA, detector=detector, m_subcarriers=m,
                    update_enabled=update, oracle_update=oracle)
        for detector in DetectorKind
        for m in (4, 16)
        for update, oracle in cli.UPDATE_MODES.values()
        if detector is DetectorKind.GMM or (update, oracle) == (False, False)
    ]
    assert len(configs) == 8
    for config, result in zip(configs, ev.run_grid(configs)):
        assert_same_trial(result, ev.run_experiment(config))


def test_a_replayed_grid_opens_and_parses_its_trace_once(tmp_path, monkeypatch):
    trace = tmp_path / "trace.csv"
    assert cli.main(["simulate", "--preset", "desk", "--seed", "0", "--out", str(trace)]) == 0
    with open(trace, "a", encoding="utf-8") as fh:
        fh.write("# a comment after the rows\n")
    opened, parsed = [], []

    def counting_open(path, *args, **kwargs):
        opened.append(path)
        return open(path, *args, **kwargs)

    def counting_parse(*args):
        parsed.append(args[1])
        return parse_row(*args)

    parse_row = trace_io._parse_row
    monkeypatch.setattr(trace_io, "open", counting_open, raising=False)
    monkeypatch.setattr(trace_io, "_parse_row", counting_parse)
    captured_grid(monkeypatch, (*GRID, "--trace", str(trace)))
    assert opened == [str(trace)]
    lines = len(trace.read_text(encoding="utf-8").splitlines())
    assert parsed == list(range(2, lines + 1))  # every line after the header, once


def test_overflowing_prefilter_gains_are_rejected(monkeypatch):
    # finite coefficients, but the filtered gains overflow to inf
    monkeypatch.setattr(
        ev.ch, "perfect_imitation_prefilter", lambda target, actual: np.full(48, 1.7e308 + 0j)
    )
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="finite"):
            ev.run_experiment(desk_config(prefilter=ev.PERFECT_IMITATION))


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "overrides",
    [
        dict(m_subcarriers=0),
        dict(m_subcarriers=49),
        dict(attack_intensity=-0.1),
        dict(attack_intensity=1.1),
        dict(num_blocks=1),
        dict(block_size=1),
        dict(target_fa=0.0),
        dict(target_fa=1.0),
        dict(coherence_samples=0.0),
        dict(num_taps=0),
        dict(num_taps=49),
        dict(gmm_components=0),
        dict(rng_seed=-1),
        dict(prefilter="mystery-mode"),
        dict(prefilter=np.ones(48, dtype=np.complex128)),  # only the sentinel
        dict(snr_db=math.nan),
        dict(snr_db=-math.inf),
        dict(snr_db=-4000.0),
    ],
)
def test_invalid_configurations_rejected(overrides):
    with pytest.raises(ValueError):
        desk_config(**overrides)


@pytest.mark.parametrize(
    "field",
    ["m_subcarriers", "num_blocks", "block_size", "m_full", "num_taps", "gmm_components", "rng_seed"],
)
def test_count_fields_take_integers_only(field):
    value = getattr(desk_config(), field)
    assert getattr(desk_config(**{field: np.int64(value)}), field) == value
    # a float used to fail deep in numpy, with an IndexError or a TypeError
    for bad in (value + 0.5, float(value), True):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            desk_config(**{field: bad})


def test_an_m_full_no_array_of_both_links_can_hold_is_refused():
    # the stream draws both links into one (rows, 2, m_full) complex array;
    # the config is checked, never allocated, at the bound
    bound = np.iinfo(np.intp).max // 32
    assert desk_config(m_full=bound, num_taps=1).m_full == bound
    with pytest.raises(ValueError, match="^m_full must fit in an array of both links' gains, got 2882"):
        desk_config(m_full=bound + 1, num_taps=1)


def test_labelled_updates_without_updating_are_refused():
    # the pair used to run a frozen model, as if the labels were not asked for
    with pytest.raises(ValueError, match="oracle_update.*update_enabled"):
        desk_config(oracle_update=True, update_enabled=False)


def test_update_variants_reported_in_block_traces():
    enabled = ev.run_experiment(desk_config(coherence_samples=1e5))
    disabled = ev.run_experiment(
        desk_config(coherence_samples=1e5, update_enabled=False)
    )
    assert all(not b.model_updated for b in disabled.blocks)
    assert isinstance(enabled.blocks[0].model_updated, bool)
