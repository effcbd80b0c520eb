"""Experiment harness: metrics, ROC, determinism, trace replay, grids of runs."""

import csv
import dataclasses
import math

import numpy as np
import pytest

from physec import cli
from physec import evaluation as ev
from physec import trace_io
from physec.evaluation import DetectorKind

from conftest import desk_config


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


def sweep_rows(tmp_path, monkeypatch, *argv) -> list:
    """Result rows of a desk-scale `physec evaluate` with desk_config()'s seed."""
    monkeypatch.delenv("PHYSEC_SEED", raising=False)
    out = tmp_path / "grid.csv"
    assert cli.main(["evaluate", "--preset", "desk", "--seed", "0", *argv, "--out", str(out)]) == 0
    with open(out, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def test_sweep_repeats_are_bit_identical(tmp_path, monkeypatch):
    first, second = sweep_rows(tmp_path, monkeypatch, "--m", "8,8")
    assert first["M"] == second["M"] == "8"
    assert first == second  # rates are written repr-exact


def test_sweep_records_requested_subcarrier_counts(tmp_path, monkeypatch):
    rows = sweep_rows(tmp_path, monkeypatch, "--m", "4,8")
    assert [r["M"] for r in rows] == ["4", "8"]
    with pytest.raises(SystemExit) as exc:
        sweep_rows(tmp_path, monkeypatch, "--m", ",")
    assert exc.value.code == 2


def test_update_comparison_on_a_slow_channel_changes_nothing(tmp_path, monkeypatch):
    with_update, without_update = sweep_rows(
        tmp_path, monkeypatch, "--m", "8", "--coherence", "1e12", "--compare-update"
    )
    assert (with_update["detector"], without_update["detector"]) == ("gmm", "gmm-noupdate")
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


def test_oracle_labeled_updates_fire():
    r = ev.run_experiment(desk_config(oracle_update=True))
    assert any(b.model_updated for b in r.blocks)


def test_perfect_imitation_collapses_detection_to_chance_desk_scale():
    r = ev.run_experiment(desk_config(prefilter=ev.PERFECT_IMITATION))
    assert r.p_d is not None and r.p_fa is not None
    assert abs(r.p_d - r.p_fa) <= 0.10


# ---------------------------------------------------------------------------
# trace replay
# ---------------------------------------------------------------------------


def build_trace_for(cfg, eve_time_offset=0) -> trace_io.CsiTrace:
    """Both links of `cfg`'s simulation, interleaved as `physec simulate` writes them."""
    blocks = ev.simulated_estimate_blocks(cfg)
    rows = []
    for _ in range(cfg.num_blocks):
        bob_block, eve_block = next(blocks)
        assert bob_block.shape == eve_block.shape == (cfg.block_size, cfg.m_full)
        rows.append(np.stack([bob_block, eve_block], axis=1))
    total = cfg.num_blocks * cfg.block_size
    slots = np.arange(1, total + 1)
    return trace_io.CsiTrace(
        m_full=cfg.m_full,
        description="replay test",
        time_index=np.stack([slots, slots + eve_time_offset], axis=1).reshape(-1),
        link_labels=[ev.BOB_LINK, ev.EVE_LINK] * total,
        gains=np.concatenate(rows).reshape(2 * total, cfg.m_full),
    )


def test_replaying_a_recorded_trace_reproduces_the_simulation(tmp_path):
    cfg = desk_config()
    direct = ev.run_experiment(cfg)

    trace = build_trace_for(cfg)
    path = tmp_path / "trace.csv"
    trace_io.write_trace(trace, path)
    replayed = ev.run_experiment_from_trace(trace_io.read_trace(path), cfg)

    assert replayed.counts == direct.counts
    assert np.array_equal(replayed.bob_scores, direct.bob_scores)
    assert np.array_equal(replayed.eve_scores, direct.eve_scores)


def test_replay_rejects_short_traces_and_prefilters():
    cfg = desk_config()
    trace = build_trace_for(dataclasses.replace(cfg, num_blocks=2))
    with pytest.raises(ValueError, match="need"):
        ev.run_experiment_from_trace(trace, cfg)
    with pytest.raises(ValueError, match="prefilter"):
        ev.run_experiment_from_trace(
            trace, dataclasses.replace(cfg, prefilter=ev.PERFECT_IMITATION)
        )


def test_replay_rejects_a_config_of_another_width():
    trace = build_trace_for(desk_config())
    narrow = desk_config(m_full=16, num_taps=4)
    with pytest.raises(ValueError, match="m_full=16"):
        ev.run_experiment_from_trace(trace, narrow)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_replay_rejects_non_finite_gains(tmp_path, bad):
    cfg = desk_config()
    trace = build_trace_for(cfg)
    trace.gains[2 * cfg.block_size + 1, 5] = complex(bad, 0.0)
    path = tmp_path / "trace.csv"
    trace_io.write_trace(trace, path)
    with pytest.raises(ValueError, match="finite"):
        ev.run_experiment_from_trace(trace_io.read_trace(path), cfg)


def test_replay_rejects_all_zero_selected_estimates():
    cfg = desk_config()
    trace = build_trace_for(cfg)
    # both links of the first test message
    trace.gains[2 * cfg.block_size : 2 * cfg.block_size + 2] = 0.0
    with pytest.raises(ValueError, match="all-zero"):
        ev.run_experiment_from_trace(trace, cfg)


def test_replay_rejects_records_of_the_wrong_width():
    cfg = desk_config()
    trace = build_trace_for(cfg)
    # the trace itself refuses rows narrower than its m_full, so none reach replay
    with pytest.raises(ValueError, match="m_full"):
        dataclasses.replace(trace, gains=trace.gains[:, :-1])


def test_replayed_delta_features_need_forward_time_indices():
    from physec.features import FeatureKind

    cfg = desk_config(feature_kind=FeatureKind.DELTA)
    # the attacker link's clock runs far ahead: going back to the legitimate
    # link after an attacker message steps back in time
    skewed = build_trace_for(cfg, eve_time_offset=10**6)
    with pytest.raises(ValueError, match="later"):
        ev.run_experiment_from_trace(skewed, cfg)
    # magnitude features do not look at time indices
    ev.run_experiment_from_trace(skewed, desk_config())
    # strictly increasing indices that jump across almost the whole int64
    # range: their difference overflows, yet they move forward in time
    trace = build_trace_for(cfg)
    slots = np.arange(cfg.num_blocks * cfg.block_size, dtype=np.int64)
    half = slots.size // 2
    jumping = np.where(slots < half, -(2**63) + slots, 2**63 - 1 - slots.size + slots)
    assert np.all(jumping[1:] > jumping[:-1])
    trace.time_index = np.repeat(jumping, 2)
    replayed = ev.run_experiment_from_trace(trace, cfg)
    assert replayed.counts == ev.run_experiment(cfg).counts


def test_short_estimate_streams_are_reported():
    cfg = desk_config()
    with pytest.raises(ValueError, match="exhausted"):
        ev._run_on_blocks(cfg, iter([]))
    blocks = ev.simulated_estimate_blocks(dataclasses.replace(cfg, block_size=cfg.block_size - 1))
    with pytest.raises(ValueError, match="exhausted"):
        ev._run_on_blocks(cfg, blocks)


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


def test_update_variants_reported_in_block_traces():
    enabled = ev.run_experiment(desk_config(coherence_samples=1e5))
    disabled = ev.run_experiment(
        desk_config(coherence_samples=1e5, update_enabled=False)
    )
    assert all(not b.model_updated for b in disabled.blocks)
    assert isinstance(enabled.blocks[0].model_updated, bool)
