"""End-to-end spoofing-detection experiments.

Protocol: block 0 carries legitimate traffic only and trains the detector;
every later block mixes legitimate and attacker messages, where each message
comes from the attacker independently with probability `attack_intensity`.
Both links evolve one step per message.  With updating enabled, the mixture
detector refits itself on its own accepted samples at every block boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import channel as ch
from . import features as ft
from . import gmm
from . import mse

__all__ = [
    "DetectorKind",
    "PERFECT_IMITATION",
    "BOB_LINK",
    "EVE_LINK",
    "ExperimentConfig",
    "Counts",
    "BlockTrace",
    "TrialResult",
    "RocCurve",
    "run_experiment",
    "run_experiment_from_trace",
    "simulated_estimate_blocks",
    "compute_roc",
    "detection_at_fa",
]

BOB_LINK = "AB"
EVE_LINK = "AE"

# Sentinel for ExperimentConfig.prefilter: give the attacker coefficients that
# reproduce the legitimate link's initial realization exactly.  Meaningful
# with quasi-static channels (large coherence_samples).
PERFECT_IMITATION = "imitate-bob"


class DetectorKind(Enum):
    GMM = "gmm"
    MSE = "mse"


@dataclass
class ExperimentConfig:
    """Everything one trial depends on; a given config is fully reproducible.

    This is the one place an experiment parameter has its name, default and
    validation rule; the CLI passes only the values its options set.
    """

    m_subcarriers: int = 16
    snr_db: float = 20.0
    attack_intensity: float = 0.5
    num_blocks: int = 100
    block_size: int = 1000
    coherence_samples: float = math.inf
    detector: DetectorKind = DetectorKind.GMM
    update_enabled: bool = True
    feature_kind: ft.FeatureKind = ft.FeatureKind.NORMALIZED_MAGNITUDE
    prefilter: str | None = None
    rng_seed: int = 0
    target_fa: float = 0.01
    m_full: int = 48
    num_taps: int = 8
    gmm_components: int = 3
    oracle_update: bool = False

    def __post_init__(self):
        if not 1 <= self.m_subcarriers <= self.m_full:
            raise ValueError(
                f"need 1 <= m_subcarriers <= m_full, got {self.m_subcarriers} / {self.m_full}"
            )
        try:
            noise_var = ch.snr_db_to_noise_variance(self.snr_db)
        except OverflowError:
            noise_var = math.inf
        if not math.isfinite(noise_var):
            raise ValueError(f"snr_db={self.snr_db}: noise variance not finite (inf is noiseless)")
        if not 0.0 <= self.attack_intensity <= 1.0:
            raise ValueError("attack_intensity must lie in [0, 1]")
        if self.num_blocks < 2:
            raise ValueError("need at least one training and one test block")
        if self.block_size < 2:
            raise ValueError("block_size must be >= 2")
        if not 0.0 < self.target_fa < 1.0:
            raise ValueError("target_fa must lie in (0, 1)")
        if not self.coherence_samples > 0:
            raise ValueError("coherence_samples must be positive")
        if self.num_taps < 1 or self.num_taps > self.m_full:
            raise ValueError("need 1 <= num_taps <= m_full")
        if self.gmm_components < 1:
            raise ValueError("gmm_components must be >= 1")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")
        if self.prefilter is not None and not (
            isinstance(self.prefilter, str) and self.prefilter == PERFECT_IMITATION
        ):
            raise ValueError(f"unknown prefilter {self.prefilter!r}, use {PERFECT_IMITATION!r}")


class Counts(NamedTuple):
    true_detects: int
    false_alarms: int
    misses: int
    correct_accepts: int


@dataclass
class BlockTrace:
    """Per-block bookkeeping of one trial."""

    block_index: int
    bob_messages: int
    eve_messages: int
    false_alarms: int
    detections: int
    model_updated: bool


@dataclass
class TrialResult:
    """Outcome of one experiment.

    Scores are stored in acceptance direction (larger = more consistent with
    the legitimate link), so ROC sweeps treat both detectors uniformly; for
    the MSE detector that is the negated score.  `p_d`/`p_md` are None when
    the trial contained no attacker messages, `p_fa` when it contained no
    legitimate ones.
    """

    counts: Counts
    p_d: float | None
    p_fa: float | None
    p_md: float | None
    blocks: list = field(default_factory=list)
    bob_scores: np.ndarray = field(default_factory=lambda: np.empty(0))
    eve_scores: np.ndarray = field(default_factory=lambda: np.empty(0))


@dataclass
class RocCurve:
    """Operating points swept over all observed scores; p_fa strictly increasing."""

    p_fa: np.ndarray
    p_d: np.ndarray


def _derived_seeds(seed: int) -> list[int]:
    """Independent per-stream seeds from one experiment seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(6, dtype=np.uint64)]


def simulated_estimate_blocks(config: ExperimentConfig):
    """Infinite stream of (bob, eve) estimate blocks, one message per row.

    Each block is a pair of (block_size, m_full) complex views of one
    (block_size, 2, m_full) array, link 0 Bob's and link 1 Eve's.  Both
    links evolve every message so their time bases stay aligned; with
    PERFECT_IMITATION the attacker's channel passes through the imitation
    prefilter before estimation.
    """
    seeds = _derived_seeds(config.rng_seed)
    rngs = [np.random.default_rng(seed) for seed in seeds[:4]]
    channel_rngs, noise_rngs = rngs[:2], rngs[2:]
    pdp = ch.exponential_tap_powers(config.num_taps)
    rho = ch.step_correlation(config.coherence_samples)
    noise_var = ch.snr_db_to_noise_variance(config.snr_db)
    state = ch.sample_initial_channels(channel_rngs, pdp, config.m_full)
    coefficients = None
    if config.prefilter is not None:
        coefficients = ch.perfect_imitation_prefilter(state[0], state[1])

    def next_block():
        nonlocal state
        truth = ch.evolve_block(state, channel_rngs, pdp, rho, config.block_size)
        state = truth[-1].copy()
        if coefficients is not None:
            truth[:, 1] *= coefficients
        est = _finite(ch.estimate_block(truth, noise_rngs, noise_var))
        return est[:, 0], est[:, 1]

    # unlike a suspended generator, a returned call holds no block while the
    # caller works on it, which keeps peak memory near one block
    return iter(next_block, None)


def _finite(gains: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(gains)):
        raise ValueError("gains must be finite")
    return gains


def _choose_rows(blocks, from_eve: np.ndarray) -> np.ndarray:
    """The next block's estimates, each message's row from the link `from_eve` picks."""
    bob, eve = next(blocks, ((), ()))
    if len(bob) < from_eve.size or len(eve) < from_eve.size:
        raise ValueError("estimate stream exhausted before the experiment finished")
    return np.where(from_eve[:, None], eve, bob)


def _messages(config: ExperimentConfig, blocks, times=None):
    """Per-seed message stream: (rows, from_eve, chosen_times) of every block.

    Block 0 is legitimate only; `chosen_times` holds each message's time
    index when replaying `times`, else None.  Only the seed, the attack
    intensity and the block shape are read: every config of a seed shares it.
    """
    attack_rng = np.random.default_rng(_derived_seeds(config.rng_seed)[4])
    n = config.block_size
    for b in range(config.num_blocks):
        from_eve = attack_rng.random(n) < config.attack_intensity if b else np.zeros(n, bool)
        chosen_times = None
        if times is not None:
            bob_t, eve_t = (t[b * n : (b + 1) * n] for t in times)
            chosen_times = np.where(from_eve, eve_t, bob_t)
        # not bound to a name: a suspended generator keeps its locals alive
        yield _choose_rows(blocks, from_eve), from_eve, chosen_times


def _features(config: ExperimentConfig, messages):
    """Per-config feature stage: (features, from_eve) of every message block.

    Delta features carry the last selected row into the next block and need
    strictly increasing time indices on a recording; magnitudes read no time.
    """
    previous = previous_time = None
    for rows, from_eve, times in messages:
        selected = ft.select_block(rows, config.m_subcarriers)
        del rows  # hold no full-width block while suspended
        if config.feature_kind is ft.FeatureKind.DELTA:
            if times is not None:
                if previous_time is not None:
                    times = np.concatenate([[previous_time], times])
                # neighbours are compared, not subtracted: a difference can overflow
                if np.any(times[1:] <= times[:-1]):
                    raise ValueError("current estimate must be strictly later than previous")
                previous_time = times[-1]
            # the first training message has no predecessor and gives no feature
            features = ft.delta_feature_block(selected, previous)
            previous = selected[-1].copy()
        else:
            features = ft.normalize_magnitude_block(selected)
        del selected
        yield features, from_eve


def _run_on_blocks(config: ExperimentConfig, blocks, times=None) -> TrialResult:
    """Run the configured detector over (bob, eve) estimate blocks.

    `times`, when given, is the (bob, eve) pair of per-message time-index
    arrays of a recording.  Counts and rates are sums over the BlockTraces.
    """
    stream = _features(config, _messages(config, blocks, times))
    training, _ = next(stream)
    use_gmm = config.detector is DetectorKind.GMM
    if use_gmm:
        seed = _derived_seeds(config.rng_seed)[5]
        model = gmm.fit(training, config.gmm_components, config.target_fa, seed)
    else:
        state = mse.fit_mse(training, config.target_fa)

    records, bob_scores, eve_scores = [], [], []
    for b, (features, from_eve) in enumerate(stream, start=1):
        if use_gmm:
            # the model only changes at block boundaries: score the block at once
            scores = gmm.log_likelihoods(model, features)
            is_bob = scores >= model.threshold
        else:
            distances, is_bob = mse.score_block(state, features)
            scores = -distances
        from_bob = ~from_eve
        bob_scores.append(scores[from_bob])
        eve_scores.append(scores[from_eve])
        updated = False
        if use_gmm and config.update_enabled:
            accepted = from_bob if config.oracle_update else is_bob
            new_model = gmm.update_block(model, features, accepted, config.target_fa)
            updated = new_model is not model
            model = new_model
        rejected = ~is_bob
        alarms, detects = int(np.sum(from_bob & rejected)), int(np.sum(from_eve & rejected))
        records.append(
            BlockTrace(b, int(from_bob.sum()), int(from_eve.sum()), alarms, detects, updated)
        )

    bob_total, eve_total, alarms, detects = (
        sum(getattr(record, name) for record in records)
        for name in ("bob_messages", "eve_messages", "false_alarms", "detections")
    )
    p_d = detects / eve_total if eve_total else None
    return TrialResult(
        counts=Counts(detects, alarms, eve_total - detects, bob_total - alarms),
        p_d=p_d,
        p_fa=alarms / bob_total if bob_total else None,
        p_md=None if p_d is None else 1.0 - p_d,
        blocks=records,
        bob_scores=np.concatenate(bob_scores),
        eve_scores=np.concatenate(eve_scores),
    )


def run_experiment(config: ExperimentConfig) -> TrialResult:
    """Simulate both links and run the configured detector over the stream."""
    return _run_on_blocks(config, simulated_estimate_blocks(config))


def run_experiment_from_trace(trace, config: ExperimentConfig) -> TrialResult:
    """Replay a recorded trace instead of simulating.

    The trace must be `config.m_full` wide and carry both links, labelled
    BOB_LINK and EVE_LINK, at every message slot.  Prefilters are a
    transmit-side construct and cannot be applied to recordings.
    """
    if config.prefilter is not None:
        raise ValueError("prefilters require the simulator; traces are already recorded")
    if config.m_full != trace.m_full:
        raise ValueError(f"config m_full={config.m_full} differs from the trace's {trace.m_full}")
    links = {}
    for label in (BOB_LINK, EVE_LINK):
        index = [row for row, link in enumerate(trace.link_labels) if link == label]
        links[label] = _finite(trace.gains[index]), trace.time_index[index]
    total = config.num_blocks * config.block_size
    for label, (gains, _) in links.items():
        if len(gains) < total:
            raise ValueError(f"trace has {len(gains)} records for link {label!r}, need {total}")
    (bob, bob_t), (eve, eve_t) = links.values()
    n = config.block_size
    blocks = ((bob[k : k + n], eve[k : k + n]) for k in range(0, total, n))
    return _run_on_blocks(config, blocks, times=(bob_t, eve_t))


def compute_roc(bob_scores, eve_scores) -> RocCurve:
    """Threshold sweep over all observed scores.

    Scores must be in acceptance direction (reject strictly below the
    threshold).  Each swept threshold contributes the point
    (fraction of legitimate scores below, fraction of attacker scores below);
    the curve is deduplicated to strictly increasing p_fa, keeping the best
    p_d per p_fa, and always ends at (1, 1).
    """
    bob = np.sort(np.asarray(bob_scores, dtype=np.float64))
    eve = np.sort(np.asarray(eve_scores, dtype=np.float64))
    if bob.size == 0 or eve.size == 0:
        raise ValueError("both score collections must be non-empty")
    thresholds = np.unique(np.concatenate([bob, eve]))
    fa = np.searchsorted(bob, thresholds, side="left") / bob.size
    pd = np.searchsorted(eve, thresholds, side="left") / eve.size
    fa = np.append(fa, 1.0)  # threshold above every score
    pd = np.append(pd, 1.0)
    # keep the last (= best pd) entry of each run of equal fa
    keep = np.append(fa[1:] != fa[:-1], True)
    return RocCurve(p_fa=fa[keep], p_d=pd[keep])


def detection_at_fa(result: TrialResult, fa: float) -> float:
    """Detection probability at a matched false-alarm rate.

    Thresholds the trial's pooled scores so that the given fraction of
    legitimate messages would be rejected, then reports the fraction of
    attacker messages rejected at that same threshold.
    """
    if result.bob_scores.size == 0 or result.eve_scores.size == 0:
        raise ValueError("trial must contain scores from both sources")
    thr = gmm.lower_tail_threshold(result.bob_scores, fa)
    return float(np.mean(result.eve_scores < thr))

