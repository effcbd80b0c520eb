"""End-to-end spoofing-detection experiments.

Protocol: block 0 carries legitimate traffic only and trains the detector;
every later block mixes legitimate and attacker messages, where each message
comes from the attacker independently with probability `attack_intensity`.
Both links evolve one step per message.  With updating enabled, the mixture
detector refits itself on its own accepted samples at every block boundary.
"""

from __future__ import annotations

import math
import numbers
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
    "run_grid",
    "run_experiment",
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
        for name in ("m_subcarriers", "num_blocks", "block_size", "m_full", "num_taps",
                     "gmm_components", "rng_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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

    A grid shares one stream among configs that agree on _STREAM_FIELDS:
    a config field read here must be listed there.
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


class _Trial:
    """One config's feature stage and detector pass, stepped a block at a time.

    The first block fits the detector; every later one is scored, tallied in
    one BlockTrace and, with updating, refits the mixture model.  Counts and
    rates are sums over the BlockTraces.
    """

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.detector = None
        self.previous = None  # delta features' carry-over
        self.records = []
        # one array per run, not one per block: a grid holds every trial's
        # scores at once, and thousands of small arrays held that long
        # fragment the heap
        tests = (config.num_blocks - 1) * config.block_size
        self.scores = np.empty(tests)
        self.from_eve = np.empty(tests, dtype=bool)

    def _features(self, rows: np.ndarray) -> np.ndarray:
        """Delta features carry the last selected row into the next block."""
        selected = ft.select_block(rows, self.config.m_subcarriers)
        if self.config.feature_kind is not ft.FeatureKind.DELTA:
            return ft.normalize_magnitude_block(selected)
        # the first training message has no predecessor and gives no feature
        features = ft.delta_feature_block(selected, self.previous)
        self.previous = selected[-1].copy()
        return features

    def step(self, rows: np.ndarray, from_eve: np.ndarray) -> None:
        config = self.config
        features = self._features(rows)
        use_gmm = config.detector is DetectorKind.GMM
        if self.detector is None:
            if use_gmm:
                seed = _derived_seeds(config.rng_seed)[5]
                self.detector = gmm.fit(features, config.gmm_components, config.target_fa, seed)
            else:
                self.detector = mse.fit_mse(features, config.target_fa)
            return
        if use_gmm:
            # the model only changes at block boundaries: score the block at once
            scores = gmm.log_likelihoods(self.detector, features)
            is_bob = scores >= self.detector.threshold
        else:
            distances, is_bob = mse.score_block(self.detector, features)
            scores = -distances
        k = len(self.records) * from_eve.size
        self.scores[k : k + from_eve.size] = scores
        self.from_eve[k : k + from_eve.size] = from_eve
        from_bob = ~from_eve
        updated = False
        if use_gmm and config.update_enabled:
            accepted = from_bob if config.oracle_update else is_bob
            model = gmm.update_block(self.detector, features, accepted, config.target_fa)
            updated = model is not self.detector
            self.detector = model
        rejected = ~is_bob
        alarms, detects = int(np.sum(from_bob & rejected)), int(np.sum(from_eve & rejected))
        self.records.append(
            BlockTrace(
                len(self.records) + 1, int(from_bob.sum()), int(from_eve.sum()),
                alarms, detects, updated,
            )
        )

    def result(self) -> TrialResult:
        records = self.records
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
            bob_scores=self.scores[~self.from_eve],
            eve_scores=self.scores[self.from_eve],
        )


# What run_grid's block loop and simulated_estimate_blocks read: the configs
# of a grid must agree on these to share one stream.
_STREAM_FIELDS = (
    "rng_seed", "attack_intensity", "num_blocks", "block_size",
    "m_full", "snr_db", "coherence_samples", "num_taps", "prefilter",
)


def run_grid(configs: list, trace=None) -> list:
    """The TrialResult of each config, all run over one message stream.

    The stream is simulated, or replayed from `trace`, an open
    trace_io.TraceReader whose links are labelled BOB_LINK and EVE_LINK
    and are `m_full` wide.  Each block is drawn once and handed to every
    config's feature stage and detector before the next is drawn, so one
    block is alive at a time.  Block 0 is legitimate only.  The configs
    must agree on what the stream reads (_STREAM_FIELDS).  Prefilters are
    a transmit-side construct and cannot be applied to recordings.  A
    replay reads the whole file, and a fault anywhere in the trace is
    reported before one in the run.  When a config uses delta features, the
    replayed messages' time indices must increase strictly, block to block.
    """
    if not configs:
        raise ValueError("a grid needs at least one config")
    first = configs[0]
    mixed = [f for f in _STREAM_FIELDS if any(getattr(c, f) != getattr(first, f) for c in configs)]
    if mixed:
        raise ValueError(f"the configs of a grid must share one message stream; {mixed} differ")
    if trace is None:
        blocks = simulated_estimate_blocks(first)
    else:
        if first.prefilter is not None:
            raise ValueError("prefilters require the simulator; traces are already recorded")
        if first.m_full != trace.header.m_full:
            raise ValueError(
                f"config m_full={first.m_full} differs from the trace's {trace.header.m_full}"
            )
        blocks = trace.blocks((BOB_LINK, EVE_LINK), first.block_size, first.num_blocks)
    # only delta features read the order of the messages
    timed = trace is not None and any(c.feature_kind is ft.FeatureKind.DELTA for c in configs)
    last_time = np.empty(0, dtype=np.int64)  # the last replayed message's, once there is one
    trials = [_Trial(config) for config in configs]
    attack_rng = np.random.default_rng(_derived_seeds(first.rng_seed)[4])
    n = first.block_size
    fault = None
    try:
        for b in range(first.num_blocks):
            from_eve = attack_rng.random(n) < first.attack_intensity if b else np.zeros(n, bool)
            links, times = (next(blocks), None) if trace is None else next(blocks)
            if timed:
                times = np.concatenate([last_time, np.where(from_eve, times[1], times[0])])
                # neighbours are compared, not subtracted: a difference can overflow
                if np.any(times[1:] <= times[:-1]):
                    raise ValueError("current estimate must be strictly later than previous")
                last_time = times[-1:]
            rows = np.where(from_eve[:, None], links[1], links[0])
            del links  # hold no block while the trials step
            for trial in trials:
                trial.step(rows, from_eve)
            del rows  # nor while the next one is drawn
    except ValueError as exc:
        if trace is None:
            raise
        fault = exc
    if trace is not None:
        # the rows after the last block are checked too, and a fault anywhere
        # in the trace is reported before one in the run
        for _ in blocks:
            pass
    if fault is not None:
        raise fault
    results = []
    while trials:  # let each trial's scores go once its result holds them
        results.append(trials.pop(0).result())
    return results


def run_experiment(config: ExperimentConfig) -> TrialResult:
    """Simulate both links and run the configured detector over the stream."""
    (result,) = run_grid([config])
    return result


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
    if np.isnan(bob[-1]) or np.isnan(eve[-1]):  # NaN sorts last
        raise ValueError("scores must not be NaN")
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
    if np.isnan(result.eve_scores).any():
        raise ValueError("scores must not be NaN")
    thr = gmm.lower_tail_threshold(result.bob_scores, fa)
    return float(np.mean(result.eve_scores < thr))

