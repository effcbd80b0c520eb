"""End-to-end spoofing-detection experiments.

Protocol: block 0 carries legitimate traffic only and trains the detector;
every later block mixes legitimate and attacker messages, where each message
comes from the attacker independently with probability `attack_intensity`.
Both links evolve one step per message.  With updating enabled, the mixture
detector refits itself after each test block that another block follows, on
the samples it accepted, or with `oracle_update` on the legitimate ones; it
keeps its model when too few were accepted.  No refit follows the last block.
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
    "simulated_estimate_chunks",
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
        # block 0 trains the detector; its first message has no predecessor
        # and so gives no delta feature
        training = self.block_size - (self.feature_kind is ft.FeatureKind.DELTA)
        detector, needed = ("gmm", self.gmm_components) if self.detector is DetectorKind.GMM else ("mse", 2)
        if training < needed:
            raise ValueError(
                f"block 0 gives {training} training features; the {detector} detector needs {needed}"
            )
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")
        if self.oracle_update and not self.update_enabled:
            raise ValueError("oracle_update=True picks what an update refits on; update_enabled=False makes none")
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


# The simulated stream and run_grid work a chunk of a block's rows at a time,
# CHUNK_BYTES of each link.  glibc serves a request of 128 KiB or more (its
# default mmap threshold) with a fresh mapping, faulted in and zeroed on
# every call; chunk-sized arrays stay under it and reuse the same heap
# block call after call.
CHUNK_BYTES = 64 * 1024


def _chunks(block_size: int, m_full: int) -> list:
    """The row slices of a block, CHUNK_BYTES of each link a slice; the last
    is shorter, so no chunk straddles two blocks."""
    rows = max(1, CHUNK_BYTES // (16 * m_full))
    return [slice(start, min(start + rows, block_size)) for start in range(0, block_size, rows)]


def simulated_estimate_chunks(config: ExperimentConfig, blocks: int):
    """Both links' estimates of `blocks` blocks, one message per row, a chunk of rows at a time.

    Each block of `block_size` rows comes as the chunks `_chunks` cuts it
    into, and the stream stops after the last chunk of the last block.  A
    chunk is one (rows, 2, m_full) complex array: chunk[:, 0] is Bob's link
    and chunk[:, 1] Eve's, and each row holds both links' estimates of one
    time slot, in the order `physec simulate` writes them.  Both links
    evolve every message so their time bases stay aligned; with
    PERFECT_IMITATION the attacker's channel passes through the imitation
    prefilter before estimation.

    The stream owns one array of a full chunk and yields it, or its
    leading rows for a block's shorter last chunk, for every chunk: both
    links' innovations are transformed straight into it, and the noise is
    added in place.  A chunk is valid until the next draw, so a caller
    that keeps one copies it.

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
    parts = _chunks(config.block_size, config.m_full)
    chunk = np.empty((parts[0].stop, 2, config.m_full), dtype=np.complex128)
    for _ in range(blocks):
        for part in parts:
            rows = chunk[: part.stop - part.start]
            truth = ch.evolve_block(state, channel_rngs, pdp, rho, len(rows), out=rows)
            state[...] = truth[-1]  # the next draw overwrites the chunk
            if coefficients is not None:
                truth[:, 1] *= coefficients
            est = ch.estimate_block(truth, noise_rngs, noise_var)
            if not np.all(np.isfinite(est)):
                raise ValueError("gains must be finite")
            yield est


class _Trial:
    """One config's feature stage and detector pass.

    The feature stage takes a block's rows a chunk at a time, into the
    trial's one (block_size, M) feature array; the detector pass steps
    once the block is complete.  The first block fits the detector; every
    later one is scored, tallied in one BlockTrace and, with updating,
    refits the mixture model when another block follows.  Counts and rates
    are sums over the BlockTraces.
    """

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.detector = None
        self.previous = None  # delta features' carry-over
        self.records = []
        self.features = np.empty((config.block_size, config.m_subcarriers))
        self.filled = 0  # rows of `features` the block has filled so far
        # one array per run, not one per block: a grid holds every trial's
        # scores at once, and thousands of small arrays held that long
        # fragment the heap
        tests = (config.num_blocks - 1) * config.block_size
        self.scores = np.empty(tests)
        self.from_eve = np.empty(tests, dtype=bool)

    def add_rows(self, rows: np.ndarray) -> None:
        """The features of the block's next chunk of rows; delta features
        carry the last selected row into the next chunk."""
        selected = ft.select_block(rows, self.config.m_subcarriers)
        if self.config.feature_kind is not ft.FeatureKind.DELTA:
            features = ft.normalize_magnitude_block(selected)
        else:
            # the first training message has no predecessor and gives no feature
            features = ft.delta_feature_block(selected, self.previous)
            self.previous = selected[-1].copy()
        self.features[self.filled : self.filled + len(features)] = features
        self.filled += len(features)

    def step(self, from_eve: np.ndarray) -> None:
        """The detector pass over the block whose rows `add_rows` took."""
        config = self.config
        features = self.features[: self.filled]
        self.filled = 0
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
        # a refit after the last block would give a model nothing scores
        if use_gmm and config.update_enabled and len(self.records) + 2 < config.num_blocks:
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


# What run_grid's block loop and simulated_estimate_chunks read: the configs
# of a grid must agree on these to share one stream.
_STREAM_FIELDS = (
    "rng_seed", "attack_intensity", "num_blocks", "block_size",
    "m_full", "snr_db", "coherence_samples", "num_taps", "prefilter",
)


def run_grid(configs: list, trace=None) -> list:
    """The TrialResult of each config, all run over one message stream.

    The stream is simulated, or replayed from `trace`, an open
    trace_io.TraceReader whose links are labelled BOB_LINK and EVE_LINK
    and are `m_full` wide.  Either way a block comes a chunk of rows at a
    time (`_chunks`), as one (rows, m_full) array of each link: views of
    the simulated chunk, or the arrays the reader fills.  The rows are
    picked in place: where a message is the attacker's, Eve's row is
    copied over Bob's.  Each chunk is drawn once and handed to every
    config's feature stage before the next is drawn; once a block's
    chunks are done, every config's detector steps on the block's
    features.  Block 0 is legitimate only.  The configs must agree on
    what the stream reads (_STREAM_FIELDS).  A replay is refused before
    any row is read when a config has a prefilter, a transmit-side
    construct that cannot be applied to recordings, or uses delta
    features, which would difference two links' recordings.  A replay
    stops at the first fault it meets, in file order, as a simulated run
    does; else it reads the file to its end, so the rows after the last
    block are checked too.
    """
    if not configs:
        raise ValueError("a grid needs at least one config")
    first = configs[0]
    mixed = [f for f in _STREAM_FIELDS if any(getattr(c, f) != getattr(first, f) for c in configs)]
    if mixed:
        raise ValueError(f"the configs of a grid must share one message stream; {mixed} differ")
    n = first.block_size
    parts = _chunks(n, first.m_full)
    if trace is None:
        stream = (chunk.swapaxes(0, 1) for chunk in simulated_estimate_chunks(first, first.num_blocks))
    else:
        if first.prefilter is not None:
            raise ValueError("prefilters require the simulator; traces are already recorded")
        if any(c.feature_kind is ft.FeatureKind.DELTA for c in configs):
            raise ValueError(
                "delta features require the simulator; a replay takes magnitude features only"
            )
        if first.m_full != trace.header.m_full:
            raise ValueError(
                f"config m_full={first.m_full} differs from the trace's {trace.header.m_full}"
            )
        sizes = [part.stop - part.start for part in parts]
        stream = trace.chunks((BOB_LINK, EVE_LINK), sizes, first.num_blocks)
    trials = [_Trial(config) for config in configs]
    attack_rng = np.random.default_rng(_derived_seeds(first.rng_seed)[4])
    for b in range(first.num_blocks):
        from_eve = attack_rng.random(n) < first.attack_intensity if b else np.zeros(n, bool)
        for part in parts:
            rows, eve = next(stream)
            np.copyto(rows, eve, where=from_eve[part, None])
            for trial in trials:
                trial.add_rows(rows)
            # the features hold what the detectors read: no replayed chunk
            # stays alive while the next one is read, nor while the
            # detectors step
            rows = eve = None
        for trial in trials:
            trial.step(from_eve)
    if trace is not None:
        for _ in stream:  # the rows after the last block are checked too
            pass
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

