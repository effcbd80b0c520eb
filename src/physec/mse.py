"""Mean-squared-error baseline detector with reference tracking."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gmm import as_feature_matrix, lower_tail_threshold

__all__ = ["MseDetectorState", "score_block", "fit_mse"]


@dataclass
class MseDetectorState:
    """Reference feature plus an upper-tail score threshold.

    The reference is replaced by every accepted feature, so the detector
    follows a slowly varying link.
    """

    reference: np.ndarray
    threshold: float | None = None

    def __post_init__(self):
        self.reference = np.asarray(self.reference, dtype=np.float64)
        if self.reference.ndim != 1 or self.reference.size < 1:
            raise ValueError("reference must be a non-empty 1-D vector")


def _check_finite(scores: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(scores)):
        raise ValueError("squared differences between features overflow")
    return scores


def score_block(state: MseDetectorState, features) -> tuple[np.ndarray, np.ndarray]:
    """Score a block of features in order; returns (scores, accepted).

    Each score is the mean squared difference between a feature and the
    current reference.  A feature is accepted when its score stays at or
    below the threshold, and then becomes the reference for the next one,
    so the rows are walked one by one.
    """
    if state.threshold is None:
        raise ValueError("detector has no calibrated threshold")
    x = as_feature_matrix(features, state.reference.size)
    scores = np.empty(x.shape[0])
    accepted = np.empty(x.shape[0], dtype=bool)
    threshold = state.threshold
    reference = state.reference
    m = x.shape[1]
    with np.errstate(over="ignore"):  # checked once for the whole block below
        for i, row in enumerate(x):
            d = row - reference
            # np.mean's own arithmetic, without its per-call overhead
            scores[i] = score = float(np.add.reduce(d * d)) / m
            accepted[i] = ok = score <= threshold
            if ok:
                reference = row
    _check_finite(scores)
    state.reference = reference.copy()
    return scores, accepted


def fit_mse(training, target_fa: float) -> MseDetectorState:
    """Build the reference and calibrate the threshold on legitimate features.

    The training block is scored sequentially, each feature against its
    predecessor, mirroring live operation; the last feature becomes the
    reference.  The threshold mirrors the mixture detector's quantile rule on
    the opposite tail: scores here grow with suspicion, so the rule is
    applied to negated scores.
    """
    x = as_feature_matrix(training)
    if x.shape[0] < 2:
        raise ValueError("need at least two training features")
    with np.errstate(over="ignore"):
        scores = _check_finite(np.mean(np.diff(x, axis=0) ** 2, axis=1))
    threshold = -lower_tail_threshold(-scores, target_fa)
    return MseDetectorState(reference=x[-1].copy(), threshold=threshold)
