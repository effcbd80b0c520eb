"""Mean-squared-error baseline detector with reference tracking."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gmm import FeatureOverflowError, as_feature_matrix, lower_tail_threshold

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
        if not np.all(np.isfinite(self.reference)):
            raise ValueError("reference must be finite")
        # None means not calibrated yet and +-inf accepts or rejects everything,
        # but NaN would reject every feature without a word
        if self.threshold is not None and math.isnan(self.threshold):
            raise ValueError("threshold must not be NaN")


# Each row is scored ahead against this many rows before it; see score_block.
_LAGS = 4


def _check_finite(scores: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(scores)):
        raise FeatureOverflowError("squared differences between features overflow")
    return scores


def _mean_squares(d: np.ndarray) -> np.ndarray:
    """Row means of the squares of a C-contiguous (n, m) difference block.

    `d` is overwritten.  Each row sum adds the same m terms in the same order
    as a 1-D `np.add.reduce` of that row, so every mean has the bits of the
    row-by-row `np.add.reduce(d * d) / m`.
    """
    np.multiply(d, d, out=d)
    return np.add.reduce(d, axis=1) / d.shape[1]


def score_block(state: MseDetectorState, features) -> tuple[np.ndarray, np.ndarray]:
    """Score a block of features in order; returns (scores, accepted).

    Each score is the mean squared difference between a feature and the
    current reference.  A feature is accepted when its score stays at or
    below the threshold, and then becomes the reference for the next one.
    The incoming reference is stacked on top of the block as row 0 of
    `refs`, so every reference is a row of `refs`.  The rows are walked in
    order, but the walk looks each score up in whole-block tables computed
    ahead: every row against each of the _LAGS rows before it.  When the
    reference is further back, it holds until the next acceptance, so the
    following rows are scored against it in passes whose width doubles while
    the rejections go on.
    """
    if state.threshold is None:
        raise ValueError("detector has no calibrated threshold")
    refs = np.vstack([state.reference, as_feature_matrix(features, state.reference.size)])
    n = refs.shape[0]
    # the walk compares Python floats, which is faster than numpy scalars; a
    # memoryview hands out a table's entries as floats one at a time
    threshold = float(state.threshold)
    scores = []
    with np.errstate(over="ignore"):  # only the chosen scores are checked, below
        # lagged[k][j]: row j + k against row j
        lagged = [None] + [
            memoryview(_mean_squares(refs[k:] - refs[:-k])) for k in range(1, min(_LAGS, n - 1) + 1)
        ]
        last = 0  # the reference's row
        for i in range(1, n):
            if i - last <= _LAGS:
                score = lagged[i - last][last]
            else:
                # rows past the tables: ahead[k] is row last + _LAGS + 1 + k
                k = i - last - _LAGS - 1
                if k == 0:
                    ahead = []
                if k == len(ahead):
                    ahead += _mean_squares(refs[i : i + max(k, _LAGS)] - refs[last]).tolist()
                score = ahead[k]
            scores.append(score)
            if score <= threshold:
                last = i
    scores = _check_finite(np.array(scores))
    state.reference = refs[last].copy()
    return scores, scores <= threshold


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
        scores = _check_finite(_mean_squares(np.diff(x, axis=0)))
    threshold = -lower_tail_threshold(-scores, target_fa)
    return MseDetectorState(reference=x[-1].copy(), threshold=threshold)
