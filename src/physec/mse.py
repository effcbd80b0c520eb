"""Mean-squared-error baseline detector with reference tracking."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gmm import Decision, Hypothesis, as_feature_matrix, lower_tail_threshold

__all__ = ["MseDetectorState", "mse_score", "classify_mse", "fit_mse"]


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


def mse_score(state: MseDetectorState, feature) -> float:
    """Mean squared difference between the feature and the reference."""
    v = np.asarray(feature, dtype=np.float64)
    if v.shape != state.reference.shape:
        raise ValueError(
            f"feature dimension {v.size} does not match reference {state.reference.size}"
        )
    d = v - state.reference
    return float(np.mean(d * d))


def classify_mse(state: MseDetectorState, feature) -> Decision:
    """Accept when the score stays at or below the threshold.

    An accepted feature becomes the new reference.
    """
    if state.threshold is None:
        raise ValueError("detector has no calibrated threshold")
    score = mse_score(state, feature)
    if score <= state.threshold:
        state.reference = np.array(feature, dtype=np.float64)
        return Decision(hypothesis=Hypothesis.H0_BOB, score=score)
    return Decision(hypothesis=Hypothesis.H1_NOT_BOB, score=score)


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
    scores = np.mean(np.diff(x, axis=0) ** 2, axis=1)
    threshold = -lower_tail_threshold(-scores, target_fa)
    return MseDetectorState(reference=x[-1].copy(), threshold=threshold)
