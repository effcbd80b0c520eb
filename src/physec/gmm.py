"""One-class Gaussian mixture detector: EM training, likelihood thresholding,
and decision-directed block updates.

The mixture uses diagonal covariances.  A message is accepted as legitimate
when its log-likelihood under the trained model reaches the threshold, which
is calibrated as a lower-tail empirical quantile of legitimate scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GmmModel",
    "as_feature_matrix",
    "fit",
    "log_likelihoods",
    "lower_tail_threshold",
    "update_block",
]

_LOG_2PI = math.log(2.0 * math.pi)

# EM stops after this many iterations, or once the log-likelihood changes by
# at most EM_TOLERANCE relative to the previous iteration.
EM_ITERATIONS = 200
EM_TOLERANCE = 1e-6
# Every component variance is floored here, which keeps EM away from
# collapsing a component onto a single sample.
MIN_VARIANCE = 1e-8
# A block update refits only when at least max(num_components,
# ceil(UPDATE_GUARD_FRACTION * block length)) samples were accepted, so a
# block of rejected attacker traffic cannot drag the model off its
# legitimate cluster.
UPDATE_GUARD_FRACTION = 0.1


@dataclass
class GmmModel:
    """Diagonal-covariance Gaussian mixture with a decision threshold."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    threshold: float | None = None
    trained_on: int = 0
    em_log_likelihoods: list = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.means = np.asarray(self.means, dtype=np.float64)
        self.variances = np.asarray(self.variances, dtype=np.float64)
        k = self.weights.size
        if self.weights.ndim != 1 or k < 1:
            raise ValueError("weights must be a non-empty 1-D vector")
        if self.means.ndim != 2 or self.means.shape[0] != k:
            raise ValueError("means must have shape (num_components, dim)")
        if self.variances.shape != self.means.shape:
            raise ValueError("variances must have the same shape as means")
        # NaN passes every comparison below, so it is ruled out first
        for name in ("weights", "means", "variances"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if np.any(self.weights < 0):
            raise ValueError("weights must be non-negative")
        if abs(float(self.weights.sum()) - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")
        if np.any(self.variances < MIN_VARIANCE):
            raise ValueError("variances must not fall below the variance floor")
        # None means not calibrated yet and +-inf accepts or rejects everything,
        # but NaN would reject every sample without a word
        if self.threshold is not None and math.isnan(self.threshold):
            raise ValueError("threshold must not be NaN")

    @property
    def num_components(self) -> int:
        return self.weights.size

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def as_feature_matrix(features, dim: int | None = None) -> np.ndarray:
    """Features as a C-contiguous (N, dim) float64 matrix; a 1-D input is one row.

    EM's reductions and matrix products depend on the memory layout, so the
    same values in another layout would train a slightly different model.
    A NaN or infinite feature is an error: it would otherwise come out as a
    NaN model or a meaningless threshold.
    """
    x = np.ascontiguousarray(features, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2:
        raise ValueError("feature array must be 1-D or 2-D")
    if x.size == 0:
        raise ValueError("empty feature collection")
    if dim is not None and x.shape[1] != dim:
        raise ValueError(f"expected feature dimension {dim}, got {x.shape[1]}")
    if not np.all(np.isfinite(x)):
        raise ValueError("features must be finite")
    return x


def _squared_distances(x: np.ndarray, mean: np.ndarray, work: np.ndarray) -> np.ndarray:
    """(x - mean)**2 written into the (N, D) buffer `work`, which is returned."""
    np.subtract(x, mean, out=work)
    return np.multiply(work, work, out=work)


def _scaled_row_sums(squares: np.ndarray, variance: np.ndarray, out: np.ndarray) -> None:
    """Row sums of squares / variance into `out`; `squares` is overwritten."""
    np.divide(squares, variance, out=squares)
    np.add.reduce(squares, axis=1, out=out)


def _log_densities(quad: np.ndarray, weights: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """Weighted diagonal Gaussian log-densities log w_j + log N(x; mean_j,
    variance_j), shape (K, N), from the scaled squared distances `quad`."""
    log_norm = np.sum(np.log(variances), axis=1) + variances.shape[1] * _LOG_2PI
    with np.errstate(divide="ignore"):  # zero weights contribute -inf, which is correct
        log_w = np.log(weights)
    return -0.5 * (quad + log_norm[:, None]) + log_w[:, None]


def _weighted_log_densities(
    x: np.ndarray,
    weights: np.ndarray,
    means: np.ndarray,
    variances: np.ndarray,
    work: np.ndarray,
) -> np.ndarray:
    """Per-component, per-sample weighted log-densities, shape (K, N).

    `work` is an (N, D) scratch buffer that is overwritten.  Component by
    component it holds (x - mean)**2 / variance, the same operations in the
    same order as the (N, K, D) broadcast form, and each row sum runs over
    the same contiguous D values, so the result is bit for bit the same
    without allocating anything larger than (K, N).
    """
    quad = np.empty((means.shape[0], x.shape[0]))
    for j in range(means.shape[0]):
        _scaled_row_sums(_squared_distances(x, means[j], work), variances[j], quad[j])
    return _log_densities(quad, weights, variances)


# numpy's sum adds fewer than this many values one after another, left to
# right, and splits longer runs into partial sums; only below it does a
# running sum over the columns add a row's terms in the same order.
_SEQUENTIAL_SUM_LIMIT = 8


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """Per-sample log(sum(exp(a))) over the K rows of a (K, N) array.

    A sample's maximum is shifted out, and the m entries equal to it are
    taken out of the sum and added back as log(m).  The tests hold every
    result bit for bit to a reference log-sum-exp of the (N, K) transpose
    with this arithmetic, so reordering these operations would change every
    score.  Below _SEQUENTIAL_SUM_LIMIT components the sum adds whole rows,
    one after another, which is the order of a sum over each sample's K
    terms; from it on, the terms are summed pairwise over an (N, K) copy.
    """
    # a sample of -inf has no finite maximum to shift by: its sum is 0, its
    # log -inf; a sample holding NaN has no tied maximum (m = 0), stays NaN
    with np.errstate(divide="ignore", invalid="ignore"):
        a_max = np.maximum.reduce(a, axis=0)
        is_max = a == a_max
        m = np.add.reduce(is_max, axis=0, dtype=np.float64)
        terms = np.exp(np.where(is_max, -np.inf, a) - a_max)
        if a.shape[0] < _SEQUENTIAL_SUM_LIMIT:
            s = np.add.reduce(terms, axis=0)
        else:
            s = np.add.reduce(terms.T.copy(), axis=1)
        if np.all(m == 1):  # s / 1 and log(1) are exact no-ops
            out = np.log1p(s) + a_max
        else:
            out = np.log1p(np.where(s == 0, s, s / m)) + np.log(m) + a_max
    return np.where(a_max == -np.inf, -np.inf, out)


_OVERFLOW = "squared distances between features overflow"


def _mixture_scores(weighted_log_densities: np.ndarray) -> np.ndarray:
    """Each row's mixture log-likelihood; a non-finite one refuses the block."""
    scores = _logsumexp_rows(weighted_log_densities)
    if not np.all(np.isfinite(scores)):
        raise ValueError(_OVERFLOW)
    return scores


def log_likelihoods(model: GmmModel, features) -> np.ndarray:
    """Mixture log-likelihood of each feature, computed via log-sum-exp.

    A feature's score is -inf only when its scaled squared distance to every
    component overflows; such a block is refused, not scored.
    """
    x = as_feature_matrix(features, model.dim)
    with np.errstate(over="ignore"):  # checked once for the whole block, on the scores
        return _mixture_scores(
            _weighted_log_densities(
                x, model.weights, model.means, model.variances, np.empty_like(x)
            )
        )


def _seed_initial_parameters(x, k, rng):
    """k-means++-style seeding followed by a hard assignment.

    Returns initial (weights, means, variances) for EM.
    """
    n = x.shape[0]
    centers = [x[rng.integers(n)]]
    # each center's squared distances, computed once, serve the seeding and
    # the hard assignment; later totals only shrink, so one check suffices
    with np.errstate(over="ignore"):
        distances = [np.sum((x - centers[0]) ** 2, axis=1)]
        if not np.isfinite(distances[0].sum()):
            raise ValueError(_OVERFLOW)
        for _ in range(1, k):
            d2 = np.min(distances, axis=0)
            total = d2.sum()
            if total > 0:
                idx = rng.choice(n, p=d2 / total)
            else:
                idx = rng.integers(n)
            centers.append(x[idx])
            distances.append(np.sum((x - x[idx]) ** 2, axis=1))
    centers = np.array(centers)
    assign = np.argmin(distances, axis=0)
    counts = np.bincount(assign, minlength=k)
    global_var = np.maximum(x.var(axis=0), MIN_VARIANCE)
    means = centers.copy()
    variances = np.tile(global_var, (k, 1))
    for j in range(k):
        if counts[j] > 0:
            means[j] = x[assign == j].mean(axis=0)
        if counts[j] > 1:
            variances[j] = np.maximum(x[assign == j].var(axis=0), MIN_VARIANCE)
    counts_adj = np.maximum(counts, 1)
    weights = counts_adj / counts_adj.sum()
    return weights, means, variances


def _em(x, weights, means, variances):
    """Run EM to convergence from the given start.

    Returns the parameters, the log-likelihood history, and the weighted
    log-densities of `x` under the returned parameters, shape (K, N).

    One standalone E-step opens the loop.  After that each M-step also does
    the next iteration's E-step: component by component, one pass squares
    x - mean for the new mean, takes the variance from those squares,
    floors it, divides the squares by it and sums each row.  These are the
    operations, in the same order, of an M-step followed by a separate
    E-step, so the result is bit for bit that of the two-pass loop, and the
    log-densities left over when the loop ends are those of the model it
    returns.  A component that received no responsibility keeps its mean
    and its variance, floored like the others.

    The history is non-decreasing: flooring the variances is the constrained
    M-step maximizer, so the usual EM guarantee is preserved.  A sample whose
    scaled squared distance to every component overflows makes the total
    log-likelihood -inf, and the fit is refused.
    """
    n, k = x.shape[0], weights.size
    history = []
    ll_prev = None
    work = np.empty_like(x)  # the E- and M-steps' only (N, D) array
    quad = np.empty((k, n))
    with np.errstate(over="ignore"):  # checked once per iteration, on the total
        lw = _weighted_log_densities(x, weights, means, variances, work)
        for _ in range(EM_ITERATIONS):
            per_sample = _logsumexp_rows(lw)
            ll = float(per_sample.sum())
            if not math.isfinite(ll):
                raise ValueError(_OVERFLOW)
            history.append(ll)
            # (N, K) in C order: nk and the variances' matrix-vector
            # products read it, and their bits depend on its layout
            resp = np.exp(lw - per_sample).T.copy()
            nk = resp.sum(axis=0)
            weights = nk / n
            safe_nk = np.where(nk > 0, nk, 1.0)
            means = np.where(
                nk[:, None] > 0, (resp.T @ x) / safe_nk[:, None], means
            )
            new_var = np.empty_like(variances)
            for j in range(k):
                squares = _squared_distances(x, means[j], work)
                new_var[j] = resp[:, j] @ squares / nk[j] if nk[j] > 0 else variances[j]
                np.maximum(new_var[j], MIN_VARIANCE, out=new_var[j])
                _scaled_row_sums(squares, new_var[j], quad[j])
            variances = new_var
            lw = _log_densities(quad, weights, variances)
            if ll_prev is not None and abs(ll - ll_prev) <= EM_TOLERANCE * abs(ll_prev):
                break
            ll_prev = ll
    return weights, means, variances, history, lw


def fit(training, num_components: int, target_fa: float, rng_seed: int) -> GmmModel:
    """Train the mixture on legitimate features and calibrate its threshold.

    Initial parameters come from k-means++-style seeding driven by
    `rng_seed`.  The threshold is set on the training scores at `target_fa`.
    """
    x = as_feature_matrix(training)
    k = num_components
    if k < 1:
        raise ValueError("num_components must be >= 1")
    if k > x.shape[0]:
        raise ValueError(f"num_components={k} exceeds training size {x.shape[0]}")
    rng = np.random.default_rng(rng_seed)
    return _fit_from(x, *_seed_initial_parameters(x, k, rng), target_fa)


def _fit_from(x, weights, means, variances, target_fa: float) -> GmmModel:
    """EM from the given start on `x`, then the threshold at `target_fa`.

    The calibration scores are the log-sum-exp of the weighted log-densities
    EM leaves for the model it returns, bit for bit what `log_likelihoods`
    would give for `x`; as there, a non-finite score refuses the fit.
    """
    weights, means, variances, history, lw = _em(x, weights, means, variances)
    model = GmmModel(
        weights,
        means,
        variances,
        threshold=None,
        trained_on=x.shape[0],
        em_log_likelihoods=history,
    )
    model.threshold = lower_tail_threshold(_mixture_scores(lw), target_fa)
    return model


def lower_tail_threshold(scores, target_fa: float) -> float:
    """Largest t such that the fraction of scores strictly below t is <= target_fa."""
    s = np.sort(np.asarray(scores, dtype=np.float64))
    if s.size == 0:
        raise ValueError("cannot calibrate a threshold on an empty score list")
    if np.isnan(s[-1]):  # NaN sorts last
        raise ValueError("scores must not be NaN")
    if not 0.0 < target_fa < 1.0:
        raise ValueError("target_fa must lie in (0, 1)")
    j = min(int(math.floor(target_fa * s.size)), s.size - 1)
    return float(s[j])


def update_block(model: GmmModel, block, accepted: np.ndarray, target_fa: float) -> GmmModel:
    """Decision-directed refit on one block of streamed features.

    `accepted` marks the samples to refit on: the detector's own decisions
    (score at or above the threshold), or ground-truth labels for
    oracle-labeled comparison runs.  The refit is warm-started from the
    current model and recalibrates the threshold at `target_fa`.  The model
    is returned unchanged when too few samples were accepted (see
    UPDATE_GUARD_FRACTION).
    """
    x = as_feature_matrix(block, model.dim)
    accepted = np.asarray(accepted, dtype=bool)
    if accepted.shape != (x.shape[0],):
        raise ValueError("accepted must have one boolean per block sample")
    n_accepted = int(accepted.sum())
    k = model.num_components
    if n_accepted < max(k, math.ceil(UPDATE_GUARD_FRACTION * x.shape[0])):
        return model
    # a component may have starved in an earlier refit; give it a sliver of
    # weight so EM can revive it instead of freezing it at exactly zero
    weights = np.maximum(model.weights, 1e-12)
    weights = weights / weights.sum()
    variances = np.maximum(model.variances, MIN_VARIANCE)
    return _fit_from(x[accepted], weights, model.means, variances, target_fa)
