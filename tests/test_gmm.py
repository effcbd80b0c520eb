"""Mixture detector: EM training, scoring, calibration, updates.

Reference values come from independent oracles defined at the top of the
file (closed-form single-Gaussian fit, naive density summation via
scipy.stats) rather than from the code under test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp
from scipy.stats import norm

from physec import gmm
from physec.gmm import GmmModel


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def closed_form_single_gaussian(x, floor):
    """Maximum-likelihood diagonal Gaussian and its total log-likelihood."""
    mean = x.mean(axis=0)
    var = np.maximum(x.var(axis=0), floor)
    n, d = x.shape
    quad = np.sum((x - mean) ** 2 / var)
    ll = -0.5 * (quad + n * np.sum(np.log(var)) + n * d * math.log(2 * math.pi))
    return mean, var, float(ll)


def naive_mixture_log_density(row, weights, means, variances):
    """Direct sum over components of weighted diagonal-Gaussian densities."""
    density = 0.0
    for w, mu, var in zip(weights, means, variances):
        density += w * float(np.prod(norm.pdf(row, loc=mu, scale=np.sqrt(var))))
    return math.log(density)


TARGET_FA = 0.01


def fit(x, num_components=3, target_fa=TARGET_FA) -> GmmModel:
    """`gmm.fit` seeded with 0."""
    return gmm.fit(x, num_components, target_fa, 0)


def refit_all(model, block, target_fa=TARGET_FA) -> GmmModel:
    """`gmm.update_block` warm-started from `model`, accepting every sample."""
    return gmm.update_block(model, block, np.ones(len(block), dtype=bool), target_fa)


def single_gaussian_model(mean=0.0, var=1.0, threshold=None) -> GmmModel:
    return GmmModel(
        weights=np.array([1.0]),
        means=np.array([[mean]]),
        variances=np.array([[var]]),
        threshold=threshold,
    )


def log_likelihood(model, value) -> float:
    """Score of a single one-dimensional feature."""
    return float(gmm.log_likelihoods(model, np.array([value]))[0])


def accepted_by(model, block) -> np.ndarray:
    """The detector's own decisions on a block: score at or above threshold."""
    return gmm.log_likelihoods(model, block) >= model.threshold


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


def test_single_component_fit_matches_closed_form(rng):
    x = rng.standard_normal((200, 3)) * np.array([1.0, 2.0, 0.5]) + np.array(
        [0.0, -4.0, 7.0]
    )
    model = fit(x, num_components=1)
    mean, var, ll = closed_form_single_gaussian(x, gmm.MIN_VARIANCE)
    assert np.allclose(model.means[0], mean, atol=1e-9)
    assert np.allclose(model.variances[0], var, atol=1e-9)
    assert model.weights[0] == pytest.approx(1.0, abs=1e-12)
    assert float(gmm.log_likelihoods(model, x).sum()) == pytest.approx(ll, abs=1e-9)
    assert model.trained_on == 200


def test_two_separated_clusters_recovered(rng):
    a = rng.standard_normal((500, 2))
    b = rng.standard_normal((500, 2)) + np.array([10.0, 0.0])
    x = np.vstack([a, b])
    model = fit(x, num_components=2)
    order = np.argsort(model.means[:, 0])
    assert np.allclose(model.means[order][0], [0.0, 0.0], atol=0.1)
    assert np.allclose(model.means[order][1], [10.0, 0.0], atol=0.1)
    assert np.all(model.weights > 0.45) and np.all(model.weights < 0.55)


def test_duplicating_samples_changes_nothing_given_same_start(rng):
    x = rng.standard_normal((200, 2))
    start = GmmModel(
        np.array([0.5, 0.5]),
        np.array([[0.5, 0.0], [-0.5, 0.0]]),
        np.ones((2, 2)),
    )
    m1 = refit_all(start, x, 0.05)
    m2 = refit_all(start, np.vstack([x, x]), 0.05)
    assert (m1.trained_on, m2.trained_on) == (200, 400)
    assert np.allclose(m1.weights, m2.weights, atol=1e-9)
    assert np.allclose(m1.means, m2.means, atol=1e-9)
    assert np.allclose(m1.variances, m2.variances, atol=1e-9)
    assert m1.threshold == pytest.approx(m2.threshold, abs=1e-9)


def test_fit_does_not_depend_on_memory_layout(rng):
    # a Fortran-ordered copy or a strided view of the same values trains
    # the same model, bit for bit
    x = rng.standard_normal((199, 8)) * rng.uniform(0.5, 2.0, 8)
    c_order = fit(x)
    for layout in (np.asfortranarray(x), np.repeat(x, 2, axis=1)[:, ::2]):
        assert np.array_equal(layout, x)
        other = fit(layout)
        assert np.array_equal(other.means, c_order.means)
        assert np.array_equal(other.variances, c_order.variances)
        assert other.threshold == c_order.threshold


def test_fit_accepts_feature_vectors(rng):
    # a list of per-message feature vectors trains the same model as the
    # stacked (N, dim) block
    feats = [rng.random(4) for _ in range(50)]
    model = fit(feats, num_components=2)
    assert model.dim == 4
    assert model.threshold is not None
    stacked = fit(np.stack(feats), num_components=2)
    assert np.array_equal(model.means, stacked.means)
    assert model.threshold == stacked.threshold


def test_fit_input_validation(rng):
    with pytest.raises(ValueError):
        fit([])
    with pytest.raises(ValueError, match="exceeds training size"):
        fit(rng.random((2, 3)), num_components=3)


def test_warm_start_with_dead_component_survives(rng):
    # a component whose weight starved to exactly zero must not poison
    # subsequent refits, and must win back the cluster it sits on: without
    # its sliver of weight its responsibilities stay exactly zero
    x = np.vstack([rng.standard_normal((100, 2)), 20.0 + 0.1 * rng.standard_normal((50, 2))])
    start = GmmModel(
        np.array([0.7, 0.3, 0.0]),
        np.array([[0.0, 0.0], [1.0, 1.0], [20.0, 20.0]]),
        np.array([np.ones(2), np.ones(2), np.full(2, 0.01)]),
    )
    model = refit_all(start, x)
    assert model.trained_on == 150
    assert abs(model.weights.sum() - 1.0) < 1e-9
    assert np.all(np.isfinite(model.means))
    assert np.all(model.variances >= 1e-8)
    assert model.weights[2] > 0.2


# ---------------------------------------------------------------------------
# EM internals
# ---------------------------------------------------------------------------


def test_em_log_likelihood_never_decreases(rng):
    x = np.vstack(
        [
            rng.standard_normal((300, 2)),
            rng.standard_normal((300, 2)) + 4.0,
            rng.standard_normal((300, 2)) - 4.0,
        ]
    )
    model = fit(x)
    history = model.em_log_likelihoods
    assert len(history) >= 2
    slack = 1e-10 * max(1.0, abs(history[0]))
    diffs = np.diff(history)
    assert np.all(diffs >= -slack), f"worst EM step: {diffs.min()}"


def test_responsibilities_are_a_distribution(rng, monkeypatch):
    # the E-step's responsibilities: each sample's weighted component
    # densities normalized over components.  One EM iteration sets the
    # weights to their column means.
    x = rng.standard_normal((64, 3))
    weights = np.array([0.2, 0.5, 0.3])
    means = rng.standard_normal((3, 3))
    variances = rng.uniform(0.5, 2.0, (3, 3))
    lw = gmm._weighted_log_densities(x, weights, means, variances, np.empty_like(x))
    resp = np.exp(lw - logsumexp(lw, axis=1)[:, None])
    assert resp.shape == (64, 3)
    assert np.all(resp >= 0)
    assert np.allclose(resp.sum(axis=1), 1.0, atol=1e-12)
    monkeypatch.setattr(gmm, "EM_ITERATIONS", 1)
    new_weights, _, _, history, _ = gmm._em(x, weights, means, variances)
    assert len(history) == 1
    assert np.allclose(new_weights, resp.mean(axis=0), atol=1e-15)


def test_fitted_weights_form_a_distribution(rng):
    model = fit(rng.standard_normal((120, 2)))
    assert np.all(model.weights >= 0)
    assert abs(model.weights.sum() - 1.0) < 1e-9
    assert np.all(model.variances >= gmm.MIN_VARIANCE)


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------


def test_standard_normal_mode_log_density():
    # -0.5 * ln(2*pi), written out
    model = single_gaussian_model()
    assert log_likelihood(model, 0.0) == pytest.approx(
        -0.9189385332046727, abs=1e-12
    )


def test_identical_components_collapse_to_one():
    one = single_gaussian_model(mean=0.3, var=1.7)
    two = GmmModel(
        weights=np.array([0.5, 0.5]),
        means=np.array([[0.3], [0.3]]),
        variances=np.array([[1.7], [1.7]]),
    )
    for v in (-2.0, 0.0, 0.3, 5.0):
        assert log_likelihood(two, v) == pytest.approx(log_likelihood(one, v), abs=1e-12)


def test_five_component_density_matches_naive_sum(rng):
    k, d = 5, 4
    weights = rng.random(k)
    weights /= weights.sum()
    means = rng.uniform(-3, 3, (k, d))
    variances = rng.uniform(0.5, 2.0, (k, d))
    model = GmmModel(weights, means, variances)
    x = rng.uniform(-4, 4, (100, d))
    got = gmm.log_likelihoods(model, x)
    expected = [naive_mixture_log_density(row, weights, means, variances) for row in x]
    assert np.allclose(got, expected, atol=1e-9)


def test_one_dimensional_density_integrates_to_one():
    model = GmmModel(
        weights=np.array([0.2, 0.5, 0.3]),
        means=np.array([[-3.0], [0.0], [4.0]]),
        variances=np.array([[0.5], [1.0], [2.0]]),
    )
    grid = np.linspace(-50.0, 50.0, 400001)
    density = np.exp(gmm.log_likelihoods(model, grid[:, None]))
    assert np.trapezoid(density, grid) == pytest.approx(1.0, abs=1e-6)


def test_score_is_finite_for_extreme_inputs():
    model = single_gaussian_model(var=1e-8)
    assert math.isfinite(log_likelihood(model, 1e100))
    # at 1e200 the squared distance overflows and every component's
    # log-density would be -inf: the feature is refused, not scored
    with pytest.raises(ValueError, match="overflow"):
        log_likelihood(model, 1e200)


def test_dimension_mismatch_rejected():
    model = single_gaussian_model()
    with pytest.raises(ValueError, match="dimension"):
        gmm.log_likelihoods(model, np.array([0.0, 1.0]))


# ---------------------------------------------------------------------------
# threshold calibration
# ---------------------------------------------------------------------------


def test_threshold_is_the_lower_tail_order_statistic():
    scores = np.arange(1.0, 101.0)  # 1..100
    np.random.default_rng(0).shuffle(scores)
    thr = gmm.lower_tail_threshold(scores, 0.10)
    assert thr == 11.0
    assert np.mean(scores < thr) == pytest.approx(0.10, abs=1e-15)


def test_threshold_tiny_target_clamps_to_minimum():
    scores = np.linspace(5.0, 6.0, 1000)
    thr = gmm.lower_tail_threshold(scores, 1e-6)
    assert thr == 5.0
    assert np.mean(scores < thr) == 0.0


def test_threshold_on_identical_scores():
    thr = gmm.lower_tail_threshold(np.full(40, 2.5), 0.2)
    assert thr == 2.5
    assert np.mean(np.full(40, 2.5) < thr) == 0.0


def test_threshold_validation():
    with pytest.raises(ValueError):
        gmm.lower_tail_threshold(np.empty(0), 0.1)
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            gmm.lower_tail_threshold(np.arange(5.0), bad)


@pytest.mark.parametrize(
    "scores", [[1.0, math.nan], [math.nan], [math.nan, -math.inf, 2.0]],
    ids=["after", "alone", "before"],
)
def test_threshold_refuses_a_nan_score(scores):
    with pytest.raises(ValueError, match="NaN"):
        gmm.lower_tail_threshold(scores, 0.5)


def test_threshold_takes_infinite_scores():
    assert gmm.lower_tail_threshold([math.inf, 1.0, -math.inf], 0.5) == 1.0
    assert gmm.lower_tail_threshold([math.inf, -math.inf], 0.01) == -math.inf


@given(
    scores=st.lists(
        st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200
    ),
    target=st.floats(min_value=1e-4, max_value=0.9999),
)
def test_calibrated_false_alarm_never_exceeds_target(scores, target):
    s = np.array(scores)
    thr = gmm.lower_tail_threshold(s, target)
    assert np.mean(s < thr) <= target + 1e-12


# ---------------------------------------------------------------------------
# block updates
# ---------------------------------------------------------------------------


def test_classify_is_deterministic(rng):
    # the run loop accepts a message when its score reaches the threshold;
    # scoring keeps no state, so the same feature always gets the same
    # score and decision, alone or inside a block
    model = fit(rng.standard_normal((100, 2)))
    block = rng.standard_normal((8, 2))
    first = gmm.log_likelihoods(model, block[3])[0]
    for _ in range(5):
        again = gmm.log_likelihoods(model, block[3])[0]
        assert again == first
        assert (again >= model.threshold) == (first >= model.threshold)
    assert gmm.log_likelihoods(model, block)[3] == first


def test_update_fully_rejected_block_unchanged():
    model = single_gaussian_model(threshold=-2.0)
    block = np.full((20, 1), 1000.0)  # all far below threshold
    assert not accepted_by(model, block).any()
    assert gmm.update_block(model, block, accepted_by(model, block), TARGET_FA) is model


def test_update_guard_needs_a_minimum_accepted_fraction():
    # guard = max(K, ceil(0.1 * block)); with K=3 and N=40 that is 4
    weights = np.full(3, 1.0 / 3.0)
    means = np.zeros((3, 1))
    variances = np.ones((3, 1))
    model = GmmModel(weights, means, variances, threshold=-2.0)

    three_accepted = np.concatenate([np.zeros(3), np.full(37, 100.0)])[:, None]
    assert accepted_by(model, three_accepted).sum() == 3
    assert gmm.update_block(
        model, three_accepted, accepted_by(model, three_accepted), TARGET_FA
    ) is model

    four_accepted = np.concatenate([np.zeros(4), np.full(36, 100.0)])[:, None]
    updated = gmm.update_block(model, four_accepted, accepted_by(model, four_accepted), TARGET_FA)
    assert updated is not model
    assert updated.trained_on == 4
    assert updated.threshold is not None


def test_update_refits_on_accepted_subset(rng):
    x = rng.standard_normal((400, 2))
    model = fit(x)
    block = rng.standard_normal((400, 2))
    accepted = accepted_by(model, block)
    updated = gmm.update_block(model, block, accepted, TARGET_FA)
    assert updated is not model
    assert updated.trained_on == int(accepted.sum())
    refit = refit_all(model, block[accepted])
    assert np.array_equal(updated.means, refit.means)
    assert updated.threshold == refit.threshold


def test_update_on_stationary_data_keeps_the_model_close(rng):
    x = rng.standard_normal((1000, 2))
    model = fit(x)
    block = rng.standard_normal((1000, 2))
    updated = gmm.update_block(model, block, accepted_by(model, block), TARGET_FA)
    fresh = rng.standard_normal((1000, 2))
    before = float(np.mean(gmm.log_likelihoods(model, fresh)))
    after = float(np.mean(gmm.log_likelihoods(updated, fresh)))
    assert abs(after - before) <= 0.05 * abs(before)


def test_update_with_oracle_labels(rng):
    x = rng.standard_normal((300, 2))
    model = fit(x)
    block = rng.standard_normal((300, 2))
    mask = np.zeros(300, dtype=bool)
    mask[:120] = True
    updated = gmm.update_block(model, block, mask, TARGET_FA)
    assert updated.trained_on == 120
    all_false = gmm.update_block(model, block, np.zeros(300, dtype=bool), TARGET_FA)
    assert all_false is model


def test_update_input_validation(rng):
    x = rng.standard_normal((50, 1))
    model = fit(x, num_components=1)
    everything = np.ones(50, dtype=bool)
    with pytest.raises(ValueError, match="accepted"):
        gmm.update_block(model, x, everything[:10], TARGET_FA)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=10, max_value=60),
    d=st.integers(min_value=1, max_value=3),
    target=st.floats(min_value=0.02, max_value=0.3),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_fit_calibration_respects_target_on_training_data(n, d, target, seed):
    x = np.random.default_rng(seed).standard_normal((n, d))
    model = fit(x, num_components=1, target_fa=target)
    scores = gmm.log_likelihoods(model, x)
    assert np.mean(scores < model.threshold) <= target + 1e-12


# ---------------------------------------------------------------------------
# feature matrix plumbing
# ---------------------------------------------------------------------------


def test_as_feature_matrix_shapes(rng):
    one = gmm.as_feature_matrix(np.zeros(3))
    assert one.shape == (1, 3)
    stacked = gmm.as_feature_matrix([np.zeros(3), np.ones(3)])
    assert stacked.shape == (2, 3)
    column_slice = gmm.as_feature_matrix(np.zeros((4, 6))[:, ::2])
    assert column_slice.shape == (4, 3) and column_slice.flags.c_contiguous
    with pytest.raises(ValueError):
        gmm.as_feature_matrix([])
    with pytest.raises(ValueError):
        gmm.as_feature_matrix(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match="expected feature dimension"):
        gmm.as_feature_matrix(np.zeros((4, 3)), dim=2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_features_are_rejected(rng, bad):
    # one NaN used to train a model of NaN weights with a NaN threshold, and
    # an inf failed inside the seeding with a message about probabilities
    x = rng.standard_normal((200, 4))
    model = fit(x)
    x[17, 2] = bad
    with pytest.raises(ValueError, match="features must be finite"):
        gmm.as_feature_matrix(x)
    with pytest.raises(ValueError, match="features must be finite"):
        fit(x)
    with pytest.raises(ValueError, match="features must be finite"):
        refit_all(model, x)
    with pytest.raises(ValueError, match="features must be finite"):
        gmm.log_likelihoods(model, x)


@pytest.mark.parametrize("k", [1, 3])
def test_features_whose_squared_distances_overflow_are_rejected(rng, k):
    # finite features 1e200 apart used to seed with NaN probabilities
    x = rng.standard_normal((200, 4))
    x[17, 2] = 1e200
    with pytest.raises(ValueError, match="overflow"):
        fit(x, num_components=k)


def test_scores_whose_squared_distances_overflow_are_rejected():
    # a finite feature 1e200 from every mean used to score -inf, a rejection,
    # and to fail a refit with "weights must be finite"
    x = np.random.default_rng(0).standard_normal((200, 4))
    model = fit(x, num_components=3, target_fa=0.05)
    block = x.copy()
    block[5, 1] = 1e200
    with pytest.raises(ValueError, match="overflow"):
        gmm.log_likelihoods(model, block)
    with pytest.raises(ValueError, match="overflow"):
        refit_all(model, block, target_fa=0.05)
    # these two score finitely, but the refit's variance of their component
    # overflows, and the next E-step refuses the block
    block = x.copy()
    block[5, 1], block[6, 1] = 1e154, -1e154
    assert np.all(np.isfinite(gmm.log_likelihoods(model, block)))
    with pytest.raises(ValueError, match="overflow"):
        refit_all(model, block, target_fa=0.05)


def test_detector_config_validation(rng):
    x = rng.standard_normal((20, 2))
    with pytest.raises(ValueError, match="num_components"):
        fit(x, num_components=0)
    with pytest.raises(ValueError, match="target_fa"):
        fit(x, target_fa=0.0)


def test_model_invariant_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        GmmModel(np.array([0.5, 0.6]), np.zeros((2, 1)), np.ones((2, 1)))
    with pytest.raises(ValueError, match="non-negative"):
        GmmModel(np.array([1.5, -0.5]), np.zeros((2, 1)), np.ones((2, 1)))
    with pytest.raises(ValueError, match="variance floor"):
        GmmModel(np.array([1.0]), np.zeros((1, 1)), np.full((1, 1), 1e-12))
    with pytest.raises(ValueError, match="shape"):
        GmmModel(np.array([1.0]), np.zeros((2, 1)), np.ones((2, 1)))


def test_model_threshold_may_be_unset_or_infinite_but_not_nan():
    for threshold in (None, np.inf, -np.inf, -3.0):
        assert single_gaussian_model(threshold=threshold).threshold == threshold
    with pytest.raises(ValueError, match="NaN"):
        single_gaussian_model(threshold=np.nan)


@pytest.mark.parametrize("name", ["weights", "means", "variances"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_model_rejects_non_finite_parameters(name, bad):
    # NaN slips past the sign, sum and floor checks, since every comparison
    # with it is False
    params = dict(weights=np.array([0.5, 0.5]), means=np.zeros((2, 3)), variances=np.ones((2, 3)))
    params[name][-1] = bad
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        GmmModel(**params)
