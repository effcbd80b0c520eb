"""Mean-squared-error baseline: scoring, reference tracking, calibration."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from physec import mse


def state(reference, threshold=None) -> mse.MseDetectorState:
    return mse.MseDetectorState(
        reference=np.asarray(reference, dtype=np.float64), threshold=threshold
    )


def score_one(s, feature) -> tuple[float, bool]:
    """Score and decision of a one-row block."""
    scores, accepted = mse.score_block(s, np.asarray(feature, dtype=np.float64)[None, :])
    assert scores.shape == accepted.shape == (1,)
    return float(scores[0]), bool(accepted[0])


def test_score_hand_example():
    # mean of [(0.3)^2, (0.3)^2] = 0.09
    assert score_one(state([0.0, 0.0], np.inf), [0.3, 0.3])[0] == pytest.approx(0.09, abs=1e-12)
    assert score_one(state([0.0, 0.0], np.inf), [0.0, 0.0])[0] == 0.0


def test_score_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        score_one(state([0.0, 0.0], np.inf), [1.0])


finite_vec = st.lists(
    st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=8
)


@given(a=finite_vec, data=st.data())
def test_score_is_symmetric(a, data):
    b = data.draw(
        st.lists(
            st.floats(min_value=-1e3, max_value=1e3),
            min_size=len(a),
            max_size=len(a),
        )
    )
    va, vb = np.array(a), np.array(b)
    assert score_one(state(va, np.inf), vb)[0] == score_one(state(vb, np.inf), va)[0]


def test_accept_updates_reference_only_when_tracking():
    # the reference tracks accepted features only
    tracking = state([0.0, 0.0], threshold=1.0)
    feat = np.array([0.5, 0.5])
    assert score_one(tracking, feat)[1]
    assert np.array_equal(tracking.reference, feat)
    feat[0] = 9.0  # the reference is a copy, not the caller's array
    assert np.array_equal(tracking.reference, np.array([0.5, 0.5]))
    assert not score_one(tracking, [5.0, 5.0])[1]
    assert np.array_equal(tracking.reference, np.array([0.5, 0.5]))


def test_reject_never_touches_the_reference():
    s = state([0.0, 0.0], threshold=0.01)
    assert not score_one(s, [5.0, 5.0])[1]
    assert np.array_equal(s.reference, np.array([0.0, 0.0]))


def test_boundary_score_accepts():
    s = state([0.0], threshold=0.25)
    score, accepted = score_one(s, [0.5])  # score exactly 0.25
    assert score == 0.25
    assert accepted
    assert np.array_equal(s.reference, np.array([0.5]))


def test_classify_requires_threshold():
    with pytest.raises(ValueError, match="threshold"):
        score_one(state([0.0]), [0.0])


def test_fit_tracking_uses_consecutive_differences():
    # x = 0,1,3,6 -> consecutive squared differences 1,4,9.
    # At target 0.4 the mirrored quantile rule admits scores above 4 as
    # alarms: 1/3 of the calibration scores, within target.
    x = np.array([[0.0], [1.0], [3.0], [6.0]])
    s = mse.fit_mse(x, target_fa=0.4)
    assert s.threshold == pytest.approx(4.0, abs=1e-12)
    assert np.array_equal(s.reference, np.array([6.0]))


def test_fit_needs_two_samples():
    with pytest.raises(ValueError, match="two"):
        mse.fit_mse(np.zeros((1, 3)), target_fa=0.1)


@given(
    n=st.integers(min_value=3, max_value=40),
    d=st.integers(min_value=1, max_value=3),
    target=st.floats(min_value=0.05, max_value=0.5),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_calibration_false_alarm_never_exceeds_target(n, d, target, seed):
    x = np.random.default_rng(seed).standard_normal((n, d))
    s = mse.fit_mse(x, target_fa=target)
    scores = np.mean(np.diff(x, axis=0) ** 2, axis=1)
    assert np.mean(scores > s.threshold) <= target + 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_features_are_rejected(bad):
    # a NaN used to drop out of the quantile and leave a finite threshold
    x = np.random.default_rng(3).standard_normal((200, 4))
    s = mse.fit_mse(x, 0.05)
    x[17, 2] = bad
    with pytest.raises(ValueError, match="features must be finite"):
        mse.fit_mse(x, 0.05)
    with pytest.raises(ValueError, match="features must be finite"):
        mse.score_block(s, x)


def test_scores_whose_squares_overflow_are_rejected():
    # finite features 1e200 apart: their squared difference is inf
    x = np.random.default_rng(3).standard_normal((200, 4))
    s = mse.fit_mse(x, 0.05)
    reference = s.reference.copy()
    x[17, 2] = 1e200
    with pytest.raises(ValueError, match="overflow"):
        mse.fit_mse(x, 0.05)
    with pytest.raises(ValueError, match="overflow"):
        mse.score_block(s, x)
    assert np.array_equal(s.reference, reference)  # a refused block moves nothing


def test_state_validation():
    with pytest.raises(ValueError):
        mse.MseDetectorState(reference=np.empty(0))
    with pytest.raises(ValueError):
        mse.MseDetectorState(reference=np.zeros((2, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_state_refuses_a_non_finite_reference(bad):
    # it used to be reported as squared differences that overflow
    with pytest.raises(ValueError, match="reference must be finite"):
        state([0.1, bad, 0.1], threshold=1.0)


def test_state_threshold_may_be_unset_or_infinite_but_not_nan():
    # a NaN threshold used to reject every feature without a word
    for threshold in (None, np.inf, -np.inf, 0.5):
        assert state([0.1] * 3, threshold).threshold == threshold
    with pytest.raises(ValueError, match="NaN"):
        state([0.1] * 3, threshold=np.nan)
