"""Feature extraction: subcarrier selection, normalization, delta features."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from physec import features as ft


def normalize(gains) -> np.ndarray:
    """Normalized-magnitude feature of one estimate, as a one-row block."""
    return ft.normalize_magnitude_block(np.asarray(gains, dtype=np.complex128)[None, :])[0]


def delta(current, previous) -> np.ndarray:
    """Delta feature of one estimate after another, as a one-row block."""
    return ft.delta_feature_block(
        np.asarray(current, dtype=np.complex128)[None, :],
        np.asarray(previous, dtype=np.complex128),
    )[0]


# ---------------------------------------------------------------------------
# subcarrier selection
# ---------------------------------------------------------------------------


def test_equally_spaced_indices_hand_values():
    # floor(i * m_full / m) for i = 0..m-1, written out by hand
    assert ft.subcarrier_indices(48, 4).tolist() == [0, 12, 24, 36]
    assert ft.subcarrier_indices(48, 16).tolist() == list(range(0, 48, 3))
    assert ft.subcarrier_indices(48, 48).tolist() == list(range(48))
    assert ft.subcarrier_indices(48, 5).tolist() == [0, 9, 19, 28, 38]
    assert ft.subcarrier_indices(48, 1).tolist() == [0]


@given(
    m_full=st.integers(min_value=1, max_value=256),
    data=st.data(),
)
def test_indices_strictly_increasing_and_in_range(m_full, data):
    m = data.draw(st.integers(min_value=1, max_value=m_full))
    idx = ft.subcarrier_indices(m_full, m)
    assert idx.shape == (m,)
    assert idx[0] == 0
    assert np.all(np.diff(idx) >= 1)
    assert idx[-1] < m_full


def test_indices_validation():
    with pytest.raises(ValueError):
        ft.subcarrier_indices(48, 0)
    with pytest.raises(ValueError):
        ft.subcarrier_indices(48, 49)


def test_select_subcarriers_picks_expected_gains():
    block = np.arange(96, dtype=np.complex128).reshape(2, 48)
    sel = ft.select_block(block, 4)
    assert np.array_equal(
        sel, np.array([[0, 12, 24, 36], [48, 60, 72, 84]], dtype=np.complex128)
    )


# ---------------------------------------------------------------------------
# normalized magnitude
# ---------------------------------------------------------------------------


def test_normalized_magnitude_hand_example():
    # |[1, 2i, -2, 0]| = [1, 2, 2, 0], sum 5 -> [0.2, 0.4, 0.4, 0.0]
    f = normalize([1 + 0j, 2j, -2 + 0j, 0 + 0j])
    assert np.allclose(f, [0.2, 0.4, 0.4, 0.0], atol=1e-15)
    assert f.shape == (4,)


def test_all_zero_estimate_rejected():
    with pytest.raises(ValueError, match="all-zero"):
        normalize([0j, 0j])


def test_estimate_whose_magnitudes_do_not_sum_to_a_finite_value_rejected():
    # every gain is finite, but 48 magnitudes of 1.4e308 sum to inf, and
    # divided by it the row used to come out as all zeros
    with pytest.raises(ValueError, match="do not sum to a finite value"):
        normalize([1e308 + 1e308j] * 48)
    with pytest.raises(ValueError, match="do not sum to a finite value"):
        normalize([1.0 + 0j, complex(math.nan, 0.0)])


def complex_gains(**float_options):
    part = st.floats(min_value=-100.0, max_value=100.0, **float_options)
    return st.lists(st.tuples(part, part), min_size=1, max_size=32).filter(
        lambda pairs: any(re != 0.0 or im != 0.0 for re, im in pairs)
    )


@given(pairs=complex_gains())
def test_normalized_magnitude_sums_to_one(pairs):
    gains = np.array([complex(re, im) for re, im in pairs])
    f = normalize(gains)
    assert np.all(f >= 0.0)
    assert abs(f.sum() - 1.0) < 1e-9


@settings(max_examples=50)
@given(
    # scaling a subnormal gain rounds it to a few bits (or to zero), which
    # changes the magnitude ratios the feature is made of
    pairs=complex_gains(allow_subnormal=False),
    magnitude=st.floats(min_value=1e-3, max_value=1e3),
    phase=st.floats(min_value=0.0, max_value=2 * math.pi),
)
def test_normalized_magnitude_scale_invariant(pairs, magnitude, phase):
    gains = np.array([complex(re, im) for re, im in pairs])
    scale = magnitude * complex(math.cos(phase), math.sin(phase))
    base = normalize(gains)
    scaled = normalize(gains * scale)
    assert np.allclose(base, scaled, atol=1e-9)


def test_normalized_magnitude_permutation_equivariant(rng):
    gains = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    perm = rng.permutation(12)
    base = normalize(gains)
    permuted = normalize(gains[perm])
    assert np.allclose(permuted, base[perm], atol=1e-15)


# ---------------------------------------------------------------------------
# delta feature
# ---------------------------------------------------------------------------


def test_delta_feature_hand_example():
    f = delta([1 + 1j, 0 + 0j], [0 + 0j, 1 + 0j])
    assert np.allclose(f, [math.sqrt(2.0), 1.0], atol=1e-15)
    # without a previous estimate the block's own rows are differenced
    block = np.array([[0 + 0j, 1 + 0j], [1 + 1j, 0 + 0j]])
    assert np.array_equal(ft.delta_feature_block(block), f[None, :])


def test_delta_of_identical_estimates_is_zero():
    assert np.array_equal(delta([1 + 2j, -3 + 0j], [1 + 2j, -3 + 0j]), np.zeros(2))


def test_delta_requires_consistent_inputs():
    # the time order of replayed estimates is checked by the experiment
    # harness (tests/test_evaluation.py); the kernel checks widths
    with pytest.raises(ValueError, match="subcarriers"):
        delta([1 + 0j], [1 + 0j, 2 + 0j])
    with pytest.raises(ValueError, match="subcarriers"):
        delta([1 + 0j, 2 + 0j], [1 + 0j])
