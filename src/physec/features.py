"""Detector input features derived from channel estimates."""

from __future__ import annotations

from enum import Enum

import numpy as np

__all__ = [
    "FeatureKind",
    "subcarrier_indices",
    "select_block",
    "normalize_magnitude_block",
    "delta_feature_block",
]


class FeatureKind(Enum):
    NORMALIZED_MAGNITUDE = "magnitude"
    DELTA = "delta"


def subcarrier_indices(m_full: int, m: int) -> np.ndarray:
    """Indices of `m` equally spaced subcarriers out of `m_full`."""
    if not 1 <= m <= m_full:
        raise ValueError(f"need 1 <= m <= m_full, got m={m}, m_full={m_full}")
    return (np.arange(m) * m_full) // m


def select_block(estimates: np.ndarray, m: int) -> np.ndarray:
    """Keep `m` equally spaced subcarriers of each row of a (count, m_full) block."""
    return estimates[:, subcarrier_indices(estimates.shape[1], m)]


def normalize_magnitude_block(selected: np.ndarray) -> np.ndarray:
    """Per-row magnitudes of a (count, m) block divided by their row sum.

    Each row sums to 1 and is invariant to any common complex scaling of
    that row, which removes transmit-power and phase offsets.
    """
    # a column selection is not C-contiguous, and row sums over it can differ
    # in the last bits from the sum over each row on its own
    mags = np.abs(np.ascontiguousarray(selected))
    with np.errstate(over="ignore"):  # an overflowed sum is rejected below
        totals = mags.sum(axis=1)
    if np.any(totals == 0):
        raise ValueError("all-zero estimate: magnitude normalization is undefined")
    # dividing by an infinite sum would turn the row into zeros
    if not np.all(np.isfinite(totals)):
        raise ValueError("estimate magnitudes do not sum to a finite value")
    return mags / totals[:, None]


def delta_feature_block(selected: np.ndarray, previous: np.ndarray | None = None) -> np.ndarray:
    """|difference| between consecutive rows of a (count, m) block.

    Row k is |selected[k] - selected[k - 1]|, where `previous` stands in for
    the row before the first; without it the first row has no predecessor
    and the result has count - 1 rows.
    """
    # a C-contiguous result, as a stack of per-row features would be: EM
    # results depend on the memory layout of the training matrix
    selected = np.ascontiguousarray(selected)
    if previous is None:
        return np.abs(selected[1:] - selected[:-1])
    if previous.shape != selected.shape[1:]:
        raise ValueError("estimates must have the same number of subcarriers")
    return np.abs(selected - np.concatenate([previous[None, :], selected[:-1]]))

