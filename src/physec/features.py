"""Detector input features derived from channel estimates."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import ChannelRealization

__all__ = [
    "FeatureKind",
    "FeatureVector",
    "subcarrier_indices",
    "select_subcarriers",
    "select_block",
    "normalize_magnitude",
    "normalize_magnitude_block",
    "delta_feature",
    "delta_feature_block",
]


class FeatureKind(Enum):
    NORMALIZED_MAGNITUDE = "normalized-magnitude"
    DELTA = "delta"


@dataclass
class FeatureVector:
    """Real-valued detector input extracted from one received message."""

    values: np.ndarray
    source_time: int
    kind: FeatureKind

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1 or self.values.size < 1:
            raise ValueError("values must be a non-empty 1-D vector")

    @property
    def dim(self) -> int:
        return self.values.size


def subcarrier_indices(m_full: int, m: int) -> np.ndarray:
    """Indices of `m` equally spaced subcarriers out of `m_full`."""
    if not 1 <= m <= m_full:
        raise ValueError(f"need 1 <= m <= m_full, got m={m}, m_full={m_full}")
    return (np.arange(m) * m_full) // m


def select_subcarriers(estimate: ChannelRealization, m: int) -> ChannelRealization:
    """Keep `m` equally spaced subcarriers of an estimate."""
    idx = subcarrier_indices(estimate.m_full, m)
    return ChannelRealization(
        estimate.gains[idx], time_index=estimate.time_index, link_id=estimate.link_id
    )


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
    totals = mags.sum(axis=1)
    if np.any(totals == 0):
        raise ValueError("all-zero estimate: magnitude normalization is undefined")
    return mags / totals[:, None]


def normalize_magnitude(estimate: ChannelRealization) -> FeatureVector:
    """Magnitudes of one estimate divided by their sum (see normalize_magnitude_block)."""
    return FeatureVector(
        normalize_magnitude_block(estimate.gains[None, :])[0],
        source_time=estimate.time_index,
        kind=FeatureKind.NORMALIZED_MAGNITUDE,
    )


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


def delta_feature(
    current: ChannelRealization,
    previous: ChannelRealization,
    split_complex: bool = False,
) -> FeatureVector:
    """Magnitude of the change between consecutive estimates.

    With `split_complex` the real and imaginary parts of the difference are
    stacked instead (dimension doubles); the default keeps |difference|.
    """
    if current.m_full != previous.m_full:
        raise ValueError("estimates must have the same number of subcarriers")
    if current.time_index <= previous.time_index:
        raise ValueError("current estimate must be strictly later than previous")
    if split_complex:
        diff = current.gains - previous.gains
        values = np.concatenate([diff.real, diff.imag])
    else:
        values = delta_feature_block(current.gains[None, :], previous.gains)[0]
    return FeatureVector(values, source_time=current.time_index, kind=FeatureKind.DELTA)
