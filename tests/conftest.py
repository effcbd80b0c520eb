"""Shared test helpers."""

import numpy as np
import pytest

from physec import gmm, trace_io
from physec.evaluation import ExperimentConfig


def desk_config(**overrides) -> ExperimentConfig:
    """Small, fast experiment config used throughout the unit tests."""
    kwargs = dict(
        m_subcarriers=8,
        snr_db=20.0,
        attack_intensity=0.5,
        rng_seed=0,
        num_blocks=10,
        block_size=200,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def write_records(path, m_full, time_index, link_labels, gains, **header):
    """Write a trace of one block of records, in file order, to `path`;
    `header` holds TraceHeader's other fields."""
    header = trace_io.TraceHeader(m_full, **header)
    trace_io.write_trace(header, path, [(time_index, link_labels, gains)])


def read_links(path, labels, block_size, count=1):
    """(header, gains, times) of a trace file: per label, the gains and the
    time indices of its first `count` blocks, concatenated."""
    with trace_io.TraceReader(path) as reader:
        blocks = list(reader.blocks(labels, block_size, count))
        header = reader.header
    gains, times = ([np.concatenate(parts) for parts in zip(*side)] for side in zip(*blocks))
    return header, gains, times


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def per_row_mse_score_block(state, features):
    """`mse.score_block` written out row by row: the reference for its tables.

    One numpy reduction per row against the current reference, which every
    accepted row replaces; the block is refused, and the reference left as it
    was, when a chosen score overflowed.
    """
    if state.threshold is None:
        raise ValueError("detector has no calibrated threshold")
    x = gmm.as_feature_matrix(features, state.reference.size)
    reference = state.reference
    scores, accepted = [], []
    with np.errstate(over="ignore"):
        for row in x:
            d = row - reference
            scores.append(float(np.mean(d * d)))
            accepted.append(scores[-1] <= state.threshold)
            if accepted[-1]:
                reference = row
    if not np.all(np.isfinite(scores)):
        raise ValueError("squared differences between features overflow")
    state.reference = reference.copy()
    return np.array(scores), np.array(accepted, dtype=bool)
