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


def check_chunk(chunk, links, rows, m_full):
    """Assert that a chunk `TraceReader.chunks` yielded holds, per link, a
    C-contiguous (rows, m_full) complex128 array and a (rows,) int64 one."""
    gains, times = chunk
    assert len(gains) == len(times) == links
    for link_gains, link_times in zip(gains, times):
        assert link_gains.dtype == np.complex128 and link_gains.shape == (rows, m_full)
        assert link_gains.flags.c_contiguous
        assert link_times.dtype == np.int64 and link_times.shape == (rows,)


def read_links(path, labels, block_size, count=1):
    """(header, gains, times) of a trace file: per label, the gains and the
    time indices of its first `count` blocks, concatenated."""
    with trace_io.TraceReader(path) as reader:
        chunks = list(reader.chunks(labels, [block_size], count))
        header = reader.header
    for chunk in chunks:
        check_chunk(chunk, len(set(labels)), block_size, header.m_full)
    gains, times = ([np.concatenate(link) for link in zip(*side)] for side in zip(*chunks))
    return header, gains, times


def relinked_order(total: int, eve_ahead: int | None) -> np.ndarray:
    """Where to move the 2 * total rows of a trace that interleaves two
    links, the first link's row first, as `physec simulate` writes them:
    every row of the first link before every row of the second when
    `eve_ahead` is None, else the second link's rows running `eve_ahead`
    rows ahead of the first's."""
    bob, eve = np.arange(0, 2 * total, 2), np.arange(1, 2 * total, 2)
    if eve_ahead is None:
        return np.concatenate([bob, eve])
    paired = np.stack([bob[: total - eve_ahead], eve[eve_ahead:]], axis=1).reshape(-1)
    return np.concatenate([eve[:eve_ahead], paired, bob[total - eve_ahead :]])


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
