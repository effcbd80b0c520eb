"""Shared test helpers."""

import numpy as np
import pytest

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


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
