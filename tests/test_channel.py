"""Channel simulator: stationarity, correlation structure, noise, prefilters.

Monte-Carlo tolerances are sized from the estimator's standard error and
noted on each assertion; all draws are seeded, so the tests are exact
rerun-to-rerun.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from physec import channel as ch

M_FULL = 48
TAPS = 8
PDP = ch.exponential_tap_powers(TAPS)


def initial(rng, m_full=M_FULL):
    """One link's stationary gains, drawn from `rng`."""
    return ch.sample_initial_channels([rng], PDP, m_full)[0]


def evolve(gains, rng, coherence, count):
    """One link `count` evolutions on, shape (count, m_full)."""
    return ch.evolve_block(gains[None], [rng], PDP, ch.step_correlation(coherence), count)[:, 0]


# ---------------------------------------------------------------------------
# power-delay profile and SNR helpers
# ---------------------------------------------------------------------------


def test_exponential_tap_powers_hand_values():
    # independent recomputation: p_i = e^(-i/3), normalized
    raw = [math.exp(-i / 3.0) for i in range(3)]
    total = sum(raw)
    expected = [v / total for v in raw]
    got = ch.exponential_tap_powers(3)
    assert np.allclose(got, expected, atol=1e-15)
    assert got[0] > got[1] > got[2]


def test_tap_powers_validation():
    with pytest.raises(ValueError):
        ch.exponential_tap_powers(0)


@given(num_taps=st.integers(min_value=1, max_value=16))
def test_tap_powers_always_normalized(num_taps):
    p = ch.exponential_tap_powers(num_taps)
    assert p.shape == (num_taps,)
    assert np.all(p > 0)
    assert abs(p.sum() - 1.0) < 1e-12


def test_snr_to_noise_variance_decades():
    assert ch.snr_db_to_noise_variance(0.0) == pytest.approx(1.0, abs=1e-15)
    assert ch.snr_db_to_noise_variance(10.0) == pytest.approx(0.1, abs=1e-15)
    assert ch.snr_db_to_noise_variance(20.0) == pytest.approx(0.01, abs=1e-15)
    assert ch.snr_db_to_noise_variance(30.0) == pytest.approx(0.001, abs=1e-15)


# ---------------------------------------------------------------------------
# stationary statistics
# ---------------------------------------------------------------------------


def test_unit_average_subcarrier_power():
    # E|H(f)|^2 = sum of tap powers = 1.  4000 draws; the per-draw average
    # power over 48 subcarriers has std ~0.5 (limited tap diversity), so the
    # grand-mean standard error is ~0.008; tolerance 0.04 = 5 SE.
    rng = np.random.default_rng(11)
    powers = [np.mean(np.abs(initial(rng)) ** 2) for _ in range(4000)]
    assert np.mean(powers) == pytest.approx(1.0, abs=0.04)


def test_power_preserved_after_many_evolution_steps():
    # The evolution rule is an exact stationary AR(1): after 10 steps at
    # coherence 2 (fully decorrelated) mean power must still be 1.
    # 1500 draws -> SE ~0.013; tolerance 0.06.
    rng = np.random.default_rng(12)
    powers = []
    for _ in range(1500):
        c = evolve(initial(rng), rng, 2.0, 10)[-1]
        powers.append(np.mean(np.abs(c) ** 2))
    assert np.mean(powers) == pytest.approx(1.0, abs=0.06)


def test_evolution_correlation_matches_coherence():
    # After s one-interval steps the gain correlation must be
    # exp(-s/coherence).  s=10, coherence=10 -> e^-1.  Pooled estimator over
    # 3000 draws x 48 subcarriers (~5 effective independent values per
    # draw): SE ~0.01.
    rng = np.random.default_rng(13)
    num = 0.0
    den = 0.0
    for _ in range(3000):
        c0 = initial(rng)
        c1 = evolve(c0, rng, 10.0, 10)[-1]
        num += float(np.sum((c1 * np.conj(c0)).real))
        den += float(np.sum(np.abs(c0) ** 2))
    assert num / den == pytest.approx(math.exp(-1.0), abs=0.03)


def test_step_correlation_formula():
    assert ch.step_correlation(100.0) == pytest.approx(math.exp(-0.01), abs=1e-15)
    assert ch.step_correlation(0.4) == pytest.approx(math.exp(-2.5), abs=1e-15)
    assert ch.step_correlation(math.inf) == 1.0


def test_spatially_separate_links_are_uncorrelated():
    # Different generators = different links; pooled correlation over 2000
    # draws must vanish (SE ~0.01).
    rngs = [np.random.default_rng(s) for s in (21, 22)]
    num = 0.0
    den_a = 0.0
    den_b = 0.0
    for _ in range(2000):
        ga, gb = ch.sample_initial_channels(rngs, PDP, M_FULL)
        num += float(np.sum((ga * np.conj(gb)).real))
        den_a += float(np.sum(np.abs(ga) ** 2))
        den_b += float(np.sum(np.abs(gb) ** 2))
    assert abs(num / math.sqrt(den_a * den_b)) < 0.03


def test_same_seed_reproduces_the_same_link():
    r1, r2 = np.random.default_rng(5), np.random.default_rng(5)
    c1 = initial(r1)
    c2 = initial(r2)
    assert np.array_equal(c1, c2)
    assert np.array_equal(evolve(c1, r1, 50.0, 3), evolve(c2, r2, 50.0, 3))


def test_static_channel_never_changes():
    rng = np.random.default_rng(7)
    c0 = initial(rng)
    c1 = evolve(c0, rng, math.inf, 1)[0]
    c2 = evolve(c1, rng, math.inf, 1000)[-1]
    assert np.array_equal(c0, c1)
    assert np.array_equal(c0, c2)


def test_evolution_advances_time_and_keeps_identity():
    # row k of an evolved block is the link k + 1 intervals on; the starting
    # gains are left as they were, and a same-seeded generator walks the
    # same path
    rng, twin = np.random.default_rng(7), np.random.default_rng(7)
    c0 = initial(rng)
    assert np.array_equal(initial(twin), c0)
    kept = c0.copy()
    block = evolve(c0, rng, 30.0, 3)
    assert block.shape == (3, M_FULL)
    assert np.array_equal(c0, kept)
    assert not np.array_equal(block[0], c0)
    assert not np.array_equal(block[1], block[0])
    assert not np.array_equal(block[2], block[1])
    assert np.array_equal(evolve(c0, twin, 30.0, 3), block)


# ---------------------------------------------------------------------------
# estimation noise
# ---------------------------------------------------------------------------


def test_estimation_noise_statistics():
    # Residuals are zero-mean complex Gaussians with the configured variance.
    # 4000 estimates x 48 subcarriers: SE of the mean ~8e-4 per part,
    # SE of the power ~6e-4.
    variance = 0.25
    truth = initial(np.random.default_rng(41))
    noise = np.random.default_rng(42)
    eps = (ch.estimate_block(np.tile(truth, (4000, 1, 1)), [noise], variance) - truth).ravel()
    assert np.mean(eps.real) == pytest.approx(0.0, abs=0.005)
    assert np.mean(eps.imag) == pytest.approx(0.0, abs=0.005)
    assert np.mean(np.abs(eps) ** 2) == pytest.approx(variance, abs=0.005)


def test_zero_noise_estimate_is_exact():
    truth = initial(np.random.default_rng(43))
    est = ch.estimate_block(truth[None, None, :].copy(), [np.random.default_rng(44)], 0.0)
    assert np.array_equal(est[0, 0], truth)


# ---------------------------------------------------------------------------
# prefilters
# ---------------------------------------------------------------------------


def test_prefilter_is_elementwise():
    # the coefficients are target / actual, subcarrier by subcarrier
    target = np.array([2 + 2j, -2j])
    actual = np.array([1 + 1j, 2 + 0j])
    coefficients = ch.perfect_imitation_prefilter(target, actual)
    assert np.array_equal(coefficients, np.array([2 + 0j, -1j]))
    assert np.array_equal(actual * coefficients, target)


def test_imitation_prefilter_reproduces_target():
    rng = np.random.default_rng(9)
    target = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    actual = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    out = actual * ch.perfect_imitation_prefilter(target, actual)
    assert np.allclose(out, target, rtol=1e-12, atol=1e-12)


def test_imitation_prefilter_rejects_zero_gain():
    target = np.array([1 + 0j, 1 + 0j])
    actual = np.array([1 + 0j, 0 + 0j])
    with pytest.raises(ValueError, match="zero gain"):
        ch.perfect_imitation_prefilter(target, actual)
    with pytest.raises(ValueError, match="m_full"):
        ch.perfect_imitation_prefilter(target, np.array([1 + 0j]))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_subcarrier_count_must_cover_taps():
    with pytest.raises(ValueError, match="m_full"):
        initial(np.random.default_rng(0), TAPS - 1)


def test_realization_validation():
    # a realization is one (m_full,) complex gains vector; one narrower
    # than the channel's taps, or empty, cannot be evolved
    rng = np.random.default_rng(3)
    c = initial(rng)
    assert c.shape == (M_FULL,)
    assert c.dtype == np.complex128
    assert np.all(np.isfinite(c))
    with pytest.raises(ValueError, match="m_full"):
        evolve(np.empty(0, dtype=np.complex128), rng, math.inf, 1)
    with pytest.raises(ValueError, match="m_full"):
        evolve(c[: TAPS - 1], rng, math.inf, 1)


@settings(max_examples=25)
@given(coherence=st.floats(min_value=0.5, max_value=1e6))
def test_step_correlation_stays_in_unit_interval(coherence):
    rho = ch.step_correlation(coherence)
    assert 0.0 < rho <= 1.0
