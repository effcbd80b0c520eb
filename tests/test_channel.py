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


def fresh_process(seed=0, coherence=math.inf, taps=TAPS):
    return ch.ChannelProcess(
        num_taps=taps,
        tap_powers=ch.exponential_tap_powers(taps),
        coherence_samples=coherence,
        rng_seed=seed,
    )


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
    proc = fresh_process(seed=11)
    powers = [
        np.mean(np.abs(ch.sample_initial_channel(proc, M_FULL)) ** 2)
        for _ in range(4000)
    ]
    assert np.mean(powers) == pytest.approx(1.0, abs=0.04)


def test_power_preserved_after_many_evolution_steps():
    # The evolution rule is an exact stationary AR(1): after 10 steps at
    # coherence 2 (fully decorrelated) mean power must still be 1.
    # 1500 draws -> SE ~0.013; tolerance 0.06.
    proc = fresh_process(seed=12, coherence=2.0)
    powers = []
    for _ in range(1500):
        c = ch.evolve_block(ch.sample_initial_channel(proc, M_FULL)[None], [proc], 10)[-1, 0]
        powers.append(np.mean(np.abs(c) ** 2))
    assert np.mean(powers) == pytest.approx(1.0, abs=0.06)


def test_evolution_correlation_matches_coherence():
    # After s one-interval steps the gain correlation must be
    # exp(-s/coherence).  s=10, coherence=10 -> e^-1.  Pooled estimator over
    # 3000 draws x 48 subcarriers (~5 effective independent values per
    # draw): SE ~0.01.
    proc = fresh_process(seed=13, coherence=10.0)
    num = 0.0
    den = 0.0
    for _ in range(3000):
        c0 = ch.sample_initial_channel(proc, M_FULL)
        c1 = ch.evolve_block(c0[None], [proc], 10)[-1, 0]
        num += float(np.sum((c1 * np.conj(c0)).real))
        den += float(np.sum(np.abs(c0) ** 2))
    assert num / den == pytest.approx(math.exp(-1.0), abs=0.03)


def test_step_correlation_formula():
    proc = fresh_process(coherence=100.0)
    assert proc.step_correlation() == pytest.approx(math.exp(-0.01), abs=1e-15)
    fast = fresh_process(coherence=0.4)
    assert fast.step_correlation() == pytest.approx(math.exp(-2.5), abs=1e-15)
    static = fresh_process(coherence=math.inf)
    assert static.step_correlation() == 1.0


def test_spatially_separate_links_are_uncorrelated():
    # Different seeds = different links; pooled correlation over 2000 draws
    # must vanish (SE ~0.01).
    a = fresh_process(seed=21)
    b = fresh_process(seed=22)
    num = 0.0
    den_a = 0.0
    den_b = 0.0
    for _ in range(2000):
        ga = ch.sample_initial_channel(a, M_FULL)
        gb = ch.sample_initial_channel(b, M_FULL)
        num += float(np.sum((ga * np.conj(gb)).real))
        den_a += float(np.sum(np.abs(ga) ** 2))
        den_b += float(np.sum(np.abs(gb) ** 2))
    assert abs(num / math.sqrt(den_a * den_b)) < 0.03


def test_same_seed_reproduces_the_same_link():
    p1 = fresh_process(seed=5, coherence=50.0)
    p2 = fresh_process(seed=5, coherence=50.0)
    c1 = ch.sample_initial_channel(p1, M_FULL)
    c2 = ch.sample_initial_channel(p2, M_FULL)
    assert np.array_equal(c1, c2)
    e1 = ch.evolve_block(c1[None], [p1], 3)
    e2 = ch.evolve_block(c2[None], [p2], 3)
    assert np.array_equal(e1, e2)


def test_static_channel_never_changes():
    proc = fresh_process(seed=7, coherence=math.inf)
    c0 = ch.sample_initial_channel(proc, M_FULL)
    c1 = ch.evolve_block(c0[None], [proc], 1)[0, 0]
    c2 = ch.evolve_block(c1[None], [proc], 1000)[-1, 0]
    assert np.array_equal(c0, c1)
    assert np.array_equal(c0, c2)


def test_evolution_advances_time_and_keeps_identity():
    # row k of an evolved block is the link k + 1 intervals on; the starting
    # gains are left as they were, and a same-seeded process walks the same
    # path
    proc = fresh_process(seed=7, coherence=30.0)
    twin = fresh_process(seed=7, coherence=30.0)
    c0 = ch.sample_initial_channel(proc, M_FULL)
    assert np.array_equal(ch.sample_initial_channel(twin, M_FULL), c0)
    kept = c0.copy()
    block = ch.evolve_block(c0[None], [proc], 3)[:, 0]
    assert block.shape == (3, M_FULL)
    assert np.array_equal(c0, kept)
    assert not np.array_equal(block[0], c0)
    assert not np.array_equal(block[1], block[0])
    assert not np.array_equal(block[2], block[1])
    assert np.array_equal(ch.evolve_block(c0[None], [twin], 3)[:, 0], block)


# ---------------------------------------------------------------------------
# estimation noise
# ---------------------------------------------------------------------------


def test_estimation_noise_statistics():
    # Residuals are zero-mean complex Gaussians with the configured variance.
    # 4000 estimates x 48 subcarriers: SE of the mean ~8e-4 per part,
    # SE of the power ~6e-4.
    variance = 0.25
    proc = fresh_process(seed=41)
    noise = ch.NoiseModel(variance, rng_seed=42)
    truth = ch.sample_initial_channel(proc, M_FULL)
    eps = (ch.estimate_block(np.tile(truth, (4000, 1, 1)), [noise]) - truth).ravel()
    assert np.mean(eps.real) == pytest.approx(0.0, abs=0.005)
    assert np.mean(eps.imag) == pytest.approx(0.0, abs=0.005)
    assert np.mean(np.abs(eps) ** 2) == pytest.approx(variance, abs=0.005)


def test_zero_noise_estimate_is_exact():
    proc = fresh_process(seed=43)
    noise = ch.NoiseModel(0.0, rng_seed=44)
    truth = ch.sample_initial_channel(proc, M_FULL)
    est = ch.estimate_block(truth[None, None, :].copy(), [noise])
    assert np.array_equal(est[0, 0], truth)


# ---------------------------------------------------------------------------
# prefilters
# ---------------------------------------------------------------------------


def test_prefilter_is_elementwise():
    gains = np.array([1 + 1j, 2 + 0j])
    f = ch.Prefilter(np.array([2 + 0j, -1j]))
    out = ch.prefilter_block(gains, f)
    assert np.array_equal(out, np.array([2 + 2j, -2j]))


def test_prefilter_length_mismatch():
    gains = np.array([1 + 1j, 2 + 0j])
    with pytest.raises(ValueError, match="does not match"):
        ch.prefilter_block(gains, ch.Prefilter(np.array([1 + 0j])))


def test_imitation_prefilter_reproduces_target():
    rng = np.random.default_rng(9)
    target = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    actual = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    f = ch.perfect_imitation_prefilter(target, actual)
    out = ch.prefilter_block(actual, f)
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


def test_process_validation_errors():
    good = ch.exponential_tap_powers(4)
    with pytest.raises(ValueError):
        ch.ChannelProcess(4, good * 2.0, 10.0, 0)  # powers do not sum to 1
    with pytest.raises(ValueError):
        ch.ChannelProcess(4, good, 0.0, 0)  # no coherence
    with pytest.raises(ValueError):
        ch.ChannelProcess(4, good, 10.0, -1)  # negative seed
    with pytest.raises(ValueError):
        ch.ChannelProcess(3, good, 10.0, 0)  # shape mismatch


def test_subcarrier_count_must_cover_taps():
    proc = fresh_process()
    with pytest.raises(ValueError, match="m_full"):
        ch.sample_initial_channel(proc, TAPS - 1)


def test_realization_validation():
    # a realization is one (m_full,) complex gains vector; one narrower
    # than the channel's taps, or empty, cannot be evolved
    proc = fresh_process(seed=3)
    c = ch.sample_initial_channel(proc, M_FULL)
    assert c.shape == (M_FULL,)
    assert c.dtype == np.complex128
    assert np.all(np.isfinite(c))
    with pytest.raises(ValueError, match="m_full"):
        ch.evolve_block(np.empty((1, 0), dtype=np.complex128), [proc], 1)
    with pytest.raises(ValueError, match="m_full"):
        ch.evolve_block(c[None, : TAPS - 1], [proc], 1)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        ch.NoiseModel(-0.1, 0)
    with pytest.raises(ValueError):
        ch.NoiseModel(0.1, -3)


@settings(max_examples=25)
@given(coherence=st.floats(min_value=0.5, max_value=1e6))
def test_step_correlation_stays_in_unit_interval(coherence):
    rho = fresh_process(coherence=coherence).step_correlation()
    assert 0.0 < rho <= 1.0
