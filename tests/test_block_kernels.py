"""Block kernels against per-message computations, bit for bit.

The experiment pipeline works on (block_size, m) arrays; every block kernel
must give exactly (np.array_equal) what one message at a time gives: a
written-out per-message reference, or the same kernel called on single rows.
"""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from physec import channel as ch
from physec import evaluation as ev
from physec import features as ft
from physec import gmm
from physec import mse

from conftest import desk_config, per_row_mse_score_block

M_FULL = 48
TAPS = 8
BLOCK = 200
PDP = ch.exponential_tap_powers(TAPS)


def initial(rng):
    """One link's stationary gains, drawn from `rng`."""
    return ch.sample_initial_channels([rng], PDP, M_FULL)[0]


def random_estimates(seed, rows=BLOCK, m_full=M_FULL):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, m_full)) + 1j * rng.standard_normal((rows, m_full))


# ---------------------------------------------------------------------------
# channel
# ---------------------------------------------------------------------------


def reference_evolve(gains, rng, rho):
    """One evolution step written out per message, as a single draw."""
    std = np.sqrt(PDP / 2.0)
    re = rng.standard_normal(TAPS)
    im = rng.standard_normal(TAPS)
    innovation = np.fft.fft((re + 1j * im) * std, n=gains.size)
    # rho is real and scales each part on its own; a complex product would
    # also add rho's zero imaginary part times the other part, which can
    # flip the sign of a zero part
    scaled = (rho * gains.view(np.float64)).view(np.complex128)
    return scaled + np.sqrt(1.0 - rho * rho) * innovation


@pytest.mark.parametrize("coherence", [math.inf, 50.0, 2.0])
@pytest.mark.parametrize("rows_per_call", [1, 3])
def test_block_evolution_matches_repeated_single_steps(coherence, rows_per_call):
    # one call for the whole block gives the same rows as a stream of calls
    # of `rows_per_call` rows each, and as the per-message reference
    rho = ch.step_correlation(coherence)
    block_rng, chunk_rng, ref_rng = (np.random.default_rng(5) for _ in range(3))
    start = initial(block_rng)
    assert np.array_equal(initial(chunk_rng), start)
    assert np.array_equal(initial(ref_rng), start)

    block = ch.evolve_block(start[None], [block_rng], PDP, rho, BLOCK)[:, 0]
    assert block.shape == (BLOCK, M_FULL)
    chunks, last = [], start
    for first in range(0, BLOCK, rows_per_call):
        rows = min(rows_per_call, BLOCK - first)
        chunks.append(ch.evolve_block(last[None], [chunk_rng], PDP, rho, rows)[:, 0])
        last = chunks[-1][-1]
    assert np.array_equal(block, np.concatenate(chunks))
    ref = start
    for k in range(BLOCK):
        ref = reference_evolve(ref, ref_rng, rho)
        assert np.array_equal(block[k], ref)
    # the streams stay aligned after the block
    assert np.array_equal(
        ch.evolve_block(block[-1][None], [block_rng], PDP, rho, 1)[0],
        ch.evolve_block(last[None], [chunk_rng], PDP, rho, 1)[0],
    )


def test_block_evolution_validation():
    rng = np.random.default_rng(0)
    gains = initial(rng)
    with pytest.raises(ValueError, match="count"):
        ch.evolve_block(gains[None], [rng], PDP, 1.0, 0)
    with pytest.raises(ValueError, match="m_full"):
        ch.evolve_block(gains[None, : TAPS - 1], [rng], PDP, 1.0, 4)


@pytest.mark.parametrize("variance", [0.0, 0.01, 0.3])
def test_block_estimation_matches_repeated_single_estimates(variance):
    truth = random_estimates(7)
    block_rng, single_rng, ref_rng = (np.random.default_rng(8) for _ in range(3))
    block = ch.estimate_block(truth[:, None].copy(), [block_rng], variance)[:, 0]
    std = np.sqrt(variance / 2.0)
    for k in range(BLOCK):
        single = ch.estimate_block(truth[k : k + 1, None].copy(), [single_rng], variance)[0, 0]
        assert np.array_equal(block[k], single)
        eps = (ref_rng.standard_normal(M_FULL) + 1j * ref_rng.standard_normal(M_FULL)) * std
        assert np.array_equal(block[k], truth[k] + eps)


def test_block_prefilter_matches_single_prefilter():
    # the attacker's link is filtered in place as the strided view [:, 1] of
    # a (count, 2, m_full) block; each row must get what it gets alone
    truth = np.stack([random_estimates(9), random_estimates(11)], axis=1)
    coefficients = ch.perfect_imitation_prefilter(random_estimates(10, rows=1)[0], truth[0, 1])
    rows = truth[:, 1].copy()
    truth[:, 1] *= coefficients
    for k in range(BLOCK):
        assert np.array_equal(truth[k, 1], rows[k] * coefficients)
    assert np.array_equal(truth[:, 0], random_estimates(9))


def bits(a):
    """The float64 words of a real or complex array, so equality is bit for bit."""
    return np.ascontiguousarray(a).view(np.float64).view(np.uint64)


@pytest.mark.parametrize("coherence", [math.inf, 1e6, 50.0, 2.0])
def test_links_evolved_together_match_each_link_alone(coherence):
    rho = ch.step_correlation(coherence)
    joint = [np.random.default_rng(s) for s in (5, 6)]
    alone = [np.random.default_rng(s) for s in (5, 6)]
    start = ch.sample_initial_channels(joint, PDP, M_FULL)
    for rng, gains in zip(alone, start):
        assert np.array_equal(bits(initial(rng)), bits(gains))
    state = start
    # the second block starts from the last row of the first
    for _ in range(2):
        block = ch.evolve_block(state, joint, PDP, rho, BLOCK)
        assert block.shape == (BLOCK, 2, M_FULL)
        for link, rng in enumerate(alone):
            single = ch.evolve_block(state[link][None], [rng], PDP, rho, BLOCK)
            assert np.array_equal(bits(block[:, link]), bits(single[:, 0]))
        state = block[-1].copy()


def test_static_evolution_repeats_nonzero_gains_and_steps_zero_parts():
    # rho = 1: non-zero gains are repeated without drawing taps, but a +0.0
    # real or -0.0 imaginary part takes the written-out step, whose +-0
    # innovation decides the sign of the zero
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    start = initial(rng)
    assert np.array_equal(bits(initial(ref_rng)), bits(start))
    drawn = rng.bit_generator.state
    static = ch.evolve_block(start[None], [rng], PDP, 1.0, BLOCK)[:, 0]
    assert rng.bit_generator.state == drawn
    assert np.array_equal(bits(static), bits(np.repeat(start[None], BLOCK, axis=0)))

    start[3] = complex(0.0, start[3].imag)
    start[7] = complex(start[7].real, -0.0)
    block = ch.evolve_block(start[None], [rng], PDP, 1.0, BLOCK)[:, 0]
    ref = start
    for k in range(BLOCK):
        ref = reference_evolve(ref, ref_rng, 1.0)
        assert np.array_equal(bits(block[k]), bits(ref))
    # the zeros did change sign, so a repeat would have been wrong
    assert not np.array_equal(bits(block), bits(np.repeat(start[None], BLOCK, axis=0)))


def test_joint_evolution_validation():
    # rho = 1 (static), where evolve_block would otherwise repeat its input:
    # the checks run first
    rngs = [np.random.default_rng(s) for s in (1, 2)]
    two = ch.sample_initial_channels(rngs, PDP, M_FULL)
    with pytest.raises(ValueError, match="count"):
        ch.evolve_block(two, rngs, PDP, 1.0, 0)
    with pytest.raises(ValueError, match="shape"):
        ch.evolve_block(two[0], rngs, PDP, 1.0, 4)
    with pytest.raises(ValueError, match="shape"):
        ch.evolve_block(two[:0], rngs, PDP, 1.0, 4)
    with pytest.raises(ValueError, match="m_full"):
        ch.evolve_block(two[:, : TAPS - 1], rngs, PDP, 1.0, 4)
    # a generator short or over fails instead of leaving a row undrawn
    for wrong in (rngs[:1], rngs + rngs[:1]):
        with pytest.raises(ValueError):
            ch.evolve_block(two, wrong, PDP, 0.5, 4)


def test_estimate_block_writes_into_its_input():
    truth = np.stack([random_estimates(13), random_estimates(14)], axis=1)
    kept = truth.copy()
    rngs = [np.random.default_rng(s) for s in (15, 16)]
    est = ch.estimate_block(truth, rngs, 0.1)
    assert est is truth
    # each link gets the draws it would get estimated alone
    for link, seed in enumerate((15, 16)):
        single = ch.estimate_block(
            kept[:, link][:, None].copy(), [np.random.default_rng(seed)], 0.1
        )
        assert np.array_equal(bits(est[:, link]), bits(single[:, 0]))
    with pytest.raises(ValueError, match="one generator per link"):
        ch.estimate_block(kept, rngs[:1], 0.1)


def test_imitation_prefilter_leaves_bob_untouched():
    cfg = desk_config(block_size=100, coherence_samples=100.0)
    plain = ev.simulated_estimate_chunks(cfg)
    imitated = ev.simulated_estimate_chunks(
        desk_config(block_size=100, coherence_samples=100.0, prefilter=ev.PERFECT_IMITATION)
    )
    for _ in range(6):  # 3 blocks of 85 + 15 rows
        chunk, chunk_imitated = next(plain), next(imitated)
        assert np.array_equal(bits(chunk_imitated[:, 0]), bits(chunk[:, 0]))
        assert not np.array_equal(chunk_imitated[:, 1], chunk[:, 1])


# one (rows, 2, m_full) complex array of a full chunk, both links' rows
CHUNK_ARRAY_BYTES = ev.CHUNK_BYTES // (16 * M_FULL) * 2 * M_FULL * 16


@pytest.mark.parametrize("prefilter", [None, ev.PERFECT_IMITATION])
def test_a_simulated_chunk_allocates_under_two_chunks_of_both_links(prefilter):
    # the stream draws every chunk into its one (rows, 2, m_full) array;
    # evolving and estimating it may not cost two such arrays at once: a
    # draw peaks at 1.26 chunks, and at 1.51 with the prefilter
    cfg = desk_config(block_size=1000, prefilter=prefilter)
    chunks = ev.simulated_estimate_chunks(cfg)
    next(chunks)
    tracemalloc.start()
    try:
        next(chunks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * CHUNK_ARRAY_BYTES


@pytest.mark.parametrize(
    "overrides",
    [dict(), dict(coherence_samples=1e6), dict(prefilter=ev.PERFECT_IMITATION)],
    ids=["static", "drifting", "imitating"],
)
def test_a_warm_draw_allocates_under_a_chunk_and_six_tenths(overrides):
    # every chunk is drawn into the stream's one array, so a warm draw
    # allocates only scratch: a link's noise, half a chunk, and numpy's
    # buffers for the strided adds; it peaks at 1.26 chunks (1.51 with the
    # prefilter).  A fresh array for every chunk would add a whole chunk.
    cfg = desk_config(block_size=1000, **overrides)
    chunks = ev.simulated_estimate_chunks(cfg)
    for _ in range(len(ev._chunks(cfg.block_size, cfg.m_full)) + 1):
        next(chunks)  # a block and one chunk: the last, short chunk is behind
    tracemalloc.start()
    try:
        next(chunks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * CHUNK_ARRAY_BYTES


@pytest.mark.parametrize("case", ["static", "drifting", "zero real part"])
def test_evolving_into_out_matches_the_allocating_call(case):
    rho = ch.step_correlation(50.0) if case == "drifting" else 1.0
    allocating, into_out = ([np.random.default_rng(s) for s in (5, 6)] for _ in range(2))
    start = ch.sample_initial_channels(allocating, PDP, M_FULL)
    assert np.array_equal(bits(ch.sample_initial_channels(into_out, PDP, M_FULL)), bits(start))
    if case == "zero real part":  # the written-out path of a static channel
        start[0, 3] = complex(0.0, start[0, 3].imag)
    expected = ch.evolve_block(start, allocating, PDP, rho, BLOCK)
    out = np.full((BLOCK, 2, M_FULL), complex(np.nan, np.nan))  # nothing of it may survive
    assert ch.evolve_block(start, into_out, PDP, rho, BLOCK, out=out) is out
    assert np.array_equal(bits(out), bits(expected))
    assert all(a.bit_generator.state == b.bit_generator.state for a, b in zip(allocating, into_out))


def test_evolve_block_refuses_an_out_it_cannot_fill():
    rngs = [np.random.default_rng(s) for s in (1, 2)]
    two = ch.sample_initial_channels(rngs, PDP, M_FULL)
    wide = np.empty((4, 2, 2 * M_FULL), dtype=np.complex128)
    holding = np.empty((4, 2, M_FULL), dtype=np.complex128)
    holding[-1] = two
    for gains, out in (
        (two, np.empty((3, 2, M_FULL), dtype=np.complex128)),  # too few rows
        (two, np.empty((4, 2, M_FULL))),  # real
        (two, wide[:, :, :M_FULL]),  # not contiguous
        (holding[-1], holding),  # holds the gains it evolves
    ):
        with pytest.raises(ValueError, match="out must be"):
            ch.evolve_block(gains, rngs, PDP, 0.5, 4, out=out)


def reference_pairs(config):
    """The estimate stream built one message at a time from single-row calls."""
    seeds = ev._derived_seeds(config.rng_seed)
    bob_rng, eve_rng, bob_noise, eve_noise = (np.random.default_rng(s) for s in seeds[:4])
    pdp = ch.exponential_tap_powers(config.num_taps)
    rho = ch.step_correlation(config.coherence_samples)
    noise_var = ch.snr_db_to_noise_variance(config.snr_db)
    (b,) = ch.sample_initial_channels([bob_rng], pdp, config.m_full)
    (e,) = ch.sample_initial_channels([eve_rng], pdp, config.m_full)
    coefficients = None
    if config.prefilter is not None:
        coefficients = ch.perfect_imitation_prefilter(b, e)
    while True:
        b = ch.evolve_block(b[None], [bob_rng], pdp, rho, 1)[0, 0]
        e = ch.evolve_block(e[None], [eve_rng], pdp, rho, 1)[0, 0]
        effective = e if coefficients is None else e * coefficients
        yield (
            ch.estimate_block(b[None, None].copy(), [bob_noise], noise_var)[0, 0],
            ch.estimate_block(effective[None, None].copy(), [eve_noise], noise_var)[0, 0],
        )


def stream_rows(config, blocks: int):
    """(Bob's, Eve's) rows of the first `blocks` blocks of the simulated
    stream, each the concatenation of the chunks.  Every chunk of a block
    but the last holds CHUNK_BYTES of each link, and the last the rest."""
    chunks = ev.simulated_estimate_chunks(config)
    rows_per_chunk = max(1, ev.CHUNK_BYTES // (16 * config.m_full))
    full, rest = divmod(config.block_size, rows_per_chunk)
    sizes = [rows_per_chunk] * full + [rest] * (rest > 0)
    rows = []
    for _ in range(blocks):
        for size in sizes:
            chunk = next(chunks)
            assert chunk.shape == (size, 2, config.m_full)
            rows.append(chunk.copy())  # the next draw overwrites it
    rows = np.concatenate(rows)
    return rows[:, 0], rows[:, 1]


def assert_matches_the_per_message_stream(config, blocks: int = 3):
    bob, eve = stream_rows(config, blocks)
    pairs = reference_pairs(config)
    for bob_row, eve_row in zip(bob, eve):
        bob_ref, eve_ref = next(pairs)
        assert np.array_equal(bits(bob_row), bits(bob_ref))
        assert np.array_equal(bits(eve_row), bits(eve_ref))


@pytest.mark.parametrize(
    "overrides",
    [dict(), dict(coherence_samples=100.0), dict(prefilter=ev.PERFECT_IMITATION, snr_db=5.0)],
)
def test_simulated_blocks_match_the_per_message_stream(overrides):
    assert_matches_the_per_message_stream(desk_config(block_size=200, **overrides))


# wide enough that a chunk holds one row of each link
WIDE = ev.CHUNK_BYTES // 16


@pytest.mark.parametrize(
    "block_size, m_full",
    [(1, M_FULL), (7, M_FULL), (85, M_FULL), (86, M_FULL), (200, M_FULL), (1000, M_FULL),
     (1, WIDE), (7, WIDE)],
)
def test_chunked_noise_matches_the_per_message_stream(block_size, m_full):
    # a block is drawn a chunk of rows at a time, 85 rows at m_full 48 and
    # one at WIDE; the stream reads no field but these, so a namespace
    # stands in for the block of one message that ExperimentConfig refuses
    fields = vars(desk_config(coherence_samples=100.0, m_full=m_full))
    assert_matches_the_per_message_stream(SimpleNamespace(**{**fields, "block_size": block_size}))


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------


def reference_magnitude(row):
    """Normalized magnitudes of one selected estimate, written out."""
    mags = np.abs(row)
    return mags / mags.sum()


@pytest.mark.parametrize("m", [4, 8, 16, 48])
def test_block_features_match_per_row_features(m):
    estimates = random_estimates(11)
    selected = ft.select_block(estimates, m)
    magnitudes = ft.normalize_magnitude_block(selected)
    deltas = ft.delta_feature_block(selected)
    previous = random_estimates(12, rows=1, m_full=m)[0]
    deltas_after = ft.delta_feature_block(selected, previous)
    assert magnitudes.shape == deltas_after.shape == (BLOCK, m)
    assert deltas.shape == (BLOCK - 1, m)

    idx = ft.subcarrier_indices(M_FULL, m)
    rows = [g[idx] for g in estimates]
    for k, row in enumerate(rows):
        before = rows[k - 1] if k else previous
        assert np.array_equal(selected[k], row)
        assert np.array_equal(magnitudes[k], reference_magnitude(row))
        assert np.array_equal(magnitudes[k], ft.normalize_magnitude_block(row[None, :])[0])
        assert np.array_equal(deltas_after[k], np.abs(row - before))
        assert np.array_equal(deltas_after[k], ft.delta_feature_block(row[None, :], before)[0])
        if k:
            assert np.array_equal(deltas[k - 1], np.abs(row - rows[k - 1]))


@pytest.mark.parametrize("m", [8, 16])
def test_non_contiguous_selection_matches_per_row_features(m):
    # A column selection such as est[:, idx] is not C-contiguous.  Row sums
    # over it differed in the last bits from per-row sums (94 of 200 rows at
    # m=8), and EM on a training matrix in that layout differs from EM on the
    # stacked per-row features.  The kernels must match for any input layout.
    estimates = random_estimates(13)
    idx = ft.subcarrier_indices(M_FULL, m)
    rows = [g[idx] for g in estimates]
    magnitudes = np.stack([reference_magnitude(r) for r in rows])
    deltas = np.stack([np.abs(r - p) for p, r in zip(rows, rows[1:])])
    for layout in (estimates[:, idx], np.asfortranarray(estimates[:, idx])):
        for block, stacked in (
            (ft.normalize_magnitude_block(layout), magnitudes),
            (ft.delta_feature_block(layout), deltas),
        ):
            assert block.flags.c_contiguous
            assert np.array_equal(block, stacked)
            fitted, reference = (gmm.fit(x, 3, 0.01, 0) for x in (block, stacked))
            assert np.array_equal(fitted.means, reference.means)
            assert np.array_equal(fitted.variances, reference.variances)


def test_block_normalization_rejects_an_all_zero_row():
    selected = random_estimates(14, rows=5, m_full=4)
    selected[3] = 0.0
    with pytest.raises(ValueError, match="all-zero"):
        ft.normalize_magnitude_block(selected)


def test_block_delta_checks_the_previous_width():
    with pytest.raises(ValueError, match="subcarriers"):
        ft.delta_feature_block(random_estimates(15, rows=5, m_full=4), np.zeros(3, dtype=complex))


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [4, 16])
def test_block_scores_match_per_row_scores(m):
    features = ft.normalize_magnitude_block(ft.select_block(random_estimates(16, rows=1000), m))
    model = gmm.fit(features[:400], num_components=3, target_fa=0.01, rng_seed=0)
    scores = gmm.log_likelihoods(model, features)
    per_row = np.array([gmm.log_likelihoods(model, row)[0] for row in features])
    assert np.array_equal(scores, per_row)


def broadcast_log_densities(x, means, variances):
    """Per-component Gaussian log-densities written out over an (N, K, D) broadcast."""
    diff = x[:, None, :] - means[None, :, :]
    quad = np.sum(diff * diff / variances[None, :, :], axis=2)
    log_norm = np.sum(np.log(variances), axis=1) + means.shape[1] * math.log(2.0 * math.pi)
    return -0.5 * (quad + log_norm[None, :])


@pytest.mark.parametrize(
    "n, k, d", [(1, 1, 1), (50, 3, 7), (1000, 3, 16), (300, 5, 48), (200, 8, 4), (300, 10, 16)]
)
def test_component_log_densities_match_the_broadcast_formula(n, k, d):
    rng = np.random.default_rng(19)
    x = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3, (n, 1))
    means = rng.standard_normal((k, d))
    variances = 10.0 ** rng.uniform(-8, 1, (k, d))
    weights = rng.dirichlet(np.ones(k))
    # rows at 1e200 square to inf, and their densities to -inf
    for rows in (x, np.vstack([x, np.full((2, d), 1e200), np.full((1, d), -1e200)])):
        with np.errstate(over="ignore"):
            expected = broadcast_log_densities(rows, means, variances) + np.log(weights)[None, :]
            got = gmm._weighted_log_densities(rows, weights, means, variances, np.empty_like(rows))
        assert np.array_equal(got, expected.T)  # component-major


@pytest.mark.parametrize("n, k, d", [(50, 3, 7), (1000, 3, 16)])
def test_one_em_iteration_matches_a_written_out_step(n, k, d, monkeypatch):
    rng = np.random.default_rng(20)
    x = rng.standard_normal((n, d))
    weights = rng.dirichlet(np.ones(k))
    means = rng.standard_normal((k, d))
    variances = rng.uniform(0.5, 2.0, (k, d))
    lw = broadcast_log_densities(x, means, variances) + np.log(weights)[None, :]
    per_sample = logsumexp(lw, axis=1)
    resp = np.exp(lw - per_sample[:, None])
    nk = resp.sum(axis=0)
    expected_means = (resp.T @ x) / nk[:, None]
    expected_variances = np.empty_like(variances)
    for j in range(k):
        diff = x - expected_means[j]
        expected_variances[j] = resp[:, j] @ (diff * diff) / nk[j]

    monkeypatch.setattr(gmm, "EM_ITERATIONS", 1)
    new_weights, new_means, new_variances, history, _ = gmm._em(x, weights, means, variances)
    assert np.array_equal(new_weights, nk / n)
    assert np.array_equal(new_means, expected_means)
    assert np.array_equal(new_variances, np.maximum(expected_variances, gmm.MIN_VARIANCE))
    assert history == [float(per_sample.sum())]


def two_pass_em(x, weights, means, variances):
    """EM with a separate E-step and M-step in every iteration, written out.

    The E-step scores the current parameters over the (N, K, D) broadcast;
    the M-step then squares x - mean again for each new mean.  gmm._em
    does both in one pass per component and must agree bit for bit.
    Returns the parameters, the history and the returned model's weighted
    log-densities, sample-major: (N, K).
    """
    n = x.shape[0]
    history = []
    ll_prev = None

    def weighted_log_densities():
        with np.errstate(divide="ignore"):
            log_w = np.log(weights)
        return broadcast_log_densities(x, means, variances) + log_w[None, :]

    for _ in range(gmm.EM_ITERATIONS):
        lw = weighted_log_densities()
        per_sample = logsumexp(lw, axis=1)
        ll = float(per_sample.sum())
        history.append(ll)
        resp = np.exp(lw - per_sample[:, None])
        nk = resp.sum(axis=0)
        weights = nk / n
        safe_nk = np.where(nk > 0, nk, 1.0)
        means = np.where(nk[:, None] > 0, (resp.T @ x) / safe_nk[:, None], means)
        new_var = variances.copy()
        for j in np.flatnonzero(nk > 0):
            diff = x - means[j]
            new_var[j] = resp[:, j] @ (diff * diff) / nk[j]
        variances = np.maximum(new_var, gmm.MIN_VARIANCE)
        if ll_prev is not None and abs(ll - ll_prev) <= gmm.EM_TOLERANCE * abs(ll_prev):
            break
        ll_prev = ll
    return weights, means, variances, history, weighted_log_densities()


def em_start(n, k, d, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d)) + rng.integers(0, k, (n, 1))
    start = (rng.dirichlet(np.ones(k)), x[rng.choice(n, k, replace=False)], rng.uniform(0.5, 2.0, (k, d)))
    return x, start


def dead_component_start():
    # a component of weight 0 gets no responsibility (nk == 0) in every
    # iteration, keeps its mean and variance, and is floored like the rest
    x, (_, means, variances) = em_start(200, 3, 5, 23)
    variances[2, ::2] = gmm.MIN_VARIANCE / 100
    return x, (np.array([0.4, 0.6, 0.0]), means, variances)


EM_CASES = {
    "50x1x7": em_start(50, 1, 7, 22),
    "1000x3x16": em_start(1000, 3, 16, 22),
    "300x5x48": em_start(300, 5, 48, 22),
    # from 8 components on, the log-sum-exp sums each sample's terms pairwise
    "200x8x4": em_start(200, 8, 4, 22),
    "300x10x16": em_start(300, 10, 16, 22),
    "dead component": dead_component_start(),
}


@pytest.mark.parametrize("iterations", [gmm.EM_ITERATIONS, 3])
@pytest.mark.parametrize("case", list(EM_CASES))
def test_fused_em_matches_the_two_pass_loop(case, iterations, monkeypatch):
    monkeypatch.setattr(gmm, "EM_ITERATIONS", iterations)
    x, start = EM_CASES[case]
    got = gmm._em(x, *start)
    expected = two_pass_em(x, *start)
    assert got[3] == expected[3]
    if iterations == 3:
        assert len(got[3]) == 3  # stopped by the cap, not by convergence
    for name, a, b in zip(("weights", "means", "variances", "log-densities"),
                          got[:3] + got[4:], expected[:3] + (expected[4].T,)):
        assert np.array_equal(a, b), name
    if case == "dead component":
        assert np.array_equal(got[1][2], start[1][2])
        assert np.all(got[2][2] == np.maximum(start[2][2], gmm.MIN_VARIANCE))
    fa = 0.05
    model = gmm._fit_from(x, *start, fa)
    assert model.threshold == gmm.lower_tail_threshold(gmm.log_likelihoods(model, x), fa)


def test_em_allocates_nothing_the_size_of_an_n_k_d_array():
    # the E- and M-steps share one (N, D) scratch buffer; the broadcast form
    # built three (N, K, D) temporaries per E-step
    n, k, d = 2000, 3, 16
    rng = np.random.default_rng(21)
    x = rng.standard_normal((n, d))
    start = (np.full(k, 1.0 / k), rng.standard_normal((k, d)), np.ones((k, d)))
    tracemalloc.start()
    try:
        gmm._em(x, *start)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * k * d * 8


def logsumexp_cases(k: int) -> dict:
    """Named C-order (N, k) arrays for the log-sum-exp comparison, one
    sample a row; scipy's sum over a row depends on that layout."""
    rng = np.random.default_rng(18 + k)
    wide = rng.standard_normal((300, k)) * 10.0 ** rng.uniform(-3, 3, (300, 1))
    ties = rng.standard_normal((6, k))
    ties[0, 0] = ties[0].max() + 1.0  # a lone maximum in the first column
    ties[1, -1] = ties[1].max() + 1.0  # and in the last
    ties[2, 0] = ties[2, -1] = ties[2].max() + 1.0  # tied in the first and last
    ties[3] = 4.0  # every entry ties
    ties[4] = -700.0
    ties[5] = -0.0
    dead = rng.standard_normal(k)
    dead[::2] = -np.inf  # zero-weight components, the first among them
    nan_row = rng.standard_normal((1, k))
    nan_row[0, -1] = np.nan
    live = max(k - 1, 1)  # every component but the last, if there are two
    weights = np.zeros(k)
    weights[:live] = 1.0 / live
    return {
        "tied maxima": ties,
        "zero weights": np.vstack([dead, np.roll(dead, 1), np.full(k, -np.inf)]),
        "all weights zero": np.full((2, k), -np.inf),
        "a NaN row": np.vstack([nan_row, rng.standard_normal((2, k))]),
        "wide magnitudes": np.vstack(
            [wide, 50.0 * rng.standard_normal((100, k)), rng.standard_normal((100, k)) - 700.0]
        ),
        "mixture with a dead component": gmm._weighted_log_densities(
            rng.standard_normal((200, 4)),
            weights,
            rng.standard_normal((k, 4)),
            rng.uniform(0.5, 2.0, (k, 4)),
            np.empty((200, 4)),
        ).T.copy(),
    }


def test_row_logsumexp_matches_scipy():
    # the mixture's log-sum-exp is written out in numpy with scipy's own
    # arithmetic; scipy stays here as the independent reference.  Below 8
    # components it adds whole rows of the component-major (K, N) layout,
    # from 8 on it sums pairwise, so both sides of that limit are checked.
    for k in (1, 3, 7, 8, 9):
        cases = logsumexp_cases(k)
        for name, a in cases.items():
            # exp underflowing to 0 is expected; any other floating-point
            # warning would be new
            with np.errstate(all="raise", under="ignore"):
                got = gmm._logsumexp_rows(a.T.copy())
            assert np.array_equal(got, logsumexp(a, axis=1), equal_nan=True), (k, name)
        assert np.isnan(gmm._logsumexp_rows(cases["a NaN row"].T.copy())[0])
        assert np.all(gmm._logsumexp_rows(cases["all weights zero"].T.copy()) == -np.inf)


def assert_walks_agree(state, block):
    """`mse.score_block` against the per-row walk from a copy of `state`."""
    reference = mse.MseDetectorState(state.reference.copy(), state.threshold)
    expected_scores, expected_accepted = per_row_mse_score_block(reference, block)
    scores, accepted = mse.score_block(state, block)
    assert np.array_equal(bits(scores), bits(expected_scores))
    assert np.array_equal(accepted, expected_accepted)
    assert np.array_equal(bits(state.reference), bits(reference.reference))
    return accepted


def test_mse_block_scores_match_a_per_row_walk():
    features = ft.normalize_magnitude_block(ft.select_block(random_estimates(17, rows=1000), 8))
    state = mse.fit_mse(features[:400], target_fa=0.05)
    block = features[400:]
    # the first row's score lands exactly on the threshold, so it is accepted
    state.threshold = float(np.mean((block[0] - state.reference) ** 2))
    accepted = assert_walks_agree(state, block)
    assert accepted[0] and not accepted.all()


L = mse._LAGS
# accepted (a) and rejected (r) rows; the first fallback pass covers L rows
# past the lag tables and each further pass doubles what was covered
WALKS = {
    "no acceptance": "r" * 40,
    "first row rejected": "raarraa",
    "a rejection run longer than the lags": "a" + "r" * (L + 1) + "a" + "r" * (L + 2) + "aa",
    "a rejection run longer than the first window": "a" + "r" * (2 * L + 2) + "ar" * L + "a",
    "long rejection runs": "r" * 3 + "a" + "r" * 100 + "a" + "r" * (4 * L + 1) + "a",
    "every row accepted": "a" * 40,
    "one accepted row": "a",
    "one rejected row": "r",
}


def walk_block(pattern: str, m: int, seed: int = 0) -> np.ndarray:
    """Rows near the zero reference where `pattern` says a, far from it where r.

    Every accepted row differs from every other, so a score taken against
    the wrong reference row has other bits.
    """
    rng = np.random.default_rng(seed)
    far = np.array([5.0 if c == "r" else 0.0 for c in pattern])
    return far[:, None] + 0.01 * rng.standard_normal((len(pattern), m))


@pytest.mark.parametrize("m", [1, 7, 8, 9, 16, 48])
@pytest.mark.parametrize("walk", WALKS)
def test_mse_lag_tables_match_a_per_row_walk(walk, m):
    pattern = WALKS[walk]
    state = mse.MseDetectorState(np.zeros(m), threshold=0.01)
    accepted = assert_walks_agree(state, walk_block(pattern, m))
    assert "".join("a" if ok else "r" for ok in accepted) == pattern
    if "a" not in pattern:
        assert np.array_equal(state.reference, np.zeros(m))


@given(
    n=st.integers(min_value=1, max_value=80),
    m=st.sampled_from([1, 7, 8, 9, 16]),
    accept_rate=st.sampled_from([0.0, 0.2, 0.5, 0.9, 1.0]),
    seed=st.integers(min_value=0, max_value=2**31),
    cuts=st.lists(st.integers(min_value=1, max_value=79), max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_mse_one_call_equals_calls_over_chunks(n, m, accept_rate, seed, cuts):
    rng = np.random.default_rng(seed)
    pattern = "".join("a" if u < accept_rate else "r" for u in rng.random(n))
    block = walk_block(pattern, m, seed)
    whole = mse.MseDetectorState(np.zeros(m), threshold=0.01)
    chunked = mse.MseDetectorState(np.zeros(m), threshold=0.01)
    scores, accepted = mse.score_block(whole, block)
    chunks = [chunk for chunk in np.split(block, sorted(set(cuts))) if len(chunk)]
    parts = [mse.score_block(chunked, chunk) for chunk in chunks]
    assert np.array_equal(bits(scores), bits(np.concatenate([p[0] for p in parts])))
    assert np.array_equal(accepted, np.concatenate([p[1] for p in parts]))
    assert np.array_equal(bits(whole.reference), bits(chunked.reference))


@pytest.mark.parametrize("m", [4, 48])
@pytest.mark.parametrize("attack_intensity", [0.5, 1.0])
@pytest.mark.parametrize("coherence", [math.inf, 1e3])
@pytest.mark.parametrize("feature_kind", list(ft.FeatureKind))
def test_mse_runs_match_the_per_row_walk_end_to_end(
    feature_kind, coherence, attack_intensity, m, monkeypatch
):
    config = desk_config(
        detector=ev.DetectorKind.MSE,
        feature_kind=feature_kind,
        coherence_samples=coherence,
        attack_intensity=attack_intensity,
        m_subcarriers=m,
    )
    result = ev.run_experiment(config)
    monkeypatch.setattr(mse, "score_block", per_row_mse_score_block)
    expected = ev.run_experiment(config)
    assert result.counts == expected.counts
    assert (result.p_d, result.p_fa, result.p_md) == (expected.p_d, expected.p_fa, expected.p_md)
    assert result.blocks == expected.blocks
    assert np.array_equal(bits(result.bob_scores), bits(expected.bob_scores))
    assert np.array_equal(bits(result.eve_scores), bits(expected.eve_scores))


def test_row_sums_of_a_matrix_add_like_one_dimensional_sums():
    # Both detectors score a block with np.add.reduce(axis=1) and rely on it
    # adding each row of a C-contiguous matrix exactly as np.add.reduce adds
    # that row alone; gmm's column-wise log-sum-exp relies on rows narrower
    # than _SEQUENTIAL_SUM_LIMIT being added left to right.  The widths cross
    # numpy's 8-wide unrolling and its 128-element pairwise split.
    rng = np.random.default_rng(23)
    for m in range(1, 131):
        x = rng.standard_normal((40, m)) * 10.0 ** rng.integers(-8, 9, (40, m))
        sums = np.add.reduce(x, axis=1)
        assert np.array_equal(bits(sums), bits([np.add.reduce(row) for row in x])), m
        if m < gmm._SEQUENTIAL_SUM_LIMIT:
            running = np.zeros(x.shape[0])
            for column in x.T:
                running += column
            assert np.array_equal(bits(sums), bits(running)), m
        if m >= 3:  # the data tells addition orders apart
            rotated = np.add.reduce(np.roll(x, 1, axis=1), axis=1)
            assert not np.array_equal(bits(sums), bits(rotated)), m
