"""Acceptance suite: one test per advertised guarantee of the package.

Each test states its scenario and tolerance in the docstring and prints a
one-line numeric summary; expensive experiment runs are cached module-wide so
shared scenarios are simulated once.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import logsumexp

from physec import evaluation as ev
from physec import features as ft
from physec import gmm
from physec import trace_io
from physec.evaluation import DetectorKind, ExperimentConfig

from conftest import desk_config, read_links

# ---------------------------------------------------------------------------
# shared full-scale runs (cached: several tests reuse the same scenarios)
# ---------------------------------------------------------------------------

BASE = dict(
    m_subcarriers=16,
    snr_db=20.0,
    attack_intensity=0.5,
    num_blocks=100,
    block_size=1000,
    rng_seed=0,
)

_cache: dict = {}
_times: dict = {}


def run_cached(**overrides) -> ev.TrialResult:
    kwargs = {**BASE, **overrides}
    key = tuple(sorted(kwargs.items(), key=lambda kv: kv[0]))
    if key not in _cache:
        start = time.perf_counter()
        _cache[key] = ev.run_experiment(ExperimentConfig(**kwargs))
        _times[key] = time.perf_counter() - start
    return _cache[key]


def time_of(**overrides) -> float:
    kwargs = {**BASE, **overrides}
    return _times[tuple(sorted(kwargs.items(), key=lambda kv: kv[0]))]


# ---------------------------------------------------------------------------
# 1. more subcarriers never hurt, and detection is near-perfect at high SNR
# ---------------------------------------------------------------------------


def test_more_subcarriers_do_not_hurt_misdetection():
    """20 dB, independent attacker, updates on, 100 blocks x 1000 messages,
    50% attack traffic, 1% false-alarm target: misdetection at M=16 must not
    exceed misdetection at M=4 (paired seeds, exact <=), must stay <= 0.05,
    and the two runs together must finish within 120 s."""
    r16 = run_cached(m_subcarriers=16)
    r4 = run_cached(m_subcarriers=4)
    runtime = time_of(m_subcarriers=16) + time_of(m_subcarriers=4)
    print(
        f"[more-subcarriers] p_md(M=16)={r16.p_md:.5f} <= p_md(M=4)={r4.p_md:.5f}; "
        f"runtime {runtime:.1f}s"
    )
    assert r16.p_md <= r4.p_md
    assert r16.p_md <= 0.05
    assert runtime <= 120.0


# ---------------------------------------------------------------------------
# 2. block-wise updating keeps detection alive on a slowly drifting channel
# ---------------------------------------------------------------------------


def test_block_updates_sustain_detection_under_drift():
    """Same scenario on a finitely coherent channel (coherence 1e6 estimation
    intervals): with paired seeds, detection with updating must be at least
    detection without it, and must stay >= 0.95 at the 1% false-alarm target."""
    updated = run_cached(coherence_samples=1e6, update_enabled=True)
    frozen = run_cached(coherence_samples=1e6, update_enabled=False)
    print(
        f"[updates-under-drift] p_d update={updated.p_d:.4f} >= "
        f"no-update={frozen.p_d:.4f}; realized fa {updated.p_fa:.4f} vs {frozen.p_fa:.4f}"
    )
    assert updated.p_d >= frozen.p_d
    assert updated.p_d >= 0.95


@pytest.mark.xfail(
    strict=True,
    reason="decision-directed updating ratchets its threshold upward and realizes a "
    "false-alarm rate of 0.185 here (ROADMAP items 7 and 8)",
)
def test_block_updates_hold_the_false_alarm_target_under_drift():
    """The run of the test above: the updating detector's realized false-alarm
    rate must stay within twice its 1% target.  The test above bounds
    detection only, which a detector that rejects every message meets."""
    updated = run_cached(coherence_samples=1e6, update_enabled=True)
    print(f"[updates-under-drift-fa] realized fa {updated.p_fa:.4f} <= 0.02")
    assert updated.p_fa <= 2 * ExperimentConfig.target_fa


# ---------------------------------------------------------------------------
# 3. the mixture detector never trails the squared-error baseline
# ---------------------------------------------------------------------------


def test_mixture_detector_never_trails_mse_baseline():
    """Paired seeds {0,1,2} at M in {4,16}, 1% false-alarm target: the mixture
    detector's misdetection rate must be <= the squared-error baseline's in
    every single paired run (exact <=, no tolerance)."""
    worst = -math.inf
    for seed in (0, 1, 2):
        for m in (4, 16):
            g = run_cached(m_subcarriers=m, rng_seed=seed)
            b = run_cached(m_subcarriers=m, rng_seed=seed, detector=DetectorKind.MSE)
            print(
                f"[vs-baseline] seed={seed} M={m}: "
                f"p_md gmm={g.p_md:.5f} mse={b.p_md:.5f}"
            )
            assert g.p_md <= b.p_md
            worst = max(worst, g.p_md - b.p_md)
    assert worst <= 0.0


# ---------------------------------------------------------------------------
# 4. a perfectly imitating attacker is caught only at chance level
# ---------------------------------------------------------------------------


def test_perfect_channel_imitation_reduces_detection_to_chance():
    """Attacker transmits through a prefilter that reproduces the legitimate
    link exactly (static channel): over >= 10^4 test messages the detection
    rate must match the realized false-alarm rate within 0.05."""
    r = run_cached(num_blocks=21, block_size=500, prefilter=ev.PERFECT_IMITATION)
    gap = abs(r.p_d - r.p_fa)
    print(
        f"[imitation] p_d={r.p_d:.4f}, p_fa={r.p_fa:.4f}, |gap|={gap:.4f} "
        f"over {sum(r.counts)} messages"
    )
    assert sum(r.counts) >= 10_000
    assert gap <= 0.05


# ---------------------------------------------------------------------------
# 5. the EM trainer is numerically correct
# ---------------------------------------------------------------------------


def naive_mixture_log_density(row, weights, means, variances):
    total = 0.0
    for w, mu, var in zip(weights, means, variances):
        total += float(w) * np.prod(
            np.exp(-((row - mu) ** 2) / (2.0 * var)) / np.sqrt(2.0 * math.pi * var)
        )
    return math.log(total)


def test_em_training_correctness_bundle():
    """Training internals: log-likelihood never decreases (slack 1e-10
    relative), responsibilities sum to one (1e-12), a one-component fit equals
    the closed-form Gaussian MLE (1e-9), a five-component density matches a
    naive direct summation (1e-9), and a fitted one-dimensional density
    integrates to 1 within 1e-6."""
    rng = np.random.default_rng(7)
    data = np.concatenate(
        [rng.normal(0.0, 1.0, size=(300, 2)), rng.normal(6.0, 0.5, size=(200, 2))]
    )
    model = gmm.fit(data, num_components=3, target_fa=0.01, rng_seed=0)

    ll = np.asarray(model.em_log_likelihoods)
    slack = 1e-10 * max(1.0, abs(float(ll[0])))
    assert np.all(np.diff(ll) >= -slack)

    # posterior component memberships of the training data, written out
    log_joint = np.log(model.weights) + np.stack(
        [
            np.sum(-((data - mu) ** 2) / (2.0 * var) - 0.5 * np.log(2.0 * math.pi * var), axis=1)
            for mu, var in zip(model.means, model.variances)
        ],
        axis=1,
    )
    resp = np.exp(log_joint - logsumexp(log_joint, axis=1, keepdims=True))
    assert np.max(np.abs(resp.sum(axis=1) - 1.0)) <= 1e-12

    single = gmm.fit(data, num_components=1, target_fa=0.01, rng_seed=0)
    assert single.weights[0] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(single.means[0], data.mean(axis=0), atol=1e-9)
    expected_var = np.maximum(data.var(axis=0), gmm.MIN_VARIANCE)
    assert np.allclose(single.variances[0], expected_var, atol=1e-9)

    five = gmm.GmmModel(
        weights=np.array([0.1, 0.2, 0.3, 0.25, 0.15]),
        means=np.array([[0.0, 1.0], [2.0, -1.0], [-3.0, 0.5], [1.5, 1.5], [4.0, -2.0]]),
        variances=np.array(
            [[1.0, 2.0], [0.5, 0.5], [2.0, 1.0], [1.5, 0.25], [0.75, 3.0]]
        ),
    )
    points = rng.normal(0.0, 2.0, size=(50, 2))
    fast = gmm.log_likelihoods(five, points)
    naive = [
        naive_mixture_log_density(row, five.weights, five.means, five.variances)
        for row in points
    ]
    max_err = float(np.max(np.abs(fast - np.asarray(naive))))
    assert max_err <= 1e-9

    scalar_model = gmm.fit(
        rng.normal(2.0, 1.5, size=(400, 1)), num_components=3, target_fa=0.01, rng_seed=1
    )
    grid = np.linspace(-50.0, 50.0, 400_001).reshape(-1, 1)
    density = np.exp(gmm.log_likelihoods(scalar_model, grid))
    integral = float(np.trapezoid(density, grid[:, 0]))
    print(
        f"[em-bundle] naive-vs-vectorized max err {max_err:.2e}; "
        f"density integral {integral:.8f}"
    )
    assert integral == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# 6. reported rates obey exact identities
# ---------------------------------------------------------------------------


def test_metric_identities_hold():
    """p_md is exactly 1 - p_d, the four outcome counts conserve the number of
    test messages, identical score distributions give the diagonal ROC
    exactly, and ROC false-alarm coordinates are strictly increasing."""
    cfg = desk_config()
    r = ev.run_experiment(cfg)
    assert r.p_md == 1.0 - r.p_d
    assert sum(r.counts) == (cfg.num_blocks - 1) * cfg.block_size
    assert r.counts.true_detects + r.counts.misses == r.eve_scores.size
    assert r.counts.false_alarms + r.counts.correct_accepts == r.bob_scores.size

    scores = np.random.default_rng(11).standard_normal(400)
    diag = ev.compute_roc(scores, scores.copy())
    assert np.array_equal(diag.p_fa, diag.p_d)

    curve = ev.compute_roc(r.bob_scores, r.eve_scores)
    assert np.all(np.diff(curve.p_fa) > 0)
    print(
        f"[metric-identities] p_md={r.p_md:.4f} == 1-p_d; "
        f"{sum(r.counts)} outcomes conserved; ROC points {curve.p_fa.size}"
    )


# ---------------------------------------------------------------------------
# 7. feature extraction invariants
# ---------------------------------------------------------------------------


def test_feature_invariants_hold():
    """Normalized-magnitude features sum to 1 (1e-9) and are invariant to any
    common complex scaling (1e-9); the delta feature of two identical
    estimates is exactly zero; subcarrier index spacing matches the hand
    formula at M in {4,16,48} of 48."""
    rng = np.random.default_rng(13)
    gains = rng.standard_normal((1, 48)) + 1j * rng.standard_normal((1, 48))

    feat = ft.normalize_magnitude_block(gains)
    assert abs(feat.sum() - 1.0) <= 1e-9

    for scale in (1e-3 * np.exp(0.7j), 1e3 * np.exp(-2.1j)):
        assert np.allclose(ft.normalize_magnitude_block(gains * scale), feat, atol=1e-9)

    delta = ft.delta_feature_block(gains.copy(), gains[0])
    assert np.all(delta == 0.0)

    assert ft.subcarrier_indices(48, 4).tolist() == [0, 12, 24, 36]
    assert ft.subcarrier_indices(48, 16).tolist() == list(range(0, 48, 3))
    assert ft.subcarrier_indices(48, 48).tolist() == list(range(48))
    print("[feature-invariants] sum-to-one, scale invariance, zero delta, index grids ok")


# ---------------------------------------------------------------------------
# 8. reproducibility and lossless round trips
# ---------------------------------------------------------------------------


def test_reproducibility_and_lossless_round_trips(tmp_path):
    """Reruns of one configuration are bit-identical; trace files round-trip
    losslessly (repr-exact floats); hostile trace bytes raise only the
    documented format error."""
    cfg = desk_config()
    a, b = ev.run_experiment(cfg), ev.run_experiment(cfg)
    assert a.counts == b.counts
    assert np.array_equal(a.bob_scores, b.bob_scores)
    assert np.array_equal(a.eve_scores, b.eve_scores)

    awkward = [math.pi - 1e-9j, -0.0 + 1e300j, 2.2250738585072014e-308 + 0.25j]
    gains = np.array([[g, g * 1j] for g in awkward])
    path = tmp_path / "trace.csv"
    header = trace_io.TraceHeader(2, description="round trip")
    trace_io.write_trace(header, path, ["AB"], [gains[:, None]])
    _, (back,) = read_links(path, ("AB",), 3)
    assert back.shape == gains.shape
    for row_in, row_out in zip(gains, back):
        assert np.array_equal(np.where(row_in == 0, 0.0, row_in), row_out)

    hostile = [
        b"",
        b"\xff\xfe garbage",
        b"#CSI,m_full=2,interval_us=1,desc=x\n1,AB,not,a,number\n",
        b"#CSI,m_full=oops\n",
        b"#CSI,m_full=2,interval_us=1,desc=x\n2,AB,1,0,1,0\n1,AB,1,0,1,0\n",
    ]
    for blob in hostile:
        path.write_bytes(blob)
        with pytest.raises(trace_io.TraceFormatError):
            read_links(path, ("AB",), 1)
    print("[round-trips] rerun bit-identical; trace lossless; hostile bytes rejected")


# ---------------------------------------------------------------------------
# 9. detection quality is monotone in estimate quality
# ---------------------------------------------------------------------------


def test_detection_improves_with_snr():
    """With fixed seeds, misdetection must be non-increasing across
    SNR in {0, 10, 20, 30} dB (exact <=, paired seeds)."""
    rates = [(snr, run_cached(snr_db=float(snr)).p_md) for snr in (0, 10, 20, 30)]
    print("[snr-monotone] " + ", ".join(f"{s}dB: p_md={p:.5f}" for s, p in rates))
    mds = [p for _, p in rates]
    assert all(later <= earlier for earlier, later in zip(mds, mds[1:]))


# ---------------------------------------------------------------------------
# 10. a frozen detector realizes its false-alarm target
# ---------------------------------------------------------------------------


def test_frozen_mixture_detector_realizes_its_false_alarm_target():
    """Frozen mixture detector (gmm-noupdate), 20 blocks x 1000 messages,
    20 dB, static channel, 50% attack traffic, 1% target, seeds 0-3: at M=8
    and at M=16 the false-alarm rate pooled over the seeds lies within
    0.0062 of the target.

    The bound: the threshold is the 11th smallest of the 1000 training
    scores, so for a fresh legitimate score from the same distribution a
    seed's true false-alarm rate F(s_(11)) is Beta(11, 990), with mean
    0.0110 and standard deviation 0.0033.  The mean over four independent
    seeds has standard deviation 0.0017; counting about 38 000 legitimate
    test messages adds binomial noise of 0.0005, for 0.0017 in all.  The
    bound is the Beta mean's offset from the target plus three of those:
    0.0010 + 3 x 0.0017.  (The calibration scores come from the data the
    model was fit to, which this treats as fresh draws.)

    Updating is left out: decision-directed refits overshoot the target,
    realizing 0.075-0.103 on these seeds at M=8, and the fix changes the
    outputs (ROADMAP item 7)."""
    a, b = 11, 990
    mean = a / (a + b)
    seed_var = a * b / ((a + b) ** 2 * (a + b + 1))
    pooled = {8: [0, 0], 16: [0, 0]}  # false alarms, legitimate messages
    for seed in range(4):
        configs = [
            ExperimentConfig(m_subcarriers=m, num_blocks=20, block_size=1000,
                             update_enabled=False, rng_seed=seed)
            for m in pooled
        ]
        for config, result in zip(configs, ev.run_grid(configs)):
            counts = result.counts
            pooled[config.m_subcarriers][0] += counts.false_alarms
            pooled[config.m_subcarriers][1] += counts.false_alarms + counts.correct_accepts
    for m, (alarms, legitimate) in pooled.items():
        sd = math.sqrt(seed_var / 4 + mean * (1 - mean) / legitimate)
        bound = mean - 0.01 + 3 * sd
        print(f"[fa-calibration] M={m}: pooled p_fa={alarms / legitimate:.4f}, "
              f"|p_fa - 0.01| <= {bound:.4f}")
        assert abs(alarms / legitimate - 0.01) <= bound
