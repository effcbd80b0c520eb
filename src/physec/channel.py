"""Frequency-selective fading links and noisy channel estimation.

Each link is a tapped-delay line whose taps are circularly-symmetric complex
Gaussians; the per-subcarrier gains are the DFT of the taps.  Temporal
evolution follows a first-order autoregression so that one step decorrelates
the taps by exp(-1/coherence_samples).

The kernels work on L links at once that share one power-delay profile and
one step correlation; link l draws only from its own generator `rngs[l]`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "exponential_tap_powers",
    "step_correlation",
    "sample_initial_channels",
    "evolve_block",
    "estimate_block",
    "perfect_imitation_prefilter",
    "snr_db_to_noise_variance",
]

# tap i of the power-delay profile has power proportional to exp(-i / TAP_DECAY)
TAP_DECAY = 3.0


def exponential_tap_powers(num_taps: int) -> np.ndarray:
    """Exponentially decaying power-delay profile, normalized to unit total power."""
    if num_taps < 1:
        raise ValueError("num_taps must be >= 1")
    p = np.exp(-np.arange(num_taps) / TAP_DECAY)
    return p / p.sum()


def snr_db_to_noise_variance(snr_db: float) -> float:
    """Per-subcarrier noise variance for a given estimation SNR (unit channel power)."""
    return float(10.0 ** (-snr_db / 10.0))


def step_correlation(coherence_samples: float) -> float:
    """Tap correlation between consecutive estimation intervals."""
    return float(np.exp(-1.0 / coherence_samples))


def _stationary_block(rngs, tap_powers: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Stationary gains into `out`, shape (count, len(rngs), m_full); returns `out`.

    Row k takes the same draws as the k-th of `count` successive single-row
    calls: the real parts of the taps, then the imaginary parts.  Each
    link's taps are transformed straight into its strided view of `out`.
    """
    count = out.shape[0]
    std = np.sqrt(tap_powers / 2.0)
    taps = np.empty((count, tap_powers.size), dtype=np.complex128)
    for link, rng in enumerate(rngs):
        z = rng.standard_normal((count, 2, tap_powers.size))
        # (z[:, 0] + 1j * z[:, 1]) * std, the same operations in place
        np.multiply(1j, z[:, 1], out=taps)
        np.add(z[:, 0], taps, out=taps)
        taps *= std
        np.fft.fft(taps, n=out.shape[2], axis=1, out=out[:, link])
    return out


def sample_initial_channels(rngs, tap_powers: np.ndarray, m_full: int) -> np.ndarray:
    """Stationary per-subcarrier gains of one link per generator, shape (L, m_full).

    Average per-subcarrier power is 1 because the tap powers sum to 1.
    """
    if m_full < tap_powers.size:
        raise ValueError(f"m_full={m_full} must be >= num_taps={tap_powers.size}")
    out = np.empty((1, len(rngs), m_full), dtype=np.complex128)
    return _stationary_block(rngs, tap_powers, out)[0]


def evolve_block(
    gains: np.ndarray, rngs, tap_powers: np.ndarray, rho: float, count: int, out=None
) -> np.ndarray:
    """Gains of L links after each of `count` successive one-interval evolutions.

    Per tap the update is h_new = rho * h_old + sqrt(1 - rho^2) * innovation
    with the innovation drawn from the tap's stationary distribution.  The
    DFT is linear, so the same combination is applied directly to the
    frequency-domain gains using a freshly drawn innovation channel; the
    stationary distribution is preserved exactly.  `gains` has shape
    (L, m_full) and row l draws its innovations from `rngs[l]`.  The result
    has shape (count, L, m_full) and [k, l] is link l k + 1 evolutions after
    `gains[l]`.  It is written into `out`, a C-contiguous complex128 array
    of that shape, when one is given, and returned; each link's innovations
    are transformed straight into its view of the result, and the AR(1)
    recursion runs over its contiguous time-major rows.  `out` must not
    share memory with `gains`.

    A static channel (rho exactly 1) scales every innovation to +-0, and
    prev * 1 + (+-0) is prev for any non-zero prev, so gains without a zero
    real or imaginary part are repeated without drawing taps.  Only the tap
    draws read the generators, so skipping them changes no output.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    gains = np.ascontiguousarray(gains, dtype=np.complex128)
    if gains.ndim != 2 or not len(gains):
        raise ValueError(f"gains must have shape (L, m_full) with L >= 1, got {gains.shape}")
    links, m_full = gains.shape
    if m_full < tap_powers.size:
        raise ValueError(f"m_full={m_full} must be >= num_taps={tap_powers.size}")
    if len(rngs) != links:
        raise ValueError(f"need one generator per link, got {len(rngs)} for {links}")
    if out is None:
        out = np.empty((count, links, m_full), dtype=np.complex128)
    elif (
        out.shape != (count, links, m_full) or out.dtype != np.complex128
        or not out.flags.c_contiguous or np.may_share_memory(out, gains)
    ):
        raise ValueError(
            f"out must be a C-contiguous complex128 array of shape {(count, links, m_full)} "
            "apart from gains"
        )
    # a zero part could turn into -0 or +0, so it takes the written-out path
    if rho == 1.0 and np.all(gains.view(np.float64)):
        out[...] = gains
        return out
    _stationary_block(rngs, tap_powers, out)
    out *= np.sqrt(1.0 - rho * rho)
    # rho is real, so the recursion runs on the real and imaginary parts of
    # every link at once; it is sequential, everything else is one array op
    rows = out.view(np.float64).reshape(count, -1)
    scratch = np.empty(rows.shape[1])
    prev = gains.view(np.float64).reshape(-1)
    for row in rows:
        np.multiply(prev, rho, out=scratch)
        row += scratch
        prev = row
    return out


# Block-sized work that needs scratch (estimation noise here, picking rows
# in evaluation.run_grid) goes a chunk of rows at a time through at most
# this many bytes.  glibc serves a request of 128 KiB or more (its default
# mmap threshold) with a fresh mapping, faulted in and zeroed on every
# call; a chunk well under it reuses the same heap block call after call.
CHUNK_BYTES = 64 * 1024


def estimate_block(truth: np.ndarray, rngs, noise_variance: float) -> np.ndarray:
    """Add estimation noise to a (count, L, m_full) block of true gains, in place.

    Link l gets i.i.d. CN(0, noise_variance) from `rngs[l]`; row k takes the
    same draws as the k-th of `count` successive single-estimate draws.
    Each link's noise is drawn in chunks of rows into one small scratch
    (CHUNK_BYTES), which takes the generator's draws in the same order as
    one block-sized draw would.
    Returns `truth`, which now holds the estimates.
    """
    count, links, m_full = truth.shape
    if len(rngs) != links:
        raise ValueError(f"need one generator per link, got {len(rngs)} for {links}")
    chunk = max(1, min(count, CHUNK_BYTES // (16 * m_full)))
    scratch = np.empty((chunk, 2, m_full))
    std = np.sqrt(noise_variance / 2.0)
    for link, rng in enumerate(rngs):
        for start in range(0, count, chunk):
            rows = truth[start : start + chunk, link]
            noise = scratch[: len(rows)]
            rng.standard_normal(out=noise)
            noise *= std
            real, imag = rows.real, rows.imag
            real += noise[:, 0]
            imag += noise[:, 1]
    return truth


def perfect_imitation_prefilter(target: np.ndarray, actual: np.ndarray) -> np.ndarray:
    """Per-subcarrier transmit coefficients that make gains `actual` look like `target`.

    The strongest attacker: gains `actual` multiplied by these coefficients
    equal the target gains element-wise.
    """
    if target.shape != actual.shape:
        raise ValueError("target and actual must share m_full")
    if np.any(actual == 0):
        raise ValueError("actual channel has a zero gain; imitation undefined")
    return target / actual
