"""Frequency-selective fading links and noisy channel estimation.

Each link is a tapped-delay line whose taps are circularly-symmetric complex
Gaussians; the per-subcarrier gains are the DFT of the taps.  Temporal
evolution follows a first-order autoregression so that one step decorrelates
the taps by exp(-1/coherence_samples).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ChannelProcess",
    "NoiseModel",
    "Prefilter",
    "exponential_tap_powers",
    "sample_initial_channel",
    "evolve_block",
    "estimate_block",
    "prefilter_block",
    "perfect_imitation_prefilter",
    "snr_db_to_noise_variance",
]

# tap powers must sum to unity so that average per-subcarrier power is 1
_POWER_TOL = 1e-9
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


@dataclass
class Prefilter:
    """Per-subcarrier complex coefficients applied at the transmitter."""

    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=np.complex128)
        if self.coefficients.ndim != 1 or self.coefficients.size < 1:
            raise ValueError("coefficients must be a non-empty 1-D vector")
        if not np.all(np.isfinite(self.coefficients)):
            raise ValueError("coefficients must be finite")


@dataclass
class ChannelProcess:
    """Stochastic model of one link; owns its RNG stream.

    `coherence_samples` is the coherence time in estimation intervals: a
    single evolve step multiplies tap correlation by exp(-1/coherence_samples).
    Not safe for concurrent mutation.
    """

    num_taps: int
    tap_powers: np.ndarray
    coherence_samples: float
    rng_seed: int
    _rng: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.tap_powers = np.asarray(self.tap_powers, dtype=np.float64)
        if self.num_taps < 1:
            raise ValueError("num_taps must be >= 1")
        if self.tap_powers.shape != (self.num_taps,):
            raise ValueError("tap_powers must have shape (num_taps,)")
        if np.any(self.tap_powers < 0):
            raise ValueError("tap powers must be non-negative")
        if abs(float(self.tap_powers.sum()) - 1.0) > _POWER_TOL:
            raise ValueError("tap powers must sum to 1")
        if not self.coherence_samples > 0:
            raise ValueError("coherence_samples must be positive")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")
        self._rng = np.random.default_rng(self.rng_seed)

    def step_correlation(self) -> float:
        """Tap correlation between consecutive estimation intervals."""
        return float(np.exp(-1.0 / self.coherence_samples))

    def _draw_taps(self, count: int) -> np.ndarray:
        """`count` stationary tap vectors, shape (count, num_taps).

        Row k takes the same draws as the k-th of `count` successive
        single-vector draws: real parts, then imaginary parts.
        """
        std = np.sqrt(self.tap_powers / 2.0)
        z = self._rng.standard_normal((count, 2, self.num_taps))
        return (z[:, 0] + 1j * z[:, 1]) * std


@dataclass
class NoiseModel:
    """I.i.d. complex Gaussian estimation noise; owns its RNG stream."""

    noise_variance: float
    rng_seed: int
    _rng: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.noise_variance < 0:
            raise ValueError("noise_variance must be non-negative")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")
        self._rng = np.random.default_rng(self.rng_seed)


def _check_m_full(process: ChannelProcess, m_full: int) -> None:
    if m_full < process.num_taps:
        raise ValueError(
            f"m_full={m_full} must be >= num_taps={process.num_taps}"
        )


def sample_initial_channel(process: ChannelProcess, m_full: int) -> np.ndarray:
    """Draw stationary per-subcarrier gains, shape (m_full,).

    Average per-subcarrier power is 1 because the tap powers sum to 1.
    """
    _check_m_full(process, m_full)
    return np.fft.fft(process._draw_taps(1)[0], n=m_full)


def evolve_block(gains: np.ndarray, processes, count: int) -> np.ndarray:
    """Gains of L links after each of `count` successive one-interval evolutions.

    Per tap the update is h_new = rho * h_old + sqrt(1 - rho^2) * innovation
    with rho = exp(-1 / coherence_samples) and the innovation drawn from
    the tap's stationary distribution.  The DFT is linear, so the same
    combination is applied directly to the frequency-domain gains using a
    freshly drawn innovation channel; the stationary distribution is
    preserved exactly.  `gains` has shape (L, m_full), row l evolving under
    `processes[l]`; all L processes share one step correlation and one tap
    count.  The result has shape (count, L, m_full) and [k, l] is link l
    k + 1 evolutions after `gains[l]`.

    A static channel (rho exactly 1) scales every innovation to +-0, and
    prev * 1 + (+-0) is prev for any non-zero prev, so gains without a zero
    real or imaginary part are repeated without drawing taps.  Only the tap
    draws read a process's generator, so skipping them changes no output.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    gains = np.ascontiguousarray(gains, dtype=np.complex128)
    if gains.ndim != 2 or not len(gains) or len(processes) != len(gains):
        raise ValueError(
            f"need one process per row of (L, m_full) gains, got {len(processes)} "
            f"for shape {gains.shape}"
        )
    m_full = gains.shape[1]
    first = processes[0]
    _check_m_full(first, m_full)
    rho = first.step_correlation()
    for process in processes[1:]:
        if process.step_correlation() != rho or process.num_taps != first.num_taps:
            raise ValueError("linked processes must share coherence_samples and num_taps")
    # a zero part could turn into -0 or +0, so it takes the written-out path
    if rho == 1.0 and np.all(gains.view(np.float64)):
        return np.repeat(gains[None], count, axis=0)
    taps = np.empty((count, len(processes), first.num_taps), dtype=np.complex128)
    for link, process in enumerate(processes):
        taps[:, link] = process._draw_taps(count)
    out = np.fft.fft(taps, n=m_full, axis=2)
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


def estimate_block(truth: np.ndarray, noises) -> np.ndarray:
    """Add estimation noise to a (count, L, m_full) block of true gains, in place.

    Link l gets i.i.d. CN(0, noise_variance) from `noises[l]`; row k takes
    the same draws as the k-th of `count` successive single-estimate draws.
    Returns `truth`, which now holds the estimates.
    """
    count, links, m_full = truth.shape
    if len(noises) != links:
        raise ValueError(f"need one noise model per link, got {len(noises)} for {links}")
    scratch = np.empty((count, 2, m_full))
    for link, noise in enumerate(noises):
        noise._rng.standard_normal(out=scratch)
        scratch *= np.sqrt(noise.noise_variance / 2.0)
        real, imag = truth[:, link].real, truth[:, link].imag
        real += scratch[:, 0]
        imag += scratch[:, 1]
    return truth


def prefilter_block(gains: np.ndarray, prefilter: Prefilter) -> np.ndarray:
    """Pass gains (last axis = subcarriers) through a transmit prefilter, in place.

    Returns `gains`, which now holds the filtered gains.
    """
    if prefilter.coefficients.size != gains.shape[-1]:
        raise ValueError(
            f"prefilter length {prefilter.coefficients.size} does not match "
            f"m_full={gains.shape[-1]}"
        )
    gains *= prefilter.coefficients
    return gains


def perfect_imitation_prefilter(target: np.ndarray, actual: np.ndarray) -> Prefilter:
    """Coefficients that make gains `actual` look exactly like gains `target`.

    The strongest attacker: with these coefficients the filtered channel
    equals the target gains element-wise.
    """
    if target.shape != actual.shape:
        raise ValueError("target and actual must share m_full")
    if np.any(actual == 0):
        raise ValueError("actual channel has a zero gain; imitation undefined")
    return Prefilter(target / actual)
