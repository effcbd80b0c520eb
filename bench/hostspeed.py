"""Host speed, measured with a fixed reference loop.

The benchmark shares a few cores of a host with other tenants, and the speed
those cores give it swings by up to 1.8x for tens of seconds at a time, long
enough to cover a whole run.  So every timed piece of work is bracketed by
runs of `reference()`, and its seconds are scaled by NOMINAL_S over the mean
of the two reference times around it: the time the work would have taken on
a host where the reference loop takes NOMINAL_S.  The loop does the kind of
work physec does (small FFTs, per-row numpy arithmetic, float formatting and
parsing) with numpy and the standard library only, so no change to physec
moves it.
"""

from __future__ import annotations

import time

import numpy as np

ROUNDS = 1500
# Median time of `reference()` on an idle core of a 2-core x86-64 sandbox
# (Python 3.11, numpy 2.4).  It sets the scale of scaled times only: a
# different value multiplies every scaled time by the same factor.
NOMINAL_S = 0.085


def reference() -> float:
    """Run the reference loop once; returns its wall seconds."""
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    taps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    means = rng.standard_normal((3, 16))
    variances = 1.0 + rng.random((3, 16))
    acc = 0.0
    for _ in range(ROUNDS):
        noise = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        gains = np.fft.fft(taps + 0.01 * noise, n=64)
        mags = np.abs(gains[:16])
        mags = mags / np.linalg.norm(mags)
        diff = mags[None, :] - means
        lw = -0.5 * np.sum(diff * diff / variances, axis=1)
        top = lw.max()
        acc += top + np.log(np.sum(np.exp(lw - top)))
        text = ",".join(repr(float(v)) for v in gains[:4].real)
        acc += sum(float(c) for c in text.split(","))
    if not np.isfinite(acc):
        raise RuntimeError("reference loop gave a non-finite result")
    return time.perf_counter() - start


def scaled(seconds: float, reference_before: float, reference_after: float) -> float:
    """`seconds` at the nominal host speed, from the reference times around it."""
    return seconds * NOMINAL_S / ((reference_before + reference_after) / 2.0)
