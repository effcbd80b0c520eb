"""Golden result digests for the configurations later refactors must keep
bit-identical: GMM with and without updating, MSE, oracle-labelled updating,
delta features, a perfectly imitating attacker, a finite coherence time and
trace replay, all at desk scale (10 blocks of 200 messages, M=8, seed 0).

    python3 bench/golden.py          # compare the current code with golden.json
    python3 bench/golden.py --write  # record the current digests in golden.json

A mismatch is reported, not counted as a failure: a change that alters
outputs on purpose records new digests and says why.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_FILE = HERE / "golden.json"

if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

from physec import evaluation  # noqa: E402
from physec.evaluation import DetectorKind, ExperimentConfig  # noqa: E402
from physec.features import FeatureKind  # noqa: E402

from workloads import replay_input, result_digest, run_replay  # noqa: E402

DESK = ExperimentConfig(m_subcarriers=8, num_blocks=10, block_size=200, rng_seed=0)

CONFIGS = {
    "gmm-update": DESK,
    "gmm-noupdate": replace(DESK, update_enabled=False),
    "mse": replace(DESK, detector=DetectorKind.MSE),
    "gmm-oracle-update": replace(DESK, oracle_update=True),
    "gmm-delta": replace(DESK, feature_kind=FeatureKind.DELTA),
    "gmm-imitate": replace(DESK, prefilter=evaluation.PERFECT_IMITATION),
    "gmm-coherence-1e3": replace(DESK, coherence_samples=1e3),
}


def digests() -> dict:
    """Digest of each golden configuration under the current code."""
    found = {name: result_digest(evaluation.run_experiment(c)) for name, c in CONFIGS.items()}
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-") as tmp:
        replay = replay_input(
            DESK.rng_seed, Path(tmp), detector="gmm", m=DESK.m_subcarriers,
            blocks=DESK.num_blocks, block_size=DESK.block_size,
        )
        found["trace-replay"] = result_digest(run_replay(replay))
    return found


def load() -> dict:
    return json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))


def compare(expected: dict, actual: dict) -> dict:
    """name -> "match", "mismatch" or "missing" (no recorded digest)."""
    return {
        name: "missing" if name not in expected
        else "match" if expected[name] == digest
        else "mismatch"
        for name, digest in actual.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="golden result digests at desk scale")
    parser.add_argument("--write", action="store_true", help="record the current digests")
    args = parser.parse_args(argv)
    actual = digests()
    if args.write:
        GOLDEN_FILE.write_text(json.dumps(actual, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {len(actual)} digests to {GOLDEN_FILE.name}")
        return 0
    status = compare(load(), actual)
    for name, outcome in status.items():
        print(f"{name:20s} {outcome}")
    return 0 if all(v == "match" for v in status.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
