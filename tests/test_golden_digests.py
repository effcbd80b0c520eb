"""Golden result digests: desk-scale results must stay bit-identical.

`bench/golden.py` recomputes the result digests of eight configurations
(GMM with and without updating, MSE, oracle-labelled updating, delta
features, a perfectly imitating attacker, a finite coherence time and trace
replay) and compares them with `bench/golden.json`; it exits 0 only when all
of them match.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_golden_digests_match():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "golden.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
