"""The program runs on numpy alone.

scipy is a test dependency only: the tests use it as an independent
reference, and nothing in `physec` may import it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROGRAM = """
import json, sys
import physec
import physec.cli
status = physec.cli.main(
    ["evaluate", "--preset", "desk", "--m", "4", "--blocks", "2", "--block-size", "50"]
)
print(json.dumps([status, sorted(n for n in sys.modules if n.split(".")[0] == "scipy")]))
"""


def test_a_gmm_evaluation_imports_no_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROGRAM],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    status, scipy_modules = json.loads(proc.stdout.splitlines()[-1])
    assert status == 0
    assert scipy_modules == []
