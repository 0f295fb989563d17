"""The scripts in scripts/ still run against the package."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_demo_synthesis_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    script = ROOT / "scripts" / "demo_synthesis.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--sim-rounds", "10"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "mode normal: 2 rounds" in proc.stdout
