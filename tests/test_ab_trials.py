"""Smoke test of scripts/ab_trials.py: this checkout against itself."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_ab_trials_finds_equal_rates_on_one_checkout():
    argv = [sys.executable, str(ROOT / "scripts" / "ab_trials.py"), "--parent", str(ROOT),
            "--change", str(ROOT), "--profile", "desk", "--scheme", "no-ris", "--rounds", "1",
            "--trials", "1"]
    run = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert "change won" in run.stdout
    assert "float.hex: yes" in run.stdout
