"""Smoke test of scripts/ab_trials.py: this checkout against itself."""

import re
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
    # one checkout: both sides make the same calls
    counts = re.findall(r"^(parent|change): (\d+) Python-level calls per trial", run.stdout, re.M)
    assert [side for side, _ in counts] == ["parent", "change"]
    assert int(counts[0][1]) == int(counts[1][1]) > 0
    # one checkout: the numbers are zero apart
    assert ("largest relative difference: rate_bits 0.00e+00, best_objective_nats 0.00e+00; "
            "largest tau difference 0.00e+00") in run.stdout
    assert "trials that differ, of 1: iterations 0, theta map counts 0, multiplier counters 0" in run.stdout
