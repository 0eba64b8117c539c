"""Smoke test of scripts/line_audit.py: one desk no-RIS trial."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_line_audit_lists_the_lines_no_trial_ran():
    argv = [sys.executable, str(ROOT / "scripts" / "line_audit.py"), "--profile", "desk",
            "--scheme", "no-ris", "--trials", "1"]
    run = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert "harness.py: ran " in run.stdout and " function lines" in run.stdout
    # without RIS elements the concave QCQP solve never runs; every trial samples its channels
    assert ": s = np.sqrt(p.weights)\n" in run.stdout
    assert "cs = sample_static_channels(" not in run.stdout
