"""Smoke tests of scripts/line_audit.py: one desk no-RIS trial per config."""

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


def test_line_audit_unites_the_traces_of_scenario_files(tmp_path):
    # without jammers and interferers (q = b = 0) every estimate is empty, so
    # no error is scaled onto one; a second file at e_mse = 0.1 with the
    # profile's adversaries scales them, and the union covers the line
    empty = tmp_path / "no_adversaries.txt"
    empty.write_text("q = 0\nb = 0\ne_mse = 0.1\n", encoding="utf-8")
    noisy = tmp_path / "csi_error.txt"
    noisy.write_text("e_mse = 0.1  # the desk profile's adversaries\n", encoding="utf-8")
    scaled = ": draw *= np.sqrt(e_mse"

    def audit(*files):
        argv = [sys.executable, str(ROOT / "scripts" / "line_audit.py"), "--profile", "desk",
                "--scheme", "no-ris", "--trials", "1", "--scenario", *map(str, files)]
        run = subprocess.run(argv, capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        return run.stdout

    alone = audit(empty)
    assert f"{empty} over desk, e_mse = 0.1, no-ris: trials 0-0\n" in alone
    assert scaled in alone
    both = audit(empty, noisy)
    assert f"{noisy} over desk, e_mse = 0.1" in both
    assert scaled not in both
