"""Tests of the benchmark's own checkers and of its metric declarations.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import workloads
from spans import Capture
from risjam import desk_profile
from risjam.harness import SCHEMES, run_trial

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def tiny_cfg(**kw):
    base = dict(n=2, k=2, q=1, b=1, m=3, n_jam=2, r_max=6, heldout=8, trials=2, seed=7)
    base.update(kw)
    return desk_profile(**base)


@pytest.fixture(scope="module")
def records():
    """One checked trial of each scheme at trial index 0 of the tiny scenario."""
    cfg = tiny_cfg()
    out = {}
    with Capture() as capture:
        for scheme in SCHEMES:
            capture.clear()
            result = run_trial(cfg, scheme, 0)
            rec = workloads._record(capture, scheme, 0, result)
            assert not isinstance(rec, str), rec
            out[scheme] = rec
    return cfg, out


def test_rate_recompute_matches_program(records):
    cfg, recs = records
    phys = checks.Physics.of(cfg)
    for rec in recs.values():
        assert checks.heldout_rate_bits(rec, phys.noise) == pytest.approx(rec.rate_bits, rel=1e-9)
        assert checks.trial_problems(rec, phys) == []
    assert checks.pairing_problems(list(recs.values())) == []


def perturbed(rec, **changes):
    return replace(copy.deepcopy(rec), **changes)


def problems_of(rec, cfg):
    return checks.trial_problems(rec, checks.Physics.of(cfg))


def test_rate_off_by_1e6_fails(records):
    cfg, recs = records
    for rec in recs.values():
        assert problems_of(perturbed(rec, rate_bits=rec.rate_bits * (1 + 1e-6)), cfg)


def test_power_cap_violations_fail(records):
    cfg, recs = records
    p_max = checks.Physics.of(cfg).p_max
    for rec in recs.values():
        for name in ("w1", "w2"):
            w = getattr(rec, name)
            over = w * np.sqrt(1.001 * p_max / np.sum(np.abs(w) ** 2))
            found = problems_of(perturbed(rec, **{name: over}), cfg)
            assert any(f"||{name}||^2" in p for p in found), found


def test_amplitude_above_a_max_fails(records):
    cfg, recs = records
    a_max = checks.Physics.of(cfg).a_max
    rec = recs["active-harvesting"]
    theta = rec.theta.copy()
    theta[1] = 1.0001 * a_max
    assert any("A_max" in p for p in problems_of(perturbed(rec, theta=theta), cfg))


def test_passive_unit_modulus_and_noris_shape(records):
    cfg, recs = records
    theta = recs["passive-ris"].theta.copy()
    theta[0] *= 0.999
    assert problems_of(perturbed(recs["passive-ris"], theta=theta), cfg)
    assert problems_of(perturbed(recs["no-ris"], theta=np.ones(3, dtype=complex)), cfg)
    assert problems_of(perturbed(recs["no-ris"], tau=0.5), cfg)


def test_active_tau_and_energy_supply(records):
    cfg, recs = records
    rec = recs["active-harvesting"]
    for tau in (0.0, 1.0):
        assert any("tau" in p for p in problems_of(perturbed(rec, tau=tau), cfg))
    starved = perturbed(rec, w1=rec.w1 * 0.5)   # a quarter of the harvest
    assert any("harvest" in p for p in problems_of(starved, cfg))


def test_energy_recompute_is_tight_at_the_reported_state(records):
    cfg, recs = records
    rec = recs["active-harvesting"]
    phys = checks.Physics.of(cfg)
    e_r = checks.harvest(rec.w1, rec.tau, rec.channels.g_br, phys)
    need = (1 - rec.tau) * checks.ris_power_draw(rec.w2, rec.theta, rec.channels.g_br, phys)
    assert need > 0 and e_r >= need * (1 - 1e-8)


def test_channel_and_heldout_mismatch_fail(records):
    _, recs = records
    active, passive = recs["active-harvesting"], recs["passive-ris"]
    channels = copy.deepcopy(passive.channels)
    channels.h_bu[0, 0] *= 1 + 1e-12
    assert checks.pairing_problems([active, perturbed(passive, channels=channels)])
    heldout = copy.deepcopy(passive.heldout)
    heldout[-1].h_iu[0, 0, 0] *= 1 + 1e-12
    assert checks.pairing_problems([active, perturbed(passive, heldout=heldout)])


def csv_bytes(values, schemes, rates, trials, seed, mean_shift=1.0):
    lines = [",".join(checks.CSV_HEADER)]
    for v in values:
        for s in schemes:
            r = np.asarray(rates[(v, s)])
            se = np.std(r, ddof=1) / np.sqrt(r.size)
            lines.append(f"B,{v},{s},{r.mean() * mean_shift:.6g},{se:.6g},{trials},{seed},1.5")
    return ("\n".join(lines) + "\n").encode()


def test_sweep_csv_check():
    rng = np.random.default_rng(0)
    rates = {(v, s): list(5 + rng.random(3)) for v in (1, 2) for s in SCHEMES}
    good = csv_bytes((1, 2), SCHEMES, rates, 3, 9)
    assert checks.sweep_csv_problems(good, "B", (1, 2), SCHEMES, 3, 9, rates) == []
    bad = csv_bytes((1, 2), SCHEMES, rates, 3, 9, mean_shift=1 + 1e-4)
    assert checks.sweep_csv_problems(bad, "B", (1, 2), SCHEMES, 3, 9, rates)
    assert checks.sweep_csv_problems(good, "B", (1, 2), SCHEMES, 4, 9, rates)
    assert checks.sweep_csv_problems(good[:-40], "B", (1, 2), SCHEMES, 3, 9, rates)


def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_declared_metrics_match_the_code():
    spec = declared()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == run.PER_LAYER
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


@pytest.fixture
def small_runs(monkeypatch, tmp_path):
    """One trial index per workload and a two-trial CLI sweep."""
    for name, (overrides, schemes, _) in list(workloads.WORKLOADS.items()):
        monkeypatch.setitem(workloads.WORKLOADS, name, (overrides, schemes, 1))
    monkeypatch.setattr(workloads, "SWEEP_TRIALS", 2)
    monkeypatch.setattr(workloads, "PROBE_REPEATS", 1)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    return tmp_path


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_the_declared_ones(small_runs, capsys, trace):
    name = workloads.PAPER_BASELINES
    rc = run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    result = last_json(capsys.readouterr().out)
    assert rc == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2
    spec = declared()["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(v["value"] is not None for v in result["metrics"].values())
    manifest = json.loads((small_runs / f"manifest-{name}-seed3-trace{trace}.json").read_text())
    assert manifest["trials_attempted"] == 2 and manifest["nproc"] >= 1
    assert manifest["worst_margins"]["power_excess"] <= checks.POWER_RTOL
    if trace:
        assert result["metrics"]["cli.csv_bytes"]["value"] > 0
        assert result["metrics"]["harness.parallel_base_s"]["value"] > 0


def test_active_trace_counts_the_two_ellipsoid_route(small_runs):
    out = workloads.run(workloads.PAPER_ACTIVE, 5, 0.0, True, small_runs)
    assert out.problems == [] and out.trials == 1
    assert set(out.layers) == set(run.PER_LAYER)
    assert out.layers["optimizer.w2_calls"] > 0
    assert out.layers["numerics.qcqp_calls.two_ellipsoid"] == out.layers["optimizer.w2_calls"]
    assert out.layers["numerics.eigh_per_w2"] > 0 and out.layers["harness.baseline_s"] == 0
