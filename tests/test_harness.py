import concurrent.futures
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import risjam
from risjam import cli, harness, numerics, optimizer, system
from risjam.config import ParseError, ScenarioConfig, ValidationError, load_scenario
from risjam.harness import (
    SCHEMES,
    baseline_noris,
    baseline_passive,
    run_sweep,
    run_trial,
)
from risjam.channel import ChannelSet, sample_static_channels, sample_uncertain_realization

from oracles import wmmse_sum_rate


def micro_cfg(**kw):
    """Tiny configuration for harness-machinery tests."""
    base = dict(n=2, k=2, q=1, b=1, m=2, n_jam=2, r_max=6, heldout=8, trials=4, seed=7)
    base.update(kw)
    return risjam.desk_profile(**base)


class TestLoadScenario:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        cfg = load_scenario(str(path))
        assert cfg == ScenarioConfig()
        assert (cfg.n, cfg.k, cfg.q, cfg.b, cfg.n_jam, cfg.m) == (8, 4, 3, 4, 8, 25)
        assert cfg.p_j_dbm == 10.0 and cfg.noise_dbm == -105.0
        assert cfg.power_model().a_max == pytest.approx(100.0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed"):
            ScenarioConfig(seed=-4)

    def test_unknown_profile_rejected_before_reading(self, tmp_path):
        # the file does not exist: the profile is checked first
        with pytest.raises(ValidationError, match="profile"):
            load_scenario(str(tmp_path / "missing.cfg"), profile="dsk")

    @pytest.mark.parametrize("line, message", [
        ("q = -1", "count q must be nonnegative"),
        ("b = -2", "count b must be nonnegative"),
        ("rwp_b = 1, 2", "rwp_b and rwp_upsilon must have equal length"),
        ("rwp_upsilon = 1, 3, 5, 7", "rwp_b and rwp_upsilon must have equal length"),
        ("m_nakagami = 0.4", "m_nakagami must be >= 0.5"),
        ("ue_radius = 0", "ue_radius must be positive"),
        ("ue_radius = -5", "ue_radius must be positive"),
        ("varsigma = 0", "convergence tolerances must be positive"),
        ("varsigma1 = -1e-3", "convergence tolerances must be positive"),
    ])
    def test_out_of_range_values_rejected(self, tmp_path, line, message):
        path = tmp_path / "range.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ValidationError, match=f"^{message}$"):
            load_scenario(str(path))

    def test_zero_m_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("M = 0\n")
        with pytest.raises(ValidationError):
            load_scenario(str(path))

    def test_partial_override(self, tmp_path):
        path = tmp_path / "override.cfg"
        path.write_text("P_max_dbm = 20\n")
        cfg = load_scenario(str(path))
        assert cfg.p_max_dbm == 20.0
        ref = ScenarioConfig()
        assert cfg.m == ref.m and cfg.e_mse == ref.e_mse and cfg.seed == ref.seed

    def test_parse_error_carries_line(self, tmp_path):
        path = tmp_path / "syntax.cfg"
        path.write_text("# comment\nN = 8\nthis is not a pair\n")
        with pytest.raises(ParseError, match="line 3"):
            load_scenario(str(path))

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "unk.cfg"
        path.write_text("warp_drive = 9\n")
        with pytest.raises(ParseError, match="line 1"):
            load_scenario(str(path))

    def test_bad_exponent_rejected(self, tmp_path):
        path = tmp_path / "alpha.cfg"
        path.write_text("alpha_bu = 9.5\n")
        with pytest.raises(ValidationError, match="alpha_bu"):
            load_scenario(str(path))

    def test_tuple_and_comments(self, tmp_path):
        path = tmp_path / "tuple.cfg"
        path.write_text("rwp_upsilon = 2, 4, 6  # 3-D exponents\nue_radius = 10\n")
        cfg = load_scenario(str(path))
        assert cfg.rwp_upsilon == (2.0, 4.0, 6.0)
        assert cfg.ue_radius == 10.0

    @pytest.mark.parametrize("line", [
        "varsigma = nan", "noise_dbm = inf", "p_max_dbm = nan", "ue_radius = inf",
        "e_mse = nan", "p_j_dbm = -inf", "rwp_b = 1, nan, 2", "bs_pos = 30, inf, 5",
    ])
    def test_non_finite_numbers_rejected(self, tmp_path, line):
        path = tmp_path / "nonfinite.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ValidationError, match="finite"):
            load_scenario(str(path))

    @pytest.mark.parametrize("line, message", [
        ("ue_center = 30, 150", "3 coordinates"),
        ("ris_pos = 0, 40, 10, 5", "3 coordinates"),
        ("jammer_box_min = 40, 80", "3 coordinates"),
        ("jammer_box_max = 30, 100, 0", "below"),
        ("interferer_box_min = -50, 230, 0", "below"),
        # linked nodes that can come within the 1 m path-loss reference
        ("jammer_box_min = 0, 40, 10\njammer_box_max = 0, 40, 10", "jammer box and ris_pos"),
        ("bs_pos = 30, 160, 0", "bs_pos and user disc"),
        ("ris_pos = 30, 0, 5.5", "bs_pos and ris_pos"),
        ("ris_pos = 30, 150, 0.5", "ris_pos and user disc"),
        ("interferer_box_min = -50, 170.5, 0", "interferer box and user disc"),
        ("jammer_box_max = 60, 135, 0", "jammer box and user disc"),
    ])
    def test_malformed_coordinates_rejected(self, tmp_path, line, message):
        path = tmp_path / "coords.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ValidationError, match=message):
            load_scenario(str(path))

    @pytest.mark.parametrize("line", [
        "rwp_b = 0, 0, 0",        # no mass: the sampler would divide by zero
        "rwp_b = -1, 0, 0",       # negative everywhere
        "rwp_b = 1, -1.5, 0",     # positive mass, negative near the disc's rim
    ])
    def test_user_density_must_be_a_density(self, tmp_path, line):
        path = tmp_path / "rwp.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ValidationError, match="density"):
            load_scenario(str(path))

    def test_unlinked_or_distant_nodes_accepted(self):
        # without jammers the jammer box joins no link; boxes exactly 1 m
        # from the user disc's rim are at the reference distance
        ScenarioConfig(q=0, jammer_box_min=(0.0, 40.0, 10.0), jammer_box_max=(0.0, 40.0, 10.0))
        ScenarioConfig(jammer_box_min=(20.0, 80.0, 0.0), jammer_box_max=(40.0, 129.0, 0.0),
                       interferer_box_min=(-50.0, 171.0, 0.0))

    def test_values_parse_as_their_field_type(self, tmp_path):
        path = tmp_path / "types.cfg"
        path.write_text("M = 12\ne_mse = 0\nue_center = 30, 150, 0\n")
        cfg = load_scenario(str(path))
        assert type(cfg.m) is int and type(cfg.e_mse) is float
        assert cfg.ue_center == (30.0, 150.0, 0.0)
        path.write_text("M = 12.5\n")
        with pytest.raises(ParseError, match="line 1"):
            load_scenario(str(path))

    def test_power_constants_out_of_range_rejected(self):
        # the one check of the power model's constants: eta1 in (0, 1],
        # xi >= 1, A_max >= 1, and powers that are positive in watts
        for name, value in (("eta1", 1.5), ("eta1", 0.0), ("xi", 0.5), ("a_max_db", -1.0),
                            ("p_max_dbm", -3300.0), ("noise_dbm", -3300.0),
                            ("p_dc_dbm", -3300.0), ("p_sc_dbm", -3300.0)):
            with pytest.raises(ValidationError, match=name):
                ScenarioConfig(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("p_j_dbm", 5000.0), ("p_i_dbm", 5000.0), ("p_max_dbm", 5000.0), ("a_max_db", 1e5),
        ("zeta0_db", 5000.0), ("zeta0_db", -5000.0), ("p_j_dbm", -3300.0),
    ])
    def test_db_values_out_of_float_range_rejected(self, name, value):
        # 0 or an overflow once converted out of dB: every trial would fail on it
        with pytest.raises(ValidationError, match=f"^{name} = "):
            ScenarioConfig(**{name: value})

    @pytest.mark.parametrize("overrides", [{"e_mse": "0.1"}, {"bs_pos": ("a", 1, 2)},
                                           {"p_max_dbm": 1j}, {"rwp_b": (1.0, None, 2.0)},
                                           {"e_mse": False}, {"p_max_dbm": True}])
    def test_non_numbers_rejected(self, overrides):
        with pytest.raises(ValidationError, match="must be a finite real number"):
            risjam.paper_profile(**overrides)

    def test_negative_e_mse_rejected(self):
        # the one check of the CSI error variance: the realization sampler
        # trusts it
        with pytest.raises(ValidationError, match="e_mse"):
            ScenarioConfig(e_mse=-0.1)

    def test_counts_must_be_integers(self):
        # a bool is an int by subclass, but not a count
        assert issubclass(ValidationError, ValueError)
        for name, value in (("m", 3.0), ("b", 3.0), ("trials", 3.0), ("m", True), ("trials", True)):
            with pytest.raises(ValidationError, match="integer"):
                ScenarioConfig(**{name: value})

    def test_readme_table_names_every_field(self):
        # the README's scenario table and the ScenarioConfig schema stay in step
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Scenario files", 1)[1].split("\n## ", 1)[0]
        keys = {key.strip().strip("`").lower()
                for row in section.splitlines() if row.startswith("| `")
                for key in row.split("|")[1].split(",")}
        assert keys == {f.name for f in fields(ScenarioConfig)}

    def test_desk_profile_counts(self):
        cfg = risjam.desk_profile()
        assert (cfg.n, cfg.k, cfg.q, cfg.b, cfg.m, cfg.trials) == (4, 2, 1, 2, 8, 50)


class TestRunTrial:
    def test_determinism(self):
        cfg = micro_cfg()
        r1 = run_trial(cfg, "active-harvesting", 3)
        r2 = run_trial(cfg, "active-harvesting", 3)
        assert r1.rate_bits == r2.rate_bits
        assert r1.report.best_objective_bits == r2.report.best_objective_bits

    def test_unknown_scheme(self):
        with pytest.raises(ValidationError, match="scheme"):
            run_trial(micro_cfg(), "psychic-ris", 0)

    @pytest.mark.parametrize("index", [-1, 1.5, "0", True])
    def test_bad_index_rejected_before_any_draw(self, index, monkeypatch):
        draws = []
        monkeypatch.setattr(harness, "sample_static_channels", lambda *args: draws.append(args))
        with pytest.raises(ValidationError, match="trial index"):
            run_trial(micro_cfg(), "no-ris", index)
        assert draws == []

    @pytest.mark.parametrize("scheme, module, solve, error", [
        ("active-harvesting", optimizer, "solve_w2", optimizer.EnergyInfeasible),
        ("active-harvesting", numerics, "solve_beams_halfspace", numerics.Infeasible),
        ("passive-ris", numerics, "unit_modulus_mm", numerics.MaxIterExceeded),
        ("no-ris", numerics, "solve_beams", numerics.MaxIterExceeded),
    ])
    def test_failure_names_its_scheme_and_trial(self, monkeypatch, scheme, module, solve, error):
        # a solver failure leaves the trial as its own type, led by the
        # scheme and the trial index, with the original as its cause
        def fail(*args, **kwargs):
            raise error("the solve failed")

        monkeypatch.setattr(module, solve, fail)
        with pytest.raises(error, match=f"^{scheme} trial 3: the solve failed$") as info:
            run_trial(micro_cfg(), scheme, 3)
        assert type(info.value) is error and type(info.value.__cause__) is error
        assert str(info.value.__cause__) == "the solve failed"

    def test_paired_channels_across_schemes(self):
        cfg = micro_cfg()
        ss1, _, ev1 = harness._trial_seeds(cfg, 5)
        ss2, _, ev2 = harness._trial_seeds(cfg, 5)
        cs1 = sample_static_channels(cfg, np.random.default_rng(ss1))
        cs2 = sample_static_channels(cfg, np.random.default_rng(ss2))
        np.testing.assert_array_equal(cs1.g_br, cs2.g_br)
        np.testing.assert_array_equal(cs1.z_jam, cs2.z_jam)

    def test_no_ris_no_adversaries_matches_wmmse(self):
        # Q = B = 0: the no-RIS scheme is plain multiuser beamforming
        cfg = micro_cfg(n=4, k=2, q=0, b=0, r_max=40, heldout=4, noise_dbm=-60.0)
        res = run_trial(cfg, "no-ris", 1)
        ss_chan, _, _ = harness._trial_seeds(cfg, 1)
        cs = sample_static_channels(cfg, np.random.default_rng(ss_chan))
        _, rate_ref = wmmse_sum_rate(cs.h_bu, cfg.power_model().p_max, cfg.power_model().noise)
        assert res.rate_bits == pytest.approx(rate_ref, rel=0.02)

    @pytest.mark.parametrize("e_mse", [0.0, 0.1])
    def test_noris_view_keeps_the_full_channel_rate(self, monkeypatch, e_mse):
        # a no-RIS trial runs on the view without RIS elements; the same AO
        # (theta empty from the start) and held-out scoring on the full
        # channels, which also draw the jammer-RIS links, give bitwise the
        # same rate, as those links are drawn last
        cfg = risjam.paper_profile(e_mse=e_mse, r_max=15, heldout=20)
        start = optimizer.initial_state
        monkeypatch.setattr(optimizer, "initial_state",
                            lambda cs, pm, harvest: start(cs.without_ris(), pm, harvest))
        for trial in range(2):
            ss_chan, ss_opt, ss_eval = harness._trial_seeds(cfg, trial)
            cs = sample_static_channels(cfg, np.random.default_rng(ss_chan))
            st = optimizer._alternate(cs, cfg, ss_opt, harvest=False).state
            heldout = sample_uncertain_realization(cs, e_mse, np.random.default_rng(ss_eval), cfg.heldout)
            assert st.theta.size == 0 and heldout.g_jr.shape[2] == cfg.m
            want = system.sum_rate(st.tau, st.w1, st.w2, st.theta, heldout, cs, cfg.power_model().noise)
            assert run_trial(cfg, "no-ris", trial).rate_bits == want

    @pytest.mark.parametrize("scheme, built", [("active-harvesting", 1), ("passive-ris", 1), ("no-ris", 2)])
    def test_trial_builds_each_channel_set_once(self, monkeypatch, scheme, built):
        # the sampled set, and for no-RIS its view without RIS elements:
        # a set without them is its own view, so baseline_noris builds none
        sets = []
        derive = ChannelSet.__post_init__

        def post_init(cs):
            sets.append(cs)
            derive(cs)

        cfg = risjam.desk_profile()
        monkeypatch.setattr(ChannelSet, "__post_init__", post_init)
        run_trial(cfg, scheme, 0)
        assert len(sets) == built
        assert sets[-1].g_br.shape[0] == (0 if scheme == "no-ris" else cfg.m)

    def test_feasible_and_converged_flags(self):
        cfg = micro_cfg(r_max=30)
        for scheme in SCHEMES:
            res = run_trial(cfg, scheme, 0)
            assert res.report.feasibility.all_ok
            assert res.report.iterations <= cfg.r_max


    def test_stage1_power_within_cap(self):
        # desk profile, seed 44, trial 12: the stage-1 power multiplier once
        # landed 1e-7 relative above P_max, past the feasibility tolerance
        res = run_trial(risjam.desk_profile(seed=44), "active-harvesting", 12)
        assert res.report.feasibility.all_ok

    @pytest.mark.parametrize("profile", [risjam.desk_profile, risjam.paper_profile])
    def test_binding_amplitude_caps(self, profile):
        # A_max = 3 dB: the reflection caps bind, so the active theta solve
        # leaves its cap-free fast path for the accelerated MM route
        cfg = profile(a_max_db=3.0)
        for trial in range(4):
            report = run_trial(cfg, "active-harvesting", trial).report
            amp = np.abs(report.state.theta)
            assert report.feasibility.all_ok
            assert amp.max() <= cfg.power_model().a_max * (1 + 1e-9)
            assert amp.max() >= cfg.power_model().a_max * (1 - 1e-6)


class TestBaselines:
    def _setup(self, seed=0, **kw):
        cfg = micro_cfg(**kw)
        cs = sample_static_channels(cfg, np.random.default_rng(seed))
        return cfg, cs

    def test_passive_unit_modulus_output(self):
        cfg, cs = self._setup(m=6, r_max=10)
        rep = baseline_passive(cs, cfg, np.random.SeedSequence(1))
        np.testing.assert_allclose(np.abs(rep.state.theta), 1.0, atol=1e-12)

    def test_passive_counts_mm_steps(self, monkeypatch):
        cfg, cs = self._setup(m=6, r_max=10, e_mse=0.1)
        steps, starts, ends = [], [], []
        solve = risjam.numerics.unit_modulus_mm

        def recorded(gamma, lam, theta0, *args, **kw):
            theta, n = solve(gamma, lam, theta0, *args, **kw)
            starts.append(theta0.copy())
            ends.append(theta)
            steps.append(n)
            return theta, n

        monkeypatch.setattr(risjam.numerics, "unit_modulus_mm", recorded)
        rep = baseline_passive(cs, cfg, np.random.SeedSequence(1))
        assert steps and rep.theta_steps == sum(steps)
        assert rep.theta_capped == 0
        # each solve is warm-started where the previous one ended
        start = optimizer.initial_state(cs, cfg.power_model(), harvest=False).theta
        for theta0, theta in zip(starts, ends):
            np.testing.assert_array_equal(theta0, start)
            start = theta
        # a solve that reaches the step cap is counted, and its theta kept
        monkeypatch.setattr(optimizer, "THETA_MM_MAX_ITER", 1)
        steps.clear()
        rep = baseline_passive(cs, cfg, np.random.SeedSequence(1))
        assert rep.theta_capped == rep.theta_steps == len(steps)
        np.testing.assert_allclose(np.abs(rep.state.theta), 1.0, atol=1e-12)

    def test_passive_without_elements_equals_noris(self):
        # no-RIS is the passive scheme with an empty theta (e_mse = 0: the
        # M = 0 view consumes no draws, so both see the same realizations)
        cfg, cs = self._setup()
        rep_p = baseline_passive(cs.without_ris(), cfg, np.random.SeedSequence(2))
        rep_n = baseline_noris(cs, cfg, np.random.SeedSequence(2))
        assert rep_p.objective_bits == rep_n.objective_bits

    @pytest.mark.parametrize("profile, kw", [
        (risjam.desk_profile, {}),
        (risjam.desk_profile, {"e_mse": 0.1, "b": 0}),
        (risjam.paper_profile, {}),
        (risjam.desk_profile, {"e_mse": 0.1}),
        (risjam.paper_profile, {"e_mse": 0.1}),
    ])
    def test_active_on_m0_view_reproduces_noris_trace(self, profile, kw):
        # without elements the active scheme has tau = 0 and an empty theta;
        # the jammer-RIS links are drawn last, so the view takes the same
        # jammer and interferer draws as the full channels
        cfg = profile(r_max=15, **kw)
        for trial in range(2):
            ss_chan, ss_opt, _ = harness._trial_seeds(cfg, trial)
            cs = sample_static_channels(cfg, np.random.default_rng(ss_chan))
            rep_a = risjam.ssca_ao(cs.without_ris(), cfg, ss_opt)
            rep_n = baseline_noris(cs, cfg, harness._trial_seeds(cfg, trial)[1])
            assert rep_a.objective_nats == rep_n.objective_nats
            assert rep_a.state.tau == 0.0

    def test_noris_trial_skips_stage1(self, monkeypatch):
        # no-RIS runs the shared AO loop without harvesting: no stage-1 solve,
        # tau = 0, one beam set for the whole period, no reflection
        calls = {"n": 0}
        solve_w1 = optimizer.solve_w1

        def counted(*args, **kw):
            calls["n"] += 1
            return solve_w1(*args, **kw)

        monkeypatch.setattr(optimizer, "solve_w1", counted)
        cfg = micro_cfg(e_mse=0.1)
        run_trial(cfg, "active-harvesting", 0)
        assert calls["n"] > 0  # the AO loop looks the block up at call time
        calls["n"] = 0
        ss_chan, ss_opt, _ = harness._trial_seeds(cfg, 0)
        cs = sample_static_channels(cfg, np.random.default_rng(ss_chan))
        rep = baseline_noris(cs, cfg, ss_opt)
        assert calls["n"] == 0
        assert rep.state.tau == 0.0
        np.testing.assert_array_equal(rep.state.w1, rep.state.w2)
        assert rep.state.theta.shape == (0,)
        assert rep.feasibility.all_ok

    def test_noris_ignores_ris_channels(self):
        cfg, cs = self._setup()
        cs_big = replace(cs, g_br=cs.g_br * 100.0, h_ru=cs.h_ru * 100.0)
        rep_a = baseline_noris(cs, cfg, np.random.SeedSequence(3))
        rep_b = baseline_noris(cs_big, cfg, np.random.SeedSequence(3))
        assert rep_a.objective_bits == rep_b.objective_bits

    def test_reports_feasible(self):
        cfg, cs = self._setup(r_max=12)
        for fn in (baseline_passive, baseline_noris):
            rep = fn(cs, cfg, np.random.SeedSequence(4))
            assert rep.feasibility.all_ok


# paper-profile scenarios at the edges of the parameter space
EDGES = {
    "M=1": {"m": 1},
    "Q=B=0": {"q": 0, "b": 0},
    "P_max=10dBm": {"p_max_dbm": 10.0},
    "M=100": {"m": 100},
    "e_mse=0.5": {"e_mse": 0.5},
    "A_max=0dB": {"a_max_db": 0.0},
    "noise=-80dBm": {"noise_dbm": -80.0},
    "A_max=3dB,e_mse=0.1": {"a_max_db": 3.0, "e_mse": 0.1},
}


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("edge", EDGES)
def test_edge_scenarios_keep_the_invariants(edge, scheme):
    """One seeded trial per edge and scheme, with no timing assertion: it
    runs without an exception, and its report has every slack within
    -1e-8, an energy-tight tau in every iteration, no theta solve stopped
    by the step cap, and a finite held-out rate."""
    cfg = risjam.paper_profile(**EDGES[edge])
    res = run_trial(cfg, scheme, 0)
    report = res.report
    feas = report.feasibility
    slacks = (feas.power1_slack, feas.power2_slack, feas.energy_slack, feas.amplitude_slack)
    assert min(slacks) >= -1e-8
    assert max(report.tau_tightness, default=0.0) <= 1e-12
    assert report.theta_capped == 0
    assert np.isfinite(res.rate_bits)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("e_mse", [0.0, 0.1])
@pytest.mark.parametrize("profile", [risjam.desk_profile, risjam.paper_profile])
def test_single_antenna_active_trials_run(profile, e_mse):
    """A single-antenna BS (N = 1): the stage-1 half-space touches the power
    ball at the current beams, and every active trial still ends feasible
    with a finite held-out rate."""
    cfg = profile(n=1, e_mse=e_mse)
    for trial in range(10):
        res = run_trial(cfg, "active-harvesting", trial)
        assert np.isfinite(res.rate_bits)
        assert res.report.feasibility.all_ok


AO_BLOCKS = ("draw", "objective", "tau", "aux1", "w1", "aux2", "w2", "theta")


@pytest.mark.parametrize("e_mse", [0.0, 0.1])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_block_timings_fit_in_the_optimizer_call(monkeypatch, scheme, e_mse):
    """AoReport.timings of desk trials 0-2: all eight blocks, none negative,
    the harvesting blocks never charged without harvesting, and a sum no
    larger than the wall time around the scheme's optimizer call."""
    walls = []
    for name in ("ssca_ao", "baseline_passive", "baseline_noris"):
        def timed(cs, cfg, rng, optimize=getattr(harness, name)):
            t0 = time.perf_counter()
            report = optimize(cs, cfg, rng)
            walls.append(time.perf_counter() - t0)
            return report
        monkeypatch.setattr(harness, name, timed)
    cfg = risjam.desk_profile(e_mse=e_mse)
    for trial in range(3):
        timings = run_trial(cfg, scheme, trial).report.timings
        assert sorted(timings) == sorted(AO_BLOCKS)
        assert min(timings.values()) >= 0.0
        if scheme != "active-harvesting":
            assert timings["tau"] == timings["aux1"] == timings["w1"] == 0.0
        assert sum(timings.values()) <= walls[-1]
    assert len(walls) == 3


# every power of a scenario in dBm: the BS budget, the jamming and
# interference powers, the noise level and the RIS's static load per element
DBM_FIELDS = ("p_max_dbm", "p_j_dbm", "p_i_dbm", "noise_dbm", "p_dc_dbm", "p_sc_dbm")


@pytest.mark.parametrize("profile", [risjam.desk_profile, risjam.paper_profile])
def test_trials_keep_their_rates_when_every_power_shifts(profile):
    """Metamorphic test at config level: the rates are ratios of powers and
    the energy constraints are linear in them, so shifting every dBm power
    of the scenario by the same amount scales the whole problem, and each
    trial keeps its held-out rate and its AO iteration count."""
    cfg = profile(e_mse=0.1)
    want = {(scheme, trial): run_trial(cfg, scheme, trial) for scheme in SCHEMES for trial in range(2)}
    for shift in (7.0, -13.0):
        moved = replace(cfg, **{f: getattr(cfg, f) + shift for f in DBM_FIELDS})
        for (scheme, trial), res in want.items():
            got = run_trial(moved, scheme, trial)
            assert got.rate_bits == pytest.approx(res.rate_bits, rel=1e-12, abs=0.0)
            assert got.report.iterations == res.report.iterations


class TestRunSweep:
    @pytest.mark.parametrize("axis, values, schemes, jobs", [
        ("iterations", [6, 8], ["no-ris"], 1),   # the trace takes no values
        ("B", [], ["no-ris"], 1),                # a value axis needs values
        ("B", [2], [], 1),                       # no scheme
        ("iterations", [], [], 1),
        ("B", [2], ["no-ris"], 0),               # jobs < 1
        ("temperature", [1, 2], ["no-ris"], 1),  # unknown axis
        ("B", [2], ["psychic-ris"], 1),          # unknown scheme
        ("B", [2], ["no-ris"], 1.5),             # jobs not an integer
        ("P_max", ["x"], ["no-ris"], 1),         # a value that is not a number
        ("B", [True], ["no-ris"], 1),            # a bool is not a count
        ("B", [2], ["no-ris"], True),            # nor a number of jobs
    ])
    def test_bad_sweeps_rejected_before_any_trial(self, axis, values, schemes, jobs, tmp_path, monkeypatch):
        trials = []
        monkeypatch.setattr(harness, "run_trial", lambda *args: trials.append(args))
        with pytest.raises(ValidationError):
            run_sweep(micro_cfg(trials=1), axis, values, schemes=schemes, jobs=jobs,
                      out=str(tmp_path / "never.csv"))
        assert trials == []
        assert list(tmp_path.iterdir()) == []  # no CSV written

    @pytest.mark.parametrize("out", [".", "missing/never.csv"])
    def test_bad_out_rejected_before_any_trial(self, out, tmp_path, monkeypatch):
        # a directory, or a file in a missing directory: checked with the sweep
        trials = []
        monkeypatch.setattr(harness, "run_trial", lambda *args: trials.append(args))
        with pytest.raises(ValidationError, match="out must name a file"):
            run_sweep(micro_cfg(trials=1), "B", [2], schemes=["no-ris"], out=str(tmp_path / out))
        assert trials == []
        assert list(tmp_path.iterdir()) == []  # no CSV written, no directory created

    def test_per_trial_data_and_csv_statistics(self, tmp_path):
        cfg = micro_cfg(trials=3)
        schemes = ["no-ris", "passive-ris"]
        out = tmp_path / "sweep.csv"
        res = run_sweep(cfg, "B", [1, 2], schemes=schemes, out=str(out))
        for value in (1, 2):
            cfg_v = harness._apply_axis(cfg, "B", value)
            for scheme in schemes:
                trials = [run_trial(cfg_v, scheme, i) for i in range(3)]
                assert list(res.rates[(value, scheme)]) == [t.rate_bits for t in trials]
                assert (list(res.objectives[(value, scheme)])
                        == [t.report.best_objective_bits for t in trials])
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        assert len(rows) == 4
        for axis, value, scheme, mean, stderr, trials, seed, objective in rows:
            rates = res.rates[(int(value), scheme)]
            assert (axis, trials, seed) == ("B", "3", str(cfg.seed))
            assert float(mean) == pytest.approx(np.mean(rates), rel=1e-5)
            assert float(stderr) == pytest.approx(np.std(rates, ddof=1) / np.sqrt(3), rel=1e-5)
            assert float(objective) == pytest.approx(np.mean(res.objectives[(int(value), scheme)]),
                                                     rel=1e-5)

    def test_csv_byte_identical(self, tmp_path):
        cfg = micro_cfg(trials=3)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_sweep(cfg, "B", [1, 2], schemes=["no-ris", "passive-ris"], out=str(p1))
        run_sweep(cfg, "B", [1, 2], schemes=["no-ris", "passive-ris"], out=str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_header_and_rows(self, tmp_path):
        cfg = micro_cfg(trials=2)
        out = tmp_path / "sweep.csv"
        run_sweep(cfg, "M", [2, 3], schemes=["no-ris"], out=str(out))
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "axis,value,scheme,mean_rate_bits,stderr,trials,seed,objective_bits"
        assert len(lines) == 1 + 2  # one row per (value, scheme)
        assert lines[1].startswith("M,2,no-ris,")

    def test_iterations_axis_trace(self, tmp_path):
        cfg = micro_cfg(r_max=8)
        out = tmp_path / "trace.csv"
        res = run_sweep(cfg, "iterations", [], schemes=["active-harvesting"], out=str(out))
        assert res.axis == "iterations"
        assert res.values[0] == 1
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + len(res.values)

    def test_axis_application(self):
        cfg = micro_cfg()
        assert harness._apply_axis(cfg, "M", 5).m == 5
        assert harness._apply_axis(cfg, "e_mse", 0.2).e_mse == 0.2
        assert harness._apply_axis(cfg, "P_max", 30.0).p_max_dbm == 30.0
        a = harness._apply_axis(cfg, "alpha_r", 2.4)
        assert a.alpha_br == 2.4 and a.alpha_ru == 2.4
        assert harness._apply_axis(cfg, "B", 3).b == 3

    def test_integer_axes_reject_fractions(self):
        cfg = micro_cfg()
        assert harness._apply_axis(cfg, "B", 2.0).b == 2
        for axis in ("M", "B"):
            with pytest.raises(ValueError, match="integer"):
                harness._apply_axis(cfg, axis, 2.7)

    def test_stderr_scaling(self):
        # standard error falls like 1/sqrt(trials)
        stderrs = {}
        for trials in (25, 100, 400):
            cfg = micro_cfg(trials=trials, e_mse=0.1, r_max=4, heldout=4)
            res = run_sweep(cfg, "B", [1], schemes=["no-ris"])
            stderrs[trials] = next(res.rows())[4]
        assert stderrs[25] > stderrs[100] > stderrs[400]
        ratio = stderrs[25] / stderrs[400]
        assert 2.0 < ratio < 8.0  # ideal 4.0

    def test_parallel_merge_deterministic(self, tmp_path):
        cfg = micro_cfg(trials=4)
        for axis, values in (("B", [1, 2]), ("e_mse", [0.1])):
            p1, p2 = tmp_path / f"s-{axis}.csv", tmp_path / f"p-{axis}.csv"
            run_sweep(cfg, axis, values, jobs=1, out=str(p1))
            run_sweep(cfg, axis, values, jobs=2, out=str(p2))
            assert p1.read_bytes() == p2.read_bytes()

    def test_one_pool_per_sweep(self, monkeypatch):
        pools = []

        class CountedPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kw):
                pools.append(self)
                super().__init__(*args, **kw)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
        res = run_sweep(micro_cfg(trials=2), "B", [1, 2, 3], schemes=["no-ris"], jobs=2)
        assert len(pools) == 1
        assert len(res.rates) == 3


class TestCli:
    @pytest.mark.parametrize("argv", [
        ["--scheme", "bogus"],
        ["--sweep", "temperature", "--values", "1"],
        ["--profile", "desk", "--sweep", "B", "--values", "2,2.7", "--scheme", "no-ris"],
        ["--profile", "desk", "--sweep", "M", "--values", "4.5", "--scheme", "no-ris"],
        ["--profile", "desk", "--sweep", "B", "--values", "2,abc", "--scheme", "no-ris"],
        ["--profile", "desk", "--trials", "0"],
        ["--profile", "desk", "--seed", "-1"],
        ["--profile", "desk", "--seed", "-1", "--jobs", "2"],
        ["--profile", "desk", "--jobs", "0"],
        ["--profile", "desk", "--jobs", "-1"],
        ["--scenario", "{tmp}/negative_seed.cfg"],
        ["--scenario", "{tmp}/unparsable.cfg"],
        ["--scenario", "{tmp}/missing.cfg"],
        ["--profile", "desk", "--sweep", "M", "--values", "0", "--scheme", "no-ris"],
        ["--profile", "desk", "--sweep", "alpha_r", "--values", "10", "--scheme", "no-ris"],
        ["--profile", "desk", "--sweep", "e_mse", "--values", "-0.1", "--scheme", "no-ris"],
        ["--profile", "desk", "--sweep", "e_mse", "--values", "nan", "--scheme", "no-ris"],
        ["--profile", "desk", "--sweep", "B", "--scheme", "no-ris"],
        ["--profile", "desk", "--scenario", "{tmp}/nan_e_mse.cfg", "--scheme", "no-ris"],
        ["--profile", "desk", "--scenario", "{tmp}/short_center.cfg", "--scheme", "no-ris"],
        ["--profile", "desk", "--scenario", "{tmp}/inverted_box.cfg", "--scheme", "no-ris"],
        ["--profile", "desk", "--scenario", "{tmp}/jammer_on_ris.cfg", "--scheme", "no-ris"],
        ["--profile", "desk", "--scenario", "{tmp}/no_user_density.cfg", "--scheme", "no-ris"],
        ["--profile", "desk", "--values", "6,8", "--scheme", "no-ris"],
        ["--profile", "desk", "--sweep", "iterations", "--values", "6,8", "--scheme", "no-ris"],
        ["--profile", "desk", "--scheme", "no-ris", "--out", "{tmp}/missing/x.csv"],
        ["--profile", "desk", "--scheme", "no-ris", "--out", "{tmp}"],
        ["--profile", "desk", "--scenario", "{tmp}/loud_jammer.cfg", "--scheme", "no-ris"],
        ["--profile", "desk", "--scenario", "{tmp}/huge_budget.cfg", "--scheme", "no-ris"],
    ])
    def test_bad_arguments_are_usage_errors(self, argv, tmp_path, capsys, monkeypatch):
        (tmp_path / "negative_seed.cfg").write_text("seed = -4\n")
        (tmp_path / "unparsable.cfg").write_text("this is not a pair\n")
        (tmp_path / "nan_e_mse.cfg").write_text("e_mse = nan\n")
        (tmp_path / "short_center.cfg").write_text("ue_center = 30, 150\n")
        (tmp_path / "inverted_box.cfg").write_text("jammer_box_max = 30, 100, 0\n")
        (tmp_path / "jammer_on_ris.cfg").write_text("jammer_box_min = 0, 40, 10\njammer_box_max = 0, 40, 10\n")
        (tmp_path / "no_user_density.cfg").write_text("rwp_b = 0, 0, 0\n")
        (tmp_path / "loud_jammer.cfg").write_text("p_j_dbm = 5000\n")  # overflows in watts
        (tmp_path / "huge_budget.cfg").write_text("p_max_dbm = 5000\n")
        out = tmp_path / "never.csv"
        argv = [a.format(tmp=tmp_path) for a in argv]
        if "--trials" not in argv:
            argv += ["--trials", "1"]
        if "--out" not in argv:
            argv += ["--out", str(out)]
        trials = []
        monkeypatch.setattr(harness, "run_trial", lambda *args: trials.append(args))
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "missing").exists()
        assert trials == []  # rejected before any trial ran

    def test_sweep_validates_each_config_once(self, monkeypatch):
        # the profile, the --trials/--seed overrides (one replace) and one
        # config per sweep value: run_sweep builds them, the CLI does not
        calls = []
        validate = ScenarioConfig.validate

        def counted(cfg):
            calls.append((cfg.b, cfg.trials, cfg.seed))
            return validate(cfg)

        monkeypatch.setattr(ScenarioConfig, "validate", counted)
        assert cli.main(["--profile", "desk", "--sweep", "B", "--values", "2,4", "--scheme", "no-ris",
                         "--trials", "1", "--seed", "3"]) == 0
        assert calls == [(2, 50, 20240), (2, 1, 3), (2, 1, 3), (4, 1, 3)]

    @pytest.mark.parametrize("where, error", [("run_trial", optimizer.EnergyInfeasible),
                                              ("write_csv", PermissionError)])
    def test_errors_after_trials_start_are_not_usage_errors(self, where, error, monkeypatch, tmp_path):
        # a trial's failure or a failed CSV write leaves main as its own
        # type, not as a usage error (exit 2)
        def fail(*args):
            raise error("late")

        monkeypatch.setattr(harness, where, fail)
        with pytest.raises(error, match="late"):
            cli.main(["--profile", "desk", "--scheme", "no-ris", "--trials", "1",
                      "--out", str(tmp_path / "sweep.csv")])
