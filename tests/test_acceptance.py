"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria 5 (first leg) and 6 assert ordering/shape claims that do not hold in
this model under the prescribed baselines and energy accounting; they are
asserted exactly as stated and fail with the measured numbers.  The
analysis of why is in ROADMAP.md, under "Open items".
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, stats as sstats

import risjam
from risjam import harness, system
from risjam.channel import RwpParams, rwp_nakagami_cdf, rwp_nakagami_pdf, sample_rwp_distance, sample_static_channels
from risjam.optimizer import (
    SaaStats,
    energy_budget,
    ssca_ao,
    solve_theta,
    solve_w2,
    update_aux_stage1,
    update_aux_stage2,
)
from risjam.system import SolverState

from oracles import pg_qcqp_max, project_ball, project_caps_diag_ellipsoid, project_ellipsoid
from test_optimizer import make_instance, surrogate_stage1, surrogate_stage2
from test_system import crand, pm_default


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {name} {detail}")
    return ok


# ---------------------------------------------------------------------------
# shared heavy computations
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def paper_runs():
    cfg = risjam.paper_profile()
    reports = []
    t0 = time.perf_counter()
    for trial in range(20):
        ss_chan, ss_opt, _ = harness._trial_seeds(cfg, trial)
        cs = sample_static_channels(cfg, np.random.default_rng(ss_chan))
        reports.append(ssca_ao(cs, cfg, ss_opt))
    return reports, time.perf_counter() - t0


@pytest.fixture(scope="session")
def desk_ordering():
    cfg = risjam.desk_profile()
    results = {s: [] for s in harness.SCHEMES}
    for trial in range(100):
        for scheme in harness.SCHEMES:
            results[scheme].append(harness.run_trial(cfg, scheme, trial))
    return results


def test_criterion_1_quadratic_transform_identities():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        rng, cs, stats, _ = make_instance(1000 + seed, m=4, q=2, b=2)
        w = crand(rng, 2, 4)
        omega, nu, _ = update_aux_stage1(w, cs, stats, 0.05)
        f1 = surrogate_stage1(w, omega, nu, cs, stats, 0.05)
        worst = max(worst, abs(f1 - np.sum(np.log1p(omega))) / max(1.0, abs(f1)))
        theta = crand(rng, 4)
        omega2, nu2, _ = update_aux_stage2(w, theta, cs, stats, 0.05)
        f2 = surrogate_stage2(w, theta, omega2, nu2, cs, stats, 0.05)
        worst = max(worst, abs(f2 - np.sum(np.log1p(omega2))) / max(1.0, abs(f2)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    assert _report(1, "quadratic-transform identity suite",
                   ok, f"(worst residual {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_tau_tightness():
    cfg = risjam.desk_profile()
    worst = 0.0
    count = 0
    for trial in range(3):
        ss_chan, ss_opt, _ = harness._trial_seeds(cfg, trial)
        cs = sample_static_channels(cfg, np.random.default_rng(ss_chan))
        rep = ssca_ao(cs, cfg, ss_opt)
        assert rep.tau_tightness
        worst = max(worst, max(rep.tau_tightness))
        count += len(rep.tau_tightness)
    ok = worst < 1e-12
    assert _report(2, "tau update keeps the energy constraint tight",
                   ok, f"(worst relative slack {worst:.2e} over {count} updates)")


def test_criterion_3_qcqp_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    # 50 stage-2 beam subproblems
    for seed in range(50):
        rng, cs, stats, _ = make_instance(2000 + seed, n=4, k=2, m=8, q=1, b=2, n_jam=4)
        pm = pm_default(p_max=1.0)
        w = crand(rng, 2, 4)
        w *= np.sqrt(pm.p_max / np.sum(np.abs(w) ** 2))
        st = SolverState(tau=0.5, w1=w * 2.0, w2=w, theta=crand(rng, 8) * 0.4)
        omega2, nu2, h2 = update_aux_stage2(st.w2, st.theta, cs, stats, pm.noise)
        w2 = solve_w2(st.theta, omega2, nu2, h2, energy_budget(st, cs, pm), cs, pm, tol=1e-10)
        f = surrogate_stage2(w2, st.theta, omega2, nu2, cs, stats, pm.noise)
        # oracle on the stacked problem
        h_eff = system.effective_channels(st.theta, cs)
        nu2v = np.abs(nu2) ** 2
        a_blk = (h_eff.T * nu2v[None, :]) @ h_eff.conj()
        a_full = np.kron(np.eye(2), a_blk)
        b_full = ((2.0 * np.sqrt(1.0 + omega2) * nu2)[:, None] * h_eff).ravel()
        e_r = system.harvested_energy(st.w1, st.tau, cs.g_br, pm.eta1)
        p_e = (e_r - 0.5 * 8 * pm.p_static
               - 0.5 * pm.xi * pm.noise * np.sum(np.abs(st.theta) ** 2)) / (0.5 * pm.xi)
        s_blk = cs.g_br.conj().T @ (np.abs(st.theta)[:, None] ** 2 * cs.g_br)
        s_full = np.kron(np.eye(2), s_blk)
        projs = [lambda y: project_ball(y, pm.p_max), lambda y: project_ellipsoid(y, s_full, p_e)]
        x_ref, _ = pg_qcqp_max(a_full, b_full, projs, iters=30000, x0=w2.ravel())
        f_ref = surrogate_stage2(x_ref.reshape(2, 4), st.theta, omega2, nu2, cs, stats, pm.noise)
        worst = max(worst, (f_ref - f) / (1.0 + abs(f_ref)))
    # 50 reflection subproblems
    for seed in range(50):
        rng, cs, stats, _ = make_instance(3000 + seed, n=4, k=2, m=8, q=1, b=2, n_jam=4)
        pm = pm_default(p_max=1.0, a_max=4.0)
        w = crand(rng, 2, 4) * 0.5
        st = SolverState(tau=0.5, w1=crand(rng, 2, 4) * 2.0, w2=w, theta=crand(rng, 8) * 0.5)
        omega2, nu2, _ = update_aux_stage2(st.w2, st.theta, cs, stats, pm.noise)
        th = solve_theta(st, omega2, nu2, energy_budget(st, cs, pm), cs, stats, pm, tol=1e-9)
        f = surrogate_stage2(st.w2, th, omega2, nu2, cs, stats, pm.noise)
        e_r = system.harvested_energy(st.w1, st.tau, cs.g_br, pm.eta1)
        p_e = (e_r - 0.5 * 8 * pm.p_static) / (0.5 * pm.xi)
        mu = st.w2 @ cs.g_br.T
        v = np.sum(np.abs(mu) ** 2, axis=0) + pm.noise
        from risjam.optimizer import theta_quadratic_model
        gamma, lam = theta_quadratic_model(st.w2, omega2, nu2, cs, stats, pm.noise, mu)
        caps = np.full(8, pm.a_max)
        projs = [lambda y: project_caps_diag_ellipsoid(y, caps, v, p_e)]
        x_ref, _ = pg_qcqp_max(gamma, lam, projs, iters=30000, x0=th)
        f_ref = surrogate_stage2(st.w2, x_ref, omega2, nu2, cs, stats, pm.noise)
        worst = max(worst, (f_ref - f) / (1.0 + abs(f_ref)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 60.0
    assert _report(3, "QCQP solutions match the projected-gradient oracle",
                   ok, f"(worst shortfall {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_4_convergence_within_15(paper_runs):
    reports, elapsed = paper_runs
    hits = sum(1 for r in reports if r.converged and r.iterations <= 15)
    ok = hits >= 18 and elapsed < 600.0
    assert _report(4, "paper-scale objective plateaus within 15 iterations",
                   ok, f"({hits}/20 runs, {elapsed:.1f}s)")


def test_criterion_5_scheme_ordering(desk_ordering):
    rates = {s: np.array([r.rate_bits for r in desk_ordering[s]]) for s in harness.SCHEMES}
    d_ap = rates["active-harvesting"] - rates["passive-ris"]
    d_pn = rates["passive-ris"] - rates["no-ris"]
    se_ap = d_ap.std(ddof=1) / np.sqrt(d_ap.size)
    se_pn = d_pn.std(ddof=1) / np.sqrt(d_pn.size)
    leg1 = d_ap.mean() > 3.0 * se_ap
    leg2 = d_pn.mean() > 3.0 * se_pn
    detail = (f"(active-passive {d_ap.mean():+.3f} +/- {se_ap:.3f}, "
              f"passive-noris {d_pn.mean():+.3f} +/- {se_pn:.3f}; "
              "first leg is structurally unattainable with full-period baselines, "
              "see ROADMAP.md, Open items)")
    assert _report(5, "scheme ordering active > passive > no-RIS", leg1 and leg2, detail)


def test_criterion_6_interior_optimum_in_m():
    values = [5, 10, 15, 20, 25, 30, 40, 50]
    cfg = replace(risjam.paper_profile(), trials=24)
    res = harness.run_sweep(cfg, "M", values, schemes=["active-harvesting"])
    curve = np.array([res.rates[(v, "active-harvesting")].mean() for v in values])
    peak = values[int(np.argmax(curve))]
    ok = 15 <= peak <= 40 and peak not in (values[0], values[-1])
    detail = ("(curve " + ", ".join(f"{v:.2f}" for v in curve) +
              f"; peak at M={peak}; the energy economy scales linearly in M, "
              "see ROADMAP.md, Open items)")
    assert _report(6, "interior optimum in the number of elements", ok, detail)


def test_criterion_7_monotone_trends():
    base = risjam.desk_profile(trials=100, r_max=20, heldout=50)
    axes = [
        ("e_mse", [0.0, 0.05, 0.1, 0.2], -1),
        ("P_max", [22.0, 25.0, 29.0, 32.0], +1),
        ("alpha_r", [2.0, 2.2, 2.4, 2.6], -1),
        ("B", [2, 4, 6, 8], -1),
    ]
    all_ok = True
    details = []
    for axis, values, sign in axes:
        res = harness.run_sweep(base, axis, values, schemes=["active-harvesting"])
        curve = [res.rates[(v, "active-harvesting")].mean() for v in values]
        rho = sstats.spearmanr(values, curve).statistic
        ok = sign * rho >= 0.9
        all_ok &= ok
        details.append(f"{axis}: rho={rho:+.2f}")
    assert _report(7, "monotone trends (e_MSE down, P_max up, alpha_R down, B down)",
                   all_ok, "(" + "; ".join(details) + ")")


def test_criterion_8_rwp_pdf_grid():
    t0 = time.perf_counter()
    sets = [risjam.paper_profile().rwp_params()]
    for d_lo in (1.0, 10.0):
        for d_hi in (50.0, 170.0):
            for alpha in (2.0, 2.75):
                for m_n in (1.0, 2.0):
                    sets.append(RwpParams(
                        b_coeffs=np.array([735.0, -1190.0, 455.0]) / 72.0,
                        upsilon=np.array([1.0, 3.0, 5.0]), m_nakagami=m_n,
                        alpha=alpha, d_lower=d_lo, d_upper=d_hi, p_t=1.0, n_f=4))
    worst_norm, worst_ks = 0.0, 0.0
    rng = np.random.default_rng(2024)
    for p in sets:
        scale_hi = p.n_f * p.p_t / p.m_nakagami * p.d_lower ** (-p.alpha)
        scale_lo = p.n_f * p.p_t / p.m_nakagami * p.d_upper ** (-p.alpha)
        edges = np.concatenate([[0.0], np.geomspace(1e-4 * scale_lo, 30.0 * scale_hi, 40)])
        total = sum(integrate.quad(lambda x: rwp_nakagami_pdf(x, p), lo, hi, limit=200)[0]
                    for lo, hi in zip(edges[:-1], edges[1:]))
        total += integrate.quad(lambda x: rwp_nakagami_pdf(x, p), edges[-1], np.inf, limit=200)[0]
        worst_norm = max(worst_norm, abs(total - 1.0))
        n = 1_000_000
        r = sample_rwp_distance(rng, n, p.b_coeffs, p.upsilon, p.d_lower, p.d_upper)
        x = np.sort(rng.gamma(p.n_f * p.m_nakagami, 1.0, size=n) * (p.p_t / p.m_nakagami) * r ** (-p.alpha))
        grid = np.geomspace(x[0] * 0.9, x[-1] * 1.1, 4000)
        cdf = np.interp(x, grid, rwp_nakagami_cdf(grid, p))
        ks = np.max(np.abs(cdf - np.arange(1, n + 1) / n))
        worst_ks = max(worst_ks, ks)
    elapsed = time.perf_counter() - t0
    ok = worst_norm <= 1e-3 and worst_ks < 0.01 and elapsed < 120.0
    assert _report(8, "RWP-Nakagami power density normalization and KS",
                   ok, f"(worst |int-1| {worst_norm:.2e}, worst KS {worst_ks:.4f}, {elapsed:.0f}s)")


def test_criterion_9_feasibility_everywhere(paper_runs, desk_ordering):
    reports, _ = paper_runs
    bad = sum(1 for r in reports if not r.feasibility.all_ok)
    for scheme in harness.SCHEMES:
        bad += sum(1 for r in desk_ordering[scheme] if not r.report.feasibility.all_ok)
    ok = bad == 0
    total = len(reports) + sum(len(v) for v in desk_ordering.values())
    assert _report(9, "all reported solver states feasible (slack >= -1e-8)",
                   ok, f"({total - bad}/{total} states)")


def test_criterion_10_deterministic_csv(tmp_path):
    cfg = risjam.desk_profile(trials=16)
    p1, p2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    harness.run_sweep(cfg, "B", [2, 4], schemes=harness.SCHEMES, out=str(p1))
    harness.run_sweep(cfg, "B", [2, 4], schemes=harness.SCHEMES, out=str(p2))
    ok = p1.read_bytes() == p2.read_bytes()
    assert _report(10, "identical config and seed give byte-identical CSV",
                   ok, f"({p1.stat().st_size} bytes)")
