import numpy as np
import pytest

import risjam
from risjam import numerics, optimizer, system
from risjam.channel import ChannelSet, sample_static_channels, sample_uncertain_realization
from risjam.harness import run_trial
from risjam.optimizer import (
    AoReport,
    DegenerateTau,
    EnergyInfeasible,
    SaaStats,
    initial_state,
    solve_theta,
    solve_w1,
    solve_w2,
    optimal_aux,
    ssca_ao,
    stage2_interference_avg,
    surrogate,
    theta_quadratic_model,
    update_aux_stage1,
    update_aux_stage2,
    update_saa_stats,
    update_tau,
)
from risjam.system import SolverState

from oracles import (adversary_interference_loops, pg_qcqp_max, project_ball, saa_means_loops,
                     uncertain_draw_loops, wmmse_sum_rate)
from test_system import (crand, make_channels, make_realization, permute_realization,
                         permute_users, pm_default)


def surrogate_stage1(w1, omega, nu, cs, stats, noise):
    """f_OF^I: the surrogate on the direct channels, with the averaged
    jamming and interference plus the UE noise as the extra term."""
    return surrogate(cs.h_bu, w1, omega, nu, stats.zbar_i2 + stats.d_abs2 + noise)


def surrogate_stage2(w2, theta, omega, nu, cs, stats, noise):
    """f_OF^II: the surrogate on the effective channels, with the amplified
    RIS noise, the averaged bounced jamming and interference plus the UE
    noise as the extra term."""
    c = system.ris_noise(theta, cs, noise) + stage2_interference_avg(theta, cs, stats) + noise
    return surrogate(system.effective_channels(theta, cs), w2, omega, nu, c)


def make_instance(seed, n=4, m=3, k=2, q=1, b=1, n_jam=2, n_rlz=3, jitter=0.1, scale=1.0):
    """Random channels plus statistics accumulated over a few realizations."""
    rng = np.random.default_rng(seed)
    cs = make_channels(rng, n=n, m=m, k=k, q=q, b=b, n_jam=n_jam, scale=scale)
    stats = SaaStats.empty(k, m)
    rlzs = make_realization(cs, rng, jitter=jitter, count=n_rlz)
    for i in range(n_rlz):  # one draw at a time, as the AO folds them
        update_saa_stats(stats, rlzs[i:i + 1], cs)
    return rng, cs, stats, rlzs


class TestUpdateTau:
    def test_symmetry(self):
        g = np.eye(2, dtype=complex)
        w = np.array([[1.0, 0.0]], dtype=complex)  # ||G w||^2 = 1
        assert update_tau(1.0, w, g, 1.0) == pytest.approx(0.5)

    def test_limit_small_pr(self):
        g = np.eye(2, dtype=complex)
        w = np.array([[1.0, 0.0]], dtype=complex)
        assert update_tau(1e-12, w, g, 1.0) < 1e-11

    def test_direct_substitution(self):
        g = np.eye(2, dtype=complex)
        w = np.array([[1.0, 0.0]], dtype=complex)
        assert update_tau(3.0, w, g, 1.0) == pytest.approx(0.75)

    def test_tightness_identity(self):
        rng = np.random.default_rng(1)
        cs = make_channels(rng)
        w = crand(rng, 2, 4)
        p_r = 0.123
        tau = update_tau(p_r, w, cs.g_br, 0.8)
        e_r = system.harvested_energy(w, tau, cs.g_br, 0.8)
        assert abs(e_r - (1 - tau) * p_r) <= 1e-12 * e_r

    def test_degenerate(self):
        g = np.zeros((2, 2), dtype=complex)
        with pytest.raises(DegenerateTau):
            update_tau(0.0, np.zeros((1, 2), complex), g, 1.0)


class TestAuxStage1:
    def test_single_user_no_jamming(self):
        rng, cs, stats, _ = make_instance(2, k=1, jitter=0.0)
        stats.zbar_i2[:] = 0.0
        stats.d_abs2[:] = 0.0
        w = crand(rng, 1, 4)
        sigma = 0.3
        omega, nu = update_aux_stage1(w, cs, stats, sigma)
        want = abs(np.vdot(cs.h_bu[0], w[0])) ** 2 / sigma
        assert omega[0] == pytest.approx(want, rel=1e-12)

    def test_zero_beam(self):
        _, cs, stats, _ = make_instance(3)
        omega, nu = update_aux_stage1(np.zeros((2, 4), complex), cs, stats, 0.1)
        np.testing.assert_array_equal(omega, 0.0)
        np.testing.assert_array_equal(nu, 0.0)
        assert surrogate_stage1(np.zeros((2, 4), complex), omega, nu, cs, stats, 0.1) == 0.0

    def test_identity(self):
        # f_OF^I at the optimal auxiliaries equals sum ln(1+SINR)
        for seed in range(20):
            rng, cs, stats, _ = make_instance(100 + seed)
            w = crand(rng, 2, 4)
            omega, nu = update_aux_stage1(w, cs, stats, 0.05)
            f = surrogate_stage1(w, omega, nu, cs, stats, 0.05)
            want = float(np.sum(np.log1p(omega)))
            assert abs(f - want) <= 1e-10 * max(1.0, abs(want))


class TestOptimalAux:
    def test_omega_is_the_sinr(self):
        rng = np.random.default_rng(30)
        h, w = crand(rng, 3, 4), crand(rng, 3, 4)
        c = rng.uniform(0.1, 1.0, 3)
        omega, _ = optimal_aux(h, w, c)
        np.testing.assert_allclose(omega, system.sinr(h, w, c), rtol=1e-12)

    def test_surrogate_maximized_at_optimal_aux(self):
        rng = np.random.default_rng(31)
        h, w = crand(rng, 3, 4), crand(rng, 3, 4)
        c = rng.uniform(0.1, 1.0, 3)
        omega, nu = optimal_aux(h, w, c)
        best = surrogate(h, w, omega, nu, c)
        assert best == pytest.approx(float(np.sum(np.log1p(system.sinr(h, w, c)))), rel=1e-12)
        for _ in range(20):
            om = omega * rng.uniform(0.5, 1.5, 3)
            nn = nu * (1.0 + 0.3 * crand(rng, 3))
            assert surrogate(h, w, om, nn, c) <= best + 1e-12 * abs(best)


class TestAuxStage2:
    def test_theta_zero_single_user(self):
        rng, cs, stats, _ = make_instance(4, k=1, jitter=0.0)
        stats.zbar_i2[:] = 0.0
        stats.d_abs2[:] = 0.0
        stats.dt_conj[:] = 0.0
        stats.m_mat[:] = 0.0
        w = crand(rng, 1, 4)
        omega, _ = update_aux_stage2(w, np.zeros(3, complex), cs, stats, 0.4)
        want = abs(np.vdot(cs.h_bu[0], w[0])) ** 2 / 0.4
        assert omega[0] == pytest.approx(want, rel=1e-12)

    def test_zero_beam(self):
        rng, cs, stats, _ = make_instance(5)
        theta = crand(rng, 3)
        omega, nu = update_aux_stage2(np.zeros((2, 4), complex), theta, cs, stats, 0.1)
        np.testing.assert_array_equal(omega, 0.0)
        np.testing.assert_array_equal(nu, 0.0)

    def test_identity(self):
        for seed in range(20):
            rng, cs, stats, _ = make_instance(200 + seed)
            w = crand(rng, 2, 4)
            theta = crand(rng, 3)
            omega, nu = update_aux_stage2(w, theta, cs, stats, 0.05)
            f = surrogate_stage2(w, theta, omega, nu, cs, stats, 0.05)
            want = float(np.sum(np.log1p(omega)))
            assert abs(f - want) <= 1e-10 * max(1.0, abs(want))


def assert_rel(got, want, rtol=1e-12):
    assert np.linalg.norm(np.ravel(got - want)) <= rtol * np.linalg.norm(np.ravel(want))


class TestSaaStats:
    def test_first_update_equals_sample(self):
        rng, cs, _, rlzs = make_instance(6, n_rlz=1, jitter=0.2)
        stats = SaaStats.empty(2, 3)
        update_saa_stats(stats, rlzs[:1], cs)
        d00 = np.vdot(rlzs[0].h_ju[0, 0], rlzs[0].z_j[0, 0])
        assert stats.d_abs2[0] == pytest.approx(abs(d00) ** 2, rel=1e-12)
        t00 = rlzs[0].g_jr[0] @ rlzs[0].z_j[0, 0]
        np.testing.assert_allclose(stats.dt_conj[0], np.conj(d00) * t00, rtol=1e-12)

    def test_idempotent_on_constants(self):
        rng, cs, _, rlzs = make_instance(7, n_rlz=1)
        stats = SaaStats.empty(2, 3)
        update_saa_stats(stats, rlzs[:1], cs)
        snap = stats.d_abs2.copy(), stats.zbar_i2.copy(), stats.dt_conj.copy(), stats.m_mat.copy()
        update_saa_stats(stats, rlzs[:1], cs)
        for got, want in zip((stats.d_abs2, stats.zbar_i2, stats.dt_conj, stats.m_mat), snap):
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_batch_mean_oracle(self):
        # jammer-summed running means against explicit loops over the 50
        # stored draws, users and adversaries
        _, cs, stats, rlzs = make_instance(8, n_rlz=50, jitter=0.3)
        for got, want in zip((stats.d_abs2, stats.dt_conj, stats.m_mat, stats.zbar_i2),
                             saa_means_loops(rlzs, cs.h_ru)):
            assert_rel(got, want)

    @pytest.mark.parametrize("q, b, m", [(3, 2, 4), (0, 2, 3), (2, 0, 3), (2, 2, 0)])
    def test_equals_per_draw_per_user_loops(self, q, b, m):
        _, cs, stats, rlzs = make_instance(8 + q + b, m=m, q=q, b=b, n_rlz=50, jitter=0.3)
        d_abs2, dt, mm, zi = saa_means_loops(rlzs, cs.h_ru)
        assert stats.count == 50
        assert stats.d_abs2.shape == (2,) and stats.dt_conj.shape == (2, m)
        assert stats.m_mat.shape == (2, m, m)
        for got, want in ((stats.d_abs2, d_abs2), (stats.zbar_i2, zi),
                          (stats.dt_conj, dt), (stats.m_mat, mm)):
            assert_rel(got, want)

    def test_without_reflection_skips_ris_terms(self):
        # statistics sized for an empty theta ignore the RIS channels
        _, cs, _, rlzs = make_instance(9, m=3, q=2, n_rlz=4, jitter=0.3)
        full, bare = SaaStats.empty(2, 3), SaaStats.empty(2, 0)
        for i in range(len(rlzs)):
            update_saa_stats(full, rlzs[i:i + 1], cs)
            update_saa_stats(bare, rlzs[i:i + 1], cs)
        np.testing.assert_array_equal(bare.d_abs2, full.d_abs2)
        np.testing.assert_array_equal(bare.zbar_i2, full.zbar_i2)
        assert bare.m_mat.shape == (2, 0, 0)

    def test_permuting_users_permutes_statistics(self):
        _, cs, stats, rlzs = make_instance(10, k=3, m=4, q=2, b=2, n_rlz=5, jitter=0.3)
        perm = np.array([1, 2, 0])
        cs_p = permute_users(cs, perm)
        stats_p = SaaStats.empty(3, 4)
        rlzs_p = permute_realization(rlzs, perm)
        for i in range(len(rlzs_p)):
            update_saa_stats(stats_p, rlzs_p[i:i + 1], cs_p)
        for got, want in ((stats_p.d_abs2, stats.d_abs2), (stats_p.zbar_i2, stats.zbar_i2),
                          (stats_p.dt_conj, stats.dt_conj), (stats_p.m_mat, stats.m_mat)):
            np.testing.assert_allclose(got, want[perm], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("q, b, m", [(3, 2, 4), (0, 2, 3), (2, 0, 3), (2, 2, 0)])
    def test_whole_batch_fold_equals_draw_by_draw(self, q, b, m):
        _, cs, stats, rlzs = make_instance(30 + q + b, m=m, q=q, b=b, n_rlz=12, jitter=0.3)
        whole = update_saa_stats(SaaStats.empty(2, m), rlzs, cs)
        assert whole.count == stats.count == 12
        for got, want in ((whole.d_abs2, stats.d_abs2), (whole.zbar_i2, stats.zbar_i2),
                          (whole.dt_conj, stats.dt_conj), (whole.m_mat, stats.m_mat)):
            assert_rel(got, want)

    @pytest.mark.parametrize("e_mse", [0.0, 0.1])
    @pytest.mark.parametrize("counts", [{}, {"q": 0}, {"b": 0}, {"m": 0}])
    def test_ao_slots_fold_like_the_loops(self, e_mse, counts):
        # one batch sampled up front and folded one draw (one slot of the
        # batch) at a time, as the AO does: the means equal the loops over
        # the draws' channels, and folding the whole batch at once gives
        # the same means
        cfg = risjam.paper_profile(e_mse=e_mse, **{k: v for k, v in counts.items() if k != "m"})
        cs = sample_static_channels(cfg, np.random.default_rng(21))
        if "m" in counts:  # no RIS elements (a config needs at least one)
            cs = cs.without_ris()
        m = cs.m_elements
        rng = np.random.default_rng(22)
        draws = sample_uncertain_realization(cs, e_mse, rng, 10)
        stats = SaaStats.empty(cs.n_users, m)
        for r in range(8):
            update_saa_stats(stats, draws[r:r + 1], cs)
        want = saa_means_loops(draws[:8], cs.h_ru)
        theta = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, m))
        for got, ref in zip(system.adversary_interference(theta, draws[:8], cs),
                            adversary_interference_loops(theta, draws[:8], cs.h_ru)):
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-300)
        for got, ref in zip((stats.d_abs2, stats.dt_conj, stats.m_mat, stats.zbar_i2), want):
            assert_rel(got, ref)
        once = update_saa_stats(SaaStats.empty(cs.n_users, m), draws[:8], cs)
        for got, ref in zip((once.d_abs2, once.dt_conj, once.m_mat, once.zbar_i2), want):
            assert_rel(got, ref)

    def test_m_mat_hermitian_psd(self):
        _, cs, stats, _ = make_instance(9, q=2, n_rlz=7, jitter=0.5)
        for mm in stats.m_mat:
            np.testing.assert_allclose(mm, mm.conj().T, atol=1e-12)
            assert np.linalg.eigvalsh(mm)[0] >= -1e-12


class TestThetaModel:
    def test_matches_surrogate(self):
        # the assembled quadratic model must reproduce f_OF^II(theta) exactly
        for seed in range(8):
            rng, cs, stats, _ = make_instance(300 + seed, m=4, q=2, b=2, n_rlz=4, jitter=0.3)
            w2 = crand(rng, 2, 4)
            th0 = crand(rng, 4)
            omega, nu = update_aux_stage2(w2, th0, cs, stats, 0.07)
            st = SolverState(tau=0.5, w1=w2.copy(), w2=w2, theta=th0,
                             omega2=omega, nu2=nu)
            gamma, lam = theta_quadratic_model(st, cs, stats, 0.07, w2 @ cs.g_br.T)

            def f(th):
                return surrogate_stage2(w2, th, omega, nu, cs, stats, 0.07)

            def model(th):
                return np.real(np.vdot(lam, th)) - np.real(np.vdot(th, gamma @ th))

            const = f(th0) - model(th0)
            for _ in range(4):
                t = crand(rng, 4)
                assert f(t) == pytest.approx(const + model(t), abs=1e-9, rel=1e-9)

    def test_sufficient_statistics_equal_reloop(self):
        # Gamma/Lambda from running means == average of per-realization assemblies
        rng, cs, stats, rlzs = make_instance(10, m=4, q=2, b=2, n_rlz=9, jitter=0.4)
        w2 = crand(rng, 2, 4)
        th = crand(rng, 4)
        omega, nu = update_aux_stage2(w2, th, cs, stats, 0.05)
        st = SolverState(tau=0.5, w1=w2.copy(), w2=w2, theta=th, omega2=omega, nu2=nu)
        mu = w2 @ cs.g_br.T
        gamma, lam = theta_quadratic_model(st, cs, stats, 0.05, mu)

        # re-loop over stored realizations with the per-draw d/t definitions
        k, m = 2, 4
        e_dir = cs.h_bu.conj() @ w2.T
        nu2 = np.abs(nu) ** 2
        gamma_ref = np.zeros((m, m), dtype=complex)
        lam_ref = np.zeros(m, dtype=complex)
        for ik in range(k):
            v = np.conj(mu) * cs.h_ru[ik][None, :]
            gamma_ref += nu2[ik] * (v.T @ v.conj())
            gamma_ref += nu2[ik] * 0.05 * np.diag(np.abs(cs.h_ru[ik]) ** 2)
            lam_ref += 2 * np.sqrt(1 + omega[ik]) * nu[ik] * (cs.h_ru[ik] * np.conj(mu[ik]))
            lam_ref -= 2 * nu2[ik] * np.einsum("j,jm->m", e_dir[ik], np.conj(mu)) * cs.h_ru[ik]
        for ik in range(k):
            jam_g = np.zeros((m, m), dtype=complex)
            jam_l = np.zeros(m, dtype=complex)
            for rlz in rlzs:
                for iq in range(rlz.h_ju.shape[0]):
                    d = np.vdot(rlz.h_ju[iq, ik], rlz.z_j[iq, ik])
                    t = rlz.g_jr[iq] @ rlz.z_j[iq, ik]
                    u = np.conj(t) * cs.h_ru[ik]
                    jam_g += np.outer(u, np.conj(u))
                    jam_l += cs.h_ru[ik] * np.conj(np.conj(d) * t)
            gamma_ref += nu2[ik] * jam_g / len(rlzs)
            lam_ref -= 2 * nu2[ik] * jam_l / len(rlzs)
        np.testing.assert_allclose(gamma, gamma_ref, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(lam, lam_ref, rtol=1e-10, atol=1e-12)


class TestSolveW1:
    def _state(self, cs, stats, pm, rng, tau=0.5):
        w = crand(rng, cs.n_users, cs.n_antennas)
        w *= np.sqrt(pm.p_max / np.sum(np.abs(w) ** 2))
        st = SolverState(tau=tau, w1=w, w2=w.copy(), theta=np.zeros(cs.m_elements, complex))
        st.omega1, st.nu1 = update_aux_stage1(st.w1, cs, stats, pm.noise)
        return st

    def test_single_user_mrt(self):
        rng, cs, stats, _ = make_instance(11, k=1, jitter=0.0)
        stats.zbar_i2[:] = 0.0
        stats.d_abs2[:] = 0.0
        # noise comparable to the signal so the QT fixed-point iteration
        # reaches the power boundary in a handful of rounds
        pm = pm_default(noise=0.5)
        st = self._state(cs, stats, pm, rng)
        st.theta[:] = 0.0  # p_r = static only, zero elements -> 0
        for _ in range(40):  # alternate aux and solve to the QT fixed point
            st.omega1, st.nu1 = update_aux_stage1(st.w1, cs, stats, pm.noise)
            st.w1 = solve_w1(st, cs, stats, pm)
        mrt = np.sqrt(pm.p_max) * cs.h_bu[0] / np.linalg.norm(cs.h_bu[0])
        align = abs(np.vdot(st.w1[0], mrt)) / (np.linalg.norm(st.w1[0]) * np.linalg.norm(mrt))
        assert align == pytest.approx(1.0, abs=1e-9)
        assert np.sum(np.abs(st.w1) ** 2) == pytest.approx(pm.p_max, rel=1e-6)

    def test_interior_lambda_zero(self):
        # no RIS (p_r = 0, energy constraint vacuous) and strong auxiliaries:
        # the unconstrained stationary beams sit inside the ball, lambda1 = 0
        rng, cs, stats, _ = make_instance(12, m=1)
        cs.g_br[:] = 0.0  # K1 = 0: the harvest linearization never binds
        pm = pm_default(p_max=50.0, noise=0.2)
        st = self._state(cs, stats, pm, rng)
        st.theta = np.zeros(0, dtype=complex)  # drops the static draw entirely
        st.omega1, st.nu1 = update_aux_stage1(st.w1, cs, stats, pm.noise)
        st.nu1 = st.nu1 * 4.0  # strong quadratic term: small interior optimum
        w = solve_w1(st, cs, stats, pm, i_max=1)
        assert np.sum(np.abs(w) ** 2) < pm.p_max * (1 - 1e-6)
        nu2 = np.abs(st.nu1) ** 2
        a = (cs.h_bu.T * nu2[None, :]) @ cs.h_bu.conj()
        b_half = (np.sqrt(1 + st.omega1) * st.nu1)[:, None] * cs.h_bu
        w_ref = np.linalg.pinv(a, rcond=1e-10) @ b_half.T
        np.testing.assert_allclose(w, w_ref.T, rtol=1e-6, atol=1e-10)

    def test_power_binding_within_1e6(self):
        rng, cs, stats, _ = make_instance(13, scale=3.0)
        pm = pm_default(p_max=0.5)
        st = self._state(cs, stats, pm, rng)
        st.omega1, st.nu1 = update_aux_stage1(st.w1, cs, stats, pm.noise)
        # strong auxiliaries: optimum wants more power than allowed
        st.nu1 = st.nu1 * 50.0
        w = solve_w1(st, cs, stats, pm, i_max=1)
        assert np.sum(np.abs(w) ** 2) == pytest.approx(pm.p_max, rel=1e-6)

    def test_power_never_exceeds_cap(self):
        # the power multiplier search ends on the feasible side of its bracket
        worst = -np.inf
        for seed in range(40):
            rng, cs, stats, _ = make_instance(300 + seed, m=4, scale=3.0)
            pm = pm_default(p_max=float(rng.uniform(0.1, 2.0)))
            st = self._state(cs, stats, pm, rng, tau=float(rng.uniform(0.3, 0.7)))
            st.theta = crand(rng, 4) * 0.3
            st.nu1 = st.nu1 * float(rng.uniform(5.0, 100.0))  # the ball binds
            w = solve_w1(st, cs, stats, pm)
            worst = max(worst, np.sum(np.abs(w) ** 2) / pm.p_max - 1.0)
        assert worst <= 1e-12
        assert worst >= -1e-8  # the cap was binding, not slack

    def test_sca_surrogate_monotone(self):
        rng, cs, stats, _ = make_instance(14, m=4)
        pm = pm_default()
        st = self._state(cs, stats, pm, rng, tau=0.6)
        st.theta = crand(rng, 4)
        st.omega1, st.nu1 = update_aux_stage1(st.w1, cs, stats, pm.noise)
        vals = []
        w = st.w1.copy()
        for _ in range(6):
            st.w1 = w
            w = solve_w1(st, cs, stats, pm, i_max=1)
            vals.append(surrogate_stage1(w, st.omega1, st.nu1, cs, stats, pm.noise))
        diffs = np.diff(vals)
        assert np.all(diffs >= -1e-9 * np.maximum(1.0, np.abs(vals[1:])))

    def test_pg_oracle_on_p2c(self):
        # one linearized subproblem against a projected-gradient oracle
        rng, cs, stats, _ = make_instance(15)
        pm = pm_default(p_max=0.8)
        st = self._state(cs, stats, pm, rng, tau=0.55)
        st.theta = crand(rng, 3) * 0.2
        st.omega1, st.nu1 = update_aux_stage1(st.w1, cs, stats, pm.noise)
        w_new = solve_w1(st, cs, stats, pm, i_max=1)
        f_solver = surrogate_stage1(w_new, st.omega1, st.nu1, cs, stats, pm.noise)

        # oracle: stacked PG over {power ball} cap {linearized energy halfspace}
        k, n = st.w1.shape
        nu2 = np.abs(st.nu1) ** 2
        a_blk = (cs.h_bu.T * nu2[None, :]) @ cs.h_bu.conj()
        a_full = np.kron(np.eye(k), a_blk)
        b_full = (2.0 * (np.sqrt(1 + st.omega1) * st.nu1)[:, None] * cs.h_bu).ravel()
        k1 = cs.g_br.conj().T @ cs.g_br
        p_r = system.ris_power(st.w2, st.theta, cs.g_br, pm)
        a_lin = (pm.eta1 * st.tau * 2.0) * (st.w1 @ k1.T).ravel()  # gradient of the linearized harvest
        xi1 = (1 - st.tau) * p_r + st.tau * pm.eta1 * float(
            np.sum(np.real(np.conj(st.w1) * (st.w1 @ k1.T))))

        def proj_half(x):
            val = float(np.real(np.vdot(a_lin, x)))
            if val >= xi1:
                return x
            return x + a_lin * (xi1 - val) / float(np.vdot(a_lin, a_lin).real)

        projs = [lambda y: project_ball(y, pm.p_max), proj_half]
        x0 = st.w1.ravel().copy()
        x_ref, _ = pg_qcqp_max(a_full, b_full, projs, iters=60000, x0=x0)
        w_ref = x_ref.reshape(k, n)
        f_ref = surrogate_stage1(w_ref, st.omega1, st.nu1, cs, stats, pm.noise)
        assert f_solver >= f_ref - 1e-4 * (1.0 + abs(f_ref))


class TestSolveW2:
    def _prep(self, seed, **kw):
        rng, cs, stats, rlzs = make_instance(seed, **kw)
        pm = pm_default()
        w = crand(rng, cs.n_users, cs.n_antennas)
        w *= np.sqrt(pm.p_max / np.sum(np.abs(w) ** 2))
        st = SolverState(tau=0.5, w1=w, w2=w.copy(), theta=crand(rng, cs.m_elements) * 0.3)
        st.omega2, st.nu2 = update_aux_stage2(st.w2, st.theta, cs, stats, pm.noise)
        return rng, cs, stats, pm, st

    def test_identity_blocks_clip(self):
        # A = I blocks and slack S constraint: w = y/2 clipped to the ball
        rng = np.random.default_rng(17)
        cs = make_channels(rng, n=2, k=2, m=3)
        cs.h_bu[:] = np.eye(2)  # orthonormal channels
        stats = SaaStats.empty(2, 3)
        pm = pm_default(p_max=0.1)
        st = SolverState(tau=0.5, w1=np.full((2, 2), 10.0, complex),
                         w2=np.zeros((2, 2), complex), theta=np.zeros(3, complex))
        st.omega2 = np.zeros(2)
        st.nu2 = np.ones(2, dtype=complex)  # |nu| = 1 -> A2 = sum h h^H = I
        w = solve_w2(st, cs, stats, pm)
        y = (2.0 * np.sqrt(1 + st.omega2) * st.nu2)[:, None] * cs.h_bu
        expect = y / 2.0
        if np.sum(np.abs(expect) ** 2) > pm.p_max:
            expect *= np.sqrt(pm.p_max / np.sum(np.abs(expect) ** 2))
        np.testing.assert_allclose(w, expect, rtol=1e-6, atol=1e-9)

    def test_theta_zero_degeneracy(self):
        rng, cs, stats, pm, st = self._prep(18)
        st.theta = np.zeros(cs.m_elements, dtype=complex)
        st.omega2, st.nu2 = update_aux_stage2(st.w2, st.theta, cs, stats, pm.noise)
        w = solve_w2(st, cs, stats, pm)  # S = 0: only the power ball binds
        assert np.sum(np.abs(w) ** 2) <= pm.p_max * (1 + 1e-8)

    def test_energy_infeasible(self):
        rng, cs, stats, pm, st = self._prep(19)
        st.w1 = np.zeros_like(st.w1)  # no harvest at all
        with pytest.raises(EnergyInfeasible):
            solve_w2(st, cs, stats, pm)

    def test_pg_oracle(self):
        for seed in (20, 21, 22):
            rng, cs, stats, pm, st = self._prep(seed)
            w = solve_w2(st, cs, stats, pm)
            f = surrogate_stage2(w, st.theta, st.omega2, st.nu2, cs, stats, pm.noise)
            f_old = surrogate_stage2(st.w2, st.theta, st.omega2, st.nu2, cs, stats, pm.noise)
            assert f >= f_old - 1e-9 * max(1.0, abs(f_old))


class TestSolveTheta:
    def test_cap_binding_scalar(self):
        # M = 1 with slack energy: theta = A_max * e^{i arg(lambda)}
        rng, cs, stats, _ = make_instance(23, m=1)
        pm = pm_default(a_max=2.0)
        w = crand(rng, 2, 4)
        st = SolverState(tau=0.5, w1=np.full((2, 4), 30.0, complex), w2=w,
                         theta=np.array([0.5 + 0.1j]))
        st.omega2, st.nu2 = update_aux_stage2(st.w2, st.theta, cs, stats, pm.noise)
        st.nu2 = st.nu2 * 0.05  # weak curvature: unconstrained magnitude beyond the cap
        gamma, lam = theta_quadratic_model(st, cs, stats, pm.noise, st.w2 @ cs.g_br.T)
        uncon = abs(lam[0]) / (2 * np.real(gamma[0, 0]))
        assert uncon > pm.a_max  # the cap must actually bind in this instance
        th = solve_theta(st, cs, stats, pm)
        assert abs(th[0]) == pytest.approx(pm.a_max, rel=1e-6)
        assert np.angle(th[0]) == pytest.approx(np.angle(lam[0]), abs=1e-5)

    def test_feasible_output(self):
        rng, cs, stats, _ = make_instance(24, m=5, q=2)
        pm = pm_default(a_max=5.0)
        w = crand(rng, 2, 4) * 0.3
        st = SolverState(tau=0.4, w1=crand(rng, 2, 4), w2=w, theta=crand(rng, 5) * 0.5)
        st.omega2, st.nu2 = update_aux_stage2(st.w2, st.theta, cs, stats, pm.noise)
        th = solve_theta(st, cs, stats, pm)
        assert np.all(np.abs(th) <= pm.a_max * (1 + 1e-8))
        e_r = system.harvested_energy(st.w1, st.tau, cs.g_br, pm.eta1)
        p_e = (e_r - 0.6 * 5 * pm.p_static) / (0.6 * pm.xi)
        mu = st.w2 @ cs.g_br.T
        v = np.diag(np.sum(np.abs(mu) ** 2, axis=0)) + pm.noise * np.eye(5)
        assert np.vdot(th, v @ th).real <= p_e * (1 + 1e-7)

    def test_energy_infeasible(self):
        rng, cs, stats, _ = make_instance(25, m=4)
        pm = pm_default()
        st = SolverState(tau=0.5, w1=np.zeros((2, 4), complex), w2=crand(rng, 2, 4),
                         theta=crand(rng, 4))
        st.omega2, st.nu2 = update_aux_stage2(st.w2, st.theta, cs, stats, pm.noise)
        with pytest.raises(EnergyInfeasible):
            solve_theta(st, cs, stats, pm)

    def test_surrogate_ascent(self):
        for seed in (26, 27):
            rng, cs, stats, _ = make_instance(seed, m=6, q=2)
            pm = pm_default(a_max=8.0)
            st = SolverState(tau=0.5, w1=crand(rng, 2, 4) * 2.0, w2=crand(rng, 2, 4) * 0.5,
                             theta=crand(rng, 6) * 0.4)
            st.omega2, st.nu2 = update_aux_stage2(st.w2, st.theta, cs, stats, pm.noise)
            f_old = surrogate_stage2(st.w2, st.theta, st.omega2, st.nu2, cs, stats, pm.noise)
            th = solve_theta(st, cs, stats, pm)
            f_new = surrogate_stage2(st.w2, th, st.omega2, st.nu2, cs, stats, pm.noise)
            assert f_new >= f_old - 1e-8 * max(1.0, abs(f_old))

    def test_projections_of_capped_paper_solves(self, monkeypatch):
        """Work of the capped route in paper trials, without timing: at
        A_max = 3 dB and e_mse = 0.1 (trials 0-3) the caps bind, and each
        theta solve that leaves the cap-free step counts its projections
        onto the caps and the ball.  The accelerated MM engine takes a
        median of 28 (at most 46); the heavy-ball/FISTA ascent it replaced
        took 118 (at most 253)."""
        calls, per_solve = [], []
        project, solve = numerics.project_caps_ball, optimizer.solve_concave_qcqp

        def counted_project(*args):
            calls.append(1)
            return project(*args)

        def counted_solve(*args, **kwargs):
            calls.clear()
            x = solve(*args, **kwargs)
            if calls:
                per_solve.append(len(calls))
            return x

        monkeypatch.setattr(numerics, "project_caps_ball", counted_project)
        monkeypatch.setattr(optimizer, "solve_concave_qcqp", counted_solve)
        cfg = risjam.paper_profile(a_max_db=3.0, e_mse=0.1)
        for i in range(4):
            run_trial(cfg, "active-harvesting", i)
        assert len(per_solve) >= 40
        assert np.median(per_solve) <= 50


class TestLinearization:
    def test_global_underestimator_tight(self):
        # ||G w||^2 >= 2 Re{w0^H K1 w} - w0^H K1 w0, equality at w = w0
        rng = np.random.default_rng(28)
        g = crand(rng, 5, 4)
        k1 = g.conj().T @ g
        for _ in range(50):
            w0 = crand(rng, 4)
            w = crand(rng, 4)
            lhs = np.linalg.norm(g @ w) ** 2
            rhs = 2 * np.real(np.vdot(w0, k1 @ w)) - np.real(np.vdot(w0, k1 @ w0))
            assert lhs >= rhs - 1e-10 * max(1.0, abs(rhs))
            at_w0 = 2 * np.real(np.vdot(w0, k1 @ w0)) - np.real(np.vdot(w0, k1 @ w0))
            assert np.linalg.norm(g @ w0) ** 2 == pytest.approx(at_w0, rel=1e-10)


class TestSscaAo:
    def test_no_ris_no_adversaries_matches_wmmse(self):
        # Q = B = 0, M = 0: iterated multiuser beamforming vs WMMSE oracle
        rng = np.random.default_rng(29)
        k, n = 2, 4
        h = crand(rng, k, n)
        cs = ChannelSet(
            g_br=np.zeros((0, n), complex), h_bu=h, h_ru=np.zeros((k, 0), complex),
            h_ju_est=np.zeros((0, k, 2), complex), g_jr_est=np.zeros((0, 0, 2), complex),
            h_iu_est=np.zeros((0, k, n), complex), z_jam=np.zeros((0, k, 2), complex),
            z_int=np.zeros((0, k, n), complex), ue_pos=np.zeros((k, 3)),
            jammer_pos=np.zeros((0, 3)), interferer_pos=np.zeros((0, 3)),
        )
        cfg = risjam.desk_profile(r_max=30, p_max_dbm=30.0, noise_dbm=10.0)
        rep = ssca_ao(cs, cfg, np.random.SeedSequence(0))
        _, rate_ref = wmmse_sum_rate(h, cfg.p_max_w, 0.01)
        assert rep.best_objective_bits == pytest.approx(rate_ref, rel=0.02)

    # (harvest, on the view without RIS elements): active, passive, no-RIS
    @pytest.mark.parametrize("scheme", [(True, False), (False, False), (False, True)])
    def test_stored_draws_equal_sequential_draws(self, monkeypatch, scheme):
        # iteration r scores the SAA objective on the first r draws of the
        # one batch of r_max draws the AO samples before its loop, from one
        # generator on its seed: bitwise the loop oracle's draws
        harvest, no_ris = scheme
        cfg = risjam.desk_profile(r_max=12, e_mse=0.1)
        cs = sample_static_channels(cfg, np.random.default_rng(5))
        if no_ris:
            cs = cs.without_ris()
        seen, real = [], system.sum_rate_nats

        def sum_rate_nats(tau, w1, w2, theta, realizations, *rest):
            seen.append((len(realizations), realizations,
                         [np.copy(getattr(realizations[-1], f)) for f in ("h_ju", "g_jr", "h_iu")]))
            return real(tau, w1, w2, theta, realizations, *rest)

        monkeypatch.setattr(system, "sum_rate_nats", sum_rate_nats)
        rep = optimizer._alternate(cs, cfg, np.random.SeedSequence(77), harvest)
        assert [n for n, _, _ in seen] == list(range(1, rep.iterations + 1))
        want = uncertain_draw_loops(cs, cfg.e_mse, np.random.default_rng(np.random.SeedSequence(77)),
                                    cfg.r_max)
        final = seen[-1][1]
        for i in range(rep.iterations):
            for got_then, got_end, w in zip(seen[i][2], (final.h_ju[i], final.g_jr[i], final.h_iu[i]),
                                            (link[i] for link in want)):
                np.testing.assert_array_equal(got_then, w)
                np.testing.assert_array_equal(got_end, w)

    def test_determinism(self):
        cfg = risjam.desk_profile(r_max=12)
        cs = sample_static_channels(cfg, np.random.default_rng(5))
        rep1 = ssca_ao(cs, cfg, np.random.SeedSequence(77))
        rep2 = ssca_ao(cs, cfg, np.random.SeedSequence(77))
        assert rep1.objective_nats == rep2.objective_nats
        np.testing.assert_array_equal(rep1.state.w1, rep2.state.w1)
        np.testing.assert_array_equal(rep1.state.theta, rep2.state.theta)

    def test_tau_tightness_and_feasibility(self):
        cfg = risjam.desk_profile()
        cs = sample_static_channels(cfg, np.random.default_rng(6))
        rep = ssca_ao(cs, cfg, np.random.SeedSequence(8))
        assert rep.tau_tightness and max(rep.tau_tightness) < 1e-12
        assert rep.feasibility.all_ok
        assert rep.converged
        assert len(rep.objective_nats) <= cfg.r_max

    def test_objective_monotone_no_uncertainty(self):
        # e_mse = 0 keeps realizations identical: pure block ascent
        cfg = risjam.desk_profile()
        cs = sample_static_channels(cfg, np.random.default_rng(7))
        rep = ssca_ao(cs, cfg, np.random.SeedSequence(9))
        v = np.array(rep.objective_nats)
        assert np.all(np.diff(v) >= -1e-3 * np.abs(v[1:]))
        assert rep.monotone_after_warmup


class TestMultiplierRecords:
    def test_report_sums_the_block_records(self):
        cfg = risjam.desk_profile(r_max=12)
        cs = sample_static_channels(cfg, np.random.default_rng(5))
        rep = ssca_ao(cs, cfg, np.random.SeedSequence(77))
        records = rep.multipliers
        assert set(records) == {"w1", "w2", "theta"}
        assert rep.ball_steps == sum(r.ball_steps for r in records.values())
        assert rep.lam2_evaluations == sum(r.evaluations for r in records.values())
        # the blocks run in every iteration but a converged last one; the
        # stage-1 SCA loop solves at least once per run, every theta solve
        # takes one ball step, and the beam searches evaluate lam2 > 0
        runs = rep.iterations - rep.converged
        assert records["w2"].solves == records["theta"].solves == runs
        assert records["w1"].solves >= runs
        assert records["theta"].ball_steps == runs and records["theta"].evaluations == 0
        assert records["w2"].ball_steps >= runs and records["w2"].evaluations > 0

    def test_baselines_carry_the_ball_multiplier(self):
        cfg = risjam.desk_profile(r_max=12)
        cs = sample_static_channels(cfg, np.random.default_rng(5))
        for view in (cs, cs.without_ris()):  # passive and no-RIS
            rep = optimizer._alternate(view, cfg, np.random.SeedSequence(77), harvest=False)
            runs = rep.iterations - rep.converged
            assert rep.multipliers["w2"].solves == rep.multipliers["w2"].ball_steps == runs
            assert rep.multipliers["w1"].solves == rep.multipliers["theta"].solves == 0

    def test_ball_step_budget_of_paper_trials(self):
        """Evaluation budget of the active AO, without timing: five seeded
        paper-profile trials.  Every solve starting cold, they took 90.2
        ball steps per trial; with the multipliers carried across solves,
        74.0."""
        cfg = risjam.paper_profile()
        steps = [run_trial(cfg, "active-harvesting", i).report.ball_steps for i in range(5)]
        assert np.mean(steps) <= 80.0

    def test_stage2_ball_steps_without_adversaries(self, monkeypatch):
        """The hard case of the stage-2 search, without timing: at Q = B = 0
        the energy residual jumps where A + lam2 S leaves the ball step's
        null-space cut.  Each solve's ball steps, read from the block's
        record, stay within 100 (false-position steps creeping along the
        jump took up to 263 on these trials)."""
        per_solve = []
        solve = numerics.solve_beams

        def counted(*args, record, **kwargs):
            before = record.ball_steps
            w = solve(*args, record=record, **kwargs)
            per_solve.append(record.ball_steps - before)
            return w

        monkeypatch.setattr(numerics, "solve_beams", counted)
        cfg = risjam.paper_profile(q=0, b=0)
        for i in (1, 2, 3):
            run_trial(cfg, "active-harvesting", i)
        assert len(per_solve) >= 30
        assert max(per_solve) <= 100
