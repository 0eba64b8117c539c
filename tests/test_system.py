from dataclasses import replace

import numpy as np
import pytest

from risjam.channel import ChannelSet, Realization
from risjam.config import paper_profile
from risjam.system import (
    PowerModel,
    SolverState,
    adversary_interference,
    check_feasibility,
    effective_channels,
    harvested_energy,
    ris_noise,
    ris_power,
    signal_and_power,
    sinr,
    sum_rate,
    sum_rate_nats,
)

from oracles import adversary_interference_loops, stage1_sinr_scalar, sum_rate_nats_loops


def crand(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def make_channels(rng, n=4, m=3, k=2, q=1, b=1, n_jam=2, scale=1.0):
    z_jam = crand(rng, q, k, n_jam) * scale
    z_int = crand(rng, b, k, n) * scale
    return ChannelSet(
        g_br=crand(rng, m, n) * scale,
        h_bu=crand(rng, k, n) * scale,
        h_ru=crand(rng, k, m) * scale,
        h_ju_est=crand(rng, q, k, n_jam) * scale,
        g_jr_est=crand(rng, q, m, n_jam) * scale,
        h_iu_est=crand(rng, b, k, n) * scale,
        z_jam=z_jam,
        z_int=z_int,
        ue_pos=np.zeros((k, 3)),
        jammer_pos=np.zeros((q, 3)),
        interferer_pos=np.zeros((b, 3)),
    )


def make_realization(cs, rng, jitter=0.0, count=1):
    """A batch of count draws, each the estimates plus jitter times
    circular Gaussian noise, one noise array per link for the whole batch."""
    def draws(est):
        return est + jitter * crand(rng, count, *est.shape)
    return Realization(h_ju=draws(cs.h_ju_est), g_jr=draws(cs.g_jr_est), h_iu=draws(cs.h_iu_est),
                       z_j=cs.z_jam, z_i=cs.z_int)


def permute_users(cs, perm):
    """The same channels with the users relabelled: user k becomes perm[k]."""
    return replace(cs, h_bu=cs.h_bu[perm], h_ru=cs.h_ru[perm], h_ju_est=cs.h_ju_est[:, perm],
                   h_iu_est=cs.h_iu_est[:, perm], z_jam=cs.z_jam[:, perm], z_int=cs.z_int[:, perm],
                   ue_pos=cs.ue_pos[perm])


def permute_realization(rlz, perm):
    return replace(rlz, h_ju=rlz.h_ju[:, :, perm], h_iu=rlz.h_iu[:, :, perm],
                   z_j=rlz.z_j[:, perm], z_i=rlz.z_i[:, perm])


def stage1_sinr(w1, rlz, cs, sigma1_sq):
    """(K,) harvesting-stage SINRs of the first draw of a batch: direct
    channels, extra term jamming plus interference plus UE noise."""
    z1, _ = adversary_interference(np.zeros(0, complex), rlz, cs)
    return sinr(cs.h_bu, w1, z1[0] + sigma1_sq)


def stage2_sinr(w2, theta, rlz, cs, sigma2_sq, sigma_r_sq):
    """(K,) reflection-stage SINRs of the first draw of a batch: effective
    channels, extra term amplified RIS noise plus bounced jamming,
    interference and UE noise."""
    _, z2 = adversary_interference(theta, rlz, cs)
    c = ris_noise(theta, cs, sigma_r_sq) + z2[0] + sigma2_sq
    return sinr(effective_channels(theta, cs), w2, c)


def pm_default(**kw):
    args = dict(p_max=1.0, eta1=0.9, xi=1.1, p_static=2e-5, a_max=100.0, noise=1e-3)
    args.update(kw)
    return PowerModel(**args)


class TestHarvestedEnergy:
    def test_zero_beams(self):
        rng = np.random.default_rng(0)
        g = crand(rng, 3, 4)
        assert harvested_energy(np.zeros((2, 4), complex), 0.5, g, 0.9) == 0.0

    def test_direct_substitution(self):
        # single beam with ||G w||^2 = 2, tau = 0.5, eta = 1 -> 1.0
        g = np.eye(2, dtype=complex)
        w = np.array([[1.0, 1.0]], dtype=complex)
        assert harvested_energy(w, 0.5, g, 1.0) == pytest.approx(1.0)

    def test_recompute_oracle(self):
        rng = np.random.default_rng(1)
        cs = make_channels(rng)
        w = crand(rng, 2, 4)
        val = harvested_energy(w, 0.37, cs.g_br, 0.8)
        ref = 0.0
        for k in range(2):
            gw = np.array([np.sum(cs.g_br[mm] * w[k]) for mm in range(cs.g_br.shape[0])])
            ref += 0.37 * 0.8 * np.sum(np.abs(gw) ** 2)
        assert val == pytest.approx(ref, rel=1e-12)

    def test_two_homogeneous(self):
        rng = np.random.default_rng(2)
        cs = make_channels(rng)
        w = crand(rng, 2, 4)
        base = harvested_energy(w, 0.4, cs.g_br, 0.8)
        assert harvested_energy(3.0 * w, 0.4, cs.g_br, 0.8) == pytest.approx(9.0 * base, rel=1e-12)


class TestStage1Sinr:
    def test_single_user_no_adversaries(self):
        rng = np.random.default_rng(3)
        cs = make_channels(rng, k=1, q=1, b=1)
        cs.z_jam[:] = 0.0
        cs.z_int[:] = 0.0
        rlz = make_realization(cs, rng)
        w = crand(rng, 1, 4)
        got = stage1_sinr(w, rlz, cs, sigma1_sq=0.5)[0]
        want = abs(np.vdot(cs.h_bu[0], w[0])) ** 2 / 0.5
        assert got == pytest.approx(want, rel=1e-12)

    def test_orthogonal_beam_zero(self):
        rng = np.random.default_rng(4)
        cs = make_channels(rng, k=2)
        rlz = make_realization(cs, rng)
        w = crand(rng, 2, 4)
        h = cs.h_bu[0]
        w[0] -= h * (np.vdot(h, w[0]) / np.vdot(h, h))  # project out
        assert stage1_sinr(w, rlz, cs, 1e-3)[0] < 1e-24

    def test_term_by_term_oracle(self):
        rng = np.random.default_rng(5)
        cs = make_channels(rng, n=4, k=2, q=1, b=1)
        rlz = make_realization(cs, rng, jitter=0.1)
        w = crand(rng, 2, 4)
        got = stage1_sinr(w, rlz, cs, 0.01)
        for k in range(2):
            d = rlz[0]
            ref = stage1_sinr_scalar(k, w, cs.h_bu, d.h_ju, d.z_j, d.h_iu, d.z_i, 0.01)
            assert got[k] == pytest.approx(ref, rel=1e-12)


class TestStage2Sinr:
    def test_ris_off_degeneracy(self):
        # theta = 0 must equal the stage-1 form with stage-2 noise
        rng = np.random.default_rng(6)
        cs = make_channels(rng, m=5, k=3, q=2, b=2)
        rlz = make_realization(cs, rng, jitter=0.2)
        w = crand(rng, 3, 4)
        theta = np.zeros(5, dtype=complex)
        s2 = stage2_sinr(w, theta, rlz, cs, sigma2_sq=0.02, sigma_r_sq=0.5)
        s1 = stage1_sinr(w, rlz, cs, sigma1_sq=0.02)
        np.testing.assert_allclose(s2, s1, rtol=1e-12)

    def test_scalar_hand_expansion(self):
        # M = 1, N = 1, K = 1, Q = 1, B = 0: fully scalar closed form
        rng = np.random.default_rng(7)
        cs = make_channels(rng, n=1, m=1, k=1, q=1, b=1, n_jam=1)
        cs.z_int[:] = 0.0
        rlz = make_realization(cs, rng)
        w = crand(rng, 1, 1)
        theta = crand(rng, 1)
        h_eff = cs.h_bu[0, 0] + np.conj(cs.g_br[0, 0]) * np.conj(theta[0]) * cs.h_ru[0, 0]
        sig = abs(np.conj(h_eff) * w[0, 0]) ** 2
        d = rlz[0]
        h_jam = d.h_ju[0, 0, 0] + np.conj(d.g_jr[0, 0, 0]) * np.conj(theta[0]) * cs.h_ru[0, 0]
        zjam = abs(np.conj(h_jam) * d.z_j[0, 0, 0]) ** 2
        ris_noise = 0.3 * abs(cs.h_ru[0, 0]) ** 2 * abs(theta[0]) ** 2
        want = sig / (zjam + ris_noise + 0.07)
        got = stage2_sinr(w, theta, rlz, cs, sigma2_sq=0.07, sigma_r_sq=0.3)[0]
        assert got == pytest.approx(want, rel=1e-12)

    def test_noise_free_ris_single_user(self):
        rng = np.random.default_rng(8)
        cs = make_channels(rng, k=1, q=1, b=1)
        cs.z_jam[:] = 0.0
        cs.z_int[:] = 0.0
        rlz = make_realization(cs, rng)
        w = crand(rng, 1, 4)
        theta = crand(rng, 3)
        h_eff = effective_channels(theta, cs)[0]
        want = abs(np.vdot(h_eff, w[0])) ** 2 / 0.04
        got = stage2_sinr(w, theta, rlz, cs, sigma2_sq=0.04, sigma_r_sq=0.0)[0]
        assert got == pytest.approx(want, rel=1e-12)


class TestStageKernel:
    def test_terms_by_loops(self):
        rng = np.random.default_rng(23)
        h, w, c = crand(rng, 3, 4), crand(rng, 3, 4), rng.uniform(0.1, 1.0, 3)
        e, p = signal_and_power(h, w, c)
        for k in range(3):
            assert e[k] == pytest.approx(np.vdot(h[k], w[k]), rel=1e-12)
            power = sum(abs(np.vdot(h[k], w[j])) ** 2 for j in range(3)) + c[k]
            assert p[k] == pytest.approx(power, rel=1e-12)

    def test_draw_axes_equal_per_draw_calls(self):
        # an extra term with leading draw axes gives one SINR row per draw
        rng = np.random.default_rng(24)
        h, w = crand(rng, 3, 4), crand(rng, 3, 4)
        c = rng.uniform(0.1, 1.0, (2, 5, 3))
        got = sinr(h, w, c)
        assert got.shape == (2, 5, 3)
        for idx in np.ndindex(2, 5):
            np.testing.assert_array_equal(got[idx], sinr(h, w, c[idx]))


class TestAdversaryInterference:
    @pytest.mark.parametrize("q, b, m", [(1, 1, 3), (3, 4, 5), (0, 2, 4), (2, 0, 4), (0, 0, 2), (2, 2, 0)])
    def test_batch_equals_per_draw_loops(self, q, b, m):
        # the whole batch, and a slice of it (views into the batch), against
        # one draw, one user and one adversary at a time
        rng = np.random.default_rng(40 + 7 * q + b + m)
        cs = make_channels(rng, n=4, m=m, k=3, q=q, b=b, n_jam=3)
        rlzs = make_realization(cs, rng, jitter=0.4, count=6)
        for th in (crand(rng, m), np.zeros(0, complex)):
            for batch in (rlzs, rlzs[2:5]):
                got = adversary_interference(th, batch, cs)
                for z, want in zip(got, adversary_interference_loops(th, batch, cs.h_ru)):
                    assert z.shape == (len(batch), 3)
                    np.testing.assert_allclose(z, want, rtol=1e-12, atol=1e-300)


def assert_interference_matches_loops(batch, cs, rng):
    """Both stages' adversary powers of every draw of the batch, read from
    its terms, against the loops over its channels, for a random theta and
    for no reflection coefficients."""
    for th in (crand(rng, cs.m_elements), np.zeros(0, complex)):
        for got, want in zip(adversary_interference(th, batch, cs),
                             adversary_interference_loops(th, batch, cs.h_ru)):
            assert got.shape == (len(batch), cs.n_users)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-300)


class TestAdversaryTerms:
    """The per-draw adversary terms a batch carries match its channels, in
    the batch and in its slices."""

    def test_slices_carry_their_draws_terms(self):
        rng = np.random.default_rng(61)
        cs = make_channels(rng, n=4, m=5, k=3, q=2, b=2, n_jam=3)
        batch = make_realization(cs, rng, jitter=0.4, count=6)
        for part in (batch[1:4], batch[5:], batch[::2]):
            assert np.shares_memory(part.bounce, batch.bounce)
            assert_interference_matches_loops(part, cs, rng)

    def test_replace_derives_the_terms(self):
        # dataclasses.replace builds a new batch: its terms come from its
        # own channels and adversary vectors
        rng = np.random.default_rng(62)
        cs = make_channels(rng, n=4, m=5, k=3, q=2, b=2, n_jam=3)
        batch = make_realization(cs, rng, jitter=0.4, count=4)
        cs2 = replace(cs, z_jam=crand(rng, *cs.z_jam.shape), z_int=crand(rng, *cs.z_int.shape))
        moved = replace(batch, h_ju=batch.h_ju[:, :, ::-1], z_j=cs2.z_jam, z_i=cs2.z_int)
        assert_interference_matches_loops(moved, cs2, rng)


class TestSumRate:
    def test_tau_one_stage1_only(self):
        rng = np.random.default_rng(9)
        cs = make_channels(rng)
        rlz = make_realization(cs, rng)
        w1 = crand(rng, 2, 4)
        w2a = crand(rng, 2, 4)
        w2b = crand(rng, 2, 4)
        th = crand(rng, 3)
        r_a = sum_rate(1.0, w1, w2a, th, rlz, cs, 1e-3)
        r_b = sum_rate(1.0, w1, w2b, th, rlz, cs, 1e-3)
        assert r_a == pytest.approx(r_b, rel=1e-12)

    def test_zero_channels_zero_rate(self):
        rng = np.random.default_rng(10)
        cs = make_channels(rng, scale=0.0)
        rlz = make_realization(cs, rng)
        w = crand(rng, 2, 4)
        assert sum_rate(0.5, w, w, np.zeros(3, complex), rlz, cs, 1e-3) == 0.0

    def test_three_realizations_mean(self):
        rng = np.random.default_rng(11)
        cs = make_channels(rng)
        w1, w2 = crand(rng, 2, 4), crand(rng, 2, 4)
        th = crand(rng, 3)
        rlzs = make_realization(cs, rng, jitter=0.3, count=3)
        joint = sum_rate(0.4, w1, w2, th, rlzs, cs, 1e-3)
        singles = [sum_rate(0.4, w1, w2, th, rlzs[i:i + 1], cs, 1e-3) for i in range(3)]
        assert joint == pytest.approx(np.mean(singles), rel=1e-12)

    def test_monotone_in_signal_gain(self):
        rng = np.random.default_rng(12)
        cs = make_channels(rng, q=1, b=1)
        rlz = make_realization(cs, rng)
        w = crand(rng, 2, 4)
        base = sum_rate(1.0, w, w, np.zeros(3, complex), rlz, cs, 1e-3)
        w_up = w.copy()
        w_up[0] += cs.h_bu[0] * 0.5  # strengthen the aligned component
        # stage-1 rate of user 0 strictly grows; others' interference grows too,
        # so compare the single-user rate directly
        s_before = stage1_sinr(w, rlz, cs, 1e-3)[0]
        s_after = stage1_sinr(w_up, rlz, cs, 1e-3)[0]
        assert s_after > s_before


    @pytest.mark.parametrize("q, b, m", [(1, 1, 3), (3, 4, 5), (0, 2, 4), (2, 0, 4), (0, 0, 2), (2, 2, 0)])
    def test_batched_equals_per_draw_per_user_loops(self, q, b, m):
        rng = np.random.default_rng(20 + 7 * q + b + m)
        cs = make_channels(rng, n=4, m=m, k=3, q=q, b=b, n_jam=3)
        rlzs = make_realization(cs, rng, jitter=0.4, count=6)
        w1, w2 = crand(rng, 3, 4), crand(rng, 3, 4)
        for th in (crand(rng, m), np.zeros(0, complex)):
            for tau in (0.35, 0.0):  # tau = 0: the baselines' full-period reflection
                got = sum_rate_nats(tau, w1, w2, th, rlzs, cs, 0.02)
                want = sum_rate_nats_loops(tau, w1, w2, th, rlzs, cs.h_bu, cs.h_ru, cs.g_br,
                                           0.02, 0.02, 0.02)
                assert abs(got - want) <= 1e-12 * abs(want)

    def test_permuting_users_permutes_sinrs_and_keeps_rate(self):
        rng = np.random.default_rng(21)
        cs = make_channels(rng, m=4, k=4, q=2, b=3)
        rlzs = make_realization(cs, rng, jitter=0.3, count=4)
        w1, w2, th = crand(rng, 4, 4), crand(rng, 4, 4), crand(rng, 4)
        perm = np.array([2, 0, 3, 1])
        cs_p = permute_users(cs, perm)
        rlzs_p = permute_realization(rlzs, perm)
        np.testing.assert_allclose(stage1_sinr(w1[perm], rlzs_p[:1], cs_p, 0.01),
                                   stage1_sinr(w1, rlzs[:1], cs, 0.01)[perm], rtol=1e-12)
        np.testing.assert_allclose(stage2_sinr(w2[perm], th, rlzs_p[:1], cs_p, 0.01, 0.02),
                                   stage2_sinr(w2, th, rlzs[:1], cs, 0.01, 0.02)[perm], rtol=1e-12)
        base = sum_rate(0.3, w1, w2, th, rlzs, cs, 0.01)
        assert sum_rate(0.3, w1[perm], w2[perm], th, rlzs_p, cs_p, 0.01) == pytest.approx(
            base, rel=1e-12)

    @pytest.mark.parametrize("c", [1e-4, 1e3])
    def test_scaling_powers_and_noise_keeps_rate(self, c):
        # beams and adversary vectors by sqrt(c), the noise power by c:
        # every SINR term scales by c, so the rate is unchanged (catches
        # unit slips between watts and dBm)
        rng = np.random.default_rng(22)
        cs = make_channels(rng, m=5, k=3, q=2, b=2)
        rlzs = make_realization(cs, rng, jitter=0.3, count=5)
        w1, w2, th = crand(rng, 3, 4), crand(rng, 3, 4), crand(rng, 5) * 3.0
        base = sum_rate(0.4, w1, w2, th, rlzs, cs, 0.01)
        sc = np.sqrt(c)
        cs_c = replace(cs, z_jam=cs.z_jam * sc, z_int=cs.z_int * sc)
        rlzs_c = replace(rlzs, z_j=rlzs.z_j * sc, z_i=rlzs.z_i * sc)
        got = sum_rate(0.4, w1 * sc, w2 * sc, th, rlzs_c, cs_c, 0.01 * c)
        assert got == pytest.approx(base, rel=1e-12)


class TestRisPower:
    def test_static_only(self):
        rng = np.random.default_rng(13)
        cs = make_channels(rng, m=25)
        pm = pm_default()
        w = crand(rng, 2, 4)
        val = ris_power(w, np.zeros(25, complex), cs.g_br, pm)
        assert val == pytest.approx(25 * pm.p_static, rel=1e-12)

    def test_paper_static_value(self):
        # the paper's P_dc = P_sc = 10 uW, M = 25, theta = 0 -> 5e-4 W
        rng = np.random.default_rng(14)
        cs = make_channels(rng, m=25)
        pm = paper_profile().power_model()
        val = ris_power(np.zeros((2, 4), complex), np.zeros(25, complex), cs.g_br, pm)
        assert val == pytest.approx(5e-4, rel=1e-12)

    def test_recompute_oracle(self):
        rng = np.random.default_rng(15)
        cs = make_channels(rng, m=6)
        pm = pm_default()
        w = crand(rng, 2, 4)
        th = crand(rng, 6)
        val = ris_power(w, th, cs.g_br, pm)
        amp = 0.0
        for k in range(2):
            gw = cs.g_br @ w[k]
            amp += np.sum(np.abs(th * gw) ** 2)
        ref = pm.xi * (amp + pm.noise * np.sum(np.abs(th) ** 2)) + 6 * pm.p_static
        assert val == pytest.approx(ref, rel=1e-12)

    def test_two_homogeneous_in_beams(self):
        rng = np.random.default_rng(16)
        cs = make_channels(rng, m=6)
        pm = pm_default()
        w = crand(rng, 2, 4)
        th = crand(rng, 6)
        static = 6 * pm.p_static + pm.xi * pm.noise * np.sum(np.abs(th) ** 2)
        p1 = ris_power(w, th, cs.g_br, pm) - static
        p2 = ris_power(2.0 * w, th, cs.g_br, pm) - static
        assert p2 == pytest.approx(4.0 * p1, rel=1e-12)


class TestFeasibility:
    def test_static_load_unpowered(self):
        rng = np.random.default_rng(17)
        cs = make_channels(rng, m=4)
        pm = pm_default()
        st = SolverState(tau=0.5, w1=np.zeros((2, 4), complex), w2=np.zeros((2, 4), complex),
                         theta=np.zeros(4, complex))
        rep = check_feasibility(st, cs, pm)
        # zero harvest cannot cover the static load
        assert rep.energy_slack < 0
        assert not rep.checks["energy_supply"]
        assert rep.checks["power_stage1"] and rep.checks["power_stage2"]

    def test_amplitude_violation_slack(self):
        rng = np.random.default_rng(18)
        cs = make_channels(rng, m=4)
        pm = pm_default(a_max=2.0)
        th = np.full(4, 1.01 * 2.0, dtype=complex)
        st = SolverState(tau=0.5, w1=np.zeros((2, 4), complex), w2=np.zeros((2, 4), complex), theta=th)
        rep = check_feasibility(st, cs, pm)
        assert rep.amplitude_slack == pytest.approx(-0.01 * 2.0, rel=1e-9)
        assert not rep.checks["amplitude"]

    def test_power_slack_sign(self):
        rng = np.random.default_rng(19)
        cs = make_channels(rng)
        pm = pm_default(p_max=1.0)
        w = np.sqrt(0.6) * np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=complex)
        st = SolverState(tau=0.5, w1=w, w2=w, theta=np.zeros(3, complex))
        rep = check_feasibility(st, cs, pm)
        assert not rep.checks["power_stage1"]  # 1.2 > 1.0
        assert rep.power1_slack == pytest.approx(-0.2)

