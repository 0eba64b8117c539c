from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risjam import numerics
from risjam.numerics import (
    Infeasible,
    MaxIterExceeded,
    QcqpProblem,
    project_caps_ball,
    solve_beams,
    solve_beams_halfspace,
    solve_concave_qcqp,
    unit_modulus_mm,
)

from oracles import (
    ball_multiplier_bisect,
    dykstra,
    pg_qcqp_max,
    project_ball,
    project_caps,
    project_caps_diag_ellipsoid,
    project_ellipsoid,
)


def rand_psd(rng, n, rank=None):
    rank = rank or n
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    return g @ g.conj().T / rank


class TestProjectMagnitudeCaps:
    """Per-element magnitude caps alone: project_caps_ball with a loose ball."""

    def test_phase_preserved(self):
        x = np.array([2.0 * np.exp(1j * np.pi / 4)])
        out = project_caps_ball(x, np.array([1.0]), np.inf)
        np.testing.assert_allclose(out, [np.exp(1j * np.pi / 4)], atol=1e-15)

    def test_identity_inside(self):
        x = np.array([0.3 + 0.1j, -0.2j])
        np.testing.assert_array_equal(project_caps_ball(x, np.array([1.0, 1.0]), np.inf), x)

    def test_matches_grid_oracle(self):
        # Euclidean projection: per element, nearest point of the disc.
        rng = np.random.default_rng(3)
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        caps = rng.uniform(0.0, 2.0, size=16)
        out = project_caps_ball(x, caps, np.inf)
        for m in range(16):
            # 1-D search over the magnitude along the phase ray (the optimal
            # projection keeps the phase; scan magnitudes to confirm)
            mags = np.linspace(0.0, caps[m], 20001)
            cand = mags * np.exp(1j * np.angle(x[m]))
            best = cand[np.argmin(np.abs(cand - x[m]))]
            assert abs(out[m] - best) <= 1e-4

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_idempotent_and_nonexpansive(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        caps = rng.uniform(0.0, 2.0, size=n)
        px, py = project_caps_ball(x, caps, np.inf), project_caps_ball(y, caps, np.inf)
        np.testing.assert_allclose(project_caps_ball(px, caps, np.inf), px, atol=1e-14)
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12


def caps_ball_instance(rng):
    """z, caps and a ball bound c below the squared norm of the clipped z,
    so both the caps and the ball can bind."""
    n = int(rng.integers(1, 12))
    z = 2.0 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    caps = rng.uniform(0.0, 2.0, n)
    c = float(rng.uniform(0.05, 1.0)) * np.sum(np.minimum(np.abs(z), caps) ** 2)
    return z, caps, c


def caps_ball_dykstra(z, caps, c):
    # sweep cap far above the slowest of these instances
    return dykstra(z, [lambda y: project_caps(y, caps), lambda y: project_ball(y, c)], iters=100000)


def caps_diag_ellipsoid_instance(rng):
    """z, caps, weights v > 0 spread over two decades and a bound c below
    the weighted sum of the clipped z, so both the caps and the ellipsoid
    can bind: the shape of criterion 3's reflection instances."""
    n = int(rng.integers(1, 12))
    z = 2.0 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    caps = rng.uniform(0.0, 2.0, n)
    v = 10.0 ** rng.uniform(-1.0, 1.0, n)
    c = float(rng.uniform(0.05, 1.0)) * np.sum(v * np.minimum(np.abs(z), caps) ** 2)
    return z, caps, v, c


class TestProjectCapsDiagEllipsoid:
    """The oracle's separable projection onto caps and a diagonal ellipsoid,
    which criterion 3 uses in place of Dykstra's alternating projections."""

    def test_matches_dykstra(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            z, caps, v, c = caps_diag_ellipsoid_instance(rng)
            z[rng.uniform(size=z.size) < 0.2] = 0.0
            p = project_caps_diag_ellipsoid(z, caps, v, c)
            q = np.diag(v).astype(complex)
            # sweep cap far above the slowest of these instances
            ref = dykstra(z, [lambda y: project_caps(y, caps), lambda y: project_ellipsoid(y, q, c)],
                          iters=100000)
            assert np.linalg.norm(p - ref) <= 1e-9 * max(1.0, np.linalg.norm(p))

    def test_feasible_and_variational_inequality(self):
        # Re<z - P(z), x - P(z)> <= 0 for points x sampled in the set
        rng = np.random.default_rng(7)
        for _ in range(100):
            z, caps, v, c = caps_diag_ellipsoid_instance(rng)
            p = project_caps_diag_ellipsoid(z, caps, v, c)
            assert np.all(np.abs(p) <= caps * (1 + 1e-15))
            assert np.sum(v * np.abs(p) ** 2) <= c * (1 + 1e-14)
            x = 3.0 * (rng.standard_normal((200, z.size)) + 1j * rng.standard_normal((200, z.size)))
            x *= np.minimum(1.0, caps / np.abs(x))
            x *= np.minimum(1.0, np.sqrt(c / np.sum(v * np.abs(x) ** 2, axis=1)))[:, None]
            vi = np.real(np.conj(z - p) * (x - p)).sum(axis=1)
            assert np.all(vi <= 1e-12 * np.linalg.norm(z) ** 2)

    def test_loose_ellipsoid_is_caps_projection(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            z, caps, v, _ = caps_diag_ellipsoid_instance(rng)
            c = float(np.sum(v * caps ** 2))
            np.testing.assert_allclose(project_caps_diag_ellipsoid(z, caps, v, c),
                                       project_caps(z, caps), rtol=1e-15, atol=0)


class TestProjectCapsBall:
    def test_variational_inequality(self):
        # Re<z - P(z), x - P(z)> <= 0 for every x in the set, sampled inside
        # it and on its boundary
        rng = np.random.default_rng(1)
        for _ in range(100):
            z, caps, c = caps_ball_instance(rng)
            p = project_caps_ball(z, caps, c)
            assert np.all(np.abs(p) <= caps * (1 + 1e-15))
            assert np.sum(np.abs(p) ** 2) <= c * (1 + 1e-14)
            x = 3.0 * (rng.standard_normal((200, z.size)) + 1j * rng.standard_normal((200, z.size)))
            x *= np.minimum(1.0, caps / np.abs(x))
            x *= np.minimum(1.0, np.sqrt(c / np.sum(np.abs(x) ** 2, axis=1)))[:, None]
            vi = np.real(np.conj(z - p) * (x - p)).sum(axis=1)
            assert np.all(vi <= 1e-12 * np.linalg.norm(z) ** 2)

    def test_matches_dykstra(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            z, caps, c = caps_ball_instance(rng)
            p = project_caps_ball(z, caps, c)
            ref = caps_ball_dykstra(z, caps, c)
            assert np.linalg.norm(p - ref) <= 1e-10 * max(1.0, np.linalg.norm(p))

    def test_zero_elements_stay_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            z, caps, c = caps_ball_instance(rng)
            z[rng.uniform(size=z.size) < 0.5] = 0.0
            p = project_caps_ball(z, caps, c)
            assert np.all(p[z == 0] == 0)
            np.testing.assert_allclose(p, caps_ball_dykstra(z, caps, c), atol=1e-10)

    def test_zero_ball(self):
        z = np.array([1.0 + 1j, -0.5, 0.0])
        np.testing.assert_array_equal(project_caps_ball(z, np.ones(3), 0.0), np.zeros(3))

    def test_loose_caps_is_ball_projection(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            z, _, _ = caps_ball_instance(rng)
            c = float(rng.uniform(0.1, 2.0))
            p = project_caps_ball(z, np.full(z.size, 1e3), c)
            np.testing.assert_allclose(p, project_ball(z, c), rtol=1e-14, atol=1e-15)


def kkt_instances():
    """The 40 seeded caps-and-ellipsoid instances (A, b, v, caps, c) of the
    KKT certificate, A PSD of random rank."""
    rng = np.random.default_rng(13)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        a = rand_psd(rng, n, rank=int(rng.integers(1, n + 1)))
        b = 3.0 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        v = rng.uniform(0.1, 1.0, n)
        caps = rng.uniform(0.3, 1.5, n)
        yield a, b, v, caps, float(rng.uniform(0.2, 2.0))


class TestSolveConcaveQcqp:
    # caps loose enough that the cap-free ellipsoid optimum (whitening plus
    # the secular Newton step) is returned by the fast path
    def test_interior_optimum(self):
        p = QcqpProblem(quad=np.eye(2), lin=np.array([0.2, 0.0]), weights=np.ones(2),
                        bound=100.0, caps=np.full(2, 50.0))
        x = solve_concave_qcqp(p)
        np.testing.assert_allclose(x, [0.1, 0.0], atol=1e-9)

    def test_binding_norm_ball(self):
        p = QcqpProblem(quad=np.eye(2), lin=np.array([10.0, 0.0]), weights=np.ones(2),
                        bound=1.0, caps=np.full(2, 5.0))
        x = solve_concave_qcqp(p)
        np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-6)

    def test_requires_caps(self):
        # the problem always carries caps: the benchmark's tracer reads them
        with pytest.raises(TypeError, match="caps"):
            QcqpProblem(quad=np.eye(2), lin=np.ones(2), weights=np.ones(2), bound=1.0)

    def test_caps_route_vs_pg_oracle(self):
        rng = np.random.default_rng(12)
        for trial in range(6):
            n = 5
            a = rand_psd(rng, n)
            b = 3.0 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            v = rng.uniform(0.1, 1.0, n)
            caps = rng.uniform(0.3, 1.5, n)
            c = 1.0
            p = QcqpProblem(quad=a, lin=b, weights=v, bound=c, caps=caps)
            x = solve_concave_qcqp(p, tol=1e-8)
            assert np.sum(v * np.abs(x) ** 2) <= c * (1 + 1e-7)
            assert np.all(np.abs(x) <= caps * (1 + 1e-7))
            projs = [lambda y: project_caps_diag_ellipsoid(y, caps, v, c)]
            x_ref, f_ref = pg_qcqp_max(a, b, projs, iters=40000)
            f = float(np.real(np.vdot(b, x)) - np.vdot(x, a @ x).real)
            assert f >= f_ref - 1e-5 * (1.0 + abs(f_ref))

    def test_kkt_certificate_seeded(self):
        # KKT read off x alone: the gradient g = b - 2Ax is, element by
        # element, a real nonnegative multiple alpha_m x_m, with
        # alpha_m = 2 lam v_m below the caps for one lam >= 0, at least that
        # on the caps, and lam > 0 only on a tight ellipsoid
        both = 0
        for a, b, v, caps, c in kkt_instances():
            x = solve_concave_qcqp(QcqpProblem(quad=a, lin=b, weights=v, bound=c, caps=caps), tol=1e-9)
            energy = float(np.sum(v * np.abs(x) ** 2))
            assert np.all(np.abs(x) <= caps * (1 + 1e-12)) and energy <= c
            g = b - 2.0 * (a @ x)
            g_scale = np.linalg.norm(b) + 2.0 * np.linalg.norm(a, 2) * np.linalg.norm(x)
            alpha = np.real(g * np.conj(x)) / np.abs(x) ** 2
            a_scale = g_scale / np.linalg.norm(x)
            assert np.linalg.norm(g - alpha * x) <= 1e-8 * g_scale
            assert np.all(alpha >= -1e-8 * a_scale)
            capped = np.abs(x) >= caps * (1 - 1e-9)
            lam = alpha[~capped] / (2.0 * v[~capped])
            lam0 = max(float(np.mean(lam)), 0.0) if lam.size else 0.0
            assert np.all(np.abs(lam - lam0) <= 1e-7 * a_scale)
            assert np.all(alpha[capped] >= 2.0 * lam0 * v[capped] - 1e-7 * a_scale)
            assert lam0 * (c - energy) <= 1e-8 * a_scale * c
            both += capped.any() and energy >= c * (1 - 1e-9)
        assert both >= 10  # caps and ellipsoid binding together occurred

    def test_projections_per_capped_solve(self, monkeypatch):
        """Work of the capped route on the KKT certificate's 40 instances,
        without timing: projections onto the caps and the ball per solve
        that leaves the cap-free step (32 of them).  The accelerated MM
        engine takes a median of 29 and at most 81; the heavy-ball/FISTA
        ascent it replaced took a median of 82 and up to 208."""
        calls = []
        project = numerics.project_caps_ball

        def counted(*args):
            calls.append(1)
            return project(*args)

        monkeypatch.setattr(numerics, "project_caps_ball", counted)
        per_solve = []
        for a, b, v, caps, c in kkt_instances():
            calls.clear()
            solve_concave_qcqp(QcqpProblem(quad=a, lin=b, weights=v, bound=c, caps=caps), tol=1e-9)
            if calls:
                per_solve.append(len(calls))
        assert len(per_solve) >= 20
        assert np.median(per_solve) <= 45
        assert max(per_solve) <= 120

    def test_warm_ball_step_stays_in_band(self):
        # the cap-free route from stale power multipliers: the ellipsoid
        # binds within the band of the cold solve, at the same objective up
        # to that band, and the record holds the multiplier it ended on
        rng = np.random.default_rng(15)
        binding = 0
        for _ in range(20):
            n = 8
            a = rand_psd(rng, n, rank=int(rng.integers(1, n + 1)))
            b = 3.0 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            v = rng.uniform(0.1, 1.0, n)
            p = QcqpProblem(quad=a, lin=b, weights=v, bound=float(rng.uniform(0.01, 0.1)),
                            caps=np.full(n, 1e6))
            cold = numerics.Multipliers()
            x0 = solve_concave_qcqp(p, tol=1e-9, record=cold)
            f0 = float(np.real(np.vdot(b, x0)) - np.vdot(x0, a @ x0).real)
            binding += cold.lam1 > 0.0
            for start in (0.0, 1e-6 * cold.lam1, 1e6 * cold.lam1, np.inf):
                record = numerics.Multipliers(lam1=start)
                x = solve_concave_qcqp(p, tol=1e-9, record=record)
                energy = float(np.sum(v * np.abs(x) ** 2))
                assert energy <= p.bound
                if cold.lam1 > 0.0:
                    assert energy >= p.bound * (1.0 - 1e-9) and record.lam1 > 0.0
                f = float(np.real(np.vdot(b, x)) - np.vdot(x, a @ x).real)
                assert f == pytest.approx(f0, rel=1e-8)
                assert record.solves == record.ball_steps == 1
        assert binding >= 15

    def test_cap_clip_scalar(self):
        # cap-free optimum b/2 inside the loose ellipsoid but beyond the cap:
        # the caps route puts the solution on the cap at the phase of b
        b = np.array([4.0 * np.exp(0.7j)])
        p = QcqpProblem(quad=np.eye(1), lin=b, weights=np.ones(1), bound=100.0,
                        caps=np.array([0.5]))
        x = solve_concave_qcqp(p)
        assert abs(abs(x[0]) - 0.5) < 1e-9
        assert abs(np.angle(x[0]) - 0.7) < 1e-7


def mm_objective(gamma, lam, theta):
    return float(np.real(np.vdot(theta, lam)) - np.vdot(theta, gamma @ theta).real)


def mm_instance(rng, m, log_ratio=(-3.0, 3.0)):
    """Random unit-modulus problem: PSD Gamma of random rank and scale, a
    start of random phases, and a linear term of random phases with
    log10(||lam|| / (lam_max sqrt(M))) drawn from log_ratio.

    The passive trials of the paper and desk profiles give ratios of
    0.8 to 7.8; far below that the quadratic term dominates and MM
    can take more than 10^4 steps to settle."""
    gamma = rand_psd(rng, m, rank=int(rng.integers(1, m + 1))) * 10.0 ** rng.uniform(-3, 3)
    lam = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    lam *= (10.0 ** rng.uniform(*log_ratio) * np.linalg.eigvalsh(gamma)[-1] * np.sqrt(m)
            / np.linalg.norm(lam))
    theta0 = np.exp(2j * np.pi * rng.uniform(size=m))
    return gamma, lam, theta0


MM_SIZES = [1, 2, 3, 8, 25] * 10  # 50 instances, ten at the paper's M = 25
MM_MAX_ITER = 10000


class TestUnitModulusMm:
    def test_single_element_one_step(self):
        lam = np.array([2.0 * np.exp(-1.1j)])
        theta, steps = unit_modulus_mm(np.array([[3.0]]), lam, np.array([1j]), max_iter=1)
        assert steps == 1
        np.testing.assert_allclose(theta, [np.exp(-1.1j)], atol=1e-15)

    @pytest.mark.parametrize("seed, m", list(enumerate(MM_SIZES)))
    def test_ascent_at_every_step(self, seed, m):
        # each call with max_iter=1 is one MM step from its start
        gamma, lam, theta = mm_instance(np.random.default_rng(seed), m)
        f = mm_objective(gamma, lam, theta)
        for _ in range(100):
            theta, _ = unit_modulus_mm(gamma, lam, theta, max_iter=1)
            f_new = mm_objective(gamma, lam, theta)
            assert f_new >= f - 1e-12 * abs(f)
            f = f_new

    @pytest.mark.parametrize("seed, m", list(enumerate(MM_SIZES)))
    def test_fixed_point_at_return(self, seed, m):
        gamma, lam, theta0 = mm_instance(np.random.default_rng(seed), m, log_ratio=(-0.5, 1.0))
        theta, steps = unit_modulus_mm(gamma, lam, theta0, MM_MAX_ITER)
        assert steps < MM_MAX_ITER
        np.testing.assert_allclose(np.abs(theta), 1.0, atol=1e-12)
        assert mm_objective(gamma, lam, theta) >= mm_objective(gamma, lam, theta0)
        # a rise of at most 1e-8 relative leaves a next step of about 1e-4
        # per element
        lam_max = np.linalg.eigvalsh(gamma)[-1]
        step = np.exp(1j * np.angle(2.0 * (lam_max * theta - gamma @ theta) + lam))
        assert np.linalg.norm(theta - step) / np.sqrt(m) <= 1e-3
        # warm-started at its own answer the solve stops after one step
        again, steps = unit_modulus_mm(gamma, lam, theta, MM_MAX_ITER)
        assert steps == 1
        np.testing.assert_allclose(again, theta, atol=1e-3)

    def test_map_counts_in_the_paper_band(self):
        """Maps per solve on the 50 instances in the paper's ratio band,
        without timing.  With the step-length safeguarded SQUAREM the median
        is 9 and the largest 68 (67 without the safeguard); plain MM steps
        took a median of 18.5 and up to 296."""
        maps = [unit_modulus_mm(*mm_instance(np.random.default_rng(seed), m, log_ratio=(-0.5, 1.0)),
                                MM_MAX_ITER)[1] for seed, m in enumerate(MM_SIZES)]
        assert np.median(maps) <= 10
        assert max(maps) <= 80

    def test_full_range_solves_stop_before_the_cap(self):
        """The 50 instances over the full ratio range, down to 1e-3 where
        the quadratic term dominates, each meet the stop rule before
        MM_MAX_ITER maps: at most 939 with the step-length safeguard, where
        unsafeguarded SQUAREM ran one (seed 49) to the cap."""
        maps = [unit_modulus_mm(*mm_instance(np.random.default_rng(seed), m), MM_MAX_ITER)[1]
                for seed, m in enumerate(MM_SIZES)]
        assert max(maps) < MM_MAX_ITER

    def test_zero_quadratic_aligns_with_linear_term(self):
        lam = np.array([1.0 + 1.0j, -2.0, 3.0j])
        theta, steps = unit_modulus_mm(np.zeros((3, 3)), lam, np.ones(3, dtype=complex),
                                       MM_MAX_ITER)
        np.testing.assert_allclose(theta, np.exp(1j * np.angle(lam)), atol=1e-15)
        assert steps == 2

    def test_zero_linear_term(self):
        gamma, _, theta0 = mm_instance(np.random.default_rng(5), 6)
        theta, _ = unit_modulus_mm(gamma, np.zeros(6, dtype=complex), theta0, MM_MAX_ITER)
        np.testing.assert_allclose(np.abs(theta), 1.0, atol=1e-12)
        assert mm_objective(gamma, np.zeros(6), theta) >= mm_objective(gamma, np.zeros(6), theta0)

    def test_zero_problem_keeps_start(self):
        theta0 = np.exp(1j * np.arange(4.0))
        theta, steps = unit_modulus_mm(np.zeros((4, 4)), np.zeros(4, dtype=complex), theta0,
                                       MM_MAX_ITER)
        np.testing.assert_array_equal(theta, theta0)
        assert steps == 1


def beam_objective(a, y, w):
    return float(np.sum(np.real(np.conj(y) * w)) - np.sum(np.real(np.conj(w) * (w @ a.T))))


def beam_instance(rng, n, k, s_rank=None, in_range=True):
    """Stage-2-shaped instance: A = sum_k |nu_k|^2 h_k h_k^H (rank <= K) and
    y_k = 2 sqrt(1+omega_k) nu_k h_k, or an arbitrary y off range(A)."""
    h = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    nu = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    omega = rng.uniform(0.0, 2.0, k)
    a = (h.T * (np.abs(nu) ** 2)[None, :]) @ h.conj()
    a = 0.5 * (a + a.conj().T)
    if in_range:
        y = (2.0 * np.sqrt(1.0 + omega) * nu)[:, None] * h
    else:
        y = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    s = None if s_rank is None else rand_psd(rng, n, rank=s_rank)
    return a, y, s


def kkt_certificate(a, y, p_max, s, p_e, w):
    """Multipliers recovered from w alone by least squares on the
    stationarity equations lam1 w_k + lam2 S w_k = y_k/2 - A w_k, then the
    KKT conditions checked at them.  Returns (lam1, lam2)."""
    cols = [w.ravel()] + ([] if s is None else [(w @ s.T).ravel()])
    rhs = (0.5 * y - w @ a.T).ravel()
    mat = np.stack(cols, axis=1)
    lams, *_ = np.linalg.lstsq(np.vstack([mat.real, mat.imag]),
                               np.concatenate([rhs.real, rhs.imag]), rcond=None)
    lam1, lam2 = float(lams[0]), (float(lams[1]) if s is not None else 0.0)
    m = a + lam1 * np.eye(a.shape[0]) + (0.0 if s is None else lam2 * s)
    scale = lam1 + np.linalg.norm(a, 2) + (0.0 if s is None else lam2 * np.linalg.norm(s, 2))
    # dual feasibility
    assert lam1 >= -1e-8 * scale
    assert lam2 >= -1e-8 * scale / (1.0 if s is None else np.linalg.norm(s, 2))
    # stationarity, user by user
    for k in range(y.shape[0]):
        assert np.linalg.norm(m @ w[k] - 0.5 * y[k]) <= 1e-8 * np.linalg.norm(0.5 * y[k])
    # primal feasibility
    power = float(np.sum(np.abs(w) ** 2))
    energy = 0.0 if s is None else float(np.sum(np.real(np.conj(w) * (w @ s.T))))
    assert power <= p_max * (1 + 1e-12)
    assert energy <= p_e * (1 + 1e-12)
    # complementary slackness: the duality gap it leaves is negligible
    gap = max(lam1, 0.0) * (p_max - power) + max(lam2, 0.0) * (p_e - energy)
    assert gap <= 1e-8 * abs(beam_objective(a, y, w))
    return lam1, lam2


class TestSolveBeams:
    def test_two_constraints_vs_pg_oracle(self):
        rng = np.random.default_rng(11)
        for trial in range(6):
            n = 4
            a = rand_psd(rng, n)
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            q2 = rand_psd(rng, n) + 0.1 * np.eye(n)
            c1, c2 = 1.0, 0.5
            x = solve_beams(a, b[None, :], c1, q2, c2, tol=1e-9)[0]
            assert np.vdot(x, x).real <= c1 * (1 + 1e-8)
            assert np.vdot(x, q2 @ x).real <= c2 * (1 + 1e-8)
            projs = [lambda y: project_ball(y, c1), lambda y, q=q2: project_ellipsoid(y, q, c2)]
            x_ref, f_ref = pg_qcqp_max(a, b, projs, iters=40000)
            f = beam_objective(a, b[None, :], x[None, :])
            assert f >= f_ref - 1e-5 * (1.0 + abs(f_ref))

    def test_constraint_never_violated_scaled(self):
        # physical scales (watts ~1e-4): relative feasibility still holds
        rng = np.random.default_rng(5)
        n = 6
        a = rand_psd(rng, n) * 1e6
        b = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 1e-2
        q = rand_psd(rng, n, rank=3) * 1e-5
        c = 2e-4
        x = solve_beams(a, b[None, :], 0.5, q, c, tol=1e-9)[0]
        assert np.vdot(x, x).real <= 0.5 * (1 + 1e-8)
        assert np.vdot(x, q @ x).real <= c * (1 + 1e-8)

    @pytest.mark.parametrize("in_range", [True, False])
    def test_kkt_certificate_seeded(self, in_range):
        rng = np.random.default_rng(31 + in_range)
        binding = 0
        for _ in range(40):
            n, k = int(rng.integers(2, 9)), int(rng.integers(1, 5))
            a, y, s = beam_instance(rng, n, k, s_rank=int(rng.integers(1, n + 1)), in_range=in_range)
            p_max = 10 ** rng.uniform(-3, 1)
            p_e = float(rng.uniform(0.01, 1.2)) * p_max * np.linalg.eigvalsh(s)[-1]
            w = solve_beams(a, y, p_max, s, p_e, tol=1e-10)
            _, lam2 = kkt_certificate(a, y, p_max, s, p_e, w)
            binding += lam2 > 0 and np.sum(np.real(np.conj(w) * (w @ s.T))) >= p_e * (1 - 1e-9)
        assert 5 <= binding <= 35  # both binding and slack energy constraints occurred

    def test_no_energy_constraint(self):
        # M = 0: S absent, only the power ball
        rng = np.random.default_rng(40)
        for p_max in (1e-3, 1.0, 1e3):
            a, y, _ = beam_instance(rng, 6, 3)
            w = solve_beams(a, y, p_max)
            kkt_certificate(a, y, p_max, None, 0.0, w)

    def test_zero_linear_terms_give_zero_beams_from_a_warm_record(self):
        # y = 0 puts no weight on the ball step, warm-started at lam1 = 1
        rng = np.random.default_rng(75)
        a = rand_psd(rng, 4)
        rec = numerics.Multipliers(lam1=1.0)
        w = solve_beams(a, np.zeros((3, 4), complex), 2.0, record=rec)
        np.testing.assert_array_equal(w, np.zeros((3, 4)))
        assert rec.lam1 == 0.0

    def test_zero_s_matches_ball(self):
        # theta = 0 gives S = 0: the energy constraint is vacuous
        rng = np.random.default_rng(41)
        a, y, _ = beam_instance(rng, 5, 2, in_range=False)
        w0 = solve_beams(a, y, 0.3, np.zeros((5, 5), complex), 0.0)
        w1 = solve_beams(a, y, 0.3)
        np.testing.assert_allclose(w0, w1, rtol=1e-12, atol=1e-15)
        kkt_certificate(a, y, 0.3, None, 0.0, w1)

    def test_rank_deficient_s(self):
        rng = np.random.default_rng(42)
        for rank in (1, 2):
            a, y, s = beam_instance(rng, 6, 3, s_rank=rank)
            p_e = 0.05 * np.linalg.eigvalsh(s)[-1]
            w = solve_beams(a, y, 1.0, s, p_e, tol=1e-10)
            kkt_certificate(a, y, 1.0, s, p_e, w)

    def test_energy_slack_and_binding(self):
        rng = np.random.default_rng(44)
        a, y, s = beam_instance(rng, 6, 3, s_rank=6)
        s_max = np.linalg.eigvalsh(s)[-1]
        # energy <= s_max * power <= s_max * p_max: slack, lam2 = 0
        w = solve_beams(a, y, 1.0, s, 1.01 * s_max)
        _, lam2 = kkt_certificate(a, y, 1.0, s, 1.01 * s_max, w)
        assert abs(lam2) <= 1e-8 * np.linalg.norm(a, 2) / s_max
        # a small bound binds: energy within tol of it
        p_e = 1e-3 * s_max
        w = solve_beams(a, y, 1.0, s, p_e, tol=1e-10)
        _, lam2 = kkt_certificate(a, y, 1.0, s, p_e, w)
        energy = np.sum(np.real(np.conj(w) * (w @ s.T)))
        assert lam2 > 0 and p_e * (1 - 1e-10) <= energy <= p_e

    def test_single_user(self):
        rng = np.random.default_rng(45)
        for _ in range(5):
            a, y, s = beam_instance(rng, 4, 1, s_rank=4)
            p_e = 0.1 * np.linalg.eigvalsh(s)[-1]
            kkt_certificate(a, y, 0.5, s, p_e, solve_beams(a, y, 0.5, s, p_e))

    def test_tiny_power_budget(self):
        rng = np.random.default_rng(46)
        a, y, s = beam_instance(rng, 6, 3, s_rank=6)
        p_max = 1e-12
        p_e = 0.2 * p_max * np.linalg.eigvalsh(s)[-1]
        w = solve_beams(a, y, p_max, s, p_e)
        kkt_certificate(a, y, p_max, s, p_e, w)
        assert np.sum(np.abs(w) ** 2) <= p_max


def halfspace_instance(rng, n, k, in_range=True, share=None):
    """Stage-1-shaped instance: the beam terms of beam_instance and the
    linearized harvest at a start w0 inside the power ball, r_k = c K w0_k
    and xi = (1 + share) c sum_k w0_k^H K w0_k with share in [0, 1], so w0
    meets the half-space, on its boundary at share = 1 (the energy-tight
    time split)."""
    a, y, _ = beam_instance(rng, n, k, in_range=in_range)
    p_max = 10 ** rng.uniform(-3, 1)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    kk = g.conj().T @ g
    w0 = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    w0 *= np.sqrt(p_max * rng.uniform(0.1, 1.0) / np.sum(np.abs(w0) ** 2))
    c = 10 ** rng.uniform(-2, 1)
    r = c * (w0 @ kk.T)
    harvest = float(np.sum(np.real(np.conj(w0) * r)))
    share = rng.uniform(0.0, 1.0) if share is None else share
    return a, y, p_max, r, harvest * (1.0 + share)


def halfspace_certificate(a, y, p_max, r, xi, w, tol):
    """Multipliers recovered from w alone by least squares on the
    stationarity equations lam1 w_k - lam2 r_k = y_k/2 - A w_k, then the
    KKT conditions checked at them.  Returns (lam1, lam2)."""
    mat = np.stack([w.ravel(), -r.ravel()], axis=1)
    rhs = (0.5 * y - w @ a.T).ravel()
    (lam1, lam2), *_ = np.linalg.lstsq(np.vstack([mat.real, mat.imag]),
                                       np.concatenate([rhs.real, rhs.imag]), rcond=None)
    scale = abs(lam1) + np.linalg.norm(a, 2)
    # dual feasibility
    assert lam1 >= -1e-8 * scale
    assert lam2 >= -1e-8 * scale * np.linalg.norm(w) / np.linalg.norm(r)
    # stationarity, user by user
    m = a + lam1 * np.eye(a.shape[0])
    for k in range(y.shape[0]):
        err = np.linalg.norm(m @ w[k] - 0.5 * y[k] - lam2 * r[k])
        assert err <= 1e-8 * (np.linalg.norm(0.5 * y[k]) + abs(lam2) * np.linalg.norm(r[k]))
    # primal feasibility: the power never above its cap, the half-space met
    # from the feasible side
    power = float(np.sum(np.abs(w) ** 2))
    g = 2.0 * float(np.sum(np.real(np.conj(r) * w)))
    assert power <= p_max
    assert g >= xi
    if lam2 > 1e-6 * np.linalg.norm(y) / np.linalg.norm(r):
        assert g <= xi * (1 + tol)
    # complementary slackness: the duality gap it leaves is negligible
    gap = max(lam1, 0.0) * (p_max - power) + max(lam2, 0.0) * (g - xi)
    assert gap <= 1e-8 * abs(beam_objective(a, y, w))
    return lam1, lam2


class TestSolveBeamsHalfspace:
    @pytest.mark.parametrize("in_range", [True, False])
    def test_kkt_certificate_seeded(self, in_range):
        rng = np.random.default_rng(51 + in_range)
        binding = 0
        for _ in range(40):
            n, k = int(rng.integers(2, 9)), int(rng.integers(1, 5))
            a, y, p_max, r, xi = halfspace_instance(rng, n, k, in_range=in_range)
            w = solve_beams_halfspace(a, y, p_max, r, xi, tol=1e-10)
            halfspace_certificate(a, y, p_max, r, xi, w, tol=1e-10)
            binding += 2.0 * np.sum(np.real(np.conj(r) * w)) <= xi * (1 + 1e-10)
        assert 4 <= binding <= 36  # both binding and slack half-spaces occurred

    def test_slack_halfspace_is_ball_solution(self):
        # xi far below what the ball solution delivers: only the ball acts
        rng = np.random.default_rng(53)
        a, y, p_max, r, _ = halfspace_instance(rng, 6, 3)
        w_ball = solve_beams(a, y, p_max)
        xi = 2.0 * float(np.sum(np.real(np.conj(r) * w_ball))) - 1.0
        w = solve_beams_halfspace(a, y, p_max, r, xi)
        np.testing.assert_allclose(w, w_ball, rtol=1e-12, atol=1e-15)
        _, lam2 = halfspace_certificate(a, y, p_max, r, xi, w, tol=1e-9)
        assert lam2 == pytest.approx(0.0, abs=1e-8)

    def test_start_on_boundary(self):
        # the SCA case: the linearization point sits on the half-space boundary
        rng = np.random.default_rng(54)
        for _ in range(10):
            a, y, p_max, r, xi = halfspace_instance(rng, 5, 2, share=1.0)
            w = solve_beams_halfspace(a, y, p_max, r, xi)
            halfspace_certificate(a, y, p_max, r, xi, w, tol=1e-9)

    def test_out_of_reach_is_infeasible(self):
        rng = np.random.default_rng(55)
        a, y, p_max, r, _ = halfspace_instance(rng, 4, 2)
        reach = 2.0 * np.sqrt(p_max) * np.linalg.norm(r)
        with pytest.raises(Infeasible):
            solve_beams_halfspace(a, y, p_max, r, 1.01 * reach)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_single_antenna_tangent_halfspace(self):
        # N = 1: r_k = c |g|^2 w0_k is parallel to w0_k, and with the power
        # binding at w0 and the energy-tight share the half-space touches
        # the ball only at w0 (its largest harvest equals xi up to rounding),
        # so w0 is the one feasible point
        rng = np.random.default_rng(56)
        for _ in range(20):
            k = int(rng.integers(1, 5))
            a, y, _ = beam_instance(rng, 1, k)
            p_max = 10 ** rng.uniform(-3, 1)
            w0 = rng.standard_normal((k, 1)) + 1j * rng.standard_normal((k, 1))
            w0 *= np.sqrt(p_max / np.sum(np.abs(w0) ** 2))
            r = 10 ** rng.uniform(-2, 1) * abs(complex(*rng.standard_normal(2))) ** 2 * w0
            xi = 2.0 * float(np.sum(np.real(np.conj(r) * w0)))
            record = numerics.Multipliers()
            w = solve_beams_halfspace(a, y, p_max, r, xi, record=record)
            np.testing.assert_allclose(w, w0, rtol=1e-12)
            assert np.sum(np.abs(w) ** 2) <= p_max * (1 + 1e-15)
            assert 2.0 * np.sum(np.real(np.conj(r) * w)) >= xi * (1 - 1e-9)
            assert (record.solves, record.ball_steps) == (1, 0)
            with pytest.raises(Infeasible):  # beyond the band the ball cannot reach
                solve_beams_halfspace(a, y, p_max, r, xi * (1 + 1e-6))


def ball_instance(rng, n=8, null=0, null_weight=0.0, zero_null=False):
    """A binding power ball for _ball_factors: d >= 0 ascending whose first
    `null` entries are a numerical null space (exact zeros, or rounding-level
    values 1e-17 of the largest), r >= 0 with null_weight of its total on
    those entries, and a cap below the power at the pseudo-inverse."""
    d = np.sort(rng.uniform(0.05, 10.0, n)) * 10.0 ** rng.uniform(-3, 3)
    d[:null] = 0.0 if zero_null else np.sort(rng.uniform(0.0, 1e-17, null)) * d[-1]
    r = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.uniform(-3, 3)
    if null:
        r[:null] *= null_weight * r[null:].sum() / r[:null].sum()
    keep = d > 1e-12 * d[-1]
    cap = float(rng.uniform(0.01, 0.9)) * float(np.sum(r[keep] / d[keep] ** 2))
    return d, r, cap


def ball_power(d, r, inv):
    return float(np.sum(r * inv * inv))


BALL_CASES = [  # (null entries, their share of r's weight, exact zeros)
    (0, 0.0, False),
    (4, 1e-32, False),   # stage-2-shaped: rank K = 4 < N = 8, rounding-level weights
    (4, 1e-32, True),
    (4, 1e-12, False),   # weight on the null space above the pseudo-inverse cut
    (7, 1e-30, True),
]


class TestBallFactors:
    @pytest.mark.parametrize("null, weight, zero_null", BALL_CASES)
    @pytest.mark.parametrize("tol", [1e-6, 1e-11])
    def test_matches_bisection_from_both_sides(self, null, weight, zero_null, tol):
        rng = np.random.default_rng(61 + null)
        for _ in range(20):
            d, r, cap = ball_instance(rng, null=null, null_weight=weight, zero_null=zero_null)
            # the band [root_cap, root_tol] of multipliers with p in [cap (1 - tol), cap]
            root_cap = ball_multiplier_bisect(d, r, cap)
            root_tol = ball_multiplier_bisect(d, r, cap * (1.0 - tol))
            assert root_cap > 0.0
            # tight when one entry carries the weight: up to rounding
            assert numerics._ball_bound(d, np.cumsum(r), cap) <= root_cap * (1 + 1e-14)
            slack = 1e-12 * root_cap
            for start in (0.0, 0.5 * root_cap, root_tol * (1 + 1e-3), 2.0 * root_cap, 1e3 * root_cap):
                inv, lam = numerics._ball_factors(d, r, cap, tol, start)
                if start > root_tol:  # a warm start on the right of the root
                    assert ball_power(d, r, 1.0 / (d + start)) < cap * (1.0 - tol)
                assert cap * (1.0 - tol) <= ball_power(d, r, inv) <= cap
                assert root_cap - slack <= lam <= root_tol + slack
                np.testing.assert_allclose(inv, 1.0 / (d + lam), rtol=1e-15)
            # a start inside the band is kept as it is
            start = 0.5 * (root_cap + root_tol)
            if cap * (1.0 - tol) <= ball_power(d, r, 1.0 / (d + start)) <= cap:
                assert numerics._ball_factors(d, r, cap, tol, start)[1] == start

    def test_bound_dominates_the_single_term_bounds(self):
        rng = np.random.default_rng(66)
        for null, weight, zero_null in BALL_CASES:
            d, r, cap = ball_instance(rng, null=null, null_weight=weight, zero_null=zero_null)
            bound = numerics._ball_bound(d, np.cumsum(r), cap)
            assert bound >= np.sqrt(r.sum() / cap) - d[-1]
            assert bound >= np.max(np.sqrt(r / cap) - d)

    def test_pseudo_inverse_when_null_weightless_and_fits(self):
        rng = np.random.default_rng(67)
        for null in (0, 3):
            d, r, _ = ball_instance(rng, null=null, null_weight=1e-40, zero_null=True)
            pinv = np.where(d > 0.0, 1.0 / np.where(d > 0.0, d, 1.0), 0.0)
            cap = 1.5 * ball_power(d, r, pinv)
            for start in (0.0, 1.0):
                inv, lam = numerics._ball_factors(d, r, cap, 1e-9, start)
                assert lam == 0.0
                np.testing.assert_allclose(inv, pinv, rtol=1e-15)

    def test_start_that_is_not_finite_starts_cold(self):
        rng = np.random.default_rng(68)
        for _ in range(10):
            d, r, cap = ball_instance(rng)
            inv0, lam0 = numerics._ball_factors(d, r, cap, 1e-9)
            for start in (np.inf, np.nan):
                inv, lam = numerics._ball_factors(d, r, cap, 1e-9, start)
                assert lam == lam0
                np.testing.assert_array_equal(inv, inv0)

    def test_zero_weights_from_a_warm_start_end_at_lam_zero(self):
        # r = 0 leaves the Newton step from a warm lam > 0 at 0 / 0: it falls
        # back to the bound 0, whose factors 1/d meet any cap
        d = np.array([0.5, 1.0, 2.0])
        inv, lam = numerics._ball_factors(d, np.zeros(3), 1.0, 1e-9, lam=1.0)
        assert lam == 0.0
        np.testing.assert_array_equal(inv, 1.0 / d)

    def test_zero_weight_on_zero_entries_at_lam_zero(self):
        # pseudo-inverse power above the cap and a bound of 0: the Newton
        # iteration starts at lam = 0 with entries d_i = r_i = 0
        d, r, cap = np.array([0.0, 0.0, 1.0, 2.0]), np.array([0.0, 0.0, 1.0, 1.0]), 1.0
        assert numerics._ball_bound(d, np.cumsum(r), cap) == 0.0
        inv, lam = numerics._ball_factors(d, r, cap, 1e-9)
        assert np.all(np.isfinite(inv)) and np.all(inv[:2] == 0.0)
        assert cap * (1.0 - 1e-9) <= ball_power(d, r, inv) <= cap
        assert ball_multiplier_bisect(d, r, cap) <= lam <= ball_multiplier_bisect(d, r, cap * (1.0 - 1e-9))


def unconstrained_power(a, y):
    """Power of the unconstrained stationary beams A^+ y_k / 2."""
    return float(np.sum(np.abs(np.linalg.pinv(a) @ (0.5 * y).T) ** 2))


def captured_searches(monkeypatch):
    """Record every multiplier search while it runs as usual: its residual
    function, the multipliers it evaluated with their slacks (lam2 = 0
    included), and the start bounds it drew."""
    seen = []
    search = numerics._search

    def spy(at, warm, band, bound):
        rec = SimpleNamespace(at=at, points=[], bounds=[])
        seen.append(rec)

        def at_seen(lam):
            out = at(lam)
            rec.points.append((lam, out[2]))
            return out

        def bound_seen(x0):
            rec.bounds.append(bound(x0))
            return rec.bounds[-1]

        return search(at_seen, warm, band, bound_seen)

    monkeypatch.setattr(numerics, "_search", spy)
    return seen


def brackets(search):
    """Whether a recorded search met an infeasible multiplier."""
    return any(slack < 0.0 for _, slack in search.points)


def bracketing(seen):
    """(residual function, upper end) of every recorded search that met an
    infeasible multiplier; the upper end is the largest multiplier the
    search evaluated or drew as its bound."""
    return [(rec.at, max([lam for lam, _ in rec.points] + rec.bounds)) for rec in seen if brackets(rec)]


def assert_slopes_match_differences(at, lams, rel_step=1e-5, rtol=1e-4):
    for lam in lams:
        slope = at(lam)[3]
        h = rel_step * lam
        fd = (at(lam + h)[1] - at(lam - h)[1]) / (2.0 * h)
        assert slope > 0.0
        assert slope == pytest.approx(fd, rel=rtol)


class TestSearchSlopes:
    """The analytic slopes the Newton proposals use, against central
    differences of the residuals: a wrong slope would only cost steps."""

    def test_energy_residual(self, monkeypatch):
        seen = captured_searches(monkeypatch)
        rng = np.random.default_rng(71)
        for _ in range(12):
            a, y, s = beam_instance(rng, 8, 4, s_rank=8)
            p_max = 0.3 * unconstrained_power(a, y)
            solve_beams(a, y, p_max, s, 0.05 * p_max * np.linalg.eigvalsh(s)[-1])
        assert len(bracketing(seen)) == 12
        for at, hi in bracketing(seen):
            assert_slopes_match_differences(at, hi * np.logspace(-4, 0, 5))

    def test_energy_residual_slack_power(self, monkeypatch):
        # a power budget far above the unconstrained optimum: lam1 = 0
        seen = captured_searches(monkeypatch)
        rng = np.random.default_rng(72)
        for _ in range(6):
            a, y, s = beam_instance(rng, 6, 3, s_rank=6)
            p_max = 1e3 * unconstrained_power(a, y)
            solve_beams(a, y, p_max, s, 1e-4 * p_max * np.linalg.eigvalsh(s)[-1])
        for at, hi in bracketing(seen):
            assert_slopes_match_differences(at, hi * np.logspace(-4, 0, 5))

    def test_halfspace_residual(self, monkeypatch):
        seen = captured_searches(monkeypatch)
        rng = np.random.default_rng(73)
        while len(bracketing(seen)) < 12:
            a, y, p_max, r, xi = halfspace_instance(rng, 8, 4, share=1.0)
            solve_beams_halfspace(a, y, p_max, r, xi)
        for at, hi in bracketing(seen):
            assert_slopes_match_differences(at, hi * np.logspace(-4, 0, 5))


def paper_shaped_instances(rng, count):
    """Beam problems of the paper's shape (N = 8, K = 4, A of rank K) under
    a power ball that binds, as the paper profile's budget does: stage-2
    problems under a full-rank energy ellipsoid and stage-1 problems under
    the half-space through their linearization point.  Each is (solver,
    arguments)."""
    instances = []
    for _ in range(count):
        a, y, s = beam_instance(rng, 8, 4, s_rank=8)
        p_max = float(rng.uniform(0.05, 0.5)) * unconstrained_power(a, y)
        p_e = float(rng.uniform(0.01, 0.3)) * p_max * np.linalg.eigvalsh(s)[-1]
        instances.append((solve_beams, (a, y, p_max, s, p_e)))
        a, y, _ = beam_instance(rng, 8, 4)
        p_max = float(rng.uniform(0.05, 0.5)) * unconstrained_power(a, y)
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        w0 = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
        w0 *= np.sqrt(p_max * rng.uniform(0.1, 1.0) / np.sum(np.abs(w0) ** 2))
        r = 10 ** rng.uniform(-2, 1) * (w0 @ (g.conj().T @ g).T)
        xi = 2.0 * float(np.sum(np.real(np.conj(w0) * r)))
        instances.append((solve_beams_halfspace, (a, y, p_max, r, xi)))
    return instances


def paper_shaped_solves(rng, count):
    """The solves of paper_shaped_instances, cold, as calls without arguments."""
    return [lambda solve=solve, args=args: solve(*args) for solve, args in paper_shaped_instances(rng, count)]


def binding_search_costs(monkeypatch, solves):
    """Calls that reach numerics._ball_factors in each solve whose
    multiplier search met an infeasible multiplier, the lam2 = 0 evaluation
    included."""
    calls = [0]
    ball = numerics._ball_factors

    def counted(*args):
        calls[0] += 1
        return ball(*args)

    monkeypatch.setattr(numerics, "_ball_factors", counted)
    seen = captured_searches(monkeypatch)
    costs = []
    for solve in solves:
        calls[0] = 0
        seen.clear()
        solve()
        if any(brackets(rec) for rec in seen):
            costs.append(calls[0])
    return costs


def test_ball_steps_per_binding_search(monkeypatch):
    """Evaluation budget of the two beam searches, without timing.  Before
    the Newton proposals and the warm power multiplier these solves took a
    mean of 10.7 ball steps per binding search; they now take 5.8, at most
    8."""
    costs = binding_search_costs(monkeypatch, paper_shaped_solves(np.random.default_rng(81), 30))
    assert len(costs) >= 40
    assert np.mean(costs) <= 6.0
    assert max(costs) <= 10


def test_ball_steps_of_halfspace_searches_across_a_residual_jump():
    """Stage-1 instances whose harvest residual jumps where lam2^2 gamma on
    the null space of a rank-deficient A crosses the ball step's
    pseudo-inverse cut: the search meets the jump by bisection, not by
    false-position steps that creep along it (up to 138 ball steps)."""
    rng = np.random.default_rng(81)
    costs = []
    for _ in range(30):
        record = numerics.Multipliers()
        solve_beams_halfspace(*halfspace_instance(rng, 8, 4, share=1.0), record=record)
        costs.append(record.ball_steps)
    assert max(costs) <= 90
    assert sorted(costs)[-3] >= 60  # the jumps occurred


def test_searches_warm_start_the_power_multiplier(monkeypatch):
    """Within a search every ball step after the first starts from the power
    multiplier of the step before it."""
    steps = []
    ball = numerics._ball_factors

    def recorded(d, r, cap, tol, lam=0.0):
        inv, lam_out = ball(d, r, cap, tol, lam)
        steps.append((lam, lam_out))
        return inv, lam_out

    monkeypatch.setattr(numerics, "_ball_factors", recorded)
    warm = 0
    for solve in paper_shaped_solves(np.random.default_rng(82), 10):
        steps.clear()
        solve()
        for (_, previous), (start, _) in zip(steps, steps[1:]):
            assert start == previous
            warm += start > 0.0
    assert warm >= 40


def certify_in_band(solve, args, w, record, tol=1e-9):
    """The KKT certificate of a beam answer, and each constraint whose
    multiplier in the record is positive binding within its search's band:
    the power within tol of p_max, the second constraint within tol of its
    bound, both from the feasible side."""
    a, y, p_max, *rest = args
    power = float(np.sum(np.abs(w) ** 2))
    if solve is solve_beams:
        s, p_e = rest
        kkt_certificate(a, y, p_max, s, p_e, w)
        slack = p_e - float(np.sum(np.real(np.conj(w) * (w @ s.T))))
        band = tol * p_e
    else:
        r, xi = rest
        halfspace_certificate(a, y, p_max, r, xi, w, tol)
        slack = 2.0 * float(np.sum(np.real(np.conj(r) * w))) - xi
        band = tol * abs(xi)
    assert power <= p_max and slack >= 0.0
    if record.lam1 > 0.0:
        assert power >= p_max * (1.0 - tol)
    if record.lam2 > 0.0:
        assert slack <= band


@pytest.mark.parametrize("scale", [0.0, 1e-6, 1e6, np.inf])
def test_stale_warm_starts_keep_the_answer_in_band(scale):
    """Searches started from multipliers far from the problem's own (scale
    times them, with inf * 0 = nan also stale) still end on certified
    answers inside the bands of a cold solve."""
    for solve, args in paper_shaped_instances(np.random.default_rng(83), 20):
        cold = numerics.Multipliers()
        solve(*args, record=cold)
        record = numerics.Multipliers(lam1=scale * cold.lam1, lam2=scale * cold.lam2)
        w = solve(*args, record=record)
        certify_in_band(solve, args, w, record)
        assert record.solves == 1 and record.ball_steps >= 1


def test_no_search_evaluates_a_multiplier_twice(monkeypatch):
    """The stale warm starts of the test above, each search's evaluated
    multipliers recorded: none is evaluated twice, neither the feasible
    upper end after a fall back to lam2 = 0 nor lam2 = 0 itself."""
    seen = captured_searches(monkeypatch)
    for scale in (0.0, 1e-6, 1e6, np.inf):
        for solve, args in paper_shaped_instances(np.random.default_rng(83), 20):
            cold = numerics.Multipliers()
            solve(*args, record=cold)
            solve(*args, record=numerics.Multipliers(lam1=scale * cold.lam1, lam2=scale * cold.lam2))
    assert len(seen) >= 100
    for rec in seen:
        lams = [lam for lam, _ in rec.points]
        assert len(set(lams)) == len(lams)


def test_warm_start_at_the_own_multipliers_takes_at_most_two_ball_steps():
    searched = 0
    for solve, args in paper_shaped_instances(np.random.default_rng(84), 20):
        record = numerics.Multipliers()
        solve(*args, record=record)
        steps, searched = record.ball_steps, searched + (record.lam2 > 0.0)
        w = solve(*args, record=record)
        assert record.ball_steps - steps <= 2
        certify_in_band(solve, args, w, record)
    assert searched >= 20


def test_record_counts_the_work_of_cold_solves(monkeypatch):
    """A fresh record starts cold: the same answer as a solve without one,
    with the ball steps and the positive-lam2 evaluations it counted."""
    steps, evaluations = [0], [0]
    ball = numerics._ball_factors

    def counted(*args):
        steps[0] += 1
        return ball(*args)

    monkeypatch.setattr(numerics, "_ball_factors", counted)
    for solve, args in paper_shaped_instances(np.random.default_rng(85), 10):
        w_cold = solve(*args)
        steps[0] = 0
        record = numerics.Multipliers()
        np.testing.assert_array_equal(solve(*args, record=record), w_cold)
        assert record.ball_steps == steps[0] and record.solves == 1
        assert record.evaluations == steps[0] - 1  # every step but the one at lam2 = 0
        evaluations[0] += record.evaluations
    assert evaluations[0] > 0
