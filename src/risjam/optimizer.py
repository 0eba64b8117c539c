"""Stochastic-SCA alternating optimization of (tau, W1, W2, theta).

Per outer iteration a fresh channel realization is folded into running SAA
statistics, the time split is set by the closed-form energy-tight rule, and
the beamforming blocks are solved as convex subproblems built from
quadratic-transform surrogates of the sum rate.  Both stages share one
auxiliary update and one surrogate on the system kernel
(system.signal_and_power); update_aux_stage1/2 pick each stage's channels
and SAA-averaged extra term for the auxiliaries.  The beam blocks pick
them again: solve_w1 rebuilds stage 1's extra term, and solve_w2 and the
baselines' w2 block rebuild stage 2's effective channels.

One AO loop runs every scheme: the active harvesting RIS, and the
passive-RIS and no-RIS baselines, which skip harvesting; the no-RIS
baseline is the passive scheme on channels without RIS elements
(ChannelSet.without_ris), so its theta is empty.

The blocks and their solves in numerics:

- stage-1 beams: SCA on the energy-supply constraint; each linearized
  problem keeps the power ball and a half-space (solve_beams_halfspace);
- stage-2 beams: the power ball and the harvested-energy ellipsoid
  (solve_beams);
- active reflection: the diagonal output-power ellipsoid and the amplitude
  caps (solve_concave_qcqp): one ball step when the caps are slack, else
  the reflection MM engine, stopped on its KKT residual;
- passive reflection: the unit-modulus set, by the same engine of
  SQUAREM-accelerated majorization-minimization maps, stopped on a small
  rise of the objective (unit_modulus_mm).

The beam solves and the reflection's cap-free step share one multiplier
engine: Newton's method on the secular equation for a ball, and for a
second constraint one search, Newton inside the bracket, bisection
otherwise.  Each of these blocks keeps one multiplier record
(numerics.Multipliers) across the AO iterations, so its solves start from
the multipliers its previous solve ended on.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from . import numerics, system
from .channel import ChannelSet, Realization, sample_uncertain_realization
from .numerics import QcqpProblem, solve_concave_qcqp
from .system import LN2, PowerModel, SolverState


class DegenerateTau(Exception):
    """Both the RIS power draw and the harvest term are zero."""


class EnergyInfeasible(Exception):
    """Harvested energy cannot cover static power plus amplified RIS noise."""


@dataclass
class SaaStats:
    """Running means of the realization-dependent quantities, summed over the
    jammers (every consumer needs only the sum).

    Memory is O(K*M^2), independent of the number of realizations and of
    jammers; the stage-2 surrogate matrices are assembled from these means
    rather than by re-looping over stored draws.  M is the number of
    reflection coefficients being optimized (0 without an RIS).  Each mean
    is folded from the adversary terms a draw carries (channel.Realization), so no
    channel is read here.  The draws themselves are kept only for the SAA
    objective, in the one batch the AO loop draws before its first
    iteration: O(r_max) times the size of one draw.
    """

    count: int
    d_abs2: np.ndarray    # (K,)     mean of sum_q |d_qk|^2, d_qk = h_JU,qk^H z_qk
    dt_conj: np.ndarray   # (K,M)    mean of sum_q conj(d_qk) t_qk, t_qk = G_JR,q z_qk
    m_mat: np.ndarray     # (K,M,M)  mean of sum_q u_qk u_qk^H, u_qk = conj(t_qk) o h_RU,k
    zbar_i2: np.ndarray   # (K,)     mean interferer power at the UE

    @classmethod
    def empty(cls, k: int, m: int) -> "SaaStats":
        return cls(
            count=0,
            d_abs2=np.zeros(k),
            dt_conj=np.zeros((k, m), dtype=complex),
            m_mat=np.zeros((k, m, m), dtype=complex),
            zbar_i2=np.zeros(k),
        )


def update_saa_stats(stats: SaaStats, draws: Realization, cs: ChannelSet) -> SaaStats:
    """Fold the draws of a batch into the running means from the adversary
    terms they carry: each mean becomes (count mean + sum over the draws) /
    (count + len(draws)), the sums over jammers and draws taken as matrix
    products, one per user."""
    r = stats.count + len(draws)
    keep = stats.count / r

    def fold(mean, total):  # total is a fresh array: scaled in place
        mean *= keep
        total /= r
        mean += total

    fold(stats.zbar_i2, draws.interf.sum(axis=0))
    fold(stats.d_abs2, (np.abs(draws.direct) ** 2).sum(axis=(0, 1)))
    if stats.dt_conj.shape[1]:
        k, m = stats.dt_conj.shape
        rq = draws.direct.shape[0] * draws.direct.shape[1]
        t = draws.bounce.transpose(3, 2, 0, 1).reshape(k, m, rq)  # columns t_qk of every draw
        d = np.conj(draws.direct).transpose(2, 0, 1).reshape(k, rq, 1)
        u = np.conj(t) * cs.h_ru[:, :, None]  # columns u_qk
        fold(stats.dt_conj, (t @ d)[:, :, 0])
        fold(stats.m_mat, u @ np.conj(np.swapaxes(u, 1, 2)))
    stats.count = r
    return stats


def update_tau(p_r: float, w1: np.ndarray, g_br: np.ndarray, eta1: float) -> float:
    """Energy-tight time split tau = P_R / (P_R + eta1 sum_k ||G_BR w1_k||^2)."""
    harvest = system.harvested_energy(w1, 1.0, g_br, eta1)
    if p_r <= 0.0 and harvest <= 0.0:
        raise DegenerateTau("both the power draw and the harvest term vanish")
    return p_r / (p_r + harvest)


# ---------------------------------------------------------------------------
# quadratic-transform surrogates
# ---------------------------------------------------------------------------

def optimal_aux(h: np.ndarray, w: np.ndarray, c: np.ndarray):
    """Optimal quadratic-transform auxiliaries of one stage with channels h,
    beams w and extra term c (system.signal_and_power).

    omega is the SINR; nu is the ratio form with the sqrt(1+omega) radicand
    that makes the surrogate identity exact.
    """
    e, p = system.signal_and_power(h, w, c)
    s = np.abs(e) ** 2
    omega = s / (p - s)
    return omega, np.sqrt(1.0 + omega) * e / p


def surrogate(h: np.ndarray, w: np.ndarray, omega: np.ndarray, nu: np.ndarray,
              c: np.ndarray) -> float:
    """Quadratic-transform surrogate of one stage's sum rate in nats,
    sum_k ln(1+omega_k) + 2 sqrt(1+omega_k) Re{nu_k^* h_k^H w_k} - omega_k
    - |nu_k|^2 (sum_j |h_k^H w_j|^2 + c_k); it equals sum_k ln(1+SINR_k)
    at the optimal auxiliaries."""
    e, p = system.signal_and_power(h, w, c)
    val = (
        np.log1p(omega)
        + 2.0 * np.sqrt(1.0 + omega) * np.real(np.conj(nu) * e)
        - omega
        - np.abs(nu) ** 2 * p
    )
    return float(np.sum(val))


def stage2_interference_avg(theta: np.ndarray, cs: ChannelSet, stats: SaaStats) -> np.ndarray:
    """(K,) SAA average of Z_2,k as a function of theta, assembled from the
    sufficient statistics: E|d|^2 + 2 Re{...theta} + theta^H M_bar theta."""
    z = stats.zbar_i2 + stats.d_abs2
    if theta.size == 0:
        return z
    lin = np.einsum("km,km,m->k", np.conj(cs.h_ru), stats.dt_conj, theta)
    quad = np.einsum("m,kmn,n->k", np.conj(theta), stats.m_mat, theta)
    return z + 2.0 * np.real(lin) + np.real(quad)


def update_aux_stage1(w1: np.ndarray, cs: ChannelSet, stats: SaaStats, noise: float):
    """Auxiliaries of the harvesting stage: direct channels, averaged
    jamming and interference plus the UE noise."""
    return optimal_aux(cs.h_bu, w1, stats.zbar_i2 + stats.d_abs2 + noise)


def update_aux_stage2(w2: np.ndarray, theta: np.ndarray, cs: ChannelSet, stats: SaaStats,
                      noise: float):
    """Auxiliaries of the reflection stage: effective channels, amplified
    RIS noise, the averaged interference built from the running statistics
    and the current theta, plus the UE noise."""
    c = system.ris_noise(theta, cs, noise) + stage2_interference_avg(theta, cs, stats) + noise
    return optimal_aux(system.effective_channels(theta, cs), w2, c)


# ---------------------------------------------------------------------------
# P2-C: stage-1 beams under power + linearized energy constraints
# ---------------------------------------------------------------------------

def solve_w1(state: SolverState, cs: ChannelSet, stats: SaaStats, pm: PowerModel,
             i_max: int = 15, varsigma1: float = 1e-3,
             record: numerics.Multipliers | None = None) -> np.ndarray:
    """SCA loop for the stage-1 beams: the nonconvex energy-supply constraint
    is linearized at the current iterate into a half-space, and each step
    solves the beam QCQP under that half-space and the power ball
    (numerics.solve_beams_halfspace).  A and y stay fixed over the loop, so
    one eigendecomposition of A serves every step, and each step starts
    from the multipliers of the step before it (the record's, when given)."""
    tau = state.tau
    p_r = system.ris_power(state.w2, state.theta, cs.g_br, pm)
    omega, nu = state.omega1, state.nu1
    c = stats.zbar_i2 + stats.d_abs2 + pm.noise
    k1 = numerics.hermitize(cs.g_br.conj().T @ cs.g_br)
    a, y = beam_terms(cs.h_bu, omega, nu)
    eig = numerics.psd_eigh(a)
    record = numerics.Multipliers() if record is None else record

    w = state.w1.copy()
    val = surrogate(cs.h_bu, w, omega, nu, c)
    for _ in range(i_max):
        a_vec = w @ k1.T  # rows: K1 w_k (K1 Hermitian)
        xi1 = (1.0 - tau) * p_r + tau * pm.eta1 * float(np.sum(np.real(np.conj(w) * a_vec)))
        w = numerics.solve_beams_halfspace(a, y, pm.p_max, (tau * pm.eta1) * a_vec, xi1,
                                           record=record, eig=eig)
        val, prev = surrogate(cs.h_bu, w, omega, nu, c), val
        if abs(val - prev) <= varsigma1 * max(abs(val), 1e-12):
            break
    return w


# ---------------------------------------------------------------------------
# P3-C: stage-2 beams (K-block QCQP)
# ---------------------------------------------------------------------------

def beam_terms(h_eff: np.ndarray, omega: np.ndarray, nu: np.ndarray):
    """Shared quadratic A = sum_k |nu_k|^2 h_k h_k^H and the linear rows
    y_k = 2 sqrt(1+omega_k) nu_k h_k of a beam surrogate, for either stage
    (the direct channels h_BU for stage 1, the effective ones for stage 2)."""
    a = numerics.hermitize((h_eff.T * (np.abs(nu) ** 2)[None, :]) @ h_eff.conj())
    y = (2.0 * np.sqrt(1.0 + omega) * nu)[:, None] * h_eff
    return a, y


def energy_budget(state: SolverState, cs: ChannelSet, pm: PowerModel) -> float:
    """Amplifier budget P_E = (E_R - (1-tau) M P_static) / ((1-tau) xi):
    the output power (amplified signal plus amplified RIS noise) that the
    harvested energy E_R leaves after the static load, P_static = P_dc + P_sc
    per element."""
    e_r = system.harvested_energy(state.w1, state.tau, cs.g_br, pm.eta1)
    one_minus_tau = 1.0 - state.tau
    return (e_r - one_minus_tau * state.theta.size * pm.p_static) / (one_minus_tau * pm.xi)


def solve_w2(state: SolverState, cs: ChannelSet, stats: SaaStats, pm: PowerModel,
             tol: float = 1e-9, record: numerics.Multipliers | None = None) -> np.ndarray:
    """Reflection-stage beams: maximize the stage-2 surrogate under the
    transmit-power ball and the harvested-energy ellipsoid (numerics.solve_beams,
    warm-started from the record when given)."""
    theta = state.theta
    p_e = energy_budget(state, cs, pm) - pm.noise * float(np.sum(np.abs(theta) ** 2))
    if p_e < 0:
        raise EnergyInfeasible(f"the harvest cannot cover static load and RIS noise (P_E = {p_e:.3e})")
    s_block = numerics.hermitize(
        cs.g_br.conj().T @ (np.abs(theta)[:, None] ** 2 * cs.g_br)
    ) if theta.size else None
    a, y = beam_terms(system.effective_channels(theta, cs), state.omega2, state.nu2)
    return numerics.solve_beams(a, y, pm.p_max, s_block, p_e, tol=tol, record=record)


# ---------------------------------------------------------------------------
# P4-B: reflection coefficients (QCQP with magnitude caps)
# ---------------------------------------------------------------------------

def theta_quadratic_model(state: SolverState, cs: ChannelSet, stats: SaaStats,
                          noise: float, mu: np.ndarray):
    """Averaged quadratic model of the stage-2 surrogate in theta.

    Returns (gamma_bar, lambda_bar) with the surrogate equal (up to a
    theta-independent constant) to Re{theta^H lambda_bar} - theta^H gamma_bar theta.
    Both are assembled from the SaaStats means, never by looping over draws.
    mu (K, M) holds the rows mu_j = G_BR w2_j, which the caller computes once
    per reflection solve.
    """
    w2, omega, nu = state.w2, state.omega2, state.nu2
    e_dir = cs.h_bu.conj() @ w2.T  # e[k, j] = h_BU,k^H w2_j
    nu2 = np.abs(nu) ** 2
    # sum_k |nu_k|^2 sum_j v_kj v_kj^H with v_kj = conj(mu_j) o h_RU,k
    h_w = cs.h_ru.T @ (nu2[:, None] * np.conj(cs.h_ru))  # sum_k |nu_k|^2 h_RU,k h_RU,k^H
    gamma = (mu.conj().T @ mu) * h_w
    gamma += np.diag(noise * (nu2 @ np.abs(cs.h_ru) ** 2))
    gamma += np.einsum("k,kmn->mn", nu2, stats.m_mat)
    coef = ((np.sqrt(1.0 + omega) * nu)[:, None] * np.conj(mu)
            - nu2[:, None] * (e_dir @ np.conj(mu))
            - nu2[:, None] * np.conj(stats.dt_conj))
    lam = 2.0 * np.sum(cs.h_ru * coef, axis=0)
    return numerics.hermitize(gamma), lam


def solve_theta(state: SolverState, cs: ChannelSet, stats: SaaStats, pm: PowerModel,
                tol: float = 1e-8, record: numerics.Multipliers | None = None) -> np.ndarray:
    """Reflection coefficients: maximize the averaged quadratic model under
    the output-power ellipsoid, diagonal with weights sum_k |mu_km|^2 +
    sigma^2, and per-element amplitude caps (numerics.solve_concave_qcqp,
    its ball step warm-started from the record when given)."""
    m = state.theta.size
    if m == 0:
        return state.theta.copy()
    p_e = energy_budget(state, cs, pm)
    if p_e < 0:
        raise EnergyInfeasible(f"the harvest cannot cover the static load (P_E_tilde = {p_e:.3e})")
    mu = state.w2 @ cs.g_br.T
    gamma, lam = theta_quadratic_model(state, cs, stats, pm.noise, mu)
    prob = QcqpProblem(quad=gamma, lin=lam, weights=np.sum(np.abs(mu) ** 2, axis=0) + pm.noise,
                       bound=p_e, caps=np.full(m, pm.a_max))
    return solve_concave_qcqp(prob, tol=tol, record=record)


# ---------------------------------------------------------------------------
# outer loop
# ---------------------------------------------------------------------------

# Map cap of one unit-modulus theta solve, far above the largest count seen
# on the paper and desk profiles.  A capped solve is kept, not raised: its
# accepted iterates never descend, so it still improves on its warm start.
THETA_MM_MAX_ITER = 10000


@dataclass
class AoReport:
    """Objective trace, timings, final (best-so-far) state, slacks, the
    map counts of the unit-modulus theta solves, and the multiplier record
    of each QCQP block (w1, w2, theta) with its counters."""

    objective_nats: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    state: SolverState = None
    converged: bool = False
    iterations: int = 0
    feasibility: system.FeasibilityReport = None
    tau_tightness: list = field(default_factory=list)
    monotone_after_warmup: bool = True
    best_objective_nats: float = -np.inf
    theta_steps: int = 0    # MM maps summed over the unit-modulus theta solves
    theta_capped: int = 0   # unit-modulus theta solves stopped by THETA_MM_MAX_ITER
    multipliers: dict = field(default_factory=dict)  # block -> numerics.Multipliers

    @property
    def ball_steps(self) -> int:
        return sum(rec.ball_steps for rec in self.multipliers.values())

    @property
    def lam2_evaluations(self) -> int:
        return sum(rec.evaluations for rec in self.multipliers.values())

    @property
    def objective_bits(self) -> list:
        return [v / LN2 for v in self.objective_nats]

    @property
    def best_objective_bits(self) -> float:
        return self.best_objective_nats / LN2


def initial_state(cs: ChannelSet, pm: PowerModel, harvest: bool) -> SolverState:
    """Deterministic feasible start: equal-power matched filters, reflection
    phases aligned to the first user's cascade, energy-tight tau (0 without
    harvesting)."""
    norms = np.linalg.norm(cs.h_bu, axis=1)
    w = np.sqrt(pm.p_max / cs.n_users) * cs.h_bu / norms[:, None]
    theta = np.zeros(0, dtype=complex)
    if cs.m_elements:
        theta = np.exp(-1j * np.angle(np.conj(cs.h_ru[0]) * (cs.g_br @ cs.h_bu[0])))
    tau = 0.0
    if harvest and theta.size:
        tau = update_tau(system.ris_power(w, theta, cs.g_br, pm), w, cs.g_br, pm.eta1)
    return SolverState(tau=tau, w1=w.copy(), w2=w.copy(), theta=theta)


def _alternate(cs: ChannelSet, cfg, rng: np.random.SeedSequence, harvest: bool) -> AoReport:
    """The SSCA alternating optimization of every scheme.

    harvest=True is the TD-SWIPT active RIS: energy-tight tau, stage-1
    beams, and the energy terms of the w2 and theta solves.  Otherwise the
    whole period is the reflection stage: tau = 0, w1 = w2, beams over the
    power ball only, and unit-modulus theta by accelerated MM maps
    warm-started at the current theta.  On channels without RIS elements
    theta starts empty, so every RIS term drops out.

    Before the loop one generator on the seed draws the whole batch of
    r_max realizations (one sample call).  Iteration r folds draw r into the
    SAA statistics, evaluates the SAA objective on the first r draws,
    applies the stop rule, keeps the best state, then updates the blocks
    the scheme optimizes.  With ideal CSI (e_mse = 0) every draw is the
    estimates, so the batch holds one draw: it is folded once, and every
    objective is evaluated on that one draw.  Each QCQP block keeps one
    multiplier record across the iterations, so its solves start from the
    multipliers of its previous solve."""
    pm = cfg.power_model()
    state = initial_state(cs, pm, harvest)
    stats = SaaStats.empty(cs.n_users, state.theta.size)
    records = {block: numerics.Multipliers() for block in ("w1", "w2", "theta")}
    report = AoReport(timings={k: 0.0 for k in ("draw", "objective", "tau", "aux1", "w1", "aux2", "w2", "theta")},
                      multipliers=records)

    @contextmanager
    def timed(block):
        t0 = time.perf_counter()
        yield
        report.timings[block] += time.perf_counter() - t0

    with timed("draw"):
        draws = sample_uncertain_realization(cs, cfg.e_mse, np.random.default_rng(rng),
                                             1 if cfg.e_mse == 0 else cfg.r_max)
    best_state = state.copy()
    prev_v = None
    warmup = 5
    flat_streak = 0

    for r in range(1, cfg.r_max + 1):
        if r <= len(draws):
            with timed("draw"):
                update_saa_stats(stats, draws[r - 1:r], cs)
        with timed("objective"):
            v = system.sum_rate_nats(state.tau, state.w1, state.w2, state.theta, draws[:r], cs, pm.noise)
        report.objective_nats.append(v)
        report.iterations = r
        if v > report.best_objective_nats:
            report.best_objective_nats = v
            best_state = state.copy()
        if prev_v is not None and r > warmup and v < prev_v * (1.0 - 1e-3) - 1e-12:
            report.monotone_after_warmup = False
        # stop on two consecutive sub-tolerance steps once past the SAA
        # warm-up window (the averaged objective drifts while draws accrue)
        if prev_v is not None and abs(v - prev_v) < cfg.varsigma * max(abs(v), 1e-12):
            flat_streak += 1
        else:
            flat_streak = 0
        if r > warmup and flat_streak >= 2:
            report.converged = True
            break
        prev_v = v

        if harvest:
            with timed("tau"):
                p_r = system.ris_power(state.w2, state.theta, cs.g_br, pm)
                if p_r > 0:
                    state.tau = update_tau(p_r, state.w1, cs.g_br, pm.eta1)
                    e_r = system.harvested_energy(state.w1, state.tau, cs.g_br, pm.eta1)
                    gap = e_r - (1.0 - state.tau) * p_r
                    report.tau_tightness.append(abs(gap) / max(e_r, 1e-300))
            with timed("aux1"):
                state.omega1, state.nu1 = update_aux_stage1(state.w1, cs, stats, pm.noise)
            with timed("w1"):
                state.w1 = solve_w1(state, cs, stats, pm, i_max=cfg.i_max, varsigma1=cfg.varsigma1,
                                    record=records["w1"])
        with timed("aux2"):
            state.omega2, state.nu2 = update_aux_stage2(state.w2, state.theta, cs, stats, pm.noise)
        with timed("w2"):
            if harvest:
                state.w2 = solve_w2(state, cs, stats, pm, record=records["w2"])
            else:
                a, y = beam_terms(system.effective_channels(state.theta, cs),
                                  state.omega2, state.nu2)
                state.w1 = state.w2 = numerics.solve_beams(a, y, pm.p_max, tol=1e-9,
                                                           record=records["w2"])
        with timed("theta"):
            if state.theta.size and harvest:
                state.theta = solve_theta(state, cs, stats, pm, record=records["theta"])
            elif state.theta.size:
                gamma, lam = theta_quadratic_model(state, cs, stats, pm.noise, state.w2 @ cs.g_br.T)
                state.theta, steps = numerics.unit_modulus_mm(gamma, lam, state.theta, THETA_MM_MAX_ITER)
                report.theta_steps += steps
                report.theta_capped += steps >= THETA_MM_MAX_ITER

    report.state = best_state
    report.feasibility = system.check_feasibility(best_state, cs, pm)
    if not harvest:
        # no harvesting stage and no amplification draw: no energy-supply constraint
        report.feasibility = replace(report.feasibility, energy_slack=0.0)
    return report


def ssca_ao(cs: ChannelSet, cfg, rng: np.random.SeedSequence) -> AoReport:
    """SSCA-based alternating optimization of the active harvesting scheme
    (realization draw, tau, stage-1 beams, stage-2 beams, reflection
    coefficients) until the SAA objective changes by less than varsigma
    relative or r_max iterations elapse."""
    return _alternate(cs, cfg, rng, harvest=True)
