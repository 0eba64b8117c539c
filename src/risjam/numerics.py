"""Complex linear algebra primitives and the concave QCQPs of the optimizer
blocks.

Every Lagrange-multiplier search here runs on one engine: the ball step
(Newton's method on the secular equation, started from a prefix-sum lower
bound or from a warm multiplier) for a power-ball multiplier, and one
search for the beam solves' second multiplier, Newton inside the bracket,
bisection otherwise.
A solve can carry its multipliers over from the solve before it in a
Multipliers record, which also counts the solves' work.  Both reflection
solves, the unit-modulus one and the capped one past its ball step, run
one engine of SQUAREM-accelerated majorization-minimization maps, each
with its set's projection and its stop test.  Everything here operates on
dense complex numpy arrays, the Hermitian ones Hermitian up to rounding, and
is pure: no global state, safe to call from concurrent trial workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class Infeasible(Exception):
    """No point meets a beam solve's constraints: a half-space out of the
    power ball's reach."""


class MaxIterExceeded(Exception):
    """Iterative solve did not reach the requested KKT residual."""


def psd_eigh(a: np.ndarray):
    """Eigendecomposition (d, U), d ascending, of a PSD matrix Hermitian up to
    rounding, read from its lower triangle; rounding's negative d clip to 0."""
    d, u = np.linalg.eigh(a)
    return np.maximum(d, 0.0), u


@dataclass
class Multipliers:
    """One block's multipliers, carried from one solve to the next, and the
    work its solves took.

    A solve given a record starts its searches from lam1, the power ball's
    multiplier, and lam2, the second constraint's, then overwrites them
    with the multipliers it ends on and adds its work to the counters: ball
    steps (_ball_factors calls) and lam2 evaluations (ball steps at a
    positive lam2).  A fresh record starts cold.
    """

    lam1: float = 0.0
    lam2: float = 0.0
    solves: int = 0
    ball_steps: int = 0
    evaluations: int = 0

    def ended(self, lam1, lam2, steps, evaluations):
        self.lam1, self.lam2 = lam1, lam2
        self.solves += 1
        self.ball_steps += steps
        self.evaluations += evaluations


@dataclass
class QcqpProblem:
    """Concave QCQP of the active reflection solve.

        maximize    Re{b^H x} - x^H A x
        subject to  sum_m v_m |x_m|^2 <= c,   |x_m| <= caps_m

    A Hermitian PSD, the ellipsoid diagonal with weights v_m > 0, caps_m
    >= 0 and a float c > 0.  Nothing is checked or converted: the active
    reflection solve builds it from a validated scenario (positive noise
    power, caps A_max >= 1) and a budget that solve_w2 found positive.
    """

    quad: np.ndarray
    lin: np.ndarray
    weights: np.ndarray
    bound: float
    caps: np.ndarray


def _ball_bound(d, cum, cap):
    """Lower bound max(0, max_j sqrt(cum_j / cap) - d_j) on every lam >= 0
    with p(lam) = sum_i r_i / (d_i + lam)^2 <= cap, cum the prefix sums of
    r >= 0: as d is ascending, p(lam) >= cum_j / (d_j + lam)^2 for every j.
    It is at least both the largest single-term bound sqrt(r_j / cap) - d_j
    and the total's bound sqrt(cum_N / cap) - d_N."""
    return max(0.0, float((np.sqrt(cum / cap) - d).max()))


def _ball_factors(d, r, cap, tol, lam=0.0):
    """Factors 1/(d_i + lam) for the smallest lam >= 0 with
    p(lam) = sum_i r_i / (d_i + lam)^2 <= cap, given d >= 0 ascending, r >= 0
    and cap > 0 (unchecked).  Returns (factors, lam).

    lam = 0 (pseudo-inverse factors) when r has no weight on the numerical
    null space of d and p(0) fits.  Otherwise lam solves the secular equation
    phi(lam) = 1/sqrt(p(lam)) - 1/sqrt(target) = 0, target = cap (1 - tol/2),
    by Newton's method.  phi is increasing and concave, so from the left of
    the root the iterates rise towards it without passing it (More &
    Sorensen, SIAM J. Sci. Stat. Comput. 1983), and one step from its right
    lands on its left.  The iteration starts at the given lam, a warm start
    such as the multiplier of a nearby problem (one that is not finite
    starts cold), raised to the prefix-sum lower bound of the root
    (_ball_bound), and every step is clamped at that bound.  The first
    iterate with p in [cap (1 - tol), cap] is returned, or the bound itself
    when p fits there.
    """
    cum = r.cumsum()
    d_min = float(d[0])
    cut = 1e-12 * max(float(d[-1]), 1e-300)
    if d_min <= cut:  # a numerical null space (without one, lam = 0 is a Newton iterate)
        null = int(np.searchsorted(d, cut, side="right"))
        if cum[null - 1] <= 1e-20 * cum[-1]:
            inv = np.concatenate((np.zeros(null), 1.0 / d[null:]))
            if r @ (inv * inv) <= cap:
                return inv, 0.0
    lb = _ball_bound(d, cum, cap)
    if lb == 0.0 and d_min == 0.0:
        # every r_i on d_i = 0 is zero here: give those entries the
        # pseudo-inverse factor 0, so that lam = 0 can be evaluated
        d = np.where(d > 0.0, d, math.inf)
    target = cap * (1.0 - 0.5 * tol)
    lam = max(lam, lb) if lam < math.inf else lb
    for _ in range(100):
        inv = 1.0 / (d + lam)
        q = r * inv * inv
        p = float(q.sum())
        if p <= cap and (p >= cap * (1.0 - tol) or lam == lb):
            return inv, lam
        slope = float(q @ inv)
        # r = 0 leaves the Newton step 0 / 0: it falls back to the bound
        lam = max(lb, lam + p * (math.sqrt(p / target) - 1.0) / slope) if slope else lb
    raise MaxIterExceeded("power multiplier: Newton iteration did not settle")


def _ball_beams(eig, y, cap, tol, record):
    """Rows w_k = (M + lam I)^+ y_k / 2 with the smallest lam >= 0 that keeps
    sum_k ||w_k||^2 <= cap; one eigendecomposition eig = psd_eigh(M) serves
    every row.  The ball step starts from the record's lam1."""
    d, u = eig
    c = 0.5 * (y @ u.conj())  # rows: U^H y_k / 2
    inv, lam = _ball_factors(d, (np.abs(c) ** 2).sum(axis=0), cap, tol, record.lam1)
    record.ended(lam, record.lam2, 1, 0)
    return (c * inv) @ u.T


def _search(at, warm, band, bound):
    """The point at the smallest multiplier lam2 >= 0 at which the second
    constraint of a beam solve holds, by Newton steps inside a bracket and
    bisection otherwise.  Returns (x, ball steps, lam2 > 0 evaluations).

    at(lam2), the one evaluator, lam2 = 0 included, returns (x, f, slack,
    slope): the stationary point, a residual that rises with lam2 and
    crosses zero inside the band, the constraint's slack, nonnegative
    exactly where x is feasible, and the residual's derivative.  bound(x0)
    is a multiplier feasible in exact arithmetic, given the point x0 at
    lam2 = 0 or None.  The search starts at the warm lam2 (at 0 when it is
    0 or not finite).  The bracket runs from the largest infeasible lam2
    (0 before one is known) to the smallest feasible one (the bound before
    one is known).  A step is Newton's from the latest point when its slope
    is positive, it at least halved |f| and the step lands strictly inside
    the bracket.  Otherwise it evaluates an end not yet evaluated: lam2 = 0,
    after which the Newton gate restarts, or the bound, doubled while
    rounding leaves it infeasible; once both ends are known it bisects, in
    log lam2 when the lower end is positive.  Returns the first feasible x
    with slack at most band, so the answer never leaves the feasible side.
    """
    lam = warm if 0.0 < warm < math.inf else 0.0
    lo, hi, x_hi = None, math.inf, None  # hi is the bound while x_hi is None
    f, evaluations = math.inf, 0
    for steps in range(1, 401):
        f_prev = f if lam else math.inf
        x, f, s, df = at(lam)
        if lam:
            evaluations += 1
        if s >= 0.0:
            if s <= band or not lam:
                return x, steps, evaluations
            hi, x_hi = lam, x
        else:
            if lo is None and x_hi is None:
                hi = max(bound(None), 2.0 * lam) if lam else bound(x)
            elif x_hi is None and lam == hi:
                hi = 2.0 * hi
            lo = lam
        if x_hi is not None and lo is not None and hi - lo <= 1e-15 * hi:
            return x_hi, steps, evaluations
        step = lam - f / df if df > 0.0 and abs(f) <= 0.5 * abs(f_prev) else -1.0
        if (lo or 0.0) < step < hi:
            lam = step
        elif lo is None:
            lam = 0.0
        elif x_hi is None:
            lam = hi
        else:  # bisection, in log lam2 once the lower end is positive
            lam = math.sqrt(lo) * math.sqrt(hi) if lo else 0.5 * hi
    raise MaxIterExceeded("multiplier: search did not settle")


def solve_beams(a: np.ndarray, y: np.ndarray, p_max: float, s: np.ndarray | None = None,
                p_e: float = 0.0, tol: float = 1e-9, record: Multipliers | None = None) -> np.ndarray:
    """Concave QCQP over the rows w_k of a K x N beam matrix:

        maximize    sum_k Re{y_k^H w_k} - w_k^H A w_k
        subject to  sum_k ||w_k||^2 <= p_max,   sum_k w_k^H S w_k <= p_e

    with A, S Hermitian PSD (N x N) and p_e > 0 (unchecked; S = 0 also takes
    p_e = 0); without S only the power ball applies.  The stationary beams
    (A + lam1 I + lam2 S) w_k = y_k / 2 share one N x N eigendecomposition of
    A + lam2 S across the K users.  _search finds lam2 with one evaluator:
    at each lam2, 0 included, the ball step (_ball_factors) gives lam1,
    warm-started at the previous lam1, and the residual is
    sqrt(target / energy) - 1, its slope from differentiating the stationary
    beams, lam1 moving to keep a binding power constant.  Both searches stop
    on the feasible side, with a binding constraint within tol relative of
    its bound.  With a record, both searches start from its multipliers (see
    Multipliers).
    """
    rec = Multipliers() if record is None else record
    if s is None:
        return _ball_beams(psd_eigh(a), y, p_max, tol, rec)
    s_t = s.T
    target = p_e * (1.0 - 0.5 * tol)
    half_y = 0.5 * y
    lam1 = rec.lam1

    def at(lam2):
        nonlocal lam1
        d, u = psd_eigh(a + lam2 * s)
        u_conj = u.conj()
        c = half_y @ u_conj  # rows: U^H y_k / 2
        # tol at lam2 = 0; above it the power band sits well inside the energy
        # band, so the energy curve is smooth at the scale the search resolves
        ball_tol = 1e-2 * tol if lam2 else tol
        inv, lam1 = _ball_factors(d, (np.abs(c) ** 2).sum(axis=0), p_max, ball_tol, lam1)
        wt = c * inv  # the beams in the eigenbasis
        w = wt @ u.T
        x = (w, lam1, lam2)
        swt = (w @ s_t) @ u_conj  # rows: U^H S U wt_k
        e = float(np.vdot(wt, swt).real)
        if e <= 0.0:
            return x, math.inf, p_e - e, 0.0
        # d wt / d lam2 = -inv (U^H S U wt + lam1' wt), where lam1 moves with
        # lam2 to hold a binding power constant and stays 0 otherwise
        wi = wt * inv
        t1 = float(np.vdot(wi, swt).real)
        de = -2.0 * float(np.vdot(swt * inv, swt).real)
        if lam1 > 0.0:
            de += 2.0 * t1 * t1 / float(np.vdot(wi, wt).real)
        root = math.sqrt(target / e)
        return x, root - 1.0, p_e - e, -0.5 * root / e * de

    def bound(x0):
        # w(lam2) maximizes f - lam2 * energy over the power ball, which holds
        # w = 0, so energy(w(lam2)) <= f(w(lam2)) / lam2 <= f_top / lam2 for
        # any f_top >= f over the ball: f(w(0)), or ||Y|| sqrt(p_max)
        if x0 is None:
            return float(np.linalg.norm(y)) * math.sqrt(p_max) / target
        w = x0[0]
        return float(np.vdot(w, y).real - np.vdot(w, w @ a.T).real) / target

    (w, lam1, lam2), steps, evaluations = _search(at, rec.lam2, tol * p_e, bound)
    rec.ended(lam1, lam2, steps, evaluations)
    return w


def solve_beams_halfspace(a: np.ndarray, y: np.ndarray, p_max: float, r: np.ndarray,
                          xi: float, tol: float = 1e-9, record: Multipliers | None = None,
                          eig=None) -> np.ndarray:
    """Concave QCQP over the rows w_k of a K x N beam matrix:

        maximize    sum_k Re{y_k^H w_k} - w_k^H A w_k
        subject to  sum_k ||w_k||^2 <= p_max,   2 Re{sum_k r_k^H w_k} >= xi

    with A Hermitian PSD: the stage-1 beams under the linearized harvest.
    The stationary beams (A + lam1 I) w_k = y_k / 2 + lam2 r_k share one
    eigendecomposition A = U diag(d) U^H for every lam2 (eig = psd_eigh(A)
    when the caller has it): with c_k = U^H y_k / 2 and r~_k = U^H r_k, the
    beams are (c_k + lam2 r~_k) / (d + lam1) in the eigenbasis.  The search
    therefore runs on three N-vectors summed over the users,
    alpha = sum_k |c_k|^2, beta = Re sum_k conj(c_k) r~_k and
    gamma = sum_k |r~_k|^2: the power is
    sum (alpha + 2 lam2 beta + lam2^2 gamma) / (d + lam1)^2 and the harvest
    2 sum (beta + lam2 gamma) / (d + lam1), and the beams are formed once, at
    the end.  _search finds lam2 with one evaluator: at each lam2, 0
    included, the ball step (_ball_factors) gives lam1, warm-started at the
    previous lam1.  Both stop on the feasible side: the power never exceeds
    p_max, and a binding half-space holds within tol relative of xi.  With
    a record, both searches start from its multipliers (see Multipliers).
    A half-space that only touches the ball (the ball's largest harvest is
    xi within tol relative) leaves one feasible point, the ball's point of
    largest harvest sqrt(p_max) r / ||r||, returned without a search: at a
    single BS antenna every r_k is parallel to w_k, so at a binding power
    the linearized harvest touches the ball at the current beams.  Raises
    Infeasible when no beam in the power ball meets the half-space.
    """
    rec = Multipliers() if record is None else record
    d, u = psd_eigh(a) if eig is None else eig
    c, rt = 0.5 * (y @ u.conj()), r @ u.conj()  # rows in the eigenbasis
    alpha = (np.abs(c) ** 2).sum(axis=0)
    beta = (c.conj() * rt).real.sum(axis=0)
    gamma = (np.abs(rt) ** 2).sum(axis=0)
    target = xi + 0.5 * tol * abs(xi)
    norm_r = math.sqrt(float(gamma.sum()))
    delta = 2.0 * math.sqrt(p_max) * norm_r - xi  # the largest harvest in the ball, less xi
    if norm_r and abs(delta) <= tol * abs(xi):
        # the half-space only touches the ball: its one feasible point
        rec.ended(rec.lam1, rec.lam2, 0, 0)
        return (math.sqrt(p_max) / norm_r) * r
    lam1 = rec.lam1

    def at(lam2):
        nonlocal lam1
        b = beta + lam2 * gamma
        power = np.maximum(alpha + lam2 * (beta + b), 0.0)  # rounding can dip below 0
        inv, lam1 = _ball_factors(d, power, p_max, 1e-2 * tol, lam1)
        g = 2.0 * float(inv @ b)
        slope = 2.0 * float(inv @ gamma)
        if lam1 > 0.0:
            # lam1 moves with lam2 to hold the binding power constant:
            # lam1' = sum b inv^2 / sum power inv^3
            inv2 = inv * inv
            b2 = float(b @ inv2)
            slope -= 2.0 * b2 * b2 / float(power @ (inv2 * inv))
        return (inv, lam1, lam2), g - target, g - xi, slope

    def bound(x0):
        # w(lam2) maximizes f + lam2 (g - xi) over the ball.  The ball's
        # point of largest g, w_s, has g - xi = delta > 0, so
        # g(w(lam2)) - xi >= delta - (f_top - f(w_s)) / lam2 for any f_top
        # >= f over the ball, f(w(0)) or ||Y|| sqrt(p_max), which is
        # nonnegative from lam2 = (f_top - f(w_s)) / delta on.
        if delta <= 0.0:
            raise Infeasible(f"half-space bound {xi:.3e} beyond the power ball's reach")
        t = math.sqrt(p_max) / norm_r
        if x0 is None:
            f_top = 2.0 * math.sqrt(float(alpha.sum()) * p_max)
        else:
            f_top = float(alpha @ (x0[0] * (2.0 - d * x0[0])))
        f_ws = 2.0 * t * float(beta.sum()) - t * t * float(d @ gamma)
        return (f_top - f_ws) / delta

    (inv, lam1, lam2), steps, evaluations = _search(at, rec.lam2, tol * abs(xi), bound)
    rec.ended(lam1, lam2, steps, evaluations)
    return ((c + lam2 * rt) * inv) @ u.T


def _phases(z, keep):
    """Euclidean projection onto |x_m| = 1: z / |z|, keeping keep's element
    where z = 0."""
    mag = np.abs(z)
    if mag.all():
        return z / mag
    return np.where(mag > 0.0, z / np.where(mag > 0.0, mag, 1.0), keep)


def _squarem(gamma, lin, x0, lam_max, project, done, max_iter):
    """Maximize f(x) = Re{x^H lin} - x^H Gamma x over a set C, given its
    Euclidean projection project(z, keep) (keep breaks ties), by
    majorization-minimization maps accelerated by SQUAREM, from x0 in C.
    Returns (x, maps).

    With lam_max >= the largest eigenvalue of Gamma (PSD), B = 2 (lam_max I
    - Gamma) is PSD and f(y) >= f(x) + Re{(y - x)^H g} - lam_max ||y - x||^2
    with g = lin - 2 Gamma x, so the map x -> P_C((B x + lin) / (2 lam_max))
    never lowers f: a projected-gradient step of length h = 1 / (2 lam_max)
    (Sun, Babu & Palomar, IEEE TSP 2017).  h B is formed once per solve;
    z = h (B x + lin) also gives F(x) = 2 h f(x) = Re{x^H (z + h lin)}
    - 2 h lam_max ||x||^2, the objective the engine compares.  lam_max = 0
    (Gamma = 0) leaves f linear, and the map takes h = 1, which serves a
    set whose projection ignores scale, such as |x_m| = 1.

    SQUAREM (Varadhan & Roland, Scand. J. Stat. 2008): each cycle takes two
    maps, x1 and x2 from x, and extrapolates along r = x1 - x and
    d = x2 - 2 x1 + x to x - 2 alpha r + alpha^2 d, projected onto C, with
    alpha = -||r|| / ||d|| clamped to [-step, -1] (alpha = -1 gives x2).
    One more map from there stabilizes it; when that lands below x2's
    objective the cycle falls back to x2.  So the accepted iterates never
    descend.  step starts at 1, grows 4x after each accepted cycle and
    shrinks 4x, not below 1, after a rejected one, so a bad extrapolation
    is not retried at full length.

    Every map carries the stop test done(x, F(x), y, F(y)), y the map of x:
    the solve returns y after the first map that passes it, or after
    max_iter maps (max_iter=1 is one plain map).
    """
    h = 0.5 / lam_max if lam_max > 0.0 else 1.0
    b = (-2.0 * h) * gamma  # h B, so that z = h (B x + lin) is one matvec
    b[np.diag_indices_from(b)] += 2.0 * h * lam_max
    lin = h * lin
    c = 2.0 * h * lam_max

    def at(x):  # (x, z, F(x))
        z = b @ x + lin
        return x, z, float(np.vdot(x, z + lin).real) - c * float(np.vdot(x, x).real)

    x, z, f = at(np.asarray(x0, dtype=complex))
    maps, step = 0, 1.0
    while maps < max_iter:
        x1, z1, f1 = at(project(z, x))
        maps += 1
        if done(x, f, x1, f1) or maps >= max_iter:
            return x1, maps
        x2, z2, f2 = at(project(z1, x1))
        maps += 1
        if done(x1, f1, x2, f2) or maps >= max_iter:
            return x2, maps
        r = x1 - x
        d = (x2 - x1) - r
        dd = np.vdot(d, d).real
        alpha = max(min(-math.sqrt(np.vdot(r, r).real / dd), -1.0), -step) if dd > 0.0 else -1.0
        if alpha == -1.0:  # the extrapolation is x2 itself
            xe, ze, fe = x2, z2, f2
        else:
            xe, ze, fe = at(project(x - (2.0 * alpha) * r + (alpha * alpha) * d, x2))
        x, z, f = at(project(ze, xe))
        maps += 1
        if f < f2:  # the extrapolation lost ground: back to the plain iterate
            x, z, f = x2, z2, f2
            step = max(1.0, 0.25 * step)
        elif done(xe, fe, x, f):
            return x, maps
        else:
            step *= 4.0
    return x, maps


def unit_modulus_mm(gamma: np.ndarray, lam: np.ndarray, theta0: np.ndarray,
                    max_iter: int) -> tuple[np.ndarray, int]:
    """Maximize f(theta) = Re{theta^H lam} - theta^H Gamma theta over the
    unit-modulus set |theta_m| = 1 (Gamma Hermitian PSD) from a
    unit-modulus start theta0: the accelerated MM engine (_squarem) with
    lam_max the largest eigenvalue of Gamma and the projection v / |v|
    (elements where v vanishes keep their phase).  It stops after the
    first map that raises f by at most 1e-8 relative (so a solve
    warm-started at its own answer stops after one map), or after max_iter
    maps (max_iter=1 is one plain MM map).  Returns (theta, maps), theta
    never worse than theta0.
    """
    return _squarem(gamma, lam, theta0, float(np.linalg.eigvalsh(gamma)[-1]), _phases,
                    lambda x, f, y, f_y: f_y - f <= 1e-8 * abs(f_y), max_iter)


def project_caps_ball(z: np.ndarray, caps: np.ndarray, c: float) -> np.ndarray:
    """Euclidean projection of z onto {|y_m| <= caps_m} and {||y||^2 <= c}.

    The answer keeps the phases of z, with |y_m| = min(t |z_m|, caps_m) for
    the largest t <= 1 that fits the ball (t = 1 / (1 + lam), lam the ball's
    multiplier).  The ball sum is nondecreasing and piecewise quadratic in t
    with breaks at caps_m / |z_m|, so one sort of the breaks gives t exactly.
    """
    mag = np.abs(z)
    t = 1.0
    if float((np.minimum(mag, caps) ** 2).sum()) > c:
        on = mag > 0.0  # zero elements stay at zero
        brk = caps[on] / mag[on]
        order = np.argsort(brk)
        brk, cap2, mag2 = brk[order], caps[on][order] ** 2, mag[on][order] ** 2
        clipped = np.cumsum(cap2) - cap2        # sum before break j: on their caps
        free = np.cumsum(mag2[::-1])[::-1]      # sum from break j on: scaled by t
        j = int(np.count_nonzero(clipped + brk ** 2 * free <= c))
        t = math.sqrt(max(c - clipped[j], 0.0) / free[j])
    return z * np.minimum(t, caps / np.where(mag > 0.0, mag, 1.0))


def solve_concave_qcqp(p: QcqpProblem, tol: float = 1e-7,
                       record: Multipliers | None = None) -> np.ndarray:
    """Maximize Re{b^H x} - x^H A x under the diagonal ellipsoid
    sum_m v_m |x_m|^2 <= c and per-element magnitude caps: the active
    reflection solve.

    Whitening y_m = sqrt(v_m) x_m turns the ellipsoid into the ball
    ||y||^2 <= c and the caps into |y_m| <= caps_m sqrt(v_m).  The ball's
    optimum without the caps is one ball step of the beam solves, and is
    returned when it meets the caps; with a record it starts from the
    record's lam1 (see Multipliers).  Otherwise the accelerated MM engine
    (_squarem) runs in y from the projection of that ball optimum, with
    lam_max from the ball step's eigendecomposition and the exact
    projection onto the caps and the ball (project_caps_ball).  It stops on
    the KKT residual that each map gives, the projected-gradient step
    2 lam_max ||map(y) - y|| relative to the gradient scale over the set,
    at most max(tol, 1e-9); MaxIterExceeded after 20,000 maps.  The
    answer never exceeds the ellipsoid bound in floating point.
    """
    s = np.sqrt(p.weights)
    a = p.quad / np.outer(s, s)
    b = p.lin / s
    eig = psd_eigh(a)
    y = _ball_beams(eig, b[None, :], p.bound, tol, Multipliers() if record is None else record)[0]
    x = y / s
    if (np.abs(x) <= p.caps * (1 + 1e-10) + 1e-300).all():
        return x
    caps, c, max_maps = p.caps * s, p.bound, 20000
    lam_max = max(float(eig[0][-1]), 1e-300)
    gscale = max(float(np.linalg.norm(b)), 2.0 * lam_max * min(math.sqrt(c), float(np.linalg.norm(caps))),
                 1e-300)
    band = (max(tol, 1e-9) * gscale / (2.0 * lam_max)) ** 2
    y, maps = _squarem(a, b, project_caps_ball(y, caps, c), lam_max,
                       lambda z, keep: project_caps_ball(z, caps, c),
                       lambda y0, f0, y1, f1: np.vdot(y1 - y0, y1 - y0).real <= band, max_maps)
    if maps >= max_maps:
        raise MaxIterExceeded(f"caps and ball: KKT residual above {max(tol, 1e-9):.1e} after {maps} maps")
    x = y / s
    # the projection's last rounding, and the unwhitening, can leave the
    # energy just above the bound: scale back onto the feasible side
    energy = float((p.weights * np.abs(x) ** 2).sum())
    while energy > p.bound:
        x = x * (math.sqrt(p.bound / energy) * (1.0 - 1e-15))
        energy = float((p.weights * np.abs(x) ** 2).sum())
    return x
