"""Complex linear algebra primitives and the concave QCQPs of the optimizer
blocks.

Every Lagrange-multiplier search here runs on one engine: the ball step
(Newton's method on the secular equation) for a power-ball multiplier, and
one Illinois false-position search for the beam solves' second multiplier.
Everything here operates on dense complex numpy arrays and is pure: no
global state, safe to call from concurrent trial workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class Infeasible(Exception):
    """No point meets the QCQP constraints: a negative bound on entry, or a
    half-space out of the power ball's reach."""


class MaxIterExceeded(Exception):
    """Iterative solve did not reach the requested KKT residual."""


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A^H)/2; guards against accumulation drift."""
    return 0.5 * (a + a.conj().T)


@dataclass
class QcqpProblem:
    """Concave QCQP of the active reflection solve.

        maximize    Re{b^H x} - x^H A x
        subject to  sum_m v_m |x_m|^2 <= c,   |x_m| <= caps_m

    A Hermitian PSD and the ellipsoid diagonal with weights v_m > 0; x = 0
    is feasible when c >= 0.
    """

    quad: np.ndarray
    lin: np.ndarray
    weights: np.ndarray
    bound: float
    caps: np.ndarray

    def __post_init__(self):
        self.quad = hermitize(np.asarray(self.quad, dtype=complex))
        self.lin = np.asarray(self.lin, dtype=complex).ravel()
        n = self.lin.size
        if self.quad.shape != (n, n):
            raise ValueError(f"quad shape {self.quad.shape} does not match lin length {n}")
        self.weights = np.asarray(self.weights, dtype=float).ravel()
        if self.weights.size != n:
            raise ValueError("weights length mismatch")
        if not np.all(self.weights > 0):
            raise ValueError("ellipsoid weights must be positive")
        self.bound = float(self.bound)
        self.caps = np.asarray(self.caps, dtype=float).ravel()
        if self.caps.size != n:
            raise ValueError("caps length mismatch")
        if np.any(self.caps < 0):
            raise ValueError("caps must be nonnegative")


def _ball_factors(d, r, cap, tol):
    """Factors 1/(d_i + lam) for the smallest lam >= 0 with
    p(lam) = sum_i r_i / (d_i + lam)^2 <= cap, given d >= 0 ascending, r >= 0.

    lam = 0 (pseudo-inverse factors) when r has no weight on the numerical
    null space of d and p(0) fits.  Otherwise lam solves the secular equation
    phi(lam) = 1/sqrt(p(lam)) - 1/sqrt(target) = 0, target = cap (1 - tol/2),
    by Newton's method from a lower bound of the root.  phi is increasing
    and concave, so the iterates rise towards the root without passing it
    (More & Sorensen, SIAM J. Sci. Stat. Comput. 1983); the first one with
    p <= cap is returned, which leaves p in [cap (1 - tol), cap].
    """
    if cap <= 0.0:
        return np.zeros_like(d)
    keep = d > 1e-12 * d.max(initial=1e-300)
    pinv = np.where(keep, 1.0 / np.where(keep, d, 1.0), 0.0)
    total = float(np.sum(r))
    if np.sum(r[~keep]) <= 1e-20 * total and float(np.sum(r * pinv * pinv)) <= cap:
        return pinv
    on = r > 0
    d_on, r_on = d[on], r[on]
    target = cap * (1.0 - 0.5 * tol)
    # p(lam) >= r_i/(d_i+lam)^2 and p(lam) >= total/(d_max+lam)^2, so both
    # bounds put the start at or left of the root
    lam = max(0.0, math.sqrt(total / cap) - d[-1], float(np.max(np.sqrt(r_on / cap) - d_on)))
    for _ in range(100):
        inv = 1.0 / (d_on + lam)
        q = r_on * inv * inv
        p = float(np.sum(q))
        if p <= cap:
            return 1.0 / (d + lam)
        lam += p * (math.sqrt(p / target) - 1.0) / float(np.sum(q * inv))
    raise MaxIterExceeded("power multiplier: Newton iteration did not settle")


def _ball_beams(m, y, cap, tol):
    """Rows w_k = (M + lam I)^+ y_k / 2 with the smallest lam >= 0 that keeps
    sum_k ||w_k||^2 <= cap; one eigendecomposition of M serves every row."""
    d, u = np.linalg.eigh(m)
    d = np.maximum(d, 0.0)
    c = 0.5 * (y @ u.conj())  # rows: U^H y_k / 2
    inv = _ball_factors(d, np.sum(np.abs(c) ** 2, axis=0), cap, tol)
    return (c * inv[None, :]) @ u.T


def _illinois(at, lo, f_lo, hi, band):
    """The smallest multiplier at which one constraint holds, by Illinois
    false position (Dowell & Jarratt, BIT 1971).

    at(lam) returns (x, f, slack): the stationary point at lam, a residual
    that rises with lam and crosses zero inside the stopping band, and the
    constraint's slack, nonnegative exactly where x is feasible.  lo is an
    infeasible multiplier with residual f_lo; hi is doubled until feasible.
    Returns the first feasible x whose slack is at most band, so the answer
    never leaves the feasible side.
    """
    x_hi, f_hi, s_hi = at(hi)
    for _ in range(200):
        if s_hi >= 0.0:
            break
        lo, f_lo, hi = hi, f_hi, 2.0 * hi
        x_hi, f_hi, s_hi = at(hi)
    else:
        raise MaxIterExceeded("multiplier bracket: no feasible multiplier found")
    side = 0
    for _ in range(200):
        if s_hi <= band or hi - lo <= 1e-15 * hi:
            return x_hi
        lam = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < lam < hi:
            lam = 0.5 * (lo + hi)
        x, f, s = at(lam)
        if s >= 0.0:
            hi, x_hi, f_hi, s_hi = lam, x, f, s
            if side > 0:
                f_lo *= 0.5
            side = 1
        else:
            lo, f_lo = lam, f
            if side < 0:
                f_hi *= 0.5
            side = -1
    raise MaxIterExceeded("multiplier: false position did not settle")


def solve_beams(a: np.ndarray, y: np.ndarray, p_max: float, s: np.ndarray | None = None,
                p_e: float = 0.0, tol: float = 1e-9) -> np.ndarray:
    """Concave QCQP over the rows w_k of a K x N beam matrix:

        maximize    sum_k Re{y_k^H w_k} - w_k^H A w_k
        subject to  sum_k ||w_k||^2 <= p_max,   sum_k w_k^H S w_k <= p_e

    with A, S Hermitian PSD (N x N); without S only the power ball applies.
    The stationary beams (A + lam1 I + lam2 S) w_k = y_k / 2 share one N x N
    eigendecomposition of A + lam2 S across the K users.  For each lam2 the
    power multiplier lam1 is found by Newton's method on the secular
    equation; lam2 is found by Illinois false position on
    sqrt(target / energy) - 1.  Both searches stop on the feasible side,
    with a binding constraint within tol relative of its bound.
    """
    if s is not None and p_e <= 0.0:
        # lam2 -> infinity: the beams are confined to null(S)
        ev, v = np.linalg.eigh(s)
        null = v[:, ev <= 1e-14 * max(ev[-1], 1e-300)]
        return solve_beams(null.conj().T @ a @ null, y @ null.conj(), p_max, tol=tol) @ null.T
    w = _ball_beams(a, y, p_max, tol)
    if s is None:
        return w

    def energy(w):
        return float(np.sum(np.real(np.conj(w) * (w @ s.T))))

    e0 = energy(w)
    if e0 <= p_e:
        return w
    target = p_e * (1.0 - 0.5 * tol)

    def at(lam2):
        # inner power band well inside the outer energy band, so the
        # energy curve is smooth at the scale the outer search resolves
        w = _ball_beams(a + lam2 * s, y, p_max, 1e-2 * tol)
        e = energy(w)
        return w, (math.sqrt(target / e) if e > 0 else math.inf) - 1.0, p_e - e

    # w(lam2) maximizes f - lam2 * energy over the power ball, which holds
    # w = 0, so energy(w(lam2)) <= f(w(lam2)) / lam2 <= f(w(0)) / lam2
    f0 = float(np.sum(np.real(np.conj(y) * w)) - np.sum(np.real(np.conj(w) * (w @ a.T))))
    return _illinois(at, 0.0, math.sqrt(target / e0) - 1.0, f0 / target, tol * p_e)


def solve_beams_halfspace(a: np.ndarray, y: np.ndarray, p_max: float, r: np.ndarray,
                          xi: float, tol: float = 1e-9) -> np.ndarray:
    """Concave QCQP over the rows w_k of a K x N beam matrix:

        maximize    sum_k Re{y_k^H w_k} - w_k^H A w_k
        subject to  sum_k ||w_k||^2 <= p_max,   2 Re{sum_k r_k^H w_k} >= xi

    with A Hermitian PSD: the stage-1 beams under the linearized harvest.
    The stationary beams (A + lam1 I) w_k = y_k / 2 + lam2 r_k share one
    eigendecomposition of A for every lam2.  For each lam2 the power
    multiplier lam1 is the ball step of solve_beams; lam2 is found by the
    same Illinois search.  Both stop on the feasible side: the power never
    exceeds p_max, and a binding half-space holds within tol relative of xi.
    Raises Infeasible when no beam in the power ball meets the half-space.
    """
    d, u = np.linalg.eigh(a)
    d = np.maximum(d, 0.0)
    c, rt = 0.5 * (y @ u.conj()), r @ u.conj()  # rows in the eigenbasis
    target = xi + 0.5 * tol * abs(xi)

    def at(lam2):
        rows = c + lam2 * rt
        w = rows * _ball_factors(d, np.sum(np.abs(rows) ** 2, axis=0), p_max, 1e-2 * tol)
        g = 2.0 * float(np.sum(np.real(np.conj(rt) * w)))
        return w, g - target, g - xi

    w, f0, slack = at(0.0)
    if slack < 0.0:
        # w(lam2) maximizes f + lam2 (g - xi) over the ball.  The ball's
        # point of largest g, w_s, has g - xi = delta > 0, so
        # g(w(lam2)) - xi >= delta - (f(w(0)) - f(w_s)) / lam2, which is
        # nonnegative from lam2 = (f(w(0)) - f(w_s)) / delta on.
        def f(w):
            return float(np.sum(2.0 * np.real(np.conj(c) * w) - d * np.abs(w) ** 2))

        norm_r = float(np.linalg.norm(rt))
        delta = 2.0 * math.sqrt(p_max) * norm_r - xi
        if delta <= 0.0:
            raise Infeasible(f"half-space bound {xi:.3e} beyond the power ball's reach")
        gap = f(w) - f(rt * (math.sqrt(p_max) / norm_r))
        w = _illinois(at, 0.0, f0, gap / delta, tol * abs(xi))
    return w @ u.T


def unit_modulus_mm(gamma: np.ndarray, lam: np.ndarray, theta0: np.ndarray,
                    max_iter: int, tol: float = 1e-8) -> tuple[np.ndarray, int]:
    """Maximize f(theta) = Re{theta^H lam} - theta^H Gamma theta over the
    unit-modulus set |theta_m| = 1 (Gamma Hermitian PSD) by
    majorization-minimization, from a unit-modulus start theta0.

    With lam_max the largest eigenvalue of Gamma, lam_max I - Gamma is PSD
    and theta^H theta = M on the set, so f is minorized at theta_t by a
    linear function whose maximizer over the set is
    theta = exp(j arg(2 (lam_max I - Gamma) theta_t + lam))
    (Sun, Babu & Palomar, IEEE TSP 2017).  Each step raises f, so the result
    is never worse than theta0.  Elements whose update direction vanishes
    keep their phase.  Stops after the first step that raises f by at most
    tol relative, or after max_iter steps.  Returns (theta, steps).
    """
    lam_max = float(np.linalg.eigvalsh(gamma)[-1])
    theta = np.asarray(theta0, dtype=complex)
    g_theta = gamma @ theta
    f = float(np.real(np.vdot(theta, lam - g_theta)))
    for step in range(1, max_iter + 1):
        v = 2.0 * (lam_max * theta - g_theta) + lam
        mag = np.abs(v)
        theta = np.where(mag > 0.0, v / np.where(mag > 0.0, mag, 1.0), theta)
        g_theta = gamma @ theta
        f_new = float(np.real(np.vdot(theta, lam - g_theta)))
        rise, f = f_new - f, f_new
        if rise <= tol * abs(f):
            break
    return theta, step


def project_caps_ball(z: np.ndarray, caps: np.ndarray, c: float) -> np.ndarray:
    """Euclidean projection of z onto {|y_m| <= caps_m} and {||y||^2 <= c}.

    The answer keeps the phases of z, with |y_m| = min(t |z_m|, caps_m) for
    the largest t <= 1 that fits the ball (t = 1 / (1 + lam), lam the ball's
    multiplier).  The ball sum is nondecreasing and piecewise quadratic in t
    with breaks at caps_m / |z_m|, so one sort of the breaks gives t exactly.
    """
    mag = np.abs(z)
    t = 1.0
    if float(np.sum(np.minimum(mag, caps) ** 2)) > c:
        on = mag > 0.0  # zero elements stay at zero
        brk = caps[on] / mag[on]
        order = np.argsort(brk)
        brk, cap2, mag2 = brk[order], caps[on][order] ** 2, mag[on][order] ** 2
        clipped = np.cumsum(cap2) - cap2        # sum before break j: on their caps
        free = np.cumsum(mag2[::-1])[::-1]      # sum from break j on: scaled by t
        j = int(np.count_nonzero(clipped + brk ** 2 * free <= c))
        t = math.sqrt(max(c - clipped[j], 0.0) / free[j])
    return z * np.minimum(t, caps / np.where(mag > 0.0, mag, 1.0))


def _caps_ball_ascent(a, b, caps, c, y, tol, max_iter):
    """Accelerated projected gradient ascent of Re{b^H y} - y^H a y over
    {|y_m| <= caps_m} and {||y||^2 <= c}, from the projection of y.

    The projection is exact (project_caps_ball).  When a is strongly convex
    the constant heavy-ball momentum is used, otherwise FISTA weights with
    monotone restarts.  Stops once the KKT residual, the projected-gradient
    step relative to the gradient scale over the set, is at most tol.
    """
    eigs = np.linalg.eigvalsh(a)
    lmax = max(float(eigs[-1]), 1e-300)
    lmin = max(float(eigs[0]), 0.0)
    step = 1.0 / (2.0 * lmax)
    strong = lmin / lmax > 1e-10
    beta_sc = ((math.sqrt(lmax) - math.sqrt(lmin)) / (math.sqrt(lmax) + math.sqrt(lmin))) if strong else 0.0
    radius = min(math.sqrt(c), float(np.linalg.norm(caps)))
    gscale = max(float(np.linalg.norm(b)), 2.0 * lmax * radius, 1e-300)
    x = project_caps_ball(y, caps, c)
    y = x.copy()
    t = 1.0
    fx = -np.inf
    res = np.inf
    check_every = 8
    for it in range(1, max_iter + 1):
        x_new = project_caps_ball(y + step * (b - 2.0 * (a @ y)), caps, c)
        if strong:
            y = x_new + beta_sc * (x_new - x)
        else:
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            y = x_new + ((t - 1.0) / t_new) * (x_new - x)
            t = t_new
        x = x_new
        if it % check_every == 0:
            f_new = np.real(np.vdot(b, x)) - np.vdot(x, a @ x).real
            if f_new < fx - 1e-15 * abs(fx):  # momentum overshoot: restart
                y = x.copy()
                t = 1.0
            fx = f_new
            g = b - 2.0 * (a @ x)
            res = np.linalg.norm(x - project_caps_ball(x + step * g, caps, c)) / (step * gscale)
            if res <= tol:
                return x
    raise MaxIterExceeded(f"caps and ball: KKT residual {res:.3e} > {tol:.1e}")


def solve_concave_qcqp(p: QcqpProblem, tol: float = 1e-7, max_iter: int = 20000) -> np.ndarray:
    """Maximize Re{b^H x} - x^H A x under the diagonal ellipsoid
    sum_m v_m |x_m|^2 <= c and per-element magnitude caps: the active
    reflection solve.

    Whitening y_m = sqrt(v_m) x_m turns the ellipsoid into the ball
    ||y||^2 <= c and the caps into |y_m| <= caps_m sqrt(v_m).  The ball's
    optimum without the caps is one ball step of the beam solves, and is
    returned when it meets the caps.  Otherwise one accelerated
    projected-gradient ascent in y, started from that ball optimum, with the
    exact projection onto the caps and the ball; its KKT residual ends at
    most max(tol, 1e-9), and its answer never exceeds the ellipsoid bound
    in floating point.
    """
    if p.bound < 0:
        raise Infeasible(f"ellipsoid bound {p.bound} < 0")
    s = np.sqrt(p.weights)
    a = p.quad / np.outer(s, s)
    b = p.lin / s
    y = _ball_beams(a, b[None, :], p.bound, tol)[0]
    x = y / s
    if np.all(np.abs(x) <= p.caps * (1 + 1e-10) + 1e-300):
        return x
    x = _caps_ball_ascent(a, b, p.caps * s, p.bound, y, max(tol, 1e-9), max_iter) / s
    # the projection's last rounding, and the unwhitening, can leave the
    # energy just above the bound: scale back onto the feasible side
    energy = float(np.sum(p.weights * np.abs(x) ** 2))
    while energy > p.bound:
        x = x * (math.sqrt(p.bound / energy) * (1.0 - 1e-15))
        energy = float(np.sum(p.weights * np.abs(x) ** 2))
    return x
