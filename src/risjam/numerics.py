"""Complex linear algebra primitives and small concave-QCQP engines.

Everything here operates on dense complex numpy arrays and is pure: no
global state, safe to call from concurrent trial workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class Infeasible(Exception):
    """QCQP constraint bound is negative on entry."""


class MaxIterExceeded(Exception):
    """Iterative solve did not reach the requested KKT residual."""


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A^H)/2; guards against accumulation drift."""
    return 0.5 * (a + a.conj().T)


def project_magnitude_caps(x: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {|x_m| <= cap_m}: clip magnitudes, keep phases."""
    x = np.asarray(x, dtype=complex)
    caps = np.broadcast_to(np.asarray(caps, dtype=float), x.shape)
    if np.any(caps < 0):
        raise ValueError("caps must be nonnegative")
    mag = np.abs(x)
    scale = np.where(mag > caps, caps / np.where(mag > 0, mag, 1.0), 1.0)
    return x * scale


@dataclass
class QcqpProblem:
    """Concave QCQP in canonical form.

        maximize    Re{b^H x} - x^H A x
        subject to  x^H Q_i x <= c_i          (Q_i Hermitian PSD, c_i >= 0)
                    |x_m| <= caps_m           (per element; solve_concave_qcqp needs them)

    A must be Hermitian PSD; x = 0 is always feasible when all c_i >= 0.
    """

    quad: np.ndarray
    lin: np.ndarray
    constraints: list = field(default_factory=list)
    caps: np.ndarray | None = None

    def __post_init__(self):
        self.quad = hermitize(np.asarray(self.quad, dtype=complex))
        self.lin = np.asarray(self.lin, dtype=complex).ravel()
        n = self.lin.size
        if self.quad.shape != (n, n):
            raise ValueError(f"quad shape {self.quad.shape} does not match lin length {n}")
        checked = []
        for q, c in self.constraints:
            q = hermitize(np.asarray(q, dtype=complex))
            if q.shape != (n, n):
                raise ValueError("constraint matrix dimension mismatch")
            w = np.linalg.eigvalsh(q)
            if w[0] < -1e-10 * max(1.0, w[-1]):
                raise ValueError(f"constraint matrix not PSD (min eig {w[0]:.3e})")
            checked.append((q, float(c)))
        self.constraints = checked
        if self.caps is not None:
            self.caps = np.asarray(self.caps, dtype=float).ravel()
            if self.caps.size != n:
                raise ValueError("caps length mismatch")
            if np.any(self.caps < 0):
                raise ValueError("caps must be nonnegative")


def _bisect_feasible(g, lo, hi, cap, tol, max_iter=200):
    """Bisection for non-increasing g with g(lo) > cap >= g(hi): returns a
    multiplier on the feasible side (g <= cap) within tol*cap of the bound."""
    val_hi = g(hi)
    for _ in range(max_iter):
        if cap - val_hi <= tol * max(cap, 1e-30) or (hi - lo) <= 1e-14 * max(1.0, hi):
            break
        mid = 0.5 * (lo + hi)
        val = g(mid)
        if val > cap:
            lo = mid
        else:
            hi, val_hi = mid, val
    return hi


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
        return w, e, (math.sqrt(target / e) if e > 0 else math.inf) - 1.0

    # w(lam2) maximizes f - lam2 * energy over the power ball, which holds
    # w = 0, so energy(w(lam2)) <= f(w(lam2)) / lam2 <= f(w(0)) / lam2
    f0 = float(np.sum(np.real(np.conj(y) * w)) - np.sum(np.real(np.conj(w) * (w @ a.T))))
    lo, f_lo, hi = 0.0, math.sqrt(target / e0) - 1.0, f0 / target
    w_hi, e_hi, f_hi = at(hi)
    while e_hi > p_e:  # the bound holds only up to the inner solves' tolerance
        lo, f_lo, hi = hi, f_hi, 2.0 * hi
        w_hi, e_hi, f_hi = at(hi)
    side = 0
    for _ in range(200):
        if e_hi >= p_e * (1.0 - tol) or hi - lo <= 1e-15 * hi:
            return w_hi
        lam2 = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < lam2 < hi:
            lam2 = 0.5 * (lo + hi)
        w, e, f = at(lam2)
        if e <= p_e:
            hi, w_hi, e_hi, f_hi = lam2, w, e, f
            if side > 0:
                f_lo *= 0.5
            side = 1
        else:
            lo, f_lo = lam2, f
            if side < 0:
                f_hi *= 0.5
            side = -1
    raise MaxIterExceeded("energy multiplier: false position did not settle")


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


def _solve_one_ellipsoid(a, b, q, cap, tol):
    """max Re{b^H x} - x^H a x  s.t.  x^H q x <= cap, for positive-definite q.

    Whitening y = L^H x (q = L L^H) turns the constraint into the norm ball
    ||y||^2 <= cap, solved by the one-row beam route."""
    ell = np.linalg.cholesky(q)
    mid = np.linalg.solve(ell, np.linalg.solve(ell, a.conj().T).conj().T)
    y = _ball_beams(hermitize(mid), np.linalg.solve(ell, b)[None, :], cap, tol)[0]
    return np.linalg.solve(ell.conj().T, y)


def _fista_caps(a, b, caps, x0, tol, max_iter):
    """Projected accelerated gradient ascent of Re{b^H x} - x^H a x over the
    magnitude-cap box, with Jacobi preconditioning.

    The diagonal rescale keeps the per-element projection exact (the box is
    separable) while flattening the diagonal spread of a.  When the scaled
    matrix is strongly convex the constant heavy-ball momentum is used,
    otherwise FISTA weights with monotone restarts.  Returns
    (x, kkt_residual) with the residual measured on the scaled gradient.
    """
    diag = np.real(np.diag(a))
    d = np.sqrt(np.maximum(diag, 1e-12 * max(diag.max(initial=0.0), 1e-300)))
    d = np.maximum(d, 1e-150)
    a_s = a / np.outer(d, d)
    b_s = b / d
    caps_s = caps * d
    eigs = np.linalg.eigvalsh(a_s)
    lmax = max(float(eigs[-1]), 1e-300)
    lmin = max(float(eigs[0]), 0.0)
    step = 1.0 / (2.0 * lmax)
    strong = lmin / lmax > 1e-10
    beta_sc = ((math.sqrt(lmax) - math.sqrt(lmin)) / (math.sqrt(lmax) + math.sqrt(lmin))) if strong else 0.0
    gscale = max(np.linalg.norm(b_s), 2.0 * lmax * np.linalg.norm(caps_s), 1e-300)
    x = project_magnitude_caps(x0 * d, caps_s)
    y = x.copy()
    t = 1.0
    fx = -np.inf
    res = np.inf
    check_every = 8
    for it in range(max_iter):
        x_new = project_magnitude_caps(y + step * (b_s - 2.0 * (a_s @ y)), caps_s)
        if strong:
            y = x_new + beta_sc * (x_new - x)
        else:
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            y = x_new + ((t - 1.0) / t_new) * (x_new - x)
            t = t_new
        x = x_new
        if (it + 1) % check_every == 0 or it + 1 == max_iter:
            f_new = np.real(np.vdot(b_s, x)) - np.vdot(x, a_s @ x).real
            if f_new < fx - 1e-15 * abs(fx):  # momentum overshoot: restart
                y = x.copy()
                t = 1.0
            fx = f_new
            gx = b_s - 2.0 * (a_s @ x)
            res = np.linalg.norm(x - project_magnitude_caps(x + step * gx, caps_s)) / (step * gscale)
            if res <= tol:
                break
    return x / d, res


def _solve_caps(a, b, q, cap, caps, tol, max_iter, warm=None):
    """Caps-constrained route: projected gradient ascent with the ellipsoid
    constraint handled by bisection on its own multiplier.

    warm, if given, is a dict carrying the previous solve's multiplier and
    point to seed the bracket and the gradient iterations.
    """
    pga_tol = max(tol, 1e-9)
    search_tol = max(100.0 * pga_tol, 3e-7)
    # fast path: if the cap-free optimum already satisfies the caps it is optimal
    x_try = _solve_one_ellipsoid(a, b, q, cap, tol)
    if np.all(np.abs(x_try) <= caps * (1 + 1e-10) + 1e-300):
        if warm is not None:
            warm["lam"] = None
        return x_try

    state = {"x": np.zeros_like(b) if warm is None else warm.get("x", np.zeros_like(b))}

    def inner(lam, inner_tol):
        x, res = _fista_caps(a + lam * q, b, caps, state["x"], inner_tol, max_iter)
        state["x"] = x
        return x, res

    def g(lam):
        x, _ = inner(lam, search_tol)
        return np.vdot(x, q @ x).real

    x0, _ = inner(0.0, search_tol)
    if np.vdot(x0, q @ x0).real <= cap * (1 + 1e-8) + 1e-300:
        x, res = inner(0.0, pga_tol)
        if res > pga_tol:
            raise MaxIterExceeded(f"KKT residual {res:.3e} > {pga_tol:.1e}")
        if warm is not None:
            warm["x"], warm["lam"] = x, 0.0
        return x

    lo, hi = 0.0, max(1.0, np.linalg.norm(a) / max(np.linalg.norm(q), 1e-300))
    prev = None if warm is None else warm.get("lam")
    if prev:  # try a narrow bracket around the previous multiplier first
        if g(2.0 * prev) <= cap:
            hi = 2.0 * prev
            if g(0.5 * prev) >= cap:
                lo = 0.5 * prev
    it = 0
    while g(hi) > cap:
        hi *= 4.0
        it += 1
        if it > 100:
            raise MaxIterExceeded("caps-route multiplier bracket expansion failed")
    lam = _bisect_feasible(g, lo, hi, cap, tol)
    x, res = inner(lam, pga_tol)
    if res > pga_tol:
        raise MaxIterExceeded(f"KKT residual {res:.3e} > {pga_tol:.1e}")
    if warm is not None:
        warm["x"], warm["lam"] = x, lam
    return x


def _problem_scales(a, b, constraints, caps):
    """Pick (xscale, fscale) so the normalized problem has O(1) feasible
    radius and O(1) objective; makes the absolute tolerances meaningful."""
    radii = []
    for q, c in constraints:
        lam = np.linalg.eigvalsh(q)[-1]
        if lam > 0 and c > 0:
            radii.append(math.sqrt(c / lam))
    if caps.size and np.max(caps) > 0:
        radii.append(float(np.max(caps)))
    xscale = max(min(radii, default=1.0), 1e-150)
    lam_a = np.linalg.eigvalsh(a)[-1]
    fscale = max(lam_a * xscale * xscale, np.linalg.norm(b) * xscale, 1e-150)
    return xscale, fscale


def solve_concave_qcqp(p: QcqpProblem, tol: float = 1e-7, max_iter: int = 20000,
                       warm: dict | None = None) -> np.ndarray:
    """Maximize Re{b^H x} - x^H A x under per-element magnitude caps and one
    positive-definite ellipsoid, the shape of the active reflection solve.

    The ellipsoid's cap-free optimum is tried first and returned if it meets
    the caps: whitening turns the ellipsoid into a norm ball, and
    x(lam) = (A + lam Q)^{-1} b/2 with lam from Newton's method on the
    secular equation (the one-row case of solve_beams' ball step).
    Otherwise projected gradient ascent with per-element magnitude
    projection, the ellipsoid handled by its own multiplier bisection.
    Any other constraint shape raises ValueError: beam problems go to
    solve_beams, unit-modulus reflection to unit_modulus_mm.

    The problem is normalized once (unit feasible radius, O(1) objective) so
    the tolerances act relatively regardless of the physical scales.
    """
    for _, c in p.constraints:
        if c < 0:
            raise Infeasible(f"constraint bound {c} < 0")
    if p.caps is None:
        raise ValueError("solve_concave_qcqp needs magnitude caps; beam problems go to solve_beams")
    if len(p.constraints) != 1:
        raise ValueError("solve_concave_qcqp needs exactly one quadratic constraint")
    xs, fs = _problem_scales(p.quad, p.lin, p.constraints, p.caps)
    a = p.quad * (xs * xs / fs)
    b = p.lin * (xs / fs)
    q, c = p.constraints[0][0] * (xs * xs / fs), p.constraints[0][1] / fs
    w = None
    if warm is not None:
        w = {}
        if warm.get("x") is not None:
            w["x"] = np.asarray(warm["x"], dtype=complex) / xs
        if warm.get("lam") is not None:
            w["lam"] = warm["lam"]
    x = _solve_caps(a, b, q, c, p.caps / xs, tol, max_iter, warm=w)
    if warm is not None:
        warm["x"] = w.get("x", x) * xs
        warm["lam"] = w.get("lam")
    return x * xs
