"""Independent oracles for the test suite.

Deliberately plain implementations (loops, first principles) kept separate
from the package so each check pits two unrelated code paths against each
other.
"""

import numpy as np


def project_ball(x, c):
    n2 = float(np.vdot(x, x).real)
    if n2 <= c:
        return x
    return x * np.sqrt(c / n2)


_EIGH_CACHE = {}


def _clipped_eigh(q):
    """eigh(q) with negative eigenvalues clipped to 0, memoised on q's bytes:
    projected-gradient runs project onto the same ellipsoid many times."""
    key = (q.dtype.str, q.shape, q.tobytes())
    if key not in _EIGH_CACHE:
        if len(_EIGH_CACHE) >= 64:
            _EIGH_CACHE.clear()
        w, v = np.linalg.eigh(q)
        _EIGH_CACHE[key] = (np.maximum(w, 0.0), v)
    return _EIGH_CACHE[key]


def project_ellipsoid(x, q, c, tol=1e-13):
    """Euclidean projection onto {y : y^H q y <= c} via its own multiplier.

    The multiplier is found by bisection.  Each round evaluates the
    constraint at every midpoint the next four bisection steps can reach
    (heap order: node i's children are 2i+1 when the value exceeds c, 2i+2
    otherwise) in one array expression, then takes those steps; the steps,
    and so the result, are those of plain one-at-a-time bisection."""
    val = float(np.vdot(x, q @ x).real)
    if val <= c:
        return x
    w, v = _clipped_eigh(q)
    z = v.conj().T @ x
    def vals(mus):
        y = z / (1.0 + np.asarray(mus)[:, None] * w)
        return (w * np.abs(y) ** 2).sum(axis=1)
    depth = 4  # steps per round; divides the 200-step cap
    lo, hi = 0.0, 1.0
    while vals([hi])[0] > c:
        hi *= 4.0
    for _ in range(200 // depth):
        bounds, mids = [(lo, hi)], [0.5 * (lo + hi)]
        for i in range(2 ** (depth - 1) - 1):
            (a, b), m = bounds[i], mids[i]
            bounds += [(m, b), (a, m)]
            mids += [0.5 * (m + b), 0.5 * (a + m)]
        above = vals(mids) > c
        i = 0
        for _ in range(depth):
            if above[i]:
                lo, i = mids[i], 2 * i + 1
            else:
                hi, i = mids[i], 2 * i + 2
            if hi - lo < tol * max(1.0, hi):
                return v @ (z / (1.0 + hi * w))
    return v @ (z / (1.0 + hi * w))


def project_caps(x, caps):
    mag = np.abs(x)
    out = x.copy()
    over = mag > caps
    out[over] = x[over] / mag[over] * caps[over]
    return out


def project_caps_diag_ellipsoid(z, caps, v, c, tol=1e-15):
    """Euclidean projection onto {|x_m| <= caps_m} and {sum_m v_m |x_m|^2 <= c}
    (v > 0), in the unwhitened metric.  Separable: for a multiplier mu >= 0
    of the ellipsoid, element m solves its own disc problem,
    x_m = z_m min(1 / (1 + mu v_m), caps_m / |z_m|), and the answer takes
    the smallest mu whose x fits, found by bisection on the ellipsoid sum
    (nonincreasing in mu) until the bracket is tol relative wide."""
    mag = np.abs(z)
    clip = caps / np.where(mag > 0.0, mag, 1.0)

    def shrink(mu):
        f = np.minimum(1.0 / (1.0 + mu * v), clip)
        return f, float(np.sum(v * (f * mag) ** 2))

    f, e = shrink(0.0)
    if e <= c:
        return z * f
    lo, hi = 0.0, 1.0
    while shrink(hi)[1] > c:
        lo, hi = hi, 2.0 * hi
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        if shrink(mid)[1] > c:
            lo = mid
        else:
            hi = mid
    return z * shrink(hi)[0]


def dykstra(x, projections, iters=200, tol=1e-14):
    """Dykstra's alternating projections onto an intersection of convex sets.

    Stops after the first sweep in which y and every correction term move by
    at most tol * max(1, ||y||), or after iters sweeps.  y alone can stand
    still for a sweep while the corrections still carry it elsewhere."""
    p = [np.zeros_like(x) for _ in projections]
    y = x.copy()
    for _ in range(iters):
        y_prev, moved = y, 0.0
        for i, proj in enumerate(projections):
            z = proj(y + p[i])
            p_new = y + p[i] - z
            moved = max(moved, np.linalg.norm(p_new - p[i]))
            p[i], y = p_new, z
        moved = max(moved, np.linalg.norm(y - y_prev))
        if moved <= tol * max(1.0, np.linalg.norm(y)):
            break
    return y


def pg_qcqp_max(a, b, projections, iters=20000, step=None, x0=None, tol=1e-12):
    """Long-run projected-gradient ascent of Re{b^H x} - x^H a x over an
    intersection of convex sets (each given by its projection operator)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    n = b.size
    if step is None:
        lmax = float(np.linalg.eigvalsh(0.5 * (a + a.conj().T))[-1])
        step = 1.0 / max(2.0 * lmax, 1e-12)
    x = np.zeros(n, dtype=complex) if x0 is None else x0.copy()
    proj = (lambda y: dykstra(y, projections)) if len(projections) > 1 else projections[0]
    best = -np.inf
    stall = 0
    for _ in range(iters):
        g = b - 2.0 * (a @ x)
        x_new = proj(x + step * g)
        f = float(np.real(np.vdot(b, x_new)) - np.vdot(x_new, a @ x_new).real)
        move = np.linalg.norm(x_new - x)
        x = x_new
        if f > best + tol * max(1.0, abs(best)):
            best = f
            stall = 0
        else:
            stall += 1
        if move <= tol * max(1.0, np.linalg.norm(x)) or stall > 300:
            break
    return x, best


def ball_multiplier_bisect(d, r, level, iters=200):
    """Smallest lam >= 0 with sum_i r_i / (d_i + lam)^2 <= level, by
    bisection on lam with the sum taken term by term (terms with r_i = 0
    left out)."""
    def power(lam):
        return sum(ri / (di + lam) ** 2 if di + lam > 0.0 else np.inf
                   for di, ri in zip(d, r) if ri > 0.0)

    if power(0.0) <= level:
        return 0.0
    lo, hi = 0.0, 1.0
    while power(hi) > level:
        lo, hi = hi, 2.0 * hi
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if power(mid) > level:
            lo = mid
        else:
            hi = mid
    return hi


def wmmse_sum_rate(h, p_max, noise, iters=300):
    """Classic WMMSE precoding for the MISO downlink sum rate (independent of
    the quadratic-transform machinery).  h: (K, N) channels.  Returns
    (precoders (K, N), sum rate in bits)."""
    k, n = h.shape
    v = np.sqrt(p_max / k) * h / np.linalg.norm(h, axis=1, keepdims=True)
    for _ in range(iters):
        hv = h.conj() @ v.T  # [k, j] = h_k^H v_j
        denom = np.sum(np.abs(hv) ** 2, axis=1) + noise
        u = np.diag(hv) / denom                       # receive scalars
        e = 1.0 - np.real(np.conj(u) * np.diag(hv))   # MMSE
        w = 1.0 / np.maximum(e, 1e-300)               # weights
        # v_k = (sum_j w_j |u_j|^2 h_j h_j^H + mu I)^{-1} w_k u_k h_k
        coef = w * np.abs(u) ** 2
        a = (h.T * coef[None, :]) @ h.conj()
        rhs = (w * u)[:, None] * h  # rows: w_k u_k h_k
        ew, ev = np.linalg.eigh(0.5 * (a + a.conj().T))
        ew = np.maximum(ew, 0.0)
        r = rhs @ np.conj(ev)

        def power(mu):
            return float(np.sum(np.abs(r / (ew + mu)[None, :]) ** 2))

        mu_lo, mu_hi = 0.0, 1.0
        keep = ew > 1e-14 * max(ew[-1], 1e-300)
        r_null = np.linalg.norm(r[:, ~keep])
        inv0 = np.where(keep, 1.0 / np.where(keep, ew, 1.0), 0.0)
        p0 = float(np.sum(np.abs(r * inv0[None, :]) ** 2))
        if r_null <= 1e-12 * max(np.linalg.norm(r), 1e-300) and p0 <= p_max:
            v = (r * inv0[None, :]) @ ev.T
        else:
            while power(mu_hi) > p_max:
                mu_hi *= 4.0
            for _ in range(200):
                mid = 0.5 * (mu_lo + mu_hi)
                if power(mid) > p_max:
                    mu_lo = mid
                else:
                    mu_hi = mid
            v = (r / (ew + mu_hi)[None, :]) @ ev.T
    hv = h.conj() @ v.T
    sig = np.abs(np.diag(hv)) ** 2
    interf = np.sum(np.abs(hv) ** 2, axis=1) - sig
    rate = float(np.sum(np.log2(1.0 + sig / (interf + noise))))
    return v, rate


def stage1_sinr_scalar(k, w1, h_bu, h_ju, z_j, h_iu, z_i, sigma_sq):
    """Term-by-term SINR recompute with explicit loops."""
    sig = abs(np.sum(np.conj(h_bu[k]) * w1[k])) ** 2
    interf = 0.0
    for j in range(w1.shape[0]):
        if j != k:
            interf += abs(np.sum(np.conj(h_bu[k]) * w1[j])) ** 2
    z = 0.0
    for q in range(h_ju.shape[0]):
        z += abs(np.sum(np.conj(h_ju[q, k]) * z_j[q, k])) ** 2
    for b in range(h_iu.shape[0]):
        z += abs(np.sum(np.conj(h_iu[b, k]) * z_i[b, k])) ** 2
    return sig / (interf + z + sigma_sq)


# ---------------------------------------------------------------------------
# per-block / per-draw / per-user loop references for the batched model code
# ---------------------------------------------------------------------------

def uncertain_draw_loops(cs, e_mse, rng, count):
    """(h_ju, g_jr, h_iu), count draws of each, one scalar normal at a time:
    link by link (jammer-user, interferer-user, jammer-RIS), within a link
    draw by draw and block by block (a vector of a user link, the matrix of
    a jammer-RIS link), each entry's real part before its imaginary part.
    An entry is its estimate plus sqrt(e_mse * mean|block|^2 / 2) times
    that complex normal; at e_mse = 0 every draw is the estimates."""
    out = {}
    for name, est, block_ndim in (("h_ju", cs.h_ju_est, 1), ("h_iu", cs.h_iu_est, 1),
                                  ("g_jr", cs.g_jr_est, 2)):
        draws = np.empty((count,) + est.shape, dtype=complex)
        lead = est.shape[:est.ndim - block_ndim]
        for r in range(count):
            for idx in np.ndindex(lead):
                block = est[idx]
                if e_mse == 0.0 or block.size == 0:
                    draws[(r,) + idx] = block
                    continue
                scale = np.sqrt(e_mse * float(np.mean(np.abs(block) ** 2)) / 2.0)
                for entry in np.ndindex(block.shape):
                    re = rng.standard_normal()
                    im = rng.standard_normal()
                    draws[(r,) + idx + entry] = block[entry] + scale * complex(re, im)
        out[name] = draws
    return out["h_ju"], out["g_jr"], out["h_iu"]


def saa_means_loops(realizations, h_ru):
    """Jammer-summed sample means over the draws, by explicit loops:
    E sum_q |d_qk|^2, E sum_q conj(d_qk) t_qk, E sum_q u_qk u_qk^H and the
    interferer power, with d_qk = h_JU,qk^H z_qk, t_qk = G_JR,q z_qk and
    u_qk = conj(t_qk) o h_RU,k."""
    k, m = h_ru.shape
    d_abs2, zi = np.zeros(k), np.zeros(k)
    dt = np.zeros((k, m), dtype=complex)
    mm = np.zeros((k, m, m), dtype=complex)
    for rlz in realizations:
        for ik in range(k):
            for iq in range(rlz.h_ju.shape[0]):
                d = np.sum(np.conj(rlz.h_ju[iq, ik]) * rlz.z_j[iq, ik])
                t = rlz.g_jr[iq] @ rlz.z_j[iq, ik]
                u = np.conj(t) * h_ru[ik]
                d_abs2[ik] += abs(d) ** 2
                dt[ik] += np.conj(d) * t
                mm[ik] += np.outer(u, np.conj(u))
            for ib in range(rlz.h_iu.shape[0]):
                zi[ik] += abs(np.sum(np.conj(rlz.h_iu[ib, ik]) * rlz.z_i[ib, ik])) ** 2
    r = len(realizations)
    return d_abs2 / r, dt / r, mm / r, zi / r


def adversary_interference_loops(theta, realizations, h_ru):
    """(R, K) jamming plus interference power (Z_1, Z_2) per draw and user,
    one draw, one user and one adversary at a time; stage 2 bounces each
    jammer path through the RIS, h_JU,qk + G_JR,q^H (conj(theta) o h_RU,k)."""
    k_users = h_ru.shape[0]
    z1 = np.zeros((len(realizations), k_users))
    z2 = np.zeros((len(realizations), k_users))
    for r, rlz in enumerate(realizations):
        for k in range(k_users):
            for iq in range(rlz.h_ju.shape[0]):
                z1[r, k] += abs(np.sum(np.conj(rlz.h_ju[iq, k]) * rlz.z_j[iq, k])) ** 2
                hj = rlz.h_ju[iq, k]
                if theta.size:
                    hj = hj + rlz.g_jr[iq].conj().T @ (np.conj(theta) * h_ru[k])
                z2[r, k] += abs(np.sum(np.conj(hj) * rlz.z_j[iq, k])) ** 2
            for ib in range(rlz.h_iu.shape[0]):
                zi = abs(np.sum(np.conj(rlz.h_iu[ib, k]) * rlz.z_i[ib, k])) ** 2
                z1[r, k] += zi
                z2[r, k] += zi
    return z1, z2


def sum_rate_nats_loops(tau, w1, w2, theta, realizations, h_bu, h_ru, g_br,
                        sigma1_sq, sigma2_sq, sigma_r_sq):
    """Mean over draws of sum_k tau ln(1+SINR1_k) + (1-tau) ln(1+SINR2_k),
    one draw, one user and one adversary at a time."""
    k_users = h_bu.shape[0]
    z1, z2 = adversary_interference_loops(theta, realizations, h_ru)
    total = 0.0
    for r in range(len(realizations)):
        for k in range(k_users):
            h2 = h_bu[k] + (g_br.conj().T @ (np.conj(theta) * h_ru[k]) if theta.size else 0.0)
            g1 = [abs(np.sum(np.conj(h_bu[k]) * w1[j])) ** 2 for j in range(k_users)]
            g2 = [abs(np.sum(np.conj(h2) * w2[j])) ** 2 for j in range(k_users)]
            ris_noise = sigma_r_sq * float(np.sum(np.abs(h_ru[k]) ** 2 * np.abs(theta) ** 2)) if theta.size else 0.0
            r1 = np.log1p(g1[k] / (sum(g1) - g1[k] + z1[r, k] + sigma1_sq))
            r2 = np.log1p(g2[k] / (sum(g2) - g2[k] + ris_noise + z2[r, k] + sigma2_sq))
            total += tau * r1 + (1.0 - tau) * r2
    return total / len(realizations)
