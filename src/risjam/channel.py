"""Channel synthesis from scenario geometry.

Links are distance-based path loss times Nakagami-m small-scale fading with
uniform phases.  User positions follow the random-waypoint (RWP) stationary
distance law; jammer/interferer channels are known only through estimates,
and a realization batch adds circular-Gaussian estimation errors to them,
one draw per link for the whole batch.  The adversaries' isotropic transmit
vectors are drawn once per trial.  Every link family (all jammer-user links,
say) is one vectorized draw, in static synthesis and in a batch alike.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

REF_DISTANCE = 1.0  # meters
RWP_GRID_POINTS = 10000  # intervals of the grid sample_rwp_distance inverts on


class BadParams(Exception):
    """RWP/Nakagami parameter invariants violated."""


def path_loss_linear(d, alpha_pl: float, zeta0_db: float):
    """Linear power gain 10^(-PL/10) with PL = zeta0 + 10*alpha*log10(d/d0),
    d0 = 1 m, of a distance or of an array of distances.  Distances below d0
    are not checked: ScenarioConfig.validate keeps every linked pair of a
    scenario at least d0 apart."""
    d = np.asarray(d, dtype=float)
    pl_db = zeta0_db + 10.0 * alpha_pl * np.log10(d / REF_DISTANCE)
    return 10.0 ** (-pl_db / 10.0)


@dataclass
class RwpParams:
    """Parameters of the RWP-based Nakagami-m channel-power law.

    b_coeffs/upsilon define the polynomial stationary distance density on
    [d_lower, d_upper]; m_nakagami and n_f shape the conditional Gamma power;
    alpha is the path-loss exponent and p_t the transmit power scale.
    """

    b_coeffs: np.ndarray
    upsilon: np.ndarray
    m_nakagami: float
    alpha: float
    d_lower: float
    d_upper: float
    p_t: float
    n_f: int

    def __post_init__(self):
        self.b_coeffs = np.asarray(self.b_coeffs, dtype=float)
        self.upsilon = np.asarray(self.upsilon, dtype=float)
        if self.b_coeffs.shape != self.upsilon.shape or self.b_coeffs.ndim != 1:
            raise BadParams("b_coeffs and upsilon must be 1-D and of equal length")
        if not (self.d_upper > self.d_lower > 0):
            raise BadParams("need d_upper > d_lower > 0")
        if self.m_nakagami < 0.5:
            raise BadParams("Nakagami shape must be >= 0.5")
        if self.alpha <= 0 or self.p_t <= 0 or self.n_f < 1:
            raise BadParams("alpha, p_t must be positive and n_f >= 1")


def _distance_norm(p: RwpParams) -> float:
    """Mass of the unnormalized polynomial density on [d_lower, d_upper]."""
    up1 = p.upsilon + 1.0
    return float(np.sum(p.b_coeffs * (1.0 - (p.d_lower / p.d_upper) ** up1) / up1))


def rwp_distance_pdf(r, p: RwpParams):
    """Normalized RWP stationary distance density on [d_lower, d_upper]."""
    r = np.asarray(r, dtype=float)
    up = p.upsilon[:, None]
    dens = np.sum(p.b_coeffs[:, None] * r[None, :] ** up / p.d_upper ** (up + 1.0), axis=0)
    dens = np.where((r >= p.d_lower) & (r <= p.d_upper), dens, 0.0)
    return dens / _distance_norm(p)


def rwp_nakagami_pdf(x, p: RwpParams):
    """Density of the channel power ||h||^2 under RWP mobility and Nakagami-m fading.

    Mixture of the conditional Gamma(n_f*m, p_t r^-alpha / m) power law over
    the stationary distance density; the incomplete-Gamma difference is the
    closed form of the distance integral from d_lower to d_upper.
    """
    # imported here, not with the module: the trial path never evaluates
    # this law, so importing risjam need not load scipy
    from scipy.special import gammainc, gammaln

    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x <= 0):
        raise BadParams("channel power must be positive")
    m, pt, alpha = p.m_nakagami, p.p_t, p.alpha
    shape0 = p.n_f * m
    out = np.zeros_like(x)
    logx = np.log(x)
    for b_n, ups in zip(p.b_coeffs, p.upsilon):
        e_n = (ups + 1.0) / alpha
        a_n = e_n + shape0
        u_hi = (m / pt) * x * p.d_upper ** alpha
        u_lo = (m / pt) * x * p.d_lower ** alpha
        gam_diff = gammainc(a_n, u_hi) - gammainc(a_n, u_lo)
        logc = (
            gammaln(a_n)
            - gammaln(shape0)
            - np.log(alpha)
            - (ups + 1.0) * np.log(p.d_upper)
            + e_n * np.log(pt / m)
            - (e_n + 1.0) * logx
        )
        out += b_n * gam_diff * np.exp(logc)
    out /= _distance_norm(p)
    return out if out.size > 1 else float(out[0])


def rwp_nakagami_cdf(x, p: RwpParams):
    """CDF of the channel power via Gauss-Legendre quadrature over distance.

    Independent of the closed-form PDF route; used for distribution checks.
    """
    from scipy.special import gammainc  # imported here, as in rwp_nakagami_pdf
    x = np.atleast_1d(np.asarray(x, dtype=float))
    t, w = np.polynomial.legendre.leggauss(240)
    r = 0.5 * (p.d_upper - p.d_lower) * t + 0.5 * (p.d_upper + p.d_lower)
    wr = 0.5 * (p.d_upper - p.d_lower) * w * rwp_distance_pdf(r, p)
    shape0 = p.n_f * p.m_nakagami
    u = (p.m_nakagami / p.p_t) * x[:, None] * r[None, :] ** p.alpha
    cdf = gammainc(shape0, u) @ wr
    return cdf if cdf.size > 1 else float(cdf[0])


def rwp_distance_grid(b_coeffs, upsilon, d_lo: float, d_hi: float):
    """The grid on [d_lo, d_hi] that sample_rwp_distance inverts on, and the
    integral of the polynomial RWP density from d_lo to each grid point (the
    CDF before normalization)."""
    b = np.asarray(b_coeffs, dtype=float)
    ups = np.asarray(upsilon, dtype=float)
    grid = np.linspace(d_lo, d_hi, RWP_GRID_POINTS + 1)
    up1 = ups[:, None] + 1.0
    anti = np.sum(b[:, None] * (grid[None, :] ** up1 - d_lo ** up1) / (up1 * d_hi ** up1), axis=0)
    return grid, anti


@functools.lru_cache(maxsize=16)
def _rwp_inverse_cdf(b_coeffs: tuple, upsilon: tuple, d_lo: float, d_hi: float):
    """The normalized CDF on rwp_distance_grid's grid, and the grid, built
    once per polynomial and range; read-only, as every caller shares them."""
    grid, anti = rwp_distance_grid(b_coeffs, upsilon, d_lo, d_hi)
    cdf = anti / anti[-1]
    cdf.flags.writeable = grid.flags.writeable = False
    return cdf, grid


def sample_rwp_distance(rng: np.random.Generator, n: int, b_coeffs, upsilon, d_lo: float,
                        d_hi: float) -> np.ndarray:
    """Draw distances from the polynomial RWP density by inverse CDF on
    rwp_distance_grid's grid (cached per polynomial and range)."""
    cdf, grid = _rwp_inverse_cdf(tuple(np.asarray(b_coeffs, dtype=float).ravel()),
                                 tuple(np.asarray(upsilon, dtype=float).ravel()),
                                 float(d_lo), float(d_hi))
    return np.interp(rng.random(n), cdf, grid)


def ue_radius_range(radius: float):
    """The range of user distances from the disc centre that
    sample_static_channels draws from."""
    return 1e-6 * radius, radius


def nakagami_fading(rng: np.random.Generator, shape, m: float) -> np.ndarray:
    """Unit-mean-power Nakagami-m fades: Gamma(m, 1/m) power, uniform phase."""
    power = rng.gamma(m, 1.0 / m, size=shape)
    while (power == 0.0).any():  # exact zeros break the nonzero-entry invariant
        power = np.where(power == 0.0, rng.gamma(m, 1.0 / m, size=shape), power)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=shape)
    return np.sqrt(power) * np.exp(1j * phase)


@dataclass
class ChannelSet:
    """Deterministic channels plus stored jammer/interferer channel estimates.

    Shapes: g_br (M,N); h_bu (K,N); h_ru (K,M); h_ju_est (Q,K,N_jam);
    g_jr_est (Q,M,N_jam); h_iu_est (B,K,N); ue_pos (K,3), the only positions
    kept.  Vectors are stored untransposed, so h^H w is computed as h.conj() @ w.

    The RIS terms that every AO iteration reads, conj(G_BR), the Gram matrix
    K1 = G_BR^H G_BR as formed, conj(h_RU) and |h_RU|^2, are derived on
    construction (dataclasses.replace and without_ris too), so they match
    the channels as long as no channel array is written in place.
    """

    g_br: np.ndarray
    h_bu: np.ndarray
    h_ru: np.ndarray
    h_ju_est: np.ndarray
    g_jr_est: np.ndarray
    h_iu_est: np.ndarray
    z_jam: np.ndarray  # (Q,K,N_jam) adversary beams, fixed for the trial
    z_int: np.ndarray  # (B,K,N)
    ue_pos: np.ndarray
    g_br_conj: np.ndarray = field(init=False, repr=False)  # (M,N)
    gram_br: np.ndarray = field(init=False, repr=False)    # (N,N) K1
    h_ru_conj: np.ndarray = field(init=False, repr=False)  # (K,M)
    h_ru_abs2: np.ndarray = field(init=False, repr=False)  # (K,M)

    def __post_init__(self):
        self.g_br_conj = self.g_br.conj()
        self.gram_br = self.g_br_conj.T @ self.g_br
        self.h_ru_conj = self.h_ru.conj()
        self.h_ru_abs2 = np.abs(self.h_ru) ** 2

    @property
    def n_users(self) -> int:
        return self.h_bu.shape[0]

    def without_ris(self) -> "ChannelSet":
        """The same channels with no RIS elements (M = 0 views; a set without
        them is its own view): the no-RIS baseline's channels.  A realization
        batch drawn on them takes the same jammer and interferer errors as
        one on the full channels, as the jammer-RIS link is drawn last."""
        if not self.g_br.shape[0]:
            return self
        return replace(self, g_br=self.g_br[:0], h_ru=self.h_ru[:, :0], g_jr_est=self.g_jr_est[:, :0])


def _adversary_terms(h_ju, g_jr, h_iu, z_j, z_i):
    """The adversary terms of draws with any leading axes: the direct jammer
    amplitudes h_JU,qk^H z_qk (...,Q,K), the interferer power
    sum_b |h_IU,bk^H z_bk|^2 (...,K) and the jammer paths into the RIS
    G_JR,q z_qk (...,Q,M,K)."""
    direct = np.conj(np.einsum("...n,...n->...", h_ju, np.conj(z_j)))
    interf = np.abs(np.einsum("...n,...n->...", h_iu, np.conj(z_i))) ** 2
    return direct, interf.sum(axis=-2), g_jr @ np.swapaxes(z_j, -1, -2)


@dataclass(frozen=True)
class Draw:
    """One draw of a Realization batch: the per-draw shapes, no draw axis."""

    h_ju: np.ndarray  # (Q,K,N_jam)
    g_jr: np.ndarray  # (Q,M,N_jam)
    h_iu: np.ndarray  # (B,K,N)
    z_j: np.ndarray   # (Q,K,N_jam)
    z_i: np.ndarray   # (B,K,N)


_CHANNELS = ("h_ju", "g_jr", "h_iu")
_TERMS = ("direct", "interf", "bounce")


@dataclass
class Realization:
    """A batch of R draws of the uncertain channels, on a leading axis, with
    the adversary transmit vectors, which are constants of the trial.

    Each draw also carries its adversary terms, which depend on the draw
    but not on the optimization state: the direct jammer amplitudes
    h_JU,qk^H z_qk, the interferer power sum_b |h_IU,bk^H z_bk|^2 at each
    user and the jammer paths into the RIS G_JR,q z_qk.  They are derived
    on construction (dataclasses.replace too), so they always match the
    channels.  The SAA statistics and the rates read them instead of the
    channels.

    len() is R.  An integer index gives one Draw, a slice a Realization of
    those draws (views, no copy), and iteration yields the Draws in order.
    """

    h_ju: np.ndarray  # (R,Q,K,N_jam) actual = estimate + error
    g_jr: np.ndarray  # (R,Q,M,N_jam)
    h_iu: np.ndarray  # (R,B,K,N)
    z_j: np.ndarray   # (Q,K,N_jam), sum_k ||z_j[q,k]||^2 = P_J
    z_i: np.ndarray   # (B,K,N),     sum_k ||z_i[b,k]||^2 = P_I
    direct: np.ndarray = field(init=False)  # (R,Q,K)
    interf: np.ndarray = field(init=False)  # (R,K)
    bounce: np.ndarray = field(init=False)  # (R,Q,M,K)

    def __post_init__(self):
        self.direct, self.interf, self.bounce = _adversary_terms(
            self.h_ju, self.g_jr, self.h_iu, self.z_j, self.z_i)

    @classmethod
    def _of(cls, **fields) -> "Realization":
        """A batch from all its fields, terms included: nothing is derived."""
        out = object.__new__(cls)
        out.__dict__.update(fields)
        return out

    def __len__(self) -> int:
        return self.h_ju.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Realization._of(z_j=self.z_j, z_i=self.z_i, **{
                name: getattr(self, name)[i] for name in _CHANNELS + _TERMS})
        return Draw(self.h_ju[i], self.g_jr[i], self.h_iu[i], self.z_j, self.z_i)

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def _uniform_box(rng: np.random.Generator, lo, hi, n: int) -> np.ndarray:
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    return lo + rng.random((n, 3)) * (hi - lo)


def _links(rng: np.random.Generator, a, b, shape, alpha: float, zeta0_db: float, m: float) -> np.ndarray:
    """One link of the given shape per pair of points of a and b (broadcast),
    each scaled by the path loss of its distance |a - b|: one fading draw
    for the whole family, of shape lead + shape."""
    dist = np.linalg.norm(np.asarray(a) - np.asarray(b), axis=-1)
    gain = path_loss_linear(dist, alpha, zeta0_db)
    return np.reshape(np.sqrt(gain), dist.shape + (1,) * len(shape)) * nakagami_fading(
        rng, dist.shape + tuple(shape), m)


def sample_static_channels(cfg, rng: np.random.Generator) -> ChannelSet:
    """Place UEs/jammers/interferers and synthesize every channel of one trial.

    cfg (a ScenarioConfig) provides the placement (bs_pos, ris_pos, the user
    disc ue_center/ue_radius, the jammer and interferer boxes), counts (n,
    m, k, q, b, n_jam), path-loss exponents, zeta0_db, m_nakagami, and the
    RWP polynomial (rwp_b, rwp_upsilon).
    """
    bs, ris, ue_center = (np.asarray(p, dtype=float) for p in (cfg.bs_pos, cfg.ris_pos, cfg.ue_center))
    k, q, bq = cfg.k, cfg.q, cfg.b
    r_ue = sample_rwp_distance(rng, k, cfg.rwp_b, cfg.rwp_upsilon, *ue_radius_range(cfg.ue_radius))
    ang = rng.uniform(0.0, 2.0 * np.pi, size=k)
    ue_pos = ue_center + np.stack([r_ue * np.cos(ang), r_ue * np.sin(ang), np.zeros(k)], axis=1)
    jam_pos = _uniform_box(rng, cfg.jammer_box_min, cfg.jammer_box_max, q)
    int_pos = _uniform_box(rng, cfg.interferer_box_min, cfg.interferer_box_max, bq)

    def links(a, b, shape, alpha):
        return _links(rng, a, b, shape, alpha, cfg.zeta0_db, cfg.m_nakagami)

    g_br = links(bs, ris, (cfg.m, cfg.n), cfg.alpha_br)
    h_bu = links(bs, ue_pos, (cfg.n,), cfg.alpha_bu)
    h_ru = links(ris, ue_pos, (cfg.m,), cfg.alpha_ru)
    h_ju = links(jam_pos[:, None], ue_pos, (cfg.n_jam,), cfg.alpha_ju)
    g_jr = links(jam_pos, ris, (cfg.m, cfg.n_jam), cfg.alpha_jr)
    h_iu = links(int_pos[:, None], ue_pos, (cfg.n,), cfg.alpha_iu)

    # adversary transmit vectors are constants of the trial (realizations
    # redraw the channels only); each transmitter meets its budget
    z_jam = _isotropic_power_vectors(rng, (q, k, cfg.n_jam), cfg.p_jam_w)
    z_int = _isotropic_power_vectors(rng, (bq, k, cfg.n), cfg.p_int_w)

    return ChannelSet(g_br=g_br, h_bu=h_bu, h_ru=h_ru, h_ju_est=h_ju, g_jr_est=g_jr,
                      h_iu_est=h_iu, z_jam=z_jam, z_int=z_int, ue_pos=ue_pos)


def _complex_normals(rng: np.random.Generator, shape) -> np.ndarray:
    """Complex normals with independent standard normal real and imaginary
    parts, from one normal draw: each entry's real part, then its imaginary
    part."""
    return rng.standard_normal(tuple(shape) + (2,)).view(complex)[..., 0]


def _isotropic_power_vectors(rng: np.random.Generator, shape, total_power: float) -> np.ndarray:
    """(T, K, N) complex Gaussian directions, one (K, N) set per transmitter,
    each scaled so that sum_k ||v_k||^2 = total_power."""
    v = _complex_normals(rng, shape)
    norm2 = (np.abs(v) ** 2).sum(axis=(-2, -1), keepdims=True)
    while (norm2 == 0.0).any():
        v = np.where(norm2 == 0.0, _complex_normals(rng, shape), v)
        norm2 = (np.abs(v) ** 2).sum(axis=(-2, -1), keepdims=True)
    return v * np.sqrt(total_power / norm2)


def sample_uncertain_realization(cs: ChannelSet, e_mse: float, rng: np.random.Generator,
                                 count: int) -> Realization:
    """Draw count realizations of the uncertain channels as one batch.

    Errors are circular Gaussian with per-entry variance e_mse times the mean
    squared magnitude of the corresponding estimate block (a vector of a
    user link, the matrix of a jammer-RIS link).  Each link takes one normal
    draw for the whole batch, in the order jammer-user, interferer-user,
    jammer-RIS, so that channels without RIS elements consume the same
    jammer and interferer errors; the normals are scaled and added to the
    estimates in place.  At e_mse = 0 the batch is one draw, whatever count
    is asked: read-only views of the estimates and of their adversary terms,
    computed once, with no normals drawn.  The adversary transmit vectors
    are the trial constants stored in the ChannelSet; only the channels
    change from draw to draw.  e_mse is trusted to be nonnegative, as
    ScenarioConfig.validate rejects a negative one.
    """
    ests = {"h_ju": cs.h_ju_est, "h_iu": cs.h_iu_est, "g_jr": cs.g_jr_est}  # drawing order
    if e_mse == 0:
        terms = dict(zip(_TERMS, _adversary_terms(**ests, z_j=cs.z_jam, z_i=cs.z_int)))
        return Realization._of(z_j=cs.z_jam, z_i=cs.z_int, **{
            name: np.broadcast_to(a, (1,) + a.shape) for name, a in {**ests, **terms}.items()})
    links = {}
    for name, est in ests.items():
        draw = links[name] = _complex_normals(rng, (count,) + est.shape)
        if est.size:  # an empty link has no block to average
            block = (-2, -1) if name == "g_jr" else (-1,)
            draw *= np.sqrt(e_mse * np.mean(np.abs(est) ** 2, axis=block, keepdims=True) / 2.0)
            draw += est
    return Realization(z_j=cs.z_jam, z_i=cs.z_int, **links)
