"""Two-stage TD-SWIPT system model: SINRs, rates, energy, and feasibility.

Stage 1: direct transmission while the RIS harvests.  Stage 2: transmission
assisted by the reflecting (amplifying) RIS.  Both stages share one SINR
form, |h_k^H w_k|^2 / (sum_{j!=k} |h_k^H w_j|^2 + c_k), and differ only in
the channels h and the extra term c; signal_and_power is its one kernel.
All evaluation here uses the actual (estimate + error) channels of a
Realization batch, every draw at once; the optimizer only ever sees sample
averages of these quantities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelSet, Realization

LN2 = float(np.log(2.0))


@dataclass
class PowerModel:
    """The model's constants in watts: the BS power cap, the harvesting
    efficiency eta1, the amplifier's reciprocal efficiency xi, the static
    power P_dc + P_sc of one element, the amplitude cap A_max and the one
    noise power of the UEs and the RIS amplifier.  Built by
    ScenarioConfig.power_model from a validated config."""

    p_max: float
    eta1: float
    xi: float
    p_static: float
    a_max: float
    noise: float


@dataclass
class SolverState:
    """Current iterates of the alternating optimization."""

    tau: float
    w1: np.ndarray      # (K, N)
    w2: np.ndarray      # (K, N)
    theta: np.ndarray   # (M,)
    omega1: np.ndarray = None
    nu1: np.ndarray = None
    omega2: np.ndarray = None
    nu2: np.ndarray = None

    def copy(self) -> "SolverState":
        return SolverState(
            tau=self.tau, w1=self.w1.copy(), w2=self.w2.copy(), theta=self.theta.copy(),
            omega1=None if self.omega1 is None else self.omega1.copy(),
            nu1=None if self.nu1 is None else self.nu1.copy(),
            omega2=None if self.omega2 is None else self.omega2.copy(),
            nu2=None if self.nu2 is None else self.nu2.copy(),
        )


def harvested_energy(w1: np.ndarray, tau: float, g_br: np.ndarray, eta1: float) -> float:
    """Energy collected by the RIS during the harvesting stage:
    tau * eta1 * sum_k ||G_BR w1_k||^2."""
    return float(tau * eta1 * np.sum(np.abs(g_br @ w1.T) ** 2))


def effective_channels(theta: np.ndarray, cs: ChannelSet) -> np.ndarray:
    """(K, N) stage-2 channels h_k = h_BU,k + G_BR^H Theta^H h_RU,k
    (so that h_k^H = h_BU,k^H + h_RU,k^H Theta G_BR)."""
    if theta.size == 0:
        return cs.h_bu.copy()
    casc = (np.conj(theta)[None, :] * cs.h_ru) @ np.conj(cs.g_br)  # (K, M) @ (M, N)
    return cs.h_bu + casc


def adversary_interference(theta: np.ndarray, draws: Realization, cs: ChannelSet):
    """(R, K) jamming plus co-channel interference power at each UE for each
    draw of the batch: (Z_1, Z_2), stage 1 over the direct jammer links and
    stage 2 with the jammer paths bounced through the RIS,
    h_J,qk^H = h_JU,qk^H + h_RU,k^H Theta G_JR,q.  Reads the batch's
    adversary terms (Realization), which do not depend on theta, and only
    combines them with theta.  Without reflection coefficients both stages
    see the same power."""
    z1 = np.sum(np.abs(draws.direct) ** 2, axis=1) + draws.interf
    if theta.size == 0 or draws.direct.shape[1] == 0:
        return z1, z1
    bounced = np.einsum("km,rqmk->rqk", np.conj(cs.h_ru) * theta[None, :], draws.bounce)
    return z1, np.sum(np.abs(draws.direct + bounced) ** 2, axis=1) + draws.interf


def ris_noise(theta: np.ndarray, cs: ChannelSet, noise: float) -> np.ndarray:
    """(K,) amplified RIS noise at each UE, sigma^2 ||h_RU,k^H Theta||^2."""
    if theta.size == 0:
        return np.zeros(cs.n_users)
    return noise * np.sum(np.abs(cs.h_ru) ** 2 * np.abs(theta)[None, :] ** 2, axis=1)


def signal_and_power(h: np.ndarray, w: np.ndarray, c):
    """Terms of the SINR form both stages share,
    |h_k^H w_k|^2 / (sum_{j!=k} |h_k^H w_j|^2 + c_k).

    h (K, N) are the stage's channels, w (K, N) its beams and c the per-user
    extra term (noise, amplified RIS noise, jamming and interference), with
    leading draw axes allowed.  Returns the signal amplitudes h_k^H w_k (K,)
    and the received power sum_j |h_k^H w_j|^2 + c_k, broadcast against c.
    """
    e = h.conj() @ w.T  # e[k, j] = h_k^H w_j
    return np.diagonal(e), np.sum(np.abs(e) ** 2, axis=1) + c


def sinr(h: np.ndarray, w: np.ndarray, c) -> np.ndarray:
    """Per-user SINR of one stage (see signal_and_power), broadcast against c."""
    e, p = signal_and_power(h, w, c)
    s = np.abs(e) ** 2
    return s / (p - s)


def sum_rate_nats(tau: float, w1: np.ndarray, w2: np.ndarray, theta: np.ndarray,
                  realizations: Realization, cs: ChannelSet, noise: float) -> float:
    """Sample-average sum rate in nats per channel use over the given draws,
    all draws and users evaluated together: stage 1 on the direct channels,
    stage 2 on the effective ones with the amplified RIS noise.  One noise
    power sigma^2 serves the UEs of both stages and the RIS amplifier.  At
    tau = 0 stage 1 has no weight and is not evaluated."""
    z1, z2 = adversary_interference(theta, realizations, cs)
    rate = (1.0 - tau) * np.log1p(sinr(effective_channels(theta, cs), w2,
                                       ris_noise(theta, cs, noise) + z2 + noise))
    if tau:
        rate += tau * np.log1p(sinr(cs.h_bu, w1, z1 + noise))
    return float(np.sum(rate)) / len(realizations)


def sum_rate(tau, w1, w2, theta, realizations, cs, noise) -> float:
    """Sample-average achievable rate in bits per channel use (unit period)."""
    return sum_rate_nats(tau, w1, w2, theta, realizations, cs, noise) / LN2


def ris_power(w2: np.ndarray, theta: np.ndarray, g_br: np.ndarray, pm: PowerModel) -> float:
    """Total RIS power draw during reflection:
    xi * (sum_k ||Theta G_BR w2_k||^2 + sigma^2 sum_m |theta_m|^2) + M P_static,
    with P_static = P_dc + P_sc per element."""
    m = theta.size
    if m == 0:
        return 0.0
    incident = g_br @ w2.T  # (M, K)
    amp_out = float(np.sum(np.abs(theta[:, None] * incident) ** 2))
    amp_noise = pm.noise * float(np.sum(np.abs(theta) ** 2))
    return pm.xi * (amp_out + amp_noise) + m * pm.p_static


@dataclass
class FeasibilityReport:
    """Constraint slacks (nonnegative = satisfied) and per-constraint flags."""

    power1_slack: float
    power2_slack: float
    energy_slack: float
    amplitude_slack: float
    checks: dict = field(default_factory=dict)

    def __post_init__(self):
        tol = 1e-8  # a slack this far below zero still counts as met
        self.checks = {
            "power_stage1": self.power1_slack >= -tol,
            "power_stage2": self.power2_slack >= -tol,
            "energy_supply": self.energy_slack >= -tol,
            "amplitude": self.amplitude_slack >= -tol,
        }

    @property
    def all_ok(self) -> bool:
        return all(self.checks.values())


def check_feasibility(state: SolverState, cs: ChannelSet, pm: PowerModel) -> FeasibilityReport:
    """Slacks for both transmit-power caps, the energy-supply inequality, and
    the per-element amplitude bound."""
    p1 = float(np.sum(np.abs(state.w1) ** 2))
    p2 = float(np.sum(np.abs(state.w2) ** 2))
    e_r = harvested_energy(state.w1, state.tau, cs.g_br, pm.eta1)
    p_r = ris_power(state.w2, state.theta, cs.g_br, pm)
    amp = float(np.max(np.abs(state.theta))) if state.theta.size else 0.0
    return FeasibilityReport(
        power1_slack=pm.p_max - p1,
        power2_slack=pm.p_max - p2,
        energy_slack=e_r - (1.0 - state.tau) * p_r,
        amplitude_slack=pm.a_max - amp,
    )
