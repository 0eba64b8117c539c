"""Output checks made apart from the program.

The held-out rate, the power draw of the RIS and the harvested energy are
recomputed here from the model equations with this file's own arithmetic;
nothing in this file calls into ``risjam``.  Each check returns a list of
problems, empty when the output passes.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

RATE_RTOL = 1e-9      # held-out rate recompute
# Inequalities hold to 1e-6 relative.  The stage-1 beam solve stops its power
# bisection on the width of the multiplier interval, so ||w1||^2 lands up to
# ~1e-7 above P_max (see CHANGES.md); the worst margins of every run go to
# its manifest.
POWER_RTOL = 1e-6     # transmit-power caps
ENERGY_RTOL = 1e-6    # energy-supply inequality, relative to the harvest
AMP_RTOL = 1e-9       # |theta_m| <= A_max (the caps are enforced by projection)
UNIT_ATOL = 1e-9      # passive |theta_m| = 1
CSV_RTOL = 1e-5       # CSV floats carry 6 significant digits

CHANNEL_FIELDS = ("g_br", "h_bu", "h_ru", "h_ju_est", "g_jr_est", "h_iu_est", "z_jam", "z_int")


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) / 1000.0


@dataclass(frozen=True)
class Physics:
    """Scenario constants in watts, converted from the config's dBm/dB fields."""

    p_max: float
    a_max: float
    eta1: float
    xi: float
    p_static: float   # per-element DC biasing plus control power
    noise: float      # UE noise and RIS noise power (the model uses one value)

    @classmethod
    def of(cls, cfg) -> "Physics":
        return cls(p_max=dbm_to_watts(cfg.p_max_dbm), a_max=10.0 ** (cfg.a_max_db / 20.0),
                   eta1=float(cfg.eta1), xi=float(cfg.xi),
                   p_static=dbm_to_watts(cfg.p_dc_dbm) + dbm_to_watts(cfg.p_sc_dbm),
                   noise=dbm_to_watts(cfg.noise_dbm))


@dataclass
class TrialRecord:
    """What one trial reported plus what it was scored on."""

    scheme: str
    index: int
    rate_bits: float      # as reported by the program
    tau: float
    w1: np.ndarray        # (K, N)
    w2: np.ndarray        # (K, N)
    theta: np.ndarray     # (M,), empty without an RIS
    channels: object      # the trial's static channels (full RIS geometry)
    heldout: list         # realizations with h_ju, g_jr, h_iu, z_j, z_i


def heldout_rate_bits(rec: TrialRecord, noise: float) -> float:
    """Mean over the held-out draws of sum_k tau*log2(1+SINR1_k) +
    (1-tau)*log2(1+SINR2_k), with the stage-2 channel
    h_k^H = h_BU,k^H + h_RU,k^H diag(theta) G_BR and the jammer paths bounced
    through the RIS the same way."""
    cs, theta = rec.channels, np.asarray(rec.theta)
    k = cs.h_bu.shape[0]
    off = 1.0 - np.eye(k)
    hh1 = np.conj(cs.h_bu)                                   # rows h_k^H
    if theta.size:
        ris_row = np.conj(cs.h_ru) * theta[None, :]          # rows h_RU,k^H diag(theta)
        hh2 = hh1 + ris_row @ cs.g_br
        ris_noise = noise * (np.abs(cs.h_ru) ** 2 @ (np.abs(theta) ** 2))
    else:
        ris_row, hh2, ris_noise = None, hh1, np.zeros(k)
    g1 = np.abs(hh1 @ rec.w1.T) ** 2                          # [k, j] = |h_k^H w_j|^2
    g2 = np.abs(hh2 @ rec.w2.T) ** 2
    sig1, int1 = np.diagonal(g1), np.sum(g1 * off, axis=1)
    sig2, int2 = np.diagonal(g2), np.sum(g2 * off, axis=1)

    h_ju = np.stack([r.h_ju for r in rec.heldout])            # (R, Q, K, Nj)
    h_iu = np.stack([r.h_iu for r in rec.heldout])            # (R, B, K, N)
    z_j, z_i = rec.heldout[0].z_j, rec.heldout[0].z_i
    direct_j = np.einsum("rqkn,qkn->rqk", np.conj(h_ju), z_j)
    interf = np.sum(np.abs(np.einsum("rbkn,bkn->rbk", np.conj(h_iu), z_i)) ** 2, axis=1)
    jam1 = np.sum(np.abs(direct_j) ** 2, axis=1)
    if theta.size and h_ju.shape[1]:
        g_jr = np.stack([r.g_jr for r in rec.heldout])        # (R, Q, M, Nj)
        bounced = np.einsum("km,rqmn,qkn->rqk", ris_row, g_jr, z_j)
        jam2 = np.sum(np.abs(direct_j + bounced) ** 2, axis=1)
    else:
        jam2 = jam1
    sinr1 = sig1[None, :] / (int1[None, :] + jam1 + interf + noise)
    sinr2 = sig2[None, :] / (int2[None, :] + ris_noise[None, :] + jam2 + interf + noise)
    per_draw = np.sum(rec.tau * np.log2(1.0 + sinr1) + (1.0 - rec.tau) * np.log2(1.0 + sinr2), axis=1)
    return float(np.mean(per_draw))


def ris_power_draw(w2, theta, g_br, phys: Physics) -> float:
    """xi * (amplified output + amplified noise) + M * static power."""
    theta = np.asarray(theta)
    if theta.size == 0:
        return 0.0
    out = np.sum(np.abs(theta[:, None] * (g_br @ w2.T)) ** 2)
    noise = phys.noise * np.sum(np.abs(theta) ** 2)
    return float(phys.xi * (out + noise) + theta.size * phys.p_static)


def harvest(w1, tau, g_br, phys: Physics) -> float:
    return float(tau * phys.eta1 * np.sum(np.abs(g_br @ w1.T) ** 2))


def state_margins(rec: TrialRecord, phys: Physics) -> dict:
    """Relative excess over each cap (positive = violated): transmit power
    of both stages and, for the active scheme, the RIS draw over the harvest."""
    power = max(float(np.sum(np.abs(w) ** 2)) for w in (rec.w1, rec.w2))
    out = {"power_excess": power / phys.p_max - 1.0}
    if rec.scheme == "active-harvesting" and np.size(rec.theta):
        e_r = harvest(rec.w1, rec.tau, rec.channels.g_br, phys)
        need = (1.0 - rec.tau) * ris_power_draw(rec.w2, rec.theta, rec.channels.g_br, phys)
        out["energy_excess"] = (need - e_r) / e_r if e_r > 0 else float("inf")
    return out


def trial_problems(rec: TrialRecord, phys: Physics) -> list[str]:
    """Rate recompute, both power caps, the amplitude bound, and the
    scheme-specific properties of the reported state."""
    where = f"{rec.scheme} trial {rec.index}"
    problems = []
    try:
        rate = heldout_rate_bits(rec, phys.noise)
    except ValueError as exc:   # state and draws of inconsistent shapes
        problems.append(f"{where}: rate cannot be recomputed: {exc}")
    else:
        if not (math.isfinite(rec.rate_bits) and abs(rate - rec.rate_bits) <= RATE_RTOL * abs(rate)):
            problems.append(f"{where}: reported rate {rec.rate_bits!r} bits, recomputed {rate!r}")
    for name, w in (("w1", rec.w1), ("w2", rec.w2)):
        p = float(np.sum(np.abs(w) ** 2))
        if not p <= phys.p_max * (1.0 + POWER_RTOL):
            problems.append(f"{where}: ||{name}||^2 = {p!r} W exceeds P_max = {phys.p_max!r} W")
    theta = np.asarray(rec.theta)
    amp = np.abs(theta)
    if theta.size and not np.max(amp) <= phys.a_max * (1.0 + AMP_RTOL):
        problems.append(f"{where}: max |theta| = {np.max(amp)!r} exceeds A_max = {phys.a_max!r}")
    m = rec.channels.g_br.shape[0]
    if rec.scheme == "no-ris":
        if theta.size:
            problems.append(f"{where}: no-RIS state carries {theta.size} reflection coefficients")
        if rec.tau != 0.0:
            problems.append(f"{where}: no-RIS tau = {rec.tau!r}, expected 0")
    elif rec.scheme == "passive-ris":
        if theta.size != m or not np.all(np.abs(amp - 1.0) <= UNIT_ATOL):
            problems.append(f"{where}: passive |theta| not all 1 (size {theta.size}, M = {m})")
        if rec.tau != 0.0:
            problems.append(f"{where}: passive tau = {rec.tau!r}, expected 0")
    else:
        if theta.size != m:
            problems.append(f"{where}: theta has {theta.size} entries, M = {m}")
        if not 0.0 < rec.tau < 1.0:
            problems.append(f"{where}: tau = {rec.tau!r} outside (0, 1)")
        excess = state_margins(rec, phys).get("energy_excess", float("inf"))
        if not excess <= ENERGY_RTOL:
            problems.append(f"{where}: RIS draw exceeds the harvest by {excess!r} of it")
    return problems


def pairing_problems(records: list[TrialRecord]) -> list[str]:
    """All schemes at one trial index must see the same static channels and
    the same held-out draws of the direct jammer and interferer links."""
    problems = []
    first = records[0]
    for rec in records[1:]:
        where = f"trial {rec.index}: {rec.scheme} vs {first.scheme}"
        for name in CHANNEL_FIELDS:
            if not np.array_equal(getattr(rec.channels, name), getattr(first.channels, name)):
                problems.append(f"{where}: channel {name} differs")
        if len(rec.heldout) != len(first.heldout) or not all(
                np.array_equal(a.h_ju, b.h_ju) and np.array_equal(a.h_iu, b.h_iu)
                for a, b in zip(rec.heldout, first.heldout)):
            problems.append(f"{where}: held-out draws differ")
    return problems


CSV_HEADER = ["axis", "value", "scheme", "mean_rate_bits", "stderr", "trials", "seed", "objective_bits"]


def sweep_csv_problems(data: bytes, axis: str, values, schemes, trials: int, seed: int,
                       rates: dict) -> list[str]:
    """Layout of the sweep CSV, and each row's mean and standard error
    against the per-trial rates ``rates[(value, scheme)]`` checked above."""
    try:
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    except UnicodeDecodeError as exc:
        return [f"CSV is not UTF-8: {exc}"]
    if not rows or rows[0] != CSV_HEADER:
        return [f"CSV header {rows[:1]!r}"]
    expect = [(v, s) for v in values for s in schemes]
    if len(rows) - 1 != len(expect):
        return [f"CSV has {len(rows) - 1} rows, expected {len(expect)}"]
    problems = []
    for row, (value, scheme) in zip(rows[1:], expect):
        where = f"CSV row {value}/{scheme}"
        if row[0] != axis or float(row[1]) != value or row[2] != scheme:
            problems.append(f"{where}: key columns {row[:3]}")
            continue
        if int(row[5]) != trials or int(row[6]) != seed:
            problems.append(f"{where}: trials/seed columns {row[5:7]}")
        r = np.asarray(rates.get((value, scheme), []), dtype=float)
        if r.size != trials:
            problems.append(f"{where}: {r.size} checked trials, expected {trials}")
            continue
        mean = float(np.mean(r))
        stderr = float(np.std(r, ddof=1) / math.sqrt(r.size)) if r.size > 1 else 0.0
        for col, want in ((3, mean), (4, stderr)):
            got = float(row[col])
            if not abs(got - want) <= CSV_RTOL * abs(want) + 1e-12:
                problems.append(f"{where}: column {CSV_HEADER[col]} = {got!r}, recomputed {want!r}")
    return problems
