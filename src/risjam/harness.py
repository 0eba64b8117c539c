"""Trial and sweep execution with Monte-Carlo averaging and CSV emission.

A trial samples one ChannelSet, runs the requested scheme's optimizer, and
scores the final state on a fresh held-out batch of realizations so reported
rates are not biased by the optimization draws; it returns that rate with the
optimizer's report.  Trials are paired: every scheme at a given (config,
trial index) consumes identical channel draws.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import numerics, optimizer, system
from .channel import sample_static_channels, sample_uncertain_realization
from .config import ScenarioConfig, ValidationError, is_integer, is_real
from .optimizer import AoReport, ssca_ao

SCHEMES = ("active-harvesting", "passive-ris", "no-ris")
# the config fields each sweep axis sets to its value
AXIS_FIELDS = {"M": ("m",), "e_mse": ("e_mse",), "P_max": ("p_max_dbm",),
               "alpha_r": ("alpha_br", "alpha_ru"), "B": ("b",)}
SWEEP_AXES = (*AXIS_FIELDS, "iterations")


def _trial_seeds(cfg: ScenarioConfig, trial_index: int):
    """Independent streams for channels, optimization draws, and held-out
    evaluation, all derived from (master seed, trial index) and shared by
    every scheme so trials stay paired.  The channel stream feeds
    sample_static_channels; each of the other two seeds one generator that
    draws one batch (the AO's r_max draws, or the heldout draws)."""
    root = np.random.SeedSequence(entropy=(int(cfg.seed), int(trial_index)))
    return root.spawn(3)


def baseline_passive(cs, cfg, rng: np.random.SeedSequence) -> AoReport:
    """Conventional passive-RIS AO: unit-modulus reflection (amplitudes fixed
    at one), full period for data, no harvesting or RIS power draw."""
    return optimizer._alternate(cs, cfg, rng, harvest=False)


def baseline_noris(cs, cfg, rng: np.random.SeedSequence) -> AoReport:
    """Transmit beamforming without any RIS (empty theta) against the
    SAA-averaged jamming and interference: the passive AO on the channels'
    view without RIS elements."""
    return optimizer._alternate(cs.without_ris(), cfg, rng, harvest=False)


@dataclass
class TrialResult:
    """The held-out rate and AO report of one trial; its caller keeps the scheme and index."""

    rate_bits: float        # held-out evaluation
    report: AoReport


def run_trial(cfg: ScenarioConfig, scheme: str, trial_index: int) -> TrialResult:
    """One seeded trial: sample channels, run the scheme's optimizer (looked
    up in this module's globals at call time) and score its state on
    held-out draws (one at e_mse = 0); no-RIS draws and scores on the view
    without RIS elements.  A solver failure (EnergyInfeasible, Infeasible,
    MaxIterExceeded) is raised again as its own type, its message led by
    "<scheme> trial <index>:", with the original as its cause; an unknown
    scheme or an index not an int >= 0 raises ValidationError before any draw."""
    if scheme not in SCHEMES:
        raise ValidationError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    if not is_integer(trial_index) or trial_index < 0:
        raise ValidationError(f"trial index must be a nonnegative integer, got {trial_index!r}")
    ss_chan, ss_opt, ss_eval = _trial_seeds(cfg, trial_index)
    cs = sample_static_channels(cfg, np.random.default_rng(ss_chan))
    if scheme == "active-harvesting":
        optimize = ssca_ao
    elif scheme == "passive-ris":
        optimize = baseline_passive
    else:
        optimize, cs = baseline_noris, cs.without_ris()
    try:
        report = optimize(cs, cfg, ss_opt)
    except (optimizer.EnergyInfeasible, numerics.Infeasible, numerics.MaxIterExceeded) as exc:
        raise type(exc)(f"{scheme} trial {trial_index}: {exc}") from exc
    heldout = sample_uncertain_realization(cs, cfg.e_mse, np.random.default_rng(ss_eval), cfg.heldout)
    st = report.state
    rate = system.sum_rate(st.tau, st.w1, st.w2, st.theta, heldout, cs, cfg.power_model().noise)
    return TrialResult(rate, report)


def _apply_axis(cfg: ScenarioConfig, axis: str, value: float) -> ScenarioConfig:
    """cfg with the axis's fields set to value (run_sweep checks the axis, the
    new config the value); a real value is set as a float, or an int for an integral count."""
    names = AXIS_FIELDS[axis]
    if is_real(value):
        value = float(value)
        if isinstance(getattr(ScenarioConfig, names[0]), int) and value.is_integer():
            value = int(value)
    return replace(cfg, **dict.fromkeys(names, value))


@dataclass
class SweepResult:
    """Per-trial held-out rates and best objectives (bits) by (value, scheme), in trial order
    so schemes pair by index, and no timing; rows() computes every statistic the CSV reports."""

    axis: str
    values: list
    schemes: list
    rates: dict = field(default_factory=dict)
    objectives: dict = field(default_factory=dict)
    seed: int = 0

    def rows(self):
        for value in self.values:
            for scheme in self.schemes:
                rates = self.rates[(value, scheme)]
                stderr = float(rates.std(ddof=1) / np.sqrt(rates.size)) if rates.size > 1 else 0.0
                yield (self.axis, value, scheme, float(rates.mean()), stderr, rates.size,
                       self.seed, float(self.objectives[(value, scheme)].mean()))


CSV_HEADER = "axis,value,scheme,mean_rate_bits,stderr,trials,seed,objective_bits"


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{v:.6g}"


def write_csv(result: SweepResult, path: str):
    lines = [CSV_HEADER]
    for row in result.rows():
        lines.append(",".join(_fmt(v) if not isinstance(v, str) else v for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _run_point(args):
    """A pool task's (held-out rate, best training objective), in bits."""
    cfg, scheme, idx = args
    res = run_trial(cfg, scheme, idx)
    return res.rate_bits, res.report.best_objective_bits


def run_sweep(cfg: ScenarioConfig, axis: str, values, schemes=SCHEMES, jobs: int = 1,
              out: str | None = None) -> SweepResult:
    """Paired Monte-Carlo sweep over one axis; optionally writes the CSV.

    The whole sweep contract is checked before any trial or pool starts, each
    breach a ValidationError: an unknown scheme or axis, values for the
    iterations axis, no values for a value axis, no scheme, jobs not an int >= 1,
    an out that is a directory or in a missing one, or an invalid config at any value.
    With jobs > 1 one pool runs every (value, scheme, trial) task.  Pool and
    serial loop both return results in task order, so results are merged by
    position and the output is deterministic either way.
    """
    schemes, values = list(schemes), list(values)
    for s in schemes:
        if s not in SCHEMES:
            raise ValidationError(f"unknown scheme {s!r}")
    if axis not in SWEEP_AXES:
        raise ValidationError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    if axis == "iterations" and values:
        raise ValidationError(f"the iterations axis takes no values, got {values}")
    if axis != "iterations" and not values:
        raise ValidationError(f"the {axis} axis needs at least one value")
    if not schemes:
        raise ValidationError("a sweep needs at least one scheme")
    if not is_integer(jobs) or jobs < 1:
        raise ValidationError(f"jobs must be an integer of at least 1, got {jobs!r}")
    if out and (os.path.isdir(out) or not os.path.isdir(os.path.dirname(os.path.abspath(out)))):
        raise ValidationError(f"out must name a file in an existing directory, got {out}")
    if axis == "iterations":
        result = _iteration_trace(cfg, schemes)
    else:
        result = SweepResult(axis=axis, values=values, schemes=schemes, seed=cfg.seed)
        cfgs = [_apply_axis(cfg, axis, value) for value in values]
        tasks = [(cfg_v, scheme, idx) for cfg_v in cfgs for scheme in schemes for idx in range(cfg.trials)]
        if jobs > 1:
            # imported here: loading the process pool costs every `import risjam`
            # (CLI run, pool worker) about 14 ms, and only parallel sweeps use it
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                outputs = list(pool.map(_run_point, tasks, chunksize=4))
        else:
            outputs = [_run_point(t) for t in tasks]
        keys = [(value, scheme) for value in values for scheme in schemes]
        for key, chunk in zip(keys, np.reshape(outputs, (len(keys), cfg.trials, 2))):
            result.rates[key], result.objectives[key] = chunk.T
    if out:
        write_csv(result, out)
    return result


def _iteration_trace(cfg: ScenarioConfig, schemes):
    """Per-iteration objective trace of a single trial (convergence curve)."""
    traces = {scheme: run_trial(cfg, scheme, 0).report.objective_bits for scheme in schemes}
    values = list(range(1, max(len(t) for t in traces.values()) + 1))
    points = {(v, s): np.array([t[min(v, len(t)) - 1]]) for s, t in traces.items() for v in values}
    return SweepResult(axis="iterations", values=values, schemes=schemes, rates=points,
                       objectives=points, seed=cfg.seed)
