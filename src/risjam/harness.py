"""Trial and sweep execution with Monte-Carlo averaging and CSV emission.

A trial samples one ChannelSet, runs the requested scheme's optimizer, and
scores the final state on a fresh held-out batch of realizations so reported
rates are not biased by the optimization draws; it returns that rate with the
optimizer's report.  Trials are paired: every scheme at a given (config,
trial index) consumes identical channel draws.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import optimizer, system
from .channel import sample_static_channels, sample_uncertain_realization
from .config import ScenarioConfig
from .optimizer import AoReport, ssca_ao

SCHEMES = ("active-harvesting", "passive-ris", "no-ris")
# the config fields each sweep axis sets to its value
AXIS_FIELDS = {"M": ("m",), "e_mse": ("e_mse",), "P_max": ("p_max_dbm",),
               "alpha_r": ("alpha_br", "alpha_ru"), "B": ("b",)}
SWEEP_AXES = (*AXIS_FIELDS, "iterations")


class UnknownAxis(Exception):
    """Sweep axis outside the supported set."""


def _trial_seeds(cfg: ScenarioConfig, trial_index: int):
    """Independent streams for channels, optimization draws, and held-out
    evaluation, all derived from (master seed, trial index) and shared by
    every scheme so trials stay paired.  The channel stream feeds
    sample_static_channels; each of the other two seeds one generator that
    draws one batch (the AO's r_max draws, or the heldout draws)."""
    root = np.random.SeedSequence(entropy=(int(cfg.seed), int(trial_index)))
    return root.spawn(3)


def baseline_passive(cs, cfg, rng) -> AoReport:
    """Conventional passive-RIS AO: unit-modulus reflection (amplitudes fixed
    at one), full period for data, no harvesting or RIS power draw."""
    return optimizer._alternate(cs, cfg, rng, harvest=False)


def baseline_noris(cs, cfg, rng) -> AoReport:
    """Transmit beamforming without any RIS (empty theta) against the
    SAA-averaged jamming and interference: the passive AO on the channels'
    view without RIS elements."""
    return optimizer._alternate(cs.without_ris(), cfg, rng, harvest=False)


@dataclass
class TrialResult:
    """A trial's held-out rate and the AO report of the state it scored."""

    scheme: str
    trial_index: int
    rate_bits: float        # held-out evaluation
    report: AoReport


def run_trial(cfg: ScenarioConfig, scheme: str, trial_index: int) -> TrialResult:
    """One seeded trial: sample channels, run the scheme's optimizer (looked
    up in this module's globals at call time) and score its state on
    held-out draws; no-RIS draws and scores on the view without RIS elements."""
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
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
    except optimizer.EnergyInfeasible as exc:
        raise optimizer.EnergyInfeasible(f"trial {trial_index}: {exc}") from exc
    heldout = sample_uncertain_realization(cs, cfg.e_mse, np.random.default_rng(ss_eval), cfg.heldout)
    st = report.state
    rate = system.sum_rate(st.tau, st.w1, st.w2, st.theta, heldout, cs, cfg.noise_w)
    return TrialResult(scheme, trial_index, rate, report)


def _apply_axis(cfg: ScenarioConfig, axis: str, value: float) -> ScenarioConfig:
    """cfg with the axis's fields set to value; the new config validates it.
    An integral value of a count field is set as an int."""
    if axis not in AXIS_FIELDS:
        raise UnknownAxis(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    names = AXIS_FIELDS[axis]
    value = float(value)
    if isinstance(getattr(ScenarioConfig, names[0]), int) and value.is_integer():
        value = int(value)
    return replace(cfg, **dict.fromkeys(names, value))


@dataclass
class SweepResult:
    axis: str
    values: list
    schemes: list
    mean_rate: dict = field(default_factory=dict)      # (value, scheme) -> mean bits
    stderr: dict = field(default_factory=dict)
    mean_objective: dict = field(default_factory=dict)
    trials: int = 0
    seed: int = 0
    wall_clock: float = 0.0                            # seconds for the whole sweep

    def rows(self):
        for value in self.values:
            for scheme in self.schemes:
                key = (value, scheme)
                yield (self.axis, value, scheme, self.mean_rate[key], self.stderr[key],
                       self.trials, self.seed, self.mean_objective[key])


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

    Trials may execute in separate processes (jobs > 1): one pool runs every
    (value, scheme, trial) task of the sweep.  The pool and the serial loop
    both return results in task order, so results are merged by position
    and the output is deterministic either way.
    """
    schemes = list(schemes)
    for s in schemes:
        if s not in SCHEMES:
            raise ValueError(f"unknown scheme {s!r}")
    if axis == "iterations":
        return _iteration_trace(cfg, schemes, out)
    if axis not in SWEEP_AXES:
        raise UnknownAxis(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    values = list(values)
    result = SweepResult(axis=axis, values=values, schemes=schemes,
                         trials=cfg.trials, seed=cfg.seed)
    cfgs = [_apply_axis(cfg, axis, value) for value in values]
    tasks = [(cfg_v, scheme, idx) for cfg_v in cfgs for scheme in schemes for idx in range(cfg.trials)]
    t0 = time.perf_counter()
    if jobs and jobs > 1:
        # imported here: loading the process pool costs every `import risjam`
        # (CLI run, pool worker) about 14 ms, and only parallel sweeps use it
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outputs = list(pool.map(_run_point, tasks, chunksize=4))
    else:
        outputs = [_run_point(t) for t in tasks]
    result.wall_clock = time.perf_counter() - t0
    keys = [(value, scheme) for value in values for scheme in schemes]
    for i, key in enumerate(keys):
        chunk = outputs[i * cfg.trials:(i + 1) * cfg.trials]
        rates, objs = map(np.array, zip(*chunk))
        result.mean_rate[key] = float(rates.mean())
        result.stderr[key] = float(rates.std(ddof=1) / np.sqrt(rates.size)) if rates.size > 1 else 0.0
        result.mean_objective[key] = float(objs.mean())
    if out:
        write_csv(result, out)
    return result


def _iteration_trace(cfg: ScenarioConfig, schemes, out):
    """Per-iteration objective trace of a single trial (convergence curve)."""
    traces = {scheme: run_trial(cfg, scheme, 0).report.objective_bits for scheme in schemes}
    length = max(len(t) for t in traces.values())
    values = list(range(1, length + 1))
    result = SweepResult(axis="iterations", values=values, schemes=list(schemes),
                         trials=1, seed=cfg.seed)
    for r, value in enumerate(values):
        for scheme in schemes:
            t = traces[scheme]
            v = t[min(r, len(t) - 1)]
            result.mean_rate[(value, scheme)] = float(v)
            result.stderr[(value, scheme)] = 0.0
            result.mean_objective[(value, scheme)] = float(v)
    if out:
        write_csv(result, out)
    return result
