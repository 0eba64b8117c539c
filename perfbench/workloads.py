"""The workloads: their inputs, timed loops and checks.

Every workload makes its inputs from the seed alone and checks each output
with ``checks`` outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import sys
import time
from dataclasses import dataclass, field

import checks
from spans import Capture, Patch, Tracer, layer_metrics, spent

PAPER_ACTIVE = "paper-active"
PAPER_BASELINES = "paper-baselines-csi"

WORKLOADS = {
    # name: (config overrides on the paper profile, schemes, trial indices in the quality block)
    PAPER_ACTIVE: ({}, ("active-harvesting",), 120),
    PAPER_BASELINES: ({"e_mse": 0.1}, ("passive-ris", "no-ris"), 100),
}

# the CLI sweep run beside paper-baselines-csi: no-ris over two interferer
# counts, at --jobs 2 and again at --jobs 1
SWEEP_SCHEME = "no-ris"
SWEEP_VALUES = (2, 4)
SWEEP_TRIALS = 6
SWEEP_JOBS = 2
PROBE_REPEATS = 4            # untraced/traced pairs behind trace.overhead_s


@dataclass
class Outcome:
    """What a timed loop measured and found."""

    attempted: int = 0
    failed: int = 0
    trials: int = 0
    busy_s: float = 0.0              # summed wall-clock of the timed trials
    op_s: list = field(default_factory=list)      # wall-clock of each round
    rate_bits: float = float("nan")
    problems: list = field(default_factory=list)
    margins: dict = field(default_factory=dict)   # worst check margins seen
    layers: dict = field(default_factory=dict)
    tracer: object = None            # the Tracer whose spans gave ``layers``

    def check(self, records, phys):
        for rec in records:
            self.problems.extend(checks.trial_problems(rec, phys))
            for name, value in checks.state_margins(rec, phys).items():
                self.margins[name] = max(self.margins.get(name, value), value)
        if len(records) > 1:
            self.problems.extend(checks.pairing_problems(records))


def config_of(workload: str, seed: int):
    from risjam.config import paper_profile
    return paper_profile(seed=seed, **WORKLOADS[workload][0])


def _record(capture: Capture, scheme: str, index: int, result) -> checks.TrialRecord | str:
    if len(capture.channels) != 1 or len(capture.scoring) != 1:
        return (f"{scheme} trial {index}: saw {len(capture.channels)} channel syntheses and "
                f"{len(capture.scoring)} held-out scorings, expected one each")
    tau, w1, w2, theta, heldout = capture.scoring[0]
    return checks.TrialRecord(scheme=scheme, index=index, rate_bits=result.rate_bits,
                              tau=float(tau), w1=w1, w2=w2, theta=theta,
                              channels=capture.channels[0], heldout=heldout)


def _trial_round(cfg, schemes, index, capture, out: Outcome, phys):
    """One trial of each scheme at ``index``, timed, then checked."""
    from risjam import harness
    records = []
    busy = out.busy_s
    for scheme in schemes:
        capture.clear()
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            result = harness.run_trial(cfg, scheme, index)
        except Exception as exc:  # a failed trial is counted, the run goes on
            out.failed += 1
            print(f"{scheme} trial {index} failed: {exc!r}", file=sys.stderr)
            continue
        out.busy_s += time.perf_counter() - t0
        out.trials += 1
        rec = _record(capture, scheme, index, result)
        if isinstance(rec, str):
            out.problems.append(rec)
        else:
            records.append(rec)
    out.op_s.append(out.busy_s - busy)
    out.check(records, phys)
    return records


def _overhead(round_fn) -> float:
    """Fastest traced minus fastest untraced wall-clock of one probe round
    (the minimum is the repeat least disturbed by other load)."""
    plain, traced = [], []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        round_fn()
        plain.append(time.perf_counter() - t0)
        with Tracer():
            t0 = time.perf_counter()
            round_fn()
            traced.append(time.perf_counter() - t0)
    return min(traced) - min(plain)


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir) -> Outcome:
    """Serial ``run_trial`` over trial indices 0, 1, 2, ...: one round is one
    trial of each scheme at an index.  Rounds go on until ``seconds`` of trial
    time have passed and the quality block (the first indices, whose mean
    held-out rate is ``rate_bits``) is complete.  paper-baselines-csi then
    runs the CLI sweep check."""
    _, schemes, quality = WORKLOADS[workload]
    cfg = config_of(workload, seed)
    phys = checks.Physics.of(cfg)
    out = Outcome()
    rates = []
    with contextlib.ExitStack() as stack:
        capture = stack.enter_context(Capture())
        if trace:
            out.layers["trace.overhead_s"] = _overhead(
                lambda: _trial_round(cfg, schemes, 0, capture, Outcome(), phys))
            out.tracer = stack.enter_context(Tracer())
        index = 0
        while index < quality or out.busy_s < seconds:
            records = _trial_round(cfg, schemes, index, capture, out, phys)
            if index < quality:
                rates.extend(r.rate_bits for r in records)
            index += 1
    out.rate_bits = statistics.fmean(rates) if rates else float("nan")
    sweep_layers = {"harness.sweep_value_s": 0.0, "cli.main_s": 0.0, "cli.csv_bytes": 0.0,
                    "harness.parallel_base_s": 0.0, "harness.parallel_efficiency": 0.0}
    if workload == PAPER_BASELINES:
        sweep_layers = sweep_check(seed, trace, out, out_dir)
    if trace:
        out.layers.update(layer_metrics(out.tracer))
        out.layers.update(sweep_layers)
    return out


def sweep_argv(seed: int, jobs: int, scenario, path) -> list[str]:
    return ["--scenario", str(scenario), "--profile", "paper", "--sweep", "B",
            "--values", ",".join(map(str, SWEEP_VALUES)), "--scheme", SWEEP_SCHEME,
            "--trials", str(SWEEP_TRIALS), "--seed", str(seed), "--jobs", str(jobs),
            "--out", str(path)]


def _cli(argv) -> int:
    from risjam import cli
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def sweep_check(seed: int, trace: bool, out: Outcome, out_dir) -> dict:
    """``risjam.cli.main`` as users run it, on the workload's scenario file:
    a no-ris B sweep at --jobs 2, then the same sweep at --jobs 1 under the
    capture hooks.  Every --jobs 1 trial is checked, the CSV rows are
    recomputed from the checked rates, and the --jobs 2 CSV must match the
    --jobs 1 CSV byte for byte.  Returns the sweep-level layer metrics."""
    from risjam import harness
    scenario = out_dir / "paper-baselines-csi.cfg"
    scenario.write_text("".join(f"{k} = {v}\n" for k, v in WORKLOADS[PAPER_BASELINES][0].items()))
    cfg = config_of(PAPER_BASELINES, seed)
    phys = checks.Physics.of(cfg)
    path = out_dir / f"sweep-seed{seed}-jobs{SWEEP_JOBS}.csv"
    ref_path = out_dir / f"sweep-seed{seed}-jobs1.csv"
    for p in (path, ref_path):
        p.unlink(missing_ok=True)

    with Tracer() if trace else contextlib.nullcontext() as pool:
        t0 = time.perf_counter()
        rc = _cli(sweep_argv(seed, SWEEP_JOBS, scenario, path))
        pool_s = time.perf_counter() - t0
    if rc != 0:
        out.problems.append(f"risjam --jobs {SWEEP_JOBS} exited with status {rc}")

    rates = {}
    with contextlib.ExitStack() as stack:
        capture = stack.enter_context(Capture())
        serial = stack.enter_context(Tracer()) if trace else None
        hook = stack.enter_context(Patch())

        def checked_trial(fn):
            def run_trial(cfg_v, scheme, index):
                capture.clear()
                result = fn(cfg_v, scheme, index)
                rec = _record(capture, scheme, index, result)
                if isinstance(rec, str):
                    out.problems.append(f"sweep B={cfg_v.b}: {rec}")
                else:
                    out.check([rec], phys)
                    rates.setdefault((cfg_v.b, scheme), []).append(result.rate_bits)
                return result
            return run_trial

        hook.wrap(harness, "run_trial", checked_trial)
        rc = _cli(sweep_argv(seed, 1, scenario, ref_path))
    if rc != 0:
        out.problems.append(f"risjam --jobs 1 exited with status {rc}")
    data = path.read_bytes() if path.exists() else b""
    ref = ref_path.read_bytes() if ref_path.exists() else b""
    if data != ref:
        out.problems.append(f"--jobs {SWEEP_JOBS} CSV differs from the --jobs 1 CSV of the same sweep")
    out.problems.extend(checks.sweep_csv_problems(ref, "B", SWEEP_VALUES, (SWEEP_SCHEME,),
                                                  SWEEP_TRIALS, seed, rates))
    if not trace:
        return {}
    base = spent(serial, "harness.trial")
    return {"harness.sweep_value_s": spent(pool, "harness.sweep") / len(SWEEP_VALUES),
            "cli.main_s": spent(pool, "cli.main"), "cli.csv_bytes": float(len(data)),
            "harness.parallel_base_s": base,
            "harness.parallel_efficiency": base / (SWEEP_JOBS * pool_s)}
