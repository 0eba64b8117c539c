"""Interleaved same-process A/B of run_trial between two checkouts.

Copies each checkout's src/risjam to a temporary directory as risjam_parent
and risjam_change, imports both in one process (one BLAS thread) and runs
the same trials on each side in rounds, alternating which side goes first.
After one untimed warm-up trial per scheme and side, each side runs one
untimed round under cProfile, which counts its Python-level calls (builtins
included): a measure of per-call overhead that does not depend on the
machine's load.  Then a round times process CPU over run_trial for every
(trial index, scheme) on one side, so both sides see the same machine load
within a round.

    python3 scripts/ab_trials.py --parent ../parent --change . \\
        --profile paper --e-mse 0.1 --scheme passive-ris no-ris --rounds 30

Prints each side's calls per trial and median ms per trial, the median
change/parent ratio of the rounds with its quartiles, how many rounds the
change won, and whether every trial is the same on both sides: its
iteration count, its w1, w2 and theta as bytes (with dtype and shape), its
rate_bits, best_objective_nats, tau, four feasibility slacks and
per-iteration tau_tightness record as float.hex, its theta_steps and
theta_capped, and each block's multiplier record (lam1 and lam2 as
float.hex, solves, ball_steps and evaluations).  For a change that moves
bits, it also prints how far the trials of a round are apart: the largest
relative difference of rate_bits and of best_objective_nats, the largest
tau difference, and how many trials differ in their iteration count, their
theta map counts (theta_steps, theta_capped) or their multiplier counters.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

import argparse
import cProfile
import importlib
import pstats
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SCHEMES = ("active-harvesting", "passive-ris", "no-ris")
SIDES = ("parent", "change")


def load(checkout: str, side: str, tmp: str):
    """The checkout's risjam package imported under the name risjam_<side>."""
    name = f"risjam_{side}"
    shutil.copytree(Path(checkout) / "src" / "risjam", Path(tmp) / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def fingerprint(res):
    """Everything a trial returns that the comparison covers, as hashable values."""
    rep, st = res.report, res.report.state
    f = rep.feasibility
    floats = (res.rate_bits, rep.best_objective_nats, st.tau,
              f.power1_slack, f.power2_slack, f.energy_slack, f.amplitude_slack)
    arrays = tuple((a.dtype.str, a.shape, a.tobytes()) for a in (st.w1, st.w2, st.theta))
    tightness = tuple(float(v).hex() for v in rep.tau_tightness)
    records = tuple((block, float(m.lam1).hex(), float(m.lam2).hex(), m.solves, m.ball_steps, m.evaluations)
                    for block, m in sorted(rep.multipliers.items()))
    return (rep.iterations, tuple(float(v).hex() for v in floats), arrays, tightness,
            rep.theta_steps, rep.theta_capped, records)


def counts(res):
    """A trial's iteration count, theta map counts and multiplier counters."""
    rep = res.report
    records = tuple((m.solves, m.ball_steps, m.evaluations) for _, m in sorted(rep.multipliers.items()))
    return rep.iterations, (rep.theta_steps, rep.theta_capped), records


def relative(a: float, b: float) -> float:
    return 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))


def differences(parent, change):
    """How far the paired trials of one round are apart: the largest relative
    difference of rate_bits and of best_objective_nats, the largest tau
    difference, and the number of trials whose iterations, theta map counts
    or multiplier counters differ."""
    rates = [relative(p.rate_bits, c.rate_bits) for p, c in zip(parent, change)]
    objectives = [relative(p.report.best_objective_nats, c.report.best_objective_nats)
                  for p, c in zip(parent, change)]
    taus = [abs(p.report.state.tau - c.report.state.tau) for p, c in zip(parent, change)]
    pairs = [(counts(p), counts(c)) for p, c in zip(parent, change)]
    apart = [sum(cp[i] != cc[i] for cp, cc in pairs) for i in range(3)]
    return max(rates), max(objectives), max(taus), apart


def run_side(pkg, cfg, schemes, trials):
    """(process CPU seconds, [trial result per trial])."""
    results = []
    t0 = time.process_time()
    for index in range(trials):
        for scheme in schemes:
            results.append(pkg.harness.run_trial(cfg, scheme, index))
    return time.process_time() - t0, results


def calls_per_trial(pkg, cfg, schemes, trials) -> float:
    """Python-level calls per trial that cProfile counts over one round."""
    prof = cProfile.Profile()
    for index in range(trials):
        for scheme in schemes:
            prof.runcall(pkg.harness.run_trial, cfg, scheme, index)
    return pstats.Stats(prof).total_calls / (trials * len(schemes))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--profile", choices=("desk", "paper"), default="paper")
    p.add_argument("--e-mse", type=float, default=0.0)
    p.add_argument("--scheme", nargs="+", choices=SCHEMES, default=list(SCHEMES))
    p.add_argument("--rounds", type=int, default=20)
    p.add_argument("--trials", type=int, default=10, help="trial indices per round, from 0")
    args = p.parse_args(argv)
    if args.rounds < 1 or args.trials < 1:
        p.error("--rounds and --trials must be at least 1")

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        pkgs = {side: load(getattr(args, side), side, tmp) for side in SIDES}
        cfgs = {side: getattr(pkg.config, f"{args.profile}_profile")(e_mse=args.e_mse)
                for side, pkg in pkgs.items()}
        for side in SIDES:  # untimed: first calls pay one-off costs (lazy imports, caches)
            run_side(pkgs[side], cfgs[side], args.scheme, 1)
        calls = {side: calls_per_trial(pkgs[side], cfgs[side], args.scheme, args.trials) for side in SIDES}
        cpu = {side: [] for side in SIDES}
        equal = True
        for rnd in range(args.rounds):
            order = SIDES if rnd % 2 == 0 else SIDES[::-1]
            results = {}
            for side in order:
                seconds, results[side] = run_side(pkgs[side], cfgs[side], args.scheme, args.trials)
                cpu[side].append(seconds)
            equal = equal and ([fingerprint(r) for r in results["parent"]]
                               == [fingerprint(r) for r in results["change"]])
        # every round runs the same trials: the last one's differences stand for all
        rate_diff, objective_diff, tau_diff, apart = differences(results["parent"], results["change"])

    per_trial = args.trials * len(args.scheme)
    ratios = np.array(cpu["change"]) / np.array(cpu["parent"])
    q1, med, q3 = np.percentile(ratios, [25, 50, 75])
    print(f"{args.profile}, e_mse = {args.e_mse:g}, {', '.join(args.scheme)}: "
          f"{args.rounds} rounds of {per_trial} trials per side, process CPU time")
    for side in SIDES:
        print(f"{side}: {calls[side]:.0f} Python-level calls per trial (one cProfile round)")
    for side in SIDES:
        print(f"{side}: {1e3 * np.median(cpu[side]) / per_trial:.3f} ms per trial (median of rounds)")
    print(f"change/parent: median {med:.3f}, quartiles {q1:.3f}-{q3:.3f}")
    print(f"change won {int(np.sum(ratios < 1.0))} of {args.rounds} rounds")
    print(f"largest relative difference: rate_bits {rate_diff:.2e}, best_objective_nats "
          f"{objective_diff:.2e}; largest tau difference {tau_diff:.2e}")
    print(f"trials that differ, of {per_trial}: iterations {apart[0]}, theta map counts {apart[1]}, "
          f"multiplier counters {apart[2]}")
    print("iterations, theta_steps, theta_capped and the multiplier counters equal; w1, w2, theta "
          "as bytes equal; rate_bits, best_objective_nats, tau, the four slacks, tau_tightness and "
          f"each block's lam1, lam2 equal as float.hex: {'yes' if equal else 'no'}")
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
