"""risjam benchmark: trial throughput and solution quality per workload.

    python3 perfbench/run.py --workload paper-active --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
manifest of the run (and, when traced, its spans) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "op_s_p50": "s",
    "peak_rss_mb": "MB",
    "rate_bits": "bits",
}

PER_LAYER = {
    "optimizer.w2_s": "s/trial",
    "optimizer.w2_calls": "1/trial",
    "numerics.qcqp_s.two_ellipsoid": "s/trial",
    "numerics.qcqp_calls.two_ellipsoid": "1/trial",
    "numerics.eigh_calls": "1/trial",
    "numerics.eigh_per_w2": "1/call",
    "numerics.qcqp_s.caps": "s/trial",
    "numerics.qcqp_calls.caps": "1/trial",
    "numerics.qcqp_s.one_ellipsoid": "s/trial",
    "numerics.qcqp_calls.one_ellipsoid": "1/trial",
    "numerics.qcqp_s.unconstrained": "s/trial",
    "numerics.qcqp_calls.unconstrained": "1/trial",
    "channel.draw_s": "s/trial",
    "channel.draw_calls": "1/trial",
    "channel.static_s": "s/trial",
    "system.objective_s": "s/trial",
    "system.objective_draws": "1/trial",
    "system.heldout_s": "s/trial",
    "system.heldout_draws": "1/trial",
    "harness.heldout_s": "s/trial",
    "optimizer.ao_s": "s/trial",
    "optimizer.ao_iterations": "1/trial",
    "optimizer.w1_s": "s/trial",
    "optimizer.theta_s": "s/trial",
    "optimizer.saa_s": "s/trial",
    "optimizer.aux_s": "s/trial",
    "optimizer.tau_s": "s/trial",
    "harness.baseline_s": "s/trial",
    "harness.trial_s": "s/trial",
    "harness.trials_traced": "count",
    "harness.sweep_value_s": "s",
    "harness.parallel_efficiency": "ratio",
    "harness.parallel_base_s": "s",
    "cli.main_s": "s",
    "cli.csv_bytes": "bytes",
    "trace.overhead_s": "s",
}

SETUP_CODE = """\
import sys
sys.path.insert(0, {src!r})
import risjam.cli
from risjam.config import paper_profile
cfg = paper_profile(seed={seed})
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""


def measure_setup(seed: int) -> float:
    """Median time from starting a fresh interpreter to the point where it
    has imported risjam and built the workload's configuration."""
    code = SETUP_CODE.format(src=str(SRC), seed=seed)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as child:
            line = child.stdout.readline()
            dt = time.perf_counter() - t0
            child.stdout.read()
            if child.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed with status {child.returncode}")
        times.append(dt)
    return statistics.median(times)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def versions() -> dict:
    import numpy
    import scipy
    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas'].get('version', '')}".strip()
    except (TypeError, KeyError):
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas}


def import_program():
    """Import risjam from this checkout's src/ and nowhere else."""
    if not (SRC / "risjam" / "__init__.py").is_file():
        sys.exit(f"error: no risjam sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import risjam
    if SRC not in Path(risjam.__file__).resolve().parents:
        sys.exit(f"error: risjam imported from {risjam.__file__}, not from {SRC}")


def json_number(v: float):
    return v if math.isfinite(v) else None


def main(argv=None) -> int:
    import workloads
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    import_program()
    OUT.mkdir(exist_ok=True)
    setup_s = measure_setup(args.seed)
    outcome = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), OUT)

    if args.trace:
        values = outcome.layers
        units = PER_LAYER
        outcome.tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        values = {
            "setup_s": setup_s,
            "trials_per_s": outcome.trials / outcome.busy_s if outcome.busy_s > 0 else 0.0,
            "op_s_p50": statistics.median(outcome.op_s) if outcome.op_s else float("nan"),
            "peak_rss_mb": peak_rss_mb(),
            "rate_bits": outcome.rate_bits,
        }
        units = END_TO_END
    if set(values) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(values) ^ set(units))}")
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not outcome.problems and outcome.trials > 0
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": json_number(float(values[name])), "unit": units[name]}
                    for name in units},
    }
    manifest = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(), **versions(),
        "nproc": len(os.sched_getaffinity(0)), "trials_attempted": outcome.attempted,
        "trials_failed": outcome.failed, "operations_timed": len(outcome.op_s),
        "worst_margins": outcome.margins, "correct": correct,
        "problems": outcome.problems[:50], "metrics": result["metrics"],
    }
    suffix = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"manifest-{suffix}.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
