"""Command-line front end for seeded trials and sweeps with CSV output."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import PROFILES, ParseError, ValidationError, load_scenario
from .harness import SCHEMES, SWEEP_AXES, run_sweep


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="risjam",
        description="Active-RIS anti-jamming simulation: seeded Monte-Carlo trials and sweeps.",
    )
    p.add_argument("--scenario", help="flat key=value scenario file overriding profile defaults")
    p.add_argument("--scheme", default="all", choices=(*SCHEMES, "all"),
                   help=f"one of {', '.join(SCHEMES)} or 'all'")
    p.add_argument("--sweep", choices=SWEEP_AXES, help=f"sweep axis: one of {', '.join(SWEEP_AXES)}")
    p.add_argument("--values", help="comma-separated axis values")
    p.add_argument("--trials", type=int, help="override trial count")
    p.add_argument("--seed", type=int, help="override master seed")
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--profile", choices=tuple(PROFILES), default="paper")
    p.add_argument("--jobs", type=int, default=1, help="parallel trial workers")
    return p


def main(argv=None) -> int:
    """Run one point (a B sweep at the configured B) or one sweep.  Bad input
    is a usage error (exit 2) before any trial runs; later errors are not.
    main checks argv syntax only; the config and run_sweep (out included) raise ValidationError."""
    parser = build_parser()
    args = parser.parse_args(argv)
    values = []
    if args.values is not None and args.sweep is None:
        parser.error("--values needs --sweep")
    if args.values is not None:
        try:
            values = [float(v) for v in args.values.split(",")]
        except ValueError:
            parser.error(f"--values must be comma-separated numbers, got {args.values}")
    try:
        if args.scenario:
            cfg = load_scenario(args.scenario, profile=args.profile)
        else:
            cfg = PROFILES[args.profile]()
        overrides = {name: v for name, v in (("trials", args.trials), ("seed", args.seed)) if v is not None}
        if overrides:
            cfg = replace(cfg, **overrides)
    except (OSError, ParseError, ValidationError) as exc:
        parser.error(str(exc))
    if args.sweep is None:
        args.sweep, values = "B", [cfg.b]

    schemes = SCHEMES if args.scheme == "all" else (args.scheme,)
    try:
        result = run_sweep(cfg, args.sweep, values, schemes=schemes, jobs=args.jobs, out=args.out)
    except ValidationError as exc:  # run_sweep checks the sweep and out before any trial runs
        parser.error(str(exc))
    for row in result.rows():
        axis, value, scheme, mean_rate, stderr, trials, seed, objective = row
        print(f"{axis}={value:g} {scheme}: rate={mean_rate:.4f} bits (+/- {stderr:.4f}), "
              f"objective={objective:.4f}, trials={trials}, seed={seed}")
    if args.out:
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
