"""Which function lines of src/risjam a set of trials runs.

Imports this checkout's src/risjam, runs harness.run_trial for each trial
index and scheme under sys.settrace, tracing only frames whose code lives in
the package, and counts the lines of function bodies only (code objects
with CO_OPTIMIZED: functions, lambdas, comprehensions).  Module-level and
class-level statements run at import, so they are not counted.  A def line
counts as run when its function is called.

    python3 scripts/line_audit.py --profile paper --e-mse 0.1 \\
        --scheme passive-ris no-ris --trials 25

With --scenario FILE ..., each file is read by config.load_scenario over
--profile, and the traces of all the files are united, so that a set of
edge scenarios is audited in one run:

    python3 scripts/line_audit.py --profile paper --trials 2 \\
        --scenario edges/q0b0.txt edges/m1.txt

--e-mse, when given, overrides the e_mse of the profile and of every file.
Prints, per module, "ran X of Y function lines", then each line that no
trial ran, with its number and text.
"""

import argparse
import inspect
import sys
from dataclasses import replace
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "risjam"
sys.path.insert(0, str(PACKAGE.parent))

from risjam import harness  # noqa: E402  (this checkout's package, not an installed one)
from risjam.config import PROFILES, ParseError, ValidationError, load_scenario  # noqa: E402


def function_lines(code) -> set:
    """(file, line) of every line holding code of a function body in code
    and the code objects nested in it."""
    lines = set()
    if code.co_flags & inspect.CO_OPTIMIZED:
        lines.update((code.co_filename, line) for _, _, line in code.co_lines() if line is not None)
    for const in code.co_consts:
        if inspect.iscode(const):
            lines |= function_lines(const)
    return lines


def trace_trials(cfg, schemes, trials) -> set:
    """(file, line) of every package line the trials ran; a call marks its def line."""
    ran = set()
    package = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(package):
            return None
        ran.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
        return local

    sys.settrace(call)
    try:
        for index in range(trials):
            for scheme in schemes:
                harness.run_trial(cfg, scheme, index)
    finally:
        sys.settrace(None)
    return ran


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--profile", choices=tuple(PROFILES), default="paper")
    p.add_argument("--e-mse", type=float, help="e_mse of every config (default: the profile's or file's)")
    p.add_argument("--scheme", nargs="+", choices=harness.SCHEMES, default=list(harness.SCHEMES))
    p.add_argument("--trials", type=int, default=10, help="trial indices, from 0")
    p.add_argument("--scenario", nargs="+", metavar="FILE", default=[],
                   help="scenario files read over --profile; their traces are united")
    args = p.parse_args(argv)
    if args.trials < 1:
        p.error("--trials must be at least 1")

    if args.scenario:
        try:
            cfgs = {f"{path} over {args.profile}": load_scenario(path, args.profile) for path in args.scenario}
        except (OSError, ParseError, ValidationError) as exc:
            p.error(f"--scenario: {exc}")
    else:
        cfgs = {args.profile: PROFILES[args.profile]()}
    ran = set()
    for name, cfg in cfgs.items():
        if args.e_mse is not None:
            cfg = replace(cfg, e_mse=args.e_mse)
        ran |= trace_trials(cfg, args.scheme, args.trials)
        print(f"{name}, e_mse = {cfg.e_mse:g}, {', '.join(args.scheme)}: trials 0-{args.trials - 1}")
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = function_lines(compile(source, str(path), "exec"))
        missed = sorted(line for _, line in lines - ran)
        print(f"{path.name}: ran {len(lines) - len(missed)} of {len(lines)} function lines")
        text = source.splitlines()
        for line in missed:
            print(f"  {line}: {text[line - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
