"""The contract between risjam and the benchmark under perfbench/.

perfbench patches risjam functions by module and name, and checks each trial
from what its hooks capture; a renamed or deleted function, or a trial that
stops calling through the patched names, would only fail inside a benchmark
run.  perfbench/spans.py is read as text here, not imported, so this file
runs under the plain test suite.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import risjam
from risjam import channel, harness, numerics, optimizer, system

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
SRC = Path(__file__).resolve().parents[1] / "src"


def spanned():
    """The SPANNED table of perfbench/spans.py: layer -> (module, function)."""
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANNED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SPANNED table in {SPANS}")


# wrapped by the benchmark's capture hooks and its timed loop
CAPTURED = [("channel", "sample_static_channels"), ("system", "sum_rate"), ("harness", "run_trial")]


@pytest.mark.parametrize("module, name", sorted(set(spanned().values()) | set(CAPTURED)))
def test_wrapped_function_resolves(module, name):
    assert callable(getattr(importlib.import_module("risjam." + module), name))


def test_table_is_not_empty():
    assert len(spanned()) >= 10


def test_package_import_loads_every_module_binding_a_captured_name():
    # a hook replaces a function at the module globals that hold it when
    # the hook starts; a module first imported while a hook is on binds the
    # wrapper, keeps it after the hook is undone, and a later hook misses
    # it.  The benchmark imports only the package before its capture hooks
    # start (the tracer imports risjam.cli itself), so `import risjam` must
    # load every module that binds a captured function by name
    binders = set()
    for path in (SRC / "risjam").glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1 and any(
                    (node.module, alias.name) in CAPTURED for alias in node.names):
                binders.add("risjam" if path.stem == "__init__" else "risjam." + path.stem)
    code = "import sys, risjam; print(' '.join(sys.modules))"
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                            env={**os.environ, "PYTHONPATH": str(SRC)}).stdout.split()
    assert binders and binders <= set(loaded)


def patch_everywhere(monkeypatch, module, name, make_wrapper):
    """Replace module.name at every risjam module global that holds it, the
    way the benchmark's hooks do, so only calls made through a module
    global reach the wrapper."""
    original = getattr(module, name)
    wrapper = make_wrapper(original)
    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and (mod_name == "risjam" or mod_name.startswith("risjam.")):
            for attr, val in list(vars(mod).items()):
                if val is original:
                    monkeypatch.setattr(mod, attr, wrapper)


@pytest.mark.parametrize("scheme", harness.SCHEMES)
def test_trial_meets_the_capture_contract(monkeypatch, scheme):
    # one static channel set and one held-out scoring per trial, held-out
    # draws that carry every link the checks recompute the rate from, one
    # draw per item in the per-draw shapes (the checks stack them and read
    # the adversary vectors off the first), and reflection problems with
    # their amplitude caps set
    static, scoring, problems = [], [], []

    def count_static(fn):
        def sample_static_channels(*args, **kw):
            static.append(fn(*args, **kw))
            return static[-1]
        return sample_static_channels

    def grab_scoring(fn):
        def sum_rate(tau, w1, w2, theta, realizations, cs, *rest, **kw):
            scoring.append(list(realizations))
            return fn(tau, w1, w2, theta, realizations, cs, *rest, **kw)
        return sum_rate

    def grab_problem(fn):
        def solve_concave_qcqp(problem, *args, **kw):
            problems.append(problem)
            return fn(problem, *args, **kw)
        return solve_concave_qcqp

    patch_everywhere(monkeypatch, channel, "sample_static_channels", count_static)
    patch_everywhere(monkeypatch, system, "sum_rate", grab_scoring)
    patch_everywhere(monkeypatch, numerics, "solve_concave_qcqp", grab_problem)
    cfg = risjam.desk_profile(r_max=6, heldout=5)
    harness.run_trial(cfg, scheme, 0)

    assert len(static) == 1
    assert cfg.e_mse == 0  # ideal CSI: the held-out batch is one draw
    assert len(scoring) == 1 and len(scoring[0]) == 1
    cs = static[0]
    # a no-RIS trial draws on the view without RIS elements: its g_jr has no
    # RIS rows, which the checks do not read when theta is empty
    g_jr = cs.without_ris().g_jr_est if scheme == "no-ris" else cs.g_jr_est
    shapes = {"h_ju": cs.h_ju_est.shape, "g_jr": g_jr.shape, "h_iu": cs.h_iu_est.shape,
              "z_j": cs.z_jam.shape, "z_i": cs.z_int.shape}
    for draw in scoring[0]:
        for link, shape in shapes.items():
            assert isinstance(getattr(draw, link), np.ndarray)
            assert getattr(draw, link).shape == shape
    assert all(p.caps is not None for p in problems)
    assert bool(problems) == (scheme == "active-harvesting")


@pytest.mark.parametrize("scheme", harness.SCHEMES)
def test_one_draw_fold_and_objective_per_iteration(monkeypatch, scheme):
    # the traced channel.draw_*, optimizer.saa_s and system.objective_*
    # figures count the AO's work: one sample of r_max draws before the
    # loop, then in each iteration exactly one fold of one draw and one SAA
    # objective on the r draws so far; the held-out scoring adds one sample
    # of cfg.heldout draws and one rate evaluation on them
    calls = []

    def record(name, size):
        def make_wrapper(fn):
            def wrapper(*args, **kw):
                calls.append((name, size(args)))
                return fn(*args, **kw)
            return wrapper
        return make_wrapper

    patch_everywhere(monkeypatch, channel, "sample_uncertain_realization",
                     record("sample", lambda args: args[3]))
    patch_everywhere(monkeypatch, optimizer, "update_saa_stats", record("fold", lambda args: len(args[1])))
    patch_everywhere(monkeypatch, system, "sum_rate_nats", record("objective", lambda args: len(args[4])))
    cfg = risjam.desk_profile(r_max=8, heldout=5, e_mse=0.1)
    result = harness.run_trial(cfg, scheme, 0)

    iterations = result.report.iterations
    assert 1 <= iterations <= cfg.r_max
    want = [("sample", cfg.r_max)] + [
        c for r in range(1, iterations + 1) for c in (("fold", 1), ("objective", r))]
    assert calls == want + [("sample", cfg.heldout), ("objective", cfg.heldout)]


@pytest.mark.parametrize("scheme", harness.SCHEMES)
def test_one_draw_for_every_iteration_at_ideal_csi(monkeypatch, scheme):
    # at e_mse = 0 every draw is the estimates: each sample returns one
    # draw, whatever count is asked; the AO folds it once and scores the SAA
    # objective of every iteration on it, and the held-out scoring rates
    # that one draw
    calls = []
    sizes = [(channel, "sample_uncertain_realization", "sample", lambda args, out: len(out)),
             (optimizer, "update_saa_stats", "fold", lambda args, out: len(args[1])),
             (system, "sum_rate_nats", "objective", lambda args, out: len(args[4]))]
    for module, fn_name, name, size in sizes:
        def make_wrapper(fn, name=name, size=size):
            def wrapper(*args, **kw):
                out = fn(*args, **kw)
                calls.append((name, size(args, out)))
                return out
            return wrapper
        patch_everywhere(monkeypatch, module, fn_name, make_wrapper)
    cfg = risjam.desk_profile(r_max=8, heldout=5, e_mse=0.0)
    result = harness.run_trial(cfg, scheme, 0)

    assert 2 <= result.report.iterations <= cfg.r_max
    want = [("sample", 1), ("fold", 1)] + [("objective", 1)] * result.report.iterations
    assert calls == want + [("sample", 1), ("objective", 1)]
