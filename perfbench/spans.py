"""Instrumentation applied from outside the program.

Both hooks replace a risjam function at every name its callers look it up
by (for example ``harness.ssca_ao`` as well as ``optimizer.ssca_ao``) and put
the original back on exit:

* ``Capture`` keeps what the checks need (the static channels of each trial
  and the arguments of the held-out scoring call).  It costs two extra Python
  calls per trial and is on in every run.
* ``Tracer`` records a span at each layer boundary plus a few counters.  It is
  on only with ``--trace 1``.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np


def _risjam_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "risjam" or name.startswith("risjam."))]


class Patch:
    """Replace functions at all their lookup sites; undo on exit."""

    def __init__(self):
        self._undo = []

    def wrap(self, module, name, make_wrapper):
        original = getattr(module, name)
        wrapper = make_wrapper(original)
        sites = [(m, attr) for m in _risjam_modules()
                 for attr, val in list(vars(m).items()) if val is original]
        if module not in [m for m, _ in sites]:
            sites.append((module, name))
        for m, attr in sites:
            setattr(m, attr, wrapper)
            self._undo.append((m, attr, original))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for m, attr, original in reversed(self._undo):
            setattr(m, attr, original)
        self._undo.clear()
        return False


class Capture(Patch):
    """Collects per trial: static channels and the held-out scoring inputs."""

    def __init__(self):
        super().__init__()
        self.channels = []
        self.scoring = []
        from risjam import channel, system

        def grab_channels(fn):
            def sample_static_channels(*args, **kw):
                cs = fn(*args, **kw)
                self.channels.append(cs)
                return cs
            return sample_static_channels

        def grab_scoring(fn):
            def sum_rate(tau, w1, w2, theta, realizations, cs, *rest, **kw):
                self.scoring.append((tau, w1, w2, theta, list(realizations)))
                return fn(tau, w1, w2, theta, realizations, cs, *rest, **kw)
            return sum_rate

        self.wrap(channel, "sample_static_channels", grab_channels)
        self.wrap(system, "sum_rate", grab_scoring)

    def clear(self):
        self.channels.clear()
        self.scoring.clear()


# layer name -> (module, function); spans carry these names
SPANNED = {
    "channel.static": ("channel", "sample_static_channels"),
    "channel.draw": ("channel", "sample_uncertain_realization"),
    "system.sum_rate_nats": ("system", "sum_rate_nats"),
    "system.sum_rate": ("system", "sum_rate"),
    "numerics.qcqp": ("numerics", "solve_concave_qcqp"),
    "optimizer.ao": ("optimizer", "ssca_ao"),
    "optimizer.w1": ("optimizer", "solve_w1"),
    "optimizer.w2": ("optimizer", "solve_w2"),
    "optimizer.theta": ("optimizer", "solve_theta"),
    "optimizer.saa": ("optimizer", "update_saa_stats"),
    "optimizer.aux1": ("optimizer", "update_aux_stage1"),
    "optimizer.aux2": ("optimizer", "update_aux_stage2"),
    "optimizer.tau": ("optimizer", "update_tau"),
    "harness.trial": ("harness", "run_trial"),
    "harness.baseline_passive": ("harness", "baseline_passive"),
    "harness.baseline_noris": ("harness", "baseline_noris"),
    "harness.sweep": ("harness", "run_sweep"),
    "cli.main": ("cli", "main"),
}


def _qcqp_route(problem) -> str:
    if problem.caps is not None:
        return "caps"
    return {0: "unconstrained", 1: "one_ellipsoid", 2: "two_ellipsoid"}.get(
        len(problem.constraints), "other")


def _note(name, args):
    """Span annotation taken from the call's arguments."""
    if name == "numerics.qcqp":
        return _qcqp_route(args[0])
    if name in ("system.sum_rate_nats", "system.sum_rate"):
        return len(args[4])
    return None


class Tracer(Patch):
    """Spans ``[name, parent, start, end, note, trial]`` kept in memory.

    ``note`` is the QCQP route, the number of draws a rate evaluation
    averages over, or the AO iteration count, depending on the span.  numpy
    ``eigh``/``eigvalsh`` calls are counted, not spanned, while a QCQP solve
    is open (and separately while a ``solve_w2`` is open).
    """

    def __init__(self):
        super().__init__()
        self.spans = []
        self.stack = []
        self.qcqp_open = 0
        self.w2_open = 0
        self.eigh_calls = 0
        self.eigh_in_w2 = 0
        import risjam.cli  # noqa: F401  (loads every module whose names are patched)

        for name, (mod_name, fn_name) in SPANNED.items():
            module = sys.modules["risjam." + mod_name]
            self.wrap(module, fn_name, lambda fn, name=name: self._spanned(fn, name))
        for fn_name in ("eigh", "eigvalsh"):
            self.wrap(np.linalg, fn_name, self._counted)

    def _spanned(self, fn, name):
        spans, stack = self.spans, self.stack
        is_qcqp, is_w2 = name == "numerics.qcqp", name == "optimizer.w2"
        is_trial = name == "harness.trial"

        def traced(*args, **kw):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            trial = idx if is_trial else (spans[parent][5] if parent >= 0 else -1)
            span = [name, parent, time.perf_counter(), 0.0, _note(name, args), trial]
            spans.append(span)
            stack.append(idx)
            self.qcqp_open += is_qcqp
            self.w2_open += is_w2
            try:
                out = fn(*args, **kw)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                self.qcqp_open -= is_qcqp
                self.w2_open -= is_w2
            if hasattr(out, "iterations") and hasattr(out, "objective_nats"):
                span[4] = out.iterations
            return out
        return traced

    def _counted(self, fn):
        def counted(*args, **kw):
            if self.qcqp_open:
                self.eigh_calls += 1
                if self.w2_open:
                    self.eigh_in_w2 += 1
            return fn(*args, **kw)
        return counted

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, t0, t1, note, trial) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "trial": trial, "name": name,
                                     "start": t0, "end": t1, "note": note}) + "\n")


def spent(tracer: Tracer, name: str) -> float:
    """Summed duration of the spans called ``name``."""
    return sum(t1 - t0 for n, _, t0, t1, _, _ in tracer.spans if n == name)


def layer_metrics(trials: Tracer) -> dict:
    """Per-layer figures from the spans of ``trials``: time and counts per
    traced trial."""
    total, calls, notes = {}, {}, {}
    route_s, route_n = {}, {}
    objective_s = objective_draws = 0.0
    ao_end = {}
    for name, parent, t0, t1, note, trial in trials.spans:
        dt = t1 - t0
        total[name] = total.get(name, 0.0) + dt
        calls[name] = calls.get(name, 0) + 1
        if name == "numerics.qcqp":
            route_s[note] = route_s.get(note, 0.0) + dt
            route_n[note] = route_n.get(note, 0) + 1
        elif name == "system.sum_rate_nats" and (
                parent < 0 or trials.spans[parent][0] != "system.sum_rate"):
            objective_s += dt
            objective_draws += note
        elif name == "system.sum_rate":
            notes[name] = notes.get(name, 0) + note
        if name in ("optimizer.ao", "harness.baseline_passive", "harness.baseline_noris"):
            notes["iterations"] = notes.get("iterations", 0) + (note or 0)
            if trial >= 0:
                ao_end[trial] = t1
    n = max(calls.get("harness.trial", 0), 1)
    heldout = sum(trials.spans[t][3] - end for t, end in ao_end.items())
    w2_calls = calls.get("optimizer.w2", 0)
    out = {
        "optimizer.w2_s": total.get("optimizer.w2", 0.0) / n,
        "optimizer.w2_calls": w2_calls / n,
        "numerics.qcqp_s.two_ellipsoid": route_s.get("two_ellipsoid", 0.0) / n,
        "numerics.qcqp_calls.two_ellipsoid": route_n.get("two_ellipsoid", 0) / n,
        "numerics.eigh_calls": trials.eigh_calls / n,
        "numerics.eigh_per_w2": trials.eigh_in_w2 / w2_calls if w2_calls else 0.0,
        "numerics.qcqp_s.caps": route_s.get("caps", 0.0) / n,
        "numerics.qcqp_calls.caps": route_n.get("caps", 0) / n,
        "numerics.qcqp_s.one_ellipsoid": route_s.get("one_ellipsoid", 0.0) / n,
        "numerics.qcqp_calls.one_ellipsoid": route_n.get("one_ellipsoid", 0) / n,
        "numerics.qcqp_s.unconstrained": route_s.get("unconstrained", 0.0) / n,
        "numerics.qcqp_calls.unconstrained": route_n.get("unconstrained", 0) / n,
        "channel.draw_s": total.get("channel.draw", 0.0) / n,
        "channel.draw_calls": calls.get("channel.draw", 0) / n,
        "channel.static_s": total.get("channel.static", 0.0) / n,
        "system.objective_s": objective_s / n,
        "system.objective_draws": objective_draws / n,
        "system.heldout_s": total.get("system.sum_rate", 0.0) / n,
        "system.heldout_draws": notes.get("system.sum_rate", 0) / n,
        "harness.heldout_s": heldout / n,
        "optimizer.ao_s": total.get("optimizer.ao", 0.0) / n,
        "optimizer.ao_iterations": notes.get("iterations", 0) / n,
        "optimizer.w1_s": total.get("optimizer.w1", 0.0) / n,
        "optimizer.theta_s": total.get("optimizer.theta", 0.0) / n,
        "optimizer.saa_s": total.get("optimizer.saa", 0.0) / n,
        "optimizer.aux_s": (total.get("optimizer.aux1", 0.0) + total.get("optimizer.aux2", 0.0)) / n,
        "optimizer.tau_s": total.get("optimizer.tau", 0.0) / n,
        "harness.baseline_s": (total.get("harness.baseline_passive", 0.0)
                               + total.get("harness.baseline_noris", 0.0)) / n,
        "harness.trial_s": total.get("harness.trial", 0.0) / n,
        "harness.trials_traced": float(calls.get("harness.trial", 0)),
    }
    return out
