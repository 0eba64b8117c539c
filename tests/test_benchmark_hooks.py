"""The functions the benchmark under perfbench/ wraps must exist in risjam.

perfbench patches risjam functions by module and name; a renamed or deleted
function would only fail inside a benchmark run.  perfbench/spans.py is read
as text here, not imported, so this file runs under the plain test suite.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
