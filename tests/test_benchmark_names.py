"""The names the benchmark's tracer wraps still exist in the package.

``perfbench/tracing.py`` lists them in ``SPANNED`` and ``COUNTED`` and looks
each up when it installs; a renamed or removed function would only surface
in a traced benchmark run.
"""

import ast
import importlib
from pathlib import Path

from viewpriv import harness, policies, streaming

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_names():
    """(module, function) of every ``SPANNED`` and ``COUNTED`` entry."""
    names = []
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in ("SPANNED", "COUNTED") for t in node.targets):
            names += [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    return names


def test_every_traced_name_exists():
    names = traced_names()
    assert ("streaming", "simulate_session") in names
    assert ("leakage", "leakage_sample_mean") in names
    assert ("streaming", "tile_of") in names   # a COUNTED entry
    missing = [f"viewpriv.{m}.{f}" for m, f in names
               if not callable(getattr(importlib.import_module(f"viewpriv.{m}"), f, None))]
    assert missing == []


def test_harness_binds_apply_policy():
    # The tracer wraps a function wherever a module binds it; the tradeoff
    # workload reaches the upload pipeline through this binding, and the
    # tracer finds it under the name ``streaming`` binds.
    assert policies.apply_policy is streaming.apply_policy is harness.apply_policy
