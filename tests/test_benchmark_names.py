"""The names the benchmark's tracer wraps, and the argument names its count
hooks read, still exist in the package.

``perfbench/tracing.py`` lists them in ``SPANNED`` and ``COUNTED`` and looks
each up when it installs; a renamed or removed function, or a renamed
parameter, would only surface in a traced benchmark run.
"""

import ast
import importlib
import inspect
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


def hook_reads():
    """{(module, function): argument names its ``SPANNED`` hook reads}: the
    constant subscripts ``a["name"]`` of the hook's bound-arguments parameter,
    in the hook or, for a hook factory such as ``_count_elems(...)``, in the
    hook the factory defines."""
    tree = ast.parse(TRACING.read_text())
    reads = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            # A hook is called as hook(tracer, bound arguments, result).
            bound = {f.args.args[1].arg for f in ast.walk(node)
                     if isinstance(f, ast.FunctionDef) and len(f.args.args) == 3}
            reads[node.name] = {sub.slice.value for sub in ast.walk(node)
                                if isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Name)
                                and sub.value.id in bound and isinstance(sub.slice, ast.Constant)}
    spanned = next(node.value.elts for node in tree.body if isinstance(node, ast.Assign)
                   and any(isinstance(t, ast.Name) and t.id == "SPANNED" for t in node.targets))
    hooks = {}
    for module, function, hook in (entry.elts for entry in spanned):
        if isinstance(hook, ast.Call):
            hook = hook.func
        if isinstance(hook, ast.Name):
            hooks[(module.value, function.value)] = reads[hook.id]
    return hooks


def test_every_argument_a_hook_reads_is_a_parameter_of_its_function():
    # The tracer binds each call's arguments to the spanned function's
    # signature and its hook reads them by name, so a renamed parameter would
    # only surface as a KeyError in a traced run that reaches the function.
    hooks = hook_reads()
    read = {name for names in hooks.values() for name in names}
    assert {"gops", "path", "traces", "points", "per_gop", "cfg"} <= read
    assert hooks[("streaming", "qoe_score")] == {"per_gop"}
    missing = [f"viewpriv.{m}.{f}({name})" for (m, f), names in hooks.items() for name in names
               if name not in inspect.signature(
                   getattr(importlib.import_module(f"viewpriv.{m}"), f)).parameters]
    assert missing == []


def test_harness_binds_apply_policy():
    # The tracer wraps a function wherever a module binds it; the tradeoff
    # workload reaches the upload pipeline through this binding, and the
    # tracer finds it under the name ``streaming`` binds.
    assert policies.apply_policy is streaming.apply_policy is harness.apply_policy
