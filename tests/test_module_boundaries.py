"""Modules of the package do not reach into each other's private names."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "viewpriv"
SIBLINGS = {path.stem for path in PACKAGE.glob("*.py")}


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _sibling(module, level):
    """The sibling module an import names, or "" for the package itself."""
    if level == 1:
        return module or ""
    if module == "viewpriv" or (module or "").startswith("viewpriv."):
        return module[len("viewpriv."):]
    return None


def private_reaches(source):
    """Each `_`-prefixed name that ``source`` imports from a sibling module or
    reads as ``sibling._name``, as (line, name)."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            sibling = _sibling(node.module, node.level)
            if sibling is None:
                continue
            for alias in node.names:
                if _private(alias.name):
                    found.append((node.lineno, alias.name))
                elif sibling == "" and alias.name in SIBLINGS:
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname and _sibling(alias.name, 0):
                    modules.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return found


def test_no_module_reaches_into_a_sibling_private_name():
    assert {"baselines", "harness", "streaming"} <= SIBLINGS
    for path in sorted(PACKAGE.glob("*.py")):
        assert private_reaches(path.read_text(encoding="utf-8")) == [], path.name


def test_the_check_sees_every_form_of_reach():
    for source in (
        "from .bpea import _mid_leakage",
        "from viewpriv.bpea import optimal_noise, _mid_leakage",
        "from . import bpea\nbpea._mid_leakage(1.0)",
        "from viewpriv import bpea as b\ny = b._mid_leakage",
        "import viewpriv.bpea as b\nb._mid_leakage(1.0)",
        "def f():\n    from . import harness\n    return harness._rng(0)",
    ):
        assert len(private_reaches(source)) == 1, source
    for source in (
        "from .bpea import optimal_noise",
        "from . import bpea\nbpea.optimal_noise(1.0, 0.3, 0.1)",
        "from . import __version__",
        "import numpy as np\nnp._NoValue",
        "self._cache",
    ):
        assert private_reaches(source) == [], source


def imported_siblings(source):
    """The sibling modules that ``source`` imports from, or imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            sibling = _sibling(node.module, node.level)
            if sibling is not None:
                found |= {sibling} if sibling else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {s for alias in node.names if (s := _sibling(alias.name, 0))}
    return found


def test_streaming_leaves_the_upload_pipeline_to_policies():
    # The tile simulator scores uploads; which noise a policy adds is decided in ``policies``.
    imported = imported_siblings((PACKAGE / "streaming.py").read_text(encoding="utf-8"))
    assert "policies" in imported
    assert imported.isdisjoint({"baselines", "bpea"})
