"""No a2gnet module reaches into another one's private names.

A `_`-prefixed name is its module's own: another module neither imports it
(`from .aue_net import _x`) nor reads it off a module binding
(`from . import channel as ch` then `ch._x`). The check walks each module's
syntax tree, so it sees every reach whether or not a run takes that path.
Names of modules outside the package (scipy's `_minpack`, say) are free.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "a2gnet"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _a2gnet_module(node):
    """The a2gnet module an ImportFrom imports from, or None."""
    if node.level == 1:
        return node.module or "a2gnet"
    if node.module and node.module.split(".")[0] == "a2gnet":
        return node.module.partition(".")[2] or "a2gnet"
    return None


def private_reaches(source):
    """(line, text) of each reach into another module's private names."""
    tree = ast.parse(source)
    modules, hits = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            home = _a2gnet_module(node)
            if home is None:
                continue
            for alias in node.names:
                if home == "a2gnet" and alias.name in MODULES:
                    modules.add(alias.asname or alias.name)
                elif _private(alias.name):
                    hits.append((node.lineno, f"from {home} import {alias.name}"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "a2gnet" and len(parts) == 2 and alias.asname:
                    modules.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            hits.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(hits)


@pytest.mark.parametrize("module", MODULES)
def test_no_private_reach(module):
    assert private_reaches((PACKAGE / f"{module}.py").read_text()) == []


@pytest.mark.parametrize("source, hits", [
    ("from .aue_net import _x, y\n", [(1, "from aue_net import _x")]),
    ("from a2gnet.channel import _x\n", [(1, "from channel import _x")]),
    ("from . import channel as ch\nch._x\nch.y\n", [(2, "ch._x")]),
    ("import a2gnet.channel as ch\nch._x\n", [(2, "ch._x")]),
    ("from .numerics import minpack\nminpack._lmder\n", []),
    ("from scipy import _lib\nfrom . import channel as ch\nch.__doc__\n", []),
])
def test_checker_sees_each_form(source, hits):
    assert private_reaches(source) == hits
