"""The quick demos run to completion against the current library and
print, and write, the recorded bytes; every demo names only what the
library has.

Each run is in a fresh interpreter with a temporary working directory, so
files a demo writes (mapsim_city.py writes sinr_rooftop.asc) stay out of
the checkout. The sha256 of each quick demo's stdout and of the files it
writes are recorded under "demos" in `data/shipped_digests.json`, beside
the shipped scenarios' digests and their version note.
"""

import ast
import hashlib
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "tests" / "data" / "shipped_digests.json"


@pytest.mark.parametrize("demo", ["channel_models.py", "abs_design.py",
                                  "mapsim_city.py"])
def test_demo_runs(tmp_path, demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=tmp_path, env=env, capture_output=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr.decode()
    digests = {"stdout": hashlib.sha256(done.stdout).hexdigest()}
    digests.update((p.name, hashlib.sha256(p.read_bytes()).hexdigest())
                   for p in tmp_path.iterdir())
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert digests == recorded["demos"][demo], (
        f"{demo} output differs from {DIGESTS.name} (made with "
        f"{recorded['versions']}): {digests}")


def _unknown_names(tree):
    """Each a2gnet name a demo imports, or reaches as module.attr, that the
    package lacks, and each keyword it passes to an a2gnet callable that the
    callable does not take."""
    bound, unknown = {}, []

    def lookup(owner, name, node):
        if not hasattr(owner, name):
            unknown.append(f"line {node.lineno}: {name}")
        return getattr(owner, name, None)

    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("a2gnet"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                bound[alias.asname or alias.name] = lookup(module, alias.name,
                                                           node)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            owner = bound.get(node.value.id)
            if inspect.ismodule(owner):
                lookup(owner, node.attr, node)
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                target = bound.get(func.id)
            elif isinstance(func, ast.Attribute) and isinstance(func.value,
                                                                ast.Name):
                owner = bound.get(func.value.id)
                target = getattr(owner, func.attr, None) \
                    if inspect.ismodule(owner) else None
            else:
                continue
            if callable(target):
                try:
                    inspect.signature(target).bind_partial(
                        **{kw.arg: None for kw in node.keywords if kw.arg})
                except TypeError as exc:
                    unknown.append(f"line {node.lineno}: {exc}")
    return unknown


@pytest.mark.parametrize("demo", sorted(p.name for p in
                                        (ROOT / "demos").glob("*.py")))
def test_demo_names_exist(demo):
    # also holds the demos test_demo_runs leaves out (a minute or more each)
    # to the package's current names and keywords
    tree = ast.parse((ROOT / "demos" / demo).read_text(encoding="utf-8"))
    assert _unknown_names(tree) == []
