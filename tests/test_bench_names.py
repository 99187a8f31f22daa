"""The names the bench tracer looks up in the package resolve.

`bench/tracing.py` wraps class methods and counts scipy calls through
bindings it finds by name, and those lookups raise on a missing name rather
than report it, which would crash every traced bench run; `bench/run.py`
calls `cli.run_scenario` with `threads=`. The tracer is imported here
read-only, from its file, and never installed.
"""

import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import a2gnet
from a2gnet import cli

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scipy_counters_resolve():
    for home, scipy_attr, fn_name, _ in _tracing().SCIPY_COUNTERS:
        owner = importlib.import_module(f"a2gnet.{home}")
        assert callable(getattr(getattr(owner, scipy_attr), fn_name)), \
            (home, scipy_attr, fn_name)


def test_class_method_spans_resolve():
    methods = [(home, attr) for _, home, attr in _tracing().SPANS if "." in attr]
    assert methods
    for home, attr in methods:
        cls_name, method = attr.split(".")
        cls = getattr(importlib.import_module(f"a2gnet.{home}"), cls_name)
        assert callable(vars(cls)[method]), (home, attr)


def test_run_scenario_takes_threads():
    assert "threads" in inspect.signature(cli.run_scenario).parameters


def test_span_homes_are_modules_after_importing_cli():
    # install() reads sys.modules["a2gnet.<home>"] for every span and scipy
    # counter home; cli binds the model modules lazily, and a module left to
    # a runner's own import would end every traced run in a KeyError
    tracing = _tracing()
    homes = sorted({home for _, home, _ in tracing.SPANS}
                   | {home for home, _, _, _ in tracing.SCIPY_COUNTERS})
    code = ("import sys, a2gnet.cli\n"
            "missing = [h for h in sys.argv[1:] "
            "if f'a2gnet.{h}' not in sys.modules]\n"
            "assert not missing, missing\n")
    src = str(Path(a2gnet.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code, *homes],
                   env=dict(os.environ, PYTHONPATH=src), check=True)
