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
from pathlib import Path

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
