"""Count of the library's settable values, the measure of how many knobs it
has, with a ceiling that may only come down.

A settable value is a field of a public dataclass, a parameter with a
default of a public function, a public method or a constructor (the
`__init__` of a public class that is not a dataclass or an exception), or an
attribute an exception's `__init__` sets. Run with `-s` to print the
per-kind breakdown and every value counted.
"""

import dataclasses
import importlib
import inspect
import pkgutil
import re

import a2gnet

# the count at which the library stands; lower it when knobs go
CEILING = 157


def _public():
    """Each public class or function that an a2gnet module defines."""
    for info in pkgutil.iter_modules(a2gnet.__path__):
        module = importlib.import_module(f"a2gnet.{info.name}")
        for name, obj in vars(module).items():
            if not name.startswith("_") \
                    and getattr(obj, "__module__", None) == module.__name__:
                yield name, obj


def _defaulted(owner, fn):
    return [(owner, p.name) for p in inspect.signature(fn).parameters.values()
            if p.default is not p.empty]


def settable_values():
    """{kind: [(owner, name), ...]} of the library's settable values."""
    kinds = {"fields": [], "parameters": [], "exception attributes": []}
    for name, obj in _public():
        if inspect.isfunction(obj):
            kinds["parameters"] += _defaulted(name, obj)
        if not inspect.isclass(obj):
            continue
        if dataclasses.is_dataclass(obj):
            kinds["fields"] += [(name, f.name) for f in dataclasses.fields(obj)]
        exception = issubclass(obj, BaseException)
        if exception and "__init__" in vars(obj):
            source = inspect.getsource(obj.__init__)
            kinds["exception attributes"] += [
                (name, attr) for attr in re.findall(r"self\.(\w+)\s*=", source)]
        for attr, member in vars(obj).items():
            if attr == "__init__":
                if dataclasses.is_dataclass(obj) or exception:
                    continue    # counted as its fields or attributes
            elif attr.startswith("_"):
                continue
            if isinstance(member, (staticmethod, classmethod)):
                member = member.__func__
            if inspect.isfunction(member):
                kinds["parameters"] += _defaulted(f"{name}.{attr}", member)
    return kinds


def test_settable_values_stay_under_the_ceiling():
    kinds = settable_values()
    total = sum(map(len, kinds.values()))
    breakdown = ", ".join(f"{kind} {len(v)}" for kind, v in kinds.items())
    print(f"\nsettable values: {total} ({breakdown})")
    for kind, values in kinds.items():
        print(f"  {kind}: " + ", ".join(".".join(v) for v in values))
    assert total <= CEILING, f"{total} settable values ({breakdown}) > {CEILING}"
