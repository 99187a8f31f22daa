"""Exception types shared across the toolkit, and the one rule for numbers."""

import math
from numbers import Integral


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class BoundError(DomainError):
    """A number's name then the rule it breaks; `rule` holds the rule."""

    def __init__(self, name, rule):
        super().__init__(f"{name} {rule}")
        self.rule = rule


def check_number(value, name, minimum=None, above=None, maximum=None,
                 below=None):
    """value, if finite, at least `minimum`, greater than `above`, at most
    `maximum` and less than `below` (each where given); else a BoundError
    naming `name`. An integer of any size compares exactly."""
    try:
        finite = math.isfinite(value)
    except OverflowError:       # an integer past the float range
        finite = True
    if not finite:
        raise BoundError(name, "must be finite")
    if minimum is not None and not value >= minimum:
        raise BoundError(name, f"must be at least {minimum}")
    if above is not None and not value > above:
        raise BoundError(name, f"must be greater than {above}")
    if maximum is not None and not value <= maximum:
        raise BoundError(name, f"must be at most {maximum}")
    if below is not None and not value < below:
        raise BoundError(name, f"must be less than {below}")
    return value


def check_count(value, name, minimum, maximum=None):
    """check_number for a count: an integer (numpy's too), not a bool."""
    # a plain int skips the Integral lookup, which costs about 0.7 us
    if type(value) is not int and (isinstance(value, bool)
                                   or not isinstance(value, Integral)):
        raise BoundError(name, "must be an integer")
    return check_number(value, name, minimum, maximum=maximum)


class ModelGapError(DomainError):
    """Parameter combination the source models leave undefined."""


class ScenarioError(ValueError):
    """Scenario configuration rejected; carries the offending key path."""

    def __init__(self, message, path=""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class GridParseError(ValueError):
    """Malformed ESRI ASCII grid; carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")
