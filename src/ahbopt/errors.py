"""Exception types shared across the toolkit, and the input checks that
raise them: integers at or above a bound, reals in an interval, and
objects with known keys. Any input outside its domain, whether a
parameter, a problem spec, a config file or a point, raises the one class
``InvalidInputError``."""

import copyreg
import math


class ToolkitError(Exception):
    """Base class for every error raised by this package."""

    def __reduce__(self):
        # Rebuild through __new__ with the finished message and attributes:
        # subclasses that format their message in __init__ would format it
        # again if unpickling called the class.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class InvalidInputError(ToolkitError, ValueError):
    """An input lies outside its documented domain: a parameter, a problem
    spec, a config file or a point."""


class CapabilityError(ToolkitError):
    """The objective lacks a field required by the requested operation."""

    def __init__(self, missing, message=None):
        self.missing = missing
        super().__init__(message or f"objective does not provide '{missing}'")


class NumericalFailureError(ToolkitError):
    """A non-finite value or gradient appeared during iteration."""

    def __init__(self, iteration, message=None):
        self.iteration = iteration
        super().__init__(message or f"non-finite value at iteration {iteration}")


class DeskScaleLimitError(ToolkitError, ValueError):
    """A requested size exceeds the built-in desk-scale limits."""


class EmptyRegionError(ToolkitError):
    """Rejection sampling found no points in the requested region."""


class TraceParseError(ToolkitError, ValueError):
    """A persisted trace file is malformed."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


def as_int(name, value, *, low) -> int:
    """``value`` as an int at or above ``low``: an integral float, or an
    integer type other than bool (one with ``__index__``, such as a numpy
    integer). A bool, a non-number, a fraction, NaN or +-inf raises
    ``InvalidInputError``."""
    if isinstance(value, float):
        integral = value.is_integer()
    else:
        integral = not isinstance(value, bool) and hasattr(type(value), "__index__")
    if not integral:
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < low:
        bound = {0: "nonnegative", 1: "positive"}.get(low, f"at least {low}")
        raise InvalidInputError(f"{name} must be {bound}, got {value}")
    return value


def as_real(name, value, interval) -> float:
    """``value`` as a float in ``interval``, written as the docs write it:
    "[0, 1)", "(0, inf]". A bracket takes its end in, a parenthesis leaves
    it out. Anything else raises ``InvalidInputError`` with the message
    "<name> must lie in <interval>": NaN, a bool, and anything whose product
    with a float is not a real number, such as a string, a Decimal, an array
    of several numbers or an integer beyond the float range."""
    low, high = (float(end) for end in interval[1:-1].split(","))
    try:
        number = math.nan if isinstance(value, bool) else float(value * 1.0)
    except (OverflowError, TypeError):
        number = math.nan
    above = number >= low if interval[0] == "[" else number > low
    below = number <= high if interval[-1] == "]" else number < high
    if not (above and below):
        raise InvalidInputError(f"{name} must lie in {interval}")
    return number


def as_object(name, value, keys) -> dict:
    """``value``, a dict whose keys all lie in ``keys``. Anything else raises
    ``InvalidInputError``: "<name> must be an object" for a non-dict,
    "unknown <name> keys: [...]" for a dict with other keys."""
    if not isinstance(value, dict):
        raise InvalidInputError(f"{name} must be an object")
    extra = set(value) - set(keys)
    if extra:
        raise InvalidInputError(f"unknown {name} keys: {sorted(extra, key=str)}")
    return value
