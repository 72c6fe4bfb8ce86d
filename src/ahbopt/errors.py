"""Exception types shared across the toolkit, and the three numeric input
checks that raise them: integers at or above a bound, positive finite
reals, and reals in an interval."""

import copyreg


class ToolkitError(Exception):
    """Base class for every error raised by this package."""

    def __reduce__(self):
        # Rebuild through __new__ with the finished message and attributes:
        # subclasses that format their message in __init__ would format it
        # again if unpickling called the class.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class InvalidSpecError(ToolkitError, ValueError):
    """A problem specification is malformed or out of range."""


class InvalidInputError(ToolkitError, ValueError):
    """An operation received parameters outside its documented domain."""


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


def as_int(name, value, error=InvalidInputError, low=None) -> int:
    """``value`` as an int: an integral float, or an integer type other
    than bool (one with ``__index__``, such as a numpy integer). A bool, a
    non-number, a fraction, NaN or +-inf raises ``error``, and so does an
    integer below ``low`` when that bound is given."""
    if isinstance(value, float):
        integral = value.is_integer()
    else:
        integral = not isinstance(value, bool) and hasattr(type(value), "__index__")
    if not integral:
        raise error(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if low is not None and value < low:
        bound = {0: "nonnegative", 1: "positive"}.get(low, f"at least {low}")
        raise error(f"{name} must be {bound}, got {value}")
    return value


def _real(value) -> float:
    """``value`` as a float; NaN, which lies in no interval, for a bool, an
    integer beyond the float range, or a non-number: anything whose product
    with a float is not a real number, such as a string, a Decimal or an
    array of several numbers."""
    if isinstance(value, bool):
        return float("nan")
    try:
        return float(value * 1.0)
    except (OverflowError, TypeError):
        return float("nan")


def as_positive(name, value, error=InvalidInputError) -> float:
    """``value`` as a float in (0, inf). A bool, a non-number, NaN, zero, a
    negative or +-inf raises ``error``, and so does an integer beyond the
    float range."""
    number = _real(value)
    if not 0.0 < number < float("inf"):
        raise error(f"{name} must be positive and finite")
    return number


def as_real(name, value, interval, error=InvalidInputError) -> float:
    """``value`` as a float in ``interval``, written as the docs write it:
    "[0, 1)", "(0, inf]". A bracket takes its end in, a parenthesis leaves
    it out. Anything else, a bool, a non-number, NaN or an integer beyond
    the float range among it, raises ``error`` with the message
    "<name> must lie in <interval>"."""
    low, high = (float(end) for end in interval[1:-1].split(","))
    number = _real(value)
    above = number >= low if interval[0] == "[" else number > low
    below = number <= high if interval[-1] == "]" else number < high
    if not (above and below):
        raise error(f"{name} must lie in {interval}")
    return number
