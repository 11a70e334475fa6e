"""Exception types and argument checks shared across the package."""

import math
import numbers


def count(name: str, value, least=None) -> int:
    """``value`` as an int; a ValueError naming it ``name`` unless it is an
    integer (not a bool) and, given ``least``, at least ``least``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or (least is not None and value < least)):
        floor = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be an integer{floor}, got {value!r}")
    return int(value)


# the ranges ``real`` checks, by name: how a message states each, and its test
# of a finite value
_RANGES = {None: ("finite", lambda x: True),
           "positive": ("positive and finite", lambda x: x > 0),
           "nonnegative": ("nonnegative and finite", lambda x: x >= 0),
           "unit": ("in (0, 1)", lambda x: 0 < x < 1)}


def real(name: str, value, within=None):
    """``value`` itself; a ValueError naming it ``name`` unless it is a finite
    real number (not a bool, str, None or array) and, given ``within``, in
    that range: "positive", "nonnegative" or "unit", the open interval (0, 1)."""
    form, test = _RANGES[within]
    try:
        ok = (isinstance(value, numbers.Real) and not isinstance(value, bool)
              and math.isfinite(value) and test(value))
    except OverflowError:  # an int beyond the float range
        ok = False
    if not ok:
        raise ValueError(f"{name} must be {form}, got {value!r}")
    return value


class ConvergenceError(RuntimeError):
    """An iterative method ran out of iterations before reaching its tolerance.

    Carries whatever partial result was available so callers can inspect it or
    recover.
    """

    def __init__(self, message, last_iterate=None, iterations=None, trail=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.iterations = iterations
        self.trail = trail


class DegenerateDataError(ValueError):
    """The data cannot support the requested estimate (e.g. it looks like pure noise)."""
