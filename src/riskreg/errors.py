"""Exception types and argument checks shared across the package."""

import numbers


def count(name: str, value, least=None) -> int:
    """``value`` as an int; a ValueError naming it ``name`` unless it is an
    integer (not a bool) and, given ``least``, at least ``least``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or (least is not None and value < least)):
        floor = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be an integer{floor}, got {value!r}")
    return int(value)


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
