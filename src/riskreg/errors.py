"""Exception types and argument checks shared across the package."""

import math
import numbers

import numpy as np


def count(name: str, value, least=None) -> int:
    """``value`` as an int; a ValueError naming it ``name`` unless it is an
    integer (not a bool) and, given ``least``, at least ``least``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or (least is not None and value < least)):
        floor = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be an integer{floor}, got {value!r}")
    return int(value)


# the ranges ``real`` and ``reals`` check, by name: how a message states each,
# and its test of a finite value, elementwise on an array
_RANGES = {None: ("finite", lambda x: True),
           "positive": ("positive and finite", lambda x: x > 0),
           "nonnegative": ("nonnegative and finite", lambda x: x >= 0),
           "unit": ("in (0, 1)", lambda x: (0 < x) & (x < 1))}


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


def reals(name: str, values, within=None) -> np.ndarray:
    """``values`` as a float array; a ValueError naming it ``name`` and its
    first bad entry unless each entry is a finite real number in ``within``,
    as ``real`` checks one: a bool array, a str or None entry, NaN or +-inf is
    bad.  A value that is no array and has no dimension is checked by ``real``."""
    if not isinstance(values, np.ndarray) and np.ndim(values) == 0:
        return np.asarray(real(name, values, within), dtype=float)
    form, test = _RANGES[within]
    values = np.asarray(values)
    if values.dtype.kind == "O":  # a None, str or number entry: each as ``real`` checks it
        for value in values.flat:
            real(name, value, within)
    elif values.dtype.kind not in "iuf" and values.size:  # bool, str or complex throughout
        raise ValueError(f"{name} must be {form}, got {values.flat[0].item()!r}")
    x = values.astype(float, copy=False)
    if x.size:  # each range is an interval, so the least and the greatest entry stand for all
        lo, hi = x.min(), x.max()
        if not (math.isfinite(lo) and math.isfinite(hi) and test(lo) and test(hi)):
            bad = values.flat[np.argmin(np.isfinite(x) & test(x))].item()
            raise ValueError(f"{name} must be {form}, got {bad!r}")
    return x


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
