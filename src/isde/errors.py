"""Exception taxonomy shared by all modules.

Every error raised by this package derives from IsdeError so callers can
catch the whole family with one clause. Subclasses also inherit from the
closest builtin (ValueError, ArithmeticError, ...) where one applies.
:func:`real_parameter`, :func:`real_array` and :func:`integer_parameter` turn
a malformed numeric argument into a ParameterError, and :func:`reject_unread`
a field that a kind does not read. One rule serves the library and the config
loader: a bool or a string is never a number, an integer takes only an ``int``
or a NumPy integer, and a scalar real is a finite one inside the interval its
argument allows, checked only here.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

_FLOAT64 = np.dtype(np.float64)

__all__ = [
    "IsdeError",
    "ParameterError",
    "ShapeError",
    "SingularityError",
    "QuadratureError",
    "QuadratureDomainError",
    "QuadratureToleranceError",
    "DivergenceError",
    "StiffnessError",
    "ConfigError",
]


class IsdeError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(IsdeError, ValueError):
    """Invalid argument value or domain violation (nonpositive scale, t out of range, ...)."""


class ShapeError(IsdeError, ValueError):
    """State vectors with incompatible shapes."""


class SingularityError(IsdeError, ArithmeticError):
    """A schedule quantity degenerates (sigma_t = 0, a zero marginal variance)."""


class QuadratureError(IsdeError):
    """Base class for numerical-integration failures."""


class QuadratureDomainError(QuadratureError, ValueError):
    """The integrand returned a nonfinite value at a sample point."""


class QuadratureToleranceError(QuadratureError, ArithmeticError):
    """Requested tolerance not reached within the subdivision budget.

    Carries the best available estimate in ``result`` (a QuadResult).
    """

    def __init__(self, message, result):
        super().__init__(message)
        self.result = result


class DivergenceError(IsdeError, ArithmeticError):
    """A solve produced a nonfinite state; reports the offending step and time."""

    def __init__(self, message, step_index=None, time=None):
        super().__init__(message)
        self.step_index = step_index
        self.time = time


class StiffnessError(IsdeError, ArithmeticError):
    """Adaptive step size underflowed (or the step budget was exhausted)."""


class ConfigError(IsdeError, ValueError):
    """Invalid or incomplete experiment configuration; message names the offender."""


def reject_unread(what: str, fields, reads) -> None:
    """Raise ParameterError ``<what> does not read: a, b`` naming every set (not None)
    entry of the ``fields`` mapping, besides ``kind``, that is not in ``reads``."""
    unread = [name for name, value in fields.items()
              if value is not None and name not in reads and name != "kind"]
    if unread:
        raise ParameterError(f"{what} does not read: {', '.join(unread)}")


def real_parameter(name: str, value, lo: float = -math.inf, hi: float = math.inf,
                   lo_open: bool = False, hi_open: bool = False) -> float:
    """``float(value)`` for a finite real ``lo <= value <= hi`` (``<`` at an open
    end), raising ParameterError naming ``name`` and the interval otherwise. A bool
    or a string is not a number, so a YAML ``true`` cannot stand for 1.0 and
    ``"1.5"`` not for 1.5; NaN and +-inf lie in no interval."""
    if isinstance(value, (bool, str, bytes)):
        raise ParameterError(f"{name} must be a real number, got {value!r}")
    try:
        v = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ParameterError(f"{name} must be a real number, got {value!r}")
    if not (math.isfinite(v) and (lo < v if lo_open else lo <= v)
            and (v < hi if hi_open else v <= hi)):
        raise ParameterError(
            f"{name} must be a finite real in {'(' if lo_open or lo == -math.inf else '['}"
            f"{lo!r}, {hi!r}{')' if hi_open or hi == math.inf else ']'}, got {v!r}")
    return v


def real_array(name: str, value) -> np.ndarray:
    """``value`` as a float array, raising ParameterError naming ``name`` when an
    entry is not a real number; a bool, a string or bytes is not one. An exact
    ``np.ndarray`` of dtype float64 comes back at once, as it is, with no copy and
    no other check; a subclass or another dtype takes the full rule."""
    if type(value) is np.ndarray and value.dtype == _FLOAT64:
        return value
    try:
        a = np.asarray(value)
    except (TypeError, ValueError) as e:
        raise ParameterError(f"{name} must be a real number or an array of them: {e}")
    if a.dtype.kind == "O":
        return np.array([real_parameter(name, v) for v in a.flat]).reshape(a.shape)
    if a.dtype.kind not in "iuf":
        raise ParameterError(f"{name} must hold real numbers, got {a.dtype} values")
    return a.astype(float, copy=False)


def integer_parameter(name: str, value, minimum: int, maximum: int | None = None) -> int:
    """``int(value)`` for an integer ``minimum <= value`` (``<= maximum`` where one
    is given), raising ParameterError naming ``name`` and the range otherwise; a
    bool, a float such as 2.0 and a string are not integers."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < minimum or (maximum is not None and value > maximum)):
        allowed = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
        raise ParameterError(f"{name} must be an integer {allowed}, got {value!r}")
    return int(value)
