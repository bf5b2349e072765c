"""Exception taxonomy shared by all modules.

Every error raised by this package derives from IsdeError so callers can
catch the whole family with one clause. Subclasses also inherit from the
closest builtin (ValueError, ArithmeticError, ...) where one applies.
:func:`real_parameter`, :func:`real_array` and :func:`integer_parameter` turn
a malformed numeric argument into a ParameterError. One rule serves the
library and the config loader: a bool or a string is never a number, and an
integer takes only an ``int`` or a NumPy integer.
"""

from __future__ import annotations

import numbers

import numpy as np

__all__ = [
    "IsdeError",
    "ParameterError",
    "ShapeError",
    "SingularityError",
    "ScheduleConsistencyError",
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
    """A schedule quantity diverges or degenerates (k(t) -> 1, sigma_t = 0, zero variance)."""


class ScheduleConsistencyError(IsdeError, ArithmeticError):
    """A schedule identity is violated beyond tolerance (e.g. negative g^2 from a variance)."""


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


def real_parameter(name: str, value) -> float:
    """``float(value)``, raising ParameterError naming ``name`` when value is not a
    number; a bool or a string is not one, so a YAML ``true`` cannot stand for
    1.0 and ``"1.5"`` not for 1.5."""
    if isinstance(value, (bool, str, bytes)):
        raise ParameterError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ParameterError(f"{name} must be a real number, got {value!r}")


def real_array(name: str, value) -> np.ndarray:
    """``value`` as a new float array, raising ParameterError naming ``name`` when
    an entry is not a real number; a bool or a string is not one."""
    try:
        a = np.asarray(value)
    except (TypeError, ValueError) as e:
        raise ParameterError(f"{name} must be a real number or an array of them: {e}")
    if a.dtype.kind == "O":
        return np.array([real_parameter(name, v) for v in a.flat]).reshape(a.shape)
    if a.dtype.kind not in "iuf":
        raise ParameterError(f"{name} must hold real numbers, got {a.dtype} values")
    return a.astype(float)


def integer_parameter(name: str, value, minimum: int) -> int:
    """``int(value)`` for an integer ``value >= minimum``, raising ParameterError
    naming ``name`` otherwise; a bool, a float such as 2.0 and a string are not
    integers."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < minimum):
        raise ParameterError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)
