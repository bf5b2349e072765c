"""Independent routes to the schedule identities

    gamma = k' / (1 - k),            k = 1 - exp(-int_0^t gamma),
    var_t = (1 - k)^2 [var_0 + int_0^t (g / (1 - k))^2 du],
    g^2   = var' + 2 gamma var,

each recomputing one callable of a schedule bundle from the others. k and var
come from adaptive quadrature (:func:`isde.integrate`), even where a closed
form exists; gamma and g^2 from central differences of the bundle's own k and
var, with step :data:`H`.
"""

import math

import numpy as np

from isde import ParameterError, integrate

H = 1e-6  # central-difference step: truncation and rounding both stay near 1e-10


def k_from_gamma(sde, t: float) -> float:
    """Interpolation function recovered from the stiffness: 1 - exp(-int_0^t gamma(s) ds)."""
    t = float(t)
    if t < 0.0:
        raise ParameterError(f"time must be nonnegative, got {t!r}")
    if t >= sde.t_max:
        raise ParameterError(f"time {t!r} must be below the horizon t_max={sde.t_max!r}")
    if t == 0.0:
        return 0.0
    res = integrate(lambda s: float(sde.gamma(s)), 0.0, t, abs_tol=1e-12, rel_tol=1e-10)
    return float(-math.expm1(-res.value))


def variance_from_diffusion(sde, t: float) -> float:
    """Perturbation variance by quadrature of the diffusion:
    (1 - k(t))^2 [var(0) + int_0^t (g(u)/(1 - k(u)))^2 du], using e^{int gamma} = 1/(1 - k).

    The decayed start variance var(0) is nonzero only for fOUVE, whose
    schedule starts at sigma_min rather than 0.
    """
    t = float(t)
    if t < 0.0 or t > sde.t_rev:
        raise ParameterError(f"time {t!r} outside [0, t_rev={sde.t_rev!r}]")

    def integrand(u: float) -> float:
        omk = 1.0 - float(sde.k(u))
        return (float(sde.g(u)) / omk) ** 2

    fluct = 0.0
    if t > 0.0:
        fluct = integrate(integrand, 0.0, t, abs_tol=0.0, rel_tol=1e-10).value
    omk_t = 1.0 - float(sde.k(t))
    return omk_t ** 2 * (float(sde.var(0.0)) + fluct)


def _derivative(f, t):
    t = np.asarray(t, dtype=float)
    return (f(t + H) - f(t - H)) / (2.0 * H)


def gamma_from_k(sde, t):
    """Stiffness recovered from the interpolation function: k'(t) / (1 - k(t))."""
    return _derivative(sde.k, t) / (1.0 - sde.k(t))


def diffusion_from_variance(sde, t):
    """Squared diffusion recovered from the variance: var'(t) + 2 gamma(t) var(t)."""
    return _derivative(sde.var, t) + 2.0 * sde.gamma(t) * sde.var(t)
