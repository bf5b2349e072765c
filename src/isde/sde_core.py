"""Interpolating-SDE schedules and the forward perturbation kernel.

An interpolating SDE is the linear process

    dx_t = gamma(t) (y - x_t) dt + g(t) dw_t

whose conditional law given (x_0, y) is Gaussian with mean
mu_t = (1 - k(t)) x_0 + k(t) y and isotropic variance var_t = sigma_t^2.
The interpolation function k, the stiffness gamma, the diffusion g, and the
standard deviation sigma are mutually constrained:

    gamma = k' / (1 - k),            k = 1 - exp(-int_0^t gamma),
    var_t = (1 - k)^2 [var_0 + int_0^t (g / (1 - k))^2 du],
    g^2   = var' + 2 gamma var.

Five concrete families are provided (construction via :func:`make_sde`):

    fOUVE          k = 1 - e^{-gamma0 t}, sigma = sigma_min (sigma_max/sigma_min)^t,
                   nonzero initial variance sigma_min^2; infinite horizon.
    OUVE           same k; variance starts at 0 and grows toward the same envelope.
    BBED           bridge interpolation k = t with exponential diffusion c r^t;
                   variance has no closed form and is obtained by quadrature.
    OT             bridge interpolation with sigma = sigma_max t.
    BrownianBridge unit diffusion, variance t(1 - t) (std sqrt(t(1-t))).

All schedule callables accept scalars or numpy arrays of times. Bundles are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import (
    ParameterError,
    QuadratureDomainError,
    ScheduleConsistencyError,
    ShapeError,
    SingularityError,
    real_parameter,
)
from .quadrature import integrate, integrate_batch

__all__ = [
    "SdeKind",
    "SdeParams",
    "InterpolatingSde",
    "GaussianKernel",
    "make_sde",
    "gamma_from_k",
    "k_from_gamma",
    "variance_from_diffusion",
    "diffusion_from_variance",
    "mean_evolution",
    "perturbation_kernel",
    "sample_forward",
]


class SdeKind(str, Enum):
    FOUVE = "fOUVE"
    OUVE = "OUVE"
    BBED = "BBED"
    OT = "OT"
    BROWNIAN_BRIDGE = "BrownianBridge"


def _require_positive(name: str, value) -> float:
    if value is None:
        raise ParameterError(f"parameter {name!r} is required for this SDE kind")
    value = real_parameter(f"parameter {name!r}", value)
    if not math.isfinite(value) or value <= 0.0:
        raise ParameterError(f"parameter {name!r} must be a positive finite real, got {value!r}")
    return value


@dataclass(frozen=True)
class SdeParams:
    """Parameters selecting and shaping one schedule family.

    Only the fields read by ``kind`` are validated: sigma_min/sigma_max/gamma0
    for fOUVE and OUVE, c/r for BBED, sigma_max for OT, none for BrownianBridge.
    """

    kind: SdeKind
    sigma_min: float | None = None
    sigma_max: float | None = None
    gamma0: float | None = None
    c: float | None = None
    r: float | None = None

    def __post_init__(self):
        try:
            kind = SdeKind(self.kind)
        except ValueError:
            valid = ", ".join(k.value for k in SdeKind)
            raise ParameterError(f"unknown SDE kind {self.kind!r}; expected one of: {valid}")
        object.__setattr__(self, "kind", kind)
        if kind in (SdeKind.FOUVE, SdeKind.OUVE):
            smin = _require_positive("sigma_min", self.sigma_min)
            smax = _require_positive("sigma_max", self.sigma_max)
            _require_positive("gamma0", self.gamma0)
            if smin >= smax:
                raise ParameterError(
                    f"sigma_min must be < sigma_max, got {smin!r} >= {smax!r}")
        elif kind is SdeKind.BBED:
            _require_positive("c", self.c)
            _require_positive("r", self.r)
        elif kind is SdeKind.OT:
            _require_positive("sigma_max", self.sigma_max)


@dataclass(frozen=True)
class InterpolatingSde:
    """Immutable schedule bundle; all callables are vectorized over time."""

    params: SdeParams
    k: callable = field(repr=False)
    k_prime: callable = field(repr=False)
    gamma: callable = field(repr=False)
    g: callable = field(repr=False)
    sigma: callable = field(repr=False)
    var: callable = field(repr=False)
    var_prime: callable = field(repr=False)
    var0: float = 0.0
    t_max: float = math.inf
    t_rev: float = 1.0
    delta: float = 1e-2
    # fOUVE and OUVE: (c, zeta, s, zeta2) with g^2 / (2 (1 - k)) = c e^{zeta t} and
    # int_{t_lo}^{t_hi} (g / (1 - k))^2 du = s^2 (e^{zeta2 t_hi} - e^{zeta2 t_lo});
    # None for the kinds whose step integrals need quadrature
    exp_weights: tuple | None = None


@dataclass(frozen=True)
class GaussianKernel:
    """Isotropic Gaussian law of x_t given (x_0, y): N(mean, std^2 I)."""

    mean: np.ndarray
    std: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.mean)):
            raise ParameterError("kernel mean must be finite")
        if not (self.std >= 0.0):
            raise ParameterError(f"kernel std must be nonnegative, got {self.std!r}")


def _t(value):
    return np.asarray(value, dtype=float)


def _end_slope(h0, h1, m0, m1):
    """Moler's shape-preserving three-point slope at an end node (pchiptx.m):
    h0, m0 are the width and secant of the end interval, h1, m1 of its neighbour."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


class _Pchip:
    """Monotone piecewise-cubic Hermite interpolant through (x[i], y[i]) for
    strictly increasing x, at least three nodes, evaluated on [x[0], x[-1]]
    at a float or an array of times.

    The node slopes are Fritsch and Carlson's (SIAM J. Numer. Anal. 17, 1980):
    the weighted harmonic mean of the two neighbouring secants, or 0 where they
    differ in sign or one is flat; :func:`_end_slope` at the ends. The cubic
    of each interval is summed from its constant term up. This is the
    operation order of the common reference implementation, and the tests hold
    values and derivatives to it bit for bit.
    """

    def __init__(self, x, y):
        h = np.diff(x)
        m = np.diff(y) / h
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
        with np.errstate(all="ignore"):  # the flat entries are discarded
            inner = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
        d = np.concatenate([[_end_slope(h[0], h[1], m[0], m[1])], inner,
                            [_end_slope(h[-1], h[-2], m[-1], m[-2])]])
        t = (d[:-1] + d[1:] - 2 * m) / h
        c1, c0 = (m - d[:-1]) / h - t, t / h
        self._x, self._nodes = x, x.tolist()
        # on interval i, with s = t - x[i]: value c3 + c2 s + c1 s^2 + c0 s^3,
        # derivative c2 + 2 c1 s + 3 c0 s^2; kept as arrays and as Python rows
        value = np.stack([y[:-1], d[:-1], c1, c0])
        slope = np.stack([d[:-1], 2.0 * c1, 3.0 * c0])
        self._value = value, value.T.tolist()
        self._slope = slope, slope.T.tolist()

    def finite(self) -> bool:
        """Whether every coefficient of the value and the derivative is finite."""
        return bool(np.isfinite(self._value[0]).all() and np.isfinite(self._slope[0]).all())

    def _locate(self, t, coefficients):
        """(t - x[i], coefficients of interval i) for the interval i holding t:
        Python floats for a float t, arrays for an array."""
        table, rows = coefficients
        if isinstance(t, float):
            i = min(bisect.bisect_right(self._nodes, t) - 1, len(rows) - 1)
            return t - self._nodes[i], rows[i]
        i = np.minimum(np.searchsorted(self._x, t, side="right") - 1, len(rows) - 1)
        return t - self._x[i], table[:, i]

    def __call__(self, t):
        s, (c3, c2, c1, c0) = self._locate(t, self._value)
        return c3 + c2 * s + c1 * (s * s) + c0 * (s * s * s)

    def derivative(self, t):
        s, (c2, c1, c0) = self._locate(t, self._slope)
        return c2 + c1 * s + c0 * (s * s)


def _bbed_integrand(c: float, r: float, tau):
    return (c * r ** tau) ** 2 / (1.0 - tau) ** 2


# BBED variance table: adaptive quadrature over the intervals of a 1024-node
# grid graded quadratically toward t = 1 (where the integrand steepens), all
# in one batched pass and prefix-summed, interpolated with a monotone cubic.
_BBED_NODES = 1024


@lru_cache(maxsize=None)
def _bbed_var_table(c: float, r: float, t_edge: float):
    u = np.linspace(0.0, 1.0, _BBED_NODES)
    nodes = t_edge * (1.0 - (1.0 - u) ** 2)
    nodes[-1] = t_edge
    with np.errstate(over="ignore"):
        try:
            pieces = integrate_batch(lambda tau, rows: _bbed_integrand(c, r, tau), nodes[:-1],
                                     nodes[1:], abs_tol=1e-14, rel_tol=1e-10).value
        except QuadratureDomainError:  # the integrand overflowed
            pieces = np.full(nodes.size - 1, np.inf)
        var_nodes = (1.0 - nodes) ** 2 * np.concatenate([[0.0], np.cumsum(pieces)])
    return nodes, var_nodes


def _bbed_var_direct(c: float, r: float, t: float) -> float:
    res = integrate(lambda tau: _bbed_integrand(c, r, tau), 0.0, float(t),
                    abs_tol=1e-14, rel_tol=1e-10)
    return (1.0 - t) ** 2 * res.value


def make_sde(params: SdeParams, delta: float = 1e-2) -> InterpolatingSde:
    """Build the schedule bundle for ``params``.

    Reverse-time defaults: start T = 1 for the infinite-horizon kinds
    (fOUVE, OUVE) and T = 0.999 for the finite-horizon kinds (BBED, OT,
    BrownianBridge, all singular at t = 1); stop delta = 1e-2.
    """
    if not isinstance(params, SdeParams):
        params = SdeParams(**params) if isinstance(params, dict) else SdeParams(params)
    delta = _require_positive("delta", delta)
    kind = params.kind

    if kind in (SdeKind.FOUVE, SdeKind.OUVE):
        smin = float(params.sigma_min)
        smax = float(params.sigma_max)
        g0 = float(params.gamma0)
        rho = math.log(smax / smin)
        try:  # exp_weights' integrals stay below smin^2 e^{2 (rho + g0) t} up to t_rev = 1
            smin2 = smin ** 2
            top = smin2 * math.exp(2.0 * (rho + g0))
        except OverflowError:
            top = math.inf
        if not math.isfinite(top):
            raise ParameterError(f"{kind.value} step weights overflow for sigma_min={smin!r}, "
                                 f"sigma_max={smax!r}, gamma0={g0!r}")

        def k(t):
            return -np.expm1(-g0 * _t(t))

        def k_prime(t):
            return g0 * np.exp(-g0 * _t(t))

        def gamma(t):
            return g0 + 0.0 * _t(t)

        if k(1.0) == 1.0:  # then 1 - k vanishes at t_rev = 1
            raise ParameterError(f"k(t_rev) rounds to 1 for gamma0={g0!r}")

        if kind is SdeKind.FOUVE:
            def var(t):
                return smin2 * np.exp(2.0 * rho * _t(t))

            def var_prime(t):
                return 2.0 * rho * smin2 * np.exp(2.0 * rho * _t(t))

            def sigma(t):
                return smin * np.exp(rho * _t(t))

            def g(t):
                return smin * np.exp(rho * _t(t)) * math.sqrt(2.0 * (rho + g0))

            var0 = smin2
            c, s = smin2 * (rho + g0), smin
        else:
            k2 = smin2 * rho / (g0 + rho)

            def var(t):
                tt = _t(t)
                return k2 * (np.exp(2.0 * rho * tt) - np.exp(-2.0 * g0 * tt))

            def var_prime(t):
                tt = _t(t)
                return k2 * (2.0 * rho * np.exp(2.0 * rho * tt)
                             + 2.0 * g0 * np.exp(-2.0 * g0 * tt))

            def sigma(t):
                return np.sqrt(var(t))

            def g(t):
                return smin * np.exp(rho * _t(t)) * math.sqrt(2.0 * rho)

            var0 = 0.0
            c, s = smin2 * rho, smin * math.sqrt(rho / (rho + g0))

        return InterpolatingSde(params=params, k=k, k_prime=k_prime, gamma=gamma, g=g,
                                sigma=sigma, var=var, var_prime=var_prime, var0=var0,
                                t_max=math.inf, t_rev=1.0, delta=delta,
                                exp_weights=(c, 2.0 * rho + g0, s, 2.0 * (rho + g0)))

    # the three bridge-type kinds share k(t) = t, gamma = 1/(1-t), t_max = 1
    def k(t):
        return _t(t) + 0.0

    def k_prime(t):
        return 1.0 + 0.0 * _t(t)

    def gamma(t):
        return 1.0 / (1.0 - _t(t))

    t_rev = 0.999

    if kind is SdeKind.BBED:
        c = float(params.c)
        r = float(params.r)
        t_edge = 0.5 * (t_rev + 1.0)  # grid reaches past t_rev; beyond it, direct quadrature
        with np.errstate(over="ignore", invalid="ignore"):
            table = _Pchip(*_bbed_var_table(c, r, t_edge))
        if not table.finite():  # an infinite node value, or a slope that overflowed
            raise ParameterError(f"BBED variance overflows for c={c!r}, r={r!r}")

        def var(t):
            tt = _t(t)
            if tt.ndim == 0:  # in Python floats: most calls ask for one time
                t = float(tt)
                if not 0.0 <= t < 1.0:
                    raise ParameterError(f"BBED variance is defined for 0 <= t < 1, got {t!r}")
                return max(table(t), 0.0) if t <= t_edge else _bbed_var_direct(c, r, t)
            if not np.all((tt >= 0.0) & (tt < 1.0)):
                raise ParameterError("BBED variance is defined for 0 <= t < 1")
            out = np.maximum(table(np.minimum(tt, t_edge)), 0.0)
            beyond = tt > t_edge
            out[beyond] = [_bbed_var_direct(c, r, u) for u in tt[beyond].tolist()]
            return out

        def var_prime(t):
            tt = _t(t)
            if not np.all((tt >= 0.0) & (tt <= t_edge)):
                raise ParameterError(
                    f"BBED variance derivative is tabulated for 0 <= t <= {t_edge}")
            return table.derivative(tt if tt.ndim else float(tt))

        def sigma(t):
            return np.sqrt(var(t))

        def g(t):
            return c * r ** _t(t)

    elif kind is SdeKind.OT:
        smax = float(params.sigma_max)

        def var(t):
            return (smax * _t(t)) ** 2

        def var_prime(t):
            return 2.0 * smax ** 2 * _t(t)

        def sigma(t):
            return smax * _t(t)

        def g(t):
            tt = _t(t)
            return smax * np.sqrt(2.0 * tt / (1.0 - tt))

    else:  # BrownianBridge
        def var(t):
            tt = _t(t)
            return tt * (1.0 - tt)

        def var_prime(t):
            return 1.0 - 2.0 * _t(t)

        def sigma(t):
            tt = _t(t)
            return np.sqrt(tt * (1.0 - tt))

        def g(t):
            return 1.0 + 0.0 * _t(t)

    return InterpolatingSde(params=params, k=k, k_prime=k_prime, gamma=gamma, g=g,
                            sigma=sigma, var=var, var_prime=var_prime, var0=0.0,
                            t_max=1.0, t_rev=t_rev, delta=delta)


def gamma_from_k(sde: InterpolatingSde, t):
    """Stiffness recovered from the interpolation function: k'(t) / (1 - k(t))."""
    kv = np.asarray(sde.k(t), dtype=float)
    if np.any(kv >= 1.0):
        raise SingularityError(f"k(t) reached 1 at t={t!r}; stiffness diverges")
    out = np.asarray(sde.k_prime(t), dtype=float) / (1.0 - kv)
    return out if out.ndim else float(out)


def k_from_gamma(sde: InterpolatingSde, t: float, abs_tol: float = 1e-12,
                 rel_tol: float = 1e-10) -> float:
    """Interpolation function recovered from the stiffness: 1 - exp(-int_0^t gamma(s) ds).

    Deliberately evaluates the integral numerically even for schedules with a
    closed form: this operation is the independent verification route for k.
    """
    t = float(t)
    if t < 0.0:
        raise ParameterError(f"time must be nonnegative, got {t!r}")
    if t >= sde.t_max:
        raise ParameterError(f"time {t!r} must be below the horizon t_max={sde.t_max!r}")
    if t == 0.0:
        return 0.0
    res = integrate(lambda s: float(sde.gamma(s)), 0.0, t, abs_tol=abs_tol, rel_tol=rel_tol)
    return float(-math.expm1(-res.value))


def variance_from_diffusion(sde: InterpolatingSde, t: float, abs_tol: float = 1e-14,
                            rel_tol: float = 1e-10) -> float:
    """Perturbation variance by quadrature of the diffusion.

    Computes (1 - k(t))^2 [var0 + int_0^t (g(u)/(1 - k(u)))^2 du], using
    e^{int gamma} = 1/(1 - k). The decayed initial variance var0 (nonzero only
    for fOUVE, whose schedule starts at sigma_min rather than 0) is included so
    the result matches sigma(t)^2 wherever a closed form exists.
    """
    t = float(t)
    if t < 0.0 or t > sde.t_rev:
        raise ParameterError(f"time {t!r} outside [0, t_rev={sde.t_rev!r}]")

    def integrand(u: float) -> float:
        omk = 1.0 - float(sde.k(u))
        return (float(sde.g(u)) / omk) ** 2

    fluct = 0.0
    if t > 0.0:
        fluct = integrate(integrand, 0.0, t, abs_tol=abs_tol, rel_tol=rel_tol).value
    omk_t = 1.0 - float(sde.k(t))
    return omk_t ** 2 * (sde.var0 + fluct)


def diffusion_from_variance(sde: InterpolatingSde, t):
    """Squared diffusion recovered from the variance: g^2 = var' + 2 gamma var.

    Raises ScheduleConsistencyError if the combination is negative beyond
    rounding tolerance; tiny negative values are clipped to zero.
    """
    vp = np.asarray(sde.var_prime(t), dtype=float)
    gv = np.asarray(sde.gamma(t), dtype=float)
    vv = np.asarray(sde.var(t), dtype=float)
    g2 = vp + 2.0 * gv * vv
    scale = np.abs(vp) + np.abs(2.0 * gv * vv)
    bad = g2 < -1e-10 * np.maximum(scale, 1e-300)
    if np.any(bad):
        worst = np.min(np.asarray(g2)[np.asarray(bad)]) if np.ndim(g2) else float(g2)
        raise ScheduleConsistencyError(
            f"var' + 2 gamma var is negative ({worst!r}) at t={t!r}; schedule inconsistent")
    g2 = np.maximum(g2, 0.0)
    return g2 if g2.ndim else float(g2)


def mean_evolution(sde: InterpolatingSde, x0, y, t):
    """Kernel mean mu_t = (1 - k(t)) x0 + k(t) y (broadcasting x0 against y)."""
    x0a = np.asarray(x0, dtype=float)
    ya = np.asarray(y, dtype=float)
    try:
        np.broadcast_shapes(x0a.shape, ya.shape)
    except ValueError:
        raise ShapeError(f"x0 shape {x0a.shape} and y shape {ya.shape} do not broadcast")
    kv = sde.k(t)
    return (1.0 - kv) * x0a + kv * ya


def perturbation_kernel(sde: InterpolatingSde, x0, y, t) -> GaussianKernel:
    """Gaussian law of x_t given (x0, y)."""
    return GaussianKernel(mean=np.asarray(mean_evolution(sde, x0, y, t), dtype=float),
                          std=float(sde.sigma(t)))


def sample_forward(sde: InterpolatingSde, x0, y, t, rng: np.random.Generator):
    """One draw of x_t given (x0, y): mu_t + sigma_t z, z standard normal per coordinate."""
    t = float(t)
    if t < 0.0 or t > sde.t_rev:
        raise ParameterError(f"time {t!r} outside [0, t_rev={sde.t_rev!r}]")
    kern = perturbation_kernel(sde, x0, y, t)
    z = rng.standard_normal(np.shape(kern.mean))
    return kern.mean + kern.std * z

