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

A bundle carries k, gamma, g, sigma and var, the five callables the solvers
and studies read, and no derivative: the tests recover each identity above
from them by quadrature and by central differences.

Five concrete families are provided (construction via :func:`make_sde`):

    fOUVE          k = 1 - e^{-gamma0 t}, sigma = sigma_min (sigma_max/sigma_min)^t,
                   nonzero initial variance sigma_min^2; infinite horizon.
    OUVE           same k; variance starts at 0 and grows toward the same envelope.
    BBED           bridge interpolation k = t with exponential diffusion c r^t;
                   variance from one table of Gauss-7 panels in s = 1 / (1 - u).
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

import numpy as np

from .errors import ParameterError, ShapeError, real_array, real_parameter, reject_unread
from .quadrature import _GAUSS_IDX, _NODES, _WEIGHTS_G

__all__ = [
    "SdeKind",
    "SdeParams",
    "InterpolatingSde",
    "make_sde",
    "mean_evolution",
    "sample_forward",
]


class SdeKind(str, Enum):
    FOUVE = "fOUVE"
    OUVE = "OUVE"
    BBED = "BBED"
    OT = "OT"
    BROWNIAN_BRIDGE = "BrownianBridge"


# The SdeParams fields each kind reads, each a positive finite real
_SDE_FIELDS = {SdeKind.FOUVE: ("sigma_min", "sigma_max", "gamma0"),
               SdeKind.OUVE: ("sigma_min", "sigma_max", "gamma0"),
               SdeKind.BBED: ("c", "r"), SdeKind.OT: ("sigma_max",), SdeKind.BROWNIAN_BRIDGE: ()}


@dataclass(frozen=True)
class SdeParams:
    """Parameters selecting and shaping one schedule family.

    A kind reads its fields of :data:`_SDE_FIELDS`, each a positive finite real:
    sigma_min < sigma_max and gamma0 for fOUVE and OUVE, c and r for BBED,
    sigma_max for OT, none for BrownianBridge; setting another raises ParameterError.
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
        reads = _SDE_FIELDS[kind]
        reject_unread(f"SDE kind {kind.value!r}", vars(self), reads)
        lo = 0  # sigma_min, read before sigma_max, is its lower end
        for name in reads:
            value = real_parameter(f"parameter {name!r}", getattr(self, name), lo, lo_open=True)
            lo = value if name == "sigma_min" else 0


@dataclass(frozen=True)
class InterpolatingSde:
    """Immutable schedule bundle; all callables are vectorized over time."""

    params: SdeParams
    k: callable = field(repr=False)
    gamma: callable = field(repr=False)
    g: callable = field(repr=False)
    sigma: callable = field(repr=False)
    var: callable = field(repr=False)
    t_max: float
    t_rev: float
    delta: float
    # fOUVE and OUVE: (c, zeta) with g^2 / (2 (1 - k)) = c e^{zeta t}; None for the
    # bridges (k = t), whose omega weights take quadrature in the log-distance to t = 1
    exp_weights: tuple | None = None


def _t(value):
    """Times as a float array, by the number rule of :func:`real_array`."""
    return real_array("t", value)


# BBED variance var(t) = (1 - t)^2 int_0^t (c r^u / (1 - u))^2 du. In s = 1 / (1 - u)
# the integrand is c^2 e^{a u} ds with a = 2 ln r: bounded, with no pole. On a table
# of 1,024 nodes graded quadratically up to 0.9995 and 156 more at quarter octaves
# of 1 - t up to 8.9e-16 below 1, the integral up to each node is the prefix sum of
# one Gauss-7 panel in s per interval, and the rest, from the last node at or below
# t, is one more panel. Each interval is short against its distance to s = 0, where
# e^{-a/s} is singular, so one panel reaches round-off. The table integrates
# e^{a u - b}, at most e^650, so its sums stay finite out to s = 2^53, and at least
# e^-600 where r < 1e271, so small variances near t = 0 keep their digits; var is
# M (1 - t)^2 times it with M = c^2 e^b.
_BBED_N, _BBED_GAP = 1024, 0.0005  # quadratic nodes up to 1 - _BBED_GAP = 0.9995 exactly
_BBED_T = np.concatenate([(1.0 - _BBED_GAP) * (1.0 - (1.0 - np.linspace(0.0, 1.0, _BBED_N)) ** 2),
                          1.0 - _BBED_GAP * 2.0 ** (-np.arange(1, 157) / 4.0)])
_G7_NODES1, _G7_WEIGHTS = 1.0 + _NODES[_GAUSS_IDX], _WEIGHTS_G


def _bbed_panels(a: float, b: float, lo, hi):
    """One Gauss-7 panel of e^{a u - b} ds on every interval [lo, hi] of t."""
    half = 0.5 * (hi - lo) / ((1.0 - hi) * (1.0 - lo))  # in s
    d = (lo / (1.0 - lo))[..., None] + half[..., None] * _G7_NODES1  # s - 1 = u / (1 - u)
    return half * (np.exp(a * (d / (1.0 + d)) - b) @ _G7_WEIGHTS)


def make_sde(params: SdeParams, delta: float = 1e-2) -> InterpolatingSde:
    """Build the schedule bundle for ``params``.

    Reverse-time defaults: start T = 1 for the infinite-horizon kinds
    (fOUVE, OUVE) and T = 0.999 for the finite-horizon kinds (BBED, OT,
    BrownianBridge, all singular at t = 1); stop delta = 1e-2, which must lie
    below the start.
    """
    if not isinstance(params, SdeParams):
        raise ParameterError(f"make_sde needs an SdeParams, got {type(params).__name__}")
    kind = params.kind
    t_rev = 1.0 if kind in (SdeKind.FOUVE, SdeKind.OUVE) else 0.999
    delta = real_parameter("parameter 'delta'", delta, 0, t_rev, lo_open=True, hi_open=True)

    if kind in (SdeKind.FOUVE, SdeKind.OUVE):
        smin = float(params.sigma_min)
        smax = float(params.sigma_max)
        g0 = float(params.gamma0)
        rho = math.log(smax / smin)
        try:  # the omega weights and Phi^2 var stay below smin^2 e^{2 (rho + g0)} up to t_rev = 1
            smin2 = smin ** 2
            top = smin2 * math.exp(2.0 * (rho + g0))
        except OverflowError:
            top = math.inf
        if not math.isfinite(top):
            raise ParameterError(f"{kind.value} step weights overflow for sigma_min={smin!r}, "
                                 f"sigma_max={smax!r}, gamma0={g0!r}")

        def k(t):
            return -np.expm1(-g0 * _t(t))

        def gamma(t):
            return g0 + 0.0 * _t(t)

        if k(1.0) == 1.0:  # then 1 - k vanishes at t_rev = 1
            raise ParameterError(f"k(t_rev) rounds to 1 for gamma0={g0!r}")

        if kind is SdeKind.FOUVE:
            def var(t):
                return smin2 * np.exp(2.0 * rho * _t(t))

            def sigma(t):
                return smin * np.exp(rho * _t(t))

            def g(t):
                return smin * np.exp(rho * _t(t)) * math.sqrt(2.0 * (rho + g0))

            c = smin2 * (rho + g0)
        else:
            k2 = smin2 * rho / (g0 + rho)

            def var(t):
                tt = _t(t)
                return k2 * (np.exp(2.0 * rho * tt) - np.exp(-2.0 * g0 * tt))

            def sigma(t):
                return np.sqrt(var(t))

            def g(t):
                return smin * np.exp(rho * _t(t)) * math.sqrt(2.0 * rho)

            c = smin2 * rho

        return InterpolatingSde(params=params, k=k, gamma=gamma, g=g, sigma=sigma, var=var,
                                t_max=math.inf, t_rev=t_rev, delta=delta,
                                exp_weights=(c, 2.0 * rho + g0))

    # the three bridge-type kinds share k(t) = t, gamma = 1/(1-t), t_max = 1
    def k(t):
        return _t(t) + 0.0

    def gamma(t):
        return 1.0 / (1.0 - _t(t))

    if kind is SdeKind.BBED:
        c = float(params.c)
        r = float(params.r)
        a = 2.0 * math.log(r)
        b = max(a - 650.0, min(a, 600.0), 0.0)
        m = c * max(1.0, r) * math.exp(0.5 * (b - max(a, 0.0)))  # c e^{b/2}, c max(1, r) if b >= 0
        scale = m * m  # M
        prefix = np.concatenate([[0.0], np.cumsum(_bbed_panels(a, b, _BBED_T[:-1], _BBED_T[1:]))])
        # reject where a Gauss panel of (g / (1 - u))^2 (weights summing to 2) or the integral
        # can overflow on [0, 0.9995]; that integrand is log-convex, so it peaks at an end
        edge = c * r ** (1.0 - _BBED_GAP) / _BBED_GAP
        if not math.isfinite(2.0 * max(c * c, edge * edge, scale * float(prefix[_BBED_N - 1]))):
            raise ParameterError(f"BBED variance overflows for c={c!r}, r={r!r}")
        node_list, prefix_list = _BBED_T.tolist(), prefix.tolist()
        g7 = list(zip(_G7_NODES1.tolist(), _G7_WEIGHTS.tolist()))

        def var(t):
            tt = _t(t)
            if tt.ndim == 0:  # in Python floats: most calls ask for one time
                t = real_parameter("t", tt, 0, 1, hi_open=True)
                i = bisect.bisect_right(node_list, t) - 1
                lo = node_list[i]
                half = 0.5 * (t - lo) / ((1.0 - t) * (1.0 - lo))
                ds = [(lo / (1.0 - lo) + half * x, w) for x, w in g7]
                panel = sum(w * math.exp(a * (d / (1.0 + d)) - b) for d, w in ds)
                return scale * ((1.0 - t) ** 2 * (prefix_list[i] + half * panel))
            if not np.all((tt >= 0.0) & (tt < 1.0)):
                raise ParameterError("BBED variance is defined for 0 <= t < 1")
            i = np.searchsorted(_BBED_T, tt, side="right") - 1
            return scale * ((1.0 - tt) ** 2 * (prefix[i] + _bbed_panels(a, b, _BBED_T[i], tt)))

        def g(t):
            return c * r ** _t(t)

    elif kind is SdeKind.OT:
        smax = float(params.sigma_max)
        if not math.isfinite(2.0 * smax * smax * t_rev / (1.0 - t_rev)):  # g(t_rev)^2
            raise ParameterError(f"OT diffusion overflows for sigma_max={smax!r}")

        def var(t):  # a product, not ** 2: NumPy sends a 0-d power to libm pow
            v = smax * _t(t)
            return v * v

        def g(t):
            tt = _t(t)
            return smax * np.sqrt(2.0 * tt / (1.0 - tt))

    else:  # BrownianBridge
        def var(t):
            tt = _t(t)
            return tt * (1.0 - tt)

        def g(t):
            return 1.0 + 0.0 * _t(t)

    def sigma(t):  # OT's smax t bit for bit: a correctly rounded square has an exact root
        return np.sqrt(var(t))

    return InterpolatingSde(params=params, k=k, gamma=gamma, g=g, sigma=sigma, var=var,
                            t_max=1.0, t_rev=t_rev, delta=delta)


def mean_evolution(sde: InterpolatingSde, x0, y, t):
    """Kernel mean mu_t = (1 - k(t)) x0 + k(t) y (broadcasting x0 against y); x0, y
    and t are real numbers or arrays of them, never bools or strings."""
    x0a = real_array("x0", x0)
    ya = real_array("y", y)
    try:
        np.broadcast_shapes(x0a.shape, ya.shape)
    except ValueError:
        raise ShapeError(f"x0 shape {x0a.shape} and y shape {ya.shape} do not broadcast")
    kv = sde.k(real_array("t", t))
    return (1.0 - kv) * x0a + kv * ya


def sample_forward(sde: InterpolatingSde, x0, y, t, rng: np.random.Generator):
    """One draw of x_t given (x0, y): mu_t + sigma_t z, z standard normal per coordinate."""
    t = real_parameter("t", t, 0, sde.t_rev)
    mean = np.asarray(mean_evolution(sde, x0, y, t), dtype=float)
    if not np.all(np.isfinite(mean)):
        raise ParameterError("the kernel mean of x0 and y must be finite")
    return mean + float(sde.sigma(t)) * rng.standard_normal(np.shape(mean))

