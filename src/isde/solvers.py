"""Reverse-time samplers for interpolating SDEs.

All solvers integrate the reverse-time family

    dx = [gamma(t)(y - x) - ((1 + kappa^2)/2) g(t)^2 s(x, y, t)] dt
         + kappa g(t) dw_bar,

from a start time T down to a stop time delta on a strictly decreasing grid;
kappa = 0 is the probability-flow ODE. The exponential integrator
(:func:`isde_solve`, order p in {1, 2}) solves the linear mean-reverting part
exactly through the transition factor Psi and pushes the score term through
exponential-weight integrals; the classical baselines (Euler-Maruyama,
predictor-corrector, explicit midpoint, adaptive embedded RK5(4)) discretize
the whole drift, one function for all four.

Randomness is split into independent per-purpose streams derived from a single
integer seed (spawn keys: 0 initial draw, 1 diffusion increments, 2 corrector
noise), so deterministic and stochastic variants of a run share the same
initial state and runs are reproducible bitwise.
"""

from __future__ import annotations

import functools
import inspect
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import (
    DivergenceError,
    ParameterError,
    ShapeError,
    StiffnessError,
    integer_parameter,
    real_array,
    real_parameter,
    reject_unread,
)
from .quadrature import integrate_batch
from .sde_core import InterpolatingSde
from .score import ScoreModel, score_from_eps

__all__ = [
    "TimeGrid",
    "SolverSpec",
    "SolveOutput",
    "reverse_init",
    "omega_weight",
    "ito_increment",
    "isde_solve",
    "euler_maruyama",
    "pc_sampler",
    "rk2_midpoint",
    "rk45_adaptive",
    "run_solver",
    "nfe_per_step",
]


@dataclass(frozen=True)
class TimeGrid:
    """Strictly decreasing, finite, positive solver grid (nodes, not steps)."""

    times: np.ndarray

    def __post_init__(self):
        t = np.array(self.times, dtype=float, copy=True)
        if t.ndim != 1 or t.size < 2:
            raise ParameterError(f"grid needs a 1-d array of >= 2 nodes, got shape {t.shape}")
        if not np.all(np.isfinite(t)):
            raise ParameterError("grid nodes must be finite")
        if not np.all(np.diff(t) < 0.0):
            raise ParameterError("grid nodes must be strictly decreasing")
        if t[-1] <= 0.0:
            raise ParameterError(f"grid must stop above 0, got {t[-1]!r}")
        t.setflags(write=False)
        object.__setattr__(self, "times", t)

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    @staticmethod
    def uniform(t_start: float, t_end: float, n_nodes: int) -> "TimeGrid":
        n_nodes = integer_parameter("n_nodes", n_nodes, 2)
        t_start, t_end = real_parameter("t_start", t_start), real_parameter("t_end", t_end)
        return TimeGrid(np.linspace(t_start, t_end, n_nodes))

    @classmethod
    def for_sde(cls, sde: InterpolatingSde, n_nodes: int) -> "TimeGrid":
        """Uniform grid from the schedule's reverse start t_rev down to delta."""
        return cls.uniform(sde.t_rev, sde.delta, n_nodes)


@dataclass(frozen=True)
class SolverSpec:
    """Which sampler to run (a kind of :data:`_SOLVERS`) and the keyword arguments of
    its solver besides seed and x_init: a field the kind reads defaults to the
    solver's default and is checked here, the one place that states its interval
    (each solver checks its arguments by building its spec); one it does not read
    stays None, and setting it raises ParameterError naming every such field."""

    kind: str
    p: int | None = None
    kappa: float | None = None
    corrector_stepsize: float | None = None
    rtol: float | None = None
    atol: float | None = None

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _SOLVERS:
            raise ParameterError(
                f"unknown solver kind {self.kind!r}; expected one of {tuple(_SOLVERS)}")
        reads = _KIND_FIELDS[self.kind]
        reject_unread(f"solver kind {self.kind!r}", vars(self), reads)
        for name, default in reads.items():
            value = default if getattr(self, name) is None else getattr(self, name)
            # p is an order in [1, 2]; kappa and corrector_stepsize are >= 0, rtol and atol > 0
            object.__setattr__(self, name, integer_parameter(name, value, 1, 2) if name == "p" else
                               real_parameter(name, value, 0, lo_open=name in ("rtol", "atol")))


@dataclass(frozen=True)
class SolveOutput:
    """Result of one reverse run: endpoint, model calls, seed."""

    final_state: np.ndarray
    nfe: int
    seed: int


def _channel_rng(seed: int, channel: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(channel,)))


def _finite_array(name: str, value) -> np.ndarray:
    """``value`` by the number rule of :func:`real_array`, with every entry finite: a
    non-finite start is an input error, not a divergence."""
    a = real_array(name, value)
    if not np.isfinite(a).all():
        raise ParameterError(f"{name} must hold finite reals only")
    return a


def reverse_init(sde: InterpolatingSde, y, rng: np.random.Generator, shape=None):
    """Draw the reverse-time start x_T = y + sigma(t_rev) z, z standard normal, of
    ``shape`` (default: y's shape), to which y, finite, must broadcast."""
    ya = _finite_array("y", y)
    target = ya.shape if shape is None else tuple(shape)
    try:
        np.broadcast_to(ya, target)
    except ValueError:
        raise ShapeError(f"y shape {ya.shape} does not broadcast to {target}")
    z = rng.standard_normal(target)
    return ya + sde.memo.sigma(sde.t_rev) * z


def _transition_factor(k_to, k_from):
    """Phi = (1 - k(t_to)) / (1 - k(t_from)): the factor by which the linear part
    carries x - y from t_from to t_to."""
    return (1.0 - k_to) / (1.0 - k_from)


def _step_integrals(sde: InterpolatingSde, orders, t_from: np.ndarray,
                    t_to: np.ndarray) -> np.ndarray:
    """The :func:`omega_weight` of every row t_from[i] -> t_to[i], unchecked.

    ``orders`` is one order n in {0, 1} for all rows or one per row. Bundles
    with ``exp_weights`` (fOUVE, OUVE) take the closed forms; the bridges
    (k = t) share one batched quadrature in w = ln((1 - u)/(1 - t_from)), where
    du / (1 - u) = -dw cancels the pole at u = 1, and grids of 41 nodes and
    more need no bisection.
    """
    orders = np.broadcast_to(np.asarray(orders, dtype=int), t_from.shape)
    if sde.exp_weights is not None:
        c, zeta = sde.exp_weights
        out = []
        # math per element: np.exp can differ from math.exp in the last bit, moving the goldens
        for n, th, tl in zip(orders.tolist(), t_from.tolist(), t_to.tolist()):
            h = th - tl
            e_lo = math.exp(zeta * tl)
            growth = math.expm1(zeta * h)
            if n == 0:
                # ascending integral c/zeta (e^{zeta th} - e^{zeta tl}), negated
                out.append(-(c / zeta) * e_lo * growth)
            else:
                # ascending integral about th: c e^{zeta tl} (h - expm1(zeta h)/zeta)/zeta, negated
                out.append(-(c * e_lo / zeta) * (h - growth / zeta))
        return np.array(out)

    v_from = 1.0 - t_from  # u - t_from = -(1 - t_from) expm1(w)

    def integrand(w, rows):
        du = -v_from[rows, None] * np.expm1(w)
        return sde.g(t_from[rows, None] + du) ** 2 / 2.0 * du ** orders[rows, None]

    hi = np.log1p((t_from - t_to) / v_from)
    return -integrate_batch(integrand, np.zeros_like(t_from), hi,
                            abs_tol=1e-14, rel_tol=1e-10).value


def _ito_std(sde: InterpolatingSde, t_from, t_to):
    """:func:`ito_increment` of every step t_from[i] -> t_to[i], unchecked: the variance
    identity I^2 = Phi^2 var(t_from) - var(t_to), with no square, as top^2 (1 - q)(1 + q)."""
    top = _transition_factor(sde.k(t_to), sde.k(t_from)) * np.sqrt(sde.var(t_from))
    q = np.divide(np.sqrt(sde.var(t_to)), top, out=np.zeros_like(top), where=top > 0.0)
    return top * np.sqrt(np.maximum((1.0 - q) * (1.0 + q), 0.0))


def _one_step(sde: InterpolatingSde, t_from, t_to, integral) -> float:
    """``integral`` of the step from t_from down to t_to, as one-element arrays; the
    step is checked against 0 <= t_to <= t_from < t_max."""
    t_from = real_parameter("t_from", t_from, 0, sde.t_max, hi_open=True)
    t_to = real_parameter("t_to", t_to, 0, t_from)
    if t_to == t_from:
        return 0.0
    return float(integral(np.array([t_from]), np.array([t_to]))[0])


def omega_weight(sde: InterpolatingSde, n: int, t_from: float, t_to: float) -> float:
    """Signed exponential weight of order n in {0, 1} of the reverse step from
    t_from down to t_to:

        int_{t_from}^{t_to} [g(u)^2 / (2 (1 - k(u)))] (u - t_from)^n du.

    For n = 0 the integrand is positive, so the descending value is negative;
    for n = 1 the (u - t_from) factor is negative over the step, so the value
    is positive. Closed forms are used for fOUVE and OUVE (integrand
    C e^{zeta u}); the bridges take adaptive quadrature. These are the two
    orders :func:`isde_solve` uses; this is the one-step case of the weights it
    computes per grid.
    """
    n = integer_parameter("weight order n", n, 0, 1)
    return _one_step(sde, t_from, t_to, lambda hi, lo: _step_integrals(sde, n, hi, lo))


def ito_increment(sde: InterpolatingSde, t_from: float, t_to: float) -> float:
    """Standard deviation of the reverse-step stochastic integral (per unit kappa):

        I = (1 - k(t_to)) sqrt( int_{t_to}^{t_from} (g(u) / (1 - k(u)))^2 du ).

    As var' = g^2 - 2 gamma var, d/dt [var / (1 - k)^2] = (g / (1 - k))^2, so every
    schedule takes I from I^2 = Phi^2 var(t_from) - var(t_to) (0 where that rounds
    below 0), with Phi = (1 - k(t_to)) / (1 - k(t_from)) and no quadrature. This is
    the one-step case of the standard deviations :func:`isde_solve` computes per grid.
    """
    return _one_step(sde, t_from, t_to, lambda hi, lo: _ito_std(sde, hi, lo))


def _prepare_state(sde, y, seed, x_init):
    """The start state and y as finite float arrays: x_init, or a draw from the
    seed's channel 0 stream. A start smaller than y (shape () or (1,) under (4,))
    takes y's shape here, in a copy, so x_init is never written."""
    ya = _finite_array("y", y)
    if x_init is None:
        return np.asarray(reverse_init(sde, ya, _channel_rng(seed, 0)), dtype=float), ya
    x = _finite_array("x_init", x_init)
    if x.shape != ya.shape:
        try:
            shape = np.broadcast_shapes(x.shape, ya.shape)
        except ValueError:
            raise ShapeError(f"x_init shape {x.shape} does not broadcast with y shape {ya.shape}")
        if shape != x.shape:
            x = np.broadcast_to(x, shape).copy()
    return x, ya


def _half_log_snr(sde: InterpolatingSde, t):
    return np.log((1.0 - np.asarray(sde.k(t), dtype=float)) / sde.sigma(t))


def _lambda_midpoints(sde: InterpolatingSde, times: np.ndarray,
                      lam: np.ndarray) -> np.ndarray:
    """Stage times t_mid[i] in [times[i + 1], times[i]] where lambda reaches
    the midpoint of the step's node values lam[i] and lam[i + 1].

    Newton's method on lambda' = -g^2 / (2 var) < 0 (as g^2 = var' + 2 gamma var),
    started at each step's midpoint in t: the Newton step of a residual f is
    2 f (sigma / g)^2. The sign of each residual shrinks the stage's bracket, and
    a point that leaves its bracket is replaced by the bracket's midpoint. The
    solve stops once, for every stage, the raw Newton step is at most 1e-10 (the
    error is quadratic in it, so that point is exact to rounding), the bracket
    is at most 1e-14 wide or the residual is within 4 eps of the target's size
    (where lambda is flat to rounding, every point of the band is a root), or
    after 100 rounds. A stop on |dt| <= 1e-14 alone would run to the cap
    wherever lambda's own rounding is larger.
    """
    target = 0.5 * (lam[:-1] + lam[1:])
    lo, hi = times[1:], times[:-1]
    t = 0.5 * (lo + hi)
    for _ in range(100):
        f = _half_log_snr(sde, t) - target  # lambda decreases: f > 0 puts the root above t
        lo, hi = np.where(f >= 0.0, t, lo), np.where(f <= 0.0, t, hi)
        step = 2.0 * f * (sde.sigma(t) / sde.g(t)) ** 2
        new = t + step
        if np.all((np.abs(step) <= 1e-10) | (hi - lo <= 1e-14)
                  | (np.abs(f) <= 4.0 * np.finfo(float).eps * (1.0 + np.abs(target)))):
            break
        t = np.where((lo <= new) & (new <= hi), new, 0.5 * (lo + hi))
    return np.clip(new, lo, hi)


@dataclass(frozen=True)
class _StepPlan:
    """Coefficients of every :func:`isde_solve` step that do not depend on the state.

    Every array has one entry per step (times[i] -> times[i + 1]). With f the
    model output at the step's start (a score or an eps prediction), a step is

        x_mid = phi_mid x + (1 - phi_mid) y + a_mid f               (p = 2)
        x    <- phi x + (1 - phi) y + (1 + kappa^2) c (f w0 + (f - f_mid) / d_mid w1)
                + kappa ito_std z,

    where f_mid is the model output at (x_mid, t_mid) and the w1 term is
    dropped at p = 1. The parameterization changes only the coefficients.
    Fields the order p or kappa does not use are None.
    """

    phi: np.ndarray                      # (1 - k_lo) / (1 - k_hi)
    c: np.ndarray                        # score: 1 - k_lo; eps: -sigma_lo
    w0: np.ndarray                       # score: -omega_0 over the step; eps: expm1(h)
    t_mid: np.ndarray | None = None      # p = 2 stage times
    phi_mid: np.ndarray | None = None    # p = 2: (1 - k(t_mid)) / (1 - k_hi)
    a_mid: np.ndarray | None = None      # p = 2: the stage's coefficient of f
    d_mid: np.ndarray | None = None      # p = 2: t_hi - t_mid, or lambda_hi - lambda_mid = -h/2
    w1: np.ndarray | None = None         # p = 2: score -omega_1 over the step; eps expm1(h) - h
    ito_std: np.ndarray | None = None    # kappa > 0: ito_increment per step, from the variances


def _step_plan(sde: InterpolatingSde, times: np.ndarray, p: int, kappa: float,
               eps_mode: bool) -> _StepPlan:
    """Every state-independent coefficient of an isde_solve run on ``times``.

    Score models are expanded in t: the weights are the omega integrals and
    the p = 2 stage sits at the step's midpoint in t. Eps models are expanded
    in lambda, where (1 - k_lo) omega_0 = sigma_lo expm1(h) and
    (1 - k_lo) omega_1 = sigma_lo (expm1(h) - h) with h = lambda_lo - lambda_hi,
    and the stage sits where lambda reaches the midpoint of the step's values.
    """
    t_hi, t_lo = times[:-1], times[1:]
    k = np.asarray(sde.k(times), dtype=float)
    plan = {"phi": _transition_factor(k[1:], k[:-1])}
    lam = _half_log_snr(sde, times) if eps_mode else None
    if p == 2:
        t_mid = _lambda_midpoints(sde, times, lam) if eps_mode else 0.5 * (t_hi + t_lo)
        k_mid = np.asarray(sde.k(t_mid), dtype=float)
        plan.update(t_mid=t_mid, phi_mid=_transition_factor(k_mid, k[:-1]))
    if kappa > 0.0:
        plan["ito_std"] = _ito_std(sde, t_hi, t_lo)
    if eps_mode:
        h = lam[1:] - lam[:-1]  # positive: lambda decreases with t
        plan.update(c=-np.asarray(sde.sigma(t_lo), dtype=float), w0=np.expm1(h))
        if p == 2:
            # w1 rounds to 0 where lambda is flat to rounding (h = 0): there the step has no
            # slope term, and d_mid = 1 keeps its (f - f_mid) / d_mid from being 0/0
            w1 = plan["w0"] - h
            plan.update(a_mid=-np.asarray(sde.sigma(t_mid), dtype=float) * np.expm1(0.5 * h),
                        d_mid=np.where(w1 == 0.0, 1.0, -0.5 * h), w1=w1)
    else:
        # the omega weights in one call: omega_0, and at p = 2 omega_0 to the stage and omega_1
        rows = [(0, t_lo)] + ([(0, t_mid), (1, t_lo)] if p == 2 else [])
        orders, stops = zip(*rows)
        values = np.split(_step_integrals(sde, np.repeat(orders, t_hi.size),
                                          np.tile(t_hi, len(rows)), np.concatenate(stops)),
                          len(rows))
        plan.update(c=1.0 - k[1:], w0=-values[0])
        if p == 2:
            plan.update(a_mid=(1.0 - k_mid) * -values[1], d_mid=t_hi - t_mid, w1=-values[2])
    return _StepPlan(**plan)


@functools.lru_cache(maxsize=32)
def _plan_for(sde: InterpolatingSde, times_key: bytes, p: int, ito: bool,
              eps_mode: bool) -> tuple:
    """:func:`_step_plan` on the grid whose float64 bytes are ``times_key``, kept for
    later solves with the same key as rows: per step, a tuple of the plan's fields in
    :class:`_StepPlan` order, Python floats (a step reads them one number at a time)
    or None where p or kappa leaves a field unused. The plan reads kappa only through
    kappa > 0 (``ito``), so the key holds that and not kappa."""
    plan = _step_plan(sde, np.frombuffer(times_key), p, float(ito), eps_mode)
    n = plan.phi.size
    return tuple(zip(*([None] * n if a is None else a.tolist() for a in vars(plan).values())))


def _all_finite(x) -> bool:
    """Whether every entry of x is finite. A finite sum implies finite entries, so the
    entrywise test runs only when the one reduction (``x.sum()`` without its Python
    wrapper) is not finite, which finite entries whose sum overflows also give."""
    return math.isfinite(np.add.reduce(x, None)) or bool(np.isfinite(x).all())


@contextmanager
def _overflow_as_divergence(kind: str):
    """Run a solve with NumPy float warnings off (a state that overflows ends in
    the finite checks' DivergenceError) and a Python-float OverflowError, where
    NumPy would give inf, turned into DivergenceError."""
    try:
        with np.errstate(all="ignore"):
            yield
    except OverflowError as e:
        raise DivergenceError(f"{kind} solve overflowed: {e}") from e


def _solve_on_grid(spec: SolverSpec, sde: InterpolatingSde, y, grid: TimeGrid, seed, x_init,
                   make_step) -> SolveOutput:
    """Run a fixed-grid solver of the spec's kind: everything except its step rule.

    After the grid check and the start draw, ``make_step(ya, rng)`` builds the
    step from y as an array; ``rng(channel)`` makes the seed's stream for a
    channel (1 diffusion increments, 2 corrector noise), so a step makes only
    the streams it draws from. ``make_step`` runs before the first model call,
    so state-independent set-up belongs there. ``step(i, x, t_hi, t_lo)`` returns the state at node
    i + 1. The call count is the spec's calls per step (:func:`nfe_per_step`)
    times the number of steps. A run whose arithmetic overflows raises
    DivergenceError, with no float warnings on the way.
    """
    if grid.times[0] > sde.t_rev + 1e-12:
        raise ParameterError(
            f"grid starts at {grid.times[0]!r}, above the reverse start t_rev={sde.t_rev!r}")
    seed = integer_parameter("seed", seed, 0)
    times = grid.times.tolist()
    with _overflow_as_divergence(spec.kind):
        x, ya = _prepare_state(sde, y, seed, x_init)
        step = make_step(ya, lambda channel: _channel_rng(seed, channel))
        for i in range(grid.n_steps):
            tl = times[i + 1]
            x = step(i, x, times[i], tl)
            if not _all_finite(x):
                raise DivergenceError(f"{spec.kind} state became non-finite at t={tl!r}",
                                      step_index=i, time=tl)
    return SolveOutput(final_state=x, nfe=nfe_per_step(spec) * grid.n_steps, seed=seed)


def isde_solve(sde: InterpolatingSde, model: ScoreModel, y, grid: TimeGrid,
               p: int = 1, kappa: float = 0.0, seed: int = 0, x_init=None) -> SolveOutput:
    """Exponential integrator of order p in {1, 2} for the reverse family.

    Each step solves the linear part exactly and integrates the model output
    against exponential weights; p = 2 adds a midpoint stage whose finite
    difference supplies the output's derivative. Score-parameterized models
    are expanded in t, eps-parameterized ones in the half-log-SNR variable
    lambda = ln((1 - k)/sigma). Both take the same step rule and differ only in
    its coefficients, which are computed for the whole grid before the first
    step (:func:`_step_plan`) and reused by later solves with the same bundle,
    grid, p, kappa > 0 and parameterization (:func:`_plan_for`). The state has its
    full shape before the first model call (:func:`_prepare_state`), and the step adds
    each model output into it in place: one that would grow it raises ShapeError.
    """
    spec = SolverSpec("isde", p=p, kappa=kappa)
    p, kappa = spec.p, spec.kappa
    eps_mode = getattr(model, "parameterization", "score") == "eps"

    def make_step(ya, rng):
        rows = _plan_for(sde, grid.times.tobytes(), p, kappa > 0.0, eps_mode)
        rng_ito = rng(1) if kappa > 0.0 else None
        yv = float(ya) if ya.ndim == 0 else ya  # the model still gets ya itself

        def output(x, t):
            """The model's output at (x, t), as a float array that adds into x in place."""
            f = np.asarray(model(x, ya, t), dtype=float)
            if f.shape != x.shape:
                try:
                    np.broadcast_to(f, x.shape)
                except ValueError:
                    raise ShapeError(f"model output shape {f.shape} does not broadcast to the "
                                     f"state shape {x.shape}") from None
            return f

        # Each update takes the operations of the step formula (_StepPlan) in their
        # written order, accumulated in place in the step's own temporaries: x and the
        # model's outputs are never written.
        def step(i, x, th, tl):
            phi, c, w0, t_mid, phi_mid, a_mid, d_mid, w1, ito_std = rows[i]
            f = output(x, th)
            if p == 1:
                corr = f * w0
            else:
                x_mid = phi_mid * x
                x_mid += (1.0 - phi_mid) * yv
                x_mid += a_mid * f
                f_mid = output(x_mid, t_mid)
                # f w0 after the stage, as written: at 1e5 paths the order of the
                # allocations, not their number, sets a solve's page faults
                corr = f * w0
                slope = f - f_mid
                slope /= d_mid
                slope *= w1
                corr += slope
            corr *= (1.0 + kappa ** 2) * c
            x = phi * x
            x += (1.0 - phi) * yv
            x += corr
            if kappa > 0.0:
                z = rng_ito.standard_normal(np.shape(x))
                z *= kappa * ito_std
                x += z
            return x

        return step

    return _solve_on_grid(spec, sde, y, grid, seed, x_init, make_step)


def _score_eval(model: ScoreModel, sde: InterpolatingSde):
    """Evaluate a model as a score regardless of its parameterization (an eps model
    through :func:`score_from_eps`, which reads sigma from the bundle's memo)."""
    if getattr(model, "parameterization", "score") == "eps":
        return score_from_eps(model, sde)

    def fn(x, y, t):
        return np.asarray(model(x, y, t), dtype=float)
    return fn


def _reverse_drift(sde: InterpolatingSde, score, ya, kappa: float):
    """Drift gamma (y - x) - ((1 + kappa^2)/2) g^2 s of the reverse family, as f(x, t),
    with s the score function of :func:`_score_eval` and t a float; gamma(t) and g(t)
    come from the bundle's memo, so all its solves read them once per distinct t."""
    half = 0.5 * (1.0 + kappa ** 2)
    gamma, g = sde.memo.gamma, sde.memo.g

    def drift(x, t):
        return gamma(t) * (ya - x) - half * g(t) ** 2 * score(x, ya, t)
    return drift


def _em_step(sde: InterpolatingSde, score, ya, kappa: float, rng):
    """Euler-Maruyama step of the reverse family; kappa > 0 draws from channel 1."""
    drift = _reverse_drift(sde, score, ya, kappa)
    rng_ito = rng(1) if kappa > 0.0 else None

    def step(i, x, th, tl):
        dt = tl - th  # negative
        x = x + drift(x, th) * dt
        if kappa > 0.0:
            x = x + kappa * sde.memo.g(th) * math.sqrt(-dt) * rng_ito.standard_normal(np.shape(x))
        return x
    return step


def euler_maruyama(sde: InterpolatingSde, model: ScoreModel, y, grid: TimeGrid,
                   kappa: float = 1.0, seed: int = 0, x_init=None) -> SolveOutput:
    """Euler-Maruyama discretization of the reverse family (kappa = 0: Euler ODE).

    One model call per step, evaluated at the left (larger-time) node.
    """
    spec = SolverSpec("euler_maruyama", kappa=kappa)
    score = _score_eval(model, sde)
    return _solve_on_grid(spec, sde, y, grid, seed, x_init,
                          lambda ya, rng: _em_step(sde, score, ya, spec.kappa, rng))


def pc_sampler(sde: InterpolatingSde, model: ScoreModel, y, grid: TimeGrid,
               corrector_stepsize: float = 0.5, seed: int = 0, x_init=None) -> SolveOutput:
    """Predictor-corrector sampler: Euler-Maruyama (kappa = 1) predictor plus
    one Langevin corrector sweep per node.

    The corrector step size is eta = 2 (r sigma(t))^2 with r the
    corrector_stepsize ratio; r = 0 reproduces the predictor exactly (the
    corrector model call still happens, so NFE is 2 per step). Corrector noise
    comes from its own stream, leaving the predictor's draws unchanged. The
    predictor and the corrector share one score view, and eta reads sigma from
    the bundle's memo, which an eps model's view reads too.
    """
    spec = SolverSpec("pc", corrector_stepsize=corrector_stepsize)
    r = spec.corrector_stepsize
    score = _score_eval(model, sde)

    def make_step(ya, rng):
        predict, rng_corr = _em_step(sde, score, ya, 1.0, rng), rng(2)

        def step(i, x, th, tl):
            x = predict(i, x, th, tl)
            eta = 2.0 * (r * sde.memo.sigma(tl)) ** 2
            # the score as a temporary, so NumPy reuses its buffer for eta * score
            return (x + eta * score(x, ya, tl)
                    + math.sqrt(2.0 * eta) * rng_corr.standard_normal(np.shape(x)))
        return step

    return _solve_on_grid(spec, sde, y, grid, seed, x_init, make_step)


def rk2_midpoint(sde: InterpolatingSde, model: ScoreModel, y, grid: TimeGrid,
                 seed: int = 0, x_init=None) -> SolveOutput:
    """Explicit midpoint rule on the probability-flow ODE (two model calls per step)."""
    def make_step(ya, rng):
        rhs = _reverse_drift(sde, _score_eval(model, sde), ya, 0.0)

        def step(i, x, th, tl):
            dt = tl - th
            x_mid = x + 0.5 * dt * rhs(x, th)
            return x + dt * rhs(x_mid, 0.5 * (th + tl))
        return step

    return _solve_on_grid(SolverSpec("rk2"), sde, y, grid, seed, x_init, make_step)


# Dormand-Prince 5(4) tableau; the last row of _DP_A holds the fifth-order weights
_DP_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0)
_DP_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
)
_DP_B4 = (5179.0 / 57600.0, 0.0, 7571.0 / 16695.0, 393.0 / 640.0,
          -92097.0 / 339200.0, 187.0 / 2100.0, 1.0 / 40.0)
_RK45_MAX_ATTEMPTS = 10_000  # attempted steps before rk45_adaptive raises StiffnessError


def rk45_adaptive(sde: InterpolatingSde, model: ScoreModel, y, t_start: float,
                  t_end: float, rtol: float = 1e-5, atol: float = 1e-5,
                  seed: int = 0, x_init=None) -> SolveOutput:
    """Adaptive embedded RK5(4) on the probability-flow ODE, integrating from
    t_start down to t_end with a PI step controller.

    Seven model calls per attempted step. Raises StiffnessError after
    ``_RK45_MAX_ATTEMPTS`` (10,000) attempted steps or when the step size
    underflows, DivergenceError when a stage derivative becomes non-finite; a
    non-finite state does that, as gamma > 0 carries it into the drift.
    """
    spec = SolverSpec("rk45", rtol=rtol, atol=atol)
    rtol, atol = spec.rtol, spec.atol
    t_start = real_parameter("t_start", t_start, 0, sde.t_rev + 1e-12, lo_open=True)
    t_end = real_parameter("t_end", t_end, 0, t_start, lo_open=True, hi_open=True)
    seed = integer_parameter("seed", seed, 0)
    t = t_start
    h = (t_end - t_start) / 100.0  # negative
    err_prev = 1.0
    attempts = 0
    # an accepted step can land within one ulp of t_end; treat that as arrival
    # so the final clamped step cannot underflow
    done_gap = 1e-13 * max(abs(t_start), abs(t_end), 1.0)
    with _overflow_as_divergence(spec.kind):
        x, ya = _prepare_state(sde, y, seed, x_init)
        rhs = _reverse_drift(sde, _score_eval(model, sde), ya, 0.0)
        while t - t_end > done_gap:
            if attempts >= _RK45_MAX_ATTEMPTS:
                raise StiffnessError(
                    f"step budget {_RK45_MAX_ATTEMPTS} exhausted at t={t!r} "
                    f"(rtol={rtol!r}, atol={atol!r})")
            if t + h < t_end:
                h = t_end - t
            if abs(h) < 1e-14 * max(abs(t), 1.0):
                raise StiffnessError(f"step size underflow at t={t!r} (h={h!r})")

            stages = []
            for idx in range(7):
                xi = x
                for j, a in enumerate(_DP_A[idx]):
                    if a != 0.0:
                        xi = xi + h * a * stages[j]
                ki = rhs(xi, t + _DP_C[idx] * h)
                if not _all_finite(ki):
                    raise DivergenceError(f"{spec.kind} stage derivative non-finite at t={t!r}",
                                          step_index=attempts, time=t)
                stages.append(ki)
            attempts += 1

            x5 = xi  # the last row of _DP_A is the fifth-order solution, the last stage's input
            x4 = x
            for j in range(7):
                if _DP_B4[j] != 0.0:
                    x4 = x4 + h * _DP_B4[j] * stages[j]

            scale = atol + rtol * np.maximum(np.abs(x), np.abs(x5))
            diff = (x5 - x4) / scale
            err = math.sqrt(float(np.mean(np.square(diff))))
            if err <= 1.0:
                t = t + h
                x = x5
                err = max(err, 1e-10)
                fac = 0.9 * err ** -0.14 * err_prev ** 0.08
                fac = min(10.0, max(0.2, fac))
                err_prev = err
                h = h * fac
            else:
                fac = max(0.2, 0.9 * err ** -0.2)
                h = h * fac
    return SolveOutput(final_state=x, nfe=len(_DP_C) * attempts, seed=seed)


# Every solver kind: (the name of its solver, its model calls per grid step as a
# function of the order p, None for the adaptive rk45).
_SOLVERS = {
    "isde": ("isde_solve", lambda p: p),
    "euler_maruyama": ("euler_maruyama", lambda p: 1),
    "pc": ("pc_sampler", lambda p: 2),
    "rk2": ("rk2_midpoint", lambda p: 2),
    "rk45": ("rk45_adaptive", None),
}
# The SolverSpec fields each kind reads, with their defaults: its solver's keyword
# arguments besides seed and x_init, read here, before a tracer can rebind a solver
# to a wrapper whose signature is (*args, **kwargs).
_KIND_FIELDS = {
    kind: {q.name: q.default for q in inspect.signature(globals()[name]).parameters.values()
           if q.default is not q.empty and q.name not in ("seed", "x_init")}
    for kind, (name, _) in _SOLVERS.items()
}


def run_solver(sde: InterpolatingSde, model: ScoreModel, y, grid: TimeGrid,
               spec: SolverSpec, seed: int = 0, x_init=None) -> SolveOutput:
    """One reverse run by the solver of ``spec.kind``, given the spec fields it reads.

    "rk45" is given only the grid's two ends (it chooses its steps adaptively).
    The solver is looked up by name at each call, so a rebound module-level
    solver also serves run_solver.
    """
    name, calls = _SOLVERS[spec.kind]
    span = (grid,) if calls is not None else (float(grid.times[0]), float(grid.times[-1]))
    return globals()[name](sde, model, y, *span, seed=seed, x_init=x_init,
                           **{f: getattr(spec, f) for f in _KIND_FIELDS[spec.kind]})


def nfe_per_step(spec: SolverSpec):
    """Model calls per grid step for fixed-grid solvers; None for adaptive ones."""
    calls = _SOLVERS[spec.kind][1]
    return None if calls is None else calls(spec.p)
