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
the whole right-hand side.

Randomness is split into independent per-purpose streams derived from a single
integer seed (spawn keys: 0 initial draw, 1 diffusion increments, 2 corrector
noise), so deterministic and stochastic variants of a run share the same
initial state and trajectories are reproducible bitwise.
"""

from __future__ import annotations

import math
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
)
from .quadrature import integrate_batch
from .sde_core import InterpolatingSde, SdeKind
from .score import ScoreModel, score_from_eps

__all__ = [
    "TimeGrid",
    "SolverSpec",
    "SolveOutput",
    "reverse_init",
    "linear_step",
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


def _check_order(p) -> int:
    """The order p of :func:`isde_solve`: the integer 1 or 2 (not a bool or a float)."""
    if isinstance(p, bool) or not isinstance(p, (int, np.integer)) or p not in (1, 2):
        raise ParameterError(f"p must be the integer 1 or 2, got {p!r}")
    return int(p)


def _nonnegative_real(name: str, value) -> float:
    value = real_parameter(name, value)
    if not (math.isfinite(value) and value >= 0.0):
        raise ParameterError(f"{name} must be a nonnegative finite real, got {value!r}")
    return value


@dataclass(frozen=True)
class SolverSpec:
    """Which sampler to run and its tuning knobs.

    kind is one of "isde", "euler_maruyama", "pc", "rk2", "rk45". Fields not
    read by the chosen kind are ignored (p and kappa drive "isde", kappa
    drives "euler_maruyama", corrector_stepsize drives "pc", rtol/atol drive
    "rk45").
    """

    kind: str
    p: int = 1
    kappa: float = 0.0
    corrector_stepsize: float = 0.5
    rtol: float = 1e-5
    atol: float = 1e-5

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _SOLVERS:
            raise ParameterError(
                f"unknown solver kind {self.kind!r}; expected one of {tuple(_SOLVERS)}")
        _check_order(self.p)
        for name in ("kappa", "corrector_stepsize"):
            object.__setattr__(self, name, _nonnegative_real(name, getattr(self, name)))
        for name in ("rtol", "atol"):
            object.__setattr__(self, name, real_parameter(name, getattr(self, name)))
        if not (self.rtol > 0.0 and self.atol > 0.0):
            raise ParameterError(
                f"rtol and atol must be positive, got {self.rtol!r}, {self.atol!r}")


@dataclass(frozen=True)
class SolveOutput:
    """Result of one reverse run: endpoint, optional node states, model calls, seed."""

    final_state: np.ndarray
    trajectory: np.ndarray | None
    nfe: int
    seed: int


def _channel_rng(seed: int, channel: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(channel,)))


def reverse_init(sde: InterpolatingSde, y, rng: np.random.Generator, shape=None):
    """Draw the reverse-time start x_T = y + sigma(t_rev) z, z standard normal."""
    ya = real_array("y", y)
    target = ya.shape if shape is None else tuple(shape)
    try:
        np.broadcast_shapes(ya.shape, target)
    except ValueError:
        raise ShapeError(f"y shape {ya.shape} does not broadcast to {target}")
    z = rng.standard_normal(target)
    return ya + float(sde.sigma(sde.t_rev)) * z


def _transition_factor(k_to, k_from):
    """Phi = (1 - k(t_to)) / (1 - k(t_from)): the factor by which the linear part
    carries x - y from t_from to t_to."""
    return (1.0 - k_to) / (1.0 - k_from)


def linear_step(sde: InterpolatingSde, x, y, t_from: float, t_to: float):
    """Exact update of the score-free linear part between two times.

    x(t_to) = Phi x(t_from) + (1 - Phi) y with
    Phi = (1 - k(t_to)) / (1 - k(t_from)); integrating backward (t_to < t_from)
    gives Phi > 1, expanding the state away from y.
    """
    t_from = real_parameter("t_from", t_from)
    t_to = real_parameter("t_to", t_to)
    if max(t_from, t_to) >= sde.t_max:
        raise ParameterError(f"times must be below the horizon t_max={sde.t_max!r}")
    k_from = float(sde.k(t_from))
    if k_from >= 1.0:
        raise ParameterError(f"k(t_from) reached 1 at t_from={t_from!r}")
    phi = _transition_factor(float(sde.k(t_to)), k_from)
    xa = real_array("x", x)
    ya = real_array("y", y)
    try:
        np.broadcast_shapes(xa.shape, ya.shape)
    except ValueError:
        raise ShapeError(f"x shape {xa.shape} and y shape {ya.shape} do not broadcast")
    out = phi * xa + (1.0 - phi) * ya
    return out if out.ndim else float(out)


def _omega_constants(sde: InterpolatingSde):
    """(C, zeta) with g^2 / (2 (1 - k)) = C e^{zeta t}, for kinds with a closed form."""
    p = sde.params
    if p.kind not in (SdeKind.FOUVE, SdeKind.OUVE):
        return None
    rho = math.log(p.sigma_max / p.sigma_min)
    zeta = 2.0 * rho + p.gamma0
    if p.kind is SdeKind.FOUVE:
        c = p.sigma_min ** 2 * (rho + p.gamma0)
    else:
        c = p.sigma_min ** 2 * rho
    return c, zeta


def _omega_weights(sde: InterpolatingSde, n, t_from: np.ndarray, t_to: np.ndarray,
                   abs_tol: float = 1e-14, rel_tol: float = 1e-10) -> np.ndarray:
    """:func:`omega_weight` of every step t_from[i] -> t_to[i], unchecked.

    ``n`` is one order for all steps or one per step; without a closed form,
    all steps share one batched quadrature.
    """
    n = np.broadcast_to(np.asarray(n, dtype=int), t_from.shape)
    closed = _omega_constants(sde)
    if closed is not None and np.all(n <= 1):
        c, zeta = closed
        out = []
        for order, th, tl in zip(n.tolist(), t_from.tolist(), t_to.tolist()):
            h = th - tl
            e_lo = math.exp(zeta * tl)
            growth = math.expm1(zeta * h)
            if order == 0:
                # ascending integral c/zeta (e^{zeta th} - e^{zeta tl}), negated
                out.append(-(c / zeta) * e_lo * growth)
            else:
                # ascending integral about th: c e^{zeta tl} (h - expm1(zeta h)/zeta)/zeta, negated
                out.append(-(c * e_lo / zeta) * (h - growth / zeta))
        return np.array(out)

    fact = np.array([math.factorial(order) for order in n.tolist()], dtype=float)

    def integrand(u, rows):
        base = sde.g(u) ** 2 / (2.0 * (1.0 - sde.k(u)))
        return base * (u - t_from[rows, None]) ** n[rows, None] / fact[rows, None]

    res = integrate_batch(integrand, t_to, t_from, abs_tol=abs_tol, rel_tol=rel_tol)
    return -res.value


def _ito_stds(sde: InterpolatingSde, t_from: np.ndarray, t_to: np.ndarray,
              abs_tol: float = 1e-14, rel_tol: float = 1e-10) -> np.ndarray:
    """:func:`ito_increment` of every step (t_from[i] -> t_to[i]), unchecked."""
    p = sde.params
    omk_lo = 1.0 - np.asarray(sde.k(t_to), dtype=float)
    if p.kind in (SdeKind.FOUVE, SdeKind.OUVE):
        rho = math.log(p.sigma_max / p.sigma_min)
        zeta2 = 2.0 * (rho + p.gamma0)
        out = []
        for th, tl, omk in zip(t_from.tolist(), t_to.tolist(), omk_lo.tolist()):
            span = math.exp(zeta2 * th) - math.exp(zeta2 * tl)
            base = p.sigma_min * omk * math.sqrt(span)
            if p.kind is SdeKind.OUVE:
                base *= math.sqrt(rho / (rho + p.gamma0))
            out.append(base)
        return np.array(out)

    def integrand(u, rows):
        return (sde.g(u) / (1.0 - sde.k(u))) ** 2

    res = integrate_batch(integrand, t_to, t_from, abs_tol=abs_tol, rel_tol=rel_tol)
    return omk_lo * np.sqrt(np.maximum(res.value, 0.0))


def _downward_interval(name: str, sde: InterpolatingSde, t_from, t_to):
    """(t_from, t_to) as floats for the downward integral ``name``, checked
    against 0 <= t_to <= t_from < t_max."""
    t_from = real_parameter("t_from", t_from)
    t_to = real_parameter("t_to", t_to)
    if t_to > t_from:
        raise ParameterError(
            f"{name} integrates downward, need t_to <= t_from, "
            f"got t_to={t_to!r} > t_from={t_from!r}")
    if t_to < 0.0 or t_from >= sde.t_max:
        raise ParameterError(f"times must satisfy 0 <= t_to <= t_from < t_max={sde.t_max!r}")
    return t_from, t_to


def omega_weight(sde: InterpolatingSde, n: int, t_from: float, t_to: float,
                 abs_tol: float = 1e-14, rel_tol: float = 1e-10) -> float:
    """Signed exponential weight of the reverse step from t_from down to t_to:

        int_{t_from}^{t_to} [g(u)^2 / (2 (1 - k(u)))] (u - t_from)^n / n! du.

    For n = 0 the integrand is positive, so the descending value is negative;
    for n = 1 the (u - t_from) factor is negative over the step, so the value
    is positive. Closed forms are used for fOUVE and OUVE (integrand
    C e^{zeta u}); other kinds fall back to adaptive quadrature. This is the
    one-step case of the weights :func:`isde_solve` computes per grid.
    """
    n = integer_parameter("weight order n", n, 0)
    t_from, t_to = _downward_interval("omega_weight", sde, t_from, t_to)
    if t_to == t_from:
        return 0.0
    return float(_omega_weights(sde, n, np.array([t_from]), np.array([t_to]),
                                abs_tol=abs_tol, rel_tol=rel_tol)[0])


def ito_increment(sde: InterpolatingSde, t_from: float, t_to: float,
                  abs_tol: float = 1e-14, rel_tol: float = 1e-10) -> float:
    """Standard deviation of the reverse-step stochastic integral (per unit kappa):

        I = (1 - k(t_to)) sqrt( int_{t_to}^{t_from} (g(u) / (1 - k(u)))^2 du ),

    satisfying I^2 = Phi^2 var(t_from) - var(t_to) with
    Phi = (1 - k(t_to)) / (1 - k(t_from)). Closed forms for fOUVE and OUVE,
    quadrature otherwise.
    """
    t_from, t_to = _downward_interval("ito_increment", sde, t_from, t_to)
    if t_to == t_from:
        return 0.0
    return float(_ito_stds(sde, np.array([t_from]), np.array([t_to]),
                           abs_tol=abs_tol, rel_tol=rel_tol)[0])


def _prepare_state(sde, y, seed, x_init):
    """The start state and y as float arrays: a copy of x_init, or a draw from
    the seed's channel 0 stream."""
    ya = real_array("y", y)
    if x_init is None:
        return np.asarray(reverse_init(sde, ya, _channel_rng(seed, 0)), dtype=float), ya
    x = real_array("x_init", x_init)
    try:
        np.broadcast_shapes(x.shape, ya.shape)
    except ValueError:
        raise ShapeError(f"x_init shape {x.shape} does not broadcast with y shape {ya.shape}")
    return x, ya


def _check_grid(sde: InterpolatingSde, grid: TimeGrid):
    if grid.times[0] > sde.t_rev + 1e-12:
        raise ParameterError(
            f"grid starts at {grid.times[0]!r}, above the reverse start "
            f"t_rev={sde.t_rev!r}")


def _check_finite(x, step_index: int, t: float):
    if not np.all(np.isfinite(x)):
        raise DivergenceError(f"state became non-finite at t={t!r}",
                              step_index=step_index, time=t)


def _half_log_snr(sde: InterpolatingSde, t):
    return np.log((1.0 - np.asarray(sde.k(t), dtype=float)) / sde.sigma(t))


def _lambda_midpoints(sde: InterpolatingSde, times: np.ndarray,
                      lam: np.ndarray) -> np.ndarray:
    """Stage times t_mid[i] in [times[i + 1], times[i]] where lambda reaches
    the midpoint of the step's node values lam[i] and lam[i + 1].

    lambda is strictly decreasing in t, so every root is bracketed by its
    step. All brackets shrink at once until each is at most xtol = 1e-14 wide
    (or 100 rounds pass): each round evaluates an Illinois false-position
    point and, as in Brent's method, a point xtol/2 from it towards the
    farther end, which closes the bracket once the first point is that close
    to the root. The root is read off the secant through the final bracket.
    """
    xtol = 1e-14
    target = 0.5 * (lam[:-1] + lam[1:])
    lo, hi = times[1:], times[:-1]
    f_lo = lam[1:] - target  # positive
    f_hi = lam[:-1] - target  # negative
    w_lo = np.ones_like(lo)  # Illinois weights: the end kept twice in a row is halved
    w_hi = np.ones_like(hi)
    last = np.zeros(lo.shape, dtype=int)  # 1: lo moved last, -1: hi moved last
    for _ in range(100):
        open_ = hi - lo > xtol
        if not open_.any():
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            t = lo + w_lo * f_lo * (hi - lo) / (w_lo * f_lo - w_hi * f_hi)
        t = np.where(np.isfinite(t), np.clip(t, lo, hi), 0.5 * (lo + hi))
        nudge = np.clip(t + np.where(hi - t > t - lo, 0.5, -0.5) * xtol, lo, hi)
        ft, f_nudge = np.split(_half_log_snr(sde, np.concatenate([t, nudge]))
                               - np.concatenate([target, target]), 2)
        up = open_ & (ft >= 0.0)
        down = open_ & (ft < 0.0)
        w_hi = np.where(down, 1.0, np.where(up & (last == 1), 0.5 * w_hi, w_hi))
        w_lo = np.where(up, 1.0, np.where(down & (last == -1), 0.5 * w_lo, w_lo))
        last = np.where(up, 1, np.where(down, -1, last))
        for point, fp in ((t, ft), (nudge, f_nudge)):
            up = open_ & (fp >= 0.0) & (point > lo)
            down = open_ & (fp <= 0.0) & (point < hi)
            lo, f_lo = np.where(up, point, lo), np.where(up, fp, f_lo)
            hi, f_hi = np.where(down, point, hi), np.where(down, fp, f_hi)
    span = f_lo - f_hi
    frac = np.divide(f_lo, span, out=np.zeros_like(span), where=span != 0.0)
    return lo + frac * (hi - lo)


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
    ito_std: np.ndarray | None = None    # kappa > 0: ito_increment per step


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
    if eps_mode:
        h = lam[1:] - lam[:-1]  # positive: lambda decreases with t
        plan.update(c=-np.asarray(sde.sigma(t_lo), dtype=float), w0=np.expm1(h))
        if p == 2:
            plan.update(a_mid=-np.asarray(sde.sigma(t_mid), dtype=float) * np.expm1(0.5 * h),
                        d_mid=-0.5 * h, w1=plan["w0"] - h)
    elif p == 1:
        plan.update(c=1.0 - k[1:], w0=-_omega_weights(sde, 0, t_hi, t_lo))
    else:
        weights = -_omega_weights(sde, np.repeat([0, 0, 1], t_hi.size), np.tile(t_hi, 3),
                                  np.concatenate([t_lo, t_mid, t_lo]))
        w0, w0_half, w1 = np.split(weights, 3)
        plan.update(c=1.0 - k[1:], w0=w0, a_mid=(1.0 - k_mid) * w0_half,
                    d_mid=t_hi - t_mid, w1=w1)
    if kappa > 0.0:
        plan["ito_std"] = _ito_stds(sde, t_hi, t_lo)
    return _StepPlan(**plan)


def _solve_on_grid(kind: str, sde: InterpolatingSde, y, grid: TimeGrid, seed, x_init,
                   keep_trajectory: bool, make_step, p: int = 1) -> SolveOutput:
    """Run a fixed-grid solver of the given kind: everything except its step rule.

    After the grid check and the start draw, ``make_step(ya, rng)`` builds the
    step from y as an array; ``rng(channel)`` makes the seed's stream for a
    channel (1 diffusion increments, 2 corrector noise), so a step makes only
    the streams it draws from. ``make_step`` runs before the first model call,
    so state-independent set-up belongs there. ``step(i, x, t_hi, t_lo)`` returns the state at node
    i + 1. The call count is the kind's calls per step (:data:`_SOLVERS`)
    times the number of steps.
    """
    _check_grid(sde, grid)
    seed = integer_parameter("seed", seed, 0)
    x, ya = _prepare_state(sde, y, seed, x_init)
    step = make_step(ya, lambda channel: _channel_rng(seed, channel))
    times = grid.times
    traj = [np.array(x, copy=True)] if keep_trajectory else None
    for i in range(grid.n_steps):
        tl = float(times[i + 1])
        x = step(i, x, float(times[i]), tl)
        _check_finite(x, i, tl)
        if keep_trajectory:
            traj.append(np.array(x, copy=True))
    trajectory = np.array(traj) if keep_trajectory else None
    nfe = _SOLVERS[kind][0](p) * grid.n_steps
    return SolveOutput(final_state=x, trajectory=trajectory, nfe=nfe, seed=seed)


def isde_solve(sde: InterpolatingSde, model: ScoreModel, y, grid: TimeGrid,
               p: int = 1, kappa: float = 0.0, seed: int = 0, x_init=None,
               keep_trajectory: bool = False) -> SolveOutput:
    """Exponential integrator of order p in {1, 2} for the reverse family.

    Each step solves the linear part exactly and integrates the model output
    against exponential weights; p = 2 adds a midpoint stage whose finite
    difference supplies the output's derivative. Score-parameterized models
    are expanded in t, eps-parameterized ones in the half-log-SNR variable
    lambda = ln((1 - k)/sigma). Both take the same step rule and differ only in
    its coefficients, which are computed for the whole grid before the first
    step (:func:`_step_plan`).
    """
    p = _check_order(p)
    kappa = _nonnegative_real("kappa", kappa)
    eps_mode = getattr(model, "parameterization", "score") == "eps"

    def make_step(ya, rng):
        plan = _step_plan(sde, grid.times, p, kappa, eps_mode)
        phi, c, w0 = plan.phi, plan.c, plan.w0
        rng_ito = rng(1) if kappa > 0.0 else None

        def step(i, x, th, tl):
            f = np.asarray(model(x, ya, th), dtype=float)
            if p == 1:
                corr = f * w0[i]
            else:
                phi_m = plan.phi_mid[i]
                x_mid = phi_m * x + (1.0 - phi_m) * ya + plan.a_mid[i] * f
                f_mid = np.asarray(model(x_mid, ya, float(plan.t_mid[i])), dtype=float)
                corr = f * w0[i] + (f - f_mid) / plan.d_mid[i] * plan.w1[i]
            x = phi[i] * x + (1.0 - phi[i]) * ya + (1.0 + kappa ** 2) * c[i] * corr
            if kappa > 0.0:
                x = x + kappa * plan.ito_std[i] * rng_ito.standard_normal(np.shape(x))
            return x

        return step

    return _solve_on_grid("isde", sde, y, grid, seed, x_init, keep_trajectory, make_step, p=p)


def _score_eval(model: ScoreModel, sde: InterpolatingSde):
    """Evaluate a model as a score regardless of its parameterization."""
    if getattr(model, "parameterization", "score") == "eps":
        return score_from_eps(model, sde)

    def fn(x, y, t):
        return np.asarray(model(x, y, t), dtype=float)
    return fn


def _flow_rhs(sde: InterpolatingSde, model: ScoreModel, ya):
    """Right-hand side gamma (y - x) - g^2 s / 2 of the probability-flow ODE, as f(x, t)."""
    score = _score_eval(model, sde)

    def rhs(state, t):
        return np.asarray(float(sde.gamma(t)) * (ya - state)
                          - 0.5 * float(sde.g(t)) ** 2 * score(state, ya, t), dtype=float)
    return rhs


def euler_maruyama(sde: InterpolatingSde, model: ScoreModel, y, grid: TimeGrid,
                   kappa: float = 1.0, seed: int = 0, x_init=None,
                   keep_trajectory: bool = False) -> SolveOutput:
    """Euler-Maruyama discretization of the reverse family (kappa = 0: Euler ODE).

    One model call per step, evaluated at the left (larger-time) node.
    """
    kappa = _nonnegative_real("kappa", kappa)
    score = _score_eval(model, sde)

    def make_step(ya, rng):
        rng_ito = rng(1) if kappa > 0.0 else None

        def step(i, x, th, tl):
            dt = tl - th  # negative
            s = score(x, ya, th)
            g2 = float(sde.g(th)) ** 2
            rhs = float(sde.gamma(th)) * (ya - x) - 0.5 * (1.0 + kappa ** 2) * g2 * s
            x = x + rhs * dt
            if kappa > 0.0:
                x = x + kappa * float(sde.g(th)) * math.sqrt(-dt) \
                    * rng_ito.standard_normal(np.shape(x))
            return x
        return step

    return _solve_on_grid("euler_maruyama", sde, y, grid, seed, x_init, keep_trajectory,
                          make_step)


def pc_sampler(sde: InterpolatingSde, model: ScoreModel, y, grid: TimeGrid,
               corrector_stepsize: float = 0.5, seed: int = 0, x_init=None,
               keep_trajectory: bool = False) -> SolveOutput:
    """Predictor-corrector sampler: Euler-Maruyama (kappa = 1) predictor plus
    one Langevin corrector sweep per node.

    The corrector step size is eta = 2 (r sigma(t))^2 with r the
    corrector_stepsize ratio; r = 0 reproduces the predictor exactly (the
    corrector model call still happens, so NFE is 2 per step). Corrector noise
    comes from its own stream, leaving the predictor's draws unchanged.
    """
    r = _nonnegative_real("corrector_stepsize", corrector_stepsize)
    score = _score_eval(model, sde)

    def make_step(ya, rng):
        rng_ito, rng_corr = rng(1), rng(2)

        def step(i, x, th, tl):
            dt = tl - th
            s = score(x, ya, th)
            g_hi = float(sde.g(th))
            rhs = float(sde.gamma(th)) * (ya - x) - g_hi ** 2 * s
            x = x + rhs * dt + g_hi * math.sqrt(-dt) * rng_ito.standard_normal(np.shape(x))
            s_corr = score(x, ya, tl)
            eta = 2.0 * (r * float(sde.sigma(tl))) ** 2
            return x + eta * s_corr + math.sqrt(2.0 * eta) * rng_corr.standard_normal(np.shape(x))
        return step

    return _solve_on_grid("pc", sde, y, grid, seed, x_init, keep_trajectory, make_step)


def rk2_midpoint(sde: InterpolatingSde, model: ScoreModel, y, grid: TimeGrid,
                 seed: int = 0, x_init=None, keep_trajectory: bool = False) -> SolveOutput:
    """Explicit midpoint rule on the probability-flow ODE (two model calls per step)."""
    def make_step(ya, rng):
        rhs = _flow_rhs(sde, model, ya)

        def step(i, x, th, tl):
            dt = tl - th
            x_mid = x + 0.5 * dt * rhs(x, th)
            return x + dt * rhs(x_mid, 0.5 * (th + tl))
        return step

    return _solve_on_grid("rk2", sde, y, grid, seed, x_init, keep_trajectory, make_step)


# Dormand-Prince 5(4) tableau
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
_DP_B5 = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0,
          11.0 / 84.0, 0.0)
_DP_B4 = (5179.0 / 57600.0, 0.0, 7571.0 / 16695.0, 393.0 / 640.0,
          -92097.0 / 339200.0, 187.0 / 2100.0, 1.0 / 40.0)


def rk45_adaptive(sde: InterpolatingSde, model: ScoreModel, y, t_start: float,
                  t_end: float, rtol: float = 1e-5, atol: float = 1e-5,
                  seed: int = 0, x_init=None, max_steps: int = 10_000,
                  keep_trajectory: bool = False) -> SolveOutput:
    """Adaptive embedded RK5(4) on the probability-flow ODE, integrating from
    t_start down to t_end with a PI step controller.

    Seven model calls per attempted step. Raises StiffnessError when the step
    budget is exhausted or the step size underflows, DivergenceError when the
    state or a stage becomes non-finite.
    """
    t_start = real_parameter("t_start", t_start)
    t_end = real_parameter("t_end", t_end)
    if not (t_start > t_end > 0.0):
        raise ParameterError(f"need t_start > t_end > 0, got {t_start!r}, {t_end!r}")
    if t_start > sde.t_rev + 1e-12:
        raise ParameterError(
            f"t_start={t_start!r} is above the reverse start t_rev={sde.t_rev!r}")
    rtol = real_parameter("rtol", rtol)
    atol = real_parameter("atol", atol)
    if not (rtol > 0.0 and atol > 0.0):
        raise ParameterError(f"rtol and atol must be positive, got {rtol!r}, {atol!r}")
    max_steps = integer_parameter("max_steps", max_steps, 1)

    seed = integer_parameter("seed", seed, 0)
    x, ya = _prepare_state(sde, y, seed, x_init)
    rhs = _flow_rhs(sde, model, ya)
    calls = 0
    traj = [np.array(x, copy=True)] if keep_trajectory else None

    t = t_start
    h = (t_end - t_start) / 100.0  # negative
    err_prev = 1.0
    attempts = 0
    # an accepted step can land within one ulp of t_end; treat that as arrival
    # so the final clamped step cannot underflow
    done_gap = 1e-13 * max(abs(t_start), abs(t_end), 1.0)
    while t - t_end > done_gap:
        if attempts >= max_steps:
            raise StiffnessError(
                f"step budget {max_steps} exhausted at t={t!r} "
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
            calls += 1
            if not np.all(np.isfinite(ki)):
                raise DivergenceError(f"stage derivative non-finite at t={t!r}",
                                      step_index=attempts, time=t)
            stages.append(ki)
        attempts += 1

        x5 = x
        x4 = x
        for j in range(7):
            if _DP_B5[j] != 0.0:
                x5 = x5 + h * _DP_B5[j] * stages[j]
            if _DP_B4[j] != 0.0:
                x4 = x4 + h * _DP_B4[j] * stages[j]
        if not np.all(np.isfinite(x5)):
            raise DivergenceError(f"state became non-finite at t={t + h!r}",
                                  step_index=attempts, time=t + h)

        scale = atol + rtol * np.maximum(np.abs(x), np.abs(x5))
        diff = (x5 - x4) / scale
        err = math.sqrt(float(np.mean(np.square(diff))))
        if err <= 1.0:
            t = t + h
            x = x5
            if keep_trajectory:
                traj.append(np.array(x, copy=True))
            err = max(err, 1e-10)
            fac = 0.9 * err ** -0.14 * err_prev ** 0.08
            fac = min(10.0, max(0.2, fac))
            err_prev = err
            h = h * fac
        else:
            fac = max(0.2, 0.9 * err ** -0.2)
            h = h * fac

    trajectory = np.array(traj) if keep_trajectory else None
    return SolveOutput(final_state=x, trajectory=trajectory, nfe=calls, seed=seed)


# Every solver kind: (model calls per grid step as a function of the order p,
# None for the adaptive rk45; runner). The runners look the public solvers up
# by name when called, so a rebound module-level solver also serves run_solver.
_SOLVERS = {
    "isde": (lambda p: p, lambda sde, model, y, grid, spec, **kw: isde_solve(
        sde, model, y, grid, p=spec.p, kappa=spec.kappa, **kw)),
    "euler_maruyama": (lambda p: 1, lambda sde, model, y, grid, spec, **kw: euler_maruyama(
        sde, model, y, grid, kappa=spec.kappa, **kw)),
    "pc": (lambda p: 2, lambda sde, model, y, grid, spec, **kw: pc_sampler(
        sde, model, y, grid, corrector_stepsize=spec.corrector_stepsize, **kw)),
    "rk2": (lambda p: 2, lambda sde, model, y, grid, spec, **kw: rk2_midpoint(
        sde, model, y, grid, **kw)),
    "rk45": (None, lambda sde, model, y, grid, spec, **kw: rk45_adaptive(
        sde, model, y, float(grid.times[0]), float(grid.times[-1]),
        rtol=spec.rtol, atol=spec.atol, **kw)),
}


def run_solver(sde: InterpolatingSde, model: ScoreModel, y, grid: TimeGrid,
               spec: SolverSpec, seed: int = 0, x_init=None,
               keep_trajectory: bool = False) -> SolveOutput:
    """Dispatch one reverse run according to ``spec``.

    For "rk45" only the grid endpoints are used (the step sequence is chosen
    adaptively).
    """
    run = _SOLVERS[spec.kind][1]
    return run(sde, model, y, grid, spec, seed=seed, x_init=x_init,
               keep_trajectory=keep_trajectory)


def nfe_per_step(spec: SolverSpec):
    """Model calls per grid step for fixed-grid solvers; None for adaptive ones."""
    calls = _SOLVERS[spec.kind][0]
    return None if calls is None else calls(spec.p)
