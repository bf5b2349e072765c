"""Analytic score models for tractable priors, and score/eps adapters.

For a prior p(x_0) pushed through the perturbation kernel, the marginal of x_t
given y is known in closed form when the prior is a point mass, a Gaussian, or
a finite Gaussian mixture (all with scalar per-coordinate parameters shared
across coordinates, so the score factorizes elementwise). The gradient of the
log marginal with respect to x is the score; the eps parameterization of the
same model predicts the forward noise, eps_hat = -sigma_t * score.

Models are wrapped in :class:`ScoreModel`, a callable (x, y, t) -> array that
counts its evaluations (the NFE bookkeeping used by the solvers) and carries a
``parameterization`` tag ("score" or "eps") that solvers dispatch on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ParameterError, ShapeError, SingularityError, integer_parameter,
                     real_array, real_parameter)
from .sde_core import InterpolatingSde, mean_evolution

__all__ = [
    "DeltaPrior",
    "GaussianPrior",
    "MixturePrior",
    "marginal_moments",
    "analytic_score",
    "ScoreModel",
    "analytic_score_model",
    "eps_adapter",
    "score_from_eps",
    "dsm_loss_mc",
    "eps_loss_mc",
]


def _check_moments(prior) -> None:
    """Raise ParameterError unless the prior's mean and variance are finite floats."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            finite = all(math.isfinite(v) for v in prior.moments())
    except OverflowError:
        finite = False
    if not finite:
        raise ParameterError(f"the mean or variance of {prior!r} overflows")


@dataclass(frozen=True)
class DeltaPrior:
    """Point mass at x0 in every coordinate."""

    x0: float
    dimension: int = 1

    def __post_init__(self):
        object.__setattr__(self, "x0", real_parameter("x0", self.x0))
        object.__setattr__(self, "dimension", integer_parameter("dimension", self.dimension, 1))

    def moments(self):
        return self.x0, 0.0

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return np.full(self.dimension, self.x0, dtype=float)


@dataclass(frozen=True)
class GaussianPrior:
    """Independent N(m0, s0^2) in every coordinate."""

    m0: float
    s0: float
    dimension: int = 1

    def __post_init__(self):
        object.__setattr__(self, "m0", real_parameter("m0", self.m0))
        object.__setattr__(self, "s0", real_parameter("s0", self.s0, 0))
        object.__setattr__(self, "dimension", integer_parameter("dimension", self.dimension, 1))
        _check_moments(self)

    def moments(self):
        return self.m0, self.s0 ** 2

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return self.m0 + self.s0 * rng.standard_normal(self.dimension)


@dataclass(frozen=True)
class MixturePrior:
    """Finite Gaussian mixture, identical in every coordinate.

    weights must be positive and sum to 1 (within 1e-9; renormalized exactly).
    """

    weights: tuple
    means: tuple
    variances: tuple
    dimension: int = 1

    def __post_init__(self):
        w = tuple(real_parameter("mixture weights", v, 0, lo_open=True) for v in self.weights)
        m = tuple(real_parameter("mixture means", v) for v in self.means)
        v = tuple(real_parameter("mixture variances", s, 0) for s in self.variances)
        if not (len(w) == len(m) == len(v)) or len(w) == 0:
            raise ParameterError(
                f"weights/means/variances must be equal nonzero lengths, got "
                f"{len(w)}/{len(m)}/{len(v)}")
        total = sum(w)
        if abs(total - 1.0) > 1e-9:
            raise ParameterError(f"mixture weights must sum to 1, got {total!r}")
        w = tuple(x / total for x in w)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "variances", v)
        object.__setattr__(self, "dimension", integer_parameter("dimension", self.dimension, 1))
        _check_moments(self)

    def moments(self):
        w = np.array(self.weights)
        m = np.array(self.means)
        v = np.array(self.variances)
        mean = float(np.sum(w * m))
        var = float(np.sum(w * (v + m ** 2)) - mean ** 2)
        return mean, var

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        idx = rng.choice(len(self.weights), size=self.dimension, p=np.array(self.weights))
        m = np.array(self.means)[idx]
        s = np.sqrt(np.array(self.variances))[idx]
        return m + s * rng.standard_normal(self.dimension)


def _affine_marginal(pm, pv, kv: float, var_t: float, ya):
    """Mean and variance of x_t given y from the prior's mean pm and variance pv and
    the schedule's k and var at t."""
    return (1.0 - kv) * pm + kv * ya, (1.0 - kv) ** 2 * pv + var_t


def marginal_moments(prior, sde: InterpolatingSde, y, t):
    """Exact mean and variance of the marginal of x_t given y.

    mean = (1 - k) E[x0] + k y and var = (1 - k)^2 Var(x0) + sigma_t^2 hold for
    every prior; the marginal law itself is Gaussian only for delta and
    Gaussian priors.
    """
    t = real_parameter("t", t, 0, sde.t_rev)
    ya = real_array("y", y)
    mean, var = _affine_marginal(*prior.moments(), float(sde.k(t)), float(sde.var(t)), ya)
    return (mean if mean.ndim else float(mean)), var


def _shape_error(xa, ya) -> ShapeError:
    return ShapeError(f"x shape {xa.shape} and y shape {ya.shape} do not broadcast")


def _score_rule(prior):
    """The score of ``prior``'s marginal as ``rule(kv, var_t, xa, ya, t)``, where kv
    and var_t are k(t) and var(t): the prior is checked and its constants read once."""
    if isinstance(prior, (DeltaPrior, GaussianPrior)):  # a delta prior has variance 0
        pm, pv = prior.moments()

        def linear(kv, var_t, xa, ya, t):
            # a 0-d y as a Python float: the same IEEE products, no 0-d NumPy arithmetic
            mu, v = _affine_marginal(pm, pv, kv, var_t, float(ya) if ya.ndim == 0 else ya)
            try:
                d = mu - xa
            except ValueError:
                raise _shape_error(xa, ya) from None
            if v <= 0.0:
                raise SingularityError(f"zero marginal variance at t={t!r}")
            d /= v  # in place: a new array here costs page faults at 1e5 paths
            return d if d.ndim else float(d)

        return linear

    if isinstance(prior, MixturePrior):
        log_w, means, variances = (np.log(np.array(prior.weights)), np.array(prior.means),
                                   np.array(prior.variances))

        def mixture(kv, var_t, xa, ya, t):
            # Per-component constants are vectors over the components; only
            # d = mu - x and the log densities span (components, *shape), and
            # they are updated in place.
            ndim = max(xa.ndim, ya.ndim)
            ext = (means.size,) + (1,) * ndim
            mu, v = _affine_marginal(means.reshape(ext), variances, kv, var_t, ya)
            try:
                d = mu - xa
            except ValueError:
                raise _shape_error(xa, ya) from None
            if np.any(v <= 0.0):
                raise SingularityError(f"zero marginal variance at t={t!r}")
            logc = (log_w - 0.5 * np.log(2.0 * np.pi * v)).reshape(ext)
            v = v.reshape(ext)
            logp = d * d
            logp /= 2.0 * v
            np.subtract(logc, logp, out=logp)
            # responsibilities with the max over components shifted out
            logp -= logp.max(axis=0)
            e = np.exp(logp, out=logp)
            d /= v
            d *= e
            out = d.sum(axis=0) / e.sum(axis=0)
            return out if ndim else float(out)

        return mixture

    raise ParameterError(f"unsupported prior type {type(prior).__name__!r}")


def analytic_score(prior, sde: InterpolatingSde, x, y, t):
    """Score of the marginal of x_t given y, elementwise over x.

    Delta and Gaussian priors give the linear score (mu - x) / v; mixtures use
    posterior responsibilities computed in log space for far-tail stability.
    """
    t = real_parameter("t", t, 0, sde.t_rev, lo_open=True)
    xa, ya = real_array("x", x), real_array("y", y)
    return _score_rule(prior)(float(sde.k(t)), float(sde.var(t)), xa, ya, t)


class ScoreModel:
    """Callable (x, y, t) model with an evaluation counter.

    parameterization selects what the callable returns: "score" for the score
    itself, "eps" for the noise prediction eps_hat = -sigma_t * score.
    """

    def __init__(self, fn, parameterization: str = "score", name: str = "model"):
        if parameterization not in ("score", "eps"):
            raise ParameterError(
                f"parameterization must be 'score' or 'eps', got {parameterization!r}")
        self._fn = fn
        self.parameterization = parameterization
        self.name = name
        self.nfe = 0

    def __call__(self, x, y, t):
        self.nfe += 1
        return self._fn(x, y, t)

    def reset(self):
        self.nfe = 0

    def __repr__(self):
        return (f"ScoreModel(name={self.name!r}, "
                f"parameterization={self.parameterization!r}, nfe={self.nfe})")


def analytic_score_model(prior, sde: InterpolatingSde) -> ScoreModel:
    """Exact score of the tractable marginal, wrapped with NFE counting.

    The prior is checked once, here. Every call checks t, x and y, and reads k(t)
    and var(t) from the bundle's memo (``sde.memo``).
    """
    rule = _score_rule(prior)
    t_rev, k, var = sde.t_rev, sde.memo.k, sde.memo.var

    def fn(x, y, t):
        if type(t) is not float or not 0.0 < t <= t_rev:
            t = real_parameter("t", t, 0, t_rev, lo_open=True)
        return rule(k(t), var(t), real_array("x", x), real_array("y", y), t)

    return ScoreModel(fn, parameterization="score",
                      name=f"analytic-{type(prior).__name__}")


def _sigma_view(model: ScoreModel, sde: InterpolatingSde, name: str, given: str, want: str,
                convert) -> ScoreModel:
    """``model``, of parameterization ``given``, as a ``want`` model ``convert(output,
    sigma_t)``. Every call checks t in [0, t_max), reads sigma(t) from the bundle's
    memo and rejects sigma = 0 (SingularityError), all before the wrapped model is
    called with the checked float t."""
    if model.parameterization != given:
        raise ParameterError(f"{name} expects a model with parameterization '{given}'")
    t_max, sigma = sde.t_max, sde.memo.sigma

    def fn(x, y, t):
        if type(t) is not float or not 0.0 <= t < t_max:
            t = real_parameter("t", t, 0, t_max, hi_open=True)
        sig = sigma(t)
        if sig == 0.0:
            raise SingularityError(f"sigma(t) = 0 at t={t!r}; {want} view undefined")
        return convert(model(x, y, t), sig)

    return ScoreModel(fn, parameterization=want, name=f"{want}({model.name})")


def eps_adapter(score_model: ScoreModel, sde: InterpolatingSde) -> ScoreModel:
    """View a score model in the eps parameterization: eps_hat = -sigma_t * score."""
    return _sigma_view(score_model, sde, "eps_adapter", "score", "eps",
                       lambda score, sig: -sig * score)


def score_from_eps(eps_model: ScoreModel, sde: InterpolatingSde) -> ScoreModel:
    """Inverse view: score = -eps_hat / sigma_t."""
    return _sigma_view(eps_model, sde, "score_from_eps", "eps", "score",
                       lambda eps, sig: -np.asarray(eps, dtype=float) / sig)


def _mc_loss(model: ScoreModel, prior, sde: InterpolatingSde, y, n_samples: int,
             rng: np.random.Generator, residual) -> float:
    """Mean over n_samples draws of || residual(model(x_t, y, t), eps, sigma_t) ||^2.

    Each draw takes t uniform on [delta, t_rev], then x0 from the prior, then
    eps standard normal, and forms x_t = mu_t + sigma_t eps.
    """
    n = integer_parameter("n_samples", n_samples, 1)
    y = real_parameter("y", y)
    total = 0.0
    for _ in range(n):
        t = rng.uniform(sde.delta, sde.t_rev)
        x0 = prior.sample(rng)
        eps = rng.standard_normal(prior.dimension)
        sig = float(sde.sigma(t))
        x = mean_evolution(sde, x0, y, t) + sig * eps
        resid = residual(np.asarray(model(x, y, t), dtype=float), eps, sig)
        total += float(np.sum(resid ** 2))
    return total / n


def dsm_loss_mc(score_model: ScoreModel, prior, sde: InterpolatingSde, y,
                n_samples: int, rng: np.random.Generator) -> float:
    """Monte Carlo denoising score matching loss.

    Draws t uniform on [delta, t_rev], x0 from the prior, eps standard normal,
    forms x_t = mu_t + sigma_t eps, and averages || s(x_t, y, t) + eps/sigma_t ||^2
    (squared Euclidean norm over the prior's dimension). Zero exactly when the
    model equals the conditional score of the kernel.
    """
    return _mc_loss(score_model, prior, sde, y, n_samples, rng,
                    lambda out, eps, sig: out + eps / sig)


def eps_loss_mc(eps_model: ScoreModel, prior, sde: InterpolatingSde, y,
                n_samples: int, rng: np.random.Generator) -> float:
    """Monte Carlo noise prediction loss: mean || eps_hat(x_t, y, t) - eps ||^2.

    Equals sigma_t^2 times the pointwise DSM integrand, sample by sample.
    """
    return _mc_loss(eps_model, prior, sde, y, n_samples, rng,
                    lambda out, eps, sig: out - eps)
