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

from .errors import ParameterError, ShapeError, SingularityError, integer_parameter, real_parameter
from .sde_core import InterpolatingSde

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


@dataclass(frozen=True)
class DeltaPrior:
    """Point mass at x0 in every coordinate."""

    x0: float
    dimension: int = 1

    def __post_init__(self):
        object.__setattr__(self, "x0", real_parameter("x0", self.x0))
        object.__setattr__(self, "dimension", integer_parameter("dimension", self.dimension, 1))
        if not math.isfinite(self.x0):
            raise ParameterError(f"x0 must be finite, got {self.x0!r}")

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
        object.__setattr__(self, "s0", real_parameter("s0", self.s0))
        object.__setattr__(self, "dimension", integer_parameter("dimension", self.dimension, 1))
        if not math.isfinite(self.m0):
            raise ParameterError(f"m0 must be finite, got {self.m0!r}")
        if not (math.isfinite(self.s0) and self.s0 >= 0.0):
            raise ParameterError(f"s0 must be a nonnegative finite real, got {self.s0!r}")

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
        w = tuple(real_parameter("mixture weights", v) for v in self.weights)
        m = tuple(real_parameter("mixture means", v) for v in self.means)
        v = tuple(real_parameter("mixture variances", s) for s in self.variances)
        if not (len(w) == len(m) == len(v)) or len(w) == 0:
            raise ParameterError(
                f"weights/means/variances must be equal nonzero lengths, got "
                f"{len(w)}/{len(m)}/{len(v)}")
        if any(not math.isfinite(x) or x <= 0.0 for x in w):
            raise ParameterError(f"mixture weights must be positive, got {w!r}")
        if any(not math.isfinite(x) for x in m):
            raise ParameterError(f"mixture means must be finite, got {m!r}")
        if any(not math.isfinite(x) or x < 0.0 for x in v):
            raise ParameterError(f"mixture variances must be nonnegative, got {v!r}")
        total = sum(w)
        if abs(total - 1.0) > 1e-9:
            raise ParameterError(f"mixture weights must sum to 1, got {total!r}")
        w = tuple(x / total for x in w)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "variances", v)
        object.__setattr__(self, "dimension", integer_parameter("dimension", self.dimension, 1))

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


def marginal_moments(prior, sde: InterpolatingSde, y, t):
    """Exact mean and variance of the marginal of x_t given y.

    mean = (1 - k) E[x0] + k y and var = (1 - k)^2 Var(x0) + sigma_t^2 hold for
    every prior; the marginal law itself is Gaussian only for delta and
    Gaussian priors.
    """
    t = float(t)
    if t < 0.0 or t > sde.t_rev:
        raise ParameterError(f"time {t!r} outside [0, t_rev={sde.t_rev!r}]")
    pm, pv = prior.moments()
    kv = float(sde.k(t))
    mean = (1.0 - kv) * pm + kv * np.asarray(y, dtype=float)
    var = (1.0 - kv) ** 2 * pv + float(sde.var(t))
    mean = mean if mean.ndim else float(mean)
    return mean, var


def analytic_score(prior, sde: InterpolatingSde, x, y, t):
    """Score of the marginal of x_t given y, elementwise over x.

    Delta and Gaussian priors give the linear score (mu - x) / v; mixtures use
    posterior responsibilities computed in log space for far-tail stability.
    """
    t = float(t)
    if not (0.0 < t <= sde.t_rev):
        raise ParameterError(f"score is defined for 0 < t <= t_rev, got t={t!r}")
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    try:
        shape = np.broadcast_shapes(xa.shape, ya.shape)
    except ValueError:
        raise ShapeError(f"x shape {xa.shape} and y shape {ya.shape} do not broadcast")
    kv = float(sde.k(t))
    omk = 1.0 - kv
    sig2 = float(sde.var(t))

    if isinstance(prior, (DeltaPrior, GaussianPrior)):  # a delta prior has variance 0
        m0, v0 = prior.moments()
        v = omk ** 2 * v0 + sig2
        if v <= 0.0:
            raise SingularityError(f"zero marginal variance at t={t!r}")
        mu = omk * m0 + kv * ya
        out = (mu - xa) / v
        return out if np.ndim(out) else float(out)

    if isinstance(prior, MixturePrior):
        # Per-component constants are vectors over the components; only
        # d = mu - x and the log densities span (components, *shape), and
        # they are updated in place.
        v = omk ** 2 * np.array(prior.variances) + sig2
        if np.any(v <= 0.0):
            raise SingularityError(f"zero marginal variance at t={t!r}")
        ext = (len(v),) + (1,) * len(shape)
        logc = (np.log(np.array(prior.weights)) - 0.5 * np.log(2.0 * np.pi * v)).reshape(ext)
        v = v.reshape(ext)
        d = ((omk * np.array(prior.means)).reshape(ext) + kv * ya) - xa
        logp = d * d
        logp /= 2.0 * v
        np.subtract(logc, logp, out=logp)
        # responsibilities with the max over components shifted out
        logp -= logp.max(axis=0)
        e = np.exp(logp, out=logp)
        d /= v
        d *= e
        out = d.sum(axis=0) / e.sum(axis=0)
        return out if len(shape) else float(out)

    raise ParameterError(f"unsupported prior type {type(prior).__name__!r}")


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
    """Exact score of the tractable marginal, wrapped with NFE counting."""
    def fn(x, y, t):
        return analytic_score(prior, sde, x, y, t)

    return ScoreModel(fn, parameterization="score",
                      name=f"analytic-{type(prior).__name__}")


def eps_adapter(score_model: ScoreModel, sde: InterpolatingSde) -> ScoreModel:
    """View a score model in the eps parameterization: eps_hat = -sigma_t * score."""
    if score_model.parameterization != "score":
        raise ParameterError("eps_adapter expects a model with parameterization 'score'")

    def fn(x, y, t):
        sig = float(sde.sigma(t))
        if sig == 0.0:
            raise SingularityError(f"sigma(t) = 0 at t={t!r}; eps view undefined")
        return -sig * score_model(x, y, t)

    return ScoreModel(fn, parameterization="eps", name=f"eps({score_model.name})")


def score_from_eps(eps_model: ScoreModel, sde: InterpolatingSde) -> ScoreModel:
    """Inverse view: score = -eps_hat / sigma_t."""
    if eps_model.parameterization != "eps":
        raise ParameterError("score_from_eps expects a model with parameterization 'eps'")

    def fn(x, y, t):
        sig = float(sde.sigma(t))
        if sig == 0.0:
            raise SingularityError(f"sigma(t) = 0 at t={t!r}; score view undefined")
        return -np.asarray(eps_model(x, y, t), dtype=float) / sig

    return ScoreModel(fn, parameterization="score", name=f"score({eps_model.name})")


def _mc_loss(model: ScoreModel, prior, sde: InterpolatingSde, y, n_samples: int,
             rng: np.random.Generator, residual) -> float:
    """Mean over n_samples draws of || residual(model(x_t, y, t), eps, sigma_t) ||^2.

    Each draw takes t uniform on [delta, t_rev], then x0 from the prior, then
    eps standard normal, and forms x_t = mu_t + sigma_t eps.
    """
    n = integer_parameter("n_samples", n_samples, 1)
    y = float(y)
    total = 0.0
    for _ in range(n):
        t = rng.uniform(sde.delta, sde.t_rev)
        x0 = prior.sample(rng)
        eps = rng.standard_normal(prior.dimension)
        kv = float(sde.k(t))
        sig = float(sde.sigma(t))
        x = (1.0 - kv) * x0 + kv * y + sig * eps
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
