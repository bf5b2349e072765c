import dataclasses
import gc
import math
import warnings
import weakref

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import norm

import isde
from isde import (
    DeltaPrior,
    GaussianPrior,
    MixturePrior,
    ScoreModel,
    analytic_score,
    analytic_score_model,
    dsm_loss_mc,
    eps_adapter,
    eps_loss_mc,
    marginal_moments,
    score_from_eps,
)
from isde.errors import ParameterError, ShapeError, SingularityError

MIX = MixturePrior(weights=(0.3, 0.5, 0.2), means=(-1.0, 0.4, 2.0),
                   variances=(0.25, 0.04, 0.5))


def _log_marginal(prior, sde, x, y, t):
    """Independent log density of x_t given y (library normal logpdf)."""
    k = float(sde.k(t))
    omk = 1.0 - k
    s2 = float(sde.var(t))
    if isinstance(prior, DeltaPrior):
        return norm.logpdf(x, omk * prior.x0 + k * y, math.sqrt(s2))
    if isinstance(prior, GaussianPrior):
        return norm.logpdf(x, omk * prior.m0 + k * y,
                           math.sqrt(omk ** 2 * prior.s0 ** 2 + s2))
    comps = [math.log(w) + norm.logpdf(x, omk * m + k * y,
                                       math.sqrt(omk ** 2 * v + s2))
             for w, m, v in zip(prior.weights, prior.means, prior.variances)]
    return logsumexp(np.array(comps), axis=0)


def _mixture_score_oracle(prior, sde, x, y, t):
    """Mixture score by log-space responsibilities through scipy's logsumexp."""
    k = float(sde.k(t))
    omk = 1.0 - k
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    ext = (-1,) + (1,) * x.ndim
    m = np.array(prior.means).reshape(ext)
    v = (omk ** 2 * np.array(prior.variances) + float(sde.var(t))).reshape(ext)
    mu = omk * m + k * y
    logp = (np.log(np.array(prior.weights)).reshape(ext) - 0.5 * np.log(2.0 * np.pi * v)
            - (x - mu) ** 2 / (2.0 * v))
    r = np.exp(logp - logsumexp(logp, axis=0, keepdims=True))
    return np.sum(r * (mu - x) / v, axis=0)


# -------------------------------------------------------------------- priors

def test_prior_validation():
    with pytest.raises(ParameterError):
        DeltaPrior(math.inf)
    with pytest.raises(ParameterError):
        DeltaPrior(0.0, dimension=0)
    with pytest.raises(ParameterError):
        GaussianPrior(0.0, -0.1)
    with pytest.raises(ParameterError):
        MixturePrior((0.5, 0.6), (0.0, 1.0), (1.0, 1.0))
    with pytest.raises(ParameterError):
        MixturePrior((0.5, 0.5), (0.0,), (1.0, 1.0))
    with pytest.raises(ParameterError):
        MixturePrior((0.5, 0.5), (0.0, 1.0), (1.0, -1.0))
    with pytest.raises(ParameterError):
        MixturePrior((1.0, -0.0), (0.0, 1.0), (1.0, 1.0))
    with pytest.raises(ParameterError):
        MixturePrior((), (), ())
    # moments that overflow: the variance, the mean, and E[x^2] around a mean of 0
    for make in (lambda: GaussianPrior(0.5, 1e300),
                 lambda: MixturePrior((0.5, 0.5), (1e300, 0.0), (0.1, 0.1)),
                 lambda: MixturePrior((0.5, 0.5), (1e200, -1e200), (0.1, 0.1))):
        with pytest.raises(ParameterError, match="overflows"):
            make()


@pytest.mark.parametrize("dimension", [2.7, 2.0, "3", True])
def test_prior_dimension_must_be_an_integer(dimension):
    for make in (lambda d: DeltaPrior(0.5, dimension=d),
                 lambda d: GaussianPrior(0.5, 0.2, dimension=d),
                 lambda d: MixturePrior((1.0,), (0.0,), (1.0,), dimension=d)):
        with pytest.raises(ParameterError, match="dimension"):
            make(dimension)
    assert DeltaPrior(0.5, dimension=np.int64(3)).sample(None).shape == (3,)


def test_mixture_weights_renormalized_exactly():
    p = MixturePrior((0.3, 0.7 + 1e-12), (0.0, 1.0), (1.0, 1.0))
    assert sum(p.weights) == 1.0


def test_prior_moments():
    assert DeltaPrior(0.5).moments() == (0.5, 0.0)
    assert GaussianPrior(0.5, 0.2).moments() == (0.5, pytest.approx(0.04))
    m, v = MIX.moments()
    assert m == pytest.approx(0.3 * -1.0 + 0.5 * 0.4 + 0.2 * 2.0, rel=1e-14)
    want_v = (0.3 * (0.25 + 1.0) + 0.5 * (0.04 + 0.16) + 0.2 * (0.5 + 4.0)) - m ** 2
    assert v == pytest.approx(want_v, rel=1e-13)


def test_prior_moments_match_sampling():
    rng = np.random.default_rng(100)
    for prior in (GaussianPrior(0.5, 0.2, dimension=200_000),
                  MixturePrior(MIX.weights, MIX.means, MIX.variances,
                               dimension=200_000)):
        draw = prior.sample(rng)
        m, v = prior.moments()
        assert np.mean(draw) == pytest.approx(m, abs=5 * math.sqrt(v / draw.size))
        assert np.var(draw) == pytest.approx(v, rel=0.03)


def test_delta_sample_is_constant():
    rng = np.random.default_rng(0)
    draw = DeltaPrior(0.5, dimension=7).sample(rng)
    assert draw.shape == (7,)
    assert np.all(draw == 0.5)


# ---------------------------------------------------------- marginal moments

def test_marginal_moments_values(fouve, gaussian_prior):
    m, v = marginal_moments(gaussian_prior, fouve, 1.0, 0.5)
    omk = math.exp(-1.0)
    assert m == pytest.approx(omk * 0.5 + (1 - omk) * 1.0, rel=1e-14)
    assert v == pytest.approx(omk ** 2 * 0.04 + 1e-4, rel=1e-13)
    m0, v0 = marginal_moments(gaussian_prior, fouve, 1.0, 0.0)
    assert m0 == 0.5 and v0 == pytest.approx(0.04 + 1e-6, rel=1e-13)


def test_marginal_moments_match_forward_sampling(fouve):
    rng = np.random.default_rng(7)
    n = 100_000
    prior = GaussianPrior(0.5, 0.2, dimension=n)
    x0 = prior.sample(rng)
    t = 0.6
    x = isde.sample_forward(fouve, x0, 1.0, t, rng)
    m, v = marginal_moments(GaussianPrior(0.5, 0.2), fouve, 1.0, t)
    assert np.mean(x) == pytest.approx(m, abs=5 * math.sqrt(v / n))
    assert np.var(x) == pytest.approx(v, rel=0.03)


def test_marginal_moments_domain(fouve, gaussian_prior):
    with pytest.raises(ParameterError):
        marginal_moments(gaussian_prior, fouve, 1.0, fouve.t_rev + 0.1)


# --------------------------------------------------------------------- score

def test_delta_score_is_linear(fouve):
    t = 0.5
    mu = math.exp(-1.0) * 0.5 + (1 - math.exp(-1.0)) * 1.0
    want = (mu - 0.7) / 1e-4
    assert analytic_score(DeltaPrior(0.5), fouve, 0.7, 1.0, t) == pytest.approx(
        want, rel=1e-12)


def test_single_component_mixture_equals_gaussian(fouve):
    mix = MixturePrior((1.0,), (0.5,), (0.04,))
    gauss = GaussianPrior(0.5, 0.2)
    rng = np.random.default_rng(2)
    for _ in range(20):
        t = rng.uniform(0.05, 1.0)
        x = rng.normal(scale=2.0)
        a = analytic_score(mix, fouve, x, 1.0, t)
        b = analytic_score(gauss, fouve, x, 1.0, t)
        assert a == pytest.approx(b, rel=1e-12)


@pytest.mark.parametrize("prior", [DeltaPrior(0.5), GaussianPrior(0.5, 0.2), MIX],
                         ids=["delta", "gaussian", "mixture"])
def test_score_matches_log_density_slope(fouve, prior):
    rng = np.random.default_rng(17)
    h = 1e-5
    for _ in range(100):
        t = rng.uniform(fouve.delta, fouve.t_rev)
        m, v = marginal_moments(prior, fouve, 1.0, t)
        x = m + math.sqrt(v) * rng.uniform(-3.0, 3.0)
        s = analytic_score(prior, fouve, x, 1.0, t)
        fd = (_log_marginal(prior, fouve, x + h, 1.0, t)
              - _log_marginal(prior, fouve, x - h, 1.0, t)) / (2 * h)
        assert abs(fd - s) <= 1e-6 * max(1.0, abs(s))


def test_mixture_score_far_tails(fouve):
    t = 0.5
    m, v = marginal_moments(MIX, fouve, 1.0, t)
    sd = math.sqrt(v)
    x8 = m + 8 * sd
    s8 = analytic_score(MIX, fouve, x8, 1.0, t)
    h = 1e-5
    fd = (_log_marginal(MIX, fouve, x8 + h, 1.0, t)
          - _log_marginal(MIX, fouve, x8 - h, 1.0, t)) / (2 * h)
    assert abs(fd - s8) <= 1e-6 * max(1.0, abs(s8))
    # at 50 sd the density underflows but the log-space score must stay finite
    for mult in (50.0, -50.0):
        s = analytic_score(MIX, fouve, m + mult * sd, 1.0, t)
        assert math.isfinite(s)


@pytest.mark.parametrize("prior", [
    MIX,
    MixturePrior((0.5, 0.5), (0.4, 0.4), (0.04, 0.04)),
    MixturePrior((0.3, 0.7), (-0.5, 1.0), (0.0, 0.04)),
], ids=["three", "tied", "zero-variance"])
@pytest.mark.parametrize("kind", ["fOUVE", "OT"])
def test_mixture_score_matches_logsumexp_oracle(all_sdes, prior, kind):
    sde = all_sdes[kind]
    rng = np.random.default_rng(23)
    y = rng.normal(1.0, 0.3, size=100)
    for t in np.linspace(sde.delta, sde.t_rev, 4):
        m, v = marginal_moments(prior, sde, y, t)
        x = m + math.sqrt(v) * rng.normal(scale=3.0, size=(1000, 100))
        got = analytic_score(prior, sde, x, y, t)
        want = _mixture_score_oracle(prior, sde, x, y, t)
        assert got.shape == x.shape
        np.testing.assert_allclose(got, want, rtol=1e-10,
                                   atol=1e-12 * np.max(np.abs(want)))
        x1 = float(x[0, 0])
        s = analytic_score(prior, sde, x1, 1.0, t)
        assert type(s) is float
        assert s == pytest.approx(float(_mixture_score_oracle(prior, sde, x1, 1.0, t)),
                                  rel=1e-10, abs=1e-12 * np.max(np.abs(want)))


def test_score_vectorizes(fouve):
    x = np.linspace(-1.0, 2.0, 7).reshape(7, 1)
    out = analytic_score(MIX, fouve, x, np.ones(3), 0.5)
    assert out.shape == (7, 3)
    loop = np.array([[analytic_score(MIX, fouve, float(xx), 1.0, 0.5)] * 3
                     for xx in x.ravel()])
    assert np.allclose(out, loop, rtol=1e-13)


def test_score_domain_errors(fouve, gaussian_prior):
    with pytest.raises(ParameterError):
        analytic_score(gaussian_prior, fouve, 0.0, 1.0, 0.0)
    with pytest.raises(ParameterError):
        analytic_score(gaussian_prior, fouve, 0.0, 1.0, 1.5)
    with pytest.raises(ShapeError):
        analytic_score(gaussian_prior, fouve, np.zeros(3), np.ones(4), 0.5)
    with pytest.raises(ParameterError):
        analytic_score(object(), fouve, 0.0, 1.0, 0.5)


_G = GaussianPrior(0.5, 0.2)


@pytest.mark.parametrize("call, name", [
    (lambda sde: analytic_score(_G, sde, "0.5", 1.0, 0.5), "x"),
    (lambda sde: analytic_score(_G, sde, 0.5, True, 0.5), "y"),
    (lambda sde: analytic_score(_G, sde, np.array([True]), 1.0, 0.5), "x"),
    (lambda sde: analytic_score(_G, sde, b"0.5", 1.0, 0.5), "x"),
    (lambda sde: analytic_score_model(_G, sde)(0.5, "1.0", 0.5), "y"),
    (lambda sde: analytic_score_model(MIX, sde)(np.array([True]), 1.0, 0.5), "x"),
    (lambda sde: marginal_moments(_G, sde, "1.0", 0.5), "y"),
    (lambda sde: sde.var("0.5"), "t"),
    (lambda sde: sde.k(True), "t"),
    (lambda sde: sde.k(np.array([0.5, None], dtype=object)), "t"),
])
def test_model_and_schedule_inputs_must_be_numbers(fouve, call, name):
    # a bool, a string or bytes is not a number, as in real_array
    with pytest.raises(ParameterError, match=f"^{name} must"):
        call(fouve)


def test_model_and_schedule_read_numbers_of_every_real_kind(fouve):
    x = np.linspace(-1.0, 2.0, 5)
    want = analytic_score(_G, fouve, x, 1.0, 0.5)
    for xs in (x.astype(np.float32).astype(float), x.astype(object), list(x)):
        assert np.array_equal(analytic_score(_G, fouve, xs, 1, 0.5), want)
    assert analytic_score(_G, fouve, 2, np.uint8(1), 0.5) == analytic_score(_G, fouve, 2.0, 1.0, 0.5)
    assert fouve.k(np.array([1], dtype=np.int64)) == fouve.k(1.0)
    # a float64 array is read as it is, with no copy
    assert isde.errors.real_array("x", x) is x


def test_model_checks_its_prior_once_and_every_call(fouve):
    with pytest.raises(ParameterError, match="unsupported prior type"):
        analytic_score_model(object(), fouve)
    model = analytic_score_model(_G, fouve)
    with pytest.raises(ParameterError):
        model(0.0, 1.0, 0.0)
    with pytest.raises(ShapeError):
        model(np.zeros(3), np.ones(4), 0.5)
    with pytest.raises(ShapeError):
        analytic_score_model(MIX, fouve)(np.zeros(3), np.ones(4), 0.5)
    frozen = dataclasses.replace(fouve, var=lambda t: 0.0 * np.asarray(t, dtype=float))
    with pytest.raises(SingularityError):
        analytic_score_model(DeltaPrior(0.5), frozen)(0.3, 1.0, 0.5)


def test_model_memo_is_bounded(fouve, monkeypatch):
    # the bundle's memo keeps k and var of its last _MEMO_TIMES times and drops the
    # oldest first; a bundle takes the size in force when it is built
    monkeypatch.setattr(isde.sde_core, "_MEMO_TIMES", 3)
    calls = []
    counted = dataclasses.replace(fouve, k=lambda t: calls.append(t) or fouve.k(t))
    model = analytic_score_model(_G, counted)
    for t in (0.1, 0.2, 0.3, 0.4, 0.4, 0.2, 0.1):
        assert model(0.3, 1.0, t) == analytic_score(_G, fouve, 0.3, 1.0, t)
    assert calls == [0.1, 0.2, 0.3, 0.4, 0.1]


def test_the_bundle_owns_one_memo_for_every_reader(fouve):
    # two models and two views on one bundle read k and sigma at t = 0.5 once between them
    seen = []

    def counting(field):
        fn = getattr(fouve, field)
        return lambda t: seen.append((field, t)) or fn(t)

    counted = dataclasses.replace(fouve, k=counting("k"), sigma=counting("sigma"))
    for model in (analytic_score_model(_G, counted), analytic_score_model(MIX, counted),
                  eps_adapter(analytic_score_model(_G, counted), counted),
                  score_from_eps(eps_adapter(analytic_score_model(MIX, counted), counted),
                                 counted)):
        model(0.3, 1.0, 0.5)
    assert seen == [("k", 0.5), ("sigma", 0.5)]
    # replace builds a fresh memo over the new bundle's own callables
    fresh = dataclasses.replace(counted, k=fouve.k)
    assert fresh.memo is not counted.memo
    assert (fresh.memo.k(0.5), fresh.memo.sigma(0.5)) == (counted.memo.k(0.5),
                                                          counted.memo.sigma(0.5))
    assert seen == [("k", 0.5), ("sigma", 0.5), ("sigma", 0.5)]
    # the memo takes no part in equality or the hash, so plan-cache keys keep
    same = dataclasses.replace(fouve)
    assert same == fouve and hash(same) == hash(fouve) and same.memo is not fouve.memo


def test_a_dropped_bundle_dies_without_the_cyclic_collector():
    # a memo that held its bundle would keep a dropped bundle alive until a gen-2 collection
    enabled = gc.isenabled()
    gc.disable()
    try:
        sde = isde.make_sde(isde.SdeParams(kind="BBED", c=0.3, r=4.0))
        eps_adapter(analytic_score_model(_G, sde), sde)(0.3, 1.0, 0.5)
        ref = weakref.ref(sde)
        del sde
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_eps_view_reads_sigma_once_per_time(fouve):
    # two p = 2 solves of one eps view read each of their times' sigma once; the
    # plan's reads of whole grids are not counted
    seen = []

    def sigma(t):
        if np.ndim(t) == 0:
            seen.append(float(t))
        return fouve.sigma(t)

    counted = dataclasses.replace(fouve, sigma=sigma)
    eps = eps_adapter(analytic_score_model(_G, counted), counted)
    grid = isde.TimeGrid.for_sde(counted, 11)
    for _ in range(2):
        isde.isde_solve(counted, eps, 1.0, grid, p=2, x_init=np.zeros(4))
    assert len(seen) == len(set(seen)) == 20


_MEMO_VIEWS = {
    "model": lambda sde: analytic_score_model(_G, sde),
    "eps_adapter": lambda sde: eps_adapter(analytic_score_model(_G, sde), sde),
    "score_from_eps": lambda sde: score_from_eps(
        eps_adapter(analytic_score_model(_G, sde), sde), sde),
}


def _served(model):
    """``model`` after it has served t = 0.5 and t = 1.0."""
    for t in (0.5, 1.0):
        model(0.3, 1.0, t)
    return model


@pytest.mark.parametrize("build", _MEMO_VIEWS.values(), ids=_MEMO_VIEWS.keys())
def test_memo_checks_every_rejected_time_on_every_call(fouve, build):
    # the memo keeps accepted times only: a bool, a string, NaN and times out of range
    # raise after 0.5 and 1.0 were served, with a fresh model's message, every time
    bad = (True, "0.5", float("nan"), 0.0, fouve.t_rev + 1e-9)

    def messages(model):
        out = []
        for t in bad:
            with pytest.raises(ParameterError) as err:
                model(0.3, 1.0, t)
            out.append(str(err.value))
        return out

    cold = messages(build(fouve))
    warm = _served(build(fouve))
    assert messages(warm) == messages(warm) == cold
    assert cold[:2] == ["t must be a real number, got True", "t must be a real number, got '0.5'"]
    assert cold[3:] == ["t must be a finite real in (0, 1.0], got 0.0",
                        "t must be a finite real in (0, 1.0], got 1.000000001"]


@pytest.mark.parametrize("build", _MEMO_VIEWS.values(), ids=_MEMO_VIEWS.keys())
def test_memo_serves_other_time_types_bitwise(fouve, build):
    # np.float64(0.5) and a 0-d array are checked into the float 0.5 and give its output
    x = np.linspace(-1.0, 2.0, 7)
    model = _served(build(fouve))
    want = model(x, 1.0, 0.5).tobytes()
    for t in (np.float64(0.5), np.array(0.5), 0.5):
        assert model(x, 1.0, t).tobytes() == want, repr(t)
    assert build(fouve)(x, 1.0, np.float64(0.5)).tobytes() == want


def test_zero_sigma_view_raises_before_the_wrapped_model(ouve):
    # sigma(0) = 0 on OUVE: each view rejects t = 0 before it calls the wrapped model,
    # also after it has served other times, and on every call
    for view, given in ((eps_adapter, "score"), (score_from_eps, "eps")):
        inner = ScoreModel(lambda x, y, t: np.asarray(x, dtype=float), parameterization=given)
        model = _served(view(inner, ouve))
        assert inner.nfe == 2
        for _ in range(2):
            with pytest.raises(SingularityError, match=r"^sigma\(t\) = 0 at t=0\.0;"):
                model(0.3, 1.0, 0.0)
        assert inner.nfe == 2


@pytest.mark.parametrize("view, given", [(eps_adapter, "score"), (score_from_eps, "eps")],
                         ids=["eps_adapter", "score_from_eps"])
@pytest.mark.parametrize("kind, t", [("BrownianBridge", 1.5), ("BrownianBridge", -0.25),
                                     ("OUVE", -0.5)])
def test_sigma_view_rejects_a_time_outside_the_schedule(all_sdes, view, given, kind, t):
    # outside [0, t_max) the variance can be negative and sigma NaN: each view raises
    # ParameterError naming t, with no warning, before it calls the wrapped model
    inner = ScoreModel(lambda x, y, t: np.asarray(x, dtype=float), parameterization=given)
    model = view(inner, all_sdes[kind])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match=rf"^t must be a finite real in \[0, .*got {t}$"):
            model(0.3, 1.0, t)
    assert inner.nfe == 0


def test_zero_variance_marginal_raises(fouve):
    frozen = dataclasses.replace(fouve, var=lambda t: 0.0 * np.asarray(t, dtype=float))
    for prior in (DeltaPrior(0.5), MixturePrior((0.3, 0.7), (-0.5, 1.0), (0.0, 0.04))):
        with pytest.raises(SingularityError):
            analytic_score(prior, frozen, 0.3, 1.0, 0.5)


# ------------------------------------------------------ model wrapper + eps

def test_model_counts_evaluations(fouve, gaussian_prior):
    model = analytic_score_model(gaussian_prior, fouve)
    assert model.nfe == 0
    for _ in range(3):
        model(0.2, 1.0, 0.5)
    assert model.nfe == 3
    model.reset()
    assert model.nfe == 0
    assert "analytic-GaussianPrior" in repr(model)


def test_model_rejects_unknown_parameterization():
    with pytest.raises(ParameterError):
        ScoreModel(lambda x, y, t: x, parameterization="velocity")


def test_eps_round_trip(fouve, gaussian_prior):
    model = analytic_score_model(gaussian_prior, fouve)
    back = score_from_eps(eps_adapter(model, fouve), fouve)
    rng = np.random.default_rng(4)
    for _ in range(20):
        t = rng.uniform(0.05, 1.0)
        x = rng.normal()
        assert back(x, 1.0, t) == pytest.approx(model(x, 1.0, t), rel=1e-14)
    # the wrapped model is evaluated once per outer call
    assert model.nfe == 40


def test_eps_adapter_type_checks(fouve, gaussian_prior):
    model = analytic_score_model(gaussian_prior, fouve)
    eps = eps_adapter(model, fouve)
    assert eps.parameterization == "eps"
    with pytest.raises(ParameterError):
        eps_adapter(eps, fouve)
    with pytest.raises(ParameterError):
        score_from_eps(model, fouve)


def test_eps_view_undefined_at_zero_sigma(ouve, gaussian_prior):
    # OUVE starts at zero variance, so the eps view has no value at t = 0
    model = analytic_score_model(gaussian_prior, ouve)
    eps = eps_adapter(model, ouve)
    with pytest.raises(SingularityError):
        eps(0.3, 1.0, 0.0)
    back = score_from_eps(eps, ouve)
    with pytest.raises(SingularityError):
        back(0.3, 1.0, 0.0)


# -------------------------------------------------------------------- losses

def test_dsm_loss_zero_for_exact_delta_model(fouve, delta_prior):
    model = analytic_score_model(delta_prior, fouve)
    rng = np.random.default_rng(21)
    loss = dsm_loss_mc(model, delta_prior, fouve, 1.0, 500, rng)
    assert loss <= 1e-15
    assert model.nfe == 500


def test_dsm_loss_of_zero_model_matches_closed_form(fouve, delta_prior):
    # a model that always answers 0 leaves E || eps / sigma ||^2 = E[1/sigma_t^2]
    rho = math.log(100.0)
    d, t0, t1 = 1e-3, fouve.delta, fouve.t_rev
    want = (math.exp(-2 * rho * t0) - math.exp(-2 * rho * t1)) / (
        d ** 2 * 2 * rho * (t1 - t0))
    zero = ScoreModel(lambda x, y, t: np.zeros(np.shape(x)), name="zero")
    rng = np.random.default_rng(33)
    loss = dsm_loss_mc(zero, delta_prior, fouve, 1.0, 20_000, rng)
    assert loss == pytest.approx(want, rel=0.04)


def test_loss_sample_count_must_be_a_positive_integer(fouve, delta_prior):
    model = analytic_score_model(delta_prior, fouve)
    for n in (0, 2.5, True, "10"):
        with pytest.raises(ParameterError, match="n_samples"):
            dsm_loss_mc(model, delta_prior, fouve, 1.0, n, np.random.default_rng(0))


def test_eps_loss_of_zero_model_is_dimension(fouve):
    prior = DeltaPrior(0.5, dimension=4)
    zero = ScoreModel(lambda x, y, t: np.zeros(np.shape(x)),
                      parameterization="eps", name="zero")
    rng = np.random.default_rng(8)
    loss = eps_loss_mc(zero, prior, fouve, 1.0, 4000, rng)
    assert loss == pytest.approx(4.0, rel=0.1)


def test_eps_loss_zero_for_exact_delta_model(fouve, delta_prior):
    model = eps_adapter(analytic_score_model(delta_prior, fouve), fouve)
    rng = np.random.default_rng(5)
    loss = eps_loss_mc(model, delta_prior, fouve, 1.0, 300, rng)
    assert loss <= 1e-20


def test_loss_sample_count_validation(fouve, delta_prior):
    model = analytic_score_model(delta_prior, fouve)
    with pytest.raises(ParameterError):
        dsm_loss_mc(model, delta_prior, fouve, 1.0, 0, np.random.default_rng(0))
