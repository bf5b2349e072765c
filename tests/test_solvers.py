import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
from hypothesis import given, settings, strategies as st

import isde
from isde import (
    SdeParams,
    SolverSpec,
    TimeGrid,
    ScoreModel,
    analytic_score_model,
    eps_adapter,
    euler_maruyama,
    integrate,
    isde_solve,
    ito_increment,
    linear_step,
    make_sde,
    nfe_per_step,
    omega_weight,
    pc_sampler,
    reference_solution,
    reverse_init,
    rk2_midpoint,
    rk45_adaptive,
    run_solver,
)
from isde.errors import (
    DivergenceError,
    ParameterError,
    QuadratureDomainError,
    ShapeError,
    StiffnessError,
)
from isde import solvers
from isde.solvers import _step_plan


def zero_model():
    return ScoreModel(lambda x, y, t: np.zeros(np.shape(x)), name="zero")


def ensemble_error(sde, prior, y, run, n=256, seed=1234):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    x0 = reverse_init(sde, y, rng, shape=(n,))
    ref = reference_solution(sde, prior, y, x0)
    return float(np.mean(np.abs(run(x0).final_state - ref)))


# ------------------------------------------------------------ grids and specs

def test_grid_validation():
    with pytest.raises(ParameterError):
        TimeGrid(np.array([0.1, 0.5]))          # increasing
    with pytest.raises(ParameterError):
        TimeGrid(np.array([0.5, 0.5]))          # not strict
    with pytest.raises(ParameterError):
        TimeGrid(np.array([0.5, 0.0]))          # stops at 0
    with pytest.raises(ParameterError):
        TimeGrid(np.array([0.5]))               # single node
    with pytest.raises(ParameterError):
        TimeGrid(np.array([[1.0, 0.5]]))        # 2-d
    with pytest.raises(ParameterError):
        TimeGrid(np.array([np.inf, 0.5]))
    with pytest.raises(ParameterError):
        TimeGrid.uniform(1.0, 0.01, 1)
    for n_nodes in (5.9, 5.0, "5", True):
        with pytest.raises(ParameterError, match="n_nodes"):
            TimeGrid.uniform(1.0, 0.01, n_nodes)
    assert TimeGrid.uniform(1.0, 0.01, np.int64(5)).times.size == 5


def test_grid_properties(fouve):
    grid = TimeGrid.for_sde(fouve, 11)
    assert grid.n_steps == 10
    assert grid.times[0] == fouve.t_rev
    assert grid.times[-1] == fouve.delta
    with pytest.raises(ValueError):
        grid.times[0] = 5.0                     # nodes are frozen


def test_grid_is_copied():
    src = np.array([1.0, 0.5, 0.01])
    grid = TimeGrid(src)
    src[0] = 99.0
    assert grid.times[0] == 1.0


@pytest.mark.parametrize("kwargs", [
    {"kind": "leapfrog"},
    {"kind": "isde", "p": 3},
    {"kind": "isde", "kappa": -0.5},
    {"kind": "pc", "corrector_stepsize": -0.1},
    {"kind": "rk45", "rtol": 0.0},
    {"kind": "isde", "p": True},
    {"kind": "isde", "p": 2.0},
    {"kind": "isde", "kappa": True},
    {"kind": "isde", "kappa": "0.25"},
    {"kind": ["isde"]},                                  # unhashable
])
def test_spec_validation(kwargs):
    with pytest.raises(ParameterError):
        SolverSpec(**kwargs)


def test_nfe_per_step():
    assert nfe_per_step(SolverSpec(kind="isde", p=1)) == 1
    assert nfe_per_step(SolverSpec(kind="isde", p=2)) == 2
    assert nfe_per_step(SolverSpec(kind="euler_maruyama")) == 1
    assert nfe_per_step(SolverSpec(kind="pc")) == 2
    assert nfe_per_step(SolverSpec(kind="rk2")) == 2
    assert nfe_per_step(SolverSpec(kind="rk45")) is None


# ------------------------------------------------------------------ building

def test_reverse_init_moments(fouve):
    rng = np.random.default_rng(9)
    n = 50_000
    x = reverse_init(fouve, 1.0, rng, shape=(n,))
    sd = float(fouve.sigma(fouve.t_rev))
    assert np.mean(x) == pytest.approx(1.0, abs=5 * sd / math.sqrt(n))
    assert np.std(x) == pytest.approx(sd, rel=0.02)
    assert reverse_init(fouve, np.ones(3), rng).shape == (3,)
    with pytest.raises(ShapeError):
        reverse_init(fouve, np.ones(3), rng, shape=(4,))


def test_linear_step_value(fouve):
    # backward transport is expansive: from t=1 to t=0.5 the factor is e
    out = linear_step(fouve, 1.0, 0.0, 1.0, 0.5)
    assert out == pytest.approx(math.e, rel=1e-13)
    assert linear_step(fouve, 0.7, 0.7, 1.0, 0.5) == pytest.approx(0.7, rel=1e-14)


def test_linear_step_matches_backward_ode(all_sdes):
    # dx/dt = gamma(t)(y - x) integrated backward with a fine RK4 sweep
    y = 1.0
    for name, sde in all_sdes.items():
        t_from, t_to = 0.9, 0.3
        x, t = 2.0, t_from
        h = (t_to - t_from) / 2000
        f = lambda tt, xx: float(sde.gamma(tt)) * (y - xx)
        for _ in range(2000):
            k1 = f(t, x)
            k2 = f(t + h / 2, x + h / 2 * k1)
            k3 = f(t + h / 2, x + h / 2 * k2)
            k4 = f(t + h, x + h * k3)
            x += h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
        assert x == pytest.approx(linear_step(sde, 2.0, y, t_from, t_to), rel=1e-9), name


def test_linear_step_domain():
    ot = make_sde(SdeParams(kind="OT", sigma_max=0.1))
    with pytest.raises(ParameterError):
        linear_step(ot, 1.0, 0.0, 1.0, 0.5)
    fo = make_sde(SdeParams(kind="fOUVE", sigma_min=0.001, sigma_max=0.1, gamma0=2.0))
    with pytest.raises(ShapeError):
        linear_step(fo, np.zeros(3), np.ones(4), 1.0, 0.5)


# -------------------------------------------------------------------- weights

def test_omega_weight_reference_value(fouve):
    w0 = omega_weight(fouve, 0, 1.0, 0.5)
    assert w0 == pytest.approx(-0.04337640454513138, rel=1e-12)


def test_omega_weight_signs_and_degenerate(fouve):
    assert omega_weight(fouve, 0, 1.0, 0.5) < 0.0
    assert omega_weight(fouve, 1, 1.0, 0.5) > 0.0
    assert omega_weight(fouve, 0, 0.7, 0.7) == 0.0


def test_omega_weight_domain(fouve):
    with pytest.raises(ParameterError):
        omega_weight(fouve, 0, 0.5, 0.7)
    for n in (-1, 1.5, True):
        with pytest.raises(ParameterError):
            omega_weight(fouve, n, 1.0, 0.5)
    ot = make_sde(SdeParams(kind="OT", sigma_max=0.1))
    with pytest.raises(ParameterError):
        omega_weight(ot, 0, 1.0, 0.5)


def test_omega_closed_forms_match_quadrature(fouve, ouve):
    rng = np.random.default_rng(12)
    for sde in (fouve, ouve):
        def big_g(u):
            return float(sde.g(u)) ** 2 / (2.0 * (1.0 - float(sde.k(u))))

        for _ in range(10):
            tl, th = np.sort(rng.uniform(0.01, 1.0, size=2))
            if th - tl < 1e-3:
                continue
            for n in (0, 1):
                val, _ = scipy.integrate.quad(
                    lambda u: big_g(u) * (u - th) ** n / math.factorial(n),
                    tl, th, epsabs=1e-15, epsrel=1e-13)
                assert omega_weight(sde, n, th, tl) == pytest.approx(-val, rel=1e-8)


def test_omega_quadrature_fallback(fouve):
    # n >= 2 and non-exponential kinds have no closed form
    bbed = make_sde(SdeParams(kind="BBED", c=0.3, r=4.0))
    for sde, n in ((fouve, 2), (bbed, 0), (bbed, 1)):
        def big_g(u):
            return float(sde.g(u)) ** 2 / (2.0 * (1.0 - float(sde.k(u))))

        th, tl = 0.8, 0.3
        val, _ = scipy.integrate.quad(
            lambda u: big_g(u) * (u - th) ** n / math.factorial(n),
            tl, th, epsabs=1e-15, epsrel=1e-13)
        assert omega_weight(sde, n, th, tl) == pytest.approx(-val, rel=1e-8)


def test_ito_increment_variance_identity(all_sdes):
    rng = np.random.default_rng(6)
    for name, sde in all_sdes.items():
        tol = 1e-6 if name == "BBED" else 1e-10
        for _ in range(8):
            tl, th = np.sort(rng.uniform(sde.delta, sde.t_rev, size=2))
            if th - tl < 1e-3:
                continue
            inc = ito_increment(sde, th, tl)
            phi = (1.0 - float(sde.k(tl))) / (1.0 - float(sde.k(th)))
            want = phi ** 2 * float(sde.var(th)) - float(sde.var(tl))
            assert inc ** 2 == pytest.approx(want, rel=tol), name
        assert ito_increment(sde, 0.5, 0.5) == 0.0
    with pytest.raises(ParameterError):
        ito_increment(all_sdes["fOUVE"], 0.3, 0.6)


# ----------------------------------------------------------------- step plans

@pytest.mark.parametrize("nodes", [11, 41, 201])
def test_step_plan_weights_match_scalar_quadrature(all_sdes, nodes):
    for name, sde in all_sdes.items():
        times = TimeGrid.for_sde(sde, nodes).times
        plan = _step_plan(sde, times, p=2, kappa=0.5, eps_mode=False)

        def big_g(u):
            return float(sde.g(u)) ** 2 / (2.0 * (1.0 - float(sde.k(u))))

        def diffusion(u):
            return (float(sde.g(u)) / (1.0 - float(sde.k(u)))) ** 2

        for i in range(times.size - 1):
            th, tl, tm = float(times[i]), float(times[i + 1]), float(plan.t_mid[i])
            oracle = {
                "w0": integrate(big_g, tl, th, abs_tol=1e-14, rel_tol=1e-12).value,
                # the stage's coefficient of the score: (1 - k_mid) -omega_0 from t_hi to t_mid
                "a_mid": (1.0 - float(sde.k(tm)))
                * integrate(big_g, tm, th, abs_tol=1e-14, rel_tol=1e-12).value,
                "w1": integrate(lambda u: big_g(u) * (u - th), tl, th,
                                abs_tol=1e-14, rel_tol=1e-12).value,
                "ito_std": (1.0 - float(sde.k(tl))) * math.sqrt(
                    integrate(diffusion, tl, th, abs_tol=1e-14, rel_tol=1e-12).value),
            }
            for field, want in oracle.items():
                got = getattr(plan, field)[i]
                assert abs(got - want) <= 1e-10 * abs(want), (name, nodes, i, field)


def test_step_plan_ito_variance_identity(all_sdes):
    for name, sde in all_sdes.items():
        times = TimeGrid.for_sde(sde, 41).times
        plan = _step_plan(sde, times, p=1, kappa=1.0, eps_mode=False)
        want = plan.phi ** 2 * sde.var(times[:-1]) - sde.var(times[1:])
        tol = 1e-6 if name == "BBED" else 1e-10  # BBED's variance is tabulated
        np.testing.assert_allclose(plan.ito_std ** 2, want, rtol=tol, err_msg=name)
        assert plan.a_mid is None and plan.t_mid is None


def test_step_plan_eps_midpoints_bisect_lambda(all_sdes):
    def lam(sde, t):
        return math.log((1.0 - float(sde.k(t))) / float(sde.sigma(t)))

    for name, sde in all_sdes.items():
        for nodes in (2, 11, 201):
            times = TimeGrid.for_sde(sde, nodes).times
            plan = _step_plan(sde, times, p=2, kappa=0.0, eps_mode=True)
            assert np.all(times[1:] < plan.t_mid) and np.all(plan.t_mid < times[:-1]), name
            for th, tl, tm in zip(times[:-1], times[1:], plan.t_mid):
                lam_mid = 0.5 * (lam(sde, th) + lam(sde, tl))
                assert abs(lam(sde, tm) - lam_mid) <= 1e-12, (name, nodes)


def _step_by_mode(sde, model, x, y, th, tl, p, kappa, z):
    """One isde_solve step from th to tl by its four score/eps x p formulas,
    each written out, with the noise draw z."""
    def lam(t):
        return math.log((1.0 - float(sde.k(t))) / float(sde.sigma(t)))

    k_hi, k_lo = float(sde.k(th)), float(sde.k(tl))
    phi = (1.0 - k_lo) / (1.0 - k_hi)
    out_hi = model(x, y, th)
    if model.parameterization == "score":
        w0 = -omega_weight(sde, 0, th, tl)
        if p == 1:
            corr = out_hi * w0
        else:
            tm = 0.5 * (th + tl)
            k_mid = float(sde.k(tm))
            phi_m = (1.0 - k_mid) / (1.0 - k_hi)
            x_mid = (phi_m * x + (1.0 - phi_m) * y
                     + (1.0 - k_mid) * out_hi * -omega_weight(sde, 0, th, tm))
            s_dot = (out_hi - model(x_mid, y, tm)) / (th - tm)
            corr = out_hi * w0 + s_dot * -omega_weight(sde, 1, th, tl)
        x = phi * x + (1.0 - phi) * y + (1.0 + kappa ** 2) * (1.0 - k_lo) * corr
    else:
        lam_hi, lam_lo = lam(th), lam(tl)
        h = lam_lo - lam_hi
        sig_lo = float(sde.sigma(tl))
        if p == 1:
            step_term = sig_lo * math.expm1(h) * out_hi
        else:
            lam_mid = 0.5 * (lam_hi + lam_lo)
            tm = scipy.optimize.brentq(lambda t: lam(t) - lam_mid, tl, th, xtol=1e-15)
            phi_m = (1.0 - float(sde.k(tm))) / (1.0 - k_hi)
            x_mid = (phi_m * x + (1.0 - phi_m) * y
                     - float(sde.sigma(tm)) * math.expm1(0.5 * h) * out_hi)
            eps_dot = (out_hi - model(x_mid, y, tm)) / (lam_hi - lam_mid)
            step_term = sig_lo * (math.expm1(h) * out_hi + (math.expm1(h) - h) * eps_dot)
        x = phi * x + (1.0 - phi) * y - (1.0 + kappa ** 2) * step_term
    return x + kappa * ito_increment(sde, th, tl) * z


@pytest.mark.parametrize("name", ["fOUVE", "OT"])
@pytest.mark.parametrize("th, tl", [(0.95, 0.8), (0.3, 0.22)])
def test_isde_step_matches_each_mode_written_out(all_sdes, name, th, tl):
    # the one step rule over the plan equals the score/eps x p = 1/2 formulas
    sde = all_sdes[name]
    prior = isde.MixturePrior((0.3, 0.5, 0.2), (-1.0, 0.4, 2.0), (0.25, 0.04, 0.5))
    score_model = analytic_score_model(prior, sde)
    rng = np.random.default_rng(17)
    x, y = rng.normal(0.5, 0.6, size=200), 1.0
    seed = 5
    z = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,))).standard_normal(200)
    for model in (score_model, eps_adapter(score_model, sde)):
        for p in (1, 2):
            for kappa in (0.0, 0.5):
                got = isde_solve(sde, model, y, TimeGrid(np.array([th, tl])), p=p, kappa=kappa,
                                 seed=seed, x_init=x).final_state
                want = _step_by_mode(sde, model, x, y, th, tl, p, kappa, z)
                np.testing.assert_allclose(got, want, rtol=1e-12,
                                           atol=1e-12 * np.abs(want).max(),
                                           err_msg=f"{model.parameterization} p={p} kappa={kappa}")


def test_isde_nfe_on_every_schedule(all_sdes, gaussian_prior):
    for name, sde in all_sdes.items():
        grid = TimeGrid.for_sde(sde, 6)
        model = analytic_score_model(gaussian_prior, sde)
        for mdl in (model, eps_adapter(model, sde)):
            for p, kappa in ((1, 0.0), (2, 0.0), (2, 0.5)):
                before = model.nfe
                out = isde_solve(sde, mdl, 1.0, grid, p=p, kappa=kappa, seed=3,
                                 x_init=np.linspace(0.0, 1.0, 4))
                assert out.nfe == p * grid.n_steps == model.nfe - before, name
                assert np.all(np.isfinite(out.final_state)), name


def test_isde_schedule_nan_inside_a_step(all_sdes, gaussian_prior):
    ot = all_sdes["OT"]

    def g(t):
        tt = np.asarray(t, dtype=float)
        return np.where((tt > 0.52) & (tt < 0.53), np.nan, ot.g(tt))

    broken = dataclasses.replace(ot, g=g)
    model = analytic_score_model(gaussian_prior, ot)
    grid = TimeGrid.for_sde(ot, 11)
    for p, kappa in ((1, 0.0), (2, 0.0), (1, 0.5)):
        calls = model.nfe
        with pytest.raises(QuadratureDomainError):
            isde_solve(broken, model, 1.0, grid, p=p, kappa=kappa, x_init=np.zeros(3))
        assert model.nfe == calls  # the plan fails before the first model call


# ------------------------------------------------------- exponential sampler

def test_zero_score_reduces_to_linear_transport(fouve):
    grid = TimeGrid.for_sde(fouve, 9)
    out = isde_solve(fouve, zero_model(), 1.0, grid, p=1, kappa=0.0, x_init=0.3)
    x = 0.3
    for i in range(grid.times.size - 1):
        x = linear_step(fouve, x, 1.0, float(grid.times[i]), float(grid.times[i + 1]))
    assert float(out.final_state) == x


def test_isde_orders(fouve, gaussian_prior):
    model = analytic_score_model(gaussian_prior, fouve)
    ratios = {}
    for p in (1, 2):
        errs = [ensemble_error(
            fouve, gaussian_prior, 1.0,
            lambda x0, M=M: isde_solve(fouve, model, 1.0, TimeGrid.for_sde(fouve, M + 1),
                                       p=p, kappa=0.0, x_init=x0))
            for M in (10, 40)]
        ratios[p] = errs[0] / errs[1]
    # quartering the step should divide the error by ~4 (p=1) / ~16 (p=2)
    assert 2.5 <= ratios[1] <= 7.0
    assert 10.0 <= ratios[2] <= 35.0


def test_isde_eps_mode_orders(fouve, gaussian_prior):
    model = eps_adapter(analytic_score_model(gaussian_prior, fouve), fouve)
    for p, lo, hi in ((1, 2.5, 7.0), (2, 10.0, 35.0)):
        errs = [ensemble_error(
            fouve, gaussian_prior, 1.0,
            lambda x0, M=M: isde_solve(fouve, model, 1.0, TimeGrid.for_sde(fouve, M + 1),
                                       p=p, kappa=0.0, x_init=x0))
            for M in (10, 40)]
        assert lo <= errs[0] / errs[1] <= hi, p


def test_eps_first_order_step_is_the_dpm_update(fouve, gaussian_prior):
    model = eps_adapter(analytic_score_model(gaussian_prior, fouve), fouve)

    def dpm1_step(x, t_hi, t_lo):
        a_hi = 1.0 - float(fouve.k(t_hi))
        a_lo = 1.0 - float(fouve.k(t_lo))
        s_lo = float(fouve.sigma(t_lo))
        h = math.log(a_lo / s_lo) - math.log(a_hi / float(fouve.sigma(t_hi)))
        eps_hat = float(model(x, 0.0, t_hi))
        return (a_lo / a_hi) * x - s_lo * math.expm1(h) * eps_hat

    rng = np.random.default_rng(77)
    for _ in range(50):
        tl, th = np.sort(rng.uniform(fouve.delta, fouve.t_rev, size=2))
        if th - tl < 1e-4:
            continue
        x = rng.normal()
        grid = TimeGrid(np.array([th, tl]))
        mine = float(isde_solve(fouve, model, 0.0, grid, p=1, kappa=0.0,
                                x_init=x).final_state)
        assert abs(mine - dpm1_step(x, th, tl)) <= 1e-14 * max(1.0, abs(mine))


@pytest.mark.parametrize("call", [
    lambda sde: TimeGrid.uniform("1.0", 0.01, 5),
    lambda sde: TimeGrid.uniform(1.0, True, 5),
    lambda sde: omega_weight(sde, 0, "1.0", 0.5),
    lambda sde: ito_increment(sde, 1.0, "0.5"),
    lambda sde: rk45_adaptive(sde, zero_model(), 1.0, "1.0", 0.01),
    lambda sde: reference_solution(sde, isde.DeltaPrior(0.5), 1.0, 0.9, t_start="0.9"),
])
def test_times_must_be_numbers(fouve, call):
    with pytest.raises(ParameterError, match="t_"):
        call(fouve)


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
def test_solver_seed_must_be_a_nonnegative_integer(fouve, seed):
    grid = TimeGrid.for_sde(fouve, 5)
    for spec in (SolverSpec("isde", p=2), SolverSpec("rk45")):
        with pytest.raises(ParameterError, match="seed"):
            run_solver(fouve, zero_model(), 1.0, grid, spec, seed=seed)


_SPECS = (SolverSpec("isde", p=2), SolverSpec("euler_maruyama", kappa=1.0), SolverSpec("pc"),
          SolverSpec("rk2"), SolverSpec("rk45"))


@pytest.mark.parametrize("y, x_init", [
    ("1.0", ["0.9", "1.1"]),
    ("1.0", None),
    (b"1.0", None),
    (True, None),
    (np.array([True, False]), None),
    (1.0 + 0.5j, None),
    (1.0, ["0.9", "1.1"]),
    (1.0, [0.9, "1.1"]),
    (1.0, [True, False]),
    (1.0, [0.9, None]),
    (1.0, [[0.9], [1.0, 1.1]]),
])
def test_states_must_be_numbers(fouve, y, x_init):
    # the number rule holds for y and the start state as for every scalar
    grid = TimeGrid.for_sde(fouve, 5)
    for spec in _SPECS:
        with pytest.raises(ParameterError, match="y|x_init"):
            run_solver(fouve, zero_model(), y, grid, spec, x_init=x_init)
    with pytest.raises(ParameterError, match="y|x_init"):
        isde_solve(fouve, zero_model(), y, grid, x_init=x_init)
    if x_init is None:
        with pytest.raises(ParameterError, match="y"):
            reverse_init(fouve, y, np.random.default_rng(0))
    with pytest.raises(ParameterError, match="x|y"):
        linear_step(fouve, x_init if x_init is not None else 0.5, y, 0.5, 0.4)


def test_integer_and_object_states_are_numbers(fouve):
    grid = TimeGrid.for_sde(fouve, 5)
    ref = isde_solve(fouve, zero_model(), 1.0, grid, x_init=np.array([1.0, 0.5]))
    for y, x_init in ((1, [1, Fraction(1, 2)]), (np.int64(1), np.array([1.0, 0.5], np.float32))):
        out = isde_solve(fouve, zero_model(), y, grid, x_init=x_init)
        np.testing.assert_array_equal(out.final_state, ref.final_state)


def test_solvers_make_only_the_streams_they_draw_from(fouve, monkeypatch):
    # channel 0 draws the start, 1 the diffusion increments, 2 the corrector noise
    made = []
    real = solvers._channel_rng
    monkeypatch.setattr(solvers, "_channel_rng",
                        lambda seed, channel: made.append(channel) or real(seed, channel))
    grid = TimeGrid.for_sde(fouve, 5)
    for spec, channels in ((SolverSpec("isde", p=2), []), (SolverSpec("isde", kappa=0.5), [1]),
                           (SolverSpec("euler_maruyama"), []),
                           (SolverSpec("euler_maruyama", kappa=1.0), [1]),
                           (SolverSpec("pc"), [1, 2]), (SolverSpec("rk2"), []),
                           (SolverSpec("rk45"), [])):
        for x_init, start in ((0.5, []), (None, [0])):
            made.clear()
            run_solver(fouve, zero_model(), 1.0, grid, spec, seed=3, x_init=x_init)
            assert made == start + channels, spec


def test_isde_kappa_zero_ignores_seed(fouve, gaussian_prior):
    model = analytic_score_model(gaussian_prior, fouve)
    grid = TimeGrid.for_sde(fouve, 11)
    a = isde_solve(fouve, model, 1.0, grid, p=2, kappa=0.0, seed=1, x_init=0.7)
    b = isde_solve(fouve, model, 1.0, grid, p=2, kappa=0.0, seed=2, x_init=0.7)
    assert float(a.final_state) == float(b.final_state)


def test_isde_stochastic_determinism(fouve, gaussian_prior):
    model = analytic_score_model(gaussian_prior, fouve)
    grid = TimeGrid.for_sde(fouve, 11)
    a = isde_solve(fouve, model, 1.0, grid, p=2, kappa=0.8, seed=5,
                   keep_trajectory=True)
    b = isde_solve(fouve, model, 1.0, grid, p=2, kappa=0.8, seed=5,
                   keep_trajectory=True)
    c = isde_solve(fouve, model, 1.0, grid, p=2, kappa=0.8, seed=6)
    assert np.array_equal(a.trajectory, b.trajectory)
    assert float(a.final_state) != float(c.final_state)
    assert a.seed == 5


def test_kappa_shares_the_deterministic_start(fouve, gaussian_prior):
    # same seed => same initial draw whether or not diffusion noise is used
    model = analytic_score_model(gaussian_prior, fouve)
    grid = TimeGrid.for_sde(fouve, 6)
    a = isde_solve(fouve, model, 1.0, grid, kappa=0.0, seed=3, keep_trajectory=True)
    b = isde_solve(fouve, model, 1.0, grid, kappa=1.0, seed=3, keep_trajectory=True)
    assert np.array_equal(a.trajectory[0], b.trajectory[0])
    assert not np.array_equal(a.trajectory[-1], b.trajectory[-1])


def test_trajectory_bookkeeping(fouve, gaussian_prior):
    model = analytic_score_model(gaussian_prior, fouve)
    grid = TimeGrid.for_sde(fouve, 7)
    out = isde_solve(fouve, model, 1.0, grid, p=2, kappa=0.3, seed=2, x_init=0.4,
                     keep_trajectory=True)
    assert out.trajectory.shape[0] == 7
    assert float(out.trajectory[0]) == 0.4
    assert float(out.trajectory[-1]) == float(out.final_state)
    plain = isde_solve(fouve, model, 1.0, grid, p=2, kappa=0.3, seed=2, x_init=0.4)
    assert plain.trajectory is None
    assert float(plain.final_state) == float(out.final_state)


def test_batch_matches_scalar_runs(fouve, gaussian_prior):
    model = analytic_score_model(gaussian_prior, fouve)
    grid = TimeGrid.for_sde(fouve, 9)
    x0 = np.linspace(0.4, 1.6, 64)
    batch = isde_solve(fouve, model, 1.0, grid, p=2, kappa=0.0, x_init=x0)
    singles = np.array([
        float(isde_solve(fouve, model, 1.0, grid, p=2, kappa=0.0,
                         x_init=float(v)).final_state)
        for v in x0])
    assert np.allclose(batch.final_state, singles, rtol=1e-14, atol=0.0)


def test_isde_validation(fouve, gaussian_prior):
    model = analytic_score_model(gaussian_prior, fouve)
    grid = TimeGrid.for_sde(fouve, 5)
    for p in (3, True, 2.0):
        with pytest.raises(ParameterError):
            isde_solve(fouve, model, 1.0, grid, p=p)
    with pytest.raises(ParameterError):
        isde_solve(fouve, model, 1.0, grid, kappa=-0.2)
    with pytest.raises(ParameterError):
        isde_solve(fouve, model, 1.0, TimeGrid.uniform(1.5, 0.01, 5))
    with pytest.raises(ShapeError):
        isde_solve(fouve, model, np.ones(4), grid, x_init=np.zeros(3))


def test_divergence_reports_location(fouve):
    # every fixed-grid solver stops at the first step whose state is non-finite
    bad = ScoreModel(lambda x, y, t: np.full(np.shape(x), np.nan), name="nan")
    grid = TimeGrid.for_sde(fouve, 5)
    runs = {
        "isde-p1": lambda: isde_solve(fouve, bad, 1.0, grid, p=1, x_init=0.5),
        "isde-p2": lambda: isde_solve(fouve, bad, 1.0, grid, p=2, x_init=0.5),
        "eum": lambda: euler_maruyama(fouve, bad, 1.0, grid, kappa=0.0, x_init=0.5),
        "pc": lambda: pc_sampler(fouve, bad, 1.0, grid, x_init=0.5),
        "rk2": lambda: rk2_midpoint(fouve, bad, 1.0, grid, x_init=0.5),
    }
    for label, run in runs.items():
        with pytest.raises(DivergenceError) as err:
            run()
        assert err.value.step_index == 0, label
        assert err.value.time == float(grid.times[1]), label


# ---------------------------------------------------------------- baselines

def test_euler_matches_hand_recursion(fouve):
    grid = TimeGrid.for_sde(fouve, 21)
    out = euler_maruyama(fouve, zero_model(), 1.0, grid, kappa=0.0, x_init=0.2)
    x = 0.2
    for i in range(grid.times.size - 1):
        th = float(grid.times[i])
        dt = float(grid.times[i + 1]) - th
        x = x + float(fouve.gamma(th)) * (1.0 - x) * dt
    assert float(out.final_state) == pytest.approx(x, rel=1e-15)


def test_euler_noise_scales_with_g():
    # with g ~ 1e-12 the kappa=1 path collapses onto the deterministic one
    tiny = make_sde(SdeParams(kind="BBED", c=1e-12, r=4.0))
    grid = TimeGrid.for_sde(tiny, 41)
    a = euler_maruyama(tiny, zero_model(), 1.0, grid, kappa=1.0, seed=4, x_init=0.3)
    b = euler_maruyama(tiny, zero_model(), 1.0, grid, kappa=0.0, seed=4, x_init=0.3)
    assert float(a.final_state) == pytest.approx(float(b.final_state), abs=1e-9)


def test_euler_converges_to_reference(fouve, gaussian_prior):
    model = analytic_score_model(gaussian_prior, fouve)
    err = ensemble_error(
        fouve, gaussian_prior, 1.0,
        lambda x0: euler_maruyama(fouve, model, 1.0, TimeGrid.for_sde(fouve, 2001),
                                  kappa=0.0, x_init=x0))
    assert err <= 1.5e-3


def test_euler_kappa1_delta_marginal(fouve, delta_prior):
    model = analytic_score_model(delta_prior, fouve)
    grid = TimeGrid.for_sde(fouve, 501)
    rng = np.random.default_rng(5)
    x0 = reverse_init(fouve, 1.0, rng, shape=(2000,))
    out = euler_maruyama(fouve, model, 1.0, grid, kappa=1.0, seed=7, x_init=x0)
    m, v = isde.marginal_moments(delta_prior, fouve, 1.0, fouve.delta)
    assert np.std(out.final_state) == pytest.approx(math.sqrt(v), rel=0.05)
    assert np.mean(out.final_state) == pytest.approx(m, abs=1e-3)


def test_pc_r0_is_bitwise_euler(fouve, gaussian_prior):
    model = analytic_score_model(gaussian_prior, fouve)
    grid = TimeGrid.for_sde(fouve, 31)
    a = pc_sampler(fouve, model, 1.0, grid, corrector_stepsize=0.0, seed=11,
                   keep_trajectory=True)
    b = euler_maruyama(fouve, model, 1.0, grid, kappa=1.0, seed=11,
                       keep_trajectory=True)
    assert np.array_equal(a.trajectory, b.trajectory)
    assert a.nfe == 2 * grid.n_steps
    assert b.nfe == grid.n_steps


def test_pc_corrector_equilibrium(fouve, delta_prior):
    # the discrete Langevin corrector equilibrates above the target spread:
    # one-step analysis gives std ratio sqrt(4/3) ~ 1.155 at r = 0.5 and a
    # negligible inflation at r = 0.1
    model = analytic_score_model(delta_prior, fouve)
    grid = TimeGrid.for_sde(fouve, 501)
    rng = np.random.default_rng(5)
    x0 = reverse_init(fouve, 1.0, rng, shape=(2000,))
    target = float(fouve.sigma(fouve.delta))
    std_half = np.std(pc_sampler(fouve, model, 1.0, grid, corrector_stepsize=0.5,
                                 seed=7, x_init=x0).final_state)
    std_tenth = np.std(pc_sampler(fouve, model, 1.0, grid, corrector_stepsize=0.1,
                                  seed=7, x_init=x0).final_state)
    assert 1.05 <= std_half / target <= 1.25
    assert std_tenth / target == pytest.approx(1.0, abs=0.02)


def test_rk2_exact_for_time_linear_rhs(fouve):
    # craft a score that makes the flow ODE right side c0 + c1 t; the midpoint
    # rule integrates a linear-in-time right side exactly
    c0, c1 = 0.3, -0.8

    def crafted(x, y, t):
        g2 = float(fouve.g(t)) ** 2
        return (float(fouve.gamma(t)) * (y - np.asarray(x)) - (c0 + c1 * t)) * 2.0 / g2

    model = ScoreModel(crafted, name="crafted")
    grid = TimeGrid.for_sde(fouve, 13)
    out = rk2_midpoint(fouve, model, 1.0, grid, x_init=0.25)
    t0, t1 = float(grid.times[0]), float(grid.times[-1])
    want = 0.25 + c0 * (t1 - t0) + 0.5 * c1 * (t1 ** 2 - t0 ** 2)
    assert float(out.final_state) == pytest.approx(want, rel=1e-12)


def test_rk2_order(fouve, gaussian_prior):
    model = analytic_score_model(gaussian_prior, fouve)
    errs = [ensemble_error(
        fouve, gaussian_prior, 1.0,
        lambda x0, M=M: rk2_midpoint(fouve, model, 1.0, TimeGrid.for_sde(fouve, M + 1),
                                     x_init=x0))
        for M in (10, 40)]
    assert 10.0 <= errs[0] / errs[1] <= 35.0


# --------------------------------------------------------------------- rk45

def test_rk45_zero_score_matches_exact_flow(fouve):
    phi = (1.0 - float(fouve.k(fouve.delta))) / (1.0 - float(fouve.k(fouve.t_rev)))
    want = phi * 0.3 + (1.0 - phi) * 1.0
    out = rk45_adaptive(fouve, zero_model(), 1.0, fouve.t_rev, fouve.delta,
                        rtol=1e-8, atol=1e-8, x_init=0.3)
    assert float(out.final_state) == pytest.approx(want, abs=1e-6)


@pytest.mark.parametrize("kwargs", [
    {"rtol": True, "atol": True}, {"rtol": "1e-5"}, {"atol": "1e-5"}, {"max_steps": 2.5},
])
def test_rk45_rejects_malformed_settings(fouve, kwargs):
    # float(True) would run at tolerance 1.0, as SolverSpec already forbids
    with pytest.raises(ParameterError):
        rk45_adaptive(fouve, zero_model(), 1.0, 1.0, 0.01, **kwargs)


def test_rk45_accuracy_and_nfe(fouve, gaussian_prior):
    model = analytic_score_model(gaussian_prior, fouve)
    rng = np.random.default_rng(np.random.SeedSequence([1234, 0]))
    x0 = reverse_init(fouve, 1.0, rng, shape=(8,))
    ref = reference_solution(fouve, gaussian_prior, 1.0, x0)
    out = rk45_adaptive(fouve, model, 1.0, fouve.t_rev, fouve.delta,
                        rtol=1e-5, atol=1e-5, x_init=x0)
    assert np.max(np.abs(out.final_state - ref)) <= 1e-4
    assert 40 < out.nfe < 200
    assert out.nfe % 7 == 0


def test_rk45_tightening_tolerance_reduces_error(fouve, gaussian_prior):
    model = analytic_score_model(gaussian_prior, fouve)
    rng = np.random.default_rng(np.random.SeedSequence([1234, 0]))
    x0 = reverse_init(fouve, 1.0, rng, shape=(8,))
    ref = reference_solution(fouve, gaussian_prior, 1.0, x0)
    errs = {}
    for tol in (1e-3, 1e-8):
        out = rk45_adaptive(fouve, model, 1.0, fouve.t_rev, fouve.delta,
                            rtol=tol, atol=tol, x_init=x0)
        errs[tol] = np.max(np.abs(out.final_state - ref))
    assert errs[1e-8] < errs[1e-3]


def test_rk45_step_budget(fouve, gaussian_prior):
    model = analytic_score_model(gaussian_prior, fouve)
    with pytest.raises(StiffnessError):
        rk45_adaptive(fouve, model, 1.0, fouve.t_rev, fouve.delta, max_steps=3,
                      x_init=0.5)


def test_rk45_divergence(fouve):
    bad = ScoreModel(lambda x, y, t: np.full(np.shape(x), np.inf), name="inf")
    with pytest.raises(DivergenceError):
        rk45_adaptive(fouve, bad, 1.0, fouve.t_rev, fouve.delta, x_init=0.5)


def test_rk45_validation(fouve, gaussian_prior):
    model = analytic_score_model(gaussian_prior, fouve)
    with pytest.raises(ParameterError):
        rk45_adaptive(fouve, model, 1.0, 0.01, 1.0)
    with pytest.raises(ParameterError):
        rk45_adaptive(fouve, model, 1.0, 1.5, 0.01)
    with pytest.raises(ParameterError):
        rk45_adaptive(fouve, model, 1.0, 1.0, 0.01, rtol=-1.0)
    with pytest.raises(ParameterError):
        rk45_adaptive(fouve, model, 1.0, 1.0, 0.01, max_steps=0)


def test_rk45_trajectory(fouve, gaussian_prior):
    model = analytic_score_model(gaussian_prior, fouve)
    out = rk45_adaptive(fouve, model, 1.0, fouve.t_rev, fouve.delta, x_init=0.5,
                        keep_trajectory=True)
    assert out.trajectory.ndim >= 1
    assert float(out.trajectory[0]) == 0.5
    assert float(out.trajectory[-1]) == float(out.final_state)


# ------------------------------------------------------- dispatch + counting

def test_run_solver_matches_direct_calls(fouve, gaussian_prior):
    model = analytic_score_model(gaussian_prior, fouve)
    grid = TimeGrid.for_sde(fouve, 11)
    cases = [
        (SolverSpec(kind="isde", p=2, kappa=0.5),
         lambda: isde_solve(fouve, model, 1.0, grid, p=2, kappa=0.5, seed=3)),
        (SolverSpec(kind="euler_maruyama", kappa=1.0),
         lambda: euler_maruyama(fouve, model, 1.0, grid, kappa=1.0, seed=3)),
        (SolverSpec(kind="pc", corrector_stepsize=0.3),
         lambda: pc_sampler(fouve, model, 1.0, grid, corrector_stepsize=0.3, seed=3)),
        (SolverSpec(kind="rk2"),
         lambda: rk2_midpoint(fouve, model, 1.0, grid, seed=3)),
        (SolverSpec(kind="rk45", rtol=1e-6, atol=1e-6),
         lambda: rk45_adaptive(fouve, model, 1.0, float(grid.times[0]),
                               float(grid.times[-1]), rtol=1e-6, atol=1e-6, seed=3)),
    ]
    for spec, direct in cases:
        a = run_solver(fouve, model, 1.0, grid, spec, seed=3)
        b = direct()
        assert np.array_equal(np.asarray(a.final_state), np.asarray(b.final_state)), spec.kind
        assert a.nfe == b.nfe


def test_nfe_matches_model_counter(fouve, gaussian_prior):
    grid = TimeGrid.for_sde(fouve, 9)
    runs = {
        "isde-p1": lambda m: isde_solve(fouve, m, 1.0, grid, p=1, kappa=0.5, seed=1),
        "isde-p2": lambda m: isde_solve(fouve, m, 1.0, grid, p=2, kappa=0.0, seed=1),
        "eum": lambda m: euler_maruyama(fouve, m, 1.0, grid, seed=1),
        "pc": lambda m: pc_sampler(fouve, m, 1.0, grid, seed=1),
        "rk2": lambda m: rk2_midpoint(fouve, m, 1.0, grid, seed=1),
        "rk45": lambda m: rk45_adaptive(fouve, m, 1.0, fouve.t_rev, fouve.delta, seed=1),
    }
    expected_fixed = {"isde-p1": 8, "isde-p2": 16, "eum": 8, "pc": 16, "rk2": 16}
    for label, run in runs.items():
        model = analytic_score_model(gaussian_prior, fouve)
        out = run(model)
        assert model.nfe == out.nfe, label
        if label in expected_fixed:
            assert out.nfe == expected_fixed[label], label


@pytest.mark.parametrize("kind", ["euler_maruyama", "pc", "rk2", "rk45"])
def test_eps_model_runs_match_score_model(fouve, gaussian_prior, kind):
    # the baselines read an eps model through score = -eps / sigma; the call
    # count they report comes from the solver table, not from a counter
    spec = SolverSpec(kind=kind, kappa=1.0, rtol=1e-6, atol=1e-6)
    grid = TimeGrid.for_sde(fouve, 9)
    x0 = np.linspace(0.5, 1.5, 16)
    ref = run_solver(fouve, analytic_score_model(gaussian_prior, fouve), 1.0, grid, spec,
                     seed=4, x_init=x0)
    eps = eps_adapter(analytic_score_model(gaussian_prior, fouve), fouve)
    out = run_solver(fouve, eps, 1.0, grid, spec, seed=4, x_init=x0)
    assert out.nfe == eps.nfe == ref.nfe
    # relative to the ensemble's scale: an endpoint near 0 keeps the absolute
    # round-off of -(-sigma s) / sigma, not a relative one
    scale = float(np.max(np.abs(ref.final_state)))
    np.testing.assert_allclose(out.final_state, ref.final_state, rtol=1e-12, atol=1e-12 * scale)


# ---------------------------------------------------------------- properties
# Random schedule parameters and intervals in [delta, t_rev]. BBED is left
# out: its variance is interpolated from a table and meets the Ito identity
# to about 1e-7 relative, not the 1e-9 asked here.

@st.composite
def schedules(draw):
    kind = draw(st.sampled_from(["fOUVE", "OUVE", "OT", "BrownianBridge"]))
    if kind in ("fOUVE", "OUVE"):
        sigma_min = draw(st.floats(1e-3, 0.5))
        params = SdeParams(kind=kind, sigma_min=sigma_min,
                           sigma_max=sigma_min * draw(st.floats(1.5, 200.0)),
                           gamma0=draw(st.floats(0.1, 5.0)))
    elif kind == "OT":
        params = SdeParams(kind=kind, sigma_max=draw(st.floats(0.01, 2.0)))
    else:
        params = SdeParams(kind=kind)
    return make_sde(params)


def interval(sde, u, v):
    """(t_from, t_to) with t_from >= t_to, from two fractions of [delta, t_rev]."""
    span = sde.t_rev - sde.delta
    return sde.delta + span * max(u, v), sde.delta + span * min(u, v)


unit = st.floats(0.0, 1.0)


@settings(deadline=None, max_examples=200)
@given(sde=schedules(), u=unit, v=unit)
def test_property_ito_variance_identity(sde, u, v):
    th, tl = interval(sde, u, v)
    phi = (1.0 - float(sde.k(tl))) / (1.0 - float(sde.k(th)))
    hi, lo = phi ** 2 * float(sde.var(th)), float(sde.var(tl))
    # the right side cancels to about eps * hi; the quadrature is good to 1e-10
    assert ito_increment(sde, th, tl) ** 2 == pytest.approx(hi - lo, rel=1e-9, abs=1e-13 * hi)


@settings(deadline=None, max_examples=200)
@given(sde=schedules(), u=unit, v=unit)
def test_property_omega_weight_signs(sde, u, v):
    th, tl = interval(sde, u, v)
    assert omega_weight(sde, 0, th, tl) <= 0.0
    assert omega_weight(sde, 1, th, tl) >= 0.0


@settings(deadline=None, max_examples=200)
@given(sde=schedules(), u=unit, v=unit, nodes=st.integers(2, 40))
def test_property_plan_phi_multiplies_to_the_transition_factor(sde, u, v, nodes):
    th, tl = interval(sde, u, v)
    if th - tl < 1e-9:
        th, tl = sde.t_rev, sde.delta
    grid = TimeGrid.uniform(th, tl, nodes)
    phi = _step_plan(sde, grid.times, 1, 0.0, eps_mode=True).phi
    want = (1.0 - float(sde.k(grid.times[-1]))) / (1.0 - float(sde.k(grid.times[0])))
    assert float(np.prod(phi)) == pytest.approx(want, rel=1e-12)
