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
from isde import quadrature, solvers
from isde.solvers import _step_plan


def zero_model():
    return ScoreModel(lambda x, y, t: np.zeros(np.shape(x)), name="zero")


def recording(model):
    """``model`` with a log, ``.calls``, of every call's state (a copy) and time."""
    calls = []

    def fn(x, y, t):
        calls.append((np.array(x, copy=True), t))
        return model(x, y, t)

    out = ScoreModel(fn, model.parameterization, name=f"recorded-{model.name}")
    out.calls = calls
    return out


def same_calls(a, b):
    """Whether two call logs hold the same states, bit for bit, at the same times."""
    return len(a) == len(b) and all(np.array_equal(xa, xb) and ta == tb
                                    for (xa, ta), (xb, tb) in zip(a, b))


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


# the fields each kind's solver reads and their defaults, from the solvers' signatures
KIND_FIELDS = {"isde": {"p": 1, "kappa": 0.0}, "euler_maruyama": {"kappa": 1.0},
               "pc": {"corrector_stepsize": 0.5}, "rk2": {},
               "rk45": {"rtol": 1e-5, "atol": 1e-5}}
UNREAD = [(kind, name) for kind, reads in KIND_FIELDS.items()
          for name in ("p", "kappa", "corrector_stepsize", "rtol", "atol") if name not in reads]


def test_kind_fields_come_from_the_solver_signatures():
    assert solvers._KIND_FIELDS == KIND_FIELDS
    assert len(UNREAD) == 19
    assert set().union(*KIND_FIELDS.values()) == (
        {f.name for f in dataclasses.fields(SolverSpec)} - {"kind"})
    for kind, reads in KIND_FIELDS.items():
        spec = SolverSpec(kind)
        assert {name: getattr(spec, name) for name in reads} == reads, kind


@pytest.mark.parametrize("kind, name", UNREAD, ids=[f"{k}-{n}" for k, n in UNREAD])
def test_spec_rejects_a_field_its_kind_does_not_read(kind, name):
    with pytest.raises(ParameterError, match=f"^solver kind '{kind}' does not read: {name}$"):
        SolverSpec(kind, **{name: 1})
    assert getattr(SolverSpec(kind, **{name: None}), name) is None


def test_run_solver_looks_the_solver_up_at_each_call(fouve, gaussian_prior, monkeypatch):
    # a module-level solver rebound after import (as a span tracer does) serves run_solver
    seen = []

    def traced(*args, **kwargs):
        seen.append(kwargs)
        return rk2_midpoint(*args, **kwargs)

    monkeypatch.setattr(solvers, "rk2_midpoint", traced)
    grid = TimeGrid.for_sde(fouve, 5)
    out = run_solver(fouve, analytic_score_model(gaussian_prior, fouve), 1.0, grid,
                     SolverSpec("rk2"), seed=3)
    assert seen == [{"seed": 3, "x_init": None}]
    assert out.nfe == 8


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


def test_reverse_init_y_must_broadcast_to_the_shape(fouve):
    # a (3,) y under shape (1,) would make three starts from one draw
    rng = np.random.default_rng(0)
    with pytest.raises(ShapeError):
        reverse_init(fouve, [1.0, 2.0, 3.0], rng, shape=(1,))
    assert reverse_init(fouve, [1.0, 2.0, 3.0], rng, shape=(2, 3)).shape == (2, 3)


def transport(sde, x, y, t_from, t_to):
    """One isde_solve step of a zero model: the exact score-free linear part."""
    grid = TimeGrid(np.array([t_from, t_to]))
    return float(isde_solve(sde, zero_model(), y, grid, x_init=x).final_state)


def test_linear_step_value(fouve):
    # backward transport is expansive: from t=1 to t=0.5 the factor is e
    out = transport(fouve, 1.0, 0.0, 1.0, 0.5)
    assert out == pytest.approx(math.e, rel=1e-13)
    assert transport(fouve, 0.7, 0.7, 1.0, 0.5) == pytest.approx(0.7, rel=1e-14)


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
        assert x == pytest.approx(transport(sde, 2.0, y, t_from, t_to), rel=1e-9), name


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
    for n in (-1, 1.5, True, 2):
        with pytest.raises(ParameterError, match="weight order n"):
            omega_weight(fouve, n, 1.0, 0.5)
    with pytest.raises(ParameterError,
                       match=r"^weight order n must be an integer in \[0, 1\], got 2$"):
        omega_weight(fouve, 2, 1.0, 0.5)
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


def test_omega_quadrature_fallback():
    # the bridges have no closed form
    bbed = make_sde(SdeParams(kind="BBED", c=0.3, r=4.0))
    for sde, n in ((bbed, 0), (bbed, 1)):
        def big_g(u):
            return float(sde.g(u)) ** 2 / (2.0 * (1.0 - float(sde.k(u))))

        th, tl = 0.8, 0.3
        val, _ = scipy.integrate.quad(
            lambda u: big_g(u) * (u - th) ** n / math.factorial(n),
            tl, th, epsabs=1e-15, epsrel=1e-13)
        assert omega_weight(sde, n, th, tl) == pytest.approx(-val, rel=1e-8)


def ito_variance(sde, t_from, t_to):
    """The defining integral of ito_increment^2: (1 - k_lo)^2 int (g / (1 - k))^2 du."""
    def diffusion(u):
        return (float(sde.g(u)) / (1.0 - float(sde.k(u)))) ** 2

    return (1.0 - float(sde.k(t_to))) ** 2 * integrate(
        diffusion, t_to, t_from, abs_tol=1e-14, rel_tol=1e-12).value


def test_ito_increment_variance_identity(all_sdes):
    # ito_increment comes from Phi^2 var(t_from) - var(t_to); hold it to the integral
    rng = np.random.default_rng(6)
    for name, sde in all_sdes.items():
        for _ in range(8):
            tl, th = np.sort(rng.uniform(sde.delta, sde.t_rev, size=2))
            if th - tl < 1e-3:
                continue
            inc = ito_increment(sde, th, tl)
            assert inc ** 2 == pytest.approx(ito_variance(sde, th, tl), rel=1e-10), name
        assert ito_increment(sde, 0.5, 0.5) == 0.0
    with pytest.raises(ParameterError):
        ito_increment(all_sdes["fOUVE"], 0.3, 0.6)


def test_ito_increment_scales_linearly_in_the_diffusion():
    # var is c^2 times that of c = 1; at c = 1e150 Phi^2 var(t_from) alone overflows
    one = make_sde(SdeParams(kind="BBED", c=1.0, r=4.0))
    big = make_sde(SdeParams(kind="BBED", c=1e150, r=4.0))
    for th, tl in ((1.0 - 1e-12, 0.0), (0.9996, 0.5), (0.7, 0.2)):
        assert ito_increment(big, th, tl) == pytest.approx(
            1e150 * ito_increment(one, th, tl), rel=1e-12)
    # a variance that underflows to 0 gives no deviation, not 0/0
    dead = dataclasses.replace(one, var=lambda t: 0.0 * np.asarray(t, dtype=float))
    assert ito_increment(dead, 0.7, 0.2) == 0.0


# ----------------------------------------------------------------- step plans

@pytest.mark.parametrize("nodes", [2, 11, 41, 201, 2001])
def test_step_plan_weights_match_scalar_quadrature(all_sdes, nodes):
    stride = 50 if nodes == 2001 else 1  # every 50th step of the finest grid
    for name, sde in all_sdes.items():
        times = TimeGrid.for_sde(sde, nodes).times
        plan = _step_plan(sde, times, p=2, kappa=0.5, eps_mode=False)

        def big_g(u):
            return float(sde.g(u)) ** 2 / (2.0 * (1.0 - float(sde.k(u))))

        for i in range(0, times.size - 1, stride):
            th, tl, tm = float(times[i]), float(times[i + 1]), float(plan.t_mid[i])
            oracle = {
                "w0": integrate(big_g, tl, th, abs_tol=1e-14, rel_tol=1e-12).value,
                # the stage's coefficient of the score: (1 - k_mid) -omega_0 from t_hi to t_mid
                "a_mid": (1.0 - float(sde.k(tm)))
                * integrate(big_g, tm, th, abs_tol=1e-14, rel_tol=1e-12).value,
                "w1": integrate(lambda u: big_g(u) * (u - th), tl, th,
                                abs_tol=1e-14, rel_tol=1e-12).value,
                "ito_std": math.sqrt(ito_variance(sde, th, tl)),
            }
            for field, want in oracle.items():
                got = getattr(plan, field)[i]
                tol = 1e-12 if field == "ito_std" else 1e-10
                assert abs(got - want) <= tol * abs(want), (name, nodes, i, field)


def test_step_plan_ito_variance_identity(all_sdes):
    for name, sde in all_sdes.items():
        times = TimeGrid.for_sde(sde, 41).times
        plan = _step_plan(sde, times, p=1, kappa=1.0, eps_mode=False)
        want = [ito_variance(sde, th, tl) for th, tl in zip(times[:-1], times[1:])]
        np.testing.assert_allclose(plan.ito_std ** 2, want, rtol=1e-10, err_msg=name)
        assert plan.a_mid is None and plan.t_mid is None


@pytest.mark.parametrize("schedule, eps_mode, kappa, passes", [
    ("OT", False, 0.5, [30]),  # 10 steps x (omega_0, omega_0 to the stage, omega_1)
    ("BBED", False, 0.5, [30]),
    ("OT", True, 0.5, []),     # eps weights are expm1 of lambda steps; Ito stds come from var
    ("OT", True, 0.0, []),
    ("fOUVE", False, 0.5, []),  # closed forms
    ("OUVE", True, 0.5, []),
    ("BBED", True, 0.5, []),
])
def test_step_plan_runs_at_most_one_quadrature_pass(all_sdes, monkeypatch, schedule,
                                                    eps_mode, kappa, passes):
    # passes: the number of intervals of each integrate_batch call
    calls, batch = [], solvers.integrate_batch
    monkeypatch.setattr(solvers, "integrate_batch",
                        lambda f, a, b, **kw: calls.append(len(a)) or batch(f, a, b, **kw))
    times = TimeGrid.for_sde(all_sdes[schedule], 11).times
    _step_plan(all_sdes[schedule], times, p=2, kappa=kappa, eps_mode=eps_mode)
    assert calls == passes


@pytest.mark.parametrize("nodes", [41, 201])
@pytest.mark.parametrize("schedule", ["OT", "BBED", "BrownianBridge"])
def test_bridge_step_plan_weights_take_one_quadrature_round(all_sdes, monkeypatch, schedule,
                                                            nodes):
    # in the log-distance to the pole at t = 1 no panel of these grids needs a bisection
    rounds, panels = [], quadrature._gk_panels
    monkeypatch.setattr(quadrature, "_gk_panels",
                        lambda f, lo, hi, rows: rounds.append(len(lo)) or panels(f, lo, hi, rows))
    times = TimeGrid.for_sde(all_sdes[schedule], nodes).times
    _step_plan(all_sdes[schedule], times, p=2, kappa=0.0, eps_mode=False)
    assert rounds == [3 * (nodes - 1)]


def test_step_plan_eps_midpoints_bisect_lambda(all_sdes):
    def lam(sde, t):
        return math.log((1.0 - float(sde.k(t))) / float(sde.sigma(t)))

    # at c = 1e150 |lambda| is about 345: its rounding, about 6e-14, stalls a stop on |dt| alone
    sdes = dict(all_sdes, BBED_huge=make_sde(SdeParams(kind="BBED", c=1e150, r=4.0)))
    for name, sde in sdes.items():
        for nodes in (2, 11, 201):
            times = TimeGrid.for_sde(sde, nodes).times
            plan = _step_plan(sde, times, p=2, kappa=0.0, eps_mode=True)
            assert np.all(times[1:] < plan.t_mid) and np.all(plan.t_mid < times[:-1]), name
            for th, tl, tm in zip(times[:-1], times[1:], plan.t_mid):
                lam_mid = 0.5 * (lam(sde, th) + lam(sde, tl))
                assert abs(lam(sde, tm) - lam_mid) <= 1e-12, (name, nodes)


@pytest.mark.parametrize("nodes", [41, 201])
def test_eps_midpoints_take_few_newton_rounds(all_sdes, monkeypatch, nodes):
    # Newton on lambda' = -g^2 / (2 var) from the step midpoints; lambda is linear in t on fOUVE,
    # and flat to rounding on BBED with r = 1e-100, where the residual stop ends the solve
    calls, half_log_snr = [], solvers._half_log_snr
    monkeypatch.setattr(solvers, "_half_log_snr",
                        lambda sde, t: calls.append(1) or half_log_snr(sde, t))
    sdes = dict(all_sdes, BBED_flat=make_sde(SdeParams(kind="BBED", c=1.0, r=1e-100)))
    cap = {"BBED_flat": 8}
    for name, sde in sdes.items():
        times = TimeGrid.for_sde(sde, nodes).times
        calls.clear()
        solvers._lambda_midpoints(sde, times, half_log_snr(sde, times))
        n = len(calls)
        assert n == 1 if name == "fOUVE" else n <= cap.get(name, 7), (name, n)


def test_eps_p2_solves_where_lambda_is_flat():
    # on BBED (1, 1e-100) lambda is flat to rounding past t = 0.1, so h = 0 on those steps
    # and the slope term must vanish instead of reading 0/0
    sde = make_sde(SdeParams(kind="BBED", c=1.0, r=1e-100))
    prior = isde.GaussianPrior(m0=0.5, s0=0.2)
    model = eps_adapter(analytic_score_model(prior, sde), sde)
    x = np.linspace(-1.0, 2.0, 8)
    want = reference_solution(sde, prior, 1.0, x)
    for nodes in (11, 41):
        out = isde_solve(sde, model, 1.0, TimeGrid.for_sde(sde, nodes), p=2, x_init=x)
        assert np.max(np.abs(out.final_state - want)) <= 1e-5, nodes


# ------------------------------------------------------------- plan reuse
# A plan depends only on (bundle, grid, p, kappa > 0, parameterization); solves with
# the same key reuse one, and an analytic model reads k and var once per time.

def _counted_plans(monkeypatch):
    """Clear the plan cache and log the key of every plan built from now on."""
    built, plan = [], solvers._step_plan
    monkeypatch.setattr(solvers, "_step_plan", lambda sde, times, p, kappa, eps_mode: (
        built.append((p, kappa, eps_mode)) or plan(sde, times, p, kappa, eps_mode)))
    solvers._plan_for.cache_clear()
    return built


def test_solves_with_one_key_share_one_plan(all_sdes, gaussian_prior, monkeypatch):
    built = _counted_plans(monkeypatch)
    sde = all_sdes["OT"]
    model = analytic_score_model(gaussian_prior, sde)
    grid = TimeGrid.for_sde(sde, 11)
    runs = [isde_solve(sde, model, 1.0, grid, p=2, seed=1) for _ in range(2)]
    assert len(built) == 1
    # the plan reads kappa only through kappa > 0: 0.5 and 1.0 share one
    for kappa in (0.5, 1.0):
        isde_solve(sde, model, 1.0, grid, p=2, kappa=kappa, seed=1)
    assert built == [(2, 0.0, False), (2, 1.0, False)]
    isde_solve(sde, eps_adapter(model, sde), 1.0, grid, p=2, seed=1)
    isde_solve(sde, model, 1.0, grid, p=1, seed=1)
    isde_solve(sde, model, 1.0, TimeGrid.for_sde(sde, 12), p=2, seed=1)
    assert len(built) == 5
    assert np.array_equal(runs[0].final_state, runs[1].final_state)


def test_bundles_on_one_grid_keep_their_own_plans(gaussian_prior):
    # OT with sigma_max 0.1 and 0.5 have the same times; each must get its own weights
    sdes = [make_sde(SdeParams(kind="OT", sigma_max=s)) for s in (0.1, 0.5)]
    grid = TimeGrid.for_sde(sdes[0], 11)
    assert np.array_equal(grid.times, TimeGrid.for_sde(sdes[1], 11).times)
    x0 = np.linspace(0.0, 1.5, 8)

    def finals():
        return [isde_solve(sde, analytic_score_model(gaussian_prior, sde), 1.0, grid, p=2,
                           kappa=kappa, seed=2, x_init=x0).final_state
                for sde in sdes for kappa in (0.0, 0.5)]

    warm = finals()
    cold = []
    for sde in sdes:
        for kappa in (0.0, 0.5):
            solvers._plan_for.cache_clear()
            cold.append(isde_solve(sde, analytic_score_model(gaussian_prior, sde), 1.0, grid,
                                   p=2, kappa=kappa, seed=2, x_init=x0).final_state)
    assert all(np.array_equal(a, b) for a, b in zip(warm, cold))
    assert not np.array_equal(warm[0], warm[2])


def test_cached_plan_is_read_only(all_sdes):
    # the cache keeps a plan as rows: per step, a tuple of its fields in _StepPlan order,
    # Python floats bitwise the plan's arrays, or None where p or kappa leaves a field
    # unused; a tuple cannot be written
    sde = all_sdes["BBED"]
    times = TimeGrid.for_sde(sde, 11).times
    for p, ito, eps_mode in ((1, False, False), (2, True, False), (2, False, True)):
        rows = solvers._plan_for(sde, times.tobytes(), p, ito, eps_mode)
        plan = _step_plan(sde, times, p, float(ito), eps_mode)
        assert type(rows) is tuple and len(rows) == 10
        assert all(type(row) is tuple for row in rows)
        for field, column in zip(vars(plan), zip(*rows), strict=True):
            array = getattr(plan, field)
            if array is None:
                assert set(column) == {None}, field
            else:
                assert all(type(v) is float for v in column), field
                assert np.array(column).tobytes() == array.tobytes(), field
        with pytest.raises(TypeError):
            rows[0][0] = 0.0


def test_solves_with_one_key_read_one_rows_object(all_sdes, gaussian_prior, monkeypatch):
    solvers._plan_for.cache_clear()
    read, plan_for = [], solvers._plan_for
    monkeypatch.setattr(solvers, "_plan_for", lambda *key: read.append(plan_for(*key)) or read[-1])
    sde = all_sdes["OT"]
    model = analytic_score_model(gaussian_prior, sde)
    grid = TimeGrid.for_sde(sde, 11)
    for seed in (1, 2):
        isde_solve(sde, model, 1.0, grid, p=2, kappa=0.5, seed=seed)
    assert len(read) == 2 and read[0] is read[1]


@pytest.mark.parametrize("eps_mode", [False, True])
def test_model_reads_the_schedule_once_per_time(all_sdes, gaussian_prior, eps_mode):
    # over two p = 2 solves on one grid the model calls k and var once per distinct time
    for name, sde in all_sdes.items():
        seen = {"k": [], "var": []}

        def counting(field):
            fn = getattr(sde, field)
            return lambda t: (np.ndim(t) == 0 and seen[field].append(float(t))) or fn(t)

        counted = dataclasses.replace(sde, k=counting("k"), var=counting("var"))
        model = analytic_score_model(gaussian_prior, counted)
        if eps_mode:
            model = eps_adapter(model, counted)
        grid = TimeGrid.for_sde(counted, 11)
        for kappa in (0.0, 0.5):
            isde_solve(counted, model, 1.0, grid, p=2, kappa=kappa,
                       x_init=np.linspace(0.0, 1.5, 8))
        for field, times in seen.items():
            assert len(times) == len(set(times)) == 20, (name, field)


@pytest.mark.parametrize("eps_mode", [False, True])
@pytest.mark.parametrize("spec", [SolverSpec("euler_maruyama"), SolverSpec("pc"),
                                  SolverSpec("rk2"), SolverSpec("rk45")], ids=lambda s: s.kind)
def test_classical_solve_reads_sigma_once_per_time(all_sdes, gaussian_prior, spec, eps_mode):
    # the solver's score view of an eps model and PC's eta read sigma from the
    # bundle's memo, so each time's sigma is read once. The model reads an uncounted
    # bundle, so only the solver's reads are counted, and x_init skips the start
    # draw's sigma(t_rev)
    x0 = np.linspace(0.0, 1.5, 8)
    for name, sde in all_sdes.items():
        seen = []

        def sigma(t, fn=sde.sigma):
            if np.ndim(t) == 0:
                seen.append(float(t))
            return fn(t)

        counted = dataclasses.replace(sde, sigma=sigma)
        model = analytic_score_model(gaussian_prior, sde)
        if eps_mode:
            model = eps_adapter(model, sde)
        grid = TimeGrid.for_sde(sde, 11)
        out = run_solver(counted, model, 1.0, grid, spec, seed=5, x_init=x0)
        assert len(seen) == len(set(seen)), name
        assert np.array_equal(out.final_state,
                              run_solver(sde, model, 1.0, grid, spec, seed=5, x_init=x0)
                              .final_state), name


@pytest.mark.parametrize("spec", [SolverSpec("isde", p=2), SolverSpec("euler_maruyama"),
                                  SolverSpec("pc"), SolverSpec("rk2"), SolverSpec("rk45")],
                         ids=lambda s: s.kind)
def test_a_solve_reads_sigma_once_per_time_per_bundle(all_sdes, gaussian_prior, spec):
    # an eps model on a counting BBED bundle, solved from a drawn start: the draw, the
    # eps view, the solver's score view and PC's eta all read the bundle's one memo
    sde = all_sdes["BBED"]
    seen = []

    def sigma(t):
        if np.ndim(t) == 0:
            seen.append(float(t))
        return sde.sigma(t)

    counted = dataclasses.replace(sde, sigma=sigma)
    model = recording(eps_adapter(analytic_score_model(gaussian_prior, counted), counted))
    run_solver(counted, model, np.ones(4), TimeGrid.for_sde(counted, 11), spec, seed=5)
    assert len(seen) == len(set(seen))
    assert set(seen) == {t for _, t in model.calls} | {counted.t_rev}


@pytest.mark.parametrize("spec", [
    SolverSpec("isde", p=1), SolverSpec("isde", p=2, kappa=0.5), SolverSpec("euler_maruyama"),
    SolverSpec("pc"), SolverSpec("rk2"), SolverSpec("rk45")],
    ids=lambda s: f"{s.kind}-{s.p or 1}")
def test_warm_and_cold_solves_are_bitwise_equal(all_sdes, gaussian_prior, spec):
    # warm: the plan cache and the model's memo filled by an earlier solve
    x0 = np.linspace(0.0, 1.5, 8)
    for name, sde in all_sdes.items():
        grid = TimeGrid.for_sde(sde, 11)
        for mode in ("score", "eps"):
            def run(model):
                model = eps_adapter(model, sde) if mode == "eps" else model
                rec = recording(model)
                out = run_solver(sde, rec, 1.0, grid, spec, seed=5, x_init=x0)
                return out, rec.calls

            solvers._plan_for.cache_clear()
            cold, cold_calls = run(analytic_score_model(gaussian_prior, sde))
            warm_model = analytic_score_model(gaussian_prior, sde)
            run(warm_model)
            warm, warm_calls = run(warm_model)
            assert np.array_equal(cold.final_state, warm.final_state), (name, mode)
            assert cold.nfe == warm.nfe and same_calls(cold_calls, warm_calls), (name, mode)


@pytest.mark.parametrize("prior", [isde.DeltaPrior(0.5), isde.GaussianPrior(0.5, 0.2),
                                   isde.MixturePrior((0.4, 0.6), (-0.5, 1.0), (0.04, 0.09))],
                         ids=lambda p: type(p).__name__)
def test_model_is_bitwise_the_analytic_score(all_sdes, prior):
    # at grid times and at the p = 2 stage times of both parameterizations, twice
    x = np.linspace(-1.0, 2.0, 7)
    for name, sde in all_sdes.items():
        times = TimeGrid.for_sde(sde, 41).times
        stages = [_step_plan(sde, times, 2, 0.0, eps_mode).t_mid for eps_mode in (False, True)]
        model = analytic_score_model(prior, sde)
        for t in np.concatenate([times] + stages * 2).tolist():
            want = isde.analytic_score(prior, sde, x, 1.0, t)
            assert np.array_equal(model(x, 1.0, t), want), (name, t)
            assert model(0.25, 1.0, t) == isde.analytic_score(prior, sde, 0.25, 1.0, t)


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
        phi = (1.0 - float(fouve.k(grid.times[i + 1]))) / (1.0 - float(fouve.k(grid.times[i])))
        x = phi * x + (1.0 - phi) * 1.0
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
                           (SolverSpec("euler_maruyama", kappa=0.0), []),
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
    # every node state is a model input (node i at call 2 i), and the last is the final state
    model = analytic_score_model(gaussian_prior, fouve)
    grid = TimeGrid.for_sde(fouve, 11)
    ma, mb = recording(model), recording(model)
    a = isde_solve(fouve, ma, 1.0, grid, p=2, kappa=0.8, seed=5)
    b = isde_solve(fouve, mb, 1.0, grid, p=2, kappa=0.8, seed=5)
    c = isde_solve(fouve, model, 1.0, grid, p=2, kappa=0.8, seed=6)
    assert len(ma.calls) == 2 * grid.n_steps
    assert same_calls(ma.calls, mb.calls)
    assert np.array_equal(a.final_state, b.final_state)
    assert float(a.final_state) != float(c.final_state)
    assert a.seed == 5


def test_kappa_shares_the_deterministic_start(fouve, gaussian_prior):
    # same seed => same initial draw whether or not diffusion noise is used
    model = analytic_score_model(gaussian_prior, fouve)
    grid = TimeGrid.for_sde(fouve, 6)
    ma, mb = recording(model), recording(model)
    a = isde_solve(fouve, ma, 1.0, grid, kappa=0.0, seed=3)
    b = isde_solve(fouve, mb, 1.0, grid, kappa=1.0, seed=3)
    assert len(ma.calls) == len(mb.calls) == grid.n_steps
    assert same_calls(ma.calls[:1], mb.calls[:1])
    assert not np.array_equal(a.final_state, b.final_state)


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


def _fixed_grid_runs(sde, model, grid, x0):
    """A run of every fixed-grid solver on ``grid``, by the kind it reports."""
    return {
        "isde-p1": lambda: isde_solve(sde, model, 1.0, grid, p=1, x_init=x0),
        "isde-p2": lambda: isde_solve(sde, model, 1.0, grid, p=2, x_init=x0),
        "euler_maruyama": lambda: euler_maruyama(sde, model, 1.0, grid, kappa=0.0, x_init=x0),
        "pc": lambda: pc_sampler(sde, model, 1.0, grid, x_init=x0),
        "rk2": lambda: rk2_midpoint(sde, model, 1.0, grid, x_init=x0),
    }


def test_divergence_reports_location(fouve):
    # every fixed-grid solver stops at the first step whose state is non-finite, and
    # its message names the solver kind
    bad = ScoreModel(lambda x, y, t: np.full(np.shape(x), np.nan), name="nan")
    grid = TimeGrid.for_sde(fouve, 5)
    for label, run in _fixed_grid_runs(fouve, bad, grid, 0.5).items():
        with pytest.raises(DivergenceError) as err:
            run()
        assert err.value.step_index == 0, label
        assert err.value.time == float(grid.times[1]), label
        assert str(err.value) == (f"{label.split('-')[0]} state became non-finite at "
                                  f"t={float(grid.times[1])!r}"), label


def test_finite_check_reads_entries_not_their_sum(fouve):
    # finite entries whose sum overflows pass; a non-finite entry fails, whatever the sum
    big = 1.7e308
    with np.errstate(all="ignore"):  # as inside a solve
        for x in ([big, big], [-big, -big], [big, big, -big, -big]):
            assert solvers._all_finite(np.array(x)), x
        for x in ([np.inf, -np.inf], [np.nan], [big, big, np.nan], [1.0, np.inf]):
            assert not solvers._all_finite(np.array(x)), x
    # a zero score keeps a state at y, here two entries of 1e308 whose sum overflows
    # (the grid's transition factor is 1.64, so no product does): every solver runs on
    zero = ScoreModel(lambda x, y, t: np.zeros(np.shape(x)), name="zero")
    grid = TimeGrid.for_sde(fouve, 5)
    for y in (1e308, -1e308):
        for kind in ("isde", "euler_maruyama", "pc", "rk2", "rk45"):
            out = run_solver(fouve, zero, y, grid, SolverSpec(kind), x_init=np.full(2, y))
            assert np.allclose(out.final_state, y, rtol=1e-12, atol=0.0), kind
    # a score of [inf, -inf], whose sum is NaN, stops every solver at its first step
    pair = ScoreModel(lambda x, y, t: np.resize([np.inf, -np.inf], np.shape(x)), name="pair")
    for label, run in _fixed_grid_runs(fouve, pair, grid, np.full(2, 0.5)).items():
        with pytest.raises(DivergenceError) as err:
            run()
        assert err.value.step_index == 0, label


_EVERY_KIND = [SolverSpec("isde", p=1), SolverSpec("isde", p=2, kappa=0.5),
               SolverSpec("euler_maruyama"), SolverSpec("pc"), SolverSpec("rk2"),
               SolverSpec("rk45")]


@pytest.mark.parametrize("spec", _EVERY_KIND, ids=lambda s: f"{s.kind}-{s.p or 1}")
@pytest.mark.parametrize("mode", ["score", "eps"])
def test_solvers_leave_their_inputs_alone(fouve, gaussian_prior, spec, mode):
    # a float64 x_init reaches the first model call uncopied, and a solve writes
    # neither into it nor into a model's output: a model whose outputs are read-only
    # solves bitwise like one that returns writable copies
    model = analytic_score_model(gaussian_prior, fouve)
    if mode == "eps":
        model = eps_adapter(model, fouve)

    def returning(writable):
        def fn(x, y, t):
            out = np.array(model(x, y, t), dtype=float)
            out.setflags(write=writable)
            return out
        return ScoreModel(fn, model.parameterization, name="flagged")

    grid = TimeGrid.for_sde(fouve, 11)
    x0 = np.linspace(0.0, 1.5, 8)
    kept = x0.copy()
    ends = [run_solver(fouve, returning(w), 1.0, grid, spec, seed=5, x_init=x0).final_state
            for w in (False, True)]
    assert x0.tobytes() == kept.tobytes()
    assert ends[0].tobytes() == ends[1].tobytes()


@pytest.mark.parametrize("spec", _EVERY_KIND, ids=lambda s: f"{s.kind}-{s.p or 1}")
@pytest.mark.parametrize("x_init", [0.3, [0.3]], ids=["scalar", "one-entry"])
def test_scalar_start_under_a_y_vector(fouve, gaussian_prior, spec, x_init):
    # a start of shape () or (1,) under y of shape (4,) takes y's shape, in a copy,
    # before the first model call: the endpoint is bitwise that of the start spelled
    # out in full, and the caller's start is never written
    model = recording(analytic_score_model(gaussian_prior, fouve))
    grid, y = TimeGrid.for_sde(fouve, 11), np.array([0.5, 1.0, 1.5, 2.0])
    x0 = np.array(x_init, dtype=float)
    kept = x0.copy()
    out = run_solver(fouve, model, y, grid, spec, seed=5, x_init=x0)
    assert model.calls[0][0].shape == (4,)
    assert x0.shape == kept.shape and x0.tobytes() == kept.tobytes()
    full = run_solver(fouve, model, y, grid, spec, seed=5, x_init=np.full(4, 0.3))
    assert out.final_state.shape == (4,)
    assert out.final_state.tobytes() == full.final_state.tobytes()


@pytest.mark.parametrize("p", [1, 2])
def test_isde_rejects_a_model_output_larger_than_the_state(fouve, p):
    # the isde step adds the model's output into its state in place: an output that
    # broadcasts to the state's shape adds in, and one that would grow the state is a
    # ShapeError at the first model call
    grid, y = TimeGrid.for_sde(fouve, 5), np.ones(4)
    small = ScoreModel(lambda x, y, t: np.zeros(1), name="one-entry")
    assert isde_solve(fouve, small, y, grid, p=p, x_init=np.zeros(4)).final_state.shape == (4,)
    wide = ScoreModel(lambda x, y, t: np.zeros((3,) + np.shape(x)), name="wide")
    with pytest.raises(ShapeError, match=r"output shape \(3, 4\) does not broadcast to the "
                                         r"state shape \(4,\)"):
        isde_solve(fouve, wide, y, grid, p=p, x_init=np.zeros(4))


@pytest.mark.parametrize("spec", [
    SolverSpec(kind="isde", p=2, kappa=1e200),           # kappa ** 2 overflows a Python float
    SolverSpec(kind="pc", corrector_stepsize=1e200),
    SolverSpec(kind="isde", p=2, kappa=1e150),           # the state overflows in NumPy
    SolverSpec(kind="euler_maruyama", kappa=1e150),
])
def test_run_solver_reports_overflow_as_divergence(fouve, gaussian_prior, spec):
    # no OverflowError and no RuntimeWarning (an error under this suite) escapes,
    # through run_solver or from the public solver called directly
    model = analytic_score_model(gaussian_prior, fouve)
    grid, x0 = TimeGrid.for_sde(fouve, 21), np.zeros(8)
    direct = {
        "isde": lambda: isde_solve(fouve, model, 1.0, grid, p=spec.p, kappa=spec.kappa,
                                   x_init=x0),
        "pc": lambda: pc_sampler(fouve, model, 1.0, grid,
                                 corrector_stepsize=spec.corrector_stepsize, x_init=x0),
        "euler_maruyama": lambda: euler_maruyama(fouve, model, 1.0, grid, kappa=spec.kappa,
                                                 x_init=x0),
    }
    for run in (lambda: run_solver(fouve, model, 1.0, grid, spec, x_init=x0), direct[spec.kind]):
        with pytest.raises(DivergenceError):
            run()


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
    # every node state is a model input: at each predictor call of pc, at every EM call
    model = analytic_score_model(gaussian_prior, fouve)
    grid = TimeGrid.for_sde(fouve, 31)
    ma, mb = recording(model), recording(model)
    a = pc_sampler(fouve, ma, 1.0, grid, corrector_stepsize=0.0, seed=11)
    b = euler_maruyama(fouve, mb, 1.0, grid, kappa=1.0, seed=11)
    assert len(mb.calls) == grid.n_steps
    assert same_calls(ma.calls[0::2], mb.calls)
    assert np.array_equal(a.final_state, b.final_state)
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
    {"rtol": True, "atol": True}, {"rtol": "1e-5"}, {"atol": "1e-5"},
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


def test_rk45_rejects_and_shrinks_steps(gaussian_prior):
    # 6 of 27 attempts are rejected: 4 at t_rev, next to gamma's pole at t = 1, and 2 below t = 0.21
    bb = make_sde(SdeParams(kind="BrownianBridge"))
    model = recording(analytic_score_model(gaussian_prior, bb))
    x0 = reverse_init(bb, 1.0, np.random.default_rng(7), shape=(256,))
    out = rk45_adaptive(bb, model, 1.0, bb.t_rev, bb.delta, x_init=x0)
    assert out.nfe == len(model.calls) == 7 * 27
    # stage 0 of an attempt runs at its start time: a rejected attempt repeats it
    assert len({t for _, t in model.calls[0::7]}) == 21
    assert np.mean(np.abs(out.final_state - reference_solution(bb, gaussian_prior, 1.0, x0))) < 1e-3


def test_rk45_step_budget(fouve, gaussian_prior, monkeypatch):
    model = analytic_score_model(gaussian_prior, fouve)
    monkeypatch.setattr(solvers, "_RK45_MAX_ATTEMPTS", 3)
    with pytest.raises(StiffnessError, match="step budget 3"):
        rk45_adaptive(fouve, model, 1.0, fouve.t_rev, fouve.delta, x_init=0.5)


def test_rk45_divergence(fouve):
    bad = ScoreModel(lambda x, y, t: np.full(np.shape(x), np.inf), name="inf")
    with pytest.raises(DivergenceError, match="^rk45 stage derivative non-finite at t=1.0$"):
        rk45_adaptive(fouve, bad, 1.0, fouve.t_rev, fouve.delta, x_init=0.5)


def test_rk45_validation(fouve, gaussian_prior):
    model = analytic_score_model(gaussian_prior, fouve)
    with pytest.raises(ParameterError):
        rk45_adaptive(fouve, model, 1.0, 0.01, 1.0)
    with pytest.raises(ParameterError):
        rk45_adaptive(fouve, model, 1.0, 1.5, 0.01)
    with pytest.raises(ParameterError):
        rk45_adaptive(fouve, model, 1.0, 1.0, 0.01, rtol=-1.0)


# ------------------------------------------------------- dispatch + counting

def test_run_solver_matches_direct_calls(fouve, gaussian_prior):
    model = analytic_score_model(gaussian_prior, fouve)
    grid = TimeGrid.for_sde(fouve, 11)
    cases = [
        (SolverSpec(kind="isde", p=2, kappa=0.5),
         lambda: isde_solve(fouve, model, 1.0, grid, p=2, kappa=0.5, seed=3)),
        (SolverSpec(kind="euler_maruyama", kappa=1.0),
         lambda: euler_maruyama(fouve, model, 1.0, grid, kappa=1.0, seed=3)),
        (SolverSpec(kind="euler_maruyama"),  # both default to kappa = 1
         lambda: euler_maruyama(fouve, model, 1.0, grid, seed=3)),
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
    spec = SolverSpec(kind=kind, **{"euler_maruyama": {"kappa": 1.0},
                                    "rk45": {"rtol": 1e-6, "atol": 1e-6}}.get(kind, {}))
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
# Random schedule parameters and intervals in [delta, t_rev].

@st.composite
def schedules(draw):
    kind = draw(st.sampled_from(["fOUVE", "OUVE", "BBED", "OT", "BrownianBridge"]))
    if kind in ("fOUVE", "OUVE"):
        sigma_min = draw(st.floats(1e-3, 0.5))
        params = SdeParams(kind=kind, sigma_min=sigma_min,
                           sigma_max=sigma_min * draw(st.floats(1.5, 200.0)),
                           gamma0=draw(st.floats(0.1, 5.0)))
    elif kind == "BBED":
        params = SdeParams(kind=kind, c=draw(st.floats(0.01, 1.0)), r=draw(st.floats(0.1, 50.0)))
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
    hi = phi ** 2 * float(sde.var(th))
    # ito_increment^2 = hi - var(t_to) cancels to about eps * hi
    assert ito_increment(sde, th, tl) ** 2 == pytest.approx(ito_variance(sde, th, tl),
                                                           rel=1e-9, abs=1e-13 * hi)


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


@settings(deadline=None, max_examples=25)
@given(kind=st.sampled_from(["fOUVE", "OUVE"]), sigma_min=st.floats(1e-3, 0.5),
       spread=st.floats(1.5, 10.0), gamma0=st.floats(0.1, 2.0), m0=st.floats(-1.0, 1.0),
       s0=st.floats(0.05, 1.0), y=st.floats(-1.0, 1.0))
def test_property_score_and_eps_first_order_solves_differ_at_first_order(
        kind, sigma_min, spread, gamma0, m0, s0, y):
    # at p = 1 score mode expands the model output in t and eps mode in lambda, so
    # their endpoints differ by O(h): the largest gap over shared start paths
    # shrinks about tenfold from 11 to 101 nodes
    sde = make_sde(SdeParams(kind=kind, sigma_min=sigma_min, sigma_max=sigma_min * spread,
                             gamma0=gamma0))
    model = analytic_score_model(isde.GaussianPrior(m0=m0, s0=s0), sde)
    x_init = reverse_init(sde, y, np.random.default_rng(1), shape=(256,))

    def gap(n_nodes):
        grid = TimeGrid.for_sde(sde, n_nodes)
        score, eps = (isde_solve(sde, m, y, grid, p=1, x_init=x_init).final_state
                      for m in (model, eps_adapter(model, sde)))
        return float(np.max(np.abs(score - eps)))

    assert 7.0 <= gap(11) / gap(101) <= 15.0
