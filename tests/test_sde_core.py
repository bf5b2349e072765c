import math
import re

import numpy as np
import pytest

import isde
from isde import SdeParams, make_sde, mean_evolution, sample_forward
from isde.errors import ParameterError, ShapeError, integer_parameter, real_parameter
from isde.quadrature import integrate
from isde.solvers import TimeGrid, _step_plan
from oracles import diffusion_from_variance, gamma_from_k, k_from_gamma, variance_from_diffusion


# ---------------------------------------------------------------- parameters

def test_unknown_kind_rejected():
    with pytest.raises(ParameterError):
        SdeParams(kind="banana")


@pytest.mark.parametrize("kwargs", [
    {"kind": "fOUVE", "sigma_min": 0.001, "sigma_max": 0.1},            # no gamma0
    {"kind": "fOUVE", "sigma_min": 0.1, "sigma_max": 0.001, "gamma0": 2.0},
    {"kind": "OUVE", "sigma_min": 0.01, "sigma_max": 0.01, "gamma0": 2.0},
    {"kind": "fOUVE", "sigma_min": -0.001, "sigma_max": 0.1, "gamma0": 2.0},
    {"kind": "BBED", "c": 0.3},                                         # no r
    {"kind": "BBED", "c": 0.0, "r": 4.0},
    {"kind": "OT"},                                                     # no sigma_max
    {"kind": "OT", "sigma_max": math.inf},
    {"kind": "OT", "sigma_max": "0.1"},                                 # a string is no number
])
def test_invalid_parameters_rejected(kwargs):
    with pytest.raises(ParameterError):
        SdeParams(**kwargs)


def test_number_rule():
    # a bool or a string is never a number; an integer is an int or a NumPy integer
    assert real_parameter("x", np.float32(0.5)) == 0.5
    assert real_parameter("x", 3) == 3.0
    for bad in ("1.5", b"1.5", True, None, [1.0], 10 ** 400):
        with pytest.raises(ParameterError, match="x must be a real number"):
            real_parameter("x", bad)
    assert integer_parameter("n", np.int64(3), 1) == 3
    assert type(integer_parameter("n", np.uint8(3), 1)) is int
    for bad in (2.7, 3.0, "3", True, np.bool_(True), None, 0):
        with pytest.raises(ParameterError, match="n must be an integer >= 1"):
            integer_parameter("n", bad, 1)


def test_integer_parameter_takes_an_upper_end():
    assert integer_parameter("p", np.int64(2), 1, 2) == 2
    assert integer_parameter("n", 10 ** 6, 1) == 10 ** 6  # no upper end by default
    with pytest.raises(ParameterError, match=r"^p must be an integer in \[1, 2\], got 3$"):
        integer_parameter("p", 3, 1, 2)
    for bad in (0, 2.0, True, "2", None):
        with pytest.raises(ParameterError, match=re.escape("p must be an integer in [1, 2]")):
            integer_parameter("p", bad, 1, 2)


def test_brownian_bridge_needs_no_parameters():
    sde = make_sde(SdeParams(kind="BrownianBridge"))
    assert sde.t_max == 1.0
    assert sde.t_rev == 0.999


def test_make_sde_rejects_a_param_dict():
    # an SdeParams is the one input format; a dict or a bare kind is not one
    for params in ({"kind": "OT", "sigma_max": 0.1}, "BrownianBridge"):
        with pytest.raises(ParameterError, match="SdeParams"):
            make_sde(params)


def test_nonpositive_delta_rejected():
    with pytest.raises(ParameterError):
        make_sde(SdeParams(kind="BrownianBridge"), delta=0.0)


@pytest.mark.parametrize("params, t_rev", [
    (SdeParams(kind="fOUVE", sigma_min=0.001, sigma_max=0.1, gamma0=2.0), 1.0),
    (SdeParams(kind="OUVE", sigma_min=0.001, sigma_max=0.1, gamma0=2.0), 1.0),
    (SdeParams(kind="BBED", c=0.3, r=4.0), 0.999),
    (SdeParams(kind="OT", sigma_max=0.1), 0.999),
    (SdeParams(kind="BrownianBridge"), 0.999),
])
def test_delta_at_or_above_the_reverse_start_rejected(params, t_rev):
    # the reverse run goes from t_rev down to delta, so delta must lie below t_rev
    assert make_sde(params, delta=t_rev - 1e-4).t_rev == t_rev
    for delta in (t_rev, t_rev + 5e-4):
        with pytest.raises(ParameterError, match="delta"):
            make_sde(params, delta=delta)


# ------------------------------------------------------------- fixed values

def test_fouve_closed_values(fouve):
    # geometric interpolation of the noise level: sigma(1/2) = sqrt(0.001 * 0.1)
    assert float(fouve.k(0.5)) == pytest.approx(0.6321205588285577, rel=1e-14)
    assert float(fouve.sigma(0.5)) == pytest.approx(0.01, rel=1e-14)
    assert float(fouve.var(0.5)) == pytest.approx(1e-4, rel=1e-14)
    assert float(fouve.gamma(0.3)) == 2.0
    assert float(fouve.g(0.5)) ** 2 == pytest.approx(0.001321034037197619, rel=1e-13)
    assert float(fouve.var(0.0)) == pytest.approx(1e-6)
    assert math.isinf(fouve.t_max)
    assert fouve.t_rev == 1.0
    assert fouve.delta == 1e-2


def test_ouve_variance_starts_at_zero(ouve):
    assert float(ouve.var(0.0)) == pytest.approx(0.0, abs=1e-20)
    assert float(ouve.var(0.5)) == pytest.approx(6.962633265119099e-05, rel=1e-12)
    assert float(ouve.var(0.0)) == 0.0


def test_brownian_bridge_midpoint_variance():
    sde = make_sde(SdeParams(kind="BrownianBridge"))
    assert float(sde.var(0.5)) == pytest.approx(0.25, rel=1e-15)
    assert float(sde.sigma(0.5)) == pytest.approx(0.5, rel=1e-15)
    assert float(sde.g(0.7)) == 1.0


def test_ot_schedule_values():
    sde = make_sde(SdeParams(kind="OT", sigma_max=0.1))
    assert float(sde.sigma(0.5)) == pytest.approx(0.05, rel=1e-15)
    assert float(sde.g(0.5)) ** 2 == pytest.approx(0.02, rel=1e-13)
    assert float(sde.k(0.25)) == 0.25


def test_bbed_variance_matches_independent_quadrature():
    sde = make_sde(SdeParams(kind="BBED", c=0.3, r=4.0))
    oracle = {0.3: 0.03093635861631722,
              0.7: 0.08079838540084687,
              0.95: 0.047330521269587304}
    for t, v in oracle.items():
        assert float(sde.var(t)) == pytest.approx(v, rel=1e-12)


def test_bbed_variance_domain():
    sde = make_sde(SdeParams(kind="BBED", c=0.3, r=4.0))
    with pytest.raises(ParameterError):
        sde.var(1.0)
    with pytest.raises(ParameterError):
        sde.var(-0.1)


@pytest.mark.parametrize("c, r", [(1e200, 4.0), (0.3, 1e300),
                                  (1e-149, 1e300)])  # (g / (1 - u))^2 overflows at u = 0.9995
def test_bbed_variance_overflow_rejected(c, r):
    with pytest.raises(ParameterError, match="BBED variance overflows"):
        make_sde(SdeParams(kind="BBED", c=c, r=r))


def test_bbed_variance_near_the_float_limit():
    # var reaches about 1e298 near t_rev, yet the schedule and a solve on it stay finite
    sde = make_sde(SdeParams(kind="BBED", c=1e150, r=4.0))
    ts = np.linspace(0.0, 0.9995, 201)
    assert np.all(np.isfinite(sde.var(ts)))
    for t in (0.9996, 1.0 - 1e-12, 1.0 - 2.0 ** -53):  # on to the float limit
        assert 0.0 < sde.var(t) < math.inf and 0.0 < sde.var(np.array([t]))[0] < math.inf
    model = isde.analytic_score_model(isde.GaussianPrior(m0=0.5, s0=0.2), sde)
    out = isde.isde_solve(sde, model, 1.0, isde.TimeGrid.for_sde(sde, 21), p=2, kappa=0.5,
                          x_init=np.zeros(8))
    assert np.all(np.isfinite(out.final_state))


@pytest.mark.parametrize("sigma_max", [1e200, 1e153])
def test_ot_diffusion_overflow_rejected(sigma_max):
    # g(t_rev)^2 = 2 sigma_max^2 t_rev / (1 - t_rev) overflows from about 3.0e152
    with pytest.raises(ParameterError, match="sigma_max"):
        make_sde(SdeParams(kind="OT", sigma_max=sigma_max))


def test_ot_near_the_float_limit_solves():
    sde = make_sde(SdeParams(kind="OT", sigma_max=2e152))
    model = isde.analytic_score_model(isde.GaussianPrior(m0=0.5, s0=0.2), sde)
    grid = isde.TimeGrid.for_sde(sde, 21)
    for mdl, p, kappa in ((model, 1, 0.0), (model, 2, 0.5),
                          (isde.eps_adapter(model, sde), 2, 0.0)):
        out = isde.isde_solve(sde, mdl, 1.0, grid, p=p, kappa=kappa, x_init=np.zeros(8))
        assert np.all(np.isfinite(out.final_state)), (mdl.parameterization, p)


@pytest.mark.parametrize("kind, sigma_min, sigma_max, gamma0, match", [
    ("fOUVE", 0.001, 0.1, 1e300, "step weights overflow"),  # e^{zeta t} in the weights
    ("fOUVE", 1e-200, 0.1, 2.0, "step weights overflow"),   # rho = 458
    ("OUVE", 1e-200, 0.1, 2.0, "step weights overflow"),
    ("OUVE", 1e200, 1e201, 2.0, "step weights overflow"),   # sigma_min^2 overflows
    ("fOUVE", 0.001, 0.1, 40.0, "rounds to 1"),             # 1 - k(1) = e^{-40} is lost
])
def test_closed_form_schedule_out_of_float_range_rejected(kind, sigma_min, sigma_max, gamma0,
                                                          match):
    with pytest.raises(ParameterError, match=match):
        make_sde(SdeParams(kind=kind, sigma_min=sigma_min, sigma_max=sigma_max, gamma0=gamma0))


def test_bbed_array_shape_roundtrip():
    sde = make_sde(SdeParams(kind="BBED", c=0.3, r=4.0))
    ts = np.array([[0.1, 0.2], [0.3, 0.9996]])
    out = sde.var(ts)
    assert out.shape == ts.shape
    assert np.all(out > 0.0)
    assert isinstance(sde.var(0.4), float)


def _schedule_times(sde):
    """2e4 seeded times in [0.01, 0.999) and every node, midpoint in t and midpoint in
    lambda of the uniform grids of 2 to 41 nodes and of 51, 101, 201 and 501 nodes."""
    parts = [np.random.default_rng(11).uniform(0.01, 0.999, 20_000)]
    for n in [*range(2, 42), 51, 101, 201, 501]:
        times = TimeGrid.for_sde(sde, n).times
        parts += [times, 0.5 * (times[:-1] + times[1:]),
                  _step_plan(sde, times, 2, 0.0, eps_mode=True).t_mid]
    return np.concatenate(parts)


@pytest.mark.parametrize("name", ["fOUVE", "OUVE", "OT", "BrownianBridge", "BBED"])
def test_a_time_alone_reads_its_value_in_an_array(all_sdes, name):
    # a model reads the schedule one time at a time and a step plan reads it over
    # arrays: both must see one value per time. BBED's var (and sigma, its root) reads
    # a time alone through a separate Python-float route by design, math.exp and its
    # own summation order, so that a one-time read skips the array set-up; that route
    # agrees within 3 ulp
    sde = all_sdes[name]
    times = _schedule_times(sde)
    for field in ("k", "gamma", "g", "sigma", "var"):
        fn = getattr(sde, field)
        together = np.asarray(fn(times), dtype=float)
        alone = np.array([float(fn(t)) for t in times.tolist()])
        if name == "BBED" and field in ("sigma", "var"):
            assert np.max(np.abs(alone - together) / np.spacing(together)) <= 3.0, field
        else:
            assert alone.tobytes() == together.tobytes(), field


@pytest.mark.parametrize("c, r", [(0.3, 4.0), (0.08, 40.0), (0.5, 0.3), (1e150, 4.0),
                                  (1e-100, 1e100), (1.0, 1e-100), (1e-3, 1e4),
                                  (1e-50, 1e200)])  # r^2u spans 1e400: the table's scale moves
def test_bbed_variance_matches_quadrature(c, r):
    # the table's Gauss-7 prefix sums plus one more panel against an adaptive
    # integral from 0, on the array and the scalar path, out to extreme c and r;
    # the oracle's tolerance is relative only, as the integrals span 1e-200 to 1e304
    sde = make_sde(SdeParams(kind="BBED", c=c, r=r))
    ts = np.random.default_rng(5).uniform(0.0, sde.t_rev, 500)
    want = np.array([(1.0 - t) ** 2 * integrate(lambda u: (c * r ** u / (1.0 - u)) ** 2, 0.0, t,
                                                 abs_tol=0.0, rel_tol=1e-13).value
                     for t in ts.tolist()])
    np.testing.assert_allclose(sde.var(ts), want, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose([sde.var(t) for t in ts.tolist()], want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("c, r", [(0.3, 4.0), (0.08, 40.0), (0.5, 0.3)])
def test_bbed_variance_past_the_table_matches_quadrature(c, r):
    # near the pole, from t_edge = 0.9995 out to the float limit, the oracle integrates
    # up to t_edge in u, and from there in s = 1 / (1 - u), where
    # (c r^u / (1 - u))^2 du = c^2 r^{2 - 2/s} ds is bounded, on the array and the scalar path
    sde = make_sde(SdeParams(kind="BBED", c=c, r=r))
    t_edge = 0.9995
    head = integrate(lambda u: (c * r ** u / (1.0 - u)) ** 2, 0.0, t_edge,
                     abs_tol=1e-16, rel_tol=1e-13).value
    ts = np.concatenate([1.0 - 10.0 ** np.random.default_rng(5).uniform(-12.0, -3.31, 40),
                         [1.0 - 1e-12, 1.0 - 2.0 ** -52, 1.0 - 2.0 ** -53]])
    assert np.all(ts > t_edge)
    want = np.array([(1.0 - t) ** 2 * (head + c ** 2 * integrate(
        lambda s: r ** (2.0 - 2.0 / s), 1.0 / (1.0 - t_edge), 1.0 / (1.0 - t),
        abs_tol=0.0, rel_tol=1e-13).value) for t in ts.tolist()])
    np.testing.assert_allclose(sde.var(ts), want, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose([sde.var(t) for t in ts.tolist()], want, rtol=1e-12, atol=0.0)


# -------------------------------------------------------------- dual routes

def test_gamma_recovered_from_k(all_sdes):
    # a central difference of k: within 1.1e-10 relative, 6e-10 absolute on this grid
    ts = np.linspace(0.01, 0.95, 25)
    for name, sde in all_sdes.items():
        direct = np.asarray(sde.gamma(ts), dtype=float)
        recovered = np.asarray(gamma_from_k(sde, ts), dtype=float)
        assert np.allclose(recovered, direct, rtol=1e-12), name


def test_k_recovered_from_gamma(all_sdes):
    rng = np.random.default_rng(3)
    for name, sde in all_sdes.items():
        for t in rng.uniform(0.05, 0.95, size=6):
            direct = float(sde.k(t))
            assert k_from_gamma(sde, t) == pytest.approx(direct, rel=1e-8), name
        assert k_from_gamma(sde, 0.0) == 0.0


def test_k_from_gamma_domain_errors():
    ot = make_sde(SdeParams(kind="OT", sigma_max=0.1))
    with pytest.raises(ParameterError):
        k_from_gamma(ot, 1.0)
    with pytest.raises(ParameterError):
        k_from_gamma(ot, -0.5)


def test_variance_recovered_from_diffusion(all_sdes):
    # the decayed initial variance matters: for fOUVE at t=0.5 the target is 1e-4
    fouve = all_sdes["fOUVE"]
    assert variance_from_diffusion(fouve, 0.5) == pytest.approx(1e-4, rel=1e-6)
    for name, sde in all_sdes.items():
        for t in (0.2, 0.5, 0.9):
            direct = float(sde.var(t))
            recovered = variance_from_diffusion(sde, t)
            assert recovered == pytest.approx(direct, rel=1e-6), (name, t)
    assert variance_from_diffusion(fouve, 0.0) == pytest.approx(float(fouve.var(0.0)), rel=1e-12)


def test_variance_from_diffusion_keeps_small_variances():
    # a relative tolerance only: an absolute one of 1e-14 swamped these variances
    for params in (SdeParams(kind="BBED", c=1e-100, r=1e100),
                   SdeParams(kind="OT", sigma_max=1e-100)):
        sde = make_sde(params)
        for t in (0.1, 0.3, 0.6, 0.9, sde.t_rev):
            assert variance_from_diffusion(sde, t) == pytest.approx(float(sde.var(t)),
                                                                    rel=1e-10, abs=0.0)


def test_variance_from_diffusion_domain():
    bb = make_sde(SdeParams(kind="BrownianBridge"))
    with pytest.raises(ParameterError):
        variance_from_diffusion(bb, bb.t_rev + 0.0005)


def test_diffusion_recovered_from_variance(all_sdes):
    # g^2 from a central difference of var plus 2 gamma var: within 9.3e-11 on this grid
    ts = np.linspace(0.02, 0.95, 30)
    for name, sde in all_sdes.items():
        g2 = np.asarray(sde.g(ts), dtype=float) ** 2
        recovered = np.asarray(diffusion_from_variance(sde, ts), dtype=float)
        assert np.max(np.abs(recovered - g2) / g2) <= 1e-9, name


# ------------------------------------------------------- kernel and forward

def test_mean_evolution_value(fouve):
    m = mean_evolution(fouve, 2.0, 1.0, 0.5)
    assert float(m) == pytest.approx(1.3678794411714423, rel=1e-14)
    # endpoint pinning: mu_0 = x0 and mu_t -> y as k -> 1
    assert float(mean_evolution(fouve, 2.0, 1.0, 0.0)) == 2.0
    assert float(mean_evolution(fouve, 2.0, 1.0, 8.0)) == pytest.approx(1.0, abs=1e-6)


def test_mean_evolution_solves_the_drift_ode(all_sdes):
    # dm/dt = gamma(t) (y - m), m(0) = x0, integrated with a fine RK4 sweep
    def rk4(sde, x0, y, t1, n=1200):
        h = t1 / n
        m, t = x0, 0.0
        f = lambda tt, mm: float(sde.gamma(tt)) * (y - mm)
        for _ in range(n):
            k1 = f(t, m)
            k2 = f(t + h / 2, m + h / 2 * k1)
            k3 = f(t + h / 2, m + h / 2 * k2)
            k4 = f(t + h, m + h * k3)
            m += h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
        return m

    for name, sde in all_sdes.items():
        t1 = 0.8
        got = rk4(sde, 2.0, 1.0, t1)
        want = float(mean_evolution(sde, 2.0, 1.0, t1))
        assert got == pytest.approx(want, abs=1e-10), name


def test_mean_evolution_broadcasts_and_rejects_mismatch(fouve):
    x0 = np.zeros((4, 1))
    y = np.ones(3)
    out = mean_evolution(fouve, x0, y, 0.5)
    assert out.shape == (4, 3)
    with pytest.raises(ShapeError):
        mean_evolution(fouve, np.zeros(3), np.ones(4), 0.5)


@pytest.mark.parametrize("x0, y, t, name", [
    ("0.5", 1.0, 0.5, "x0"), ("abc", 1.0, 0.5, "x0"), (0.5, True, 0.5, "y"),
    (0.5, 1.0, "0.5", "t"),
])
@pytest.mark.parametrize("draw", [False, True])
def test_kernel_states_must_be_numbers(fouve, x0, y, t, name, draw):
    # mean_evolution reads x0, y and t by the library's number rule, and
    # sample_forward inherits it
    with pytest.raises(ParameterError, match=f"^{name} must"):
        if draw:
            sample_forward(fouve, x0, y, t, np.random.default_rng(0))
        else:
            mean_evolution(fouve, x0, y, t)


def test_perturbation_kernel_and_validation(fouve):
    # sample_forward rejects x0 and y whose kernel mean is not finite
    rng = np.random.default_rng(0)
    for x0 in (np.array([0.0, np.inf]), math.nan):
        with pytest.raises(ParameterError, match="finite"):
            sample_forward(fouve, x0, 1.0, 0.5, rng)


def test_sample_forward_moments(fouve):
    rng = np.random.default_rng(11)
    n = 40_000
    x = sample_forward(fouve, np.zeros(n), 1.0, 0.5, rng)
    mean, std = float(mean_evolution(fouve, 0.0, 1.0, 0.5)), float(fouve.sigma(0.5))
    assert x.shape == (n,)
    assert np.mean(x) == pytest.approx(mean, abs=5 * std / math.sqrt(n))
    assert np.std(x) == pytest.approx(std, rel=0.02)


def test_sample_forward_domain(fouve):
    rng = np.random.default_rng(0)
    with pytest.raises(ParameterError):
        sample_forward(fouve, 0.0, 1.0, 1.5, rng)


@pytest.mark.parametrize("t", ["0.5", True, "abc", [0.5]])
@pytest.mark.parametrize("call", [
    lambda sde, t: sample_forward(sde, 0.0, 1.0, t, np.random.default_rng(0)),
    lambda sde, t: isde.marginal_moments(isde.GaussianPrior(m0=0.5, s0=0.2), sde, 1.0, t),
    lambda sde, t: isde.analytic_score(isde.GaussianPrior(m0=0.5, s0=0.2), sde, 0.0, 1.0, t),
])
def test_kernel_and_score_times_must_be_numbers(fouve, call, t):
    # a bool or a string is never a number, and a list is none either
    with pytest.raises(ParameterError, match="^t must be a real number"):
        call(fouve, t)

