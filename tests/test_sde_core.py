import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.interpolate import PchipInterpolator

import isde
from isde import (
    GaussianKernel,
    SdeParams,
    diffusion_from_variance,
    gamma_from_k,
    k_from_gamma,
    make_sde,
    mean_evolution,
    perturbation_kernel,
    sample_forward,
    variance_from_diffusion,
)
from isde.errors import (
    ParameterError,
    ScheduleConsistencyError,
    ShapeError,
    SingularityError,
    integer_parameter,
    real_parameter,
)
from isde.quadrature import integrate
from isde.sde_core import _BBED_NODES, _bbed_var_table, _end_slope, _Pchip


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


def test_brownian_bridge_needs_no_parameters():
    sde = make_sde(SdeParams(kind="BrownianBridge"))
    assert sde.t_max == 1.0
    assert sde.t_rev == 0.999


def test_make_sde_accepts_param_dict():
    sde = make_sde({"kind": "OT", "sigma_max": 0.1})
    assert sde.params.kind == isde.SdeKind.OT


def test_nonpositive_delta_rejected():
    with pytest.raises(ParameterError):
        make_sde(SdeParams(kind="BrownianBridge"), delta=0.0)


# ------------------------------------------------------------- fixed values

def test_fouve_closed_values(fouve):
    # geometric interpolation of the noise level: sigma(1/2) = sqrt(0.001 * 0.1)
    assert float(fouve.k(0.5)) == pytest.approx(0.6321205588285577, rel=1e-14)
    assert float(fouve.sigma(0.5)) == pytest.approx(0.01, rel=1e-14)
    assert float(fouve.var(0.5)) == pytest.approx(1e-4, rel=1e-14)
    assert float(fouve.gamma(0.3)) == 2.0
    assert float(fouve.g(0.5)) ** 2 == pytest.approx(0.001321034037197619, rel=1e-13)
    assert fouve.var0 == pytest.approx(1e-6)
    assert math.isinf(fouve.t_max)
    assert fouve.t_rev == 1.0
    assert fouve.delta == 1e-2


def test_ouve_variance_starts_at_zero(ouve):
    assert float(ouve.var(0.0)) == pytest.approx(0.0, abs=1e-20)
    assert float(ouve.var(0.5)) == pytest.approx(6.962633265119099e-05, rel=1e-12)
    assert ouve.var0 == 0.0


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
        assert float(sde.var(t)) == pytest.approx(v, rel=1e-7)


def test_bbed_variance_domain():
    sde = make_sde(SdeParams(kind="BBED", c=0.3, r=4.0))
    with pytest.raises(ParameterError):
        sde.var(1.0)
    with pytest.raises(ParameterError):
        sde.var(-0.1)
    # derivative is tabulated only up to the grid edge
    with pytest.raises(ParameterError):
        sde.var_prime(0.99999)


@pytest.mark.parametrize("c, r", [(1e200, 4.0), (0.3, 1e300), (1e150, 4.0)])
def test_bbed_variance_overflow_rejected(c, r):
    with pytest.raises(ParameterError, match="BBED variance overflows"):
        make_sde(SdeParams(kind="BBED", c=c, r=r))


def test_bbed_array_shape_roundtrip():
    sde = make_sde(SdeParams(kind="BBED", c=0.3, r=4.0))
    ts = np.array([[0.1, 0.2], [0.3, 0.9996]])
    out = sde.var(ts)
    assert out.shape == ts.shape
    assert np.all(out > 0.0)
    assert isinstance(sde.var(0.4), float)


def test_end_slope_takes_each_branch():
    # Moler's end rule: the three-point slope, 0 against the end secant's sign,
    # 3 m0 where the secants change sign and the slope overshoots
    assert _end_slope(1.0, 1.0, 1.0, 2.0) == 0.5
    assert _end_slope(1.0, 1.0, 1.0, 5.0) == 0.0
    assert _end_slope(1.0, 1.0, 1.0, -5.0) == 3.0
    assert _end_slope(1.0, 1.0, 1.0, -1.0) == 2.0


@st.composite
def pchip_data(draw):
    """Strictly increasing nodes, values with flat runs and sign changes (small
    integers) or without (any float), and times in [x[0], x[-1]]."""
    n = draw(st.integers(3, 12))
    gaps = draw(st.lists(st.floats(1e-3, 10.0), min_size=n - 1, max_size=n - 1))
    x = draw(st.floats(-10.0, 10.0)) + np.concatenate([[0.0], np.cumsum(gaps)])
    value = st.one_of(st.integers(-3, 3).map(float), st.floats(-100.0, 100.0))
    y = np.array(draw(st.lists(value, min_size=n, max_size=n)))
    frac = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20)))
    return x, y, np.concatenate([x, np.minimum(x[0] + frac * (x[-1] - x[0]), x[-1])])


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # scipy's own
@settings(max_examples=300, deadline=None)
@given(pchip_data())
@example((np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 6.0]), np.array([0.0, 0.3, 2.0])))
@example((np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, -4.0]), np.array([0.0, 0.3, 2.0])))
@example((np.array([0.0, 1.0, 2.0, 3.0]), np.array([1.0, 1.0, 1.0, 2.0]),
          np.array([0.5, 1.5, 2.5])))
def test_property_pchip_matches_scipy_bit_for_bit(data):
    x, y, ts = data
    ours, ref = _Pchip(x, y), PchipInterpolator(x, y)
    np.testing.assert_array_equal(ours(ts), ref(ts))
    np.testing.assert_array_equal(ours.derivative(ts), ref.derivative()(ts))
    for t in ts.tolist():  # the scalar path
        assert ours(t) == ref(t)
        assert ours.derivative(t) == ref.derivative()(t)


def _scalar_bbed_table(c, r, t_edge):
    """The variance table as one scalar quadrature per interval, summed in order."""
    u = np.linspace(0.0, 1.0, _BBED_NODES)
    nodes = t_edge * (1.0 - (1.0 - u) ** 2)
    nodes[-1] = t_edge
    pieces = [integrate(lambda tau: (c * r ** tau) ** 2 / (1.0 - tau) ** 2, a, b,
                        abs_tol=1e-14, rel_tol=1e-10).value
              for a, b in zip(nodes[:-1], nodes[1:])]
    return nodes, (1.0 - nodes) ** 2 * np.concatenate([[0.0], np.cumsum(pieces)])


@pytest.mark.parametrize("c, r", [(0.3, 4.0), (0.08, 40.0)])
def test_bbed_variance_matches_scipy_pchip(c, r):
    sde = make_sde(SdeParams(kind="BBED", c=c, r=r))
    t_edge = 0.5 * (sde.t_rev + 1.0)
    nodes, var_nodes = _bbed_var_table(c, r, t_edge)
    ts = np.concatenate([nodes, np.random.default_rng(5).uniform(0.0, t_edge, 5000)])
    # the same table: bit for bit, on the array and the scalar path
    same = PchipInterpolator(nodes, var_nodes)
    np.testing.assert_array_equal(sde.var(ts), same(ts))
    np.testing.assert_array_equal(sde.var_prime(ts), same.derivative()(ts))
    assert [sde.var(t) for t in ts[::50].tolist()] == same(ts[::50]).tolist()
    # the scalar-quadrature table: its entries differ by round-off, which the
    # derivative amplifies by var / (var step), about 250 where the nodes crowd
    # toward t = 1 (measured: 5.1e-16 for var, 8.3e-14 for var_prime)
    old = PchipInterpolator(*_scalar_bbed_table(c, r, t_edge))
    np.testing.assert_allclose(sde.var(ts), old(ts), rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(sde.var_prime(ts), old.derivative()(ts), rtol=2e-13, atol=0.0)


# -------------------------------------------------------------- dual routes

def test_gamma_recovered_from_k(all_sdes):
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


def test_gamma_from_k_singularity():
    ot = make_sde(SdeParams(kind="OT", sigma_max=0.1))
    with pytest.raises(SingularityError):
        gamma_from_k(ot, 1.0)


def test_variance_recovered_from_diffusion(all_sdes):
    # the decayed initial variance matters: for fOUVE at t=0.5 the target is 1e-4
    fouve = all_sdes["fOUVE"]
    assert variance_from_diffusion(fouve, 0.5) == pytest.approx(1e-4, rel=1e-6)
    for name, sde in all_sdes.items():
        for t in (0.2, 0.5, 0.9):
            direct = float(sde.var(t))
            recovered = variance_from_diffusion(sde, t)
            assert recovered == pytest.approx(direct, rel=1e-6), (name, t)
    assert variance_from_diffusion(fouve, 0.0) == pytest.approx(fouve.var0, rel=1e-12)


def test_variance_from_diffusion_domain():
    bb = make_sde(SdeParams(kind="BrownianBridge"))
    with pytest.raises(ParameterError):
        variance_from_diffusion(bb, bb.t_rev + 0.0005)


def test_diffusion_recovered_from_variance(all_sdes):
    ts = np.linspace(0.02, 0.95, 30)
    for name, sde in all_sdes.items():
        g2 = np.asarray(sde.g(ts), dtype=float) ** 2
        recovered = np.asarray(diffusion_from_variance(sde, ts), dtype=float)
        # BBED differentiates a tabulated variance; the others are closed-form
        rtol = 1e-4 if name == "BBED" else 1e-10
        assert np.allclose(recovered, g2, rtol=rtol), name


def test_inconsistent_schedule_detected():
    bb = make_sde(SdeParams(kind="BrownianBridge"))
    broken = dataclasses.replace(bb, var_prime=lambda t: -1.0 + 0.0 * np.asarray(t))
    with pytest.raises(ScheduleConsistencyError):
        diffusion_from_variance(broken, 0.1)


def test_tiny_negative_g2_clipped():
    bb = make_sde(SdeParams(kind="BrownianBridge"))
    # at t=0.5: var'=0, 2 gamma var = 1; a -1e-12 relative wobble must clip, not raise
    wobbly = dataclasses.replace(
        bb, var_prime=lambda t: (1.0 - 2.0 * np.asarray(t, dtype=float)) - 1e-12)
    out = diffusion_from_variance(wobbly, 0.5)
    assert out >= 0.0


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


def test_perturbation_kernel_and_validation(fouve):
    kern = perturbation_kernel(fouve, np.array([0.0, 2.0]), 1.0, 0.5)
    assert kern.std == pytest.approx(0.01, rel=1e-12)
    assert kern.mean.shape == (2,)
    with pytest.raises(ParameterError):
        GaussianKernel(mean=np.array([np.inf]), std=1.0)
    with pytest.raises(ParameterError):
        GaussianKernel(mean=np.array([0.0]), std=-1e-3)


def test_sample_forward_moments(fouve):
    rng = np.random.default_rng(11)
    n = 40_000
    x = sample_forward(fouve, np.zeros(n), 1.0, 0.5, rng)
    kern = perturbation_kernel(fouve, 0.0, 1.0, 0.5)
    assert x.shape == (n,)
    assert np.mean(x) == pytest.approx(float(kern.mean), abs=5 * kern.std / math.sqrt(n))
    assert np.std(x) == pytest.approx(kern.std, rel=0.02)


def test_sample_forward_domain(fouve):
    rng = np.random.default_rng(0)
    with pytest.raises(ParameterError):
        sample_forward(fouve, 0.0, 1.0, 1.5, rng)

