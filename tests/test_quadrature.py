import math

import numpy as np
import pytest
import scipy.integrate

from isde import integrate
from isde.quadrature import integrate_batch
from isde.errors import (
    ParameterError,
    QuadratureDomainError,
    QuadratureToleranceError,
)


def test_constant_single_panel():
    res = integrate(lambda t: 1.0, 0.0, 1.0)
    assert abs(res.value - 1.0) <= 1e-14
    assert res.evaluations == 15
    assert res.error_estimate >= 0.0


def test_exponential_against_antiderivative():
    # growth rate of the canonical fOUVE weight integrand
    c = 11.210340371976184
    exact = (math.exp(c) - math.exp(0.5 * c)) / c
    res = integrate(lambda t: math.exp(c * t), 0.5, 1.0)
    assert abs(res.value - exact) / exact <= 1e-12


def test_degenerate_interval_is_zero():
    res = integrate(lambda t: math.sin(t), 0.3, 0.3)
    assert res.value == 0.0
    assert res.error_estimate == 0.0


def test_reversed_bounds_rejected():
    with pytest.raises(ParameterError):
        integrate(lambda t: 1.0, 1.0, 0.0)


def test_linearity():
    f = lambda t: math.exp(-t)
    g = lambda t: math.cos(3.0 * t)
    combo = integrate(lambda t: 2.0 * f(t) + 3.0 * g(t), 0.0, 1.5)
    parts = 2.0 * integrate(f, 0.0, 1.5).value + 3.0 * integrate(g, 0.0, 1.5).value
    assert abs(combo.value - parts) <= 1e-11


def test_interval_additivity():
    f = lambda t: 1.0 / (1.0 + t * t)
    whole = integrate(f, 0.0, 1.0).value
    split = integrate(f, 0.0, 0.4).value + integrate(f, 0.4, 1.0).value
    assert abs(whole - split) <= 1e-12


def test_polynomials_integrated_to_roundoff():
    # a 7-15 Gauss-Kronrod panel is exact well past degree 10
    rng = np.random.default_rng(7)
    for _ in range(20):
        coeffs = rng.uniform(-2.0, 2.0, size=11)
        a, b = sorted(rng.uniform(-1.0, 2.0, size=2))
        if b - a < 1e-3:
            continue
        poly = np.polynomial.Polynomial(coeffs)
        exact = poly.integ()(b) - poly.integ()(a)
        res = integrate(lambda t: float(poly(t)), a, b)
        assert abs(res.value - exact) <= 1e-13 * max(1.0, abs(exact))


def test_nonfinite_integrand_reported():
    # t = 0 is a panel node on [-1, 1], so the pole is actually sampled
    with pytest.raises(QuadratureDomainError):
        integrate(lambda t: 1.0 / t if t != 0.0 else math.inf, -1.0, 1.0)


def test_tolerance_failure_carries_best_estimate():
    with pytest.raises(QuadratureToleranceError) as err:
        integrate(lambda t: math.sin(200.0 * t), 0.0, 10.0,
                  abs_tol=1e-14, rel_tol=1e-12, max_subdivisions=16)
    best = err.value.result
    assert math.isfinite(best.value)
    assert best.error_estimate > 0.0
    assert best.evaluations >= 15 * 16


def test_random_smooth_integrands_match_library_quadrature():
    rng = np.random.default_rng(42)
    for _ in range(20):
        a1, a2, a3 = rng.uniform(-1.5, 1.5, size=3)
        w = rng.uniform(1.0, 6.0)
        f = lambda t: math.exp(a1 * math.sin(w * t)) + a2 * t * t + a3 * math.cos(t)
        lo, hi = sorted(rng.uniform(0.0, 3.0, size=2))
        if hi - lo < 1e-2:
            continue
        mine = integrate(f, lo, hi).value
        ref, _ = scipy.integrate.quad(f, lo, hi, epsabs=1e-13, epsrel=1e-13)
        assert abs(mine - ref) <= 1e-9 * max(1.0, abs(ref))


def test_scalar_oracle_keeps_worst_panel_first_bisection():
    # a sharp peak: the oracle calls the integrand once per node, with a float, and
    # bisects its worst panel first to the closed form 100 (atan 70 + atan 30)
    calls = []

    def f(t):
        calls.append(t)
        return 1.0 / (1e-4 + (t - 0.3) ** 2)

    res = integrate(f, 0.0, 1.0)
    assert res.evaluations == len(calls) == 465
    assert all(isinstance(t, float) for t in calls)
    exact = 100.0 * (math.atan(70.0) + math.atan(30.0))
    assert abs(res.value - exact) <= 1e-12 * exact


# ------------------------------------------------------- batched quadrature

def test_batch_matches_scalar_integrate():
    rng = np.random.default_rng(43)
    a1, a2, w = rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5), rng.uniform(1.0, 6.0)
    lo = np.sort(rng.uniform(0.0, 0.9, size=30))
    hi = lo + rng.uniform(0.0, 0.099, size=30)
    hi[0] = lo[0]  # a zero-width interval integrates to 0

    def f(t):
        # steepens toward t = 1, so some intervals need several subdivisions
        return np.exp(a1 * np.sin(w * t)) + a2 * t * t + 1.0 / (1.0 - t) ** 2

    res = integrate_batch(lambda x, rows: f(x), lo, hi, abs_tol=1e-14, rel_tol=1e-12)
    assert res.value[0] == 0.0 and res.evaluations[0] == 15
    assert res.evaluations.max() > 15
    for i in range(lo.size):
        want = integrate(lambda t: float(f(t)), lo[i], hi[i], abs_tol=1e-14, rel_tol=1e-12)
        assert abs(res.value[i] - want.value) <= 1e-11 * max(1.0, abs(want.value)), i
        ref, _ = scipy.integrate.quad(f, lo[i], hi[i], epsabs=1e-14, epsrel=1e-13)
        assert abs(res.value[i] - ref) <= 1e-11 * max(1.0, abs(ref)), i
        assert 0.0 <= res.error_estimate[i] <= max(1e-14, 1e-12 * abs(res.value[i]))


def _peaks(x):
    # +, -, * and / only, so a float and an array give bitwise the same values
    d, e = x - 0.3, x - 0.71
    return 1.0 / (1e-4 + d * d) + 0.5 / (1e-3 + e * e)


@pytest.mark.parametrize("f, a, b, evals", [
    (lambda x: 1.0 / (1e-4 + (x - 0.3) * (x - 0.3)), 0.0, 1.0, 465),
    (_peaks, 0.0, 1.0, 645),
    (lambda x: x * x * x / (1e-6 + x * x), -1.0, 2.0, 345),
])
def test_batch_refines_as_the_scalar_oracle(f, a, b, evals):
    # an interval that misses its tolerance after the first pass is refined by the
    # oracle's own worst-panel-first loop: same value, error estimate and evaluations
    want = integrate(f, a, b)
    got = integrate_batch(lambda x, rows: f(x), [a], [b])
    assert want.evaluations == evals
    assert (got.value[0], got.error_estimate[0], got.evaluations[0]) == (
        want.value, want.error_estimate, want.evaluations)


@pytest.mark.parametrize("r", [0.3, 4.0, 40.0])
def test_batch_converges_on_a_long_interval(r):
    # r^(2 - 2/s) over s in [2000, 3.28e9]: the oracle needs 19 bisections
    want = integrate(lambda s: r ** (2.0 - 2.0 / s), 2000.0, 3.28e9, rel_tol=1e-13)
    got = integrate_batch(lambda s, rows: r ** (2.0 - 2.0 / s), [2000.0], [3.28e9],
                          rel_tol=1e-13)
    assert want.evaluations == got.evaluations[0] == 585
    assert abs(got.value[0] - want.value) <= 1e-13 * want.value


def test_both_routes_stop_at_max_subdivisions():
    # 16 bisections after the first panel: 15 + 16 * 30 evaluations, on either route
    kw = dict(abs_tol=1e-14, rel_tol=1e-12, max_subdivisions=16)
    for call in (lambda: integrate(lambda t: math.sin(200.0 * t), 0.0, 10.0, **kw),
                 lambda: integrate_batch(lambda x, rows: np.sin(200.0 * x), [0.0], [10.0], **kw)):
        with pytest.raises(QuadratureToleranceError, match="after 16 subdivisions") as err:
            call()
        assert err.value.result.evaluations == 495


def test_batch_integrand_sees_interval_rows():
    a = np.array([0.0, 1.0, 2.0])
    res = integrate_batch(lambda x, rows: (x - a[rows, None]) ** 2, a, a + 1.0)
    np.testing.assert_allclose(res.value, 1.0 / 3.0, rtol=1e-14)


def test_batch_errors():
    with pytest.raises(QuadratureDomainError):
        # x = 0 is a panel node on [-1, 1]
        integrate_batch(lambda x, rows: np.where(x == 0.0, np.inf, x), [-1.0, 1.0], [1.0, 2.0])
    with pytest.raises(QuadratureToleranceError) as err:
        integrate_batch(lambda x, rows: np.sin(200.0 * x), [0.0, 0.0], [0.1, 10.0],
                        abs_tol=1e-14, rel_tol=1e-12, max_subdivisions=16)
    best = err.value.result
    assert "[0.0, 10.0]" in str(err.value)
    assert math.isfinite(best.value) and best.error_estimate > 0.0
    assert best.evaluations >= 15 * 16
    for a, b in (([1.0], [0.0]), ([0.0, 1.0], [1.0]), ([math.nan], [1.0])):
        with pytest.raises(ParameterError):
            integrate_batch(lambda x, rows: x, a, b)

