"""Adaptive one-dimensional quadrature on a Gauss-Kronrod 7-15 pair.

The 15-point Kronrod rule is evaluated per panel together with its embedded
7-point Gauss rule; their difference drives one refinement rule for both
integrators: an interval that misses its tolerance bisects its worst panel
first, one at a time. :func:`integrate` calls a scalar integrand one node at
a time; it is the oracle of the tests' schedule round trips and of the
weight cross-checks. :func:`integrate_batch` evaluates a vectorized
integrand on one panel of every interval in one call, then refines only the
intervals that miss their tolerance; it computes the omega weights of
score-model grids on the bridge schedules (in the log-distance to their pole
at t = 1). Tolerances default far below solver truncation error.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import (ParameterError, QuadratureDomainError, QuadratureToleranceError,
                     real_parameter)

__all__ = ["QuadResult", "integrate", "integrate_batch"]

# Kronrod-15 abscissae (positive half, descending) and weights; embedded
# Gauss-7 weights pair with every second abscissa. Values are the standard
# published constants for the rule.
_XGK = np.array([0.991455371120813, 0.949107912342759, 0.864864423359769, 0.741531185599394,
                 0.586087235467691, 0.405845151377397, 0.207784955007898, 0.0])
_WGK = np.array([0.022935322010529, 0.063092092629979, 0.104790010322250, 0.140653259715525,
                 0.169004726639267, 0.190350578064785, 0.204432940075298, 0.209482141084728])
_WG = np.array([0.129484966168870, 0.279705391489277, 0.381830050505119, 0.417959183673469])

# full node set on [-1, 1], ordered low to high
_NODES = np.concatenate([-_XGK[:7], _XGK[::-1]])
_WEIGHTS_K = np.concatenate([_WGK[:7], _WGK[::-1]])
# Gauss nodes sit at indices 1,3,...,13 of the 15-node set
_GAUSS_IDX = np.arange(1, 15, 2)
_WEIGHTS_G = np.concatenate([_WG[:3], _WG[::-1]])
# Kronrod and Gauss weights as the columns of one (15, 2) matrix
_WEIGHTS_KG = np.stack([_WEIGHTS_K, np.zeros(15)], axis=1)
_WEIGHTS_KG[_GAUSS_IDX, 1] = _WEIGHTS_G

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class QuadResult:
    """Outcome of a quadrature call: value, error estimate, evaluation count.

    Scalars from :func:`integrate`; arrays with one entry per interval from
    :func:`integrate_batch`.
    """

    value: float
    error_estimate: float
    evaluations: int


def integrate(f, a: float, b: float, abs_tol: float = 1e-12, rel_tol: float = 1e-10,
              max_subdivisions: int = 2000) -> QuadResult:
    """Integrate ``f`` over [a, b] to the requested tolerance.

    Requires finite a <= b (positive orientation) and finite tolerances >= 0.
    The returned error estimate is the sum of per-panel Kronrod-vs-Gauss
    discrepancies. Raises QuadratureDomainError on a nonfinite integrand sample
    and QuadratureToleranceError (carrying the best estimate) when the
    subdivision budget is exhausted before the tolerance is met.
    """
    a = real_parameter("a", a)
    b = real_parameter("b", b, a)
    abs_tol = real_parameter("abs_tol", abs_tol, 0)
    rel_tol = real_parameter("rel_tol", rel_tol, 0)

    def nodes(xs, rows):  # one integrand call per node
        return [[float(f(x)) for x in row] for row in xs.tolist()]

    (value,), (err,) = (v.tolist() for v in _gk_panels(nodes, np.array([a]), np.array([b]), None))
    if a == b:
        return QuadResult(0.0, 0.0, 15)
    return _refine(nodes, None, a, b, value, err, abs_tol, rel_tol, max_subdivisions)


def _refine(f, row, lo, hi, value, err, abs_tol, rel_tol, max_subdivisions) -> QuadResult:
    """From one GK7-15 panel on [lo, hi], bisect the worst panel first until the summed
    error estimate meets max(abs_tol, rel_tol |value|); each bisection is one call
    ``f(xs, row)``. Raises QuadratureToleranceError, carrying the best estimate, after
    ``max_subdivisions`` bisections or when the worst panel is at the rounding floor."""
    # max-heap on panel error; counter breaks ties deterministically
    counter = 0
    heap = [(-err, counter, lo, hi, value, err)]
    total, total_err, evals, subdivisions = value, err, 15, 0
    while True:
        tol = max(abs_tol, rel_tol * abs(total))
        if total_err <= tol:
            return QuadResult(total, total_err, evals)
        if subdivisions >= max_subdivisions:
            raise QuadratureToleranceError(
                f"tolerance not met after {subdivisions} subdivisions on [{lo!r}, {hi!r}]: "
                f"error estimate {total_err:.3e} > {tol:.3e}", QuadResult(total, total_err, evals))
        _, _, pa, pb, pval, perr = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        if mid <= pa or mid >= pb:
            # panel width at rounding floor; cannot refine the dominant panel
            raise QuadratureToleranceError(
                f"panel [{pa!r}, {pb!r}] cannot be subdivided further; "
                f"error estimate {total_err:.3e} > {tol:.3e}", QuadResult(total, total_err, evals))
        (lv, rv), (le, re_) = (v.tolist() for v in _gk_panels(
            f, np.array([pa, mid]), np.array([mid, pb]), row))
        evals += 30
        subdivisions += 1
        total += (lv + rv) - pval
        total_err += (le + re_) - perr
        counter += 1
        heapq.heappush(heap, (-le, counter, pa, mid, lv, le))
        counter += 1
        heapq.heappush(heap, (-re_, counter, mid, pb, rv, re_))


def _gk_panels(f, lo, hi, rows):
    """GK7-15 on every panel [lo[j], hi[j]] in one integrand call; returns (value, error)."""
    half = 0.5 * (hi - lo)
    xs = (0.5 * (lo + hi))[:, None] + half[:, None] * _NODES
    fx = np.broadcast_to(np.asarray(f(xs, rows), dtype=float), xs.shape)
    finite = np.isfinite(fx)
    if not finite.all():
        raise QuadratureDomainError(
            f"integrand returned a nonfinite value at x={float(xs[~finite][0])!r}")
    sum_k, sum_g = (fx @ _WEIGHTS_KG).T
    resk = half * sum_k
    err = np.abs(resk - half * sum_g)
    resabs, resasc = np.abs(half) * (np.abs([fx, fx - 0.5 * sum_k[:, None]]) @ _WEIGHTS_K)
    # scaled error estimate in the style of the classic GK implementations
    scale = (resasc != 0.0) & (err != 0.0)
    ratio = np.divide(200.0 * err, resasc, out=np.zeros_like(err), where=scale)
    err = np.where(scale, resasc * np.minimum(1.0, ratio ** 1.5), err)
    return resk, np.maximum(err, 50.0 * _EPS * resabs)


def integrate_batch(f, a, b, abs_tol: float = 1e-12, rel_tol: float = 1e-10,
                    max_subdivisions: int = 2000) -> QuadResult:
    """Integrate ``f`` over every interval [a[i], b[i]] at once.

    ``f(x, rows)`` is vectorized: ``x`` is an (m, 15) array whose row j holds
    the nodes of one panel inside interval ``rows[j]``, and ``f`` returns its
    values at every node. A first pass takes one panel per interval, all in
    one call; each interval whose estimate misses max(abs_tol, rel_tol |value|)
    is then refined alone, as :func:`integrate` refines, with ``rows`` its row.
    Requires a <= b elementwise. Returns a QuadResult of arrays. Raises the
    errors of :func:`integrate`, for the first interval that fails.
    """
    a = np.array(a, dtype=float, ndmin=1)
    b = np.array(b, dtype=float, ndmin=1)
    if a.ndim != 1 or a.shape != b.shape:
        raise ParameterError(f"bounds must be 1-d arrays of one shape, got {a.shape}, {b.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ParameterError("integration bounds must be finite")
    if np.any(a > b):
        i = int(np.argmax(a > b))
        raise ParameterError(
            f"integrate_batch requires a <= b, got a={float(a[i])!r} > b={float(b[i])!r} "
            f"at index {i}")
    abs_tol = real_parameter("abs_tol", abs_tol, 0)
    rel_tol = real_parameter("rel_tol", rel_tol, 0)

    value, err = _gk_panels(f, a, b, np.arange(a.size))
    evals = np.full(a.size, 15)
    # an overflowed (nan) estimate is refined too
    for i in np.flatnonzero(~(err <= np.maximum(abs_tol, rel_tol * np.abs(value)))).tolist():
        res = _refine(f, np.array([i, i]), float(a[i]), float(b[i]), float(value[i]),
                      float(err[i]), abs_tol, rel_tol, max_subdivisions)
        value[i], err[i], evals[i] = res.value, res.error_estimate, res.evaluations
    return QuadResult(value, err, evals)
