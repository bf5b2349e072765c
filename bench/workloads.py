"""The benchmark's workloads: inputs made from a seed, one fixed round of calls
into the public API, and the checks applied to every output.

Each workload makes ``N_SETS`` input sets from its seed; round ``r`` runs the
round's calls on set ``r % N_SETS``. Outputs are checked outside the timed
region. An op fails if it raises, returns a non-finite state, misses its stated
tolerance, or (on ``studies``) writes a CSV whose SHA-256 differs from the
golden bytes recorded at commit 92e5755.

Workloads (all closed loop, one client):

* ``quad-bridge`` -- 256 paths on OT, BBED and BrownianBridge, 41-node grid,
  Gaussian prior; per schedule isde p1, p2, p2 kappa=0.5, and p2 through
  ``eps_adapter``. These schedules have no closed-form weights, so adaptive
  quadrature and scalar schedule calls dominate.
* ``wide-fouve`` -- 1e5 paths on fOUVE; isde p2 kappa=0.5, Euler-Maruyama
  kappa=1, predictor-corrector, rk2, rk45 on a Gaussian prior and isde p2 on a
  two-component mixture. Closed-form weights mean no quadrature: time goes into
  array math on state arrays larger than the per-core L2 cache.
* ``studies`` -- the seven shipped ``configs/*.yaml`` through ``isde.cli.main``,
  the researcher's real workflow: per-step Python overhead and harness I/O.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import isde
import isde.cli
import isde.harness

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_PATH = BENCH_DIR / "golden.json"
N_SETS = 4
Y = 1.0
GAUSSIAN = dict(m0=0.5, s0=0.2)  # the test-suite prior
MIXTURE = dict(weights=(0.4, 0.6), means=(-0.5, 1.0), variances=(0.04, 0.04))
# CLI seeds with golden CSVs; each run draws N_SETS of them from its seed
CLI_SEEDS = tuple(range(1234, 1242))
RK45_CALLS_PER_STEP = 7

# Largest accepted endpoint error per op: twice the largest error commit
# 92e5755 gives over workload seeds 0-39 (all four input sets), rounded to two
# digits. Errors are in units of the endpoint marginal's std. The coarse
# uniform grids leave the bridge schedules far from their exact endpoints;
# these bounds record that level, so an op that loses accuracy well beyond
# seed-to-seed variation fails.
TOLERANCES = {
    "quad-bridge": {
        "OT/isde-p1": 0.16, "OT/isde-p2": 0.25, "OT/isde-p2-k0.5": 77.0,
        "OT/isde-eps-p2": 0.00077,
        "BBED/isde-p1": 9.1, "BBED/isde-p2": 4.4, "BBED/isde-p2-k0.5": 5.3,
        "BBED/isde-eps-p2": 0.0015,
        "BrownianBridge/isde-p1": 8.6, "BrownianBridge/isde-p2": 3.6,
        "BrownianBridge/isde-p2-k0.5": 5.0, "BrownianBridge/isde-eps-p2": 0.0063,
    },
    "wide-fouve": {
        "isde-p2-k0.5": 0.16, "em-k1": 0.63, "pc-r0.1": 0.64, "rk2": 0.015,
        "rk45": 3.8e-06, "mixture/isde-p2": 0.037,
    },
}


class CheckFailed(Exception):
    """An op's output misses the benchmark's correctness tolerance."""


@dataclass
class Op:
    """One call into the public API and the check applied to its output.

    ``check(output)`` returns ``(errors, path_steps)``: the op's endpoint
    errors against exact references (feeding ``ref_err_gmean``) and the
    trajectories x steps it integrated. It raises on a failed check.
    """

    label: str
    call: object
    check: object


class Workload:
    """A workload's input sets and the ops of one round on each set."""

    def __init__(self, name, sets, models=(), expect_quadrature=True,
                 round_context=None, cleanup=None):
        self.name = name
        self.sets = sets  # sets[j] is the list of Op run on input set j
        self.models = list(models)  # base ScoreModels whose nfe the solvers drive
        self.expect_quadrature = expect_quadrature
        self._round_context = round_context or contextlib.nullcontext
        self._cleanup = cleanup

    def run_round(self, j):
        """Run every op of input set ``j``; returns outputs, or the exception raised."""
        results = []
        with self._round_context():
            for op in self.sets[j]:
                try:
                    results.append(op.call())
                except Exception as e:  # the op failed; the run goes on
                    results.append(e)
        return results

    def close(self):
        if self._cleanup is not None:
            self._cleanup()
            self._cleanup = None


# -- solver workloads -----------------------------------------------------------

def _map_error(final, exact, v_lo):
    """RMS distance to the exact probability-flow map, in endpoint stds."""
    return math.sqrt(float(np.mean((final - exact) ** 2)) / v_lo)


def _moment_error(final, m_lo, v_lo):
    """Deviation of the endpoint mean and variance from the exact marginal."""
    return (abs(float(np.mean(final)) - m_lo) / math.sqrt(v_lo)
            + abs(float(np.var(final, ddof=1)) / v_lo - 1.0))


def _solve_check(label, tol, error_of, grid_steps):
    def check(out):
        final = np.asarray(out.final_state)
        if not np.all(np.isfinite(final)):
            raise CheckFailed(f"{label}: non-finite endpoint")
        err = error_of(final)
        if not err <= tol:
            raise CheckFailed(f"{label}: endpoint error {err:.6g} above tolerance {tol:.3g}")
        steps = grid_steps if grid_steps is not None else out.nfe // RK45_CALLS_PER_STEP
        return [err], final.size * steps
    return check


def _start_ensemble(prior, sde, rng, n):
    """Draw n states from the exact marginal at the reverse start time."""
    if isinstance(prior, isde.GaussianPrior):
        m_hi, v_hi = isde.marginal_moments(prior, sde, Y, sde.t_rev)
        return m_hi + math.sqrt(v_hi) * rng.standard_normal(n)
    x0 = isde.MixturePrior(prior.weights, prior.means, prior.variances, n).sample(rng)
    return isde.sample_forward(sde, x0, Y, sde.t_rev, rng)


def _set_rngs(seed, n_sets):
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n_sets)]


def quad_bridge(seed, n_sets=N_SETS):
    n, nodes = 256, 41
    schedules = {
        "OT": isde.SdeParams(kind="OT", sigma_max=0.1),
        "BBED": isde.SdeParams(kind="BBED", c=0.3, r=4.0),
        "BrownianBridge": isde.SdeParams(kind="BrownianBridge"),
    }
    prior = isde.GaussianPrior(**GAUSSIAN)
    built = []
    for name, params in schedules.items():
        sde = isde.make_sde(params)
        model = isde.analytic_score_model(prior, sde)
        eps = isde.eps_adapter(model, sde)
        grid = isde.TimeGrid.for_sde(sde, nodes)
        built.append((name, sde, model, eps, grid, isde.marginal_moments(prior, sde, Y, sde.delta)))

    sets = []
    for rng in _set_rngs(seed, n_sets):
        ops = []
        for name, sde, model, eps, grid, (m_lo, v_lo) in built:
            x0 = _start_ensemble(prior, sde, rng, n)
            exact = isde.reference_solution(sde, prior, Y, x0)
            noise_seed = int(rng.integers(2 ** 32))
            for tag, mdl, p, kappa in (("p1", model, 1, 0.0), ("p2", model, 2, 0.0),
                                       ("p2-k0.5", model, 2, 0.5), ("eps-p2", eps, 2, 0.0)):
                label = f"{name}/isde-{tag}"
                if kappa == 0.0:
                    def error_of(final, exact=exact, v_lo=v_lo):
                        return _map_error(final, exact, v_lo)
                else:
                    def error_of(final, m_lo=m_lo, v_lo=v_lo):
                        return _moment_error(final, m_lo, v_lo)

                def call(sde=sde, mdl=mdl, grid=grid, p=p, kappa=kappa, x0=x0,
                         noise_seed=noise_seed):
                    return isde.isde_solve(sde, mdl, Y, grid, p=p, kappa=kappa,
                                           seed=noise_seed, x_init=x0)

                ops.append(Op(label, call, _solve_check(
                    label, TOLERANCES["quad-bridge"][label], error_of, grid.n_steps)))
        sets.append(ops)
    return Workload("quad-bridge", sets, models=[b[2] for b in built])


def wide_fouve(seed, n_sets=N_SETS):
    n, nodes, mixture_nodes = 100_000, 21, 11
    sde = isde.make_sde(isde.SdeParams(kind="fOUVE", sigma_min=0.001, sigma_max=0.1,
                                       gamma0=2.0))
    gauss = isde.GaussianPrior(**GAUSSIAN)
    mix = isde.MixturePrior(**MIXTURE)
    model = isde.analytic_score_model(gauss, sde)
    mix_model = isde.analytic_score_model(mix, sde)
    grid = isde.TimeGrid.for_sde(sde, nodes)
    mix_grid = isde.TimeGrid.for_sde(sde, mixture_nodes)
    t_start, t_end = float(grid.times[0]), float(grid.times[-1])
    m_lo, v_lo = isde.marginal_moments(gauss, sde, Y, sde.delta)
    mm_lo, mv_lo = isde.marginal_moments(mix, sde, Y, sde.delta)

    sets = []
    for rng in _set_rngs(seed, n_sets):
        x0 = _start_ensemble(gauss, sde, rng, n)
        xm = _start_ensemble(mix, sde, rng, n)
        exact = isde.reference_solution(sde, gauss, Y, x0)
        s = [int(v) for v in rng.integers(2 ** 32, size=3)]

        def by_map(final, exact=exact):
            return _map_error(final, exact, v_lo)

        def by_moments(final):
            return _moment_error(final, m_lo, v_lo)

        def by_mixture_moments(final):
            return _moment_error(final, mm_lo, mv_lo)

        calls = (
            ("isde-p2-k0.5", by_moments, grid.n_steps,
             lambda x0=x0, s=s[0]: isde.isde_solve(sde, model, Y, grid, p=2, kappa=0.5,
                                                   seed=s, x_init=x0)),
            ("em-k1", by_moments, grid.n_steps,
             lambda x0=x0, s=s[1]: isde.euler_maruyama(sde, model, Y, grid, kappa=1.0,
                                                       seed=s, x_init=x0)),
            ("pc-r0.1", by_moments, grid.n_steps,
             lambda x0=x0, s=s[2]: isde.pc_sampler(sde, model, Y, grid,
                                                   corrector_stepsize=0.1, seed=s,
                                                   x_init=x0)),
            ("rk2", by_map, grid.n_steps,
             lambda x0=x0: isde.rk2_midpoint(sde, model, Y, grid, x_init=x0)),
            ("rk45", by_map, None,
             lambda x0=x0: isde.rk45_adaptive(sde, model, Y, t_start, t_end, x_init=x0)),
            ("mixture/isde-p2", by_mixture_moments, mix_grid.n_steps,
             lambda xm=xm: isde.isde_solve(sde, mix_model, Y, mix_grid, p=2, x_init=xm)),
        )
        sets.append([Op(label, call, _solve_check(
            label, TOLERANCES["wide-fouve"][label], error_of, steps))
            for label, error_of, steps, call in calls])
    return Workload("wide-fouve", sets, models=[model, mix_model], expect_quadrature=False)


# -- studies -------------------------------------------------------------------

# CSV columns holding errors against exact references, per study
_ERROR_COLUMNS = {
    "convergence": lambda col: col not in ("m_nodes", "h"),
    "nfe-sweep": lambda col: col != "nfe",
    "solve": lambda col: col == "err_vs_ref",
    # the kappa=0 mean deviations are rounding noise, so only variances count
    "kappa-sweep": lambda col: col.endswith("_var_rel_dev"),
}


def load_golden(path=GOLDEN_PATH):
    """Golden CSVs per CLI seed and study, verified against their SHA-256."""
    with open(path, encoding="utf-8") as fh:
        golden = json.load(fh)
    for seed, studies in golden["csv"].items():
        for study, entry in studies.items():
            if hashlib.sha256(entry["text"].encode()).hexdigest() != entry["sha256"]:
                raise ValueError(f"golden CSV {seed}/{study} does not match its SHA-256")
    return golden


def csv_errors(study, text):
    """Error cells of a study CSV (those compared with exact references)."""
    keep = _ERROR_COLUMNS.get(study)
    if keep is None:
        return []
    rows = list(csv.reader(io.StringIO(text)))
    cols = [i for i, col in enumerate(rows[0]) if keep(col)]
    return [float(row[i]) for row in rows[1:] for i in cols if row[i] != ""]


def largest_difference(text, golden_text):
    """Describe the largest numeric cell difference between two CSVs."""
    rows = list(csv.reader(io.StringIO(text)))
    gold = list(csv.reader(io.StringIO(golden_text)))
    if len(rows) != len(gold) or any(len(a) != len(b) for a, b in zip(rows, gold)):
        return f"table shape differs: {len(rows)} rows vs {len(gold)} golden rows"
    worst = (0.0, None)
    for r, (row, grow) in enumerate(zip(rows, gold)):
        for c, (a, b) in enumerate(zip(row, grow)):
            if a == b:
                continue
            try:
                diff = abs(float(a) - float(b))
            except ValueError:
                return f"cell ({r}, {gold[0][c]}) differs: {a!r} vs golden {b!r}"
            if diff >= worst[0]:
                worst = (diff, (r, gold[0][c], a, b))
    if worst[1] is None:
        return "no cell differs; bytes differ in formatting"
    r, col, a, b = worst[1]
    return f"largest difference {worst[0]:.3g} at row {r}, column {col}: {a} vs golden {b}"


class _PathStepCounter:
    """Counts trajectories x steps of every solve the harness runs in a round."""

    def __init__(self):
        self.path_steps = 0

    @contextlib.contextmanager
    def __call__(self):
        original = isde.harness.run_solver

        def counted(sde, model, y, grid, spec, *args, **kwargs):
            out = original(sde, model, y, grid, spec, *args, **kwargs)
            steps = (out.nfe // RK45_CALLS_PER_STEP if spec.kind == "rk45"
                     else grid.n_steps)
            self.path_steps += np.size(out.final_state) * steps
            return out

        isde.harness.run_solver = counted
        try:
            yield
        finally:
            isde.harness.run_solver = original


def studies(seed, n_sets=N_SETS):
    golden = load_golden()
    picks = np.random.default_rng(seed).permutation(len(CLI_SEEDS))[:n_sets]
    cli_seeds = [CLI_SEEDS[i] for i in picks]
    work = BENCH_DIR / "_work" / f"studies-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    counter = _PathStepCounter()
    sink = io.StringIO()

    @contextlib.contextmanager
    def round_context():
        sink.seek(0)
        sink.truncate()
        with counter(), contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            yield

    def make_op(study, cli_seed):
        config = str(BENCH_DIR.parent / "configs" / f"{study}.yaml")
        out = work / f"{study}.csv"
        argv = [study, "--config", config, "--out", str(out), "--seed", str(cli_seed)]
        entry = golden["csv"][str(cli_seed)][study]
        label = f"{study}@{cli_seed}"

        def call():
            before = counter.path_steps
            return isde.cli.main(argv), counter.path_steps - before

        def check(out_):
            rc, path_steps = out_
            if rc != 0:
                raise CheckFailed(f"{label}: exit status {rc}")
            data = out.read_bytes()
            if hashlib.sha256(data).hexdigest() != entry["sha256"]:
                raise CheckFailed(f"{label}: CSV differs from golden bytes; "
                                  + largest_difference(data.decode(), entry["text"]))
            return csv_errors(study, entry["text"]), path_steps
        return Op(label, call, check)

    sets = [[make_op(study, s) for study in isde.harness.STUDIES] for s in cli_seeds]
    return Workload("studies", sets, round_context=round_context,
                    cleanup=lambda: shutil.rmtree(work, ignore_errors=True))


WORKLOADS = {"quad-bridge": quad_bridge, "wide-fouve": wide_fouve, "studies": studies}


def build(name, seed, n_sets=N_SETS):
    return WORKLOADS[name](seed, n_sets)
