"""Reproducible numerical studies: configs, reference maps, and CSV reports.

A study takes a validated :class:`ExperimentConfig` and returns a
:class:`StudyResult` holding a small table (written as CSV with numbers at 12
significant digits) plus derived statistics and a JSON manifest. Tables are
deterministic functions of the config: per-run generator seeds are derived
from the config seed and a run index, so rerunning a study reproduces the CSV
byte for byte. Wall-clock runtime is recorded in the result and the manifest,
never in the CSV.

Accuracy is always measured against the exact probability-flow endpoint map
for Gaussian marginals (:func:`reference_solution`), applied to a shared
ensemble of reverse-start draws.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import time
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .errors import (ConfigError, ParameterError, SingularityError, integer_parameter,
                     real_array, real_parameter)
from .quadrature import integrate
from .score import (
    DeltaPrior,
    GaussianPrior,
    MixturePrior,
    analytic_score_model,
    marginal_moments,
)
from .sde_core import InterpolatingSde, SdeParams, make_sde, sample_forward
from .solvers import (
    SolverSpec,
    TimeGrid,
    _channel_rng,
    ito_increment,
    nfe_per_step,
    omega_weight,
    reverse_init,
    run_solver,
)

__all__ = [
    "SolverEntry",
    "ExperimentConfig",
    "StudyResult",
    "config_from_dict",
    "reference_solution",
    "convergence_study",
    "nfe_sweep",
    "kappa_sweep",
    "marginal_check",
    "simulate_forward",
    "solve_study",
    "verify_weights",
    "STUDIES",
]


@dataclass(frozen=True)
class SolverEntry:
    """One solver column in a study: spec, display label (it heads CSV cells, so a
    nonempty string with no comma, double quote or line break), optional grid size."""

    spec: SolverSpec
    label: str
    m_nodes: int | None = None

    def __post_init__(self):
        if not isinstance(self.spec, SolverSpec):
            raise ParameterError(f"spec must be a SolverSpec, got {self.spec!r}")
        if not (isinstance(self.label, str) and self.label
                and not any(c in self.label for c in ',"\r\n')):
            raise ParameterError(f"label must be a nonempty string with no comma, double "
                                 f"quote or line break, got {self.label!r}")
        if self.m_nodes is not None:
            object.__setattr__(self, "m_nodes", integer_parameter("m_nodes", self.m_nodes, 2))


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, ready-to-run study inputs. Construction checks that sde is a
    schedule bundle, prior one of the three prior classes and solvers a tuple of
    SolverEntry, reads the fields of ``_READERS`` (y of magnitude at most 1e150
    among them), checks the 1e150 scale of the prior and that no two solver
    labels repeat, and raises ParameterError naming the key."""

    sde: InterpolatingSde
    prior: object
    y: float
    seed: int
    solvers: tuple = ()
    n_trajectories: int = 256
    m_values: tuple = (5, 10, 20, 40, 80)
    budgets: tuple = (4, 10, 20, 40)
    kappas: tuple = (0.0, 0.05, 0.1, 0.125, 0.15)
    nfe_budget: int = 10
    n_times: int = 11

    def __post_init__(self):
        if not isinstance(self.sde, InterpolatingSde):
            raise ParameterError(f"config key 'sde' must be a schedule bundle made by "
                                 f"make_sde, got {self.sde!r}")
        if not isinstance(self.prior, tuple(_PRIORS.values())):
            raise ParameterError(f"config key 'prior' must be a DeltaPrior, GaussianPrior or "
                                 f"MixturePrior, got {self.prior!r}")
        if not (isinstance(self.solvers, tuple)
                and all(isinstance(e, SolverEntry) for e in self.solvers)):
            raise ParameterError(f"config key 'solvers' must be a tuple of SolverEntry, "
                                 f"got {self.solvers!r}")
        for name, read in _READERS.items():
            object.__setattr__(self, name, read(f"config key {name!r}", getattr(self, name)))
        _check_scale(self.prior)
        labels = [e.label for e in self.solvers]
        dupes = sorted({l for l in labels if labels.count(l) > 1})
        if dupes:
            raise ParameterError(f"duplicate solver labels: {', '.join(dupes)}")


@dataclass
class StudyResult:
    """One study's table plus derived numbers and run metadata."""

    study: str
    columns: tuple
    rows: list
    slopes: dict
    stats: dict
    runtime_s: float
    manifest: dict

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(v if isinstance(v, str) else format(v, ".12g") for v in row))
        return "\n".join(lines) + "\n"

    def write(self, path) -> Path:
        """Write the CSV to ``path`` and the manifest next to it (.manifest.json)."""
        path = Path(path)
        if str(path.parent) not in ("", "."):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_csv(), encoding="utf-8")
        manifest = dict(self.manifest, runtime_s=self.runtime_s, slopes=self.slopes,
                        stats=self.stats)
        mpath = path.with_suffix(".manifest.json")
        mpath.write_text(json.dumps(manifest, indent=2, sort_keys=True, default=float) + "\n",
                         encoding="utf-8")
        return mpath


_PRIORS = {"delta": DeltaPrior, "gaussian": GaussianPrior, "mixture": MixturePrior}


def _names(cls) -> set:
    return {f.name for f in fields(cls)}


def _check_keys(block: dict, allowed: set, what: str) -> None:
    unknown = sorted(str(k) for k in set(block) - allowed)
    if unknown:
        raise ConfigError(f"unknown {what}: {', '.join(unknown)}")


# The largest |y|, prior mean and prior standard deviation a config may give:
# squares of the states stay finite, so the statistics of a run do too.
_SCALE = 1e150


def _prior_from_dict(block) -> object:
    if not isinstance(block, dict) or "kind" not in block:
        raise ConfigError("config key 'prior' must be a mapping with a 'kind'")
    cls = _PRIORS.get(str(block["kind"]).lower())
    if cls is None:
        raise ConfigError(
            f"unknown prior kind {block['kind']!r}; expected one of: "
            f"{', '.join(sorted(_PRIORS))}")
    _check_keys(block, _names(cls) | {"kind"}, "prior keys")
    try:
        prior = cls(**{k: v for k, v in block.items() if k != "kind"})
    except (ParameterError, TypeError) as e:
        raise ConfigError(f"invalid prior block: {e}")
    return prior


def _check_scale(prior) -> None:
    """Reject |prior mean| or prior std above _SCALE, naming the key."""
    mean, var = prior.moments()
    if not (abs(mean) <= _SCALE and var <= _SCALE ** 2):
        raise ParameterError(f"config key 'prior' must have |mean| and sqrt(variance) at most "
                             f"{_SCALE:g}, got mean {mean!r} and variance {var!r}")


def _default_label(spec: SolverSpec) -> str:
    if spec.kind == "isde":
        base = f"isde{spec.p}"
        return base if spec.kappa == 0.0 else f"{base}-k{spec.kappa:g}"
    if spec.kind == "euler_maruyama":
        return f"eum-k{spec.kappa:g}"
    if spec.kind == "pc":
        return f"pc-r{spec.corrector_stepsize:g}"
    return spec.kind


def _entry_from_dict(block, index: int) -> SolverEntry:
    if not isinstance(block, dict) or "kind" not in block:
        raise ConfigError(f"solver entry {index} must be a mapping with a 'kind'")
    spec_keys = _names(SolverSpec)
    _check_keys(block, spec_keys | _names(SolverEntry) - {"spec"},
                f"keys in solver entry {index}")
    try:
        # SolverSpec rejects a field the kind does not read, naming it
        spec = SolverSpec(**{k: v for k, v in block.items() if k in spec_keys})
        label = block.get("label")
        return SolverEntry(spec=spec, label=_default_label(spec) if label is None else label,
                           m_nodes=block.get("m_nodes"))
    except ParameterError as e:
        raise ConfigError(f"invalid solver entry {index}: {e}")


def _integers(minimum: int):
    return lambda name, value: integer_parameter(name, value, minimum)


def _list_of(read):
    def read_list(name: str, value) -> tuple:
        if not isinstance(value, (list, tuple)) or not value:
            raise ParameterError(f"{name} must be a nonempty list, got {value!r}")
        return tuple(read(f"{name} entry", v) for v in value)
    return read_list


# How ExperimentConfig reads each field with a plain value; config_from_dict reads
# the solver entries and the sde and prior blocks on their own.
_READERS = {
    "y": functools.partial(real_parameter, lo=-_SCALE, hi=_SCALE),
    "seed": _integers(0),
    "n_trajectories": _integers(2),  # a sample standard deviation needs two paths
    "m_values": _list_of(_integers(2)),
    "budgets": _list_of(_integers(1)),
    "kappas": _list_of(functools.partial(real_parameter, lo=0)),
    "nfe_budget": _integers(1),
    "n_times": _integers(2),
}


def config_from_dict(data: dict) -> ExperimentConfig:
    """Validate a plain mapping (e.g. parsed YAML) into an ExperimentConfig.

    Raises ConfigError naming the offending key for anything missing, unknown,
    or out of range: the blocks are read here, the rest by ExperimentConfig.
    """
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    _check_keys(data, _names(ExperimentConfig), "config keys")
    for f in fields(ExperimentConfig):
        if f.default is MISSING and f.name not in data:
            raise ConfigError(f"missing required config key: {f.name!r}")

    sde_block = data["sde"]
    if not isinstance(sde_block, dict) or "kind" not in sde_block:
        raise ConfigError("config key 'sde' must be a mapping with a 'kind'")
    _check_keys(sde_block, _names(SdeParams) | {"delta"}, "sde keys")
    try:
        sde = make_sde(SdeParams(**{k: v for k, v in sde_block.items() if k != "delta"}),
                       **{k: v for k, v in sde_block.items() if k == "delta"})
    except ParameterError as e:
        raise ConfigError(f"invalid sde block: {e}")

    prior = _prior_from_dict(data["prior"])
    solvers = [] if data.get("solvers") is None else data["solvers"]
    if not isinstance(solvers, (list, tuple)):
        raise ConfigError(f"config key 'solvers' must be a list of solver entries, "
                          f"got {solvers!r}")
    entries = tuple(_entry_from_dict(block, i) for i, block in enumerate(solvers))
    try:
        return ExperimentConfig(sde=sde, prior=prior, solvers=entries,
                                **{k: data[k] for k in _READERS if k in data})
    except ParameterError as e:
        raise ConfigError(str(e)) from None


def _describe_config(config: ExperimentConfig, study: str, **extra) -> dict:
    """The manifest: the resolved config, with every default filled in; a solver
    entry lists its kind, the spec fields that kind reads (the others are None), its
    label and grid size."""
    sde = {k: v for k, v in asdict(config.sde.params).items() if v is not None}
    sde.update(kind=config.sde.params.kind.value, delta=config.sde.delta)
    prior = asdict(config.prior)
    prior["kind"] = next(k for k, cls in _PRIORS.items() if isinstance(config.prior, cls))
    solvers = [{**{f: v for f, v in vars(e.spec).items() if v is not None},
                "label": e.label, "m_nodes": e.m_nodes} for e in config.solvers]
    return {"study": study, "sde": sde, "prior": prior, "y": config.y, "seed": config.seed,
            "n_trajectories": config.n_trajectories, "solvers": solvers, **extra}


def reference_solution(sde: InterpolatingSde, prior, y, x_start):
    """Exact probability-flow endpoint map for Gaussian marginals.

    Maps a state at t_rev to delta by matching standardized coordinates:
    x_end = mean_end + (x_start - mean_start) sqrt(var_end / var_start).
    Exact for delta and Gaussian priors, whose marginals stay Gaussian.
    """
    if isinstance(prior, MixturePrior):
        raise ParameterError(
            "reference map requires a delta or Gaussian prior (Gaussian marginals)")
    x = real_array("x_start", x_start)
    m_start, v_start = marginal_moments(prior, sde, y, sde.t_rev)
    m_end, v_end = marginal_moments(prior, sde, y, sde.delta)
    if v_start <= 0.0:
        raise SingularityError(f"zero marginal variance at t_rev={sde.t_rev!r}")
    out = m_end + (x - m_start) * math.sqrt(v_end / v_start)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------- study skeleton
#
# Run index 0 seeds the shared draws of a study (the reverse-start ensemble, the
# forward samples); solver runs are numbered 1, 2, ... and each gets the seed
# derived from the config seed and its index.

def _seed_sequence(config: ExperimentConfig, index: int) -> np.random.SeedSequence:
    """Seed sequence of run ``index``."""
    return np.random.SeedSequence([config.seed, index])


def _derived_seed(config: ExperimentConfig, index: int) -> int:
    """The integer seed of run ``index``."""
    return int(_seed_sequence(config, index).generate_state(1)[0])


def _shared_rng(config: ExperimentConfig) -> np.random.Generator:
    """The generator of a study's shared draws (run index 0)."""
    return np.random.default_rng(_seed_sequence(config, 0))


def _solver_study(config: ExperimentConfig, study: str):
    """The solver entries of a study (at least one) and the exact score model."""
    if not config.solvers:
        raise ConfigError(f"the {study} study needs at least one solver entry")
    return config.solvers, analytic_score_model(config.prior, config.sde)


def _shared_start(config: ExperimentConfig, exact: bool = True):
    """Common reverse-start ensemble and its exact mapped endpoints. With
    ``exact=False`` a mixture prior, which has no exact map, gets None."""
    rng = _shared_rng(config)
    x_start = reverse_init(config.sde, config.y, rng, shape=(config.n_trajectories,))
    if not exact and isinstance(config.prior, MixturePrior):
        return x_start, None
    return x_start, reference_solution(config.sde, config.prior, config.y, x_start)


def _matched_start(config: ExperimentConfig, index: int) -> np.ndarray:
    """Antithetic draw from the exact start marginal, standardized to exact
    sample moments, seeded by run ``index``.

    Pairing z with -z makes the sample mean exactly the target mean; rescaling
    makes the ddof=1 sample variance exactly the target variance. Starting
    solvers from a sample with exact target moments means any mean or variance
    deviation at the endpoint is attributable to the solver, not to start-draw
    luck (the KS column still tests the full shape).
    """
    if config.n_trajectories % 2 != 0:
        raise ConfigError(f"antithetic start draws need an even n_trajectories, "
                          f"got {config.n_trajectories}")
    sde = config.sde
    mean, var = marginal_moments(config.prior, sde, config.y, sde.t_rev)
    z_half = _channel_rng(_derived_seed(config, index), 0).standard_normal(
        config.n_trajectories // 2)
    z = np.concatenate([z_half, -z_half])
    z /= math.sqrt(float(np.var(z, ddof=1)))
    return mean + math.sqrt(var) * z


def _solve(config: ExperimentConfig, model, spec: SolverSpec, m_nodes: int, index: int,
           x_init):
    """Run ``index`` of a study: one solve on the uniform ``m_nodes`` grid."""
    grid = TimeGrid.for_sde(config.sde, m_nodes)
    return run_solver(config.sde, model, config.y, grid, spec,
                      seed=_derived_seed(config, index), x_init=x_init)


def _endpoint_error(final, ref) -> float:
    return float(np.mean(np.abs(final - ref)))


def _slopes(x, errors: dict) -> dict:
    """Slope of log error against log x for each label of ``errors``, by least
    squares; none where x holds fewer than two distinct values."""
    if len(set(x)) < 2:
        return {}
    log_x = np.log(np.asarray(x, dtype=float))
    return {label: float(np.polyfit(log_x, np.log(e), 1)[0]) for label, e in errors.items()}


def _error_table(config: ExperimentConfig, model, x_start, ref, runs) -> dict:
    """Endpoint errors ``{label: [error per grid size]}`` for ``runs``, a list of
    (entry, grid sizes); run indices go 1, 2, ... entry by entry."""
    index = itertools.count(1)
    return {e.label: [_endpoint_error(_solve(config, model, e.spec, m, next(index),
                                             x_start).final_state, ref) for m in sizes]
            for e, sizes in runs}


def _result(config: ExperimentConfig, study: str, t0: float, columns, rows, slopes=None,
            stats=None, **extra) -> StudyResult:
    manifest = _describe_config(config, study, **extra)
    return StudyResult(study, tuple(columns), rows, slopes or {}, stats or {},
                       time.perf_counter() - t0, manifest)


def convergence_study(config: ExperimentConfig) -> StudyResult:
    """Endpoint error versus step size on uniform grids, one column per solver.

    The error at each grid size is the ensemble mean of |x_delta - reference|
    over a shared set of reverse-start draws; slopes of log error against log
    step size estimate each solver's weak order.
    """
    t0 = time.perf_counter()
    entries, model = _solver_study(config, "convergence")
    for e in entries:
        if nfe_per_step(e.spec) is None:
            raise ConfigError(
                f"convergence study needs fixed-grid solvers, got {e.label!r} ({e.spec.kind})")
    x_start, ref = _shared_start(config)
    span = config.sde.t_rev - config.sde.delta
    h_values = [span / (m - 1) for m in config.m_values]
    errors = _error_table(config, model, x_start, ref,
                          [(e, config.m_values) for e in entries])
    rows = [(m, h, *(errors[e.label][i] for e in entries))
            for i, (m, h) in enumerate(zip(config.m_values, h_values))]
    return _result(config, "convergence", t0, ("m_nodes", "h", *(e.label for e in entries)),
                   rows, _slopes(h_values, errors), m_values=list(config.m_values))


def _budget_nodes(entry: SolverEntry, budget: int) -> int:
    cost = nfe_per_step(entry.spec)
    if budget % cost != 0 or budget // cost < 1:
        raise ConfigError(
            f"budget {budget} is not a positive multiple of the per-step cost "
            f"{cost} of solver {entry.label!r}")
    return budget // cost + 1


def nfe_sweep(config: ExperimentConfig) -> StudyResult:
    """Endpoint error at matched model-call budgets.

    Fixed-grid solvers get steps = budget / cost (cost = model calls per
    step); a budget not divisible by a solver's cost is a config error. An
    adaptive rk45 entry contributes one extra row with its actual call count
    in the budget column and blanks elsewhere.
    """
    t0 = time.perf_counter()
    entries, model = _solver_study(config, "nfe-sweep")
    x_start, ref = _shared_start(config)
    fixed = [e for e in entries if nfe_per_step(e.spec) is not None]
    errors = _error_table(config, model, x_start, ref,
                          [(e, [_budget_nodes(e, b) for b in config.budgets]) for e in fixed])
    rows = [(b, *(errors[e.label][i] if e.label in errors else "" for e in entries))
            for i, b in enumerate(config.budgets)]
    stats = {}
    adaptive = [e for e in entries if e not in fixed]
    for index, e in enumerate(adaptive, len(fixed) * len(config.budgets) + 1):
        out = _solve(config, model, e.spec, 2, index, x_start)
        err = _endpoint_error(out.final_state, ref)
        rows.append((out.nfe, *(err if e2 is e else "" for e2 in entries)))
        stats[f"{e.label}_nfe"] = out.nfe
        stats[f"{e.label}_error"] = err
    return _result(config, "nfe-sweep", t0, ("nfe", *(e.label for e in entries)), rows,
                   _slopes(config.budgets, errors), stats, budgets=list(config.budgets))


def kappa_sweep(config: ExperimentConfig) -> StudyResult:
    """Endpoint distribution of the stochastic exponential integrator as the
    noise scale kappa varies, at a fixed model-call budget.

    Only "isde" solver entries are allowed. Every run starts from the exact
    start marginal sampled with antithetic pairs and reports, per kappa and
    solver, the deviation of the endpoint mean from the target mean, the raw
    endpoint variance, and its relative deviation from the target variance.
    Small ensembles (below 100 trajectories) are permitted but flagged in
    stats and the manifest.
    """
    t0 = time.perf_counter()
    entries, model = _solver_study(config, "kappa-sweep")
    for e in entries:
        if e.spec.kind != "isde":
            raise ConfigError(
                f"kappa sweep applies to the exponential integrator only, "
                f"got {e.label!r} ({e.spec.kind})")
    nodes = [_budget_nodes(e, config.nfe_budget) for e in entries]
    n = config.n_trajectories
    m_lo, v_lo = marginal_moments(config.prior, config.sde, config.y, config.sde.delta)
    stats = {}
    if n < 100:
        stats["warning"] = (f"n_trajectories={n} is below 100; "
                            "sweep statistics are noisy")
    cells = {}
    for index, (e, m_nodes) in enumerate(zip(entries, nodes), 1):
        # common random numbers across the kappa values of one solver: the
        # same seed drives the start draws and the diffusion increments, so
        # differences between rows isolate the effect of kappa
        x_init = _matched_start(config, index)
        cells[e.label] = []
        for kap in config.kappas:
            out = _solve(config, model, replace(e.spec, kappa=float(kap)), m_nodes, index,
                         x_init)
            var = float(np.var(out.final_state, ddof=1))
            cells[e.label].append((abs(float(np.mean(out.final_state)) - m_lo), var,
                                   abs(var - v_lo) / v_lo))
    rows = [(float(kap), *(v for e in entries for v in cells[e.label][i]))
            for i, kap in enumerate(config.kappas)]
    columns = ("kappa", *(f"{e.label}_{c}" for e in entries
                          for c in ("mean_dev", "var", "var_rel_dev")))
    # the small-ensemble warning, if any, goes into the manifest too
    return _result(config, "kappa-sweep", t0, columns, rows, stats=stats,
                   kappas=list(config.kappas), nfe_budget=config.nfe_budget, **stats)


def _ks_statistic(x, mean: float, std: float) -> float:
    """Kolmogorov-Smirnov distance sup |F_n - Phi| between the sample ``x`` and
    N(mean, std^2): max(D+, D-) over the sorted standardized sample."""
    z = np.sort((np.asarray(x, dtype=float) - mean) / std)
    n = z.size
    cdf = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in z.tolist()])
    return float(max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n)))


def marginal_check(config: ExperimentConfig) -> StudyResult:
    """Distributional test of sampler endpoints against the exact marginal.

    Requires an even n_trajectories >= 1000. Each solver starts from the true
    start marginal sampled with exact moments (antithetic pairs, rescaled; see
    _matched_start) so endpoint deviations isolate solver bias, and its
    endpoints are compared with the exact Gaussian marginal at the stop time:
    sample mean, sample variance, and the Kolmogorov-Smirnov statistic against
    the 1% critical value 1.6276/sqrt(n). A forward-sampling row sanity-checks
    the kernel itself at the start time.
    """
    t0 = time.perf_counter()
    entries, model = _solver_study(config, "marginal-check")
    n = config.n_trajectories
    if n < 1000:
        raise ConfigError(f"marginal check needs n_trajectories >= 1000, got {n}")
    sde, prior, y = config.sde, config.prior, config.y
    ks_crit = 1.6276 / math.sqrt(n)

    def row(label, x, t):
        mean, var = marginal_moments(prior, sde, y, t)
        ks = _ks_statistic(x, mean, math.sqrt(var))
        return (label, float(n), float(np.mean(x)), mean, float(np.var(x, ddof=1)), var,
                ks, ks_crit)

    rng = _shared_rng(config)
    rows = [row("forward", sample_forward(sde, replace(prior, dimension=n).sample(rng), y,
                                          sde.t_rev, rng), sde.t_rev)]
    for index, e in enumerate(entries, 1):
        if nfe_per_step(e.spec) is not None and e.m_nodes is None:
            raise ConfigError(f"solver {e.label!r} needs m_nodes for the marginal check")
        out = _solve(config, model, e.spec, e.m_nodes or 2, index,
                     _matched_start(config, index))
        rows.append(row(e.label, out.final_state, sde.delta))
    columns = ("row", "n", "mean", "mean_target", "var", "var_target",
               "ks_stat", "ks_crit_1pct")
    return _result(config, "marginal-check", t0, columns, rows,
                   stats={"ks_crit_1pct": ks_crit})


def simulate_forward(config: ExperimentConfig) -> StudyResult:
    """Tabulate the schedule and Monte Carlo forward-kernel moments over time.

    Columns: t, k, gamma, sigma, g, and the sample mean/std of n_trajectories
    independent kernel draws at each time.
    """
    t0 = time.perf_counter()
    sde, y = config.sde, config.y
    rng = _shared_rng(config)
    sampler = replace(config.prior, dimension=config.n_trajectories)
    rows = []
    for t in np.linspace(0.0, sde.t_rev, config.n_times):
        t = float(t)
        x = sample_forward(sde, sampler.sample(rng), y, t, rng)
        rows.append((t, float(sde.k(t)), float(sde.gamma(t)), float(sde.sigma(t)),
                     float(sde.g(t)), float(np.mean(x)), float(np.std(x, ddof=1))))
    columns = ("t", "k", "gamma", "sigma", "g", "mean_mc", "std_mc")
    return _result(config, "simulate-forward", t0, columns, rows, n_times=config.n_times)


def solve_study(config: ExperimentConfig) -> StudyResult:
    """Run each configured solver once on the shared ensemble and report
    endpoint statistics, model calls, and error against the reference map."""
    t0 = time.perf_counter()
    entries, model = _solver_study(config, "solve")
    x_start, ref = _shared_start(config, exact=False)
    rows = []
    for index, e in enumerate(entries, 1):
        m = e.m_nodes or 20
        out = _solve(config, model, e.spec, m, index, x_start)
        final = out.final_state
        rows.append((e.label, "" if nfe_per_step(e.spec) is None else float(m), float(out.nfe),
                     float(np.mean(final)), float(np.std(final, ddof=1)),
                     "" if ref is None else _endpoint_error(final, ref)))
    columns = ("label", "m_nodes", "nfe", "mean_final", "std_final", "err_vs_ref")
    return _result(config, "solve", t0, columns, rows)


def verify_weights(config: ExperimentConfig) -> StudyResult:
    """Cross-check the step weights against direct quadrature on a grid.

    For each adjacent node pair the exponential weights (orders 0 and 1) and
    the diffusion increment are computed twice: through the production path
    (closed form where one exists, the variance identity for the increment)
    and through raw adaptive quadrature of the defining integrals. The largest
    relative disagreement is reported.
    """
    t0 = time.perf_counter()
    sde = config.sde
    grid = TimeGrid.for_sde(sde, config.n_times)

    def gee(u: float) -> float:
        return float(sde.g(u)) ** 2 / (2.0 * (1.0 - float(sde.k(u))))

    rows = []
    max_rel = 0.0
    for i in range(grid.times.size - 1):
        th = float(grid.times[i])
        tl = float(grid.times[i + 1])
        w0 = omega_weight(sde, 0, th, tl)
        w0_chk = -integrate(gee, tl, th, abs_tol=1e-14, rel_tol=1e-12).value
        w1 = omega_weight(sde, 1, th, tl)
        w1_chk = -integrate(lambda u: gee(u) * (u - th), tl, th,
                            abs_tol=1e-14, rel_tol=1e-12).value
        ito = ito_increment(sde, th, tl)
        varint = integrate(lambda u: (float(sde.g(u)) / (1.0 - float(sde.k(u)))) ** 2,
                           tl, th, abs_tol=1e-14, rel_tol=1e-12).value
        ito_chk = (1.0 - float(sde.k(tl))) * math.sqrt(max(varint, 0.0))
        for a, b in ((w0, w0_chk), (w1, w1_chk), (ito, ito_chk)):
            max_rel = max(max_rel, abs(a - b) / max(abs(a), abs(b), 1e-300))
        rows.append((th, tl, w0, w0_chk, w1, w1_chk, ito, ito_chk))
    columns = ("t_from", "t_to", "omega0", "omega0_check", "omega1", "omega1_check",
               "ito", "ito_check")
    return _result(config, "verify-weights", t0, columns, rows,
                   stats={"max_rel_err": max_rel}, n_times=config.n_times)


STUDIES = {
    "simulate-forward": simulate_forward,
    "solve": solve_study,
    "convergence": convergence_study,
    "nfe-sweep": nfe_sweep,
    "kappa-sweep": kappa_sweep,
    "marginal-check": marginal_check,
    "verify-weights": verify_weights,
}
