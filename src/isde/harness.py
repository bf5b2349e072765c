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

import copy
import json
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParameterError, SingularityError, real_parameter
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
    """One solver column in a study: spec, display label, optional grid size."""

    spec: SolverSpec
    label: str
    m_nodes: int | None = None


@dataclass
class ExperimentConfig:
    """Validated, ready-to-run study inputs. Treat as read-only."""

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
    raw: dict | None = None


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
        def fmt(v):
            if isinstance(v, str):
                return v
            return format(v, ".12g")

        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(fmt(v) for v in row))
        return "\n".join(lines) + "\n"

    def write(self, path) -> Path:
        """Write the CSV to ``path`` and the manifest next to it (.manifest.json)."""
        path = Path(path)
        if str(path.parent) not in ("", "."):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_csv(), encoding="utf-8")
        manifest = dict(self.manifest)
        manifest["runtime_s"] = self.runtime_s
        manifest["slopes"] = self.slopes
        manifest["stats"] = self.stats
        mpath = path.with_suffix(".manifest.json")
        mpath.write_text(json.dumps(manifest, indent=2, sort_keys=True, default=float) + "\n",
                         encoding="utf-8")
        return mpath


_PRIOR_KEYS = {
    "delta": {"x0"},
    "gaussian": {"m0", "s0"},
    "mixture": {"weights", "means", "variances"},
}


def _prior_from_dict(block) -> object:
    if not isinstance(block, dict) or "kind" not in block:
        raise ConfigError("config key 'prior' must be a mapping with a 'kind'")
    kind = str(block["kind"]).lower()
    if kind not in _PRIOR_KEYS:
        raise ConfigError(
            f"unknown prior kind {block['kind']!r}; expected one of: "
            f"{', '.join(sorted(_PRIOR_KEYS))}")
    allowed = _PRIOR_KEYS[kind] | {"kind", "dimension"}
    unknown = sorted(set(block) - allowed)
    if unknown:
        raise ConfigError(f"unknown prior keys: {', '.join(unknown)}")
    kwargs = {k: v for k, v in block.items() if k not in ("kind",)}
    try:
        if kind == "delta":
            return DeltaPrior(**kwargs)
        if kind == "gaussian":
            return GaussianPrior(**kwargs)
        return MixturePrior(**kwargs)
    except (ParameterError, TypeError) as e:
        raise ConfigError(f"invalid prior block: {e}")


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
    allowed = {"kind", "label", "p", "kappa", "corrector_stepsize", "rtol", "atol", "m_nodes"}
    unknown = sorted(set(block) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys in solver entry {index}: {', '.join(unknown)}")
    kwargs = {k: v for k, v in block.items() if k in
              ("p", "kappa", "corrector_stepsize", "rtol", "atol")}
    kind = block["kind"]
    if kind == "euler_maruyama" and "kappa" not in kwargs:
        kwargs["kappa"] = 1.0  # the conventional default for this sampler
    try:
        spec = SolverSpec(kind=kind, **kwargs)
    except ParameterError as e:
        raise ConfigError(f"invalid solver entry {index}: {e}")
    m_nodes = block.get("m_nodes")
    if m_nodes is not None and (isinstance(m_nodes, bool) or not isinstance(m_nodes, int)
                                or m_nodes < 2):
        raise ConfigError(
            f"solver entry {index}: m_nodes must be an integer >= 2, got {m_nodes!r}")
    label = str(block.get("label", _default_label(spec)))
    return SolverEntry(spec=spec, label=label, m_nodes=m_nodes)


def _int_tuple(value, key: str, minimum: int) -> tuple:
    if not isinstance(value, (list, tuple)) or any(
            isinstance(v, bool) or not isinstance(v, int) for v in value):
        raise ConfigError(f"config key {key!r} must be a list of integers, got {value!r}")
    if not value or any(v < minimum for v in value):
        raise ConfigError(f"config key {key!r} entries must be >= {minimum}, got {value!r}")
    return tuple(value)


def config_from_dict(data: dict) -> ExperimentConfig:
    """Validate a plain mapping (e.g. parsed YAML) into an ExperimentConfig.

    Raises ConfigError naming the offending key for anything missing, unknown,
    or out of range.
    """
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    known = {"sde", "prior", "y", "seed", "n_trajectories", "solvers",
             "m_values", "budgets", "kappas", "nfe_budget", "n_times"}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for req in ("sde", "prior", "y", "seed"):
        if req not in data:
            raise ConfigError(f"missing required config key: {req!r}")

    sde_block = data["sde"]
    if not isinstance(sde_block, dict) or "kind" not in sde_block:
        raise ConfigError("config key 'sde' must be a mapping with a 'kind'")
    sde_kwargs = dict(sde_block)
    kind = sde_kwargs.pop("kind")
    delta = sde_kwargs.pop("delta", 1e-2)
    allowed_sde = {"sigma_min", "sigma_max", "gamma0", "c", "r"}
    unknown = sorted(set(sde_kwargs) - allowed_sde)
    if unknown:
        raise ConfigError(f"unknown sde keys: {', '.join(unknown)}")
    try:
        sde = make_sde(SdeParams(kind=kind, **sde_kwargs), delta=delta)
    except ParameterError as e:
        raise ConfigError(f"invalid sde block: {e}")

    prior = _prior_from_dict(data["prior"])

    try:
        y = real_parameter("y", data["y"])
    except (TypeError, ValueError):
        raise ConfigError(f"config key 'y' must be a number, got {data['y']!r}")
    if not math.isfinite(y):
        raise ConfigError(f"config key 'y' must be finite, got {y!r}")
    seed_raw = data["seed"]
    if isinstance(seed_raw, bool) or not isinstance(seed_raw, int):
        raise ConfigError(f"config key 'seed' must be an integer, got {seed_raw!r}")
    seed = int(seed_raw)

    n_traj = data.get("n_trajectories", 256)
    if isinstance(n_traj, bool) or not isinstance(n_traj, int) or n_traj < 1:
        raise ConfigError(
            f"config key 'n_trajectories' must be a positive integer, got {n_traj!r}")

    entries = []
    for i, block in enumerate(data.get("solvers", []) or []):
        entries.append(_entry_from_dict(block, i))
    labels = [e.label for e in entries]
    dupes = sorted({l for l in labels if labels.count(l) > 1})
    if dupes:
        raise ConfigError(f"duplicate solver labels: {', '.join(dupes)}")

    kwargs = {}
    if "m_values" in data:
        kwargs["m_values"] = _int_tuple(data["m_values"], "m_values", 2)
    if "budgets" in data:
        kwargs["budgets"] = _int_tuple(data["budgets"], "budgets", 1)
    if "kappas" in data:
        try:
            kappas = tuple(real_parameter("kappas", v) for v in data["kappas"])
        except (TypeError, ValueError):
            raise ConfigError("config key 'kappas' must be a list of numbers")
        if not kappas or any(not math.isfinite(v) or v < 0.0 for v in kappas):
            raise ConfigError(f"config key 'kappas' entries must be >= 0, got {kappas!r}")
        kwargs["kappas"] = kappas
    if "nfe_budget" in data:
        nb = data["nfe_budget"]
        if isinstance(nb, bool) or not isinstance(nb, int) or nb < 1:
            raise ConfigError(
                f"config key 'nfe_budget' must be a positive integer, got {nb!r}")
        kwargs["nfe_budget"] = nb
    if "n_times" in data:
        nt = data["n_times"]
        if isinstance(nt, bool) or not isinstance(nt, int) or nt < 2:
            raise ConfigError(f"config key 'n_times' must be an integer >= 2, got {nt!r}")
        kwargs["n_times"] = nt

    return ExperimentConfig(sde=sde, prior=prior, y=y, seed=seed, solvers=tuple(entries),
                            n_trajectories=int(n_traj), raw=copy.deepcopy(data), **kwargs)


def _describe_config(config: ExperimentConfig, study: str, **extra) -> dict:
    p = config.sde.params
    sde_d = {"kind": p.kind.value, "delta": config.sde.delta}
    for name in ("sigma_min", "sigma_max", "gamma0", "c", "r"):
        v = getattr(p, name)
        if v is not None:
            sde_d[name] = v
    prior = config.prior
    if isinstance(prior, DeltaPrior):
        prior_d = {"kind": "delta", "x0": prior.x0, "dimension": prior.dimension}
    elif isinstance(prior, GaussianPrior):
        prior_d = {"kind": "gaussian", "m0": prior.m0, "s0": prior.s0,
                   "dimension": prior.dimension}
    else:
        prior_d = {"kind": "mixture", "weights": list(prior.weights),
                   "means": list(prior.means), "variances": list(prior.variances),
                   "dimension": prior.dimension}
    solvers_d = []
    for e in config.solvers:
        solvers_d.append({"kind": e.spec.kind, "label": e.label, "p": e.spec.p,
                          "kappa": e.spec.kappa,
                          "corrector_stepsize": e.spec.corrector_stepsize,
                          "rtol": e.spec.rtol, "atol": e.spec.atol,
                          "m_nodes": e.m_nodes})
    out = {"study": study, "sde": sde_d, "prior": prior_d, "y": config.y,
           "seed": config.seed, "n_trajectories": config.n_trajectories,
           "solvers": solvers_d}
    out.update(extra)
    return out


def reference_solution(sde: InterpolatingSde, prior, y, x_start, t_start: float = None,
                       t_end: float = None):
    """Exact probability-flow endpoint map for Gaussian marginals.

    Maps a state at t_start to t_end by matching standardized coordinates:
    x_end = mean_end + (x_start - mean_start) sqrt(var_end / var_start).
    Exact for delta and Gaussian priors, whose marginals stay Gaussian.
    """
    if isinstance(prior, MixturePrior):
        raise ParameterError(
            "reference map requires a delta or Gaussian prior (Gaussian marginals)")
    t_start = sde.t_rev if t_start is None else float(t_start)
    t_end = sde.delta if t_end is None else float(t_end)
    if not (0.0 < t_end <= t_start <= sde.t_rev):
        raise ParameterError(
            f"need 0 < t_end <= t_start <= t_rev, got {t_end!r}, {t_start!r}")
    m_start, v_start = marginal_moments(prior, sde, y, t_start)
    m_end, v_end = marginal_moments(prior, sde, y, t_end)
    if v_start <= 0.0:
        raise SingularityError(f"zero marginal variance at t_start={t_start!r}")
    x = np.asarray(x_start, dtype=float)
    out = m_end + (x - m_start) * math.sqrt(v_end / v_start)
    return out if out.ndim else float(out)


def _derived_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([int(seed), int(index)]).generate_state(1)[0])


def _moment_matched_start(n: int, mean: float, var: float, seed: int) -> np.ndarray:
    """Antithetic draw from N(mean, var) standardized to exact sample moments.

    Pairing z with -z makes the sample mean exactly ``mean``; rescaling makes
    the ddof=1 sample variance exactly ``var``. Starting solvers from a sample
    with exact target moments means any mean or variance deviation at the
    endpoint is attributable to the solver, not to start-draw luck (the KS
    column still tests the full shape).
    """
    rng = np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(0,)))
    z_half = rng.standard_normal(n // 2)
    z = np.concatenate([z_half, -z_half])
    z /= math.sqrt(float(np.var(z, ddof=1)))
    return mean + math.sqrt(var) * z


def _require_solvers(config: ExperimentConfig, study: str) -> tuple:
    if not config.solvers:
        raise ConfigError(f"the {study} study needs at least one solver entry")
    return config.solvers


def _shared_start(config: ExperimentConfig):
    """Common reverse-start ensemble and its exact mapped endpoints."""
    n = config.n_trajectories
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0]))
    x_start = reverse_init(config.sde, config.y, rng, shape=(n,))
    ref = reference_solution(config.sde, config.prior, config.y, x_start)
    return x_start, ref


def convergence_study(config: ExperimentConfig) -> StudyResult:
    """Endpoint error versus step size on uniform grids, one column per solver.

    The error at each grid size is the ensemble mean of |x_delta - reference|
    over a shared set of reverse-start draws; slopes of log error against log
    step size estimate each solver's weak order.
    """
    t0 = time.perf_counter()
    entries = _require_solvers(config, "convergence")
    for e in entries:
        if nfe_per_step(e.spec) is None:
            raise ConfigError(
                f"convergence study needs fixed-grid solvers, got {e.label!r} (rk45)")
    sde, prior, y = config.sde, config.prior, config.y
    model = analytic_score_model(prior, sde)
    x_start, ref = _shared_start(config)
    span = sde.t_rev - sde.delta
    h_values = [span / (m - 1) for m in config.m_values]
    errors = {e.label: [] for e in entries}
    run_idx = 1
    for e in entries:
        for m in config.m_values:
            grid = TimeGrid.for_sde(sde, m)
            out = run_solver(sde, model, y, grid, e.spec,
                             seed=_derived_seed(config.seed, run_idx), x_init=x_start)
            run_idx += 1
            errors[e.label].append(float(np.mean(np.abs(out.final_state - ref))))
    rows = []
    for i, m in enumerate(config.m_values):
        rows.append((m, h_values[i]) + tuple(errors[e.label][i] for e in entries))
    slopes = {}
    for e in entries:
        fit = np.polyfit(np.log(h_values), np.log(errors[e.label]), 1)
        slopes[e.label] = float(fit[0])
    columns = ("m_nodes", "h") + tuple(e.label for e in entries)
    manifest = _describe_config(config, "convergence", m_values=list(config.m_values))
    return StudyResult("convergence", columns, rows, slopes, {},
                       time.perf_counter() - t0, manifest)


def nfe_sweep(config: ExperimentConfig) -> StudyResult:
    """Endpoint error at matched model-call budgets.

    Fixed-grid solvers get steps = budget / cost (cost = model calls per
    step); a budget not divisible by a solver's cost is a config error. An
    adaptive rk45 entry contributes one extra row with its actual call count
    in the budget column and blanks elsewhere.
    """
    t0 = time.perf_counter()
    entries = _require_solvers(config, "nfe-sweep")
    sde, prior, y = config.sde, config.prior, config.y
    model = analytic_score_model(prior, sde)
    x_start, ref = _shared_start(config)
    fixed = [e for e in entries if nfe_per_step(e.spec) is not None]
    adaptive = [e for e in entries if nfe_per_step(e.spec) is None]
    errors = {e.label: [] for e in fixed}
    run_idx = 1
    for e in fixed:
        cost = nfe_per_step(e.spec)
        for b in config.budgets:
            if b % cost != 0 or b // cost < 1:
                raise ConfigError(
                    f"budget {b} is not a positive multiple of the per-step cost "
                    f"{cost} of solver {e.label!r}")
            grid = TimeGrid.for_sde(sde, b // cost + 1)
            out = run_solver(sde, model, y, grid, e.spec,
                             seed=_derived_seed(config.seed, run_idx), x_init=x_start)
            run_idx += 1
            errors[e.label].append(float(np.mean(np.abs(out.final_state - ref))))
    labels = tuple(e.label for e in entries)
    rows = []
    for i, b in enumerate(config.budgets):
        cells = []
        for e in entries:
            cells.append(errors[e.label][i] if e.label in errors else "")
        rows.append((b,) + tuple(cells))
    stats = {}
    for e in adaptive:
        grid = TimeGrid.for_sde(sde, 2)
        out = run_solver(sde, model, y, grid, e.spec,
                         seed=_derived_seed(config.seed, run_idx), x_init=x_start)
        run_idx += 1
        err = float(np.mean(np.abs(out.final_state - ref)))
        cells = [err if e2.label == e.label else "" for e2 in entries]
        rows.append((out.nfe,) + tuple(cells))
        stats[f"{e.label}_nfe"] = out.nfe
        stats[f"{e.label}_error"] = err
    slopes = {}
    for e in fixed:
        fit = np.polyfit(np.log(np.array(config.budgets, dtype=float)),
                         np.log(errors[e.label]), 1)
        slopes[e.label] = float(fit[0])
    columns = ("nfe",) + labels
    manifest = _describe_config(config, "nfe-sweep", budgets=list(config.budgets))
    return StudyResult("nfe-sweep", columns, rows, slopes, stats,
                       time.perf_counter() - t0, manifest)


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
    entries = _require_solvers(config, "kappa-sweep")
    for e in entries:
        if e.spec.kind != "isde":
            raise ConfigError(
                f"kappa sweep applies to the exponential integrator only, "
                f"got {e.label!r} ({e.spec.kind})")
        if config.nfe_budget % e.spec.p != 0:
            raise ConfigError(
                f"nfe_budget {config.nfe_budget} is not a multiple of p={e.spec.p} "
                f"for solver {e.label!r}")
    sde, prior, y = config.sde, config.prior, config.y
    n = config.n_trajectories
    if n % 2 != 0:
        raise ConfigError(f"kappa sweep needs an even n_trajectories, got {n}")
    model = analytic_score_model(prior, sde)
    m_hi, v_hi = marginal_moments(prior, sde, y, sde.t_rev)
    m_lo, v_lo = marginal_moments(prior, sde, y, sde.delta)
    stats = {}
    if n < 100:
        stats["warning"] = (f"n_trajectories={n} is below 100; "
                            "sweep statistics are noisy")
    cells = {e.label: [] for e in entries}
    for idx, e in enumerate(entries):
        grid = TimeGrid.for_sde(sde, config.nfe_budget // e.spec.p + 1)
        # common random numbers across the kappa values of one solver: the
        # same seed drives the start draws and the diffusion increments, so
        # differences between rows isolate the effect of kappa
        run_seed = _derived_seed(config.seed, idx + 1)
        x_init = _moment_matched_start(n, m_hi, v_hi, run_seed)
        for kap in config.kappas:
            spec = replace(e.spec, kappa=float(kap))
            out = run_solver(sde, model, y, grid, spec, seed=run_seed, x_init=x_init)
            final = np.asarray(out.final_state, dtype=float)
            var = float(np.var(final, ddof=1))
            cells[e.label].append((abs(float(np.mean(final)) - m_lo), var,
                                   abs(var - v_lo) / v_lo))
    rows = []
    for i, kap in enumerate(config.kappas):
        row = [float(kap)]
        for e in entries:
            row.extend(cells[e.label][i])
        rows.append(tuple(row))
    columns = ["kappa"]
    for e in entries:
        columns.extend([f"{e.label}_mean_dev", f"{e.label}_var", f"{e.label}_var_rel_dev"])
    manifest = _describe_config(config, "kappa-sweep", kappas=list(config.kappas),
                                nfe_budget=config.nfe_budget)
    if "warning" in stats:
        manifest["warning"] = stats["warning"]
    return StudyResult("kappa-sweep", tuple(columns), rows, {}, stats,
                       time.perf_counter() - t0, manifest)


def marginal_check(config: ExperimentConfig) -> StudyResult:
    """Distributional test of sampler endpoints against the exact marginal.

    Requires an even n_trajectories >= 1000. Each solver starts from the true
    start marginal sampled with exact moments (antithetic pairs, rescaled; see
    _moment_matched_start) so endpoint deviations isolate solver bias, and its
    endpoints are compared with the exact Gaussian marginal at the stop time:
    sample mean, sample variance, and the Kolmogorov-Smirnov statistic against
    the 1% critical value 1.6276/sqrt(n). A forward-sampling row sanity-checks
    the kernel itself at the start time.
    """
    from scipy import stats as sp_stats

    t0 = time.perf_counter()
    entries = _require_solvers(config, "marginal-check")
    n = config.n_trajectories
    if n < 1000:
        raise ConfigError(f"marginal check needs n_trajectories >= 1000, got {n}")
    if n % 2 != 0:
        raise ConfigError(f"marginal check needs an even n_trajectories, got {n}")
    sde, prior, y = config.sde, config.prior, config.y
    model = analytic_score_model(prior, sde)
    t_hi, t_lo = sde.t_rev, sde.delta
    m_hi, v_hi = marginal_moments(prior, sde, y, t_hi)
    m_lo, v_lo = marginal_moments(prior, sde, y, t_lo)
    ks_crit = 1.6276 / math.sqrt(n)

    rows = []
    fw_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0]))
    x_fwd = sample_forward(sde, replace(prior, dimension=n).sample(fw_rng), y, t_hi, fw_rng)
    ks_fwd = sp_stats.kstest(x_fwd, "norm", args=(m_hi, math.sqrt(v_hi))).statistic
    rows.append(("forward", float(n), float(np.mean(x_fwd)), m_hi,
                 float(np.var(x_fwd, ddof=1)), v_hi, float(ks_fwd), ks_crit))

    for i, e in enumerate(entries):
        if e.spec.kind != "rk45" and e.m_nodes is None:
            raise ConfigError(f"solver {e.label!r} needs m_nodes for the marginal check")
        run_seed = _derived_seed(config.seed, i + 1)
        x_init = _moment_matched_start(n, m_hi, v_hi, run_seed)
        grid = TimeGrid.for_sde(sde, e.m_nodes if e.m_nodes is not None else 2)
        out = run_solver(sde, model, y, grid, e.spec, seed=run_seed, x_init=x_init)
        final = np.asarray(out.final_state, dtype=float)
        ks = sp_stats.kstest(final, "norm", args=(m_lo, math.sqrt(v_lo))).statistic
        rows.append((e.label, float(n), float(np.mean(final)), m_lo,
                     float(np.var(final, ddof=1)), v_lo, float(ks), ks_crit))

    columns = ("row", "n", "mean", "mean_target", "var", "var_target",
               "ks_stat", "ks_crit_1pct")
    stats = {"ks_crit_1pct": ks_crit}
    manifest = _describe_config(config, "marginal-check")
    return StudyResult("marginal-check", columns, rows, {}, stats,
                       time.perf_counter() - t0, manifest)


def simulate_forward(config: ExperimentConfig) -> StudyResult:
    """Tabulate the schedule and Monte Carlo forward-kernel moments over time.

    Columns: t, k, gamma, sigma, g, and the sample mean/std of n_trajectories
    independent kernel draws at each time.
    """
    t0 = time.perf_counter()
    sde, prior, y = config.sde, config.prior, config.y
    n = config.n_trajectories
    ts = np.linspace(0.0, sde.t_rev, config.n_times)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0]))
    sampler = replace(prior, dimension=n)
    rows = []
    for t in ts:
        t = float(t)
        x = sample_forward(sde, sampler.sample(rng), y, t, rng)
        rows.append((t, float(sde.k(t)), float(sde.gamma(t)), float(sde.sigma(t)), float(sde.g(t)),
                     float(np.mean(x)), float(np.std(x, ddof=1))))
    columns = ("t", "k", "gamma", "sigma", "g", "mean_mc", "std_mc")
    manifest = _describe_config(config, "simulate-forward", n_times=config.n_times)
    return StudyResult("simulate-forward", columns, rows, {}, {},
                       time.perf_counter() - t0, manifest)


def solve_study(config: ExperimentConfig) -> StudyResult:
    """Run each configured solver once on the shared ensemble and report
    endpoint statistics, model calls, and error against the reference map."""
    t0 = time.perf_counter()
    entries = _require_solvers(config, "solve")
    sde, prior, y = config.sde, config.prior, config.y
    model = analytic_score_model(prior, sde)
    n = config.n_trajectories
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0]))
    x_start = reverse_init(sde, y, rng, shape=(n,))
    ref = None
    if not isinstance(prior, MixturePrior):
        ref = reference_solution(sde, prior, y, x_start)
    rows = []
    for i, e in enumerate(entries):
        m = e.m_nodes if e.m_nodes is not None else 20
        grid = TimeGrid.for_sde(sde, m)
        out = run_solver(sde, model, y, grid, e.spec,
                         seed=_derived_seed(config.seed, i + 1), x_init=x_start)
        final = np.asarray(out.final_state, dtype=float)
        err = float(np.mean(np.abs(final - ref))) if ref is not None else ""
        m_cell = "" if e.spec.kind == "rk45" else float(m)
        rows.append((e.label, m_cell, float(out.nfe), float(np.mean(final)),
                     float(np.std(final, ddof=1)), err))
    columns = ("label", "m_nodes", "nfe", "mean_final", "std_final", "err_vs_ref")
    manifest = _describe_config(config, "solve")
    return StudyResult("solve", columns, rows, {}, {}, time.perf_counter() - t0, manifest)


def verify_weights(config: ExperimentConfig) -> StudyResult:
    """Cross-check the step weights against direct quadrature on a grid.

    For each adjacent node pair the exponential weights (orders 0 and 1) and
    the diffusion increment are computed twice: through the production path
    (closed form where one exists) and through raw adaptive quadrature of the
    defining integrals. The largest relative disagreement is reported.
    """
    t0 = time.perf_counter()
    sde = config.sde
    grid = TimeGrid.for_sde(sde, config.n_times)
    rows = []
    max_rel = 0.0
    for i in range(grid.times.size - 1):
        th = float(grid.times[i])
        tl = float(grid.times[i + 1])

        def gee(u: float) -> float:
            return float(sde.g(u)) ** 2 / (2.0 * (1.0 - float(sde.k(u))))

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
            denom = max(abs(a), abs(b), 1e-300)
            max_rel = max(max_rel, abs(a - b) / denom)
        rows.append((th, tl, w0, w0_chk, w1, w1_chk, ito, ito_chk))
    columns = ("t_from", "t_to", "omega0", "omega0_check", "omega1", "omega1_check",
               "ito", "ito_check")
    stats = {"max_rel_err": max_rel}
    manifest = _describe_config(config, "verify-weights", n_times=config.n_times)
    return StudyResult("verify-weights", columns, rows, {}, stats,
                       time.perf_counter() - t0, manifest)


STUDIES = {
    "simulate-forward": simulate_forward,
    "solve": solve_study,
    "convergence": convergence_study,
    "nfe-sweep": nfe_sweep,
    "kappa-sweep": kappa_sweep,
    "marginal-check": marginal_check,
    "verify-weights": verify_weights,
}
