import copy
import json
import math

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

import isde
from isde import harness as hz
from isde import (
    DeltaPrior,
    MixturePrior,
    STUDIES,
    config_from_dict,
    convergence_study,
    kappa_sweep,
    marginal_check,
    nfe_sweep,
    reference_solution,
    reverse_init,
    rk45_adaptive,
    simulate_forward,
    solve_study,
    verify_weights,
)
from isde.errors import ConfigError, ParameterError, SingularityError


def cfg_dict(base, **over):
    d = copy.deepcopy(base)
    d.update(over)
    return d


# ------------------------------------------------------------ reference map

def test_reference_solution_delta_prior(fouve, delta_prior):
    # delta prior: the map contracts the start gap by sqrt(v_end / v_start)
    m_s, v_s = isde.marginal_moments(delta_prior, fouve, 1.0, fouve.t_rev)
    m_e, v_e = isde.marginal_moments(delta_prior, fouve, 1.0, fouve.delta)
    x = 0.9
    want = m_e + (x - m_s) * math.sqrt(v_e / v_s)
    assert reference_solution(fouve, delta_prior, 1.0, x) == pytest.approx(want, rel=1e-14)


def test_reference_solution_matches_tight_ode(fouve, gaussian_prior):
    model = isde.analytic_score_model(gaussian_prior, fouve)
    rng = np.random.default_rng(np.random.SeedSequence([1234, 0]))
    x0 = reverse_init(fouve, 1.0, rng, shape=(8,))
    ref = reference_solution(fouve, gaussian_prior, 1.0, x0)
    out = rk45_adaptive(fouve, model, 1.0, fouve.t_rev, fouve.delta,
                        rtol=1e-10, atol=1e-10, x_init=x0)
    assert np.max(np.abs(out.final_state - ref)) <= 1e-7


def test_reference_solution_rejects_mixture(fouve):
    mix = MixturePrior((0.5, 0.5), (0.0, 1.0), (0.1, 0.1))
    with pytest.raises(ParameterError):
        reference_solution(fouve, mix, 1.0, 0.5)


def test_reference_solution_domain(fouve, gaussian_prior, delta_prior):
    # the start state follows the library's number rule: a string is not one
    with pytest.raises(ParameterError, match="x_start"):
        reference_solution(fouve, gaussian_prior, 1.0, "0.3")
    dead = dataclasses.replace(fouve, var=lambda t: 0.0 * np.asarray(t, dtype=float))
    with pytest.raises(SingularityError):
        reference_solution(dead, delta_prior, 1.0, 0.5)


# ------------------------------------------------------------------- config

def test_config_defaults(canonical_config_dict):
    cfg = config_from_dict(canonical_config_dict)
    assert cfg.seed == 1234
    assert cfg.n_trajectories == 256
    assert cfg.m_values == (5, 10, 20, 40, 80)
    assert cfg.budgets == (4, 10, 20, 40)
    assert cfg.kappas == (0.0, 0.05, 0.1, 0.125, 0.15)
    assert cfg.nfe_budget == 10
    assert cfg.n_times == 11
    assert cfg.solvers == ()
    assert cfg.sde.params.kind == isde.SdeKind.FOUVE


def test_config_solver_labels(canonical_config_dict):
    d = cfg_dict(canonical_config_dict, solvers=[
        {"kind": "isde", "p": 2},
        {"kind": "isde", "p": 2, "kappa": 0.1},
        {"kind": "euler_maruyama"},
        {"kind": "euler_maruyama", "kappa": 0.0, "label": "euler-ode"},
        {"kind": "pc", "corrector_stepsize": 0.5},
        {"kind": "rk2", "label": None},  # a null label takes the default, as m_nodes does
        {"kind": "rk45"},
    ])
    cfg = config_from_dict(d)
    labels = [e.label for e in cfg.solvers]
    assert labels == ["isde2", "isde2-k0.1", "eum-k1", "euler-ode", "pc-r0.5",
                      "rk2", "rk45"]
    # euler_maruyama defaults to kappa=1 unless the entry pins it
    assert cfg.solvers[2].spec.kappa == 1.0
    assert cfg.solvers[3].spec.kappa == 0.0


def test_null_solver_field_is_an_absent_key(canonical_config_dict):
    # null means "the default" for a field the kind reads, and sets nothing for one it
    # does not read
    for entry in ({"kind": "rk2"}, {"kind": "isde"}, {"kind": "rk45", "rtol": 1e-3}):
        nulls = dict(entry, **{k: None for k in ("p", "kappa", "corrector_stepsize", "rtol",
                                                 "atol") if k not in entry})
        assert (config_from_dict(cfg_dict(canonical_config_dict, solvers=[nulls])).solvers
                == config_from_dict(cfg_dict(canonical_config_dict, solvers=[entry])).solvers)


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(extra_key=1),
    lambda d: d.pop("seed"),
    lambda d: d.pop("prior"),
    lambda d: d.update(seed=True),
    lambda d: d.update(seed="1234"),
    lambda d: d.update(y="north"),
    lambda d: d.update(n_trajectories=0),
    lambda d: d.update(n_times=1),
    lambda d: d.update(nfe_budget=0),
    lambda d: d.update(m_values=[1, 5]),
    lambda d: d.update(budgets=[0]),
    lambda d: d.update(kappas=[-0.1]),
    lambda d: d.update(kappas="all"),
    lambda d: d["sde"].update(lambda0=3.0),
    lambda d: d["sde"].update(kind="banana"),
    lambda d: d["sde"].pop("gamma0"),
    lambda d: d["prior"].update(kind="cauchy"),
    lambda d: d["prior"].update(scale=2.0),
    lambda d: d.update(prior="gaussian"),
    lambda d: d.update(solvers=[{"p": 1}]),
    lambda d: d.update(solvers=[{"kind": "isde", "steps": 5}]),
    lambda d: d.update(solvers=[{"kind": "isde", "p": 7}]),
    lambda d: d.update(solvers=[{"kind": "isde", "m_nodes": 1}]),
    lambda d: d.update(solvers=[{"kind": "rk2", "label": "a"},
                                {"kind": "rk2", "label": "a"}]),
    lambda d: d.update(seed=-1),
    lambda d: d.update(solvers=5),
    lambda d: d.update(solvers=[{"kind": [1]}]),
    lambda d: d.update(n_trajectories=1),  # no sample standard deviation from one path
])
def test_config_rejects_bad_input(canonical_config_dict, mutate):
    d = copy.deepcopy(canonical_config_dict)
    mutate(d)
    with pytest.raises(ConfigError):
        config_from_dict(d)


# YAML-shaped values: scalars (nan and inf among the floats, ints of any size,
# strings such as "1.5" or "1e5") and small lists and mappings of them
_TEXT = st.text("ab_.-1e5", max_size=5)
_SCALAR = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _TEXT)
_VALUE = st.recursive(_SCALAR, lambda inner: st.lists(inner, max_size=3)
                      | st.dictionaries(_TEXT, inner, max_size=3), max_leaves=6)

# Valid configs, for _spoil to break at a few places
_REAL = st.floats(-0.5, 3.0)
_NONNEGATIVE = st.floats(0.0, 3.0)
_SDE = st.one_of(
    st.fixed_dictionaries({"kind": st.sampled_from(["fOUVE", "OUVE"]),
                           "sigma_min": st.floats(1e-3, 0.1), "sigma_max": st.floats(0.2, 3.0),
                           "gamma0": st.floats(0.5, 3.0)},
                          optional={"delta": st.floats(1e-3, 0.1)}),
    st.fixed_dictionaries({"kind": st.just("BBED"), "c": st.floats(0.01, 1.0),
                           "r": st.floats(1.5, 40.0)}),
    st.fixed_dictionaries({"kind": st.just("OT"), "sigma_max": st.floats(0.2, 3.0)}),
    st.just({"kind": "BrownianBridge"}))
_DIMENSION = {"dimension": st.integers(1, 3)}
_PRIOR = st.one_of(
    st.fixed_dictionaries({"kind": st.just("delta"), "x0": _REAL}, optional=_DIMENSION),
    st.fixed_dictionaries({"kind": st.just("gaussian"), "m0": _REAL, "s0": _NONNEGATIVE},
                          optional=_DIMENSION),
    st.fixed_dictionaries({"kind": st.just("mixture"), "weights": st.just([0.25, 0.75]),
                           "means": st.lists(_REAL, min_size=2, max_size=2),
                           "variances": st.lists(_NONNEGATIVE, min_size=2, max_size=2)},
                          optional=_DIMENSION))
_SOLVER_FIELDS = {"p": st.integers(1, 2), "kappa": _NONNEGATIVE,
                  "corrector_stepsize": _NONNEGATIVE, "rtol": st.floats(1e-8, 1.0),
                  "atol": st.floats(1e-8, 1.0)}
_SOLVER = st.one_of(*(  # each kind with only the fields it reads
    st.fixed_dictionaries({"kind": st.just(kind)},
                          optional={**{k: _SOLVER_FIELDS[k] for k in reads},
                                    "m_nodes": st.integers(2, 50)})
    for kind, reads in (("isde", ("p", "kappa")), ("euler_maruyama", ("kappa",)),
                        ("pc", ("corrector_stepsize",)), ("rk2", ()), ("rk45", ("rtol", "atol")))))
_CONFIG = st.fixed_dictionaries(
    {"sde": _SDE, "prior": _PRIOR, "y": _REAL, "seed": st.integers(0, 2 ** 64),
     "solvers": st.lists(_SOLVER, max_size=3, unique_by=lambda entry: entry["kind"])},
    optional={"n_trajectories": st.integers(1, 5000),
              "m_values": st.lists(st.integers(2, 50), min_size=1, max_size=3),
              "budgets": st.lists(st.integers(1, 50), min_size=1, max_size=3),
              "kappas": st.lists(_NONNEGATIVE, min_size=1, max_size=3),
              "nfe_budget": st.integers(1, 50), "n_times": st.integers(2, 50)})


def _places(node):
    """Every (container, key) pair inside ``node``, and (mapping, None) for a
    key a mapping does not have yet."""
    if isinstance(node, dict):
        yield node, None
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return
    for key, value in items:
        yield node, key
        yield from _places(value)


def _spoil(config, place: int, drop: bool, value) -> None:
    """At place number ``place`` (modulo their count) inside ``config``, drop
    the key or set it, or a new key, to ``value``."""
    places = list(_places(config))
    node, key = places[place % len(places)]
    if key is None:
        node[f"unknown{place}"] = value
    elif drop and isinstance(node, dict):
        del node[key]
    else:
        node[key] = value


_VALID = {"sde": {"kind": "OT", "sigma_max": 0.5}, "prior": {"kind": "delta", "x0": 0.5},
          "y": 1.0, "seed": 7}


@settings(max_examples=200, deadline=None)
@given(config=_CONFIG, spoils=st.lists(st.tuples(st.integers(0, 99), st.booleans(), _VALUE),
                                       max_size=3), root=_VALUE)
@example(config=dict(_VALID, solvers=5), spoils=[], root=None)
@example(config=dict(_VALID, solvers=[{"kind": [1]}]), spoils=[], root=None)
def test_property_config_loads_or_raises_a_config_error(config, spoils, root):
    # whatever a mapping holds, loading it gives a config or a typed error
    config = copy.deepcopy(config)  # st.just values are shared between examples
    for spoil in spoils:
        _spoil(config, *spoil)
    for candidate in (config, root):
        try:
            loaded = config_from_dict(candidate)
        except (ConfigError, ParameterError):
            continue
        assert isinstance(loaded, hz.ExperimentConfig)


def test_config_not_a_mapping():
    with pytest.raises(ConfigError):
        config_from_dict([1, 2, 3])


# ------------------------------------------------------------------ studies

def test_convergence_study_slopes(canonical_config_dict):
    d = cfg_dict(canonical_config_dict, m_values=[5, 10, 20, 40], solvers=[
        {"kind": "isde", "p": 1, "label": "isde1"},
        {"kind": "isde", "p": 2, "label": "isde2"},
        {"kind": "euler_maruyama", "kappa": 0.0, "label": "eum0"},
        {"kind": "rk2", "label": "rk2"},
    ])
    res = convergence_study(config_from_dict(d))
    assert res.columns == ("m_nodes", "h", "isde1", "isde2", "eum0", "rk2")
    assert len(res.rows) == 4
    assert 0.8 <= res.slopes["isde1"] <= 1.3
    assert 0.8 <= res.slopes["eum0"] <= 1.3
    assert res.slopes["isde2"] >= 1.7
    assert 1.8 <= res.slopes["rk2"] <= 2.3
    # errors shrink monotonically with the grid
    for col in range(2, 6):
        errs = [row[col] for row in res.rows]
        assert all(a > b for a, b in zip(errs, errs[1:]))


def test_convergence_rejects_adaptive_entries(canonical_config_dict):
    d = cfg_dict(canonical_config_dict, solvers=[{"kind": "rk45"}])
    with pytest.raises(ConfigError):
        convergence_study(config_from_dict(d))


def test_convergence_needs_solvers(canonical_config_dict):
    with pytest.raises(ConfigError):
        convergence_study(config_from_dict(canonical_config_dict))


def test_nfe_sweep_structure(canonical_config_dict):
    d = cfg_dict(canonical_config_dict, budgets=[4, 20], solvers=[
        {"kind": "euler_maruyama", "kappa": 0.0, "label": "eum0"},
        {"kind": "rk2", "label": "rk2"},
        {"kind": "rk45", "label": "rk45"},
    ])
    res = nfe_sweep(config_from_dict(d))
    assert res.columns == ("nfe", "eum0", "rk2", "rk45")
    assert len(res.rows) == 3  # two budgets + the adaptive row
    assert res.rows[0][0] == 4
    assert res.rows[0][3] == ""  # adaptive column blank on budget rows
    adaptive = res.rows[-1]
    assert adaptive[0] == res.stats["rk45_nfe"] > 40
    assert adaptive[1] == "" and adaptive[2] == ""
    assert adaptive[3] == res.stats["rk45_error"] > 0.0
    # fixed-step errors fall with the budget, so the log-log slope is negative
    assert res.slopes["eum0"] < 0.0
    assert res.slopes["rk2"] < 0.0


def test_no_slope_through_fewer_than_two_distinct_points(canonical_config_dict):
    solvers = [{"kind": "isde", "p": 2, "label": "isde2"}]
    res = nfe_sweep(config_from_dict(cfg_dict(canonical_config_dict, budgets=[10],
                                              solvers=solvers)))
    assert len(res.rows) == 1 and res.slopes == {}
    res = convergence_study(config_from_dict(cfg_dict(canonical_config_dict, m_values=[10, 10],
                                                      solvers=solvers)))
    assert len(res.rows) == 2 and res.slopes == {}
    res = nfe_sweep(config_from_dict(cfg_dict(canonical_config_dict, budgets=[10, 10, 20],
                                              solvers=solvers)))
    assert res.slopes["isde2"] < 0.0


def test_nfe_sweep_budget_mismatch_names_the_solver(canonical_config_dict):
    d = cfg_dict(canonical_config_dict, budgets=[5], solvers=[
        {"kind": "rk2", "label": "rk2"},
    ])
    with pytest.raises(ConfigError) as err:
        nfe_sweep(config_from_dict(d))
    assert "rk2" in str(err.value)


def test_kappa_sweep_variance_grows(canonical_config_dict):
    d = cfg_dict(canonical_config_dict, n_trajectories=2000,
                 kappas=[0.0, 0.1, 0.2], nfe_budget=10,
                 solvers=[{"kind": "isde", "p": 2, "label": "isde2"}])
    res = kappa_sweep(config_from_dict(d))
    assert res.columns == ("kappa", "isde2_mean_dev", "isde2_var", "isde2_var_rel_dev")
    variances = [row[2] for row in res.rows]
    assert variances[0] < variances[1] < variances[2]
    assert res.rows[0][1] <= 1e-12  # kappa=0 from an exact-moment start
    assert "warning" not in res.stats


def test_kappa_sweep_validation(canonical_config_dict):
    base = cfg_dict(canonical_config_dict,
                    solvers=[{"kind": "isde", "p": 2, "label": "isde2"}])
    with pytest.raises(ConfigError):
        kappa_sweep(config_from_dict(cfg_dict(base, solvers=[{"kind": "rk2"}])))
    with pytest.raises(ConfigError):
        kappa_sweep(config_from_dict(cfg_dict(base, n_trajectories=255)))
    with pytest.raises(ConfigError):
        kappa_sweep(config_from_dict(cfg_dict(base, nfe_budget=5)))


def test_kappa_sweep_small_ensemble_warns(canonical_config_dict):
    d = cfg_dict(canonical_config_dict, n_trajectories=50, kappas=[0.0, 0.1],
                 solvers=[{"kind": "isde", "p": 1, "label": "isde1"}])
    res = kappa_sweep(config_from_dict(d))
    assert "below 100" in res.stats["warning"]
    assert "below 100" in res.manifest["warning"]


def test_marginal_check_rows(canonical_config_dict):
    d = cfg_dict(canonical_config_dict, n_trajectories=2000,
                 solvers=[{"kind": "isde", "p": 2, "m_nodes": 501, "label": "isde2"}])
    res = marginal_check(config_from_dict(d))
    assert res.columns == ("row", "n", "mean", "mean_target", "var", "var_target",
                           "ks_stat", "ks_crit_1pct")
    assert [r[0] for r in res.rows] == ["forward", "isde2"]
    for row in res.rows:
        _, n, mean, m_t, var, v_t, ks, crit = row
        se = math.sqrt(v_t / n)
        assert abs(mean - m_t) <= 5 * se
        assert abs(var - v_t) / v_t <= 0.1
        assert ks < crit
    assert res.stats["ks_crit_1pct"] == pytest.approx(1.6276 / math.sqrt(2000))


def test_marginal_check_validation(canonical_config_dict):
    good = [{"kind": "isde", "p": 2, "m_nodes": 11, "label": "isde2"}]
    with pytest.raises(ConfigError):
        marginal_check(config_from_dict(cfg_dict(
            canonical_config_dict, n_trajectories=500, solvers=good)))
    with pytest.raises(ConfigError):
        marginal_check(config_from_dict(cfg_dict(
            canonical_config_dict, n_trajectories=1001, solvers=good)))
    missing = [{"kind": "isde", "p": 2, "label": "isde2"}]
    with pytest.raises(ConfigError):
        marginal_check(config_from_dict(cfg_dict(
            canonical_config_dict, n_trajectories=2000, solvers=missing)))


def test_ks_statistic_matches_scipy():
    rng = np.random.default_rng(11)
    for n in (1, 2, 7, 1000, 2000):
        for shift, scale in ((0.0, 1.0), (0.3, 1.0), (0.0, 1.5), (-2.0, 0.2)):
            mean, std = rng.normal(), rng.uniform(0.01, 3.0)
            x = rng.normal(mean + shift * std, scale * std, n)
            want = stats.kstest(x, "norm", args=(mean, std)).statistic
            assert hz._ks_statistic(x, mean, std) == pytest.approx(want, rel=1e-13, abs=0.0)


# One study per way of drawing from the seed: shared draws only (simulate-forward),
# shared start plus seeded solves (solve), matched starts (kappa-sweep), and
# shared draws plus matched starts (marginal-check).
SEEDED_STUDIES = [
    (simulate_forward, {}),
    (solve_study, {"solvers": [{"kind": "isde", "m_nodes": 5}]}),
    (kappa_sweep, {"solvers": [{"kind": "isde", "p": 2}]}),
    (marginal_check, {"n_trajectories": 1000, "solvers": [{"kind": "isde", "m_nodes": 5}]}),
]


@pytest.mark.parametrize("study, extra", SEEDED_STUDIES)
@pytest.mark.parametrize("seed", [-1, True, 1.5, "3"])
def test_studies_check_the_seed_of_a_config_built_directly(canonical_config_dict, study,
                                                           extra, seed):
    config = config_from_dict(cfg_dict(canonical_config_dict, **extra))
    with pytest.raises(ParameterError, match="'seed' must be an integer >= 0"):
        study(dataclasses.replace(config, seed=seed))


@pytest.mark.parametrize("study, extra", SEEDED_STUDIES)
@pytest.mark.parametrize("change, key", [
    ({"y": 1e300}, "'y'"),
    ({"y": math.nan}, "'y'"),
    ({"prior": DeltaPrior(-1e300)}, "'prior'"),
    ({"prior": isde.GaussianPrior(m0=0.5, s0=1e151)}, "'prior'"),
])
def test_studies_check_the_scale_of_a_config_built_directly(canonical_config_dict, study,
                                                            extra, change, key):
    # the check of config_from_dict, made before any draw can overflow: y by the
    # interval of the number rule, the prior by its moments
    config = config_from_dict(cfg_dict(canonical_config_dict, **extra))
    bound = {"'y'": r"in \[-1e\+150, 1e\+150\]", "'prior'": r"at most 1e\+150"}[key]
    with pytest.raises(isde.IsdeError, match=f"config key {key} .* {bound}"):
        study(dataclasses.replace(config, **change))


_RK2 = isde.SolverSpec("rk2")


@pytest.mark.parametrize("build, match", [
    (lambda c: dataclasses.replace(c, n_trajectories=1), "'n_trajectories' must"),
    (lambda c: dataclasses.replace(c, n_trajectories=2.5), "'n_trajectories' must"),
    (lambda c: dataclasses.replace(c, n_times=1), "'n_times' must"),
    (lambda c: dataclasses.replace(c, m_values=()), "'m_values' must"),
    (lambda c: dataclasses.replace(c, solvers=(hz.SolverEntry(_RK2, "a"),
                                               hz.SolverEntry(_RK2, "a"))),
     "duplicate solver labels: a"),
    (lambda c: hz.SolverEntry(_RK2, "isde,one"), "label must"),
    (lambda c: hz.SolverEntry(_RK2, "rk2", m_nodes=1), "m_nodes must"),
    # the blocks are checked for their types, so no raw AttributeError comes later
    (lambda c: dataclasses.replace(c, solvers=({"kind": "rk2"},)),
     "'solvers' must be a tuple of SolverEntry"),
    (lambda c: dataclasses.replace(c, prior="gaussian"), "'prior' must be a DeltaPrior"),
    (lambda c: dataclasses.replace(c, sde="BrownianBridge"), "'sde' must be a schedule"),
    (lambda c: hz.SolverEntry("rk2", "a"), "spec must be a SolverSpec"),
])
def test_study_inputs_built_directly_check_themselves(canonical_config_dict, build, match):
    # ExperimentConfig and SolverEntry check at construction what config_from_dict
    # would reject, naming the key
    with pytest.raises(ParameterError, match=match):
        build(config_from_dict(canonical_config_dict))


def test_simulate_forward_table(canonical_config_dict):
    d = cfg_dict(canonical_config_dict, n_times=5, n_trajectories=20_000,
                 sde={"kind": "BrownianBridge"})
    res = simulate_forward(config_from_dict(d))
    assert res.columns == ("t", "k", "gamma", "sigma", "g", "mean_mc", "std_mc")
    assert len(res.rows) == 5
    ts = [row[0] for row in res.rows]
    assert ts[0] == 0.0 and ts[-1] == pytest.approx(0.999)
    for row in res.rows:
        t, k, gamma, sigma, g, mean_mc, std_mc = row
        assert k == pytest.approx(t)  # bridge interpolation
        assert g == 1.0
        m, v = isde.marginal_moments(isde.GaussianPrior(0.5, 0.2),
                                     config_from_dict(d).sde, 1.0, t)
        assert mean_mc == pytest.approx(m, abs=5 * math.sqrt(v / 20_000) + 1e-12)
        assert std_mc == pytest.approx(math.sqrt(v), rel=0.05)


def test_solve_study_table(canonical_config_dict):
    d = cfg_dict(canonical_config_dict, solvers=[
        {"kind": "isde", "p": 2, "m_nodes": 41, "label": "isde2"},
        {"kind": "rk45", "label": "rk45"},
    ])
    res = solve_study(config_from_dict(d))
    assert res.columns == ("label", "m_nodes", "nfe", "mean_final", "std_final",
                           "err_vs_ref")
    by_label = {row[0]: row for row in res.rows}
    assert by_label["isde2"][1] == 41.0
    assert by_label["isde2"][2] == 80.0
    assert by_label["rk45"][1] == ""  # no fixed grid
    assert by_label["rk45"][5] < by_label["isde2"][5]


def test_solve_study_mixture_has_no_reference(canonical_config_dict):
    d = cfg_dict(canonical_config_dict,
                 prior={"kind": "mixture", "weights": [0.5, 0.5],
                        "means": [0.0, 1.0], "variances": [0.04, 0.04]},
                 solvers=[{"kind": "isde", "p": 2, "m_nodes": 21, "label": "isde2"}])
    res = solve_study(config_from_dict(d))
    assert res.rows[0][5] == ""


def test_verify_weights_agreement(canonical_config_dict):
    res = verify_weights(config_from_dict(canonical_config_dict))
    assert res.stats["max_rel_err"] <= 1e-10
    assert len(res.rows) == 10
    d = cfg_dict(canonical_config_dict, sde={"kind": "BBED", "c": 0.3, "r": 4.0})
    res_b = verify_weights(config_from_dict(d))
    assert res_b.stats["max_rel_err"] <= 1e-8


def test_studies_registry():
    assert set(STUDIES) == {"simulate-forward", "solve", "convergence", "nfe-sweep",
                            "kappa-sweep", "marginal-check", "verify-weights"}


# ------------------------------------------------------------------- output

def test_csv_format(canonical_config_dict):
    res = verify_weights(config_from_dict(canonical_config_dict))
    text = res.to_csv()
    lines = text.splitlines()
    assert lines[0] == ",".join(res.columns)
    assert len(lines) == 1 + len(res.rows)
    assert text.endswith("\n")
    # 12 significant digits, exactly as format(v, ".12g") renders them
    assert lines[1].split(",")[0] == format(res.rows[0][0], ".12g")


def test_reruns_are_byte_identical(canonical_config_dict):
    d = cfg_dict(canonical_config_dict, m_values=[5, 10],
                 solvers=[{"kind": "isde", "p": 2, "label": "isde2"}])
    a = convergence_study(config_from_dict(d))
    b = convergence_study(config_from_dict(copy.deepcopy(d)))
    assert a.to_csv() == b.to_csv()
    assert a.to_csv().encode() == b.to_csv().encode()


def test_write_outputs_csv_and_manifest(tmp_path, canonical_config_dict):
    d = cfg_dict(canonical_config_dict, n_times=4)
    res = verify_weights(config_from_dict(d))
    out = tmp_path / "w.csv"
    mpath = res.write(out)
    assert out.read_text().startswith("t_from,t_to,")
    manifest = json.loads(mpath.read_text())
    assert mpath.name == "w.manifest.json"
    assert manifest["study"] == "verify-weights"
    assert manifest["seed"] == 1234
    assert manifest["runtime_s"] >= 0.0
    assert manifest["stats"]["max_rel_err"] <= 1e-10
    # runtime lives in the manifest only; the table itself stays reproducible
    assert "runtime" not in res.to_csv()
