"""Every public scalar argument follows one rule (errors.real_parameter): a bool or a
string is not a number, and a number must be a finite real inside its argument's
interval, so NaN and +-inf are rejected everywhere, with a ParameterError that
names the argument."""

import ast
import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

import isde
from isde import SdeParams, make_sde, solvers
from isde import harness as hz
from isde.errors import ConfigError, ParameterError
from isde.quadrature import integrate, integrate_batch

_FOUVE = make_sde(SdeParams(kind="fOUVE", sigma_min=0.001, sigma_max=0.1, gamma0=2.0))
_G = isde.GaussianPrior(0.5, 0.2)
_GRID = isde.TimeGrid.for_sde(_FOUVE, 3)


def _zero():
    return isde.ScoreModel(lambda x, y, t: np.zeros(np.shape(x)), name="zero")


def _eps():
    return isde.eps_adapter(isde.analytic_score_model(_G, _FOUVE), _FOUVE)


# (the argument's name in the message, a call with the argument set to v, values that
# must pass: the closed ends of its interval, or a value inside it where no end is closed)
ARGUMENTS = [
    ("parameter 'sigma_min'",
     lambda v: SdeParams(kind="fOUVE", sigma_min=v, sigma_max=0.1, gamma0=2.0), [0.001]),
    ("parameter 'sigma_max'",
     lambda v: SdeParams(kind="fOUVE", sigma_min=0.001, sigma_max=v, gamma0=2.0), [0.1]),
    ("parameter 'gamma0'",
     lambda v: SdeParams(kind="OUVE", sigma_min=0.001, sigma_max=0.1, gamma0=v), [2.0]),
    ("parameter 'c'", lambda v: SdeParams(kind="BBED", c=v, r=4.0), [0.3]),
    ("parameter 'r'", lambda v: SdeParams(kind="BBED", c=0.3, r=v), [4.0]),
    ("parameter 'sigma_max'", lambda v: SdeParams(kind="OT", sigma_max=v), [0.1]),
    ("parameter 'delta'", lambda v: make_sde(SdeParams(kind="OT", sigma_max=0.1), delta=v),
     [0.5]),
    ("t", lambda v: make_sde(SdeParams(kind="BBED", c=0.3, r=4.0)).var(v), [0]),
    ("t", lambda v: isde.sample_forward(_FOUVE, 0.0, 1.0, v, np.random.default_rng(0)),
     [0, 1.0]),
    ("x0", lambda v: isde.DeltaPrior(v), [0.5]),
    ("m0", lambda v: isde.GaussianPrior(v, 0.2), [0.5]),
    ("s0", lambda v: isde.GaussianPrior(0.5, v), [0]),
    ("mixture weights", lambda v: isde.MixturePrior((v,), (0.0,), (1.0,)), [1.0]),
    ("mixture means", lambda v: isde.MixturePrior((1.0,), (v,), (1.0,)), [0.5]),
    ("mixture variances", lambda v: isde.MixturePrior((1.0,), (0.0,), (v,)), [0]),
    ("t", lambda v: isde.marginal_moments(_G, _FOUVE, 1.0, v), [0, 1.0]),
    ("t", lambda v: isde.analytic_score(_G, _FOUVE, 0.0, 1.0, v), [1.0]),
    ("t", lambda v: isde.analytic_score_model(_G, _FOUVE)(0.0, 1.0, v), [1.0]),
    ("t", lambda v: _eps()(0.0, 1.0, v), [1.0]),
    ("t", lambda v: isde.score_from_eps(_eps(), _FOUVE)(0.0, 1.0, v), [1.0]),
    ("y", lambda v: isde.dsm_loss_mc(isde.analytic_score_model(_G, _FOUVE), _G, _FOUVE, v, 1,
                                     np.random.default_rng(0)), [0.5]),
    ("kappa", lambda v: isde.SolverSpec("isde", kappa=v), [0]),
    ("corrector_stepsize", lambda v: isde.SolverSpec("pc", corrector_stepsize=v), [0]),
    ("rtol", lambda v: isde.SolverSpec("rk45", rtol=v), [1e-5]),
    ("atol", lambda v: isde.SolverSpec("rk45", atol=v), [1e-5]),
    ("kappa", lambda v: isde.isde_solve(_FOUVE, _zero(), 1.0, _GRID, kappa=v), [0]),
    ("kappa", lambda v: isde.euler_maruyama(_FOUVE, _zero(), 1.0, _GRID, kappa=v), [0]),
    ("corrector_stepsize",
     lambda v: isde.pc_sampler(_FOUVE, _zero(), 1.0, _GRID, corrector_stepsize=v), [0]),
    ("t_from", lambda v: isde.omega_weight(_FOUVE, 0, v, 0.0), [0]),
    ("t_to", lambda v: isde.omega_weight(_FOUVE, 1, 0.5, v), [0, 0.5]),
    ("t_from", lambda v: isde.ito_increment(_FOUVE, v, 0.0), [0]),
    ("t_to", lambda v: isde.ito_increment(_FOUVE, 0.5, v), [0, 0.5]),
    ("t_start", lambda v: isde.rk45_adaptive(_FOUVE, _zero(), 1.0, v, 0.5), [1.0]),
    ("t_end", lambda v: isde.rk45_adaptive(_FOUVE, _zero(), 1.0, 1.0, v), [0.5]),
    ("rtol", lambda v: isde.rk45_adaptive(_FOUVE, _zero(), 1.0, 1.0, 0.5, rtol=v), [1e-3]),
    ("atol", lambda v: isde.rk45_adaptive(_FOUVE, _zero(), 1.0, 1.0, 0.5, atol=v), [1e-3]),
    ("t_start", lambda v: isde.TimeGrid.uniform(v, 0.01, 3), [1.0]),
    ("t_end", lambda v: isde.TimeGrid.uniform(1.0, v, 3), [0.01]),
    ("a", lambda v: integrate(math.exp, v, 1.0), [0, 1.0]),
    ("b", lambda v: integrate(math.exp, 0.0, v), [0]),
    ("abs_tol", lambda v: integrate(math.exp, 0.0, 1.0, abs_tol=v), [0]),
    ("rel_tol", lambda v: integrate(math.exp, 0.0, 1.0, rel_tol=v), [0]),
    ("abs_tol", lambda v: integrate_batch(lambda x, rows: np.exp(x), [0.0], [1.0], abs_tol=v),
     [0]),
    ("rel_tol", lambda v: integrate_batch(lambda x, rows: np.exp(x), [0.0], [1.0], rel_tol=v),
     [0]),
    ("config key 'y'", lambda v: hz.ExperimentConfig(sde=_FOUVE, prior=_G, y=v, seed=0),
     [-1e150, 1e150]),
    ("config key 'kappas' entry",
     lambda v: hz.ExperimentConfig(sde=_FOUVE, prior=_G, y=1.0, seed=0, kappas=(v,)), [0]),
]


@pytest.mark.parametrize("name, call, ends", ARGUMENTS,
                         ids=[f"{i}-{row[0]}" for i, row in enumerate(ARGUMENTS)])
def test_every_scalar_argument_follows_the_number_rule(name, call, ends):
    for bad in (math.nan, math.inf, -math.inf, True, "1.0"):
        with pytest.raises(ParameterError, match=f"^{re.escape(name)} must"):
            call(bad)
    for good in ends:
        call(good)


def test_range_message_prints_the_interval():
    with pytest.raises(ParameterError,
                       match=re.escape("t must be a finite real in (0, 0.999], got nan")):
        isde.analytic_score(_G, make_sde(SdeParams(kind="BrownianBridge")), 0.0, 1.0, math.nan)
    with pytest.raises(ParameterError, match=re.escape(
            "parameter 'sigma_max' must be a finite real in (0.1, inf), got 0.1")):
        SdeParams(kind="fOUVE", sigma_min=0.1, sigma_max=0.1, gamma0=2.0)


# Inputs that a comparison NaN passes, or that reached the first model call, were
# taken as valid: each now raises a ParameterError naming its argument.
GAPS = [
    ("t_from", lambda model: isde.omega_weight(_FOUVE, 0, math.nan, 0.5)),
    ("t_from", lambda model: isde.ito_increment(_FOUVE, math.nan, 0.5)),
    ("t", lambda model: isde.marginal_moments(_G, _FOUVE, 1.0, math.nan)),
    ("t", lambda model: isde.sample_forward(_FOUVE, 0.0, 1.0, math.nan,
                                            np.random.default_rng(0))),
    ("rtol", lambda model: isde.SolverSpec("rk45", rtol=math.inf)),
    ("abs_tol", lambda model: integrate(math.exp, 0.0, 1.0, abs_tol=math.nan)),
    ("y", lambda model: isde.isde_solve(_FOUVE, model, math.nan, _GRID)),
    ("x_init", lambda model: isde.isde_solve(_FOUVE, model, 1.0, _GRID,
                                             x_init=[0.0, math.nan])),
    ("y", lambda model: isde.rk45_adaptive(_FOUVE, model, math.nan, 1.0, 0.01)),
    ("y", lambda model: isde.run_solver(_FOUVE, model, math.inf, _GRID,
                                        isde.SolverSpec("pc"), x_init=np.zeros(2))),
    ("y", lambda model: isde.reverse_init(_FOUVE, math.nan, np.random.default_rng(0), (2,))),
]


@pytest.mark.parametrize("name, call", GAPS, ids=[f"{i}-{row[0]}" for i, row in enumerate(GAPS)])
def test_non_finite_inputs_are_parameter_errors(name, call):
    # a non-finite y or start state is an input error, raised before the first model
    # call, not a divergence of the solve
    model = _zero()
    with pytest.raises(ParameterError, match=f"^{name} must"):
        call(model)
    assert model.nfe == 0


@pytest.mark.parametrize("kind, reads", [("isde", ("p", "kappa")),
                                         ("euler_maruyama", ("kappa",)),
                                         ("pc", ("corrector_stepsize",)),
                                         ("rk2", ()), ("rk45", ("rtol", "atol"))])
def test_solver_entries_set_only_the_fields_their_kind_reads(canonical_config_dict, kind, reads):
    fields = {"p": 2, "kappa": 0.5, "corrector_stepsize": 0.1, "rtol": 3.0, "atol": 1e-3}
    base = {"kind": kind, "label": "s", "m_nodes": 5}
    config = hz.config_from_dict(dict(canonical_config_dict,
                                      solvers=[dict(base, **{k: fields[k] for k in reads})]))
    assert [getattr(config.solvers[0].spec, k) for k in reads] == [fields[k] for k in reads]
    for key in set(fields) - set(reads):
        with pytest.raises(ConfigError, match=f"does not read: {key}$"):
            hz.config_from_dict(dict(canonical_config_dict,
                                     solvers=[dict(base, **{key: fields[key]})]))
    # a spec built directly rejects every field its kind does not read, naming them all
    unread = {k: v for k, v in fields.items() if k not in reads}
    with pytest.raises(ParameterError, match=f"does not read: {', '.join(unread)}$"):
        isde.SolverSpec(kind, **unread)


def test_no_solver_field_is_checked_outside_its_spec():
    # SolverSpec.__post_init__ states each field's interval, once: no call of the number
    # rules in the package names a spec field literally
    fields = {f.name for f in dataclasses.fields(isde.SolverSpec)} - {"kind"}
    named = []
    for path in sorted(Path(isde.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("real_parameter", "integer_parameter")
                    and node.args and isinstance(node.args[0], ast.Constant)):
                named.append((node.args[0].value, f"{path.name}:{node.lineno}"))
    assert {"seed", "t", "n_nodes"} <= {name for name, _ in named}  # the scan sees the calls
    assert [where for name, where in named if name in fields] == []


# (kind, field, a value its interval rejects): every field takes the number rule's bad
# values, p also 3 and 2.0 (not integers in [1, 2]), rtol and atol also 0
FIELD_CASES = [(kind, name, bad) for kind, reads in solvers._KIND_FIELDS.items()
               for name in reads
               for bad in (True, "1", math.nan, -1) + {"p": (3, 2.0), "rtol": (0,),
                                                      "atol": (0,)}.get(name, ())]


@pytest.mark.parametrize("kind, name, bad", FIELD_CASES,
                         ids=[f"{k}-{n}-{b!r}" for k, n, b in FIELD_CASES])
def test_a_solver_rejects_a_bad_field_as_its_spec_does(kind, name, bad):
    with pytest.raises(ParameterError, match=f"^{name} must") as spec_error:
        isde.SolverSpec(kind, **{name: bad})
    if name == "p":
        assert str(spec_error.value) == f"p must be an integer in [1, 2], got {bad!r}"
    solver_name, calls = solvers._SOLVERS[kind]
    span = (_GRID,) if calls is not None else (1.0, 0.5)
    model = _zero()
    with pytest.raises(ParameterError) as solver_error:
        getattr(isde, solver_name)(_FOUVE, model, 1.0, *span, **{name: bad})
    assert str(solver_error.value) == str(spec_error.value)
    assert model.nfe == 0


# A schedule kind's fields, each with a valid value
SDE_READS = {"fOUVE": {"sigma_min": 0.001, "sigma_max": 0.1, "gamma0": 2.0},
             "OUVE": {"sigma_min": 0.001, "sigma_max": 0.1, "gamma0": 2.0},
             "BBED": {"c": 0.3, "r": 4.0}, "OT": {"sigma_max": 0.1}, "BrownianBridge": {}}
SDE_UNREAD = [(kind, name) for kind, reads in SDE_READS.items()
              for name in ("sigma_min", "sigma_max", "gamma0", "c", "r") if name not in reads]


def test_sde_fields_are_the_ones_each_kind_reads():
    assert len(SDE_UNREAD) == 16
    for kind, reads in SDE_READS.items():
        params = SdeParams(kind=kind, **reads)
        assert {k: v for k, v in vars(params).items() if v is not None and k != "kind"} == reads


@pytest.mark.parametrize("kind, name", SDE_UNREAD, ids=[f"{k}-{n}" for k, n in SDE_UNREAD])
def test_sde_blocks_set_only_the_fields_their_kind_reads(canonical_config_dict, kind, name):
    block = dict(SDE_READS[kind], **{name: 5.0})
    with pytest.raises(ParameterError, match=f"^SDE kind '{kind}' does not read: {name}$"):
        SdeParams(kind=kind, **block)
    with pytest.raises(ConfigError, match=f"^invalid sde block: .* does not read: {name}$"):
        hz.config_from_dict(dict(canonical_config_dict, sde=dict(block, kind=kind)))


def test_sde_params_name_every_unread_field():
    with pytest.raises(ParameterError, match="^SDE kind 'OT' does not read: gamma0, c$"):
        SdeParams(kind="OT", sigma_max=0.1, c=5.0, gamma0=2.0)
