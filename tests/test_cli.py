import copy
import dataclasses
import hashlib
import importlib
import inspect
import importlib.metadata as md
import json
import math
import os
import pkgutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

import isde
from isde import STUDIES, cli
from isde.errors import DivergenceError

REPO = Path(__file__).resolve().parents[1]
CONFIG_DIR = REPO / "configs"
PYPROJECT = REPO / "pyproject.toml"
# SHA-256 of every shipped config's CSV per CLI seed (bench/golden.json)
GOLDEN = REPO / "bench" / "golden.json"
GOLDEN_SEED = 1234


def write_cfg(tmp_path, data, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return path


_SCIPY_PROBE = """
import contextlib, io, sys
from pathlib import Path

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import isde, isde.cli
print(isde.__file__)
print(scipy_modules())
sde = isde.make_sde(isde.SdeParams(kind="BBED", c=0.3, r=4.0))
model = isde.analytic_score_model(isde.GaussianPrior(m0=0.5, s0=0.2), sde)
isde.isde_solve(sde, model, 1.0, isde.TimeGrid.for_sde(sde, 11), p=2, kappa=0.5)
configs, out = Path(sys.argv[1]), Path(sys.argv[2])
for study in sorted(isde.STUDIES):
    with contextlib.redirect_stdout(io.StringIO()):
        assert isde.cli.main([study, "--config", str(configs / f"{study}.yaml"),
                              "--out", str(out / f"{study}.csv")]) == 0, study
print(scipy_modules())
"""


def test_import_loads_no_scipy(tmp_path):
    # scipy is a test dependency only: neither importing the package, nor a BBED
    # schedule and solve, nor any shipped study may load it
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, str(CONFIG_DIR), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300, check=True)
    where, after_import, after_runs = proc.stdout.splitlines()
    assert Path(where).resolve().parent == Path(cli.__file__).resolve().parent
    assert after_import == "[]"
    assert after_runs == "[]"
    assert {p.name for p in tmp_path.glob("*.csv")} == {f"{s}.csv" for s in STUDIES}


# the package's public names; isde.__all__ is built from the submodules' lists
PUBLIC_NAMES = {
    "ConfigError", "DivergenceError", "IsdeError", "ParameterError", "QuadratureDomainError",
    "QuadratureError", "QuadratureToleranceError", "ShapeError", "SingularityError",
    "StiffnessError",
    "QuadResult", "integrate",
    "InterpolatingSde", "SdeKind", "SdeParams", "make_sde", "mean_evolution", "sample_forward",
    "DeltaPrior", "GaussianPrior", "MixturePrior", "ScoreModel", "analytic_score",
    "analytic_score_model", "dsm_loss_mc", "eps_adapter", "eps_loss_mc", "marginal_moments",
    "score_from_eps",
    "SolveOutput", "SolverSpec", "TimeGrid", "euler_maruyama", "isde_solve", "ito_increment",
    "nfe_per_step", "omega_weight", "pc_sampler", "reverse_init",
    "rk2_midpoint", "rk45_adaptive", "run_solver",
    "ExperimentConfig", "SolverEntry", "StudyResult", "STUDIES", "config_from_dict",
    "convergence_study", "kappa_sweep", "marginal_check", "nfe_sweep", "reference_solution",
    "simulate_forward", "solve_study", "verify_weights",
    "__version__",
}


# the parameters of the solver, reference and schedule entry points, and the fields
# of the records they take and give: a knob comes back only with a change here
SIGNATURES = {
    "isde_solve": ("sde", "model", "y", "grid", "p", "kappa", "seed", "x_init"),
    "euler_maruyama": ("sde", "model", "y", "grid", "kappa", "seed", "x_init"),
    "pc_sampler": ("sde", "model", "y", "grid", "corrector_stepsize", "seed", "x_init"),
    "rk2_midpoint": ("sde", "model", "y", "grid", "seed", "x_init"),
    "rk45_adaptive": ("sde", "model", "y", "t_start", "t_end", "rtol", "atol", "seed", "x_init"),
    "run_solver": ("sde", "model", "y", "grid", "spec", "seed", "x_init"),
    "reference_solution": ("sde", "prior", "y", "x_start"),
    "make_sde": ("params", "delta"),
}
FIELDS = {
    "SolveOutput": ("final_state", "nfe", "seed"),
    "SolverEntry": ("spec", "label", "m_nodes"),
    "ExperimentConfig": ("sde", "prior", "y", "seed", "solvers", "n_trajectories", "m_values",
                         "budgets", "kappas", "nfe_budget", "n_times"),
}


def test_entry_point_parameters_and_record_fields():
    for name, params in SIGNATURES.items():
        assert tuple(inspect.signature(getattr(isde, name)).parameters) == params, name
    for name, names in FIELDS.items():
        assert tuple(f.name for f in dataclasses.fields(getattr(isde, name))) == names, name
    # a study input cannot change after its construction checks
    assert isde.ExperimentConfig.__dataclass_params__.frozen


def test_every_export_resolves():
    # a deleted helper must not leave its name behind in an __all__
    modules = [isde] + [importlib.import_module(f"isde.{info.name}")
                        for info in pkgutil.iter_modules(isde.__path__)]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists {name!r}"
    # the public API is exactly these names, each listed once
    assert len(isde.__all__) == len(set(isde.__all__))
    assert set(isde.__all__) == PUBLIC_NAMES


def test_verify_weights_end_to_end(tmp_path, canonical_config_dict, capsys):
    cfg = write_cfg(tmp_path, canonical_config_dict)
    out = tmp_path / "weights.csv"
    rc = cli.main(["verify-weights", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    assert out.read_text().startswith("t_from,t_to,")
    manifest = json.loads((tmp_path / "weights.manifest.json").read_text())
    assert manifest["study"] == "verify-weights"
    assert manifest["stats"]["max_rel_err"] <= 1e-10
    captured = capsys.readouterr()
    assert "verify-weights: wrote" in captured.out
    assert "max_rel_err" in captured.out


def test_shipped_configs_cover_every_study():
    assert {p.stem for p in CONFIG_DIR.glob("*.yaml")} == set(STUDIES)


@pytest.mark.parametrize("study", sorted(STUDIES))
def test_shipped_config_runs(tmp_path, study):
    cfg = CONFIG_DIR / f"{study}.yaml"
    out = tmp_path / f"{study}.csv"
    rc = cli.main([study, "--config", str(cfg), "--out", str(out),
                   "--seed", str(GOLDEN_SEED)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) >= 2  # header plus at least one row
    manifest = json.loads(out.with_suffix(".manifest.json").read_text())
    assert manifest["study"] == study
    # the shipped studies reproduce the recorded CSVs byte for byte
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["csv"][str(GOLDEN_SEED)][study]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == golden["sha256"], \
        f"{study} CSV differs from bench/golden.json"


def test_seed_override_changes_output(tmp_path):
    cfg = CONFIG_DIR / "simulate-forward.yaml"
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert cli.main(["simulate-forward", "--config", str(cfg),
                     "--out", str(out_a)]) == 0
    assert cli.main(["simulate-forward", "--config", str(cfg),
                     "--out", str(out_b), "--seed", "999"]) == 0
    assert out_a.read_text() != out_b.read_text()
    assert json.loads((tmp_path / "b.manifest.json").read_text())["seed"] == 999


def test_same_seed_reproduces_bytes(tmp_path):
    cfg = CONFIG_DIR / "verify-weights.yaml"
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    cli.main(["verify-weights", "--config", str(cfg), "--out", str(out_a)])
    cli.main(["verify-weights", "--config", str(cfg), "--out", str(out_b)])
    assert out_a.read_bytes() == out_b.read_bytes()


def test_missing_config_file_exits_2(tmp_path, capsys):
    rc = cli.main(["solve", "--config", str(tmp_path / "nope.yaml"),
                   "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "cannot read config" in capsys.readouterr().err


def test_invalid_yaml_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("sde: [unclosed\n", encoding="utf-8")
    rc = cli.main(["solve", "--config", str(bad), "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "not valid YAML" in capsys.readouterr().err


def test_non_utf8_config_exits_2(tmp_path, capsys):
    # a UTF-16 file starts with the bytes ff fe, which no UTF-8 text does
    bad = tmp_path / "utf16.yaml"
    bad.write_bytes("seed: 1\n".encode("utf-16"))
    rc = cli.main(["solve", "--config", str(bad), "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "is not UTF-8 text" in capsys.readouterr().err


def test_shipped_configs_parse_alike_with_libyaml_and_pure_python():
    if not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML was built without libyaml")
    for path in sorted(CONFIG_DIR.glob("*.yaml")):
        text = path.read_text(encoding="utf-8")
        fast, pure = (yaml.load(text, Loader=loader)
                      for loader in (yaml.CSafeLoader, yaml.SafeLoader))
        # repr tells 1 from 1.0 and True, and a string '1e-5' from a float
        assert fast == pure and repr(fast) == repr(pure), path.name
    assert yaml.load("rtol: 1e-5", Loader=yaml.CSafeLoader) == {"rtol": "1e-5"}


@pytest.mark.parametrize("content", [
    b"sde:\n\tkind: fOUVE\n",  # tab indentation
    b"sde: \"unclosed\n",
    b"seed: 1\x07\n",  # a control character
    b"seed: *nowhere\n",  # an undefined alias
    b"- 1\n- 2\n",  # a list at the root
    b"",
    b"label: caf\xe9\n",  # Latin-1, not UTF-8
    b"seed: 1\n\xef\xbb\xbfy: 2\n",  # a byte-order mark inside: libyaml rejects it, the
    # pure-Python loader reads a key "\ufeffy", which the config check rejects
], ids=["tab", "unclosed-quote", "control-char", "undefined-alias", "list-root", "empty",
        "latin1", "inner-bom"])
def test_pure_python_loader_gives_the_same_exit_status(tmp_path, monkeypatch, capsys, content):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_bytes(content)
    argv = ["solve", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]
    with_libyaml = cli.main(argv)
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    assert cli.main(argv) == with_libyaml == 2
    assert not (tmp_path / "o.csv").exists()
    assert "Traceback" not in capsys.readouterr().err


def test_studies_back_to_back_write_their_goldens(tmp_path, capsys):
    # one process with warm plan caches and memos: every study, run twice in a
    # row, still writes its recorded bytes
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["csv"][str(GOLDEN_SEED)]
    for _ in range(2):
        for study in sorted(STUDIES):
            out = tmp_path / f"{study}.csv"
            assert cli.main([study, "--config", str(CONFIG_DIR / f"{study}.yaml"),
                             "--out", str(out), "--seed", str(GOLDEN_SEED)]) == 0, study
            assert hashlib.sha256(out.read_bytes()).hexdigest() == golden[study]["sha256"], study


def test_config_error_exits_2(tmp_path, canonical_config_dict, capsys):
    data = dict(canonical_config_dict, typo_key=1)
    cfg = write_cfg(tmp_path, data)
    rc = cli.main(["verify-weights", "--config", str(cfg),
                   "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "typo_key" in capsys.readouterr().err


def test_sde_field_its_kind_does_not_read_exits_2(tmp_path, canonical_config_dict, capsys):
    # OT reads sigma_max only: c and gamma0 would be echoed as if they shaped the schedule
    data = dict(canonical_config_dict,
                sde={"kind": "OT", "sigma_max": 0.1, "c": 5.0, "gamma0": 2.0})
    rc = cli.main(["simulate-forward", "--config", str(write_cfg(tmp_path, data)),
                   "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "invalid sde block: SDE kind 'OT' does not read: gamma0, c" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("path, value", [
    (("sde", "sigma_min"), "abc"),
    (("sde", "sigma_min"), math.nan),
    (("sde", "delta"), "abc"),
    (("sde", "delta"), math.nan),
    (("prior", "m0"), "abc"),
    (("prior", "m0"), math.nan),
    (("solvers", 0, "kappa"), "abc"),
    (("solvers", 0, "kappa"), math.nan),
    (("solvers", 0, "m_nodes"), "abc"),
    (("solvers", 0, "m_nodes"), math.nan),
    (("y",), "abc"),
    (("y",), math.nan),
    (("m_values",), [5, math.inf]),
    (("m_values",), [2.7, 5.9]),
    (("m_values",), [5.0, 10]),
    (("m_values",), [True, 5]),
    (("m_values",), ["5", 10]),
    (("m_values",), "5"),
    (("budgets",), [4.5, 10]),
    (("budgets",), [False]),
    (("budgets",), ["abc"]),
    (("solvers", 0, "p"), True),
    (("solvers", 0, "p"), 2.0),
    (("y",), True),
    (("kappas",), [True]),
    (("sde", "sigma_min"), True),
    (("sde", "gamma0"), True),  # gamma0 = 1 would be valid, so only the bool check rejects it
    (("seed",), -1),
    (("prior", "dimension"), 2.7),
    (("prior", "dimension"), "3"),
    (("y",), "1.5"),
    (("kappas",), ["0.5"]),
    (("solvers", 0, "kappa"), "0.25"),
    (("solvers", 0, "kappa"), "1e-5"),  # YAML reads an unquoted 1e-5 as a string
    (("sde", "delta"), 1.0),  # at fOUVE's reverse start t_rev = 1: no step left
    (("solvers", 0, "label"), "isde,one"),  # not a number: a comma would split its CSV cell
])
def test_malformed_number_exits_2(tmp_path, canonical_config_dict, capsys, path, value):
    data = copy.deepcopy(canonical_config_dict)
    data["solvers"] = [{"kind": "isde", "p": 2, "kappa": 0.1, "m_nodes": 5}]
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    cfg = write_cfg(tmp_path, data)
    rc = cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and str(path[-1]) in err
    assert not (tmp_path / "o.csv").exists()


def test_negative_seed_option_exits_2(tmp_path, capsys):
    rc = cli.main(["simulate-forward", "--config", str(CONFIG_DIR / "simulate-forward.yaml"),
                   "--out", str(tmp_path / "o.csv"), "--seed", "-1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and "seed" in err
    assert not (tmp_path / "o.csv").exists()


def test_solve_manifest_echoes_the_resolved_config(tmp_path):
    # the manifest holds the defaults the YAML leaves out: delta, the prior
    # dimension, and each solver's kind, the spec fields that kind reads, its
    # label and its grid size
    out = tmp_path / "solve.csv"
    assert cli.main(["solve", "--config", str(CONFIG_DIR / "solve.yaml"),
                     "--out", str(out)]) == 0
    manifest = json.loads(out.with_suffix(".manifest.json").read_text())
    assert manifest["sde"] == {"kind": "fOUVE", "sigma_min": 0.001, "sigma_max": 0.1,
                               "gamma0": 2.0, "delta": 0.01}
    assert manifest["prior"] == {"kind": "gaussian", "m0": 0.5, "s0": 0.2, "dimension": 1}
    want = [
        ("isde", {"p": 1, "kappa": 0.0}, "isde1", 41),
        ("isde", {"p": 2, "kappa": 0.0}, "isde2", 21),
        ("isde", {"p": 2, "kappa": 0.1}, "isde2-k0.1", 21),
        ("euler_maruyama", {"kappa": 0.0}, "eum0", 41),
        ("pc", {"corrector_stepsize": 0.1}, "pc-r0.1", 21),
        ("rk2", {}, "rk2", 21),
        ("rk45", {"rtol": 1e-6, "atol": 1e-9}, "rk45", None),
    ]
    assert manifest["solvers"] == [{"kind": kind, **spec, "label": label, "m_nodes": m_nodes}
                                   for kind, spec, label, m_nodes in want]
    assert (manifest["study"], manifest["y"], manifest["seed"],
            manifest["n_trajectories"]) == ("solve", 1.0, 1234, 256)


def test_unwritable_output_exits_2(tmp_path, canonical_config_dict, capsys):
    cfg = write_cfg(tmp_path, canonical_config_dict)
    rc = cli.main(["verify-weights", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert "cannot write" in capsys.readouterr().err


def test_runtime_failure_exits_1(tmp_path, canonical_config_dict, monkeypatch, capsys):
    def boom(config):
        raise DivergenceError("nonfinite state at step 3")

    monkeypatch.setitem(cli.STUDIES, "verify-weights", boom)
    cfg = write_cfg(tmp_path, canonical_config_dict)
    rc = cli.main(["verify-weights", "--config", str(cfg),
                   "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    assert "DivergenceError" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_usage_errors_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["not-a-study", "--config", "x", "--out", "y"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--out", str(tmp_path / "o.csv")])  # --config required
    assert exc.value.code == 2


def test_help_describes_every_study(capsys):
    # each study is listed with the first paragraph of its function's docstring
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for name, fn in STUDIES.items():
        summary = " ".join(inspect.getdoc(fn).split("\n\n")[0].split())
        assert f"{name} {summary}" in text, name


def test_options_may_precede_the_study(tmp_path):
    cfg = str(CONFIG_DIR / "simulate-forward.yaml")
    before, after = tmp_path / "before.csv", tmp_path / "after.csv"
    assert cli.main(["--config", cfg, "--out", str(before), "--seed", "7",
                     "simulate-forward"]) == 0
    assert cli.main(["simulate-forward", "--config", cfg, "--out", str(after),
                     "--seed", "7"]) == 0
    assert before.read_bytes() == after.read_bytes()


def test_console_script_is_registered():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    assert project["scripts"]["isde"] == "isde.cli:main"
    ep = md.EntryPoint(name="isde", value=project["scripts"]["isde"],
                       group="console_scripts")
    assert ep.load() is cli.main


def _isde_installed():
    try:
        md.distribution("isde")
    except md.PackageNotFoundError:
        return False
    return True


@pytest.mark.skipif(not _isde_installed(), reason="no installed isde distribution")
def test_installed_console_script_matches_pyproject():
    matches = [ep for ep in md.entry_points(group="console_scripts")
               if ep.name == "isde"]
    assert matches and matches[0].value == "isde.cli:main"


def test_solver_entry_key_its_kind_ignores_exits_2(tmp_path, capsys):
    # an rk2 entry that sets kappa and rtol would run the kappa = 0 ODE and record
    # both in its manifest; it is rejected, naming the keys
    data = yaml.safe_load((CONFIG_DIR / "solve.yaml").read_text(encoding="utf-8"))
    data["solvers"] = [{"kind": "rk2", "kappa": 0.5, "rtol": 3.0, "m_nodes": 21}]
    rc = cli.main(["solve", "--config", str(write_cfg(tmp_path, data)),
                   "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "kappa, rtol" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


# ------------------------------------------------- spoiled configs end in an exit status

@pytest.mark.parametrize("study, path, value, status", [
    ("solve", ("sde", "gamma0"), 1.0e300, 2),        # fOUVE step weights overflow
    ("solve", ("sde", "sigma_min"), 1.0e-200, 2),
    ("kappa-sweep", ("prior", "s0"), 1.0e300, 2),    # the prior variance overflows
    ("solve", ("prior",), {"kind": "mixture", "weights": [0.5, 0.5], "means": [1.0e300, 0.0],
                           "variances": [0.1, 0.1]}, 2),
    ("simulate-forward", ("n_trajectories",), 1, 2),  # no sample standard deviation
    ("solve", ("n_trajectories",), 1, 2),
    ("kappa-sweep", ("kappas",), [0.1, 1.0e300], 1),  # kappa^2 overflows inside the solver
    ("simulate-forward", ("y",), 1.0e300, 2),          # squares of the states would overflow
    ("marginal-check", ("solvers", 0, "kappa"), 2527.0, 1),  # the state overflows
    ("simulate-forward", ("prior", "m0"), 1.0e300, 2),
    ("solve", ("sde",), {"kind": "OT", "sigma_max": 1.0e200}, 2),  # g(t_rev)^2 overflows
])
def test_overflowing_or_degenerate_values_exit_with_an_error(tmp_path, capsys, study, path,
                                                             value, status):
    data = yaml.safe_load((CONFIG_DIR / f"{study}.yaml").read_text(encoding="utf-8"))
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    rc = cli.main([study, "--config", str(write_cfg(tmp_path, data)),
                   "--out", str(tmp_path / "o.csv")])
    assert rc == status
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if status == 2:  # a rejected config names the key
        assert path[0] in err
    assert not (tmp_path / "o.csv").exists()


# Spoils for the shipped configs. A spoil sets a number in place of a number
# ("number"), sets any value or adds a key ("set"), or drops a key ("drop"). A
# size field (grid nodes, paths, budgets, the prior's dimension) takes a small
# integer or a junk value, so no run allocates much.
_SIZE_FIELDS = {"n_trajectories", "n_times", "m_nodes", "nfe_budget", "m_values", "budgets",
                "dimension"}
_NAMES = st.sampled_from(["fOUVE", "OUVE", "BBED", "OT", "BrownianBridge", "delta",
                          "gaussian", "mixture", "isde", "euler_maruyama", "pc", "rk2", "rk45"])
_JUNK = st.one_of(st.none(), st.booleans(), st.text("ab1e.-", max_size=4))
_NUMBER = st.one_of(st.floats(0.0, 4.0), st.floats(1e-300, 1e300), st.floats(), st.integers(),
                    st.sampled_from([math.nan, math.inf, -math.inf]))
_SIZE = st.integers(-1, 64)
_SPOIL = st.tuples(
    st.integers(0, 199),                                  # the place, modulo their count
    st.sampled_from(["number", "number", "set", "drop"]),
    st.sampled_from(sorted(_SIZE_FIELDS | {"delta", "p", "kappa", "rtol", "atol",
                                           "corrector_stepsize", "label", "c", "r", "x0",
                                           "weights", "bogus"})),  # a key to add
    st.one_of(_NUMBER, _NAMES, _JUNK, st.lists(_NUMBER, min_size=1, max_size=3)),
    _NUMBER,
    st.one_of(_SIZE, _JUNK, st.lists(_SIZE, min_size=1, max_size=3)))  # for a size field


def _places(node, field=None):
    """(container, key, field name) of every value inside ``node``, and
    (mapping, None, None) for a key the mapping does not have yet."""
    if isinstance(node, dict):
        yield node, None, None
        items = [(key, value, key) for key, value in node.items()]
    elif isinstance(node, list):
        items = [(i, value, field) for i, value in enumerate(node)]
    else:
        return
    for key, value, name in items:
        yield node, key, name
        yield from _places(value, name)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _spoil(config, place, how, new_key, value, number, size):
    """Spoil ``config`` at place number ``place``, or at the path ``place``."""
    if isinstance(place, tuple):
        node = config
        for key in place[:-1]:
            node = node[key]
        node, key, name = node, place[-1], place[-1]
    else:
        places = list(_places(config))
        if how == "number":
            places = [p for p in places if p[1] is not None and _is_number(p[0][p[1]])]
            value = number
        node, key, name = places[place % len(places)]
    if key is None:
        key, name = new_key, new_key
    if how == "drop" and isinstance(node, dict) and key in node:
        del node[key]
    else:
        node[key] = size if name in _SIZE_FIELDS else value


@settings(max_examples=150, deadline=None)
@given(study=st.sampled_from(sorted(STUDIES)), spoils=st.lists(_SPOIL, min_size=1, max_size=3))
@example(study="solve", spoils=[(("sde", "gamma0"), "set", "", 1.0e300, 0, 0)])
@example(study="verify-weights", spoils=[(("sde", "sigma_min"), "set", "", 1.0e-200, 0, 0)])
@example(study="kappa-sweep", spoils=[(("prior", "s0"), "set", "", 1.0e300, 0, 0)])
@example(study="solve", spoils=[(("prior",), "set", "", {
    "kind": "mixture", "weights": [0.5, 0.5], "means": [1.0e300, 0.0],
    "variances": [0.1, 0.1]}, 0, 0)])
@example(study="simulate-forward", spoils=[(("n_trajectories",), "set", "", 0, 0, 1)])
@example(study="solve", spoils=[(("n_trajectories",), "set", "", 0, 0, 1)])
@example(study="nfe-sweep", spoils=[(("budgets",), "set", "", 0, 0, [10])])
@example(study="convergence", spoils=[(("m_values",), "set", "", 0, 0, [10, 10])])
@example(study="kappa-sweep", spoils=[(("kappas",), "set", "", [0.1, 1.0e300], 0, 0)])
@example(study="simulate-forward", spoils=[(("y",), "set", "", 1.0e300, 0, 0)])
@example(study="solve", spoils=[(("y",), "set", "", math.nan, 0, 0)])
@example(study="kappa-sweep", spoils=[(("kappas",), "set", "", [0.1, -math.inf], 0, 0)])
@example(study="solve", spoils=[(("solvers", 5, "rtol"), "set", "", 3.0, 0, 0)])  # rk2 ignores it
def test_property_spoiled_shipped_config_exits_0_1_or_2(study, spoils):
    # whatever a shipped config is spoiled to, the command line ends in an exit
    # status: no traceback, and no RuntimeWarning (an error under this suite)
    config = yaml.safe_load((CONFIG_DIR / f"{study}.yaml").read_text(encoding="utf-8"))
    for spoil in spoils:
        _spoil(config, *spoil)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_cfg(Path(tmp), config)
        assert cli.main([study, "--config", str(cfg), "--out", str(Path(tmp) / "o.csv")]) \
            in (0, 1, 2)
