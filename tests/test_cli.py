import copy
import hashlib
import importlib
import importlib.metadata as md
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

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
    "QuadratureError", "QuadratureToleranceError", "ScheduleConsistencyError", "ShapeError",
    "SingularityError", "StiffnessError",
    "QuadResult", "integrate",
    "GaussianKernel", "InterpolatingSde", "SdeKind", "SdeParams", "diffusion_from_variance",
    "gamma_from_k", "k_from_gamma", "make_sde", "mean_evolution", "perturbation_kernel",
    "sample_forward", "variance_from_diffusion",
    "DeltaPrior", "GaussianPrior", "MixturePrior", "ScoreModel", "analytic_score",
    "analytic_score_model", "dsm_loss_mc", "eps_adapter", "eps_loss_mc", "marginal_moments",
    "score_from_eps",
    "SolveOutput", "SolverSpec", "TimeGrid", "euler_maruyama", "isde_solve", "ito_increment",
    "linear_step", "nfe_per_step", "omega_weight", "pc_sampler", "reverse_init",
    "rk2_midpoint", "rk45_adaptive", "run_solver",
    "ExperimentConfig", "SolverEntry", "StudyResult", "STUDIES", "config_from_dict",
    "convergence_study", "kappa_sweep", "marginal_check", "nfe_sweep", "reference_solution",
    "simulate_forward", "solve_study", "verify_weights",
    "__version__",
}


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


def test_config_error_exits_2(tmp_path, canonical_config_dict, capsys):
    data = dict(canonical_config_dict, typo_key=1)
    cfg = write_cfg(tmp_path, data)
    rc = cli.main(["verify-weights", "--config", str(cfg),
                   "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "typo_key" in capsys.readouterr().err


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
    (("solvers", 0, "rtol"), "1e-5"),  # YAML reads an unquoted 1e-5 as a string
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
    # dimension, and every solver's full spec with its label and grid size
    out = tmp_path / "solve.csv"
    assert cli.main(["solve", "--config", str(CONFIG_DIR / "solve.yaml"),
                     "--out", str(out)]) == 0
    manifest = json.loads(out.with_suffix(".manifest.json").read_text())
    assert manifest["sde"] == {"kind": "fOUVE", "sigma_min": 0.001, "sigma_max": 0.1,
                               "gamma0": 2.0, "delta": 0.01}
    assert manifest["prior"] == {"kind": "gaussian", "m0": 0.5, "s0": 0.2, "dimension": 1}
    defaults = {"p": 1, "kappa": 0.0, "corrector_stepsize": 0.5, "rtol": 1e-5, "atol": 1e-5}
    want = [
        ("isde", "isde1", {"m_nodes": 41}),
        ("isde", "isde2", {"p": 2, "m_nodes": 21}),
        ("isde", "isde2-k0.1", {"p": 2, "kappa": 0.1, "m_nodes": 21}),
        ("euler_maruyama", "eum0", {"m_nodes": 41}),
        ("pc", "pc-r0.1", {"corrector_stepsize": 0.1, "m_nodes": 21}),
        ("rk2", "rk2", {"m_nodes": 21}),
        ("rk45", "rk45", {"rtol": 1e-6, "atol": 1e-9, "m_nodes": None}),
    ]
    assert manifest["solvers"] == [dict(defaults, kind=kind, label=label, **over)
                                   for kind, label, over in want]
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
