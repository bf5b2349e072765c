"""Command line front end: one subcommand per study, driven by a YAML config.

Usage:

    isde <study> --config cfg.yaml --out results.csv [--seed N]

where <study> is one of simulate-forward, solve, convergence, nfe-sweep,
kappa-sweep, marginal-check, verify-weights. The CSV table is written to
--out and a JSON manifest (config echo, seeds, slopes, stats, runtime) is
written alongside with the suffix .manifest.json. --seed overrides the seed
in the config file. Exit status: 0 on success, 1 on runtime failures
(divergence, stiffness, a float overflow), 2 on config or usage errors and
when the output cannot be written.

The config is read by libyaml when PyYAML was built with it, and by PyYAML's
pure-Python loader otherwise; both read the shipped configs to the same values.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np
import yaml

from .errors import ConfigError, IsdeError, ParameterError
from .harness import STUDIES, config_from_dict

_STUDY_HELP = {
    "simulate-forward": "tabulate the schedule and forward-kernel moments over time",
    "solve": "run each configured solver once and report endpoint statistics",
    "convergence": "endpoint error versus step size on uniform grids",
    "nfe-sweep": "endpoint error at matched model-call budgets",
    "kappa-sweep": "endpoint deviation versus the noise scale kappa",
    "marginal-check": "distributional test of endpoints against the exact marginal",
    "verify-weights": "cross-check step weights against direct quadrature",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isde",
        description="Numerical studies for interpolating-SDE samplers.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="study")
    for name in STUDIES:
        p = sub.add_parser(name, help=_STUDY_HELP[name], description=_STUDY_HELP[name])
        p.add_argument("--config", required=True, metavar="YAML",
                       help="study config file")
        p.add_argument("--out", required=True, metavar="CSV",
                       help="output table path; a .manifest.json is written alongside")
        p.add_argument("--seed", type=int, default=None,
                       help="override the seed from the config file")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except OSError as e:
        print(f"error: cannot read config {args.config!r}: {e}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as e:
        print(f"error: config {args.config!r} is not UTF-8 text: {e}", file=sys.stderr)
        return 2
    except yaml.YAMLError as e:
        print(f"error: config {args.config!r} is not valid YAML: {e}", file=sys.stderr)
        return 2

    if args.seed is not None and isinstance(data, dict):
        data = dict(data)
        data["seed"] = args.seed

    try:
        config = config_from_dict(data)
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            result = STUDIES[args.command](config)
    except (ConfigError, ParameterError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (IsdeError, ArithmeticError) as e:  # e.g. a float overflow in a statistic
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1

    try:
        result.write(args.out)
    except OSError as e:
        print(f"error: cannot write {args.out!r}: {e}", file=sys.stderr)
        return 2
    print(f"{result.study}: wrote {args.out} "
          f"({len(result.rows)} rows, {result.runtime_s:.3f}s)")
    for key in sorted(result.slopes):
        print(f"  slope[{key}] = {result.slopes[key]:.4f}")
    for key in sorted(result.stats):
        value = result.stats[key]
        if isinstance(value, float):
            print(f"  {key} = {value:.6g}")
        else:
            print(f"  {key} = {value}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
