"""Command line front end: a study argument names the study, and a YAML config drives it.

Usage:

    isde <study> --config cfg.yaml --out results.csv [--seed N]

where the study argument <study> is one of simulate-forward, solve, convergence,
nfe-sweep, kappa-sweep, marginal-check, verify-weights (``isde --help`` says what
each does), before or after the options. The CSV table is written to --out and a
JSON manifest (config echo, seeds, slopes, stats, runtime) alongside with the
suffix .manifest.json; --seed overrides the config's seed. Exit status: 0 on
success, 1 on runtime failures (divergence, stiffness, a float overflow), 2 on
config or usage errors and when the output cannot be written.

The config is read by libyaml when PyYAML was built with it, and by PyYAML's
pure-Python loader otherwise; both read the shipped configs to the same values.
"""

from __future__ import annotations

import argparse
import sys
import textwrap

import numpy as np
import yaml

from .errors import ConfigError, IsdeError, ParameterError
from .harness import STUDIES, config_from_dict


def _build_parser() -> argparse.ArgumentParser:
    # the help lists each study with the first paragraph of its function's docstring
    # (only its name where docstrings are stripped, as under python -OO)
    epilog = ["studies:"]
    for name, fn in STUDIES.items():
        summary = " ".join((fn.__doc__ or "").split("\n\n")[0].split())
        epilog += textwrap.wrap(f"{name:<18} {summary}", 78, initial_indent="  ",
                                subsequent_indent=" " * 21, break_on_hyphens=False)
    parser = argparse.ArgumentParser(
        prog="isde", description="Numerical studies for interpolating-SDE samplers.",
        epilog="\n".join(epilog), formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("study", choices=STUDIES, metavar="study",
                        help="the study to run, one of those listed below")
    parser.add_argument("--config", required=True, metavar="YAML", help="study config file")
    parser.add_argument("--out", required=True, metavar="CSV",
                        help="output table path; a .manifest.json is written alongside")
    parser.add_argument("--seed", type=int, default=None,
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
            result = STUDIES[args.study](config)
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
