"""Benchmark runner for isde: one command per workload, metrics as JSON.

Run from the repository root:

    python3 bench/run.py --workload quad-bridge --seed 1 --seconds 30 --trace 0

Each run starts fresh interpreters (stdlib and numpy only; the package is
imported from ``src``) with BLAS and OpenMP threads pinned to 1: a few that
only set up, for the median set-up time, then one that measures. Every input
comes from ``--seed``. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. See
``bench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("quad-bridge", "wide-fouve", "studies")
SETUP_RUNS = 4  # set-up-only processes; the measuring process adds a fifth sample
TIMEOUT_S = 170


def _worker_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args, deadline):
    """Run bench/worker.py; returns its last stdout line parsed as JSON."""
    proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "worker.py")] + args,
                          cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE,
                          timeout=max(deadline - time.monotonic(), 1.0), text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"worker {' '.join(args)} exited with status {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description="Benchmark runner for isde.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [os.path.join(ROOT, "src", "isde", "__init__.py"),
              os.path.join(ROOT, "configs")]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        print(f"error: run from an isde checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIMEOUT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setup = []
    if not args.trace:
        for _ in range(SETUP_RUNS):
            setup.append(_worker(common + ["--setup-only"], deadline)["setup_s"])
    result = _worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                     deadline)
    info = result.pop("info")
    metrics = result["metrics"]
    if not args.trace:
        setup.append(info["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}

    print("env " + json.dumps(info["env"], sort_keys=True))
    q1, q2, q3 = info["quartiles_ms"]
    print(f"{args.workload}: {info['rounds']} untraced rounds, quartiles {q1:.4g} / {q2:.4g} / "
          f"{q3:.4g} ms, tail = p{info['tail_pct']:.0f}, "
          f"failed_frac = {result['failed'] / result['attempted']:.4g} "
          f"({result['failed']} of {result['attempted']} ops)")
    if "spans_file" in info:
        print(f"spans written to {info['spans_file']}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
