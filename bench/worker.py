"""One benchmark process: build a workload from its seed, run rounds for a fixed
time, check every output, and print the measurements as one JSON line.

Started by ``run.py`` in a fresh interpreter with BLAS and OpenMP threads
pinned to 1 and ``src`` on ``PYTHONPATH``::

    python3 bench/worker.py --workload quad-bridge --seed 1 --seconds 30 --trace 0
    python3 bench/worker.py --workload studies --seed 1 --setup-only

Set-up time runs from just before ``import isde`` until every input is built.
The timed region of a round covers only the calls into the package; outputs
are checked after it. With ``--trace 1`` untraced and traced rounds alternate
on the same inputs, and the traced rounds give the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
STUDY_NAMES = ("simulate-forward", "solve", "convergence", "nfe-sweep", "kappa-sweep",
               "marginal-check", "verify-weights")
SOLVER_KINDS = ("isde", "euler_maruyama", "pc", "rk2", "rk45")
MAX_REPORTED_FAILURES = 20


def calibrate(np, repeats=5):
    """Median ms of a fixed pure-Python loop plus a numpy pass: machine speed."""
    samples = []
    a = np.arange(400_000, dtype=float)
    for _ in range(repeats):
        start = perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i
        float(np.sqrt(a).sum())
        samples.append(perf_counter() - start)
    return statistics.median(samples) * 1e3


def tail(times):
    """(value, percentile) of the highest percentile with ten rounds beyond it."""
    ordered = sorted(times)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    idx = len(ordered) - 11
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


class Tally:
    """Counts attempted and failed ops, and checks that outputs repeat."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.problems = 0  # failed cross-checks of the traced run
        self.errors = {}  # (set, op index) -> endpoint errors of the first run
        self.path_steps = {}  # set -> trajectories x steps of one round

    def fail(self, message):
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            print(f"FAILED {self.wl.name}: {message}", file=sys.stderr)

    def problem(self, message):
        self.problems += 1
        print(f"CROSS-CHECK FAILED {self.wl.name}: {message}", file=sys.stderr)

    def check_round(self, j, results, ops=None):
        from workloads import CheckFailed

        steps = 0
        for i, (op, out) in enumerate(zip(ops or self.wl.sets[j], results)):
            self.attempted += 1
            if isinstance(out, Exception):
                self.fail(f"{op.label}: {type(out).__name__}: {out}")
                continue
            try:
                errors, op_steps = op.check(out)
            except CheckFailed as e:
                self.fail(str(e))
                continue
            except Exception:  # a malformed output; report and go on
                self.fail(f"{op.label}: output check raised\n{traceback.format_exc()}")
                continue
            steps += op_steps
            first = self.errors.setdefault((j, i), errors)
            if errors != first:
                self.fail(f"{op.label}: endpoint errors {errors} differ from the "
                          f"first run on the same inputs {first}")
        self.path_steps.setdefault(j, steps)

    def ref_err_gmean(self):
        # an exact endpoint (error 0) has no logarithm; it is left out
        logs = [math.log(e) for errs in self.errors.values() for e in errs if e > 0.0]
        return math.exp(sum(logs) / len(logs)) if logs else float("nan")


def run_untraced(wl, seconds, tally):
    """Warm-up round, then timed rounds until ``seconds`` have passed."""
    tally.check_round(0, wl.run_round(0))
    n_sets = len(wl.sets)
    times = []
    start = perf_counter()
    while len(times) < n_sets or perf_counter() - start < seconds:
        j = len(times) % n_sets
        t0 = perf_counter()
        results = wl.run_round(j)
        times.append(perf_counter() - t0)
        tally.check_round(j, results)
    return times


def run_traced(plain, traced, tracer, seconds, tally):
    """Alternate untraced and traced rounds on the same input set.

    Stops after whole cycles over the input sets, so per-round averages of the
    traced counts repeat exactly for a given seed.
    """
    n_sets = len(plain.sets)

    def traced_round(j, round_id, keep_spans=False):
        nfe_before = sum(m.nfe for m in traced.models)
        tracer.install()
        try:
            opened = tracer.begin_round(round_id, keep_spans)
            t0 = perf_counter()
            results = traced.run_round(j)
            dt = perf_counter() - t0
            stats = tracer.end_round(opened)
        finally:
            tracer.uninstall()
        tally.check_round(j, results, traced.sets[j])
        cross_check(stats, traced, sum(m.nfe for m in traced.models) - nfe_before, tally)
        return dt, stats

    tally.check_round(0, plain.run_round(0))
    traced_round(0, "warm-up")
    plain_times, traced_times, per_round = [], [], []
    start = perf_counter()
    while (len(traced_times) % n_sets or not traced_times
           or perf_counter() - start < seconds):
        j = len(traced_times) % n_sets
        t0 = perf_counter()
        results = plain.run_round(j)
        plain_times.append(perf_counter() - t0)
        tally.check_round(j, results)
        dt, stats = traced_round(j, len(traced_times), keep_spans=not traced_times)
        traced_times.append(dt)
        per_round.append(stats)
    return plain_times, traced_times, per_round


def cross_check(stats, wl, model_nfe, tally):
    """Traced call counts must agree with the package's own accounting."""
    score_calls = stats.calls("score")
    solver_nfe = sum(v for k, v in stats.counts.items()
                     if k.startswith("solvers.") and k.endswith(".nfe"))
    if score_calls != solver_nfe:
        tally.problem(f"traced score calls {score_calls} != sum of SolveOutput.nfe "
                      f"{solver_nfe}")
    if wl.models and score_calls != model_nfe:
        tally.problem(f"traced score calls {score_calls} != ScoreModel.nfe increase "
                      f"{model_nfe}")
    if not wl.expect_quadrature and stats.calls("quadrature.integrate"):
        tally.problem(f"{stats.calls('quadrature.integrate')} quadrature calls where "
                      "closed forms should make them 0")


def layer_metrics(per_round, setup_stats, import_s, overhead_frac, calib_ms):
    """Per-layer metrics, as means per traced round (set-up separately)."""
    n = len(per_round)

    def total(fn):
        return sum(fn(s) for s in per_round)

    def calls(name):
        return total(lambda s: s.calls(name)) / n

    def ms(name):
        return total(lambda s: s.incl_s(name)) * 1e3 / n

    def self_ms(name):
        return total(lambda s: s.self_s(name)) * 1e3 / n

    def count(name):
        return total(lambda s: s.counts.get(name, 0)) / n

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "cli.import_s": (import_s, "s"),
        "cli.main_ms": (ms("cli.main"), "ms"),
        "harness.config_from_dict_ms": (ms("harness.config_from_dict"), "ms"),
    }
    for study in STUDY_NAMES:
        m[f"harness.study_ms.{study}"] = (ms(f"harness.study_ms.{study}"), "ms")
    m["harness.reference_ms"] = (ms("harness.reference"), "ms")
    m["harness.write_ms"] = (ms("harness.write"), "ms")
    m["harness.write_bytes"] = (count("harness.write_bytes"), "B")
    for kind in SOLVER_KINDS:
        name = f"solvers.{kind}"
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.us_per_nfe"] = (ratio(ms(name) * 1e3, count(f"{name}.nfe")), "us")
        m[f"{name}.self_ms"] = (self_ms(name), "ms")
    for name in ("solvers.omega_weight", "solvers.ito_increment"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.ms"] = (ms(name), "ms")
    m["solvers.weights.distinct_ratio"] = (total(lambda s: ratio(
        len(s.weight_keys),
        s.calls("solvers.omega_weight") + s.calls("solvers.ito_increment"))) / n, "ratio")
    m["score.calls"] = (calls("score"), "count")
    m["score.ms"] = (ms("score"), "ms")
    m["score.ns_per_path"] = (ratio(ms("score") * 1e6, count("score.paths")), "ns")
    m["score.us_per_call"] = (ratio(ms("score") * 1e3, calls("score")), "us")
    m["sde_core.make_sde_ms"] = (setup_stats.incl_s("sde_core.make_sde") * 1e3
                                 + ms("sde_core.make_sde"), "ms")
    m["sde_core.schedule.calls"] = (calls("sde_core.schedule"), "count")
    m["sde_core.schedule.self_ms"] = (self_ms("sde_core.schedule"), "ms")
    m["quadrature.integrate.calls"] = (calls("quadrature.integrate"), "count")
    m["quadrature.integrate.evals"] = (count("quadrature.evals"), "count")
    m["quadrature.integrate.self_ms"] = (self_ms("quadrature.integrate"), "ms")
    m["quadrature.evals_per_call"] = (ratio(count("quadrature.evals"),
                                            calls("quadrature.integrate")), "count")
    m["quadrature.share"] = (ratio(ms("quadrature.integrate"), ms("round")), "ratio")
    m["trace.overhead_frac"] = (overhead_frac, "ratio")
    m["env.calib_ms"] = (calib_ms, "ms")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def env_record(np, args, calib_start, calib_end):
    import platform

    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "calib_ms_start": calib_start, "calib_ms_end": calib_end,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("quad-bridge", "wide-fouve", "studies"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = perf_counter()
    import isde
    import isde.cli
    import_s = perf_counter() - t0
    import numpy as np
    import workloads

    src = os.path.join(os.path.dirname(BENCH_DIR), "src")
    if not os.path.abspath(isde.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"isde imported from {isde.__file__}, not from {src}")

    tracer = setup_stats = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()  # first build, so set-up spans see cold caches
        try:
            traced = workloads.build(args.workload, args.seed)
        finally:
            tracer.uninstall()
        setup_stats = tracer.stats
    wl = workloads.build(args.workload, args.seed)
    setup_s = perf_counter() - t0
    if args.setup_only:
        wl.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    calib_start = calibrate(np)
    tally = Tally(wl)
    try:
        if args.trace:
            try:
                plain_t, traced_t, per_round = run_traced(wl, traced, tracer,
                                                          args.seconds, tally)
            finally:
                traced.close()
            spans_path = os.path.join(BENCH_DIR, "_out",
                                      f"spans-{args.workload}-seed{args.seed}.jsonl")
            tracer.write_spans(spans_path)
            times = plain_t
        else:
            times = run_untraced(wl, args.seconds, tally)
    finally:
        wl.close()
    calib_end = calibrate(np)

    p50 = statistics.median(times)
    tail_s, tail_pct = tail(times)
    info = {"rounds": len(times), "tail_pct": tail_pct, "setup_s": setup_s,
            "quartiles_ms": [q * 1e3 for q in statistics.quantiles(times, n=4)],
            "env": env_record(np, args, calib_start, calib_end)}
    if args.trace:
        overhead = statistics.median(traced_t) / p50 - 1.0
        metrics = layer_metrics(per_round, setup_stats, import_s, overhead,
                                (calib_start + calib_end) / 2)
        info["spans_file"] = os.path.relpath(spans_path, os.path.dirname(BENCH_DIR))
    else:
        steps = sum(tally.path_steps.values()) / len(tally.path_steps)
        metrics = {
            "round_ms_p50": {"value": p50 * 1e3, "unit": "ms"},
            "round_ms_tail": {"value": tail_s * 1e3, "unit": "ms"},
            "path_steps_per_s": {"value": steps / p50, "unit": "1/s"},
            "ref_err_gmean": {"value": tally.ref_err_gmean(), "unit": "ratio"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
    print(json.dumps({"correct": tally.failed == 0 and tally.problems == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed + tally.problems,
                      "metrics": metrics, "info": info}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
