"""Tests of the benchmark itself (not collected by the package's test suite).

    python3 -m pytest bench
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import isde  # noqa: E402

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py"] + args, cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_minimal_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        assert any(line.strip().startswith(f"{m['name']} = ") and
                   line.strip().endswith(f" {m['unit']}") for line in lines)
    if trace and workload == "wide-fouve":
        assert result["metrics"]["quadrature.integrate.calls"]["value"] == 0


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(["--workload", "studies", "--seed", "1", "--seconds", "1"], cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _nan_solve(sde, grid, x0):
    nan_model = isde.ScoreModel(lambda x, y, t: np.full(np.shape(x), np.nan))
    return lambda: isde.isde_solve(sde, nan_model, 1.0, grid, p=1, x_init=x0)


def test_injected_failing_op_is_counted_not_fatal():
    wl = workloads.build("quad-bridge", seed=5, n_sets=2)
    sde = isde.make_sde(isde.SdeParams(kind="OT", sigma_max=0.1))
    grid = isde.TimeGrid.for_sde(sde, 5)
    for ops in wl.sets:
        good = ops[0]
        ops[0] = workloads.Op(good.label, _nan_solve(sde, grid, np.ones(8)), good.check)
    tally = worker.Tally(wl)
    times = worker.run_untraced(wl, 0.0, tally)
    rounds = len(times) + 1  # with the warm-up round
    assert tally.failed == rounds
    assert tally.attempted == rounds * len(wl.sets[0])
    assert 0.0 < tally.failed / tally.attempted < 1.0


def _one_cycle(name, seed):
    """ref_err_gmean and traced layer counts of one cycle over the input sets."""
    plain = workloads.build(name, seed, n_sets=2)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = workloads.build(name, seed, n_sets=2)
    finally:
        tracer.uninstall()
    tally = worker.Tally(plain)
    try:
        _, _, per_round = worker.run_traced(plain, traced, tracer, 0.0, tally)
    finally:
        plain.close()
        traced.close()
    assert tally.failed == 0 and tally.problems == 0
    counts = [(s.calls("quadrature.integrate"), s.counts.get("quadrature.evals"),
               s.calls("score"), s.calls("solvers.omega_weight")) for s in per_round]
    return tally.ref_err_gmean(), counts


def test_same_seed_repeats_and_another_seed_changes_inputs():
    err_a, counts_a = _one_cycle("quad-bridge", 11)
    err_b, counts_b = _one_cycle("quad-bridge", 11)
    assert err_a == err_b
    assert counts_a == counts_b
    assert counts_a[0][0] > 0
    err_c, _ = _one_cycle("quad-bridge", 12)
    assert err_c != err_a


def test_studies_seed_picks_different_golden_inputs():
    labels = []
    for seed in (1, 2):
        wl = workloads.build("studies", seed)
        wl.close()
        labels.append([[op.label for op in ops] for ops in wl.sets])
    assert labels[0] != labels[1]


def test_cross_check_flags_miscounted_model_calls():
    wl = workloads.Workload("w", [[]], expect_quadrature=False)
    tally = worker.Tally(wl)
    stats = spans.RoundStats()
    stats.add_span("score", 1.0, 1.0)
    stats.add_span("quadrature.integrate", 1.0, 1.0)
    stats.count("solvers.isde.nfe", 2)
    worker.cross_check(stats, wl, model_nfe=0, tally=tally)
    assert tally.problems == 2


def test_golden_mismatch_names_largest_difference():
    golden = workloads.load_golden()
    text = golden["csv"]["1234"]["solve"]["text"]
    changed = text.replace("0.00800015232695", "0.00800015232795")
    assert changed != text
    message = workloads.largest_difference(changed, text)
    assert message.startswith("largest difference") and "err_vs_ref" in message


def test_tail_has_ten_rounds_beyond_it():
    times = list(range(1, 41))
    value, pct = worker.tail(times)
    assert sum(t > value for t in times) == 10
    assert pct == 75.0
