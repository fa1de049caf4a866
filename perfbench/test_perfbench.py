"""The benchmark's own tests; run from the checkout root with

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from common import (
    BENCH_DIR,
    BENCH_SERIES,
    HORIZON_WORKLOADS,
    SPOT_WORKLOAD,
    WORKLOADS,
    add_source_path,
    feasible_seeds,
    load_reference,
    series_for_seed,
    spot_periods,
    start_state,
    write_series_case,
)

ROOT = BENCH_DIR.parent
add_source_path(ROOT)

import carbomarket as cm  # noqa: E402
from carbomarket import simulator  # noqa: E402
from run import failed_rounds  # noqa: E402
from tracing import Tracer, consistency_errors, install, layer_metrics, summarize  # noqa: E402
from worker import RoundLog, horizon_unit, spot_unit  # noqa: E402

SMOKE_ROUNDS = 3


@pytest.fixture(scope="module")
def series_case(tmp_path_factory):
    seed = BENCH_SERIES[0]
    return seed, cm.load_case(write_series_case(tmp_path_factory.mktemp("cases"), seed))


def _horizon(workload, seed, case, rounds, tracer=None):
    factory = getattr(cm.ScenarioConfig, HORIZON_WORKLOADS[workload])
    log = RoundLog()
    if tracer is not None:
        install(tracer, round_is_run_period=True)
    try:
        assert horizon_unit(cm, simulator, [(seed, case)], factory(horizon=rounds), log)
    finally:
        if tracer is not None:
            tracer.restore()
    return log


def _spot(seed, case, count, tracer=None):
    log = RoundLog()
    if tracer is not None:
        install(tracer, round_is_run_period=False)
    try:
        assert spot_unit(cm, simulator, [(seed, case)], {seed: spot_periods(seed)[:count]},
                         {seed: start_state(case)}, log, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    return log


def _as_result(log):
    return {"keys": np.array(log.keys), "rows": np.array(log.rows),
            "residual": np.array(log.residual), "sharing": np.array(log.sharing)}


@pytest.mark.parametrize("workload", [*HORIZON_WORKLOADS, SPOT_WORKLOAD])
def test_smoke_run_matches_the_reference(workload, series_case):
    seed, case = series_case
    if workload == SPOT_WORKLOAD:
        log = _spot(seed, case, SMOKE_ROUNDS)
    else:
        log = _horizon(workload, seed, case, SMOKE_ROUNDS)
    assert len(log.ms) == SMOKE_ROUNDS and log.missing == 0
    assert failed_rounds(workload, _as_result(log), load_reference(workload), case.n_buses) == []


def test_departure_from_the_reference_is_a_failed_round(series_case):
    seed, case = series_case
    result = _as_result(_horizon("horizon-a2", seed, case, 2))
    result["rows"][1, 0] *= 1.0 + 1e-6
    assert len(failed_rounds("horizon-a2", result, load_reference("horizon-a2"), case.n_buses)) == 1


@pytest.mark.parametrize("workload", ["horizon-proposed", SPOT_WORKLOAD])
def test_counters_are_consistent(workload, series_case):
    seed, case = series_case
    tracer = Tracer()
    if workload == SPOT_WORKLOAD:
        _spot(seed, case, 2, tracer)
    else:
        _horizon(workload, seed, case, 4, tracer)
    totals = summarize(tracer.spans)
    assert consistency_errors(tracer.spans, totals) == []
    attempts = totals.get("market_clearing.solve_warm.calls", 0)
    assert totals.get("warm_hits", 0) + totals.get("cold_fallbacks", 0) == attempts
    assert totals["emission_allocation.region.calls"] >= totals["breakpoints"] > 0
    assert totals["rounds"] == (2 if workload == SPOT_WORKLOAD else 4)
    values, _ = layer_metrics(totals)
    assert values["lp_core.lu_factorizations"] == pytest.approx(
        values["market_clearing.lu_factorizations"]
        + values["emission_allocation.lu_factorizations"])
    # the round spans hold every other span
    rounds = {}
    for name, start, end, parent, rnd, _ in tracer.spans:
        if parent < 0:
            rounds[rnd] = (start, end)
    for name, start, end, parent, rnd, _ in tracer.spans:
        assert rounds[rnd][0] <= start <= end <= rounds[rnd][1]


def test_traced_and_untraced_runs_give_identical_outputs(series_case):
    seed, case = series_case
    plain = _horizon("horizon-proposed", seed, case, 4)
    traced = _horizon("horizon-proposed", seed, case, 4, Tracer())
    assert np.array_equal(np.array(plain.rows), np.array(traced.rows))
    assert simulator.run_period.__module__ == "carbomarket.simulator"


def test_every_seed_orders_the_same_feasible_series():
    assert set(BENCH_SERIES) <= set(feasible_seeds())
    for seed in range(5):
        series = series_for_seed(seed)
        assert series == series_for_seed(seed)
        assert sorted(series) == sorted(BENCH_SERIES)


def test_run_refuses_a_directory_without_the_package(tmp_path):
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "horizon-a2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout.strip() == ""


def test_abort_counts_the_remaining_rounds(series_case):
    seed, case = series_case
    short = dataclasses.replace(case, load_series=case.load_series * 10.0)
    log = RoundLog()
    ok = horizon_unit(cm, simulator, [(seed, short), (seed, case)],
                      cm.ScenarioConfig.a2(horizon=SMOKE_ROUNDS), log)
    assert not ok and log.aborts
    assert len(log.ms) + log.missing == 2 * SMOKE_ROUNDS


def test_package_under_test_is_the_checkout():
    assert Path(simulator.__file__).resolve().parents[2] == ROOT


def test_benchmark_json_names_what_run_prints():
    from run import E2E_METRICS
    from tracing import LAYER_METRICS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_METRICS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
