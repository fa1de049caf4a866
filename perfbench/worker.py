"""The timed program: drives carbomarket through its public API.

Reads the generated case files, runs one workload as a closed loop (one
caller, each round after the previous one), and writes what it measured and
what the rounds produced; run.py checks the outputs.

    python3 perfbench/worker.py --root . --work .perfbench_work \
        --workload horizon-a2 --series 7 8 --units 1 --seconds 5 \
        --out out.json --outputs out.npz
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from common import (
    HORIZON,
    HORIZON_WORKLOADS,
    MIN_ROUNDS,
    SPOT_WORKLOAD,
    add_source_path,
    case_path,
    output_row,
    start_state,
)
from tracing import Tracer, call_spans, install


class RoundLog:
    """Per-round timings and outputs of a run, in round order."""

    def __init__(self):
        self.ms: list[float] = []
        self.rows: list[np.ndarray] = []
        self.keys: list[tuple[int, int]] = []  # (series seed, round index in its series)
        self.residual: list[float] = []
        self.sharing: list[float] = []
        self.aborts: list[str] = []
        self.missing = 0

    def add(self, ms, key, record, cef=None):
        self.ms.append(ms)
        self.keys.append(key)
        self.rows.append(output_row(record, cef))
        self.residual.append(record.settlement_residual)
        self.sharing.append(record.cost_sharing_error)


def horizon_unit(cm, simulator, cases, scenario, log) -> bool:
    """One run_horizon per series; each run_period call is one round."""
    for pos, (seed, case) in enumerate(cases):
        with call_spans(simulator, "run_period") as spans:
            try:
                report = cm.run_horizon(case, scenario)
            except simulator.SimulationAbort as exc:
                # the completed rows stay; this series' rest and every later
                # series of the unit count as failed rounds
                report = exc.report
                log.aborts.append(f"series {seed}: {exc}")
                log.missing += scenario.horizon * (len(cases) - pos) - len(report.records)
        for t, (record, (start, end)) in enumerate(zip(report.records, spans)):
            log.add(1000.0 * (end - start), (seed, t), record)
        if log.aborts:
            return False
    return True


def spot_unit(cm, simulator, cases, periods, states, log, tracer) -> bool:
    """One cold run_period per drawn period, then the CEF baseline on it."""
    scenario = cm.ScenarioConfig.proposed()
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    for seed, case in cases:
        storage, params = states[seed]
        for j, t in enumerate(periods[seed]):
            if tracer is not None:
                tracer.new_round()
            start = time.perf_counter()
            try:
                with span("round"):
                    record, clearing, _ = simulator.run_period(case, scenario, t, storage, params)
                    with span("cef_baseline.graph"):
                        graph = cm.FlowGraph.from_clearing(case, clearing)
                    with span("cef_baseline.solve"):
                        prices = cm.cef_emission_prices(cm.cef_solve(graph), case.kappa)
            except Exception as exc:  # a failed round is counted; the run goes on
                log.aborts.append(f"series {seed} period {t}: {exc!r}")
                log.missing += 1
                continue
            log.add(1000.0 * (time.perf_counter() - start), (seed, j), record, prices)
    return not log.aborts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True, help="checkout root holding src/")
    ap.add_argument("--work", required=True, help="directory with the generated cases")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--series", type=int, nargs="+", required=True)
    ap.add_argument("--periods", default="{}", help="spot-cold: JSON {series: [periods]}")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--units", type=int, default=0,
                    help="run exactly this many units (0: as many as --seconds allows)")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", required=True, help="JSON summary written here")
    ap.add_argument("--outputs", required=True, help="npz of per-round outputs")
    ap.add_argument("--spans", default="", help="traced run: JSON spans written here")
    args = ap.parse_args(argv)

    add_source_path(Path(args.root))
    import carbomarket as cm
    from carbomarket import simulator

    cases = []
    for seed in args.series:
        case = cm.load_case(case_path(Path(args.work), seed))
        case.ptdf  # noqa: B018 - built on first access, before timing
        cases.append((seed, case))

    # one untimed round first, so lazy imports inside numpy and scipy are done
    spot = args.workload == SPOT_WORKLOAD
    seed0, case0 = cases[0]
    if spot:
        periods = {int(k): v for k, v in json.loads(args.periods).items()}
        states = {seed: start_state(case) for seed, case in cases}
        simulator.run_period(case0, cm.ScenarioConfig.proposed(), periods[seed0][0],
                             *states[seed0])
    else:
        factory = getattr(cm.ScenarioConfig, HORIZON_WORKLOADS[args.workload])
        scenario = factory(horizon=HORIZON)
        cm.run_horizon(case0, dataclasses.replace(scenario, horizon=1))

    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer, round_is_run_period=not spot)

    log = RoundLog()
    units = []  # per unit: rounds, wall seconds, process CPU seconds
    try:
        while True:
            first = len(log.ms)
            cpu = time.process_time()
            start = time.perf_counter()
            if spot:
                ok = spot_unit(cm, simulator, cases, periods, states, log, tracer)
            else:
                ok = horizon_unit(cm, simulator, cases, scenario, log)
            wall = time.perf_counter() - start
            units.append({"rounds": len(log.ms) - first, "wall_s": wall,
                          "cpu_s": time.process_time() - cpu})
            if not ok or (args.units and len(units) >= args.units):
                break
            # stop at the unit boundary nearest to the deadline, once the
            # run holds enough rounds for its p90
            elapsed = sum(u["wall_s"] for u in units)
            if (not args.units and len(log.ms) >= MIN_ROUNDS
                    and elapsed + 0.5 * elapsed / len(units) >= args.seconds):
                break
    finally:
        if tracer is not None:
            tracer.restore()

    if tracer is not None and args.spans:
        Path(args.spans).write_text(json.dumps(tracer.spans))
    np.savez(args.outputs, rows=np.array(log.rows),
             keys=np.array(log.keys, dtype=int).reshape(-1, 2),
             residual=np.array(log.residual), sharing=np.array(log.sharing))
    Path(args.out).write_text(json.dumps({
        "units": units,
        "rounds": len(log.ms),
        "missing": log.missing,
        "aborts": log.aborts,
        "round_ms": log.ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
