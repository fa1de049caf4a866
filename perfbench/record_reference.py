"""Record the benchmark's reference outputs and its feasible series seeds.

    python3 perfbench/record_reference.py

Run from the checkout root. For every candidate series seed it generates the
replica30 case, writes it with write_case and reads it back with load_case,
and runs each horizon workload's unit of work on it once, untimed, through
the same worker functions a timed run uses. A seed is feasible when no
horizon aborts within HORIZON periods. For BENCH_SERIES it also records
spot-cold: periods in the order a generator seeded with the series seed
permutes them, each cold from the initial storage state, keeping the first
SPOT_PERIODS that clear.

reference/seeds.json lists the feasible seeds with the reason each other
seed failed; reference/<workload>.npz holds, per series of BENCH_SERIES, one
row per round of dispatch, LMPs and psi (and the CEF prices on spot-cold).
Re-run it only when the outputs are meant to change, and say so in the
change that does.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from common import (
    BENCH_SERIES,
    CANDIDATE_SEEDS,
    HORIZON,
    HORIZON_WORKLOADS,
    REFERENCE_DIR,
    SEEDS_FILE,
    SPOT_PERIODS,
    SPOT_WORKLOAD,
    add_source_path,
    reference_path,
    start_state,
    write_series_case,
)
from worker import RoundLog, horizon_unit, spot_unit


def record(root: Path, work: Path) -> dict:
    add_source_path(root)
    import carbomarket as cm
    from carbomarket import simulator

    refs: dict[str, dict[str, np.ndarray]] = {w: {} for w in (*HORIZON_WORKLOADS, SPOT_WORKLOAD)}
    failures: dict[str, str] = {}
    skipped: dict[str, list[str]] = {}
    for seed in CANDIDATE_SEEDS:
        case = cm.load_case(write_series_case(work, seed))
        rows = {}
        for workload, factory in HORIZON_WORKLOADS.items():
            log = RoundLog()
            scenario = getattr(cm.ScenarioConfig, factory)(horizon=HORIZON)
            if not horizon_unit(cm, simulator, [(seed, case)], scenario, log):
                failures[str(seed)] = f"{workload}: {log.aborts[0]}"
                break
            rows[workload] = np.array(log.rows)
        if str(seed) in failures:
            print(f"seed {seed}: infeasible ({failures[str(seed)]})", flush=True)
            continue
        print(f"seed {seed}: feasible", flush=True)
        if seed not in BENCH_SERIES:
            continue
        # twice the periods needed, so a few that do not clear cold can drop out
        drawn = [int(t) for t in np.random.default_rng(seed).permutation(case.horizon)]
        drawn = drawn[:2 * SPOT_PERIODS]
        log = RoundLog()
        spot_unit(cm, simulator, [(seed, case)], {seed: drawn}, {seed: start_state(case)},
                  log, None)
        if len(log.rows) < SPOT_PERIODS:
            raise SystemExit(f"seed {seed}: only {len(log.rows)} drawn periods clear cold")
        if log.aborts:
            skipped[str(seed)] = log.aborts
        kept = [j for _, j in log.keys[:SPOT_PERIODS]]
        for workload, r in rows.items():
            refs[workload][str(seed)] = r
        refs[SPOT_WORKLOAD][str(seed)] = np.array(log.rows[:SPOT_PERIODS])
        refs[SPOT_WORKLOAD][f"{seed}.periods"] = np.array([drawn[j] for j in kept], dtype=int)

    missing = [s for s in BENCH_SERIES if str(s) in failures]
    if missing:
        raise SystemExit(f"benchmark series {missing} are not feasible over {HORIZON} periods")
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload, arrays in refs.items():
        np.savez_compressed(reference_path(workload), **arrays)
    feasible = [s for s in CANDIDATE_SEEDS if str(s) not in failures]
    summary = {
        "horizon": HORIZON,
        "spot_periods": SPOT_PERIODS,
        "candidates": list(CANDIDATE_SEEDS),
        "feasible": feasible,
        "benchmark": list(BENCH_SERIES),
        "held_out": [s for s in feasible if s not in BENCH_SERIES],
        "infeasible": failures,
        "spot_skipped": skipped,
    }
    SEEDS_FILE.write_text("{\n" + ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}"
                                             for k, v in summary.items()) + "\n}\n")
    return summary


if __name__ == "__main__":
    root = Path.cwd()
    summary = record(root, root / ".perfbench_work" / "reference")
    print(f"feasible series seeds at {HORIZON} periods: {summary['feasible']}")
    sys.exit(0)
