"""Workload definitions, seed handling and reference checks shared by the
benchmark's command (run.py), its timed program (worker.py), the reference
recorder and the benchmark's tests.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"
SEEDS_FILE = REFERENCE_DIR / "seeds.json"

HORIZON_WORKLOADS = {
    # workload name -> ScenarioConfig factory name
    "horizon-proposed": "proposed",
    "horizon-a1": "a1",
    "horizon-a2": "a2",
}
SPOT_WORKLOAD = "spot-cold"
WORKLOADS = (*HORIZON_WORKLOADS, SPOT_WORKLOAD)

# One unit of work runs the same BENCH_SERIES on every --seed, so runs with
# different seeds measure the same rounds and differ only in noise: a closed
# loop of HORIZON rounds from period 0 per series (horizons), or SPOT_PERIODS
# cold single periods per series (spot-cold). A timed run measures whole units
# until it holds at least MIN_ROUNDS rounds, so its p90 has ten samples beyond
# it, and until its time is up. HORIZON is one week, the run length
# of the measurements the workloads were designed from; the first day alone
# has more warm-start fallbacks than the week. BENCH_SERIES are the two lowest
# series seeds that stay feasible over all 672 periods (7 is the bundled
# case); the other feasible seeds in reference/seeds.json are held out.
BENCH_SERIES = (6, 7)
HORIZON = 168
SPOT_PERIODS = 40
MIN_ROUNDS = 100
# Series seeds scanned for feasibility when the reference is recorded.
CANDIDATE_SEEDS = tuple(range(1, 21))
# Widest tolerated departure from the recorded outputs, as a share of the
# largest magnitude in the same vector (dispatch, LMP, psi or CEF price).
REFERENCE_RTOL = 1e-9
SETTLEMENT_RTOL = 1e-6
COST_SHARING_TOL = 1e-9


def add_source_path(root: Path) -> None:
    """Import carbomarket from the checkout's src/, as the package sits there."""
    src = str(Path(root).resolve() / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def feasible_seeds() -> list[int]:
    """Series seeds whose every horizon runs HORIZON periods without an abort."""
    return list(json.loads(SEEDS_FILE.read_text())["feasible"])


def series_for_seed(seed: int) -> list[int]:
    """The order in which one run takes BENCH_SERIES; a pure function of --seed."""
    order = np.random.default_rng(seed).permutation(len(BENCH_SERIES))
    return [BENCH_SERIES[i] for i in order]


def spot_periods(series_seed: int) -> list[int]:
    """The cold periods spot-cold runs on one series, as recorded."""
    return [int(t) for t in load_reference(SPOT_WORKLOAD)[f"{series_seed}.periods"]]


def case_path(work: Path, series_seed: int) -> Path:
    return Path(work) / f"series{series_seed}" / "replica30.yaml"


def write_series_case(work: Path, series_seed: int) -> Path:
    """Generate a replica30 series and write it as case files for the program."""
    from carbomarket import replica30_case, write_case

    path = case_path(work, series_seed)
    write_case(replica30_case(seed=series_seed), path)
    return path


def start_state(case) -> tuple[dict, dict]:
    """Initial storage states and policy parameters, as the CLI builds them."""
    from carbomarket.storage_policy import choose_parameters, initial_state

    params = {u.name: choose_parameters(u) for u in case.storages}
    return {u.name: initial_state(u, params[u.name]) for u in case.storages}, params


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.npz"


def load_reference(workload: str) -> dict[str, np.ndarray]:
    with np.load(reference_path(workload), allow_pickle=False) as data:
        return {k: data[k] for k in data.files}


def output_row(record, cef_prices=None) -> np.ndarray:
    """One round's checked outputs: dispatch, LMPs, psi, then CEF prices."""
    parts = [np.fromiter(record.dispatch.values(), dtype=float), record.lmp, record.psi]
    if cef_prices is not None:
        parts.append(np.asarray(cef_prices, dtype=float))
    return np.concatenate(parts)


def row_segments(n_agents: int, n_buses: int, with_cef: bool) -> list[slice]:
    bounds = [0, n_agents, n_agents + n_buses, n_agents + 2 * n_buses]
    if with_cef:
        bounds.append(n_agents + 3 * n_buses)
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def row_matches(row: np.ndarray, ref: np.ndarray, segments: list[slice]) -> bool:
    """Each vector within REFERENCE_RTOL of its largest recorded magnitude."""
    if row.shape != ref.shape or not np.isfinite(row).all():
        return False
    for seg in segments:
        scale = float(np.abs(ref[seg]).max(initial=0.0))
        if np.abs(row[seg] - ref[seg]).max(initial=0.0) > REFERENCE_RTOL * scale:
            return False
    return True
