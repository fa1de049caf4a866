"""Benchmark of the carbomarket market round.

    python3 perfbench/run.py --workload horizon-proposed --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

Run from the checkout root. Every run uses the same replica30 series; --seed
sets the order it takes them in, so the same seed gives the same inputs. With --trace 0 it prints the end-to-end
metrics of an untraced run; with --trace 1 it also runs the same work traced
and prints the per-layer metrics. The last line of standard output is one
JSON object: correct, attempted, failed and metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from common import (
    BENCH_DIR,
    COST_SHARING_TOL,
    SETTLEMENT_RTOL,
    SPOT_WORKLOAD,
    WORKLOADS,
    add_source_path,
    load_reference,
    row_matches,
    row_segments,
    series_for_seed,
    spot_periods,
    write_series_case,
)

# set-up probes run before and again after the timed program, so they sample
# the machine over the whole run rather than a few seconds of it
SETUP_REPEATS = 3
# a run must end within 180 s; its child processes share this budget
RUN_BUDGET_S = 170
E2E_METRICS = {
    "periods_per_s": "1/s",
    "round_ms_p50": "ms",
    "round_ms_p90": "ms",
    "cpu_ms_per_round": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def _blas_threads(path: str) -> int | None:
    """Thread count an OpenBLAS library reports, or None if it has no such call."""
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def environment() -> dict:
    """Machine, versions and BLAS threads, read without extra packages."""
    import scipy
    import scipy.linalg  # noqa: F401 - loads scipy's own BLAS

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "blas" in line.lower() and ".cpython-" not in line})
    except OSError:
        libs = []
    blas = [{"library": Path(path).name, "threads": _blas_threads(path)} for path in libs]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in os.environ.items()
                       if k.endswith("_NUM_THREADS") or k == "OMP_DYNAMIC"},
    }


def _child(cmd: list[str], deadline: float) -> str:
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{Path(cmd[1]).name} ran past the {RUN_BUDGET_S} s budget") from exc
    if done.returncode != 0:
        raise BenchError(f"{Path(cmd[1]).name} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return done.stdout


def setup_probes(root: Path, case_file: Path, deadline: float) -> list[dict[str, float]]:
    """Import, load_case and PTDF times of SETUP_REPEATS fresh processes."""
    return [json.loads(_child([sys.executable, str(BENCH_DIR / "setup_probe.py"),
                               str(root), str(case_file)], deadline).strip().splitlines()[-1])
            for _ in range(SETUP_REPEATS)]


def setup_medians(runs: list[dict[str, float]]) -> dict[str, float]:
    med = {k: statistics.median(r[k] for r in runs) for k in runs[0]}
    med["setup_s"] = statistics.median(sum(r.values()) for r in runs)
    return med


def run_worker(root: Path, work: Path, workload: str, series: list[int], periods: dict,
               seconds: float, tag: str, deadline: float, units: int = 0,
               trace: bool = False) -> dict:
    out, outputs, spans = work / f"{tag}.json", work / f"{tag}.npz", work / f"{tag}-spans.json"
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--root", str(root), "--work", str(work),
           "--workload", workload, "--series", *map(str, series),
           "--periods", json.dumps(periods), "--seconds", str(seconds),
           "--units", str(units), "--trace", str(int(trace)),
           "--out", str(out), "--outputs", str(outputs)]
    if trace:
        cmd += ["--spans", str(spans)]
    _child(cmd, deadline)
    result = json.loads(out.read_text())
    with np.load(outputs, allow_pickle=False) as data:
        result.update({k: data[k] for k in data.files})
    if trace:
        result["spans"] = json.loads(spans.read_text())
    return result


def failed_rounds(workload: str, result: dict, reference: dict, n_buses: int) -> list[str]:
    """Rounds whose outputs break a tolerance or depart from the reference."""
    problems = []
    with_cef = workload == SPOT_WORKLOAD
    for i, (seed, k) in enumerate(result["keys"]):
        ref = reference[str(seed)][k]
        n_agents = ref.size - (3 if with_cef else 2) * n_buses
        why = []
        if not result["residual"][i] <= SETTLEMENT_RTOL:
            why.append(f"settlement residual {result['residual'][i]:.3g}")
        if not result["sharing"][i] <= COST_SHARING_TOL:
            why.append(f"cost-sharing error {result['sharing'][i]:.3g}")
        if not row_matches(result["rows"][i], ref, row_segments(n_agents, n_buses, with_cef)):
            why.append("outputs depart from the reference")
        if why:
            problems.append(f"series {seed} round {k}: {', '.join(why)}")
    return problems


def end_to_end(result: dict, setup: dict) -> dict[str, float]:
    """Figures over every round of the run, pooled across its units."""
    ms = np.asarray(result["round_ms"])
    return {
        "periods_per_s": ms.size / sum(u["wall_s"] for u in result["units"]),
        "round_ms_p50": float(np.percentile(ms, 50)),
        "round_ms_p90": float(np.percentile(ms, 90)),
        "cpu_ms_per_round": 1000.0 * sum(u["cpu_s"] for u in result["units"]) / ms.size,
        "setup_s": setup["setup_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object and prints the report."""
    import carbomarket

    deadline = time.monotonic() + RUN_BUDGET_S
    series = series_for_seed(seed)
    periods = {s: spot_periods(s) for s in series} if workload == SPOT_WORKLOAD else {}
    work = root / ".perfbench_work" / f"{workload}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    case_files = [write_series_case(work, s) for s in series]
    n_buses = carbomarket.load_case(case_files[0]).n_buses
    probes = setup_probes(root, case_files[0], deadline)
    plain = run_worker(root, work, workload, series, periods, seconds, "untraced", deadline,
                       units=1 if trace else 0)
    setup = setup_medians(probes + setup_probes(root, case_files[0], deadline))
    reference = load_reference(workload)
    problems = failed_rounds(workload, plain, reference, n_buses)
    failed = plain["missing"] + len(problems)
    attempted = plain["missing"] + int(plain["rounds"])
    wall = sum(u["wall_s"] for u in plain["units"])
    print(f"workload {workload}: seed {seed}, series {series}, closed loop, one caller, "
          f"{len(plain['units'])} unit(s), {plain['rounds']} rounds in {wall:.3f} s")
    for line in plain["aborts"] + problems[:20]:
        print(f"  failed: {line}")
    if plain["rounds"] == 0:
        raise BenchError(f"{workload}: no round completed")

    errors: list[str] = []
    if not trace:
        values = end_to_end(plain, setup)
        metric_units = E2E_METRICS
    else:
        from tracing import LAYER_METRICS, consistency_errors, layer_metrics, summarize

        traced = run_worker(root, work, workload, series, periods, seconds, "traced", deadline,
                            units=1, trace=True)
        totals = summarize(traced["spans"])
        values, notes = layer_metrics(totals)
        values.update({
            "setup.import_s": setup["import_s"],
            "cli_io.load_case_ms": 1000.0 * setup["load_case_s"],
            "network_model.ptdf_ms": 1000.0 * setup["ptdf_s"],
            "trace.overhead_pct": 100.0 * (traced["units"][0]["wall_s"] / traced["rounds"]
                                           / (wall / plain["rounds"]) - 1.0),
        })
        metric_units = LAYER_METRICS
        errors = consistency_errors(traced["spans"], totals)
        if traced["rows"].shape != plain["rows"].shape:
            differ = int(plain["rounds"])
        else:
            differ = int((traced["rows"] != plain["rows"]).any(axis=1).sum())
        if differ:
            errors.append(f"{differ} rounds differ between the traced and untraced passes")
        for note in notes:
            print(f"  not applicable: {note}")
        for err in errors:
            print(f"  failed: {err}")
        failed += differ
        print(f"  spans: {len(traced['spans'])} written to {work / 'traced-spans.json'}")

    for name, value in values.items():
        print(f"{workload} {name} {value:.6g} {metric_units[name]}")
    print(f"{workload} rounds failed {failed} of {attempted} attempted")
    return {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": metric_units[name]}
                    for name, v in values.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "carbomarket" / "__init__.py").is_file():
        print(f"error: {root} holds no src/carbomarket; run from the checkout root",
              file=sys.stderr)
        return 2
    add_source_path(root)
    print("environment " + json.dumps(environment()))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(root, w, args.seed, args.seconds, bool(args.trace))
                   for w in workloads}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
