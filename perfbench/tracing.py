"""Spans recorded from outside the package, and the per-layer metrics.

The tracer replaces a function at the module attribute its caller looks up
(``simulator.clear_market``, ``market_clearing.solve``, ...) with a wrapper
that records a span: name, start, end, parent span, round id, and a few
counts read off the call's result. Spans stay in memory until the run ends.
Nothing inside ``src/`` changes; ``restore`` puts every original back.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager

NAME, START, END, PARENT, ROUND, ATTRS = range(6)


@contextmanager
def patched(module, attr: str, make):
    """Replace ``module.attr`` with ``make(original)`` until the block ends."""
    original = getattr(module, attr)
    setattr(module, attr, make(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


@contextmanager
def call_spans(module, attr: str):
    """Record ``(start, end)`` of every call of ``module.attr`` in the block."""
    spans: list[tuple[float, float]] = []

    def make(original):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                spans.append((start, time.perf_counter()))
        return timed

    with patched(module, attr, make):
        yield spans


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.round = -1
        self._stack: list[int] = []
        self._patches = ExitStack()

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.round, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, attrs: dict | None = None) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[ATTRS] = attrs
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def new_round(self) -> None:
        self.round += 1

    def wrap(self, module, attr: str, name: str, attrs=None, new_round: bool = False) -> None:
        """Trace every call of ``module.attr`` as a span called ``name``.

        ``attrs(result, args, kwargs)`` returns the counts kept on the span.
        With ``new_round`` each call starts a round of its own.
        """
        def make(original):
            def traced(*args, **kwargs):
                if new_round:
                    self.new_round()
                idx = self.open(name)
                result = None
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    self.close(idx, attrs(result, args, kwargs)
                               if attrs and result is not None else None)
            return traced

        self._patches.enter_context(patched(module, attr, make))

    def restore(self) -> None:
        """Put every wrapped function back."""
        self._patches.close()


def _solution_counts(sol, args, kwargs):
    return {"pivots": int(sol.iterations), "warm": bool(sol.warm_started)}


def _lp_shape(result, args, kwargs):
    problem, _ = result
    return {"rows": int(problem.constraint_count), "cols": int(problem.variable_count)}


def _segments(curve, args, kwargs):
    return {"segments": len(curve.segments)}


def _breakpoints(allocation, args, kwargs):
    return {"breakpoints": len(allocation.breakpoints)}


def _clearing_flags(result, args, kwargs):
    record = result[0]
    return {"degenerate": bool(record.degenerate), "start_used": bool(record.start_used)}


def install(tracer: Tracer, round_is_run_period: bool) -> None:
    """Wrap each layer boundary of one market round.

    With ``round_is_run_period`` every ``simulator.run_period`` call opens a
    new round (the horizons); otherwise the caller opens rounds itself.
    """
    from carbomarket import emission_allocation, lp_core, market_clearing, simulator

    tracer.wrap(simulator, "run_period", "simulator.run_period", _clearing_flags,
                new_round=round_is_run_period)
    tracer.wrap(simulator, "plant_bids", "simulator.plant_bids")
    tracer.wrap(simulator, "bid_curve", "storage_policy.bid_curve", _segments)
    tracer.wrap(simulator, "clear_market", "market_clearing.clear_market")
    tracer.wrap(simulator, "allocate_period", "emission_allocation.allocate_period", _breakpoints)
    tracer.wrap(simulator, "settle", "simulator.settle")
    tracer.wrap(market_clearing, "assemble_clearing_lp", "market_clearing.assemble", _lp_shape)
    tracer.wrap(market_clearing, "solve", "market_clearing.solve_cold", _solution_counts)
    tracer.wrap(market_clearing, "solve_with_basis", "market_clearing.solve_warm", _solution_counts)
    tracer.wrap(emission_allocation, "build_compact_form", "emission_allocation.compact")
    tracer.wrap(emission_allocation, "feasible_start", "emission_allocation.feasible_start")
    tracer.wrap(emission_allocation, "solve", "emission_allocation.origin", _solution_counts)
    tracer.wrap(emission_allocation, "solve_with_basis", "emission_allocation.region", _solution_counts)
    tracer.wrap(emission_allocation, "feasibility_interval", "emission_allocation.interval")
    tracer.wrap(emission_allocation, "partial_derivative", "emission_allocation.gradient")
    tracer.wrap(lp_core, "lu_factor", "lu_factor")
    tracer.wrap(emission_allocation, "lu_factor", "lu_factor")


# Unit of each per-layer metric, in the order BENCHMARK.json lists them;
# README.md says what each measures. Counts and times are per round.
LAYER_METRICS = {
    "lp_core.lu_factorizations": "count",
    "market_clearing.lu_factorizations": "count",
    "emission_allocation.lu_factorizations": "count",
    "market_clearing.assemble_ms": "ms",
    "market_clearing.solve_ms": "ms",
    "market_clearing.pivots": "count",
    "market_clearing.cold_solves": "count",
    "market_clearing.warm_hit_ratio": "ratio",
    "market_clearing.lp_rows": "count",
    "market_clearing.lp_cols": "count",
    "emission_allocation.compact_ms": "ms",
    "emission_allocation.origin_ms": "ms",
    "emission_allocation.origin_pivots": "count",
    "emission_allocation.region_ms": "ms",
    "emission_allocation.region_pivots": "count",
    "emission_allocation.interval_ms": "ms",
    "emission_allocation.gradient_ms": "ms",
    "emission_allocation.probes": "count",
    "emission_allocation.breakpoints": "count",
    "emission_allocation.probe_yield": "ratio",
    "emission_allocation.feasible_start_rate": "ratio",
    "storage_policy.bid_curve_ms": "ms",
    "storage_policy.bid_segments": "count",
    "simulator.plant_bids_ms": "ms",
    "simulator.settle_ms": "ms",
    "simulator.round_self_ms": "ms",
    "cef_baseline.graph_ms": "ms",
    "cef_baseline.solve_ms": "ms",
    "share.warm_fallback": "ratio",
    "share.feasible_start": "ratio",
    "share.degenerate": "ratio",
    "setup.import_s": "s",
    "cli_io.load_case_ms": "ms",
    "network_model.ptdf_ms": "ms",
    "trace.overhead_pct": "%",
}


def _layer_of(spans, idx) -> str | None:
    while idx >= 0:
        name = spans[idx][NAME]
        if name.startswith("market_clearing."):
            return "market_clearing"
        if name.startswith("emission_allocation."):
            return "emission_allocation"
        idx = spans[idx][PARENT]
    return None


def self_times(spans) -> list[float]:
    """Span duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def summarize(spans) -> defaultdict:
    """Raw per-layer totals over a traced run; ``layer_metrics`` divides them."""
    totals = defaultdict(float)
    rounds = set()
    own = self_times(spans)
    for idx, span in enumerate(spans):
        name, attrs = span[NAME], span[ATTRS] or {}
        dur_ms = 1000.0 * (span[END] - span[START])
        rounds.add(span[ROUND])
        totals[f"{name}.calls"] += 1
        totals[f"{name}.ms"] += dur_ms
        if name == "lu_factor":
            totals[f"{_layer_of(spans, span[PARENT])}.lu"] += 1
        elif name == "simulator.run_period":
            totals["round_self_ms"] += 1000.0 * own[idx]
            totals["degenerate"] += attrs.get("degenerate", False)
            totals["start_used"] += attrs.get("start_used", False)
        elif name in ("market_clearing.solve_cold", "market_clearing.solve_warm",
                      "emission_allocation.origin", "emission_allocation.region"):
            totals[f"{name}.pivots"] += attrs.get("pivots", 0)
            if name == "market_clearing.solve_warm":
                hit = attrs.get("warm", False)
                totals["warm_hits"] += hit
                totals["cold_fallbacks"] += not hit
        elif name == "market_clearing.assemble":
            totals["lp_rows"] += attrs.get("rows", 0)
            totals["lp_cols"] += attrs.get("cols", 0)
        elif name == "storage_policy.bid_curve":
            totals["bid_segments"] += attrs.get("segments", 0)
        elif name == "emission_allocation.allocate_period":
            totals["breakpoints"] += attrs.get("breakpoints", 0)
    totals["rounds"] = len(rounds)
    return totals


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: defaultdict) -> tuple[dict[str, float], list[str]]:
    """Per-round layer metrics from ``summarize`` totals, plus a note for
    each metric that has nothing to measure on this workload."""
    rounds = t["rounds"] or 1

    def per(key: str) -> float:
        return t[key] / rounds

    warm_attempts = t["market_clearing.solve_warm.calls"]
    cold_direct = t["market_clearing.solve_cold.calls"]
    assembles = t["market_clearing.assemble.calls"]
    curves = t["storage_policy.bid_curve.calls"]
    sweeps = t["emission_allocation.allocate_period.calls"]
    probes = t["emission_allocation.region.calls"]
    values = {
        "lp_core.lu_factorizations": per("lu_factor.calls"),
        "market_clearing.lu_factorizations": per("market_clearing.lu"),
        "emission_allocation.lu_factorizations": per("emission_allocation.lu"),
        "market_clearing.assemble_ms": per("market_clearing.assemble.ms"),
        "market_clearing.solve_ms": (t["market_clearing.solve_cold.ms"]
                                     + t["market_clearing.solve_warm.ms"]) / rounds,
        "market_clearing.pivots": (t["market_clearing.solve_cold.pivots"]
                                   + t["market_clearing.solve_warm.pivots"]) / rounds,
        "market_clearing.cold_solves": (cold_direct + t["cold_fallbacks"]) / rounds,
        "market_clearing.warm_hit_ratio": _ratio(t["warm_hits"], warm_attempts),
        "market_clearing.lp_rows": _ratio(t["lp_rows"], assembles),
        "market_clearing.lp_cols": _ratio(t["lp_cols"], assembles),
        "emission_allocation.compact_ms": per("emission_allocation.compact.ms"),
        "emission_allocation.origin_ms": per("emission_allocation.origin.ms"),
        "emission_allocation.origin_pivots": per("emission_allocation.origin.pivots"),
        "emission_allocation.region_ms": per("emission_allocation.region.ms"),
        "emission_allocation.region_pivots": per("emission_allocation.region.pivots"),
        "emission_allocation.interval_ms": per("emission_allocation.interval.ms"),
        "emission_allocation.gradient_ms": per("emission_allocation.gradient.ms"),
        "emission_allocation.probes": per("emission_allocation.region.calls"),
        "emission_allocation.breakpoints": per("breakpoints"),
        "emission_allocation.probe_yield": _ratio(t["breakpoints"], probes),
        "emission_allocation.feasible_start_rate": _ratio(
            t["emission_allocation.feasible_start.calls"], sweeps),
        "storage_policy.bid_curve_ms": per("storage_policy.bid_curve.ms"),
        "storage_policy.bid_segments": _ratio(t["bid_segments"], curves),
        "simulator.plant_bids_ms": per("simulator.plant_bids.ms"),
        "simulator.settle_ms": per("simulator.settle.ms"),
        "simulator.round_self_ms": per("round_self_ms"),
        "cef_baseline.graph_ms": per("cef_baseline.graph.ms"),
        "cef_baseline.solve_ms": per("cef_baseline.solve.ms"),
        "share.warm_fallback": per("cold_fallbacks"),
        "share.feasible_start": per("start_used"),
        "share.degenerate": per("degenerate"),
    }
    notes = []
    if not warm_attempts:
        notes.append("market_clearing.warm_hit_ratio, share.warm_fallback: "
                     "no warm start is attempted on this workload")
    if not sweeps:
        notes.append("emission_allocation.*: allocation is off, the sweep never runs")
    if not curves:
        notes.append("storage_policy.*: storage is off, no bid curve is built")
    if not t["cef_baseline.graph.calls"]:
        notes.append("cef_baseline.*: only spot-cold runs the CEF baseline")
    return values, notes


def consistency_errors(spans, t: defaultdict) -> list[str]:
    """Invariants every traced run must satisfy."""
    errors = []
    if t["warm_hits"] + t["cold_fallbacks"] != t["market_clearing.solve_warm.calls"]:
        errors.append("warm hits plus cold fallbacks differ from warm attempts")
    if t["emission_allocation.region.calls"] < t["breakpoints"]:
        errors.append("fewer probes than breakpoints")
    own = self_times(spans)
    for idx, span in enumerate(spans):
        if own[idx] < -1e-9:
            errors.append(f"children of span {idx} ({span[NAME]}) exceed it")
            break
        if span[PARENT] >= 0 and spans[span[PARENT]][ROUND] != span[ROUND]:
            errors.append(f"span {idx} ({span[NAME]}) left its round")
            break
    return errors
