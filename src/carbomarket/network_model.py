"""Static grid description: convex bid curves, agents, topology, PTDF.

Power is carried in MW, energy in MWh, cost curves in $/h against MW,
emission curves in kgCO2/h against MW, and the storage price-range
estimates in $/kWh. Everything here is immutable after construction and
safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class NonConvexPointsError(ValueError):
    """Sampled points cannot be interpolated by a convex piecewise line."""


class TopologyError(ValueError):
    """Graph is disconnected or a branch has no usable reactance."""


@dataclass(frozen=True)
class PiecewiseLinearCurve:
    """Convex piecewise-linear function: value(p) = max_n(slope_n p + intercept_n).

    Stored as the upper envelope of its segment lines; slopes are strictly
    increasing after normalization. The curve is only meaningful on its
    closed domain, though the max is defined everywhere.
    """

    segments: tuple[tuple[float, float], ...]
    domain: tuple[float, float]

    def __post_init__(self) -> None:
        lo, hi = float(self.domain[0]), float(self.domain[1])
        if not lo <= hi:
            raise ValueError(f"curve domain [{lo}, {hi}] is empty")
        cleaned: dict[float, float] = {}
        for slope, intercept in self.segments:
            s, b = float(slope), float(intercept)
            if not (np.isfinite(s) and np.isfinite(b)):
                raise ValueError("curve segments must be finite")
            cleaned[s] = max(b, cleaned.get(s, -np.inf))
        if not cleaned:
            raise ValueError("curve needs at least one segment")
        ordered = tuple(sorted(cleaned.items()))
        object.__setattr__(self, "segments", ordered)
        object.__setattr__(self, "domain", (lo, hi))

    def value(self, p):
        p = np.asarray(p, dtype=float)
        slopes = np.array([s for s, _ in self.segments])
        intercepts = np.array([b for _, b in self.segments])
        vals = np.max(p[..., None] * slopes + intercepts, axis=-1)
        return float(vals) if vals.ndim == 0 else vals

    def breakpoints(self) -> list[float]:
        """Abscissae inside the open domain where the active segment changes."""
        lo, hi = self.domain
        pieces = self._envelope()
        return [x for _, _, x in pieces if lo < x < hi]

    def envelope(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Active pieces as arrays (slopes, intercepts, starts), ordered by
        start; the first start is -inf and each piece runs to the next start."""
        pieces = np.array(self._envelope())
        return pieces[:, 0], pieces[:, 1], pieces[:, 2]

    def _envelope(self) -> list[tuple[float, float, float]]:
        """Active pieces as (slope, intercept, start_x), start of first = -inf."""
        stack: list[tuple[float, float, float]] = []
        for slope, intercept in self.segments:
            start = -np.inf
            while stack:
                s0, b0, x0 = stack[-1]
                start = (b0 - intercept) / (slope - s0)
                if start <= x0:
                    stack.pop()
                    start = -np.inf
                else:
                    break
            stack.append((slope, intercept, start))
        return stack


def zero_curve(lo: float, hi: float) -> PiecewiseLinearCurve:
    return PiecewiseLinearCurve(segments=((0.0, 0.0),), domain=(lo, hi))


def curve_from_points(points) -> PiecewiseLinearCurve:
    """Interpolate (x, value) samples; slopes must be nondecreasing.

    A slope drop beyond 1e-9 signals a malformed (non-convex) bid and is
    rejected. Near-duplicate slopes merge into a single segment.
    """
    pts = [(float(x), float(v)) for x, v in points]
    if len(pts) < 2:
        raise NonConvexPointsError("need at least two points")
    xs = [x for x, _ in pts]
    if any(x2 - x1 <= 0 for x1, x2 in zip(xs, xs[1:])):
        raise NonConvexPointsError("abscissae must be strictly increasing")
    segments = []
    prev_slope = -np.inf
    for (x1, v1), (x2, v2) in zip(pts, pts[1:]):
        slope = (v2 - v1) / (x2 - x1)
        if slope < prev_slope - 1e-9:
            raise NonConvexPointsError(
                f"slope decreases from {prev_slope:.12g} to {slope:.12g} at x={x1:.12g}"
            )
        slope = max(slope, prev_slope)
        segments.append((slope, v1 - slope * x1))
        prev_slope = slope
    return PiecewiseLinearCurve(segments=tuple(segments), domain=(xs[0], xs[-1]))


def sum_curves(a: PiecewiseLinearCurve, b: PiecewiseLinearCurve) -> PiecewiseLinearCurve:
    """Pointwise sum on the intersected domain (exact: kink-union sampling)."""
    lo = max(a.domain[0], b.domain[0])
    hi = min(a.domain[1], b.domain[1])
    if not lo < hi:
        raise ValueError("curve domains do not overlap")
    kinks = sorted({lo, hi, *(x for x in a.breakpoints() + b.breakpoints() if lo < x < hi)})
    return curve_from_points([(x, a.value(x) + b.value(x)) for x in kinks])


@dataclass(frozen=True)
class Generator:
    name: str
    bus: int
    fuel_curve: PiecewiseLinearCurve
    emission_curve: PiecewiseLinearCurve
    p_min: float
    p_max: float
    is_renewable: bool = False


@dataclass(frozen=True)
class StorageUnit:
    name: str
    bus: int
    p_max: float
    eta_c: float
    eta_d: float
    e_min: float
    e_max: float
    e_init: float
    gamma_lo: float
    gamma_hi: float
    n_segments: int = 50


@dataclass(frozen=True)
class Bus:
    id: int
    loss_sensitivity: float = 0.0


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    capacity: float
    reactance: float | None = None
    ptdf_row: tuple[float, ...] | None = None
    name: str = ""


def topology_problems(branches, bus_ids) -> list[str]:
    """Why reactances cannot give these branches' PTDF: each branch without a
    positive reactance, and the buses no branch reaches. Every branch endpoint
    must be one of ``bus_ids``."""
    problems = [f"branch {br.from_bus}-{br.to_bus} needs a positive reactance"
                for br in branches if br.reactance is None or br.reactance <= 0]
    adjacency: dict[int, set[int]] = {b: set() for b in bus_ids}
    for br in branches:
        adjacency[br.from_bus].add(br.to_bus)
        adjacency[br.to_bus].add(br.from_bus)
    seen = set(bus_ids[:1])
    stack = list(bus_ids[:1])
    while stack:
        for nxt in adjacency[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    if len(seen) != len(bus_ids):
        problems.append(f"graph is disconnected: {len(bus_ids) - len(seen)} unreachable buses")
    return problems


def compute_ptdf(branches, bus_ids, slack_bus) -> np.ndarray:
    """Branch-by-bus injection sensitivities from reactances.

    Flow on branch l is (theta_from - theta_to)/x_l with the slack bus
    absorbing every injection, so the slack column is identically zero.
    """
    bus_ids = list(bus_ids)
    index = {b: k for k, b in enumerate(bus_ids)}
    n = len(bus_ids)
    if slack_bus not in index:
        raise TopologyError(f"slack bus {slack_bus} not in bus list")
    problems = topology_problems(branches, bus_ids)  # before any linear algebra
    if problems:
        raise TopologyError("; ".join(problems))

    b_mat = np.zeros((n, n))
    flow_sens = np.zeros((len(branches), n))
    for l, br in enumerate(branches):
        i, j = index[br.from_bus], index[br.to_bus]
        suscept = 1.0 / br.reactance
        b_mat[i, i] += suscept
        b_mat[j, j] += suscept
        b_mat[i, j] -= suscept
        b_mat[j, i] -= suscept
        flow_sens[l, i] += suscept
        flow_sens[l, j] -= suscept
    keep = [k for k in range(n) if k != index[slack_bus]]
    reduced = b_mat[np.ix_(keep, keep)]
    angles = np.linalg.solve(reduced, flow_sens[:, keep].T)  # (n-1, n_branch)
    ptdf = np.zeros((len(branches), n))
    ptdf[:, keep] = angles.T
    return ptdf


@dataclass
class NetworkCase:
    buses: list[Bus]
    branches: list[Branch]
    generators: list[Generator]
    storages: list[StorageUnit]
    load_series: np.ndarray  # (T, n_buses) MW
    renewable_series: dict[str, np.ndarray] = field(default_factory=dict)
    tau: float = 1.0
    kappa: float = 0.05
    epsilon: float = 1e-4
    slack_bus: int | None = None
    loss_offset: float = 0.0
    loss_direction_dependent: bool = False
    name: str = "case"

    def __post_init__(self) -> None:
        self.load_series = np.atleast_2d(np.asarray(self.load_series, dtype=float))
        self.renewable_series = {
            k: np.asarray(v, dtype=float).ravel() for k, v in self.renewable_series.items()
        }
        if self.slack_bus is None:
            self.slack_bus = self.buses[0].id

    @property
    def bus_ids(self) -> list[int]:
        return [b.id for b in self.buses]

    @cached_property
    def bus_index(self) -> dict[int, int]:
        return {b.id: k for k, b in enumerate(self.buses)}

    @property
    def n_buses(self) -> int:
        return len(self.buses)

    @property
    def horizon(self) -> int:
        return self.load_series.shape[0]

    def demand(self, period: int) -> np.ndarray:
        return self.load_series[period]

    def renewable_bound(self, gen: Generator, period: int) -> float:
        series = self.renewable_series.get(gen.name)
        if series is None:
            return gen.p_max
        return float(min(gen.p_max, series[period]))

    def loss_vector(self) -> np.ndarray:
        return np.array([b.loss_sensitivity for b in self.buses])

    @cached_property
    def ptdf(self) -> np.ndarray:
        if not self.branches:
            return np.zeros((0, self.n_buses))
        explicit = [br.ptdf_row is not None for br in self.branches]
        if all(explicit):
            return np.array([br.ptdf_row for br in self.branches], dtype=float)
        computed = compute_ptdf(self.branches, self.bus_ids, self.slack_bus)
        if any(explicit):  # file-supplied rows take precedence over computed ones
            for l, br in enumerate(self.branches):
                if br.ptdf_row is not None:
                    computed[l] = np.asarray(br.ptdf_row, dtype=float)
        return computed

    def branch_capacities(self) -> np.ndarray:
        return np.array([br.capacity for br in self.branches])


def _curve_covers(curve: PiecewiseLinearCurve, lo: float, hi: float) -> bool:
    return curve.domain[0] <= lo + 1e-9 and curve.domain[1] >= hi - 1e-9


def _non_finite(tag: str, obj, names) -> list[str]:
    """A problem for each named number of ``obj`` that is NaN or infinite."""
    return [f"{tag}: {name} must be finite" for name in names
            if getattr(obj, name) is not None
            and not np.isfinite(np.asarray(getattr(obj, name), dtype=float)).all()]


def validate_case(case: NetworkCase) -> list[str]:
    """Collect every invariant violation; an empty list means a clean case."""
    # the LPs are built from these numbers and box every column with them, so
    # none may be NaN or infinite
    problems = _non_finite("market", case, ("tau", "kappa", "epsilon", "loss_offset"))
    problems += _non_finite("series", case, ("load_series",))
    for name, series in case.renewable_series.items():
        if not np.isfinite(series).all():
            problems.append(f"series: renewable_series[{name}] must be finite")
    for b in case.buses:
        problems += _non_finite(f"bus {b.id}", b, ("loss_sensitivity",))
    for br in case.branches:
        problems += _non_finite(f"branch {br.from_bus}-{br.to_bus}", br,
                                ("capacity", "reactance", "ptdf_row"))
    for g in case.generators:
        problems += _non_finite(f"generator {g.name}", g, ("p_min", "p_max"))
        for curve in ("fuel_curve", "emission_curve"):
            problems += _non_finite(f"generator {g.name} {curve}", getattr(g, curve), ("domain",))
    for s in case.storages:
        problems += _non_finite(f"storage {s.name}", s, (
            "p_max", "eta_c", "eta_d", "e_min", "e_max", "e_init", "gamma_lo", "gamma_hi"))
    ids = case.bus_ids
    if len(set(ids)) != len(ids):
        problems.append("buses: duplicate bus ids")
    known = set(ids)
    if case.slack_bus not in known:
        problems.append(f"slack_bus: {case.slack_bus} is not a bus")
    endpoints_known = True
    for br in case.branches:
        if br.from_bus not in known or br.to_bus not in known:
            problems.append(f"branch {br.from_bus}-{br.to_bus}: endpoint is not a bus")
            endpoints_known = False
        if br.capacity <= 0:
            problems.append(f"branch {br.from_bus}-{br.to_bus}: capacity must be > 0")
        if br.ptdf_row is not None and len(br.ptdf_row) != len(ids):
            problems.append(f"branch {br.from_bus}-{br.to_bus}: ptdf row length != bus count")
    # a branch without a ptdf row has its row computed, from every branch's
    # reactance, and a network without branches reaches no bus beyond the
    # first; duplicate bus ids are reported above
    if endpoints_known and len(known) == len(ids) and (not case.branches or any(
            br.ptdf_row is None for br in case.branches)):
        problems += topology_problems(case.branches, ids)
    if case.load_series.shape[1] != len(ids):
        problems.append("load_series: column count != bus count")
    horizon = case.horizon
    for name, series in case.renewable_series.items():
        if series.shape[0] != horizon:
            problems.append(f"renewable_series[{name}]: length != load horizon {horizon}")
    if case.kappa < 0:
        problems.append("kappa: must be >= 0")
    if case.epsilon <= 0:
        problems.append("epsilon: must be > 0")
    if case.tau <= 0:
        problems.append("tau: must be > 0")
    names = [g.name for g in case.generators] + [s.name for s in case.storages]
    if len(set(names)) != len(names):
        problems.append("agents: duplicate names")
    for g in case.generators:
        tag = f"generator {g.name}"
        if g.bus not in known:
            problems.append(f"{tag}: bus {g.bus} is not a bus")
        if g.p_min > g.p_max:
            problems.append(f"{tag}: p_min exceeds p_max")
        if not _curve_covers(g.fuel_curve, g.p_min, g.p_max):
            problems.append(f"{tag}: fuel curve domain does not cover [p_min, p_max]")
        if not _curve_covers(g.emission_curve, g.p_min, g.p_max):
            problems.append(f"{tag}: emission curve domain does not cover [p_min, p_max]")
        lo_val = min(g.emission_curve.value(x) for x in
                     [g.p_min, g.p_max] + [x for x in g.emission_curve.breakpoints()
                                           if g.p_min < x < g.p_max])
        if lo_val < -1e-9:
            problems.append(f"{tag}: emission curve goes negative on its operating range")
        if g.is_renewable and any(abs(s) > 1e-12 or abs(b) > 1e-12
                                  for s, b in g.emission_curve.segments):
            problems.append(f"{tag}: renewable plants must have a zero emission curve")
    for s in case.storages:
        tag = f"storage {s.name}"
        if s.bus not in known:
            problems.append(f"{tag}: bus {s.bus} is not a bus")
        if not (0 < s.eta_c <= 1 and 0 < s.eta_d <= 1):
            problems.append(f"{tag}: efficiencies must lie in (0, 1]")
        if not s.e_min < s.e_max:
            problems.append(f"{tag}: e_min must be < e_max")
        if not s.e_min <= s.e_init <= s.e_max:
            problems.append(f"{tag}: e_init outside [e_min, e_max]")
        if s.p_max <= 0:
            problems.append(f"{tag}: p_max must be > 0")
        if s.gamma_lo < 0:
            problems.append(f"{tag}: gamma_lo must be >= 0")
        if not s.gamma_lo < s.gamma_hi * s.eta_c * s.eta_d:
            problems.append(
                f"{tag}: needs gamma_lo < gamma_hi*eta_c*eta_d "
                "(price range must leave a profitable round trip)"
            )
        if s.n_segments < 2:
            problems.append(f"{tag}: n_segments must be >= 2")
    return problems
