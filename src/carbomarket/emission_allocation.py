"""Emission cost allocation by exact ray integration of the dispatch LP.

Half of each period's emission cost is charged to loads and storages in
proportion to the integral of the marginal emission cost along the ray from
zero net demand to the realized net demand.  On each optimal-basis critical
region the emission cost is affine in demand, so the integral is a finite sum:
walk the ray region by region, take the gradient from the basis, and weight it
by the region's length.  The result is a per-bus price in $/kWh.

When the dispatch problem is infeasible at zero demand (minimum-output floors),
the walk starts from the closest feasible point on the ray instead and the
emission cost there is split proportionally to net demand, which adds the same
price increment at every bus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor  # noqa: F401  unused; perfbench/tracing.py wraps it

from .lp_core import (
    EmptyIntervalError,
    LpProblem,
    LpSolution,
    LpStatus,
    feasibility_interval,
    solve,
    solve_with_basis,
)
from .market_clearing import AssembledMarket, ClearingResult, assemble_market_lp
from .network_model import NetworkCase


# probe step of the sweep along the ray, as a share of the ray
SWEEP_STEP = 0.002


class InfeasibleAtOriginError(RuntimeError):
    """Zero demand is undispatchable; integrate from a feasible start instead."""


class NonProgressError(RuntimeError):
    """The sweep failed to advance past a degenerate breakpoint."""


@dataclass
class CompactAllocationForm:
    a: np.ndarray
    c: np.ndarray
    g: np.ndarray
    h: np.ndarray
    k: np.ndarray
    upper: np.ndarray
    # emission cost E(y) = k.x + k_offset
    k_offset: float
    net_demand_star: np.ndarray
    market: AssembledMarket
    tau: float
    demand_star: np.ndarray
    storage_power: dict[str, float]
    storage_bus: dict[str, int]


@dataclass
class FeasibleStart:
    zeta: float
    storage_power: dict[str, float]
    demand: np.ndarray
    emission_cost: float
    storage_share: dict[str, float]
    load_share: np.ndarray
    price_addon: float
    # the dispatch LP solved at zeta; the sweep starts from its basis
    solution: LpSolution


@dataclass
class AllocationResult:
    psi: np.ndarray
    storage_cost: dict[str, float]
    load_cost: np.ndarray
    breakpoints: list[tuple[float, tuple[int, ...]]]
    start_point: FeasibleStart | None
    cost_sharing_error: float
    emission_cost_at_star: float
    emission_cost_at_start: float
    iterations: int


def build_compact_form(
    case: NetworkCase, clearing: ClearingResult, period: int = 0,
) -> CompactAllocationForm:
    bids = clearing.bids
    demand = case.demand(period) if bids.demand is None else bids.demand
    net_demand = demand.astype(float).copy()
    storage_power: dict[str, float] = {}
    storage_bus: dict[str, int] = {}
    generators = []
    for idx, agent in enumerate(bids.agents):
        if agent.is_storage:
            if agent.bus not in case.bus_index:
                raise ValueError(f"storage {agent.name} sits on unknown bus {agent.bus}")
            p = float(clearing.dispatch[idx])
            storage_power[agent.name] = p
            storage_bus[agent.name] = case.bus_index[agent.bus]
            net_demand[case.bus_index[agent.bus]] -= p
        else:
            generators.append(agent)
    market = assemble_market_lp(case, generators, net_demand, loss=clearing.loss)
    return CompactAllocationForm(
        a=market.problem.constraint_matrix, c=market.problem.cost,
        g=market.g, h=market.h, k=market.k,
        upper=market.problem.upper, k_offset=market.k_offset,
        net_demand_star=net_demand, market=market, tau=case.tau,
        demand_star=demand, storage_power=storage_power, storage_bus=storage_bus,
    )


def _problem_at(form: CompactAllocationForm, y: float) -> LpProblem:
    rhs = form.g @ (y * form.net_demand_star) + form.h
    return LpProblem(cost=form.c, constraint_matrix=form.a, rhs=rhs, upper=form.upper)


def partial_derivative(form: CompactAllocationForm, sol: LpSolution) -> np.ndarray:
    """Marginal emission cost per bus, in $ per MW of net demand, on sol's basis."""
    return (sol.basis_inverse.T @ form.k[sol.basis]) @ form.g


def _emission_cost(form: CompactAllocationForm, y: float) -> tuple[float, LpSolution]:
    sol = solve(_problem_at(form, y))
    if sol.status is not LpStatus.OPTIMAL:
        raise InfeasibleAtOriginError(
            f"dispatch infeasible at ray point y={y:g}; use feasible_start"
        )
    return float(form.k @ sol.primal) + form.k_offset, sol


def aumann_shapley_prices(
    form: CompactAllocationForm,
    start: FeasibleStart | None = None,
) -> AllocationResult:
    tau = form.tau
    if start is None:
        y0 = 0.0
        e_start, sol = _emission_cost(form, y0)
    else:
        y0, e_start, sol = start.zeta, start.emission_cost, start.solution

    ray = form.net_demand_star
    grad_accum = np.zeros(form.g.shape[1])
    breakpoints: list[tuple[float, tuple[int, ...]]] = []
    y_prev = y0
    iterations = 0
    max_iter = 16 * int(np.ceil(1.0 / SWEEP_STEP)) + 400
    # E at the last region's probe, and its slope along the ray there
    e_probe, y_probe, slope = e_start, y0, 0.0
    step = SWEEP_STEP
    while y_prev < 1.0 - 1e-12:
        iterations += 1
        if iterations > max_iter:
            raise NonProgressError(f"sweep exceeded {max_iter} iterations")
        probe = min(y_prev + step, 1.0)
        sol = solve_with_basis(_problem_at(form, probe), sol.basis, sol.at_upper)
        if sol.status is not LpStatus.OPTIMAL:
            raise NonProgressError(f"dispatch infeasible at ray point y={probe:g}")
        try:
            lo, hi = feasibility_interval(sol, form.a, form.g, form.h, ray, form.upper)
        except EmptyIntervalError:
            lo = hi = probe  # basis optimal only at the probe point itself
        y_next = min(hi, 1.0)
        # the gradient is exact only where this basis stays feasible, so its
        # region must reach back to the frontier; a detached region means the
        # probe jumped over a narrower one, and the step shrinks onto it
        forced = step < 1e-12
        if not forced and (lo > y_prev + 1e-10 or y_next <= y_prev + 1e-12):
            step /= 2.0
            continue
        if y_next <= y_prev + 1e-15:
            raise NonProgressError(f"no progress past y={y_prev:g}")
        grad = partial_derivative(form, sol)
        grad_accum += (y_next - y_prev) * grad
        breakpoints.append((float(y_next), tuple(int(i) for i in sol.basis)))
        e_probe = float(form.k @ sol.primal) + form.k_offset
        y_probe, slope = probe, float(grad @ ray)
        y_prev = y_next
        step = SWEEP_STEP

    # E is affine on the last region, which reaches y = 1
    e_star = e_probe + (1.0 - y_probe) * slope
    allocated = float(grad_accum @ ray)
    sharing_err = abs(allocated - (e_star - e_start)) / max(abs(e_star), 1e-12)

    psi = grad_accum / (tau * 1000.0)
    if start is not None:
        psi = psi + start.price_addon
    load_cost = psi * form.demand_star * tau * 1000.0
    storage_cost = {
        name: float(-psi[form.storage_bus[name]] * p * tau * 1000.0)
        for name, p in form.storage_power.items()
    }
    return AllocationResult(
        psi=psi, storage_cost=storage_cost, load_cost=load_cost,
        breakpoints=breakpoints, start_point=start,
        cost_sharing_error=float(sharing_err),
        emission_cost_at_star=e_star, emission_cost_at_start=e_start,
        iterations=iterations,
    )


def feasible_start(case: NetworkCase, form: CompactAllocationForm) -> FeasibleStart:
    """Closest feasible point to the origin on the ray, with its proportional split."""
    n = form.a.shape[1]
    ray = form.g @ form.net_demand_star
    # min zeta s.t. A x - zeta * ray = H, 0 <= x <= upper, 0 <= zeta <= 1
    cost = np.zeros(n + 1)
    cost[n] = 1.0
    sol = solve(LpProblem(cost=cost, constraint_matrix=np.column_stack([form.a, -ray]),
                          rhs=form.h, upper=np.append(form.upper, 1.0)))
    if sol.status is not LpStatus.OPTIMAL:
        raise NonProgressError("no feasible point on the demand ray")
    zeta = float(sol.primal[n])
    try:
        e0, start_sol = _emission_cost(form, zeta)
    except InfeasibleAtOriginError:
        raise NonProgressError("start point infeasible despite feasible_start")
    d0 = zeta * form.demand_star
    p0 = {name: zeta * p for name, p in form.storage_power.items()}
    # proportional shares D_i^0 E^0 / (zeta sum(net)) reduce to D_i* E^0 / sum(net)
    total_net = float(form.net_demand_star.sum())
    if abs(total_net) < 1e-12:
        load_share = np.zeros_like(d0)
        storage_share = {name: 0.0 for name in p0}
        addon = 0.0
    else:
        load_share = form.demand_star * e0 / total_net
        storage_share = {
            name: -p * e0 / total_net for name, p in form.storage_power.items()
        }
        addon = e0 / (form.tau * 1000.0 * total_net)
    return FeasibleStart(
        zeta=zeta, storage_power=p0, demand=d0, emission_cost=e0,
        storage_share=storage_share, load_share=load_share, price_addon=addon,
        solution=start_sol,
    )


def allocate_period(
    case: NetworkCase, clearing: ClearingResult, period: int = 0,
) -> AllocationResult:
    """Build the compact form and run the sweep, falling back to a feasible start."""
    form = build_compact_form(case, clearing, period)
    try:
        return aumann_shapley_prices(form)
    except InfeasibleAtOriginError:
        return aumann_shapley_prices(form, start=feasible_start(case, form))
