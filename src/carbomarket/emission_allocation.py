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

from dataclasses import dataclass, replace

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
from .market_clearing import AssembledMarket, BidSet, ClearingResult, assemble_clearing_lp
from .network_model import NetworkCase


# probe step of the sweep along the ray, as a share of the ray
SWEEP_STEP = 0.002


class InfeasibleAtOriginError(RuntimeError):
    """Zero demand is undispatchable; integrate from a feasible start instead."""


class NonProgressError(RuntimeError):
    """The sweep failed to advance past a degenerate breakpoint."""


@dataclass
class FeasibleStart:
    zeta: float
    emission_cost: float
    # $/kWh at every bus: the emission cost at zeta split in proportion to net demand
    price_addon: float
    # the dispatch LP solved at zeta; the sweep starts from its basis
    solution: LpSolution


@dataclass
class AllocationResult:
    psi: np.ndarray
    breakpoints: list[tuple[float, tuple[int, ...]]]
    start_point: FeasibleStart | None
    cost_sharing_error: float
    emission_cost_at_star: float
    emission_cost_at_start: float
    iterations: int


def build_compact_form(case: NetworkCase, clearing: ClearingResult) -> AssembledMarket:
    """The clearing LP of the plants' bids at net demand: each storage's
    cleared power moves into its bus's demand, and the loss vector is the
    one the clearing converged to. Its ``demand`` is the sweep's ray."""
    bids = clearing.bids
    net_demand = bids.demand.copy()
    plants = []
    for idx, agent in enumerate(bids.agents):
        if agent.is_storage:
            net_demand[case.bus_index[agent.bus]] -= float(clearing.dispatch[idx])
        else:
            plants.append(agent)
    _, form = assemble_clearing_lp(case, BidSet(agents=plants, demand=net_demand),
                                   loss=clearing.loss)
    return form


def _problem_at(form: AssembledMarket, y: float) -> LpProblem:
    return replace(form.problem, rhs=form.g @ (y * form.demand) + form.h)


def partial_derivative(form: AssembledMarket, sol: LpSolution) -> np.ndarray:
    """Marginal emission cost per bus, in $ per MW of net demand, on sol's basis."""
    return (sol.basis_inverse.T @ form.k[sol.basis]) @ form.g


def _emission_cost(form: AssembledMarket, y: float) -> tuple[float, LpSolution]:
    sol = solve(_problem_at(form, y))
    if sol.status is not LpStatus.OPTIMAL:
        raise InfeasibleAtOriginError(
            f"dispatch infeasible at ray point y={y:g}; use feasible_start"
        )
    return float(form.k @ sol.primal) + form.k_offset, sol


def aumann_shapley_prices(
    form: AssembledMarket,
    start: FeasibleStart | None = None,
) -> AllocationResult:
    if start is None:
        y0 = 0.0
        e_start, sol = _emission_cost(form, y0)
    else:
        y0, e_start, sol = start.zeta, start.emission_cost, start.solution

    ray = form.demand
    a, upper = form.problem.constraint_matrix, form.problem.upper
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
            lo, hi = feasibility_interval(sol, a, form.g, form.h, ray, upper)
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

    psi = grad_accum / (form.tau * 1000.0)
    if start is not None:
        psi = psi + start.price_addon
    return AllocationResult(
        psi=psi, breakpoints=breakpoints, start_point=start,
        cost_sharing_error=float(sharing_err),
        emission_cost_at_star=e_star, emission_cost_at_start=e_start,
        iterations=iterations,
    )


def feasible_start(form: AssembledMarket) -> FeasibleStart:
    """Closest feasible point to the origin on the ray, with its proportional split."""
    problem = form.problem
    n = problem.variable_count
    ray = form.g @ form.demand
    # min zeta s.t. A x - zeta * ray = H, 0 <= x <= upper, 0 <= zeta <= 1
    cost = np.zeros(n + 1)
    cost[n] = 1.0
    sol = solve(LpProblem(cost=cost,
                          constraint_matrix=np.column_stack([problem.constraint_matrix, -ray]),
                          rhs=form.h, upper=np.append(problem.upper, 1.0)))
    if sol.status is not LpStatus.OPTIMAL:
        raise NonProgressError("no feasible point on the demand ray")
    zeta = float(sol.primal[n])
    try:
        e0, start_sol = _emission_cost(form, zeta)
    except InfeasibleAtOriginError:
        raise NonProgressError("start point infeasible despite feasible_start")
    # proportional shares D_i^0 E^0 / (zeta sum(net)) reduce to D_i* E^0 / sum(net),
    # the same price at every bus
    total_net = float(form.demand.sum())
    addon = 0.0 if abs(total_net) < 1e-12 else e0 / (form.tau * 1000.0 * total_net)
    return FeasibleStart(zeta=zeta, emission_cost=e0, price_addon=addon, solution=start_sol)


def allocate_period(case: NetworkCase, clearing: ClearingResult) -> AllocationResult:
    """Build the compact form and run the sweep, falling back to a feasible start."""
    form = build_compact_form(case, clearing)
    try:
        return aumann_shapley_prices(form)
    except InfeasibleAtOriginError:
        return aumann_shapley_prices(form, start=feasible_start(form))
