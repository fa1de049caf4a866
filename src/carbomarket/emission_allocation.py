"""Emission cost allocation by exact ray integration of the dispatch LP.

Half of each period's emission cost is charged to loads and storages in
proportion to the integral of the marginal emission cost along the ray from
zero net demand to the realized net demand.  On each optimal-basis critical
region the emission cost is affine in demand, so the integral is a finite sum:
walk the ray region by region, take the gradient from the basis, and weight it
by the region's length.  The result is a per-bus price in $/kWh.

The dispatch LP is the clearing's own, cut to the plants' columns and the
branch slacks (``build_compact_form``), with each storage's cleared power
moved into its bus's demand.  The walk starts at the cleared point y = 1,
solved from the merit-order crash basis (Bixby 1992), and goes down the ray
by the parametric-rhs step of Gal & Nedoma (1972): read the region's
interval off its basis, then solve just below that interval from the same
basis and inverse to find the next region.

When p_min floors leave zero demand undispatchable, the walk ends at zeta,
where the probe below the last region is infeasible, and the emission cost
there is split in proportion to net demand: the same price at every bus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lp_core import (
    EmptyIntervalError,
    LpProblem,
    LpSolution,
    LpStatus,
    feasibility_interval,
    solve_with_basis,
)
from .lp_core import lu_factor, solve  # noqa: F401  unused; perfbench/tracing.py wraps them
from .market_clearing import AssembledMarket, ClearingResult, _merit_order_start, _rhs_offset
from .network_model import NetworkCase


# how far below a region's lower end the sweep solves for the next region,
# as a share of the ray
PROBE = 1e-7


class NonProgressError(RuntimeError):
    """The sweep failed to advance past a degenerate breakpoint."""


@dataclass
class FeasibleStart:
    zeta: float
    emission_cost: float
    # $/kWh at every bus: the emission cost at zeta split in proportion to net demand
    price_addon: float


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
    """The clearing LP of the plants' bids at net demand, cut from
    ``clearing.form``: the plants' segment columns and the branch slacks,
    with each storage's cleared power moved into its bus's demand. Every
    array equals what ``assemble_clearing_lp`` gives for those plants, that
    net demand and the loss vector the clearing converged to; only the rhs
    and the per-agent parts are recomputed. Its ``demand`` is the sweep's ray."""
    full, p = clearing.form, clearing.dispatch
    net_demand = clearing.bids.demand - full.injection(np.where(full.storage, p, 0.0))
    plants = np.flatnonzero(~full.storage)
    renumber = np.full(full.n_agents, -1)
    renumber[plants] = np.arange(plants.size)
    is_plant = renumber[full.column_agent] >= 0
    cols = np.concatenate([np.flatnonzero(is_plant),
                           full.column_agent.size + np.arange(full.n_branches)])

    agent_bus = full.agent_bus[plants]
    p_shift = full.p_shift[plants]
    h = _rhs_offset(case, full.loss[agent_bus], case.ptdf[:, agent_bus], p_shift,
                    case.branch_capacities())
    emission_at_min = full.emission_at_min[plants]
    problem = full.problem
    return AssembledMarket(
        problem=LpProblem(cost=problem.cost[cols], rhs=full.g @ net_demand + h,
                          constraint_matrix=problem.constraint_matrix[:, cols],
                          upper=problem.upper[cols]),
        g=full.g, h=h, k=full.k[cols],
        k_offset=case.kappa * case.tau / 2.0 * float(emission_at_min.sum()),
        demand=net_demand, tau=full.tau, n_agents=plants.size, n_branches=full.n_branches,
        p_shift=p_shift, column_agent=renumber[full.column_agent[is_plant]],
        cost_slope=full.cost_slope[is_plant], emission_slope=full.emission_slope[is_plant],
        cost_at_min=full.cost_at_min[plants], emission_at_min=emission_at_min, loss=full.loss,
        column_keys=tuple(full.column_keys[j] for j in cols),
        agent_bus=agent_bus, storage=full.storage[plants],
    )


def _problem_at(form: AssembledMarket, y: float) -> LpProblem:
    return form.problem.with_rhs(form.g @ (y * form.demand) + form.h)


def partial_derivative(form: AssembledMarket, sol: LpSolution) -> np.ndarray:
    """Marginal emission cost per bus, in $ per MW of net demand, on sol's basis."""
    return (sol.basis_inverse.T @ form.k[sol.basis]) @ form.g


def aumann_shapley_prices(form: AssembledMarket) -> AllocationResult:
    """Walk the ray down from the cleared point y = 1, one region at a time.

    A dual-simplex solve at lo - PROBE, from a region's basis and inverse,
    finds the region below. The edge between two regions is the lower one's
    hi, clipped to the upper one's top; a region narrower than PROBE can be
    stepped over, and its upper neighbour's gradient then covers it. The walk
    ends at y = 0, or at zeta = lo where the probe below lo is infeasible.
    When no plant has a segment column, the balance row is all zero and
    holds only at the cleared point: zeta = 1."""
    problem = _problem_at(form, 1.0)
    crash = _merit_order_start(problem)
    if crash is None:
        start = feasible_start(form, 1.0, form.k_offset)
        return AllocationResult(
            psi=np.full(form.g.shape[1], start.price_addon), breakpoints=[], start_point=start,
            cost_sharing_error=0.0, emission_cost_at_star=form.k_offset,
            emission_cost_at_start=form.k_offset, iterations=0)
    sol = solve_with_basis(problem, *crash)
    if sol.status is not LpStatus.OPTIMAL:
        raise NonProgressError("dispatch infeasible at the cleared point y=1")
    e_star = float(form.k @ sol.primal) + form.k_offset

    y_sol, edges, grads, bases = 1.0, [1.0], [], []
    while True:
        try:
            lo, hi = feasibility_interval(sol, form.problem.constraint_matrix, form.g, form.h,
                                          form.demand, form.problem.upper)
        except EmptyIntervalError as exc:
            raise NonProgressError(f"no region holds the basis solved at y={y_sol:g}") from exc
        if grads:
            if lo >= lo_above:
                raise NonProgressError(f"no progress below y={lo_above:g}")
            edges.append(min(hi, edges[-1]))
        grads.append(partial_derivative(form, sol))
        bases.append(tuple(sol.basis.tolist()))
        if lo <= 0.0:
            break
        probe = max(lo - PROBE, 0.0)
        below = solve_with_basis(_problem_at(form, probe), sol.basis, sol.at_upper,
                                 basis_inverse=sol.basis_inverse)
        if below.status is not LpStatus.OPTIMAL:
            break
        sol, y_sol, lo_above = below, probe, lo
    zeta = max(lo, 0.0)
    edges.append(zeta)
    widths = np.maximum(-np.diff(edges), 0.0)
    grad_accum = widths @ np.array(grads)

    # E is affine on the last region, which reaches down to zeta
    e_start = (float(form.k @ sol.primal) + form.k_offset
               + (zeta - y_sol) * float(grads[-1] @ form.demand))
    sharing = abs(float(grad_accum @ form.demand) - (e_star - e_start)) / max(abs(e_star), 1e-12)
    start = feasible_start(form, zeta, e_start) if zeta > 0.0 else None
    return AllocationResult(
        psi=grad_accum / (form.tau * 1000.0) + (start.price_addon if start else 0.0),
        breakpoints=[(y, basis) for y, w, basis in zip(edges, widths, bases) if w > 0.0][::-1],
        start_point=start,
        cost_sharing_error=sharing,
        emission_cost_at_star=e_star, emission_cost_at_start=e_start, iterations=len(grads),
    )


def feasible_start(form: AssembledMarket, zeta: float, emission_cost: float) -> FeasibleStart:
    """The sweep's start zeta > 0, with the emission cost there split in proportion
    to net demand: D_i E(zeta) / sum(net) at bus i, the same price at every bus."""
    total_net = float(form.demand.sum())
    addon = 0.0 if abs(total_net) < 1e-12 else emission_cost / (form.tau * 1000.0 * total_net)
    return FeasibleStart(zeta=zeta, emission_cost=emission_cost, price_addon=addon)


def allocate_period(case: NetworkCase, clearing: ClearingResult) -> AllocationResult:
    """Build the compact form and run the sweep."""
    return aumann_shapley_prices(build_compact_form(case, clearing))
