"""Carbon-emission-flow baseline.

Attaches emissions to the cleared power flows: every bus mixes its inflows
(local generation plus line imports) and sends power out at one uniform
intensity.  Solved as a linear system over bus intensities so cyclic flow
patterns need no special casing.

Units: intensities are kgCO2/kWh, powers MW.  The 1000s cancel
inside the nodal balance, so the system is assembled in composite units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .market_clearing import ClearingResult
from .network_model import NetworkCase

FLOW_TOL = 1e-9


class CefSingularError(RuntimeError):
    """The intensity balance system is singular beyond zero-throughput buses."""


@dataclass
class FlowGraph:
    bus_ids: list[int]
    edges: list[tuple[int, int, float]]  # (from position, to position, MW > 0)
    generation: list[list[tuple[float, float]]]  # per bus: (MW, kgCO2/kWh)
    demand: np.ndarray  # effective withdrawal per bus, MW

    @property
    def n_buses(self) -> int:
        return len(self.bus_ids)

    def throughput(self) -> np.ndarray:
        """Total inflow (local generation plus imports) per bus."""
        total = np.array([sum(p for p, _ in gens) for gens in self.generation])
        for _, j, p in self.edges:
            total[j] += p
        return total

    def conservation_residual(self) -> np.ndarray:
        outflow = self.demand.astype(float).copy()
        for i, _, p in self.edges:
            outflow[i] += p
        return self.throughput() - outflow

    @classmethod
    def from_clearing(cls, case: NetworkCase, clearing: ClearingResult) -> "FlowGraph":
        bus_index = case.bus_index
        n = case.n_buses
        bids = clearing.bids
        demand = bids.demand.copy()
        generation: list[list[tuple[float, float]]] = [[] for _ in range(n)]
        for idx, agent in enumerate(bids.agents):
            p = float(clearing.dispatch[idx])
            pos = bus_index[agent.bus]
            if agent.is_storage:
                if p < -FLOW_TOL:
                    demand[pos] += -p  # charging behaves like extra load
                elif p > FLOW_TOL:
                    generation[pos].append((p, 0.0))  # discharge carries no emission
            elif p > FLOW_TOL:
                emission = float(clearing.emission[idx])  # kg/h
                generation[pos].append((p, emission / (1000.0 * p)))
        edges = []
        for l, br in enumerate(case.branches):
            f = float(clearing.flows[l])
            if f > FLOW_TOL:
                edges.append((bus_index[br.from_bus], bus_index[br.to_bus], f))
            elif f < -FLOW_TOL:
                edges.append((bus_index[br.to_bus], bus_index[br.from_bus], -f))
        graph = cls(bus_ids=list(case.bus_ids), edges=edges,
                    generation=generation, demand=demand)
        # fold any loss residual into the withdrawals so flows conserve exactly
        residual = graph.conservation_residual()
        graph.demand = graph.demand + residual
        if np.any(graph.demand < -1e-6):
            worst = int(np.argmin(graph.demand))
            raise CefSingularError(
                f"negative effective withdrawal {graph.demand[worst]:.3g} MW "
                f"at bus {graph.bus_ids[worst]}"
            )
        graph.demand = np.maximum(graph.demand, 0.0)
        return graph


def cef_solve(graph: FlowGraph) -> np.ndarray:
    """Uniform outflow intensity per bus, zero at zero-throughput buses."""
    n = graph.n_buses
    through = graph.throughput()
    emitted = np.array(
        [sum(p * rate for p, rate in gens) for gens in graph.generation]
    )
    live = through > FLOW_TOL
    rho = np.zeros(n)
    if not live.any():
        return rho
    m = np.diag(through[live].astype(float))
    pos = {b: k for k, b in enumerate(np.flatnonzero(live))}
    for i, j, p in graph.edges:
        if live[j] and live[i]:
            m[pos[j], pos[i]] -= p
    try:
        sol = np.linalg.solve(m, emitted[live])
    except np.linalg.LinAlgError as exc:
        raise CefSingularError(f"intensity system singular: {exc}") from exc
    if not np.all(np.isfinite(sol)):
        raise CefSingularError("intensity system produced non-finite values")
    rho[live] = sol
    return rho


def cef_emission_prices(rho: np.ndarray, kappa: float) -> np.ndarray:
    """Half the outflow intensity, priced at kappa $/kg, giving $/kWh."""
    return kappa * np.asarray(rho, dtype=float) / 2.0
