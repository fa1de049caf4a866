"""Carbon-emission-flow baseline.

Attaches emissions to the cleared power flows: every bus mixes its inflows
(local generation plus line imports) and sends power out at one uniform
intensity.  Solved as a linear system over bus intensities so cyclic flow
patterns need no special casing.

Units: intensities are kgCO2/kWh, powers MW.  The 1000s cancel
inside the nodal balance, so the system is assembled in composite units:
``FlowGraph.emitted`` is MW x kgCO2/kWh (tCO2/h), each plant's kg/h emission
over 1000, and a bus's throughput times its intensity is its emitted plus
each import's flow times the intensity it comes in at.
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
    edges: np.ndarray  # (k, 2) bus positions (from, to), one row per branch carrying flow
    flow: np.ndarray  # MW > 0 along each edge
    generation: np.ndarray  # MW put in per bus
    emitted: np.ndarray  # MW x kgCO2/kWh put in per bus
    demand: np.ndarray  # effective withdrawal per bus, MW

    @property
    def n_buses(self) -> int:
        return len(self.bus_ids)

    def _sum_at(self, end: int) -> np.ndarray:
        """Edge flow summed by each edge's from (0) or to (1) bus."""
        return np.bincount(self.edges[:, end], weights=self.flow, minlength=self.n_buses)

    def throughput(self) -> np.ndarray:
        """Total inflow (local generation plus imports) per bus."""
        return self.generation + self._sum_at(1)

    def conservation_residual(self) -> np.ndarray:
        return self.throughput() - (self.demand + self._sum_at(0))

    @classmethod
    def from_clearing(cls, case: NetworkCase, clearing: ClearingResult) -> "FlowGraph":
        form, p = clearing.form, clearing.dispatch
        # a storage emits nothing, and its charging behaves like extra load
        injecting = p > FLOW_TOL
        charging = np.where(form.storage & (p < -FLOW_TOL), p, 0.0)
        bus_index = case.bus_index
        ends = np.array([[bus_index[br.from_bus], bus_index[br.to_bus]]
                         for br in case.branches], dtype=int).reshape(-1, 2)
        f = clearing.flows
        carrying = np.abs(f) > FLOW_TOL
        edges = np.where((f < 0.0)[:, None], ends[:, ::-1], ends)[carrying]
        graph = cls(bus_ids=list(case.bus_ids), edges=edges, flow=np.abs(f[carrying]),
                    generation=form.injection(np.where(injecting, p, 0.0)),
                    emitted=form.injection(np.where(injecting, clearing.emission / 1000.0, 0.0)),
                    demand=clearing.bids.demand - form.injection(charging))
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
    through = graph.throughput()
    live = through > FLOW_TOL
    rho = np.zeros(graph.n_buses)
    if not live.any():
        return rho
    # row j: through_j rho_j - sum of inflow_ij rho_i = emitted_j; parallel
    # branches between one pair add up
    m = np.diag(through)
    np.add.at(m, (graph.edges[:, 1], graph.edges[:, 0]), -graph.flow)
    try:
        sol = np.linalg.solve(m[np.ix_(live, live)], graph.emitted[live])
    except np.linalg.LinAlgError as exc:
        raise CefSingularError(f"intensity system singular: {exc}") from exc
    if not np.all(np.isfinite(sol)):
        raise CefSingularError("intensity system produced non-finite values")
    rho[live] = sol
    return rho


def cef_emission_prices(rho: np.ndarray, kappa: float) -> np.ndarray:
    """Half the outflow intensity, priced at kappa $/kg, giving $/kWh."""
    return kappa * np.asarray(rho, dtype=float) / 2.0
