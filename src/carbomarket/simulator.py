"""Rolling real-time market simulation.

Each period: plants bid fuel plus half their priced emissions, storages bid
their queue-derived curves against last period's emission price, the market
clears, emission prices are computed at the cleared point, everyone settles,
and storage state advances.  Scenario toggles switch storage participation
and emission pricing on or off; storage baselines replay recorded prices.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .emission_allocation import AllocationResult, allocate_period
from .market_clearing import AgentBid, BidSet, ClearingResult, clear_market
from .network_model import NetworkCase, PiecewiseLinearCurve, StorageUnit, sum_curves
from .storage_policy import (
    PolicyParams,
    StorageState,
    b1_parameters,
    b1_power,
    b2_power,
    bid_curve,
    choose_parameters,
    feasible_power_range,
    initial_state,
    offline_optimal,
    optimal_power,
    update_state,
)

SETTLEMENT_RTOL = 1e-6


class SettlementImbalanceError(RuntimeError):
    pass


class SimulationAbort(RuntimeError):
    """A period failed; .report carries the rows completed before it."""

    def __init__(self, message: str, report: "SimulationReport"):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class ScenarioConfig:
    name: str = "proposed"
    enable_storage: bool = True
    enable_allocation: bool = True
    horizon: int | None = None

    @classmethod
    def proposed(cls, **kw) -> "ScenarioConfig":
        return cls(name="proposed", **kw)

    @classmethod
    def a1(cls, **kw) -> "ScenarioConfig":
        return cls(name="a1", enable_allocation=False, **kw)

    @classmethod
    def a2(cls, **kw) -> "ScenarioConfig":
        return cls(name="a2", enable_storage=False, **kw)

    @classmethod
    def a3(cls, **kw) -> "ScenarioConfig":
        return cls(name="a3", enable_storage=False, enable_allocation=False, **kw)


@dataclass
class StorageRow:
    e: float  # MWh at period start
    q: float
    p: float  # cleared net MW


@dataclass
class SettlementLedger:
    """One period's books, as ``settle`` computed and balanced them.

    Agent arrays follow the bid order (the plants, then the storages, in case
    order); bus arrays follow the case's buses. Every agent is paid
    ``energy``; only storages also settle ``emission``, since a plant's
    emission half already rides inside its bid.
    """

    energy: np.ndarray  # $ per agent, lmp[bus] p tau
    emission: np.ndarray  # $ per agent, 1000 psi[bus] p tau
    load_energy: np.ndarray  # $ per bus, paid by its load
    load_emission: np.ndarray  # $ per bus, paid by its load
    congestion_rent: float
    emission_pot: float  # $ collected emission charges
    residual_rel: float


@dataclass
class PeriodRecord:
    t: int
    lambda_bar: float
    lmp: np.ndarray
    psi: np.ndarray  # $/kWh per bus
    dispatch: dict[str, float]
    fuel_cost: float  # $/h at the cleared point
    bid_cost: float  # $/h, what the clearing objective priced
    emission: float  # kg/h
    renewable_available: float  # MW
    renewable_dispatched: float  # MW
    storage: dict[str, StorageRow]
    ledger: SettlementLedger
    # per agent, in dispatch order: its bus position, fuel $/h (0 for a
    # storage) and emission kg/h
    agent_bus: np.ndarray
    agent_fuel: np.ndarray
    agent_emission: np.ndarray
    allocation_breakpoints: tuple[float, ...] = ()
    allocation_iterations: int = 0
    start_used: bool = False
    cost_sharing_error: float = 0.0
    degenerate: bool = False
    # false when a loss-direction-dependent clearing stopped before its
    # loss signs matched its dispatch
    loss_converged: bool = True

    @property
    def settlement_residual(self) -> float:
        """Relative imbalance of the period's books."""
        return self.ledger.residual_rel


def plant_bids(case: NetworkCase, period: int, include_emission_cost: bool = True) -> list[AgentBid]:
    """Generator bids: fuel plus, if priced, half the emission curve."""
    agents = []
    for g in case.generators:
        cap = case.renewable_bound(g, period)
        cost = g.fuel_curve
        if include_emission_cost and case.kappa > 0:
            half = case.kappa / 2
            adder = PiecewiseLinearCurve(
                segments=tuple((half * s, half * b) for s, b in g.emission_curve.segments),
                domain=g.emission_curve.domain,
            )
            cost = sum_curves(cost, adder)
        agents.append(AgentBid(
            name=g.name, bus=g.bus, cost_curve=cost,
            p_min=min(g.p_min, cap), p_max=cap,
            emission_curve=g.emission_curve, is_renewable=g.is_renewable,
        ))
    return agents


def settle(
    clearing: ClearingResult,
    allocation: AllocationResult | None,
    case: NetworkCase,
) -> SettlementLedger:
    """Money flow for one period; raises if it fails to balance.

    Loads pay energy at their LMP plus emission at their bus price; storages
    are paid the combined price on their net power; generators are paid their
    LMP (their emission half already rides inside the bid). The books close
    against congestion rent, the fixed-loss purchase, and the sweep's
    emission pot, so a residual flags either inconsistent duals or a sweep
    that failed to share the whole cost.
    """
    demand = clearing.bids.demand
    tau = case.tau
    form, p = clearing.form, clearing.dispatch
    psi = allocation.psi if allocation is not None else np.zeros(case.n_buses)
    energy = clearing.lmp[form.agent_bus] * p * tau
    emission = 1000.0 * psi[form.agent_bus] * p * tau
    load_energy = clearing.lmp * demand * tau
    load_emission = 1000.0 * psi * demand * tau
    rent = float(case.branch_capacities() @ (clearing.mu_plus + clearing.mu_minus)) * tau
    loss_payment = clearing.lambda_bar * case.loss_offset * tau
    pot = allocation.emission_pot if allocation is not None else 0.0
    # Python's left-to-right sums, in agent order
    storage_paid = sum((energy + emission)[form.storage].tolist())
    plants_paid = sum(energy[~form.storage].tolist())
    inflow = float(load_energy.sum()) + float(load_emission.sum()) \
        - storage_paid + loss_payment
    outflow = plants_paid + rent + pot
    residual = inflow - outflow
    scale = max(1.0, abs(inflow), abs(outflow))
    ledger = SettlementLedger(
        energy=energy, emission=emission,
        load_energy=load_energy, load_emission=load_emission,
        congestion_rent=rent, emission_pot=pot, residual_rel=abs(residual) / scale,
    )
    if ledger.residual_rel > SETTLEMENT_RTOL:
        raise SettlementImbalanceError(
            f"settlement off by {residual:.6g} $ "
            f"({ledger.residual_rel:.3g} relative)"
        )
    return ledger


def fit_revenue_rate(cumulative, tau: float = 1.0) -> float:
    """Least-squares slope of a cumulative series against hours."""
    y = np.asarray(cumulative, dtype=float)
    if y.size < 2:
        raise ValueError("need at least two points to fit a rate")
    x = tau * np.arange(1, y.size + 1, dtype=float)
    return float(np.polyfit(x, y, 1)[0])


@dataclass
class SimulationReport:
    scenario: ScenarioConfig
    records: list[PeriodRecord]
    tau: float
    avg_generation_cost: float = 0.0  # $/h
    avg_bid_cost: float = 0.0  # $/h
    avg_emission: float = 0.0  # kg/h
    curtailment: float = 0.0  # fraction of available renewable energy
    storage_revenue_rate: dict[str, float] = field(default_factory=dict)
    storage_emission_rate: dict[str, float] = field(default_factory=dict)
    storage_revenue_total: dict[str, float] = field(default_factory=dict)
    max_settlement_residual: float = 0.0
    max_cost_sharing_error: float = 0.0
    periods_started_from_interior: int = 0
    periods_loss_unconverged: int = 0

    @classmethod
    def from_records(
        cls, scenario: ScenarioConfig, records: list[PeriodRecord], case: NetworkCase
    ) -> "SimulationReport":
        tau, kappa = case.tau, case.kappa
        report = cls(scenario=scenario, records=records, tau=tau)
        if not records:
            return report
        report.avg_generation_cost = float(np.mean([r.fuel_cost for r in records]))
        report.avg_bid_cost = float(np.mean([r.bid_cost for r in records]))
        report.avg_emission = float(np.mean([r.emission for r in records]))
        available = sum(r.renewable_available for r in records)
        dispatched = sum(r.renewable_dispatched for r in records)
        report.curtailment = (available - dispatched) / available if available > 0 else 0.0
        # a storage's ledger position follows every plant's
        for k, name in enumerate(records[0].storage, start=len(case.generators)):
            revenue = np.cumsum([r.ledger.energy[k] + r.ledger.emission[k] for r in records])
            # the emission its charges pay for, kg
            emission = np.cumsum([-r.ledger.emission[k] / kappa if kappa > 0 else 0.0
                                  for r in records])
            if revenue.size >= 2:
                report.storage_revenue_rate[name] = fit_revenue_rate(revenue, tau)
                report.storage_emission_rate[name] = fit_revenue_rate(emission, tau)
            report.storage_revenue_total[name] = float(revenue[-1])
        report.max_settlement_residual = max(r.settlement_residual for r in records)
        report.max_cost_sharing_error = max(r.cost_sharing_error for r in records)
        report.periods_started_from_interior = sum(1 for r in records if r.start_used)
        report.periods_loss_unconverged = sum(1 for r in records if not r.loss_converged)
        return report


def run_period(
    case: NetworkCase,
    scenario: ScenarioConfig,
    t: int,
    states: dict[str, StorageState],
    params: dict[str, PolicyParams],
    warm_basis: tuple[tuple, ...] | None = None,
    warm_upper: tuple[tuple, ...] = (),
) -> tuple[PeriodRecord, ClearingResult, AllocationResult | None]:
    """One market round; mutates nothing, returns the pieces. ``warm_basis``
    and ``warm_upper`` start the clearing from a previous one's basis."""
    agents = plant_bids(case, t, include_emission_cost=scenario.enable_allocation)
    if scenario.enable_storage:
        for unit in case.storages:
            state = states[unit.name]
            curve = bid_curve(state.q, state.psi_prev, params[unit.name], unit, case.tau)
            # the offer is the range the curve covers
            lo, hi = curve.domain
            agents.append(AgentBid(
                name=unit.name, bus=unit.bus, cost_curve=curve,
                p_min=lo, p_max=hi, is_storage=True,
            ))
    bids = BidSet(agents=agents, demand=case.demand(t))
    clearing = clear_market(case, bids, warm_basis=warm_basis, warm_upper=warm_upper)
    allocation = None
    if scenario.enable_allocation and case.kappa > 0:
        allocation = allocate_period(case, clearing)
    ledger = settle(clearing, allocation, case)

    # the bids are the plants, then the storages, in case order
    dispatch = clearing.dispatch.tolist()
    fuel = np.zeros(len(dispatch))
    renewable_available = 0.0
    renewable_dispatched = 0.0
    for k, (gen, p) in enumerate(zip(case.generators, dispatch)):
        fuel[k] = gen.fuel_curve.value(p)
        if gen.is_renewable:
            renewable_available += case.renewable_bound(gen, t)
            renewable_dispatched += p
    psi = allocation.psi if allocation is not None else np.zeros(case.n_buses)
    storage_rows = {
        unit.name: StorageRow(e=states[unit.name].e, q=states[unit.name].q, p=p)
        for unit, p in zip(case.storages, dispatch[len(case.generators):])
    }
    record = PeriodRecord(
        t=t, lambda_bar=clearing.lambda_bar, lmp=clearing.lmp, psi=psi,
        dispatch=dict(zip(clearing.agent_names, dispatch)),
        fuel_cost=sum(fuel.tolist(), 0.0), bid_cost=clearing.total_cost,
        emission=clearing.total_emission,
        renewable_available=renewable_available,
        renewable_dispatched=renewable_dispatched,
        storage=storage_rows,
        ledger=ledger,
        agent_bus=clearing.form.agent_bus,
        agent_fuel=fuel,
        agent_emission=clearing.emission,
        allocation_breakpoints=tuple(float(y) for y, _ in allocation.breakpoints)
        if allocation else (),
        allocation_iterations=allocation.iterations if allocation else 0,
        start_used=allocation.zeta > 0.0 if allocation else False,
        cost_sharing_error=allocation.cost_sharing_error if allocation else 0.0,
        degenerate=clearing.degenerate,
        loss_converged=clearing.loss_converged,
    )
    return record, clearing, allocation


def run_horizon(case: NetworkCase, scenario: ScenarioConfig) -> SimulationReport:
    """Roll the market over the horizon; deterministic for a given case."""
    t_end = case.horizon if scenario.horizon is None else scenario.horizon
    if t_end > case.horizon:
        raise ValueError(f"horizon {t_end} exceeds series length {case.horizon}")
    if t_end < 1:
        raise ValueError(f"horizon {t_end} is below 1 period")
    params: dict[str, PolicyParams] = {}
    states: dict[str, StorageState] = {}
    if scenario.enable_storage:
        for unit in case.storages:
            params[unit.name] = choose_parameters(unit)
            states[unit.name] = initial_state(unit, params[unit.name])
    records: list[PeriodRecord] = []
    warm: tuple[tuple, ...] | None = None
    warm_upper: tuple[tuple, ...] = ()
    for t in range(t_end):
        try:
            record, clearing, _ = run_period(
                case, scenario, t, states, params, warm_basis=warm, warm_upper=warm_upper)
        except Exception as exc:
            partial = SimulationReport.from_records(scenario, records, case)
            raise SimulationAbort(f"period {t}: {exc}", partial) from exc
        warm, warm_upper = clearing.basis, clearing.at_upper
        if scenario.enable_storage:
            for unit in case.storages:
                advanced = update_state(states[unit.name], record.storage[unit.name].p,
                                        case.tau, unit)
                states[unit.name] = dataclasses.replace(
                    advanced, psi_prev=float(record.psi[case.bus_index[unit.bus]]))
        records.append(record)
    return SimulationReport.from_records(scenario, records, case)


@dataclass
class ReplayResult:
    method: str
    revenue: np.ndarray  # cumulative $
    power: np.ndarray  # net MW per period
    soc: np.ndarray  # MWh after each period
    rate: float  # $/h fitted slope


def replay_storage(
    gammas,
    unit: StorageUnit,
    tau: float,
    method: str = "proposed",
    params: PolicyParams | None = None,
) -> ReplayResult:
    """Price-taker replay of one storage on a recorded combined-price path.

    Powers are clipped to the stored-energy rails before applying, so paths
    that wander outside the tuned price range stay physical.
    """
    gammas = np.asarray(gammas, dtype=float)
    method = method.lower()
    if method == "b3":
        sched = offline_optimal(gammas, unit, tau)
        revenue = np.cumsum(1000.0 * gammas * sched.power * tau)
        rate = fit_revenue_rate(revenue, tau)
        return ReplayResult(method=method, revenue=revenue, power=sched.power,
                            soc=sched.soc, rate=rate)
    if params is None:
        params = b1_parameters(unit, tau) if method == "b1" else choose_parameters(unit)
    state = initial_state(unit, params)
    power = np.zeros(gammas.size)
    soc = np.zeros(gammas.size)
    for t, gamma in enumerate(gammas):
        if method == "proposed":
            p = optimal_power(state.q, gamma, params, unit, tau)
        elif method == "b1":
            p = b1_power(state.q, gamma, params, unit, tau)
        elif method == "b2":
            p = b2_power(gamma, state, unit, tau)
        else:
            raise ValueError(f"unknown replay method {method!r}")
        lo, hi = feasible_power_range(state.e, unit, tau)
        p = float(np.clip(p, lo, hi))
        state = update_state(state, p, tau, unit)
        power[t] = p
        soc[t] = state.e
    revenue = np.cumsum(1000.0 * gammas * power * tau)
    rate = fit_revenue_rate(revenue, tau)
    return ReplayResult(method=method, revenue=revenue, power=power, soc=soc, rate=rate)


def recorded_combined_prices(report: SimulationReport, case: NetworkCase, bus: int):
    """Combined $/kWh price path at a bus, as a storage there would see it."""
    pos = case.bus_index[bus]
    return np.array([r.lmp[pos] / 1000.0 + r.psi[pos] for r in report.records])
