"""Real-time electricity market with exact marginal carbon pricing.

Clears a cost-then-emissions lexicographic DC optimal power flow, prices
the demand-side half of emission costs by integrating marginal emissions
along the demand ray with a parametric-basis sweep, and hosts storage
agents that bid a drift-plus-penalty-derived convex cost curve.
"""

from carbomarket.cef_baseline import FlowGraph, cef_emission_prices, cef_solve
from carbomarket.cli_io import load_case, load_scenario, write_case
from carbomarket.emission_allocation import (
    AllocationResult,
    allocate_period,
    aumann_shapley_prices,
    build_compact_form,
    verify_axioms,
)
from carbomarket.market_clearing import (
    AgentBid,
    BidSet,
    ClearingResult,
    MarketInfeasibleError,
    MarketUnboundedError,
    clear_market,
)
from carbomarket.network_model import (
    Branch,
    Bus,
    Generator,
    NetworkCase,
    PiecewiseLinearCurve,
    StorageUnit,
    curve_from_points,
    validate_case,
)
from carbomarket.simulator import (
    ScenarioConfig,
    SimulationReport,
    plant_bids,
    recorded_combined_prices,
    replay_storage,
    run_horizon,
)
from carbomarket.storage_policy import (
    PolicyParams,
    StorageState,
    bid_curve,
    choose_parameters,
    offline_optimal,
    optimal_power,
    power_bounds,
    scaled_parameters,
    update_state,
)
from carbomarket.synthetic import replica30_case

__version__ = "0.1.0"

__all__ = [
    "AgentBid",
    "AllocationResult",
    "BidSet",
    "Branch",
    "Bus",
    "ClearingResult",
    "FlowGraph",
    "Generator",
    "MarketInfeasibleError",
    "MarketUnboundedError",
    "NetworkCase",
    "PiecewiseLinearCurve",
    "PolicyParams",
    "ScenarioConfig",
    "SimulationReport",
    "StorageState",
    "StorageUnit",
    "allocate_period",
    "aumann_shapley_prices",
    "bid_curve",
    "build_compact_form",
    "cef_emission_prices",
    "cef_solve",
    "choose_parameters",
    "clear_market",
    "curve_from_points",
    "load_case",
    "load_scenario",
    "offline_optimal",
    "optimal_power",
    "plant_bids",
    "power_bounds",
    "recorded_combined_prices",
    "replay_storage",
    "replica30_case",
    "run_horizon",
    "scaled_parameters",
    "update_state",
    "validate_case",
    "verify_axioms",
    "write_case",
]
