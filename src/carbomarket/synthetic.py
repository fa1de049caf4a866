"""Deterministic synthetic benchmark construction.

The bundled 30-bus case mirrors the dimensions of a classic meshed test
system: 30 buses, 41 branches, six fossil plants, two renewable plants,
and two storage units. Loads and renewable availability are generated from
one seeded generator so the fixture files can be regenerated bit-identically.
"""

from __future__ import annotations

import numpy as np

from .network_model import (
    Branch,
    Bus,
    Generator,
    NetworkCase,
    PiecewiseLinearCurve,
    StorageUnit,
    zero_curve,
)

# 30-bus meshed topology (41 corridors).
EDGES_30 = [
    (1, 2), (1, 3), (2, 4), (3, 4), (2, 5), (2, 6), (4, 6), (5, 7), (6, 7),
    (6, 8), (6, 9), (6, 10), (9, 11), (9, 10), (4, 12), (12, 13), (12, 14),
    (12, 15), (12, 16), (14, 15), (16, 17), (15, 18), (18, 19), (19, 20),
    (10, 20), (10, 17), (10, 21), (10, 22), (21, 22), (15, 23), (22, 24),
    (23, 24), (24, 25), (25, 26), (25, 27), (28, 27), (27, 29), (27, 30),
    (29, 30), (8, 28), (6, 28),
]

TOPOLOGY_SEED = 301
DEFAULT_SERIES_SEED = 7

# Fossil fleet: (bus, unit fuel cost $/kWh, unit emission kgCO2/kWh, max MW).
# The mid-merit pair (buses 22 and 27) is priced so that adding the emission
# charge swaps their dispatch order: the clean unit is slightly more expensive
# on fuel alone but much cheaper once emissions carry a price.
FOSSIL_PLANTS = [
    (1, 0.022, 0.35, 70.0),
    (2, 0.036, 0.55, 45.0),
    (22, 0.056, 0.62, 40.0),
    (27, 0.060, 0.20, 35.0),
    (23, 0.082, 0.30, 30.0),
    (13, 0.096, 0.26, 80.0),
]
PV_BUS, PV_CAP = 6, 100.0
WIND_BUS, WIND_CAP = 15, 130.0


def replica30_topology() -> tuple[list[Bus], list[Branch]]:
    rng = np.random.default_rng(TOPOLOGY_SEED)
    buses = [Bus(id=i) for i in range(1, 31)]
    reactances = rng.uniform(0.05, 0.35, size=len(EDGES_30))
    # Wide corridors by default; a handful of tighter lines create the
    # occasional congestion the locational prices need.
    capacities = rng.uniform(60.0, 130.0, size=len(EDGES_30))
    tight = {
        (6, 8): 30.0, (10, 21): 34.0, (25, 27): 28.0,
        # corridors out of the wind pocket: wide enough for normal exports,
        # narrow enough that high-wind nights strand energy at bus 15
        (12, 15): 30.0, (14, 15): 18.0, (15, 18): 26.0, (15, 23): 24.0,
    }
    branches = []
    for (i, j), x, cap in zip(EDGES_30, reactances, capacities):
        cap = tight.get((i, j), cap)
        branches.append(Branch(from_bus=i, to_bus=j, capacity=float(cap),
                               reactance=float(x), name=f"{i}-{j}"))
    return buses, branches


def linear_plant(name: str, bus: int, unit_cost: float, unit_emission: float,
                 p_max: float, p_min: float = 0.0) -> Generator:
    """Plant with linear fuel cost ($/kWh) and linear emission (kgCO2/kWh)."""
    fuel = PiecewiseLinearCurve(
        segments=((unit_cost * 1000.0, 0.0),), domain=(p_min, p_max))
    emission = PiecewiseLinearCurve(
        segments=((unit_emission * 1000.0, 0.0),), domain=(p_min, p_max))
    return Generator(name=name, bus=bus, fuel_curve=fuel, emission_curve=emission,
                     p_min=p_min, p_max=p_max, unit_emission=unit_emission)


def renewable_plant(name: str, bus: int, p_max: float) -> Generator:
    return Generator(name=name, bus=bus,
                     fuel_curve=zero_curve(0.0, p_max),
                     emission_curve=zero_curve(0.0, p_max),
                     p_min=0.0, p_max=p_max, unit_emission=0.0, is_renewable=True)


def synthesize_series(horizon: int, seed: int) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Seeded load and renewable-availability series for the 30-bus replica.

    Loads follow a daily/weekly sinusoid plus noise over 18 load buses;
    solar is a clipped daytime bell, wind a smoothed random walk.
    """
    rng = np.random.default_rng(seed)
    hours = np.arange(horizon)
    load_buses = [3, 4, 5, 7, 8, 10, 12, 14, 16, 17, 18, 19, 20, 21, 24, 26, 29, 30]
    weights = rng.uniform(0.5, 1.6, size=len(load_buses))
    weights /= weights.sum()
    daily = 1.0 + 0.46 * np.sin(2 * np.pi * (hours - 9.0) / 24.0)
    weekly = 1.0 + 0.06 * np.sin(2 * np.pi * hours / 168.0)
    total = 185.0 * daily * weekly
    loads = np.zeros((horizon, 30))
    for k, bus in enumerate(load_buses):
        noise = 1.0 + 0.035 * rng.standard_normal(horizon)
        loads[:, bus - 1] = np.maximum(total * weights[k] * noise, 0.0)

    hour_of_day = hours % 24
    bell = np.clip(np.cos((hour_of_day - 13.0) / 7.0 * np.pi / 2.0), 0.0, None) ** 1.5
    cloud = np.clip(1.0 - 0.35 * np.abs(rng.standard_normal(horizon)), 0.1, 1.0)
    solar = PV_CAP * bell * cloud

    steps = rng.standard_normal(horizon)
    walk = np.zeros(horizon)
    level = 0.45
    for t in range(horizon):
        level = np.clip(level + 0.07 * steps[t] - 0.08 * (level - 0.45), 0.05, 0.98)
        walk[t] = level
    nightly = 1.0 + 0.40 * np.cos(2 * np.pi * (hour_of_day - 2.0) / 24.0)
    wind = WIND_CAP * np.clip(walk * nightly, 0.0, 1.0)
    return loads, {"pv6": solar, "wind15": wind}


def replica30_case(horizon: int = 672, seed: int = DEFAULT_SERIES_SEED) -> NetworkCase:
    buses, branches = replica30_topology()
    generators = [
        linear_plant(f"g{k+1}", bus, cost, emis, cap)
        for k, (bus, cost, emis, cap) in enumerate(FOSSIL_PLANTS)
    ]
    generators.append(renewable_plant("pv6", PV_BUS, PV_CAP))
    generators.append(renewable_plant("wind15", WIND_BUS, WIND_CAP))
    storages = [
        StorageUnit(name="es15", bus=15, p_max=4.0, eta_c=0.95, eta_d=0.95,
                    e_min=4.0, e_max=36.0, e_init=20.0,
                    gamma_lo=0.045, gamma_hi=0.080, n_segments=50),
        StorageUnit(name="es18", bus=18, p_max=4.0, eta_c=0.95, eta_d=0.95,
                    e_min=2.0, e_max=26.0, e_init=14.0,
                    gamma_lo=0.045, gamma_hi=0.065, n_segments=50),
    ]
    loads, renew = synthesize_series(horizon, seed)
    return NetworkCase(
        buses=buses, branches=branches, generators=generators, storages=storages,
        load_series=loads, renewable_series=renew,
        tau=1.0, kappa=0.05, epsilon=1e-4,
        slack_bus=1, name="replica30",
    )
