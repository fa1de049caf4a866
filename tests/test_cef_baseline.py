"""Flow-tracing intensity tests: hand graphs, conservation, price invariance."""

from __future__ import annotations

import numpy as np
import pytest

from carbomarket.cef_baseline import FlowGraph, cef_emission_prices, cef_solve
from carbomarket.emission_allocation import aumann_shapley_prices, build_compact_form
from carbomarket.market_clearing import AgentBid, BidSet, clear_market
from carbomarket.network_model import Branch, Bus, NetworkCase, curve_from_points
from oracles import random_small_case


def gen_bid(name, bus, slope, cap, psi):
    return AgentBid(
        name=name, bus=bus,
        cost_curve=curve_from_points([(0.0, 0.0), (cap, slope * cap)]),
        p_min=0.0, p_max=cap,
        emission_curve=curve_from_points([(0.0, 0.0), (cap, 1000 * psi * cap)]),
    )


def radial_case(bus_ids, lines, loads):
    buses = [Bus(b) for b in bus_ids]
    branches = [Branch(from_bus=i, to_bus=j, capacity=1e3, reactance=0.1)
                for i, j in lines]
    return NetworkCase(
        buses=buses, branches=branches, generators=[], storages=[],
        load_series=np.asarray([loads], dtype=float), tau=1.0, kappa=0.05,
    )


def mixing_bus_pair():
    """One bus hosting a 2 MW unit at 0.9 kg/kWh and a 1 MW unit at 0.3,
    feeding a local 1 MW load plus 2 MW exported to a second bus."""
    case = radial_case([1, 3], [(1, 3)], [1.0, 2.0])
    agents = [gen_bid("a", 1, 20.0, 2.0, 0.9), gen_bid("b", 1, 10.0, 1.0, 0.3)]
    return case, BidSet(agents=agents, demand=np.array([1.0, 2.0]))


def mixing_bus_split():
    """Same units and loads, but the cleaner unit sits on an inserted
    middle bus so the two sources no longer mix at the first bus."""
    case = radial_case([1, 2, 3], [(1, 2), (2, 3)], [1.0, 0.0, 2.0])
    agents = [gen_bid("a", 1, 20.0, 2.0, 0.9), gen_bid("b", 2, 10.0, 1.0, 0.3)]
    return case, BidSet(agents=agents, demand=np.array([1.0, 0.0, 2.0]))


def test_two_source_mixing_bus_intensity():
    case, bids = mixing_bus_pair()
    res = clear_market(case, bids)
    graph = FlowGraph.from_clearing(case, res)
    rho = cef_solve(graph)
    assert rho[0] == pytest.approx(0.7, abs=1e-12)
    assert rho[1] == pytest.approx(0.7, abs=1e-12)


def test_inserted_bus_separates_the_sources():
    case, bids = mixing_bus_split()
    res = clear_market(case, bids)
    graph = FlowGraph.from_clearing(case, res)
    rho = cef_solve(graph)
    assert rho[0] == pytest.approx(0.9, abs=1e-12)
    assert rho[1] == pytest.approx(0.6, abs=1e-12)
    assert rho[2] == pytest.approx(0.6, abs=1e-12)


def test_marginal_prices_ignore_the_inserted_bus():
    # flow tracing shifts 0.7 to 0.9/0.6 above, while the usage-based price
    # at the shared buses stays put when the topology is split
    psis = []
    for builder in (mixing_bus_pair, mixing_bus_split):
        case, bids = builder()
        res = clear_market(case, bids)
        form = build_compact_form(case, res)
        psis.append(aumann_shapley_prices(form).psi)
    before, after = psis
    assert abs(before[0] - after[0]) <= 1e-9
    assert abs(before[1] - after[2]) <= 1e-9
    assert before[0] == pytest.approx(0.05 / 2 * 0.7, abs=1e-9)


def test_single_source_chain_carries_one_intensity():
    case = radial_case([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)],
                       [0.0, 1.0, 1.5, 2.5])
    bids = BidSet(agents=[gen_bid("g", 1, 15.0, 10.0, 0.42)],
                  demand=np.array([0.0, 1.0, 1.5, 2.5]))
    res = clear_market(case, bids)
    rho = cef_solve(FlowGraph.from_clearing(case, res))
    assert np.allclose(rho, 0.42, atol=1e-12)


def test_cyclic_flow_pattern_solves_to_source_intensity():
    graph = FlowGraph(
        bus_ids=[1, 2, 3],
        edges=np.array([[0, 1], [1, 2], [2, 0]]), flow=np.array([2.0, 2.0, 2.0]),
        generation=np.array([3.0, 0.0, 0.0]), emitted=np.array([1.5, 0.0, 0.0]),
        demand=np.array([3.0, 0.0, 0.0]),
    )
    assert np.max(np.abs(graph.conservation_residual())) <= 1e-12
    rho = cef_solve(graph)
    assert np.allclose(rho, 0.5, atol=1e-12)


def test_zero_throughput_bus_gets_zero_intensity():
    graph = FlowGraph(
        bus_ids=[1, 2],
        edges=np.zeros((0, 2), dtype=int), flow=np.zeros(0),
        generation=np.array([2.0, 0.0]), emitted=np.array([1.6, 0.0]),
        demand=np.array([2.0, 0.0]),
    )
    rho = cef_solve(graph)
    assert rho[0] == pytest.approx(0.8, abs=1e-12)
    assert rho[1] == 0.0


def test_parallel_branches_add_up():
    # two 1 MW branches from bus 1 to bus 2: bus 2 takes both at 0.5 kg/kWh
    graph = FlowGraph(
        bus_ids=[1, 2],
        edges=np.array([[0, 1], [0, 1]]), flow=np.array([1.0, 1.0]),
        generation=np.array([2.0, 0.0]), emitted=np.array([1.0, 0.0]),
        demand=np.array([0.0, 2.0]),
    )
    assert np.array_equal(graph.conservation_residual(), np.zeros(2))
    assert np.allclose(cef_solve(graph), 0.5, atol=1e-15)


def test_storages_charging_on_one_bus_all_add_to_its_demand():
    case = radial_case([1, 2], [(1, 2)], [0.0, 3.0])
    agents = [gen_bid("g", 1, 30.0, 20.0, 0.6)] + [
        AgentBid(name=name, bus=2, p_min=-cap, p_max=cap, is_storage=True,
                 cost_curve=curve_from_points([(-cap, -50.0 * cap), (0.0, 0.0),
                                               (cap, 90.0 * cap)]))
        for name, cap in (("es1", 3.0), ("es2", 2.0))]
    res = clear_market(case, BidSet(agents=agents, demand=np.array([0.0, 3.0])))
    assert res.dispatch[1:] == pytest.approx([-3.0, -2.0], abs=1e-9)
    graph = FlowGraph.from_clearing(case, res)
    assert graph.demand == pytest.approx([0.0, 8.0], abs=1e-9)
    assert graph.flow == pytest.approx([8.0], abs=1e-9)
    assert np.allclose(cef_solve(graph), 0.6, atol=1e-12)


def test_emission_conservation_on_random_cleared_networks():
    rng = np.random.default_rng(11)
    for _ in range(25):
        case, bids = random_small_case(rng)
        res = clear_market(case, bids)
        graph = FlowGraph.from_clearing(case, res)
        assert np.max(np.abs(graph.conservation_residual())) <= 1e-6
        rho = cef_solve(graph)
        attributed = float(graph.demand @ rho)
        assert attributed == pytest.approx(graph.emitted.sum(), rel=1e-8, abs=1e-10)


def test_intensity_prices_are_half_rate_times_carbon_price():
    prices = cef_emission_prices(np.array([0.7, 0.0, 1.2]), kappa=0.05)
    assert prices[0] == pytest.approx(0.0175, abs=1e-15)
    assert prices[1] == 0.0
    assert prices[2] == pytest.approx(0.03, abs=1e-15)
