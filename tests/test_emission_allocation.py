"""Allocation sweep tests: gradients, breakpoints, cost sharing, scale invariance."""

from __future__ import annotations

import numpy as np
import pytest

from carbomarket.emission_allocation import (
    InfeasibleAtOriginError,
    allocate_period,
    aumann_shapley_prices,
    build_compact_form,
    feasible_start,
    partial_derivative,
    _emission_cost,
    _problem_at,
)
from carbomarket.lp_core import LpStatus, solve
from carbomarket.market_clearing import AgentBid, BidSet, assemble_clearing_lp, clear_market
from carbomarket.network_model import (
    Branch,
    Bus,
    NetworkCase,
    PiecewiseLinearCurve,
    curve_from_points,
)
from carbomarket.simulator import settle
from oracles import c2_psi, highs_solve, random_small_case, scan_basis_regions

KAPPA = 0.05


def single_bus_case(epsilon=1e-4):
    return NetworkCase(
        buses=[Bus(1)], branches=[], generators=[], storages=[],
        load_series=np.zeros((1, 1)), tau=1.0, kappa=KAPPA, epsilon=epsilon,
    )


def gen_bid(name, bus, slope, cap, psi, p_min=0.0):
    return AgentBid(
        name=name, bus=bus,
        cost_curve=curve_from_points([(p_min, slope * p_min), (cap, slope * cap)]),
        p_min=p_min, p_max=cap,
        emission_curve=curve_from_points(
            [(p_min, 1000 * psi * p_min), (cap, 1000 * psi * cap)]),
    )


def storage_bid(name, bus, lo, hi, p_max=3.0):
    return AgentBid(
        name=name, bus=bus,
        cost_curve=curve_from_points([(-p_max, -p_max * lo), (0.0, 0.0), (p_max, p_max * hi)]),
        p_min=-p_max, p_max=p_max, is_storage=True,
    )


def cleared_form(case, agents, demand):
    bids = BidSet(agents=agents, demand=np.asarray(demand, dtype=float))
    clearing = clear_market(case, bids)
    return clearing, build_compact_form(case, clearing)


def test_single_generator_emission_cost_is_linear_in_demand():
    case = single_bus_case()
    psi_coeff = 0.5
    _, form = cleared_form(case, [gen_bid("g", 1, 30.0, 20.0, psi_coeff)], [7.0])
    for d in (0.0, 2.5, 7.0, 12.0):
        scale = d / 7.0
        e, _ = _emission_cost(form, scale)
        expected = KAPPA * psi_coeff * 1000 * d * case.tau / 2
        assert e == pytest.approx(expected, abs=1e-9)


def test_net_demand_folds_storage_power_in():
    case = single_bus_case()
    agents = [gen_bid("g", 1, 30.0, 20.0, 0.5), storage_bid("es", 1, lo=50.0, hi=90.0)]
    clearing, form = cleared_form(case, agents, [3.0])
    # the storage pays up to 50 $/MWh to charge and energy costs 30, so it
    # charges at full power and the bus's net demand is 3 - (-3) = 6
    assert clearing.power("es") == pytest.approx(-3.0, abs=1e-8)
    assert form.demand[0] == pytest.approx(6.0, abs=1e-8)


def test_form_reproduces_clearing_emission_on_replica():
    from carbomarket.network_model import PiecewiseLinearCurve
    from carbomarket.synthetic import replica30_case

    case = replica30_case(horizon=8, seed=3)
    agents = []
    for g in case.generators:
        cap = case.renewable_bound(g, 5)
        half = case.kappa / 2
        adder = PiecewiseLinearCurve(
            segments=tuple((half * s, half * b) for s, b in g.emission_curve.segments),
            domain=g.emission_curve.domain,
        )
        from carbomarket.network_model import sum_curves
        agents.append(AgentBid(
            name=g.name, bus=g.bus, cost_curve=sum_curves(g.fuel_curve, adder),
            p_min=g.p_min, p_max=cap, emission_curve=g.emission_curve,
            is_renewable=g.is_renewable,
        ))
    bids = BidSet(agents=agents, demand=case.demand(5))
    clearing = clear_market(case, bids)
    form = build_compact_form(case, clearing)
    e_star, _ = _emission_cost(form, 1.0)
    expected = clearing.total_emission * case.kappa * case.tau / 2
    assert e_star == pytest.approx(expected, rel=1e-7)


def test_sweep_prices_the_loss_vector_the_clearing_converged_to():
    # bus 1 exports and bus 2 imports, so the clearing settles on the signed
    # losses (+0.05, -0.03); the sweep must price that dispatch, not the
    # case's unsigned losses, or part of the emission cost goes unallocated
    case = NetworkCase(
        buses=[Bus(1, loss_sensitivity=0.05), Bus(2, loss_sensitivity=0.03)],
        branches=[Branch(1, 2, capacity=50.0, reactance=0.1)], generators=[], storages=[],
        load_series=np.zeros((1, 2)), tau=1.0, kappa=KAPPA, epsilon=1e-4,
        loss_direction_dependent=True,
    )
    agents = [gen_bid("cheap", 1, 20.0, 50.0, 0.5), gen_bid("dear", 2, 40.0, 50.0, 0.5)]
    clearing = clear_market(case, BidSet(agents=agents, demand=np.array([0.0, 10.0])))
    np.testing.assert_array_equal(clearing.loss, [0.05, -0.03])
    res = allocate_period(case, clearing)
    expected = KAPPA * case.tau / 2 * clearing.total_emission
    assert res.emission_cost_at_star == pytest.approx(expected, rel=1e-9)
    assert res.cost_sharing_error <= 1e-9


def test_partial_derivative_single_and_two_generator():
    case = single_bus_case()
    _, form = cleared_form(case, [gen_bid("g", 1, 30.0, 20.0, 0.5)], [7.0])
    sol = solve(_problem_at(form, 1.0))
    grad = partial_derivative(form, sol)
    np.testing.assert_allclose(grad, KAPPA * 0.5 * 1000 * case.tau / 2, atol=1e-9)

    # cheap unit pinned at capacity: the expensive unit's slope prices every bus
    two_bus = NetworkCase(
        buses=[Bus(1), Bus(2)], branches=[], generators=[], storages=[],
        load_series=np.zeros((1, 2)), tau=1.0, kappa=KAPPA, epsilon=1e-4,
    )
    agents = [gen_bid("cheap", 1, 10.0, 5.0, 0.9), gen_bid("dear", 1, 30.0, 20.0, 0.2)]
    _, form2 = cleared_form(two_bus, agents, [3.1, 4.2])
    sol2 = solve(_problem_at(form2, 1.0))
    grad2 = partial_derivative(form2, sol2)
    np.testing.assert_allclose(grad2, KAPPA * 0.2 * 1000 / 2, atol=1e-9)


def test_partial_derivative_matches_finite_difference():
    case = single_bus_case()
    agents = [gen_bid("a", 1, 10.0, 5.0, 0.9), gen_bid("b", 1, 30.0, 20.0, 0.2)]
    _, form = cleared_form(case, agents, [7.3])
    sol = solve(_problem_at(form, 1.0))
    grad = partial_derivative(form, sol)
    h = 1e-5
    base, _ = _emission_cost(form, 1.0)
    for i in range(1):
        bumped = form.demand.copy()
        bumped[i] += h
        problem, market = assemble_clearing_lp(case, BidSet(agents=agents, demand=bumped))
        sol_b = solve(problem)
        fd = (float(market.k @ sol_b.primal) - base) / h
        assert grad[i] == pytest.approx(fd, rel=1e-4)


def test_sweep_single_generator_flat_price():
    case = single_bus_case()
    _, form = cleared_form(case, [gen_bid("g", 1, 30.0, 20.0, 0.5)], [7.0])
    res = aumann_shapley_prices(form)
    np.testing.assert_allclose(res.psi, KAPPA * 0.5 / 2, atol=1e-12)
    assert len(res.breakpoints) == 1
    assert res.breakpoints[0][0] == pytest.approx(1.0)
    assert res.cost_sharing_error <= 1e-12


def two_generator_crossing_form():
    """Cheap low-emission unit caps out exactly at half demand."""
    case = single_bus_case()
    agents = [gen_bid("b", 1, 20.0, 5.0, 0.2), gen_bid("a", 1, 40.0, 20.0, 0.8)]
    return case, cleared_form(case, agents, [10.0])[1]


def test_sweep_two_generator_breakpoint_at_half():
    case, form = two_generator_crossing_form()
    res = aumann_shapley_prices(form)
    expected = KAPPA * (0.5 * 0.2 + 0.5 * 0.8) / 2
    np.testing.assert_allclose(res.psi, expected, rtol=1e-9)
    assert len(res.breakpoints) == 2
    assert res.breakpoints[0][0] == pytest.approx(0.5, abs=1e-9)
    assert res.cost_sharing_error <= 1e-9


def test_sweep_matches_dense_c2_oracle():
    _, form = two_generator_crossing_form()
    res = aumann_shapley_prices(form)
    oracle = c2_psi(form, 100_000)
    gap = np.max(np.abs(res.psi - oracle)) / np.max(np.abs(res.psi))
    assert gap <= 1e-4


def test_breakpoints_match_grid_scan_three_regions():
    case = single_bus_case()
    agents = [gen_bid("g1", 1, 10.0, 3.0, 0.5),
              gen_bid("g2", 1, 20.0, 4.0, 0.3),
              gen_bid("g3", 1, 30.0, 5.0, 0.8)]
    _, form = cleared_form(case, agents, [10.0])
    res = aumann_shapley_prices(form)
    interior = [y for y, _ in res.breakpoints if y < 1.0 - 1e-9]
    assert interior == pytest.approx([0.3, 0.7], abs=1e-9)
    boundaries, regions = scan_basis_regions(form, step=1e-4)
    assert len(res.breakpoints) <= regions
    for y in interior:
        assert np.min(np.abs(boundaries - y)) <= 1e-4


def test_cost_sharing_on_random_cases():
    rng = np.random.default_rng(23)
    done = 0
    while done < 15:
        case, bids = random_small_case(rng)
        try:
            clearing = clear_market(case, bids)
        except Exception:
            continue
        res = allocate_period(case, clearing)
        assert res.cost_sharing_error <= 1e-9
        ledger = settle(clearing, res, case)
        total = sum(ledger.storage_emission_charge.values()) + float(ledger.load_emission.sum())
        if res.start_point is not None:
            assert total == pytest.approx(res.emission_cost_at_star, abs=1e-7)
        done += 1


def highs_at(form, y):
    """Objective and emission cost E = k.x + k_offset of the compact LP at ray
    point y, solved by HiGHS instead."""
    res = highs_solve(_problem_at(form, y))
    return res.fun, float(form.k @ res.x) + form.k_offset


def assert_close(got, want, rtol=1e-9):
    assert abs(got - want) <= rtol * max(1.0, abs(want)), (got, want)


def test_compact_form_matches_highs_at_region_midpoints_and_the_end(monkeypatch):
    from carbomarket import simulator
    from carbomarket.market_clearing import MarketInfeasibleError
    from carbomarket.simulator import ScenarioConfig, run_horizon
    from carbomarket.synthetic import replica30_case

    swept = []

    def recording(case, clearing):
        swept.append((case, clearing, allocate_period(case, clearing)))
        return swept[-1][2]

    monkeypatch.setattr(simulator, "allocate_period", recording)
    run_horizon(replica30_case(seed=7), ScenarioConfig.proposed(horizon=6))
    monkeypatch.undo()
    rng = np.random.default_rng(31)
    drawn = 0
    while drawn < 10:
        case, bids = random_small_case(rng, min_output_prob=0.3)
        try:
            clearing = clear_market(case, bids)
        except MarketInfeasibleError:
            continue
        swept.append((case, clearing, allocate_period(case, clearing)))
        drawn += 1
    assert len(swept) == 16
    regions = 0
    for case, clearing, res in swept:
        form = build_compact_form(case, clearing)
        y_prev = res.start_point.zeta if res.start_point is not None else 0.0
        ys = []
        for y_next, _ in res.breakpoints:
            ys.append((y_prev + y_next) / 2.0)
            y_prev = y_next
        regions += len(ys)
        for y in ys + [1.0]:
            sol = solve(_problem_at(form, y))
            assert sol.status is LpStatus.OPTIMAL
            fun, e_highs = highs_at(form, y)
            assert_close(sol.objective, fun)
            assert_close(float(form.k @ sol.primal) + form.k_offset, e_highs)
        assert_close(res.emission_cost_at_star, e_highs)
    assert regions > len(swept)  # some sweep crosses a breakpoint


def test_compact_form_is_the_clearing_lp_on_the_plant_columns(monkeypatch):
    from carbomarket import simulator
    from carbomarket.market_clearing import MarketInfeasibleError
    from carbomarket.simulator import ScenarioConfig, run_horizon
    from carbomarket.synthetic import replica30_case

    cleared = []

    def recording(*args, **kwargs):
        cleared.append((args[0], clear_market(*args, **kwargs)))
        return cleared[-1][1]

    monkeypatch.setattr(simulator, "clear_market", recording)
    run_horizon(replica30_case(seed=7), ScenarioConfig.proposed(horizon=24))
    monkeypatch.undo()
    rng = np.random.default_rng(37)
    drawn = 0
    while drawn < 10:
        case, bids = random_small_case(rng, n_storages=2)
        try:
            cleared.append((case, clear_market(case, bids)))
        except MarketInfeasibleError:
            continue
        drawn += 1
    assert len(cleared) == 34
    for case, clearing in cleared:
        _, full = assemble_clearing_lp(case, clearing.bids, loss=clearing.loss)
        form = build_compact_form(case, clearing)
        storage = np.array([a.is_storage for a in clearing.bids.agents])
        assert storage.any()
        keep = np.concatenate([~storage[full.column_agent], np.ones(full.n_branches, bool)])
        assert keep.sum() < keep.size
        assert np.array_equal(form.problem.constraint_matrix,
                              full.problem.constraint_matrix[:, keep])
        assert np.array_equal(form.problem.cost, full.problem.cost[keep])
        assert np.array_equal(form.problem.upper, full.problem.upper[keep])
        assert np.array_equal(form.k, full.k[keep])
        assert np.array_equal(form.g, full.g)


def test_storage_and_load_share_one_bus_price():
    case = single_bus_case()
    agents = [gen_bid("g", 1, 30.0, 20.0, 0.5), storage_bid("es", 1, lo=50.0, hi=90.0)]
    clearing, form = cleared_form(case, agents, [3.0])
    res = aumann_shapley_prices(form)
    ledger = settle(clearing, res, case)
    psi_bus = res.psi[0]
    p_es = clearing.power("es")
    assert ledger.storage_emission_charge["es"] == pytest.approx(
        -psi_bus * p_es * 1000.0, rel=1e-12)
    assert ledger.load_emission[0] == pytest.approx(psi_bus * 3.0 * 1000.0, rel=1e-12)


def test_feasible_start_zeta_values():
    case = single_bus_case()
    _, form = cleared_form(case, [gen_bid("g", 1, 30.0, 50.0, 0.5)], [40.0])
    start = feasible_start(form)
    assert start.zeta == pytest.approx(0.0, abs=1e-9)

    agents = [gen_bid("g", 1, 30.0, 50.0, 0.5, p_min=10.0)]
    clearing, form2 = cleared_form(case, agents, [40.0])
    with pytest.raises(InfeasibleAtOriginError):
        aumann_shapley_prices(form2)
    start2 = feasible_start(form2)
    assert start2.zeta == pytest.approx(0.25, abs=1e-9)

    res = aumann_shapley_prices(form2, start=start2)
    assert res.cost_sharing_error <= 1e-9
    # with the start share folded into psi, everything allocated adds to E*
    ledger = settle(clearing, res, case)
    total = sum(ledger.storage_emission_charge.values()) + float(ledger.load_emission.sum())
    assert total == pytest.approx(res.emission_cost_at_star, rel=1e-9)


def _rescaled(case, clearing, factor):
    """Restate powers in smaller units (MW -> kW for factor=1000) and re-clear."""

    def scale_curve(curve):
        return PiecewiseLinearCurve(
            segments=tuple((s / factor, b) for s, b in curve.segments),
            domain=(curve.domain[0] * factor, curve.domain[1] * factor),
        )

    branches = [
        Branch(br.from_bus, br.to_bus, br.capacity * factor, br.reactance, br.ptdf_row, br.name)
        for br in case.branches
    ]
    scaled_case = NetworkCase(
        buses=[Bus(b.id, b.loss_sensitivity) for b in case.buses], branches=branches,
        generators=[], storages=[], load_series=case.load_series * factor, tau=case.tau,
        kappa=case.kappa, epsilon=case.epsilon,
        slack_bus=case.slack_bus, loss_offset=case.loss_offset * factor,
    )
    agents = [
        AgentBid(
            name=a.name, bus=a.bus, cost_curve=scale_curve(a.cost_curve),
            p_min=a.p_min * factor, p_max=a.p_max * factor,
            emission_curve=scale_curve(a.emission_curve) if a.emission_curve else None,
            is_storage=a.is_storage, is_renewable=a.is_renewable,
        )
        for a in clearing.bids.agents
    ]
    demand = clearing.bids.demand * factor
    return scaled_case, clear_market(scaled_case, BidSet(agents=agents, demand=demand))


def test_allocated_dollars_do_not_move_when_the_case_is_restated_in_kw():
    case = single_bus_case()
    one, _ = cleared_form(case, [gen_bid("g", 1, 30.0, 20.0, 0.5)], [7.0])
    two, _ = cleared_form(
        case, [gen_bid("b", 1, 20.0, 5.0, 0.2), gen_bid("a", 1, 40.0, 20.0, 0.8)], [10.0])
    for clearing in (one, two):
        base = settle(clearing, aumann_shapley_prices(build_compact_form(case, clearing)), case)
        scaled_case, scaled_clearing = _rescaled(case, clearing, factor=1000.0)
        scaled = settle(scaled_clearing, aumann_shapley_prices(
            build_compact_form(scaled_case, scaled_clearing)), scaled_case)
        assert base.load_emission.sum() > 0.0
        denom = np.maximum(np.abs(base.load_emission), 1.0)
        assert np.max(np.abs(scaled.load_emission - base.load_emission) / denom) <= 1e-8
        for name, cost in base.storage_emission_charge.items():
            assert abs(scaled.storage_emission_charge[name] - cost) <= 1e-8 * max(abs(cost), 1.0)
