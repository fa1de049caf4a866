"""Clearing tests: hand merit orders, dual oracles, loss iteration, curtailment."""

from __future__ import annotations

import numpy as np
import pytest

from carbomarket.lp_core import LpStatus, solve as lp_solve
from carbomarket.market_clearing import (
    AgentBid,
    BidSet,
    MarketInfeasibleError,
    assemble_clearing_lp,
    assemble_market_lp,
    clear_market,
    compute_lmps,
    loss_direction_iterate,
    renewable_curtailment,
)
from carbomarket.network_model import (
    Branch,
    Bus,
    Generator,
    NetworkCase,
    curve_from_points,
    zero_curve,
)


def linear_bid(name, bus, slope, cap, psi=None, p_min=0.0, renewable=False):
    """slope in $/MWh, psi in kgCO2/kWh (so kg/h slope is psi*1000)."""
    cost = curve_from_points([(p_min, slope * p_min), (cap, slope * cap)])
    emission = None
    if psi is not None:
        emission = curve_from_points([(p_min, 1000 * psi * p_min), (cap, 1000 * psi * cap)])
    return AgentBid(name=name, bus=bus, cost_curve=cost, p_min=p_min, p_max=cap,
                    emission_curve=emission, is_renewable=renewable)


def make_case(n_buses=1, branches=(), epsilon=1e-4, loss=None, **kw):
    buses = [Bus(i + 1, loss_sensitivity=(loss[i] if loss else 0.0))
             for i in range(n_buses)]
    return NetworkCase(
        buses=buses, branches=list(branches), generators=[], storages=[],
        load_series=np.zeros((1, n_buses)), epsilon=epsilon, **kw,
    )


def objective_at(case, agents, demand):
    form = assemble_market_lp(case, agents, np.asarray(demand, dtype=float))
    sol = lp_solve(form.problem)
    assert sol.status is LpStatus.OPTIMAL
    return sol.objective


def fd_lmp(case, agents, demand, step=1e-4):
    base = objective_at(case, agents, demand)
    grads = []
    for b in range(len(demand)):
        bumped = np.asarray(demand, dtype=float).copy()
        bumped[b] += step
        grads.append((objective_at(case, agents, bumped) - base) / step)
    return np.array(grads)


def test_single_bus_dispatch_equals_demand():
    case = make_case()
    bids = BidSet(agents=[linear_bid("g", 1, 30.0, 10.0, psi=0.5)], demand=np.array([7.0]))
    problem, form = assemble_clearing_lp(case, bids)
    assert form.row_labels[0] == "balance"
    assert sum(1 for lb in form.row_labels if lb == "balance") == 1
    res = clear_market(case, bids)
    assert res.dispatch[0] == pytest.approx(7.0, abs=1e-9)
    assert res.total_cost == pytest.approx(210.0, abs=1e-6)
    assert res.total_emission == pytest.approx(3500.0, rel=1e-9)


def test_merit_order_and_marginal_price():
    case = make_case()
    agents = [linear_bid("cheap", 1, 20.0, 6.0, psi=0.9),
              linear_bid("dear", 1, 50.0, 10.0, psi=0.1)]
    res = clear_market(case, BidSet(agents=agents, demand=np.array([10.0])))
    # hand enumeration: (6,4) costs 320, (0,10) costs 500, so cheap runs first
    assert res.dispatch == pytest.approx([6.0, 4.0], abs=1e-8)
    # the marginal unit prices at its bid slope plus the tiny emission weight
    assert res.lambda_bar == pytest.approx(50.0 + 1e-4 * 0.1 * 1000, abs=1e-6)
    low = clear_market(case, BidSet(agents=agents, demand=np.array([4.0])))
    assert low.dispatch == pytest.approx([4.0, 0.0], abs=1e-8)
    assert low.lambda_bar == pytest.approx(20.0 + 1e-4 * 0.9 * 1000, abs=1e-6)


def test_emission_weight_breaks_cost_ties():
    agents = [linear_bid("dirty", 1, 30.0, 5.0, psi=0.9),
              linear_bid("clean", 1, 30.0, 5.0, psi=0.1)]
    bids = BidSet(agents=agents, demand=np.array([5.0]))
    weighted = clear_market(make_case(epsilon=1e-4), bids)
    assert weighted.dispatch == pytest.approx([0.0, 5.0], abs=1e-8)
    assert weighted.total_cost == pytest.approx(150.0, abs=1e-6)
    unweighted = clear_market(make_case(epsilon=0.0), bids)
    assert unweighted.total_cost == pytest.approx(150.0, abs=1e-6)
    # the weighted clearing picks the emission-minimal cost-optimal dispatch
    assert weighted.total_emission <= unweighted.total_emission + 1e-9


def test_demand_beyond_capacity_is_infeasible():
    case = make_case()
    bids = BidSet(agents=[linear_bid("g", 1, 30.0, 5.0, psi=0.5)], demand=np.array([10.0]))
    with pytest.raises(MarketInfeasibleError, match="balance") as err:
        clear_market(case, bids)
    assert err.value.violation == pytest.approx(5.0, abs=1e-6)


def congested_triangle():
    branches = [
        Branch(1, 2, capacity=100.0, reactance=0.1),
        Branch(2, 3, capacity=100.0, reactance=0.1),
        Branch(1, 3, capacity=30.0, reactance=0.1),
    ]
    case = make_case(n_buses=3, branches=branches)
    agents = [linear_bid("g1", 1, 10.0, 100.0, psi=0.8),
              linear_bid("g3", 3, 50.0, 100.0, psi=0.2)]
    demand = np.array([0.0, 0.0, 60.0])
    return case, agents, demand


def test_congested_lmps_match_finite_difference_oracle():
    case, agents, demand = congested_triangle()
    res = clear_market(case, BidSet(agents=agents, demand=demand))
    # direct line 1-3 carries 2/3 of the cheap unit's transfer and caps it at 45
    assert res.dispatch == pytest.approx([45.0, 15.0], abs=1e-7)
    # within the emission-weight wobble of the hand values 10 / 30 / 50
    assert res.lmp == pytest.approx([10.0, 30.0, 50.0], abs=0.15)
    assert not res.degenerate
    fd = fd_lmp(case, agents, demand)
    np.testing.assert_allclose(res.lmp, fd, atol=1e-3)
    # spread points along the congested direction: sink pricier than source
    assert res.lmp[2] - res.lmp[0] > 0


def test_congestion_rent_identity_and_nonnegativity():
    case, agents, demand = congested_triangle()
    res = clear_market(case, BidSet(agents=agents, demand=demand))
    injection = np.zeros(3)
    injection[0], injection[2] = res.dispatch[0], res.dispatch[1]
    surplus = float(res.lmp @ (demand - injection))
    rent = float(case.branch_capacities() @ (res.mu_plus + res.mu_minus))
    assert rent >= -1e-9
    assert surplus == pytest.approx(rent, abs=1e-6)


def test_compute_lmps_collapses_without_congestion():
    loss = np.zeros(4)
    lmp = compute_lmps(37.5, np.zeros(2), np.zeros(2), loss, np.zeros((2, 4)))
    np.testing.assert_allclose(lmp, 37.5)
    lossy = np.array([0.0, 0.05, 0.0, 0.0])
    lmp2 = compute_lmps(40.0, np.zeros(2), np.zeros(2), lossy, np.zeros((2, 4)))
    assert lmp2[1] == pytest.approx(0.95 * 40.0)
    assert lmp2[0] == pytest.approx(40.0)


def test_lexicographic_fidelity_against_greedy_two_stage():
    rng = np.random.default_rng(11)
    case = make_case(epsilon=1e-4)
    for _ in range(25):
        n = rng.integers(3, 6)
        slopes = rng.choice([10.0, 20.0, 30.0], size=n)
        psis = rng.uniform(0.1, 1.0, size=n)
        caps = rng.uniform(2.0, 8.0, size=n)
        demand = float(rng.uniform(0.3, 0.9) * caps.sum())
        agents = [linear_bid(f"g{i}", 1, slopes[i], caps[i], psi=psis[i])
                  for i in range(n)]
        res = clear_market(case, BidSet(agents=agents, demand=np.array([demand])))

        # stage 1 by merit order, stage 2 filling cheap ties cleanest-first
        order = sorted(range(n), key=lambda i: (slopes[i], psis[i]))
        left = demand
        p = np.zeros(n)
        for i in order:
            p[i] = min(caps[i], left)
            left -= p[i]
        cost_star = float(slopes @ p)
        emis_star = float(1000 * psis @ p)
        assert res.total_cost == pytest.approx(cost_star, abs=1e-6)
        assert res.total_emission == pytest.approx(emis_star, rel=1e-9, abs=1e-6)
        np.testing.assert_allclose(res.dispatch, p, atol=1e-7)


def test_loss_direction_iteration():
    lossless = make_case()
    bids = BidSet(agents=[linear_bid("g", 1, 30.0, 10.0, psi=0.5)], demand=np.array([7.0]))
    res = loss_direction_iterate(lossless, bids)
    assert res.loss_converged and res.loss_iterations == 1

    fixed = make_case(loss=[0.05])
    res = loss_direction_iterate(fixed, bids)
    assert res.loss_converged and res.loss_iterations == 1
    assert res.dispatch[0] == pytest.approx(0.95 * 7.0 / 0.95, abs=1e-8)

    flip = make_case(
        n_buses=2, branches=[Branch(1, 2, capacity=50.0, reactance=0.1)],
        loss=[0.05, 0.03], loss_direction_dependent=True,
    )
    bids2 = BidSet(agents=[linear_bid("g", 1, 20.0, 50.0, psi=0.5)],
                   demand=np.array([0.0, 10.0]))
    res2 = loss_direction_iterate(flip, bids2)
    assert res2.loss_converged
    assert res2.loss_iterations == 2
    # final pass used L = (+0.05, -0.03): 0.95 p = 1.03 * 10
    assert res2.dispatch[0] == pytest.approx(10.3 / 0.95, abs=1e-8)
    # the re-clear started from the first pass's basis and lands where a
    # cold clear with the final loss vector does
    assert res2.outcome in ("warm", "repaired")
    cold = clear_market(flip, bids2, loss=np.array([0.05, -0.03]))
    assert cold.outcome == "cold"
    np.testing.assert_allclose(res2.dispatch, cold.dispatch, rtol=0, atol=1e-9)
    np.testing.assert_allclose(res2.lmp, cold.lmp, rtol=0, atol=1e-9)
    # a later period starts from the previous period's basis
    nxt = loss_direction_iterate(flip, bids2, warm_basis=res2.basis)
    assert nxt.outcome in ("warm", "repaired") and nxt.loss_iterations == 2
    np.testing.assert_allclose(nxt.dispatch, cold.dispatch, rtol=0, atol=1e-9)
    np.testing.assert_allclose(nxt.lmp, cold.lmp, rtol=0, atol=1e-9)


def renewable_case():
    case = make_case()
    case.generators = [Generator(
        name="wind", bus=1, fuel_curve=zero_curve(0.0, 4.0),
        emission_curve=zero_curve(0.0, 4.0), p_min=0.0, p_max=4.0,
        is_renewable=True,
    )]
    return case


def renewable_bids(avail, demand):
    agents = [
        AgentBid(name="wind", bus=1, cost_curve=zero_curve(0.0, avail),
                 p_min=0.0, p_max=avail, emission_curve=zero_curve(0.0, avail),
                 is_renewable=True),
        linear_bid("gas", 1, 40.0, 10.0, psi=0.4),
    ]
    return BidSet(agents=agents, demand=np.array([demand]))


def test_renewable_curtailment_fractions():
    case = renewable_case()
    full = clear_market(case, renewable_bids(4.0, 6.0))
    assert renewable_curtailment([full], case) == pytest.approx(0.0, abs=1e-9)
    idle = clear_market(case, renewable_bids(4.0, 0.0))
    assert renewable_curtailment([idle], case) == pytest.approx(1.0)
    half = clear_market(case, renewable_bids(4.0, 2.0))
    assert renewable_curtailment([full, half], case) == pytest.approx(0.25, abs=1e-9)
    with pytest.warns(UserWarning, match="no renewable"):
        empty_case = make_case()
        assert renewable_curtailment([full], empty_case) == 0.0


def test_warm_basis_reclear_is_cheap_and_identical():
    case, agents, demand = congested_triangle()
    first = clear_market(case, BidSet(agents=agents, demand=demand))
    nudged = BidSet(agents=agents, demand=demand + np.array([0.0, 0.5, -0.3]))
    cold = clear_market(case, nudged)
    warm = clear_market(case, nudged, warm_basis=first.basis)
    np.testing.assert_allclose(warm.dispatch, cold.dispatch, atol=1e-8)
    assert warm.lambda_bar == pytest.approx(cold.lambda_bar, abs=1e-8)


def storage_bid(n_segments, shift=0.0):
    """Convex storage curve with marginal cost 30 + p $/MWh, in n_segments pieces."""
    xs = np.linspace(-20.0, 20.0, n_segments + 1) + shift * np.r_[0.0, np.ones(n_segments - 1), 0.0]
    curve = curve_from_points([(x, 30.0 * x + 0.5 * x * x) for x in xs])
    return AgentBid(name="es", bus=2, cost_curve=curve, p_min=-20.0, p_max=20.0, is_storage=True)


def test_warm_start_survives_a_storage_curve_gaining_and_losing_a_segment():
    case, agents, demand = congested_triangle()
    previous = clear_market(case, BidSet(agents=agents + [storage_bid(4)], demand=demand))
    assert previous.outcome == "cold"
    for n_segments, shift in ((5, 0.7), (4, -0.4)):
        bids = BidSet(agents=agents + [storage_bid(n_segments, shift)], demand=demand)
        warm = clear_market(case, bids, warm_basis=previous.basis)
        cold = clear_market(case, bids)
        assert len(warm.basis) == len(previous.basis) + (1 if n_segments == 5 else -1)
        assert warm.outcome in ("warm", "repaired")
        for got, want in ((warm.dispatch, cold.dispatch), (warm.lmp, cold.lmp)):
            assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()
        previous = warm
