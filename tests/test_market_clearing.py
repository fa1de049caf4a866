"""Clearing tests: hand merit orders, dual oracles, loss iteration, warm starts."""

from __future__ import annotations

import dataclasses
import logging

import numpy as np
import pytest

from carbomarket import lp_core, market_clearing, simulator
from carbomarket.lp_core import LpStatus, lu_factor
from carbomarket.market_clearing import (
    AgentBid,
    BidSet,
    MarketInfeasibleError,
    assemble_clearing_lp,
    clear_market,
    compute_lmps,
)
from carbomarket.network_model import Branch, Bus, NetworkCase, curve_from_points
from carbomarket.simulator import ScenarioConfig, run_horizon
from carbomarket.storage_policy import choose_parameters, initial_state
from carbomarket.synthetic import replica30_case
from oracles import highs_solve, phase_one_clearing, random_small_case, two_phase_solve


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
    problem, _ = assemble_clearing_lp(case, BidSet(agents=agents, demand=demand))
    sol = two_phase_solve(problem)
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
    problem, _ = assemble_clearing_lp(case, bids)
    assert problem.constraint_count == 1  # the balance row alone
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


@pytest.mark.parametrize("gen_bus, load_bus, side", [(1, 2, "upper"), (2, 1, "lower")])
def test_branch_infeasibility_names_the_violated_side(gen_bus, load_bus, side):
    # a 50 MW floor must cross a 30 MW line: flow beyond +cap or below -cap
    case = make_case(n_buses=2, branches=[Branch(1, 2, capacity=30.0, reactance=0.1, name="tie")])
    demand = np.zeros(2)
    demand[load_bus - 1] = 50.0
    bids = BidSet(agents=[linear_bid("g", gen_bus, 30.0, 80.0, psi=0.5, p_min=50.0)],
                  demand=demand)
    with pytest.raises(MarketInfeasibleError, match=f"branch tie {side}") as err:
        clear_market(case, bids)
    assert err.value.row_label == f"branch tie {side}"
    assert err.value.violation == pytest.approx(20.0, abs=1e-6)


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


def test_loss_direction_iteration(monkeypatch):
    lossless = make_case()
    bids = BidSet(agents=[linear_bid("g", 1, 30.0, 10.0, psi=0.5)], demand=np.array([7.0]))
    res = clear_market(lossless, bids)
    assert res.loss_converged and res.loss_iterations == 1

    fixed = make_case(loss=[0.05])
    res = clear_market(fixed, bids)
    assert res.loss_converged and res.loss_iterations == 1
    assert res.dispatch[0] == pytest.approx(0.95 * 7.0 / 0.95, abs=1e-8)

    line = [Branch(1, 2, capacity=50.0, reactance=0.1)]
    flip = make_case(n_buses=2, branches=line, loss=[0.05, 0.03],
                     loss_direction_dependent=True)
    bids2 = BidSet(agents=[linear_bid("g", 1, 20.0, 50.0, psi=0.5)],
                   demand=np.array([0.0, 10.0]))
    res2 = clear_market(flip, bids2)
    assert res2.loss_converged
    assert res2.loss_iterations == 2
    np.testing.assert_array_equal(res2.form.loss, [0.05, -0.03])
    # final pass used L = (+0.05, -0.03): 0.95 p = 1.03 * 10
    assert res2.dispatch[0] == pytest.approx(10.3 / 0.95, abs=1e-8)
    # the re-clear started from the first pass's basis and lands where a
    # phase-1 clear with the final loss vector fixed does, as does a crash
    assert res2.outcome == "warm"
    settled = make_case(n_buses=2, branches=line, loss=[0.05, -0.03])
    crash = clear_market(settled, bids2)
    assert crash.outcome == "crash" and crash.loss_iterations == 1
    cold = phase_one_clearing(settled, bids2)
    for got in (res2, crash):
        np.testing.assert_allclose(got.dispatch, cold.dispatch, rtol=0, atol=1e-9)
        np.testing.assert_allclose(got.lmp, cold.lmp, rtol=0, atol=1e-9)
    # a later period starts from the previous period's basis
    nxt = clear_market(flip, bids2, warm_basis=res2.basis)
    assert nxt.outcome == "warm" and nxt.loss_iterations == 2
    np.testing.assert_allclose(nxt.dispatch, cold.dispatch, rtol=0, atol=1e-9)
    np.testing.assert_allclose(nxt.lmp, cold.lmp, rtol=0, atol=1e-9)
    # out of clearings before the signs settle: the last one, flagged
    monkeypatch.setattr(market_clearing, "LOSS_ITERATIONS", 1)
    capped = clear_market(flip, bids2)
    assert not capped.loss_converged and capped.loss_iterations == 1
    np.testing.assert_array_equal(capped.form.loss, [0.05, 0.03])


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
    assert previous.outcome == "crash"
    for n_segments, shift in ((5, 0.7), (4, -0.4)):
        bids = BidSet(agents=agents + [storage_bid(n_segments, shift)], demand=demand)
        warm = clear_market(case, bids, warm_basis=previous.basis, warm_upper=previous.at_upper)
        cold = phase_one_clearing(case, bids)
        # one balance row and one ranged row per branch, whatever the curve
        assert len(warm.basis) == len(previous.basis) == 1 + len(case.branches)
        assert warm.outcome == "warm"
        for got, want in ((warm.dispatch, cold.dispatch), (warm.lmp, cold.lmp)):
            assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()
        previous = warm


def test_a_carried_basis_whose_segment_is_gone_starts_from_the_crash():
    # the storage is marginal on its 7th of 8 segments; cut into 4, the curve
    # has no column for that key, so the carried basis does not map whole
    case = make_case(n_buses=2, branches=[Branch(1, 2, capacity=100.0, reactance=0.1)])
    gen, demand = linear_bid("g", 1, 45.0, 100.0, psi=0.5), np.array([0.0, 12.0])
    previous = clear_market(case, BidSet(agents=[gen, storage_bid(8)], demand=demand))
    assert ("es", "segment", 6) in previous.basis
    bids = BidSet(agents=[gen, storage_bid(4)], demand=demand)
    res = clear_market(case, bids, warm_basis=previous.basis, warm_upper=previous.at_upper)
    assert res.outcome == "crash"
    assert_matches_highs(case, bids, res)


def test_a_carried_basis_whose_factor_fails_once_retries_in_paranoid_mode(monkeypatch, caplog):
    case, agents, demand = congested_triangle()
    previous = clear_market(case, BidSet(agents=agents + [storage_bid(4)], demand=demand))
    bids = BidSet(agents=agents + [storage_bid(5, 0.7)], demand=demand)
    failures = [lp_core.SimplexNumericalError("singular basis matrix")]

    def failing_once(bmat):
        if failures:
            raise failures.pop()
        return lu_factor(bmat)

    monkeypatch.setattr(lp_core, "lu_factor", failing_once)
    with caplog.at_level(logging.DEBUG, logger=lp_core.logger.name):
        res = clear_market(case, bids, warm_basis=previous.basis, warm_upper=previous.at_upper)
    assert not failures
    # no phase 1: the fast attempt, then its paranoid retry from the same basis
    headers = [r.getMessage().split() for r in caplog.records
               if r.getMessage().startswith(("warm ", "phase1 "))]
    assert [(h[0], h[-1]) for h in headers] == [("warm", "paranoid=0"), ("warm", "paranoid=1")]
    assert res.outcome == "warm"
    cold = phase_one_clearing(case, bids)
    np.testing.assert_allclose(res.dispatch, cold.dispatch, rtol=0, atol=1e-9)
    np.testing.assert_allclose(res.lmp, cold.lmp, rtol=0, atol=1e-9)


def test_a_carried_basis_singular_in_the_new_lp_starts_from_the_crash(caplog):
    # two pieces of one curve have equal columns, so a basis holding both
    # fails to factor on the fast path and on its paranoid retry
    case, agents, demand = congested_triangle()
    bids = BidSet(agents=agents + [storage_bid(4)], demand=demand)
    singular = (("es", "segment", 0), ("es", "segment", 1)) + tuple(
        ("branch", l) for l in range(len(case.branches) - 1))
    with caplog.at_level(logging.DEBUG, logger=lp_core.logger.name):
        res = clear_market(case, bids, warm_basis=singular)
    headers = [r.getMessage().split() for r in caplog.records
               if r.getMessage().startswith(("warm ", "phase1 "))]
    assert [(h[0], h[-1]) for h in headers] == [
        ("warm", "paranoid=0"), ("warm", "paranoid=1"), ("warm", "paranoid=0")]
    assert res.outcome == "crash"
    crash = clear_market(case, bids)
    np.testing.assert_array_equal(res.dispatch, crash.dispatch)
    np.testing.assert_array_equal(res.lmp, crash.lmp)


def test_a_market_with_every_offer_fixed_is_checked_at_p_min():
    case = make_case(n_buses=2, branches=[Branch(1, 2, capacity=100.0, reactance=0.1)])

    def must_run(bid):
        return dataclasses.replace(bid, p_min=bid.p_max)

    fixed = [must_run(linear_bid("a", 1, 20.0, 30.0, psi=0.5)),
             must_run(linear_bid("b", 2, 40.0, 5.0, psi=0.3))]
    met = clear_market(case, BidSet(agents=fixed, demand=np.array([0.0, 35.0])))
    np.testing.assert_array_equal(met.dispatch, [30.0, 5.0])
    assert met.lambda_bar == 0.0 and not met.lmp.any() and met.outcome == "crash"
    assert met.basis == (("branch", 0),)
    # its basis has no balance column, so the next period starts from the crash
    free = [linear_bid("a", 1, 20.0, 30.0, psi=0.5), fixed[1]]
    nxt = clear_market(case, BidSet(agents=free, demand=np.array([0.0, 35.0])),
                       warm_basis=met.basis, warm_upper=met.at_upper)
    # a's delivered cost: 20 $/MWh plus epsilon times 500 kg/MWh
    assert nxt.outcome == "crash" and nxt.lambda_bar == pytest.approx(20.05)

    with pytest.raises(MarketInfeasibleError) as err:
        clear_market(case, BidSet(agents=fixed, demand=np.array([0.0, 36.5])))
    assert str(err.value) == "market infeasible; most violated: balance (short by 1.5)"
    # the balance holds, but 130 MW from bus 1 overloads the 100 MW line
    heavy = [must_run(linear_bid("a", 1, 20.0, 130.0, psi=0.5)), fixed[1]]
    with pytest.raises(MarketInfeasibleError) as err:
        clear_market(case, BidSet(agents=heavy, demand=np.array([0.0, 135.0])))
    assert err.value.row_label == "branch 0 upper"
    assert err.value.violation == pytest.approx(30.0)


def test_crash_clearing_matches_phase_one_on_replica30_series7(monkeypatch):
    # every 7th period of the first two weeks, from the initial storage state
    case = replica30_case(seed=7)
    scenario = ScenarioConfig.proposed()
    params = {u.name: choose_parameters(u) for u in case.storages}
    states = {u.name: initial_state(u, params[u.name]) for u in case.storages}
    factorizations, solves, clearings = [], [], []

    def counting_lu(bmat):
        factorizations.append(bmat.shape)
        return lu_factor(bmat)

    def recording_solve(*args, **kwargs):
        before = len(factorizations)
        solves.append(lp_core.solve_with_basis(*args, **kwargs))
        solves[-1].lus = len(factorizations) - before
        return solves[-1]

    def recording_clear(*args, **kwargs):
        clearings.append(clear_market(*args, **kwargs))
        return clearings[-1]

    monkeypatch.setattr(lp_core, "lu_factor", counting_lu)
    monkeypatch.setattr(market_clearing, "solve_with_basis", recording_solve)
    monkeypatch.setattr(simulator, "clear_market", recording_clear)
    for t in range(0, 14 * 24, 7):
        simulator.run_period(case, scenario, t, states, params)
    monkeypatch.undo()
    assert len(solves) == len(clearings) == 48
    for sol, crash in zip(solves, clearings):
        assert crash.outcome == "crash" and sol.bound_flips == 0
        assert sol.iterations >= lp_core.REFACTOR_PERIOD or sol.lus == 0
        cold = phase_one_clearing(case, crash.bids)
        for got, want in ((crash.dispatch, cold.dispatch), (crash.lmp, cold.lmp)):
            assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


def test_crash_clears_demand_at_the_floor_and_reports_demand_below_it():
    line = [Branch(1, 2, capacity=50.0, reactance=0.1)]
    case = make_case(n_buses=2, branches=line, loss=[0.02, 0.0])
    agents = [linear_bid("a", 1, 20.0, 40.0, psi=0.5, p_min=10.0),
              linear_bid("b", 2, 30.0, 40.0, psi=0.2, p_min=5.0)]
    # the balance rhs sum (1-L_b) D_b - sum (1-L_i) p_min_i is 0 (to
    # roundoff), then -2
    for bus2, gap in ((14.8, None), (12.8, 2.0)):
        bids = BidSet(agents=agents, demand=np.array([0.0, bus2]))
        if gap is None:
            res = clear_market(case, bids)
            assert res.outcome == "crash"
            np.testing.assert_allclose(res.dispatch, [10.0, 5.0], rtol=0, atol=1e-9)
            np.testing.assert_allclose(res.lmp, phase_one_clearing(case, bids).lmp,
                                       rtol=0, atol=1e-9)
            continue
        with pytest.raises(MarketInfeasibleError, match="most violated: balance ") as err:
            clear_market(case, bids)
        assert err.value.row_label == "balance"
        assert err.value.violation == pytest.approx(gap, abs=1e-9)


def test_crash_with_tied_delivered_costs_reaches_the_phase_one_objective():
    # "b" and "c" deliver at 20 $/MWh and 500 kg/MWh, as "a" does up to its kink
    case = make_case(n_buses=3, branches=[Branch(1, 2, capacity=80.0, reactance=0.1),
                                          Branch(2, 3, capacity=25.0, reactance=0.2)],
                     loss=[0.0, 0.05, 0.0])
    a = AgentBid(name="a", bus=1, p_min=0.0, p_max=60.0,
                 cost_curve=curve_from_points([(0.0, 0.0), (30.0, 600.0), (60.0, 1500.0)]),
                 emission_curve=curve_from_points([(0.0, 0.0), (60.0, 30000.0)]))
    agents = [a, linear_bid("b", 2, 20.0 * 0.95, 30.0, psi=0.5 * 0.95),
              linear_bid("c", 3, 20.0, 30.0, psi=0.5)]
    for load in (10.0, 45.0, 70.0, 95.0):
        bids = BidSet(agents=agents, demand=np.array([0.0, load / 2, load / 2]))
        res, cold = clear_market(case, bids), phase_one_clearing(case, bids)
        assert res.outcome == "crash"
        got = res.total_cost + case.epsilon * res.total_emission
        want = cold.total_cost + case.epsilon * cold.total_emission
        assert got == pytest.approx(want, rel=1e-12, abs=1e-9)
        assert_matches_highs(case, bids, res)


def test_crash_over_zero_width_segments():
    # close some of the storage's segments: the crash must order, fill and
    # price around columns whose box is a single point
    case, agents, demand = congested_triangle()
    bids = BidSet(agents=agents + [storage_bid(6)], demand=demand)
    problem, form = assemble_clearing_lp(case, bids)
    es = np.flatnonzero(form.column_agent == 2)
    for closed in (es[:1], es[1::2], es[:-1], es):
        upper = problem.upper.copy()
        upper[closed] = 0.0
        shut = dataclasses.replace(problem, upper=upper)
        start = market_clearing._merit_order_start(shut)
        sol, want = lp_core.solve_with_basis(shut, *start), two_phase_solve(shut)
        assert sol.warm_started and sol.bound_flips == 0
        assert sol.objective == pytest.approx(want.objective, rel=1e-12, abs=1e-9)
        assert np.abs(sol.duals - want.duals).max() <= 1e-9 * np.abs(want.duals).max()


def test_demand_beyond_capacity_names_the_balance_gap():
    case = make_case(n_buses=2, branches=[Branch(1, 2, capacity=100.0, reactance=0.1)])
    bids = BidSet(agents=[linear_bid("a", 1, 20.0, 30.0, psi=0.5),
                          linear_bid("b", 2, 40.0, 25.0, psi=0.3)],
                  demand=np.array([10.0, 57.5]))
    with pytest.raises(MarketInfeasibleError) as err:
        clear_market(case, bids)
    assert str(err.value) == "market infeasible; most violated: balance (short by 12.5)"
    assert err.value.row_label == "balance"


def test_an_agent_on_a_bus_that_loses_everything_is_rejected_at_assembly():
    # a unit at a bus with loss sensitivity 1 or more delivers nothing, and
    # its segment would have no positive balance coefficient to crash on
    line = [Branch(1, 2, capacity=100.0, reactance=0.1)]
    bids = BidSet(agents=[linear_bid("lost", 1, 5.0, 50.0, psi=0.5),
                          linear_bid("b", 2, 40.0, 50.0, psi=0.3)],
                  demand=np.array([0.0, 30.0]))
    for loss in (1.0, 1.5):
        case = make_case(n_buses=2, branches=line, loss=[loss, 0.0])
        message = f"agent lost sits on bus 1, whose loss sensitivity {loss:g} leaves"
        with pytest.raises(ValueError, match=message):
            assemble_clearing_lp(case, bids)
        with pytest.raises(ValueError, match=message):
            clear_market(case, bids)


def kinked_triangle_bids(demand):
    """Convex cost and emission curves whose kinks fall at different outputs."""
    cheap = AgentBid(
        name="cheap", bus=1, p_min=5.0, p_max=60.0,
        cost_curve=curve_from_points([(5.0, 50.0), (20.0, 200.0), (45.0, 700.0), (60.0, 1150.0)]),
        emission_curve=curve_from_points([(5.0, 4000.0), (30.0, 19000.0), (60.0, 43000.0)]),
    )
    dear = AgentBid(
        name="dear", bus=3, p_min=0.0, p_max=80.0,
        cost_curve=curve_from_points([(0.0, 0.0), (35.0, 875.0), (80.0, 2900.0)]),
        emission_curve=curve_from_points(
            [(0.0, 0.0), (10.0, 2000.0), (50.0, 14000.0), (80.0, 26000.0)]),
    )
    es = storage_bid(6)
    return BidSet(agents=[cheap, dear, es], demand=np.asarray(demand, dtype=float))


def test_uncongested_crash_is_optimal_as_it_starts():
    # with no branch binding, the merit order alone is the optimum, losses
    # and all: the dual simplex has nothing left to do
    wide = [Branch(1, 2, capacity=1e3, reactance=0.1), Branch(2, 3, capacity=1e3, reactance=0.1),
            Branch(1, 3, capacity=1e3, reactance=0.1)]
    case = make_case(n_buses=3, branches=wide, loss=[0.0, 0.03, 0.05])
    for load in (8.0, 30.0, 55.0, 90.0, 120.0):
        problem, _ = assemble_clearing_lp(case, kinked_triangle_bids([0.0, 0.0, load]))
        sol = lp_core.solve_with_basis(problem, *market_clearing._merit_order_start(problem))
        assert sol.warm_started and sol.iterations == sol.bound_flips == 0
        assert sol.objective == pytest.approx(two_phase_solve(problem).objective, rel=1e-12)


def test_segments_fill_in_order_and_emissions_are_exact():
    case, _, _ = congested_triangle()
    cases = [(case, kinked_triangle_bids([0.0, 0.0, d])) for d in (8.0, 30.0, 55.0, 90.0, 120.0)]
    rng = np.random.default_rng(5)
    cases += [random_small_case(rng, min_output_prob=0.5) for _ in range(10)]
    for case, bids in cases:
        problem, form = assemble_clearing_lp(case, bids)
        sol = two_phase_solve(problem)
        assert sol.status is LpStatus.OPTIMAL
        for k in range(form.n_agents):
            cols = np.flatnonzero(form.column_agent == k)
            fill = sol.primal[cols] / problem.upper[cols]
            # a segment takes power only once every cheaper one is full
            started = np.flatnonzero(fill > 1e-12)
            if started.size:
                np.testing.assert_allclose(fill[: started[-1]], 1.0, rtol=0, atol=1e-12)
        res = clear_market(case, bids)
        assert res.emission.shape == (len(bids.agents),)
        for agent, p, emission in zip(bids.agents, res.dispatch, res.emission):
            want = 0.0 if agent.emission_curve is None else agent.emission_curve.value(p)
            assert emission == pytest.approx(want, rel=1e-12, abs=1e-9)
        want_cost = sum(a.cost_curve.value(p) for a, p in zip(bids.agents, res.dispatch))
        assert res.total_cost == pytest.approx(want_cost, rel=1e-12, abs=1e-9)


def highs_prices(case, bids):
    """Objective and LMPs of the clearing LP solved by HiGHS instead."""
    problem, form = assemble_clearing_lp(case, bids)
    res = highs_solve(problem)
    y = res.eqlin.marginals
    n_br = form.n_branches
    lmp = compute_lmps(y[0], np.maximum(y[1:1 + n_br], 0.0), np.maximum(-y[1:1 + n_br], 0.0),
                       form.loss, case.ptdf)
    return res.fun, y, lmp


def assert_matches_highs(case, bids, result):
    problem, _ = assemble_clearing_lp(case, bids)
    ours = two_phase_solve(problem)
    fun, y, lmp = highs_prices(case, bids)
    assert abs(ours.objective - fun) <= 1e-9 * max(1.0, abs(fun))
    # balance and branch duals; the bounds' duals are degenerate and not compared
    scale = max(1.0, np.abs(y).max())
    assert np.abs(ours.duals - y).max() <= 1e-9 * scale
    assert np.abs(result.lmp - lmp).max() <= 1e-9 * max(1.0, np.abs(lmp).max())


def test_clearing_matches_highs_on_replica30_and_random_networks(monkeypatch):
    case = replica30_case(seed=7)
    seen = []

    def recording(case, bids, **kwargs):
        seen.append((bids, clear_market(case, bids, **kwargs)))
        return seen[-1][1]

    monkeypatch.setattr(simulator, "clear_market", recording)
    run_horizon(case, ScenarioConfig.a1(horizon=24))
    monkeypatch.undo()
    assert len(seen) == 24 and all(r.outcome == "warm" for _, r in seen[1:])
    for bids, result in seen:
        assert_matches_highs(case, bids, result)

    rng = np.random.default_rng(2718)
    for _ in range(15):
        small, bids = random_small_case(rng, min_output_prob=0.3)
        assert_matches_highs(small, bids, clear_market(small, bids))


@pytest.mark.parametrize("spread", [0.0, 1e-12])
def test_a_long_storage_curve_with_tied_slopes_clears_as_highs(spread):
    # 240 sampled segments in 8 runs of 30 whose slopes tie: exactly (the
    # curve merges each run) or within the ratio test's 1e-12 tie window
    # (every segment is a column); demand walks the cleared storage power up and
    # down the curve, each clearing carried from the previous one's basis
    x = np.linspace(-4.0, 4.0, 241)
    k = np.arange(240)
    slopes = np.array([22.0, 28.0, 34.0, 40.0, 46.0, 52.0, 58.0, 64.0])[k // 30] \
        + spread * (k % 30)
    v = np.concatenate([[0.0], np.cumsum(slopes * np.diff(x))])
    curve = curve_from_points(zip(x, v - v[120]))
    case = make_case(3, [Branch(1, 2, capacity=6.0, reactance=0.1),
                         Branch(2, 3, capacity=50.0, reactance=0.2),
                         Branch(1, 3, capacity=50.0, reactance=0.15)], kappa=0.05)
    agents = [linear_bid("g1", 1, 20.0, 30.0, psi=0.5), linear_bid("g3", 3, 70.0, 30.0, psi=0.5),
              AgentBid(name="es", bus=2, cost_curve=curve, p_min=-4.0, p_max=4.0,
                       is_storage=True)]
    warm, storage = (None, ()), []
    for d in np.concatenate([np.linspace(2.0, 14.0, 13), np.linspace(13.5, 2.5, 12)]):
        bids = BidSet(agents=agents, demand=np.array([1.0, d, 2.0]))
        result = clear_market(case, bids, *warm)
        warm = result.basis, result.at_upper
        storage.append(result.dispatch[2])
        form = result.form
        assert spread == 0.0 or form.column_agent.size >= 200
        fun, y, lmp = highs_prices(case, bids)
        # the LP prices bid cost and epsilon x emission above every p_min
        ours = result.total_cost - form.cost_at_min.sum() \
            + case.epsilon * (result.total_emission - form.emission_at_min.sum())
        assert abs(ours - fun) <= 1e-9 * max(1.0, abs(fun))
        duals = np.concatenate([[result.lambda_bar], result.mu_minus - result.mu_plus])
        assert np.abs(duals - y).max() <= 1e-9 * max(1.0, np.abs(y).max())
        assert np.abs(result.lmp - lmp).max() <= 1e-9 * max(1.0, np.abs(lmp).max())
    assert min(storage) < -3.0 and max(storage) > 3.0



def test_phase_one_explains_infeasible_clearings_as_the_frozen_two_phase_solver():
    # random networks with demand scaled by 0.8-3 and lines cut to 5-60% of
    # their capacity; every clearing the dual simplex proves infeasible is
    # explained by phase 1, whose total violation is the LP optimum of the
    # least infeasible point and so must match the frozen solver's
    rng = np.random.default_rng(1646)
    compared = 0
    while compared < 500:
        case, bids = random_small_case(rng)
        cut = rng.uniform(0.05, 0.6, len(case.branches))
        case = dataclasses.replace(case, branches=[
            dataclasses.replace(br, capacity=br.capacity * f) for br, f in zip(case.branches, cut)])
        bids = BidSet(agents=bids.agents, demand=bids.demand * rng.uniform(0.8, 3.0))
        problem, _ = assemble_clearing_lp(case, bids)
        start = market_clearing._merit_order_start(problem)
        if lp_core.solve_with_basis(problem, *start).status is LpStatus.OPTIMAL:
            continue
        got, want = lp_core.solve(problem), two_phase_solve(problem)
        assert got.status is want.status is LpStatus.INFEASIBLE
        total = np.abs(want.row_violations).sum()
        assert abs(np.abs(got.row_violations).sum() - total) <= 1e-9 * total
        compared += 1
