"""Acceptance gate: every stated guarantee checked at its stated tolerance.

One test per numbered acceptance item, each finishing with a single printed
PASS line carrying the measured figures, so a verbose run reads as a
checklist. The bundled 30-bus replica grid (four scenarios at the full
horizon) runs once in a module fixture shared by the system-level checks.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from carbomarket.cef_baseline import FlowGraph, cef_solve
from carbomarket.emission_allocation import (
    allocate_period,
    aumann_shapley_prices,
    build_compact_form,
)
from carbomarket.market_clearing import (
    AgentBid,
    BidSet,
    MarketInfeasibleError,
    clear_market,
)
from carbomarket.network_model import Branch, curve_from_points
from carbomarket.simulator import (
    ScenarioConfig,
    recorded_combined_prices,
    replay_storage,
    run_horizon,
)
from carbomarket.storage_policy import (
    bid_curve,
    choose_parameters,
    offline_optimal,
    optimal_power,
    power_bounds,
    scaled_parameters,
)
from carbomarket.synthetic import replica30_case
from oracles import c2_psi, random_small_case
from test_cef_baseline import mixing_bus_pair, mixing_bus_split
from test_emission_allocation import two_generator_crossing_form
from test_market_clearing import congested_triangle, fd_lmp, linear_bid, make_case
from test_storage_policy import grid_argmin, make_unit


@pytest.fixture(scope="module")
def replica_grid():
    """All four scenarios on the bundled replica, plus the grid wall time."""
    case = replica30_case()
    t0 = time.perf_counter()
    reports = {}
    for scenario in (ScenarioConfig.proposed(), ScenarioConfig.a1(),
                     ScenarioConfig.a2(), ScenarioConfig.a3()):
        reports[scenario.name] = run_horizon(case, scenario)
    elapsed = time.perf_counter() - t0
    return case, reports, elapsed


def test_criterion_01_cost_sharing_closes_on_random_cases():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    done, worst = 0, 0.0
    while done < 50:
        case, bids = random_small_case(rng)
        try:
            clearing = clear_market(case, bids)
        except MarketInfeasibleError:
            continue
        res = allocate_period(case, clearing)
        worst = max(worst, res.cost_sharing_error)
        assert res.cost_sharing_error <= 1e-9
        done += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"criterion 1 PASS: 50 random cases, worst cost-sharing error "
          f"{worst:.2e} <= 1e-9, {elapsed:.1f}s < 30s")


def test_criterion_02_price_sweep_matches_dense_integration():
    t0 = time.perf_counter()
    forms = [two_generator_crossing_form()[1]]
    rng = np.random.default_rng(202)
    while len(forms) < 11:
        case, bids = random_small_case(rng, n_storages=0)
        try:
            clearing = clear_market(case, bids)
        except MarketInfeasibleError:
            continue
        forms.append(build_compact_form(case, clearing))
    worst_gap, worst_iters = 0.0, 0
    for form in forms:
        res = aumann_shapley_prices(form)
        oracle = c2_psi(form, 100_000)
        scale = max(float(np.max(np.abs(res.psi))), 1e-12)
        gap = float(np.max(np.abs(res.psi - oracle))) / scale
        worst_gap = max(worst_gap, gap)
        worst_iters = max(worst_iters, res.iterations)
        assert gap <= 1e-4
        assert res.iterations <= 10
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 2 PASS: 11 cases vs 1e5-sample integration, worst "
          f"relative gap {worst_gap:.2e} <= 1e-4, sweep iterations <= "
          f"{worst_iters}, {elapsed:.1f}s < 60s")


def test_criterion_03_flow_tracing_goldens_and_price_invariance():
    case, bids = mixing_bus_pair()
    res = clear_market(case, bids)
    rho_pair = cef_solve(FlowGraph.from_clearing(case, res))
    assert rho_pair[0] == pytest.approx(0.7, abs=1e-12)
    assert rho_pair[1] == pytest.approx(0.7, abs=1e-12)
    psi_pair = aumann_shapley_prices(build_compact_form(case, res)).psi

    case2, bids2 = mixing_bus_split()
    res2 = clear_market(case2, bids2)
    rho_split = cef_solve(FlowGraph.from_clearing(case2, res2))
    assert rho_split[0] == pytest.approx(0.9, abs=1e-12)
    assert rho_split[1] == pytest.approx(0.6, abs=1e-12)
    assert rho_split[2] == pytest.approx(0.6, abs=1e-12)
    psi_split = aumann_shapley_prices(build_compact_form(case2, res2)).psi

    drift = max(abs(psi_pair[0] - psi_split[0]), abs(psi_pair[1] - psi_split[2]))
    assert drift <= 1e-9
    print(f"criterion 3 PASS: intensities 0.7 and 0.9/0.6/0.6 exact to 1e-12, "
          f"usage-price drift {drift:.2e} <= 1e-9 under bus insertion")


def test_criterion_04_soc_never_leaves_bounds_on_long_price_paths():
    rng = np.random.default_rng(404)
    t0 = time.perf_counter()
    t_len = 100_000
    margin = np.inf
    for _ in range(20):
        eta_c = rng.uniform(0.7, 1.0)
        eta_d = rng.uniform(0.7, 1.0)
        e_min = rng.uniform(0.0, 5.0)
        e_max = e_min + rng.uniform(1.0, 20.0)
        hi = rng.uniform(0.02, 0.2)
        lo = rng.uniform(0.0, 0.95) * hi * eta_c * eta_d
        unit = make_unit(p_max=rng.uniform(1.0, 6.0), eta_c=eta_c, eta_d=eta_d,
                         e_min=e_min, e_max=e_max,
                         e_init=rng.uniform(e_min, e_max),
                         gamma_lo=lo, gamma_hi=hi)
        params = choose_parameters(unit)
        gammas = rng.uniform(lo, hi, size=t_len)
        e = unit.e_init
        q = e - params.e_s
        lo_seen = hi_seen = e
        for gamma in gammas:
            p = optimal_power(q, gamma, params, unit, 1.0)
            delta = -p / unit.eta_d if p >= 0 else -p * unit.eta_c
            e += delta
            q += delta
            if e < lo_seen:
                lo_seen = e
            elif e > hi_seen:
                hi_seen = e
        assert lo_seen >= unit.e_min - 1e-7
        assert hi_seen <= unit.e_max + 1e-7
        margin = min(margin, lo_seen - unit.e_min, unit.e_max - hi_seen)
    elapsed = time.perf_counter() - t0
    assert elapsed < 20.0
    print(f"criterion 4 PASS: 20 units x 1e5 steps, zero bound violations "
          f"(tightest approach {margin:.2e} MWh), {elapsed:.1f}s < 20s")


def test_criterion_05_online_revenue_inside_the_performance_band():
    unit = make_unit()
    params = choose_parameters(unit)
    tau = 1.0
    rng = np.random.default_rng(505)
    t_len = 10_000
    gammas = rng.uniform(unit.gamma_lo, unit.gamma_hi, size=t_len)
    t0 = time.perf_counter()
    e = unit.e_init
    q = e - params.e_s
    online = np.zeros(t_len)
    for t, gamma in enumerate(gammas):
        p = optimal_power(q, gamma, params, unit, tau)
        online[t] = 1000.0 * gamma * p * tau
        delta = -p * tau / unit.eta_d if p >= 0 else -p * tau * unit.eta_c
        e += delta
        q += delta
    sched = offline_optimal(gammas, unit, tau)
    v_star = sched.revenue / t_len
    gap = 1000.0 * (unit.p_max * tau) ** 2 / (2 * params.v_s * unit.eta_d ** 2)
    sigma_hat = float(np.std(online, ddof=1)) / np.sqrt(t_len)
    mean = float(online.mean())
    assert mean >= v_star - gap
    assert mean <= v_star + 3.0 * sigma_hat
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 5 PASS: online {mean:.2f} $/h inside "
          f"[{v_star - gap:.2f}, {v_star + 3.0 * sigma_hat:.2f}] "
          f"(hindsight {v_star:.2f}, gap {gap:.2f}, 3-sigma {3 * sigma_hat:.2f}), "
          f"{elapsed:.1f}s < 60s")


def test_criterion_06_closed_form_power_matches_grid_argmin():
    unit = make_unit()
    params = choose_parameters(unit)
    tau = 1.0
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(10_000):
        q = rng.uniform(-1.5 * params.v_s * params.gamma_hi,
                        0.5 * params.v_s * params.gamma_hi)
        gamma = rng.uniform(-0.05, 0.2)
        p = optimal_power(q, gamma, params, unit, tau)
        worst = max(worst, abs(p - grid_argmin(q, gamma, params, unit, tau)))
    assert worst <= 1e-3
    print(f"criterion 6 PASS: 1e4 random draws vs 1e-4-step grid argmin, "
          f"max power gap {worst:.2e} MW <= 1e-3")


def test_criterion_07_single_bus_clearing_reproduces_the_policy():
    unit = make_unit()
    assert unit.n_segments == 50
    params = choose_parameters(unit)
    tau = 1.0
    case = make_case()
    rng = np.random.default_rng(707)
    worst_ratio, outside = 0.0, 0
    for _ in range(100):
        q = rng.uniform(unit.e_min - params.e_s, unit.e_max - params.e_s)
        psi_prev = float(rng.choice([0.0, 0.003]))
        gamma_star = rng.uniform(0.005, 0.16)  # wanders outside [0.04, 0.11]
        outside += not unit.gamma_lo <= gamma_star <= unit.gamma_hi
        slope = 1000.0 * (gamma_star - psi_prev)
        lo, hi = power_bounds(q, params, unit, tau)
        curve = bid_curve(q, psi_prev, params, unit, tau)
        agents = [
            AgentBid(name="g", bus=1,
                     cost_curve=curve_from_points([(0.0, 0.0), (200.0, slope * 200.0)]),
                     p_min=0.0, p_max=200.0),
            AgentBid(name="es", bus=1, cost_curve=curve, p_min=lo, p_max=hi,
                     is_storage=True),
        ]
        res = clear_market(case, BidSet(agents=agents, demand=np.array([50.0])))
        cleared = float(res.dispatch[1])
        # the bid only offers powers the price window justifies, so a price
        # beyond the window clears at the window-edge power; that saturation
        # is what keeps the stored energy inside its rails at any price
        expected = float(np.clip(optimal_power(q, gamma_star, params, unit, tau),
                                 lo, hi))
        tol = max(hi - lo, 1e-12) / (unit.n_segments - 1) + 1e-9
        gap = abs(cleared - expected)
        assert gap <= tol
        worst_ratio = max(worst_ratio, gap / tol)
        e_after = q + params.e_s + (-cleared * tau / unit.eta_d if cleared >= 0
                                    else -cleared * tau * unit.eta_c)
        assert unit.e_min - 1e-9 <= e_after <= unit.e_max + 1e-9
    assert outside > 0
    print(f"criterion 7 PASS: 100 cleared states ({outside} with the marginal "
          f"price outside the tuned window), stored energy always in range, "
          f"worst gap at {worst_ratio:.2f} of the one-segment tolerance")


def test_criterion_08_scenario_grid_reproduces_the_directional_table(replica_grid):
    _, reports, elapsed = replica_grid
    p, a1, a2 = reports["proposed"], reports["a1"], reports["a2"]
    assert p.avg_emission < a1.avg_emission
    assert p.avg_emission <= a2.avg_emission
    assert p.curtailment <= a2.curtailment
    assert a1.avg_generation_cost <= p.avg_generation_cost
    assert elapsed < 600.0
    print(f"criterion 8 PASS: emission {p.avg_emission:.0f} < {a1.avg_emission:.0f} "
          f"(no allocation) and <= {a2.avg_emission:.0f} (no storage); curtailment "
          f"{p.curtailment:.2%} <= {a2.curtailment:.2%}; cost {a1.avg_generation_cost:.0f} "
          f"<= {p.avg_generation_cost:.0f}; grid {elapsed:.0f}s < 600s")


def test_criterion_09_baseline_revenue_ordering(replica_grid):
    case, reports, _ = replica_grid
    proposed = reports["proposed"]
    lines = []
    for unit in case.storages:
        gammas = recorded_combined_prices(proposed, case, unit.bus)
        rate_p = proposed.storage_revenue_rate[unit.name]
        rate_b1 = replay_storage(gammas, unit, case.tau, method="b1").rate
        rate_b2 = replay_storage(gammas, unit, case.tau, method="b2").rate
        rate_b3 = replay_storage(gammas, unit, case.tau, method="b3").rate
        assert rate_b3 >= rate_p >= rate_b1 >= rate_b2
        assert rate_p >= 0.5 * rate_b3
        lines.append(f"{unit.name} B3 {rate_b3:.1f} >= P {rate_p:.1f} >= "
                     f"B1 {rate_b1:.1f} >= B2 {rate_b2:.1f} $/h, "
                     f"P/B3 {rate_p / rate_b3:.2f}")
    print("criterion 9 PASS: " + "; ".join(lines))


def test_criterion_10_revenue_rate_monotone_in_the_penalty_weight(replica_grid):
    case, reports, _ = replica_grid
    proposed = reports["proposed"]
    multipliers = (0.1, 0.4, 0.7, 1.0)
    lines = []
    for unit in case.storages:
        gammas = recorded_combined_prices(proposed, case, unit.bus)
        rates = [replay_storage(gammas, unit, case.tau, method="proposed",
                                params=scaled_parameters(unit, m)).rate
                 for m in multipliers]
        for lo_rate, hi_rate in zip(rates, rates[1:]):
            assert hi_rate >= lo_rate - 1e-9
        lines.append(f"{unit.name} " + " <= ".join(f"{r:.1f}" for r in rates))
    print(f"criterion 10 PASS: rates over weight multipliers {multipliers}: "
          + "; ".join(lines))


def test_criterion_11_lmps_match_finite_difference_sensitivities():
    case, agents, demand = congested_triangle()
    res = clear_market(case, BidSet(agents=agents, demand=demand))
    assert not res.degenerate
    gap_triangle = float(np.max(np.abs(res.lmp - fd_lmp(case, agents, demand))))
    assert gap_triangle <= 1e-3

    # lossy radial fixture: binding corridor out of the cheap unit's bus,
    # both units strictly inside their capacity
    branches = [Branch(1, 2, capacity=12.0, reactance=0.1),
                Branch(2, 3, capacity=100.0, reactance=0.1)]
    lossy = make_case(n_buses=3, branches=branches, loss=[0.02, 0.05, 0.03])
    agents2 = [linear_bid("g1", 1, 12.0, 100.0, psi=0.6),
               linear_bid("g3", 3, 35.0, 100.0, psi=0.3)]
    demand2 = np.array([0.0, 20.0, 15.0])
    res2 = clear_market(lossy, BidSet(agents=agents2, demand=demand2))
    assert not res2.degenerate
    assert 0.5 < res2.dispatch[0] < 99.5 and 0.5 < res2.dispatch[1] < 99.5
    gap_lossy = float(np.max(np.abs(res2.lmp - fd_lmp(lossy, agents2, demand2))))
    assert gap_lossy <= 1e-3
    print(f"criterion 11 PASS: congested triangle gap {gap_triangle:.2e}, "
          f"lossy corridor gap {gap_lossy:.2e}, both <= 1e-3 $/MWh")


def test_criterion_12_settlement_identity_every_period(replica_grid):
    _, reports, _ = replica_grid
    worst = max(r.max_settlement_residual for r in reports.values())
    n_periods = sum(len(r.records) for r in reports.values())
    assert worst <= 1e-6
    print(f"criterion 12 PASS: {n_periods} settled periods, worst relative "
          f"residual {worst:.2e} <= 1e-6")
