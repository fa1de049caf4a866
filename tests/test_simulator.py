"""Rolling-simulation tests: bids, settlement books, horizon mechanics, replays."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from carbomarket import emission_allocation, lp_core, market_clearing, simulator
from carbomarket.cli_io import summary_rows
from carbomarket.market_clearing import BidSet, MarketInfeasibleError, clear_market
from carbomarket.network_model import (
    Branch,
    Bus,
    Generator,
    NetworkCase,
    StorageUnit,
    curve_from_points,
    zero_curve,
)
from carbomarket.simulator import (
    ScenarioConfig,
    SettlementImbalanceError,
    SimulationAbort,
    fit_revenue_rate,
    plant_bids,
    recorded_combined_prices,
    replay_storage,
    run_horizon,
    run_period,
    settle,
)
from carbomarket.storage_policy import (
    StorageState,
    choose_parameters,
    initial_state,
    offline_optimal,
    optimal_power,
    update_state,
)
from carbomarket.synthetic import replica30_case
from oracles import phase_one_clearing, subgradient_range


def linear_gen(name, bus, slope, cap, rate, p_min=0.0, renewable=False):
    """slope in $/MWh, rate in kgCO2/kWh (emission slope rate*1000 kg/h per MW)."""
    lo = min(p_min, 0.0)
    fuel = curve_from_points([(lo, slope * lo), (cap, slope * cap)])
    emis = curve_from_points([(lo, 1000 * rate * lo), (cap, 1000 * rate * cap)])
    return Generator(name=name, bus=bus, fuel_curve=fuel, emission_curve=emis,
                     p_min=p_min, p_max=cap, is_renewable=renewable)


def wind_gen(name, bus, cap):
    return Generator(name=name, bus=bus, fuel_curve=zero_curve(0.0, cap),
                     emission_curve=zero_curve(0.0, cap), p_min=0.0, p_max=cap,
                     is_renewable=True)


def one_bus_case(loads, gens, storages=(), kappa=0.05, **kw):
    loads = np.asarray(loads, dtype=float).reshape(-1, 1)
    return NetworkCase(buses=[Bus(1)], branches=[], generators=list(gens),
                       storages=list(storages), load_series=loads, kappa=kappa, **kw)


def es_unit(**kw):
    base = dict(name="es", bus=1, p_max=4.0, eta_c=0.95, eta_d=0.95,
                e_min=4.0, e_max=36.0, e_init=20.0, gamma_lo=0.04, gamma_hi=0.11)
    base.update(kw)
    return StorageUnit(**base)


def wind_island_case(horizon=8, kappa=0.2, with_storage=True):
    """Two buses, a weak export line, alternating wind, coal versus clean gas.

    Even periods have no wind; on odd ones the line traps 7 of the 12 MW of
    wind unless a storage at the wind bus soaks some up and ships it back.
    """
    schedule = np.zeros((horizon, 2))
    schedule[:, 0] = 10.0
    wind = np.array([12.0 if t % 2 == 1 else 0.0 for t in range(horizon)])
    storages = []
    if with_storage:
        storages.append(StorageUnit(
            name="es2", bus=2, p_max=4.0, eta_c=0.95, eta_d=0.95,
            e_min=2.0, e_max=18.0, e_init=10.0, gamma_lo=0.005, gamma_hi=0.065,
        ))
    return NetworkCase(
        buses=[Bus(1), Bus(2)],
        branches=[Branch(1, 2, capacity=5.0, reactance=0.1)],
        generators=[
            linear_gen("coal", 1, 20.0, 30.0, 0.9),
            linear_gen("gas_clean", 1, 50.0, 30.0, 0.1),
            wind_gen("wind", 2, 12.0),
        ],
        storages=storages,
        load_series=schedule,
        renewable_series={"wind": wind},
        kappa=kappa,
    )


# ---------------------------------------------------------------- plant bids


def test_zero_kappa_bids_are_the_fuel_curves():
    case = one_bus_case([7.0], [linear_gen("g", 1, 30.0, 10.0, 0.5)], kappa=0.0)
    (bid,) = plant_bids(case, 0)
    assert bid.cost_curve.segments == case.generators[0].fuel_curve.segments
    priced = one_bus_case([7.0], [linear_gen("g", 1, 30.0, 10.0, 0.5)], kappa=0.05)
    (muted,) = plant_bids(priced, 0, include_emission_cost=False)
    assert muted.cost_curve.segments == case.generators[0].fuel_curve.segments


def test_linear_bid_slope_is_fuel_plus_half_priced_emission():
    case = one_bus_case([7.0], [linear_gen("g", 1, 47.0, 10.0, 0.9)], kappa=0.05)
    (bid,) = plant_bids(case, 0)
    # 47 $/MWh fuel plus 0.05/2 $/kg on 900 kg/h per MW
    lo, hi = subgradient_range(bid.cost_curve, 5.0)
    assert lo == pytest.approx(69.5, abs=1e-12)
    assert hi == pytest.approx(69.5, abs=1e-12)


def test_piecewise_bid_matches_the_pointwise_sum_oracle():
    fuel = curve_from_points([(0.0, 0.0), (5.0, 200.0), (10.0, 500.0)])
    emis = curve_from_points([(0.0, 0.0), (6.0, 2400.0), (10.0, 5600.0)])
    gen = Generator(name="g", bus=1, fuel_curve=fuel, emission_curve=emis,
                    p_min=0.0, p_max=10.0)
    case = one_bus_case([7.0], [gen], kappa=0.05)
    (bid,) = plant_bids(case, 0)
    assert len(bid.cost_curve.breakpoints()) <= 4
    slopes = [s for s, _ in bid.cost_curve.segments]
    assert all(s2 > s1 for s1, s2 in zip(slopes, slopes[1:]))
    grid = np.linspace(0.0, 10.0, 1000)
    oracle = fuel.value(grid) + 0.025 * emis.value(grid)
    np.testing.assert_allclose(bid.cost_curve.value(grid), oracle, atol=1e-9)


def test_renewable_bids_track_the_series():
    case = one_bus_case(
        [[7.0], [7.0]], [wind_gen("wind", 1, 4.0)], kappa=0.05,
        renewable_series={"wind": np.array([3.0, 0.5])},
    )
    (b0,) = plant_bids(case, 0)
    (b1,) = plant_bids(case, 1)
    assert (b0.p_min, b0.p_max) == (0.0, 3.0)
    assert (b1.p_min, b1.p_max) == (0.0, 0.5)
    assert b0.is_renewable and b1.is_renewable


# ---------------------------------------------------------------- settlement


def test_single_bus_books_balance_exactly():
    case = one_bus_case([7.0], [linear_gen("g", 1, 30.0, 10.0, 0.5)], kappa=0.0)
    clearing = clear_market(case, BidSet(agents=plant_bids(case, 0), demand=case.demand(0)))
    ledger = settle(clearing, None, case)
    assert ledger.load_energy.sum() == pytest.approx(ledger.generator_revenue["g"], abs=1e-9)
    assert ledger.congestion_rent == pytest.approx(0.0, abs=1e-12)
    assert ledger.emission_pot == 0.0
    assert ledger.residual_rel <= 1e-12


def test_linear_emission_charge_is_half_kappa_intensity_times_load():
    case = one_bus_case([7.0], [linear_gen("g", 1, 30.0, 10.0, 0.5)], kappa=0.05)
    record, clearing, allocation = run_period(
        case, ScenarioConfig.proposed(), 0, {}, {})
    ledger = settle(clearing, allocation, case)
    # psi = kappa * rate / 2 in $/kWh, so the charge is kappa/2 * 500 kg/h * tau
    assert allocation.psi[0] == pytest.approx(0.0125, abs=1e-12)
    assert ledger.load_emission[0] == pytest.approx(87.5, abs=1e-6)
    assert record.emission_pot == pytest.approx(87.5, abs=1e-6)
    assert record.settlement_residual <= 1e-9


def test_congested_books_close_against_the_rent():
    case = NetworkCase(
        buses=[Bus(1), Bus(2), Bus(3)],
        branches=[Branch(1, 2, capacity=100.0, reactance=0.1),
                  Branch(2, 3, capacity=100.0, reactance=0.1),
                  Branch(1, 3, capacity=30.0, reactance=0.1)],
        generators=[linear_gen("g1", 1, 10.0, 100.0, 0.8),
                    linear_gen("g3", 3, 50.0, 100.0, 0.2)],
        storages=[], load_series=np.array([[0.0, 0.0, 60.0]]), kappa=0.05,
    )
    record, clearing, allocation = run_period(
        case, ScenarioConfig.proposed(), 0, {}, {})
    ledger = settle(clearing, allocation, case)
    rent = float(case.branch_capacities() @ (clearing.mu_plus + clearing.mu_minus))
    assert rent > 1.0  # the 30 MW line binds
    energy_gap = float(ledger.load_energy.sum()) - sum(ledger.generator_revenue.values())
    assert energy_gap == pytest.approx(rent, rel=1e-9, abs=1e-7)
    assert record.settlement_residual <= 1e-6


def test_doctored_duals_fail_the_balance():
    case = NetworkCase(
        buses=[Bus(1), Bus(2), Bus(3)],
        branches=[Branch(1, 2, capacity=100.0, reactance=0.1),
                  Branch(2, 3, capacity=100.0, reactance=0.1),
                  Branch(1, 3, capacity=30.0, reactance=0.1)],
        generators=[linear_gen("g1", 1, 10.0, 100.0, 0.8),
                    linear_gen("g3", 3, 50.0, 100.0, 0.2)],
        storages=[], load_series=np.array([[0.0, 0.0, 60.0]]), kappa=0.0,
    )
    clearing = clear_market(case, BidSet(agents=plant_bids(case, 0), demand=case.demand(0)))
    settle(clearing, None, case)  # honest duals balance
    clearing.mu_plus = clearing.mu_plus + 0.1  # phantom rent with no payer
    with pytest.raises(SettlementImbalanceError, match="settlement off by"):
        settle(clearing, None, case)


def test_forced_minimum_output_starts_the_sweep_inside(monkeypatch):
    case = one_bus_case([7.0], [linear_gen("g", 1, 30.0, 10.0, 0.5, p_min=5.0)],
                        kappa=0.05)
    solves = []

    def counted(problem):
        solves.append(problem)
        return lp_core.solve(problem)

    monkeypatch.setattr(emission_allocation, "solve", counted)
    record, clearing, allocation = run_period(
        case, ScenarioConfig.proposed(), 0, {}, {})
    # the origin, the closest feasible point, and E at it; the sweep starts
    # from that last solution instead of solving it again
    assert len(solves) == 3
    assert allocation.start_point is not None
    assert record.start_used
    # the uniform start share folds the pre-start emission into the price
    assert record.emission_pot == pytest.approx(
        allocation.emission_cost_at_star, rel=1e-9)
    assert record.settlement_residual <= 1e-6
    report = run_horizon(case, ScenarioConfig.proposed())
    assert report.periods_started_from_interior == 1


# ---------------------------------------------------------------- run_period


def test_plain_opf_period_without_storage_or_pricing():
    gens = [linear_gen("cheap", 1, 20.0, 6.0, 0.9),
            linear_gen("dear", 1, 50.0, 10.0, 0.1)]
    case = one_bus_case([10.0], gens, kappa=0.0)
    record, clearing, allocation = run_period(case, ScenarioConfig.a3(), 0, {}, {})
    assert allocation is None
    np.testing.assert_allclose(record.psi, 0.0)
    direct = clear_market(
        case, BidSet(agents=plant_bids(case, 0, include_emission_cost=False),
                     demand=case.demand(0)))
    assert record.dispatch == {"cheap": pytest.approx(6.0), "dear": pytest.approx(4.0)}
    np.testing.assert_allclose(clearing.dispatch, direct.dispatch, atol=1e-9)
    assert record.fuel_cost == pytest.approx(320.0, abs=1e-6)
    assert record.emission == pytest.approx(clearing.total_emission)
    assert record.storage == {}


def test_dead_band_period_keeps_the_storage_at_rest():
    unit = es_unit()
    params = choose_parameters(unit)
    state = initial_state(unit, params)
    band_lo = -state.q * unit.eta_c / params.v_s
    band_hi = -state.q / (params.v_s * unit.eta_d)
    assert band_lo < band_hi
    slope = 1000.0 * (band_lo + band_hi) / 2.0
    case = one_bus_case([50.0], [linear_gen("g", 1, slope, 200.0, 0.5)],
                        storages=[unit], kappa=0.0)
    scenario = ScenarioConfig.proposed()
    states = {"es": state}
    record, clearing, allocation = run_period(case, scenario, 0, states, {"es": params})
    row = record.storage["es"]
    assert row.p == pytest.approx(0.0, abs=1e-9)
    assert row.bound_lo < -1e-6 < 1e-6 < row.bound_hi
    assert update_state(states["es"], row.p, case.tau, unit).e == pytest.approx(state.e)


def test_single_bus_clearing_tracks_the_policy_curve():
    unit = es_unit(e_init=30.0)
    params = choose_parameters(unit)
    state = initial_state(unit, params)
    case = one_bus_case([50.0], [linear_gen("g", 1, 60.9, 200.0, 0.5)],
                        storages=[unit], kappa=0.0)
    record, clearing, allocation = run_period(
        case, ScenarioConfig.proposed(), 0, {"es": state},
        {"es": params})
    gamma_star = clearing.lambda_bar / 1000.0
    row = record.storage["es"]
    exact = optimal_power(state.q, gamma_star, params, unit, case.tau)
    assert 0.5 < exact < 3.5  # interior of the discharge range, not a rail
    width = row.bound_hi - row.bound_lo
    assert abs(row.p - exact) <= width / (unit.n_segments - 1) + 1e-6


# --------------------------------------------------------------- run_horizon


def test_one_period_horizon_equals_run_period():
    case = wind_island_case(horizon=1)
    scenario = ScenarioConfig.proposed(horizon=1)
    report = run_horizon(case, scenario)
    unit = case.storages[0]
    params = {unit.name: choose_parameters(unit)}
    states = {unit.name: initial_state(unit, params[unit.name])}
    record, _, _ = run_period(case, scenario, 0, states, params)
    got = report.records[0]
    assert got.dispatch == record.dispatch
    assert got.lambda_bar == record.lambda_bar
    assert got.fuel_cost == record.fuel_cost
    np.testing.assert_array_equal(got.psi, record.psi)
    assert got.storage[unit.name].revenue == record.storage[unit.name].revenue


def test_horizon_is_deterministic_bit_for_bit():
    case = wind_island_case(horizon=6)
    a = run_horizon(case, ScenarioConfig.proposed())
    b = run_horizon(wind_island_case(horizon=6), ScenarioConfig.proposed())
    assert len(a.records) == len(b.records) == 6
    for ra, rb in zip(a.records, b.records):
        assert ra.dispatch == rb.dispatch
        np.testing.assert_array_equal(ra.lmp, rb.lmp)
        np.testing.assert_array_equal(ra.psi, rb.psi)
        assert ra.storage["es2"].revenue == rb.storage["es2"].revenue
    assert a.storage_revenue_rate == b.storage_revenue_rate


def test_previous_psi_reaches_the_next_bid():
    case = wind_island_case(horizon=2)
    report = run_horizon(case, ScenarioConfig.proposed())
    unit = case.storages[0]
    params = {unit.name: choose_parameters(unit)}
    states = {unit.name: initial_state(unit, params[unit.name])}
    scenario = ScenarioConfig.proposed()
    rec0, clearing0, alloc0 = run_period(case, scenario, 0, states, params)
    advanced = update_state(states[unit.name], rec0.storage[unit.name].p, case.tau, unit)
    psi0 = float(alloc0.psi[case.bus_index[unit.bus]])
    assert psi0 > 0.0  # a zero price would make the feedback unobservable
    states[unit.name] = dataclasses.replace(advanced, psi_prev=psi0)
    rec1, _, _ = run_period(case, scenario, 1, states, params,
                            warm_basis=clearing0.basis)
    got = report.records[1]
    assert got.dispatch == pytest.approx(rec1.dispatch, abs=1e-9)
    assert got.storage[unit.name].e == pytest.approx(rec1.storage[unit.name].e)
    assert got.storage[unit.name].q == pytest.approx(rec1.storage[unit.name].q)


def test_abort_preserves_the_finished_rows():
    gens = [linear_gen("g", 1, 30.0, 10.0, 0.5)]
    case = one_bus_case([7.0, 99.0], gens, kappa=0.05)
    with pytest.raises(SimulationAbort, match="period 1") as err:
        run_horizon(case, ScenarioConfig.proposed())
    assert len(err.value.report.records) == 1
    assert err.value.report.records[0].t == 0


def test_settlement_abort_names_its_period_once(monkeypatch):
    case = one_bus_case([7.0], [linear_gen("g", 1, 30.0, 10.0, 0.5)], kappa=0.0)
    monkeypatch.setattr(simulator, "SETTLEMENT_RTOL", -1.0)  # even 0 $ is off
    with pytest.raises(SimulationAbort) as err:
        run_horizon(case, ScenarioConfig.proposed())
    message = str(err.value)
    assert message.startswith("period 0: settlement off by")
    assert message.count("period 0:") == 1
    assert isinstance(err.value.__cause__, SettlementImbalanceError)


def export_import_case(horizon=48):
    """Two buses with direction-dependent losses: both plants sit at bus 1,
    and a daily load cycle plus a storage that never covers it sit at bus 2,
    so bus 1 always exports and bus 2 always imports."""
    hours = np.arange(horizon)
    loads = np.zeros((horizon, 2))
    loads[:, 1] = 12.0 + 4.0 * np.sin(2 * np.pi * hours / 24)
    return NetworkCase(
        buses=[Bus(1, loss_sensitivity=0.05), Bus(2, loss_sensitivity=0.03)],
        branches=[Branch(1, 2, capacity=50.0, reactance=0.1)],
        generators=[linear_gen("coal", 1, 20.0, 12.0, 0.9),
                    linear_gen("gas", 1, 50.0, 30.0, 0.1)],
        storages=[es_unit(bus=2, e_min=2.0, e_max=18.0, e_init=10.0,
                          gamma_lo=0.04, gamma_hi=0.09)],
        load_series=loads, kappa=0.05, loss_direction_dependent=True,
    )


@pytest.mark.parametrize("name", ["proposed", "a1", "a2"])
def test_loss_direction_dependent_horizon_settles_on_the_signed_losses(monkeypatch, name):
    case = export_import_case()
    clearings = []

    def recording(*args, **kwargs):
        clearings.append(clear_market(*args, **kwargs))
        return clearings[-1]

    monkeypatch.setattr(simulator, "clear_market", recording)
    report = run_horizon(case, getattr(ScenarioConfig, name)())
    assert len(report.records) == len(clearings) == 48
    for clearing in clearings:
        assert clearing.loss_converged
        np.testing.assert_array_equal(clearing.loss, [0.05, -0.03])
    assert report.max_settlement_residual <= 1e-6
    assert report.max_cost_sharing_error <= 1e-9
    if name != "a2":
        # the storage trades both ways, so its columns shape the clearings
        powers = [r.storage["es"].p for r in report.records]
        assert min(powers) < -0.5 and max(powers) > 0.5


def test_unconverged_loss_directions_are_counted(monkeypatch):
    case = export_import_case()
    report = run_horizon(case, ScenarioConfig.proposed())
    assert report.periods_loss_unconverged == 0
    assert all(r.loss_converged for r in report.records)
    # one clearing per period: each clears on the unsigned losses while bus 2
    # imports, so no period's loss signs match its dispatch
    monkeypatch.setattr(market_clearing, "LOSS_ITERATIONS", 1)
    report = run_horizon(case, ScenarioConfig.proposed())
    assert len(report.records) == 48
    assert report.periods_loss_unconverged == 48
    assert not any(r.loss_converged for r in report.records)
    assert ["periods_loss_unconverged", "", 48] in list(summary_rows(report))


@pytest.mark.parametrize("seed, name, period, violated", [
    (1, "proposed", 15, "branch 15-18 upper (short by 0.927714)"),
    (1, "a2", 15, "balance (short by 10.5034)"),
    (2, "proposed", 39, "balance (short by 6.5617)"),
    (4, "a2", 13, "balance (short by 15.2393)"),
    (20, "a2", 41, "balance (short by 1.349)"),
])
def test_replica30_infeasibility_reports_name_the_row_and_gap(seed, name, period, violated):
    # phase 1 puts artificials only on rows without a fitting slack; its
    # least infeasible point decides which row these reports name
    with pytest.raises(SimulationAbort) as err:
        run_horizon(replica30_case(seed=seed), getattr(ScenarioConfig, name)())
    assert str(err.value) == (f"period {period}: market infeasible; "
                              f"most violated: {violated}")
    assert isinstance(err.value.__cause__, MarketInfeasibleError)


def test_aggregates_equal_recomputation_from_rows():
    case = wind_island_case(horizon=8)
    report = run_horizon(case, ScenarioConfig.proposed())
    rows = report.records
    assert report.avg_generation_cost == pytest.approx(
        np.mean([r.fuel_cost for r in rows]))
    assert report.avg_emission == pytest.approx(np.mean([r.emission for r in rows]))
    avail = sum(r.renewable_available for r in rows)
    used = sum(r.renewable_dispatched for r in rows)
    assert report.curtailment == pytest.approx((avail - used) / avail)
    revenue = np.cumsum([r.storage["es2"].revenue for r in rows])
    assert report.storage_revenue_total["es2"] == pytest.approx(float(revenue[-1]))
    assert report.storage_revenue_rate["es2"] == pytest.approx(
        fit_revenue_rate(revenue, case.tau))
    kg = np.cumsum([r.storage["es2"].emission_kg for r in rows])
    assert report.storage_emission_rate["es2"] == pytest.approx(
        fit_revenue_rate(kg, case.tau))
    assert report.max_settlement_residual <= 1e-6


def test_scenario_grid_orders_emission_cost_and_curtailment():
    case = wind_island_case(horizon=8)
    runs = {}
    for scenario in (ScenarioConfig.proposed(), ScenarioConfig.a1(),
                     ScenarioConfig.a2(), ScenarioConfig.a3()):
        runs[scenario.name] = run_horizon(case, scenario)
    proposed, a1, a2 = runs["proposed"], runs["a1"], runs["a2"]
    assert proposed.avg_emission < a2.avg_emission - 1.0
    assert proposed.curtailment < a2.curtailment - 0.01
    assert a1.avg_generation_cost < proposed.avg_generation_cost - 1.0
    assert a1.avg_emission > proposed.avg_emission + 1.0
    # pricing off means no emission money anywhere in the books
    assert all(r.emission_pot == 0.0 for r in a1.records)
    assert runs["a3"].curtailment >= proposed.curtailment - 1e-12


def test_horizon_beyond_the_series_is_rejected():
    case = one_bus_case([7.0], [linear_gen("g", 1, 30.0, 10.0, 0.5)], kappa=0.0)
    with pytest.raises(ValueError, match="exceeds"):
        run_horizon(case, ScenarioConfig.proposed(horizon=5))


# ----------------------------------------------------------- rate fitting


def test_rate_fit_recovers_linear_slopes():
    hours = np.arange(1, 25, dtype=float)
    assert fit_revenue_rate(23.5 * hours) == pytest.approx(23.5, abs=1e-9)
    assert fit_revenue_rate(np.full(24, 7.0)) == pytest.approx(0.0, abs=1e-12)
    quarter = 11.0 * 0.25 * np.arange(1, 41)
    assert fit_revenue_rate(quarter, tau=0.25) == pytest.approx(11.0, abs=1e-9)
    with pytest.raises(ValueError):
        fit_revenue_rate([5.0])


def test_rate_fit_ignores_a_balanced_sawtooth():
    hours = np.arange(1, 41, dtype=float)
    saw = np.tile([1.0, -1.0, -1.0, 1.0], 10)  # zero mean, orthogonal to time
    assert fit_revenue_rate(23.5 * hours + saw) == pytest.approx(23.5, abs=1e-9)


# ---------------------------------------------------------------- replays


def test_offline_replay_matches_the_hindsight_optimum():
    rng = np.random.default_rng(3)
    gammas = rng.uniform(0.04, 0.11, size=60)
    unit = es_unit()
    res = replay_storage(gammas, unit, 1.0, method="b3")
    sched = offline_optimal(gammas, unit, 1.0)
    assert res.revenue[-1] == pytest.approx(sched.revenue, rel=1e-9)
    np.testing.assert_allclose(res.power, sched.power, atol=1e-9)
    assert res.rate == pytest.approx(fit_revenue_rate(res.revenue, 1.0))


def test_replays_respect_the_energy_rails_on_wild_prices():
    rng = np.random.default_rng(9)
    gammas = rng.uniform(-0.1, 0.5, size=200)
    unit = es_unit()
    for method in ("proposed", "b1", "b2"):
        res = replay_storage(gammas, unit, 1.0, method=method)
        assert res.soc.min() >= unit.e_min - 1e-7
        assert res.soc.max() <= unit.e_max + 1e-7
        assert np.isfinite(res.revenue[-1])
    with pytest.raises(ValueError, match="unknown replay"):
        replay_storage(gammas, unit, 1.0, method="b9")


def test_recorded_prices_combine_energy_and_emission_sides():
    case = wind_island_case(horizon=4)
    report = run_horizon(case, ScenarioConfig.proposed())
    prices = recorded_combined_prices(report, case, bus=2)
    assert prices.shape == (4,)
    pos = case.bus_index[2]
    for t, row in enumerate(report.records):
        assert prices[t] == pytest.approx(row.lmp[pos] / 1000.0 + row.psi[pos])


def test_proposed_replay_mirrors_the_market_run_on_one_bus():
    unit = es_unit(e_init=30.0)
    case = one_bus_case(np.full(6, 50.0),
                        [linear_gen("g", 1, 80.0, 200.0, 0.5)],
                        storages=[unit], kappa=0.0)
    report = run_horizon(case, ScenarioConfig.proposed())
    prices = recorded_combined_prices(report, case, bus=1)
    res = replay_storage(prices, unit, case.tau, method="proposed")
    market_p = np.array([r.storage["es"].p for r in report.records])
    # the market clears on the sampled curve, the replay on the exact policy;
    # per-period gaps stay within a few grid cells of the sampled bid
    width = max(r.storage["es"].bound_hi - r.storage["es"].bound_lo
                for r in report.records)
    np.testing.assert_allclose(res.power, market_p,
                               atol=3.0 * width / (unit.n_segments - 1) + 1e-6)


@pytest.mark.parametrize("name", ["a1", "proposed"])
def test_replica30_horizon_warm_starts_every_period_and_matches_cold(monkeypatch, name):
    # the first two days of the bundled series: storage curves gain and lose
    # segments from one period to the next
    case = replica30_case(seed=7)
    scenario = getattr(ScenarioConfig, name)(horizon=48)
    clearings = []

    def recording(*args, **kwargs):
        clearings.append(clear_market(*args, **kwargs))
        return clearings[-1]

    monkeypatch.setattr(simulator, "clear_market", recording)
    report = run_horizon(case, scenario)
    monkeypatch.undo()
    assert clearings[0].outcome == "crash"
    assert all(c.outcome == "warm" for c in clearings[1:])
    segments = [tuple(len(a.cost_curve.segments) for a in c.bids.agents if a.is_storage)
                for c in clearings]
    assert sum(a != b for a, b in zip(segments, segments[1:])) >= 1
    assert all(len(c.basis) == 1 + len(case.branches) for c in clearings)

    params = {u.name: choose_parameters(u) for u in case.storages}
    units = {u.name: u for u in case.storages}
    psi_prev = np.zeros(case.n_buses)  # a1 prices no emission, so it stays 0
    for t, (record, warm) in enumerate(zip(report.records, clearings)):
        states = {name: StorageState(e=row.e, q=row.q,
                                     psi_prev=float(psi_prev[case.bus_index[units[name].bus]]))
                  for name, row in record.storage.items()}
        crash_record, crash, _ = run_period(case, scenario, t, states, params)
        assert crash.outcome == "crash"
        cold = phase_one_clearing(case, crash.bids)
        for got, want in ((warm.dispatch, cold.dispatch), (warm.lmp, cold.lmp),
                          (crash.dispatch, cold.dispatch), (crash.lmp, cold.lmp),
                          (record.psi, crash_record.psi)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9 * np.abs(want).max())
        psi_prev = record.psi
