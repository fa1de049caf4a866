"""Storage policy tests: grid argmin oracles, SoC safety, bid consistency."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from carbomarket.market_clearing import AgentBid, BidSet, clear_market
from carbomarket.network_model import Bus, NetworkCase, StorageUnit, curve_from_points
from carbomarket.storage_policy import (
    PolicyAssumptionError,
    SocViolationError,
    b1_parameters,
    b1_power,
    b2_power,
    bid_curve,
    choose_parameters,
    feasible_power_range,
    initial_state,
    offline_optimal,
    optimal_power,
    power_bounds,
    scaled_parameters,
    update_state,
    StorageState,
)
from oracles import subgradient_range


def make_unit(**kw):
    base = dict(name="es", bus=1, p_max=4.0, eta_c=0.95, eta_d=0.95,
                e_min=4.0, e_max=36.0, e_init=20.0,
                gamma_lo=0.04, gamma_hi=0.11)
    base.update(kw)
    return StorageUnit(**base)


def grid_argmin(q, gamma, params, unit, tau, step=1e-4):
    """Brute-force minimizer of the exact drift-plus-penalty on a power grid."""
    p = np.arange(0.0, unit.p_max + step / 2, step)
    charge = (p * tau * unit.eta_c) ** 2 / 2 + p * tau * unit.eta_c * q \
        + params.v_s * gamma * p * tau
    discharge = (p * tau / unit.eta_d) ** 2 / 2 - p * tau * q / unit.eta_d \
        - params.v_s * gamma * p * tau
    ic = int(np.argmin(charge))
    id_ = int(np.argmin(discharge))
    if charge[ic] < discharge[id_]:
        return -p[ic]
    return p[id_]


def test_parameter_formulas_on_simple_inputs():
    unit = make_unit(eta_c=1.0, eta_d=1.0, e_min=0.0, e_max=10.0,
                     gamma_lo=0.0, gamma_hi=1.0)
    params = choose_parameters(unit)
    assert params.e_s == pytest.approx(10.0, abs=1e-12)
    assert params.v_s == pytest.approx(10.0, abs=1e-12)
    # with a free floor price the offset lands on the energy cap
    unit2 = make_unit(gamma_lo=0.0)
    params2 = choose_parameters(unit2)
    assert params2.e_s == pytest.approx(unit2.e_max, abs=1e-12)
    assert params2.v_s == pytest.approx(
        (unit2.e_max - unit2.e_min) / (unit2.gamma_hi * unit2.eta_d), abs=1e-12)


def test_parameter_feasibility_window_fuzz():
    rng = np.random.default_rng(21)
    for _ in range(10_000):
        eta_c = rng.uniform(0.7, 1.0)
        eta_d = rng.uniform(0.7, 1.0)
        e_min = rng.uniform(0.0, 5.0)
        e_max = e_min + rng.uniform(1.0, 20.0)
        hi = rng.uniform(0.02, 0.2)
        lo = rng.uniform(0.0, 0.95) * hi * eta_c * eta_d
        unit = make_unit(eta_c=eta_c, eta_d=eta_d, e_min=e_min, e_max=e_max,
                         e_init=(e_min + e_max) / 2, gamma_lo=lo, gamma_hi=hi)
        params = choose_parameters(unit)
        denom = hi * eta_c * eta_d - lo
        assert 0 < params.v_s <= eta_c * (e_max - e_min) / denom + 1e-12
        assert e_min + params.v_s * hi * eta_d <= params.e_s + 1e-9
        assert params.e_s <= e_max + params.v_s * lo / eta_c + 1e-9


def test_a_large_unit_sits_on_its_window_up_to_rounding():
    # at 3e6 MWh rounding alone puts the window edges about 1e-9 MWh off
    # e_s; the unit is valid and must tune
    unit = make_unit(p_max=1e4, eta_c=0.97, eta_d=0.95, e_min=0.0, e_max=3e6,
                     e_init=1.5e6, gamma_lo=0.045, gamma_hi=0.08)
    params = choose_parameters(unit)
    assert unit.e_min + params.v_s * unit.gamma_hi * unit.eta_d == pytest.approx(
        params.e_s, rel=1e-14)
    assert unit.e_max + params.v_s * unit.gamma_lo / unit.eta_c == pytest.approx(
        params.e_s, rel=1e-14)


def test_parameters_reject_unprofitable_price_range():
    with pytest.raises(PolicyAssumptionError):
        choose_parameters(make_unit(gamma_lo=0.10, gamma_hi=0.11))


def test_policy_dead_band_and_saturation():
    unit = make_unit()
    params = choose_parameters(unit)
    tau = 1.0
    gamma = 0.07
    q_mid = -params.v_s * gamma * (1 / unit.eta_c + unit.eta_d) / 2
    assert optimal_power(q_mid, gamma, params, unit, tau) == 0.0
    q_deep = -params.v_s * gamma / unit.eta_c - unit.p_max * tau * unit.eta_c - 0.5
    assert optimal_power(q_deep, gamma, params, unit, tau) == -unit.p_max
    q_high = -params.v_s * gamma * unit.eta_d + unit.p_max * tau / unit.eta_d + 0.5
    assert optimal_power(q_high, gamma, params, unit, tau) == unit.p_max


def test_policy_matches_grid_argmin():
    unit = make_unit()
    params = choose_parameters(unit)
    tau = 1.0
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(2000):
        q = rng.uniform(-1.5 * params.v_s * params.gamma_hi,
                        0.5 * params.v_s * params.gamma_hi)
        gamma = rng.uniform(-0.05, 0.2)
        p = optimal_power(q, gamma, params, unit, tau)
        worst = max(worst, abs(p - grid_argmin(q, gamma, params, unit, tau)))
    assert worst <= 1e-3


def test_policy_monotone_in_price_and_queue():
    unit = make_unit()
    params = choose_parameters(unit)
    rng = np.random.default_rng(9)
    for _ in range(500):
        q = rng.uniform(-60.0, 10.0)
        g1, g2 = sorted(rng.uniform(-0.05, 0.2, size=2))
        assert optimal_power(q, g1, params, unit, 1.0) \
            <= optimal_power(q, g2, params, unit, 1.0) + 1e-12
        q1, q2 = sorted(rng.uniform(-60.0, 10.0, size=2))
        g = rng.uniform(-0.05, 0.2)
        assert optimal_power(q1, g, params, unit, 1.0) \
            <= optimal_power(q2, g, params, unit, 1.0) + 1e-12


def test_power_bounds_match_price_extremes():
    unit = make_unit()
    params = choose_parameters(unit)
    rng = np.random.default_rng(17)
    for _ in range(200):
        q = rng.uniform(-70.0, 10.0)
        lo, hi = power_bounds(q, params, unit, 1.0)
        assert lo <= 0.0 <= hi
        assert lo == min(optimal_power(q, params.gamma_lo, params, unit, 1.0), 0.0)
        assert hi == max(optimal_power(q, params.gamma_hi, params, unit, 1.0), 0.0)
    # no charging appetite once the queue clears the floor-price threshold
    q_full = -params.v_s * params.gamma_lo / unit.eta_c + 1.0
    assert power_bounds(q_full, params, unit, 1.0)[0] == 0.0
    # full discharge appetite for a long queue
    q_long = -params.v_s * params.gamma_hi * unit.eta_d + unit.p_max / unit.eta_d + 0.5
    assert power_bounds(q_long, params, unit, 1.0)[1] == unit.p_max


def test_bid_curve_shape_and_zero_anchor():
    unit = make_unit()
    params = choose_parameters(unit)
    state = initial_state(unit, params)
    for psi_prev in (0.0, 0.02):
        curve = bid_curve(state.q, psi_prev, params, unit, 1.0)
        assert curve.value(0.0) == pytest.approx(0.0, abs=1e-9)
        assert any(abs(x) <= 1e-9 for x in curve.breakpoints())
        slopes = [s for s, _ in curve.segments]
        assert all(s2 >= s1 - 1e-9 for s1, s2 in zip(slopes, slopes[1:]))
        lo, hi = power_bounds(state.q, params, unit, 1.0)
        assert curve.domain[0] == pytest.approx(lo, abs=1e-12)
        assert curve.domain[1] == pytest.approx(hi, abs=1e-12)


def test_bid_curve_grid_spacing_never_exceeds_uniform_step():
    unit = make_unit()
    params = choose_parameters(unit)
    rng = np.random.default_rng(4)
    for _ in range(50):
        q = rng.uniform(unit.e_min - params.e_s, unit.e_max - params.e_s)
        lo, hi = power_bounds(q, params, unit, 1.0)
        if hi - lo <= 1e-12:
            continue
        curve = bid_curve(q, 0.0, params, unit, 1.0)
        pts = np.array([lo, *curve.breakpoints(), hi])
        h = (hi - lo) / (unit.n_segments - 1)
        assert np.max(np.diff(pts)) <= h + 1e-12


def test_bid_curve_dead_band_spans_inverse_policy_gap():
    unit = make_unit()
    params = choose_parameters(unit)
    tau = 1.0
    q = -params.v_s * 0.07
    psi_prev = 0.015
    exact_lo = 1000.0 * (-q * unit.eta_c / params.v_s - psi_prev)
    exact_hi = 1000.0 * (-q / (params.v_s * unit.eta_d) - psi_prev)
    fine = bid_curve(q, psi_prev, params, dataclasses.replace(unit, n_segments=4001), tau)
    lo_bounds = power_bounds(q, params, unit, tau)
    h = (lo_bounds[1] - lo_bounds[0]) / 4000
    curvature = 1000.0 * tau * max(unit.eta_c ** 2, 1 / unit.eta_d ** 2) / params.v_s
    sub = subgradient_range(fine, 0.0)
    assert sub[0] == pytest.approx(exact_lo, abs=curvature * h)
    assert sub[1] == pytest.approx(exact_hi, abs=curvature * h)
    # the sampled dead band always contains the exact one
    coarse = subgradient_range(bid_curve(q, psi_prev, params, unit, tau), 0.0)
    assert coarse[0] <= exact_lo + 1e-9
    assert coarse[1] >= exact_hi - 1e-9


def test_market_clearing_reproduces_the_policy():
    unit = make_unit()
    params = choose_parameters(unit)
    tau = 1.0
    case = NetworkCase(buses=[Bus(1)], branches=[], generators=[], storages=[],
                       load_series=np.zeros((1, 1)), tau=tau, kappa=0.05)
    rng = np.random.default_rng(12)
    for _ in range(20):
        q = rng.uniform(unit.e_min - params.e_s, unit.e_max - params.e_s)
        psi_prev = rng.choice([0.0, 0.003])
        gamma_star = rng.uniform(0.005, 0.16)  # wanders outside [0.04, 0.11]
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
        assert res.lambda_bar == pytest.approx(slope, rel=1e-9)
        expected = optimal_power(q, gamma_star, params, unit, tau)
        width = max(hi - lo, 1e-12)
        assert res.dispatch[1] == pytest.approx(
            expected, abs=width / (unit.n_segments - 1) + 1e-9)


def test_state_update_and_soc_guard():
    unit = make_unit()
    params = choose_parameters(unit)
    state = initial_state(unit, params)
    assert update_state(state, 0.0, 1.0, unit) == state
    low = StorageState(e=unit.e_min, q=unit.e_min - params.e_s)
    charged = update_state(low, -unit.p_max, 1.0, unit)
    assert charged.q - low.q == pytest.approx(unit.p_max * unit.eta_c, abs=1e-12)
    assert charged.e - low.e == pytest.approx(unit.p_max * unit.eta_c, abs=1e-12)
    full = StorageState(e=unit.e_max, q=unit.e_max - params.e_s)
    with pytest.raises(SocViolationError):
        update_state(full, -unit.p_max, 1.0, unit)


def test_soc_stays_in_range_on_random_price_paths():
    unit = make_unit()
    params = choose_parameters(unit)
    rng = np.random.default_rng(31)
    e = unit.e_init
    q = e - params.e_s
    for _ in range(20_000):
        gamma = rng.uniform(params.gamma_lo, params.gamma_hi)
        p = optimal_power(q, gamma, params, unit, 1.0)
        delta = -p / unit.eta_d if p >= 0 else -p * unit.eta_c
        e += delta
        q += delta
        assert unit.e_min - 1e-7 <= e <= unit.e_max + 1e-7


def test_feasible_power_range_clips_at_the_rails():
    unit = make_unit()
    lo, hi = feasible_power_range(unit.e_max, unit, 1.0)
    assert lo == 0.0 and hi == unit.p_max
    lo, hi = feasible_power_range(unit.e_min, unit, 1.0)
    assert lo == -unit.p_max and hi == 0.0
    lo, hi = feasible_power_range(unit.e_min + 0.1, unit, 1.0)
    assert hi == pytest.approx(0.1 * unit.eta_d, abs=1e-12)


def test_hindsight_schedule_on_flat_prices_stays_idle():
    unit = make_unit(e_init=4.0)  # nothing to liquidate
    sched = offline_optimal(np.full(30, 0.05), unit, 1.0)
    assert sched.revenue == pytest.approx(0.0, abs=1e-6)
    assert np.max(np.abs(sched.power)) <= 1e-7
    assert sched.complementarity_violations == []
    # with initial stock the only profit on flat prices is selling it off
    stocked = offline_optimal(np.full(30, 0.05), make_unit(), 1.0)
    expected = (20.0 - 4.0) * 0.95 * 1000.0 * 0.05
    assert stocked.revenue == pytest.approx(expected, rel=1e-9)


def test_hindsight_schedule_buys_low_sells_high():
    unit = make_unit(p_max=10.0, eta_c=1.0, eta_d=1.0, e_min=0.0, e_max=10.0,
                     e_init=0.0, gamma_lo=0.0, gamma_hi=1.0)
    sched = offline_optimal(np.array([0.0, 0.1]), unit, 1.0)
    assert sched.power[0] == pytest.approx(-10.0, abs=1e-8)
    assert sched.power[1] == pytest.approx(10.0, abs=1e-8)
    assert sched.revenue == pytest.approx(1000.0, rel=1e-9)


def test_hindsight_revenue_dominates_the_online_policy():
    unit = make_unit()
    params = choose_parameters(unit)
    rng = np.random.default_rng(23)
    for _ in range(25):
        gammas = rng.uniform(params.gamma_lo, params.gamma_hi, size=50)
        e = unit.e_init
        q = e - params.e_s
        online = 0.0
        for gamma in gammas:
            p = optimal_power(q, gamma, params, unit, 1.0)
            online += 1000.0 * gamma * p
            delta = -p / unit.eta_d if p >= 0 else -p * unit.eta_c
            e += delta
            q += delta
        sched = offline_optimal(gammas, unit, 1.0)
        assert sched.revenue >= online - 1e-6


def test_online_rate_lands_inside_the_performance_band():
    unit = make_unit()
    params = choose_parameters(unit)
    tau = 1.0
    rng = np.random.default_rng(41)
    t_len = 1500
    gammas = rng.uniform(params.gamma_lo, params.gamma_hi, size=t_len)
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
    assert online.sum() <= sched.revenue + 1e-6
    gap = 1000.0 * (unit.p_max * tau) ** 2 / (2 * params.v_s * unit.eta_d ** 2)
    slack = 3.0 * np.std(online, ddof=1) / np.sqrt(t_len)
    assert online.mean() >= sched.revenue / t_len - gap - slack


def test_bang_bang_surrogate_policy():
    unit = make_unit()
    params = b1_parameters(unit, 1.0)
    assert params.v_s > 0
    assert b1_power(-100.0, params.gamma_lo, params, unit, 1.0) == -unit.p_max
    # both arms priced out of the money
    q_neutral = -params.v_s * 0.07 * (1 / unit.eta_c + unit.eta_d) / 2
    assert b1_power(q_neutral, 0.07, params, unit, 1.0) == 0.0
    rng = np.random.default_rng(8)
    for _ in range(10_000):
        q = rng.uniform(-120.0, 40.0)
        gamma = rng.uniform(0.0, 0.2)
        candidates = {
            0.0: 0.0,
            -unit.p_max: (unit.p_max * unit.eta_c) * q + params.v_s * gamma * unit.p_max,
            unit.p_max: -(unit.p_max / unit.eta_d) * q - params.v_s * gamma * unit.p_max,
        }
        best = min(candidates.items(), key=lambda kv: (kv[1], abs(kv[0])))
        assert b1_power(q, gamma, params, unit, 1.0) == best[0]


def test_threshold_policy_and_its_soc_clip():
    unit = make_unit()
    mid = StorageState(e=20.0, q=0.0)
    assert b2_power(0.01, mid, unit, 1.0) == -unit.p_max
    assert b2_power(0.03, mid, unit, 1.0) == 0.0
    assert b2_power(0.06, mid, unit, 1.0) == unit.p_max
    full = StorageState(e=unit.e_max, q=0.0)
    assert b2_power(0.01, full, unit, 1.0) == 0.0
    nearly_empty = StorageState(e=unit.e_min + 0.5, q=0.0)
    assert b2_power(0.06, nearly_empty, unit, 1.0) \
        == pytest.approx(0.5 * unit.eta_d, abs=1e-12)


def test_scaled_parameters_reclamp_the_queue_offset():
    unit = make_unit()
    base = choose_parameters(unit)
    same = scaled_parameters(unit, 1.0)
    assert same.v_s == pytest.approx(base.v_s, rel=1e-12)
    assert same.e_s == pytest.approx(base.e_s, rel=1e-12)
    rng = np.random.default_rng(77)
    for _ in range(2000):
        eta_c = rng.uniform(0.7, 1.0)
        eta_d = rng.uniform(0.7, 1.0)
        e_min = rng.uniform(0.0, 5.0)
        e_max = e_min + rng.uniform(1.0, 20.0)
        hi = rng.uniform(0.02, 0.2)
        lo = rng.uniform(0.0, 0.95) * hi * eta_c * eta_d
        u = make_unit(eta_c=eta_c, eta_d=eta_d, e_min=e_min, e_max=e_max,
                      e_init=(e_min + e_max) / 2, gamma_lo=lo, gamma_hi=hi)
        m = rng.uniform(0.05, 1.0)
        scaled = scaled_parameters(u, m)
        assert scaled.v_s == pytest.approx(m * choose_parameters(u).v_s, rel=1e-12)
        # the SoC-range invariant's feasibility window must hold at the new weight
        assert e_min + scaled.v_s * hi * eta_d <= scaled.e_s + 1e-9
        assert scaled.e_s <= e_max + scaled.v_s * lo / eta_c + 1e-9
    with pytest.raises(PolicyAssumptionError):
        scaled_parameters(unit, 0.0)
    with pytest.raises(PolicyAssumptionError):
        scaled_parameters(unit, 1.2)
