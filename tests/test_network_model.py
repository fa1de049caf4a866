"""Curve, case-validation, and PTDF tests (B-theta oracle built first)."""

from __future__ import annotations

import numpy as np
import pytest

from carbomarket.network_model import (
    Branch,
    Bus,
    Generator,
    NetworkCase,
    NonConvexPointsError,
    PiecewiseLinearCurve,
    StorageUnit,
    TopologyError,
    compute_ptdf,
    curve_from_points,
    sum_curves,
    validate_case,
    zero_curve,
)
from carbomarket.synthetic import replica30_topology
from oracles import lu_ptdf, random_small_case, subgradient_range


def btheta_flows(branches, bus_ids, slack_bus, injection):
    """Independent DC power-flow oracle: solve B theta = P, then line flows."""
    index = {b: k for k, b in enumerate(bus_ids)}
    n = len(bus_ids)
    b_mat = np.zeros((n, n))
    for br in branches:
        i, j = index[br.from_bus], index[br.to_bus]
        y = 1.0 / br.reactance
        b_mat[i, i] += y
        b_mat[j, j] += y
        b_mat[i, j] -= y
        b_mat[j, i] -= y
    keep = [k for k in range(n) if k != index[slack_bus]]
    theta = np.zeros(n)
    theta[keep] = np.linalg.solve(b_mat[np.ix_(keep, keep)], np.asarray(injection)[keep])
    return np.array(
        [(theta[index[br.from_bus]] - theta[index[br.to_bus]]) / br.reactance
         for br in branches]
    )


def test_ptdf_two_bus_single_line():
    branches = [Branch(from_bus=1, to_bus=2, capacity=10.0, reactance=0.1)]
    t = compute_ptdf(branches, [1, 2], slack_bus=1)
    assert t[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert t[0, 1] == pytest.approx(-1.0, abs=1e-12)


def test_ptdf_triangle_symmetric_split():
    branches = [
        Branch(from_bus=1, to_bus=2, capacity=10.0, reactance=0.2),
        Branch(from_bus=2, to_bus=3, capacity=10.0, reactance=0.2),
        Branch(from_bus=1, to_bus=3, capacity=10.0, reactance=0.2),
    ]
    t = compute_ptdf(branches, [1, 2, 3], slack_bus=1)
    # Injection at bus 2: 2/3 straight to the slack, 1/3 around via bus 3.
    assert t[0, 1] == pytest.approx(-2.0 / 3.0, abs=1e-12)
    assert t[1, 1] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert t[2, 1] == pytest.approx(-1.0 / 3.0, abs=1e-12)


def test_ptdf_thirty_bus_matches_btheta_oracle():
    buses, branches = replica30_topology()
    bus_ids = [b.id for b in buses]
    t = compute_ptdf(branches, bus_ids, slack_bus=1)
    rng = np.random.default_rng(5)
    slack_idx = bus_ids.index(1)
    for _ in range(20):
        injection = rng.uniform(-50.0, 50.0, size=len(bus_ids))
        injection[slack_idx] = 0.0
        injection[slack_idx] = -injection.sum()
        expected = btheta_flows(branches, bus_ids, 1, injection)
        np.testing.assert_allclose(t @ injection, expected, atol=1e-8)


def test_ptdf_matches_an_lu_oracle_on_replica30_and_random_networks():
    buses, branches = replica30_topology()
    networks = [(branches, [b.id for b in buses], 1)]
    rng = np.random.default_rng(1212)
    for _ in range(10):
        case, _ = random_small_case(rng)
        networks.append((case.branches, case.bus_ids, case.slack_bus))
    for branches, bus_ids, slack in networks:
        expected = lu_ptdf(branches, bus_ids, slack)
        np.testing.assert_allclose(compute_ptdf(branches, bus_ids, slack), expected,
                                   rtol=0.0, atol=1e-12 * np.abs(expected).max())


def test_ptdf_slack_column_and_reactance_scaling():
    buses, branches = replica30_topology()
    bus_ids = [b.id for b in buses]
    t = compute_ptdf(branches, bus_ids, slack_bus=1)
    np.testing.assert_allclose(t[:, 0], 0.0, atol=1e-12)
    scaled = [
        Branch(br.from_bus, br.to_bus, br.capacity, br.reactance * 3.7, name=br.name)
        for br in branches
    ]
    t_scaled = compute_ptdf(scaled, bus_ids, slack_bus=1)
    np.testing.assert_allclose(t, t_scaled, atol=1e-9)


def test_ptdf_disconnected_and_zero_reactance_errors():
    with pytest.raises(TopologyError, match="disconnected"):
        compute_ptdf([Branch(1, 2, 5.0, 0.1)], [1, 2, 3], slack_bus=1)
    with pytest.raises(TopologyError, match="reactance"):
        compute_ptdf([Branch(1, 2, 5.0, 0.0)], [1, 2], slack_bus=1)


def test_explicit_ptdf_rows_take_precedence():
    case = _small_case()
    case.branches[0] = Branch(1, 2, 5.0, reactance=0.1, ptdf_row=(0.0, -0.5))
    assert case.ptdf[0, 1] == pytest.approx(-0.5)


def test_curve_single_segment():
    curve = curve_from_points([(0.0, 0.0), (1.0, 2.0)])
    assert curve.segments == ((2.0, 0.0),)
    assert curve.value(0.5) == pytest.approx(1.0)


def test_curve_v_shape():
    curve = curve_from_points([(-1.0, 1.0), (0.0, 0.0), (1.0, 2.0)])
    assert [s for s, _ in curve.segments] == [-1.0, 2.0]
    assert curve.value(-1.0) == pytest.approx(1.0)
    assert curve.value(1.0) == pytest.approx(2.0)


def test_curve_rejects_slope_decrease():
    with pytest.raises(NonConvexPointsError, match="slope decreases"):
        curve_from_points([(0.0, 0.0), (1.0, 2.0), (2.0, 3.0), (3.0, 3.5)])


def test_curve_quadratic_sampling_error_bound():
    # Storage-style discharge quadratic: f(p) = p (p tau - 2 q eta_d) / (2 V eta_d^2).
    tau, v_s, eta_d, q = 1.0, 10.0, 0.9, -3.0
    f = lambda p: p * (p * tau - 2 * q * eta_d) / (2 * v_s * eta_d**2)
    grid = np.linspace(0.0, 4.0, 50)
    curve = curve_from_points([(x, f(x)) for x in grid])
    curvature = tau / (v_s * eta_d**2)
    bound = curvature * (grid[1] - grid[0]) ** 2 / 8
    dense = np.linspace(0.0, 4.0, 4001)
    err = np.abs(curve.value(dense) - f(dense)).max()
    assert err <= bound + 1e-12


def test_curve_value_is_max_and_subgradient_monotone():
    rng = np.random.default_rng(17)
    for _ in range(20):
        raw = [(float(s), float(b)) for s, b in
               zip(np.sort(rng.uniform(-3, 3, 5)), rng.uniform(-2, 2, 5))]
        curve = PiecewiseLinearCurve(segments=tuple(raw), domain=(-5.0, 5.0))
        pts = rng.uniform(-5, 5, 30)
        brute = np.max(
            [[s * p + b for s, b in raw] for p in pts], axis=1
        )
        np.testing.assert_allclose(curve.value(pts), brute, atol=1e-12)
        subs = [subgradient_range(curve, p) for p in np.sort(pts)]
        for (lo1, hi1), (lo2, hi2) in zip(subs, subs[1:]):
            assert hi1 <= lo2 + 1e-9


def test_sum_curves_matches_pointwise_oracle():
    a = curve_from_points([(0.0, 0.0), (2.0, 1.0), (4.0, 5.0)])
    b = curve_from_points([(0.0, 1.0), (1.0, 1.2), (4.0, 4.0)])
    total = sum_curves(a, b)
    grid = np.linspace(0.0, 4.0, 1000)
    np.testing.assert_allclose(total.value(grid), a.value(grid) + b.value(grid), atol=1e-9)


def _small_case() -> NetworkCase:
    buses = [Bus(1), Bus(2)]
    branches = [Branch(1, 2, capacity=5.0, reactance=0.1)]
    gen = Generator(
        name="g1", bus=1,
        fuel_curve=curve_from_points([(0.0, 0.0), (10.0, 500.0)]),
        emission_curve=curve_from_points([(0.0, 0.0), (10.0, 3000.0)]),
        p_min=0.0, p_max=10.0,
    )
    storage = StorageUnit(
        name="s1", bus=2, p_max=2.0, eta_c=0.95, eta_d=0.95,
        e_min=1.0, e_max=9.0, e_init=5.0, gamma_lo=0.02, gamma_hi=0.08,
    )
    return NetworkCase(
        buses=buses, branches=branches, generators=[gen], storages=[storage],
        load_series=np.array([[0.0, 3.0], [0.0, 4.0]]),
    )


def test_validate_clean_case():
    assert validate_case(_small_case()) == []


def test_validate_flags_price_range_boundary():
    case = _small_case()
    s = case.storages[0]
    bad = StorageUnit(
        name=s.name, bus=s.bus, p_max=s.p_max, eta_c=s.eta_c, eta_d=s.eta_d,
        e_min=s.e_min, e_max=s.e_max, e_init=s.e_init,
        gamma_lo=s.gamma_hi * s.eta_c * s.eta_d, gamma_hi=s.gamma_hi,
    )
    case.storages[0] = bad
    problems = validate_case(case)
    assert any("gamma_lo < gamma_hi*eta_c*eta_d" in p for p in problems)


def test_validate_flags_negative_emission_curve():
    case = _small_case()
    g = case.generators[0]
    dipping = PiecewiseLinearCurve(segments=((1.0, -5.0),), domain=(0.0, 10.0))
    case.generators[0] = Generator(
        name=g.name, bus=g.bus, fuel_curve=g.fuel_curve, emission_curve=dipping,
        p_min=g.p_min, p_max=g.p_max,
    )
    problems = validate_case(case)
    assert any("emission curve goes negative" in p for p in problems)


def test_validate_flags_bad_references_and_series():
    case = _small_case()
    case.branches.append(Branch(1, 99, capacity=1.0, reactance=0.1))
    case.renewable_series["ghost"] = np.array([1.0])
    problems = validate_case(case)
    assert any("endpoint is not a bus" in p for p in problems)
    assert any("length != load horizon" in p for p in problems)


def test_thirty_bus_replica_case_is_clean():
    from carbomarket.synthetic import replica30_case

    case = replica30_case(horizon=24, seed=3)
    assert validate_case(case) == []
    assert case.n_buses == 30
    assert len(case.branches) == 41
    assert len([g for g in case.generators if not g.is_renewable]) == 6
    assert len(case.storages) == 2
