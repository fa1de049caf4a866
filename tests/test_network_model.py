"""Curve, case-validation, and PTDF tests (B-theta oracle built first)."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from carbomarket.market_clearing import AgentBid, BidSet, assemble_clearing_lp
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
    # beside computed rows, which take every branch's reactance, the given
    # branch's included
    branches = [Branch(1, 2, 5.0, reactance=0.1, ptdf_row=(0.0, -0.3, -0.6)),
                Branch(2, 3, 5.0, reactance=0.2), Branch(1, 3, 5.0, reactance=0.25)]
    case = NetworkCase(buses=[Bus(1), Bus(2), Bus(3)], branches=branches, generators=[],
                       storages=[], load_series=np.zeros((1, 3)))
    assert case.ptdf[0].tolist() == [0.0, -0.3, -0.6]
    np.testing.assert_allclose(case.ptdf[1:], lu_ptdf(branches, [1, 2, 3], 1)[1:],
                               rtol=0, atol=1e-12)


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


def test_a_line_never_on_top_is_left_out_of_the_curve():
    # what a fuel_curve entry {segments: [[10, 0], [20, -60], [30, -100]],
    # domain: [0, 10]} reads to: the middle line stays below max(10p, 30p - 100)
    curve = PiecewiseLinearCurve(segments=((10.0, 0.0), (20.0, -60.0), (30.0, -100.0)),
                                 domain=(0.0, 10.0))
    grid = np.linspace(0.0, 10.0, 101)
    np.testing.assert_array_equal(curve.value(grid), np.maximum(10.0 * grid, 30.0 * grid - 100.0))
    assert curve.breakpoints() == [5.0]
    slopes, intercepts, starts = curve.envelope()
    assert slopes.tolist() == [10.0, 30.0] and intercepts.tolist() == [0.0, -100.0]
    assert starts.tolist() == [-np.inf, 5.0]
    case = NetworkCase(buses=[Bus(1)], branches=[], generators=[], storages=[],
                       load_series=np.zeros((1, 1)))
    bid = AgentBid(name="g", bus=1, cost_curve=curve, p_min=0.0, p_max=10.0)
    problem, form = assemble_clearing_lp(case, BidSet(agents=[bid], demand=np.array([7.0])))
    assert form.cost_slope.tolist() == [10.0, 30.0]
    assert problem.upper.tolist() == [5.0, 5.0]


def _with_generator(**changes):
    def mutate(case):
        case.generators[0] = replace(case.generators[0], **changes)
    return mutate


def _with_storage(**changes):
    def mutate(case):
        case.storages[0] = replace(case.storages[0], **changes)
    return mutate


def _with_branch(**changes):
    def mutate(case):
        case.branches[0] = replace(case.branches[0], **changes)
    return mutate


def _with(**changes):
    def mutate(case):
        for name, value in changes.items():
            setattr(case, name, value)
    return mutate


NAN = float("nan")
# covers only half of the plant's [0, 10]
SHORT = PiecewiseLinearCurve(segments=((1.0, 0.0),), domain=(0.0, 5.0))
DIPPING = PiecewiseLinearCurve(segments=((1.0, -5.0),), domain=(0.0, 10.0))


BROKEN_RULES = [
    ("tau-finite", _with(tau=NAN), "market: tau must be finite"),
    ("load-finite", _with(load_series=np.array([[0.0, NAN], [0.0, 4.0]])),
     "series: load_series must be finite"),
    ("renewable-finite", _with(renewable_series={"g1": np.array([NAN, 1.0])}),
     "series: renewable_series[g1] must be finite"),
    ("loss-finite", _with(buses=[Bus(1, loss_sensitivity=NAN), Bus(2)]),
     "bus 1: loss_sensitivity must be finite"),
    ("capacity-finite", _with_branch(capacity=float("inf")),
     "branch 1-2: capacity must be finite"),
    ("domain-finite", _with_generator(fuel_curve=replace(SHORT, domain=(0.0, float("inf")))),
     "generator g1 fuel_curve: domain must be finite"),
    ("storage-finite", _with_storage(p_max=NAN), "storage s1: p_max must be finite"),
    ("duplicate-bus", _with(buses=[Bus(1), Bus(2), Bus(2)], load_series=np.zeros((2, 3))),
     "buses: duplicate bus ids"),
    ("slack", _with(slack_bus=7), "slack_bus: 7 is not a bus"),
    ("endpoint", _with_branch(to_bus=99), "branch 1-99: endpoint is not a bus"),
    ("capacity", _with_branch(capacity=0.0), "branch 1-2: capacity must be > 0"),
    ("ptdf-length", _with_branch(ptdf_row=(0.0,)), "branch 1-2: ptdf row length != bus count"),
    ("reactance", _with_branch(reactance=None), "branch 1-2 needs a positive reactance"),
    ("island", _with(buses=[Bus(1), Bus(2), Bus(3)], load_series=np.zeros((2, 3))),
     "graph is disconnected: 1 unreachable buses"),
    ("no-branches", _with(branches=[]), "graph is disconnected: 1 unreachable buses"),
    ("load-columns", _with(load_series=np.zeros((2, 3))),
     "load_series: column count != bus count"),
    ("renewable-length", _with(renewable_series={"g1": np.array([1.0])}),
     "renewable_series[g1]: length != load horizon 2"),
    ("kappa", _with(kappa=-0.05), "kappa: must be >= 0"),
    ("epsilon", _with(epsilon=0.0), "epsilon: must be > 0"),
    ("tau", _with(tau=0.0), "tau: must be > 0"),
    ("duplicate-names", _with_storage(name="g1"), "agents: duplicate names"),
    ("generator-bus", _with_generator(bus=9), "generator g1: bus 9 is not a bus"),
    ("p_min", _with_generator(p_min=6.0, p_max=5.0), "generator g1: p_min exceeds p_max"),
    ("fuel-domain", _with_generator(fuel_curve=SHORT),
     "generator g1: fuel curve domain does not cover [p_min, p_max]"),
    ("emission-domain", _with_generator(emission_curve=SHORT),
     "generator g1: emission curve domain does not cover [p_min, p_max]"),
    ("negative-emission", _with_generator(emission_curve=DIPPING),
     "generator g1: emission curve goes negative on its operating range"),
    ("renewable-emission", _with_generator(is_renewable=True),
     "generator g1: renewable plants must have a zero emission curve"),
    ("storage-bus", _with_storage(bus=9), "storage s1: bus 9 is not a bus"),
    ("efficiency", _with_storage(eta_c=1.5), "storage s1: efficiencies must lie in (0, 1]"),
    ("e_min", _with_storage(e_min=5.0, e_max=5.0), "storage s1: e_min must be < e_max"),
    ("e_init", _with_storage(e_init=9.5), "storage s1: e_init outside [e_min, e_max]"),
    ("storage-p_max", _with_storage(p_max=0.0), "storage s1: p_max must be > 0"),
    ("gamma_lo", _with_storage(gamma_lo=-0.01), "storage s1: gamma_lo must be >= 0"),
    ("round-trip", _with_storage(gamma_lo=0.08),
     "storage s1: needs gamma_lo < gamma_hi*eta_c*eta_d "
     "(price range must leave a profitable round trip)"),
    ("n_segments", _with_storage(n_segments=1), "storage s1: n_segments must be >= 2"),
]


@pytest.mark.parametrize("mutate, problem", [rule[1:] for rule in BROKEN_RULES],
                         ids=[rule[0] for rule in BROKEN_RULES])
def test_each_broken_rule_reports_its_own_message(mutate, problem):
    case = _small_case()
    mutate(case)
    assert validate_case(case) == [problem]
