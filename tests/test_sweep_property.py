"""Property test of the emission-price sweep: random small networks whose
p_min floors make the origin infeasible, each sweep checked against the
phase-1 start on the compact form assembled from scratch."""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from carbomarket.emission_allocation import allocate_period  # noqa: E402
from carbomarket.market_clearing import (  # noqa: E402
    AgentBid,
    BidSet,
    MarketInfeasibleError,
    clear_market,
)
from carbomarket.network_model import Branch, Bus, NetworkCase, curve_from_points  # noqa: E402
from oracles import cold_origin_sweep  # noqa: E402


def convex_points(rng, lo, hi, n_pieces, base):
    """Samples of a convex curve on [lo, hi] whose slopes rise from ``base``."""
    xs = np.linspace(lo, hi, n_pieces + 1)
    slopes = base * np.cumprod(rng.uniform(1.05, 1.6, n_pieces))
    values = np.concatenate([[base * lo], base * lo + np.cumsum(slopes * np.diff(xs))])
    return list(zip(xs, values))


@st.composite
def floored_networks(draw):
    """A ring of 2-5 buses, with losses that may depend on direction, 2-4
    plants with convex cost and emission curves of 1-3 pieces, of which at
    least the first ``floored`` run at a p_min floor, and 0-2 storages.

    Every floor keeps the origin infeasible, so the sweep starts at zeta > 0
    unless no plant has one. As in ``test_crash_property``, hypothesis draws
    the structure and a seed, and the magnitudes come from the seed."""
    n_buses = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    losses = [draw(st.booleans()) * rng.uniform(0.01, 0.06) for _ in range(n_buses)]
    ring = [(i + 1, i % n_buses + 2) for i in range(n_buses - 1)]
    ring += [(n_buses, 1)] if n_buses > 2 else []
    case = NetworkCase(
        buses=[Bus(i + 1, loss_sensitivity=l) for i, l in enumerate(losses)],
        branches=[Branch(f, t, capacity=rng.uniform(15.0, 60.0),
                         reactance=rng.uniform(0.05, 0.3)) for f, t in ring],
        generators=[], storages=[], load_series=np.zeros((1, n_buses)),
        kappa=0.05, epsilon=1e-4, loss_direction_dependent=draw(st.booleans()),
    )
    bus = st.integers(1, n_buses)
    n_plants = draw(st.integers(2, 4))
    floored = draw(st.integers(0, n_plants))
    agents = []
    for k in range(n_plants):
        cap = rng.uniform(10.0, 40.0)
        p_min = rng.uniform(0.1, 0.4) * cap if k < floored else 0.0
        pieces = draw(st.integers(1, 3))
        agents.append(AgentBid(
            name=f"g{k}", bus=draw(bus), p_min=p_min, p_max=cap,
            cost_curve=curve_from_points(convex_points(rng, p_min, cap, pieces,
                                                       rng.uniform(10.0, 60.0))),
            emission_curve=curve_from_points(convex_points(rng, p_min, cap, draw(st.integers(1, 3)),
                                                           rng.uniform(100.0, 900.0)))))
    for k in range(draw(st.integers(0, 2))):
        reach, mid = rng.uniform(2.0, 6.0), rng.uniform(15.0, 50.0)
        xs = np.linspace(-reach, reach, draw(st.integers(2, 6)) + 1)
        agents.append(AgentBid(name=f"es{k}", bus=draw(bus), p_min=-reach, p_max=reach,
                               is_storage=True,
                               cost_curve=curve_from_points([(x, mid * x + x * x) for x in xs])))
    floor = sum(max(a.p_min, 0.0) for a in agents)
    room = sum(a.p_max for a in agents) - floor
    weights = rng.uniform(0.1, 1.0, n_buses)
    load = floor + room * rng.uniform(0.1, 0.9)
    return case, BidSet(agents=agents, demand=load * weights / weights.sum())


def _zeta_sliver(res, other):
    """Whether ``res``'s lowest region runs from its zeta up to ``other``'s,
    narrower than the 1e-9 that zeta may move."""
    top = res.breakpoints[0][0]
    return top - res.zeta <= 1e-9 and abs(top - other.zeta) <= 1e-9


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(floored_networks())
def test_sweep_matches_the_phase_one_start_on_random_networks(drawn):
    case, bids = drawn
    try:
        clearing = clear_market(case, bids)
    except MarketInfeasibleError:
        return  # a branch overloads or the floors outrun demand
    got = allocate_period(case, clearing)
    want = cold_origin_sweep(case, clearing)
    floored = any(a.p_min > 0.0 for a in bids.agents if not a.is_storage)
    # a floor leaves the origin infeasible, and only a floor does
    assert (got.zeta > 0.0) == floored
    assert abs(got.zeta - want.zeta) <= 1e-9
    assert abs(got.emission_pot - want.emission_pot) <= 1e-9 * max(1.0, abs(want.emission_pot))
    assert got.cost_sharing_error <= 1e-9 and want.cost_sharing_error <= 1e-9
    assert np.abs(got.psi - want.psi).max() <= 1e-9 * max(1.0, np.abs(want.psi).max())
    ys = np.array([y for y, _ in got.breakpoints])
    want_ys = np.array([y for y, _ in want.breakpoints])
    # zeta may move by 1e-9, so one side may hold one extra region, narrower
    # than that, between the two zetas: a walk that ends 4.5e-11 below y = 1,
    # where the oracle's closest point is y = 1, reports that sliver
    if ys.size == want_ys.size + 1 and _zeta_sliver(got, want):
        ys = ys[1:]
    elif want_ys.size == ys.size + 1 and _zeta_sliver(want, got):
        want_ys = want_ys[1:]
    assert ys.size == want_ys.size
    assert np.abs(ys - want_ys).max(initial=0.0) <= 1e-9
