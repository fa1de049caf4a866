"""Property test of the merit-order crash: random small networks, each crash
clearing checked against HiGHS."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from carbomarket.market_clearing import (  # noqa: E402
    AgentBid,
    BidSet,
    MarketInfeasibleError,
    assemble_clearing_lp,
    clear_market,
)
from carbomarket.network_model import (  # noqa: E402
    Branch,
    Bus,
    NetworkCase,
    curve_from_points,
    zero_curve,
)
from oracles import highs_solve  # noqa: E402
from test_market_clearing import assert_matches_highs  # noqa: E402

# few slopes, so that units tie in delivered cost on lossless buses
SLOPES = (12.0, 20.0, 20.0, 35.0, 50.0)


@st.composite
def networks(draw):
    """A ring of 2-5 buses with losses, plants with p_min floors, renewables
    that may have no capacity, and storage curves of up to 12 segments.

    Hypothesis draws the structure; the magnitudes come from a drawn seed, so
    that no demand lands on a segment end or a flow on a branch limit, where
    the duals are not unique and no solver's are the reference."""
    n_buses = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    losses = [draw(st.booleans()) * rng.uniform(0.01, 0.06) for _ in range(n_buses)]
    ring = [(i + 1, i % n_buses + 2) for i in range(n_buses - 1)]
    ring += [(n_buses, 1)] if n_buses > 2 else []
    branches = [Branch(f, t, capacity=rng.uniform(6.0, 45.0), reactance=rng.uniform(0.05, 0.3))
                for f, t in ring]
    case = NetworkCase(
        buses=[Bus(i + 1, loss_sensitivity=l) for i, l in enumerate(losses)],
        branches=branches, generators=[], storages=[],
        load_series=np.zeros((1, n_buses)), epsilon=1e-4,
        loss_direction_dependent=draw(st.booleans()),
    )
    bus = st.integers(1, n_buses)
    agents = []
    for k in range(draw(st.integers(1, 4))):
        cap = rng.uniform(10.0, 40.0)
        p_min = draw(st.booleans()) * rng.uniform(0.05, 0.3) * cap
        slope, psi = draw(st.sampled_from(SLOPES)), rng.uniform(0.2, 0.9)
        agents.append(AgentBid(
            name=f"g{k}", bus=draw(bus), p_min=p_min, p_max=cap,
            cost_curve=curve_from_points([(p_min, slope * p_min), (cap, slope * cap)]),
            emission_curve=curve_from_points([(p_min, 1e3 * psi * p_min),
                                              (cap, 1e3 * psi * cap)])))
    for k in range(draw(st.integers(0, 2))):
        cap = draw(st.booleans()) * rng.uniform(5.0, 15.0)
        agents.append(AgentBid(name=f"w{k}", bus=draw(bus), cost_curve=zero_curve(0.0, cap),
                               p_min=0.0, p_max=cap, is_renewable=True))
    for k in range(draw(st.integers(0, 2))):
        reach, mid = rng.uniform(2.0, 8.0), rng.uniform(15.0, 40.0)
        xs = np.linspace(-reach, reach, draw(st.integers(2, 12)) + 1)
        agents.append(AgentBid(name=f"es{k}", bus=draw(bus), p_min=-reach, p_max=reach,
                               is_storage=True,
                               cost_curve=curve_from_points([(x, mid * x + x * x) for x in xs])))
    floor = sum(max(a.p_min, 0.0) for a in agents)
    room = sum(a.p_max for a in agents) - floor
    weights = rng.uniform(0.0, 1.0, n_buses)
    load = floor + room * rng.uniform(0.05, 0.95)
    return case, BidSet(agents=agents, demand=load * weights / weights.sum())


@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(networks())
def test_crash_clearing_matches_highs_on_random_networks(drawn):
    case, bids = drawn
    if case.loss_direction_dependent:
        # the crash of the loss vector the re-clearing settles on
        try:
            loss = clear_market(case, bids).loss
        except MarketInfeasibleError:
            return  # infeasible under signed losses that HiGHS is not given
        case = dataclasses.replace(
            case, buses=[Bus(b.id, loss_sensitivity=l) for b, l in zip(case.buses, loss)],
            loss_direction_dependent=False)
    try:
        crash = clear_market(case, bids)
    except MarketInfeasibleError:
        # the draw overloads a branch or outruns capacity: HiGHS finds no
        # dispatch either
        with pytest.raises(AssertionError, match="infeasible"):
            highs_solve(assemble_clearing_lp(case, bids)[0])
        return
    assert crash.outcome == "crash"
    assert_matches_highs(case, bids, crash)
