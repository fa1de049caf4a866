"""Metamorphic tests: the market's outcome does not hang on the case's
order, on ties, or on where each clearing starts.

Listing the same generators, storages, branches and buses in another order
(the load columns follow their buses) describes the same market, so every
output matched by agent name or bus id must agree up to roundoff. A lookup
that assumes case order passes every test on the bundled order and fails here.

Splitting a plant into two half-size copies at its bus ties their columns:
how the halves share the plant's output is free, but prices, the plant's
total and the storage states are not. Starting every clearing from the crash
instead of the previous period's basis must reach the same outcome too.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from carbomarket import market_clearing, simulator
from carbomarket.lp_core import FEASIBILITY_TOL
from carbomarket.network_model import PiecewiseLinearCurve
from carbomarket.simulator import ScenarioConfig, run_horizon
from carbomarket.synthetic import replica30_case

PERIODS = 48
RTOL = 1e-12  # of each vector's largest magnitude
STORAGE_ATOL = 1e-9  # MWh


def permuted(case, seed):
    rng = np.random.default_rng(seed)

    def shuffle(items):
        return [items[i] for i in rng.permutation(len(items))]

    buses = shuffle(case.buses)
    columns = [case.bus_index[bus.id] for bus in buses]
    return dataclasses.replace(
        case, buses=buses, branches=shuffle(case.branches),
        generators=shuffle(case.generators), storages=shuffle(case.storages),
        load_series=case.load_series[:, columns],
    )


SPLIT = ("g1", "g3", "g4")


def by_agent(record):
    """Per-agent outputs keyed by name: dispatch and the ledger's entries,
    with the two halves of a plant in SPLIT summed under the plant's name."""
    book = record.ledger
    outputs = {}
    for k, (name, p) in enumerate(record.dispatch.items()):
        whole = name[:-1] if name[:-1] in SPLIT else name
        values = (p, book.energy[k], book.emission[k])
        outputs[whole] = tuple(np.add(outputs.get(whole, 0.0), values))
    return outputs


def by_bus(record, case):
    """Per-bus outputs keyed by bus id: prices and the loads' ledger entries."""
    book = record.ledger
    return {bus.id: (record.lmp[b], record.psi[b], book.load_energy[b], book.load_emission[b])
            for b, bus in enumerate(case.buses)}


def assert_close(want: dict, got: dict, what: str) -> None:
    assert got.keys() == want.keys(), what
    keys = sorted(want)
    a = np.array([want[k] for k in keys])
    b = np.array([got[k] for k in keys])
    # one column per output vector, each against its own largest magnitude
    scale = np.abs(a).max(axis=0)
    assert (np.abs(a - b) <= RTOL * scale).all(), (
        f"{what}: off by {np.abs(a - b).max(axis=0)} against scale {scale}")


def assert_same_outcome(want, got, want_case, got_case, what):
    """Agents by name, buses by id, and storage energy in MWh, every period."""
    assert len(want) == len(got) == PERIODS
    for a, b in zip(want, got):
        assert_close(by_agent(a), by_agent(b), f"{what} period {a.t} agents")
        assert_close(by_bus(a, want_case), by_bus(b, got_case), f"{what} period {a.t} buses")
        assert a.storage.keys() == b.storage.keys()
        for unit, row in a.storage.items():
            assert abs(row.e - b.storage[unit].e) <= STORAGE_ATOL, (what, a.t, unit)


@pytest.fixture(scope="module")
def cases():
    case = replica30_case(horizon=PERIODS, seed=7)
    shuffled = permuted(case, seed=0)
    for field in ("generators", "storages", "branches", "buses"):
        assert getattr(shuffled, field) != getattr(case, field), field
    return case, shuffled


@pytest.mark.parametrize("name", ["proposed", "a1", "a2"])
def test_a_reordered_case_clears_prices_and_settles_the_same(cases, name):
    case, shuffled = cases
    scenario = getattr(ScenarioConfig, name)()
    assert_same_outcome(run_horizon(case, scenario).records,
                        run_horizon(shuffled, scenario).records, case, shuffled, name)


def halved(curve):
    """The curve of a plant half as big: f(2q) / 2 on half the domain."""
    lo, hi = curve.domain
    return PiecewiseLinearCurve(segments=tuple((s, b / 2.0) for s, b in curve.segments),
                                domain=(lo / 2.0, hi / 2.0))


def split(case):
    """Each plant of SPLIT as two half-size copies at its bus, named with
    suffixes a and b."""
    generators = []
    for g in case.generators:
        if g.name not in SPLIT:
            generators.append(g)
            continue
        half = dataclasses.replace(g, fuel_curve=halved(g.fuel_curve),
                                   emission_curve=halved(g.emission_curve),
                                   p_min=g.p_min / 2.0, p_max=g.p_max / 2.0)
        generators += [dataclasses.replace(half, name=g.name + suffix) for suffix in "ab"]
    return dataclasses.replace(case, generators=generators)


@pytest.fixture
def solves(monkeypatch):
    """Every clearing's form, final solve and bids, in clearing order."""
    seen = []
    extract = market_clearing.extract_result

    def recorded(case, form, sol, bids):
        seen.append((form, sol, bids))
        return extract(case, form, sol, bids)

    monkeypatch.setattr(market_clearing, "extract_result", recorded)
    return seen


@pytest.mark.parametrize("name", ["proposed", "a1", "a2", "a3"])
def test_no_clearing_of_the_bundled_series_has_a_tie(cases, solves, name):
    # a count of 0 proves each period's dispatch unique
    run_horizon(cases[0], getattr(ScenarioConfig, name)())
    assert len(solves) == PERIODS
    assert [sol.ties for _, sol, _ in solves] == [0] * PERIODS


def split_plant_is_marginal(form, sol, bids):
    """Whether a split half has a basic segment strictly inside its width."""
    basis = sol.basis[sol.basis < form.column_agent.size]
    x, width = sol.primal[basis], form.problem.upper[basis]
    inside = basis[(x > FEASIBILITY_TOL) & (x < width - FEASIBILITY_TOL)]
    return any(bids.agents[form.column_agent[j]].name[:-1] in SPLIT for j in inside)


@pytest.mark.parametrize("name", ["proposed", "a1", "a2"])
def test_a_plant_split_in_two_halves_prices_and_dispatches_as_the_whole(cases, solves, name):
    case, scenario = cases[0], getattr(ScenarioConfig, name)()
    want = run_horizon(case, scenario).records
    solves.clear()
    got = run_horizon(split(case), scenario).records
    assert_same_outcome(want, got, case, case, f"{name} split")
    # the idle half of a marginal plant prices at the same cost: a tie
    marginal = [split_plant_is_marginal(*solve) for solve in solves]
    assert sum(marginal) >= PERIODS // 2
    assert all(sol.ties > 0 for (_, sol, _), m in zip(solves, marginal) if m)


@pytest.mark.parametrize("name", ["proposed", "a1", "a2"])
def test_crash_and_carried_starts_reach_the_same_outcome(monkeypatch, name):
    # held-out series 9: a case the benchmark never runs
    case = replica30_case(horizon=PERIODS, seed=9)
    scenario = getattr(ScenarioConfig, name)()
    clear, outcomes = simulator.clear_market, []

    def counted(*args, **kwargs):
        result = clear(*args, **kwargs)
        outcomes.append(result.outcome)
        return result

    monkeypatch.setattr(simulator, "clear_market", counted)
    carried = run_horizon(case, scenario).records
    assert "warm" in outcomes
    outcomes.clear()
    monkeypatch.setattr(simulator, "clear_market",
                        lambda case, bids, **_: counted(case, bids))
    crashed = run_horizon(case, scenario).records
    assert outcomes == ["crash"] * PERIODS
    assert_same_outcome(carried, crashed, case, case, f"{name} crash")
