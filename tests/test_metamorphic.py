"""Metamorphic tests: the market's outcome does not hang on the case's order.

Listing the same generators, storages, branches and buses in another order
(the load columns follow their buses) describes the same market, so every
output matched by agent name or bus id must agree up to roundoff. A lookup
that assumes case order passes every test on the bundled order and fails here.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

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


def by_agent(record):
    """Per-agent outputs keyed by name: dispatch and the ledger's entries."""
    book = record.ledger
    return {name: (p, book.energy[k], book.emission[k])
            for k, (name, p) in enumerate(record.dispatch.items())}


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
    want = run_horizon(case, scenario).records
    got = run_horizon(shuffled, scenario).records
    assert len(want) == len(got) == PERIODS
    for a, b in zip(want, got):
        assert_close(by_agent(a), by_agent(b), f"{name} period {a.t} agents")
        assert_close(by_bus(a, case), by_bus(b, shuffled), f"{name} period {a.t} buses")
        assert a.storage.keys() == b.storage.keys()
        for unit, row in a.storage.items():
            assert abs(row.e - b.storage[unit].e) <= STORAGE_ATOL, (name, a.t, unit)
