"""Case file round trips, report bundles, and the command surface."""

from __future__ import annotations

import csv
import json
import math
import re

import numpy as np
import pytest

from carbomarket.cli_io import (
    EXIT_DATA,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    CaseFormatError,
    CaseSchemaError,
    load_case,
    load_case_document,
    load_scenario,
    main,
    resolve_case_path,
    write_case,
)
from carbomarket.network_model import (
    Branch,
    Bus,
    Generator,
    NetworkCase,
    PiecewiseLinearCurve,
    StorageUnit,
    zero_curve,
)


def linear_gen(name, bus, slope, cap, rate, p_min=0.0):
    domain = (0.0, cap)
    return Generator(
        name=name, bus=bus,
        fuel_curve=PiecewiseLinearCurve(segments=((slope, 0.0),), domain=domain),
        emission_curve=PiecewiseLinearCurve(
            segments=((1000.0 * rate, 0.0),), domain=domain),
        p_min=p_min, p_max=cap)


def wind_gen(name, bus, cap):
    return Generator(
        name=name, bus=bus, fuel_curve=zero_curve(0.0, cap),
        emission_curve=zero_curve(0.0, cap), p_min=0.0, p_max=cap,
        is_renewable=True)


def two_bus_case(loss_offset=0.0):
    gas = Generator(
        name="gas1", bus=1,
        fuel_curve=PiecewiseLinearCurve(
            segments=((47.0, 0.0), (52.0, -80.0)), domain=(0.0, 30.0)),
        emission_curve=PiecewiseLinearCurve(
            segments=((400.0, 0.0),), domain=(0.0, 30.0)),
        p_min=0.0, p_max=30.0)
    wind = wind_gen("wind2", 2, 12.0)
    es = StorageUnit(name="es2", bus=2, p_max=4.0, eta_c=0.95, eta_d=0.9,
                     e_min=2.0, e_max=18.0, e_init=10.0,
                     gamma_lo=0.005, gamma_hi=0.05)
    return NetworkCase(
        buses=[Bus(id=1), Bus(id=2, loss_sensitivity=0.02)],
        branches=[Branch(from_bus=1, to_bus=2, capacity=5.0, reactance=0.1,
                         name="tie")],
        generators=[gas, wind],
        storages=[es],
        load_series=np.array([[10.0, 3.0], [11.0, 2.0], [12.0, 4.0], [9.0, 5.0]]),
        renewable_series={"wind2": np.array([6.0, 0.0, 8.0, 2.0])},
        tau=0.25, kappa=0.05, epsilon=1e-4,
        loss_offset=loss_offset, name="two_bus")


def assert_cases_equal(a: NetworkCase, b: NetworkCase) -> None:
    assert [(x.id, x.loss_sensitivity) for x in a.buses] == \
           [(x.id, x.loss_sensitivity) for x in b.buses]
    assert [(x.from_bus, x.to_bus, x.capacity, x.reactance, x.ptdf_row, x.name)
            for x in a.branches] == \
           [(x.from_bus, x.to_bus, x.capacity, x.reactance, x.ptdf_row, x.name)
            for x in b.branches]
    assert a.generators == b.generators
    assert a.storages == b.storages
    assert np.array_equal(a.load_series, b.load_series)
    assert set(a.renewable_series) == set(b.renewable_series)
    for key in a.renewable_series:
        assert np.array_equal(a.renewable_series[key], b.renewable_series[key])
    for field in ("tau", "kappa", "epsilon", "slack_bus",
                  "loss_offset", "loss_direction_dependent", "name"):
        assert getattr(a, field) == getattr(b, field), field


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# -------------------------------------------------------------- case files


def test_round_trip_is_exact(tmp_path):
    case = two_bus_case(loss_offset=0.3)
    write_case(case, tmp_path / "two_bus.yaml")
    assert_cases_equal(load_case(tmp_path / "two_bus.yaml"), case)


def test_a_retired_market_delta_still_loads(tmp_path):
    # the sweep step is no longer a case field; old files that set it still load
    case = two_bus_case()
    write_case(case, tmp_path / "c.yaml")
    text = (tmp_path / "c.yaml").read_text()
    assert "epsilon: 0.0001," in text
    text = text.replace("epsilon: 0.0001,", "epsilon: 0.0001, delta: 0.01,")
    (tmp_path / "c.yaml").write_text(text)
    assert_cases_equal(load_case(tmp_path / "c.yaml"), case)


def test_a_retired_generator_unit_emission_still_loads(tmp_path):
    # the emission curve carries the rate; files written with the old
    # nameplate entry still load, and it is ignored
    case = two_bus_case()
    write_case(case, tmp_path / "c.yaml")
    text = (tmp_path / "c.yaml").read_text()
    assert "unit_emission" not in text
    assert "  p_max: 30.0\n" in text
    text = text.replace("  p_max: 30.0\n", "  p_max: 30.0\n  unit_emission: 0.4\n")
    (tmp_path / "c.yaml").write_text(text)
    assert_cases_equal(load_case(tmp_path / "c.yaml"), case)


@pytest.mark.parametrize("old, new, field", [
    ("kappa: 0.05,", "kapa: 0.5,", "market.kapa: unknown field"),
    ("  p_min: 0.0\n  p_max: 30.0", "  pmin: 30.0\n  p_max: 30.0",
     "generators[0].pmin: unknown field"),
], ids=["market-kapa", "generator-pmin"])
def test_unknown_case_keys_exit_3_and_name_the_field(tmp_path, capsys, old, new, field):
    # a misspelt key would otherwise run silently with the field's default
    write_case(two_bus_case(), tmp_path / "c.yaml")
    path = tmp_path / "c.yaml"
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))
    with pytest.raises(CaseSchemaError, match=re.escape(field)):
        load_case(path)
    assert main(["clear", "--case", str(path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "error code=3 kind=data" in err
    assert field in err


def test_round_trip_survives_a_second_pass(tmp_path):
    case = two_bus_case()
    write_case(case, tmp_path / "a.yaml")
    write_case(load_case(tmp_path / "a.yaml"), tmp_path / "b.yaml")
    assert (tmp_path / "a.yaml").read_text().replace("a_loads", "b_loads") \
        .replace("a_renewables", "b_renewables") == (tmp_path / "b.yaml").read_text()
    assert_cases_equal(load_case(tmp_path / "b.yaml"), case)


def test_sampled_point_curves_load(tmp_path):
    write_case(two_bus_case(), tmp_path / "c.yaml")
    text = (tmp_path / "c.yaml").read_text()
    text = text.replace(
        "fuel_curve: {segments: [[47.0, 0.0], [52.0, -80.0]], domain: [0.0, 30.0]}",
        "fuel_points: [[0.0, 0.0], [16.0, 752.0], [30.0, 1480.0]]")
    (tmp_path / "c.yaml").write_text(text)
    case = load_case(tmp_path / "c.yaml")
    fuel = case.generators[0].fuel_curve
    for p, want in ((0.0, 0.0), (10.0, 470.0), (16.0, 752.0), (30.0, 1480.0)):
        assert math.isclose(fuel.value(p), want, abs_tol=1e-9)


def test_bundled_replica_loads():
    case = load_case("replica30")
    assert case.name == "replica30"
    assert len(case.buses) == 30
    assert sum(not g.is_renewable for g in case.generators) == 6
    assert sum(g.is_renewable for g in case.generators) == 2
    assert sorted(s.name for s in case.storages) == ["es15", "es18"]
    assert case.horizon == 672
    assert resolve_case_path("replica30").name == "replica30.yaml"


def test_empty_and_malformed_documents(tmp_path):
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    with pytest.raises(CaseFormatError, match="empty"):
        load_case(empty)
    bad = tmp_path / "bad.yaml"
    bad.write_text(":\n  - [")
    with pytest.raises(CaseFormatError, match="line 1"):
        load_case(bad)
    listy = tmp_path / "list.yaml"
    listy.write_text("- 1\n- 2\n")
    with pytest.raises(CaseFormatError, match="mapping"):
        load_case(listy)
    with pytest.raises(CaseFormatError, match="no such case"):
        load_case(tmp_path / "missing.yaml")


def test_semantic_validation_cites_the_invariant(tmp_path):
    write_case(two_bus_case(), tmp_path / "c.yaml")
    text = (tmp_path / "c.yaml").read_text().replace("eta_c: 0.95", "eta_c: 1.5")
    (tmp_path / "c.yaml").write_text(text)
    with pytest.raises(CaseSchemaError, match=r"lie in \(0, 1\]"):
        load_case(tmp_path / "c.yaml")


def test_schema_errors_list_every_problem(tmp_path):
    doc = tmp_path / "multi.yaml"
    doc.write_text(
        "units: {power: MW, energy: MWh, price: $/kWh, emission: kgCO2/kWh}\n"
        "market: {tau: horse}\n"
        "buses:\n  - {id: 1}\n  - {loss_sensitivity: 0.1}\n"
        "generators:\n"
        "  - {name: g1, bus: 1, p_max: ten,\n"
        "     fuel_curve: {segments: [[1.0, 0.0]], domain: [0.0, 10.0]}}\n"
        "series: {}\n")
    with pytest.raises(CaseSchemaError) as err:
        load_case(doc)
    problems = err.value.problems
    assert any(p.startswith("market.tau") for p in problems)
    assert any(p.startswith("buses[1].id") for p in problems)
    assert any(p.startswith("generators[0].p_max") for p in problems)
    assert any("emission_points or emission_curve" in p for p in problems)
    assert any(p.startswith("series.loads") for p in problems)
    assert len(problems) >= 5


@pytest.mark.parametrize("target, old, new, field", [
    ("c.yaml", "capacity: 5.0", "capacity: .inf", "branch 1-2: capacity must be finite"),
    ("c.yaml", "capacity: 5.0", "capacity: .nan", "branch 1-2: capacity must be finite"),
    ("c_loads.csv", "10.0,3.0", "nan,3.0", "series: load_series must be finite"),
], ids=["inf-capacity", "nan-capacity", "nan-load"])
def test_non_finite_numbers_exit_3_and_name_the_field(tmp_path, capsys, target, old, new, field):
    write_case(two_bus_case(), tmp_path / "c.yaml")
    path = tmp_path / target
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    assert main(["clear", "--case", str(tmp_path / "c.yaml")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "error code=3 kind=data" in err
    assert field in err


def test_series_column_mismatches_are_reported(tmp_path):
    write_case(two_bus_case(), tmp_path / "c.yaml")
    loads = tmp_path / "c_loads.csv"
    loads.write_text("bus_1,bus_9\n1.0,2.0\n")
    with pytest.raises(CaseSchemaError, match="missing columns"):
        load_case(tmp_path / "c.yaml")
    loads.write_text("bus_1,bus_2,bus_9\n1.0,2.0,3.0\n")
    with pytest.raises(CaseSchemaError, match="unknown columns"):
        load_case(tmp_path / "c.yaml")
    loads.write_text("bus_1,bus_2\n1.0,2.0\n")
    renews = tmp_path / "c_renewables.csv"
    renews.write_text("plant_nessie\n1.0\n")
    with pytest.raises(CaseSchemaError, match="unknown plants"):
        load_case(tmp_path / "c.yaml")


def test_case_document_carries_scenario_defaults(tmp_path):
    write_case(two_bus_case(), tmp_path / "c.yaml",
               scenario_defaults={"horizon": 2, "enable_allocation": False})
    case, defaults = load_case_document(tmp_path / "c.yaml")
    assert defaults == {"horizon": 2, "enable_allocation": False}
    assert case.horizon == 4


# --------------------------------------------------------------- scenarios


def test_scenario_file_loads_and_rejects_unknowns(tmp_path):
    good = tmp_path / "s.yaml"
    good.write_text("horizon: 3\nenable_allocation: false\n")
    scenario = load_scenario(good)
    assert (scenario.horizon, scenario.enable_allocation) == (3, False)
    bad = tmp_path / "t.yaml"
    # a misspelt key, the retired seed and delta settings, and the market
    # parameters, which live only in the case
    for doc in ("horizont: 3\n", "seed: 5\n", "delta: 0.01\n",
                "epsilon: 0.0002\n", "kappa_override: 0.2\n"):
        bad.write_text(doc)
        with pytest.raises(CaseSchemaError, match="unknown scenario field"):
            load_scenario(bad)


def test_scenario_file_rejects_price_taking_methods(tmp_path):
    # storages always bid the proposed policy; the price-taking baselines
    # only replay recorded prices, so no scenario key selects a method
    doc = tmp_path / "s.yaml"
    for method in ("b2", "{es2: b3}", "proposed"):
        doc.write_text(f"storage_method: {method}\n")
        with pytest.raises(CaseSchemaError, match="storage_method: unknown scenario field"):
            load_scenario(doc)


# ----------------------------------------------------------- report bundle


@pytest.fixture(scope="module")
def simulated_bundle(tmp_path_factory):
    root = tmp_path_factory.mktemp("bundle")
    write_case(two_bus_case(loss_offset=0.3), root / "c.yaml")
    out = root / "report"
    code = main(["simulate", "--case", str(root / "c.yaml"), "--out", str(out)])
    assert code == EXIT_OK
    return out


def test_bundle_has_all_four_files(simulated_bundle):
    names = sorted(p.name for p in simulated_bundle.iterdir())
    assert names == ["meta.json", "periods.csv", "summary.csv", "trace.csv"]
    meta = json.loads((simulated_bundle / "meta.json").read_text())
    assert meta["case"] == "two_bus"
    assert meta["periods"] == 4
    assert set(meta["scenario"]) == {"name", "enable_storage", "enable_allocation",
                                     "horizon"}
    assert set(meta["versions"]) == {"carbomarket", "numpy", "scipy", "python"}


def test_period_rows_cover_every_agent(simulated_bundle):
    rows = read_csv(simulated_bundle / "periods.csv")
    by_kind = {}
    for row in rows:
        by_kind.setdefault(row["kind"], set()).add(row["agent"])
    assert by_kind["system"] == {"system"}
    assert by_kind["generator"] == {"gas1", "wind2"}
    assert by_kind["storage"] == {"es2"}
    assert by_kind["load"] == {"load_1", "load_2"}
    assert len(rows) == 4 * 6
    periods = {int(r["period"]) for r in rows}
    assert periods == {0, 1, 2, 3}


def test_money_columns_close_the_books(simulated_bundle):
    rows = read_csv(simulated_bundle / "periods.csv")
    tau, loss_offset = 0.25, 0.3
    for t in range(4):
        here = [r for r in rows if int(r["period"]) == t]
        system = next(r for r in here if r["kind"] == "system")
        energy = sum(float(r["energy_usd"]) for r in here if r["energy_usd"])
        uplift = float(system["lmp_usd_per_mwh"]) * loss_offset * tau
        assert energy == pytest.approx(uplift, abs=1e-6)
        emission = sum(float(r["emission_usd"]) for r in here if r["emission_usd"])
        assert abs(emission) < 1e-6


def test_summary_matches_period_aggregation(simulated_bundle):
    rows = read_csv(simulated_bundle / "periods.csv")
    summary = {(r["metric"], r["agent"]): float(r["value"])
               for r in read_csv(simulated_bundle / "summary.csv")}
    tau = 0.25
    system = [r for r in rows if r["kind"] == "system"]
    n = len(system)
    assert summary[("periods", "")] == n
    fuel = sum(float(r["fuel_usd"]) for r in system) / (tau * n)
    assert summary[("avg_generation_cost_usd_per_h", "")] == pytest.approx(
        fuel, rel=1e-9)
    emission = sum(float(r["emission_kg"]) for r in system) / (tau * n)
    assert summary[("avg_emission_kg_per_h", "")] == pytest.approx(
        emission, rel=1e-9)
    available = sum(float(r["available_mw"]) for r in system)
    dispatched = sum(float(r["power_mw"]) for r in system)
    assert summary[("curtailment_fraction", "")] == pytest.approx(
        (available - dispatched) / available, abs=1e-9)
    residual = max(float(r["residual_rel"]) for r in system)
    assert summary[("max_settlement_residual_rel", "")] == pytest.approx(
        residual, rel=1e-9)
    storage = [r for r in rows if r["agent"] == "es2"]
    revenue = sum(float(r["energy_usd"]) + float(r["emission_usd"])
                  for r in storage)
    assert summary[("revenue_total_usd", "es2")] == pytest.approx(revenue, abs=1e-9)
    kg = np.cumsum([float(r["emission_kg"]) for r in storage])
    hours = tau * np.arange(1, n + 1)
    slope = np.polyfit(hours, kg, 1)[0]
    assert summary[("emission_rate_kg_per_h", "es2")] == pytest.approx(
        slope, rel=1e-9)
    cash = np.cumsum([float(r["energy_usd"]) + float(r["emission_usd"])
                      for r in storage])
    assert summary[("revenue_rate_usd_per_h", "es2")] == pytest.approx(
        np.polyfit(hours, cash, 1)[0], rel=1e-9)


def test_trace_rows_match_allocation_sweeps(simulated_bundle):
    trace = read_csv(simulated_bundle / "trace.csv")
    assert trace, "allocation runs every period, so the trace cannot be empty"
    for row in trace:
        assert 0.0 < float(row["y"]) <= 1.0 + 1e-12
        assert int(row["iterations"]) >= 1
        assert row["start_used"] in ("true", "false")
    last_by_period = {}
    for row in trace:
        last_by_period[int(row["period"])] = float(row["y"])
    for y in last_by_period.values():
        assert y == pytest.approx(1.0, abs=1e-9)


# ------------------------------------------------------------ command exit


def test_usage_errors_exit_2(capsys):
    assert main(["clear"]) == EXIT_USAGE
    assert main(["no-such-command"]) == EXIT_USAGE
    assert main(["--help"]) == EXIT_OK
    capsys.readouterr()


def test_data_errors_exit_3(tmp_path, capsys):
    assert main(["clear", "--case", str(tmp_path / "nope.yaml")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "error code=3 kind=data" in err
    write_case(two_bus_case(), tmp_path / "c.yaml")
    assert main(["clear", "--case", str(tmp_path / "c.yaml"),
                 "--period", "99"]) == EXIT_DATA


def test_infeasible_demand_exits_4(tmp_path, capsys):
    case = two_bus_case()
    case.load_series = case.load_series + 500.0
    write_case(case, tmp_path / "c.yaml")
    assert main(["clear", "--case", str(tmp_path / "c.yaml")]) == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert "error code=4 kind=infeasible" in err
    assert main(["simulate", "--case", str(tmp_path / "c.yaml"),
                 "--out", str(tmp_path / "r")]) == EXIT_INFEASIBLE


def test_clear_prints_dispatch_lines(tmp_path, capsys):
    write_case(two_bus_case(), tmp_path / "c.yaml")
    assert main(["clear", "--case", str(tmp_path / "c.yaml"),
                 "--period", "0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("period=0 lambda_bar=")
    assert "agent=gas1 kind=generator" in out
    assert "agent=es2 kind=storage" in out
    assert "settlement_residual_rel=" in out


def test_allocate_prints_prices_and_trace(tmp_path, capsys):
    write_case(two_bus_case(), tmp_path / "c.yaml")
    assert main(["allocate", "--case", str(tmp_path / "c.yaml"),
                 "--period", "0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "psi bus=1" in out and "psi bus=2" in out
    assert "storage_cost agent=es2" in out
    assert "trace index=0" in out
    assert "cost_sharing_error=" in out


def test_cef_prints_both_price_families(tmp_path, capsys):
    write_case(two_bus_case(), tmp_path / "c.yaml")
    assert main(["cef", "--case", str(tmp_path / "c.yaml"),
                 "--period", "0"]) == EXIT_OK
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.startswith("bus=")]
    assert len(lines) == 2
    assert all("rho_kg_per_kwh=" in l and "cef_price_usd_per_kwh=" in l
               and "marginal_price_usd_per_kwh=" in l for l in lines)


def test_compare_emits_matrix_and_baselines(tmp_path, capsys):
    write_case(two_bus_case(), tmp_path / "c.yaml")
    out_dir = tmp_path / "cmp"
    assert main(["compare", "--case", str(tmp_path / "c.yaml"),
                 "--out", str(out_dir)]) == EXIT_OK
    capsys.readouterr()
    matrix = read_csv(out_dir / "compare.csv")
    assert [r["scenario"] for r in matrix] == ["proposed", "a1", "a2", "a3"]
    baselines = read_csv(out_dir / "baselines.csv")
    assert {(r["storage"], r["method"]) for r in baselines} == \
        {("es2", m) for m in ("proposed", "b1", "b2", "b3")}


def test_flag_overrides_reach_the_solver(tmp_path, capsys):
    write_case(two_bus_case(), tmp_path / "c.yaml")
    out = tmp_path / "r"
    scenario = tmp_path / "s.yaml"
    scenario.write_text("horizon: 2\n")
    command = ["simulate", "--case", str(tmp_path / "c.yaml"),
               "--scenario", str(scenario), "--out", str(out)]
    assert main(command) == EXIT_OK
    meta = json.loads((out / "meta.json").read_text())
    assert meta["periods"] == 2
    # the sweep step and the seed are no longer settings, and the tie-break
    # weight lives only in the case
    assert main(command + ["--epsilon", "1e-5"]) == EXIT_USAGE
    assert main(command + ["--delta", "0.2"]) == EXIT_USAGE
    assert main(command + ["--seed", "3"]) == EXIT_USAGE
    for sub in ("clear", "allocate", "cef", "compare"):
        assert main([sub, "--case", str(tmp_path / "c.yaml"), "--epsilon", "1e-5"]) == EXIT_USAGE
    capsys.readouterr()
    trace = read_csv(out / "trace.csv")
    assert max(int(r["index"]) for r in trace) <= 6
