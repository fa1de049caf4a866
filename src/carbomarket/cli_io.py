"""Case files, report bundles, and the command-line surface.

A case travels as one YAML document plus CSV sidecars for the time series;
bid curves ride either as sampled (power, value) points or as exact
(slope, intercept) segments. ``SCHEMA`` is the one place the document's keys
live: reading, writing, the defaults and the unknown-key check all come from
it. Simulation reports land as four files: periods.csv, summary.csv,
trace.csv, and meta.json. Exit codes: 0 ok, 2 usage, 3 data, 4 infeasible,
5 numeric.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import platform
import sys
from pathlib import Path

import numpy as np
import yaml

from .cef_baseline import CefSingularError, FlowGraph, cef_emission_prices, cef_solve
from .emission_allocation import NonProgressError
from .lp_core import SimplexNumericalError
from .market_clearing import MarketInfeasibleError
from .network_model import (
    Branch,
    Bus,
    Generator,
    NetworkCase,
    NonConvexPointsError,
    PiecewiseLinearCurve,
    StorageUnit,
    curve_from_points,
    validate_case,
)
from .simulator import (
    ScenarioConfig,
    SettlementImbalanceError,
    SimulationAbort,
    SimulationReport,
    replay_storage,
    recorded_combined_prices,
    run_horizon,
    run_period,
)
from .storage_policy import PolicyAssumptionError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INFEASIBLE = 4
EXIT_NUMERIC = 5

CANONICAL_UNITS = {
    "power": "MW",
    "energy": "MWh",
    "price": "$/kWh",
    "emission": "kgCO2/kWh",
}

PERIOD_COLUMNS = [
    "period", "agent", "kind", "bus", "power_mw", "soc_mwh",
    "lmp_usd_per_mwh", "psi_usd_per_kwh", "energy_usd", "emission_usd",
    "emission_kg", "fuel_usd", "available_mw", "residual_rel",
]
SUMMARY_COLUMNS = ["metric", "agent", "value"]
TRACE_COLUMNS = ["period", "index", "y", "iterations", "start_used",
                 "cost_sharing_error"]

REQUIRED = object()  # the default of a key every entry must give

# Each section's file keys, in the order write_case emits them, mapped to
# (constructor argument, type, default or REQUIRED). The type is the one the
# argument is built with; tuple is a list of numbers. A case's market keys are
# NetworkCase arguments, and the scenario's are ScenarioConfig's.
SCHEMA = {
    "market": {"tau": ("tau", float, 1.0),
               "kappa": ("kappa", float, 0.05),
               "epsilon": ("epsilon", float, 1e-4),
               "slack_bus": ("slack_bus", int, None),
               "loss_offset": ("loss_offset", float, 0.0),
               "loss_direction_dependent": ("loss_direction_dependent", bool, False)},
    "buses": {"id": ("id", int, REQUIRED),
              "loss_sensitivity": ("loss_sensitivity", float, 0.0)},
    "branches": {"from": ("from_bus", int, REQUIRED),
                 "to": ("to_bus", int, REQUIRED),
                 "capacity": ("capacity", float, REQUIRED),
                 "reactance": ("reactance", float, None),
                 "ptdf_row": ("ptdf_row", tuple, None),
                 "name": ("name", str, "")},
    "generators": {"name": ("name", str, REQUIRED),
                   "bus": ("bus", int, REQUIRED),
                   "p_min": ("p_min", float, 0.0),
                   "p_max": ("p_max", float, REQUIRED),
                   "renewable": ("is_renewable", bool, False)},
    "storages": {"name": ("name", str, REQUIRED),
                 "bus": ("bus", int, REQUIRED),
                 **{key: (key, float, REQUIRED)
                    for key in ("p_max", "eta_c", "eta_d", "e_min", "e_max", "e_init",
                                "gamma_lo", "gamma_hi")},
                 "n_segments": ("n_segments", int, 50)},
    "scenario": {"name": ("name", str, "proposed"),
                 "enable_storage": ("enable_storage", bool, True),
                 "enable_allocation": ("enable_allocation", bool, True),
                 "horizon": ("horizon", int, None)},
}
_EXPECTED = {float: "a number", int: "an integer", bool: "true/false", str: "a string"}

# Keys each case-file mapping may hold; any other key is reported. Besides
# SCHEMA's keys: the curves, and two retired keys that load and are ignored,
# market.delta (the sweep step, now a constant) and generators[i].unit_emission
# (the emission curve carries the rate).
CASE_KEYS = {
    **{section: set(keys) for section, keys in SCHEMA.items()},
    "case": {"name", "units", *SCHEMA, "series"},
    "units": set(CANONICAL_UNITS),
    "series": {"loads", "renewables"},
}
CASE_KEYS["market"].add("delta")
CASE_KEYS["generators"] |= {"fuel_points", "fuel_curve", "emission_points",
                            "emission_curve", "unit_emission"}


class CaseFormatError(ValueError):
    """The document cannot be parsed at all (syntax, empty, wrong shape)."""


class CaseSchemaError(ValueError):
    """The document parses but violates the schema; lists every problem."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


# ------------------------------------------------------------ YAML reading

# libyaml's parser where PyYAML was built with it (PyPI's wheels are); the
# constructor and resolver are PyYAML's own either way, so both give the same
# document.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _read_yaml(path: Path):
    try:
        text = path.read_text()
    except OSError as exc:
        raise CaseFormatError(f"{path}: {exc.strerror or exc}") from exc
    try:
        doc = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise CaseFormatError(f"{path}: parse error{where}: {exc}") from exc
    if doc is None:
        raise CaseFormatError(f"{path}: empty document")
    if not isinstance(doc, dict):
        raise CaseFormatError(f"{path}: top level must be a mapping")
    return doc


def _get(data, key, kind, path, problems, default=None):
    """``data[key]`` built as ``kind``; ``default`` (None if REQUIRED) when it is
    absent or, reported, malformed. A null list of numbers reads as absent."""
    fallback = None if default is REQUIRED else default
    if key not in data:
        if default is REQUIRED:
            problems.append(f"{path}.{key}: required")
        return fallback
    value = data[key]
    if kind is tuple:
        try:
            return None if value is None else tuple(float(v) for v in value)
        except (TypeError, ValueError):
            problems.append(f"{path}.{key}: expected a list of numbers")
            return fallback
    # a YAML integer is a number, but no boolean is a number or an integer
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) is not (kind is bool) or not isinstance(value, accepted):
        problems.append(f"{path}.{key}: expected {_EXPECTED[kind]}, got {value!r}")
        return fallback
    return kind(value)


def _check_keys(data: dict, section: str, path: str, problems: list[str]) -> None:
    unknown = "unknown scenario field" if section == "scenario" else "unknown field"
    for key in data:
        if key not in CASE_KEYS[section]:
            problems.append(f"{path}.{key}: {unknown}")


def _fields(data: dict, section: str, path: str, problems: list[str]) -> dict | None:
    """Constructor arguments of the section's SCHEMA keys, after checking for
    unknown keys; None when a required one is missing or malformed."""
    _check_keys(data, section, path, problems)
    args = {}
    complete = True
    for key, (arg, kind, default) in SCHEMA[section].items():
        args[arg] = _get(data, key, kind, path, problems, default)
        complete &= not (default is REQUIRED and args[arg] is None)
    return args if complete else None


def _entries(doc, section, problems, required=False):
    """Each mapping of the list ``doc[section]`` as (path, mapping, arguments),
    the arguments as ``_fields`` gives them."""
    entries = doc.get(section)
    if entries is None:
        if required:
            problems.append(f"{section}: required section")
        return
    if not isinstance(entries, list):
        problems.append(f"{section}: expected a list")
        return
    for i, entry in enumerate(entries):
        path = f"{section}[{i}]"
        if not isinstance(entry, dict):
            problems.append(f"{path}: expected a mapping")
            continue
        yield path, entry, _fields(entry, section, path, problems)


def _parse_curve(entry, prefix, path, problems) -> PiecewiseLinearCurve | None:
    points = entry.get(f"{prefix}_points")
    spec = entry.get(f"{prefix}_curve")
    if points is None and spec is None:
        problems.append(f"{path}: needs {prefix}_points or {prefix}_curve")
        return None
    if points is not None and spec is not None:
        problems.append(f"{path}: give only one of {prefix}_points and {prefix}_curve")
        return None
    try:
        if points is not None:
            return curve_from_points([(float(x), float(v)) for x, v in points])
        segments = [(float(s), float(b)) for s, b in spec["segments"]]
        lo, hi = spec["domain"]
        return PiecewiseLinearCurve(segments=tuple(segments),
                                    domain=(float(lo), float(hi)))
    except (NonConvexPointsError, ValueError, TypeError, KeyError) as exc:
        problems.append(f"{path}.{prefix}: malformed curve ({exc})")
        return None


def _read_series_csv(path: Path, prefix: str, wanted, problems, label):
    """Columns {prefix}{id} -> array, all the same length, full coverage."""
    try:
        with path.open(newline="") as fh:
            header = next(csv.reader(fh), [])
            lines = fh.readlines()
    except OSError as exc:
        problems.append(f"{label}: cannot read {path} ({exc.strerror or exc})")
        return None
    # checked here: loadtxt would only warn, and return an empty table
    if not any(line.strip() for line in lines):
        problems.append(f"{label}: {path} has no data rows")
        return None
    try:
        data = np.loadtxt(lines, delimiter=",", ndmin=2, quotechar='"')
    except ValueError as exc:
        # numpy's reason names the row and column; drop its advice after ";"
        reason = str(exc).split(";")[0].rstrip(".")
        problems.append(f"{label}: bad data row in {path.name} ({reason})")
        return None
    if data.shape[1] != len(header):
        problems.append(f"{label}: bad data row in {path.name} "
                        f"({data.shape[1]} values under {len(header)} header columns)")
        return None
    columns = {}
    for col, values in zip(header, np.ascontiguousarray(data.T)):
        if not col.startswith(prefix):
            problems.append(f"{label}: unexpected column {col!r} in {path.name}")
            continue
        if col[len(prefix):] in columns:
            problems.append(f"{label}: {path.name} repeats column {col!r}")
            return None
        columns[col[len(prefix):]] = values
    if wanted is not None:
        missing = [w for w in wanted if str(w) not in columns]
        if missing:
            problems.append(f"{label}: {path.name} missing columns for {missing}")
            return None
        extra = [k for k in columns if k not in {str(w) for w in wanted}]
        if extra:
            problems.append(f"{label}: {path.name} has unknown columns {extra}")
            return None
    return columns


def resolve_case_path(spec: str) -> Path:
    """A real file wins; otherwise try the package's bundled cases."""
    direct = Path(spec)
    if direct.exists():
        return direct
    if direct.suffix == "" and direct.name == spec:
        from importlib import resources  # only a bundled case name needs it

        bundled = Path(str(resources.files("carbomarket") / "cases" / f"{spec}.yaml"))
        if bundled.exists():
            return bundled
    raise CaseFormatError(f"{spec}: no such case file or bundled case")


def load_case_document(path) -> tuple[NetworkCase, dict]:
    """Parse, schema-check, build, and validate; returns (case, scenario defaults)."""
    path = resolve_case_path(str(path))
    doc = _read_yaml(path)
    problems: list[str] = []
    _check_keys(doc, "case", "case", problems)

    units = doc.get("units")
    if not isinstance(units, dict):
        problems.append("units: required mapping declaring the file's units")
    else:
        _check_keys(units, "units", "units", problems)
        for key, want in CANONICAL_UNITS.items():
            got = units.get(key)
            if got != want:
                problems.append(f"units.{key}: must be {want!r}, got {got!r}")

    market = doc.get("market", {})
    if not isinstance(market, dict):
        problems.append("market: expected a mapping")
        market = {}
    market_args = _fields(market, "market", "market", problems)  # no key is required

    buses = []
    for here, entry, args in _entries(doc, "buses", problems, required=True):
        # read again, unreported, so that a bus whose id failed is checked too
        sens = _get(entry, "loss_sensitivity", float, here, [], 0.0)
        if np.isfinite(sens) and abs(sens) >= 1.0:
            # the bus would deliver 1 - loss <= 0 of each MW at the loss's positive sign
            problems.append(f"{here}.loss_sensitivity: must lie in (-1, 1), got {sens!r}")
        if args is not None:
            buses.append(Bus(**args))
    if doc.get("buses") == []:
        problems.append("buses: needs at least one bus")

    branches = [Branch(**args) for _, _, args in _entries(doc, "branches", problems)
                if args is not None]

    generators = []
    for here, entry, args in _entries(doc, "generators", problems, required=True):
        fuel = _parse_curve(entry, "fuel", here, problems)
        emission = _parse_curve(entry, "emission", here, problems)
        if args is not None and fuel and emission:
            generators.append(Generator(fuel_curve=fuel, emission_curve=emission, **args))

    storages = [StorageUnit(**args) for _, _, args in _entries(doc, "storages", problems)
                if args is not None]

    series = doc.get("series")
    load_series = None
    renewable_series: dict[str, np.ndarray] = {}
    if not isinstance(series, dict):
        problems.append("series: required mapping with a loads entry")
    else:
        _check_keys(series, "series", "series", problems)
        loads_rel = _get(series, "loads", str, "series", problems, REQUIRED)
        if loads_rel is not None and buses:
            cols = _read_series_csv(path.parent / loads_rel, "bus_",
                                    [b.id for b in buses], problems, "series.loads")
            if cols is not None:
                load_series = np.column_stack([cols[str(b.id)] for b in buses])
        renew_rel = _get(series, "renewables", str, "series", problems)
        if renew_rel is not None:
            known = [g.name for g in generators]
            cols = _read_series_csv(path.parent / renew_rel, "plant_",
                                    None, problems, "series.renewables")
            if cols is not None:
                bad = [k for k in cols if k not in known]
                if bad:
                    problems.append(f"series.renewables: unknown plants {bad}")
                else:
                    renewable_series = dict(cols)

    scenario_defaults = doc.get("scenario", {})
    if not isinstance(scenario_defaults, dict):
        problems.append("scenario: expected a mapping")
        scenario_defaults = {}
    else:
        _scenario_fields(scenario_defaults, problems)

    name = _get(doc, "name", str, "case", problems, path.stem)
    if problems:
        raise CaseSchemaError(problems)

    case = NetworkCase(
        buses=buses, branches=branches, generators=generators, storages=storages,
        load_series=load_series, renewable_series=renewable_series,
        name=name, **market_args,
    )
    issues = validate_case(case)
    if issues:
        raise CaseSchemaError(issues)
    return case, scenario_defaults


def load_case(path) -> NetworkCase:
    case, _ = load_case_document(path)
    return case


def _scenario_fields(data: dict, problems: list[str]) -> dict:
    """ScenarioConfig's arguments from a scenario mapping; a null horizon,
    like an absent one, runs the full series."""
    given = {k: v for k, v in data.items() if not (k == "horizon" and v is None)}
    args = _fields(given, "scenario", "scenario", problems)
    horizon = args["horizon"]
    if horizon is not None and horizon < 1:
        problems.append(f"scenario.horizon: expected at least 1, got {horizon}")
    return args


def load_scenario(path) -> ScenarioConfig:
    return build_scenario({}, _read_yaml(Path(path)))


def build_scenario(defaults: dict, overlay: dict | None = None) -> ScenarioConfig:
    problems: list[str] = []
    args = _scenario_fields({**defaults, **(overlay or {})}, problems)
    if problems:
        raise CaseSchemaError(problems)
    return ScenarioConfig(**args)


# ----------------------------------------------------------- serialization


def _record(obj, section: str) -> dict:
    """The SCHEMA keys of one record. A value of None, "" or False is left
    out, except in the market, which gives every key."""
    out = {}
    for key, (arg, kind, _) in SCHEMA[section].items():
        value = getattr(obj, arg)
        if value is not None:
            value = [float(x) for x in value] if kind is tuple else kind(value)
        if section == "market" or not (value is None or value is False or value == ""):
            out[key] = value
    return out


def _curve_doc(curve: PiecewiseLinearCurve) -> dict:
    return {
        "segments": [[float(s), float(b)] for s, b in curve.segments],
        "domain": [float(curve.domain[0]), float(curve.domain[1])],
    }


def write_case(case: NetworkCase, path, scenario_defaults: dict | None = None) -> list[Path]:
    """Emit the YAML document and its CSV sidecars; returns the paths written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    loads_path = path.parent / f"{path.stem}_loads.csv"
    doc = {
        "name": case.name,
        "units": dict(CANONICAL_UNITS),
        "market": _record(case, "market"),
        "buses": [_record(b, "buses") for b in case.buses],
        "branches": [_record(br, "branches") for br in case.branches],
        "generators": [{**_record(g, "generators"),
                        "fuel_curve": _curve_doc(g.fuel_curve),
                        "emission_curve": _curve_doc(g.emission_curve)}
                       for g in case.generators],
        "storages": [_record(s, "storages") for s in case.storages],
        "series": {"loads": loads_path.name},
    }
    written = []
    if case.renewable_series:
        renew_path = path.parent / f"{path.stem}_renewables.csv"
        doc["series"]["renewables"] = renew_path.name
        names = sorted(case.renewable_series)
        _write_csv(renew_path, [f"plant_{n}" for n in names],
                   np.column_stack([case.renewable_series[n] for n in names]))
        written.append(renew_path)
    if scenario_defaults:
        doc["scenario"] = dict(scenario_defaults)
    _write_csv(loads_path, [f"bus_{b.id}" for b in case.buses],
               case.load_series)
    written.append(loads_path)
    path.write_text(yaml.safe_dump(doc, sort_keys=False, default_flow_style=None))
    written.append(path)
    return written


# ---------------------------------------------------------- report bundle


def _cell(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    # adding 0.0 turns a negative zero into 0.0 and leaves every other value
    return repr(float(value) + 0.0)


def period_rows(report: SimulationReport, case: NetworkCase):
    """periods.csv payload: one row per period per agent, plus a system row.

    Every money cell is the period's settlement ledger entry, signed from the
    row's point of view; the emission cells divide those dollars by kappa.
    """
    tau, kappa = report.tau, case.kappa
    n_plants = len(case.generators)
    for rec in report.records:
        book = rec.ledger
        yield [rec.t, "system", "system", "", rec.renewable_dispatched,
               "", rec.lambda_bar, "", book.congestion_rent, book.emission_pot,
               rec.emission * tau, rec.fuel_cost * tau,
               rec.renewable_available, rec.settlement_residual]
        for k, (name, p) in enumerate(rec.dispatch.items()):
            pos = rec.agent_bus[k]
            if k < n_plants:
                yield [rec.t, name, "generator", case.buses[pos].id, p, "",
                       rec.lmp[pos], rec.psi[pos], book.energy[k], "",
                       rec.agent_emission[k] * tau, rec.agent_fuel[k] * tau,
                       case.renewable_bound(case.generators[k], rec.t), ""]
            else:
                kg = -book.emission[k] / kappa if kappa > 0 else 0.0
                yield [rec.t, name, "storage", case.buses[pos].id, p, rec.storage[name].e,
                       rec.lmp[pos], rec.psi[pos], book.energy[k], book.emission[k],
                       kg, "", "", ""]
        demand = case.demand(rec.t)
        for b, bus in enumerate(case.buses):
            kg = book.load_emission[b] / kappa if kappa > 0 else ""
            yield [rec.t, f"load_{bus.id}", "load", bus.id, float(demand[b]), "",
                   rec.lmp[b], rec.psi[b], -book.load_energy[b],
                   -book.load_emission[b], kg, "", "", ""]


def summary_rows(report: SimulationReport):
    yield ["periods", "", len(report.records)]
    yield ["avg_generation_cost_usd_per_h", "", report.avg_generation_cost]
    yield ["avg_bid_cost_usd_per_h", "", report.avg_bid_cost]
    yield ["avg_emission_kg_per_h", "", report.avg_emission]
    yield ["curtailment_fraction", "", report.curtailment]
    yield ["max_settlement_residual_rel", "", report.max_settlement_residual]
    yield ["max_cost_sharing_error", "", report.max_cost_sharing_error]
    yield ["periods_started_from_interior", "",
           report.periods_started_from_interior]
    yield ["periods_loss_unconverged", "", report.periods_loss_unconverged]
    for name in sorted(report.storage_revenue_total):
        yield ["revenue_total_usd", name, report.storage_revenue_total[name]]
    for name in sorted(report.storage_revenue_rate):
        yield ["revenue_rate_usd_per_h", name, report.storage_revenue_rate[name]]
    for name in sorted(report.storage_emission_rate):
        yield ["emission_rate_kg_per_h", name, report.storage_emission_rate[name]]


def trace_rows(report: SimulationReport):
    for rec in report.records:
        for k, y in enumerate(rec.allocation_breakpoints):
            yield [rec.t, k, y, rec.allocation_iterations, rec.start_used,
                   rec.cost_sharing_error]


def _write_csv(path: Path, header, rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def write_report_bundle(report: SimulationReport, case: NetworkCase, out_dir) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "periods.csv", PERIOD_COLUMNS, period_rows(report, case))
    _write_csv(out / "summary.csv", SUMMARY_COLUMNS, summary_rows(report))
    _write_csv(out / "trace.csv", TRACE_COLUMNS, trace_rows(report))
    # imported here: importlib.metadata loads email, socket and calendar,
    # which only a bundle needs
    from importlib import metadata

    def version(package: str) -> str:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "unknown"

    meta = {
        "case": case.name,
        "periods": len(report.records),
        "scenario": dataclasses.asdict(report.scenario),
        "versions": {
            "carbomarket": version("carbomarket"),
            "numpy": np.__version__,
            "scipy": version("scipy"),
            "python": platform.python_version(),
        },
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return [out / n for n in ("periods.csv", "summary.csv", "trace.csv", "meta.json")]


# ------------------------------------------------------------ subcommands


def _single_period(case: NetworkCase, period: int):
    if not 0 <= period < case.horizon:
        raise CaseSchemaError([f"period: {period} outside horizon 0..{case.horizon - 1}"])
    from .storage_policy import choose_parameters, initial_state

    scenario = ScenarioConfig.proposed()
    params = {u.name: choose_parameters(u) for u in case.storages}
    states = {u.name: initial_state(u, params[u.name]) for u in case.storages}
    return run_period(case, scenario, period, states, params)


def _cmd_clear(args) -> int:
    case = load_case(args.case)
    record, clearing, _ = _single_period(case, args.period)
    print(f"period={record.t} lambda_bar={clearing.lambda_bar:.6f} "
          f"bid_cost_usd_per_h={clearing.total_cost:.6f} "
          f"emission_kg_per_h={clearing.total_emission:.6f} "
          f"degenerate={str(record.degenerate).lower()}")
    for b, bus in enumerate(case.buses):
        print(f"bus={bus.id} lmp_usd_per_mwh={record.lmp[b]:.6f} "
              f"psi_usd_per_kwh={record.psi[b]:.8f}")
    for k, name in enumerate(clearing.agent_names):
        agent = clearing.bids.agents[k]
        kind = "storage" if agent.is_storage else "generator"
        print(f"agent={name} kind={kind} bus={agent.bus} "
              f"power_mw={clearing.dispatch[k]:.6f}")
    print(f"settlement_residual_rel={record.settlement_residual:.3e}")
    return EXIT_OK


def _cmd_allocate(args) -> int:
    case = load_case(args.case)
    record, clearing, allocation = _single_period(case, args.period)
    if allocation is None:
        print(f"period={record.t} kappa={case.kappa} allocation=disabled")
        return EXIT_OK
    book = record.ledger
    for b, bus in enumerate(case.buses):
        print(f"psi bus={bus.id} usd_per_kwh={allocation.psi[b]:.10f} "
              f"load_cost_usd={book.load_emission[b]:.6f}")
    names = clearing.agent_names
    for k in sorted(np.flatnonzero(clearing.form.storage), key=lambda k: names[k]):
        print(f"storage_cost agent={names[k]} usd={-book.emission[k]:.6f}")
    for k, (y, basis) in enumerate(allocation.breakpoints):
        print(f"trace index={k} y={y:.10f} basis_size={len(basis)}")
    print(f"iterations={allocation.iterations} "
          f"start_used={str(allocation.zeta > 0.0).lower()} "
          f"cost_sharing_error={allocation.cost_sharing_error:.3e}")
    return EXIT_OK


def _cmd_cef(args) -> int:
    case = load_case(args.case)
    record, clearing, allocation = _single_period(case, args.period)
    graph = FlowGraph.from_clearing(case, clearing)
    rho = cef_solve(graph)
    prices = cef_emission_prices(rho, case.kappa)
    for b, bus in enumerate(case.buses):
        marginal = allocation.psi[b] if allocation is not None else 0.0
        print(f"bus={bus.id} rho_kg_per_kwh={rho[b]:.8f} "
              f"cef_price_usd_per_kwh={prices[b]:.10f} "
              f"marginal_price_usd_per_kwh={marginal:.10f}")
    return EXIT_OK


def _merged_scenario(args, defaults: dict) -> ScenarioConfig:
    overlay = _read_yaml(Path(args.scenario)) if args.scenario else None
    return build_scenario(defaults, overlay)


def _cmd_simulate(args) -> int:
    case, defaults = load_case_document(args.case)
    scenario = _merged_scenario(args, defaults)
    report = run_horizon(case, scenario)
    paths = write_report_bundle(report, case, args.out)
    for p in paths:
        print(f"wrote {p}")
    print(f"periods={len(report.records)} "
          f"avg_cost_usd_per_h={report.avg_generation_cost:.4f} "
          f"avg_emission_kg_per_h={report.avg_emission:.4f} "
          f"curtailment_pct={100 * report.curtailment:.4f}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    case, defaults = load_case_document(args.case)
    base = _merged_scenario(args, defaults)
    reports: dict[str, SimulationReport] = {}
    matrix_rows = []
    for factory in (ScenarioConfig.proposed, ScenarioConfig.a1,
                    ScenarioConfig.a2, ScenarioConfig.a3):
        scenario = factory(horizon=base.horizon)
        name = scenario.name
        report = run_horizon(case, scenario)
        reports[name] = report
        matrix_rows.append([name, report.avg_generation_cost,
                            report.avg_emission, 100 * report.curtailment])
        print(f"scenario={name} avg_cost_usd_per_h={report.avg_generation_cost:.4f} "
              f"avg_emission_kg_per_h={report.avg_emission:.4f} "
              f"curtailment_pct={100 * report.curtailment:.4f}")
    baseline_rows = []
    proposed = reports["proposed"]
    if case.storages and proposed.records:
        for unit in case.storages:
            prices = recorded_combined_prices(proposed, case, unit.bus)
            rates = {"proposed": proposed.storage_revenue_rate.get(unit.name, 0.0)}
            for method in ("b1", "b2", "b3"):
                rates[method] = replay_storage(prices, unit, case.tau,
                                               method=method).rate
            for method, rate in rates.items():
                baseline_rows.append([unit.name, method, rate])
                print(f"storage={unit.name} method={method} "
                      f"revenue_rate_usd_per_h={rate:.4f}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "compare.csv",
                   ["scenario", "avg_generation_cost_usd_per_h",
                    "avg_emission_kg_per_h", "curtailment_pct"], matrix_rows)
        _write_csv(out / "baselines.csv",
                   ["storage", "method", "revenue_rate_usd_per_h"], baseline_rows)
        print(f"wrote {out / 'compare.csv'}")
        print(f"wrote {out / 'baselines.csv'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carbomarket",
        description="Emission-priced electricity market simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, period=False, scenario=False, out=None):
        sp.add_argument("--case", required=True,
                        help="case file path or bundled case name")
        if period:
            sp.add_argument("--period", type=int, default=0)
        if scenario:
            sp.add_argument("--scenario", help="scenario YAML file")
        if out is not None:
            sp.add_argument("--out", required=out, help="output directory")

    sp = sub.add_parser("clear", help="clear one period and print the dispatch")
    add_common(sp, period=True)
    sp.set_defaults(func=_cmd_clear)

    sp = sub.add_parser("allocate",
                        help="clear one period and print emission prices")
    add_common(sp, period=True)
    sp.set_defaults(func=_cmd_allocate)

    sp = sub.add_parser("cef", help="flow-tracing baseline prices for one period")
    add_common(sp, period=True)
    sp.set_defaults(func=_cmd_cef)

    sp = sub.add_parser("simulate", help="run a horizon and write a report bundle")
    add_common(sp, scenario=True, out=True)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("compare", help="run the scenario matrix and baselines")
    add_common(sp, scenario=True, out=False)
    sp.set_defaults(func=_cmd_compare)
    return parser


def _fail(code: int, kind: str, exc: BaseException) -> int:
    print(f"error code={code} kind={kind} message={str(exc)!r}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage or help
        if exc.code in (0, None):
            return EXIT_OK
        return EXIT_USAGE
    try:
        return args.func(args)
    except (CaseFormatError, CaseSchemaError, PolicyAssumptionError,
            FileNotFoundError) as exc:
        return _fail(EXIT_DATA, "data", exc)
    except MarketInfeasibleError as exc:
        return _fail(EXIT_INFEASIBLE, "infeasible", exc)
    except SimulationAbort as exc:
        if isinstance(exc.__cause__, MarketInfeasibleError):
            return _fail(EXIT_INFEASIBLE, "infeasible", exc)
        return _fail(EXIT_NUMERIC, "numeric", exc)
    except (SimplexNumericalError, NonProgressError, SettlementImbalanceError,
            CefSingularError, np.linalg.LinAlgError) as exc:
        return _fail(EXIT_NUMERIC, "numeric", exc)
