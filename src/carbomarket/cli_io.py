"""Case files, report bundles, and the command-line surface.

A case travels as one YAML document plus CSV sidecars for the time series;
bid curves ride either as sampled (power, value) points or as exact
(slope, intercept) segments. Simulation reports land as four files:
periods.csv, summary.csv, trace.csv, and meta.json. Exit codes: 0 ok,
2 usage, 3 data, 4 infeasible, 5 numeric.
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
from .emission_allocation import InfeasibleAtOriginError, NonProgressError
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

SCENARIO_KEYS = {"name", "enable_storage", "enable_allocation", "horizon"}

STORAGE_FIELDS = ("p_max", "eta_c", "eta_d", "e_min", "e_max", "e_init",
                  "gamma_lo", "gamma_hi")
# Keys each case-file mapping may hold; any other key is reported. The
# retired market.delta (the sweep step, now a constant) and
# generators[i].unit_emission (the emission curve carries the rate) load and
# are ignored.
CASE_KEYS = {
    "case": {"name", "units", "market", "buses", "branches", "generators",
             "storages", "series", "scenario"},
    "units": set(CANONICAL_UNITS),
    "market": {"tau", "kappa", "epsilon", "slack_bus", "loss_offset",
               "loss_direction_dependent", "delta"},
    "buses": {"id", "loss_sensitivity"},
    "branches": {"from", "to", "capacity", "reactance", "ptdf_row", "name"},
    "generators": {"name", "bus", "p_min", "p_max", "fuel_points", "fuel_curve",
                   "emission_points", "emission_curve", "unit_emission", "renewable"},
    "storages": {"name", "bus", "n_segments", *STORAGE_FIELDS},
    "series": {"loads", "renewables"},
}


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


def _num(data, key, path, problems, default=None, required=False):
    if key not in data:
        if required:
            problems.append(f"{path}.{key}: required")
        return default
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        problems.append(f"{path}.{key}: expected a number, got {value!r}")
        return default
    return float(value)


def _int(data, key, path, problems, default=None, required=False):
    if key not in data:
        if required:
            problems.append(f"{path}.{key}: required")
        return default
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, int):
        problems.append(f"{path}.{key}: expected an integer, got {value!r}")
        return default
    return int(value)


def _bool(data, key, path, problems, default=False):
    value = data.get(key, default)
    if not isinstance(value, bool):
        problems.append(f"{path}.{key}: expected true/false, got {value!r}")
        return default
    return value


def _str(data, key, path, problems, default=None, required=False):
    if key not in data:
        if required:
            problems.append(f"{path}.{key}: required")
        return default
    value = data[key]
    if not isinstance(value, str):
        problems.append(f"{path}.{key}: expected a string, got {value!r}")
        return default
    return value


def _check_keys(data: dict, section: str, path: str, problems: list[str]) -> None:
    for key in data:
        if key not in CASE_KEYS[section]:
            problems.append(f"{path}.{key}: unknown field")


def _maplist(doc, key, path, problems, required=False):
    entries = doc.get(key)
    if entries is None:
        if required:
            problems.append(f"{path}: required section")
        return []
    if not isinstance(entries, list):
        problems.append(f"{path}: expected a list")
        return []
    out = []
    for i, e in enumerate(entries):
        if not isinstance(e, dict):
            problems.append(f"{path}[{i}]: expected a mapping")
        else:
            _check_keys(e, key, f"{path}[{i}]", problems)
            out.append((i, e))
    return out


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
    _check_keys(market, "market", "market", problems)
    tau = _num(market, "tau", "market", problems, default=1.0)
    kappa = _num(market, "kappa", "market", problems, default=0.05)
    epsilon = _num(market, "epsilon", "market", problems, default=1e-4)
    slack_bus = _int(market, "slack_bus", "market", problems, default=None)
    loss_offset = _num(market, "loss_offset", "market", problems, default=0.0)
    loss_dir = _bool(market, "loss_direction_dependent", "market", problems)

    buses = []
    for i, entry in _maplist(doc, "buses", "buses", problems, required=True):
        bus_id = _int(entry, "id", f"buses[{i}]", problems, required=True)
        sens = _num(entry, "loss_sensitivity", f"buses[{i}]", problems, default=0.0)
        if bus_id is not None:
            buses.append(Bus(id=bus_id, loss_sensitivity=sens))

    branches = []
    for i, entry in _maplist(doc, "branches", "branches", problems):
        here = f"branches[{i}]"
        fb = _int(entry, "from", here, problems, required=True)
        tb = _int(entry, "to", here, problems, required=True)
        cap = _num(entry, "capacity", here, problems, required=True)
        reactance = _num(entry, "reactance", here, problems, default=None)
        row = entry.get("ptdf_row")
        if row is not None:
            try:
                row = tuple(float(v) for v in row)
            except (TypeError, ValueError):
                problems.append(f"{here}.ptdf_row: expected a list of numbers")
                row = None
        name = _str(entry, "name", here, problems, default="")
        if None not in (fb, tb, cap):
            branches.append(Branch(from_bus=fb, to_bus=tb, capacity=cap,
                                   reactance=reactance, ptdf_row=row, name=name))

    generators = []
    for i, entry in _maplist(doc, "generators", "generators", problems, required=True):
        here = f"generators[{i}]"
        name = _str(entry, "name", here, problems, required=True)
        bus = _int(entry, "bus", here, problems, required=True)
        p_min = _num(entry, "p_min", here, problems, default=0.0)
        p_max = _num(entry, "p_max", here, problems, required=True)
        fuel = _parse_curve(entry, "fuel", here, problems)
        emission = _parse_curve(entry, "emission", here, problems)
        renewable = _bool(entry, "renewable", here, problems)
        if None not in (name, bus, p_max) and fuel and emission:
            generators.append(Generator(
                name=name, bus=bus, fuel_curve=fuel, emission_curve=emission,
                p_min=p_min, p_max=p_max, is_renewable=renewable))

    storages = []
    for i, entry in _maplist(doc, "storages", "storages", problems):
        here = f"storages[{i}]"
        name = _str(entry, "name", here, problems, required=True)
        bus = _int(entry, "bus", here, problems, required=True)
        fields = {key: _num(entry, key, here, problems, required=True)
                  for key in STORAGE_FIELDS}
        n_segments = _int(entry, "n_segments", here, problems, default=50)
        if name is not None and bus is not None and None not in fields.values():
            storages.append(StorageUnit(name=name, bus=bus,
                                        n_segments=n_segments, **fields))

    series = doc.get("series")
    load_series = None
    renewable_series: dict[str, np.ndarray] = {}
    if not isinstance(series, dict):
        problems.append("series: required mapping with a loads entry")
    else:
        _check_keys(series, "series", "series", problems)
        loads_rel = _str(series, "loads", "series", problems, required=True)
        if loads_rel is not None and buses:
            cols = _read_series_csv(path.parent / loads_rel, "bus_",
                                    [b.id for b in buses], problems, "series.loads")
            if cols is not None:
                load_series = np.column_stack([cols[str(b.id)] for b in buses])
        renew_rel = _str(series, "renewables", "series", problems, default=None)
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
        _check_scenario_fields(scenario_defaults, "scenario", problems)

    if problems:
        raise CaseSchemaError(problems)

    case = NetworkCase(
        buses=buses, branches=branches, generators=generators, storages=storages,
        load_series=load_series, renewable_series=renewable_series,
        tau=tau, kappa=kappa, epsilon=epsilon,
        slack_bus=slack_bus, loss_offset=loss_offset,
        loss_direction_dependent=loss_dir,
        name=_str(doc, "name", "case", problems, default=path.stem),
    )
    issues = validate_case(case)
    if issues:
        raise CaseSchemaError(issues)
    return case, scenario_defaults


def load_case(path) -> NetworkCase:
    case, _ = load_case_document(path)
    return case


def _check_scenario_fields(data: dict, path: str, problems: list[str]) -> None:
    for key in data:
        if key not in SCENARIO_KEYS:
            problems.append(f"{path}.{key}: unknown scenario field")
    for key in ("enable_storage", "enable_allocation"):
        if key in data and not isinstance(data[key], bool):
            problems.append(f"{path}.{key}: expected true/false")
    if data.get("horizon") is not None:
        _int(data, "horizon", path, problems)


def load_scenario(path) -> ScenarioConfig:
    doc = _read_yaml(Path(path))
    problems: list[str] = []
    _check_scenario_fields(doc, "scenario", problems)
    if problems:
        raise CaseSchemaError(problems)
    return ScenarioConfig(**doc)


def build_scenario(defaults: dict, overlay: dict | None = None) -> ScenarioConfig:
    merged = dict(defaults)
    merged.update(overlay or {})
    problems: list[str] = []
    _check_scenario_fields(merged, "scenario", problems)
    if problems:
        raise CaseSchemaError(problems)
    return ScenarioConfig(**merged)


# ----------------------------------------------------------- serialization


def _curve_doc(curve: PiecewiseLinearCurve) -> dict:
    return {
        "segments": [[float(s), float(b)] for s, b in curve.segments],
        "domain": [float(curve.domain[0]), float(curve.domain[1])],
    }


def write_case(case: NetworkCase, path, scenario_defaults: dict | None = None) -> list[Path]:
    """Emit the YAML document and its CSV sidecars; returns the paths written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    loads_name = f"{path.stem}_loads.csv"
    doc = {
        "name": case.name,
        "units": dict(CANONICAL_UNITS),
        "market": {
            "tau": float(case.tau), "kappa": float(case.kappa),
            "epsilon": float(case.epsilon),
            "slack_bus": int(case.slack_bus),
            "loss_offset": float(case.loss_offset),
            "loss_direction_dependent": bool(case.loss_direction_dependent),
        },
        "buses": [{"id": int(b.id), "loss_sensitivity": float(b.loss_sensitivity)}
                  for b in case.buses],
        "branches": [
            {k: v for k, v in (
                ("from", int(br.from_bus)), ("to", int(br.to_bus)),
                ("capacity", float(br.capacity)),
                ("reactance", None if br.reactance is None else float(br.reactance)),
                ("ptdf_row", None if br.ptdf_row is None
                 else [float(x) for x in br.ptdf_row]),
                ("name", br.name),
            ) if v is not None and v != ""}
            for br in case.branches
        ],
        "generators": [
            {
                "name": g.name, "bus": int(g.bus),
                "p_min": float(g.p_min), "p_max": float(g.p_max),
                **({"renewable": True} if g.is_renewable else {}),
                "fuel_curve": _curve_doc(g.fuel_curve),
                "emission_curve": _curve_doc(g.emission_curve),
            }
            for g in case.generators
        ],
        "storages": [
            {
                "name": s.name, "bus": int(s.bus), "p_max": float(s.p_max),
                "eta_c": float(s.eta_c), "eta_d": float(s.eta_d),
                "e_min": float(s.e_min), "e_max": float(s.e_max),
                "e_init": float(s.e_init), "gamma_lo": float(s.gamma_lo),
                "gamma_hi": float(s.gamma_hi), "n_segments": int(s.n_segments),
            }
            for s in case.storages
        ],
        "series": {"loads": loads_name},
    }
    written = []
    if case.renewable_series:
        renew_name = f"{path.stem}_renewables.csv"
        doc["series"]["renewables"] = renew_name
        renew_path = path.parent / renew_name
        names = sorted(case.renewable_series)
        with renew_path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"plant_{n}" for n in names])
            for t in range(case.horizon):
                writer.writerow([repr(float(case.renewable_series[n][t]))
                                 for n in names])
        written.append(renew_path)
    if scenario_defaults:
        doc["scenario"] = dict(scenario_defaults)
    loads_path = path.parent / loads_name
    with loads_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"bus_{b.id}" for b in case.buses])
        for t in range(case.horizon):
            writer.writerow([repr(float(x)) for x in case.load_series[t]])
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
    return repr(float(value))


def period_rows(report: SimulationReport, case: NetworkCase):
    """periods.csv payload: one row per period per agent, plus a system row."""
    tau = report.tau
    bus_index = case.bus_index
    gen_by_name = {g.name: g for g in case.generators}
    sto_bus = {s.name: s.bus for s in case.storages}
    for rec in report.records:
        yield [rec.t, "system", "system", "", rec.renewable_dispatched,
               "", rec.lambda_bar, "", rec.congestion_rent, rec.emission_pot,
               rec.emission * tau, rec.fuel_cost * tau,
               rec.renewable_available, rec.settlement_residual]
        for name, gen in gen_by_name.items():
            p = rec.dispatch.get(name, 0.0)
            pos = bus_index[gen.bus]
            yield [rec.t, name, "generator", gen.bus, p, "",
                   rec.lmp[pos], rec.psi[pos], rec.lmp[pos] * p * tau, "",
                   rec.sigma.get(name, 0.0) * tau, gen.fuel_curve.value(p) * tau,
                   case.renewable_bound(gen, rec.t), ""]
        for name, row in rec.storage.items():
            pos = bus_index[sto_bus[name]]
            emission_usd = 1000.0 * rec.psi[pos] * row.p * tau
            yield [rec.t, name, "storage", sto_bus[name], row.p, row.e,
                   rec.lmp[pos], rec.psi[pos], rec.lmp[pos] * row.p * tau,
                   emission_usd, row.emission_kg, "", "", ""]
        demand = case.demand(rec.t)
        for b, bus in enumerate(case.buses):
            d = float(demand[b])
            emission_usd = -1000.0 * rec.psi[b] * d * tau
            kg = -emission_usd / case.kappa if case.kappa > 0 else ""
            yield [rec.t, f"load_{bus.id}", "load", bus.id, d, "",
                   rec.lmp[b], rec.psi[b], -rec.lmp[b] * d * tau,
                   emission_usd, kg, "", "", ""]


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
    demand = clearing.bids.demand
    for b, bus in enumerate(case.buses):
        load_cost = allocation.psi[b] * demand[b] * case.tau * 1000.0
        print(f"psi bus={bus.id} usd_per_kwh={allocation.psi[b]:.10f} "
              f"load_cost_usd={load_cost:.6f}")
    for name, row in sorted(record.storage.items()):
        print(f"storage_cost agent={name} usd={row.emission_charge:.6f}")
    for k, (y, basis) in enumerate(allocation.breakpoints):
        print(f"trace index={k} y={y:.10f} basis_size={len(basis)}")
    print(f"iterations={allocation.iterations} "
          f"start_used={str(allocation.start_point is not None).lower()} "
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


SCENARIO_GRID = (
    ("proposed", dict(enable_storage=True, enable_allocation=True)),
    ("a1", dict(enable_storage=True, enable_allocation=False)),
    ("a2", dict(enable_storage=False, enable_allocation=True)),
    ("a3", dict(enable_storage=False, enable_allocation=False)),
)


def _cmd_compare(args) -> int:
    case, defaults = load_case_document(args.case)
    base = _merged_scenario(args, defaults)
    reports: dict[str, SimulationReport] = {}
    matrix_rows = []
    for name, toggles in SCENARIO_GRID:
        scenario = dataclasses.replace(base, name=name, **toggles)
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
    except (MarketInfeasibleError, InfeasibleAtOriginError) as exc:
        return _fail(EXIT_INFEASIBLE, "infeasible", exc)
    except SimulationAbort as exc:
        cause = exc.__cause__
        if isinstance(cause, (MarketInfeasibleError, InfeasibleAtOriginError)):
            return _fail(EXIT_INFEASIBLE, "infeasible", exc)
        return _fail(EXIT_NUMERIC, "numeric", exc)
    except (SimplexNumericalError, NonProgressError, SettlementImbalanceError,
            CefSingularError, np.linalg.LinAlgError) as exc:
        return _fail(EXIT_NUMERIC, "numeric", exc)
