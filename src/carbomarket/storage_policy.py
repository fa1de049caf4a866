"""Storage self-scheduling and bidding.

A storage unit tracks a shifted state-of-charge queue q = e - E_s and, each
period, either acts on the combined energy-plus-emission price directly or
submits a convex bid curve whose market outcome reproduces that action.  The
per-period decision minimizes the exact quadratic drift-plus-penalty, so the
closed form is the argmin of one charge and one discharge parabola.

Internally energies are MWh, powers MW, prices $/kWh, horizons hours.  The
market-facing bid curve is scaled to $/h versus MW (factor 1000).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .network_model import PiecewiseLinearCurve, StorageUnit, curve_from_points, zero_curve

SOC_TOL = 1e-7
# b2 baseline: charge fully below the first price, discharge fully above the
# second, $/kWh
B2_THRESHOLDS = (0.02, 0.05)


class PolicyAssumptionError(ValueError):
    pass


class SocViolationError(RuntimeError):
    pass


@dataclass(frozen=True)
class PolicyParams:
    e_s: float  # queue offset, MWh
    v_s: float  # penalty weight, MWh per ($/kWh)
    gamma_lo: float  # $/kWh
    gamma_hi: float  # $/kWh


@dataclass
class StorageState:
    e: float  # MWh stored
    q: float  # MWh, e - E_s
    psi_prev: float = 0.0  # $/kWh emission price seen last period


def choose_parameters(unit: StorageUnit) -> PolicyParams:
    """Largest penalty weight that still keeps the SoC range invariant."""
    lo, hi = unit.gamma_lo, unit.gamma_hi
    product = hi * unit.eta_c * unit.eta_d
    if lo < 0 or lo >= product:
        raise PolicyAssumptionError(
            f"price range [{lo}, {hi}] violates 0 <= lo < hi*eta_c*eta_d = {product:.6g}"
        )
    denom = product - lo
    e_s = (product * unit.e_max - lo * unit.e_min) / denom
    v_s = unit.eta_c * (unit.e_max - unit.e_min) / denom
    if not v_s > 0:
        raise PolicyAssumptionError(f"nonpositive penalty weight {v_s}")
    # e_s sits on both edges of its feasible window: e_s - e_min and
    # v_s hi eta_d both equal P (e_max - e_min) / (P - lo), P = hi eta_c eta_d,
    # and e_max + v_s lo / eta_c equals e_s
    return PolicyParams(e_s=e_s, v_s=v_s, gamma_lo=lo, gamma_hi=hi)


def scaled_parameters(unit: StorageUnit, multiplier: float) -> PolicyParams:
    """Tuning with the penalty weight scaled below its maximum.

    ``choose_parameters`` pins the queue offset at the single point its
    feasibility window allows under the maximal weight; a smaller weight
    widens that window on the left and shrinks it on the right, so the
    offset is re-clamped to keep the SoC-range invariant intact.
    """
    if not 0 < multiplier <= 1:
        raise PolicyAssumptionError(f"weight multiplier {multiplier} outside (0, 1]")
    base = choose_parameters(unit)
    v_s = multiplier * base.v_s
    lo_edge = unit.e_min + v_s * base.gamma_hi * unit.eta_d
    hi_edge = unit.e_max + v_s * base.gamma_lo / unit.eta_c
    e_s = float(np.clip(base.e_s, lo_edge, hi_edge))
    return replace(base, v_s=v_s, e_s=e_s)


def initial_state(unit: StorageUnit, params: PolicyParams) -> StorageState:
    return StorageState(e=unit.e_init, q=unit.e_init - params.e_s)


def optimal_power(q: float, gamma: float, params: PolicyParams, unit: StorageUnit,
                  tau: float) -> float:
    """Exact minimizer of the drift-plus-penalty; negative means charging.

    When the charge and discharge parabolas tie below zero the discharge arm
    wins; when neither is profitable the unit idles.
    """
    v, ec, ed, pmax = params.v_s, unit.eta_c, unit.eta_d, unit.p_max
    q = float(q)
    gamma = float(gamma)
    p_c = -(ec * q + v * gamma) / (tau * ec * ec)
    p_c = 0.0 if p_c < 0.0 else (pmax if p_c > pmax else p_c)
    val_c = (p_c * tau * ec) ** 2 / 2 + p_c * tau * ec * q + v * gamma * p_c * tau
    p_d = (q * ed + v * gamma * ed * ed) / tau
    p_d = 0.0 if p_d < 0.0 else (pmax if p_d > pmax else p_d)
    val_d = (p_d * tau / ed) ** 2 / 2 - p_d * tau * q / ed - v * gamma * p_d * tau
    return -p_c if val_c < val_d else p_d


def power_bounds(
    q: float, params: PolicyParams, unit: StorageUnit, tau: float
) -> tuple[float, float]:
    """Net-power range the unit is willing to trade at the price extremes."""
    lo = min(optimal_power(q, params.gamma_lo, params, unit, tau), 0.0)
    hi = max(optimal_power(q, params.gamma_hi, params, unit, tau), 0.0)
    return lo, hi


def _policy_cost(p, q, params: PolicyParams, unit: StorageUnit, tau: float):
    """Integral of the inverse policy, $/kWh times MW; zero at p = 0."""
    v, ec, ed = params.v_s, unit.eta_c, unit.eta_d
    p = np.asarray(p, dtype=float)
    charge = p * ec * (p * tau * ec - 2 * q) / (2 * v)
    discharge = p * (p * tau - 2 * q * ed) / (2 * v * ed * ed)
    return np.where(p <= 0, charge, discharge)


def bid_curve(
    q: float,
    psi_prev: float,
    params: PolicyParams,
    unit: StorageUnit,
    tau: float,
) -> PiecewiseLinearCurve:
    """Sampled convex bid in market units ($/h versus MW), zero at rest, on
    the net-power range ``power_bounds`` gives: its domain is the offer."""
    n = unit.n_segments
    if n < 2:
        raise ValueError(f"need at least 2 sample points, got {n}")
    lo, hi = power_bounds(q, params, unit, tau)
    if hi - lo <= 1e-12:
        return zero_curve(lo, hi)
    # uniform sampling per side of the kink at rest, never coarser than the
    # single-interval step, so cleared dispatch stays within one step of the
    # exact policy
    step = (hi - lo) / (n - 1)
    n_neg = int(np.ceil(-lo / step - 1e-9)) if lo < 0 else 0
    n_pos = int(np.ceil(hi / step - 1e-9)) if hi > 0 else 0
    pts = np.unique(np.concatenate([
        np.linspace(lo, 0.0, n_neg + 1),
        np.linspace(0.0, hi, n_pos + 1),
    ]))
    vals = 1000.0 * (_policy_cost(pts, q, params, unit, tau) - psi_prev * pts)
    return curve_from_points(list(zip(pts.tolist(), vals.tolist())))


def update_state(state: StorageState, p: float, tau: float, unit: StorageUnit) -> StorageState:
    """Apply a cleared net power; positive discharges, negative charges."""
    if p >= 0:
        delta = -p * tau / unit.eta_d
    else:
        delta = -p * tau * unit.eta_c
    e = state.e + delta
    if e < unit.e_min - SOC_TOL or e > unit.e_max + SOC_TOL:
        raise SocViolationError(
            f"stored energy {e:.6g} MWh leaves [{unit.e_min}, {unit.e_max}] "
            f"after net power {p:.6g} MW"
        )
    return replace(state, e=e, q=state.q + delta)


def feasible_power_range(e: float, unit: StorageUnit, tau: float) -> tuple[float, float]:
    """Net powers that keep the stored energy within bounds for one period."""
    lo = max(-unit.p_max, -(unit.e_max - e) / (tau * unit.eta_c))
    hi = min(unit.p_max, (e - unit.e_min) * unit.eta_d / tau)
    return min(lo, 0.0), max(hi, 0.0)


@dataclass
class OfflineSchedule:
    revenue: float  # $
    power: np.ndarray  # net MW per period
    soc: np.ndarray  # MWh after each period
    complementarity_violations: list[int]


def offline_optimal(prices, unit: StorageUnit, tau: float) -> OfflineSchedule:
    """Hindsight revenue bound: the storage LP over the whole price path.

    Simultaneous charge and discharge is dropped from the model; with
    positive prices the efficiency loss makes it suboptimal anyway, and any
    residual violations are reported rather than raised.
    """
    # imported here, not at module level: only this baseline needs them, and
    # scipy.optimize is the heaviest import the package would otherwise have
    from scipy import sparse
    from scipy.optimize import linprog

    gamma = np.asarray(prices, dtype=float)
    t_len = gamma.size
    if t_len == 0:
        raise ValueError("empty price path")
    # columns: p_c (t_len), p_d (t_len), e (t_len)
    cost = np.concatenate([gamma * tau, -gamma * tau, np.zeros(t_len)])
    rows, cols, vals = [], [], []
    rhs = np.zeros(t_len)
    for t in range(t_len):
        rows += [t, t, t]
        cols += [2 * t_len + t, t, t_len + t]
        vals += [1.0, -tau * unit.eta_c, tau / unit.eta_d]
        if t == 0:
            rhs[t] = unit.e_init
        else:
            rows.append(t)
            cols.append(2 * t_len + t - 1)
            vals.append(-1.0)
    a_eq = sparse.coo_matrix((vals, (rows, cols)), shape=(t_len, 3 * t_len))
    bounds = (
        [(0.0, unit.p_max)] * t_len
        + [(0.0, unit.p_max)] * t_len
        + [(unit.e_min, unit.e_max)] * t_len
    )
    res = linprog(cost, A_eq=a_eq.tocsr(), b_eq=rhs, bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"hindsight storage program failed: {res.message}")
    p_c = res.x[:t_len]
    p_d = res.x[t_len:2 * t_len]
    soc = res.x[2 * t_len:]
    violations = [t for t in range(t_len) if p_c[t] > 1e-6 and p_d[t] > 1e-6]
    power = p_d - p_c
    revenue = 1000.0 * float(gamma @ power) * tau
    return OfflineSchedule(revenue=revenue, power=power, soc=soc,
                           complementarity_violations=violations)


def b1_parameters(unit: StorageUnit, tau: float) -> PolicyParams:
    """Tuning for the linear-surrogate policy; needs headroom for full swings."""
    lo, hi = unit.gamma_lo, unit.gamma_hi
    num = unit.e_max - unit.e_min - unit.p_max * tau * unit.eta_c - unit.p_max * tau / unit.eta_d
    den = hi * unit.eta_d - lo / unit.eta_c
    if den <= 0 or num <= 0:
        raise PolicyAssumptionError(
            f"surrogate tuning undefined: numerator {num:.6g}, denominator {den:.6g}"
        )
    v_s = num / den
    e_s = unit.e_max + v_s * lo / unit.eta_c - unit.p_max * tau * unit.eta_c
    return PolicyParams(e_s=e_s, v_s=v_s, gamma_lo=lo, gamma_hi=hi)


def b1_power(q: float, gamma: float, params: PolicyParams, unit: StorageUnit, tau: float) -> float:
    """Bang-bang minimizer of the linearized drift plus penalty."""
    coef_c = tau * unit.eta_c * q + params.v_s * gamma * tau  # per MW charged
    coef_d = -tau * q / unit.eta_d - params.v_s * gamma * tau  # per MW discharged
    best, value = 0.0, 0.0
    if coef_c * unit.p_max < value:
        best, value = -unit.p_max, coef_c * unit.p_max
    if coef_d * unit.p_max < value:
        best = unit.p_max
    return best


def b2_power(gamma: float, state: StorageState, unit: StorageUnit, tau: float) -> float:
    """Threshold rule: full feasible charge below ``B2_THRESHOLDS[0]``,
    full feasible discharge above ``B2_THRESHOLDS[1]``."""
    lo_p, hi_p = feasible_power_range(state.e, unit, tau)
    if gamma < B2_THRESHOLDS[0]:
        return lo_p
    if gamma > B2_THRESHOLDS[1]:
        return hi_p
    return 0.0
