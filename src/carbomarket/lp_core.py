"""Dense two-phase bounded-variable revised simplex with basis, duals, and
parametric intervals.

Solves ``min c.x  s.t.  A x = b, 0 <= x <= u`` where every column's upper
bound ``u`` is finite. The bounds are handled implicitly (Dantzig 1955,
"Upper bounds, secondary constraints and block triangularity"; Chvatal 1983,
*Linear Programming*, ch. 8): a nonbasic column sits at either bound, and a
step that only moves a column from one bound to the other is a bound flip,
which changes no basis and needs no factorization. The optimal basis index
set, the set of nonbasic columns at their upper bound, the dual vector and
the basis inverse are first-class outputs because the emission-price sweep
and the locational-price extraction are built on them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum

import numpy as np

FEASIBILITY_TOL = 1e-9
OPTIMALITY_TOL = 1e-9
PIVOT_TOL = 1e-10
# pivots below this on a stale eta-updated inverse may be roundoff ghosts
RISKY_PIVOT_TOL = 1e-7
REFACTOR_PERIOD = 64
# at DEBUG: each solve's header and one line per pivot and bound flip
logger = logging.getLogger("carbomarket.lp_core")


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"


class SimplexNumericalError(RuntimeError):
    """Basis factorization failed, or pivoting stalled beyond recovery."""


class EmptyIntervalError(RuntimeError):
    """No parameter value keeps the basis feasible: inconsistent basis."""


@dataclass(frozen=True)
class LpProblem:
    """Bounded LP: minimize cost.x subject to A x = rhs, 0 <= x <= upper.

    Inequalities must be converted to equalities with explicit slack
    columns before construction; a ranged row gets one slack bounded by the
    width of its range. Every upper bound must be finite.
    """

    cost: np.ndarray
    constraint_matrix: np.ndarray
    rhs: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        c = np.ascontiguousarray(np.asarray(self.cost, dtype=float).ravel())
        a = np.ascontiguousarray(np.atleast_2d(np.asarray(self.constraint_matrix, dtype=float)))
        b = np.ascontiguousarray(np.asarray(self.rhs, dtype=float).ravel())
        if a.shape != (b.size, c.size):
            raise ValueError(
                f"matrix shape {a.shape} inconsistent with {b.size} rhs entries "
                f"and {c.size} cost entries"
            )
        if not (np.isfinite(c).all() and np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("LP data must be finite")
        u = np.ascontiguousarray(np.asarray(self.upper, dtype=float).ravel())
        if u.size != c.size:
            raise ValueError(f"{u.size} upper bounds for {c.size} columns")
        if not ((u >= 0.0) & (u < np.inf)).all():  # also rejects NaN
            raise ValueError("upper bounds must be finite and nonnegative")
        object.__setattr__(self, "cost", c)
        object.__setattr__(self, "constraint_matrix", a)
        object.__setattr__(self, "rhs", b)
        object.__setattr__(self, "upper", u)

    def with_rhs(self, rhs) -> LpProblem:
        """This problem with ``rhs`` in place of its own; only ``rhs`` is
        checked, since the other arrays were checked when this one was built."""
        b = np.ascontiguousarray(np.asarray(rhs, dtype=float).ravel())
        if b.size != self.rhs.size:
            raise ValueError(f"{b.size} rhs entries for {self.rhs.size} rows")
        if not np.isfinite(b).all():
            raise ValueError("LP data must be finite")
        derived = object.__new__(LpProblem)
        derived.__dict__.update(self.__dict__, rhs=b)
        return derived

    @property
    def variable_count(self) -> int:
        return self.cost.size

    @property
    def constraint_count(self) -> int:
        return self.rhs.size


@dataclass
class LpSolution:
    status: LpStatus
    primal: np.ndarray | None = None
    basis: np.ndarray | None = None
    duals: np.ndarray | None = None
    objective: float = np.nan
    # basis changes; bound flips are counted apart in bound_flips
    iterations: int = 0
    degenerate: bool = False
    # When infeasible: per row (original order), the row activity minus its
    # rhs at the least infeasible point phase 1 found; 0 on satisfied rows.
    row_violations: np.ndarray | None = None
    # How the solve started: "cold", "warm" (it finished from the given
    # basis), or why a warm start fell back to a cold solve: "size",
    # "singular" or "infeasible".
    outcome: str = "cold"
    # nonbasic columns at their upper bound, ascending
    at_upper: np.ndarray | None = None
    bound_flips: int = 0
    # (basis size) x (rows): the engine's final inverse of the basis over the
    # rows kept after redundant-equality elimination, zero in the columns of
    # dropped rows, so it maps any rhs to x_B
    basis_inverse: np.ndarray | None = None

    @property
    def warm_started(self) -> bool:
        return self.outcome == "warm"


def _inverts(binv: np.ndarray, bmat: np.ndarray) -> bool:
    """Whether ``binv`` is an inverse of the square ``bmat`` to within
    FEASIBILITY_TOL in every entry of ``binv @ bmat - I``; False on NaN."""
    if binv.shape != bmat.shape:
        return False
    with np.errstate(all="ignore"):  # a non-finite product fails the test below
        gap = binv @ bmat
        gap.flat[:: len(bmat) + 1] -= 1.0
        return bool(np.abs(gap).max() <= FEASIBILITY_TOL)


def lu_factor(bmat: np.ndarray) -> np.ndarray:
    """The explicit inverse of the basis matrix ``bmat`` (LAPACK's LU through
    ``np.linalg.inv``); SimplexNumericalError when it fails ``_inverts``."""
    try:
        binv = np.linalg.inv(bmat)
    except np.linalg.LinAlgError:
        binv = None
    if binv is None or not _inverts(binv, bmat):
        raise SimplexNumericalError("singular basis matrix")
    return binv


class _Engine:
    """Bounded revised simplex over an explicit basis inverse with eta updates.

    Every nonbasic column sits at its lower bound 0 or, when ``at_upper``
    marks it, at its finite upper bound. ``paranoid`` trades speed for
    numerical safety: Bland's rule from the first pivot and a fresh
    factorization after every basis change. It is the retry discipline after
    a singular-basis failure.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, upper: np.ndarray, basis: np.ndarray,
                 at_upper: np.ndarray | None = None, paranoid: bool = False):
        self.a = a
        self.b = b
        self.upper = upper
        self.m, self.n = a.shape
        self.basis = np.asarray(basis, dtype=int).copy()
        self.at_upper = np.zeros(self.n, dtype=bool)
        if at_upper is not None:
            self.at_upper[at_upper] = True
        self.binv: np.ndarray | None = None
        # x_B at the last optimality check; _finish reads it
        self.xb: np.ndarray | None = None
        self.pivots = 0
        self.flips = 0
        self.since_refactor = 0
        self.paranoid = paranoid
        self.debug = logger.isEnabledFor(logging.DEBUG)

    @property
    def steps(self) -> int:
        return self.pivots + self.flips

    def drop_columns_from(self, n: int) -> None:
        """Forget columns n and beyond (nonbasic phase-1 artificials)."""
        self.a = self.a[:, :n]
        self.upper = self.upper[:n]
        self.at_upper = self.at_upper[:n]
        self.n = n

    def refactor(self) -> None:
        self.binv = lu_factor(self.a[:, self.basis])
        self.since_refactor = 0

    def _pivot(self, enter: int, leave_pos: int, direction: np.ndarray,
               leave_at_upper: bool = False) -> None:
        pivval = direction[leave_pos]
        row = self.binv[leave_pos] / pivval
        rest = direction.copy()
        rest[leave_pos] = 0.0
        self.binv -= np.outer(rest, row)
        self.binv[leave_pos] = row
        self.at_upper[self.basis[leave_pos]] = leave_at_upper
        self.at_upper[enter] = False
        self.basis[leave_pos] = enter
        self.pivots += 1
        self.since_refactor += 1
        if self.paranoid or self.since_refactor >= REFACTOR_PERIOD:
            self.refactor()

    def _log(self, phase: str, enter: int, leave: int, step: float,
             cost: np.ndarray, xb: np.ndarray) -> None:
        if self.debug:
            logger.debug("%s pivot=%d enter=%d leave=%d step=%.6g obj=%.12g", phase,
                         self.pivots, enter, leave, step, float(cost[self.basis] @ xb))

    def basic_solution(self) -> np.ndarray:
        if self.at_upper.any():
            return self.binv @ (self.b - self.a[:, self.at_upper] @ self.upper[self.at_upper])
        return self.binv @ self.b

    def duals_for(self, cost: np.ndarray) -> np.ndarray:
        return self.binv.T @ cost[self.basis]

    def reduced_costs(self, cost: np.ndarray) -> np.ndarray:
        reduced = cost - self.a.T @ self.duals_for(cost)
        reduced[self.basis] = 0.0
        return reduced

    def run_primal(self, cost: np.ndarray, budget: int, phase: str) -> None:
        """Primal simplex to optimality; every column is boxed, so no ray is
        unbounded."""
        degen_run = 0
        bland = self.paranoid
        reduced = None  # a bound flip changes neither the basis nor the duals
        while self.steps < budget:
            xb = self.basic_solution()
            if reduced is None:
                reduced = self.reduced_costs(cost)
            # a column at its lower bound improves by rising, one at its
            # upper bound by falling; gain > 0 marks either
            gain = np.where(self.at_upper, reduced, -reduced)
            if bland:
                eligible = np.flatnonzero(gain > OPTIMALITY_TOL)
                if eligible.size == 0:
                    self.xb = xb
                    return
                enter = int(eligible[0])
            else:
                enter = int(np.argmax(gain))
                if gain[enter] <= OPTIMALITY_TOL:
                    self.xb = xb
                    return
            direction = self.binv @ self.a[:, enter]
            # x_B falls by step * move as the entering column moves off its bound
            move = -direction if self.at_upper[enter] else direction
            ub = self.upper[self.basis]
            ratios = np.full(self.m, np.inf)
            falls = move > PIVOT_TOL
            ratios[falls] = np.maximum(xb[falls], 0.0) / move[falls]
            rises = move < -PIVOT_TOL
            ratios[rises] = np.maximum(ub[rises] - xb[rises], 0.0) / -move[rises]
            step = float(ratios.min(initial=np.inf))
            flip = float(self.upper[enter])
            if flip <= step:
                # the entering column reaches its other bound first
                self._log(phase + "-flip", enter, -1, flip, cost, xb)
                self.at_upper[enter] = not self.at_upper[enter]
                self.flips += 1
                if flip > FEASIBILITY_TOL:
                    degen_run = 0
                    bland = self.paranoid
                continue
            tied = np.flatnonzero(ratios <= step + 1e-12)
            if bland:
                leave_pos = int(tied[np.argmin(self.basis[tied])])
            else:
                leave_pos = int(tied[np.argmax(np.abs(move[tied]))])
            if abs(direction[leave_pos]) < RISKY_PIVOT_TOL and self.since_refactor > 0:
                # a pivot this small on a stale inverse may be pure roundoff;
                # recompute the iteration from a fresh factorization instead
                self.refactor()
                reduced = None
                continue
            if step <= FEASIBILITY_TOL:
                degen_run += 1
                if degen_run > 3 * self.m:
                    bland = True
            else:
                degen_run = 0
                bland = self.paranoid
            self._log(phase, enter, int(self.basis[leave_pos]), step, cost, xb)
            self._pivot(enter, leave_pos, direction, leave_at_upper=bool(move[leave_pos] < 0.0))
            reduced = None
        raise SimplexNumericalError("pivot budget exhausted in primal simplex")

    def run_dual(self, cost: np.ndarray, budget: int) -> LpStatus:
        """Dual simplex from a dual-feasible basis (used on rhs perturbations)."""
        degen_run = 0
        bland = self.paranoid
        movable = self.upper > 0.0  # a fixed column never enters
        while self.steps < budget:
            xb = self.basic_solution()
            below = -xb
            above = xb - self.upper[self.basis]
            infeas = np.maximum(below, above)
            worst = int(np.argmax(infeas))
            if infeas[worst] <= FEASIBILITY_TOL:
                self.xb = xb
                return LpStatus.OPTIMAL
            if bland:
                candidates_rows = np.flatnonzero(infeas > FEASIBILITY_TOL)
                worst = int(candidates_rows[np.argmin(self.basis[candidates_rows])])
            leave_at_upper = bool(above[worst] > below[worst])
            # the leaving column must fall to its upper bound or rise to 0;
            # alpha > 0 marks nonbasic columns whose move off their bound does that
            tableau_row = self.binv[worst] @ self.a
            side = np.where(self.at_upper, -1.0, 1.0)
            alpha = tableau_row * side if leave_at_upper else -tableau_row * side
            reduced = self.reduced_costs(cost)
            eligible = movable & (alpha > PIVOT_TOL)
            eligible[self.basis] = False
            if not eligible.any():
                return LpStatus.INFEASIBLE
            idx = np.flatnonzero(eligible)
            ratios = np.maximum(side[idx] * reduced[idx], 0.0) / alpha[idx]
            best = float(ratios.min())
            tied = idx[ratios <= best + 1e-12]
            enter = int(tied.min()) if bland else int(tied[np.argmax(alpha[tied])])
            if best <= OPTIMALITY_TOL:
                degen_run += 1
                if degen_run > 3 * self.m:
                    bland = True
            else:
                degen_run = 0
                bland = self.paranoid
            direction = self.binv @ self.a[:, enter]
            if abs(direction[worst]) < RISKY_PIVOT_TOL and self.since_refactor > 0:
                self.refactor()
                continue
            self._log("dual", enter, int(self.basis[worst]), best, cost, xb)
            self._pivot(enter, worst, direction, leave_at_upper=leave_at_upper)
        raise SimplexNumericalError("pivot budget exhausted in dual simplex")


def _pivot_budget(m: int, n: int) -> int:
    return max(1000, 200 * (m + n))


def _drive_out_artificials(engine: _Engine, n_real: int) -> np.ndarray:
    """Pivot zero-valued artificials out of the basis; return the mask of
    basis positions that keep a real column.

    An artificial that cannot be exchanged for any real column marks its
    row as linearly dependent on the others; that row gets dropped.
    """
    keep = np.ones(engine.m, dtype=bool)
    for pos in range(engine.m):
        if engine.basis[pos] < n_real:
            continue
        tableau_row = engine.binv[pos] @ engine.a[:, :n_real]
        in_basis = np.zeros(n_real, dtype=bool)
        in_basis[engine.basis[engine.basis < n_real]] = True
        tableau_row[in_basis] = 0.0
        enter = int(np.argmax(np.abs(tableau_row)))
        if abs(tableau_row[enter]) > 1e-7:
            direction = engine.binv @ engine.a[:, enter]
            engine._pivot(enter, pos, direction)
        else:
            keep[pos] = False
    return keep


def _row_slacks(a: np.ndarray, b: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Per row, a column that is nonzero in that row alone and, with every
    other column at 0, takes a value within its bounds; -1 where none does."""
    nonzero = a != 0.0
    single = np.flatnonzero(nonzero.sum(axis=0) == 1)
    rows = np.argmax(nonzero[:, single], axis=0)
    value = b[rows] / a[rows, single]
    fits = (value >= 0.0) & (value <= upper[single])
    slack = np.full(a.shape[0], -1)
    slack[rows[fits]] = single[fits]
    return slack


def solve(problem: LpProblem) -> LpSolution:
    """Two-phase bounded revised simplex; returns basis, duals, and diagnostics."""
    try:
        return _solve_attempt(problem, paranoid=False)
    except SimplexNumericalError:
        # eta-update drift can strand the fast path on a singular basis;
        # one slow, exactly-refactored retry settles whether the problem
        # itself or the arithmetic was at fault
        return _solve_attempt(problem, paranoid=True)


def _solve_attempt(problem: LpProblem, paranoid: bool) -> LpSolution:
    """Phase 1 starts every column at 0, makes a row's slack basic wherever
    the slack then lies within its bounds, and puts an artificial, signed to
    be nonnegative, on each other row. The artificials start at |rhs| and
    phase 1 never raises their sum S, so their bound 2S + 1 is out of reach:
    an artificial that met its bound would leave the basis nonzero."""
    a = problem.constraint_matrix
    b = problem.rhs
    c = problem.cost
    upper = problem.upper
    m, n = a.shape

    basis = _row_slacks(a, b, upper)
    art_rows = np.flatnonzero(basis < 0)
    n_art = art_rows.size
    art_sign = np.where(b[art_rows] < 0.0, -1.0, 1.0)
    art = np.zeros((m, n_art))
    art[art_rows, np.arange(n_art)] = art_sign
    a1 = np.hstack([a, art]) if n_art else a
    basis[art_rows] = n + np.arange(n_art)
    art_upper = np.full(n_art, 2.0 * np.abs(b[art_rows]).sum() + 1.0)
    engine = _Engine(a1, b, np.concatenate([upper, art_upper]), basis, paranoid=paranoid)
    engine.binv = np.diag(1.0 / a1[np.arange(m), basis])
    budget = _pivot_budget(m, n + n_art)
    logger.debug("solve m=%d n=%d paranoid=%d", m, n, int(paranoid))
    kept_rows = None
    if n_art:
        cost1 = np.zeros(n + n_art)
        cost1[n:] = 1.0
        engine.run_primal(cost1, budget, "phase1")
        xb1 = engine.basic_solution()
        infeas = float(cost1[engine.basis] @ xb1)
        if infeas > FEASIBILITY_TOL * max(1.0, float(np.abs(b).sum())):
            violations = np.zeros(m)
            for pos, col in enumerate(engine.basis):
                if col >= n:
                    # A x + sign * artificial = b
                    violations[art_rows[col - n]] = -art_sign[col - n] * max(0.0, float(xb1[pos]))
            return LpSolution(
                status=LpStatus.INFEASIBLE,
                iterations=engine.pivots,
                bound_flips=engine.flips,
                row_violations=violations,
                objective=np.nan,
            )

        keep = _drive_out_artificials(engine, n)
        if keep.all():
            engine.drop_columns_from(n)
        else:
            row_kept = np.ones(m, dtype=bool)
            row_kept[art_rows[engine.basis[~keep] - n]] = False
            kept_rows = np.flatnonzero(row_kept)
            reduced = _Engine(a[row_kept], b[row_kept], upper, engine.basis[keep],
                              at_upper=engine.at_upper[:n], paranoid=paranoid)
            reduced.pivots, reduced.flips = engine.pivots, engine.flips
            engine = reduced
            engine.refactor()

    engine.run_primal(c, budget + engine.steps, "phase2")
    return _finish(problem, engine, kept_rows)


def _finish(
    problem: LpProblem,
    engine: _Engine,
    kept_rows: np.ndarray | None,
    outcome: str = "cold",
) -> LpSolution:
    c = problem.cost
    upper = problem.upper
    xb = engine.xb
    ub = upper[engine.basis]
    primal = np.where(engine.at_upper, upper, 0.0)
    primal[engine.basis] = np.clip(xb, 0.0, ub)
    binv = engine.binv
    if kept_rows is not None:
        binv = np.zeros((engine.m, problem.constraint_count))
        binv[:, kept_rows] = engine.binv
    return LpSolution(
        status=LpStatus.OPTIMAL,
        primal=primal,
        basis=engine.basis.copy(),
        duals=binv.T @ c[engine.basis],
        objective=float(c @ primal),
        iterations=engine.pivots,
        bound_flips=engine.flips,
        degenerate=bool(((np.abs(xb) <= FEASIBILITY_TOL)
                         | (np.abs(xb - ub) <= FEASIBILITY_TOL)).any()),
        outcome=outcome,
        at_upper=np.flatnonzero(engine.at_upper),
        basis_inverse=binv,
    )


def solve_with_basis(problem: LpProblem, start_basis, at_upper=(),
                     basis_inverse=None) -> LpSolution:
    """Solve re-using a prior basis and the nonbasic columns that sat at
    their upper bounds; falls back to a cold solve when unusable.

    Every column is boxed, so moving each nonbasic column to the bound its
    reduced cost favours makes any basis dual feasible; the dual simplex
    then restores primal feasibility (Koberstein 2005, "The dual simplex
    method, techniques for a fast and stable implementation"). ``at_upper``
    only decides the columns whose reduced cost is within the optimality
    tolerance of zero; its basic entries are ignored.

    Only a basis of the wrong size, a singular basis or a numerical failure
    falls back to the cold path, and so does a problem the dual simplex
    proves infeasible, so that its row violations come from phase 1.
    ``outcome`` on the result says which of these happened.

    ``basis_inverse``, a prior solve's inverse of this basis (as when only
    the rhs moved), spares the factorization: a copy is adopted when it is
    m x m and ``max|basis_inverse @ A_B - I| <= FEASIBILITY_TOL``, and the
    basis is factored afresh otherwise. That check, not ``REFACTOR_PERIOD``,
    bounds the eta-update drift an inverse carries from call to call.
    """
    basis = np.asarray(start_basis, dtype=int).ravel()
    n = problem.variable_count
    if (basis.size != problem.constraint_count
            or basis.min(initial=0) < 0 or basis.max(initial=-1) >= n):
        return _fallback(solve(problem), "size")
    is_basic = np.zeros(n, dtype=bool)
    is_basic[basis] = True
    if np.count_nonzero(is_basic) != basis.size:  # a column listed twice
        return _fallback(solve(problem), "size")
    upper_set = np.zeros(n, dtype=bool)
    cols = np.asarray(at_upper, dtype=int).ravel()
    upper_set[cols[(cols >= 0) & (cols < n)]] = True
    upper_set &= ~is_basic
    try:
        sol = _warm_attempt(problem, basis, upper_set, basis_inverse)
        reason = "infeasible"
    except SimplexNumericalError:
        # warm start gone numerically bad; the cold path below retries
        # from the start and has its own paranoid second attempt
        sol = None
        reason = "singular"
    return sol if sol is not None else _fallback(solve(problem), reason)


def _fallback(sol: LpSolution, reason: str) -> LpSolution:
    sol.outcome = reason
    return sol


def _warm_attempt(problem: LpProblem, basis: np.ndarray, at_upper: np.ndarray,
                  basis_inverse: np.ndarray | None) -> LpSolution | None:
    """Finish from ``basis``; None when the dual simplex proves infeasibility."""
    engine = _Engine(problem.constraint_matrix, problem.rhs, problem.upper, basis,
                     at_upper=at_upper)
    logger.debug("warm m=%d n=%d", engine.m, engine.n)
    binv = None if basis_inverse is None else np.array(basis_inverse, dtype=float)
    if binv is not None and _inverts(binv, engine.a[:, basis]):
        engine.binv = binv  # a copy: _pivot updates it in place
    else:
        engine.refactor()
    reduced = engine.reduced_costs(problem.cost)
    flip = np.where(engine.at_upper, reduced > OPTIMALITY_TOL, reduced < -OPTIMALITY_TOL)
    engine.at_upper ^= flip
    engine.flips += int(flip.sum())
    if engine.run_dual(problem.cost, _pivot_budget(engine.m, engine.n)) is LpStatus.INFEASIBLE:
        return None
    return _finish(problem, engine, None, "warm")


def feasibility_interval(sol: LpSolution, a, g, h, ray, upper) -> tuple[float, float]:
    """Interval of y keeping ``sol``'s basis feasible for rhs = G (y ray) + H.

    The basic solution is affine in y: x_B(y) = y u + v with
    u = A_B^{-1} G ray and v = A_B^{-1} (H - A_U upper_U), where U holds the
    nonbasic columns at their upper bounds and A_B^{-1} is the solve's own
    ``basis_inverse``. Every component must stay within
    [-FEASIBILITY_TOL, upper_B + FEASIBILITY_TOL]. The result is the maximal
    closed interval, possibly unbounded on either side.
    """
    a = np.asarray(a, dtype=float)
    upper = np.asarray(upper, dtype=float)
    ub = upper[sol.basis]
    offset = np.asarray(h, dtype=float) - a[:, sol.at_upper] @ upper[sol.at_upper]
    u = sol.basis_inverse @ (np.asarray(g, dtype=float) @ np.asarray(ray, dtype=float))
    v = sol.basis_inverse @ offset
    rises, falls = u > 1e-11, u < -1e-11
    flat = ~(rises | falls)
    if ((v[flat] < -10 * FEASIBILITY_TOL) | (v[flat] > ub[flat] + 10 * FEASIBILITY_TOL)).any():
        raise EmptyIntervalError("basis infeasible for every parameter value")
    # y where each basic variable reaches its lower and its upper limit
    slope = np.where(flat, 1.0, u)
    to_floor = (-FEASIBILITY_TOL - v) / slope
    to_ceiling = (ub + FEASIBILITY_TOL - v) / slope
    lo = max(to_floor[rises].max(initial=-np.inf), to_ceiling[falls].max(initial=-np.inf))
    hi = min(to_ceiling[rises].min(initial=np.inf), to_floor[falls].min(initial=np.inf))
    if lo > hi:
        raise EmptyIntervalError("empty feasibility interval")
    return float(lo), float(hi)
