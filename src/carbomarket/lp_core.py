"""Dense bounded-variable dual simplex with basis, duals, and parametric
intervals.

Solves ``min c.x  s.t.  A x = b, 0 <= x <= u`` where every column's upper
bound ``u`` is finite. The bounds are handled implicitly (Dantzig 1955,
"Upper bounds, secondary constraints and block triangularity"; Chvatal 1983,
*Linear Programming*, ch. 8): a nonbasic column sits at either bound, and a
step that only moves a column from one bound to the other is a bound flip,
which changes no basis and needs no factorization. The optimal basis index
set, the set of nonbasic columns at their upper bound, the dual vector and
the basis inverse are first-class outputs because the emission-price sweep
and the locational-price extraction are built on them.

Every solve finishes from a start basis its caller supplies. Because every
column is boxed, moving each nonbasic column to the bound its reduced cost
favours makes any nonsingular basis dual feasible, and the dual simplex
finishes from there (Koberstein 2005, "The dual simplex method, techniques
for a fast and stable implementation"). Phase 1 (``solve``) runs only to
explain a problem the dual simplex has proved infeasible: it finds the least
infeasible point and each row's violation there.
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
    # When phase 1 explains an infeasible problem: per row, the row activity
    # minus its rhs at the least infeasible point; 0 on satisfied rows.
    row_violations: np.ndarray | None = None
    # nonbasic columns at their upper bound, ascending
    at_upper: np.ndarray | None = None
    bound_flips: int = 0
    # the engine's final inverse of the basis matrix, which maps any rhs to x_B
    basis_inverse: np.ndarray | None = None

    @property
    def warm_started(self) -> bool:
        return self.status is LpStatus.OPTIMAL


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

    def run_dual(self, cost: np.ndarray, budget: int) -> LpStatus:
        """Dual simplex from a dual-feasible basis."""
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


def solve_with_basis(problem: LpProblem, start_basis, at_upper=(),
                     basis_inverse=None) -> LpSolution:
    """Solve from a start basis and the nonbasic columns that sit at their
    upper bounds: bound flips, then the dual simplex.

    Every column is boxed, so moving each nonbasic column to the bound its
    reduced cost favours makes any basis dual feasible; the dual simplex
    then restores primal feasibility. ``at_upper`` only decides the columns
    whose reduced cost is within the optimality tolerance of zero; its basic
    entries are ignored.

    A start that is not m distinct columns raises ValueError. A numerical
    failure, a singular start among them, gets one retry from the same basis
    in paranoid mode; SimplexNumericalError when that fails too. A problem
    the dual simplex proves infeasible comes back INFEASIBLE with no
    ``row_violations``: ``solve`` explains it.

    ``basis_inverse``, a prior solve's inverse of this basis (as when only
    the rhs moved), spares the factorization: a copy is adopted when it is
    m x m and ``max|basis_inverse @ A_B - I| <= FEASIBILITY_TOL``, and the
    basis is factored afresh otherwise. That check, not ``REFACTOR_PERIOD``,
    bounds the eta-update drift an inverse carries from call to call.
    """
    basis = np.asarray(start_basis, dtype=int).ravel()
    m, n = problem.constraint_count, problem.variable_count
    is_basic = np.zeros(n, dtype=bool)
    if basis.size == m and basis.min(initial=0) >= 0 and basis.max(initial=-1) < n:
        is_basic[basis] = True
    if np.count_nonzero(is_basic) != m:  # wrong size, out of range, or a column twice
        raise ValueError(f"a start basis must be {m} distinct columns of {n}")
    upper_set = np.zeros(n, dtype=bool)
    cols = np.asarray(at_upper, dtype=int).ravel()
    upper_set[cols[(cols >= 0) & (cols < n)]] = True
    upper_set &= ~is_basic
    try:
        return _warm_attempt(problem, basis, upper_set, basis_inverse)
    except SimplexNumericalError:
        # eta-update drift can strand the fast path on a singular basis; one
        # slow, exactly refactored retry settles whether the start itself or
        # the arithmetic was at fault
        return _warm_attempt(problem, basis, upper_set, None, paranoid=True)


def _warm_attempt(problem: LpProblem, basis: np.ndarray, at_upper: np.ndarray,
                  basis_inverse: np.ndarray | None, paranoid: bool = False) -> LpSolution:
    """Flip, then finish from ``basis`` by the dual simplex."""
    engine = _Engine(problem.constraint_matrix, problem.rhs, problem.upper, basis,
                     at_upper=at_upper, paranoid=paranoid)
    logger.debug("warm m=%d n=%d paranoid=%d", engine.m, engine.n, int(paranoid))
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
        return LpSolution(status=LpStatus.INFEASIBLE, iterations=engine.pivots,
                          bound_flips=engine.flips)
    return _finish(problem, engine)


def _finish(problem: LpProblem, engine: _Engine) -> LpSolution:
    c = problem.cost
    upper = problem.upper
    xb = engine.xb
    ub = upper[engine.basis]
    primal = np.where(engine.at_upper, upper, 0.0)
    primal[engine.basis] = np.clip(xb, 0.0, ub)
    return LpSolution(
        status=LpStatus.OPTIMAL,
        primal=primal,
        basis=engine.basis.copy(),
        duals=engine.binv.T @ c[engine.basis],
        objective=float(c @ primal),
        iterations=engine.pivots,
        bound_flips=engine.flips,
        degenerate=bool(((np.abs(xb) <= FEASIBILITY_TOL)
                         | (np.abs(xb - ub) <= FEASIBILITY_TOL)).any()),
        at_upper=np.flatnonzero(engine.at_upper),
        basis_inverse=engine.binv,
    )


def solve(problem: LpProblem) -> LpSolution:
    """Phase 1 alone: explain a problem the dual simplex proved infeasible.

    Every column starts at 0. A row's slack is basic wherever the slack then
    lies within its bounds, and an artificial, signed to be nonnegative, is
    basic on each other row. The artificials start at |rhs|, so their sum S
    bounds the least infeasibility and no optimal artificial meets its bound
    2S + 1. ``solve_with_basis`` minimizes their sum from that start. The
    result is INFEASIBLE with ``row_violations`` at the least infeasible
    point; SimplexNumericalError when the problem turns out feasible, since
    then the two proofs disagree."""
    a = problem.constraint_matrix
    b = problem.rhs
    m, n = a.shape
    basis = _row_slacks(a, b, problem.upper)
    art_rows = np.flatnonzero(basis < 0)
    n_art = art_rows.size
    art_sign = np.where(b[art_rows] < 0.0, -1.0, 1.0)
    art = np.zeros((m, n_art))
    art[art_rows, np.arange(n_art)] = art_sign
    a1 = np.hstack([a, art])
    basis[art_rows] = n + np.arange(n_art)
    logger.debug("phase1 m=%d n=%d", m, n)
    sol = solve_with_basis(
        LpProblem(cost=np.concatenate([np.zeros(n), np.ones(n_art)]), constraint_matrix=a1,
                  rhs=b, upper=np.concatenate([problem.upper, np.full(
                      n_art, 2.0 * np.abs(b[art_rows]).sum() + 1.0)])),
        basis, basis_inverse=np.diag(1.0 / a1[np.arange(m), basis]))
    if (sol.status is not LpStatus.OPTIMAL
            or sol.objective <= FEASIBILITY_TOL * max(1.0, float(np.abs(b).sum()))):
        raise SimplexNumericalError("phase 1 finds feasible a problem the dual simplex "
                                    "proved infeasible")
    violations = np.zeros(m)
    # A x + sign * artificial = b
    violations[art_rows] = -art_sign * sol.primal[n:]
    return LpSolution(status=LpStatus.INFEASIBLE, iterations=sol.iterations,
                      bound_flips=sol.bound_flips, row_violations=violations)


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
