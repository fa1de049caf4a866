"""Dense two-phase revised simplex with basis, duals, and parametric intervals.

Solves standard-form problems ``min c.x  s.t.  A x = b, x >= 0`` while
exposing the optimal basis index set, the dual vector, and the interval of a
scalar right-hand-side parameter over which a basis stays primal feasible.
Basis and duals are first-class outputs because the emission-price sweep and
the locational-price extraction are built directly on them.
"""

from __future__ import annotations

import os
import warnings
import sys
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.linalg import lu_factor, lu_solve

FEASIBILITY_TOL = 1e-9
OPTIMALITY_TOL = 1e-9
PIVOT_TOL = 1e-10
# pivots below this on a stale eta-updated inverse may be roundoff ghosts
RISKY_PIVOT_TOL = 1e-7
REFACTOR_PERIOD = 64
TRACE_ENV = "CARBOMARKET_LP_TRACE"
# LpSolution.outcome values of a solve that finished from the given basis
WARM_OUTCOMES = ("warm", "repaired")


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class SimplexNumericalError(RuntimeError):
    """Basis factorization failed, or pivoting stalled beyond recovery."""


class EmptyIntervalError(RuntimeError):
    """No parameter value keeps the basis feasible: inconsistent basis."""


@dataclass(frozen=True)
class LpProblem:
    """Standard-form LP: minimize cost.x subject to A x = rhs, x >= 0.

    Inequalities must be converted to equalities with explicit slack
    columns before construction; the solver only ever sees this form.
    """

    cost: np.ndarray
    constraint_matrix: np.ndarray
    rhs: np.ndarray

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
        object.__setattr__(self, "cost", c)
        object.__setattr__(self, "constraint_matrix", a)
        object.__setattr__(self, "rhs", b)

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
    iterations: int = 0
    degenerate: bool = False
    # Per-row residual violation when infeasible (original row order).
    row_violations: np.ndarray | None = None
    # Rows kept after redundant-equality elimination; None when all kept.
    kept_rows: np.ndarray | None = None
    # How the solve started: "cold", "warm" (the given basis was primal or
    # dual feasible), "repaired" (neither; costs were shifted to make it dual
    # feasible), or why a warm start fell back to a cold solve: "size",
    # "singular" or "infeasible".
    outcome: str = "cold"

    @property
    def warm_started(self) -> bool:
        return self.outcome in WARM_OUTCOMES


def _trace_stream():
    target = os.environ.get(TRACE_ENV)
    if not target:
        return None
    if target in ("1", "stderr"):
        return sys.stderr
    return open(target, "a", encoding="utf-8")


class _Engine:
    """Revised simplex over an explicit basis inverse with eta updates.

    ``paranoid`` trades speed for numerical safety: Bland's rule from the
    first pivot and a fresh factorization after every basis change. It is
    the retry discipline after a singular-basis failure.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, basis: np.ndarray, trace=None,
                 paranoid: bool = False):
        self.a = a
        self.b = b
        self.m, self.n = a.shape
        self.basis = np.asarray(basis, dtype=int).copy()
        self.binv: np.ndarray | None = None
        self.pivots = 0
        self.since_refactor = 0
        self.trace = trace
        self.paranoid = paranoid

    def refactor(self) -> None:
        bmat = self.a[:, self.basis]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # singularity is detected, then raised
            lu, piv = lu_factor(bmat, check_finite=False)
        diag = np.abs(np.diag(lu))
        scale = max(1.0, float(np.abs(bmat).max(initial=0.0)))
        if not np.isfinite(lu).all() or diag.min(initial=np.inf) <= 1e-13 * scale:
            raise SimplexNumericalError("singular basis matrix")
        self.binv = lu_solve((lu, piv), np.eye(self.m), check_finite=False)
        self.since_refactor = 0

    def _pivot(self, enter: int, leave_pos: int, direction: np.ndarray) -> None:
        pivval = direction[leave_pos]
        row = self.binv[leave_pos] / pivval
        rest = direction.copy()
        rest[leave_pos] = 0.0
        self.binv -= np.outer(rest, row)
        self.binv[leave_pos] = row
        self.basis[leave_pos] = enter
        self.pivots += 1
        self.since_refactor += 1
        if self.paranoid or self.since_refactor >= REFACTOR_PERIOD:
            self.refactor()

    def _log(self, phase: str, enter: int, leave: int, step: float, obj: float) -> None:
        if self.trace is not None:
            self.trace.write(
                f"{phase} pivot={self.pivots} enter={enter} leave={leave} "
                f"step={step:.6g} obj={obj:.12g}\n"
            )

    def basic_solution(self) -> np.ndarray:
        return self.binv @ self.b

    def duals_for(self, cost: np.ndarray) -> np.ndarray:
        return self.binv.T @ cost[self.basis]

    def run_primal(self, cost: np.ndarray, budget: int, phase: str) -> LpStatus:
        degen_run = 0
        bland = self.paranoid
        while self.pivots < budget:
            xb = self.basic_solution()
            y = self.duals_for(cost)
            reduced = cost - self.a.T @ y
            reduced[self.basis] = 0.0
            if bland:
                eligible = np.flatnonzero(reduced < -OPTIMALITY_TOL)
                if eligible.size == 0:
                    return LpStatus.OPTIMAL
                enter = int(eligible[0])
            else:
                enter = int(np.argmin(reduced))
                if reduced[enter] >= -OPTIMALITY_TOL:
                    return LpStatus.OPTIMAL
            direction = self.binv @ self.a[:, enter]
            movable = direction > PIVOT_TOL
            if not movable.any():
                return LpStatus.UNBOUNDED
            safe_xb = np.maximum(xb, 0.0)
            ratios = np.full(self.m, np.inf)
            ratios[movable] = safe_xb[movable] / direction[movable]
            step = float(ratios.min())
            tied = np.flatnonzero(ratios <= step + 1e-12)
            if bland:
                leave_pos = int(tied[np.argmin(self.basis[tied])])
            else:
                leave_pos = int(tied[np.argmax(direction[tied])])
            if direction[leave_pos] < RISKY_PIVOT_TOL and self.since_refactor > 0:
                # a pivot this small on a stale inverse may be pure roundoff;
                # recompute the iteration from a fresh factorization instead
                self.refactor()
                continue
            if step <= FEASIBILITY_TOL:
                degen_run += 1
                if degen_run > 3 * self.m:
                    bland = True
            else:
                degen_run = 0
                bland = self.paranoid
            self._log(phase, enter, int(self.basis[leave_pos]), step, float(cost[self.basis] @ xb))
            self._pivot(enter, leave_pos, direction)
        raise SimplexNumericalError("pivot budget exhausted in primal simplex")

    def run_dual(self, cost: np.ndarray, budget: int) -> LpStatus:
        """Dual simplex from a dual-feasible basis (used on rhs perturbations)."""
        degen_run = 0
        bland = self.paranoid
        nonbasic = np.ones(self.n, dtype=bool)
        while self.pivots < budget:
            nonbasic[:] = True
            nonbasic[self.basis] = False
            xb = self.basic_solution()
            worst = int(np.argmin(xb))
            if xb[worst] >= -FEASIBILITY_TOL:
                return LpStatus.OPTIMAL
            if bland:
                candidates_rows = np.flatnonzero(xb < -FEASIBILITY_TOL)
                worst = int(candidates_rows[np.argmin(self.basis[candidates_rows])])
            tableau_row = self.binv[worst] @ self.a
            y = self.duals_for(cost)
            reduced = cost - self.a.T @ y
            reduced[self.basis] = 0.0
            eligible = nonbasic & (tableau_row < -PIVOT_TOL)
            if not eligible.any():
                return LpStatus.INFEASIBLE
            idx = np.flatnonzero(eligible)
            ratios = np.maximum(reduced[idx], 0.0) / (-tableau_row[idx])
            best = float(ratios.min())
            tied = idx[ratios <= best + 1e-12]
            enter = int(tied.min()) if bland else int(tied[np.argmax(-tableau_row[tied])])
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
            self._log("dual", enter, int(self.basis[worst]), best, float(cost[self.basis] @ xb))
            self._pivot(enter, worst, direction)
        raise SimplexNumericalError("pivot budget exhausted in dual simplex")


def _pivot_budget(m: int, n: int) -> int:
    return max(1000, 200 * (m + n))


def _drive_out_artificials(engine: _Engine, n_real: int) -> np.ndarray:
    """Pivot zero-valued artificials out of the basis; return kept-row mask.

    A row whose artificial cannot be exchanged for any real column is
    linearly dependent on the others and gets dropped.
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


def solve(problem: LpProblem) -> LpSolution:
    """Two-phase revised simplex; returns basis, duals, and diagnostics."""
    trace = _trace_stream()
    try:
        return _solve_impl(problem, trace)
    finally:
        if trace is not None and trace is not sys.stderr:
            trace.close()


def _solve_impl(problem: LpProblem, trace) -> LpSolution:
    try:
        return _solve_attempt(problem, trace, paranoid=False)
    except SimplexNumericalError:
        # eta-update drift can strand the fast path on a singular basis;
        # one slow, exactly-refactored retry settles whether the problem
        # itself or the arithmetic was at fault
        return _solve_attempt(problem, trace, paranoid=True)


def _solve_attempt(problem: LpProblem, trace, paranoid: bool) -> LpSolution:
    a = problem.constraint_matrix.copy()
    b = problem.rhs.copy()
    c = problem.cost
    m, n = a.shape

    flipped = b < 0.0
    a[flipped] *= -1.0
    b[flipped] *= -1.0

    art = np.eye(m)
    a1 = np.hstack([a, art])
    engine = _Engine(a1, b, np.arange(n, n + m), trace, paranoid=paranoid)
    engine.binv = np.eye(m)
    cost1 = np.zeros(n + m)
    cost1[n:] = 1.0
    budget = _pivot_budget(m, n + m)
    if trace is not None:
        trace.write(f"solve m={m} n={n} paranoid={int(paranoid)}\n")
    status = engine.run_primal(cost1, budget, "phase1")
    if status is not LpStatus.OPTIMAL:
        raise SimplexNumericalError("phase 1 cannot be unbounded; numerical failure")
    xb1 = engine.basic_solution()
    infeas = float(cost1[engine.basis] @ xb1)
    if infeas > FEASIBILITY_TOL * max(1.0, float(np.abs(b).sum())):
        violations = np.zeros(m)
        for pos, col in enumerate(engine.basis):
            if col >= n:
                violations[col - n] = max(0.0, float(xb1[pos]))
        return LpSolution(
            status=LpStatus.INFEASIBLE,
            iterations=engine.pivots,
            row_violations=violations,
            objective=np.nan,
        )

    keep = _drive_out_artificials(engine, n)
    kept_rows = None
    if not keep.all():
        kept_rows = np.flatnonzero(keep)
        a = a[keep]
        b = b[keep]
        flipped = flipped[keep]
        pos_keep = np.array([p for p in range(engine.m) if keep[p]], dtype=int)
        basis = engine.basis[pos_keep]
        engine = _Engine(a, b, basis, trace, paranoid=paranoid)
        engine.refactor()
    else:
        engine.a = a1[:, :n]
        engine.n = n

    status = engine.run_primal(c, budget + engine.pivots, "phase2")
    if status is LpStatus.UNBOUNDED:
        return LpSolution(status=status, iterations=engine.pivots)
    return _finish(problem, engine, flipped, kept_rows)


def _finish(
    problem: LpProblem,
    engine: _Engine,
    flipped: np.ndarray,
    kept_rows: np.ndarray | None,
    outcome: str = "cold",
) -> LpSolution:
    c = problem.cost
    xb = engine.basic_solution()
    primal = np.zeros(problem.variable_count)
    primal[engine.basis] = np.maximum(xb, 0.0)
    duals_local = engine.duals_for(c)
    duals_local = np.where(flipped, -duals_local, duals_local)
    if kept_rows is not None:
        duals = np.zeros(problem.constraint_count)
        duals[kept_rows] = duals_local
    else:
        duals = duals_local
    return LpSolution(
        status=LpStatus.OPTIMAL,
        primal=primal,
        basis=engine.basis.copy(),
        duals=duals,
        objective=float(c @ primal),
        iterations=engine.pivots,
        degenerate=bool((np.abs(xb) <= FEASIBILITY_TOL).any()),
        kept_rows=kept_rows,
        outcome=outcome,
    )


def solve_with_basis(problem: LpProblem, start_basis) -> LpSolution:
    """Solve re-using a prior basis; falls back to a cold solve when unusable.

    A basis that is primal feasible resumes the primal iteration directly.
    A basis that is only dual feasible (the common case after a right-hand
    side change, since reduced costs do not depend on the rhs) is repaired
    by dual simplex. A basis that is neither gets its costs shifted: each
    dual-infeasible column's cost rises by its deficit, which makes the
    basis dual feasible; dual simplex then restores primal feasibility, and
    primal simplex finishes on the true costs (Koberstein 2005, "The dual
    simplex method, techniques for a fast and stable implementation").

    Only a basis of the wrong size, a singular basis or a numerical failure
    falls back to the cold path, and so does a problem the dual simplex
    proves infeasible, so that its row violations come from phase 1.
    ``outcome`` on the result says which of these happened.
    """
    basis = np.asarray(start_basis, dtype=int).ravel()
    if (basis.size != problem.constraint_count or np.unique(basis).size != basis.size
            or basis.min(initial=0) < 0 or basis.max(initial=-1) >= problem.variable_count):
        return _fallback(solve(problem), "size")
    trace = _trace_stream()
    try:
        try:
            sol = _warm_attempt(problem, basis, trace)
            reason = "infeasible"
        except SimplexNumericalError:
            # warm start gone numerically bad; the cold path below retries
            # from scratch and has its own paranoid second attempt
            sol = None
            reason = "singular"
        return sol if sol is not None else _fallback(_solve_impl(problem, trace), reason)
    finally:
        if trace is not None and trace is not sys.stderr:
            trace.close()


def _fallback(sol: LpSolution, reason: str) -> LpSolution:
    sol.outcome = reason
    return sol


def _warm_attempt(problem: LpProblem, basis: np.ndarray, trace) -> LpSolution | None:
    """Finish from ``basis``; None when the dual simplex proves infeasibility."""
    cost = problem.cost
    engine = _Engine(problem.constraint_matrix, problem.rhs, basis, trace)
    engine.refactor()
    flipped = np.zeros(problem.constraint_count, dtype=bool)
    budget = _pivot_budget(engine.m, engine.n)
    outcome = "warm"
    if engine.basic_solution().min(initial=0.0) >= -FEASIBILITY_TOL:
        status = engine.run_primal(cost, budget, "warm")
    else:
        reduced = cost - problem.constraint_matrix.T @ engine.duals_for(cost)
        reduced[engine.basis] = 0.0
        dual_cost = cost
        if reduced.min(initial=0.0) < -1e-7:
            outcome = "repaired"
            dual_cost = cost + np.maximum(-reduced, 0.0)
        status = engine.run_dual(dual_cost, budget)
        if status is LpStatus.INFEASIBLE:
            # primal infeasibility does not depend on the costs, shifted or not
            return None
        status = engine.run_primal(cost, budget + engine.pivots, "polish")
    if status is LpStatus.UNBOUNDED:
        return LpSolution(status=status, iterations=engine.pivots, outcome=outcome)
    return _finish(problem, engine, flipped, None, outcome)


def feasibility_interval(basis, a, g, h, ray) -> tuple[float, float]:
    """Interval of y keeping basis feasible for rhs = G (y ray) + H.

    The basic solution is affine in y: x_B(y) = y u + v with
    u = A_B^{-1} G ray and v = A_B^{-1} H. Every component must stay
    >= -FEASIBILITY_TOL; the result is the maximal closed interval,
    possibly unbounded on either side.
    """
    basis = np.asarray(basis, dtype=int).ravel()
    a = np.asarray(a, dtype=float)
    bmat = a[:, basis]
    lu, piv = lu_factor(bmat, check_finite=False)
    diag = np.abs(np.diag(lu))
    if not np.isfinite(lu).all() or diag.min(initial=np.inf) <= 1e-13 * max(1.0, np.abs(bmat).max()):
        raise EmptyIntervalError("singular basis matrix")
    direction = np.asarray(g, dtype=float) @ np.asarray(ray, dtype=float)
    u = lu_solve((lu, piv), direction, check_finite=False)
    v = lu_solve((lu, piv), np.asarray(h, dtype=float), check_finite=False)
    lo, hi = -np.inf, np.inf
    for uk, vk in zip(u, v):
        if uk > 1e-11:
            lo = max(lo, (-FEASIBILITY_TOL - vk) / uk)
        elif uk < -1e-11:
            hi = min(hi, (-FEASIBILITY_TOL - vk) / uk)
        elif vk < -10 * FEASIBILITY_TOL:
            raise EmptyIntervalError("basis infeasible for every parameter value")
    if lo > hi:
        raise EmptyIntervalError("empty feasibility interval")
    return float(lo), float(hi)
