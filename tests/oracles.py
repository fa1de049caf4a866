"""Independent reference implementations used only as test oracles.

Everything here is deliberately naive: full-tableau pivoting, dense scans,
brute-force argmins. Slow and simple beats fast and shared-bug.
"""

from __future__ import annotations

import csv

import numpy as np


def subgradient_range(curve, p):
    """Smallest and largest slope of the segments of ``curve`` active at ``p``."""
    v = curve.value(p)
    active = [s for s, b in curve.segments if s * p + b >= v - 1e-9 * max(1.0, abs(v))]
    return min(active), max(active)


def highs_solve(problem):
    """``problem`` (an ``lp_core.LpProblem``) solved by scipy's HiGHS."""
    from scipy.optimize import linprog

    res = linprog(problem.cost, A_eq=problem.constraint_matrix, b_eq=problem.rhs,
                  bounds=list(zip(np.zeros(problem.variable_count), problem.upper)),
                  method="highs")
    assert res.status == 0, res.message
    return res


def lu_ptdf(branches, bus_ids, slack_bus):
    """PTDF of a connected network by scipy's LU of the reduced B matrix,
    assembled branch by branch."""
    from scipy.linalg import lu_factor, lu_solve

    index = {b: k for k, b in enumerate(bus_ids)}
    n = len(index)
    b_mat = np.zeros((n, n))
    flow = np.zeros((len(branches), n))
    for l, br in enumerate(branches):
        i, j = index[br.from_bus], index[br.to_bus]
        y = 1.0 / br.reactance
        b_mat[i, i] += y
        b_mat[j, j] += y
        b_mat[i, j] -= y
        b_mat[j, i] -= y
        flow[l, i] = y
        flow[l, j] = -y
    keep = [k for k in range(n) if k != index[slack_bus]]
    ptdf = np.zeros_like(flow)
    ptdf[:, keep] = lu_solve(lu_factor(b_mat[np.ix_(keep, keep)]), flow[:, keep].T).T
    return ptdf


def dictreader_series(path, prefix):
    """Columns ``{prefix}{id}`` of a series sidecar as ``{id: array}``, read
    row by row with ``csv.DictReader`` and ``float`` per cell."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {col[len(prefix):]: np.array([float(r[col]) for r in rows])
            for col in rows[0]}


def tableau_simplex(cost, a, rhs, tol=1e-9, max_iter=50000):
    """Two-phase full-tableau simplex, Bland's rule throughout.

    Returns (status, x, objective) with status in {"optimal", "infeasible",
    "unbounded"}. Requires linearly independent rows.
    """
    a = np.asarray(a, dtype=float).copy()
    b = np.asarray(rhs, dtype=float).copy()
    c = np.asarray(cost, dtype=float).copy()
    m, n = a.shape
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0

    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = a
    tab[:m, n : n + m] = np.eye(m)
    tab[:m, -1] = b
    basis = list(range(n, n + m))

    def pivot(row, col):
        tab[row] /= tab[row, col]
        for r in range(m + 1):
            if r != row and tab[r, col] != 0.0:
                tab[r] -= tab[r, col] * tab[row]
        basis[row] = col

    def run(allowed):
        for _ in range(max_iter):
            enter = -1
            for j in allowed:
                if tab[m, j] < -tol:
                    enter = j
                    break
            if enter < 0:
                return "optimal"
            best, rows = np.inf, []
            for i in range(m):
                if tab[i, enter] > tol:
                    ratio = tab[i, -1] / tab[i, enter]
                    if ratio < best - 1e-12:
                        best, rows = ratio, [i]
                    elif ratio <= best + 1e-12:
                        rows.append(i)
            if not rows:
                return "unbounded"
            row = min(rows, key=lambda i: basis[i])
            pivot(row, enter)
        raise RuntimeError("tableau oracle hit its iteration limit")

    # Phase 1: minimize the artificial sum.
    tab[m, n : n + m] = 1.0
    for i in range(m):
        tab[m] -= tab[i]
    status = run(range(n + m))
    if status != "optimal":
        raise RuntimeError("phase 1 must terminate optimal")
    if -tab[m, -1] > 1e-7 * max(1.0, abs(b).sum()):
        return "infeasible", None, np.nan

    for i in range(m):
        if basis[i] >= n:
            enter = next((j for j in range(n) if abs(tab[i, j]) > 1e-9), None)
            if enter is None:
                raise RuntimeError("oracle cannot handle dependent rows")
            pivot(i, enter)

    tab[m, :] = 0.0
    tab[m, :n] = c
    for i in range(m):
        tab[m] -= tab[m, basis[i]] * tab[i]
    status = run(range(n))
    if status != "optimal":
        return status, None, np.nan
    x = np.zeros(n)
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i, -1]
    return "optimal", x, float(c @ x)


def _inside_region(form, sol, ys):
    """Which ray points ``ys`` keep the basis of ``sol`` primal feasible: the
    basic solution, with the nonbasic columns of ``sol.at_upper`` held at their
    upper bounds, stays within [0, upper] (dual feasibility is independent of
    the ray point)."""
    a, upper = form.problem.constraint_matrix, form.problem.upper
    a_b = a[:, sol.basis]
    at = sol.at_upper
    u = np.linalg.solve(a_b, form.g @ form.demand)
    v = np.linalg.solve(a_b, form.h - a[:, at] @ upper[at])
    xb = np.outer(ys, u) + v
    return ((xb >= -1e-7) & (xb <= upper[sol.basis] + 1e-7)).all(axis=1)


def c2_psi(form, n_samples):
    """Midpoint-rule numerical integration of the per-bus emission gradient.

    Assigns each sample the first discovered basis whose basic solution stays
    nonnegative there (dual feasibility is sample-independent), so the weights
    come from sample counts rather than computed interval endpoints.
    """
    from carbomarket.emission_allocation import _problem_at
    from carbomarket.lp_core import LpStatus

    ys = (np.arange(n_samples) + 0.5) / n_samples
    uncovered = np.ones(n_samples, dtype=bool)
    psi = np.zeros(form.g.shape[1])
    rounds = 0
    while uncovered.any():
        rounds += 1
        if rounds > 300:
            raise RuntimeError("basis discovery did not converge")
        y = float(ys[uncovered][0])
        sol = two_phase_solve(_problem_at(form, y))
        assert sol.status is LpStatus.OPTIMAL, f"oracle LP infeasible at y={y}"
        idx = np.flatnonzero(uncovered)
        feas = _inside_region(form, sol, ys[idx])
        if not feas.any():
            raise RuntimeError("sampled point escaped its own basis region")
        grad = np.linalg.solve(form.problem.constraint_matrix[:, sol.basis].T,
                               form.k[sol.basis]) @ form.g
        psi += feas.sum() / n_samples * grad
        uncovered[idx[feas]] = False
    return psi / (form.tau * 1000.0)


def scan_basis_regions(form, step=1e-4):
    """Dense grid scan of [0,1]: which samples share an optimal basis region.

    Returns the sorted interior boundaries between regions (y values where the
    assigned basis changes) and the region count.
    """
    from carbomarket.emission_allocation import _problem_at
    from carbomarket.lp_core import LpStatus

    ys = np.arange(0.0, 1.0 + step / 2, step)
    label = -np.ones(len(ys), dtype=int)
    region = 0
    while (label < 0).any():
        y = float(ys[label < 0][0])
        sol = two_phase_solve(_problem_at(form, y))
        assert sol.status is LpStatus.OPTIMAL
        idx = np.flatnonzero(label < 0)
        feas = _inside_region(form, sol, ys[idx])
        label[idx[feas]] = region
        region += 1
    changes = np.flatnonzero(np.diff(label) != 0)
    boundaries = (ys[changes] + ys[changes + 1]) / 2.0
    return boundaries, int(len(np.unique(label)))


def random_small_case(rng, min_output_prob=0.0, n_storages=None):
    """Feasible random ring network with 3-10 buses for allocation fuzzing."""
    from carbomarket.market_clearing import AgentBid, BidSet
    from carbomarket.network_model import Branch, Bus, NetworkCase, curve_from_points

    n_buses = int(rng.integers(3, 11))
    buses = [Bus(i + 1) for i in range(n_buses)]
    branches = [
        Branch(i + 1, (i + 1) % n_buses + 1, capacity=float(rng.uniform(30, 90)),
               reactance=float(rng.uniform(0.05, 0.3)))
        for i in range(n_buses)
    ]
    case = NetworkCase(
        buses=buses, branches=branches, generators=[], storages=[],
        load_series=np.zeros((1, n_buses)), tau=1.0, kappa=0.05, epsilon=1e-4,
    )
    n_gens = int(rng.integers(2, 5))
    agents = []
    total_cap = 0.0
    for gidx in range(n_gens):
        cap = float(rng.uniform(8, 25))
        p_min = 0.0
        if rng.random() < min_output_prob:
            p_min = float(rng.uniform(0.05, 0.2) * cap)
        slope = float(rng.uniform(10, 60))
        psi = float(rng.uniform(0.1, 1.0))
        total_cap += cap
        agents.append(AgentBid(
            name=f"g{gidx}", bus=int(rng.integers(1, n_buses + 1)),
            cost_curve=curve_from_points([(p_min, slope * p_min), (cap, slope * cap)]),
            p_min=p_min, p_max=cap,
            emission_curve=curve_from_points(
                [(p_min, 1000 * psi * p_min), (cap, 1000 * psi * cap)]),
        ))
    n_es = int(rng.integers(0, 3)) if n_storages is None else n_storages
    for sidx in range(n_es):
        # pays up to `lo` $/MWh to charge, asks at least `hi` to discharge
        lo, hi = float(rng.uniform(5, 25)), float(rng.uniform(30, 70))
        agents.append(AgentBid(
            name=f"es{sidx}", bus=int(rng.integers(1, n_buses + 1)),
            cost_curve=curve_from_points([(-3.0, -3 * lo), (0.0, 0.0), (3.0, 3 * hi)]),
            p_min=-3.0, p_max=3.0, is_storage=True,
        ))
    weights = rng.uniform(0.1, 1.0, n_buses)
    demand = weights / weights.sum() * float(rng.uniform(0.4, 0.7)) * total_cap
    return case, BidSet(agents=agents, demand=demand)


def phase_one_clearing(case, bids, loss=None):
    """The clearing by the two-phase simplex from an all-slack start (the
    cold path before the merit-order crash): ``assemble_clearing_lp``, then
    ``two_phase_solve``, then ``extract_result``, with no loss iteration."""
    from carbomarket.lp_core import LpStatus
    from carbomarket.market_clearing import assemble_clearing_lp, extract_result

    problem, form = assemble_clearing_lp(case, bids, loss=loss)
    sol = two_phase_solve(problem)
    assert sol.status is LpStatus.OPTIMAL
    return extract_result(case, form, sol, bids)


def assembled_compact_form(case, clearing):
    """The sweep's compact form assembled from scratch, as before it was cut
    from the clearing's LP: ``assemble_clearing_lp`` of the plants' bids at
    net demand (each storage's cleared power moved into its bus's demand) on
    the loss vector the clearing converged to."""
    from carbomarket.market_clearing import BidSet, assemble_clearing_lp

    bids = clearing.bids
    net_demand = bids.demand.copy()
    plants = []
    for idx, agent in enumerate(bids.agents):
        if agent.is_storage:
            net_demand[case.bus_index[agent.bus]] -= float(clearing.dispatch[idx])
        else:
            plants.append(agent)
    _, form = assemble_clearing_lp(case, BidSet(agents=plants, demand=net_demand),
                                   loss=clearing.form.loss)
    return form


def cold_origin_sweep(case, clearing):
    """The emission-price sweep as it was before it walked down from y = 1:
    on the compact form assembled from scratch, ``two_phase_solve`` solves
    the origin or, when the origin is infeasible, finds the closest feasible
    point zeta on the ray by an augmented LP and solves the dispatch there;
    its ``zeta`` is that start, 0 included. The walk then goes
    up the ray, probing 0.002 of the ray past each breakpoint and halving the
    step whenever the probe's region does not reach back to it. Each probe
    starts ``lp_core.solve_with_basis`` from the basis below it and, as the
    solver then did, solves by ``two_phase_solve`` instead when that start
    is unusable or the dual simplex finds the probe infeasible."""
    from carbomarket.emission_allocation import (
        AllocationResult,
        NonProgressError,
        _problem_at,
        partial_derivative,
    )
    from carbomarket.lp_core import (
        EmptyIntervalError,
        LpProblem,
        LpStatus,
        SimplexNumericalError,
        feasibility_interval,
        solve_with_basis,
    )

    def from_basis(problem, prev):
        try:
            sol = solve_with_basis(problem, prev.basis, prev.at_upper,
                                   basis_inverse=prev.basis_inverse)
        except (ValueError, SimplexNumericalError):
            sol = None
        if sol is None or sol.status is not LpStatus.OPTIMAL:
            sol = two_phase_solve(problem)
        return sol

    form = assembled_compact_form(case, clearing)
    sol = two_phase_solve(_problem_at(form, 0.0))
    y0, addon = 0.0, 0.0
    if sol.status is not LpStatus.OPTIMAL:
        problem, n = form.problem, form.problem.variable_count
        cost = np.zeros(n + 1)
        cost[n] = 1.0
        closest = two_phase_solve(LpProblem(
            cost=cost, rhs=form.h, upper=np.append(problem.upper, 1.0),
            constraint_matrix=np.column_stack([problem.constraint_matrix,
                                               -form.g @ form.demand])))
        assert closest.status is LpStatus.OPTIMAL, "no feasible point on the demand ray"
        y0 = float(closest.primal[n])
        sol = two_phase_solve(_problem_at(form, y0))
        assert sol.status is LpStatus.OPTIMAL
    e_start = float(form.k @ sol.primal) + form.k_offset
    total_net = float(form.demand.sum())
    if y0 > 0.0 and abs(total_net) >= 1e-12:
        addon = e_start / (form.tau * 1000.0 * total_net)

    sweep_step = 0.002
    ray = form.demand
    a, upper = form.problem.constraint_matrix, form.problem.upper
    grad_accum = np.zeros(form.g.shape[1])
    breakpoints = []
    y_prev, iterations = y0, 0
    max_iter = 16 * int(np.ceil(1.0 / sweep_step)) + 400
    e_probe, y_probe, slope = e_start, y0, 0.0
    step = sweep_step
    while y_prev < 1.0 - 1e-12:
        iterations += 1
        if iterations > max_iter:
            raise NonProgressError(f"sweep exceeded {max_iter} iterations")
        probe = min(y_prev + step, 1.0)
        sol = from_basis(_problem_at(form, probe), sol)
        if sol.status is not LpStatus.OPTIMAL:
            raise NonProgressError(f"dispatch infeasible at ray point y={probe:g}")
        try:
            lo, hi = feasibility_interval(sol, a, form.g, form.h, ray, upper)
        except EmptyIntervalError:
            lo = hi = probe
        y_next = min(hi, 1.0)
        if step >= 1e-12 and (lo > y_prev + 1e-10 or y_next <= y_prev + 1e-12):
            step /= 2.0
            continue
        if y_next <= y_prev + 1e-15:
            raise NonProgressError(f"no progress past y={y_prev:g}")
        grad = partial_derivative(form, sol)
        grad_accum += (y_next - y_prev) * grad
        breakpoints.append((float(y_next), tuple(sol.basis.tolist())))
        e_probe = float(form.k @ sol.primal) + form.k_offset
        y_probe, slope = probe, float(grad @ ray)
        y_prev = y_next
        step = sweep_step

    e_star = e_probe + (1.0 - y_probe) * slope
    allocated = float(grad_accum @ ray)
    psi = grad_accum / (form.tau * 1000.0) + addon
    return AllocationResult(
        psi=psi, breakpoints=breakpoints, zeta=y0,
        emission_pot=e_star if y0 > 0.0 else e_star - e_start,
        cost_sharing_error=abs(allocated - (e_star - e_start)) / max(abs(e_star), 1e-12),
        iterations=iterations)


def looped_feasibility_interval(sol, a, g, h, ray, upper):
    """``lp_core.feasibility_interval`` as a loop over the basic variables,
    with the same rules, tolerances and errors."""
    from carbomarket.lp_core import FEASIBILITY_TOL, EmptyIntervalError

    a = np.asarray(a, dtype=float)
    upper = np.asarray(upper, dtype=float)
    ub = upper[sol.basis]
    offset = np.asarray(h, dtype=float) - a[:, sol.at_upper] @ upper[sol.at_upper]
    u = sol.basis_inverse @ (np.asarray(g, dtype=float) @ np.asarray(ray, dtype=float))
    v = sol.basis_inverse @ offset
    lo, hi = -np.inf, np.inf
    for uk, vk, bk in zip(u, v, ub):
        if uk > 1e-11:
            lo = max(lo, (-FEASIBILITY_TOL - vk) / uk)
            hi = min(hi, (bk + FEASIBILITY_TOL - vk) / uk)
        elif uk < -1e-11:
            hi = min(hi, (-FEASIBILITY_TOL - vk) / uk)
            lo = max(lo, (bk + FEASIBILITY_TOL - vk) / uk)
        elif vk < -10 * FEASIBILITY_TOL or vk > bk + 10 * FEASIBILITY_TOL:
            raise EmptyIntervalError("basis infeasible for every parameter value")
    if lo > hi:
        raise EmptyIntervalError("empty feasibility interval")
    return float(lo), float(hi)


class _TwoPhaseEngine:
    """The primal bounded revised simplex of ``two_phase_solve``: an explicit
    basis inverse with eta updates, nonbasic columns at either bound."""

    feasibility_tol = 1e-9
    optimality_tol = 1e-9
    pivot_tol = 1e-10
    risky_pivot_tol = 1e-7
    refactor_period = 64

    def __init__(self, a, b, upper, basis, at_upper=None, paranoid=False):
        self.a, self.b, self.upper = a, b, upper
        self.m, self.n = a.shape
        self.basis = np.asarray(basis, dtype=int).copy()
        self.at_upper = np.zeros(self.n, dtype=bool)
        if at_upper is not None:
            self.at_upper[at_upper] = True
        self.binv = None
        self.xb = None
        self.pivots = self.flips = self.since_refactor = 0
        self.paranoid = paranoid

    def refactor(self):
        from carbomarket.lp_core import SimplexNumericalError

        bmat = self.a[:, self.basis]
        try:
            binv = np.linalg.inv(bmat)
        except np.linalg.LinAlgError:
            binv = None
        with np.errstate(all="ignore"):  # a non-finite inverse fails the test
            singular = binv is None or not np.abs(binv @ bmat - np.eye(len(bmat))).max() <= 1e-9
        if singular:
            raise SimplexNumericalError("singular basis matrix")
        self.binv = binv
        self.since_refactor = 0

    def pivot(self, enter, leave_pos, direction, leave_at_upper=False):
        row = self.binv[leave_pos] / direction[leave_pos]
        rest = direction.copy()
        rest[leave_pos] = 0.0
        self.binv -= np.outer(rest, row)
        self.binv[leave_pos] = row
        self.at_upper[self.basis[leave_pos]] = leave_at_upper
        self.at_upper[enter] = False
        self.basis[leave_pos] = enter
        self.pivots += 1
        self.since_refactor += 1
        if self.paranoid or self.since_refactor >= self.refactor_period:
            self.refactor()

    def basic_solution(self):
        if self.at_upper.any():
            return self.binv @ (self.b - self.a[:, self.at_upper] @ self.upper[self.at_upper])
        return self.binv @ self.b

    def reduced_costs(self, cost):
        reduced = cost - self.a.T @ (self.binv.T @ cost[self.basis])
        reduced[self.basis] = 0.0
        return reduced

    def run_primal(self, cost, budget):
        """Primal simplex to optimality, Bland's rule after 3m degenerate
        steps in a row or throughout when paranoid."""
        from carbomarket.lp_core import SimplexNumericalError

        tol = self.feasibility_tol
        degen_run, bland, reduced = 0, self.paranoid, None
        while self.pivots + self.flips < budget:
            xb = self.basic_solution()
            if reduced is None:
                reduced = self.reduced_costs(cost)
            gain = np.where(self.at_upper, reduced, -reduced)
            if bland:
                eligible = np.flatnonzero(gain > self.optimality_tol)
                if eligible.size == 0:
                    self.xb = xb
                    return
                enter = int(eligible[0])
            else:
                enter = int(np.argmax(gain))
                if gain[enter] <= self.optimality_tol:
                    self.xb = xb
                    return
            direction = self.binv @ self.a[:, enter]
            move = -direction if self.at_upper[enter] else direction
            ub = self.upper[self.basis]
            ratios = np.full(self.m, np.inf)
            falls = move > self.pivot_tol
            ratios[falls] = np.maximum(xb[falls], 0.0) / move[falls]
            rises = move < -self.pivot_tol
            ratios[rises] = np.maximum(ub[rises] - xb[rises], 0.0) / -move[rises]
            step = float(ratios.min(initial=np.inf))
            flip = float(self.upper[enter])
            if flip <= step:
                self.at_upper[enter] = not self.at_upper[enter]
                self.flips += 1
                if flip > tol:
                    degen_run, bland = 0, self.paranoid
                continue
            tied = np.flatnonzero(ratios <= step + 1e-12)
            if bland:
                leave_pos = int(tied[np.argmin(self.basis[tied])])
            else:
                leave_pos = int(tied[np.argmax(np.abs(move[tied]))])
            if abs(direction[leave_pos]) < self.risky_pivot_tol and self.since_refactor > 0:
                self.refactor()
                reduced = None
                continue
            if step <= tol:
                degen_run += 1
                if degen_run > 3 * self.m:
                    bland = True
            else:
                degen_run, bland = 0, self.paranoid
            self.pivot(enter, leave_pos, direction, leave_at_upper=bool(move[leave_pos] < 0.0))
            reduced = None
        raise SimplexNumericalError("pivot budget exhausted in primal simplex")


def two_phase_solve(problem):
    """``problem`` (an ``lp_core.LpProblem``) solved by the two-phase primal
    bounded simplex the package used before every solve finished by the dual
    simplex: phase 1 from row slacks and signed artificials, the artificials
    driven out, rows dropped where one cannot leave, then phase 2; a
    numerical failure retries once in paranoid mode. The result is an
    ``lp_core.LpSolution``; after a dropped row its basis is short and
    ``basis_inverse`` is zero in that row's column."""
    from carbomarket.lp_core import SimplexNumericalError

    try:
        return _two_phase_attempt(problem, paranoid=False)
    except SimplexNumericalError:
        return _two_phase_attempt(problem, paranoid=True)


def _two_phase_attempt(problem, paranoid):
    from carbomarket.lp_core import LpSolution, LpStatus

    a, b, c, upper = problem.constraint_matrix, problem.rhs, problem.cost, problem.upper
    m, n = a.shape
    # per row, a column nonzero there alone whose value with every other
    # column at 0 lies within its bounds: that row's basic slack
    nonzero = a != 0.0
    single = np.flatnonzero(nonzero.sum(axis=0) == 1)
    rows = np.argmax(nonzero[:, single], axis=0)
    value = b[rows] / a[rows, single]
    fits = (value >= 0.0) & (value <= upper[single])
    basis = np.full(m, -1)
    basis[rows[fits]] = single[fits]
    art_rows = np.flatnonzero(basis < 0)
    n_art = art_rows.size
    art_sign = np.where(b[art_rows] < 0.0, -1.0, 1.0)
    art = np.zeros((m, n_art))
    art[art_rows, np.arange(n_art)] = art_sign
    a1 = np.hstack([a, art]) if n_art else a
    basis[art_rows] = n + np.arange(n_art)
    art_upper = np.full(n_art, 2.0 * np.abs(b[art_rows]).sum() + 1.0)
    engine = _TwoPhaseEngine(a1, b, np.concatenate([upper, art_upper]), basis, paranoid=paranoid)
    engine.binv = np.diag(1.0 / a1[np.arange(m), basis])
    budget = max(1000, 200 * (m + n + n_art))
    kept_rows = None
    if n_art:
        cost1 = np.zeros(n + n_art)
        cost1[n:] = 1.0
        engine.run_primal(cost1, budget)
        xb1 = engine.basic_solution()
        if float(cost1[engine.basis] @ xb1) > 1e-9 * max(1.0, float(np.abs(b).sum())):
            violations = np.zeros(m)
            for pos, col in enumerate(engine.basis):
                if col >= n:
                    violations[art_rows[col - n]] = -art_sign[col - n] * max(0.0, float(xb1[pos]))
            return LpSolution(status=LpStatus.INFEASIBLE, iterations=engine.pivots,
                              bound_flips=engine.flips, row_violations=violations)
        # drive the zero artificials out; one no real column can replace
        # marks its row as dependent on the others, and that row is dropped
        keep = np.ones(m, dtype=bool)
        for pos in range(m):
            if engine.basis[pos] < n:
                continue
            tableau_row = engine.binv[pos] @ engine.a[:, :n]
            in_basis = np.zeros(n, dtype=bool)
            in_basis[engine.basis[engine.basis < n]] = True
            tableau_row[in_basis] = 0.0
            enter = int(np.argmax(np.abs(tableau_row)))
            if abs(tableau_row[enter]) > 1e-7:
                engine.pivot(enter, pos, engine.binv @ engine.a[:, enter])
            else:
                keep[pos] = False
        if keep.all():
            engine.a, engine.upper = engine.a[:, :n], engine.upper[:n]
            engine.at_upper, engine.n = engine.at_upper[:n], n
        else:
            row_kept = np.ones(m, dtype=bool)
            row_kept[art_rows[engine.basis[~keep] - n]] = False
            kept_rows = np.flatnonzero(row_kept)
            reduced = _TwoPhaseEngine(a[row_kept], b[row_kept], upper, engine.basis[keep],
                                      at_upper=engine.at_upper[:n], paranoid=paranoid)
            reduced.pivots, reduced.flips = engine.pivots, engine.flips
            engine = reduced
            engine.refactor()

    engine.run_primal(c, budget + engine.pivots + engine.flips)
    xb = engine.xb
    ub = upper[engine.basis]
    primal = np.where(engine.at_upper, upper, 0.0)
    primal[engine.basis] = np.clip(xb, 0.0, ub)
    binv = engine.binv
    if kept_rows is not None:
        binv = np.zeros((engine.m, m))
        binv[:, kept_rows] = engine.binv
    return LpSolution(
        status=LpStatus.OPTIMAL, primal=primal, basis=engine.basis.copy(),
        duals=binv.T @ c[engine.basis], objective=float(c @ primal),
        iterations=engine.pivots, bound_flips=engine.flips,
        degenerate=bool(((np.abs(xb) <= 1e-9) | (np.abs(xb - ub) <= 1e-9)).any()),
        at_upper=np.flatnonzero(engine.at_upper), basis_inverse=binv)
