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


def pivoted_qr_independent(mat):
    """Columns of ``mat`` kept by LAPACK's QR with column pivoting under the
    rank rule |R_kk| > 1e-10 |R_00|, in pivot order."""
    from scipy.linalg import qr

    if 0 in mat.shape:
        return np.zeros(0, dtype=int)
    r, perm = qr(mat, mode="r", pivoting=True)
    diag = np.abs(np.diag(r))
    return perm[: int((diag > 1e-10 * diag[0]).sum())]


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
    from carbomarket.lp_core import LpStatus, solve

    ys = (np.arange(n_samples) + 0.5) / n_samples
    uncovered = np.ones(n_samples, dtype=bool)
    psi = np.zeros(form.g.shape[1])
    rounds = 0
    while uncovered.any():
        rounds += 1
        if rounds > 300:
            raise RuntimeError("basis discovery did not converge")
        y = float(ys[uncovered][0])
        sol = solve(_problem_at(form, y))
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
    from carbomarket.lp_core import LpStatus, solve

    ys = np.arange(0.0, 1.0 + step / 2, step)
    label = -np.ones(len(ys), dtype=int)
    region = 0
    while (label < 0).any():
        y = float(ys[label < 0][0])
        sol = solve(_problem_at(form, y))
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
    ``lp_core.solve``, then ``extract_result``, with no loss iteration."""
    from carbomarket.lp_core import LpStatus, solve
    from carbomarket.market_clearing import assemble_clearing_lp, extract_result

    problem, form = assemble_clearing_lp(case, bids, loss=loss)
    sol = solve(problem)
    assert sol.status is LpStatus.OPTIMAL and sol.outcome == "cold"
    return extract_result(case, form, sol, bids)
