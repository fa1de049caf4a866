"""Solver-level tests: oracle comparisons, duality, anti-cycling, intervals."""

from __future__ import annotations

import importlib.util
import logging
from pathlib import Path

import numpy as np
import pytest

from carbomarket import lp_core
from carbomarket.lp_core import (
    EmptyIntervalError,
    LpProblem,
    LpSolution,
    LpStatus,
    SimplexNumericalError,
    feasibility_interval,
    solve,
    solve_with_basis,
)
from carbomarket.market_clearing import assemble_clearing_lp
from oracles import (
    highs_solve,
    looped_feasibility_interval,
    random_small_case,
    tableau_simplex,
    two_phase_solve,
)


def qr_start(prob):
    """m columns of ``prob`` that form a basis: the first m that QR with
    column pivoting picks."""
    from scipy.linalg import qr

    _, pivots = qr(prob.constraint_matrix, mode="r", pivoting=True)
    return pivots[: prob.constraint_count]


def solve_from_qr(prob):
    """``prob`` solved by ``solve_with_basis`` from ``qr_start``."""
    return solve_with_basis(prob, qr_start(prob))


def random_equality_lp(rng, m=10, n=20):
    """Feasible by construction, with every column boxed in [0, 3]; the
    feasible point lies inside the box and the box can bind at the optimum."""
    a = rng.normal(size=(m, n))
    feasible_x = rng.uniform(0.5, 1.5, size=n)
    b = a @ feasible_x
    c = rng.uniform(0.1, 1.0, size=n)
    return LpProblem(cost=c, constraint_matrix=a, rhs=b, upper=np.full(n, 3.0))


def random_inequality_lp(rng, m=8, n=12):
    """A x <= b with x >= 0, assembled with explicit slack columns. Each box
    is twice the bound the rows already imply, so no box ever binds and the
    LP is the same as without them."""
    a = rng.uniform(0.0, 1.0, size=(m, n))
    b = rng.uniform(5.0, 10.0, size=m)
    c = rng.uniform(-1.0, 1.0, size=n)
    full_a = np.hstack([a, np.eye(m)])
    full_c = np.concatenate([c, np.zeros(m)])
    upper = 2.0 * np.concatenate([(b[:, None] / a).min(axis=0), b])
    return LpProblem(cost=full_c, constraint_matrix=full_a, rhs=b, upper=upper), m, n


def with_bound_rows(prob):
    """The same LP in standard form: each bound becomes a row x_j + s_j = u_j."""
    m, n = prob.constraint_count, prob.variable_count
    a = np.zeros((m + n, 2 * n))
    a[:m, :n] = prob.constraint_matrix
    a[m:, :n] = np.eye(n)
    a[m:, n:] = np.eye(n)
    return np.concatenate([prob.cost, np.zeros(n)]), a, np.concatenate([prob.rhs, prob.upper])


def assert_bounded_optimality(prob, sol, tol=1e-9):
    """Columns at 0 price nonnegative, columns at their upper bound
    nonpositive, and the columns ``at_upper`` names sit at their bound."""
    reduced = prob.cost - prob.constraint_matrix.T @ sol.duals
    nonbasic = np.setdiff1d(np.arange(prob.variable_count), sol.basis)
    at_upper = np.isin(nonbasic, sol.at_upper)
    assert np.all(sol.primal[nonbasic[~at_upper]] == 0.0)
    np.testing.assert_array_equal(sol.primal[sol.at_upper], prob.upper[sol.at_upper])
    assert reduced[nonbasic[~at_upper]].min(initial=0.0) >= -tol
    assert reduced[nonbasic[at_upper]].max(initial=0.0) <= tol


def test_one_constraint_lp():
    prob = LpProblem(cost=[1.0, 0.0], constraint_matrix=[[1.0, 1.0]], rhs=[1.0],
                     upper=[2.0, 2.0])
    sol = solve_from_qr(prob)
    assert sol.status is LpStatus.OPTIMAL
    np.testing.assert_allclose(sol.primal, [0.0, 1.0], atol=1e-12)
    assert sol.objective == pytest.approx(0.0, abs=1e-12)
    assert list(sol.basis) == [1]


def test_single_bound_binds():
    prob = LpProblem(cost=[-1.0, 0.0], constraint_matrix=[[1.0, 1.0]], rhs=[1.0],
                     upper=[2.0, 2.0])
    sol = solve_from_qr(prob)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.primal[0] == pytest.approx(1.0, abs=1e-12)
    assert sol.objective == pytest.approx(-1.0, abs=1e-12)
    assert sol.duals[0] == pytest.approx(-1.0, abs=1e-12)


def test_infeasible_reports_violation():
    prob = LpProblem(cost=[1.0, 1.0], constraint_matrix=[[1.0, 1.0]], rhs=[-1.0],
                     upper=[1.0, 1.0])
    sol = solve(prob)
    assert sol.status is LpStatus.INFEASIBLE
    assert sol.row_violations is not None
    assert sol.row_violations[0] == pytest.approx(1.0, abs=1e-9)


def test_infeasible_when_the_first_phase1_pivot_ties_on_every_artificial():
    # x must be -0.5 and 0 at once. Every column sits in several rows, so
    # each row gets an artificial, and the least infeasible point must still
    # owe row 0 its value.
    prob = LpProblem(cost=[0.0], constraint_matrix=[[-2.0], [1.5], [1.5]],
                     rhs=[1.0, 0.0, 0.0], upper=[1.0])
    sol = solve(prob)
    assert sol.status is LpStatus.INFEASIBLE
    assert np.abs(sol.row_violations).max() > 0.0


def test_upper_bounds_must_be_finite_and_nonnegative():
    # every column is boxed, so no LP can be unbounded
    for bound in (np.inf, np.nan, -1.0):
        with pytest.raises(ValueError, match="upper bounds must be finite and nonnegative"):
            LpProblem(cost=[-1.0, 0.0], constraint_matrix=[[1.0, -1.0]], rhs=[1.0],
                      upper=[bound, 1.0])


def test_random_lps_match_tableau_oracle():
    rng = np.random.default_rng(20240501)
    for _ in range(30):
        prob = random_equality_lp(rng)
        sol = solve_from_qr(prob)
        status, _, obj = tableau_simplex(*with_bound_rows(prob))
        assert sol.status is LpStatus.OPTIMAL
        assert status == "optimal"
        assert abs(sol.objective - obj) <= 1e-7 * max(1.0, abs(obj))


def test_solution_invariants_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(25):
        prob = random_equality_lp(rng, m=8, n=16)
        sol = solve_from_qr(prob)
        assert sol.status is LpStatus.OPTIMAL
        assert_bounded_optimality(prob, sol)
        residual = prob.constraint_matrix @ sol.primal - prob.rhs
        assert np.abs(residual).max() <= 1e-8 * max(1.0, np.abs(prob.rhs).max())


def test_strong_duality_and_complementary_slackness():
    rng = np.random.default_rng(99)
    for _ in range(25):
        prob, m, n = random_inequality_lp(rng)
        sol = solve_from_qr(prob)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.at_upper.size == 0  # the boxes never bind
        dual_obj = float(sol.duals @ prob.rhs)
        assert abs(dual_obj - sol.objective) <= 1e-7 * max(1.0, abs(sol.objective))
        slacks = sol.primal[n:]
        assert np.abs(sol.duals * slacks).max() <= 1e-7
        reduced = prob.cost - prob.constraint_matrix.T @ sol.duals
        assert np.abs(reduced * sol.primal).max() <= 1e-7


def test_beale_cycling_instance_terminates():
    # Degenerate instance known to cycle under naive most-negative pivoting.
    a = np.array(
        [
            [0.25, -60.0, -1.0 / 25.0, 9.0, 1.0, 0.0, 0.0],
            [0.5, -90.0, -1.0 / 50.0, 3.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
        ]
    )
    c = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
    b = np.array([0.0, 0.0, 1.0])
    # the box holds the optimum (1/25, 0, 1, 0, 3/100, 0, 0) inside
    prob = LpProblem(cost=c, constraint_matrix=a, rhs=b, upper=np.full(7, 10.0))
    sol = solve_from_qr(prob)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(-0.05, abs=1e-10)
    assert sol.iterations <= 50 * prob.variable_count


def test_degenerate_duplicated_rhs_instances():
    rng = np.random.default_rng(321)
    for _ in range(10):
        m, n = 6, 10
        a = rng.uniform(0.0, 1.0, size=(m, n))
        sparse_x = np.zeros(n)
        sparse_x[rng.choice(n - 1, size=2, replace=False)] = 1.0
        b = a @ sparse_x
        a[3] = a[2] * 1.0
        a[3, -1] += 1.0
        b[3] = b[2] + sparse_x[-1]
        c = rng.uniform(0.1, 1.0, size=n)
        prob = LpProblem(cost=c, constraint_matrix=a, rhs=b, upper=np.full(n, 2.0))
        sol = solve_from_qr(prob)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.iterations <= 50 * prob.variable_count
        status, _, obj = tableau_simplex(*with_bound_rows(prob))
        assert status == "optimal"
        assert abs(sol.objective - obj) <= 1e-7 * max(1.0, abs(obj))


def test_warm_start_is_fixed_point():
    rng = np.random.default_rng(11)
    prob = random_equality_lp(rng)
    cold = solve_from_qr(prob)
    warm = solve_with_basis(prob, cold.basis)
    assert warm.warm_started and cold.warm_started
    assert cold.warm_started and warm.warm_started
    assert warm.iterations == 0
    assert warm.objective == pytest.approx(cold.objective, abs=1e-9)


def test_warm_start_equivalence_on_perturbed_rhs():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        prob = random_equality_lp(rng, m=6, n=12)
        cold = solve_from_qr(prob)
        assert cold.status is LpStatus.OPTIMAL
        bumped = LpProblem(
            cost=prob.cost,
            constraint_matrix=prob.constraint_matrix,
            rhs=prob.rhs * (1.0 + rng.uniform(-0.05, 0.05, size=prob.constraint_count)),
            upper=prob.upper,
        )
        re_cold = two_phase_solve(bumped)
        warm = solve_with_basis(bumped, cold.basis)
        assert warm.status is re_cold.status
        if warm.status is LpStatus.OPTIMAL:
            assert abs(warm.objective - re_cold.objective) <= 1e-7 * max(
                1.0, abs(re_cold.objective)
            )


def test_lu_factor_rejects_singular_bases_and_inverts_regular_ones():
    from scipy.linalg import lu_factor, lu_solve

    with pytest.raises(lp_core.SimplexNumericalError, match="singular"):
        lp_core.lu_factor(np.array([[1.0, 2.0], [2.0, 4.0]]))
    rng = np.random.default_rng(1414)
    u, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    v, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    with pytest.raises(lp_core.SimplexNumericalError, match="singular"):
        lp_core.lu_factor(u @ np.diag([1.0, 2.0, 3.0, 1.0, 2.0, 1e-14]) @ v.T)
    prob = random_equality_lp(rng)
    bmat = prob.constraint_matrix[:, solve_from_qr(prob).basis]
    expected = lu_solve(lu_factor(bmat), np.eye(len(bmat)))
    np.testing.assert_allclose(lp_core.lu_factor(bmat), expected, rtol=0.0,
                               atol=1e-12 * np.abs(expected).max())


def test_the_tracer_counts_every_factorization(monkeypatch):
    """The benchmark's tracer counts LUs by wrapping ``lp_core.lu_factor``:
    over 24 a1 periods it must see every inverse the solver computes."""
    from carbomarket.simulator import ScenarioConfig, run_horizon
    from carbomarket.synthetic import replica30_case

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    counts = {"inv": 0, "lu_factor": 0}
    inv, factor = np.linalg.inv, lp_core.lu_factor

    def counting_inv(bmat):
        counts["inv"] += 1
        return inv(bmat)

    def counting_factor(bmat):
        counts["lu_factor"] += 1
        return factor(bmat)

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    monkeypatch.setattr(lp_core, "lu_factor", counting_factor)
    tracer = tracing.Tracer()
    tracing.install(tracer, round_is_run_period=True)
    try:
        run_horizon(replica30_case(horizon=24, seed=7), ScenarioConfig.a1(horizon=24))
    finally:
        tracer.restore()
    totals = tracing.summarize(tracer.spans)
    assert totals["rounds"] == 24
    assert counts["inv"] == counts["lu_factor"] == totals["lu_factor.calls"]
    # a1 runs no sweep, and every warm clearing factors its start basis
    assert totals["market_clearing.lu"] == counts["inv"] >= 23


def test_a_singular_or_missized_start_raises():
    a = np.array([[1.0, 1.0, 2.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    b = np.array([2.0, 1.0])
    c = np.array([1.0, 1.0, 3.0, 0.5])
    prob = LpProblem(cost=c, constraint_matrix=a, rhs=b, upper=np.full(4, 5.0))
    assert solve_with_basis(prob, [0, 3]).objective == pytest.approx(2.5, abs=1e-12)
    # column 1 equals column 0: the paranoid retry fails to factor it too
    with pytest.raises(lp_core.SimplexNumericalError, match="singular"):
        solve_with_basis(prob, [0, 1])
    # too few columns, a column twice, or one out of range
    for basis in ([3], [3, 3], [0, 4], [-1, 3], [0, 1, 3]):
        with pytest.raises(ValueError, match="a start basis must be 2 distinct columns of 4"):
            solve_with_basis(prob, basis)


def test_a_problem_with_a_new_rhs_checks_only_the_rhs():
    prob = LpProblem(cost=[1.0, 2.0], constraint_matrix=[[1.0, 1.0]], rhs=[1.0],
                     upper=[5.0, 5.0])
    moved = prob.with_rhs(np.array([[3.0]]))
    assert moved.rhs.shape == (1,) and moved.rhs[0] == 3.0 and prob.rhs[0] == 1.0
    assert moved.constraint_matrix is prob.constraint_matrix
    assert moved.cost is prob.cost and moved.upper is prob.upper
    assert solve_from_qr(moved).objective == pytest.approx(3.0)
    with pytest.raises(ValueError, match="2 rhs entries for 1 rows"):
        prob.with_rhs([1.0, 2.0])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            prob.with_rhs([bad])


def basic_solution_and_gains(prob, basis, at_upper=()):
    """x_B with the ``at_upper`` columns at their bounds, and per column how
    much the objective falls per unit moved off its bound (> 0: dual
    infeasible)."""
    upper_set = np.zeros(prob.variable_count, dtype=bool)
    upper_set[list(at_upper)] = True
    a_b = prob.constraint_matrix[:, basis]
    xb = np.linalg.solve(a_b, prob.rhs - prob.constraint_matrix[:, upper_set]
                         @ prob.upper[upper_set])
    y = np.linalg.solve(a_b.T, prob.cost[basis])
    reduced = prob.cost - prob.constraint_matrix.T @ y
    reduced[basis] = 0.0
    return xb, np.where(upper_set, reduced, -reduced)


def test_warm_start_from_a_basis_neither_primal_nor_dual_feasible_flips_then_finishes():
    # moving each nonbasic column to the bound its reduced cost favours makes
    # any basis of a boxed LP dual feasible, so the dual simplex finishes it
    rng = np.random.default_rng(4242)
    started = 0
    for _ in range(200):
        prob = random_equality_lp(rng, m=8, n=16)
        old = solve_from_qr(prob)
        assert old.status is LpStatus.OPTIMAL
        moved = LpProblem(
            cost=prob.cost * rng.uniform(0.3, 1.7, size=prob.variable_count),
            constraint_matrix=prob.constraint_matrix,
            rhs=prob.constraint_matrix @ rng.uniform(0.5, 1.5, size=prob.variable_count),
            upper=prob.upper,
        )
        xb, gain = basic_solution_and_gains(moved, old.basis, old.at_upper)
        primal_feasible = xb.min() >= -1e-6 and (xb - moved.upper[old.basis]).max() <= 1e-6
        if primal_feasible or gain.max() <= 1e-6:
            continue  # still primal or dual feasible: not the case under test
        warm = solve_with_basis(moved, old.basis, old.at_upper)
        cold = two_phase_solve(moved)
        assert warm.warm_started
        assert warm.bound_flips >= int((gain > 1e-6).sum())
        assert warm.status is LpStatus.OPTIMAL and cold.status is LpStatus.OPTIMAL
        assert abs(warm.objective - cold.objective) <= 1e-7 * max(1.0, abs(cold.objective))
        assert_bounded_optimality(moved, warm)
        started += 1
    assert started >= 20


@pytest.mark.parametrize("move_cost", [False, True])
def test_infeasible_problem_on_the_warm_path_reports_row_violations(move_cost):
    rng = np.random.default_rng(77)
    prob, _, _ = random_inequality_lp(rng)
    old = solve_from_qr(prob)
    assert old.status is LpStatus.OPTIMAL
    rhs = prob.rhs.copy()
    rhs[2] = -1.0  # nonnegative row coefficients and slack cannot sum below zero
    cost = prob.cost.copy()
    if move_cost:
        # make the old basis dual infeasible too, so the start flips columns
        # to their upper bounds before the dual simplex runs
        nonbasic = np.setdiff1d(np.arange(prob.variable_count), old.basis)
        cost[nonbasic] -= 5.0
    moved = LpProblem(cost=cost, constraint_matrix=prob.constraint_matrix, rhs=rhs,
                      upper=prob.upper)
    xb, gain = basic_solution_and_gains(moved, old.basis)
    assert xb.min() < 0.0 and (gain.max() > 1e-9) == move_cost
    warm = solve_with_basis(moved, old.basis)
    assert warm.status is LpStatus.INFEASIBLE
    assert not warm.warm_started
    assert warm.row_violations is None
    # phase 1 explains it: row 2's activity stays above its rhs
    explained = solve(moved)
    assert explained.status is LpStatus.INFEASIBLE
    assert int(np.argmax(np.abs(explained.row_violations))) == 2
    assert explained.row_violations[2] > 0.0


def basis_solution(a, basis, at_upper=()):
    """An optimal-looking solution on a hand-made basis, with its inverse."""
    basis = np.asarray(basis, dtype=int)
    return LpSolution(status=LpStatus.OPTIMAL, basis=basis,
                      at_upper=np.asarray(at_upper, dtype=int),
                      basis_inverse=np.linalg.inv(np.asarray(a, dtype=float)[:, basis]))


def test_feasibility_interval_parameter_free():
    a = np.eye(2)
    interval = feasibility_interval(basis_solution(a, [0, 1]), a, np.zeros((2, 1)),
                                    [1.0, 2.0], [1.0], np.full(2, 10.0))
    assert interval == (-np.inf, np.inf)


def test_feasibility_interval_single_root():
    a = np.array([[1.0]])
    lo, hi = feasibility_interval(basis_solution(a, [0]), a, np.array([[-1.0]]), [1.0],
                                  [1.0], [np.inf])
    assert lo == -np.inf
    assert hi == pytest.approx(1.0, abs=1e-8)


def test_feasibility_interval_empty_raises():
    a = np.array([[1.0]])
    with pytest.raises(EmptyIntervalError):
        feasibility_interval(basis_solution(a, [0]), a, np.array([[0.0]]), [-1.0], [1.0],
                             [10.0])


def test_feasibility_interval_equals_the_loop_over_basic_variables():
    # x_B = y u + v with the identity as basis: u and v are drawn directly,
    # with rows that do not move (u = 0 or within 1e-11 of it), infinite
    # bounds, and rows outside their bounds, so every rule and both errors run
    rng = np.random.default_rng(4242)
    outcomes = {"interval": 0, "basis infeasible for every parameter value": 0,
                "empty feasibility interval": 0}
    for _ in range(600):
        m = int(rng.integers(1, 7))
        n_upper = int(rng.integers(0, 3))
        a = np.hstack([np.eye(m), rng.uniform(-1.0, 1.0, (m, n_upper))])
        upper = np.concatenate([rng.choice([2.0, 5.0, np.inf], m), rng.uniform(0.0, 2.0, n_upper)])
        at_upper = np.flatnonzero(rng.random(n_upper) < 0.5) + m
        u = rng.choice([0.0, 5e-12, -5e-12, 1.0, -1.0], m) * rng.uniform(0.5, 3.0, m)
        h = rng.uniform(-1.0, 6.0, m)
        sol = basis_solution(a, np.arange(m), at_upper)
        g, ray = u[:, None], np.array([1.0])
        try:
            want = looped_feasibility_interval(sol, a, g, h, ray, upper)
        except EmptyIntervalError as exc:
            with pytest.raises(EmptyIntervalError, match=str(exc)):
                feasibility_interval(sol, a, g, h, ray, upper)
            outcomes[str(exc)] += 1
            continue
        got = feasibility_interval(sol, a, g, h, ray, upper)
        assert got == want and all(type(x) is float for x in got)
        outcomes["interval"] += 1
    assert min(outcomes.values()) >= 50, outcomes


def test_parametric_breakpoints_match_grid_scan():
    # Two supply variables with caps filling a ramping requirement 10y:
    # cheap unit saturates at y = 0.4, where the optimal basis changes.
    a = np.array(
        [
            [1.0, 1.0, 0.0, 0.0],
            [1.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 1.0],
        ]
    )
    c = np.array([1.0, 2.0, 0.0, 0.0])
    g = np.array([[10.0], [0.0], [0.0]])
    h = np.array([0.0, 4.0, 8.0])
    ray = np.array([1.0])

    def solve_at(y):
        # the rows cap the columns at 10, 4, 8 and 8, so this box never binds
        return solve_from_qr(LpProblem(cost=c, constraint_matrix=a, rhs=(g @ (y * ray) + h),
                               upper=np.full(4, 20.0)))

    scan_breaks = []
    prev_basis = None
    for y in np.arange(0.0, 1.0 + 1e-9, 1e-3):
        sol = solve_at(y)
        key = tuple(sorted(sol.basis))
        if prev_basis is not None and key != prev_basis:
            scan_breaks.append(y)
        prev_basis = key

    sol_low = solve_at(0.2)
    lo, hi = feasibility_interval(sol_low, a, g, h, ray, np.full(4, 20.0))
    assert lo <= 0.2 <= hi
    assert hi == pytest.approx(0.4, abs=1e-6)
    assert len(scan_breaks) == 1
    assert scan_breaks[0] == pytest.approx(0.4, abs=2e-3)


def test_pivot_log_is_silent_by_default_and_traces_pivots_at_debug(caplog):
    prob = LpProblem(cost=[0.0, 1.0], constraint_matrix=[[1.0, 1.0]], rhs=[1.0],
                     upper=[2.0, 2.0])
    unmeetable = prob.with_rhs([5.0])
    solve_with_basis(prob, [1])
    solve(unmeetable)
    assert [r for r in caplog.records if r.name == lp_core.logger.name] == []
    with caplog.at_level(logging.DEBUG, logger=lp_core.logger.name):
        # column 0 moves to its bound 2, which drives column 1 to -1, and
        # one dual pivot exchanges them
        warm = solve_with_basis(prob, [1])
        explained = solve(unmeetable)
    assert warm.warm_started and warm.iterations == 1
    assert explained.row_violations[0] == pytest.approx(-1.0, abs=1e-12)
    lines = [r.getMessage() for r in caplog.records if r.name == lp_core.logger.name]
    phase1_at = lines.index("phase1 m=1 n=2")
    assert lines[0] == "warm m=1 n=2 paranoid=0"
    assert [line.split(" step=")[0] for line in lines[1:phase1_at]] == [
        "dual pivot=0 enter=0 leave=1"]
    # phase 1 is the dual simplex on the problem with an artificial column
    assert lines[phase1_at + 1] == "warm m=1 n=3 paranoid=0"


def test_paranoid_mode_matches_fast_path():
    # the retry discipline after a singular-basis failure must land on the
    # same optimum the ordinary path reports
    rng = np.random.default_rng(90210)
    for k in range(20):
        if k % 2 == 0:
            prob = random_equality_lp(rng, m=9, n=18)
        else:
            prob, _, _ = random_inequality_lp(rng)
        start, none_upper = qr_start(prob), np.zeros(prob.variable_count, dtype=bool)
        fast = lp_core._warm_attempt(prob, start, none_upper, None)
        slow = lp_core._warm_attempt(prob, start, none_upper, None, paranoid=True)
        assert fast.status is LpStatus.OPTIMAL
        assert slow.status is LpStatus.OPTIMAL
        scale = max(1.0, abs(fast.objective))
        assert abs(fast.objective - slow.objective) <= 1e-7 * scale


def test_numerical_failure_on_the_fast_path_retries_in_paranoid_mode(monkeypatch, caplog):
    prob = random_equality_lp(np.random.default_rng(4242), m=9, n=18)
    fast = solve_from_qr(prob)
    attempt = lp_core._warm_attempt
    modes = []

    def failing_fast_path(*args, paranoid=False):
        modes.append(paranoid)
        if not paranoid:
            raise lp_core.SimplexNumericalError("forced")
        return attempt(*args, paranoid=paranoid)

    monkeypatch.setattr(lp_core, "_warm_attempt", failing_fast_path)
    with caplog.at_level(logging.DEBUG, logger=lp_core.logger.name):
        retried = solve_from_qr(prob)
    assert modes == [False, True]
    assert retried.status is LpStatus.OPTIMAL
    assert retried.objective == pytest.approx(fast.objective, rel=1e-9, abs=1e-9)
    np.testing.assert_allclose(retried.primal, fast.primal, rtol=0, atol=1e-9)
    assert "paranoid=1" in caplog.text


def random_bounded_lp(rng, m=6, n=14):
    """Equality LP with tight boxes on most columns and wide ones on the
    rest, feasible by construction; costs of either sign, so bounds bind
    from both sides."""
    a = rng.normal(size=(m, n))
    upper = rng.uniform(0.5, 2.0, size=n)
    upper[rng.random(n) < 0.25] = 50.0
    b = a @ (rng.uniform(0.1, 0.9, size=n) * np.minimum(upper, 2.0))
    c = rng.uniform(-1.0, 1.0, size=n)
    return LpProblem(cost=c, constraint_matrix=a, rhs=b, upper=upper)


def test_bounded_lps_match_tableau_oracle_on_bound_rows():
    rng = np.random.default_rng(31337)
    statuses = []
    for _ in range(40):
        prob = random_bounded_lp(rng)
        sol = solve_from_qr(prob)
        status, _, obj = tableau_simplex(*with_bound_rows(prob))
        assert sol.status.value == status
        statuses.append(status)
        if status != "optimal":
            continue
        assert abs(sol.objective - obj) <= 1e-7 * max(1.0, abs(obj))
        x = sol.primal
        assert np.abs(prob.constraint_matrix @ x - prob.rhs).max() <= 1e-8
        assert x.min() >= 0.0 and (x <= prob.upper).all()
        assert_bounded_optimality(prob, sol)
    assert statuses.count("optimal") >= 30
    assert sum(solve_from_qr(random_bounded_lp(rng)).bound_flips > 0 for _ in range(10)) >= 5


def test_bounded_warm_start_after_rhs_change_reports_warm():
    rng = np.random.default_rng(8080)
    dual_steps = 0
    for _ in range(60):
        prob = random_bounded_lp(rng)
        prob = LpProblem(cost=np.abs(prob.cost), constraint_matrix=prob.constraint_matrix,
                         rhs=prob.rhs, upper=prob.upper)
        cold = solve_from_qr(prob)
        assert cold.status is LpStatus.OPTIMAL
        point = rng.uniform(0.1, 0.9, size=prob.variable_count) * np.minimum(prob.upper, 2.0)
        moved = LpProblem(cost=prob.cost, constraint_matrix=prob.constraint_matrix,
                          rhs=prob.constraint_matrix @ point, upper=prob.upper)
        warm = solve_with_basis(moved, cold.basis, cold.at_upper)
        re_cold = two_phase_solve(moved)
        assert warm.warm_started
        assert abs(warm.objective - re_cold.objective) <= 1e-7 * max(1.0, abs(re_cold.objective))
        dual_steps += warm.iterations > 0
        # the start of a solved problem is already optimal
        again = solve_with_basis(moved, warm.basis, warm.at_upper)
        assert again.warm_started and again.iterations == 0 and again.bound_flips == 0
    assert dual_steps >= 20


def interval_by_solve(sol, a, g, h, ray, upper):
    """Reference for ``feasibility_interval``: factor A_B with np.linalg.solve."""
    a_b = a[:, sol.basis]
    u = np.linalg.solve(a_b, g @ ray)
    v = np.linalg.solve(a_b, h - a[:, sol.at_upper] @ upper[sol.at_upper])
    ub, tol = upper[sol.basis], lp_core.FEASIBILITY_TOL
    rising, falling = u > 1e-11, u < -1e-11
    lo = max(((-tol - v) / u)[rising].max(initial=-np.inf),
             ((ub + tol - v) / u)[falling].max(initial=-np.inf))
    hi = min(((ub + tol - v) / u)[rising].min(initial=np.inf),
             ((-tol - v) / u)[falling].min(initial=np.inf))
    return lo, hi


def test_basis_inverse_inverts_the_basis_and_gives_the_intervals():
    # rhs(y) = A (x0 + y (x1 - x0)): solved from the QR start at y = 0, then
    # from that basis at y = 1
    rng = np.random.default_rng(2718)
    eta_updated = 0
    for _ in range(40):
        prob = random_bounded_lp(rng)
        a, upper = prob.constraint_matrix, prob.upper
        x0, x1 = (rng.uniform(0.1, 0.9, size=(2, prob.variable_count))
                  * np.minimum(upper, 2.0))
        g, h, ray = (a @ (x1 - x0))[:, None], a @ x0, np.array([1.0])
        cold = solve_from_qr(LpProblem(cost=np.abs(prob.cost), constraint_matrix=a, rhs=h,
                                       upper=upper))
        warm = solve_with_basis(LpProblem(cost=np.abs(prob.cost), constraint_matrix=a,
                                          rhs=g @ ray + h, upper=upper),
                                cold.basis, cold.at_upper)
        assert cold.warm_started and warm.warm_started
        eta_updated += warm.iterations > 0
        for sol in (cold, warm):
            eye = sol.basis_inverse @ a[:, sol.basis]
            assert np.abs(eye - np.eye(prob.constraint_count)).max() <= 1e-9
            got = feasibility_interval(sol, a, g, h, ray, upper)
            want = interval_by_solve(sol, a, g, h, ray, upper)
            for x, ref in zip(got, want):
                assert x == ref or abs(x - ref) <= 1e-9 * max(1.0, abs(ref))
        assert feasibility_interval(cold, a, g, h, ray, upper)[0] <= 0.0
        assert feasibility_interval(warm, a, g, h, ray, upper)[1] >= 1.0
    assert eta_updated >= 30


def test_feasibility_interval_is_cut_off_by_a_basic_upper_bound():
    # the cheap unit (cap 4) and the dear one (cap 8) fill a demand of 10 y
    a = np.array([[1.0, 1.0]])
    c = np.array([1.0, 2.0])
    upper = np.array([4.0, 8.0])
    g = np.array([[10.0]])
    h = np.array([0.0])
    ray = np.array([1.0])

    def solve_at(y):
        return solve_from_qr(LpProblem(cost=c, constraint_matrix=a, rhs=g @ (y * ray) + h,
                                       upper=upper))

    low = solve_at(0.2)
    assert list(low.basis) == [0] and low.at_upper.size == 0
    lo, hi = feasibility_interval(low, a, g, h, ray, upper)
    assert lo == pytest.approx(0.0, abs=1e-8)
    assert hi == pytest.approx(0.4, abs=1e-8)  # column 0 reaches its bound 4
    # without the bound the same basis would look feasible for every y >= 0
    assert feasibility_interval(low, a, g, h, ray, np.full(2, np.inf))[1] == np.inf

    high = solve_at(0.9)
    assert list(high.basis) == [1] and list(high.at_upper) == [0]
    lo, hi = feasibility_interval(high, a, g, h, ray, upper)
    assert lo == pytest.approx(0.4, abs=1e-8)
    assert hi == pytest.approx(1.2, abs=1e-8)


def test_solve_with_basis_adopts_only_an_inverse_of_its_own_basis(monkeypatch):
    rng = np.random.default_rng(5150)
    prob = random_bounded_lp(rng)
    cold = solve_from_qr(prob)
    point = rng.uniform(0.1, 0.9, size=prob.variable_count) * np.minimum(prob.upper, 2.0)
    moved = LpProblem(cost=prob.cost, constraint_matrix=prob.constraint_matrix,
                      rhs=prob.constraint_matrix @ point, upper=prob.upper)
    factored = []
    factor = lp_core.lu_factor

    def counting(*args, **kwargs):
        factored.append(1)
        return factor(*args, **kwargs)

    monkeypatch.setattr(lp_core, "lu_factor", counting)

    def warm(basis_inverse):
        factored.clear()
        sol = solve_with_basis(moved, cold.basis, cold.at_upper, basis_inverse=basis_inverse)
        assert sol.warm_started
        return sol, len(factored)

    ref, count = warm(None)
    assert count == 1 and ref.iterations > 0
    kept = cold.basis_inverse.copy()
    exact, count = warm(cold.basis_inverse)
    assert count == 0
    # the pivots updated a copy; the cold solution keeps its own inverse
    assert np.array_equal(cold.basis_inverse, kept)
    assert np.array_equal(exact.basis, ref.basis)
    np.testing.assert_allclose(exact.primal, ref.primal, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(exact.duals, ref.duals, rtol=0.0, atol=1e-12)

    perturbed = cold.basis_inverse.copy()
    perturbed[2, 3] += 1e-6
    assert not np.array_equal(ref.basis, cold.basis)
    for wrong in (perturbed, cold.basis_inverse[:-1], ref.basis_inverse):
        sol, count = warm(wrong)
        assert count == 1
        for field in ("basis", "primal", "duals"):
            assert np.array_equal(getattr(sol, field), getattr(ref, field))


def test_a_run_of_degenerate_pivots_switches_to_blands_rule(caplog):
    # zero cost, sum (1 + j/100) x_j = 5.8 over ten columns in [0, 1], from
    # start basis [0]: every pivot is dual degenerate. The largest tableau
    # entry enters first (columns 9, 8, 7, 6); the run then exceeds 3m = 3,
    # and Bland's rule lets the lowest index, column 1, enter fifth
    prob = LpProblem(cost=np.zeros(10), constraint_matrix=[1.0 + np.arange(10) / 100.0],
                     rhs=[5.8], upper=np.ones(10))
    with caplog.at_level(logging.DEBUG, logger=lp_core.logger.name):
        sol = solve_with_basis(prob, [0])
    assert sol.status is LpStatus.OPTIMAL and sol.iterations == 5 and sol.bound_flips == 0
    assert sol.basis.tolist() == [1] and sol.at_upper.tolist() == [0, 6, 7, 8, 9]
    assert sol.primal[1] == pytest.approx(0.5 / 1.01, rel=1e-12)
    pivots = [r.getMessage() for r in caplog.records if r.getMessage().startswith("dual pivot=")]
    assert [line.split(" leave=")[0] for line in pivots] == [
        "dual pivot=0 enter=9", "dual pivot=1 enter=8", "dual pivot=2 enter=7",
        "dual pivot=3 enter=6", "dual pivot=4 enter=1"]
    assert all(" step=0 " in line for line in pivots)


def test_an_exhausted_pivot_budget_raises_after_the_paranoid_retry(monkeypatch, caplog):
    # sum x = 5 over ten columns in [0, 1] takes four pivots from basis [0]
    prob = LpProblem(cost=np.zeros(10), constraint_matrix=np.ones((1, 10)), rhs=[5.0],
                     upper=np.ones(10))
    monkeypatch.setattr(lp_core, "_pivot_budget", lambda m, n: 1)
    with caplog.at_level(logging.DEBUG, logger=lp_core.logger.name):
        with pytest.raises(SimplexNumericalError, match="pivot budget exhausted"):
            solve_with_basis(prob, [0])
    headers = [r.getMessage() for r in caplog.records if r.getMessage().startswith("warm ")]
    assert headers == ["warm m=1 n=10 paranoid=0", "warm m=1 n=10 paranoid=1"]


def test_refactoring_before_every_pivot_on_an_updated_inverse_keeps_the_optimum(monkeypatch):
    # at RISKY_PIVOT_TOL = 1 every pivot taken on an eta-updated inverse is
    # put off for a fresh factorization first; clearing LPs solved from a QR
    # start take several pivots, and the optimum and duals must not move
    factorizations, factor = [], lp_core.lu_factor

    def counting(bmat):
        factorizations.append(bmat.shape)
        return factor(bmat)

    monkeypatch.setattr(lp_core, "lu_factor", counting)
    rng = np.random.default_rng(2718)
    problems = [assemble_clearing_lp(*random_small_case(rng, min_output_prob=0.3))[0]
                for _ in range(15)]
    plain = [solve_from_qr(prob) for prob in problems]
    plain_count = len(factorizations)
    monkeypatch.setattr(lp_core, "RISKY_PIVOT_TOL", 1.0)
    for prob, want in zip(problems, plain):
        got = solve_from_qr(prob)
        assert got.status is LpStatus.OPTIMAL
        assert got.objective == pytest.approx(want.objective, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(got.duals, want.duals, rtol=1e-12, atol=1e-12)
        oracle = highs_solve(prob)
        assert abs(got.objective - oracle.fun) <= 1e-9 * max(1.0, abs(oracle.fun))
        scale = max(1.0, np.abs(oracle.eqlin.marginals).max())
        assert np.abs(got.duals - oracle.eqlin.marginals).max() <= 1e-9 * scale
    # the patched solves factored more than their start bases
    assert len(factorizations) - plain_count > plain_count == len(problems)
