"""Solver-level tests: oracle comparisons, duality, anti-cycling, intervals."""

from __future__ import annotations

import numpy as np
import pytest

from carbomarket import lp_core
from carbomarket.lp_core import (
    EmptyIntervalError,
    LpProblem,
    LpStatus,
    feasibility_interval,
    solve,
    solve_with_basis,
)
from oracles import tableau_simplex


def random_equality_lp(rng, m=10, n=20):
    a = rng.normal(size=(m, n))
    feasible_x = rng.uniform(0.5, 1.5, size=n)
    b = a @ feasible_x
    c = rng.uniform(0.1, 1.0, size=n)
    return LpProblem(cost=c, constraint_matrix=a, rhs=b)


def random_inequality_lp(rng, m=8, n=12):
    """A x <= b with x >= 0, assembled with explicit slack columns."""
    a = rng.uniform(0.0, 1.0, size=(m, n))
    b = rng.uniform(5.0, 10.0, size=m)
    c = rng.uniform(-1.0, 1.0, size=n)
    full_a = np.hstack([a, np.eye(m)])
    full_c = np.concatenate([c, np.zeros(m)])
    return LpProblem(cost=full_c, constraint_matrix=full_a, rhs=b), m, n


def test_one_constraint_lp():
    prob = LpProblem(cost=[1.0, 0.0], constraint_matrix=[[1.0, 1.0]], rhs=[1.0])
    sol = solve(prob)
    assert sol.status is LpStatus.OPTIMAL
    np.testing.assert_allclose(sol.primal, [0.0, 1.0], atol=1e-12)
    assert sol.objective == pytest.approx(0.0, abs=1e-12)
    assert list(sol.basis) == [1]


def test_single_bound_binds():
    prob = LpProblem(cost=[-1.0, 0.0], constraint_matrix=[[1.0, 1.0]], rhs=[1.0])
    sol = solve(prob)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.primal[0] == pytest.approx(1.0, abs=1e-12)
    assert sol.objective == pytest.approx(-1.0, abs=1e-12)
    assert sol.duals[0] == pytest.approx(-1.0, abs=1e-12)


def test_infeasible_reports_violation():
    prob = LpProblem(cost=[1.0, 1.0], constraint_matrix=[[1.0, 1.0]], rhs=[-1.0])
    sol = solve(prob)
    assert sol.status is LpStatus.INFEASIBLE
    assert sol.row_violations is not None
    assert sol.row_violations[0] == pytest.approx(1.0, abs=1e-9)


def test_unbounded():
    prob = LpProblem(cost=[-1.0, 0.0], constraint_matrix=[[1.0, -1.0]], rhs=[1.0])
    sol = solve(prob)
    assert sol.status is LpStatus.UNBOUNDED


def test_random_lps_match_tableau_oracle():
    rng = np.random.default_rng(20240501)
    for _ in range(30):
        prob = random_equality_lp(rng)
        sol = solve(prob)
        status, _, obj = tableau_simplex(prob.cost, prob.constraint_matrix, prob.rhs)
        assert sol.status is LpStatus.OPTIMAL
        assert status == "optimal"
        assert abs(sol.objective - obj) <= 1e-7 * max(1.0, abs(obj))


def test_solution_invariants_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(25):
        prob = random_equality_lp(rng, m=8, n=16)
        sol = solve(prob)
        assert sol.status is LpStatus.OPTIMAL
        nonbasic = np.setdiff1d(np.arange(prob.variable_count), sol.basis)
        assert np.all(sol.primal[nonbasic] == 0.0)
        residual = prob.constraint_matrix[:, sol.basis] @ sol.primal[sol.basis] - prob.rhs
        assert np.abs(residual).max() <= 1e-8 * max(1.0, np.abs(prob.rhs).max())
        reduced = prob.cost - prob.constraint_matrix.T @ sol.duals
        assert reduced[nonbasic].min(initial=0.0) >= -1e-9


def test_strong_duality_and_complementary_slackness():
    rng = np.random.default_rng(99)
    for _ in range(25):
        prob, m, n = random_inequality_lp(rng)
        sol = solve(prob)
        assert sol.status is LpStatus.OPTIMAL
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
    prob = LpProblem(cost=c, constraint_matrix=a, rhs=b)
    sol = solve(prob)
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
        prob = LpProblem(cost=c, constraint_matrix=a, rhs=b)
        sol = solve(prob)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.iterations <= 50 * prob.variable_count
        status, _, obj = tableau_simplex(c, a, b)
        assert status == "optimal"
        assert abs(sol.objective - obj) <= 1e-7 * max(1.0, abs(obj))


def test_redundant_row_is_dropped():
    a = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0], [0.0, 1.0, 1.0]])
    b = np.array([1.0, 2.0, 1.5])
    c = np.array([1.0, 2.0, 0.5])
    prob = LpProblem(cost=c, constraint_matrix=a, rhs=b)
    sol = solve(prob)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.kept_rows is not None and len(sol.kept_rows) == 2
    assert sol.duals.shape == (3,)
    np.testing.assert_allclose(a @ sol.primal, b, atol=1e-9)


def test_warm_start_is_fixed_point():
    rng = np.random.default_rng(11)
    prob = random_equality_lp(rng)
    cold = solve(prob)
    warm = solve_with_basis(prob, cold.basis)
    assert warm.warm_started and warm.outcome == "warm"
    assert cold.outcome == "cold"
    assert warm.iterations == 0
    assert warm.objective == pytest.approx(cold.objective, abs=1e-9)


def test_warm_start_equivalence_on_perturbed_rhs():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        prob = random_equality_lp(rng, m=6, n=12)
        cold = solve(prob)
        assert cold.status is LpStatus.OPTIMAL
        bumped = LpProblem(
            cost=prob.cost,
            constraint_matrix=prob.constraint_matrix,
            rhs=prob.rhs * (1.0 + rng.uniform(-0.05, 0.05, size=prob.constraint_count)),
        )
        re_cold = solve(bumped)
        warm = solve_with_basis(bumped, cold.basis)
        assert warm.status is re_cold.status
        if warm.status is LpStatus.OPTIMAL:
            assert abs(warm.objective - re_cold.objective) <= 1e-7 * max(
                1.0, abs(re_cold.objective)
            )


def test_warm_start_singular_fallback():
    a = np.array([[1.0, 1.0, 2.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    b = np.array([2.0, 1.0])
    c = np.array([1.0, 1.0, 3.0, 0.5])
    prob = LpProblem(cost=c, constraint_matrix=a, rhs=b)
    cold = solve(prob)
    # Columns 0 and 2 are independent; 0 and 1 are not singular either, so
    # use duplicated column indices rejected upfront plus a truly singular pair.
    singular = solve_with_basis(prob, [0, 1])  # rows make this singular: col1 == col0
    assert singular.objective == pytest.approx(cold.objective, abs=1e-9)
    assert singular.outcome == "singular" and not singular.warm_started
    short = solve_with_basis(prob, [3])
    assert short.outcome == "size" and not short.warm_started
    assert short.objective == pytest.approx(cold.objective, abs=1e-9)


def basic_solution_and_reduced_costs(prob, basis):
    a_b = prob.constraint_matrix[:, basis]
    xb = np.linalg.solve(a_b, prob.rhs)
    y = np.linalg.solve(a_b.T, prob.cost[basis])
    reduced = prob.cost - prob.constraint_matrix.T @ y
    reduced[basis] = 0.0
    return xb, reduced


def test_warm_start_repairs_a_basis_neither_primal_nor_dual_feasible():
    rng = np.random.default_rng(4242)
    repaired = 0
    for _ in range(200):
        prob = random_equality_lp(rng, m=8, n=16)
        old = solve(prob)
        assert old.status is LpStatus.OPTIMAL
        moved = LpProblem(
            cost=prob.cost * rng.uniform(0.3, 1.7, size=prob.variable_count),
            constraint_matrix=prob.constraint_matrix,
            rhs=prob.constraint_matrix @ rng.uniform(0.5, 1.5, size=prob.variable_count),
        )
        xb, reduced = basic_solution_and_reduced_costs(moved, old.basis)
        if xb.min() >= -1e-6 or reduced.min() >= -1e-6:
            continue  # still primal or dual feasible: not the case under test
        warm = solve_with_basis(moved, old.basis)
        cold = solve(moved)
        assert warm.outcome == "repaired" and warm.warm_started
        assert warm.status is LpStatus.OPTIMAL and cold.status is LpStatus.OPTIMAL
        assert abs(warm.objective - cold.objective) <= 1e-7 * max(1.0, abs(cold.objective))
        repaired += 1
    assert repaired >= 20


@pytest.mark.parametrize("move_cost", [False, True])
def test_infeasible_problem_on_the_warm_path_reports_row_violations(move_cost):
    rng = np.random.default_rng(77)
    prob, _, _ = random_inequality_lp(rng)
    old = solve(prob)
    assert old.status is LpStatus.OPTIMAL
    rhs = prob.rhs.copy()
    rhs[2] = -1.0  # nonnegative row coefficients and slack cannot sum below zero
    cost = prob.cost.copy()
    if move_cost:
        # make the old basis dual infeasible too, so the repair path runs
        nonbasic = np.setdiff1d(np.arange(prob.variable_count), old.basis)
        cost[nonbasic] -= 5.0
    moved = LpProblem(cost=cost, constraint_matrix=prob.constraint_matrix, rhs=rhs)
    xb, reduced = basic_solution_and_reduced_costs(moved, old.basis)
    assert xb.min() < 0.0 and (reduced.min() < -1e-9) == move_cost
    warm = solve_with_basis(moved, old.basis)
    assert warm.status is LpStatus.INFEASIBLE
    assert warm.outcome == "infeasible" and not warm.warm_started
    assert warm.row_violations is not None
    assert int(np.argmax(warm.row_violations)) == 2
    assert warm.row_violations[2] > 0.0


def test_feasibility_interval_parameter_free():
    a = np.eye(2)
    interval = feasibility_interval([0, 1], a, np.zeros((2, 1)), [1.0, 2.0], [1.0])
    assert interval == (-np.inf, np.inf)


def test_feasibility_interval_single_root():
    a = np.array([[1.0]])
    lo, hi = feasibility_interval([0], a, np.array([[-1.0]]), [1.0], [1.0])
    assert lo == -np.inf
    assert hi == pytest.approx(1.0, abs=1e-8)


def test_feasibility_interval_empty_raises():
    a = np.array([[1.0]])
    with pytest.raises(EmptyIntervalError):
        feasibility_interval([0], a, np.array([[0.0]]), [-1.0], [1.0])


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
        return solve(LpProblem(cost=c, constraint_matrix=a, rhs=(g @ (y * ray) + h)))

    scan_breaks = []
    prev_basis = None
    for y in np.arange(0.0, 1.0 + 1e-9, 1e-3):
        sol = solve_at(y)
        key = tuple(sorted(sol.basis))
        if prev_basis is not None and key != prev_basis:
            scan_breaks.append(y)
        prev_basis = key

    sol_low = solve_at(0.2)
    lo, hi = feasibility_interval(sol_low.basis, a, g, h, ray)
    assert lo <= 0.2 <= hi
    assert hi == pytest.approx(0.4, abs=1e-6)
    assert len(scan_breaks) == 1
    assert scan_breaks[0] == pytest.approx(0.4, abs=2e-3)


def test_trace_environment_toggle(tmp_path, monkeypatch):
    target = tmp_path / "trace.log"
    monkeypatch.setenv(lp_core.TRACE_ENV, str(target))
    prob = LpProblem(cost=[1.0, 0.0], constraint_matrix=[[1.0, 1.0]], rhs=[1.0])
    solve(prob)
    assert target.exists()
    assert "solve m=1 n=2" in target.read_text()


def test_paranoid_mode_matches_fast_path():
    # the retry discipline after a singular-basis failure must land on the
    # same optimum the ordinary path reports
    rng = np.random.default_rng(90210)
    for k in range(20):
        if k % 2 == 0:
            prob = random_equality_lp(rng, m=9, n=18)
        else:
            prob, _, _ = random_inequality_lp(rng)
        fast = solve(prob)
        slow = lp_core._solve_attempt(prob, None, paranoid=True)
        assert fast.status is LpStatus.OPTIMAL
        assert slow.status is LpStatus.OPTIMAL
        scale = max(1.0, abs(fast.objective))
        assert abs(fast.objective - slow.objective) <= 1e-7 * scale
