"""Single-period market clearing.

Assembles the dispatch problem as an equality-form LP over shifted variables,
solves it, and recovers prices from the duals.  The weighted objective
(total bid cost plus a small multiple of total emission) realizes the
cost-then-emission lexicographic order for a small enough weight.

Variable layout of the assembled LP, in column order:
  - one shifted power column per agent, x_p = p - p_min
  - one shifted cost epigraph column per agent, x_f = f - min f on [p_min, p_max]
  - one emission epigraph column per emitting agent (plants only), x_sigma = sigma
  - slack columns: branch upper, branch lower, power upper bound, cost-segment
    surplus, emission-segment surplus.

Row order: balance; branch upper; branch lower; power upper bounds; cost
epigraph segments; emission epigraph segments.  The right-hand side is affine
in the per-bus demand vector, rhs = G @ demand + H, which later lets the
emission-allocation sweep reuse the same assembly with demand as a parameter.

Every column also has a key that names it independently of the layout:
(agent, role) for the structural and upper-bound columns, ("branch", l, side)
for the branch slacks, and (agent, curve, segment index) for the segment
surpluses.  A clearing reports its optimal basis as these keys, so the next
period's LP, whose storage curves may have more or fewer segments, can start
from it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import qr

from .lp_core import LpProblem, LpSolution, LpStatus, solve, solve_with_basis
from .network_model import NetworkCase, PiecewiseLinearCurve


class MarketInfeasibleError(RuntimeError):
    """No dispatch satisfies balance, branch, and bound constraints."""

    def __init__(self, message: str, row_label: str = "", violation: float = 0.0):
        super().__init__(message)
        self.row_label = row_label
        self.violation = violation


class MarketUnboundedError(RuntimeError):
    pass


@dataclass(frozen=True)
class AgentBid:
    """One market participant's offer for a single period.

    cost_curve is $/h against MW; emission_curve (plants only) is kg/h
    against MW.  Storage agents bid emission_curve=None and may have
    negative bounds (charging).
    """

    name: str
    bus: int
    cost_curve: PiecewiseLinearCurve
    p_min: float
    p_max: float
    emission_curve: PiecewiseLinearCurve | None = None
    is_storage: bool = False
    is_renewable: bool = False


@dataclass
class BidSet:
    agents: list[AgentBid]
    demand: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.demand is not None:
            self.demand = np.asarray(self.demand, dtype=float)

    def agent_index(self, name: str) -> int:
        for k, a in enumerate(self.agents):
            if a.name == name:
                return k
        raise KeyError(name)


@dataclass(frozen=True)
class AssembledMarket:
    """LP in equality form plus the affine demand parametrization."""

    problem: LpProblem
    g: np.ndarray
    h: np.ndarray
    k: np.ndarray
    demand: np.ndarray
    n_agents: int
    n_buses: int
    n_branches: int
    p_shift: np.ndarray
    f_shift: np.ndarray
    sigma_agents: tuple[int, ...]
    row_labels: tuple[str, ...]
    loss: np.ndarray
    # layout-independent name of each column, and each row's own slack or
    # surplus column (-1 for the balance row, which has none)
    column_keys: tuple[tuple, ...]
    row_slack: np.ndarray

    @property
    def f_offset(self) -> int:
        return self.n_agents

    @property
    def sigma_offset(self) -> int:
        return 2 * self.n_agents

    def power(self, x: np.ndarray) -> np.ndarray:
        return x[: self.n_agents] + self.p_shift

    def cost_values(self, x: np.ndarray) -> np.ndarray:
        return x[self.f_offset : 2 * self.n_agents] + self.f_shift

    def sigma_values(self, x: np.ndarray) -> np.ndarray:
        return x[self.sigma_offset : self.sigma_offset + len(self.sigma_agents)]


@dataclass
class ClearingResult:
    dispatch: np.ndarray
    agent_names: tuple[str, ...]
    lambda_bar: float
    mu_minus: np.ndarray
    mu_plus: np.ndarray
    lmp: np.ndarray
    flows: np.ndarray
    total_cost: float
    total_emission: float
    status: LpStatus
    bids: BidSet
    period: int = 0
    degenerate: bool = False
    # optimal basis as column keys (see the module docstring)
    basis: tuple[tuple, ...] | None = None
    loss_converged: bool = True
    loss_iterations: int = 1
    sigma: np.ndarray = field(default_factory=lambda: np.zeros(0))
    sigma_agents: tuple[int, ...] = ()
    loss: np.ndarray | None = None
    # LpSolution.outcome of the final solve: cold, warm, repaired, or the
    # reason a warm start fell back to cold (size, singular, infeasible)
    outcome: str = "cold"

    def power(self, name: str) -> float:
        return float(self.dispatch[self.agent_names.index(name)])


def _curve_min_on(curve: PiecewiseLinearCurve, lo: float, hi: float) -> float:
    candidates = [lo, hi] + [b for b in curve.breakpoints() if lo < b < hi]
    return float(min(curve.value(c) for c in candidates))


def assemble_market_lp(
    case: NetworkCase,
    agents: list[AgentBid],
    demand: np.ndarray,
    loss: np.ndarray | None = None,
) -> AssembledMarket:
    demand = np.asarray(demand, dtype=float)
    n_buses = case.n_buses
    if demand.shape != (n_buses,):
        raise ValueError(f"demand has shape {demand.shape}, case has {n_buses} buses")
    bus_index = case.bus_index
    for a in agents:
        if a.bus not in bus_index:
            raise ValueError(f"agent {a.name} sits on unknown bus {a.bus}")

    loss = case.loss_vector() if loss is None else np.asarray(loss, dtype=float)
    ptdf = case.ptdf
    caps = case.branch_capacities()
    n_agents = len(agents)
    n_br = len(case.branches)
    agent_bus = np.array([bus_index[a.bus] for a in agents], dtype=int)
    agent_loss = loss[agent_bus] if n_agents else np.zeros(0)

    p_shift = np.array([a.p_min for a in agents])
    f_shift = np.array([_curve_min_on(a.cost_curve, a.p_min, a.p_max) for a in agents])
    sigma_agents = tuple(k for k, a in enumerate(agents) if a.emission_curve is not None)
    cost_segs = [a.cost_curve.segments for a in agents]
    sigma_segs = [agents[k].emission_curve.segments for k in sigma_agents]
    n_fseg = sum(len(s) for s in cost_segs)
    n_eseg = sum(len(s) for s in sigma_segs)

    n_rows = 1 + 2 * n_br + n_agents + n_fseg + n_eseg
    n_struct = 2 * n_agents + len(sigma_agents)
    n_cols = n_struct + 2 * n_br + n_agents + n_fseg + n_eseg

    a_mat = np.zeros((n_rows, n_cols))
    g = np.zeros((n_rows, n_buses))
    h = np.zeros(n_rows)
    labels: list[str] = []
    names = [a.name for a in agents]
    keys: list[tuple] = [(name, "power") for name in names]
    keys += [(name, "cost") for name in names]
    keys += [(names[k], "emission") for k in sigma_agents]

    # balance: sum (1-L_i) p_i = sum (1-L_b) D_b + L_0
    if n_agents:
        a_mat[0, :n_agents] = 1.0 - agent_loss
    g[0, :] = 1.0 - loss
    h[0] = case.loss_offset - float(((1.0 - agent_loss) * p_shift).sum())
    labels.append("balance")

    slack = n_struct
    t_agent = ptdf[:, agent_bus] if (n_br and n_agents) else np.zeros((n_br, n_agents))
    shift_flow = t_agent @ p_shift if n_agents else np.zeros(n_br)
    for l in range(n_br):
        r = 1 + l
        a_mat[r, :n_agents] = t_agent[l]
        a_mat[r, slack + l] = 1.0
        g[r, :] = ptdf[l]
        h[r] = caps[l] - shift_flow[l]
        labels.append(f"branch {case.branches[l].name or l} upper")
        keys.append(("branch", l, "upper"))
    for l in range(n_br):
        r = 1 + n_br + l
        a_mat[r, :n_agents] = -t_agent[l]
        a_mat[r, slack + n_br + l] = 1.0
        g[r, :] = -ptdf[l]
        h[r] = caps[l] + shift_flow[l]
        labels.append(f"branch {case.branches[l].name or l} lower")
        keys.append(("branch", l, "lower"))
    slack += 2 * n_br

    for k, a in enumerate(agents):
        r = 1 + 2 * n_br + k
        a_mat[r, k] = 1.0
        a_mat[r, slack + k] = 1.0
        h[r] = a.p_max - a.p_min
        labels.append(f"{a.name} upper bound")
        keys.append((a.name, "upper bound"))
    slack += n_agents

    row = 1 + 2 * n_br + n_agents
    for k, a in enumerate(agents):
        for i, (alpha, beta) in enumerate(cost_segs[k]):
            a_mat[row, k] = -alpha
            a_mat[row, n_agents + k] = 1.0
            a_mat[row, slack] = -1.0
            h[row] = alpha * p_shift[k] + beta - f_shift[k]
            labels.append(f"{a.name} cost segment")
            keys.append((a.name, "cost", i))
            slack += 1
            row += 1
    for j, k in enumerate(sigma_agents):
        for i, (alpha, beta) in enumerate(sigma_segs[j]):
            a_mat[row, k] = -alpha
            a_mat[row, 2 * n_agents + j] = 1.0
            a_mat[row, slack] = -1.0
            h[row] = alpha * p_shift[k] + beta
            labels.append(f"{agents[k].name} emission segment")
            keys.append((agents[k].name, "emission", i))
            slack += 1
            row += 1

    cost = np.zeros(n_cols)
    cost[n_agents : 2 * n_agents] = 1.0
    cost[2 * n_agents : n_struct] = case.epsilon
    k_vec = np.zeros(n_cols)
    k_vec[2 * n_agents : n_struct] = case.kappa * case.tau / 2.0

    problem = LpProblem(cost=cost, constraint_matrix=a_mat, rhs=g @ demand + h)
    return AssembledMarket(
        problem=problem, g=g, h=h, k=k_vec, demand=demand,
        n_agents=n_agents, n_buses=n_buses, n_branches=n_br,
        p_shift=p_shift, f_shift=f_shift, sigma_agents=sigma_agents,
        row_labels=tuple(labels), loss=loss,
        column_keys=tuple(keys), row_slack=np.concatenate([[-1], np.arange(n_struct, n_cols)]),
    )


def assemble_clearing_lp(
    case: NetworkCase, bids: BidSet, period: int = 0,
    loss: np.ndarray | None = None,
) -> tuple[LpProblem, AssembledMarket]:
    demand = case.demand(period) if bids.demand is None else bids.demand
    form = assemble_market_lp(case, bids.agents, demand, loss=loss)
    return form.problem, form


def compute_lmps(
    lambda_bar: float,
    mu_minus: np.ndarray,
    mu_plus: np.ndarray,
    loss: np.ndarray,
    ptdf: np.ndarray,
) -> np.ndarray:
    """Per-bus price: balance dual scaled by delivery factor plus branch terms."""
    spread = ptdf.T @ (mu_minus - mu_plus) if ptdf.size else np.zeros(len(loss))
    return lambda_bar * (1.0 - np.asarray(loss)) + spread


def extract_result(
    case: NetworkCase, form: AssembledMarket, sol: LpSolution,
    bids: BidSet, period: int,
) -> ClearingResult:
    n_br = form.n_branches
    x = sol.primal
    p = form.power(x)
    y = sol.duals
    lambda_bar = float(y[0])
    mu_plus = np.maximum(-y[1 : 1 + n_br], 0.0)
    mu_minus = np.maximum(-y[1 + n_br : 1 + 2 * n_br], 0.0)
    lmp = compute_lmps(lambda_bar, mu_minus, mu_plus, form.loss, case.ptdf)
    injection = np.zeros(form.n_buses)
    bus_index = case.bus_index
    for k, a in enumerate(bids.agents):
        injection[bus_index[a.bus]] += p[k]
    flows = case.ptdf @ (injection - form.demand) if n_br else np.zeros(0)
    sigma = form.sigma_values(x)
    return ClearingResult(
        dispatch=p,
        agent_names=tuple(a.name for a in bids.agents),
        lambda_bar=lambda_bar, mu_minus=mu_minus, mu_plus=mu_plus,
        lmp=lmp, flows=flows,
        total_cost=float(form.cost_values(x).sum()),
        total_emission=float(sigma.sum()),
        status=sol.status, bids=bids, period=period,
        degenerate=sol.degenerate,
        basis=tuple(form.column_keys[j] for j in sol.basis),
        sigma=sigma, sigma_agents=form.sigma_agents, loss=form.loss,
        outcome=sol.outcome,
    )


def _independent(mat: np.ndarray) -> np.ndarray:
    """Positions of a maximal set of linearly independent columns of ``mat``,
    most independent first (QR with column pivoting)."""
    if 0 in mat.shape:
        return np.zeros(0, dtype=int)
    r, perm = qr(mat, mode="r", pivoting=True, check_finite=False)
    diag = np.abs(np.diag(r))
    return perm[: int((diag > 1e-10 * diag[0]).sum())]


def _map_basis(form: AssembledMarket, keys) -> np.ndarray:
    """Column indices of a square, nonsingular basis of ``form`` from ``keys``.

    Keys this layout has become its columns, in their given order; keys it
    lacks are dropped. Each row that the mapped slack and surplus columns do
    not cover (the balance row, the rows binding at the old vertex, and rows
    new to this layout) must be covered by a mapped structural column or get
    its own slack or surplus. So the basis is block triangular, and it is
    nonsingular when the structural columns restricted to the uncovered rows
    are: the largest independent set of those columns is kept, and the
    uncovered rows they leave over, never the balance row, get their own
    columns. Returns fewer columns than rows only when no structural column
    covers the balance row.
    """
    index = {key: j for j, key in enumerate(form.column_keys)}
    cols = np.array(list(dict.fromkeys(index[k] for k in keys if k in index)), dtype=int)
    n_rows = form.problem.constraint_count
    slack_row = np.full(form.problem.variable_count, -1)
    slack_row[form.row_slack[1:]] = np.arange(1, n_rows)
    is_slack = slack_row[cols] >= 0
    covered = np.zeros(n_rows, dtype=bool)
    covered[slack_row[cols[is_slack]]] = True
    open_rows = np.flatnonzero(~covered)  # starts with the balance row
    struct = cols[~is_slack]
    block = form.problem.constraint_matrix[np.ix_(open_rows, struct)]
    struct_pos = _independent(block)
    block = block[:, struct_pos]
    if struct_pos.size == open_rows.size:
        extra_rows = np.zeros(0, dtype=int)
    else:
        # rows to leave to the structural columns: the balance row, then the
        # most independent of the rest once the balance row is projected out
        balance = block[0]
        norm2 = float(balance @ balance)
        if norm2 == 0.0:
            return cols
        rest = block[1:] - np.outer(block[1:] @ balance / norm2, balance)
        chosen = _independent(rest.T)[: struct_pos.size - 1] + 1
        left = np.ones(open_rows.size, dtype=bool)
        left[0] = False
        left[chosen] = False
        extra_rows = open_rows[left]
    keep = is_slack | np.isin(cols, struct[struct_pos])
    return np.concatenate([cols[keep], form.row_slack[extra_rows]])


def clear_market(
    case: NetworkCase, bids: BidSet, period: int = 0,
    loss: np.ndarray | None = None,
    warm_basis=None,
) -> ClearingResult:
    """Clear one period; ``warm_basis`` is a previous ``ClearingResult.basis``."""
    problem, form = assemble_clearing_lp(case, bids, period, loss=loss)
    if warm_basis is not None:
        sol = solve_with_basis(problem, _map_basis(form, warm_basis))
    else:
        sol = solve(problem)
    if sol.status is LpStatus.INFEASIBLE:
        worst = int(np.argmax(sol.row_violations))
        label = form.row_labels[worst]
        gap = float(sol.row_violations[worst])
        raise MarketInfeasibleError(
            f"market infeasible; most violated: {label} (short by {gap:.6g})",
            row_label=label, violation=gap,
        )
    if sol.status is LpStatus.UNBOUNDED:
        raise MarketUnboundedError("clearing LP unbounded; check bid bounds")
    return extract_result(case, form, sol, bids, period)


def loss_direction_iterate(
    case: NetworkCase, bids: BidSet, period: int = 0, max_iters: int = 10,
    warm_basis=None,
) -> ClearingResult:
    """Re-clear until assumed per-bus flow directions match the dispatch.

    The per-bus loss sensitivity takes the sign of the bus's net injection;
    a lossless or fixed-coefficient case converges on the first pass. The
    first clear starts from ``warm_basis``, each re-clear from the basis of
    the clear before it.
    """
    base = np.abs(case.loss_vector())
    signs = np.ones(case.n_buses)
    loss = base * signs if case.loss_direction_dependent else case.loss_vector()
    demand = case.demand(period) if bids.demand is None else bids.demand
    result = None
    for it in range(1, max_iters + 1):
        result = clear_market(case, bids, period, loss=loss, warm_basis=warm_basis)
        warm_basis = result.basis
        if not case.loss_direction_dependent:
            result.loss_converged = True
            result.loss_iterations = it
            return result
        injection = np.zeros(case.n_buses)
        for k, a in enumerate(bids.agents):
            injection[case.bus_index[a.bus]] += result.dispatch[k]
        new_signs = np.where(injection - demand >= 0.0, 1.0, -1.0)
        new_loss = base * new_signs
        if np.array_equal(new_loss, loss):
            result.loss_converged = True
            result.loss_iterations = it
            return result
        loss = new_loss
    result.loss_converged = False
    result.loss_iterations = max_iters
    return result


def renewable_curtailment(results: list[ClearingResult], case: NetworkCase) -> float:
    """Fraction of offered renewable energy left undispatched over the horizon."""
    renewables = {g.name for g in case.generators if g.is_renewable}
    offered = 0.0
    spilled = 0.0
    for res in results:
        for k, a in enumerate(res.bids.agents):
            if a.name in renewables:
                offered += a.p_max
                spilled += a.p_max - res.dispatch[k]
    if offered <= 0.0:
        warnings.warn("no renewable energy offered; curtailment undefined, using 0")
        return 0.0
    return float(min(max(spilled / offered, 0.0), 1.0))
