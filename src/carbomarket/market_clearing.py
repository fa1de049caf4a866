"""Single-period market clearing.

Assembles the dispatch problem as a bounded LP over segment columns, solves
it, and recovers prices from the duals.  The weighted objective (total bid
cost plus a small multiple of total emission) realizes the
cost-then-emission lexicographic order for a small enough weight.

Each agent's range [p_min, p_max] is cut at the union of the kinks of its
cost curve and its emission curve, so both curves are linear on every piece.
Each piece is one column delta with 0 <= delta <= piece width, and
p = p_min + sum of the agent's deltas.  A column costs its cost-curve slope
plus epsilon times its emission-curve slope.  Both curves are convex (a max
of lines), so the slopes rise piece by piece, cheaper pieces fill first, and
cost and emission are exact: f(p) = f(p_min) + sum of cost slope * delta, and
the same for the emission curve.  The constants f(p_min) and e(p_min) stay
outside the LP.

Column order: the segment columns, agent by agent, then one slack per branch.
Row order: the balance row, then one ranged row per branch, whose slack lies
in [0, 2 cap]: flow + slack = cap.  The right-hand side is affine in the
per-bus demand vector, rhs = G @ demand + H, which later lets the
emission-allocation sweep reuse the same assembly with demand as a parameter;
the emission cost is k.x plus the constant ``k_offset``.

Every column also has a key that names it independently of the layout:
(agent, "segment", i) for an agent's i-th piece and ("branch", l) for branch
l's slack.  A clearing reports its optimal basis and its columns at their
upper bounds as these keys, so the next period's LP, whose storage curves
may have more or fewer pieces, can start from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lp_core import LpProblem, LpSolution, LpStatus, solve, solve_with_basis
from .network_model import NetworkCase, PiecewiseLinearCurve

# clearings a loss-direction-dependent case may take before it stops unconverged
LOSS_ITERATIONS = 10


class MarketInfeasibleError(RuntimeError):
    """No dispatch satisfies balance, branch, and bound constraints."""

    def __init__(self, message: str, row_label: str = "", violation: float = 0.0):
        super().__init__(message)
        self.row_label = row_label
        self.violation = violation


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
    demand: np.ndarray  # MW per bus

    def __post_init__(self) -> None:
        self.demand = np.asarray(self.demand, dtype=float)


@dataclass(frozen=True)
class AssembledMarket:
    """Bounded LP plus the affine demand parametrization."""

    problem: LpProblem
    g: np.ndarray
    h: np.ndarray
    k: np.ndarray
    # emission cost at every agent's p_min: E = k.x + k_offset
    k_offset: float
    demand: np.ndarray
    tau: float
    n_agents: int
    n_branches: int
    p_shift: np.ndarray
    # per segment column: its agent, cost-curve slope and emission-curve slope
    column_agent: np.ndarray
    cost_slope: np.ndarray
    emission_slope: np.ndarray
    # per agent: f(p_min), and e(p_min) (0 for agents without emission curve)
    cost_at_min: np.ndarray
    emission_at_min: np.ndarray
    sigma_agents: tuple[int, ...]
    row_labels: tuple[str, ...]
    loss: np.ndarray
    # layout-independent name of each column, and each row's own slack
    # column (-1 for the balance row, which has none)
    column_keys: tuple[tuple, ...]
    row_slack: np.ndarray

    def _per_agent(self, weights: np.ndarray) -> np.ndarray:
        return np.bincount(self.column_agent, weights=weights, minlength=self.n_agents)

    def power(self, x: np.ndarray) -> np.ndarray:
        return self.p_shift + self._per_agent(x[: self.column_agent.size])

    def cost_values(self, x: np.ndarray) -> np.ndarray:
        return self.cost_at_min + self._per_agent(self.cost_slope * x[: self.column_agent.size])

    def sigma_values(self, x: np.ndarray) -> np.ndarray:
        emission = self.emission_at_min + self._per_agent(
            self.emission_slope * x[: self.column_agent.size])
        return emission[list(self.sigma_agents)]


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
    bids: BidSet
    degenerate: bool = False
    # optimal basis, and the nonbasic columns at their upper bounds, as
    # column keys (see the module docstring)
    basis: tuple[tuple, ...] | None = None
    at_upper: tuple[tuple, ...] = ()
    loss_converged: bool = True
    loss_iterations: int = 1
    sigma: np.ndarray = field(default_factory=lambda: np.zeros(0))
    sigma_agents: tuple[int, ...] = ()
    loss: np.ndarray | None = None
    # how the final solve started: crash (the merit-order crash basis), warm
    # (a previous clearing's basis), cold (phase 1: no crash can be built),
    # or why a crash or warm start fell back to phase 1 (size, singular, infeasible)
    outcome: str = "cold"

    def power(self, name: str) -> float:
        return float(self.dispatch[self.agent_names.index(name)])


def _pieces(agent: AgentBid) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, float]:
    """Widths of the pieces of [p_min, p_max] cut at the kinks of both curves,
    the cost and emission slopes on each piece, and f(p_min), e(p_min)."""
    lo, hi = agent.p_min, agent.p_max
    envelopes = [c.envelope() for c in (agent.cost_curve, agent.emission_curve) if c is not None]
    xs = np.unique(np.concatenate(
        [[lo, hi]] + [starts[(starts > lo) & (starts < hi)] for _, _, starts in envelopes]))
    mid = (xs[:-1] + xs[1:]) / 2.0
    slopes, at_min = [np.zeros(mid.size)] * 2, [0.0, 0.0]
    for j, (slope, intercept, starts) in enumerate(envelopes):
        slopes[j] = slope[np.searchsorted(starts, mid, side="right") - 1]
        first = np.searchsorted(starts, lo, side="right") - 1
        at_min[j] = float(slope[first] * lo + intercept[first])
    return np.diff(xs), slopes[0], slopes[1], at_min[0], at_min[1]


def assemble_clearing_lp(
    case: NetworkCase, bids: BidSet, loss: np.ndarray | None = None,
) -> tuple[LpProblem, AssembledMarket]:
    agents, demand = bids.agents, bids.demand
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
    p_shift = np.array([a.p_min for a in agents], dtype=float)
    sigma_agents = tuple(k for k, a in enumerate(agents) if a.emission_curve is not None)

    pieces = [_pieces(a) for a in agents]
    width, cost_slope, emission_slope = (
        np.concatenate([np.zeros(0), *(p[i] for p in pieces)]) for i in range(3))
    cost_at_min, emission_at_min = (np.array([p[i] for p in pieces]) for i in (3, 4))
    col_agent = np.repeat(np.arange(n_agents), [p[0].size for p in pieces])
    n_seg = col_agent.size
    keys = [(a.name, "segment", i) for a, p in zip(agents, pieces) for i in range(p[0].size)]
    keys += [("branch", l) for l in range(n_br)]

    t_agent = ptdf[:, agent_bus] if (n_br and n_agents) else np.zeros((n_br, n_agents))
    a_mat = np.zeros((1 + n_br, n_seg + n_br))
    # balance: sum (1-L_i) p_i = sum (1-L_b) D_b + L_0
    a_mat[0, :n_seg] = (1.0 - agent_loss)[col_agent]
    # branch l: flow + slack = cap, with the slack in [0, 2 cap]
    a_mat[1:, :n_seg] = t_agent[:, col_agent]
    a_mat[1:, n_seg:] = np.eye(n_br)
    g = np.vstack([1.0 - loss, ptdf])
    h = np.concatenate([
        [case.loss_offset - float((1.0 - agent_loss) @ p_shift)],
        caps - t_agent @ p_shift,
    ])
    labels = ["balance"] + [f"branch {br.name or l}" for l, br in enumerate(case.branches)]

    k_scale = case.kappa * case.tau / 2.0
    problem = LpProblem(
        cost=np.concatenate([cost_slope + case.epsilon * emission_slope, np.zeros(n_br)]),
        constraint_matrix=a_mat, rhs=g @ demand + h,
        upper=np.concatenate([width, 2.0 * caps]),
    )
    return problem, AssembledMarket(
        problem=problem, g=g, h=h,
        k=np.concatenate([k_scale * emission_slope, np.zeros(n_br)]),
        k_offset=k_scale * float(emission_at_min.sum()),
        demand=demand, tau=case.tau, n_agents=n_agents, n_branches=n_br,
        p_shift=p_shift, column_agent=col_agent, cost_slope=cost_slope,
        emission_slope=emission_slope,
        cost_at_min=cost_at_min, emission_at_min=emission_at_min,
        sigma_agents=sigma_agents, row_labels=tuple(labels), loss=loss,
        column_keys=tuple(keys), row_slack=np.concatenate([[-1], n_seg + np.arange(n_br)]),
    )


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


def _injection(case: NetworkCase, bids: BidSet, dispatch: np.ndarray) -> np.ndarray:
    """Power each bus's agents put in, MW."""
    injection = np.zeros(case.n_buses)
    for k, a in enumerate(bids.agents):
        injection[case.bus_index[a.bus]] += dispatch[k]
    return injection


def extract_result(
    case: NetworkCase, form: AssembledMarket, sol: LpSolution, bids: BidSet,
) -> ClearingResult:
    n_br = form.n_branches
    x = sol.primal
    p = form.power(x)
    y = sol.duals
    lambda_bar = float(y[0])
    # a branch row's dual is negative when flow sits at +cap, positive at -cap
    mu_plus = np.maximum(-y[1 : 1 + n_br], 0.0)
    mu_minus = np.maximum(y[1 : 1 + n_br], 0.0)
    lmp = compute_lmps(lambda_bar, mu_minus, mu_plus, form.loss, case.ptdf)
    flows = case.ptdf @ (_injection(case, bids, p) - form.demand) if n_br else np.zeros(0)
    sigma = form.sigma_values(x)
    return ClearingResult(
        dispatch=p,
        agent_names=tuple(a.name for a in bids.agents),
        lambda_bar=lambda_bar, mu_minus=mu_minus, mu_plus=mu_plus,
        lmp=lmp, flows=flows,
        total_cost=float(form.cost_values(x).sum()),
        total_emission=float(sigma.sum()),
        bids=bids, degenerate=sol.degenerate,
        basis=tuple(form.column_keys[j] for j in sol.basis),
        at_upper=tuple(form.column_keys[j] for j in sol.at_upper),
        sigma=sigma, sigma_agents=form.sigma_agents, loss=form.loss,
        outcome=sol.outcome,
    )


def _independent(mat: np.ndarray) -> np.ndarray:
    """Positions of a maximal set of linearly independent columns of ``mat``,
    most independent first: column-pivoted modified Gram-Schmidt, which takes
    the largest residual norm until it is 1e-10 of the first (geqp3's rule)."""
    res = np.array(mat, dtype=float)
    norms = np.linalg.norm(res, axis=0)
    tol = 1e-10 * norms.max(initial=0.0)
    chosen = []
    for _ in range(min(res.shape)):
        j = int(np.argmax(norms))
        if norms[j] <= tol:
            break
        q = res[:, j] / norms[j]
        res -= np.outer(q, q @ res)
        res[:, j] = 0.0
        norms = np.linalg.norm(res, axis=0)
        chosen.append(j)
    return np.array(chosen, dtype=int)


def _map_start(form: AssembledMarket, keys, upper_keys) -> tuple[np.ndarray, list[int]]:
    """Column indices of a square, nonsingular basis of ``form`` from ``keys``,
    and of the columns named by ``upper_keys`` (a previous clearing's
    ``at_upper``) that this layout has.

    Keys this layout has become its columns, in their given order; keys it
    lacks are dropped. Each row that the mapped branch slacks do not cover
    (the balance row, the branches binding at the old vertex, and rows new to
    this layout) must be covered by a mapped segment column or get its own
    slack. So the basis is block triangular, and it is nonsingular when the
    segment columns restricted to the uncovered rows are: the largest
    independent set of those columns is kept, and the uncovered rows they
    leave over, never the balance row, get their own slacks. Returns fewer
    columns than rows only when no segment column covers the balance row.
    """
    index = {key: j for j, key in enumerate(form.column_keys)}
    cols = np.array(list(dict.fromkeys(index[k] for k in keys if k in index)), dtype=int)
    at_upper = [index[k] for k in upper_keys if k in index]
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
            return cols, at_upper
        rest = block[1:] - np.outer(block[1:] @ balance / norm2, balance)
        chosen = _independent(rest.T)[: struct_pos.size - 1] + 1
        left = np.ones(open_rows.size, dtype=bool)
        left[0] = False
        left[chosen] = False
        extra_rows = open_rows[left]
    keep = is_slack | np.isin(cols, struct[struct_pos])
    return np.concatenate([cols[keep], form.row_slack[extra_rows]]), at_upper


def _merit_order_start(form: AssembledMarket):
    """Merit-order crash basis of ``form`` (Bixby 1992, "Implementing the
    simplex method: the initial basis"), its columns at upper bound and its
    inverse; None when a segment's balance coefficient is not positive.

    Segments fill the balance rhs in stable order of delivered cost c_j / a_0j.
    The one where the fill reaches the rhs (else the last) is basic beside the
    branch slacks, and the cheaper ones sit at their upper bounds. Its duals,
    that delivered cost and zero congestion, are dual feasible, and
    B = [[a_0j, 0], [t_j, I]] inverts to [[1/a_0j, 0], [-t_j/a_0j, I]]."""
    a, n_seg = form.problem.constraint_matrix, form.column_agent.size
    a0 = a[0, :n_seg]
    if not n_seg or a0.min() <= 0.0:
        return None
    order = np.argsort(form.problem.cost[:n_seg] / a0, kind="stable")
    fill = np.cumsum(a0[order] * form.problem.upper[order])
    k = min(int(np.searchsorted(fill, form.problem.rhs[0])), n_seg - 1)
    binv = np.eye(a.shape[0])
    binv[:, 0] = -a[:, order[k]] / a0[order[k]]
    binv[0, 0] = 1.0 / a0[order[k]]
    return np.concatenate([[order[k]], form.row_slack[1:]]), order[:k], binv


def clear_market(
    case: NetworkCase, bids: BidSet, warm_basis=None, warm_upper=(),
) -> ClearingResult:
    """Clear one period; ``warm_basis`` and ``warm_upper`` are a previous
    ``ClearingResult.basis`` and ``ClearingResult.at_upper``; without them
    the clearing starts from ``_merit_order_start``, and from phase 1 only
    when no crash can be built.

    When ``case.loss_direction_dependent``, each bus's loss sensitivity takes
    the sign of its net injection: the market re-clears, each time from the
    previous clearing's basis, until the signs the clearing assumed match its
    dispatch, for at most ``LOSS_ITERATIONS`` clearings. Any other case
    clears once with its fixed loss vector.
    """
    base = np.abs(case.loss_vector())
    loss = base if case.loss_direction_dependent else None
    for it in range(1, LOSS_ITERATIONS + 1):
        problem, form = assemble_clearing_lp(case, bids, loss=loss)
        start = (_merit_order_start(form) if warm_basis is None
                 else _map_start(form, warm_basis, warm_upper))
        sol = solve(problem) if start is None else solve_with_basis(problem, *start)
        if sol.status is LpStatus.INFEASIBLE:
            raise _infeasible(form, sol)
        result = extract_result(case, form, sol, bids)
        if warm_basis is None and sol.warm_started:
            result.outcome = "crash"
        result.loss_iterations = it
        if not case.loss_direction_dependent:
            return result
        net = _injection(case, bids, result.dispatch) - bids.demand
        new_loss = base * np.where(net >= 0.0, 1.0, -1.0)
        if np.array_equal(new_loss, loss):
            return result
        loss = new_loss
        warm_basis, warm_upper = result.basis, result.at_upper
    result.loss_converged = False
    return result


def _infeasible(form: AssembledMarket, sol: LpSolution) -> MarketInfeasibleError:
    """The error naming the most violated row of an infeasible clearing."""
    worst = int(np.argmax(np.abs(sol.row_violations)))
    excess = float(sol.row_violations[worst])
    label = form.row_labels[worst]
    if worst > 0:
        # flow above +cap leaves the row's activity above its rhs
        label += " upper" if excess > 0.0 else " lower"
    gap = abs(excess)
    return MarketInfeasibleError(
        f"market infeasible; most violated: {label} (short by {gap:.6g})",
        row_label=label, violation=gap,
    )
