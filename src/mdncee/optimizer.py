"""Joint relay scheduling and power allocation by outer approximation.

The mixed-integer problem (binary relay selection, continuous log-domain
powers) is solved by nesting three loops:

* outermost, Dinkelbach's update of q = bits/(J*slot) until the
  subtractive objective V(q) has its root (fractional programming). q moves
  on the incumbent's own schedule, one primal per step, until that
  schedule's V(q) is within tolerance of zero; only at such a fixed point
  does a tree grow. A tree that keeps the incumbent proves max V(q) over
  every schedule within tolerance of zero, which is Dinkelbach's stopping
  test at that q, so the answer is the one a tree at every q gives
  (Dinkelbach 1967; Schaible 1976: only the last q needs an exact inner
  maximum). A tree that finds a better schedule hands it on, and q moves
  on that one: one tree per incumbent;
* per such q, one branch-and-bound tree over the linear master of
  accumulated first-order cuts (LP/NLP-based outer approximation on the
  in-repo dual simplex): each integral node solves a convex primal (powers
  for a fixed schedule; barrier-Newton) and appends its cut to the open
  tree;
* relay-count bounds precomputed from the exact outage at maximum power and
  from the circuit-energy budget prune the master's search space.

Master cuts are built in V' space, where the circuit energy is exactly
linear in the selection vector u and the smooth part is jointly convex, so
every row underestimates the function it linearizes. The outage entering
the master is the full-relay-set approximation, which does not depend on u
at all (an unselected relay has ptilde'_j = 0, i.e. second-hop failure
probability 1). It is not a schedule's own approximate outage, and no
bound of the master on an unvisited schedule is proved (see MasterModel).
Integer no-good rows exclude already-visited schedules outright, which
keeps the upper/lower bound bookkeeping exact in floating point. Each cut
is linearized once, at its anchor, into fixed master rows; the master only
stacks them.

No cut depends on q except through the energy term of its objective row,
and that term is linear in q (a q-free part plus q times an energy part,
both convex). So one master model serves every q of a parametric solve:
each tree starts from every earlier cut and from the no-good rows of the
schedules refuted so far, and adds its own. A refuted schedule (its primal
is infeasible, which no q changes) adds its no-good row only.

Relay dominance orders the relays: a relay whose links are no weaker
than another's can stand in for it (dominance_pairs). A schedule that
holds the weaker relay of a pair but not the stronger is then no better
than the schedule with the two swapped, so one fixed master row
u_b - u_a <= 0 per pair (a dominating b) leaves exactly the schedules closed
under dominance, among which an optimum always lies. The tree never meets
the others, and brute force enumerates only the closed ones too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .convex_solver import (
    PrimalProblem,
    PrimalSolution,
    assemble_primal,
    log_power_model,
    outage_values,
    solve_primal,
)
from .energy import EnergyBreakdown, delivered_rate, energy_efficiency, scheme_constants, total_energy
from .lp import LpResult, solve_lp
from .model import P_MIN, LinkCoefficients, ScenarioConfig
from .outage import (PowerAllocation, RelaySchedule, nonc_link_failures, nonc_outage, outage_exact,
                     relay_hops)

__all__ = [
    "CountBounds",
    "exact_outage",
    "GoaState",
    "Solution",
    "relay_count_bounds",
    "ratio_count_cap",
    "dominance_pairs",
    "MasterModel",
    "OaCut",
    "build_oa_cuts",
    "goa_solve",
    "dinkelbach_solve",
    "nonc_solve",
    "dinkelbach_fixed_schedule",
    "fixed_schedule_value",
]

GOA_REL_TOL = 1e-6          # prune a schedule whose bound is within tol * (1 + |UBD|) of UBD
DINKELBACH_TOL_REL = 1e-6   # |V(q)| <= tol * M * alpha0
DINKELBACH_MAX_ITER = 50
GOA_MAX_ITER = 120          # solved primals per tree; refuted visits cost one row and no solve
# Complex-step differentiation (Martins, Sturdza and Alonso, ACM TOMS 29(3),
# 2003): for f built from +, * and exp alone, Im f(x + i*h*e_k)/h is df/dx_k
# up to a relative O(h^2), with no difference of close values to lose digits
# in. At h = 1e-30 that term is far below round-off, and h times any outage
# derivative met here stays far above the smallest normal double.
COMPLEX_STEP = 1e-30


# ---------------------------------------------------------------------------
# Relay-count bounds


@dataclass(frozen=True)
class CountBounds:
    """Admissible relay-count window [low, up] plus the subset realizing low."""

    low: int | None
    up: int
    best_subset: tuple[int, ...] | None

    @property
    def feasible(self) -> bool:
        return self.low is not None and self.low <= self.up


def exact_outage(s: ScenarioConfig, coeffs: LinkCoefficients, scheme: str,
                 schedule: RelaySchedule, powers: PowerAllocation):
    """Exact outage at an operating point: the network outage (MDNC, a float)
    or the per-user outages (NoNC, an array)."""
    if scheme == "mdnc":
        return outage_exact(s, coeffs, schedule, powers).total
    if scheme == "nonc":
        return nonc_outage(coeffs, schedule, powers)
    raise ValueError(f"unknown scheme {scheme!r}")


def relay_count_bounds(s: ScenarioConfig, coeffs: LinkCoefficients, target: float,
                       scheme: str = "mdnc") -> CountBounds:
    """Bracket the number of relays any solution can use.

    low: the smallest k whose best k-subset meets the outage target with every
    transmitter at maximum power (exact outage formula). up: the largest k
    whose energy at the lowest powers stays strictly inside the budget,
    gamma*k + delta0 (+ M*T*P_MIN when s.user_energy_in_budget) < E0, the same
    strict slack the fixed-schedule primal needs. Both schemes read the
    links of one all-relay allocation at maximum power. The MDNC outage is a
    Poisson-binomial tail that falls in every relay's two-hop success
    probability r_j = rho_j ok_g,j, so its best k-subset is the top k relays
    by r_j (lowest index first on ties): a sort, exact at every N. The NoNC
    outage is a max over users of products of link failures w[i, j], with no
    such order, so its k-subsets are scored one by one from w and the first
    minimum in enumeration order wins; scoring stops at up, so a target no
    admissible count meets leaves low None. MDNC's sort costs N exact
    evaluations, so it goes on past up and names the count the target needs.
    """
    gamma, delta0, _, _ = scheme_constants(s, scheme)
    floor = delta0 + (s.M * s.T * P_MIN if s.user_energy_in_budget else 0.0)
    up = 0
    for k in range(1, s.N + 1):
        if gamma * k + floor < s.E0:
            up = k
    full = RelaySchedule(np.ones(s.N, dtype=int))
    powers = PowerAllocation(p=np.full(s.M, s.P_S_max), p_relay=np.full(s.N, s.P_R_max))
    if scheme == "mdnc":
        rho, ok_g = relay_hops(coeffs, full, powers)
        order = np.argsort(-rho * ok_g, kind="stable")
    else:
        w = nonc_link_failures(coeffs, full, powers).tolist()

    for k in range(s.M, s.N + 1) if scheme == "mdnc" else range(1, up + 1):
        if scheme == "mdnc":
            subset = tuple(sorted(int(j) for j in order[:k]))
            schedule = RelaySchedule.from_indices(subset, s.N)
            merit = outage_exact(s, coeffs, schedule, powers).total / target
        else:
            merit, subset = min((max(math.prod(row[j] for j in c) for row in w) / target, c)
                                for c in combinations(range(s.N), k))
        if merit <= 1.0:
            return CountBounds(low=k, up=up, best_subset=subset)
    return CountBounds(low=None, up=up, best_subset=None)


def ratio_count_cap(s: ScenarioConfig, scheme: str, q: float) -> int:
    """The largest relay count k (0 if none) at which a schedule can still
    reach a bits/energy ratio above q.

    Every outage is positive, so the delivered rate is below M*alpha0, and
    E_tot is the circuit energy gamma*k + delta0 plus nonnegative power
    terms (the user share strictly positive). So every k-relay schedule's
    ratio is below M*alpha0 / (gamma*k + delta0), which falls as k grows:
    no schedule with more relays than the cap can beat q.
    """
    gamma, delta0, _, _ = scheme_constants(s, scheme)
    cap = 0
    for k in range(1, s.N + 1):
        if s.M * s.alpha0 > q * (gamma * k + delta0):
            cap = k
    return cap


def dominance_pairs(coeffs: LinkCoefficients) -> list[tuple[int, int]]:
    """The comparable relay pairs (a, b), ordered by a and then b: relay a
    dominates relay b when c_h[:, a] <= c_h[:, b] elementwise and
    c_g[a] <= c_g[b]. Of two equal relays only the lower index dominates,
    so the pairs form a strict partial order (irreflexive and transitive)
    and never ask two relays to be selected together.

    Lemma: let (a, b) be a pair, S' a schedule with b in S' and a not in
    S', and S = S' - b + a the swap. Then max V_S(q) >= max V_S'(q) at
    every q, and S' is infeasible whenever S is. Proof. Write each relay's
    power in natural units, p'_j = c_g[j] (e^(ptilde'_j) - 1). Every relay
    then has the same box [0, P_R_max], the same energy m*delta_P*T*p'_j
    and the same budget weight, and a k-relay schedule pays the circuit
    energy gamma*k + delta0 whichever relays it selects. Both outages,
    exact and approximate, of either scheme, are symmetric in the selected
    relays, and a relay enters them only through its first- and second-hop
    failure probabilities (exact: 1 - e^(-c/p); approximate: c_ij/p_i
    summed over the users it must decode, and c_g[j]/(c_g[j] + p'_j)),
    each rising with the relay's coefficients; the outage rises with every
    failure probability. So S, at the user powers of a point of S', with a
    at b's power and every other relay at its own, has no more outage and
    the same energy: it is feasible where that point is, and its
    V(q) = rate - q*E_tot is no lower. Taking the best point of S' proves
    both claims.

    So a schedule that holds the b of a pair but not its a is no better
    than one of the same size, in the same relay-count window, one swap up
    the order. A chain of such swaps ends, since each raises the
    schedule's rank sum in any linear extension of the order, at a
    schedule closed under dominance: whenever it holds b, it holds a. An
    optimum therefore lies among the closed schedules, and the rows
    u_b - u_a <= 0, one per pair, which leave exactly those, lose none
    (dominance as pruning: Fischetti and Salvagnin, INFORMS J. Comput.
    22(1), 2010; the index order among interchangeable relays: Margot,
    "Symmetry in integer linear programming", 2010).
    """
    c_h, c_g = coeffs.c_h, coeffs.c_g
    better = (c_h[:, :, None] <= c_h[:, None, :]).all(axis=0) & (c_g[:, None] <= c_g[None, :])
    # mutual dominance (the diagonal, and equal relays): the lower index wins
    better &= ~(better.T & np.tri(len(c_g), dtype=bool))
    return [(int(a), int(b)) for a, b in np.argwhere(better)]


# ---------------------------------------------------------------------------
# Cuts and the master model


class MasterModel:
    """The q-free master of one (scheme, target) solve, and the whole
    description of its trees: the relay-count window, the constants and
    the outer-approximation pool that every tree extends.

    V'(x, u) = obj_coef*sum(P(x)) + q*(energy . e^x + gamma*sum(u) + delta0)
    over the all-relay log powers x, where P, the approximate outage(s) over
    all N relays (outage_value_grad), depends on neither q nor the target
    (an unselected relay sits at ptilde'_j = 0). Both parts are convex in
    x, so a cut linearizes each once and holds for every q >= 0.

    P at a schedule's lifted point is not that schedule's own approximate
    outage: an unselected relay still contributes its undecoded and lost
    terms. At paper.cfg's GOA optima it reads 1.0028-1.0371 times the
    schedule's own, so an outage row can cut off a schedule's own optimum.
    In 9 of the 11 feasible solves at 1e-3 on bench/workloads'
    pool_scenario(0..5), a row of the final master cut off an unvisited
    schedule's optimum at q*: its linearized outage there exceeded the
    target by up to 0.63 times the target under MDNC, 16 times under NoNC.
    So no bound of the master on an unvisited schedule is proved. None has
    been seen to fail: on the final master at q* of paper.cfg's 8 solves
    and those 11, the bound with u fixed never exceeded the optimal V' of
    any of the 267 unvisited feasible schedules.

    The budget draws budget . e^x + gamma*sum(u) + delta0
    against E0 plus the relays' -c_j offsets. cuts holds the cut block of
    every primal solved so far, in creation order; refuted lists the
    schedules whose primal was infeasible, which no q can change. problems
    keeps every schedule's PrimalProblem, which holds no q, so a later
    tree's revisit reuses it. pairs holds dominance_pairs(coeffs), one
    fixed master row each. bounds must be feasible: an empty window leaves
    no tree to grow.
    """

    def __init__(self, s: ScenarioConfig, coeffs: LinkCoefficients, scheme: str,
                 target: float, bounds: CountBounds):
        if not bounds.feasible:
            raise ValueError(
                f"no admissible relay count: low={bounds.low}, up={bounds.up} for target {target}")
        self.s = s
        self.coeffs = coeffs
        self.scheme = scheme
        self.target = float(target)
        self.bounds = bounds
        self.gamma, self.delta0, _, self.obj_coef = scheme_constants(s, scheme)
        self.dim = s.M + s.N
        self.energy, self.budget, self.lo, self.hi = log_power_model(s, coeffs, scheme)
        self.budget_offset = float(np.sum(self.energy[s.M:]))
        self.v_scale = s.M * s.alpha0    # master works in v / v_scale units
        self.cuts: list[OaCut] = []
        self.refuted: list[tuple[int, ...]] = []
        self.problems: dict[tuple[int, ...], PrimalProblem] = {}
        self.pairs = dominance_pairs(coeffs)

    def outage_value_grad(self, x) -> tuple[np.ndarray, np.ndarray]:
        """P at all-relay log powers x, one value per outage, and the
        gradients, one row per outage. The values come from the counting
        recursion at x and the gradients from one batch of its M + N complex
        steps, so no term matrix is built."""
        def outage(points):
            return outage_values(self.coeffs, range(self.s.N), self.s.M, self.scheme, points)
        return outage(x), outage(x + 1j * COMPLEX_STEP * np.eye(self.dim)).imag.T / COMPLEX_STEP

    def problem(self, schedule: RelaySchedule) -> PrimalProblem:
        """The schedule's problem, assembled on first use and kept."""
        pp = self.problems.get(schedule.theta)
        if pp is None:
            pp = assemble_primal(self.s, self.coeffs, schedule, self.target, self.scheme)
            self.problems[schedule.theta] = pp
        return pp


@dataclass(frozen=True)
class OaCut:
    """One cut's master rows A z <= b over z = [ptilde, ptilde', u, vhat],
    built by the solved primal of schedule theta.

    The cut opens with its objective row, stored as the q-free part
    (A[0], b[0]) plus the energy part (energy_row, energy_rhs) that scales
    with q.
    """

    A: np.ndarray
    b: np.ndarray
    theta: tuple[int, ...]
    energy_row: np.ndarray
    energy_rhs: float

    def at(self, q: float) -> tuple[np.ndarray, np.ndarray]:
        """The rows at q: objective row a0 + q*a1, rhs b0 + q*b1."""
        A, b = self.A.copy(), self.b.copy()
        A[0] += q * self.energy_row
        b[0] += q * self.energy_rhs
        return A, b


def build_oa_cuts(pp: PrimalProblem, sol: PrimalSolution, master: MasterModel) -> OaCut:
    """The cut of one solved primal, over z = [ptilde, ptilde', u, vhat].

    The anchor is the primal point, lifted to all N relays (zero on
    unselected ones). The rows linearize there, in this order: the
    objective, each outage constraint minus its target, and the budget.
    They are fixed once built and hold at every q; the master only stacks
    them. Every row linearizes a convex function of x, so it underestimates
    that function at any anchor: a primal stopped at its cutoff anchors a
    valid cut too.
    """
    s = master.s
    u0 = s.M + s.N
    x = np.zeros(master.dim)
    x[[*range(s.M), *(s.M + j for j in pp.schedule.theta)]] = sol.x

    def row(grad, u_coef):
        r = np.zeros(u0 + s.N + 1)
        r[:u0] = grad
        r[u0:u0 + s.N] = u_coef
        return r

    # each outage is evaluated once: its rows and the objective's outage
    # part share the value and gradient
    values, grads = master.outage_value_grad(x)
    ex = np.exp(x)
    # vhat * v_scale >= obj_coef*sum(outage) + q * (energy . e^x + circuit(u))
    value = master.obj_coef * sum(values)
    grad = master.obj_coef * sum(grads)
    r = row(grad, 0.0)
    r[-1] = -master.v_scale
    rows, rhs = [r], [float(grad @ x) - value]
    # an energy term w*e^x is its own gradient
    grad = master.energy * ex
    energy_row = row(grad, master.gamma)
    energy_rhs = float(grad @ x) - (float(np.sum(grad)) + master.delta0)
    for value, grad in zip(values, grads):
        rows.append(row(grad, 0.0))
        rhs.append(float(grad @ x) - float(value - master.target))
    grad = master.budget * ex
    rows.append(row(grad, master.gamma))
    rhs.append(s.E0 - master.delta0 + master.budget_offset - float(np.sum(grad)) + float(grad @ x))
    return OaCut(np.array(rows), np.array(rhs), pp.schedule.theta, energy_row, energy_rhs)


@dataclass
class GoaState:
    """Outer-approximation bookkeeping for one tree of a master, at one q.

    The master's cuts may come from earlier trees: carried counts the cut
    blocks the tree started with. A visit is a solved primal, which builds
    one cut block, or a refuted schedule (its assembled primal is
    infeasible, so no barrier solve runs), which joins master.refuted;
    visited lists the schedules of its visits, in order. A primal stopped
    at the tree's cap (primal_stopped) is a solved primal whose schedule
    cannot beat the incumbent: it builds its cut block but never becomes
    the incumbent. Every visit but the warm one is closed under dominance,
    since the master's pair rows exclude the rest. The counters count the
    primals this tree solved, not a warm primal handed to it. lbd_history
    holds the tree's bound as each schedule after the first was picked.
    """

    master: MasterModel
    q: float
    carried: int = 0
    visited: list[tuple[int, ...]] = field(default_factory=list)
    ubd: float = math.inf
    lbd: float = -math.inf
    ubd_history: list[float] = field(default_factory=list)
    lbd_history: list[float] = field(default_factory=list)
    incumbent: PrimalSolution | None = None
    incumbent_problem: PrimalProblem | None = None
    refutation: str | None = None       # infeasible_reason of the last refuted primal
    newton_total: int = 0
    backtracks: int = 0                 # rejected line-search trials of its primals
    primal_unconverged: int = 0         # primal solves that ran to the end with converged=False
    primal_stopped: int = 0             # primal solves stopped at the cap by their duality bound
    master_lps: int = 0
    master_pivots: int = 0
    master_nodes: int = 0               # branch-and-bound nodes entered
    converged: bool = False
    termination: str = ""


def _log_cap(state: GoaState) -> float | None:
    """The cap in log V' units, None before an incumbent exists: a schedule
    whose optimum reaches it cannot beat the incumbent by more than
    GOA_REL_TOL."""
    if math.isfinite(state.ubd):
        return state.ubd - GOA_REL_TOL * (1.0 + abs(state.ubd))
    return None


def _vcap(state: GoaState) -> float:
    """The cap on vhat: a schedule whose master bound reaches it cannot beat
    the incumbent by more than GOA_REL_TOL, so the tree prunes it."""
    cap = _log_cap(state)
    return 1e9 if cap is None else math.exp(cap) / state.master.v_scale


def _no_good(master: MasterModel, theta: tuple[int, ...]):
    """The no-good row that excludes schedule S = theta from the master:
    sum_{j in S} u_j - sum_{j not in S} u_j <= |S| - 1."""
    s = master.s
    u0 = s.M + s.N
    row = np.zeros(u0 + s.N + 1)
    row[u0:u0 + s.N] = -1.0
    row[[u0 + j for j in theta]] = 1.0
    return row[None, :], np.array([len(theta) - 1.0])


def _master_lp_rows(state: GoaState):
    """The master LP over z = [ptilde, ptilde', u, vhat] at the state's q:
    two always-valid floors, the relay-count window, the caps
    ptilde'_j <= cap_j * u_j, one row u_b - u_a <= 0 per dominance pair
    (a, b), then every cut block, followed by its schedule's no-good row
    when this tree solved that schedule, then one no-good row per refuted
    schedule. The tree appends each visit's rows as a suffix, so its final
    rows are these, in another order.
    vhat's upper bound is the state's cap."""
    m = state.master
    s = m.s
    q = state.q
    M, N = s.M, s.N
    nv = M + 2 * N + 1
    iv = M + 2 * N                      # vhat column
    u0 = M + N
    u = slice(u0, u0 + N)
    relays = np.arange(N)
    pairs = np.array(m.pairs, dtype=int).reshape(-1, 2)

    fixed = np.zeros((4 + N + len(pairs), nv))
    # v >= q * circuit(u), and circuit(u) alone must fit the budget
    fixed[0, u] = q * m.gamma
    fixed[0, iv] = -m.v_scale
    fixed[1, u] = m.gamma
    fixed[2, u] = 1.0
    fixed[3, u] = -1.0
    fixed[4 + relays, M + relays] = 1.0
    fixed[4 + relays, u0 + relays] = -m.hi[M:]
    # u_b <= u_a: a schedule holding b holds every relay that dominates it
    dominance = 4 + N + np.arange(len(pairs))
    fixed[dominance, u0 + pairs[:, 1]] = 1.0
    fixed[dominance, u0 + pairs[:, 0]] = -1.0
    blocks = []
    for i, cut in enumerate(m.cuts):
        blocks.append(cut.at(q))
        if i >= state.carried:
            blocks.append(_no_good(m, cut.theta))
    blocks += [_no_good(m, theta) for theta in m.refuted]
    A = np.vstack([fixed, *(rows for rows, _ in blocks)])
    b = np.concatenate([[-q * m.delta0, s.E0 - m.delta0,
                         float(m.bounds.up), -float(m.bounds.low)], np.zeros(N + len(pairs)),
                        *(rhs for _, rhs in blocks)])

    lb = np.concatenate([m.lo, np.zeros(N), [0.0]])
    ub = np.concatenate([m.hi, np.ones(N), [_vcap(state)]])
    c = np.zeros(nv)
    c[iv] = 1.0
    return c, A, b, lb, ub


@dataclass
class _Node:
    """An open node of the master tree: its box on u and the LP it last
    solved, with the number of master rows that LP saw."""

    lo: np.ndarray
    hi: np.ndarray
    lp: LpResult
    rows: int


def _log_bound(vhat: float, master: MasterModel) -> float:
    # vhat = 0 (q = 0, every schedule so far refuted) bounds log V' by -inf
    return math.log(vhat * master.v_scale) if vhat > 0 else -math.inf


def goa_solve(master: MasterModel, q: float, warm: PrimalProblem | None = None,
              solved: PrimalSolution | None = None) -> GoaState:
    """Outer approximation for one fixed q as one branch-and-bound tree
    (LP/NLP-based, Quesada and Grossmann 1992): returns the final state.

    The warm problem comes first: one of master.problems (by default, the
    count window's best_subset's), solved here at q unless solved, its
    uncapped primal at q, is given. Then one depth-first tree over the
    master's LP relaxation: at each integral node the schedule's problem
    comes from master.problem, and its primal updates the incumbent (kept
    with its problem) and the nonincreasing upper bound, its cut block and
    no-good row (a refuted schedule's no-good row alone) are appended to
    the master, and the node goes back on the stack. Once an incumbent
    exists, each primal runs with the cap as its cutoff and stops as soon
    as its duality bound shows the schedule cannot beat the incumbent; the
    stopped point anchors the cut block, and the schedule's no-good row
    excludes it from this tree. The master's dominance rows hold at every
    node, so each integral node names a schedule closed under dominance,
    and the tree certifies the incumbent over those alone, which is enough
    (dominance_pairs). An open node whose LP predates the last
    rows re-solves warm from its own tableau; the cap moves only when rows
    are appended, so that test covers it too. The tree
    prunes every node whose bound reaches vhat's cap, so an exhausted tree
    certifies the incumbent. The state extends master's pool: it starts
    from every cut already there and adds its own, so a caller solving
    several q passes one master to all of them.
    """
    s = master.s
    state = GoaState(master=master, q=float(q), carried=len(master.cuts))
    u0, n_u = s.M + s.N, s.N

    def visit(pp: PrimalProblem, sol: PrimalSolution | None = None):
        """One solved or refuted schedule: its master row blocks at this q.
        sol, when given, is pp's primal at q, solved and counted already."""
        theta = pp.schedule.theta
        state.visited.append(theta)
        blocks = [_no_good(master, theta)]
        if not pp.feasible:
            # infeasible at every q: later states keep its no-good row
            state.refutation = pp.infeasible_reason
            master.refuted.append(theta)
        else:
            if sol is None:
                sol = solve_primal(pp, q, cutoff=_log_cap(state))
                state.newton_total += sol.newton_iterations
                state.backtracks += sol.backtracks
                state.primal_unconverged += sol.lower_bound is None and not sol.converged
            if sol.lower_bound is not None:
                # its optimum reaches the cap, whatever tilde_v the stopped point has
                state.primal_stopped += 1
            elif sol.tilde_v < state.ubd:
                state.ubd = sol.tilde_v
                state.incumbent = sol
                state.incumbent_problem = pp
            master.cuts.append(build_oa_cuts(pp, sol, master))
            blocks.insert(0, master.cuts[-1].at(q))
        state.ubd_history.append(state.ubd)
        return blocks

    visit(warm or master.problem(RelaySchedule.from_indices(master.bounds.best_subset, s.N)),
          solved)
    c, A, b, lb, ub = _master_lp_rows(state)

    def relax(lo_u, hi_u, warm=None) -> _Node:
        res = solve_lp(c, A, b,
                       np.concatenate([lb[:u0], lo_u, lb[u0 + n_u:]]),
                       np.concatenate([ub[:u0], hi_u, ub[u0 + n_u:]]), warm=warm)
        state.master_lps += 1
        state.master_pivots += res.pivots
        return _Node(lo_u, hi_u, res, len(b))

    stack = [relax(np.zeros(n_u), np.ones(n_u))]
    while stack:
        node = stack.pop()
        if node.rows < len(b):
            node = relax(node.lo, node.hi, node.lp)
        state.master_nodes += 1
        res = node.lp
        if res.status != "optimal" or res.objective >= ub[-1]:
            continue
        u = res.x[u0:u0 + n_u]
        frac = np.abs(u - np.round(u))
        undecided = np.flatnonzero((frac > 1e-6) & (node.lo < node.hi))
        if len(undecided) == 0:
            if len(master.cuts) - state.carried >= GOA_MAX_ITER:
                state.termination = "iteration limit"
                return state
            u_int = np.clip(np.round(u).astype(int), node.lo.astype(int), node.hi.astype(int))
            state.lbd = _log_bound(min(n.lp.objective for n in (*stack, node)), master)
            state.lbd_history.append(state.lbd)
            blocks = visit(master.problem(RelaySchedule(u_int)))
            A = np.vstack([A, *(rows for rows, _ in blocks)])
            b = np.concatenate([b, *(rhs for _, rhs in blocks)])
            ub[-1] = _vcap(state)
            stack.append(node)
            continue
        # branch on the fractional u_j closest to 1/2, lowest index on ties
        j = int(undecided[np.argmin(np.abs(u[undecided] - 0.5))])
        children = []
        for value in (0, 1):
            lo_c, hi_c = node.lo.copy(), node.hi.copy()
            lo_c[j] = hi_c[j] = value
            child = relax(lo_c, hi_c, res)
            if child.lp.status == "optimal":
                children.append((child.lp.objective, value, child))
        # the lower bound is popped first, value 0 on ties
        children.sort(key=lambda t: (t[0], t[1]))
        stack.extend(child for _, _, child in reversed(children))
    state.converged = state.incumbent is not None
    state.termination = "master infeasible (no remaining schedule can improve)"
    if state.converged:
        # every schedule left has a master bound at or above the cap
        state.lbd = _log_bound(ub[-1], master)
    return state


# ---------------------------------------------------------------------------
# Outer parametric loop


@dataclass
class Solution:
    """Final operating point for one (scenario, target, scheme) run."""

    feasible: bool
    scheme: str
    target: float
    schedule: RelaySchedule | None = None
    powers: PowerAllocation | None = None
    ee: float | None = None
    pr_out_exact: object = None         # float (MDNC) or per-user array (NoNC)
    pr_out_approx: object = None
    energy: EnergyBreakdown | None = None
    q_star: float | None = None
    diagnostics: dict = field(default_factory=dict)
    reason: str | None = None


def _assemble_solution(pp: PrimalProblem, sol: PrimalSolution, q: float,
                       diagnostics: dict) -> Solution:
    e = total_energy(pp.s, pp.schedule, sol.powers, pp.scheme)
    exact = exact_outage(pp.s, pp.coeffs, pp.scheme, pp.schedule, sol.powers)
    approx = float(sol.outage_approx[0]) if pp.scheme == "mdnc" else sol.outage_approx.copy()
    return Solution(feasible=True, scheme=pp.scheme, target=pp.target, schedule=pp.schedule,
                    powers=sol.powers, ee=energy_efficiency(pp.s, exact, e, pp.scheme),
                    pr_out_exact=exact, pr_out_approx=approx,
                    energy=e, q_star=q, diagnostics=diagnostics)


def _max_slack_ratio(pp: PrimalProblem) -> float:
    """Starting ratio of a feasible problem: its bits/energy ratio at the
    max-slack point.

    Using the ratio of an admissible point keeps the q-sequence nondecreasing
    from the first update on.
    """
    x_hi = np.clip(pp.max_slack_point, pp.lo, pp.hi)
    e = total_energy(pp.s, pp.schedule, pp.powers(x_hi), pp.scheme)
    return max(delivered_rate(pp.s, pp.outage_at(x_hi), pp.scheme) / e.e_tot, 0.0)


def _parametric_value(pp: PrimalProblem, sol: PrimalSolution, q: float) -> tuple[float, float]:
    """V(q) = delivered rate - q*E_tot at a primal point (approximate outage),
    and the point's own bits/energy ratio."""
    e = total_energy(pp.s, pp.schedule, sol.powers, pp.scheme)
    numer = delivered_rate(pp.s, sol.outage_approx, pp.scheme)
    return numer - q * e.e_tot, numer / e.e_tot


def _dinkelbach_loop(q0: float, pp: PrimalProblem, tree=None):
    """Dinkelbach's q-iteration on pp's schedule alone, from q0: each step
    solves the schedule's primal at q and moves q to its point's ratio.

    tree(q, pp, sol) -> (pp, sol), when given, runs at each q where the
    schedule's own V(q) is within tolerance of zero (sol None when pp is
    infeasible, at once): it returns the best schedule at q, and the loop
    goes on from it. The loop stops when V(q) of the returned schedule is
    within tolerance; the reported q is then its point's own bits/energy
    ratio. diagnostics hold one q and V per q, fixed-schedule steps and
    trees alike, and the counters of the primals solved here.
    """
    q = q0
    q_history: list[float] = []
    v_history: list[float] = []
    sols: list[PrimalSolution] = []
    tol = DINKELBACH_TOL_REL * pp.s.M * pp.s.alpha0
    for theta in range(1, DINKELBACH_MAX_ITER + 1):
        sol = None
        if pp.feasible:
            sol = solve_primal(pp, q)
            sols.append(sol)
            v, ratio = _parametric_value(pp, sol, q)
        if tree is not None and (sol is None or abs(v) <= tol):
            pp, best = tree(q, pp, sol)
            if best is not sol:
                sol = best
                v, ratio = _parametric_value(pp, sol, q)
        q_history.append(q)
        v_history.append(v)
        if abs(v) <= tol:
            diagnostics = {
                "dinkelbach_iterations": theta,
                "q_history": q_history,
                "v_history": v_history,
                "newton_total": sum(p.newton_iterations for p in sols),
                "backtracks": sum(p.backtracks for p in sols),
                "primal_unconverged": sum(not p.converged for p in sols),
            }
            return pp, sol, diagnostics, ratio
        q = ratio
    raise RuntimeError(
        f"parametric q-iteration did not converge in {DINKELBACH_MAX_ITER} rounds "
        f"(last V = {v_history[-1]:.3e}, q = {q:.6e})")


def dinkelbach_solve(s: ScenarioConfig, coeffs: LinkCoefficients, target: float,
                     scheme: str = "mdnc") -> Solution:
    """Full pipeline: count bounds, then Dinkelbach's q-iteration, which
    grows a GOA tree only at a fixed point of its incumbent's schedule.

    q first moves on best_subset's schedule alone until that schedule's
    V(q) is within tolerance of zero. One tree at that q then starts from
    the schedule and its primal already solved there. When the tree keeps
    it, max V(q) over every schedule is within tolerance and the solve
    ends; otherwise q moves on the tree's incumbent, and the next tree
    grows at that schedule's fixed point. So there is one tree per
    incumbent. Every tree extends one master model: it starts from all
    earlier cuts and the no-goods of refuted schedules. Returns the final
    operating point with the exact outage re-evaluated at the returned
    powers; the approximate-vs-exact gap is surfaced in the solution
    fields. diagnostics["inner"] holds one record per tree, the GoaState
    counters are summed over the trees and the fixed-schedule primals,
    cuts_total counts the cut blocks the solve built, and dominance_rows
    the master's dominance pairs.
    """
    bounds = relay_count_bounds(s, coeffs, target, scheme)
    if not bounds.feasible:
        return Solution(feasible=False, scheme=scheme, target=target,
                        reason=f"no admissible relay count (low={bounds.low}, up={bounds.up})")

    master = MasterModel(s, coeffs, scheme, target, bounds)
    pp0 = master.problem(RelaySchedule.from_indices(bounds.best_subset, s.N))
    # infeasible: the first tree then behaves as pure outage minimization
    q0 = _max_slack_ratio(pp0) if pp0.feasible else 0.0
    states: list[GoaState] = []

    def tree(q, pp, sol):
        st = goa_solve(master, q, pp, sol)
        states.append(st)
        if st.incumbent is None:
            # every schedule this tree tried was refuted: quote the last refutation
            raise _InfeasibleInner(f"{st.termination}; {st.refutation}")
        return st.incumbent_problem, st.incumbent

    try:
        pp, sol, diagnostics, q_final = _dinkelbach_loop(q0, pp0, tree)
    except _InfeasibleInner as exc:
        return Solution(feasible=False, scheme=scheme, target=target,
                        reason=f"no feasible schedule in the relay-count window: {exc}")
    diagnostics["inner"] = [{
        "goa_iterations": len(st.visited),
        "ubd_history": st.ubd_history,
        "lbd_history": st.lbd_history,
        "visited": st.visited,
        "termination": st.termination,
    } for st in states]
    diagnostics["goa_states"] = len(states)
    for counter in ("newton_total", "backtracks", "master_lps", "master_pivots", "master_nodes",
                    "primal_unconverged", "primal_stopped"):
        diagnostics[counter] = diagnostics.get(counter, 0) + sum(getattr(st, counter)
                                                                 for st in states)
    # trees that ended at the iteration limit, with no certificate
    diagnostics["goa_unconverged"] = sum(not st.converged for st in states)
    diagnostics["cuts_total"] = len(master.cuts)
    diagnostics["dominance_rows"] = len(master.pairs)
    return _assemble_solution(pp, sol, q_final, diagnostics)


class _InfeasibleInner(Exception):
    pass


def nonc_solve(s: ScenarioConfig, coeffs: LinkCoefficients, target: float) -> Solution:
    """NoNC baseline through the same pipeline, per-user outage caps."""
    return dinkelbach_solve(s, coeffs, target, scheme="nonc")


def dinkelbach_fixed_schedule(pp: PrimalProblem) -> Solution | None:
    """q-iterations with the schedule frozen (no master): the per-subset solver
    the brute-force oracle is built on. The assembled problem is solved at
    each q. None when the problem is infeasible."""
    if not pp.feasible:
        return None
    _, sol, diagnostics, q_final = _dinkelbach_loop(_max_slack_ratio(pp), pp)
    return _assemble_solution(pp, sol, q_final, diagnostics)


def fixed_schedule_value(pp: PrimalProblem, q: float) -> tuple[float, bool] | None:
    """max V(q) over the powers of one assembled schedule, by one primal at
    q, and whether that primal stopped; None when the problem is
    infeasible. By Dinkelbach's lemma the schedule's best ratio exceeds q
    only if max V(q) is positive.

    V(q) = M*alpha0 - V'(x) + q*W under both schemes (obj_coef times the
    number of outages), with W = pp.relay_energy the summed energy weights
    of all relays, so max V(q) <= 0 exactly when the optimal log V' is at
    least log(M*alpha0 + q*W). The primal takes that level as its cutoff.
    When it stops there, the value returned is the bound
    M*alpha0 + q*W - exp(lower_bound) <= 0 on max V(q), not max V(q) itself.
    """
    if not pp.feasible:
        return None
    zero = pp.s.M * pp.s.alpha0 + q * pp.relay_energy
    sol = solve_primal(pp, q, cutoff=math.log(zero))
    if sol.lower_bound is not None:
        return zero - math.exp(sol.lower_bound), True
    v, _ = _parametric_value(pp, sol, q)
    return v, False
