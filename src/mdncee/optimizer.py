"""Joint relay scheduling and power allocation by outer approximation.

The mixed-integer problem (binary relay selection, continuous log-domain
powers) is solved by nesting three loops:

* outermost, the parametric update of q = bits/(J*slot) until the
  subtractive objective V(q) has its root (fractional programming);
* per q, a generalized outer-approximation loop alternating a convex primal
  (powers for a fixed schedule; barrier-Newton) with a mixed-integer linear
  master over accumulated first-order cuts (branch-and-bound over the
  in-repo simplex);
* relay-count bounds precomputed from the exact outage at maximum power and
  from the circuit-energy budget prune the master's search space.

Master cuts are built in V' space, where the circuit energy is exactly
linear in the selection vector u and the smooth part is jointly convex, so
every cut is a global underestimator. The outage entering the master is the
full-relay-set approximation, which does not depend on u at all (an
unselected relay has ptilde'_j = 0, i.e. second-hop failure probability 1),
making the constraint cuts valid for every schedule. Integer no-good rows
exclude already-visited schedules outright, which keeps the upper/lower
bound bookkeeping exact in floating point. Each cut is linearized once, at
its anchor, into fixed master rows; the master only stacks them.
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
    energy_model,
    outage_posynomials,
    solve_primal,
)
from .energy import EnergyBreakdown, delivered_rate, energy_efficiency, scheme_constants, total_energy
from .lp import solve_lp
from .model import P_MIN, LinkCoefficients, ScenarioConfig
from .outage import PowerAllocation, RelaySchedule, nonc_outage, outage_exact

__all__ = [
    "CountBounds",
    "exact_outage",
    "GoaState",
    "Solution",
    "relay_count_bounds",
    "build_oa_cuts",
    "solve_master",
    "goa_solve",
    "dinkelbach_solve",
    "nonc_solve",
    "dinkelbach_fixed_schedule",
]

GOA_REL_TOL = 1e-6          # stop when UBD - LBD <= tol * (1 + |UBD|)
IMPROVE_EPS_REL = 1e-9      # strict-improvement margin on the master's w
DINKELBACH_TOL_REL = 1e-6   # |V(q)| <= tol * M * alpha0
DINKELBACH_MAX_ITER = 50
GOA_MAX_ITER = 120


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


def _max_power_allocation(s: ScenarioConfig, schedule: RelaySchedule) -> PowerAllocation:
    return PowerAllocation(p=np.full(s.M, s.P_S_max), p_relay=schedule.u * s.P_R_max)


def exact_outage(s: ScenarioConfig, coeffs: LinkCoefficients, scheme: str,
                 schedule: RelaySchedule, powers: PowerAllocation):
    """Exact outage at an operating point: the network outage (MDNC, a float)
    or the per-user outages (NoNC, an array)."""
    if scheme == "mdnc":
        return outage_exact(s, coeffs, schedule, powers).total
    if scheme == "nonc":
        return nonc_outage(coeffs, schedule, powers)
    raise ValueError(f"unknown scheme {scheme!r}")


def _max_power_merit(s, coeffs, subset, scheme: str, target: float) -> float:
    """Outage-vs-target merit of a subset at full power; <= 1 means feasible."""
    schedule = RelaySchedule.from_indices(subset, s.N)
    outage = exact_outage(s, coeffs, scheme, schedule, _max_power_allocation(s, schedule))
    return float(np.max(outage)) / target


def relay_count_bounds(s: ScenarioConfig, coeffs: LinkCoefficients, target: float,
                       scheme: str = "mdnc") -> CountBounds:
    """Bracket the number of relays any solution can use.

    low: the smallest k whose best k-subset meets the outage target with every
    transmitter at maximum power (exact outage formula). up: the largest k
    whose circuit energy alone fits the budget. The MDNC outage is a
    Poisson-binomial tail that falls in every relay's two-hop success
    probability r_j, so its best k-subset is the top k relays by r_j (lowest
    index first on ties), read from the all-relay schedule: a sort, exact at
    every N. The NoNC outage is a max over users with no such order, so its
    k-subsets are enumerated.
    """
    gamma, delta0, _, _ = scheme_constants(s, scheme)
    up = 0
    for k in range(1, s.N + 1):
        if gamma * k + delta0 <= s.E0:
            up = k
    if scheme == "mdnc":
        full = RelaySchedule(np.ones(s.N, dtype=int))
        ob = outage_exact(s, coeffs, full, _max_power_allocation(s, full))
        order = np.argsort(-ob.rho * (1.0 - ob.pr_e_g), kind="stable")
    k_min = s.M if scheme == "mdnc" else 1

    for k in range(k_min, s.N + 1):
        if scheme == "mdnc":
            subsets = [tuple(sorted(int(j) for j in order[:k]))]
        else:
            subsets = combinations(range(s.N), k)
        merit, subset = min((_max_power_merit(s, coeffs, subset, scheme, target), subset)
                            for subset in subsets)
        if merit <= 1.0:
            return CountBounds(low=k, up=up, best_subset=subset)
    return CountBounds(low=None, up=up, best_subset=None)


# ---------------------------------------------------------------------------
# Cuts and the master model


def _all_relay_outage(s: ScenarioConfig, coeffs: LinkCoefficients, scheme: str) -> list:
    """The master's outage posynomials over all N relays (one for MDNC, one
    per user for NoNC). They depend on neither q nor the target."""
    return outage_posynomials(coeffs, tuple(range(s.N)), s.M, scheme)


class MasterModel:
    """Shared posynomials and constants for one (scheme, q, target) master.

    outage_full: _all_relay_outage(s, coeffs, scheme), built here when not given.
    """

    def __init__(self, s: ScenarioConfig, coeffs: LinkCoefficients, scheme: str,
                 q: float, targets: np.ndarray, include_user_energy: bool = False,
                 outage_full: list | None = None):
        self.s = s
        self.q = float(q)
        self.targets = np.asarray(targets, dtype=float)
        self.gamma, self.delta0, m_slots, _ = scheme_constants(s, scheme)
        self.dim = s.M + s.N
        full = tuple(range(s.N))
        if outage_full is None:
            outage_full = _all_relay_outage(s, coeffs, scheme)
        self.outage_full = outage_full

        # V'(x,u) = obj_smooth(x) + q*(gamma*sum(u) + delta0)
        self.obj_smooth, self.budget_exp = energy_model(s, coeffs, full, scheme, q,
                                                        self.outage_full, include_user_energy)
        self.budget_offset = m_slots * s.delta_P * s.T * float(np.sum(coeffs.c_g))
        self.caps = np.log1p(s.P_R_max / coeffs.c_g)
        self.v_scale = s.M * s.alpha0    # master works in v / v_scale units


def build_oa_cuts(pp: PrimalProblem, sol: PrimalSolution | None,
                  master: MasterModel) -> tuple[np.ndarray, np.ndarray]:
    """The master rows A z <= b of one cut, over z = [ptilde, ptilde', u, vhat].

    The anchor is the solved primal point, or the maximum-slack point of a
    refuted schedule, lifted to all N relays (zero on unselected ones). The
    rows linearize there, in this order: the objective (solved primals
    only), each outage constraint minus its target, and the budget. They
    are fixed once built; the master only stacks them.
    """
    s = master.s
    u0 = s.M + s.N
    x = np.zeros(master.dim)
    x[[*range(s.M), *(s.M + j for j in pp.schedule.theta)]] = (
        pp.max_slack_point if sol is None else sol.x)

    def row(grad, u_coef):
        r = np.zeros(u0 + s.N + 1)
        r[:u0] = grad
        r[u0:u0 + s.N] = u_coef
        return r

    rows, rhs = [], []
    if sol is not None:
        # vhat * v_scale >= V'(x) + q * circuit(u)
        value, grad, _ = master.obj_smooth.parts(x)
        r = row(grad, master.q * master.gamma)
        r[-1] = -master.v_scale
        rows.append(r)
        rhs.append(float(grad @ x) - (value + master.q * master.delta0))
    for pos, target in zip(master.outage_full, master.targets):
        value, grad, _ = pos.parts(x)
        rows.append(row(grad, 0.0))
        rhs.append(float(grad @ x) - float(value - target))
    value, grad, _ = master.budget_exp.parts(x)
    rows.append(row(grad, master.gamma))
    rhs.append(s.E0 - master.delta0 + master.budget_offset - value + float(grad @ x))
    return np.array(rows), np.array(rhs)


@dataclass
class GoaState:
    """Outer-approximation bookkeeping for one (q, target) inner solve."""

    master: MasterModel
    bounds: CountBounds
    cuts: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)  # (A, b) blocks
    visited: list[tuple[int, ...]] = field(default_factory=list)
    ubd: float = math.inf
    lbd: float = -math.inf
    ubd_history: list[float] = field(default_factory=list)
    lbd_history: list[float] = field(default_factory=list)
    incumbent: PrimalSolution | None = None
    incumbent_schedule: RelaySchedule | None = None
    iteration: int = 0
    newton_total: int = 0
    primal_unconverged: int = 0         # primal solves that returned converged=False
    master_lps: int = 0
    master_pivots: int = 0
    master_nodes: int = 0               # branch-and-bound nodes entered
    converged: bool = False
    termination: str = ""


def _master_lp_rows(state: GoaState):
    """Stack the master MILP's rows over z = [ptilde, ptilde', u, vhat]: two
    always-valid floors, the cut blocks, the no-good rows, the relay-count
    window and the caps ptilde'_j <= cap_j * u_j."""
    m = state.master
    s = m.s
    M, N = s.M, s.N
    nv = M + 2 * N + 1
    iv = M + 2 * N                      # vhat column
    u0 = M + N
    u = slice(u0, u0 + N)

    # v >= q * circuit(u), and circuit(u) alone must fit the budget
    floors = np.zeros((2, nv))
    floors[0, u] = m.q * m.gamma
    floors[0, iv] = -m.v_scale
    floors[1, u] = m.gamma

    # each visited schedule S: sum_{j in S} u_j - sum_{j not in S} u_j <= |S| - 1
    no_goods = np.zeros((len(state.visited), nv))
    no_goods[:, u] = -1.0
    for i, theta in enumerate(state.visited):
        no_goods[i, [u0 + j for j in theta]] = 1.0

    relays = np.arange(N)
    tail = np.zeros((2 + N, nv))
    tail[0, u] = 1.0
    tail[1, u] = -1.0
    tail[2 + relays, M + relays] = 1.0
    tail[2 + relays, u0 + relays] = -m.caps

    A = np.vstack([floors, *(rows for rows, _ in state.cuts), no_goods, tail])
    b = np.concatenate([[-m.q * m.delta0, s.E0 - m.delta0], *(rhs for _, rhs in state.cuts),
                        [len(theta) - 1.0 for theta in state.visited],
                        [float(state.bounds.up), -float(state.bounds.low)], np.zeros(N)])

    lb = np.concatenate([np.full(M, np.log(P_MIN)), np.zeros(N), np.zeros(N), [0.0]])
    if math.isfinite(state.ubd):
        vcap = math.exp(state.ubd - IMPROVE_EPS_REL * abs(state.ubd)) / m.v_scale
    else:
        vcap = 1e9
    ub = np.concatenate([np.full(M, np.log(s.P_S_max)), m.caps, np.ones(N), [vcap]])
    c = np.zeros(nv)
    c[iv] = 1.0
    return c, A, b, lb, ub


def solve_master(state: GoaState):
    """Solve the master MILP by branch-and-bound on the relay variables.

    Returns (schedule, w) with w = log of the master optimum (the new lower
    bound), or None when no schedule can still beat the incumbent, which is
    the optimality certificate that stops the outer-approximation loop.
    """
    if not state.cuts:
        raise ValueError("master needs at least one cut")
    c, A, b, lb, ub = _master_lp_rows(state)
    s = state.master.s
    u0 = s.M + s.N
    n_u = s.N

    best: dict = {"obj": math.inf, "x": None}

    def relaxation(lo_u, hi_u, warm=None):
        res = solve_lp(c, A, b,
                       np.concatenate([lb[:u0], lo_u, lb[u0 + n_u:]]),
                       np.concatenate([ub[:u0], hi_u, ub[u0 + n_u:]]), warm=warm)
        state.master_lps += 1
        state.master_pivots += res.pivots
        return res

    def recurse(lo_u, hi_u, res):
        """Explore the node whose relaxation res was solved by the caller."""
        state.master_nodes += 1
        if res.objective >= best["obj"] - 1e-12 * (1.0 + abs(best["obj"])):
            return
        u = res.x[u0:u0 + n_u]
        frac = np.abs(u - np.round(u))
        undecided = np.where((frac > 1e-6) & (lo_u < hi_u))[0]
        if len(undecided) == 0:
            u_int = np.clip(np.round(u).astype(int), lo_u.astype(int), hi_u.astype(int))
            # with every u_j already fixed the leaf LP is the node's own
            leaf = res if np.array_equal(lo_u, hi_u) else relaxation(u_int, u_int, res)
            if leaf.status == "optimal" and leaf.objective < best["obj"]:
                best["obj"] = leaf.objective
                best["x"] = leaf.x
            return
        # branch on the fractional u_j closest to 1/2, lowest index on ties
        scores = np.abs(u[undecided] - 0.5)
        j = int(undecided[np.argmin(scores)])
        children = []
        for value in (0, 1):
            lo_c, hi_c = lo_u.copy(), hi_u.copy()
            lo_c[j] = hi_c[j] = value
            child = relaxation(lo_c, hi_c, res)
            if child.status == "optimal":
                children.append((child.objective, value, lo_c, hi_c, child))
        res.tableau = None              # the children were its last warm starts
        children.sort(key=lambda t: (t[0], t[1]))
        for _, _, lo_c, hi_c, child in children:
            recurse(lo_c, hi_c, child)

    lo_root, hi_root = np.zeros(n_u), np.ones(n_u)
    root = relaxation(lo_root, hi_root)
    if root.status == "optimal":
        recurse(lo_root, hi_root, root)
    if best["x"] is None:
        return None
    u = np.round(best["x"][u0:u0 + n_u]).astype(int)
    schedule = RelaySchedule(u)
    # vhat = 0 (q = 0, every cut so far refuted its schedule) bounds log V' by -inf
    w = math.log(best["obj"] * state.master.v_scale) if best["obj"] > 0 else -math.inf
    return schedule, w


def goa_solve(s: ScenarioConfig, coeffs: LinkCoefficients, q: float, target: float,
              scheme: str = "mdnc", bounds: CountBounds | None = None,
              warm_schedule: RelaySchedule | None = None,
              include_user_energy: bool = False,
              outage_full: list | None = None) -> GoaState:
    """Outer-approximation loop for one fixed q: returns its final state.

    Alternates the fixed-schedule primal (updating the incumbent and the
    nonincreasing upper bound) with the cut master (updating the
    nondecreasing lower bound) until the bounds meet or the master proves
    that nothing can improve on the incumbent. outage_full is handed to
    MasterModel, so that a caller solving several q builds it once.
    """
    if bounds is None:
        bounds = relay_count_bounds(s, coeffs, target, scheme)
    if not bounds.feasible:
        raise ValueError(
            f"no admissible relay count: low={bounds.low}, up={bounds.up} for target {target}")
    if outage_full is None:
        outage_full = _all_relay_outage(s, coeffs, scheme)
    master = MasterModel(s, coeffs, scheme, q, np.full(len(outage_full), target),
                         include_user_energy, outage_full)
    state = GoaState(master=master, bounds=bounds)

    schedule = warm_schedule or RelaySchedule.from_indices(bounds.best_subset, s.N)
    for t in range(1, GOA_MAX_ITER + 1):
        state.iteration = t
        pp = assemble_primal(s, coeffs, schedule, q, target=target, scheme=scheme,
                             include_user_energy=include_user_energy)
        sol = solve_primal(pp) if pp.feasible else None
        if sol is not None:
            state.newton_total += sol.newton_iterations
            state.primal_unconverged += not sol.converged
            if sol.tilde_v < state.ubd:
                state.ubd = sol.tilde_v
                state.incumbent = sol
                state.incumbent_schedule = schedule
        state.cuts.append(build_oa_cuts(pp, sol, master))
        state.visited.append(schedule.theta)
        state.ubd_history.append(state.ubd)

        outcome = solve_master(state)
        if outcome is None:
            state.converged = state.incumbent is not None
            state.termination = "master infeasible (no remaining schedule can improve)"
            break
        schedule, w = outcome
        state.lbd = w
        state.lbd_history.append(w)
        if math.isfinite(state.ubd) and state.ubd - state.lbd <= GOA_REL_TOL * (1.0 + abs(state.ubd)):
            state.converged = True
            state.termination = "bound gap closed"
            break
        if schedule.theta in state.visited:
            # no-good rows make this unreachable; trip loudly if numerics disagree
            state.termination = "master revisited a schedule"
            break
    else:
        state.termination = "iteration limit"
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


def _assemble_solution(s, coeffs, scheme, target, schedule, sol: PrimalSolution,
                       q: float, diagnostics: dict) -> Solution:
    e = total_energy(s, schedule, sol.powers, scheme)
    exact = exact_outage(s, coeffs, scheme, schedule, sol.powers)
    approx = float(sol.outage_approx[0]) if scheme == "mdnc" else sol.outage_approx.copy()
    return Solution(feasible=True, scheme=scheme, target=target, schedule=schedule,
                    powers=sol.powers, ee=energy_efficiency(s, exact, e, scheme),
                    pr_out_exact=exact, pr_out_approx=approx,
                    energy=e, q_star=q, diagnostics=diagnostics)


def _max_slack_ratio(s, coeffs, schedule, target, scheme, include_user_energy) -> float | None:
    """Starting ratio of a schedule: its bits/energy ratio at the max-slack point.

    Using the ratio of an admissible point keeps the q-sequence nondecreasing
    from the first update on. None when even that point violates the
    approximate-outage cap.
    """
    pp = assemble_primal(s, coeffs, schedule, 0.0, target=target, scheme=scheme,
                         include_user_energy=include_user_energy)
    if not pp.feasible:
        return None
    x_hi = np.clip(pp.max_slack_point, pp.lo, pp.hi)
    e = total_energy(s, schedule, pp.powers(x_hi), scheme)
    return max(delivered_rate(s, pp.outage_at(x_hi), scheme) / e.e_tot, 0.0)


def _dinkelbach_loop(s, scheme, inner_solve, q0: float, warm: RelaySchedule):
    """Shared q-iteration: inner_solve(q, warm) -> (schedule, PrimalSolution, info).

    Stops when the inner maximum of V(q) is within tolerance of zero; the
    reported q is then the incumbent's own bits/energy ratio.
    """
    q = q0
    schedule = warm
    q_history: list[float] = []
    v_history: list[float] = []
    infos: list[dict] = []
    tol = DINKELBACH_TOL_REL * s.M * s.alpha0
    for theta in range(1, DINKELBACH_MAX_ITER + 1):
        schedule, sol, info = inner_solve(q, schedule)
        e = total_energy(s, schedule, sol.powers, scheme)
        numer = delivered_rate(s, sol.outage_approx, scheme)
        v = numer - q * e.e_tot
        q_history.append(q)
        v_history.append(v)
        infos.append(info)
        if abs(v) <= tol:
            diagnostics = {
                "dinkelbach_iterations": theta,
                "q_history": q_history,
                "v_history": v_history,
                "inner": infos,
            }
            return schedule, sol, diagnostics, numer / e.e_tot
        q = numer / e.e_tot
    raise RuntimeError(
        f"parametric q-iteration did not converge in {DINKELBACH_MAX_ITER} rounds "
        f"(last V = {v_history[-1]:.3e}, q = {q:.6e})")


def dinkelbach_solve(s: ScenarioConfig, coeffs: LinkCoefficients, target: float,
                     scheme: str = "mdnc", include_user_energy: bool = False) -> Solution:
    """Full pipeline: count bounds, then q-iterations with a GOA inner solve.

    Each new q warm-starts from the previous incumbent schedule. Returns the
    final operating point with the exact outage re-evaluated at the returned
    powers; the approximate-vs-exact gap is surfaced in the solution fields.
    """
    bounds = relay_count_bounds(s, coeffs, target, scheme)
    if not bounds.feasible:
        return Solution(feasible=False, scheme=scheme, target=target,
                        reason=f"no admissible relay count (low={bounds.low}, up={bounds.up})")

    schedule0 = RelaySchedule.from_indices(bounds.best_subset, s.N)
    q0 = _max_slack_ratio(s, coeffs, schedule0, target, scheme, include_user_energy)
    if q0 is None:
        q0 = 0.0   # the first inner solve then behaves as pure outage minimization
    outage_full = _all_relay_outage(s, coeffs, scheme)
    states: list[GoaState] = []

    def inner(q, warm):
        st = goa_solve(s, coeffs, q, target, scheme=scheme, bounds=bounds,
                       warm_schedule=warm, include_user_energy=include_user_energy,
                       outage_full=outage_full)
        states.append(st)
        if st.incumbent is None:
            raise _InfeasibleInner(st.termination)
        info = {
            "goa_iterations": st.iteration,
            "cuts": len(st.cuts),
            "newton_iterations": st.newton_total,
            "ubd_history": list(st.ubd_history),
            "lbd_history": list(st.lbd_history),
            "visited": list(st.visited),
            "termination": st.termination,
        }
        return st.incumbent_schedule, st.incumbent, info

    try:
        schedule, sol, diagnostics, q_final = _dinkelbach_loop(s, scheme, inner, q0, schedule0)
    except _InfeasibleInner as exc:
        return Solution(feasible=False, scheme=scheme, target=target,
                        reason=f"no schedule satisfies the approximate outage cap: {exc}")
    diagnostics["goa_states"] = len(states)
    diagnostics["newton_total"] = sum(st.newton_total for st in states)
    for counter in ("master_lps", "master_pivots", "master_nodes"):
        diagnostics[counter] = sum(getattr(st, counter) for st in states)
    diagnostics["primal_unconverged"] = sum(st.primal_unconverged for st in states)
    diagnostics["cuts_total"] = sum(len(st.cuts) for st in states)
    return _assemble_solution(s, coeffs, scheme, target, schedule, sol, q_final, diagnostics)


class _InfeasibleInner(Exception):
    pass


def nonc_solve(s: ScenarioConfig, coeffs: LinkCoefficients, target: float,
               include_user_energy: bool = False) -> Solution:
    """NoNC baseline through the same pipeline, per-user outage caps."""
    return dinkelbach_solve(s, coeffs, target, scheme="nonc",
                            include_user_energy=include_user_energy)


def dinkelbach_fixed_schedule(s: ScenarioConfig, coeffs: LinkCoefficients,
                              schedule: RelaySchedule, target: float, scheme: str = "mdnc",
                              include_user_energy: bool = False) -> Solution | None:
    """q-iterations with the schedule frozen (no master): the per-subset solver
    the brute-force oracle is built on. None when the subset is infeasible."""
    q0 = _max_slack_ratio(s, coeffs, schedule, target, scheme, include_user_energy)
    if q0 is None:
        return None

    sols: list[PrimalSolution] = []

    def inner(q, warm):
        pp = assemble_primal(s, coeffs, schedule, q, target=target, scheme=scheme,
                             include_user_energy=include_user_energy)
        sol = solve_primal(pp)
        sols.append(sol)
        return schedule, sol, {"newton_iterations": sol.newton_iterations}

    schedule, sol, diagnostics, q_final = _dinkelbach_loop(s, scheme, inner, q0, schedule)
    diagnostics["newton_total"] = sum(p.newton_iterations for p in sols)
    diagnostics["primal_unconverged"] = sum(not p.converged for p in sols)
    return _assemble_solution(s, coeffs, scheme, target, schedule, sol, q_final, diagnostics)
