"""Barrier-Newton solver for the fixed-schedule power-allocation problem.

With the relay selection frozen, the working objective log V' and the
constraints (outage cap, energy budget, power boxes) are all convex in the
log-domain power variables, so the continuous subproblem is solved by a
standard logarithmic-barrier method with damped Newton inner iterations.
Everything is deterministic: no randomness, fixed iteration rules, analytic
gradients and Hessians from the posynomial forms.

Variable layout for a schedule with n selected relays:
x = (ptilde_1..ptilde_M, ptilde'_j for selected j in index order), dim M+n.
Unselected relays are eliminated from the vector entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .energy import scheme_constants
from .model import P_MIN, LinkCoefficients, ScenarioConfig
from .outage import (
    PowerAllocation,
    RelaySchedule,
    nonc_outage_approx_values,
    nonc_outage_posynomials,
    outage_approx_value,
    outage_posynomial,
    powers_from_log,
)
from .posynomial import Posynomial, segment_logvalues, segment_values

__all__ = [
    "PrimalProblem",
    "PrimalSolution",
    "assemble_primal",
    "log_power_model",
    "outage_posynomials",
    "outage_values",
    "solve_primal",
]

# Barrier schedule: weight 1, divide by 10 per stage, stop when the duality
# gap bound (#constraints * weight) drops below GAP_TOL.
GAP_TOL = 1e-7
# The last stage stops when half the squared Newton decrement (the predicted
# decrease of the merit t*log objective + barrier) is at most NEWTON_TOL or
# the merit's round-off floor eps*(|t*log objective| + |barrier|), whichever
# is larger: the Armijo test cannot resolve a smaller decrease. It then takes
# the full Newton step it just computed. At the last stage's t (1e8 to 1e9
# on paper.cfg) the floor, about eps*|t*log objective| ~ 3e-6, is far above
# NEWTON_TOL, so the stage ends wherever lambda^2/2 first drops below it, and
# the final point still depends on the path at round-off level: restarting
# the barrier at q* from 0.3, 0.7 and 0.9 of the box moved the powers by up
# to 2.8e-10 relative (paper.cfg and three random N = 6 scenarios, both
# schemes, targets 1e-2 to 1e-5), and changed a 12-significant-digit power
# in 31 of the 96 restarts. The golden sweep test's 1e-9 relative tolerance
# covers that.
NEWTON_TOL = 1e-12
# An earlier stage only warm-starts the next one, so it stops at
# lambda^2/2 <= 1/8, i.e. lambda <= 1/2: for the self-concordant merit its
# gap to the center is then at most lambda^2 = 1/4 (Boyd and Vandenberghe,
# Convex Optimization, 2004, sections 9.6.3 and 11.3.3).
CENTERING_TOL = 0.125
ARMIJO_SLOPE = 0.3
ARMIJO_SHRINK = 0.5
MAX_NEWTON = 200
# A line-search trial whose constraint tangent crosses a cap by more than
# TANGENT_MARGIN * (1 + |cap|) is rejected unevaluated (_BarrierStack.reach).
TANGENT_MARGIN = 1e-9


@dataclass
class PrimalProblem:
    """Assembled fixed-schedule problem: min log V'(x) subject to outage,
    budget and box constraints, all posynomial-backed. Only the objective
    depends on q, so one problem serves every q: vprime(q) builds it.

    outage_at(x) evaluates the outage by the counting recursion
    (outage_values) and is the only reading of it outside a barrier: the
    feasibility verdict, the reported approximate outage and the Dinkelbach
    start all come from it. The outage term matrices, outage_pos, are built
    on their first read, which only a barrier makes (solve_primal,
    _max_slack_point, and vprime, which a barrier minimizes).

    solve_primal builds the problem's barrier stack (_BarrierStack: V',
    the outage caps and the budget as one term matrix) on the first solve
    and keeps it in stack. A later q rewrites only the log-coefficients of
    V''s q-weighted rows, log([q*circuit], q*energy); the outage rows'
    log(obj_coef*c), the constraint rows and the first strictly feasible
    start point stay. A q that zeroes one of those weights, such as q = 0,
    drops the row from V' and so gets a stack of its own from the same
    builder, which is not kept."""

    s: ScenarioConfig
    coeffs: LinkCoefficients
    schedule: RelaySchedule
    scheme: str
    target: float                       # the cap on every outage
    lo: np.ndarray                      # box lower bounds on x
    hi: np.ndarray                      # box upper bounds on x
    circuit: float                      # V' constant (circuit energy, unselected c_j), times q
    energy: np.ndarray                  # V' weights on e^x, times q
    obj_coef: float                     # V' weight of the outage posynomials
    relay_energy: float                 # summed energy weights of all N relays
    budget_pos: Posynomial              # grid energy draw, exponential part + constants
    budget_cap: float                   # budget_pos(x) <= budget_cap
    feasible: bool
    infeasible_reason: str | None = None
    max_slack_point: np.ndarray | None = None   # least worst relative outage (start anchor)
    stack: _BarrierStack | None = field(default=None, repr=False)   # solve_primal's, once built

    @property
    def dim(self) -> int:
        return len(self.lo)

    @cached_property
    def outage_pos(self) -> list[Posynomial]:
        """The constraint posynomial(s), each capped at target."""
        return outage_posynomials(self.coeffs, self.schedule.theta, self.s.M, self.scheme)

    def powers(self, x) -> PowerAllocation:
        full = np.zeros(self.s.N)
        full[list(self.schedule.theta)] = x[self.s.M:]
        return powers_from_log(self.coeffs, self.schedule, x[:self.s.M], full)

    def outage_at(self, x) -> np.ndarray:
        return outage_values(self.coeffs, self.schedule.theta, self.s.M, self.scheme, x)

    def vprime(self, q: float) -> Posynomial:
        """V'(x) at q, whose log is the objective tilde V."""
        return _stacked(self.dim, ([q * self.circuit], np.zeros(self.dim)),
                        (q * self.energy, np.eye(self.dim)),
                        *((self.obj_coef * pos.coeffs, pos.expos) for pos in self.outage_pos))


@dataclass
class PrimalSolution:
    """Solver output at one schedule: optimum, powers, and diagnostics.

    kkt_residual is ||grad log V' + mu * grad barrier|| at the final barrier
    weight mu, the stationarity residual of the last stage's center. It is
    no convergence flag: where a box bound is active, the slack hi - x is
    about mu / |d log V'/dx|, its round-off is eps*|hi| absolute, and
    mu / (hi - x) carries that relative error into the residual. So it
    stays large however tightly the last stage is centered: 4.0e-5 on the
    benchmark's pool_scenario(0), NoNC at 1e-3, schedule (0, 2), with the
    first user at P_S_max.

    A solve given a cutoff may stop early, with lower_bound set: x is
    then a strictly feasible point of an earlier barrier stage, not the
    optimum, and converged only says that no stage it ran was exhausted.
    """

    x: np.ndarray                       # (ptilde_1..M, ptilde' of the selected relays)
    powers: PowerAllocation
    tilde_v: float
    outage_approx: np.ndarray
    converged: bool
    newton_iterations: int
    kkt_residual: float
    backtracks: int                     # rejected line-search trials
    lower_bound: float | None = None    # bound on the optimal tilde_v when stopped at a cutoff


def _stacked(dim: int, *parts) -> Posynomial:
    """Posynomial whose terms are the rows of (coefficients, exponent rows) parts."""
    return Posynomial(np.concatenate([np.ravel(c) for c, _ in parts]),
                      np.vstack([np.reshape(e, (-1, dim)) for _, e in parts]), dim)


def outage_posynomials(coeffs: LinkCoefficients, selected, M: int, scheme: str) -> list[Posynomial]:
    """High-SNR outage posynomial(s) over the relays in selected: the network
    outage (MDNC) or one per user (NoNC), users in order."""
    if scheme == "mdnc":
        return [outage_posynomial(coeffs, selected, M)]
    if scheme == "nonc":
        return nonc_outage_posynomials(coeffs, selected, M)
    raise ValueError(f"unknown scheme {scheme!r}")


def outage_values(coeffs: LinkCoefficients, selected, M: int, scheme: str, x) -> np.ndarray:
    """The values of outage_posynomials(coeffs, selected, M, scheme) at x,
    from the same counting on numbers: no term matrix is built. Every
    reading of the outage outside a barrier goes through here: the
    primal's verdict and reported outage (PrimalProblem.outage_at) and the
    master's cuts. x may be a batch of points, float or complex, shape
    (..., M + |selected|); the values then have shape (..., number of
    outages)."""
    if scheme == "mdnc":
        return np.asarray(outage_approx_value(coeffs, selected, M, x))[..., None]
    if scheme == "nonc":
        return nonc_outage_approx_values(coeffs, selected, M, x)
    raise ValueError(f"unknown scheme {scheme!r}")


def log_power_model(s: ScenarioConfig, coeffs: LinkCoefficients, scheme: str):
    """Energy weights, budget weights and box over all M + N log powers
    x = (ptilde_1..M, ptilde'_1..N): (energy, budget, lo, hi).

    The power-dependent energy is sum_k energy_k e^(x_k): T per user and
    m*delta_P*T*c_j per relay, whose substituted power c_j(e^(ptilde'_j) - 1)
    leaves a -c_j offset that callers fold into their constants and caps.
    The grid-energy budget draws budget_k e^(x_k): the relay weights, plus
    the user weights when s.user_energy_in_budget. The box holds each
    user power in [P_MIN, P_S_max] and each relay power in [0, P_R_max].
    The primal takes the users' and its selected relays' entries, the
    master all of them.
    """
    _, _, m, _ = scheme_constants(s, scheme)
    relay = m * s.delta_P * s.T * coeffs.c_g
    users = np.full(s.M, s.T)
    energy = np.concatenate([users, relay])
    budget = np.concatenate([users if s.user_energy_in_budget else np.zeros(s.M), relay])
    lo = np.concatenate([np.full(s.M, np.log(P_MIN)), np.zeros(s.N)])
    hi = np.concatenate([np.full(s.M, np.log(s.P_S_max)), np.log1p(s.P_R_max / coeffs.c_g)])
    return energy, budget, lo, hi


def assemble_primal(s: ScenarioConfig, coeffs: LinkCoefficients, schedule: RelaySchedule,
                    target: float, scheme: str = "mdnc") -> PrimalProblem:
    """Build the fixed-schedule problem and pre-check feasibility.

    The outage cap is monotone decreasing in every power, so the
    admissible point of least outage is the max-power corner hi when it
    fits the budget, and otherwise the max-slack point, which minimizes
    the worst relative outage within the budget. That point is picked
    first and kept as the primal's start anchor; the outage is then
    evaluated once, there, on numbers (outage_at), and a value above the
    target marks the problem infeasible. A budget not strictly met even at
    the lowest powers marks it infeasible with no anchor. Only a binding
    budget builds term matrices here, for the max-slack barrier. No q
    enters: the constraints, the feasibility test and the anchor hold at
    every q, and solve_primal takes the q.
    """
    n = schedule.count
    selected = schedule.theta

    gamma, delta0, _, obj_coef = scheme_constants(s, scheme)
    energy, budget_w, lo, hi = log_power_model(s, coeffs, scheme)
    keep = np.array([*range(s.M), *(s.M + j for j in selected)], dtype=int)
    lo, hi = lo[keep], hi[keep]
    dim = len(keep)
    relay = energy[s.M:]

    # The -c_j offsets of the substituted relay powers move into the budget
    # cap; in V' the unselected relays keep their c_j, as at ptilde'_j = 0 in
    # the master's all-relay model.
    off = np.ones(s.N, dtype=bool)
    off[list(selected)] = False
    unselected = float(np.sum(relay[off]))
    budget = _stacked(dim, ([gamma * n + delta0], np.zeros(dim)), (budget_w[keep], np.eye(dim)))
    budget_cap = s.E0 + float(np.sum(relay[list(selected)]))
    pp = PrimalProblem(s=s, coeffs=coeffs, schedule=schedule, scheme=scheme,
                       target=float(target), lo=lo, hi=hi, circuit=gamma * n + delta0 + unselected,
                       energy=energy[keep], obj_coef=obj_coef, relay_energy=float(np.sum(relay)),
                       budget_pos=budget, budget_cap=budget_cap, feasible=True)

    if n < s.M and scheme == "mdnc":
        pp.feasible = False
        pp.infeasible_reason = f"schedule selects {n} < M = {s.M} relays; outage is certain"
        return pp

    if budget.value(hi) <= budget_cap:
        pp.max_slack_point = hi.copy()
    elif budget.value(lo) >= budget_cap:
        # even the lowest powers leave no strict budget slack: with the
        # default budget, the circuit energy gamma*n + delta0 reaches E0
        pp.feasible = False
        pp.infeasible_reason = (
            f"energy budget E0 = {s.E0:g} J not strictly met at minimum power "
            f"for schedule {selected}")
        return pp
    else:
        # Budget binds before full power: push the outage down along the
        # steepest admissible direction instead of assuming the corner.
        pp.max_slack_point = _max_slack_point(pp)
    outage = pp.outage_at(pp.max_slack_point)
    if np.any(outage > pp.target):
        pp.feasible = False
        worst = int(np.argmax(outage / pp.target))
        pp.infeasible_reason = (
            f"outage {outage[worst]:.3e} above target {pp.target:.3e} "
            f"at maximum admissible power for schedule {selected}"
        )
    return pp


def _max_slack_point(pp: PrimalProblem) -> np.ndarray:
    """Minimize the worst relative outage max_i Pout_i/target subject to
    budget and boxes.

    Used only when the budget excludes the max-power corner but is strictly
    met at the lower corner lo. The schedule is feasible exactly when this
    minimum is at most 1. In epigraph form it is one more convex solve over
    (x, sigma): minimize e^sigma subject to log(Pout_i(x) e^(-sigma)) <=
    log target per outage, and the budget. Every outage falls in every
    power, so the worst ratio lies between its values at hi and at lo, and
    sigma's box is their logs widened by 1, read from the term matrices
    this barrier minimizes over.
    """
    dim = pp.dim
    worst = [np.log(max(pos.value(x) for pos in pp.outage_pos) / pp.target)
             for x in (pp.hi, pp.lo)]
    lo, hi = np.append(pp.lo, worst[0] - 1.0), np.append(pp.hi, worst[1] + 1.0)

    def lifted(pos, sigma):
        return Posynomial(pos.coeffs, np.hstack([pos.expos, np.full((pos.n_terms, 1), sigma)]),
                          dim + 1)

    def starts():
        # from the box midpoint, shrink the relay powers toward zero, then
        # (when user energy counts against the budget) the user powers
        # toward their floor, until the budget is strictly met; sigma sits
        # above the worst ratio anywhere in the box
        x = np.append(0.5 * (pp.lo + pp.hi), hi[-1] - 0.5)
        for block in (slice(pp.s.M, dim), slice(0, pp.s.M)):
            for _ in range(80):
                yield x.copy()
                x[block] = 0.5 * (x[block] + lo[block])
        yield x

    res = _barrier_minimize(
        objective=Posynomial([1.0], np.eye(dim + 1)[-1:], dim + 1),
        log_constraints=[(lifted(pos, -1.0), np.log(pp.target)) for pos in pp.outage_pos],
        linear_constraints=[(lifted(pp.budget_pos, 0.0), pp.budget_cap)],
        lo=lo, hi=hi, starts=starts())
    return res[0][:dim]


class _BarrierStack:
    """The objective and every constraint of one barrier problem as one term matrix.

    Segment 0 is the objective P0, minimized as log P0. Then come the log
    constraints log P_i < cap_i and the linear constraints P_j < cap_j, with
    the box lo < x < hi. One exponent pass evaluates them all, the steps of
    posynomial.stacked_terms, so each P here equals its standalone
    Posynomial value bit for bit.

    Everything but the log-coefficients is fixed at construction: the
    stacked rows, the segments, the objective's and the constraints'
    transposed rows and each constraint row's segment. So a caller may
    rewrite the objective's part of logc in place (solve_primal does, to
    move V' to another q) provided it calls forget() before the next
    evaluation; the constraints, and so the start point (start), stay.

    derivatives(x) also keeps the constraints' tangents at x, from which
    reach(step) bounds the line search (see there).
    """

    def __init__(self, objective: Posynomial, log_constraints, linear_constraints, lo, hi):
        posys = [objective] + [p for p, _ in log_constraints] + [p for p, _ in linear_constraints]
        counts = np.array([p.n_terms for p in posys])
        if not np.all(counts):
            raise ValueError("barrier objective and constraints need at least one term each")
        self.expos = np.vstack([p.expos for p in posys])
        self.logc = np.concatenate([p.logc for p in posys])
        self.starts = np.concatenate([[0], np.cumsum(counts[:-1])])
        self.segment = np.repeat(np.arange(len(posys)), counts)   # segment of each row
        self.n_obj = n0 = counts[0]
        self.obj_rows_t = self.expos[:n0].T
        self.con_rows_t = self.expos[n0:].T
        self.con_segment = self.segment[n0:] - 1                  # constraint of each row
        self.n_log = len(log_constraints)
        self.caps = np.array([c for _, c in log_constraints] + [c for _, c in linear_constraints],
                             dtype=float)
        self.margin = TANGENT_MARGIN * (1.0 + np.abs(self.caps))
        self.lo = lo
        self.hi = hi
        self._last = None                 # (point, evaluation) last made inside the box
        self._tangent = None              # constraint gradient rows and their weights
        self._start = None                # the first strictly feasible start candidate

    def forget(self):
        """Drop the kept evaluation, after logc has been rewritten."""
        self._last = None

    def start(self, candidates):
        """The first of the candidate points that is strictly feasible.

        Found once and kept: whether a point is strictly feasible depends
        on the box and the constraints alone, which a rewrite of logc does
        not touch, so a later call, which must pass the same candidates,
        returns the kept point without evaluating any.
        """
        if self._start is None:
            for x in candidates:
                x = np.asarray(x, dtype=float)
                if self.value(x) is not None:
                    self._start = x
                    break
            else:
                raise RuntimeError("no candidate barrier start point is strictly feasible")
        return self._start

    def _evaluate(self, x):
        """Objective log value, the barrier (None off the strict interior),
        every inequality's slack (box upper, box lower, constraints), the
        linear constraints' values and the stacked terms; None off the open
        box, where the exponentials may overflow.

        The exponent pass is posynomial.stacked_terms written out in place,
        the same four array operations in the same order, so every value
        still equals its standalone Posynomial value bit for bit. The last
        evaluation inside the box is kept with the array it was made at: a
        Newton iterate is the line search's accepted trial, the very array
        value saw, so derivatives there reuse value's pass. A hit is tested
        by identity, which is exact because no iterate is ever mutated in
        place: every new point is a new array.
        """
        if self._last is not None and self._last[0] is x:
            return self._last[1]
        box = np.concatenate((self.hi - x, x - self.lo))
        if np.minimum.reduce(box) <= 0:
            return None
        z = np.einsum("ij,j->i", self.expos, x) + self.logc
        zmax = np.maximum.reduceat(z, self.starts)
        e = np.exp(z - zmax[self.segment])
        sums = np.add.reduceat(e, self.starts)
        k = 1 + self.n_log
        values = segment_logvalues(zmax, sums)
        values[k:] = segment_values(zmax[k:], sums[k:])
        slack = np.concatenate((box, self.caps - values[1:]))
        barrier = -float(np.log(slack).sum()) if np.minimum.reduce(slack) > 0 else None
        evaluated = float(values[0]), barrier, slack, values[k:], e, sums
        self._last = x, evaluated
        return evaluated

    def value(self, x):
        """(log objective, barrier) at x, or None off the strict interior."""
        evaluated = self._evaluate(x)
        if evaluated is None or evaluated[1] is None:
            return None
        return evaluated[:2]

    def derivatives(self, x):
        """(log objective, gradient, Hessian) and (barrier, gradient, Hessian) at an
        interior x.

        With softmax weights w per segment and means G (one row per segment),
        log P_i has gradient G_i and Hessian A_i^T diag(w) A_i - G_i G_i^T, and
        P_j has gradient P_j G_j and Hessian A_j^T diag(P_j w) A_j. So the
        constraint barrier's Hessian is A^T diag(omega) A + G^T diag(d) G over
        the constraint rows, with coef = 1/slack (log) or P/slack (linear) per
        segment, omega = coef*w per row and d = coef^2 - coef (log) or coef^2
        (linear).
        """
        fv, bv, slack, lin, e, sums = self._evaluate(x)
        dim = len(x)
        n0 = self.n_obj
        wa = (e / sums[self.segment])[:, None] * self.expos
        means = np.add.reduceat(wa, self.starts, axis=0)
        fg = means[0]
        fh = self.obj_rows_t @ wa[:n0] - fg[:, None] * fg

        inverse = 1.0 / slack
        box = inverse[:2 * dim]
        coef = inverse[2 * dim:]
        coef[self.n_log:] *= lin
        d = coef * coef
        d[:self.n_log] -= coef[:self.n_log]
        G = means[1:]
        bg = box[:dim] - box[dim:] + coef @ G
        bh = (self.con_rows_t @ (coef[self.con_segment, None] * wa[n0:])
              + G.T @ (d[:, None] * G))
        sq = box * box
        bh.reshape(-1)[::dim + 1] += sq[:dim] + sq[dim:]

        scale = 1.0 / (slack[2 * dim:] + self.margin)
        scale[self.n_log:] *= lin
        self._tangent = G, scale
        return (fv, fg, fh), (bv, bg, bh)

    def reach(self, step) -> float:
        """The largest line-search step alpha along step, from the point of
        the last derivatives call, that the constraints' tangents there do
        not rule out; inf when none bounds it.

        Every constraint function g (log P_i, with gradient G_i, or P_j,
        with gradient P_j G_j) is convex, so g(x + alpha*step) >= g(x) +
        alpha*grad g . step, and a trial with alpha*grad g . step >= slack
        + margin lies outside the constraint. The margin, TANGENT_MARGIN *
        (1 + |cap|), is far above the round-off of the slack, the tangent
        and the trial's own evaluation, so every trial past the reach is
        one that value would reject.
        """
        if not len(self.caps):
            return np.inf
        G, scale = self._tangent
        worst = max(((G @ step) * scale).tolist())
        return 1.0 / worst if worst > 0.0 else np.inf

    def lower_bound(self, x, mu, fv, fg, bg) -> float:
        """A lower bound on min log P0 over the constraints and the closed
        box, from an interior x, the barrier weight mu and derivatives(x).

        Weak duality (Boyd and Vandenberghe, Convex Optimization, 2004,
        sections 5.2 and 11.2): each constraint f_i < 0 takes the multiplier
        mu/slack_i > 0, and the box stays a hard constraint. The Lagrangian
        L(z) = log P0(z) + sum_i mu*f_i(z)/slack_i is convex, so its minimum
        over the box is at least L(x) + min over the box of g.(z - x), with
        g = grad L(x), and a linear function takes its minimum over a box at
        one end of every coordinate. L(x) = log P0(x) - n_c*mu, since
        f_i(x) = -slack_i, and g is fg plus mu times the barrier gradient bg
        without its box terms. The bound holds at any interior x, centered
        or not.
        """
        g = fg + mu * (bg - 1.0 / (self.hi - x) + 1.0 / (x - self.lo))
        return float(fv - len(self.caps) * mu
                     + np.minimum(g * (self.lo - x), g * (self.hi - x)).sum())


def _barrier_minimize(objective: Posynomial, log_constraints, linear_constraints, lo, hi, starts,
                      cutoff: float | None = None):
    """Minimize log(objective(x)) over the box and the constraints.

    log_constraints holds (posynomial, cap) pairs meaning log P(x) < cap,
    linear_constraints pairs meaning P(x) < cap. The barrier starts from the
    first of the candidate points in starts that is strictly feasible.
    Returns (x, newton_iterations, kkt_residual, exhausted, backtracks,
    lower_bound), backtracks counting rejected line-search trials: those of
    _minimize on the problem's _BarrierStack.
    """
    stack = _BarrierStack(objective, log_constraints, linear_constraints,
                          np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    return _minimize(stack, starts, cutoff)


def _minimize(stack: _BarrierStack, starts, cutoff: float | None = None):
    """The barrier-Newton method on a stacked problem; returns what
    _barrier_minimize returns.

    Implements the pinned schedule: barrier weight mu from 1 by
    factors of 10 until (#inequalities)*mu < GAP_TOL, damped Newton inside.
    A stage ends when lambda^2/2 (half the squared Newton decrement) is at
    most max(tol, eps*(|t*log objective| + |barrier|)), with t = 1/mu and
    eps the machine epsilon: below that round-off floor of the merit the
    Armijo test cannot tell a step from noise. tol is CENTERING_TOL in the
    stages that only warm-start the next one and NEWTON_TOL in the last,
    which certifies the gap. When the last stage meets its test it takes the
    full Newton step just computed, if that step stays strictly feasible,
    and counts it. That step does not make the result independent of the
    start: the last stage stops at the round-off floor, so restarts from
    other points end about 1e-10 relative apart (see NEWTON_TOL).
    exhausted is set when a stage spends MAX_NEWTON steps or backtracking
    finds no acceptable step.

    The line search tries alpha = 1, 1/2, 1/4, ... with the Armijo test.
    Every point is evaluated at most once: a trial by value, and the
    accepted trial's terms are reused for its derivatives. A trial past
    stack.reach(step), which the constraints' tangents at x already put
    outside a constraint by more than TANGENT_MARGIN * (1 + |cap|), is
    counted as rejected without being evaluated; value would reject it
    too, so the iterates and every counter are those of evaluating it. On
    one round of the benchmark's paper_sweep and scale_random workloads
    (68 barriers, 1231 Newton steps, 1144 rejected trials) this skips 1029
    trials, where evaluating every trial met 994 points outside a
    constraint and 322 outside the box. With the start points that a kept
    stack does not probe again (start), the round's fresh evaluations fall
    from 2686 to 1594.

    With a cutoff, every stage but the last ends with the duality bound of
    _BarrierStack.lower_bound at its point; once that bound reaches the
    cutoff, the optimum cannot lie below it, and the solve stops there and
    returns the bound as lower_bound (None when it ran to the end). Without
    a stop, the iterates are the same as without a cutoff.
    """
    x = stack.start(starts)
    dim = len(x)
    m_ineq = 2 * dim + len(stack.caps)
    eps = np.finfo(float).eps

    mu = 1.0
    newton_total = 0
    backtracks = 0
    exhausted = False
    lower = None
    (fv, fg, fh), (bv, bg, bh) = stack.derivatives(x)
    while True:
        t = 1.0 / mu
        last = m_ineq * mu < GAP_TOL
        tol = NEWTON_TOL if last else CENTERING_TOL
        for inner in range(MAX_NEWTON):
            descent = -(t * fg + bg)
            hess = t * fh + bh
            try:
                step = np.linalg.solve(hess, descent)
            except np.linalg.LinAlgError:
                step = np.linalg.solve(hess + 1e-10 * np.trace(hess) * np.eye(dim), descent)
            decrement2 = float(descent @ step)
            base = t * fv + bv
            if decrement2 / 2.0 <= max(tol, eps * (abs(t * fv) + abs(bv))):
                if last and stack.reach(step) >= 1.0:
                    xn = x + step
                    if stack.value(xn) is not None:
                        x = xn
                        newton_total += 1
                        (fv, fg, fh), (bv, bg, bh) = stack.derivatives(x)
                break
            # backtracking: stay strictly feasible, then Armijo
            slope = -decrement2
            reach = stack.reach(step)
            alpha = 1.0
            while alpha > 1e-14:
                if alpha <= reach:
                    xn = x + step if alpha == 1.0 else x + alpha * step   # same bits
                    trial = stack.value(xn)
                    if trial is not None and (t * trial[0] + trial[1]
                                              <= base + ARMIJO_SLOPE * alpha * slope):
                        break
                backtracks += 1
                alpha *= ARMIJO_SHRINK
            else:
                exhausted = True   # no acceptable step above the round-off floor
                break
            x = xn
            newton_total += 1
            (fv, fg, fh), (bv, bg, bh) = stack.derivatives(x)
        else:
            exhausted = True   # Newton budget spent before reaching tolerance
        if last:
            break
        if cutoff is not None:
            bound = stack.lower_bound(x, mu, fv, fg, bg)
            if bound >= cutoff:
                lower = bound
                break
        mu /= 10.0

    # KKT stationarity residual of the original problem at the final iterate
    kkt = float(np.linalg.norm(fg + mu * bg))
    return x, newton_total, kkt, exhausted, backtracks, lower


def solve_primal(pp: PrimalProblem, q: float, cutoff: float | None = None) -> PrimalSolution:
    """Solve the assembled problem at q >= 0 to duality gap below GAP_TOL.

    Deterministic given its inputs: fixed start (box midpoint, bisected
    toward the max-slack corner until strictly feasible), fixed barrier and
    line-search rules. With a cutoff on log V', the solve stops after the
    first barrier stage whose duality bound on the optimum reaches it (see
    _barrier_minimize): the returned point is strictly feasible, and
    lower_bound holds the bound, so the schedule's optimal tilde_v at q is
    at least cutoff. A solve that does not stop returns the same solution
    as one without a cutoff.
    """
    if q < 0:
        raise ValueError("q must be nonnegative")
    if not pp.feasible:
        raise ValueError(f"primal problem is infeasible: {pp.infeasible_reason}")
    # the problem's stack, kept from its first solve (see PrimalProblem)
    weights = np.append(q * pp.circuit, q * pp.energy)
    kept = bool(np.all(weights > 0))
    stack = pp.stack
    if kept and stack is not None:
        stack.logc[:len(weights)] = np.log(weights)
        stack.forget()
    else:
        stack = _BarrierStack(pp.vprime(q), [(pos, np.log(pp.target)) for pos in pp.outage_pos],
                              [(pp.budget_pos, pp.budget_cap)], pp.lo, pp.hi)
        if kept:
            pp.stack = stack

    span = pp.hi - pp.lo
    anchor = np.clip(pp.max_slack_point, pp.lo + 1e-9 * span, pp.hi - 1e-9 * span)

    def starts():
        x0 = 0.5 * (pp.lo + pp.hi)
        for _ in range(200):
            yield x0
            x0 = 0.5 * (x0 + anchor)

    x, newton_total, kkt, exhausted, backtracks, lower = _minimize(stack, starts(), cutoff)

    # segment 0 of the stack is V' bit for bit, and x is strictly feasible
    return PrimalSolution(
        x=x, powers=pp.powers(x), tilde_v=stack.value(x)[0], outage_approx=pp.outage_at(x),
        converged=not exhausted, newton_iterations=newton_total, kkt_residual=kkt,
        backtracks=backtracks, lower_bound=lower,
    )
