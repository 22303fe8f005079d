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

from dataclasses import dataclass

import numpy as np

from .energy import scheme_constants
from .model import P_MIN, LinkCoefficients, ScenarioConfig
from .outage import (
    PowerAllocation,
    RelaySchedule,
    nonc_outage_posynomials,
    outage_posynomial,
    powers_from_log,
)
from .posynomial import Posynomial

__all__ = [
    "PrimalProblem",
    "PrimalSolution",
    "assemble_primal",
    "energy_model",
    "outage_posynomials",
    "solve_primal",
    "gradients",
]

# Barrier schedule: weight 1, divide by 10 per stage, stop when the duality
# gap bound (#constraints * weight) drops below GAP_TOL.
GAP_TOL = 1e-7
# A stage stops when half the squared Newton decrement (the predicted
# decrease of the merit t*log objective + barrier) is at most NEWTON_TOL or
# the merit's round-off floor eps*(|t*log objective| + |barrier|), whichever
# is larger: the Armijo test cannot resolve a smaller decrease.
NEWTON_TOL = 1e-12
ARMIJO_SLOPE = 0.3
ARMIJO_SHRINK = 0.5
MAX_NEWTON = 200


@dataclass
class PrimalProblem:
    """Assembled fixed-schedule problem: min log V'(x) subject to outage,
    budget and box constraints, all posynomial-backed."""

    s: ScenarioConfig
    coeffs: LinkCoefficients
    schedule: RelaySchedule
    q: float
    scheme: str
    targets: np.ndarray                 # one outage cap (MDNC) or M per-user caps (NoNC)
    lo: np.ndarray                      # box lower bounds on x
    hi: np.ndarray                      # box upper bounds on x
    vprime: Posynomial                  # objective inside: tilde V = log vprime
    outage_pos: list[Posynomial]        # constraint posynomial(s), same order as targets
    budget_pos: Posynomial              # grid energy draw, exponential part + constants
    budget_cap: float                   # budget_pos(x) <= budget_cap
    feasible: bool
    infeasible_reason: str | None = None
    max_slack_point: np.ndarray | None = None   # argmin of outage over the box (cut anchor)

    @property
    def dim(self) -> int:
        return len(self.lo)

    def split(self, x):
        return np.asarray(x[: self.s.M]), np.asarray(x[self.s.M:])

    def powers(self, x) -> PowerAllocation:
        ptilde, ptr = self.split(x)
        full = np.zeros(self.s.N)
        full[list(self.schedule.theta)] = ptr
        return powers_from_log(self.coeffs, self.schedule, ptilde, full)

    def outage_at(self, x) -> np.ndarray:
        return np.array([pos.value(x) for pos in self.outage_pos])


@dataclass
class PrimalSolution:
    """Solver output at one schedule: optimum, powers, and diagnostics."""

    x: np.ndarray
    ptilde: np.ndarray
    ptilde_relay: np.ndarray            # selected relays only, schedule order
    powers: PowerAllocation
    tilde_v: float
    vprime: float
    outage_approx: np.ndarray
    converged: bool
    newton_iterations: int
    barrier_stages: int
    kkt_residual: float


def _stacked(dim: int, *parts) -> Posynomial:
    """Posynomial whose terms are the rows of (coefficients, exponent rows) parts."""
    return Posynomial(np.concatenate([np.ravel(c) for c, _ in parts]),
                      np.vstack([np.reshape(e, (-1, dim)) for _, e in parts]), dim)


def outage_posynomials(coeffs: LinkCoefficients, selected, M: int, scheme: str) -> list[Posynomial]:
    """High-SNR outage posynomial(s) over the relays in selected: the network
    outage (MDNC) or one per user (NoNC), in the order of their targets."""
    if scheme == "mdnc":
        return [outage_posynomial(coeffs, selected, M)]
    if scheme == "nonc":
        return nonc_outage_posynomials(coeffs, selected, M)
    raise ValueError(f"unknown scheme {scheme!r}")


def energy_model(s: ScenarioConfig, coeffs: LinkCoefficients, relays, scheme: str, q: float,
                 outage_pos: list[Posynomial], include_user_energy: bool = False,
                 constants: tuple[float, float] = (0.0, 0.0)) -> tuple[Posynomial, Posynomial]:
    """V' and the grid-energy budget over x = (ptilde_1..M, ptilde'_j for j in relays).

    V' = constants[0] + q*T*sum_i e^(ptilde_i)
         + q*m*delta_P*T*sum_j c_j e^(ptilde'_j) + obj_coef*sum(outage_pos);
    budget = constants[1] + m*delta_P*T*sum_j c_j e^(ptilde'_j), plus
    T*sum_i e^(ptilde_i) when user energy counts against E0. The -c_j
    offsets of the substituted relay powers are left to the caller's
    constants and caps. The fixed-schedule primal passes its selected
    relays and constant rows; the master passes all N relays and no
    constants, its circuit energy being linear in u.
    """
    _, _, m, obj_coef = scheme_constants(s, scheme)
    c_g = coeffs.c_g[list(relays)]
    dim = s.M + len(c_g)
    eye = np.eye(dim)
    zero = np.zeros(dim)
    users, relay = eye[:s.M], eye[s.M:]
    vprime = _stacked(dim, ([constants[0]], zero),
                      (np.full(s.M, q * s.T), users), (q * m * s.delta_P * s.T * c_g, relay),
                      *((obj_coef * pos.coeffs, pos.expos) for pos in outage_pos))
    budget_parts = [([constants[1]], zero), (m * s.delta_P * s.T * c_g, relay)]
    if include_user_energy:
        budget_parts.append((np.full(s.M, s.T), users))
    return vprime, _stacked(dim, *budget_parts)


def assemble_primal(s: ScenarioConfig, coeffs: LinkCoefficients, schedule: RelaySchedule,
                    q: float, target: float | None = None, scheme: str = "mdnc",
                    include_user_energy: bool = False) -> PrimalProblem:
    """Build the fixed-schedule problem and pre-check feasibility.

    The outage cap is monotone decreasing in every power, so the max-power
    corner minimizes it; if even that corner misses the target (with the
    budget honored), the problem is marked infeasible and the minimizing
    point is kept as the certificate anchor for an infeasibility cut.
    """
    if q < 0:
        raise ValueError("q must be nonnegative")
    if target is None:
        target = s.pr_out_target
    n = schedule.count
    selected = schedule.theta

    outage_pos = outage_posynomials(coeffs, selected, s.M, scheme)
    targets = np.full(len(outage_pos), target)
    gamma, delta0, m, _ = scheme_constants(s, scheme)
    lo = np.concatenate([np.full(s.M, np.log(P_MIN)), np.zeros(n)])
    caps = np.array([np.log1p(s.P_R_max / coeffs.c_g[j]) for j in selected])
    hi = np.concatenate([np.full(s.M, np.log(s.P_S_max)), caps])

    # The -c_j offsets of the substituted relay powers move into the budget
    # cap; in V' the unselected relays keep their c_j, as at ptilde'_j = 0 in
    # the master's all-relay model.
    vp_const = (q * (gamma * n + delta0)
                + q * m * s.T * s.delta_P * float(np.sum(coeffs.c_g))
                - q * m * s.T * s.delta_P * float(np.sum(coeffs.c_g[list(selected)])))
    vprime, budget = energy_model(s, coeffs, selected, scheme, q, outage_pos, include_user_energy,
                                  constants=(vp_const, gamma * n + delta0))
    budget_cap = s.E0 + m * s.delta_P * s.T * float(np.sum(coeffs.c_g[list(selected)]))
    pp = PrimalProblem(s=s, coeffs=coeffs, schedule=schedule, q=q, scheme=scheme,
                       targets=targets, lo=lo, hi=hi, vprime=vprime,
                       outage_pos=outage_pos, budget_pos=budget, budget_cap=budget_cap,
                       feasible=True)

    if n < s.M and scheme == "mdnc":
        pp.feasible = False
        pp.infeasible_reason = f"schedule selects {n} < M = {s.M} relays; outage is certain"
        pp.max_slack_point = hi.copy()
        return pp

    if budget.value(hi) <= budget_cap:
        x_slack = hi.copy()
    elif budget.value(lo) >= budget_cap:
        # even the lowest powers leave no strict budget slack: with the
        # default budget, the circuit energy gamma*n + delta0 reaches E0
        pp.feasible = False
        pp.infeasible_reason = (
            f"energy budget E0 = {s.E0:g} J not strictly met at minimum power "
            f"for schedule {selected}")
        pp.max_slack_point = hi.copy()
        return pp
    else:
        # Budget binds before full power: push the outage down along the
        # steepest admissible direction instead of assuming the corner.
        x_slack = _max_slack_point(pp)
    pp.max_slack_point = x_slack
    if np.any(pp.outage_at(x_slack) > targets):
        pp.feasible = False
        worst = int(np.argmax(pp.outage_at(x_slack) / targets))
        pp.infeasible_reason = (
            f"outage {pp.outage_at(x_slack)[worst]:.3e} above target {targets[worst]:.3e} "
            f"at maximum admissible power for schedule {selected}"
        )
    return pp


def _max_slack_point(pp: PrimalProblem) -> np.ndarray:
    """Minimize the aggregate relative outage subject to budget and boxes.

    Used only when the budget excludes the max-power corner but is strictly
    met at the lower corner lo. The aggregate sum_i Pout_i/target_i is a
    posynomial, so this is one more convex solve; its minimizer is the
    constraint-slack certificate point.
    """
    agg = _stacked(pp.dim, *((pos.coeffs * (1.0 / t), pos.expos)
                             for pos, t in zip(pp.outage_pos, pp.targets)))
    # start strictly inside the budget: from the box midpoint, shrink the
    # relay powers toward zero, then (when user energy counts against the
    # budget) the user powers toward their floor
    x = 0.5 * (pp.lo + pp.hi)
    for block in (slice(pp.s.M, None), slice(0, pp.s.M)):
        for _ in range(80):
            if pp.budget_pos.value(x) < pp.budget_cap:
                break
            x[block] = 0.5 * (x[block] + pp.lo[block])
    res = _barrier_minimize(
        objective=agg,
        constraints=[(pp.budget_pos.value, pp.budget_pos.parts, pp.budget_cap)],
        lo=pp.lo, hi=pp.hi, x0=x,
    )
    return res[0]


def _barrier_value(x, lo, hi, constraints):
    """Log-barrier value -sum log(slack) at x, or None off the strict interior.

    Each constraint is a (value, parts, cap) triple meaning value(x) < cap,
    where parts(x) returns the value with its gradient and Hessian.
    """
    if np.any(x <= lo) or np.any(x >= hi):
        return None
    val = -(np.sum(np.log(hi - x)) + np.sum(np.log(x - lo)))
    for value, _, cap in constraints:
        g = value(x) - cap
        if g >= 0:
            return None
        val -= np.log(-g)
    return val


def _barrier_minimize(objective: Posynomial, constraints, lo, hi, x0):
    """Minimize log(objective(x)) over the box and the constraints.

    Returns (x, newton_iterations, barrier_stages, kkt_residual, exhausted).
    Implements the pinned schedule: barrier weight mu from 1 by factors of
    10 until (#inequalities)*mu < GAP_TOL, damped Newton inside. A stage
    ends when lambda^2/2 (half the squared Newton decrement) is at most
    max(NEWTON_TOL, eps*(|t*log objective| + |barrier|)), with t = 1/mu and
    eps the machine epsilon: below that round-off floor of the merit the
    Armijo test cannot tell a step from noise. Each iterate is evaluated
    once with derivatives; line-search trials are evaluated by value only.
    exhausted is set when a stage spends MAX_NEWTON steps or backtracking
    finds no acceptable step.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    x = np.asarray(x0, dtype=float).copy()
    dim = len(x)
    m_ineq = 2 * dim + len(constraints)
    eps = np.finfo(float).eps

    def evaluate(x):
        """Objective (log V, gradient, Hessian) and barrier (value, gradient, Hessian)."""
        su = hi - x
        sl = x - lo
        bv = -(np.sum(np.log(su)) + np.sum(np.log(sl)))
        bg = 1.0 / su - 1.0 / sl
        bh = np.diag(1.0 / su**2 + 1.0 / sl**2)
        for _, parts, cap in constraints:
            v, gg, gh = parts(x)
            g = v - cap
            bv -= np.log(-g)
            bg += gg / (-g)
            bh += gh / (-g) + np.outer(gg, gg) / g**2
        return objective.log_parts(x), (bv, bg, bh)

    if _barrier_value(x, lo, hi, constraints) is None:
        raise RuntimeError("barrier start point is not strictly feasible")

    mu = 1.0
    newton_total = 0
    stages = 0
    exhausted = False
    (fv, fg, fh), (bv, bg, bh) = evaluate(x)
    while True:
        stages += 1
        t = 1.0 / mu
        for inner in range(MAX_NEWTON):
            grad = t * fg + bg
            hess = t * fh + bh
            try:
                step = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                step = np.linalg.solve(hess + 1e-10 * np.trace(hess) * np.eye(dim), -grad)
            decrement2 = float(-grad @ step)
            base = t * fv + bv
            if decrement2 / 2.0 <= max(NEWTON_TOL, eps * (abs(t * fv) + abs(bv))):
                break
            # backtracking: stay strictly feasible, then Armijo
            alpha = 1.0
            while alpha > 1e-14:
                xn = x + alpha * step
                bn = _barrier_value(xn, lo, hi, constraints)
                if bn is not None and (t * objective.logvalue(xn) + bn
                                       <= base + ARMIJO_SLOPE * alpha * float(grad @ step)):
                    break
                alpha *= ARMIJO_SHRINK
            else:
                exhausted = True   # no acceptable step above the round-off floor
                break
            x = xn
            newton_total += 1
            (fv, fg, fh), (bv, bg, bh) = evaluate(x)
        else:
            exhausted = True   # Newton budget spent before reaching tolerance
        if m_ineq * mu < GAP_TOL:
            break
        mu /= 10.0

    # KKT stationarity residual of the original problem at the final iterate
    kkt = float(np.linalg.norm(fg + mu * bg))
    return x, newton_total, stages, kkt, exhausted


def solve_primal(pp: PrimalProblem) -> PrimalSolution:
    """Solve the assembled problem to duality gap below GAP_TOL.

    Deterministic given its inputs: fixed start (box midpoint, bisected
    toward the max-slack corner until strictly feasible), fixed barrier and
    line-search rules.
    """
    if not pp.feasible:
        raise ValueError(f"primal problem is infeasible: {pp.infeasible_reason}")

    constraints = [(pos.logvalue, pos.log_parts, np.log(t))
                   for pos, t in zip(pp.outage_pos, pp.targets)]
    constraints.append((pp.budget_pos.value, pp.budget_pos.parts, pp.budget_cap))

    span = pp.hi - pp.lo
    x0 = 0.5 * (pp.lo + pp.hi)
    anchor = np.clip(pp.max_slack_point, pp.lo + 1e-9 * span, pp.hi - 1e-9 * span)

    for _ in range(200):
        if _barrier_value(x0, pp.lo, pp.hi, constraints) is not None:
            break
        x0 = 0.5 * (x0 + anchor)
    else:
        raise RuntimeError("could not find a strictly feasible start despite feasibility pre-check")

    x, newton_total, stages, kkt, exhausted = _barrier_minimize(
        objective=pp.vprime, constraints=constraints, lo=pp.lo, hi=pp.hi, x0=x0,
    )

    ptilde, ptr = pp.split(x)
    powers = pp.powers(x)
    out = pp.outage_at(x)
    tv = pp.vprime.logvalue(x)
    return PrimalSolution(
        x=x, ptilde=ptilde, ptilde_relay=ptr, powers=powers, tilde_v=tv,
        vprime=float(np.exp(tv)), outage_approx=out, converged=not exhausted,
        newton_iterations=newton_total, barrier_stages=stages,
        kkt_residual=kkt,
    )


def gradients(pp: PrimalProblem, x) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradients of tilde V and of g = Pr_out - target at x.

    Returns (grad_tilde_v, grad_g) with grad_g one row per outage constraint
    (a single row for MDNC). Used for outer-approximation cuts and checked
    against central differences in the test suite.
    """
    x = np.asarray(x, dtype=float)
    gtv = pp.vprime.log_parts(x)[1]
    gg = np.vstack([pos.parts(x)[1] for pos in pp.outage_pos])
    return gtv, gg
