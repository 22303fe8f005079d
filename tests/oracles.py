"""Test-only oracles: the paper's outage expressions as literal subset sums.

The library evaluates the exact outage as a Poisson-binomial tail and builds
the high-SNR posynomials by counting recursions. The functions here spell
the same quantities out term by term, enumerating decode subsets Phi and
survivor subsets psi, so the fast forms can be checked against them.

The working objective log V' is spelled out here too, from the energy
breakdown and the parametric value V rather than from the stacked V'
posynomial the solver builds (its outage term is the library's outage
posynomial, itself checked against the subset sums above).

powers_to_log maps natural powers to the log-domain variables, the inverse
of the library's powers_from_log. value_grad is (P, grad P) of a
posynomial from its term matrix, the gradient oracle of the barrier and
of the master's complex-step cuts, and log_gradient is grad log P from it.

plain_brute_force is exhaustive search without screening: a full
q-iteration on every subset in the relay-count window.

term_matrix_verdict is the fixed-schedule feasibility pre-check with every
outage read from freshly built term matrices instead of the counting
recursion the library reads it by.

dominates decides schedule dominance by trying every pairing of the two
schedules' relays, and closed_under_dominance asks it of every one-relay
swap, where the library reads both from its relay pairs.

whole_chunk_failures is the Monte Carlo kernel without blocks or threads:
each chunk's gains in one fill per hop and the outage rules as array
reductions.

plain_barrier_minimize is the barrier-Newton method that evaluates every
line-search trial, with PlainBarrierStack building its term matrix afresh
for every solve and evaluating through posynomial.stacked_terms:
convex_solver's _barrier_minimize and _BarrierStack before the tangent
bound on the line search and the per-problem stack. plain_primal runs it
on the problem solve_primal solves.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations, product

import numpy as np

from mdncee.convex_solver import (
    ARMIJO_SHRINK,
    ARMIJO_SLOPE,
    CENTERING_TOL,
    GAP_TOL,
    MAX_NEWTON,
    NEWTON_TOL,
    _max_slack_point,
    assemble_primal,
    outage_posynomials,
)
from mdncee.energy import EnergyBreakdown, delivered_rate, total_energy
from mdncee.model import LinkCoefficients, ScenarioConfig
from mdncee.optimizer import Solution, dinkelbach_fixed_schedule, relay_count_bounds
from mdncee.outage import PowerAllocation, RelaySchedule, outage_posynomial, powers_from_log
from mdncee.posynomial import Posynomial, segment_logvalues, segment_values, stacked_terms
from mdncee.simulate import CHUNK, McConfig, rng_for_chunk


def prob_zeta_K(schedule: RelaySchedule, rho, K: int) -> float:
    """Probability that exactly K of the selected relays decode all messages."""
    if not 0 <= K <= schedule.count:
        raise ValueError(f"K={K} outside 0..{schedule.count}")
    rho = {j: float(r) for j, r in zip(schedule.theta, np.asarray(rho, dtype=float).ravel())}
    terms = []
    for phi in combinations(schedule.theta, K):
        inside = set(phi)
        prod = 1.0
        for j in schedule.theta:
            prod *= rho[j] if j in inside else (1.0 - rho[j])
        terms.append(prod)
    return math.fsum(terms)


def prob_varsigma_given_zeta(phi_K, pr_e_g, tau: int) -> float:
    """Probability that exactly tau of the relays in phi_K survive the second hop.

    pr_e_g maps each relay in phi_K (in order) to its second-hop outage.
    """
    phi_K = tuple(phi_K)
    if not 0 <= tau <= len(phi_K):
        raise ValueError(f"tau={tau} outside 0..{len(phi_K)}")
    pe = {j: float(e) for j, e in zip(phi_K, np.asarray(pr_e_g, dtype=float).ravel())}
    terms = []
    for psi in combinations(phi_K, tau):
        inside = set(psi)
        prod = 1.0
        for j in phi_K:
            prod *= (1.0 - pe[j]) if j in inside else pe[j]
        terms.append(prod)
    return math.fsum(terms)


def outage_approx_power(coeffs, schedule: RelaySchedule, powers: PowerAllocation) -> float:
    """High-SNR approximation evaluated in natural power variables.

    First-hop failure factors become f_j = sum_i c_ij/p_i, second-hop failures
    e_j = c_j/(c_j + u_j p'_j); all success factors are 1. The case-B inner sum
    runs over survivor subsets psi of each decode subset Phi.
    """
    M = coeffs.c_h.shape[0]
    f = {j: math.fsum(coeffs.c_h[:, j] / powers.p) for j in schedule.theta}
    e = {j: coeffs.c_g[j] / (coeffs.c_g[j] + schedule.u[j] * powers.p_relay[j])
         for j in schedule.theta}
    terms = []
    for K in range(schedule.count + 1):
        for phi in combinations(schedule.theta, K):
            inside = set(phi)
            first = 1.0
            for j in schedule.theta:
                if j not in inside:
                    first *= f[j]
            if K < M:
                terms.append(first)
            else:
                inner = []
                for tau in range(M):
                    for psi in combinations(phi, tau):
                        survived = set(psi)
                        prod = 1.0
                        for j in phi:
                            if j not in survived:
                                prod *= e[j]
                        inner.append(prod)
                terms.append(first * math.fsum(inner))
    return math.fsum(terms)


def _expand_first_hop(coeffs, undecoded, dim):
    """prod_{j in undecoded} sum_i c_ij e^(-x_i) as {exponent tuple: coefficient}."""
    M = coeffs.c_h.shape[0]
    terms: dict = {}
    for users in product(range(M), repeat=len(undecoded)):
        e = [0] * dim
        c = 1.0
        for i, j in zip(users, undecoded):
            e[i] -= 1
            c *= coeffs.c_h[i, j]
        key = tuple(e)
        terms[key] = terms.get(key, 0.0) + c
    return terms


def enumerated_outage_terms(coeffs, selected, M: int) -> dict:
    """MDNC high-SNR outage posynomial as {exponent tuple: coefficient}.

    Variables x = (ptilde_1..M, ptilde'_j for j in selected). Sums over decode
    subsets Phi: if |Phi| < M the undecoded relays' f_j product alone; else
    that product times every survivor subset psi of Phi with |psi| < M, each
    contributing e^(-ptilde'_j) for the relays of Phi outside psi.
    """
    selected = tuple(selected)
    dim = M + len(selected)
    col = {j: M + k for k, j in enumerate(selected)}
    total: dict = {}
    for K in range(len(selected) + 1):
        for phi in combinations(selected, K):
            first = _expand_first_hop(coeffs, [j for j in selected if j not in phi], dim)
            if K < M:
                seconds = [(0,) * dim]
            else:
                seconds = []
                for tau in range(M):
                    for psi in combinations(phi, tau):
                        e = [0] * dim
                        for j in phi:
                            if j not in psi:
                                e[col[j]] -= 1
                        seconds.append(tuple(e))
            for e1, c in first.items():
                for e2 in seconds:
                    key = tuple(a + b for a, b in zip(e1, e2))
                    total[key] = total.get(key, 0.0) + c
    return total


def enumerated_nonc_terms(coeffs, selected, M: int) -> list[dict]:
    """Per-user NoNC posynomials prod_j (c_ij e^(-x_i) + e^(-x'_j)) as term dicts.

    Enumerates the subset of relays contributing their second-hop factor.
    """
    selected = tuple(selected)
    n = len(selected)
    dim = M + n
    result = []
    for i in range(M):
        terms: dict = {}
        for size in range(n + 1):
            for second in combinations(range(n), size):
                e = [0] * dim
                c = 1.0
                for k, j in enumerate(selected):
                    if k in second:
                        e[M + k] -= 1
                    else:
                        e[i] -= 1
                        c *= coeffs.c_h[i, j]
                key = tuple(e)
                terms[key] = terms.get(key, 0.0) + c
        result.append(terms)
    return result


def value_grad(pos: Posynomial, x):
    """(P, grad P) at x from one exponent evaluation of the term matrix; P
    equals pos.value(x) bit for bit."""
    if pos.n_terms == 0:
        return 0.0, np.zeros(pos.dim)
    zmax, e, total = stacked_terms(pos.expos, pos.logc, np.zeros(1, dtype=np.intp),
                                   np.asarray(x, dtype=float))
    return float(segment_values(zmax, total)[0]), (np.exp(zmax) * e) @ pos.expos


def log_gradient(pos, x) -> np.ndarray:
    """Gradient of log P at x, from the posynomial's value and gradient:
    grad log V' at q is log_gradient(pp.vprime(q), x)."""
    value, grad = value_grad(pos, x)
    return grad / value


def powers_to_log(coeffs: LinkCoefficients, schedule: RelaySchedule, powers: PowerAllocation):
    """Natural powers to the log-domain variables (ptilde, ptilde_relay).

    ptilde_i = ln p_i; ptilde'_j solves u_j p'_j = c_j e^(ptilde'_j) - c_j, so
    ptilde'_j = ln(1 + u_j p'_j / c_j) (0 for unselected relays).
    """
    ptilde = np.log(powers.p)
    ptilde_relay = np.log1p(schedule.u * powers.p_relay / coeffs.c_g)
    return ptilde, ptilde_relay


def outage_approx_logdomain(coeffs: LinkCoefficients, schedule: RelaySchedule,
                            ptilde, ptilde_relay) -> float:
    """Approximate outage in the log-domain variables.

    `ptilde_relay` holds the selected relays' variables in schedule order and
    must be >= 0 so the implied real power c_j e^(ptilde'_j) - c_j is >= 0.
    Equals the natural-power approximation after substitution.
    """
    ptilde = np.asarray(ptilde, dtype=float)
    ptilde_relay = np.asarray(ptilde_relay, dtype=float)
    if np.any(ptilde_relay < 0):
        raise ValueError("log-domain relay variables must be >= 0")
    M = coeffs.c_h.shape[0]
    pos = outage_posynomial(coeffs, schedule.theta, M)
    return pos.value(np.concatenate([ptilde, ptilde_relay]))


def subtractive_value(q: float, s: ScenarioConfig, outage_total: float, e: EnergyBreakdown) -> float:
    """Parametric objective V = M*alpha0*(1 - Pr_out) - q*E_tot.

    Zero exactly at q = M*alpha0*(1 - Pr_out)/E_tot; the reported bits-per-
    joule EE is that root times T.
    """
    if q < 0:
        raise ValueError("q must be nonnegative")
    return delivered_rate(s, outage_total) - q * e.e_tot


def tilde_v(q: float, s: ScenarioConfig, coeffs: LinkCoefficients, schedule: RelaySchedule,
            ptilde, ptilde_relay) -> float:
    """Working objective log(V') at a log-domain operating point.

    `ptilde_relay` holds the selected relays' variables in schedule order.
    V' = -V + M*alpha0 + q*T*delta_P*sum_j c_j, evaluated with the
    approximate outage and the substituted relay powers; the added constant
    absorbs the negative -c_j offsets of u_j p'_j = c_j e^(ptilde'_j) - c_j,
    leaving a positive sum of exponential terms. At a root of V this reduces
    to log(M*alpha0 + q*T*delta_P*sum_j c_j).
    """
    if q < 0:
        raise ValueError("q must be nonnegative")
    ptilde_relay = np.asarray(ptilde_relay, dtype=float)
    full = np.zeros(s.N)
    full[list(schedule.theta)] = ptilde_relay
    powers = powers_from_log(coeffs, schedule, ptilde, full)
    pr = outage_approx_logdomain(coeffs, schedule, ptilde, ptilde_relay)
    e = total_energy(s, schedule, powers)
    v = subtractive_value(q, s, pr, e)
    v_prime = -v + s.M * s.alpha0 + q * s.T * s.delta_P * float(np.sum(coeffs.c_g))
    if v_prime <= 0:
        raise RuntimeError(
            f"V' = {v_prime} <= 0 at q={q}, ptilde={np.asarray(ptilde).tolist()}, "
            f"ptilde_relay={np.asarray(ptilde_relay).tolist()}; cannot take log"
        )
    return float(np.log(v_prime))


def plain_brute_force(s: ScenarioConfig, coeffs: LinkCoefficients, target: float,
                      scheme: str = "mdnc") -> Solution:
    """q-iterate every subset in the count window; the first strictly greater
    q_star wins. An empty or all-infeasible window gives feasible=False."""
    bounds = relay_count_bounds(s, coeffs, target, scheme)
    if not bounds.feasible:
        return Solution(feasible=False, scheme=scheme, target=target)
    best = None
    for k in range(bounds.low, bounds.up + 1):
        for subset in combinations(range(s.N), k):
            sol = dinkelbach_fixed_schedule(assemble_primal(
                s, coeffs, RelaySchedule.from_indices(subset, s.N), target, scheme=scheme))
            if sol is not None and (best is None or sol.q_star > best.q_star):
                best = sol
    return best or Solution(feasible=False, scheme=scheme, target=target)


def dominates(coeffs: LinkCoefficients, better, worse) -> dict | None:
    """A pairing {relay of worse: relay of better} under which each relay of
    better equals or dominates its partner (c_h column and c_g no larger),
    found by trying every permutation; None when the schedules are equal,
    differ in size or no pairing exists."""
    better, worse = tuple(better), tuple(worse)
    if len(better) != len(worse) or set(better) == set(worse):
        return None
    covers = {(a, b): bool(np.all(coeffs.c_h[:, a] <= coeffs.c_h[:, b])
                           and coeffs.c_g[a] <= coeffs.c_g[b])
              for a in better for b in worse}
    for perm in permutations(better):
        if all(covers[a, b] for a, b in zip(perm, worse)):
            return dict(zip(worse, perm))
    return None


def closed_under_dominance(coeffs: LinkCoefficients, subset) -> bool:
    """Whether no swap of one relay of subset for one outside it gives a
    schedule that dominates it, of two equal relays only the lower index
    counting as the better."""
    subset = tuple(subset)
    for b in subset:
        for a in range(len(coeffs.c_g)):
            if a in subset:
                continue
            swap = tuple(sorted(set(subset) - {b} | {a}))
            if dominates(coeffs, swap, subset) is not None and not (
                    a > b and dominates(coeffs, subset, swap) is not None):
                return False
    return True


def term_matrix_verdict(s: ScenarioConfig, coeffs: LinkCoefficients, schedule: RelaySchedule,
                        target: float, scheme: str = "mdnc"):
    """(feasible, infeasible_reason, max_slack_point) of assemble_primal's
    pre-check with the outage at the anchor evaluated on freshly built term
    matrices: the max-power corner when it fits the budget, else the
    max-slack point (the library's, from the assembled problem's box and
    budget)."""
    selected = schedule.theta
    if schedule.count < s.M and scheme == "mdnc":
        return False, f"schedule selects {schedule.count} < M = {s.M} relays; outage is certain", None
    pp = assemble_primal(s, coeffs, schedule, target, scheme)
    if pp.budget_pos.value(pp.hi) <= pp.budget_cap:
        x = pp.hi.copy()
    elif pp.budget_pos.value(pp.lo) >= pp.budget_cap:
        return False, (f"energy budget E0 = {s.E0:g} J not strictly met at minimum power "
                       f"for schedule {selected}"), None
    else:
        x = _max_slack_point(pp)
    outage = np.array([pos.value(x) for pos in outage_posynomials(coeffs, selected, s.M, scheme)])
    if np.any(outage > target):
        worst = int(np.argmax(outage / target))
        return False, (f"outage {outage[worst]:.3e} above target {target:.3e} "
                       f"at maximum admissible power for schedule {selected}"), x
    return True, None, x


def whole_chunk_failures(thr_h: np.ndarray, thr_g: np.ndarray, mc: McConfig,
                         mdnc: bool) -> np.ndarray:
    """Outage event counts, [MDNC] or one per user (NoNC), over mc.samples draws."""
    M, n = thr_h.shape
    fails = np.zeros(1 if mdnc else M, dtype=np.int64)
    for chunk in range(-(-mc.samples // CHUNK)):
        take = min(CHUNK, mc.samples - chunk * CHUNK)
        rng = rng_for_chunk(mc.seed, mc.stream, chunk)
        hop1 = rng.standard_exponential((take, M, n)) >= thr_h
        hop2 = rng.standard_exponential((take, n)) >= thr_g
        if mdnc:
            # fewer than M relays decode every user and survive hop 2
            fails[0] += np.count_nonzero((hop1.all(axis=1) & hop2).sum(axis=1) < M)
        else:
            # no relay passes both hops of the user
            fails += np.count_nonzero(~(hop1 & hop2[:, None, :]).any(axis=2), axis=0)
    return fails


class PlainBarrierStack:
    """The objective and every constraint of one barrier problem as one term matrix.

    Segment 0 is the objective P0, minimized as log P0. Then come the log
    constraints log P_i < cap_i and the linear constraints P_j < cap_j, with
    the box lo < x < hi. One stacked_terms pass evaluates them all, so each
    P here equals its standalone Posynomial value bit for bit.
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
        self.n_obj = counts[0]
        self.n_log = len(log_constraints)
        self.caps = np.array([c for _, c in log_constraints] + [c for _, c in linear_constraints],
                             dtype=float)
        self.lo = lo
        self.hi = hi
        self._last = None                 # (point, evaluation) last made inside the box

    def _evaluate(self, x):
        """Objective log value, the barrier (None off the strict interior),
        every inequality's slack (box upper, box lower, constraints), the
        linear constraints' values and the stacked terms; None off the open
        box, where the exponentials may overflow.

        The last evaluation inside the box is kept with the array it was made
        at: a Newton iterate is the line search's accepted trial, the very
        array value saw, so derivatives there reuse value's pass. A hit is
        tested by identity, which is exact because no iterate is ever
        mutated in place: every new point is a new array.
        """
        if self._last is not None and self._last[0] is x:
            return self._last[1]
        box = np.concatenate((self.hi - x, x - self.lo))
        if box.min() <= 0:
            return None
        zmax, e, sums = stacked_terms(self.expos, self.logc, self.starts, x, self.segment)
        k = 1 + self.n_log
        values = segment_logvalues(zmax, sums)
        values[k:] = segment_values(zmax[k:], sums[k:])
        slack = np.concatenate((box, self.caps - values[1:]))
        barrier = -np.log(slack).sum() if slack.min() > 0 else None
        evaluated = values[0], barrier, slack, values[k:], e, sums
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
        fh = self.expos[:n0].T @ wa[:n0] - fg[:, None] * fg

        inverse = 1.0 / slack
        box = inverse[:2 * dim]
        coef = inverse[2 * dim:]
        coef[self.n_log:] *= lin
        d = coef * coef
        d[:self.n_log] -= coef[:self.n_log]
        G = means[1:]
        bg = box[:dim] - box[dim:] + coef @ G
        bh = (self.expos[n0:].T @ (coef[self.segment[n0:] - 1, None] * wa[n0:])
              + G.T @ (d[:, None] * G))
        bh.flat[::dim + 1] += box[:dim] ** 2 + box[dim:] ** 2
        return (fv, fg, fh), (bv, bg, bh)

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


def plain_barrier_minimize(objective: Posynomial, log_constraints, linear_constraints, lo, hi,
                           starts, cutoff: float | None = None):
    """Minimize log(objective(x)) over the box and the constraints.

    log_constraints holds (posynomial, cap) pairs meaning log P(x) < cap,
    linear_constraints pairs meaning P(x) < cap. The barrier starts from the
    first of the candidate points in starts that is strictly feasible.
    Returns (x, newton_iterations, kkt_residual, exhausted, backtracks,
    lower_bound), backtracks counting rejected line-search trials.
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
    other points end about 1e-10 relative apart (see NEWTON_TOL). Each
    point is evaluated once: line-search trials by value, and the accepted
    trial's terms are reused for its derivatives.
    exhausted is set when a stage spends MAX_NEWTON steps or backtracking
    finds no acceptable step.

    With a cutoff, every stage but the last ends with the duality bound of
    PlainBarrierStack.lower_bound at its point; once that bound reaches the
    cutoff, the optimum cannot lie below it, and the solve stops there and
    returns the bound as lower_bound (None when it ran to the end). Without
    a stop, the iterates are the same as without a cutoff.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    stack = PlainBarrierStack(objective, log_constraints, linear_constraints, lo, hi)
    for x in starts:
        x = np.asarray(x, dtype=float)
        if stack.value(x) is not None:
            break
    else:
        raise RuntimeError("no candidate barrier start point is strictly feasible")
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
                if last:
                    xn = x + step
                    if stack.value(xn) is not None:
                        x = xn
                        newton_total += 1
                        (fv, fg, fh), (bv, bg, bh) = stack.derivatives(x)
                break
            # backtracking: stay strictly feasible, then Armijo
            slope = -decrement2
            alpha = 1.0
            while alpha > 1e-14:
                xn = x + alpha * step
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


def plain_primal(pp, q: float, cutoff: float | None = None):
    """plain_barrier_minimize on the problem solve_primal solves at q, from
    the same start points: (x, newton_iterations, kkt_residual, exhausted,
    backtracks, lower_bound) and log V' at x."""
    vprime = pp.vprime(q)
    span = pp.hi - pp.lo
    anchor = np.clip(pp.max_slack_point, pp.lo + 1e-9 * span, pp.hi - 1e-9 * span)

    def starts():
        x0 = 0.5 * (pp.lo + pp.hi)
        for _ in range(200):
            yield x0
            x0 = 0.5 * (x0 + anchor)

    res = plain_barrier_minimize(
        objective=vprime,
        log_constraints=[(pos, np.log(pp.target)) for pos in pp.outage_pos],
        linear_constraints=[(pp.budget_pos, pp.budget_cap)],
        lo=pp.lo, hi=pp.hi, starts=starts(), cutoff=cutoff,
    )
    return res, vprime.logvalue(res[0])
