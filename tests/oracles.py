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
schedules' relays, where the library matches them by augmenting paths.

whole_chunk_failures is the Monte Carlo kernel without blocks or threads:
each chunk's gains in one fill per hop and the outage rules as array
reductions.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations, product

import numpy as np

from mdncee.convex_solver import _max_slack_point, assemble_primal, outage_posynomials
from mdncee.energy import EnergyBreakdown, delivered_rate, total_energy
from mdncee.model import LinkCoefficients, ScenarioConfig
from mdncee.optimizer import Solution, dinkelbach_fixed_schedule, relay_count_bounds
from mdncee.outage import PowerAllocation, RelaySchedule, outage_posynomial, powers_from_log
from mdncee.posynomial import Posynomial, segment_values, stacked_terms
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
