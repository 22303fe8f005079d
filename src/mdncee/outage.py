"""Outage probability of the two-hop network, exact and approximated.

Exact MDNC rule: the BS recovers all M user messages iff at least M selected
relays complete both hops, i.e. decode every user codeword in the first hop
and get their network codeword through in the second. The outage splits by
the number K of fully-decoding relays:

* K < M  -- hopeless regardless of the second hop;
* K >= M -- outage iff fewer than M of those K succeed in the second hop.

Relays succeed independently, so the outage is the tail below M of a
Poisson-binomial distribution, evaluated by the one-trial-at-a-time
recursion (Hong 2013, Comput. Stat. Data Anal. 59:41-51). The paper's subset
sums, which spell the same expressions out term by term, live in the tests
as oracles.

High-SNR approximation: success factors are replaced by 1, first-hop failure
factors 1 - rho_j by sum_i c_ij/p_i, and second-hop failures by
c_j/(c_j + u_j p'_j), which turns the whole expression into a posynomial in
1/p_i and 1/(1 + u_j p'_j / c_j); its log-domain image is convex. Its terms
come from the same one-relay-at-a-time counting: a recursion over the
decoded and surviving counts, both capped at M, with no subset enumeration.
The approximation is no bound on the exact outage: with a = c/p, a user
hop's factor a lies above its exact failure 1 - e^(-a), and a relay hop's
c_j/(c_j + p'_j) = a/(1 + a), a = c_j/p'_j, lies below it, both because
e^a >= 1 + a.

NoNC baseline: each relay forwards each user's message separately, so user i
is in outage iff no relay carries its message end to end. Its approximation
has the same two factors, so it is no bound either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import LinkCoefficients, ScenarioConfig
from .posynomial import Posynomial

__all__ = [
    "RelaySchedule",
    "PowerAllocation",
    "OutageBreakdown",
    "link_outage",
    "relay_decode_prob",
    "relay_hops",
    "outage_exact",
    "nonc_link_failures",
    "nonc_outage",
    "outage_posynomial",
    "outage_approx_value",
    "nonc_outage_posynomials",
    "nonc_outage_approx_values",
    "powers_from_log",
]

@dataclass(frozen=True)
class RelaySchedule:
    """Binary relay selection: u[j] = 1 iff relay j transmits this round."""

    u: np.ndarray
    theta: tuple[int, ...] = field(init=False)
    count: int = field(init=False)

    def __post_init__(self):
        u = np.asarray(self.u, dtype=int)
        if u.ndim != 1 or not np.all((u == 0) | (u == 1)):
            raise ValueError("schedule vector must be one-dimensional and 0/1-valued")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "theta", tuple(int(j) for j in np.flatnonzero(u)))
        object.__setattr__(self, "count", int(u.sum()))

    @classmethod
    def from_indices(cls, indices, n: int) -> "RelaySchedule":
        u = np.zeros(n, dtype=int)
        for j in indices:
            if not 0 <= j < n:
                raise ValueError(f"relay index {j} outside 0..{n - 1}")
            u[j] = 1
        return cls(u)


@dataclass(frozen=True)
class PowerAllocation:
    """Transmit powers: p[i] per user (W), p_relay[j] per relay (W, 0 if unselected)."""

    p: np.ndarray
    p_relay: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))
        object.__setattr__(self, "p_relay", np.asarray(self.p_relay, dtype=float))

    def check(self, s: ScenarioConfig, schedule: RelaySchedule) -> None:
        if np.any(self.p <= 0) or np.any(self.p > s.P_S_max):
            raise ValueError("user powers must satisfy 0 < p_i <= P_S_max")
        if np.any(self.p_relay < 0) or np.any(self.p_relay > schedule.u * s.P_R_max):
            raise ValueError("relay powers must satisfy 0 <= p'_j <= u_j * P_R_max")


def powers_from_log(coeffs: LinkCoefficients, schedule: RelaySchedule, ptilde, ptilde_relay) -> PowerAllocation:
    """Natural powers from the log-domain variables: p_i = e^(ptilde_i), and
    p'_j = c_j (e^(ptilde'_j) - 1) on selected relays, 0 elsewhere."""
    p = np.exp(np.asarray(ptilde, dtype=float))
    p_relay = coeffs.c_g * np.expm1(np.asarray(ptilde_relay, dtype=float)) * schedule.u
    return PowerAllocation(p=p, p_relay=p_relay)


# ---------------------------------------------------------------------------
# Exact expressions


def link_outage(c: float, p: float) -> float:
    """Failure probability 1 - exp(-c/p) of a single Rayleigh link; 1 at p = 0."""
    if c <= 0:
        raise ValueError("link coefficient must be positive")
    if p < 0:
        raise ValueError("power must be nonnegative")
    if p == 0.0:
        return 1.0
    return -math.expm1(-c / p)


def relay_decode_prob(c_col, p) -> float:
    """Probability exp(-sum_i c_ij/p_i) that one relay decodes all M messages."""
    c_col = np.asarray(c_col, dtype=float)
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0):
        raise ValueError("all user powers must be positive")
    return math.exp(-math.fsum(c_col / p))


def relay_hops(coeffs: LinkCoefficients, schedule: RelaySchedule,
               powers: PowerAllocation) -> tuple[np.ndarray, np.ndarray]:
    """Per selected relay, in schedule order: rho_j, the probability that it
    decodes all M user messages, and ok_g,j = 1 - Pe_g,j, the probability
    that its codeword reaches the BS (0 at zero relay power)."""
    rho = np.array([relay_decode_prob(coeffs.c_h[:, j], powers.p) for j in schedule.theta])
    ok_g = np.array([1.0 - link_outage(coeffs.c_g[j], powers.p_relay[j]) for j in schedule.theta])
    return rho, ok_g


@dataclass(frozen=True)
class OutageBreakdown:
    """Structured exact-outage evaluation.

    total is P(S < M), where S counts the selected relays that complete both
    hops. It splits by the number K of fully-decoding relays: pr_A = P(K < M)
    (too few relays decode) and pr_B = P(K >= M, S < M) = total - pr_A,
    floored at 0, so total == pr_A + pr_B. zeta[K] is the probability that
    exactly K selected relays decode everything. certain_outage flags
    schedules with fewer than M relays, for which the BS can never collect M
    codewords.
    """

    pr_A: float
    pr_B: float
    total: float
    zeta: np.ndarray
    certain_outage: bool = False


def _poisson_binomial(r) -> np.ndarray:
    """dist[k] = probability of exactly k successes among independent Bernoulli(r_j).

    Adds one trial at a time: dist_new[k] = dist[k] (1 - r_j) + dist[k-1] r_j.
    """
    dist = np.zeros(len(r) + 1)
    dist[0] = 1.0
    for n, rj in enumerate(r, start=1):
        dist[1:n + 1] = dist[1:n + 1] * (1.0 - rj) + dist[:n] * rj
        dist[0] *= 1.0 - rj
    return dist


def outage_exact(s: ScenarioConfig, coeffs: LinkCoefficients,
                 schedule: RelaySchedule, powers: PowerAllocation) -> OutageBreakdown:
    """Exact network outage probability, split into cases A and B.

    A selected relay j completes both hops with probability
    r_j = rho_j (1 - Pe_g,j), independently of the others, so the outage is
    the Poisson-binomial tail P(S < M) over the r_j; zeta is the same
    distribution over the rho_j. O(N^2) work, no subset enumeration.
    """
    if schedule.count == 0:
        raise ValueError("schedule selects no relays")
    rho, ok_g = relay_hops(coeffs, schedule, powers)
    zeta = _poisson_binomial(rho)

    if schedule.count < s.M:
        return OutageBreakdown(pr_A=1.0, pr_B=0.0, total=1.0, zeta=zeta, certain_outage=True)

    pr_A = math.fsum(zeta[:s.M])
    pr_B = max(math.fsum(_poisson_binomial(rho * ok_g)[:s.M]) - pr_A, 0.0)
    return OutageBreakdown(pr_A=pr_A, pr_B=pr_B, total=pr_A + pr_B, zeta=zeta)


# ---------------------------------------------------------------------------
# High-SNR approximation


def _accumulate(table: dict, terms) -> None:
    """Add (exponent tuple, coefficient) pairs into table, merging equal rows."""
    for e, c in terms:
        table[e] = table.get(e, 0.0) + c


def _lowered(e: tuple, col: int) -> tuple:
    """Exponent row e of a term multiplied by e^(-x[col])."""
    return e[:col] + (e[col] - 1,) + e[col + 1:]


def outage_posynomial(coeffs: LinkCoefficients, selected, M: int) -> Posynomial:
    """Approximate outage as a posynomial in x = (ptilde_1..M, ptilde'_j for j in selected).

    Substituting p_i = e^(ptilde_i) and u_j p'_j = c_j e^(ptilde'_j) - c_j turns
    the first-hop failure f_j into sum_i c_ij e^(-ptilde_i) and the second-hop
    failure e_j into e^(-ptilde'_j). Each relay is undecoded (factor f_j),
    decoded but lost on hop 2 (e_j) or decoded and delivered (1), so the
    terms are built one relay at a time, each state a dict from exponent
    tuple to coefficient:

    * K < M: the decoded count d < M, where a decoded relay contributes 1;
    * K >= M: (d capped at M, survivor count s < M).

    The final states are the outage events. Their exponent rows are
    distinct, since a row fixes the undecoded and lost counts, so the tables
    are stacked without a merge.
    """
    selected = tuple(selected)
    dim = M + len(selected)
    c_h = coeffs.c_h

    def times_f(table, j):
        return ((_lowered(e, i), c * c_h[i, j]) for e, c in table.items() for i in range(M))

    start = {(0,) * dim: 1.0}
    few = {0: start}                    # K < M: decoded count -> terms
    many = {(0, 0): start}              # K >= M: (decoded, survived) -> terms
    for k, j in enumerate(selected):
        col = M + k
        nxt: dict = {}
        for d, table in few.items():
            _accumulate(nxt.setdefault(d, {}), times_f(table, j))
            if d + 1 < M:
                _accumulate(nxt.setdefault(d + 1, {}), table.items())
        few = nxt
        nxt = {}
        for (d, s), table in many.items():
            up = min(d + 1, M)
            _accumulate(nxt.setdefault((d, s), {}), times_f(table, j))
            _accumulate(nxt.setdefault((up, s), {}),
                        ((_lowered(e, col), c) for e, c in table.items()))
            if s + 1 < M:
                _accumulate(nxt.setdefault((up, s + 1), {}), table.items())
        many = nxt

    tables = list(few.values()) + [many.get((M, s), {}) for s in range(M)]
    expos = [e for table in tables for e in table]
    return Posynomial([c for table in tables for c in table.values()],
                      np.array(expos, dtype=float).reshape(len(expos), dim), dim)


def outage_approx_value(coeffs: LinkCoefficients, selected, M: int, x):
    """outage_posynomial(coeffs, selected, M) at log powers x, by the same
    one-relay-at-a-time recursion on numbers instead of term tables.

    Each relay's factors are numbers here: f_j = sum_i c_ij e^(-x_i) and
    e_j = e^(-x'_j). The states are the same counts, so a value costs
    O(|selected| M^2) and builds no term matrix. It agrees with the
    posynomial's value up to the order of the floating-point sums.

    x may be a batch of points, shape (..., M + |selected|), float or
    complex; the result then has the batch's shape. The value is built from
    x by +, * and exp alone, so it is analytic in x: a complex step
    Im f(x + i h e_k) / h gives its derivatives. A single point runs the
    recursion on Python numbers, the fastest form for one value; a batch
    runs it on arrays, one relay's slice at a time.
    """
    w = np.exp(-np.asarray(x))
    f = w[..., :M] @ coeffs.c_h[:, list(selected)]
    f, e = [a.tolist() if w.ndim == 1 else np.moveaxis(a, -1, 0) for a in (f, w[..., M:])]
    few = [1.0] + [0.0] * (M - 1)                     # K < M: by decoded count
    many = [[0.0] * M for _ in range(M + 1)]          # K >= M: [decoded, capped][survived]
    many[0][0] = 1.0
    for fj, ej in zip(f, e):
        few = [few[0] * fj] + [few[d] * fj + few[d - 1] for d in range(1, M)]
        nxt = [[v * fj for v in row] for row in many]
        for d, row in enumerate(many):
            up = nxt[min(d + 1, M)]
            for s, v in enumerate(row):
                up[s] += v * ej
                if s + 1 < M:
                    up[s + 1] += v
        many = nxt
    return sum(few) + sum(many[M])


# ---------------------------------------------------------------------------
# NoNC baseline


def nonc_link_failures(coeffs: LinkCoefficients, schedule: RelaySchedule,
                       powers: PowerAllocation) -> np.ndarray:
    """w[i, k] = 1 - (1 - Pe_ij)(1 - Pe_j): the probability that user i's
    message does not get through the k-th selected relay (j = theta[k])."""
    w = np.ones((coeffs.c_h.shape[0], schedule.count))
    for k, j in enumerate(schedule.theta):
        p_rel = powers.p_relay[j]
        ok_2 = math.exp(-coeffs.c_g[j] / p_rel) if p_rel > 0 else 0.0
        for i in range(w.shape[0]):
            w[i, k] = 1.0 - math.exp(-coeffs.c_h[i, j] / powers.p[i]) * ok_2
    return w


def nonc_outage(coeffs: LinkCoefficients, schedule: RelaySchedule,
                powers: PowerAllocation) -> np.ndarray:
    """Per-user outage without network coding.

    User i fails iff no selected relay carries its message through both hops:
    Pr_out_i = prod_j (1 - (1 - Pe_ij)(1 - Pe_j)).
    """
    return np.array([math.prod(row) for row in nonc_link_failures(coeffs, schedule, powers)],
                    dtype=float)


def nonc_outage_approx_values(coeffs: LinkCoefficients, selected, M: int, x) -> np.ndarray:
    """nonc_outage_posynomials(coeffs, selected, M) at log powers x, without
    expanding the products: user i's value is
    prod_j (c_ij e^(-x_i) + e^(-x'_j)), O(M |selected|).

    x may be a batch of points, shape (..., M + |selected|), float or
    complex; the result has shape (..., M). The values are built from x by
    +, * and exp alone, so a complex step gives their derivatives.
    """
    w = np.exp(-np.asarray(x))
    return (coeffs.c_h[:, list(selected)] * w[..., :M, None] + w[..., None, M:]).prod(axis=-1)


def nonc_outage_posynomials(coeffs: LinkCoefficients, selected, M: int) -> list[Posynomial]:
    """Per-user high-SNR NoNC outage posynomials.

    1 - (1-Pe_ij)(1-Pe_j) = Pe_ij + Pe_j - Pe_ij Pe_j is approximated by
    c_ij e^(-ptilde_i) + e^(-ptilde'_j), dropping the cross term, which is
    second-order at high SNR. This is no upper bound: the user-hop factor
    c_ij/p_i lies above the exact Pe_ij = 1 - e^(-c_ij/p_i), but the
    relay-hop factor e^(-ptilde'_j) = c_j/(c_j + p'_j) = a/(1 + a), with
    a = c_j/p'_j, lies below the exact Pe_j = 1 - e^(-a), both because
    e^a >= 1 + a. The product over relays
    doubles the term matrix once per relay; its 2^n rows are distinct (a
    row's relay part says which factor each relay contributed).
    """
    selected = tuple(selected)
    dim = M + len(selected)
    result = []
    for i in range(M):
        c = np.ones(1)
        expos = np.zeros((1, dim))
        for k, j in enumerate(selected):
            factor = -np.eye(dim)[[i, M + k]]
            c = np.outer(c, [coeffs.c_h[i, j], 1.0]).ravel()
            expos = (expos[:, None, :] + factor[None, :, :]).reshape(-1, dim)
        result.append(Posynomial(c, expos, dim))
    return result
