"""Ground truth: Rayleigh Monte Carlo simulation and brute-force optimization.

The simulator draws squared channel gains |h|^2 ~ Exponential with the
configured per-link means, declares a link up when its achievable rate
B*log2(1 + |h|^2 p / (N0 B)) reaches the fixed rate, and applies the scheme's
outage rule per realization. Energy per round is deterministic (all selected
relays are charged full transmit power whether or not they decode), so only
the outage indicator is averaged.

Randomness comes from the Philox 4x64 counter-based generator, keyed by
(seed, stream_high32 | chunk_index): substreams are reproducible regardless
of chunk execution order or host parallelism. The generator identity is
pinned by reference output vectors in the test suite.

The sampling kernel works chunk by chunk (CHUNK samples, the last chunk
partial). Each chunk draws the first-hop gains, shape (take, M, n) in C
order, and then the second-hop gains, shape (take, n), from that chunk's
generator. Its outage event counts are exact integers, pinned bit for bit
by golden counts in the test suite. Memory is bounded by one chunk's
buffers, allocated once per call and reused: float draws of
min(CHUNK, samples) * (M + 1) * n values, two boolean masks of
min(CHUNK, samples) * n and two per-sample arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .energy import nonc_energy, total_energy
from .model import LinkCoefficients, ScenarioConfig
from .optimizer import Solution, dinkelbach_fixed_schedule, relay_count_bounds
from .outage import PowerAllocation, RelaySchedule

__all__ = ["McConfig", "McResult", "monte_carlo_outage", "brute_force_optimize",
           "CHUNK", "rng_for_chunk"]

CHUNK = 1 << 17
ENUM_GUARD_N = 12


@dataclass(frozen=True)
class McConfig:
    """Sample budget and reproducibility handles for one simulation."""

    samples: int = 1_000_000
    seed: int = 0
    stream: int = 0

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("sample count must be >= 1")


@dataclass(frozen=True)
class McResult:
    """Empirical outage (scalar for MDNC, per-user for NoNC) with its
    binomial standard error sqrt(p(1-p)/n), plus the implied EE."""

    outage: object
    stderr: object
    ee: float
    samples: int
    scheme: str


def rng_for_chunk(seed: int, stream: int, chunk: int) -> np.random.Generator:
    """Philox generator for one substream chunk; key = (seed, stream<<32 | chunk)."""
    key = np.array([seed % (1 << 64), ((stream % (1 << 32)) << 32) | (chunk % (1 << 32))],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _thresholds(s: ScenarioConfig, coeffs: LinkCoefficients, schedule: RelaySchedule,
                powers: PowerAllocation):
    """Per-link |h|^2 levels below which the rate test fails, scaled to unit-mean draws.

    A link with coefficient c and power p fails iff X < c/p for X ~ Exp(1)
    (the mean of |h|^2 cancels against the coefficient's denominator).
    """
    sel = list(schedule.theta)
    thr_h = coeffs.c_h[:, sel] / powers.p[:, None]
    pr = powers.p_relay[sel]
    with np.errstate(divide="ignore"):
        thr_g = np.where(pr > 0, coeffs.c_g[sel] / np.where(pr > 0, pr, 1.0), np.inf)
    return thr_h, thr_g


def _count_failures(thr_h: np.ndarray, thr_g: np.ndarray, mc: McConfig,
                    mdnc: bool) -> np.ndarray:
    """Outage event counts over mc.samples draws: [MDNC] or one per user (NoNC).

    Each chunk refills the same unit-mean exponential buffers, first-hop
    gains x_h (take, M, n) and then second-hop gains x_g (take, n), and
    reduces them column by column into (take, n) masks.
    """
    M, n = thr_h.shape
    size = min(CHUNK, mc.samples)
    x_h = np.empty((size, M, n))
    x_g = np.empty((size, n))
    hop2_buf = np.empty((size, n), dtype=bool)
    link_buf = np.empty((size, n), dtype=bool)
    flag_buf = np.empty(size, dtype=bool)
    if mdnc:
        count_buf = np.empty(size, dtype=np.min_scalar_type(n))
    fail_counts = np.zeros(1 if mdnc else M, dtype=np.int64)
    done = 0
    chunk_index = 0
    while done < mc.samples:
        take = min(CHUNK, mc.samples - done)
        rng = rng_for_chunk(mc.seed, mc.stream, chunk_index)
        # thresholds already absorb the link means
        xh, xg = x_h[:take], x_g[:take]
        rng.standard_exponential(out=xh)
        rng.standard_exponential(out=xg)
        hop2, link, flag = hop2_buf[:take], link_buf[:take], flag_buf[:take]
        np.greater_equal(xg, thr_g, out=hop2)
        if mdnc:
            # hop2 becomes "relay decodes every user and survives hop 2"
            for i in range(M):
                hop2 &= np.greater_equal(xh[:, i, :], thr_h[i], out=link)
            count = count_buf[:take]
            count[:] = hop2[:, 0]
            for j in range(1, n):
                count += hop2[:, j]
            fail_counts[0] += np.count_nonzero(np.less(count, M, out=flag))
        else:
            # user i is carried when some relay passes both of its hops
            for i in range(M):
                np.greater_equal(xh[:, i, :], thr_h[i], out=link)
                link &= hop2
                flag[:] = link[:, 0]
                for j in range(1, n):
                    flag |= link[:, j]
                fail_counts[i] += take - np.count_nonzero(flag)
        done += take
        chunk_index += 1
    return fail_counts


def monte_carlo_outage(s: ScenarioConfig, coeffs: LinkCoefficients, schedule: RelaySchedule,
                       powers: PowerAllocation, mc: McConfig, scheme: str = "mdnc") -> McResult:
    """Empirical outage frequency over mc.samples Rayleigh realizations.

    MDNC: outage iff fewer than M selected relays decode all M user codewords
    and survive the second hop. NoNC: user i is in outage iff no selected
    relay carries its message through both hops (per-user frequencies).
    """
    if scheme not in ("mdnc", "nonc"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if schedule.count == 0:
        raise ValueError("schedule selects no relays")
    thr_h, thr_g = _thresholds(s, coeffs, schedule, powers)
    fail_counts = _count_failures(thr_h, thr_g, mc, scheme == "mdnc")

    p_hat = fail_counts / mc.samples
    stderr = np.sqrt(p_hat * (1.0 - p_hat) / mc.samples)
    if scheme == "mdnc":
        e = total_energy(s, schedule, powers)
        ee = s.M * s.alpha0 * s.T * (1.0 - p_hat[0]) / e.e_tot
        return McResult(outage=float(p_hat[0]), stderr=float(stderr[0]), ee=ee,
                        samples=mc.samples, scheme=scheme)
    e = nonc_energy(s, schedule, powers)
    ee = s.alpha0 * s.T * float(np.sum(1.0 - p_hat)) / e.e_tot
    return McResult(outage=p_hat, stderr=stderr, ee=ee, samples=mc.samples, scheme=scheme)


def brute_force_optimize(s: ScenarioConfig, coeffs: LinkCoefficients, target: float,
                         scheme: str = "mdnc", include_user_energy: bool = False) -> Solution:
    """Enumerate every relay subset within the count bounds and keep the best.

    Each subset's continuous problem is convex, so the per-subset q-iteration
    is exact to solver tolerance; the winner is the subset with the highest
    converged bits/energy ratio. Guarded to N <= 12 relays.
    """
    if s.N > ENUM_GUARD_N:
        raise ValueError(f"brute force enumerates subsets; N = {s.N} exceeds {ENUM_GUARD_N}")
    bounds = relay_count_bounds(s, coeffs, target, scheme)
    if not bounds.feasible:
        return Solution(feasible=False, scheme=scheme, target=target,
                        reason=f"no admissible relay count (low={bounds.low}, up={bounds.up})")
    best: Solution | None = None
    tried = 0
    for k in range(bounds.low, bounds.up + 1):
        for subset in combinations(range(s.N), k):
            schedule = RelaySchedule.from_indices(subset, s.N)
            sol = dinkelbach_fixed_schedule(s, coeffs, schedule, target, scheme=scheme,
                                            include_user_energy=include_user_energy)
            tried += 1
            if sol is not None and (best is None or sol.q_star > best.q_star):
                best = sol
    if best is None:
        return Solution(feasible=False, scheme=scheme, target=target,
                        reason="every subset within the count bounds violates the approximate outage cap")
    best.diagnostics["subsets_tried"] = tried
    return best
