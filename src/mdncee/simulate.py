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
generator, BLOCK samples at a time. Each first-hop block is reduced at once
to a boolean mask kept for the chunk, and each second-hop block is counted
against it. The chunks run on a thread pool of min(usable CPUs, chunks)
threads; their outage event counts are exact integers, summed in any
order, so they do not depend on the thread count and are pinned bit for
bit by golden counts in the test suite. Memory is bounded per thread by
one block's float draws, BLOCK * (M + 1) * n values, boolean blocks of
BLOCK * M * n and BLOCK * n, and the chunk's first-hop mask, CHUNK * n
booleans (MDNC) or CHUNK * M * n (NoNC).
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .convex_solver import assemble_primal
from .energy import energy_efficiency, total_energy
from .model import LinkCoefficients, ScenarioConfig
from .optimizer import (
    Solution,
    _count_primal,
    dinkelbach_fixed_schedule,
    dominance_pairs,
    fixed_schedule_value,
    ratio_count_cap,
    relay_count_bounds,
)
from .outage import PowerAllocation, RelaySchedule

__all__ = ["McConfig", "McResult", "monte_carlo_outage", "brute_force_optimize",
           "CHUNK", "MAX_SAMPLES", "rng_for_chunk"]

CHUNK = 1 << 17
BLOCK = 1 << 13
MAX_SAMPLES = CHUNK << 32   # chunk indices fill the key's low 32 bits
ENUM_GUARD_N = 12


@dataclass(frozen=True)
class McConfig:
    """Sample budget and reproducibility handles for one simulation."""

    samples: int = 1_000_000
    seed: int = 0
    stream: int = 0

    def __post_init__(self):
        # out-of-range keys would wrap onto another substream's draws
        if not 1 <= self.samples <= MAX_SAMPLES:
            raise ValueError(f"sample count {self.samples} is not in [1, {MAX_SAMPLES}]")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed {self.seed} is not in [0, 2^64)")
        if not 0 <= self.stream < 1 << 32:
            raise ValueError(f"stream {self.stream} is not in [0, 2^32)")


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
    if not (0 <= seed < 1 << 64 and 0 <= stream < 1 << 32 and 0 <= chunk < 1 << 32):
        raise ValueError(f"Philox key out of range: seed {seed}, stream {stream}, chunk {chunk}")
    key = np.array([seed, (stream << 32) | chunk], dtype=np.uint64)
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


def _worker_count(chunks: int) -> int:
    """Threads for a call of that many chunks: min(usable CPUs, chunks)."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, chunks)


def _chunk_failures(thr_h: np.ndarray, thr_g: np.ndarray, mc: McConfig, mdnc: bool,
                    chunk: int) -> np.ndarray:
    """Outage event counts of one chunk, drawn from its own generator.

    The first-hop gains x_h (take, M, n) and then the second-hop gains x_g
    (take, n) are drawn BLOCK samples at a time into block buffers (one
    generator filled in sequence gives the same values as one fill). Each
    first-hop block is reduced at once to the chunk's boolean mask: relay
    decodes every user, (take, n), for MDNC; user-relay link up,
    (take, M, n), for NoNC. The second-hop blocks are then ANDed and
    counted against it.
    """
    M, n = thr_h.shape
    take = min(CHUNK, mc.samples - chunk * CHUNK)
    rng = rng_for_chunk(mc.seed, mc.stream, chunk)
    size = min(BLOCK, take)
    x_h = np.empty((size, M, n))
    x_g = np.empty((size, n))
    link_buf = np.empty((size, M, n), dtype=bool)
    hop2_buf = np.empty((size, n), dtype=bool)
    hop1 = np.empty((take, n) if mdnc else (take, M, n), dtype=bool)
    # thresholds already absorb the link means
    for lo in range(0, take, size):
        xh = x_h[:take - lo]
        b = len(xh)
        rng.standard_exponential(out=xh)
        if mdnc:
            link = np.greater_equal(xh, thr_h, out=link_buf[:b])
            ok = hop1[lo:lo + b]
            ok[:] = link[:, 0, :]
            for i in range(1, M):
                ok &= link[:, i, :]
        else:
            np.greater_equal(xh, thr_h, out=hop1[lo:lo + b])
    fail_counts = np.zeros(1 if mdnc else M, dtype=np.int64)
    for lo in range(0, take, size):
        xg = x_g[:take - lo]
        b = len(xg)
        rng.standard_exponential(out=xg)
        hop2 = np.greater_equal(xg, thr_g, out=hop2_buf[:b])
        if mdnc:
            # count the relays that decode every user and survive hop 2
            hop2 &= hop1[lo:lo + b]
            count = hop2[:, 0].astype(np.min_scalar_type(n))
            for j in range(1, n):
                count += hop2[:, j]
            fail_counts[0] += np.count_nonzero(count < M)
        else:
            # user i is carried when some relay passes both of its hops
            link = np.logical_and(hop1[lo:lo + b], hop2[:, None, :], out=link_buf[:b])
            carried = link[:, :, 0].copy()
            for j in range(1, n):
                carried |= link[:, :, j]
            fail_counts += b - np.count_nonzero(carried, axis=0)
    return fail_counts


def _count_failures(thr_h: np.ndarray, thr_g: np.ndarray, mc: McConfig,
                    mdnc: bool) -> np.ndarray:
    """Outage event counts over mc.samples draws: [MDNC] or one per user (NoNC).

    The chunks run on a thread pool of _worker_count threads (numpy's
    generator fills and ufuncs release the GIL); their integer counts are
    summed, so the result does not depend on the thread count.
    """
    chunks = range(-(-mc.samples // CHUNK))
    workers = _worker_count(len(chunks))

    def count(chunk):
        return _chunk_failures(thr_h, thr_g, mc, mdnc, chunk)

    if workers == 1:
        return sum(map(count, chunks))
    # imported here: concurrent.futures imports logging, about 7 ms that
    # every importer of mdncee would pay, simulating or not
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(count, chunks))


def monte_carlo_outage(s: ScenarioConfig, coeffs: LinkCoefficients, schedule: RelaySchedule,
                       powers: PowerAllocation, mc: McConfig, scheme: str = "mdnc") -> McResult:
    """Empirical outage frequency over mc.samples Rayleigh realizations.

    MDNC: outage iff fewer than M selected relays decode all M user codewords
    and survive the second hop. NoNC: user i is in outage iff no selected
    relay carries its message through both hops (per-user frequencies).
    """
    e = total_energy(s, schedule, powers, scheme)   # rejects an unknown scheme or no relays
    thr_h, thr_g = _thresholds(s, coeffs, schedule, powers)
    fail_counts = _count_failures(thr_h, thr_g, mc, scheme == "mdnc")

    p_hat = fail_counts / mc.samples
    stderr = np.sqrt(p_hat * (1.0 - p_hat) / mc.samples)
    ee = energy_efficiency(s, p_hat, e, scheme)
    if scheme == "mdnc":
        return McResult(outage=float(p_hat[0]), stderr=float(stderr[0]), ee=ee,
                        samples=mc.samples, scheme=scheme)
    return McResult(outage=p_hat, stderr=stderr, ee=ee, samples=mc.samples, scheme=scheme)


def brute_force_optimize(s: ScenarioConfig, coeffs: LinkCoefficients, target: float,
                         scheme: str = "mdnc") -> Solution:
    """Enumerate the relay subsets within the count bounds and keep the best.

    Each subset's continuous problem is convex, so the per-subset q-iteration
    is exact to solver tolerance; the winner is the subset with the highest
    converged bits/energy ratio, and a later subset replaces it only with a
    strictly greater q_star. Guarded to N <= 12 relays.

    Each subset is assembled once, and an infeasible one is skipped. The
    q-iteration of bounds.best_subset gives the incumbent ratio q* (when it
    is infeasible, the first feasible subset after it does). Two tests then
    screen the rest, and a subset that passes is q-iterated on the problem
    its screen solved. Only subsets closed under relay dominance are
    assembled at all: one that holds the b of a pair of dominance_pairs
    but not its a is no better than a closed subset of the same size, so
    the best ratio lies among the closed ones.

    * count cut: a k-relay subset's ratio is below M*alpha0/(gamma*k +
      delta0) (ratio_count_cap), so the counts whose bound is at most q*
      are skipped with no primal at all;
    * sign test (Dinkelbach): a subset can beat q* only if max V(q*) > 0,
      so one primal at q* decides it, and only a subset with V > 0 is
      q-iterated. The primal stops early once its duality bound shows
      max V(q*) <= 0 (fixed_schedule_value), which leaves the decision
      unchanged.

    The winner's q-iteration is the same call as in plain enumeration, so
    its solution is the same to the last bit. Two differences remain: a
    subset better than q* by less than the primal's accuracy can be
    skipped, and a subset that exactly ties best_subset leaves best_subset
    the winner even when it comes first in enumeration order. diagnostics
    counts subsets_tried (subsets whose primal was solved, as a screen or
    a q-iteration), subsets_pruned (cut by count), subsets_dominated (not
    closed under dominance, in the counts enumerated), q_iterations and
    primal_stopped (sign tests whose primal stopped at its bound).
    """
    if s.N > ENUM_GUARD_N:
        raise ValueError(f"brute force enumerates subsets; N = {s.N} exceeds {ENUM_GUARD_N}")
    bounds = relay_count_bounds(s, coeffs, target, scheme)
    if not bounds.feasible:
        return Solution(feasible=False, scheme=scheme, target=target,
                        reason=f"no admissible relay count (low={bounds.low}, up={bounds.up})")
    best = None
    counts = Counter(subsets_tried=0, subsets_pruned=0, subsets_dominated=0, q_iterations=0,
                     primal_stopped=0)
    pairs = dominance_pairs(coeffs)

    def closed(k):
        """The k-subsets closed under dominance, best_subset left out."""
        for c in combinations(range(s.N), k):
            if c == bounds.best_subset:
                continue
            if all(a in c for a, b in pairs if b in c):
                yield c
            else:
                counts["subsets_dominated"] += 1

    # best_subset first (no incumbent yet, so no count cut), then the window
    # by count without it
    groups = [(bounds.low, [bounds.best_subset])]
    groups += [(k, closed(k)) for k in range(bounds.low, bounds.up + 1)]
    for k, subsets in groups:
        if best is not None and k > ratio_count_cap(s, scheme, best.q_star):
            counts["subsets_pruned"] = sum(comb(s.N, j) for j in range(k, bounds.up + 1))
            break
        for subset in subsets:
            pp = assemble_primal(s, coeffs, RelaySchedule.from_indices(subset, s.N), target, scheme)
            if not pp.feasible:
                continue
            counts["subsets_tried"] += 1
            if best is not None:
                value, primal = fixed_schedule_value(pp, best.q_star)
                _count_primal(counts, primal)
                if value <= 0:
                    continue
            sol = dinkelbach_fixed_schedule(pp)
            counts["q_iterations"] += 1
            counts.update({key: sol.diagnostics[key]
                           for key in ("newton_total", "backtracks", "primal_unconverged")})
            if best is None or sol.q_star > best.q_star:
                best = sol
    if best is None:
        return Solution(feasible=False, scheme=scheme, target=target,
                        reason="every subset within the count bounds violates the approximate outage cap")
    best.diagnostics.update(counts)
    return best
