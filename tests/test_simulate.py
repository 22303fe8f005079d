import dataclasses
import math
import threading
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from mdncee import simulate
from mdncee.convex_solver import assemble_primal
from mdncee.energy import scheme_constants
from mdncee.model import build_link_coefficients
from mdncee.optimizer import CountBounds, dinkelbach_fixed_schedule, ratio_count_cap
from mdncee.outage import PowerAllocation, RelaySchedule, nonc_outage, outage_exact
from mdncee.simulate import (
    McConfig,
    brute_force_optimize,
    monte_carlo_outage,
    rng_for_chunk,
)
from oracles import closed_under_dominance, plain_brute_force, whole_chunk_failures
from test_properties import _random_small_scenario

# Pinned generator identity (Philox 4x64): these exact streams must never
# change, or archived results stop being reproducible.
PHILOX_REF_000 = [0.011546754286331562, 0.24154919656271812, 0.11142585551493822, 0.5644146216071337]
PHILOX_REF_12345_6_7 = [0.3520588946613636, 0.32653884575283637, 0.7532993811154332, 0.3349448150051763]
PHILOX_REF_001 = [0.8133540609793564, 0.7513314251083365]


def test_rng_reference_vectors():
    np.testing.assert_allclose(rng_for_chunk(0, 0, 0).random(4), PHILOX_REF_000, rtol=0, atol=0)
    np.testing.assert_allclose(rng_for_chunk(12345, 6, 7).exponential(size=4),
                               PHILOX_REF_12345_6_7, rtol=0, atol=0)
    np.testing.assert_allclose(rng_for_chunk(0, 0, 1).random(2), PHILOX_REF_001, rtol=0, atol=0)


def test_rng_streams_are_independent_of_order():
    a = rng_for_chunk(9, 1, 5).random(3)
    b = rng_for_chunk(9, 1, 4).random(3)
    a2 = rng_for_chunk(9, 1, 5).random(3)
    np.testing.assert_array_equal(a, a2)
    assert not np.array_equal(a, b)


def test_exponential_draws_have_configured_means():
    n = 1_000_000
    for mean in (0.5, 3.0):
        draws = rng_for_chunk(7, 0, 0).exponential(scale=mean, size=n)
        se = mean / math.sqrt(n)
        assert abs(draws.mean() - mean) <= 5 * se


@pytest.fixture(scope="module")
def mdnc_point(paper_scenario, paper_coeffs):
    sched = RelaySchedule.from_indices(range(4), 4)
    powers = PowerAllocation(p=[0.7, 0.7], p_relay=np.full(4, 1.5))
    return sched, powers


def test_mc_determinism_and_seed_sensitivity(paper_scenario, paper_coeffs, mdnc_point):
    sched, powers = mdnc_point
    a = monte_carlo_outage(paper_scenario, paper_coeffs, sched, powers, McConfig(200_000, seed=5))
    b = monte_carlo_outage(paper_scenario, paper_coeffs, sched, powers, McConfig(200_000, seed=5))
    c = monte_carlo_outage(paper_scenario, paper_coeffs, sched, powers, McConfig(200_000, seed=6))
    assert a.outage == b.outage
    assert a.outage != c.outage


def test_mc_matches_exact_outage(paper_scenario, paper_coeffs, mdnc_point):
    sched, powers = mdnc_point
    exact = outage_exact(paper_scenario, paper_coeffs, sched, powers).total
    res = monte_carlo_outage(paper_scenario, paper_coeffs, sched, powers,
                             McConfig(1_000_000, seed=3))
    sigma = math.sqrt(exact * (1 - exact) / res.samples)
    assert abs(res.outage - exact) <= 3 * sigma


def test_mc_zero_relay_power_is_certain_outage(paper_scenario, paper_coeffs):
    sched = RelaySchedule.from_indices(range(4), 4)
    powers = PowerAllocation(p=[5.0, 5.0], p_relay=np.zeros(4))
    res = monte_carlo_outage(paper_scenario, paper_coeffs, sched, powers, McConfig(10_000, seed=1))
    assert res.outage == 1.0


def test_mc_estimator_unbiased_over_seeds(paper_scenario, paper_coeffs):
    sched = RelaySchedule.from_indices(range(4), 4)
    powers = PowerAllocation(p=[0.45, 0.45], p_relay=np.full(4, 1.0))
    exact = outage_exact(paper_scenario, paper_coeffs, sched, powers).total
    n_each = 20_000
    estimates = [monte_carlo_outage(paper_scenario, paper_coeffs, sched, powers,
                                    McConfig(n_each, seed=seed)).outage
                 for seed in range(50)]
    pooled_se = math.sqrt(exact * (1 - exact) / (50 * n_each))
    assert abs(np.mean(estimates) - exact) < 4 * pooled_se


def test_mc_nonc_per_user_agreement(paper_scenario, paper_coeffs):
    sched = RelaySchedule.from_indices([0, 2], 4)
    powers = PowerAllocation(p=[0.5, 0.5], p_relay=sched.u * 1.0)
    exact = nonc_outage(paper_coeffs, sched, powers)
    res = monte_carlo_outage(paper_scenario, paper_coeffs, sched, powers,
                             McConfig(500_000, seed=11), scheme="nonc")
    for i in range(2):
        sigma = math.sqrt(exact[i] * (1 - exact[i]) / res.samples)
        assert abs(res.outage[i] - exact[i]) <= 3 * sigma


def test_mc_ee_consistent_with_deterministic_energy(paper_scenario, paper_coeffs, mdnc_point):
    from mdncee.energy import total_energy
    sched, powers = mdnc_point
    res = monte_carlo_outage(paper_scenario, paper_coeffs, sched, powers, McConfig(100_000, seed=2))
    e = total_energy(paper_scenario, sched, powers)
    expected = paper_scenario.M * paper_scenario.alpha0 * paper_scenario.T * (1 - res.outage) / e.e_tot
    assert res.ee == pytest.approx(expected, rel=1e-12)


def test_verifier_sensitivity_to_corrupted_coefficient(paper_scenario, paper_coeffs, mdnc_point):
    # doubling one link coefficient must push the analytic value > 3 sigma
    # away from the simulation of the true channel
    sched, powers = mdnc_point
    res = monte_carlo_outage(paper_scenario, paper_coeffs, sched, powers,
                             McConfig(1_000_000, seed=9))
    corrupted = dataclasses.replace(paper_scenario, sigma_h=paper_scenario.sigma_h / 2.0)
    wrong = outage_exact(corrupted, build_link_coefficients(corrupted), sched, powers).total
    sigma = math.sqrt(wrong * (1 - wrong) / res.samples)
    assert abs(res.outage - wrong) > 3 * sigma


# Exact failure counts of monte_carlo_outage. Any change to the draws (order,
# shape, method) or to the outage rule moves them. Per case: samples -> counts
# for each (seed, stream) in GOLDEN_SEEDS; 300,001 samples end in a partial
# chunk.
GOLDEN_SEEDS = ((0, 0), (2024, 5))
GOLDEN_COUNTS = {
    "paper-mdnc": {1: ([0], [0]), 1000: ([26], [35]), 300_001: ([9481], [9522])},
    "paper-nonc": {1: ([0, 0], [1, 0]), 1000: ([16, 15], [26, 22]),
                   300_001: ([6865, 6115], [6876, 6141])},
    "zero-mdnc": {1: ([0], [1]), 1000: ([536], [555]), 300_001: ([163866], [164935])},
    "zero-nonc": {1: ([0, 0], [1, 0]), 1000: ([11, 44], [12, 55]),
                  300_001: ([3751, 15285], [3596, 14968])},
    "m3-mdnc": {1: ([1], [0]), 1000: ([394], [385]), 300_001: ([113427], [113138])},
    "m3-nonc": {1: ([0, 0, 0], [0, 0, 0]), 1000: ([5, 2, 48], [6, 1, 42]),
                300_001: ([1411, 221, 15919], [1440, 212, 16003])},
    "n8-mdnc": {1: ([0], [0]), 1000: ([21], [12]), 300_001: ([4843], [4779])},
}


def _golden_point(case, paper):
    """(scenario, relays, user powers, relay powers) of one golden case."""
    if case.startswith("m3"):
        s = _random_small_scenario(np.random.default_rng([3, 4, 0]), M=3, N=4)
        scale = 0.1 if case == "m3-mdnc" else 0.01
        return s, range(4), np.full(3, s.P_S_max * scale), np.full(4, s.P_R_max * scale)
    if case == "n8-mdnc":
        # the all-relay N = 8 scenario of the benchmark's mc_verify workload
        s = _random_small_scenario(np.random.default_rng([1, 8, 2]), M=2, N=8)
        return s, range(8), np.full(2, s.P_S_max * 0.01), np.full(8, s.P_R_max * 0.01)
    if case == "paper-mdnc":
        return paper, range(4), [0.05, 0.05], np.full(4, 0.1)
    if case == "paper-nonc":
        return paper, (0, 2), [0.02, 0.02], np.array([0.05, 0.0, 0.05, 0.0])
    # zero-*: relay 2 is selected with zero power, so its second hop never holds
    return paper, range(4), [0.02, 0.02], np.array([0.05, 0.05, 0.0, 0.05])


@pytest.mark.parametrize("case", sorted(GOLDEN_COUNTS))
def test_mc_failure_counts_are_pinned(case, paper_scenario):
    s, relays, p, p_relay = _golden_point(case, paper_scenario)
    coeffs = build_link_coefficients(s)
    sched = RelaySchedule.from_indices(relays, s.N)
    powers = PowerAllocation(p=p, p_relay=p_relay)
    for samples, per_seed in GOLDEN_COUNTS[case].items():
        for (seed, stream), expected in zip(GOLDEN_SEEDS, per_seed):
            res = monte_carlo_outage(s, coeffs, sched, powers,
                                     McConfig(samples, seed=seed, stream=stream),
                                     scheme=case[-4:])
            counts = np.rint(np.atleast_1d(res.outage) * samples).astype(int).tolist()
            assert counts == expected, (samples, seed, stream)


def _golden_thresholds(case, paper):
    s, relays, p, p_relay = _golden_point(case, paper)
    sched = RelaySchedule.from_indices(relays, s.N)
    return simulate._thresholds(s, build_link_coefficients(s), sched,
                                PowerAllocation(p=p, p_relay=p_relay))


def _pin_workers(monkeypatch, workers):
    """Fix the kernel's thread count and record the threads that ran its chunks."""
    threads = set()
    chunk_failures = simulate._chunk_failures

    def recorded(*args):
        threads.add(threading.get_ident())
        return chunk_failures(*args)

    monkeypatch.setattr(simulate, "_worker_count", lambda chunks: workers)
    monkeypatch.setattr(simulate, "_chunk_failures", recorded)
    return threads


@pytest.mark.parametrize("workers", [1, 3])
def test_mc_counts_do_not_depend_on_the_worker_count(workers, monkeypatch, paper_scenario):
    threads = _pin_workers(monkeypatch, workers)
    before = threading.active_count()
    for case in sorted(GOLDEN_COUNTS):
        thr_h, thr_g = _golden_thresholds(case, paper_scenario)
        for (seed, stream), expected in zip(GOLDEN_SEEDS, GOLDEN_COUNTS[case][300_001]):
            counts = simulate._count_failures(thr_h, thr_g, McConfig(300_001, seed, stream),
                                              case.endswith("mdnc"))
            assert counts.tolist() == expected, (case, seed, stream)
        # a chunk boundary and a partial last block
        mc = McConfig(simulate.CHUNK + 3 * simulate.BLOCK + 17, seed=4, stream=1)
        assert (simulate._count_failures(thr_h, thr_g, mc, case.endswith("mdnc")).tolist()
                == whole_chunk_failures(thr_h, thr_g, mc, case.endswith("mdnc")).tolist())
    assert threading.active_count() == before
    assert (threads == {threading.get_ident()}) == (workers == 1)


@pytest.mark.parametrize("M, n, mdnc", [(1, 1, True), (1, 2, False), (1, 3, False),
                                        (2, 1, False), (2, 5, True), (2, 8, True),
                                        (3, 4, True), (3, 9, False), (3, 12, True),
                                        (3, 12, False)])
def test_mc_kernel_equals_whole_chunk_oracle(M, n, mdnc):
    # random thresholds, with a link that always holds and, when a relay
    # can be spared, a relay whose second hop always fails
    rng = np.random.default_rng([15, M, n])
    thr_h = rng.uniform(0.0, 1.5, (M, n))
    thr_g = rng.uniform(0.0, 1.5, n)
    thr_h[0, 0] = 0.0
    if n > M:
        thr_g[-1] = np.inf
    mc = McConfig(2 * simulate.CHUNK + simulate.BLOCK + 5, seed=int(rng.integers(1 << 40)))
    counts = simulate._count_failures(thr_h, thr_g, mc, mdnc)
    assert counts.tolist() == whole_chunk_failures(thr_h, thr_g, mc, mdnc).tolist()
    assert 0 < counts.min() and counts.max() < mc.samples


def test_mc_relay_counter_does_not_wrap():
    # 256 relays that always deliver: a uint8 counter would wrap to 0 < M
    # and count every sample as an outage
    thr_h, thr_g = np.zeros((2, 256)), np.zeros(256)
    assert simulate._count_failures(thr_h, thr_g, McConfig(1000, seed=9), True).tolist() == [0]


def test_mc_memory_is_bounded_by_blocks(monkeypatch, paper_scenario):
    # two threads on the N = 8 golden point: whole-chunk float draws alone
    # would take 2 * CHUNK * (M + 1) * n * 8 bytes = 50 MB (26 MB on one thread)
    workers = 2
    _pin_workers(monkeypatch, workers)
    thr_h, thr_g = _golden_thresholds("n8-mdnc", paper_scenario)
    M, n = thr_h.shape
    block, chunk = simulate.BLOCK, simulate.CHUNK
    for mdnc in (True, False):
        # the module docstring's per-thread bound: one block's float draws,
        # its boolean blocks and the chunk's first-hop mask
        per_thread = (block * (M + 1) * n * 8 + block * M * n + block * n
                      + (chunk * n if mdnc else chunk * M * n))
        tracemalloc.start()
        try:
            simulate._count_failures(thr_h, thr_g, McConfig(1 << 20), mdnc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= workers * per_thread + 1e6, mdnc


@pytest.mark.parametrize("kwargs, message", [
    ({"samples": 0}, "sample count 0 is not in"),
    ({"samples": simulate.MAX_SAMPLES + 1}, f"sample count {simulate.MAX_SAMPLES + 1} is not in"),
    ({"seed": -1}, "seed -1 is not in [0, 2^64)"),
    ({"seed": 1 << 64}, f"seed {1 << 64} is not in [0, 2^64)"),
    ({"stream": -1}, "stream -1 is not in [0, 2^32)"),
    ({"stream": 1 << 32}, f"stream {1 << 32} is not in [0, 2^32)"),
])
def test_mc_config_rejects_keys_that_would_alias(kwargs, message):
    # at the edges of these ranges the Philox key used to wrap: stream 2^32
    # drew stream 0's numbers and seed -1 those of seed 2^64 - 1
    with pytest.raises(ValueError) as exc:
        McConfig(**kwargs)
    assert message in str(exc.value)
    McConfig(samples=simulate.MAX_SAMPLES, seed=(1 << 64) - 1, stream=(1 << 32) - 1)


@pytest.mark.parametrize("key", [(-1, 0, 0), (1 << 64, 0, 0), (0, 1 << 32, 0), (0, 0, 1 << 32)])
def test_rng_rejects_key_parts_out_of_range(key):
    with pytest.raises(ValueError, match="Philox key out of range"):
        rng_for_chunk(*key)


@pytest.mark.parametrize("scheme", ["MDNC", "noNC", "", "mdnc "])
def test_mc_rejects_unknown_scheme(scheme, paper_scenario, paper_coeffs, mdnc_point):
    sched, powers = mdnc_point
    with pytest.raises(ValueError, match="unknown scheme"):
        monte_carlo_outage(paper_scenario, paper_coeffs, sched, powers, McConfig(10), scheme=scheme)


def test_brute_force_single_relay_equals_fixed_schedule(toy_scenario, toy_coeffs):
    sol = brute_force_optimize(toy_scenario, toy_coeffs, 1e-3)
    ref = dinkelbach_fixed_schedule(assemble_primal(toy_scenario, toy_coeffs,
                                                    RelaySchedule.from_indices([0], 1), 1e-3))
    assert sol.schedule.theta == (0,)
    assert sol.ee == pytest.approx(ref.ee, rel=1e-12)


def test_brute_force_invariant_to_relay_permutation(paper_scenario, paper_coeffs):
    perm = [2, 0, 3, 1]
    inv = np.argsort(perm)
    s2 = dataclasses.replace(
        paper_scenario,
        sigma_h=paper_scenario.sigma_h[:, perm], d_h=paper_scenario.d_h[:, perm],
        n_h=paper_scenario.n_h[:, perm], N0_h=paper_scenario.N0_h[:, perm],
        sigma_g=paper_scenario.sigma_g[perm], d_g=paper_scenario.d_g[perm],
        n_g=paper_scenario.n_g[perm], N0_g=paper_scenario.N0_g[perm],
    )
    co2 = build_link_coefficients(s2)
    a = brute_force_optimize(paper_scenario, paper_coeffs, 1e-3)
    b = brute_force_optimize(s2, co2, 1e-3)
    assert a.ee == pytest.approx(b.ee, rel=1e-9)
    assert tuple(sorted(int(inv[j]) for j in a.schedule.theta)) == b.schedule.theta


def test_brute_force_infeasible_marker(paper_scenario, paper_coeffs):
    sol = brute_force_optimize(paper_scenario, paper_coeffs, 1e-12)
    assert not sol.feasible


def test_brute_force_enumeration_guard(paper_scenario, paper_coeffs):
    big = dataclasses.replace(
        paper_scenario, N=13,
        sigma_h=np.ones((2, 13)), d_h=np.full((2, 13), 500.0),
        n_h=np.full((2, 13), 2.5), N0_h=np.full((2, 13), 1e-16),
        sigma_g=np.ones(13), d_g=np.full(13, 400.0), n_g=np.full(13, 2.5),
        N0_g=np.full(13, 1e-16),
    )
    with pytest.raises(ValueError, match="N = 13"):
        brute_force_optimize(big, build_link_coefficients(big), 1e-3)


def _assert_same_answer(screened, plain):
    """Screened and plain enumeration agree to the last bit."""
    assert screened.feasible == plain.feasible
    if not plain.feasible:
        return
    assert screened.schedule.theta == plain.schedule.theta
    assert repr(screened.ee) == repr(plain.ee)
    assert screened.q_star == plain.q_star
    assert screened.powers.p.tobytes() == plain.powers.p.tobytes()
    assert screened.powers.p_relay.tobytes() == plain.powers.p_relay.tobytes()


@pytest.mark.parametrize("include_user_energy", [False, True])
@pytest.mark.parametrize("scheme", ["mdnc", "nonc"])
def test_screened_brute_force_equals_plain_enumeration_on_paper_cfg(
        scheme, include_user_energy, paper_scenario, paper_coeffs):
    s = dataclasses.replace(paper_scenario, user_energy_in_budget=include_user_energy)
    for target in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        screened = brute_force_optimize(s, paper_coeffs, target, scheme)
        plain = plain_brute_force(s, paper_coeffs, target, scheme)
        _assert_same_answer(screened, plain)
        d = screened.diagnostics
        assert 1 <= d["q_iterations"] <= d["subsets_tried"]
        bounds = simulate.relay_count_bounds(s, paper_coeffs, target, scheme)
        window = sum(math.comb(s.N, k) for k in range(bounds.low, bounds.up + 1))
        assert d["subsets_tried"] + d["subsets_pruned"] + d["subsets_dominated"] <= window


@pytest.mark.parametrize("M,scheme,target", [(2, "mdnc", 1e-4), (3, "mdnc", 1e-3),
                                              (3, "nonc", 1e-3)])
def test_brute_force_assembles_only_subsets_closed_under_dominance(monkeypatch, M, scheme,
                                                                    target):
    # on the N = 8 scenario of bench/workloads.random_scenario's seed
    # [1, 8, M]: best_subset first, then, count by count up to the count
    # cut, exactly the subsets of combinations that no one-relay swap
    # dominates by the permutation oracle; subsets_dominated counts the rest
    s = _random_small_scenario(np.random.default_rng([1, 8, M]), M=M, N=8)
    coeffs = build_link_coefficients(s)
    assembled = []
    real = simulate.assemble_primal

    def recording(s, coeffs, schedule, target, scheme):
        assembled.append(schedule.theta)
        return real(s, coeffs, schedule, target, scheme)

    monkeypatch.setattr(simulate, "assemble_primal", recording)
    sol = brute_force_optimize(s, coeffs, target, scheme)
    bounds = simulate.relay_count_bounds(s, coeffs, target, scheme)
    d = sol.diagnostics
    # the counts from stop on were cut by count
    stop = next(k for k in range(bounds.low, bounds.up + 2)
                if sum(math.comb(s.N, j) for j in range(k, bounds.up + 1)) == d["subsets_pruned"])
    rest = [c for k in range(bounds.low, stop) for c in combinations(range(s.N), k)
            if c != bounds.best_subset]
    closed = [c for c in rest if closed_under_dominance(coeffs, c)]
    assert assembled == [bounds.best_subset, *closed]
    assert d["subsets_dominated"] == len(rest) - len(closed) > 0


# (M, N) of each random draw; the draws alternate in pairs between leaving
# user energy out of the budget and counting it
RANDOM_SHAPES = [(2, 4), (3, 4), (2, 5), (3, 5), (2, 6), (3, 6), (3, 7),
                 (2, 4), (3, 4), (2, 5), (3, 5), (3, 7)]


@pytest.mark.parametrize("draw", range(len(RANDOM_SHAPES)))
def test_screened_brute_force_equals_plain_enumeration_on_random_scenarios(draw):
    M, N = RANDOM_SHAPES[draw]
    rng = np.random.default_rng([12, draw])
    s = _random_small_scenario(rng, M=M, N=N)
    coeffs = build_link_coefficients(s)
    target = float(rng.choice([1e-2, 1e-3, 1e-4]))
    s = dataclasses.replace(s, user_energy_in_budget=(draw // 2) % 2 == 1)
    for scheme in ("mdnc", "nonc"):
        _assert_same_answer(brute_force_optimize(s, coeffs, target, scheme),
                            plain_brute_force(s, coeffs, target, scheme))


def test_ratio_bound_holds_for_every_feasible_fixed_schedule():
    # q_S < M*alpha0 / (gamma*n + delta0): the bound the count cut rests on
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(12):
        M = int(rng.integers(2, 4))
        s = _random_small_scenario(rng, M=M, N=int(rng.integers(M, 7)))
        coeffs = build_link_coefficients(s)
        for scheme in ("mdnc", "nonc"):
            gamma, delta0, _, _ = scheme_constants(s, scheme)
            n = int(rng.integers(1, s.N + 1))
            subset = sorted(rng.choice(s.N, size=n, replace=False).tolist())
            target = float(rng.choice([1e-2, 1e-3]))
            counted = dataclasses.replace(s, user_energy_in_budget=bool(rng.integers(2)))
            sol = dinkelbach_fixed_schedule(assemble_primal(
                counted, coeffs, RelaySchedule.from_indices(subset, s.N), target, scheme=scheme))
            if sol is None:
                continue
            assert sol.q_star < s.M * s.alpha0 / (gamma * n + delta0)
            assert ratio_count_cap(s, scheme, sol.q_star) >= n
            checked += 1
    assert checked >= 10


@pytest.mark.parametrize("scheme", ["mdnc", "nonc"])
def test_ratio_count_cap_does_not_increase_with_q(scheme, paper_scenario):
    s = paper_scenario
    gamma, delta0, _, _ = scheme_constants(s, scheme)
    qs = np.concatenate([[0.0], np.geomspace(1.0, 10 * s.M * s.alpha0 / (gamma + delta0), 200)])
    caps = [ratio_count_cap(s, scheme, float(q)) for q in qs]
    assert caps[0] == s.N and caps[-1] == 0
    assert all(a >= b for a, b in zip(caps, caps[1:]))


def test_brute_force_falls_back_when_best_subset_is_infeasible(monkeypatch, paper_scenario,
                                                               paper_coeffs):
    # a single relay cannot carry two MDNC users: the first q-iteration finds
    # no incumbent, so subsets are q-iterated in order until one is feasible
    real = simulate.relay_count_bounds

    def infeasible_best(*args, **kwargs):
        b = real(*args, **kwargs)
        return CountBounds(low=b.low, up=b.up, best_subset=(0,))

    monkeypatch.setattr(simulate, "relay_count_bounds", infeasible_best)
    for target in (1e-2, 1e-4):
        screened = brute_force_optimize(paper_scenario, paper_coeffs, target)
        _assert_same_answer(screened, plain_brute_force(paper_scenario, paper_coeffs, target))
        assert screened.diagnostics["q_iterations"] >= 1


def test_brute_force_assembles_each_subset_once(monkeypatch):
    # every subset's one problem serves its sign test and its q-iteration
    s = _random_small_scenario(np.random.default_rng([1, 6, 3]), M=3, N=6)
    coeffs = build_link_coefficients(s)
    assembled = []
    real = simulate.assemble_primal

    def counting(*args, **kwargs):
        pp = real(*args, **kwargs)
        assembled.append(pp.schedule.theta)
        return pp

    monkeypatch.setattr(simulate, "assemble_primal", counting)
    sol = brute_force_optimize(s, coeffs, 1e-3, "mdnc")
    assert sol.feasible and sol.diagnostics["q_iterations"] > 1
    assert len(assembled) == len(set(assembled)) >= sol.diagnostics["subsets_tried"]
