import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SCENARIO_PATH, random_coeffs
from oracles import (
    enumerated_nonc_terms,
    enumerated_outage_terms,
    outage_approx_logdomain,
    outage_approx_power,
    powers_to_log,
    prob_varsigma_given_zeta,
    prob_zeta_K,
)
from mdncee.model import build_link_coefficients, load_scenario
from mdncee.outage import (
    PowerAllocation,
    RelaySchedule,
    link_outage,
    nonc_outage,
    nonc_outage_approx_values,
    nonc_outage_posynomials,
    outage_exact,
    outage_posynomial,
    powers_from_log,
    relay_decode_prob,
)


def enumerate_outage(c_h, c_g, theta, p, p_relay, M):
    """Independent oracle: sum over every joint link-outcome pattern.

    A relay is useful iff all its M first-hop links succeed and its second
    hop succeeds; outage iff fewer than M useful relays. Success probability
    of a link with coefficient c at power p is exp(-c/p) (0 at p = 0).
    """
    theta = list(theta)
    n = len(theta)
    ok_h = np.array([[math.exp(-c_h[i, j] / p[i]) for j in theta] for i in range(M)])
    ok_g = np.array([math.exp(-c_g[j] / p_relay[j]) if p_relay[j] > 0 else 0.0 for j in theta])
    total = 0.0
    for pattern_h in product((0, 1), repeat=M * n):
        ph = np.array(pattern_h).reshape(M, n)
        w_h = np.prod(np.where(ph, ok_h, 1.0 - ok_h))
        for pattern_g in product((0, 1), repeat=n):
            pg = np.array(pattern_g)
            w = w_h * np.prod(np.where(pg, ok_g, 1.0 - ok_g))
            useful = int(np.sum(np.all(ph, axis=0) & (pg == 1)))
            if useful < M:
                total += w
    return total


def enumerate_nonc_outage(c_h, c_g, theta, p, p_relay, M):
    """Per-user pattern enumeration for the uncoded baseline."""
    theta = list(theta)
    n = len(theta)
    out = np.zeros(M)
    for i in range(M):
        ok_h = np.array([math.exp(-c_h[i, j] / p[i]) for j in theta])
        ok_g = np.array([math.exp(-c_g[j] / p_relay[j]) if p_relay[j] > 0 else 0.0 for j in theta])
        total = 0.0
        for pattern in product((0, 1), repeat=2 * n):
            ph = np.array(pattern[:n])
            pg = np.array(pattern[n:])
            w = np.prod(np.where(ph, ok_h, 1.0 - ok_h)) * np.prod(np.where(pg, ok_g, 1.0 - ok_g))
            if not np.any((ph == 1) & (pg == 1)):
                total += w
        out[i] = total
    return out


# -- link-level pieces -------------------------------------------------------


def test_link_outage_closed_form():
    assert link_outage(1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-15)
    assert link_outage(1.0, 1e12) == pytest.approx(1e-12, rel=1e-3)
    assert link_outage(1.0, 0.0) == 1.0


def test_relay_decode_prob_values():
    assert relay_decode_prob([1.0], [1.0]) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert relay_decode_prob([1.0, 2.0], [1.0, 1.0]) == pytest.approx(math.exp(-3.0), rel=1e-15)
    assert relay_decode_prob([1e-9, 1e-9], [10.0, 10.0]) == pytest.approx(1.0, abs=1e-9)


def test_prob_zeta_degenerate_and_two_relay():
    sched = RelaySchedule.from_indices([0, 1], 2)
    assert prob_zeta_K(sched, [1.0, 1.0], 2) == 1.0
    assert prob_zeta_K(sched, [1.0, 1.0], 1) == 0.0
    a, b = 0.3, 0.8
    assert prob_zeta_K(sched, [a, b], 1) == pytest.approx(a * (1 - b) + b * (1 - a), rel=1e-14)


def test_prob_zeta_matches_pattern_enumeration():
    rng = np.random.default_rng(11)
    sched = RelaySchedule.from_indices(range(4), 4)
    rho = rng.uniform(0, 1, 4)
    for K in range(5):
        brute = 0.0
        for pattern in product((0, 1), repeat=4):
            if sum(pattern) == K:
                brute += np.prod(np.where(pattern, rho, 1 - rho))
        assert prob_zeta_K(sched, rho, K) == pytest.approx(brute, abs=1e-14)


def test_prob_varsigma_basics():
    assert prob_varsigma_given_zeta((0, 1), [0.0, 0.0], 2) == 1.0
    x, y = 0.25, 0.6
    assert prob_varsigma_given_zeta((0, 1), [x, y], 0) == pytest.approx(x * y, rel=1e-14)
    total = sum(prob_varsigma_given_zeta((0, 1, 2), [0.1, 0.5, 0.9], tau) for tau in range(4))
    assert total == pytest.approx(1.0, abs=1e-14)


@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_zeta_normalization_property(n, seed):
    rng = np.random.default_rng(seed)
    rho = rng.uniform(0, 1, n)
    sched = RelaySchedule.from_indices(range(n), n)
    total = math.fsum(prob_zeta_K(sched, rho, K) for K in range(n + 1))
    assert abs(total - 1.0) <= 1e-12


@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_varsigma_normalization_property(n, seed):
    rng = np.random.default_rng(seed)
    pe = rng.uniform(0, 1, n)
    phi = tuple(range(n))
    total = math.fsum(prob_varsigma_given_zeta(phi, pe, tau) for tau in range(n + 1))
    assert abs(total - 1.0) <= 1e-12


# -- exact network outage ----------------------------------------------------


def test_outage_exact_smallest_instance():
    rng = np.random.default_rng(5)
    co = random_coeffs(rng, 1, 1, scale=0.5)
    sched = RelaySchedule.from_indices([0], 1)
    powers = PowerAllocation(p=[1.2], p_relay=[2.0])
    ob = outage_exact_toy(co, sched, powers)
    rho = math.exp(-co.c_h[0, 0] / 1.2)
    pe = 1.0 - math.exp(-co.c_g[0] / 2.0)
    assert ob.total == pytest.approx((1 - rho) + rho * pe, rel=1e-14)


def outage_exact_toy(co, sched, powers):
    from mdncee.model import ScenarioConfig
    M, N = co.c_h.shape
    s = ScenarioConfig(M=M, N=N, sigma_h=np.ones((M, N)), d_h=np.ones((M, N)),
                       n_h=np.ones((M, N)), N0_h=np.ones((M, N)),
                       sigma_g=np.ones(N), d_g=np.ones(N), n_g=np.ones(N), N0_g=np.ones(N),
                       alpha0=1.0, B=1.0, T=1.0, beta=0.5, P_S_max=100.0, P_R_max=100.0,
                       P0_R=2.0, P_sleep_R=1.0, P0_BS=2.0, P_sleep_BS=1.0, delta_P=1.0,
                       E0=1e9, pr_out_target=0.5)
    return outage_exact(s, co, sched, powers)


@pytest.mark.parametrize("M,n", [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (2, 4), (3, 3)])
def test_outage_exact_matches_pattern_enumeration(M, n):
    rng = np.random.default_rng(100 * M + n)
    for _ in range(8):
        co = random_coeffs(rng, M, n, scale=0.8)
        sched = RelaySchedule.from_indices(range(n), n)
        powers = PowerAllocation(p=rng.uniform(0.5, 3.0, M), p_relay=rng.uniform(0.5, 3.0, n))
        ours = outage_exact_toy(co, sched, powers).total
        brute = enumerate_outage(co.c_h, co.c_g, range(n), powers.p, powers.p_relay, M)
        assert ours == pytest.approx(brute, abs=1e-12)


def test_outage_exact_zeta_sums_to_one(paper_scenario, paper_coeffs):
    sched = RelaySchedule.from_indices([0, 1, 3], 4)
    powers = PowerAllocation(p=[2.0, 3.0], p_relay=[1.0, 4.0, 0.0, 2.0])
    ob = outage_exact(paper_scenario, paper_coeffs, sched, powers)
    assert math.fsum(ob.zeta) == pytest.approx(1.0, abs=1e-12)
    assert ob.total == ob.pr_A + ob.pr_B
    assert 0.0 <= ob.total <= 1.0


def test_outage_exact_certain_when_too_few_relays(paper_scenario, paper_coeffs):
    sched = RelaySchedule.from_indices([1], 4)
    powers = PowerAllocation(p=[2.0, 3.0], p_relay=[0.0, 4.0, 0.0, 0.0])
    ob = outage_exact(paper_scenario, paper_coeffs, sched, powers)
    assert ob.certain_outage and ob.total == 1.0


def test_outage_vanishes_at_huge_power(paper_scenario, paper_coeffs):
    sched = RelaySchedule.from_indices(range(4), 4)
    powers = PowerAllocation(p=[1e9, 1e9], p_relay=np.full(4, 1e9))
    assert outage_exact(paper_scenario, paper_coeffs, sched, powers).total < 1e-20


def test_outage_exact_monotone_in_every_power(paper_scenario, paper_coeffs):
    rng = np.random.default_rng(17)
    sched = RelaySchedule.from_indices(range(4), 4)
    for _ in range(10):
        p = rng.uniform(0.3, 5.0, 2)
        pr = rng.uniform(0.3, 5.0, 4)
        base = outage_exact(paper_scenario, paper_coeffs, sched, PowerAllocation(p=p, p_relay=pr)).total
        for k in range(2):
            p2 = p.copy()
            p2[k] *= 1.05
            bumped = outage_exact(paper_scenario, paper_coeffs, sched,
                                  PowerAllocation(p=p2, p_relay=pr)).total
            assert bumped <= base
        for k in range(4):
            pr2 = pr.copy()
            pr2[k] *= 1.05
            bumped = outage_exact(paper_scenario, paper_coeffs, sched,
                                  PowerAllocation(p=p, p_relay=pr2)).total
            assert bumped <= base


# -- high-SNR approximation --------------------------------------------------


def test_approx_hand_expansion_single_relay():
    rng = np.random.default_rng(2)
    co = random_coeffs(rng, 1, 1)
    sched = RelaySchedule.from_indices([0], 1)
    powers = PowerAllocation(p=[2.0], p_relay=[3.0])
    expected = co.c_h[0, 0] / 2.0 + co.c_g[0] / (co.c_g[0] + 3.0)
    assert outage_approx_power(co, sched, powers) == pytest.approx(expected, rel=1e-14)


def test_approx_zero_relay_power_second_hop_factor_is_one():
    rng = np.random.default_rng(3)
    co = random_coeffs(rng, 1, 1)
    sched = RelaySchedule.from_indices([0], 1)
    powers = PowerAllocation(p=[2.0], p_relay=[0.0])
    expected = co.c_h[0, 0] / 2.0 + 1.0
    assert outage_approx_power(co, sched, powers) == pytest.approx(expected, rel=1e-14)


def test_approx_ratio_monotone_to_one(paper_scenario, paper_coeffs):
    sched = RelaySchedule.from_indices(range(4), 4)
    ratios = []
    for scale in (1.0, 3.0, 10.0, 30.0):
        powers = PowerAllocation(p=np.full(2, 1.0 * scale), p_relay=np.full(4, 2.0 * scale))
        exact = outage_exact(paper_scenario, paper_coeffs, sched, powers).total
        approx = outage_approx_power(paper_coeffs, sched, powers)
        ratios.append(approx / exact)
    assert all(r >= 1.0 for r in ratios)
    assert ratios == sorted(ratios, reverse=True)
    assert abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0)


def test_logdomain_matches_power_domain(paper_coeffs):
    rng = np.random.default_rng(23)
    sched = RelaySchedule.from_indices([0, 2, 3], 4)
    for _ in range(20):
        powers = PowerAllocation(p=rng.uniform(0.2, 9.0, 2),
                                 p_relay=sched.u * rng.uniform(0.2, 19.0, 4))
        ptilde, ptr_full = powers_to_log(paper_coeffs, sched, powers)
        ptr = ptr_full[list(sched.theta)]
        a = outage_approx_power(paper_coeffs, sched, powers)
        b = outage_approx_logdomain(paper_coeffs, sched, ptilde, ptr)
        assert b == pytest.approx(a, rel=1e-10)


def test_logdomain_zero_is_zero_power_endpoint(paper_coeffs):
    sched = RelaySchedule.from_indices([0], 4)
    val = outage_approx_logdomain(paper_coeffs, sched, np.log([3.0, 4.0]), [0.0])
    powers = PowerAllocation(p=[3.0, 4.0], p_relay=np.zeros(4))
    assert val == pytest.approx(outage_approx_power(paper_coeffs, sched, powers), rel=1e-12)


def test_approx_vanishes_at_huge_power(paper_coeffs):
    sched = RelaySchedule.from_indices(range(4), 4)
    big = PowerAllocation(p=np.full(2, 1e9), p_relay=np.full(4, 1e9))
    assert outage_approx_power(paper_coeffs, sched, big) < 1e-12


def test_posynomial_log_hessian_is_psd(paper_coeffs):
    from mdncee.convex_solver import _BarrierStack

    rng = np.random.default_rng(4)
    pos = outage_posynomial(paper_coeffs, (0, 1, 2, 3), 2)
    for _ in range(25):
        x = np.concatenate([rng.uniform(-2, 2, 2), rng.uniform(0, 8, 4)])
        # the barrier's Hessian of its objective's log, in a box around x
        (_, _, hess), _ = _BarrierStack(pos, [], [], x - 1.0, x + 1.0).derivatives(x)
        eig = np.linalg.eigvalsh(hess)
        assert eig.min() >= -1e-12


def assert_same_terms(pos, oracle_terms):
    """pos has exactly the oracle's exponent rows, coefficients to 1e-14 relative."""
    rows = [tuple(int(v) for v in e) for e in pos.expos]
    assert np.array_equal(pos.expos, np.array(rows, dtype=float).reshape(pos.expos.shape))
    assert len(set(rows)) == len(rows) == len(oracle_terms)
    for row, c in zip(rows, pos.coeffs):
        assert c == pytest.approx(oracle_terms[row], rel=1e-14, abs=0.0)


def builder_cases(M, N):
    """Coefficient sets for (M, N): paper.cfg when it has that shape, plus seeded random scenarios."""
    from test_properties import _random_small_scenario
    cases = []
    if (M, N) == (2, 4):
        cases.append(build_link_coefficients(load_scenario(SCENARIO_PATH)))
    rng = np.random.default_rng([M, N])
    cases += [build_link_coefficients(_random_small_scenario(rng, M, N)) for _ in range(2)]
    return cases


@pytest.mark.parametrize("M,N", [(1, 3), (2, 4), (3, 3), (2, 6), (3, 6)])
def test_outage_posynomial_terms_match_subset_enumeration(M, N):
    for co in builder_cases(M, N):
        for selected in (tuple(range(N)), tuple(range(0, N, 2)), tuple(range(1, N))):
            assert_same_terms(outage_posynomial(co, selected, M),
                              enumerated_outage_terms(co, selected, M))


@pytest.mark.parametrize("M,N", [(1, 3), (2, 4), (3, 3), (2, 6), (3, 6)])
def test_nonc_posynomial_terms_match_subset_enumeration(M, N):
    for co in builder_cases(M, N):
        for selected in (tuple(range(N)), tuple(range(0, N, 2))):
            built = nonc_outage_posynomials(co, selected, M)
            assert len(built) == M
            for pos, terms in zip(built, enumerated_nonc_terms(co, selected, M)):
                assert_same_terms(pos, terms)


def test_log_roundtrip_power_conversion(paper_coeffs):
    rng = np.random.default_rng(29)
    sched = RelaySchedule.from_indices([1, 3], 4)
    for _ in range(50):
        powers = PowerAllocation(p=rng.uniform(1e-3, 10, 2),
                                 p_relay=sched.u * rng.uniform(1e-3, 20, 4))
        pt, ptr = powers_to_log(paper_coeffs, sched, powers)
        back = powers_from_log(paper_coeffs, sched, pt, ptr)
        np.testing.assert_allclose(back.p, powers.p, rtol=1e-12)
        np.testing.assert_allclose(back.p_relay, powers.p_relay, rtol=1e-12, atol=1e-300)


# -- NoNC baseline -----------------------------------------------------------


def test_nonc_perfect_links_no_outage(paper_coeffs):
    sched = RelaySchedule.from_indices([0], 4)
    powers = PowerAllocation(p=np.full(2, 1e12), p_relay=sched.u * 1e12)
    assert np.all(nonc_outage(paper_coeffs, sched, powers) < 1e-10)


def test_nonc_single_relay_expansion(paper_coeffs):
    sched = RelaySchedule.from_indices([1], 4)
    powers = PowerAllocation(p=[2.0, 3.0], p_relay=sched.u * 4.0)
    out = nonc_outage(paper_coeffs, sched, powers)
    for i, p in enumerate((2.0, 3.0)):
        pe_h = 1.0 - math.exp(-paper_coeffs.c_h[i, 1] / p)
        pe_g = 1.0 - math.exp(-paper_coeffs.c_g[1] / 4.0)
        assert out[i] == pytest.approx(1.0 - (1.0 - pe_h) * (1.0 - pe_g), rel=1e-14)


def test_nonc_matches_pattern_enumeration():
    rng = np.random.default_rng(31)
    for _ in range(8):
        co = random_coeffs(rng, 2, 2, scale=0.8)
        sched = RelaySchedule.from_indices([0, 1], 2)
        powers = PowerAllocation(p=rng.uniform(0.5, 3.0, 2), p_relay=rng.uniform(0.5, 3.0, 2))
        ours = nonc_outage(co, sched, powers)
        brute = enumerate_nonc_outage(co.c_h, co.c_g, [0, 1], powers.p, powers.p_relay, 2)
        np.testing.assert_allclose(ours, brute, atol=1e-13)


def test_nonc_empty_schedule_is_certain_outage(paper_coeffs):
    sched = RelaySchedule(np.zeros(4, dtype=int))
    powers = PowerAllocation(p=[1.0, 1.0], p_relay=np.zeros(4))
    np.testing.assert_array_equal(nonc_outage(paper_coeffs, sched, powers), np.ones(2))


@pytest.mark.parametrize("a", np.logspace(-3, 1, 9))
def test_nonc_approximation_straddles_the_exact_link_failures(paper_coeffs, a):
    # with a = c/p, the user hop's approximate factor a lies above its exact
    # failure 1 - e^(-a), and the relay hop's c/(c + p') = a/(1 + a) lies
    # below it (e^a >= 1 + a): the approximation is no bound. Each hop is
    # isolated by a power so high that the other one cannot fail.
    co = paper_coeffs
    M, j = co.c_h.shape[0], 1
    sched = RelaySchedule.from_indices([j], co.c_g.size)
    huge = 1e15

    def approx_minus_exact(p, p_relay):
        x = np.concatenate([np.log(p), [np.log1p(p_relay / co.c_g[j])]])
        exact = nonc_outage(co, sched, PowerAllocation(p=p, p_relay=sched.u * p_relay))
        return nonc_outage_approx_values(co, (j,), M, x) - exact

    user_hop = approx_minus_exact(co.c_h[:, j] / a, co.c_g[j] * huge)
    relay_hop = approx_minus_exact(co.c_h[:, j] * huge, co.c_g[j] / a)
    assert np.all(user_hop > 0.0)
    assert np.all(relay_hop < 0.0)
    assert user_hop == pytest.approx(a + math.expm1(-a), rel=1e-6)
    assert relay_hop == pytest.approx(a / (1.0 + a) + math.expm1(-a), rel=1e-6)
