import dataclasses
import math

import numpy as np
import pytest

from mdncee.model import build_link_coefficients
from mdncee.outage import PowerAllocation, RelaySchedule, nonc_outage, outage_exact
from mdncee.simulate import (
    McConfig,
    brute_force_optimize,
    monte_carlo_outage,
    rng_for_chunk,
)

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


def test_brute_force_single_relay_equals_fixed_schedule(toy_scenario, toy_coeffs):
    from mdncee.optimizer import dinkelbach_fixed_schedule
    sol = brute_force_optimize(toy_scenario, toy_coeffs, 1e-3)
    ref = dinkelbach_fixed_schedule(toy_scenario, toy_coeffs,
                                    RelaySchedule.from_indices([0], 1), 1e-3)
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
