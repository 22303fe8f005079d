import dataclasses
import math

import numpy as np
import pytest

from mdncee.convex_solver import assemble_primal
from mdncee.energy import (
    energy_budget_ok,
    energy_efficiency,
    scheme_constants,
    subtractive_value,
    tilde_v,
    total_energy,
)
from mdncee.outage import PowerAllocation, RelaySchedule, outage_approx_logdomain, powers_from_log


@pytest.fixture
def two_relay_point(paper_scenario):
    sched = RelaySchedule.from_indices([0, 2], 4)
    powers = PowerAllocation(p=[10.0, 10.0], p_relay=sched.u * 20.0)
    return sched, powers


def test_reference_components_by_direct_arithmetic(paper_scenario, two_relay_point):
    s = paper_scenario
    sched, powers = two_relay_point
    e = total_energy(s, sched, powers)
    T = 125.0 / 300.0
    assert e.e_bs1 == pytest.approx(75.0 * 2 * T)            # = 62.5 J
    assert e.e_bs1 == pytest.approx(62.5)
    assert e.e_s == pytest.approx(20.0 * T)
    assert e.e_r1 == pytest.approx(2 * 56.0 * 2 * T)
    assert e.e_r2 == pytest.approx(2 * 56.0 * T + 2.6 * 40.0 * T + 1 * 39.0 * 0.1 * T)
    assert e.e_bs2 == pytest.approx(130.0 * 2 * T)
    assert e.e_tot == pytest.approx(e.e_s + e.e_r1 + e.e_bs1 + e.e_r2 + e.e_bs2, rel=1e-15)
    assert e.e_data == pytest.approx(20.0 * T + 2.6 * 40.0 * T)


def test_sleep_terms_vanish_for_single_relay_zero_beta(paper_scenario):
    s0 = dataclasses.replace(paper_scenario, beta=0.0)
    sched = RelaySchedule.from_indices([1], 4)
    powers = PowerAllocation(p=[1.0, 1.0], p_relay=sched.u * 5.0)
    e = total_energy(s0, sched, powers)
    # (n-1) = 0 and beta = 0: no handover sleep energy either way
    T = s0.T
    assert e.e_r2 == pytest.approx(56.0 * T + 2.6 * 5.0 * T)


def test_doubling_powers_touches_only_transmit_shares(paper_scenario, two_relay_point):
    sched, powers = two_relay_point
    half = PowerAllocation(p=np.asarray(powers.p) / 2, p_relay=np.asarray(powers.p_relay) / 2)
    e1 = total_energy(paper_scenario, sched, half)
    e2 = total_energy(paper_scenario, sched, powers)
    assert e2.e_s == pytest.approx(2 * e1.e_s)
    assert e2.e_r1 == e1.e_r1
    assert e2.e_bs1 == e1.e_bs1
    assert e2.e_bs2 == e1.e_bs2
    delta_p_share1 = e1.e_r2 - 2 * 56.0 * paper_scenario.T - 39.0 * 0.1 * paper_scenario.T
    delta_p_share2 = e2.e_r2 - 2 * 56.0 * paper_scenario.T - 39.0 * 0.1 * paper_scenario.T
    assert delta_p_share2 == pytest.approx(2 * delta_p_share1)


def test_energy_affine_slopes(paper_scenario, two_relay_point):
    s = paper_scenario
    sched, powers = two_relay_point
    base = total_energy(s, sched, powers).e_tot
    bump_user = PowerAllocation(p=[11.0, 10.0], p_relay=powers.p_relay)
    assert total_energy(s, sched, bump_user).e_tot - base == pytest.approx(s.T, rel=1e-12)
    pr = np.asarray(powers.p_relay, dtype=float).copy()
    pr[2] += 1.0
    bump_relay = PowerAllocation(p=powers.p, p_relay=pr)
    assert total_energy(s, sched, bump_relay).e_tot - base == pytest.approx(s.delta_P * s.T, rel=1e-12)


def test_empty_schedule_rejected(paper_scenario):
    sched = RelaySchedule(np.zeros(4, dtype=int))
    with pytest.raises(ValueError):
        total_energy(paper_scenario, sched, PowerAllocation(p=[1, 1], p_relay=np.zeros(4)))


def test_budget_excludes_user_energy_by_default(paper_scenario, two_relay_point):
    sched, powers = two_relay_point
    e = total_energy(paper_scenario, sched, powers)
    grid_draw = e.e_bs1 + e.e_bs2 + e.e_r1 + e.e_r2
    assert energy_budget_ok(e, grid_draw)
    assert not energy_budget_ok(e, grid_draw, include_user_energy=True)
    assert energy_budget_ok(e, grid_draw + e.e_s, include_user_energy=True)
    assert energy_budget_ok(e, math.inf)
    assert not energy_budget_ok(e, 0.0)


def test_reference_budget_two_relays(paper_scenario, two_relay_point):
    sched, powers = two_relay_point
    e = total_energy(paper_scenario, sched, powers)
    assert energy_budget_ok(e, paper_scenario.E0)   # 900 J covers the 2-relay draw


def test_energy_efficiency_normalization(paper_scenario, two_relay_point):
    s = paper_scenario
    sched, powers = two_relay_point
    e = total_energy(s, sched, powers)
    assert energy_efficiency(s, 1.0, e) == 0.0
    scaled = dataclasses.replace(e, e_tot=s.M * s.alpha0 * s.T)
    assert energy_efficiency(s, 0.0, scaled) == pytest.approx(1.0, rel=1e-15)


def test_subtractive_value_fixed_point(paper_scenario, two_relay_point):
    s = paper_scenario
    sched, powers = two_relay_point
    e = total_energy(s, sched, powers)
    pr = 3.7e-3
    assert subtractive_value(0.0, s, pr, e) == pytest.approx(s.M * s.alpha0 * (1 - pr), rel=1e-15)
    q_root = s.M * s.alpha0 * (1 - pr) / e.e_tot
    assert subtractive_value(q_root, s, pr, e) == pytest.approx(0.0, abs=1e-9)
    assert subtractive_value(q_root + 1.0, s, pr, e) < subtractive_value(q_root, s, pr, e)


def test_tilde_v_identity_and_root_value(paper_scenario, paper_coeffs):
    s = paper_scenario
    sched = RelaySchedule.from_indices([0, 1, 2], 4)
    rng = np.random.default_rng(41)
    const = s.T * s.delta_P * float(np.sum(paper_coeffs.c_g))
    for _ in range(10):
        ptilde = rng.uniform(-1.0, 2.0, 2)
        ptr = rng.uniform(0.5, 5.0, 3)
        powers = powers_from_log(paper_coeffs, sched,
                                 ptilde, np.array([ptr[0], ptr[1], ptr[2], 0.0]))
        pr = outage_approx_logdomain(paper_coeffs, sched, ptilde, ptr)
        e = total_energy(s, sched, powers)
        q = rng.uniform(0.0, 2000.0)
        v = subtractive_value(q, s, pr, e)
        expected = math.log(-v + s.M * s.alpha0 + q * const)
        assert tilde_v(q, s, paper_coeffs, sched, ptilde, ptr) == pytest.approx(expected, abs=1e-12)
        # at the parametric root V = 0 the objective collapses to the constant
        q_root = s.M * s.alpha0 * (1 - pr) / e.e_tot
        tv_root = tilde_v(q_root, s, paper_coeffs, sched, ptilde, ptr)
        assert tv_root == pytest.approx(math.log(s.M * s.alpha0 + q_root * const), abs=1e-9)


def test_tilde_v_at_q_zero(paper_scenario, paper_coeffs):
    s = paper_scenario
    sched = RelaySchedule.from_indices([0, 1], 4)
    ptilde = np.log([2.0, 2.0])
    ptr = np.array([1.0, 1.5])
    pr = outage_approx_logdomain(paper_coeffs, sched, ptilde, ptr)
    assert tilde_v(0.0, s, paper_coeffs, sched, ptilde, ptr) == pytest.approx(
        math.log(s.M * s.alpha0 * pr), abs=1e-12)


def test_nonc_energy_reduces_to_mdnc_for_single_user(paper_scenario, two_relay_point):
    sched, powers = two_relay_point
    s1 = dataclasses.replace(paper_scenario, M=1,
                             sigma_h=paper_scenario.sigma_h[:1], d_h=paper_scenario.d_h[:1],
                             n_h=paper_scenario.n_h[:1], N0_h=paper_scenario.N0_h[:1])
    p1 = PowerAllocation(p=[4.0], p_relay=powers.p_relay)
    a = total_energy(s1, sched, p1)
    b = total_energy(s1, sched, p1, "nonc")
    assert a == b


def test_nonc_energy_scales_second_hop(paper_scenario, two_relay_point):
    s = paper_scenario
    sched, powers = two_relay_point
    mdnc = total_energy(s, sched, powers)
    nonc = total_energy(s, sched, powers, "nonc")
    assert nonc.e_bs2 == pytest.approx(s.M * mdnc.e_bs2, rel=1e-15)
    assert nonc.e_s == mdnc.e_s
    assert nonc.e_r1 == mdnc.e_r1
    T, n = s.T, 2
    assert nonc.e_r2 == pytest.approx(
        n * 56.0 * s.M * T + 2.6 * 40.0 * s.M * T + (n - 1) * 39.0 * 0.1 * T, rel=1e-14)
    assert nonc.e_data == pytest.approx(mdnc.e_s + 2.6 * 40.0 * s.M * T, rel=1e-14)


@pytest.mark.parametrize("scheme", ["mdnc", "nonc"])
@pytest.mark.parametrize("include_user_energy", [False, True])
def test_energy_breakdown_matches_linear_model(paper_scenario, paper_coeffs, scheme,
                                               include_user_energy):
    # the per-phase breakdown sums to the linear form the solvers use,
    # T*sum(p) + m*delta_P*T*sum(p') + gamma*n + delta0, and the budget
    # check agrees with the primal's budget constraint, whose cap is E0
    # plus a constant; half of E0 makes the check come out both ways
    s = paper_scenario
    gamma, delta0, m, _ = scheme_constants(s, scheme)
    rng = np.random.default_rng(17)
    seen = set()
    for n in range(1, s.N + 1):
        sched = RelaySchedule.from_indices(rng.choice(s.N, n, replace=False).tolist(), s.N)
        pp = assemble_primal(s, paper_coeffs, sched, 0.0, target=1e-3, scheme=scheme,
                             include_user_energy=include_user_energy)
        for _ in range(20):
            x = rng.uniform(pp.lo, pp.hi)
            powers = pp.powers(x)
            e = total_energy(s, sched, powers, scheme)
            linear = (s.T * np.sum(powers.p) + m * s.delta_P * s.T * np.sum(powers.p_relay)
                      + gamma * n + delta0)
            assert e.e_tot == pytest.approx(linear, rel=1e-12)
            for E0 in (s.E0, s.E0 / 2):
                slack = pp.budget_cap - s.E0 + E0 - pp.budget_pos.value(x)
                if abs(slack) > 1e-9 * E0:
                    ok = energy_budget_ok(e, E0, include_user_energy)
                    assert ok == (slack > 0)
                    seen.add(ok)
    assert seen == {False, True}
