"""Cross-module property tests tied to stated invariants."""

import dataclasses

import numpy as np

from conftest import SCENARIO_PATH
from oracles import outage_approx_power
from mdncee import cli
from mdncee.energy import tilde_v
from mdncee.model import ScenarioConfig, build_link_coefficients
from mdncee.optimizer import dinkelbach_fixed_schedule, dinkelbach_solve
from mdncee.outage import PowerAllocation, RelaySchedule, outage_exact
from mdncee.simulate import brute_force_optimize


def test_tilde_v_argument_always_positive(paper_scenario, paper_coeffs):
    # the shifted objective must stay positive for any q >= 0 and any
    # admissible log-domain point (otherwise the log would fault)
    rng = np.random.default_rng(77)
    sched = RelaySchedule.from_indices([0, 1, 3], 4)
    for _ in range(200):
        ptilde = rng.uniform(np.log(1e-6), np.log(10.0), 2)
        ptr = rng.uniform(0.0, 8.0, 3)
        q = float(rng.uniform(0.0, 1e5))
        value = tilde_v(q, paper_scenario, paper_coeffs, sched, ptilde, ptr)
        assert np.isfinite(value)


def test_approximation_band_on_operating_domain(paper_scenario, paper_coeffs):
    # measured validity domain of the 15% tightness band: optimizer
    # solutions and their upward power scalings (the high-SNR regime the
    # approximation is built for); see the decisions ledger for the
    # low-power corner where the uniform band does not hold
    points = []
    for target in (1e-2, 3e-3, 1e-3, 1e-4, 1e-5):
        sol = dinkelbach_solve(paper_scenario, paper_coeffs, target)
        assert sol.feasible
        points.append((sol.schedule, sol.powers))
        for scale in (1.5, 3.0):
            points.append((sol.schedule,
                           PowerAllocation(p=np.asarray(sol.powers.p) * scale,
                                           p_relay=np.asarray(sol.powers.p_relay) * scale)))
    checked = 0
    for sched, powers in points:
        exact = outage_exact(paper_scenario, paper_coeffs, sched, powers).total
        approx = outage_approx_power(paper_coeffs, sched, powers)
        assert approx >= 0.0
        if exact <= 1e-2:
            assert abs(approx - exact) / exact <= 0.15
            checked += 1
    assert checked >= 10


def _random_small_scenario(rng, M=None, N=None) -> ScenarioConfig:
    M = int(rng.integers(1, 3)) if M is None else M
    N = int(rng.integers(M, 5)) if N is None else N
    return ScenarioConfig(
        M=M, N=N,
        sigma_h=rng.uniform(0.5, 8.0, (M, N)), d_h=rng.uniform(200.0, 1200.0, (M, N)),
        n_h=rng.uniform(2.2, 3.2, (M, N)), N0_h=rng.uniform(0.01, 0.6, (M, N)) * 1e-14,
        sigma_g=rng.uniform(0.5, 8.0, N), d_g=rng.uniform(200.0, 1200.0, N),
        n_g=rng.uniform(2.2, 3.2, N), N0_g=rng.uniform(0.01, 0.6, N) * 1e-14,
        alpha0=300e3, B=125e3, T=125.0 / 300.0, beta=0.1,
        P_S_max=10.0, P_R_max=20.0, P0_R=56.0, P_sleep_R=39.0,
        P0_BS=130.0, P_sleep_BS=75.0, delta_P=2.6, E0=900.0, pr_out_target=1e-3,
    )


def test_goa_at_least_as_good_as_brute_on_random_scenarios():
    rng = np.random.default_rng(123)
    solved = 0
    attempts = 0
    while solved < 3 and attempts < 12:
        attempts += 1
        s = _random_small_scenario(rng)
        coeffs = build_link_coefficients(s)
        target = float(rng.choice([1e-2, 1e-3, 1e-4]))
        brute = brute_force_optimize(s, coeffs, target)
        if not brute.feasible:
            continue
        goa = dinkelbach_solve(s, coeffs, target)
        assert goa.feasible
        assert goa.ee >= brute.ee - 1e-3 * brute.ee
        solved += 1
    assert solved == 3


def test_fixed_schedule_data_energy_monotone_in_target(paper_scenario, paper_coeffs):
    sched = RelaySchedule.from_indices([0, 1, 2], 4)
    e_data = []
    for target in (3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5):
        sol = dinkelbach_fixed_schedule(paper_scenario, paper_coeffs, sched, target)
        e_data.append(sol.energy.e_data)
    assert e_data == sorted(e_data)


def test_parallel_sweep_matches_serial(tmp_path):
    argv = ["sweep", SCENARIO_PATH, "--targets", "1e-2,1e-3", "--out"]
    assert cli.main(argv + [str(tmp_path / "serial")]) == 0
    assert cli.main(argv + [str(tmp_path / "par"), "--jobs", "2"]) == 0
    assert ((tmp_path / "serial" / "sweep.csv").read_bytes()
            == (tmp_path / "par" / "sweep.csv").read_bytes())


def test_budget_switch_threads_through_solver(paper_scenario, paper_coeffs):
    # with user energy counted and a tight budget, the optimizer must keep
    # total grid draw + user draw within E0
    squeezed = dataclasses.replace(paper_scenario, E0=330.0)
    sol = dinkelbach_solve(squeezed, paper_coeffs, 1e-2, include_user_energy=True)
    assert sol.feasible
    e = sol.energy
    assert e.e_bs1 + e.e_bs2 + e.e_r1 + e.e_r2 + e.e_s <= 330.0 * (1 + 1e-9)
