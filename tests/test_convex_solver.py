import dataclasses

import numpy as np
import pytest

from mdncee.convex_solver import _barrier_minimize, assemble_primal, gradients, solve_primal
from mdncee.energy import scheme_constants
from mdncee.outage import RelaySchedule
from mdncee.posynomial import Posynomial


@pytest.fixture(scope="module")
def primal(paper_scenario, paper_coeffs):
    sched = RelaySchedule.from_indices([0, 1, 2], 4)
    return assemble_primal(paper_scenario, paper_coeffs, sched, q=1300.0, target=1e-3)


def interior_points(pp, count, seed):
    rng = np.random.default_rng(seed)
    span = pp.hi - pp.lo
    return [rng.uniform(pp.lo + 0.05 * span, pp.hi - 0.05 * span) for _ in range(count)]


def test_gradients_match_central_differences(primal):
    pp = primal
    h = 1e-6
    for x in interior_points(pp, 25, 7):
        gtv, gg = gradients(pp, x)
        fd_tv = np.zeros(pp.dim)
        fd_g = np.zeros(pp.dim)
        for k in range(pp.dim):
            e = np.zeros(pp.dim)
            e[k] = h
            fd_tv[k] = (pp.vprime.logvalue(x + e) - pp.vprime.logvalue(x - e)) / (2 * h)
            fd_g[k] = (pp.outage_pos[0].value(x + e) - pp.outage_pos[0].value(x - e)) / (2 * h)
        assert np.linalg.norm(fd_tv - gtv) <= 1e-5 * np.linalg.norm(gtv)
        assert np.linalg.norm(fd_g - gg[0]) <= 1e-5 * np.linalg.norm(gg[0])


def test_gradient_zero_on_unselected_relay(paper_scenario, paper_coeffs):
    # variables of unselected relays are eliminated: the gradient vector has
    # exactly M + count entries, nothing for the relay that is off
    sched = RelaySchedule.from_indices([0, 3], 4)
    pp = assemble_primal(paper_scenario, paper_coeffs, sched, q=900.0, target=1e-2)
    x = 0.5 * (pp.lo + pp.hi)
    gtv, gg = gradients(pp, x)
    assert gtv.shape == (paper_scenario.M + 2,)
    assert gg.shape == (1, paper_scenario.M + 2)


def test_gradient_of_outage_nonpositive_at_max_power(primal):
    pp = primal
    gtv, gg = gradients(pp, pp.hi)
    assert np.all(gg[0] <= 0)


def test_solver_reaches_kkt_tolerance(primal):
    sol = solve_primal(primal)
    assert sol.converged
    assert sol.kkt_residual <= 1e-7
    assert np.all(sol.x >= primal.lo) and np.all(sol.x <= primal.hi)
    assert np.all(sol.powers.p <= primal.s.P_S_max + 1e-9)
    assert np.all(sol.powers.p_relay <= primal.s.P_R_max + 1e-9)
    # the outage cap is active at the optimum for a binding target
    assert sol.outage_approx[0] == pytest.approx(1e-3, rel=1e-4)


def test_solver_deterministic(primal):
    a = solve_primal(primal)
    b = solve_primal(primal)
    assert np.array_equal(a.x, b.x)
    assert a.tilde_v == b.tilde_v
    assert a.newton_iterations == b.newton_iterations


def test_loose_target_interior_stationarity(paper_scenario, paper_coeffs):
    sched = RelaySchedule.from_indices([0, 1, 2], 4)
    pp = assemble_primal(paper_scenario, paper_coeffs, sched, q=1300.0, target=0.9999)
    sol = solve_primal(pp)
    assert np.linalg.norm(pp.vprime.log_parts(sol.x)[1]) <= 1e-7


def test_tightening_target_raises_optimum(paper_scenario, paper_coeffs):
    sched = RelaySchedule.from_indices([0, 1, 2], 4)
    values = []
    for target in (1e-3, 3e-4, 1e-4, 3e-5, 1e-5):
        pp = assemble_primal(paper_scenario, paper_coeffs, sched, q=1300.0, target=target)
        values.append(solve_primal(pp).tilde_v)
    assert values == sorted(values)


def test_toy_matches_dense_grid(toy_scenario, toy_coeffs):
    sched = RelaySchedule.from_indices([0], 1)
    pp = assemble_primal(toy_scenario, toy_coeffs, sched, q=3000.0, target=1e-3)
    sol = solve_primal(pp)
    grid = np.linspace(0.0, 1.0, 401)
    best = np.inf
    for a in grid:
        x0 = pp.lo[0] + a * (pp.hi[0] - pp.lo[0])
        for b in grid:
            x1 = pp.lo[1] + b * (pp.hi[1] - pp.lo[1])
            x = np.array([x0, x1])
            if pp.outage_pos[0].value(x) <= 1e-3 and pp.budget_pos.value(x) <= pp.budget_cap:
                best = min(best, pp.vprime.logvalue(x))
    assert sol.tilde_v <= best + 1e-4 * abs(best)
    assert sol.tilde_v == pytest.approx(best, rel=1e-4)


def test_infeasible_marker_below_relay_minimum(paper_scenario, paper_coeffs):
    sched = RelaySchedule.from_indices([2], 4)   # 1 < M = 2 relays
    pp = assemble_primal(paper_scenario, paper_coeffs, sched, q=1000.0, target=1e-3)
    assert not pp.feasible
    assert "relays" in pp.infeasible_reason


def test_infeasible_marker_unreachable_target(paper_scenario, paper_coeffs):
    sched = RelaySchedule.from_indices([0, 2], 4)
    pp = assemble_primal(paper_scenario, paper_coeffs, sched, q=1000.0, target=1e-6)
    assert not pp.feasible
    assert pp.max_slack_point is not None
    with pytest.raises(ValueError):
        solve_primal(pp)


@pytest.mark.parametrize("include_user_energy", [False, True])
@pytest.mark.parametrize("scheme", ["mdnc", "nonc"])
def test_infeasible_marker_circuit_energy_over_budget(paper_scenario, paper_coeffs, scheme,
                                                      include_user_energy):
    # the circuit energy gamma*n + delta0 of three relays alone overspends E0
    gamma, delta0, _, _ = scheme_constants(paper_scenario, scheme)
    s = dataclasses.replace(paper_scenario, E0=gamma * 3 + delta0 - 1.0)
    pp = assemble_primal(s, paper_coeffs, RelaySchedule.from_indices([0, 1, 2], 4), q=1000.0,
                         target=1e-2, scheme=scheme, include_user_energy=include_user_energy)
    assert not pp.feasible
    assert "energy budget" in pp.infeasible_reason
    assert np.array_equal(pp.max_slack_point, pp.hi)


def test_max_slack_start_lowers_user_powers_under_counted_user_energy(paper_scenario,
                                                                       paper_coeffs):
    # 1 mJ above the circuit energy: the users at the box midpoint already
    # overspend it, so the start point must lower the user powers as well
    gamma, delta0, _, _ = scheme_constants(paper_scenario, "mdnc")
    s = dataclasses.replace(paper_scenario, E0=gamma * 3 + delta0 + 1e-3)
    pp = assemble_primal(s, paper_coeffs, RelaySchedule.from_indices([0, 1, 2], 4), q=1000.0,
                         target=1e-2, include_user_energy=True)
    assert pp.budget_pos.value(pp.max_slack_point) < pp.budget_cap


def test_always_feasible_at_vacuous_target(paper_scenario, paper_coeffs):
    sched = RelaySchedule.from_indices([0, 2], 4)
    pp = assemble_primal(paper_scenario, paper_coeffs, sched, q=1000.0, target=0.999999)
    assert pp.feasible


def test_nonc_primal_per_user_caps(paper_scenario, paper_coeffs):
    sched = RelaySchedule.from_indices([0, 2], 4)
    pp = assemble_primal(paper_scenario, paper_coeffs, sched, q=1500.0, target=1e-3,
                         scheme="nonc")
    assert len(pp.outage_pos) == paper_scenario.M
    sol = solve_primal(pp)
    assert np.all(sol.outage_approx <= 1e-3 * (1 + 1e-9))


def test_line_search_failure_is_flagged():
    # the constraint admits x0 alone, so every backtracking trial is
    # rejected: the stage must end unconverged, not pass as converged
    x0 = np.array([0.3])

    def value(x):
        return -1.0 if np.array_equal(x, x0) else 1.0

    def parts(x):
        return value(x), np.zeros(1), np.zeros((1, 1))

    objective = Posynomial([1.0, 1.0], [[1.0], [-1.0]])
    x, newton, _, _, exhausted = _barrier_minimize(
        objective, [(value, parts, 0.0)], lo=[-1.0], hi=[1.0], x0=x0)
    assert newton == 0
    assert np.array_equal(x, x0)
    assert exhausted


@pytest.mark.parametrize("scheme", ["mdnc", "nonc"])
@pytest.mark.parametrize("include_user_energy", [False, True])
def test_primal_energy_model_matches_master_at_all_relays(paper_scenario, paper_coeffs, scheme,
                                                          include_user_energy):
    # the primal and the master share one energy model: at the all-relay
    # schedule V' is the master's obj_smooth plus q*(gamma*N + delta0), and
    # the budget constraints coincide
    from mdncee.optimizer import MasterModel

    s = paper_scenario
    full = RelaySchedule.from_indices(range(s.N), s.N)
    rng = np.random.default_rng(41)
    for q in (0.0, 350.0, 1300.0):
        pp = assemble_primal(s, paper_coeffs, full, q, target=1e-3, scheme=scheme,
                             include_user_energy=include_user_energy)
        m = MasterModel(s, paper_coeffs, scheme, q, pp.targets, include_user_energy)
        circuit = m.gamma * s.N + m.delta0
        for x in interior_points(pp, 10, int(rng.integers(1 << 30))):
            v, g, _ = pp.vprime.parts(x)
            mv, mg, _ = m.obj_smooth.parts(x)
            assert v == pytest.approx(mv + q * circuit, rel=1e-13)
            assert g == pytest.approx(mg, rel=1e-13, abs=1e-13 * v)
            b, bg, _ = pp.budget_pos.parts(x)
            mb, mbg, _ = m.budget_exp.parts(x)
            assert b - pp.budget_cap == pytest.approx(
                mb + circuit - s.E0 - m.budget_offset, rel=1e-12, abs=1e-12 * s.E0)
            assert bg == pytest.approx(mbg, rel=1e-13)
