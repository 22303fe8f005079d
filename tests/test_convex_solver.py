import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import log_gradient, outage_approx_power, term_matrix_verdict, value_grad
from mdncee import convex_solver
from mdncee.convex_solver import _barrier_minimize, assemble_primal, solve_primal
from mdncee.energy import scheme_constants
from mdncee.model import build_link_coefficients
from mdncee.outage import RelaySchedule, powers_from_log
from mdncee.posynomial import Posynomial
from test_properties import _random_small_scenario


@pytest.fixture(scope="module")
def primal(paper_scenario, paper_coeffs):
    sched = RelaySchedule.from_indices([0, 1, 2], 4)
    return assemble_primal(paper_scenario, paper_coeffs, sched, target=1e-3)


Q = 1300.0   # the q the primal fixture is solved at


def interior_points(pp, count, seed):
    rng = np.random.default_rng(seed)
    span = pp.hi - pp.lo
    return [rng.uniform(pp.lo + 0.05 * span, pp.hi - 0.05 * span) for _ in range(count)]


def outage_gradients(pp, x):
    """One gradient row per outage constraint."""
    return np.vstack([value_grad(pos, x)[1] for pos in pp.outage_pos])


def test_gradients_match_central_differences(primal):
    pp = primal
    h = 1e-6
    vprime = pp.vprime(Q)
    for x in interior_points(pp, 25, 7):
        gtv, gg = log_gradient(vprime, x), outage_gradients(pp, x)
        fd_tv = np.zeros(pp.dim)
        fd_g = np.zeros(pp.dim)
        for k in range(pp.dim):
            e = np.zeros(pp.dim)
            e[k] = h
            fd_tv[k] = (vprime.logvalue(x + e) - vprime.logvalue(x - e)) / (2 * h)
            fd_g[k] = (pp.outage_pos[0].value(x + e) - pp.outage_pos[0].value(x - e)) / (2 * h)
        assert np.linalg.norm(fd_tv - gtv) <= 1e-5 * np.linalg.norm(gtv)
        assert np.linalg.norm(fd_g - gg[0]) <= 1e-5 * np.linalg.norm(gg[0])


def test_gradient_zero_on_unselected_relay(paper_scenario, paper_coeffs):
    # variables of unselected relays are eliminated: the gradient vector has
    # exactly M + count entries, nothing for the relay that is off
    sched = RelaySchedule.from_indices([0, 3], 4)
    pp = assemble_primal(paper_scenario, paper_coeffs, sched, target=1e-2)
    x = 0.5 * (pp.lo + pp.hi)
    gtv, gg = log_gradient(pp.vprime(900.0), x), outage_gradients(pp, x)
    assert gtv.shape == (paper_scenario.M + 2,)
    assert gg.shape == (1, paper_scenario.M + 2)


def test_gradient_of_outage_nonpositive_at_max_power(primal):
    pp = primal
    gg = outage_gradients(pp, pp.hi)
    assert np.all(gg[0] <= 0)


def test_solver_reaches_kkt_tolerance(primal):
    sol = solve_primal(primal, Q)
    assert sol.converged
    assert sol.kkt_residual <= 1e-7
    assert np.all(sol.x >= primal.lo) and np.all(sol.x <= primal.hi)
    assert np.all(sol.powers.p <= primal.s.P_S_max + 1e-9)
    assert np.all(sol.powers.p_relay <= primal.s.P_R_max + 1e-9)
    # the outage cap is active at the optimum for a binding target
    assert sol.outage_approx[0] == pytest.approx(1e-3, rel=1e-4)


@pytest.mark.parametrize("scheme", ["mdnc", "nonc"])
def test_every_paper_primal_reaches_kkt_tolerance(paper_scenario, paper_coeffs, monkeypatch,
                                                  scheme):
    # every primal that dinkelbach_solve runs on paper.cfg at 1e-2..1e-5 to
    # the end ends stationary: the last stage's full Newton step moves it
    # off the round-off floor that the line search alone stops at; a primal
    # stopped at its cutoff has a duality bound at or above that cutoff
    from mdncee import optimizer

    solutions = []

    def recorded(pp, q, cutoff=None):
        solutions.append((solve_primal(pp, q, cutoff=cutoff), cutoff))
        return solutions[-1][0]

    monkeypatch.setattr(optimizer, "solve_primal", recorded)
    for target in (1e-2, 1e-3, 1e-4, 1e-5):
        optimizer.dinkelbach_solve(paper_scenario, paper_coeffs, target, scheme=scheme)
    ran = [sol for sol, _ in solutions if sol.lower_bound is None]
    stopped = [(sol, cutoff) for sol, cutoff in solutions if sol.lower_bound is not None]
    assert len(ran) >= 4 and stopped
    for sol in ran:
        assert sol.converged
        assert sol.kkt_residual <= 1e-6
    for sol, cutoff in stopped:
        assert sol.lower_bound >= cutoff


@pytest.mark.parametrize("scheme, relays, q", [("mdnc", [0, 1, 2], 1300.0),
                                               ("nonc", [0, 2], 1500.0)])
def test_answer_does_not_depend_on_intermediate_centering(paper_scenario, paper_coeffs,
                                                          monkeypatch, scheme, relays, q):
    # loose early stages reach the same final point as stages centered to
    # NEWTON_TOL, in at most 0.6 times the Newton steps
    pp = assemble_primal(paper_scenario, paper_coeffs, RelaySchedule.from_indices(relays, 4),
                         target=1e-3, scheme=scheme)
    default = solve_primal(pp, q)
    monkeypatch.setattr(convex_solver, "CENTERING_TOL", convex_solver.NEWTON_TOL)
    tight = solve_primal(pp, q)
    assert default.converged and tight.converged
    assert default.x == pytest.approx(tight.x, rel=1e-10)
    assert default.tilde_v == pytest.approx(tight.tilde_v, rel=1e-12)
    assert default.newton_iterations <= 0.6 * tight.newton_iterations


def test_solver_deterministic(primal):
    a = solve_primal(primal, Q)
    b = solve_primal(primal, Q)
    assert np.array_equal(a.x, b.x)
    assert a.tilde_v == b.tilde_v
    assert a.newton_iterations == b.newton_iterations


def test_loose_target_interior_stationarity(paper_scenario, paper_coeffs):
    sched = RelaySchedule.from_indices([0, 1, 2], 4)
    pp = assemble_primal(paper_scenario, paper_coeffs, sched, target=0.9999)
    sol = solve_primal(pp, 1300.0)
    assert np.linalg.norm(log_gradient(pp.vprime(1300.0), sol.x)) <= 1e-7


def test_tightening_target_raises_optimum(paper_scenario, paper_coeffs):
    sched = RelaySchedule.from_indices([0, 1, 2], 4)
    values = []
    for target in (1e-3, 3e-4, 1e-4, 3e-5, 1e-5):
        pp = assemble_primal(paper_scenario, paper_coeffs, sched, target=target)
        values.append(solve_primal(pp, 1300.0).tilde_v)
    assert values == sorted(values)


def test_toy_matches_dense_grid(toy_scenario, toy_coeffs):
    sched = RelaySchedule.from_indices([0], 1)
    pp = assemble_primal(toy_scenario, toy_coeffs, sched, target=1e-3)
    sol = solve_primal(pp, 3000.0)
    vprime = pp.vprime(3000.0)
    grid = np.linspace(0.0, 1.0, 401)
    best = np.inf
    for a in grid:
        x0 = pp.lo[0] + a * (pp.hi[0] - pp.lo[0])
        for b in grid:
            x1 = pp.lo[1] + b * (pp.hi[1] - pp.lo[1])
            x = np.array([x0, x1])
            if pp.outage_pos[0].value(x) <= 1e-3 and pp.budget_pos.value(x) <= pp.budget_cap:
                best = min(best, vprime.logvalue(x))
    assert sol.tilde_v <= best + 1e-4 * abs(best)
    assert sol.tilde_v == pytest.approx(best, rel=1e-4)


def test_infeasible_marker_below_relay_minimum(paper_scenario, paper_coeffs):
    sched = RelaySchedule.from_indices([2], 4)   # 1 < M = 2 relays
    pp = assemble_primal(paper_scenario, paper_coeffs, sched, target=1e-3)
    assert not pp.feasible
    assert "relays" in pp.infeasible_reason


def _seeded_subsets(user_energy):
    """(scenario, coefficients, schedule, target) for every subset of two
    seeded random scenarios, (M, N) = (3, 6) and (2, 7), the targets 1e-2
    to 1e-6 taken in turn."""
    from itertools import combinations

    targets = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    for M, N in ((3, 6), (2, 7)):
        s = dataclasses.replace(_random_small_scenario(np.random.default_rng([25, N, M]), M, N),
                                user_energy_in_budget=user_energy)
        coeffs = build_link_coefficients(s)
        subsets = [c for k in range(1, N + 1) for c in combinations(range(N), k)]
        for i, subset in enumerate(subsets):
            yield s, coeffs, RelaySchedule.from_indices(subset, N), targets[i % len(targets)]


def _budget_binds(pp):
    return pp.max_slack_point is not None and pp.budget_pos.value(pp.hi) > pp.budget_cap


@pytest.mark.parametrize("user_energy", [False, True], ids=["relays", "users+relays"])
@pytest.mark.parametrize("scheme", ["mdnc", "nonc"])
def test_corner_screen_keeps_the_term_matrix_verdict(scheme, user_energy):
    # every subset of seeded random scenarios: assemble_primal, which reads
    # the outage at its anchor by the counting recursion alone, gives the
    # term-matrix oracle's verdict, reason text and anchor; at the
    # max-power corner the recursion equals the term matrix and, for MDNC,
    # the subset-sum oracle
    seen = {"feasible": 0, "refuted": 0, "budget binds": 0}
    for s, coeffs, sched, target in _seeded_subsets(user_energy):
        pp = assemble_primal(s, coeffs, sched, target, scheme)
        feasible, reason, anchor = term_matrix_verdict(s, coeffs, sched, target, scheme)
        assert (pp.feasible, pp.infeasible_reason) == (feasible, reason), sched.theta
        assert (pp.max_slack_point is None) == (anchor is None)
        if anchor is None:
            continue
        assert np.array_equal(pp.max_slack_point, anchor), sched.theta
        seen["feasible" if feasible else "refuted"] += 1
        seen["budget binds"] += _budget_binds(pp)
        corner = pp.outage_at(pp.hi)
        terms = [pos.value(pp.hi)
                 for pos in convex_solver.outage_posynomials(coeffs, sched.theta, s.M, scheme)]
        assert corner == pytest.approx(terms, rel=1e-13, abs=0.0)
        if scheme == "mdnc":
            full = np.zeros(s.N)
            full[list(sched.theta)] = pp.hi[s.M:]
            powers = powers_from_log(coeffs, sched, pp.hi[:s.M], full)
            assert corner[0] == pytest.approx(outage_approx_power(coeffs, sched, powers),
                                              rel=1e-12)
    assert seen["feasible"] > 20 and seen["refuted"] > 20
    assert seen["budget binds"] > 0


@pytest.mark.parametrize("user_energy", [False, True], ids=["relays", "users+relays"])
@pytest.mark.parametrize("scheme", ["mdnc", "nonc"])
def test_term_matrices_are_built_only_where_a_barrier_runs(monkeypatch, scheme, user_energy):
    # on the same subsets: assemble_primal builds an outage term matrix only
    # for the max-slack barrier of a binding budget; a feasible problem
    # builds it on its first solve_primal, whose reported outage, read by
    # the recursion, equals the term matrix at the solve's point; an
    # infeasible problem never builds it, and its vprime still evaluates
    builds = []
    for name in ("outage_posynomial", "nonc_outage_posynomials"):
        def counting(*args, real=getattr(convex_solver, name)):
            builds.append(args)
            return real(*args)
        monkeypatch.setattr(convex_solver, name, counting)
    seen = {"solved": 0, "refuted": 0, "budget binds": 0}
    for s, coeffs, sched, target in _seeded_subsets(user_energy):
        del builds[:]
        pp = assemble_primal(s, coeffs, sched, target, scheme)
        binds = _budget_binds(pp)
        seen["budget binds"] += binds
        assert len(builds) == binds, sched.theta
        if not pp.feasible:
            seen["refuted"] += 1
            pp.outage_at(pp.hi)
            assert len(builds) == binds
            # outage_pos is built on its first read, here by vprime
            assert pp.vprime(1e3).value(pp.hi) > 0.0
            assert len(builds) == 1
            continue
        seen["solved"] += 1
        sol = solve_primal(pp, 1e3)
        assert len(builds) == 1, sched.theta
        terms = [pos.value(sol.x) for pos in pp.outage_pos]
        assert sol.outage_approx == pytest.approx(terms, rel=1e-13, abs=0.0)
    assert seen["solved"] > 20 and seen["refuted"] > 20
    assert seen["budget binds"] > 0


def test_infeasible_marker_unreachable_target(paper_scenario, paper_coeffs):
    sched = RelaySchedule.from_indices([0, 2], 4)
    pp = assemble_primal(paper_scenario, paper_coeffs, sched, target=1e-6)
    assert not pp.feasible
    assert pp.max_slack_point is not None
    with pytest.raises(ValueError):
        solve_primal(pp, 1000.0)


@pytest.mark.parametrize("include_user_energy", [False, True])
@pytest.mark.parametrize("scheme", ["mdnc", "nonc"])
def test_infeasible_marker_circuit_energy_over_budget(paper_scenario, paper_coeffs, scheme,
                                                      include_user_energy):
    # the circuit energy gamma*n + delta0 of three relays alone overspends E0
    gamma, delta0, _, _ = scheme_constants(paper_scenario, scheme)
    s = dataclasses.replace(paper_scenario, E0=gamma * 3 + delta0 - 1.0,
                            user_energy_in_budget=include_user_energy)
    pp = assemble_primal(s, paper_coeffs, RelaySchedule.from_indices([0, 1, 2], 4),
                         target=1e-2, scheme=scheme)
    assert not pp.feasible
    assert "energy budget" in pp.infeasible_reason


def test_max_slack_start_lowers_user_powers_under_counted_user_energy(paper_scenario,
                                                                       paper_coeffs):
    # 1 mJ above the circuit energy: the users at the box midpoint already
    # overspend it, so the start point must lower the user powers as well
    gamma, delta0, _, _ = scheme_constants(paper_scenario, "mdnc")
    s = dataclasses.replace(paper_scenario, E0=gamma * 3 + delta0 + 1e-3,
                            user_energy_in_budget=True)
    pp = assemble_primal(s, paper_coeffs, RelaySchedule.from_indices([0, 1, 2], 4),
                         target=1e-2)
    assert pp.budget_pos.value(pp.max_slack_point) < pp.budget_cap


def test_always_feasible_at_vacuous_target(paper_scenario, paper_coeffs):
    sched = RelaySchedule.from_indices([0, 2], 4)
    pp = assemble_primal(paper_scenario, paper_coeffs, sched, target=0.999999)
    assert pp.feasible


def test_nonc_primal_per_user_caps(paper_scenario, paper_coeffs):
    sched = RelaySchedule.from_indices([0, 2], 4)
    pp = assemble_primal(paper_scenario, paper_coeffs, sched, target=1e-3, scheme="nonc")
    assert len(pp.outage_pos) == paper_scenario.M
    sol = solve_primal(pp, 1500.0)
    assert np.all(sol.outage_approx <= 1e-3 * (1 + 1e-9))


def test_line_search_failure_is_flagged(monkeypatch):
    # the barrier admits x0 alone, so every backtracking trial is
    # rejected: the stage must end unconverged, not pass as converged
    x0 = np.array([0.3])
    interior_value = convex_solver._BarrierStack.value
    monkeypatch.setattr(convex_solver._BarrierStack, "value",
                        lambda self, x: interior_value(self, x) if np.array_equal(x, x0) else None)
    objective = Posynomial([1.0, 1.0], [[1.0], [-1.0]])
    x, newton, _, exhausted, _, _ = _barrier_minimize(
        objective, [], [], lo=[-1.0], hi=[1.0], starts=[x0])
    assert newton == 0
    assert np.array_equal(x, x0)
    assert exhausted


def barrier_stack(pp, q):
    """The stacked barrier problem that solve_primal minimizes at q."""
    return convex_solver._BarrierStack(
        pp.vprime(q), [(pos, np.log(pp.target)) for pos in pp.outage_pos],
        [(pp.budget_pos, pp.budget_cap)], pp.lo, pp.hi)


@pytest.mark.parametrize("t", [1.0, 1e4])
@pytest.mark.parametrize("scheme", ["mdnc", "nonc"])
def test_barrier_merit_derivatives_match_central_differences(paper_scenario, paper_coeffs,
                                                             scheme, t):
    # the Newton step uses t*(log V')'' + barrier'' from the stacked kernel;
    # check that merit's gradient and Hessian against its own values
    pp = assemble_primal(paper_scenario, paper_coeffs, RelaySchedule.from_indices([0, 1, 2], 4),
                         target=1e-3, scheme=scheme)
    stack = barrier_stack(pp, 1300.0)

    def merit(x):
        fv, bv = stack.value(x)
        return t * fv + bv

    def merit_grad(x):
        (_, fg, _), (_, bg, _) = stack.derivatives(x)
        return t * fg + bg

    # points between the optimum and the box midpoint pulled toward the
    # max-slack point, both strictly feasible, so all of them are
    start = 0.5 * (pp.lo + pp.hi)
    while stack.value(start) is None:
        start = 0.5 * (start + pp.max_slack_point)
    x_opt = solve_primal(pp, 1300.0).x
    points = [x_opt + a * (start - x_opt) for a in np.linspace(0.05, 0.95, 8)]
    for x in points:
        (fv, fg, fh), (bv, bg, bh) = stack.derivatives(x)
        assert (fv, bv) == stack.value(x)
        grad, hess = t * fg + bg, t * fh + bh
        # a wider step for the merit's values, which reach 1e5 at t = 1e4
        fd_grad = np.array([(merit(x + e) - merit(x - e)) / 2e-4 for e in 1e-4 * np.eye(pp.dim)])
        fd_hess = np.array([(merit_grad(x + e) - merit_grad(x - e)) / 2e-6
                            for e in 1e-6 * np.eye(pp.dim)])
        # round-off of the differences scales with the merit's two terms, not
        # with their sum, which is near zero close to the optimum
        grad_scale = t * np.linalg.norm(fg) + np.linalg.norm(bg)
        hess_scale = t * np.linalg.norm(fh) + np.linalg.norm(bh)
        assert np.linalg.norm(fd_grad - grad) <= 1e-6 * grad_scale
        assert np.linalg.norm(fd_hess - hess) <= 1e-6 * hess_scale


@pytest.mark.parametrize("scheme", ["mdnc", "nonc"])
@pytest.mark.parametrize("include_user_energy", [False, True])
def test_primal_energy_model_matches_master_at_all_relays(paper_scenario, paper_coeffs, scheme,
                                                          include_user_energy):
    # the primal and the master read one log_power_model: at the all-relay
    # schedule, a cut anchored at x has an objective row at q that is V' and
    # its gradient there (u = 1 adds the circuit energy), and a budget row
    # that is the primal's budget slack and its gradient
    from conftest import master_for
    from mdncee.optimizer import build_oa_cuts

    s = dataclasses.replace(paper_scenario, user_energy_in_budget=include_user_energy)
    full = RelaySchedule.from_indices(range(s.N), s.N)
    dim = s.M + s.N
    ones = np.ones(s.N)
    rng = np.random.default_rng(41)
    m = master_for(s, paper_coeffs, 1e-3, scheme)
    for q in (0.0, 350.0, 1300.0):
        pp = assemble_primal(s, paper_coeffs, full, target=1e-3, scheme=scheme)
        for x in interior_points(pp, 10, int(rng.integers(1 << 30))):
            # build_oa_cuts reads only the solution's point
            A, b = build_oa_cuts(pp, SimpleNamespace(x=x), m).at(q)
            v, g = value_grad(pp.vprime(q), x)
            assert A[0, :dim] @ x + A[0, dim:dim + s.N] @ ones - b[0] == pytest.approx(v, rel=1e-13)
            assert A[0, :dim] == pytest.approx(g, rel=1e-13, abs=1e-13 * v)
            bv, bg = value_grad(pp.budget_pos, x)
            assert A[-1, :dim] @ x + A[-1, dim:dim + s.N] @ ones - b[-1] == pytest.approx(
                bv - pp.budget_cap, rel=1e-12, abs=1e-12 * s.E0)
            assert A[-1, :dim] == pytest.approx(bg, rel=1e-13)
