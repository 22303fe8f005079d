import dataclasses
import math
from itertools import combinations

import numpy as np
import pytest

from mdncee.convex_solver import assemble_primal, outage_values, solve_primal
from mdncee.energy import scheme_constants
from mdncee.lp import solve_lp
from mdncee.optimizer import (
    GOA_REL_TOL,
    CountBounds,
    GoaState,
    MasterModel,
    _master_lp_rows,
    _no_good,
    build_oa_cuts,
    dinkelbach_fixed_schedule,
    dinkelbach_solve,
    dominance_pairs,
    exact_outage,
    fixed_schedule_value,
    goa_solve,
    nonc_solve,
    relay_count_bounds,
)
from mdncee.model import LinkCoefficients, build_link_coefficients
from mdncee.outage import PowerAllocation, RelaySchedule, outage_exact
from conftest import master_for
from oracles import closed_under_dominance, dominates, log_gradient
from test_properties import _random_small_scenario


def _pool_scenario(k):
    """bench/workloads.pool_scenario(k)."""
    s = _random_small_scenario(np.random.default_rng([1608, k]), M=2 + k % 2, N=6)
    return s, build_link_coefficients(s)


# -- relay-count bounds ------------------------------------------------------


def test_count_bounds_loose_target_collapses_to_minimum(paper_scenario, paper_coeffs):
    b = relay_count_bounds(paper_scenario, paper_coeffs, 0.999)
    assert b.low == paper_scenario.M
    assert b.up == 4


def test_count_bounds_reference_targets(paper_scenario, paper_coeffs):
    # transitions measured from the exact outage at maximum power:
    # best 2-subset floor 1.133e-3, best 3-subset floor 2.310e-6
    assert relay_count_bounds(paper_scenario, paper_coeffs, 1e-2).low == 2
    assert relay_count_bounds(paper_scenario, paper_coeffs, 1e-3).low == 3
    assert relay_count_bounds(paper_scenario, paper_coeffs, 1e-5).low == 3
    assert relay_count_bounds(paper_scenario, paper_coeffs, 1e-6).low == 4
    assert relay_count_bounds(paper_scenario, paper_coeffs, 1e-3).best_subset == (0, 1, 2)


def test_count_bounds_budget_cap(paper_scenario, paper_coeffs):
    squeezed = dataclasses.replace(paper_scenario, E0=450.0)
    b = relay_count_bounds(squeezed, paper_coeffs, 1e-2)
    assert b.up == 3
    starved = dataclasses.replace(paper_scenario, E0=450.0)
    b2 = relay_count_bounds(starved, paper_coeffs, 1e-6)   # needs 4 relays, budget caps at 3
    assert not b2.feasible


def test_nonc_count_window_scores_no_count_above_up(monkeypatch):
    # no NoNC schedule of at most up = 4 of these 20 relays meets 1e-40, so
    # the window scores the C(20, <= 4) subsets and stops there: scoring on
    # to the first count that meets the target would enumerate up to 2^20
    from mdncee import optimizer

    s = _random_small_scenario(np.random.default_rng([0, 20, 2]), M=2, N=20)
    requested = []
    real = optimizer.combinations

    def recording(pool, k):
        requested.append(k)
        return real(pool, k)

    monkeypatch.setattr(optimizer, "combinations", recording)
    b = relay_count_bounds(s, build_link_coefficients(s), 1e-40, "nonc")
    assert (b.low, b.up, b.feasible) == (None, 4, False)
    assert requested == [1, 2, 3, 4]


def test_circuit_energy_exactly_at_budget_gives_infeasible_solution(paper_scenario, paper_coeffs):
    # E0 = gamma*3 + delta0: no 3-relay schedule leaves strict budget slack,
    # so the count window is empty (3 relays needed, at most 2 fit) and the
    # solvers say so before any primal runs
    gamma, delta0, _, _ = scheme_constants(paper_scenario, "mdnc")
    s = dataclasses.replace(paper_scenario, E0=gamma * 3 + delta0)
    assert (relay_count_bounds(s, paper_coeffs, 1e-3).low,
            relay_count_bounds(s, paper_coeffs, 1e-3).up) == (3, 2)
    sol = dinkelbach_solve(s, paper_coeffs, 1e-3)
    assert not sol.feasible
    assert sol.reason == "no admissible relay count (low=3, up=2)"


def test_budget_just_above_circuit_energy_names_the_refuting_primal(paper_scenario, paper_coeffs):
    # E0 = gamma*3 + delta0 + 0.1: 3 relays fit, but only at powers too low
    # for the outage cap, so every cut refutes its schedule, the first master
    # runs at q = 0 with no objective row, and the reason quotes the primal
    gamma, delta0, _, _ = scheme_constants(paper_scenario, "mdnc")
    s = dataclasses.replace(paper_scenario, E0=gamma * 3 + delta0 + 0.1)
    assert relay_count_bounds(s, paper_coeffs, 1e-3).up == 3
    sol = dinkelbach_solve(s, paper_coeffs, 1e-3)
    assert not sol.feasible
    assert "master infeasible" in sol.reason
    assert "above target 1.000e-03 at maximum admissible power for schedule" in sol.reason


def test_nonc_schedule_feasible_for_its_worst_user_is_not_refuted(paper_scenario, paper_coeffs):
    # with user energy in a tight budget, the max-power corner overspends E0,
    # so the feasibility test runs at the budget's best point. Schedule (0,)
    # meets 6.4e-3 for both users there (worst ratio about 0.99), but the
    # point that minimizes the users' summed relative outage leaves the
    # second user at 6.47e-3
    from mdncee.simulate import brute_force_optimize

    s = dataclasses.replace(paper_scenario, E0=266.167, user_energy_in_budget=True)
    pp = assemble_primal(s, paper_coeffs, RelaySchedule.from_indices([0], 4),
                         target=6.4e-3, scheme="nonc")
    assert pp.budget_pos.value(pp.hi) > pp.budget_cap
    assert pp.feasible
    assert np.all(pp.outage_at(pp.max_slack_point) <= 6.4e-3)
    for solve in (dinkelbach_solve, brute_force_optimize):
        sol = solve(s, paper_coeffs, 6.4e-3, scheme="nonc")
        assert sol.feasible, solve.__name__
        assert sol.schedule.theta == (0,)
        assert sol.ee == pytest.approx(933.345, rel=1e-6)


def test_count_window_counts_user_energy_when_the_budget_does(paper_scenario, paper_coeffs):
    # half the users' minimum-power energy above gamma*3 + delta0: 3 relays
    # fit the relay-only budget but not the one that counts user energy
    from mdncee.model import P_MIN
    from mdncee.simulate import brute_force_optimize

    gamma, delta0, _, _ = scheme_constants(paper_scenario, "mdnc")
    s = paper_scenario
    s = dataclasses.replace(s, E0=gamma * 3 + delta0 + 0.5 * s.M * s.T * P_MIN)
    counted = dataclasses.replace(s, user_energy_in_budget=True)
    assert relay_count_bounds(s, paper_coeffs, 1e-3).up == 3
    assert relay_count_bounds(counted, paper_coeffs, 1e-3).up == 2
    for solve in (dinkelbach_solve, brute_force_optimize):
        sol = solve(counted, paper_coeffs, 1e-3)
        assert sol.reason == "no admissible relay count (low=3, up=2)", solve.__name__
    with pytest.raises(ValueError, match="no admissible relay count"):
        goa_solve(master_for(counted, paper_coeffs, 1e-3), 500.0)


def test_count_bounds_unreachable_target(paper_scenario, paper_coeffs):
    b = relay_count_bounds(paper_scenario, paper_coeffs, 1e-12)
    assert b.low is None and not b.feasible


def test_count_bounds_nonc_allows_single_relay(paper_scenario, paper_coeffs):
    b = relay_count_bounds(paper_scenario, paper_coeffs, 1e-2, scheme="nonc")
    assert b.low == 1


def _max_power_outage(s, coeffs, subset, scheme):
    """The worst outage of a subset at maximum power, on a schedule and an
    allocation of its own."""
    schedule = RelaySchedule.from_indices(subset, s.N)
    powers = PowerAllocation(p=np.full(s.M, s.P_S_max), p_relay=schedule.u * s.P_R_max)
    return float(np.max(exact_outage(s, coeffs, scheme, schedule, powers)))


def _assert_count_bounds_match_subset_enumeration(N, M, scheme):
    # oracle: the lexicographically first argmin of the exact max-power
    # outage over every k-subset, for the smallest k meeting the target; NoNC
    # scores no count above up, MDNC every count up to N
    for seed in range(3):
        s = _random_small_scenario(np.random.default_rng([N, M, seed]), M=M, N=N)
        coeffs = build_link_coefficients(s)
        for target in (1e-3, 1e-5):
            b = relay_count_bounds(s, coeffs, target, scheme)
            low = best_subset = None
            for k in range(M, N + 1) if scheme == "mdnc" else range(1, b.up + 1):
                merit, subset = min((_max_power_outage(s, coeffs, c, scheme) / target, c)
                                    for c in combinations(range(N), k))
                if merit <= 1.0:
                    low, best_subset = k, subset
                    break
            assert (b.low, b.best_subset) == (low, best_subset)


@pytest.mark.parametrize("N,M", [(5, 2), (5, 3), (8, 2), (8, 3)])
def test_mdnc_count_bounds_match_subset_enumeration(N, M):
    _assert_count_bounds_match_subset_enumeration(N, M, "mdnc")


@pytest.mark.parametrize("N,M", [(5, 2), (5, 3), (8, 2), (8, 3)])
def test_nonc_count_bounds_match_subset_enumeration(N, M):
    _assert_count_bounds_match_subset_enumeration(N, M, "nonc")


def _assert_count_lower_bound_is_tight(seed, M, scheme):
    s = _random_small_scenario(np.random.default_rng([14, seed]), M=M, N=14)
    coeffs = build_link_coefficients(s)
    for target in (1e-3, 1e-5):
        b = relay_count_bounds(s, coeffs, target, scheme)
        assert b.low is not None and len(b.best_subset) == b.low
        assert _max_power_outage(s, coeffs, b.best_subset, scheme) <= target
        assert all(_max_power_outage(s, coeffs, c, scheme) > target
                   for c in combinations(range(s.N), b.low - 1))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("M", [2, 3])
def test_mdnc_count_lower_bound_is_tight_beyond_brute_force_size(seed, M):
    _assert_count_lower_bound_is_tight(seed, M, "mdnc")


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("M", [2, 3])
def test_nonc_count_lower_bound_is_tight_beyond_brute_force_size(seed, M):
    _assert_count_lower_bound_is_tight(seed, M, "nonc")


# -- cuts --------------------------------------------------------------------


def _anchor_z(master, pp, x_sel, vhat=0.0):
    """z = [ptilde, ptilde', u, vhat] at a primal point of pp's schedule."""
    s = master.s
    x = np.zeros(master.dim)
    x[:s.M] = x_sel[:s.M]
    x[[s.M + j for j in pp.schedule.theta]] = x_sel[s.M:]
    return np.concatenate([x, pp.schedule.u, [vhat]])


def _vhat_floor(master, row, rhs, z):
    """The lower bound row <= rhs puts on vhat at z's (x, u), times v_scale."""
    return (row[:-1] @ z[:-1] - rhs) / -row[-1] * master.v_scale


@pytest.fixture(scope="module")
def anchor(paper_scenario, paper_coeffs):
    sched = RelaySchedule.from_indices([0, 1, 2], 4)
    pp = assemble_primal(paper_scenario, paper_coeffs, sched, target=1e-3)
    sol = solve_primal(pp, 1300.0)
    master = master_for(paper_scenario, paper_coeffs, 1e-3)
    return pp, sol, master, build_oa_cuts(pp, sol, master)


def test_cut_reproduces_anchor_value(anchor):
    pp, sol, master, cut = anchor
    A, b = cut.at(1300.0)
    # rows: objective, the one MDNC outage target, budget
    assert A.shape == (3, master.dim + master.s.N + 1)
    vprime_master = _vhat_floor(master, A[0], b[0], _anchor_z(master, pp, sol.x))
    # the master objective evaluates the full-relay-set outage, which sits a
    # hair above the selected-set form (extra first-hop failure factors of
    # the idle relays); the offset is positive and far below the bound gap
    assert vprime_master >= math.exp(sol.tilde_v)
    assert vprime_master == pytest.approx(math.exp(sol.tilde_v), rel=1e-3)


def test_cut_underestimates_objective_on_anchor_schedule(anchor):
    pp, sol, master, _ = anchor
    grad_tilde_v = log_gradient(pp.vprime(1300.0), sol.x)
    vprime = pp.vprime(1300.0)
    rng = np.random.default_rng(13)
    for _ in range(100):
        x = rng.uniform(pp.lo, pp.hi)
        cut_val = sol.tilde_v + grad_tilde_v @ (x - sol.x)
        assert cut_val <= vprime.logvalue(x) + 1e-9


def _check_objective_row_underestimates_vprime(master, cut, q):
    """At random (x, u), the cut's objective row formed at q stays below V' at q."""
    A, b = cut.at(q)
    rng = np.random.default_rng(14)
    for _ in range(100):
        # random schedule within count bounds and a random admissible point
        count = int(rng.integers(2, 5))
        subset = tuple(sorted(rng.choice(4, size=count, replace=False).tolist()))
        x = np.zeros(master.dim)
        x[:2] = rng.uniform(np.log(1e-6), np.log(10.0), 2)
        for j in subset:
            x[2 + j] = rng.uniform(master.lo[2 + j], master.hi[2 + j])
        outage = outage_values(master.coeffs, range(4), 2, master.scheme, x)
        vtrue = (master.obj_coef * sum(outage)
                 + q * (master.energy @ np.exp(x) + master.gamma * count + master.delta0))
        z = np.concatenate([x, RelaySchedule.from_indices(subset, 4).u, [0.0]])
        vcut = _vhat_floor(master, A[0], b[0], z)
        assert vcut <= vtrue + 1e-6 * abs(vtrue)


def test_master_objective_cut_underestimates_vprime(anchor):
    pp, sol, master, cut = anchor
    _check_objective_row_underestimates_vprime(master, cut, 1300.0)


@pytest.mark.parametrize("q", [0.0, 600.0, 2600.0])
def test_carried_objective_cut_underestimates_vprime_at_another_q(anchor, q):
    # the cut was built from a primal solved at q = 1300; formed at any other
    # q it still underestimates that q's V', which the carried pool relies on
    pp, sol, master, cut = anchor
    _check_objective_row_underestimates_vprime(master, cut, q)


def test_g_cut_inactive_at_slack_anchor(paper_scenario, paper_coeffs):
    sched = RelaySchedule.from_indices(range(4), 4)
    pp = assemble_primal(paper_scenario, paper_coeffs, sched, target=1e-2)
    sol = solve_primal(pp, 800.0)
    master = master_for(paper_scenario, paper_coeffs, 1e-2)
    A, b = build_oa_cuts(pp, sol, master).at(800.0)
    # row 1 is the outage row (row 0 the objective, row 2 the budget)
    assert A[1] @ _anchor_z(master, pp, sol.x) < b[1]


def test_refuted_schedule_appends_one_no_good_row(paper_scenario, paper_coeffs, monkeypatch):
    # the 2-relay subset (0, 2) cannot reach 1e-4 even at full power
    from mdncee import optimizer

    s = paper_scenario
    master = master_for(s, paper_coeffs, 1e-4)
    refuted = master.problem(RelaySchedule.from_indices([0, 2], 4))
    assert not refuted.feasible
    rows = []
    real_lp = optimizer.solve_lp

    def recording_lp(c, A, b, lb, ub, warm=None):
        rows.append((A.copy(), b.copy()))
        return real_lp(c, A, b, lb, ub, warm=warm)

    monkeypatch.setattr(optimizer, "solve_lp", recording_lp)
    state = goa_solve(master, 1000.0, warm=refuted)
    u0 = s.M + s.N

    def named(row):
        """The schedule a no-good row names, None for a cut row."""
        if np.any(row[:u0]) or row[-1] or not np.all(np.abs(row[u0:u0 + s.N]) == 1.0):
            return None
        return tuple(np.flatnonzero(row[u0:u0 + s.N] > 0).tolist())

    # the root LP holds the 4 + N fixed rows, one dominance row per pair
    # and then the refuted schedule's no-good row, which excludes it alone
    fixed = 4 + s.N + len(master.pairs)
    A, b = rows[0]
    assert A.shape[0] == fixed + 1
    assert named(A[fixed]) == (0, 2)
    assert master.refuted == [(0, 2)]
    for k in range(s.N + 1):
        for subset in combinations(range(s.N), k):
            u = RelaySchedule.from_indices(subset, s.N).u
            assert (A[fixed, u0:u0 + s.N] @ u <= b[fixed]) == (subset != (0, 2)), subset
    # each later visit appends its rows: one if refuted, else a cut block
    # (objective, outage, budget) and its no-good row
    by_size = {len(b): (A, b) for A, b in rows}
    sizes = sorted(by_size)
    steps = []
    for before, after in zip(sizes, sizes[1:]):
        names = [named(row) for row in by_size[after][0][before:after]]
        theta = names[-1]
        solved = theta not in master.refuted
        assert names == [None] * 3 * solved + [theta]
        assert theta in state.visited
        steps.append((theta, after - before))
    # here the tree solves (0, 1, 2), the only 3-relay schedule closed
    # under paper.cfg's pairs, and then the master has no schedule left
    assert steps == [((0, 1, 2), 4)]
    assert state.visited == [(0, 2), (0, 1, 2)]
    # a later tree on the same master keeps the row and never visits (0, 2)
    later = goa_solve(master, 1200.0)
    _, A2, b2, _, _ = _master_lp_rows(later)
    A, b = rows[0]
    assert any(np.array_equal(r, A[fixed]) and rhs == b[fixed] for r, rhs in zip(A2, b2))
    assert (0, 2) not in later.visited


# -- master problem ----------------------------------------------------------


def _assert_no_better_than_its_swap(state, subset):
    """A schedule that is not closed under dominance, checked directly: a
    swap along one pair gives a schedule the oracle says dominates it, and
    its own primal at the state's q is infeasible or reaches that
    schedule's value."""
    master = state.master
    a, b = next((a, b) for a, b in master.pairs if b in subset and a not in subset)
    theta = tuple(sorted({*subset} - {b} | {a}))
    assert dominates(master.coeffs, theta, subset) is not None, (theta, subset)
    pp = master.problem(RelaySchedule.from_indices(subset, master.s.N))
    if not pp.feasible:
        return
    better = master.problem(RelaySchedule.from_indices(theta, master.s.N))
    assert better.feasible, (theta, subset)
    best = solve_primal(better, state.q).tilde_v
    value = solve_primal(pp, state.q).tilde_v
    assert value >= best - GOA_REL_TOL * (1 + abs(best)), (theta, subset)


def _assert_tree_certifies_by_enumeration(state):
    """An exhausted tree is a certificate: over the final master rows, every
    admissible schedule the state did not visit has a fixed-u LP that is
    infeasible or whose bound reaches vhat's cap. The dominance rows alone
    make it infeasible for a schedule not closed under dominance, which is
    checked against its swap directly."""
    assert state.converged
    assert state.termination == "master infeasible (no remaining schedule can improve)"
    c, A, b, lb, ub = _master_lp_rows(state)
    s = state.master.s
    u0 = s.M + s.N
    vcap = ub[-1]
    assert vcap == pytest.approx(math.exp(state.ubd - GOA_REL_TOL * (1 + abs(state.ubd)))
                                 / state.master.v_scale, rel=1e-15)
    ub[-1] = 1e9                        # lift the cap: each schedule's own bound is checked
    checked = 0
    for k in range(state.master.bounds.low, state.master.bounds.up + 1):
        for subset in combinations(range(s.N), k):
            if subset in state.visited:
                continue
            u = RelaySchedule.from_indices(subset, s.N).u
            lbn, ubn = lb.copy(), ub.copy()
            lbn[u0:u0 + s.N] = u
            ubn[u0:u0 + s.N] = u
            res = solve_lp(c, A, b, lbn, ubn)
            if not closed_under_dominance(state.master.coeffs, subset):
                assert res.status == "infeasible", subset
                _assert_no_better_than_its_swap(state, subset)
                continue
            assert res.status == "infeasible" or res.objective >= vcap * (1 - 1e-9), subset
            checked += 1
    assert checked > 0


def test_master_matches_exhaustive_enumeration(paper_scenario, paper_coeffs):
    _assert_tree_certifies_by_enumeration(
        goa_solve(master_for(paper_scenario, paper_coeffs, 1e-3), 1300.0))


def test_master_matches_exhaustive_enumeration_at_eight_relays():
    # the N = 8, M = 2 scenario that bench/workloads.random_scenario draws from seed [1, 8, 2],
    # at its first Dinkelbach q
    s = _random_small_scenario(np.random.default_rng([1, 8, 2]), M=2, N=8)
    coeffs = build_link_coefficients(s)
    state = goa_solve(master_for(s, coeffs, 1e-3), 1172.8)
    assert len(state.visited) > 10 and state.master.pairs
    _assert_tree_certifies_by_enumeration(state)


def test_tree_rows_equal_the_rebuilt_master_rows(monkeypatch):
    # _master_lp_rows(state) rebuilds the rows the tree ended with,
    # dominance rows included, in another order; in the first tree and in
    # a later one that starts from the carried pool
    from mdncee import optimizer

    s = _random_small_scenario(np.random.default_rng([1, 8, 3]), M=3, N=8)
    master = master_for(s, build_link_coefficients(s), 1e-3)
    last = []
    real_lp = optimizer.solve_lp

    def recording_lp(c, A, b, lb, ub, warm=None):
        last[:] = [A.copy(), b.copy()]
        return real_lp(c, A, b, lb, ub, warm=warm)

    def row_set(A, b):
        return sorted(np.append(row, rhs).tobytes() for row, rhs in zip(A, b))

    monkeypatch.setattr(optimizer, "solve_lp", recording_lp)
    for q in (1000.0, 1100.0):
        state = goa_solve(master, q)
        assert master.pairs
        _, A, b, _, _ = _master_lp_rows(state)
        assert len(b) == len(last[1])
        assert row_set(A, b) == row_set(*last)


def test_goa_never_revisits_and_bounds_monotone(paper_scenario, paper_coeffs):
    for target in (1e-2, 1e-3, 1e-4):
        state = goa_solve(master_for(paper_scenario, paper_coeffs, target), 1200.0)
        assert len(set(state.visited)) == len(state.visited)
        ubd = state.ubd_history
        assert all(b <= a + 1e-12 for a, b in zip(ubd, ubd[1:]))
        lbd = state.lbd_history
        assert all(b >= a - 1e-12 for a, b in zip(lbd, lbd[1:]))
        if state.lbd_history and math.isfinite(state.ubd):
            assert state.lbd <= state.ubd + GOA_REL_TOL * (1 + abs(state.ubd))


def test_goa_single_admissible_schedule_terminates_immediately(toy_scenario, toy_coeffs):
    state = goa_solve(master_for(toy_scenario, toy_coeffs, 1e-2), 100.0)
    assert state.incumbent is not None
    assert len(state.visited) == 1
    assert state.visited == [(0,)]


def test_goa_matches_brute_force_at_reference_target(paper_scenario, paper_coeffs):
    target = 1e-3
    sol = dinkelbach_solve(paper_scenario, paper_coeffs, target)
    best = None
    for k in range(2, 5):
        for subset in combinations(range(4), k):
            r = dinkelbach_fixed_schedule(assemble_primal(
                paper_scenario, paper_coeffs, RelaySchedule.from_indices(subset, 4), target))
            if r is not None and (best is None or r.q_star > best.q_star):
                best = r
    assert sol.schedule.theta == best.schedule.theta
    assert sol.ee == pytest.approx(best.ee, rel=1e-3)


# -- parametric outer loop ---------------------------------------------------


def test_dinkelbach_converges_with_monotone_q(paper_scenario, paper_coeffs):
    sol = dinkelbach_solve(paper_scenario, paper_coeffs, 1e-3)
    qs = sol.diagnostics["q_history"]
    assert all(b >= a for a, b in zip(qs, qs[1:]))
    assert abs(sol.diagnostics["v_history"][-1]) <= 1e-6 * paper_scenario.M * paper_scenario.alpha0
    assert sol.pr_out_exact <= 1e-3 * 1.01
    assert sol.schedule.theta == (0, 1, 2)


@pytest.mark.parametrize("scheme", ["mdnc", "nonc"])
def test_no_primal_ends_unconverged_on_paper_targets(paper_scenario, paper_coeffs, scheme):
    for target in (1e-2, 1e-3, 1e-4, 1e-5):
        sol = dinkelbach_solve(paper_scenario, paper_coeffs, target, scheme=scheme)
        assert sol.diagnostics["primal_unconverged"] == 0, target


@pytest.mark.parametrize("scheme", ["mdnc", "nonc"])
def test_feasible_answers_keep_the_approximate_outage_within_target(paper_scenario, paper_coeffs,
                                                                    scheme):
    # pr_out_approx is the counting recursion's value at the returned
    # powers, while the barrier kept the term matrix below the target; the
    # benchmark's correctness check reads it. GOA and brute force on
    # paper.cfg over the sweep's six targets (logrange:1e-2,5e-6,6), and on
    # the benchmark's pool scenarios (bench/workloads.pool_scenario(0..5),
    # seed [1608, k]) at 1e-3
    from mdncee.simulate import brute_force_optimize

    cases = [(paper_scenario, paper_coeffs, float(t)) for t in np.geomspace(1e-2, 5e-6, 6)]
    cases += [(*_pool_scenario(k), 1e-3) for k in range(6)]
    feasible = 0
    for s, coeffs, target in cases:
        for solve in (dinkelbach_solve, brute_force_optimize):
            sol = solve(s, coeffs, target, scheme=scheme)
            if sol.feasible:
                feasible += 1
                assert np.all(np.asarray(sol.pr_out_approx) <= target), (solve.__name__, target)
    assert feasible >= 22


@pytest.mark.parametrize("scheme", ["mdnc", "nonc"])
def test_each_tree_grows_at_its_incumbents_fixed_point(paper_scenario, paper_coeffs,
                                                       monkeypatch, scheme):
    # q moves on the incumbent's own schedule until its V(q) is within
    # tolerance, and only there does a tree grow, from that schedule and the
    # primal the fixed-schedule step solved at q. A tree that keeps its warm
    # schedule ends the solve, so the trees number the incumbent changes
    # plus one. paper.cfg at four targets and the pool scenarios at two
    from mdncee import optimizer
    from mdncee.optimizer import _parametric_value

    trees, primals = [], []
    real_goa, real_primal = optimizer.goa_solve, optimizer.solve_primal

    def recording_goa(master, q, warm=None, solved=None):
        state = real_goa(master, q, warm, solved)
        trees.append((q, warm, solved, state))
        return state

    def recording_primal(pp, q, cutoff=None):
        primals.append(real_primal(pp, q, cutoff=cutoff))
        return primals[-1]

    monkeypatch.setattr(optimizer, "goa_solve", recording_goa)
    monkeypatch.setattr(optimizer, "solve_primal", recording_primal)
    cases = [(paper_scenario, paper_coeffs, t) for t in PAPER_TARGETS]
    cases += [(*_pool_scenario(k), t) for k in range(6) for t in (1e-2, 1e-3)]
    several = 0
    for s, coeffs, target in cases:
        trees.clear()
        primals.clear()
        sol = dinkelbach_solve(s, coeffs, target, scheme=scheme)
        if not sol.feasible:
            continue
        d = sol.diagnostics
        tol = 1e-6 * s.M * s.alpha0
        bounds = relay_count_bounds(s, coeffs, target, scheme)
        assert trees[0][1].schedule.theta == bounds.best_subset
        for q, warm, solved, state in trees:
            assert (solved is None) == (not warm.feasible)
            if solved is not None:
                assert solved.lower_bound is None
                assert abs(_parametric_value(warm, solved, q)[0]) <= tol
                assert state.visited[0] == warm.schedule.theta
            assert q in d["q_history"]
        # every tree but the last changes the incumbent, and the next tree
        # grows from the new one; the last keeps its warm schedule
        for (_, warm, _, state), (_, following, _, _) in zip(trees, trees[1:]):
            assert state.incumbent_problem is not warm
            assert following is state.incumbent_problem
        _, warm, solved, last = trees[-1]
        assert last.incumbent_problem is warm and last.incumbent is solved
        assert d["goa_states"] == len(trees) == len(d["inner"])
        qs = d["q_history"]
        assert len(qs) == d["dinkelbach_iterations"] >= len(trees)
        assert all(b >= a for a, b in zip(qs, qs[1:]))
        assert qs[-1] == trees[-1][0]
        assert abs(d["v_history"][-1]) <= tol
        # the fixed-schedule primals count once, the one a tree reuses too
        assert d["newton_total"] == sum(p.newton_iterations for p in primals)
        assert d["cuts_total"] == len(last.master.cuts)
        several += len(trees) > 1
    assert several > 0


@pytest.mark.parametrize("k", range(6))
@pytest.mark.parametrize("scheme", ["mdnc", "nonc"])
def test_goa_equals_screened_brute_force_on_the_grid(paper_scenario, paper_coeffs, scheme, k):
    # the seeded random scenarios [1, N, M] for N in 4, 6, 8 and M in 2, 3
    # (k = 0..5), the pool scenario k, and paper.cfg with k = 0, at five
    # targets: the same schedule and EE within 1e-9 relative
    from mdncee.simulate import brute_force_optimize

    N, M = (4, 6, 8)[k // 2], 2 + k % 2
    s = _random_small_scenario(np.random.default_rng([1, N, M]), M=M, N=N)
    cases = [(s, build_link_coefficients(s)), _pool_scenario(k)]
    if k == 0:
        cases.append((paper_scenario, paper_coeffs))
    for s, coeffs in cases:
        for target in (1e-2, 1e-3, 10 ** -3.5, 1e-4, 1e-5):
            goa = dinkelbach_solve(s, coeffs, target, scheme=scheme)
            brute = brute_force_optimize(s, coeffs, target, scheme=scheme)
            assert goa.feasible == brute.feasible, target
            if goa.feasible:
                assert goa.schedule.theta == brute.schedule.theta, target
                assert goa.ee == pytest.approx(brute.ee, rel=1e-9, abs=0.0), target


def test_goa_state_at_iteration_limit_is_counted(paper_scenario, paper_coeffs, monkeypatch):
    from mdncee import optimizer

    monkeypatch.setattr(optimizer, "GOA_MAX_ITER", 1)
    sol = dinkelbach_solve(paper_scenario, paper_coeffs, 1e-2)
    assert "iteration limit" in [i["termination"] for i in sol.diagnostics["inner"]]
    assert sol.diagnostics["goa_unconverged"] >= 1


def test_fixed_schedule_counts_unconverged_primals(paper_scenario, paper_coeffs):
    sched = RelaySchedule.from_indices([0, 1, 2], 4)
    sol = dinkelbach_fixed_schedule(assemble_primal(paper_scenario, paper_coeffs, sched, 1e-3))
    assert sol.diagnostics["primal_unconverged"] == 0


@pytest.mark.parametrize("scheme", ["mdnc", "nonc"])
def test_backtracks_sum_the_primals(paper_scenario, paper_coeffs, monkeypatch, scheme):
    from mdncee import optimizer

    seen = []

    def recording(pp, q, cutoff=None):
        sol = solve_primal(pp, q, cutoff=cutoff)
        seen.append(sol.backtracks)
        return sol

    monkeypatch.setattr(optimizer, "solve_primal", recording)
    sol = dinkelbach_solve(paper_scenario, paper_coeffs, 1e-3, scheme=scheme)
    assert sol.diagnostics["backtracks"] == sum(seen) > 0
    seen.clear()
    sched = RelaySchedule.from_indices([0, 1, 2], 4)
    sol = dinkelbach_fixed_schedule(assemble_primal(paper_scenario, paper_coeffs, sched, 1e-3,
                                                    scheme=scheme))
    assert len(seen) > 1
    assert sol.diagnostics["backtracks"] == sum(seen)


def _drop_cutoff(pp, q, cutoff=None):
    """solve_primal as it ran before the cutoff: every primal to the end."""
    return solve_primal(pp, q)


PAPER_TARGETS = (1e-2, 1e-3, 1e-4, 1e-5)


@pytest.mark.parametrize("scheme", ["mdnc", "nonc"])
def test_stopped_primal_bound_lies_below_its_full_solve(paper_scenario, paper_coeffs,
                                                        monkeypatch, scheme):
    # the duality bound a primal stops at never exceeds the schedule's
    # optimum: a re-solve without the cutoff reaches tilde_v >= lower_bound,
    # and lower_bound >= cutoff is why it stopped; GOA's visits and brute
    # force's sign tests on paper.cfg, and GOA on the N = 8 scenarios
    from mdncee import optimizer
    from mdncee.simulate import brute_force_optimize

    calls = []

    def recording(pp, q, cutoff=None):
        sol = solve_primal(pp, q, cutoff=cutoff)
        calls.append((pp, q, cutoff, sol))
        return sol

    monkeypatch.setattr(optimizer, "solve_primal", recording)
    for target in PAPER_TARGETS:
        dinkelbach_solve(paper_scenario, paper_coeffs, target, scheme=scheme)
        brute_force_optimize(paper_scenario, paper_coeffs, target, scheme=scheme)
    for M in (2, 3):
        s = _random_small_scenario(np.random.default_rng([1, 8, M]), M=M, N=8)
        dinkelbach_solve(s, build_link_coefficients(s), 1e-3, scheme=scheme)
    stopped = [(pp, q, cutoff, sol) for pp, q, cutoff, sol in calls if sol.lower_bound is not None]
    assert len(stopped) >= 10
    for pp, q, cutoff, sol in stopped:
        full = solve_primal(pp, q)
        assert full.lower_bound is None and full.converged
        assert full.tilde_v >= sol.lower_bound >= cutoff
        assert sol.newton_iterations < full.newton_iterations


@pytest.mark.parametrize("scheme", ["mdnc", "nonc"])
def test_stopped_primal_never_becomes_the_incumbent(paper_scenario, paper_coeffs, monkeypatch,
                                                    scheme):
    # a stopped primal's point need not be its schedule's optimum, so its
    # tilde_v says nothing about the incumbent: even a stopped solution
    # claiming a tilde_v below UBD leaves UBD and the incumbent alone
    from mdncee import optimizer

    before = [dinkelbach_solve(paper_scenario, paper_coeffs, t, scheme=scheme)
              for t in PAPER_TARGETS]
    stopped = []

    def claiming(pp, q, cutoff=None):
        sol = solve_primal(pp, q, cutoff=cutoff)
        if sol.lower_bound is None:
            return sol
        stopped.append(sol)
        return dataclasses.replace(sol, tilde_v=cutoff - 10.0)

    monkeypatch.setattr(optimizer, "solve_primal", claiming)
    for target, want in zip(PAPER_TARGETS, before):
        got = dinkelbach_solve(paper_scenario, paper_coeffs, target, scheme=scheme)
        assert got.schedule.theta == want.schedule.theta
        assert got.ee == want.ee
        assert ([i["ubd_history"] for i in got.diagnostics["inner"]]
                == [i["ubd_history"] for i in want.diagnostics["inner"]])
        assert got.diagnostics["primal_stopped"] == want.diagnostics["primal_stopped"]
    assert stopped


@pytest.mark.parametrize("scheme", ["mdnc", "nonc"])
@pytest.mark.parametrize("include_user_energy", [False, True])
def test_parametric_value_is_zero_level_minus_vprime(paper_scenario, paper_coeffs, scheme,
                                                     include_user_energy):
    # V(q) = obj_coef*K - V'(x) + q*W, with K outages and W the summed relay
    # energy weights: the identity behind the sign test's cutoff
    # log(obj_coef*K + q*W), where max V(q) turns nonpositive
    from mdncee.convex_solver import log_power_model
    from mdncee.optimizer import _parametric_value

    s = dataclasses.replace(paper_scenario, user_energy_in_budget=include_user_energy)
    energy, _, _, _ = log_power_model(s, paper_coeffs, scheme)
    W = float(np.sum(energy[s.M:]))
    for relays in ((0,), (0, 2), (0, 1, 2), (0, 1, 2, 3)):
        pp = assemble_primal(s, paper_coeffs, RelaySchedule.from_indices(relays, s.N), 1e-3,
                             scheme)
        if not pp.feasible:
            continue
        # fixed_schedule_value's zero level reads these, bit for bit
        assert pp.relay_energy == W
        assert s.M * s.alpha0 == pp.obj_coef * len(pp.outage_pos)
        for q in (0.0, 600.0, 1300.0, 2600.0):
            sol = solve_primal(pp, q)
            zero = pp.obj_coef * len(pp.outage_pos) + q * W
            v, _ = _parametric_value(pp, sol, q)
            assert v == pytest.approx(zero - pp.vprime(q).value(sol.x), rel=1e-12,
                                      abs=1e-12 * zero)


@pytest.mark.parametrize("scheme", ["mdnc", "nonc"])
def test_sign_test_stop_keeps_brute_force_answer(paper_scenario, paper_coeffs, monkeypatch,
                                                 scheme):
    # a sign test stopped at the V(q*) = 0 level decides as the full primal
    # would: same winner, same EE to the bit, same subsets tried
    from mdncee import optimizer
    from mdncee.simulate import brute_force_optimize

    def run():
        return [brute_force_optimize(paper_scenario, paper_coeffs, t, scheme=scheme)
                for t in PAPER_TARGETS]

    screened = run()
    monkeypatch.setattr(optimizer, "solve_primal", _drop_cutoff)
    full = run()
    for a, b in zip(screened, full):
        assert a.schedule.theta == b.schedule.theta
        assert a.ee == b.ee
        for counter in ("subsets_tried", "subsets_pruned", "q_iterations"):
            assert a.diagnostics[counter] == b.diagnostics[counter]
        assert b.diagnostics["primal_stopped"] == 0
    assert sum(a.diagnostics["primal_stopped"] for a in screened) > 0


@pytest.mark.parametrize("scheme", ["mdnc", "nonc"])
def test_brute_force_counts_every_primal_it_solves(paper_scenario, paper_coeffs, monkeypatch,
                                                   scheme):
    # the primal counters add up every primal brute force solves, its sign
    # tests and the q-iteration of every subset that passes one, not only
    # the winner's q-iteration
    from mdncee import optimizer
    from mdncee.simulate import brute_force_optimize

    primals = []

    def recording(pp, q, cutoff=None):
        primals.append(solve_primal(pp, q, cutoff=cutoff))
        return primals[-1]

    monkeypatch.setattr(optimizer, "solve_primal", recording)
    several = 0
    for target in PAPER_TARGETS:
        primals.clear()
        d = brute_force_optimize(paper_scenario, paper_coeffs, target, scheme=scheme).diagnostics
        assert d["newton_total"] == sum(p.newton_iterations for p in primals)
        assert d["backtracks"] == sum(p.backtracks for p in primals)
        assert d["primal_unconverged"] == sum(p.lower_bound is None and not p.converged
                                              for p in primals)
        assert d["primal_stopped"] == sum(p.lower_bound is not None for p in primals)
        several += len(primals) > d["dinkelbach_iterations"]
    assert several > 0


def test_cutoff_at_least_halves_goa_newton_steps(paper_scenario, paper_coeffs, monkeypatch):
    # the stop must keep firing: over paper.cfg 1e-2..1e-5 and both schemes,
    # GOA takes at most 0.7x the Newton steps it takes with every primal
    # run to the end (about 0.5x when this was written)
    from mdncee import optimizer

    def newton_total():
        return sum(dinkelbach_solve(paper_scenario, paper_coeffs, t, scheme=scheme)
                   .diagnostics["newton_total"]
                   for t in PAPER_TARGETS for scheme in ("mdnc", "nonc"))

    # with no dominance rows, so that the cutoff alone is measured
    monkeypatch.setattr(optimizer, "dominance_pairs", lambda coeffs: [])
    with_cutoff = newton_total()
    monkeypatch.setattr(optimizer, "solve_primal", _drop_cutoff)
    assert with_cutoff <= 0.7 * newton_total()


@pytest.mark.parametrize("target", [10 ** -2.75, 1e-3], ids=["10^-2.75", "1e-3"])
def test_newton_path_ignores_outage_term_order(paper_scenario, paper_coeffs, monkeypatch, target):
    from mdncee import convex_solver
    from mdncee.posynomial import Posynomial

    before = dinkelbach_solve(paper_scenario, paper_coeffs, target)
    real = convex_solver.outage_posynomial

    def reversed_terms(*args, **kwargs):
        pos = real(*args, **kwargs)
        return Posynomial(pos.coeffs[::-1], pos.expos[::-1], pos.dim)

    monkeypatch.setattr(convex_solver, "outage_posynomial", reversed_terms)
    after = dinkelbach_solve(paper_scenario, paper_coeffs, target)
    assert after.schedule.theta == before.schedule.theta
    assert after.diagnostics["newton_total"] == before.diagnostics["newton_total"]
    assert after.ee == pytest.approx(before.ee, rel=1e-12)


# schedule, GOA iterations, cut blocks and EE of paper.cfg per (scheme, target)
PAPER_MASTER_RESULTS = {
    ("mdnc", 1e-2): ((0, 2), 2, 2, 783.0075496313098),
    ("mdnc", 1e-3): ((0, 1, 2), 1, 1, 567.8600391730046),
    ("mdnc", 1e-4): ((0, 1, 2), 1, 1, 563.9915982539757),
    ("mdnc", 1e-5): ((0, 1, 2), 1, 1, 550.657050890315),
    ("nonc", 1e-2): ((0,), 2, 2, 933.3897578534938),
    ("nonc", 1e-3): ((0,), 2, 2, 902.1859586213831),
    ("nonc", 1e-4): ((0, 2), 2, 2, 532.2684733770477),
    ("nonc", 1e-5): ((0, 2), 2, 2, 526.9936995595244),
}


@pytest.mark.parametrize("scheme", ["mdnc", "nonc"])
def test_each_schedule_is_assembled_once_per_solve(paper_scenario, paper_coeffs, monkeypatch,
                                                   scheme):
    # only the objective depends on q, so a solve assembles each schedule it
    # visits once: best_subset serves q0, every fixed-schedule step and the
    # first tree's warm visit, a later tree's warm visit reuses the
    # incumbent's problem, and its other visits reuse the problems kept on
    # the master. paper.cfg, and pool scenarios whose solves grow two trees
    from mdncee import optimizer

    assembled = []
    real = optimizer.assemble_primal

    def counting(*args, **kwargs):
        pp = real(*args, **kwargs)
        assembled.append(pp.schedule.theta)
        return pp

    monkeypatch.setattr(optimizer, "assemble_primal", counting)
    k = 0 if scheme == "mdnc" else 2
    cases = [(paper_scenario, paper_coeffs, 1e-3), (paper_scenario, paper_coeffs, 1e-2),
             (*_pool_scenario(k), 1e-2)]
    trees = []
    for s, coeffs, target in cases:
        assembled.clear()
        sol = dinkelbach_solve(s, coeffs, target, scheme=scheme)
        inner = sol.diagnostics["inner"]
        visited = {theta for info in inner for theta in info["visited"]}
        assert sorted(assembled) == sorted(visited), target
        trees.append(len(inner))
    assert trees == [1, 1, 2]


@pytest.mark.parametrize("scheme", ["mdnc", "nonc"])
def test_master_solves_each_lp_once(paper_scenario, paper_coeffs, monkeypatch, scheme):
    from mdncee import optimizer

    real_lp, real_goa = optimizer.solve_lp, optimizer.goa_solve
    seen: set = set()
    repeats = []

    def recording_lp(c, A, b, lb, ub, warm=None):
        key = tuple(np.asarray(a, dtype=float).tobytes() for a in (A, b, lb, ub))
        if key in seen:
            repeats.append(len(seen))
        seen.add(key)
        return real_lp(c, A, b, lb, ub, warm=warm)

    def fresh_tree(*args, **kwargs):
        seen.clear()
        return real_goa(*args, **kwargs)

    monkeypatch.setattr(optimizer, "solve_lp", recording_lp)
    monkeypatch.setattr(optimizer, "goa_solve", fresh_tree)
    for target in (1e-2, 1e-3, 1e-4, 1e-5):
        sol = dinkelbach_solve(paper_scenario, paper_coeffs, target, scheme=scheme)
        assert repeats == [], f"{len(repeats)} repeated master LPs at {target:g}"
        relays, goa_iters, cuts, ee = PAPER_MASTER_RESULTS[scheme, target]
        assert sol.schedule.theta == relays
        assert sum(i["goa_iterations"] for i in sol.diagnostics["inner"]) == goa_iters
        assert sol.diagnostics["cuts_total"] == cuts
        assert sol.ee == pytest.approx(ee, rel=1e-9)


# master LPs and pivots of paper.cfg's GOA solves per (scheme, target): the
# dual simplex's decisions, which last-bit changes in its arithmetic would move
PAPER_MASTER_PIVOTS = {
    ("mdnc", 1e-2): (4, 31),
    ("mdnc", 1e-3): (5, 20),
    ("mdnc", 1e-4): (3, 24),
    ("mdnc", 1e-5): (5, 26),
    ("nonc", 1e-2): (6, 40),
    ("nonc", 1e-3): (6, 29),
    ("nonc", 1e-4): (4, 23),
    ("nonc", 1e-5): (6, 31),
}


@pytest.mark.parametrize("scheme", ["mdnc", "nonc"])
def test_master_lps_and_pivots_of_paper_solves_are_pinned(paper_scenario, paper_coeffs, scheme):
    for target in (1e-2, 1e-3, 1e-4, 1e-5):
        d = dinkelbach_solve(paper_scenario, paper_coeffs, target, scheme=scheme).diagnostics
        assert (d["master_lps"], d["master_pivots"]) == PAPER_MASTER_PIVOTS[scheme, target], target


@pytest.mark.parametrize("scheme", ["mdnc", "nonc"])
def test_warm_children_pivot_less_than_cold_roots(paper_scenario, paper_coeffs, monkeypatch,
                                                  scheme):
    from mdncee import optimizer

    real_lp = optimizer.solve_lp
    pivots = {"cold": [], "warm": []}

    def recording_lp(c, A, b, lb, ub, warm=None):
        res = real_lp(c, A, b, lb, ub, warm=warm)
        pivots["cold" if warm is None else "warm"].append(res.pivots)
        return res

    monkeypatch.setattr(optimizer, "solve_lp", recording_lp)
    lps = total = trees = 0
    for target in (1e-2, 1e-3, 1e-4, 1e-5):
        sol = dinkelbach_solve(paper_scenario, paper_coeffs, target, scheme=scheme)
        lps += sol.diagnostics["master_lps"]
        total += sol.diagnostics["master_pivots"]
        trees += sol.diagnostics["goa_states"]
    # each tree solves its root cold and every other LP warm, from
    # its parent's tableau or, after new rows or a lower cap, from its own
    assert len(pivots["cold"]) == trees
    assert lps == len(pivots["cold"]) + len(pivots["warm"])
    assert total == sum(pivots["cold"]) + sum(pivots["warm"])
    assert np.mean(pivots["warm"]) < np.mean(pivots["cold"])


@pytest.mark.parametrize("scheme,k", [("mdnc", 0), ("nonc", 2)], ids=["mdnc", "nonc"])
def test_all_relay_outage_builds_no_term_matrix(monkeypatch, scheme, k):
    # the master reads the all-relay outage from the counting recursion, so
    # a solve's only term matrices are its primals' own: one per assembled
    # schedule that reads its outage_pos. On pool scenarios whose solves
    # grow two trees at 1e-2
    from mdncee import convex_solver, optimizer

    builds, masters = [], []

    def counting(real):
        def build(coeffs, selected, M):
            builds.append(tuple(selected))
            return real(coeffs, selected, M)
        return build

    class Recorded(optimizer.MasterModel):
        def __init__(self, *args):
            super().__init__(*args)
            masters.append(self)

    def term_matrices(master):
        return sorted(theta for theta, pp in master.problems.items() if "outage_pos" in vars(pp))

    # every term matrix comes from one of these two, whoever asks for it
    for name in ("outage_posynomial", "nonc_outage_posynomials"):
        monkeypatch.setattr(convex_solver, name, counting(getattr(convex_solver, name)))
    monkeypatch.setattr(optimizer, "MasterModel", Recorded)
    s, coeffs = _pool_scenario(k)
    sol = dinkelbach_solve(s, coeffs, 1e-2, scheme=scheme)
    assert sol.diagnostics["goa_states"] > 1
    assert len(masters) == 1 and masters[0].cuts
    assert sorted(builds) == term_matrices(masters[0])
    builds.clear()
    master = master_for(s, coeffs, 1e-2, scheme)
    assert builds == []
    goa_solve(master, sol.q_star)
    assert sorted(builds) == term_matrices(master)


@pytest.mark.parametrize("scheme", ["mdnc", "nonc"])
def test_each_cut_evaluates_each_outage_posynomial_once(paper_scenario, paper_coeffs,
                                                        monkeypatch, scheme):
    # a cut's objective row reuses its outage rows' values and gradients,
    # and its energy and budget rows are closed form: the recursion runs
    # once at the anchor for the values, and once on the batch of its
    # M + N complex steps for the gradients
    from mdncee import optimizer

    real_values, real_build = optimizer.outage_values, optimizer.build_oa_cuts
    calls = []
    per_cut = []

    def counting_values(coeffs, selected, M, scheme, x):
        values = real_values(coeffs, selected, M, scheme, x)
        calls.append((tuple(selected), np.shape(x), np.iscomplexobj(x), values.shape))
        return values

    def counting_build(pp, sol, master):
        calls.clear()
        cut = real_build(pp, sol, master)
        per_cut.append((list(calls), master.dim))
        return cut

    monkeypatch.setattr(optimizer, "outage_values", counting_values)
    monkeypatch.setattr(optimizer, "build_oa_cuts", counting_build)
    for target in (1e-2, 1e-3, 1e-4):
        dinkelbach_solve(paper_scenario, paper_coeffs, target, scheme=scheme)
    outages = 1 if scheme == "mdnc" else paper_scenario.M
    relays = tuple(range(paper_scenario.N))
    assert per_cut
    for cut_calls, dim in per_cut:
        assert cut_calls == [(relays, (dim,), False, (outages,)),
                             (relays, (dim, dim), True, (dim, outages))]


@pytest.mark.parametrize("N", [4, 6, 8, 10])
@pytest.mark.parametrize("M", [2, 3])
@pytest.mark.parametrize("scheme", ["mdnc", "nonc"])
def test_cut_outage_value_and_gradient_equal_the_term_matrix(N, M, scheme):
    # the master's all-relay outage from the recursion and its complex steps
    # against the term matrix of outage_posynomials, summed here term by term
    from mdncee.convex_solver import outage_posynomials

    s = _random_small_scenario(np.random.default_rng([1, N, M]), M=M, N=N)
    coeffs = build_link_coefficients(s)
    master = MasterModel(s, coeffs, scheme, 1e-3, CountBounds(low=1, up=N, best_subset=(0,)))
    terms = outage_posynomials(coeffs, range(N), M, scheme)
    rng = np.random.default_rng([2, N, M])
    idle = rng.uniform(master.lo, master.hi)
    idle[M + rng.choice(N, size=N // 2, replace=False)] = 0.0
    for x in (idle, master.lo, master.hi):
        values, grads = master.outage_value_grad(x)
        assert values.shape == (len(terms),) and grads.shape == (len(terms), master.dim)
        for pos, value, grad in zip(terms, values, grads):
            t = pos.coeffs * np.exp(pos.expos @ x)
            np.testing.assert_allclose(value, t.sum(), rtol=1e-12, atol=0)
            np.testing.assert_allclose(grad, t @ pos.expos, rtol=1e-12, atol=0)


def test_twenty_relay_master_and_cut_build_no_term_matrix(monkeypatch):
    # at (2, 20) the all-relay MDNC term matrix does not fit in 3 GB; the
    # master and its cuts read the recursion alone
    from types import SimpleNamespace

    from mdncee import convex_solver

    def refuse(*args):
        raise AssertionError("term matrix built")

    monkeypatch.setattr(convex_solver, "outage_posynomial", refuse)
    monkeypatch.setattr(convex_solver, "nonc_outage_posynomials", refuse)
    s = _random_small_scenario(np.random.default_rng([1, 20, 2]), M=2, N=20)
    master = master_for(s, build_link_coefficients(s), 1e-3)
    schedule = RelaySchedule.from_indices(master.bounds.best_subset, s.N)
    keep = [*range(s.M), *(s.M + j for j in schedule.theta)]
    # build_oa_cuts reads only the schedule and the solution's point
    cut = build_oa_cuts(SimpleNamespace(schedule=schedule), SimpleNamespace(x=master.hi[keep]),
                        master)
    assert cut.A.shape == (3, master.dim + s.N + 1)
    assert np.all(np.isfinite(cut.A)) and np.all(np.isfinite(cut.b))
    # the outage falls in every power, the idle relays' included
    assert np.all(cut.A[1, :master.dim] < 0)


@pytest.mark.parametrize("scheme", ["MDNC", ""])
@pytest.mark.parametrize("entry", ["total_energy", "energy_efficiency", "exact_outage",
                                   "outage_posynomials", "dinkelbach_solve"])
def test_unknown_scheme_rejected(paper_scenario, paper_coeffs, entry, scheme):
    from mdncee.convex_solver import outage_posynomials
    from mdncee.energy import energy_efficiency, total_energy

    s = paper_scenario
    sched = RelaySchedule.from_indices([0, 1, 2], s.N)
    powers = PowerAllocation(p=[1.0, 1.0], p_relay=sched.u * 5.0)
    calls = {
        "total_energy": lambda: total_energy(s, sched, powers, scheme),
        "energy_efficiency": lambda: energy_efficiency(s, 1e-3, total_energy(s, sched, powers),
                                                       scheme),
        "exact_outage": lambda: exact_outage(s, paper_coeffs, scheme, sched, powers),
        "outage_posynomials": lambda: outage_posynomials(paper_coeffs, sched.theta, s.M, scheme),
        "dinkelbach_solve": lambda: dinkelbach_solve(s, paper_coeffs, 1e-3, scheme=scheme),
    }
    with pytest.raises(ValueError, match="unknown scheme"):
        calls[entry]()


# visits per tree of the N = 8 GOA solves
EIGHT_RELAY_VISITS = {(2, "mdnc"): [35], (3, "mdnc"): [30, 1], (3, "nonc"): [12]}


@pytest.mark.parametrize("M,scheme", [(2, "mdnc"), (3, "mdnc"), (3, "nonc")])
def test_goa_matches_brute_force_at_eight_relays(M, scheme):
    # the N = 8 scenario that bench/workloads.random_scenario draws from seed
    # [1, 8, M]; at M = 3 most first-tree visits refute their schedule
    from mdncee.simulate import brute_force_optimize

    s = _random_small_scenario(np.random.default_rng([1, 8, M]), M=M, N=8)
    coeffs = build_link_coefficients(s)
    goa = dinkelbach_solve(s, coeffs, 1e-3, scheme=scheme)
    brute = brute_force_optimize(s, coeffs, 1e-3, scheme=scheme)
    assert goa.schedule.theta == brute.schedule.theta
    assert goa.ee >= brute.ee * (1.0 - 1e-3)
    assert goa.diagnostics["goa_unconverged"] == 0
    visits = [i["goa_iterations"] for i in goa.diagnostics["inner"]]
    assert visits == EIGHT_RELAY_VISITS[M, scheme]


def test_goa_certifies_brute_force_answer_at_ten_relays():
    # (M, N) = (3, 10) MDNC: the first tree refutes most of the 4-relay
    # schedules it visits; a refutation costs one master row and does not
    # count toward GOA_MAX_ITER, so every tree closes with a certificate
    from mdncee.simulate import brute_force_optimize

    s = _random_small_scenario(np.random.default_rng([1, 10, 3]), M=3, N=10)
    coeffs = build_link_coefficients(s)
    goa = dinkelbach_solve(s, coeffs, 1e-3)
    brute = brute_force_optimize(s, coeffs, 1e-3)
    assert goa.diagnostics["goa_unconverged"] == 0
    assert goa.schedule.theta == brute.schedule.theta
    assert goa.ee == pytest.approx(brute.ee, rel=1e-9)


@pytest.mark.parametrize("N,target,max_lps", [(10, 1e-2, 400), (12, 1e-3, 400)])
def test_dominance_rows_keep_the_ten_and_twelve_relay_trees_small(N, target, max_lps):
    # random_scenario [1, N, 3] MDNC: without the dominance rows the first
    # tree at (10, 1e-2) stopped uncertified at GOA_MAX_ITER, and (12, 1e-3)
    # took 2388 master LPs; with them every tree certifies within the cap
    from mdncee.simulate import brute_force_optimize

    s = _random_small_scenario(np.random.default_rng([1, N, 3]), M=3, N=N)
    coeffs = build_link_coefficients(s)
    goa = dinkelbach_solve(s, coeffs, target)
    brute = brute_force_optimize(s, coeffs, target)
    assert goa.diagnostics["goa_unconverged"] == 0
    assert goa.diagnostics["master_lps"] <= max_lps
    assert goa.schedule.theta == brute.schedule.theta
    assert goa.ee == pytest.approx(brute.ee, rel=1e-9)


def grid_maximize_toy_ratio(s, coeffs, sched, target):
    """Dense 2-D grid oracle for the single-user single-relay ratio, refined
    once around the coarse argmax so the grid error is far below 1e-4."""
    from mdncee.energy import total_energy
    from mdncee.outage import PowerAllocation
    from oracles import outage_approx_power

    def scan(p_grid, pr_grid):
        best = (0.0, p_grid[0], pr_grid[0])
        for p in p_grid:
            for pr in pr_grid:
                powers = PowerAllocation(p=[p], p_relay=[pr])
                out = outage_approx_power(coeffs, sched, powers)
                if out <= target:
                    e = total_energy(s, sched, powers)
                    ratio = s.alpha0 * (1 - out) / e.e_tot
                    if ratio > best[0]:
                        best = (ratio, p, pr)
        return best

    coarse = scan(np.geomspace(1e-3, 10.0, 300), np.geomspace(1e-3, 20.0, 300))
    _, p0, pr0 = coarse
    fine = scan(np.geomspace(max(1e-3, p0 * 0.9), min(10.0, p0 * 1.1), 240),
                np.geomspace(max(1e-3, pr0 * 0.9), min(20.0, pr0 * 1.1), 240))
    return max(coarse[0], fine[0])


def test_dinkelbach_toy_matches_grid_maximization(toy_scenario, toy_coeffs):
    target = 1e-3
    sched = RelaySchedule.from_indices([0], 1)
    sol = dinkelbach_fixed_schedule(assemble_primal(toy_scenario, toy_coeffs, sched, target))
    best = grid_maximize_toy_ratio(toy_scenario, toy_coeffs, sched, target)
    assert sol.q_star >= best - 1e-6 * best
    assert sol.q_star == pytest.approx(best, rel=1e-4)


def test_vacuous_target_gives_unconstrained_optimum(toy_scenario, toy_coeffs):
    sched = RelaySchedule.from_indices([0], 1)
    pp = assemble_primal(toy_scenario, toy_coeffs, sched, target=0.999999)
    sol = dinkelbach_fixed_schedule(pp)
    x = np.concatenate([np.log(sol.powers.p), np.log1p(sol.powers.p_relay / toy_coeffs.c_g)])
    gtv = log_gradient(pp.vprime(sol.q_star), x)
    at_cap = np.isclose(x, pp.hi, atol=1e-6)
    assert np.all((np.abs(gtv) <= 1e-5) | at_cap)


def test_infeasible_target_reported(paper_scenario, paper_coeffs):
    sol = dinkelbach_solve(paper_scenario, paper_coeffs, 1e-12)
    assert not sol.feasible
    assert "relay count" in sol.reason


def test_nonc_single_user_agrees_with_mdnc(paper_scenario, paper_coeffs):
    s1 = dataclasses.replace(paper_scenario, M=1,
                             sigma_h=paper_scenario.sigma_h[:1], d_h=paper_scenario.d_h[:1],
                             n_h=paper_scenario.n_h[:1], N0_h=paper_scenario.N0_h[:1])
    from mdncee.model import build_link_coefficients
    co1 = build_link_coefficients(s1)
    a = dinkelbach_solve(s1, co1, 1e-3, scheme="mdnc")
    b = nonc_solve(s1, co1, 1e-3)
    assert a.schedule.theta == b.schedule.theta
    assert a.ee == pytest.approx(b.ee, rel=1e-9)


def test_nonc_loose_target_selects_one_relay(paper_scenario, paper_coeffs):
    sol = nonc_solve(paper_scenario, paper_coeffs, 1e-2)
    assert sol.schedule.count == 1


# -- relay dominance ---------------------------------------------------------


def _ladder_coeffs(rng, M, N):
    """Coefficients on a three-step ladder, so that many relays compare."""
    return LinkCoefficients(c_h=1e-3 * rng.integers(1, 4, (M, N)).astype(float),
                            c_g=1e-3 * rng.integers(1, 4, N).astype(float))


def _dominance_rows(master):
    """The (a, b) of each master row u_b - u_a <= 0 at the root."""
    _, A, b, _, _ = _master_lp_rows(GoaState(master=master, q=1000.0))
    u0, N = master.s.M + master.s.N, master.s.N
    found = []
    for row, rhs in zip(A, b):
        u = row[u0:u0 + N]
        if rhs == 0 and not np.any(row[:u0]) and not row[-1] and sorted(u[u != 0]) == [-1, 1]:
            found.append((int(np.flatnonzero(u < 0)[0]), int(np.flatnonzero(u > 0)[0])))
    return found


def test_dominance_pairs_agree_with_the_permutation_oracle():
    # on ladder coefficients many relays compare and some are equal: the
    # master's dominance rows are exactly the oracle's comparable pairs,
    # of two equal relays the lower index dominating
    rng = np.random.default_rng(2024)
    s = _random_small_scenario(np.random.default_rng([1, 7, 2]), M=2, N=7)
    window = CountBounds(low=1, up=s.N, best_subset=(0,))
    found = ties = 0
    for _ in range(6):
        coeffs = _ladder_coeffs(rng, s.M, s.N)
        want = []
        for a in range(s.N):
            for b in range(s.N):
                if a != b and dominates(coeffs, (a,), (b,)) is not None:
                    tie = dominates(coeffs, (b,), (a,)) is not None
                    ties += tie
                    if not tie or a < b:
                        want.append((a, b))
        master = MasterModel(s, coeffs, "mdnc", 1e-3, window)
        assert master.pairs == dominance_pairs(coeffs) == want
        assert _dominance_rows(master) == want
        found += len(want)
    assert found > 50 and ties > 0


def test_dominance_without_comparable_relays_is_empty():
    # relays on an anti-chain: a smaller c_g always comes with a larger c_h
    s = _random_small_scenario(np.random.default_rng([1, 5, 1]), M=1, N=5)
    coeffs = LinkCoefficients(c_h=np.arange(1.0, 6.0)[None, :] * 1e-3,
                              c_g=np.arange(5.0, 0.0, -1.0) * 1e-3)
    master = MasterModel(s, coeffs, "mdnc", 1e-3, CountBounds(low=1, up=5, best_subset=(0,)))
    assert master.pairs == [] and _dominance_rows(master) == []
    for k in range(1, 4):
        for better in combinations(range(5), k):
            assert closed_under_dominance(coeffs, better)
            for worse in combinations(range(5), k):
                assert dominates(coeffs, better, worse) is None


@pytest.mark.parametrize("scheme,target", [("mdnc", 1e-2), ("mdnc", 1e-3), ("nonc", 1e-4)])
def test_equal_relays_keep_the_lower_index_and_both_solvers_agree(paper_scenario, paper_coeffs,
                                                                   scheme, target):
    # paper.cfg with relay 1 made equal to relay 2: the pair rows let the
    # lower index stand in for the higher without forcing u_1 = u_2, and
    # GOA and brute force agree; where paper.cfg's optimum holds relay 2
    # alone, both return its twin with relay 1 at the same EE
    from mdncee.simulate import brute_force_optimize

    c_h, c_g = paper_coeffs.c_h.copy(), paper_coeffs.c_g.copy()
    c_h[:, 1], c_g[1] = c_h[:, 2], c_g[2]
    coeffs = LinkCoefficients(c_h=c_h, c_g=c_g)
    pairs = dominance_pairs(coeffs)
    assert (1, 2) in pairs and (2, 1) not in pairs
    goa = dinkelbach_solve(paper_scenario, coeffs, target, scheme=scheme)
    brute = brute_force_optimize(paper_scenario, coeffs, target, scheme=scheme)
    assert goa.schedule.theta == brute.schedule.theta
    assert goa.ee == pytest.approx(brute.ee, rel=1e-9, abs=0.0)
    assert goa.diagnostics["dominance_rows"] == len(pairs)
    assert brute.diagnostics["subsets_dominated"] > 0
    u = goa.schedule.u
    assert all(u[b] <= u[a] for a, b in _dominance_rows(master_for(paper_scenario, coeffs,
                                                                   target, scheme)))
    original = dinkelbach_solve(paper_scenario, paper_coeffs, target, scheme=scheme)
    if 2 in original.schedule.theta and 1 not in original.schedule.theta:
        assert u[1] == 1 and u[2] == 0
        assert goa.schedule.theta == tuple(sorted({*original.schedule.theta} - {2} | {1}))
        assert goa.ee == pytest.approx(original.ee, rel=1e-9, abs=0.0)
    else:
        assert goa.schedule.theta == original.schedule.theta


def _natural_point(rng, s, theta):
    """Random user powers in (0, P_S_max] and powers in (0, P_R_max] on the
    relays of theta."""
    p = rng.uniform(0.05, 1.0, s.M) * s.P_S_max
    p_relay = np.zeros(s.N)
    p_relay[list(theta)] = rng.uniform(0.05, 1.0, len(theta)) * s.P_R_max
    return PowerAllocation(p=p, p_relay=p_relay)


def _log_point(coeffs, theta, powers):
    """The log powers (ptilde, ptilde' on theta) of a natural point."""
    relays = list(theta)
    return np.concatenate([np.log(powers.p),
                           np.log1p(powers.p_relay[relays] / coeffs.c_g[relays])])


@pytest.mark.parametrize("scheme", ["mdnc", "nonc"])
@pytest.mark.parametrize("M,N", [(2, 6), (3, 6), (2, 8), (3, 8)])
def test_dominated_schedule_is_never_better(M, N, scheme):
    # the lemma of dominance_pairs on every pair (S, S') of the count
    # window that the oracle finds dominated, by its pairing: S' is infeasible
    # whenever S is, its max V(q) is no higher at several q, and at paired
    # natural powers neither its approximate nor its exact outage is lower
    s = _random_small_scenario(np.random.default_rng([1, N, M]), M=M, N=N)
    coeffs = build_link_coefficients(s)
    target = 1e-3
    master = master_for(s, coeffs, target, scheme)
    rng = np.random.default_rng([N, M])
    tol = 1e-6 * M * s.alpha0
    values: dict = {}

    def value(theta, q):
        if (theta, q) not in values:
            values[theta, q] = fixed_schedule_value(
                master.problem(RelaySchedule.from_indices(theta, N)), q)
        return values[theta, q]

    pairs = 0
    for k in range(master.bounds.low, master.bounds.up + 1):
        subsets = list(combinations(range(N), k))
        for better in subsets:
            for worse in subsets:
                pairing = dominates(coeffs, better, worse)
                if pairing is None:
                    continue
                pairs += 1
                sb, sw = (RelaySchedule.from_indices(t, N) for t in (better, worse))
                for _ in range(2):
                    pw = _natural_point(rng, s, worse)
                    relay = np.zeros(N)
                    relay[[pairing[b] for b in worse]] = pw.p_relay[list(worse)]
                    pb = PowerAllocation(p=pw.p, p_relay=relay)
                    pb.check(s, sb)
                    approx_b = outage_values(coeffs, better, M, scheme,
                                             _log_point(coeffs, better, pb))
                    approx_w = outage_values(coeffs, worse, M, scheme,
                                             _log_point(coeffs, worse, pw))
                    assert np.all(approx_w >= approx_b * (1 - 1e-12)), (better, worse)
                    exact_b = np.atleast_1d(exact_outage(s, coeffs, scheme, sb, pb))
                    exact_w = np.atleast_1d(exact_outage(s, coeffs, scheme, sw, pw))
                    assert np.all(exact_w >= exact_b * (1 - 1e-12)), (better, worse)
                for q in (0.0, 600.0, 1200.0):
                    vb, vw = value(better, q), value(worse, q)
                    if vb is None:
                        assert vw is None, (better, worse)
                    elif vw is not None and vw[1].lower_bound is None:
                        # a stopped primal of S' bounds its max V(q) from
                        # above by a value that need not lie below S's;
                        # the tolerance is the primals' duality gap
                        assert vw[0] <= vb[0] + tol, (better, worse, q)
    assert pairs > 0


@pytest.mark.parametrize("M,scheme", [(2, "mdnc"), (3, "mdnc"), (3, "nonc")])
def test_visits_after_the_warm_one_are_closed_under_dominance(M, scheme):
    # the N = 8 solves of test_goa_matches_brute_force_at_eight_relays: the
    # dominance rows keep every tree's later visits closed under
    # dominance by the oracle, and the solve reports how many rows it added
    s = _random_small_scenario(np.random.default_rng([1, 8, M]), M=M, N=8)
    coeffs = build_link_coefficients(s)
    d = dinkelbach_solve(s, coeffs, 1e-3, scheme=scheme).diagnostics
    assert d["dominance_rows"] == len(dominance_pairs(coeffs)) > 0
    later = [theta for info in d["inner"] for theta in info["visited"][1:]]
    assert later
    for theta in later:
        assert closed_under_dominance(coeffs, theta), theta
