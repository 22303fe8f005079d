import dataclasses
import math
from itertools import combinations

import numpy as np
import pytest

from mdncee.convex_solver import assemble_primal, gradients, solve_primal
from mdncee.energy import scheme_constants
from mdncee.lp import solve_lp
from mdncee.optimizer import (
    GOA_REL_TOL,
    MasterModel,
    _master_lp_rows,
    build_oa_cuts,
    dinkelbach_fixed_schedule,
    dinkelbach_solve,
    exact_outage,
    goa_solve,
    nonc_solve,
    relay_count_bounds,
    solve_master,
)
from mdncee.model import build_link_coefficients
from mdncee.outage import PowerAllocation, RelaySchedule, outage_exact
from test_properties import _random_small_scenario


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


def test_circuit_energy_exactly_at_budget_gives_infeasible_solution(paper_scenario, paper_coeffs):
    # E0 = gamma*3 + delta0: the count window admits only 3 relays, and no
    # 3-relay schedule leaves strict budget slack, so every cut refutes its
    # schedule and the first master runs at q = 0 with no objective row
    gamma, delta0, _, _ = scheme_constants(paper_scenario, "mdnc")
    s = dataclasses.replace(paper_scenario, E0=gamma * 3 + delta0)
    assert (relay_count_bounds(s, paper_coeffs, 1e-3).low,
            relay_count_bounds(s, paper_coeffs, 1e-3).up) == (3, 3)
    sol = dinkelbach_solve(s, paper_coeffs, 1e-3)
    assert not sol.feasible
    assert "master infeasible" in sol.reason


def test_count_bounds_unreachable_target(paper_scenario, paper_coeffs):
    b = relay_count_bounds(paper_scenario, paper_coeffs, 1e-12)
    assert b.low is None and not b.feasible


def test_count_bounds_nonc_allows_single_relay(paper_scenario, paper_coeffs):
    b = relay_count_bounds(paper_scenario, paper_coeffs, 1e-2, scheme="nonc")
    assert b.low == 1


def _max_power_outage(s, coeffs, subset):
    schedule = RelaySchedule.from_indices(subset, s.N)
    powers = PowerAllocation(p=np.full(s.M, s.P_S_max), p_relay=schedule.u * s.P_R_max)
    return outage_exact(s, coeffs, schedule, powers).total


@pytest.mark.parametrize("N,M", [(5, 2), (5, 3), (8, 2), (8, 3)])
def test_mdnc_count_bounds_match_subset_enumeration(N, M):
    # oracle: the lexicographically first argmin of the exact max-power
    # outage over every k-subset, for the smallest k meeting the target
    for seed in range(3):
        s = _random_small_scenario(np.random.default_rng([N, M, seed]), M=M, N=N)
        coeffs = build_link_coefficients(s)
        for target in (1e-3, 1e-5):
            low = best_subset = None
            for k in range(M, N + 1):
                merit, subset = min((_max_power_outage(s, coeffs, c) / target, c)
                                    for c in combinations(range(N), k))
                if merit <= 1.0:
                    low, best_subset = k, subset
                    break
            b = relay_count_bounds(s, coeffs, target)
            assert (b.low, b.best_subset) == (low, best_subset)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("M", [2, 3])
def test_mdnc_count_lower_bound_is_tight_beyond_brute_force_size(seed, M):
    s = _random_small_scenario(np.random.default_rng([14, seed]), M=M, N=14)
    coeffs = build_link_coefficients(s)
    for target in (1e-3, 1e-5):
        b = relay_count_bounds(s, coeffs, target)
        assert b.low is not None and len(b.best_subset) == b.low
        assert _max_power_outage(s, coeffs, b.best_subset) <= target
        assert all(_max_power_outage(s, coeffs, c) > target
                   for c in combinations(range(s.N), b.low - 1))


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
    pp = assemble_primal(paper_scenario, paper_coeffs, sched, q=1300.0, target=1e-3)
    sol = solve_primal(pp)
    master = MasterModel(paper_scenario, paper_coeffs, "mdnc", 1300.0, np.array([1e-3]))
    return pp, sol, master, build_oa_cuts(pp, sol, master)


def test_cut_reproduces_anchor_value(anchor):
    pp, sol, master, (A, b) = anchor
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
    grad_tilde_v = gradients(pp, sol.x)[0]
    rng = np.random.default_rng(13)
    for _ in range(100):
        x = rng.uniform(pp.lo, pp.hi)
        cut_val = sol.tilde_v + grad_tilde_v @ (x - sol.x)
        assert cut_val <= pp.vprime.logvalue(x) + 1e-9


def test_master_objective_cut_underestimates_vprime(anchor):
    pp, sol, master, (A, b) = anchor
    rng = np.random.default_rng(14)
    for _ in range(100):
        # random schedule within count bounds and a random admissible point
        count = int(rng.integers(2, 5))
        subset = tuple(sorted(rng.choice(4, size=count, replace=False).tolist()))
        x = np.zeros(master.dim)
        x[:2] = rng.uniform(np.log(1e-6), np.log(10.0), 2)
        for j in subset:
            x[2 + j] = rng.uniform(0.0, master.caps[j])
        vtrue = master.obj_smooth.value(x) + master.q * (master.gamma * count + master.delta0)
        z = np.concatenate([x, RelaySchedule.from_indices(subset, 4).u, [0.0]])
        vcut = _vhat_floor(master, A[0], b[0], z)
        assert vcut <= vtrue + 1e-6 * abs(vtrue)


def test_g_cut_inactive_at_slack_anchor(paper_scenario, paper_coeffs):
    sched = RelaySchedule.from_indices(range(4), 4)
    pp = assemble_primal(paper_scenario, paper_coeffs, sched, q=800.0, target=1e-2)
    sol = solve_primal(pp)
    master = MasterModel(paper_scenario, paper_coeffs, "mdnc", 800.0, np.array([1e-2]))
    A, b = build_oa_cuts(pp, sol, master)
    # row 1 is the outage row (row 0 the objective, row 2 the budget)
    assert A[1] @ _anchor_z(master, pp, sol.x) < b[1]


def test_infeasibility_cut_excludes_subsets_allows_supersets(paper_scenario, paper_coeffs):
    # the 2-relay subset (0, 2) cannot reach 1e-4 even at full power
    sched = RelaySchedule.from_indices([0, 2], 4)
    pp = assemble_primal(paper_scenario, paper_coeffs, sched, q=1000.0, target=1e-4)
    assert not pp.feasible
    master = MasterModel(paper_scenario, paper_coeffs, "mdnc", 1000.0, np.array([1e-4]))
    A, b = build_oa_cuts(pp, None, master)
    # no objective row: row 0 is the outage row, row 1 the budget
    assert A.shape[0] == 2
    # at the anchor (its own schedule, full power) the cut is violated
    assert A[0] @ _anchor_z(master, pp, pp.max_slack_point) > b[0]
    # a superset gains slack through the extra relay's variable
    assert A[0, 2 + 1] < 0 and A[0, 2 + 3] < 0


# -- master problem ----------------------------------------------------------


def test_master_matches_exhaustive_enumeration(paper_scenario, paper_coeffs):
    target = 1e-3
    q = 1300.0
    state = goa_solve(paper_scenario, paper_coeffs, q, target)
    # rebuild the final master and compare against brute enumeration over all
    # binary vectors obeying count bounds and the accumulated no-goods
    c, A, b, lb, ub = _master_lp_rows(state)
    u0 = paper_scenario.M + paper_scenario.N
    best = None
    for bits in range(16):
        u = np.array([(bits >> j) & 1 for j in range(4)])
        if not state.bounds.low <= u.sum() <= state.bounds.up:
            continue
        if tuple(np.flatnonzero(u)) in state.visited:
            continue
        lbn, ubn = lb.copy(), ub.copy()
        lbn[u0:u0 + 4] = u
        ubn[u0:u0 + 4] = u
        res = solve_lp(c, A, b, lbn, ubn)
        if res.status == "optimal" and (best is None or res.objective < best):
            best = res.objective
    outcome = solve_master(state)
    if best is None:
        assert outcome is None
    else:
        assert outcome is not None
        _, w = outcome
        assert w == pytest.approx(math.log(best * state.master.v_scale), abs=1e-7)


def test_goa_never_revisits_and_bounds_monotone(paper_scenario, paper_coeffs):
    for target in (1e-2, 1e-3, 1e-4):
        state = goa_solve(paper_scenario, paper_coeffs, 1200.0, target)
        assert len(set(state.visited)) == len(state.visited)
        ubd = state.ubd_history
        assert all(b <= a + 1e-12 for a, b in zip(ubd, ubd[1:]))
        lbd = state.lbd_history
        assert all(b >= a - 1e-12 for a, b in zip(lbd, lbd[1:]))
        if state.lbd_history and math.isfinite(state.ubd):
            assert state.lbd <= state.ubd + GOA_REL_TOL * (1 + abs(state.ubd))


def test_goa_single_admissible_schedule_terminates_immediately(toy_scenario, toy_coeffs):
    state = goa_solve(toy_scenario, toy_coeffs, 100.0, 1e-2)
    assert state.incumbent is not None
    assert state.iteration == 1
    assert state.visited == [(0,)]


def test_goa_matches_brute_force_at_reference_target(paper_scenario, paper_coeffs):
    target = 1e-3
    sol = dinkelbach_solve(paper_scenario, paper_coeffs, target)
    best = None
    for k in range(2, 5):
        for subset in combinations(range(4), k):
            r = dinkelbach_fixed_schedule(paper_scenario, paper_coeffs,
                                          RelaySchedule.from_indices(subset, 4), target)
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


def test_fixed_schedule_counts_unconverged_primals(paper_scenario, paper_coeffs):
    sched = RelaySchedule.from_indices([0, 1, 2], 4)
    sol = dinkelbach_fixed_schedule(paper_scenario, paper_coeffs, sched, 1e-3)
    assert sol.diagnostics["primal_unconverged"] == 0


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


# schedule, GOA iterations, cuts and EE of paper.cfg per (scheme, target)
PAPER_MASTER_RESULTS = {
    ("mdnc", 1e-2): ((0, 2), 12, 12, 783.0075496313098),
    ("mdnc", 1e-3): ((0, 1, 2), 8, 8, 567.8600391730046),
    ("mdnc", 1e-4): ((0, 1, 2), 8, 8, 563.9915982539757),
    ("mdnc", 1e-5): ((0, 1, 2), 8, 8, 550.657050890315),
    ("nonc", 1e-2): ((0,), 12, 12, 933.3897578534938),
    ("nonc", 1e-3): ((0,), 8, 8, 902.1859586213831),
    ("nonc", 1e-4): ((0, 2), 12, 12, 532.2684733770477),
    ("nonc", 1e-5): ((0, 2), 12, 12, 526.9936995595244),
}


@pytest.mark.parametrize("scheme", ["mdnc", "nonc"])
def test_master_solves_each_lp_once(paper_scenario, paper_coeffs, monkeypatch, scheme):
    from mdncee import optimizer

    real_lp, real_master = optimizer.solve_lp, optimizer.solve_master
    seen: set = set()
    repeats = []

    def recording_lp(c, A, b, lb, ub, warm=None):
        key = tuple(np.asarray(a, dtype=float).tobytes() for a in (A, b, lb, ub))
        if key in seen:
            repeats.append(len(seen))
        seen.add(key)
        return real_lp(c, A, b, lb, ub, warm=warm)

    def fresh_master(state):
        seen.clear()
        return real_master(state)

    monkeypatch.setattr(optimizer, "solve_lp", recording_lp)
    monkeypatch.setattr(optimizer, "solve_master", fresh_master)
    for target in (1e-2, 1e-3, 1e-4, 1e-5):
        sol = dinkelbach_solve(paper_scenario, paper_coeffs, target, scheme=scheme)
        assert repeats == [], f"{len(repeats)} repeated master LPs at {target:g}"
        relays, goa_iters, cuts, ee = PAPER_MASTER_RESULTS[scheme, target]
        assert sol.schedule.theta == relays
        assert sum(i["goa_iterations"] for i in sol.diagnostics["inner"]) == goa_iters
        assert sol.diagnostics["cuts_total"] == cuts
        assert sol.ee == pytest.approx(ee, rel=1e-9)


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
    lps = total = 0
    for target in (1e-2, 1e-3, 1e-4, 1e-5):
        sol = dinkelbach_solve(paper_scenario, paper_coeffs, target, scheme=scheme)
        lps += sol.diagnostics["master_lps"]
        total += sol.diagnostics["master_pivots"]
    # every master solves its root cold and every other LP from its parent
    assert len(pivots["cold"]) == sum(PAPER_MASTER_RESULTS[scheme, t][1] for t in
                                      (1e-2, 1e-3, 1e-4, 1e-5))
    assert lps == len(pivots["cold"]) + len(pivots["warm"])
    assert total == sum(pivots["cold"]) + sum(pivots["warm"])
    assert np.mean(pivots["warm"]) < np.mean(pivots["cold"])


@pytest.mark.parametrize("scheme", ["mdnc", "nonc"])
def test_all_relay_outage_built_once_per_solve(paper_scenario, paper_coeffs, monkeypatch, scheme):
    from mdncee import optimizer

    real = optimizer._all_relay_outage
    builds = []

    def counting(s, coeffs, scheme):
        builds.append(tuple(range(s.N)))
        return real(s, coeffs, scheme)

    monkeypatch.setattr(optimizer, "_all_relay_outage", counting)
    sol = dinkelbach_solve(paper_scenario, paper_coeffs, 1e-3, scheme=scheme)
    assert sol.diagnostics["goa_states"] > 1
    assert builds == [(0, 1, 2, 3)]
    goa_solve(paper_scenario, paper_coeffs, sol.q_star, 1e-3, scheme=scheme)
    assert builds == [(0, 1, 2, 3)] * 2


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


def test_goa_matches_brute_force_at_eight_relays():
    # the N = 8, M = 2 scenario that bench/workloads.random_scenario draws from seed [1, 8, 2]
    from mdncee.simulate import brute_force_optimize

    s = _random_small_scenario(np.random.default_rng([1, 8, 2]), M=2, N=8)
    coeffs = build_link_coefficients(s)
    goa = dinkelbach_solve(s, coeffs, 1e-3)
    brute = brute_force_optimize(s, coeffs, 1e-3)
    assert goa.schedule.theta == brute.schedule.theta
    assert goa.ee >= brute.ee * (1.0 - 1e-3)


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
    sol = dinkelbach_fixed_schedule(toy_scenario, toy_coeffs, sched, target)
    best = grid_maximize_toy_ratio(toy_scenario, toy_coeffs, sched, target)
    assert sol.q_star >= best - 1e-6 * best
    assert sol.q_star == pytest.approx(best, rel=1e-4)


def test_vacuous_target_gives_unconstrained_optimum(toy_scenario, toy_coeffs):
    sched = RelaySchedule.from_indices([0], 1)
    sol = dinkelbach_fixed_schedule(toy_scenario, toy_coeffs, sched, 0.999999)
    pp = assemble_primal(toy_scenario, toy_coeffs, sched, sol.q_star, target=0.999999)
    from mdncee.convex_solver import gradients
    x = np.concatenate([np.log(sol.powers.p), np.log1p(sol.powers.p_relay / toy_coeffs.c_g)])
    gtv, _ = gradients(pp, x)
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
