import os

import numpy as np
import pytest
from scipy.optimize import linprog

from mdncee.lp import solve_lp


def reference(c, A, b, lb, ub):
    return linprog(c, A_ub=A, b_ub=b, bounds=list(zip(lb, ub)), method="highs")


def test_small_known_optimum():
    # min -x - y st x + y <= 1.5, boxes [0,1]^2
    res = solve_lp([-1.0, -1.0], [[1.0, 1.0]], [1.5], [0.0, 0.0], [1.0, 1.0])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-1.5, abs=1e-9)


def test_infeasible_detected():
    res = solve_lp([1.0], [[1.0], [-1.0]], [-2.0, 1.0], [-10.0], [10.0])
    assert res.status == "infeasible"


def test_degenerate_redundant_rows():
    A = [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    b = [1.0, 1.0, 1.0, 0.0]
    res = solve_lp([-1.0, -1.0], A, b, [0.0, 0.0], [5.0, 5.0])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-1.0, abs=1e-9)


def test_equality_via_opposing_rows():
    # x + y <= 2 and -(x + y) <= -2 pin x + y = 2
    res = solve_lp([1.0, 2.0], [[1, 1], [-1, -1]], [2.0, -2.0], [0.0, 0.0], [3.0, 3.0])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(2.0, abs=1e-9)


def test_fuzz_against_scipy():
    rng = np.random.default_rng(99)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 20))
        A = rng.normal(size=(m, n)) * rng.choice([1e-3, 1.0, 1e3], size=(m, 1))
        lb = rng.uniform(-4, 0, n)
        ub = lb + rng.uniform(0.1, 8, n)
        b = A @ rng.uniform(lb, ub) + rng.uniform(-1, 2, m)
        c = rng.normal(size=n)
        ours = solve_lp(c, A, b, lb, ub)
        ref = reference(c, A, b, lb, ub)
        if ref.status == 0:
            assert ours.status == "optimal"
            assert ours.objective == pytest.approx(ref.fun, rel=1e-6, abs=1e-7)
            assert np.all(A @ ours.x <= b + 1e-7)
            checked += 1
        elif ref.status == 2:
            assert ours.status == "infeasible"
    assert checked > 50


def test_wide_coefficient_spread():
    # master-like scaling: one row has coefficients spanning ten orders
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = 5
        A = np.vstack([
            np.array([1e5, 1e-3, 2e4, -6e5, 1.0]),
            rng.normal(size=(4, n)),
        ])
        lb = np.full(n, -2.0)
        ub = np.full(n, 2.0)
        b = A @ rng.uniform(lb, ub) + rng.uniform(0.1, 1.0, 5)
        c = rng.normal(size=n)
        ours = solve_lp(c, A, b, lb, ub)
        ref = reference(c, A, b, lb, ub)
        assert ours.status == "optimal" and ref.status == 0
        assert ours.objective == pytest.approx(ref.fun, rel=1e-6, abs=1e-6)


def _random_lp(rng):
    n = int(rng.integers(2, 9))
    m = int(rng.integers(1, 20))
    A = rng.normal(size=(m, n)) * rng.choice([1e-3, 1.0, 1e3], size=(m, 1))
    lb = rng.uniform(-4, 0, n)
    ub = lb + rng.uniform(0.1, 8, n)
    b = A @ rng.uniform(lb, ub) + rng.uniform(-1, 2, m)
    c = rng.normal(size=n)
    return c, A, b, lb, ub


def _assert_same_outcome(ours, ref, cold, A, b):
    if ref.status == 0:
        assert ours.status == cold.status == "optimal"
        assert ours.objective == pytest.approx(ref.fun, rel=1e-6, abs=1e-7)
        assert ours.objective == pytest.approx(cold.objective, rel=1e-6, abs=1e-7)
        assert np.all(A @ ours.x <= b + 1e-7)
    else:
        assert ref.status == 2
        assert ours.status == cold.status == "infeasible"


def test_warm_start_after_one_bound_change_matches_scipy_and_cold():
    # a branch-and-bound child: one variable's box fixed or tightened, then
    # re-solved from the parent's final basis
    rng = np.random.default_rng(2024)
    kinds = {"fix": 0, "tighten": 0, "infeasible": 0}
    for _ in range(400):
        c, A, b, lb, ub = _random_lp(rng)
        parent = solve_lp(c, A, b, lb, ub)
        if parent.status != "optimal":
            continue
        j = int(rng.integers(len(c)))
        lo, hi = lb.copy(), ub.copy()
        if rng.random() < 0.5:
            lo[j] = hi[j] = rng.choice([lb[j], ub[j], rng.uniform(lb[j], ub[j])])
            kinds["fix"] += 1
        elif rng.random() < 0.5:
            lo[j] = rng.uniform(lb[j], ub[j])
            kinds["tighten"] += 1
        else:
            hi[j] = rng.uniform(lb[j], ub[j])
            kinds["tighten"] += 1
        ours = solve_lp(c, A, b, lo, hi, warm=parent)
        ref = reference(c, A, b, lo, hi)
        kinds["infeasible"] += ref.status == 2
        _assert_same_outcome(ours, ref, solve_lp(c, A, b, lo, hi), A, b)
    assert kinds["fix"] > 50 and kinds["tighten"] > 50 and kinds["infeasible"] > 10


def test_warm_start_detects_infeasible_child():
    # x + y >= 1.5 on [0,1]^2 is feasible; fixing y = 0 leaves x >= 1.5 out of the box
    A, b = [[-1.0, -1.0]], [-1.5]
    parent = solve_lp([1.0, 1.0], A, b, [0.0, 0.0], [1.0, 1.0])
    assert parent.status == "optimal"
    assert parent.objective == pytest.approx(1.5, abs=1e-9)
    child = solve_lp([1.0, 1.0], A, b, [0.0, 0.0], [1.0, 0.0], warm=parent)
    assert child.status == "infeasible"
    assert reference([1.0, 1.0], A, b, [0.0, 0.0], [1.0, 0.0]).status == 2


def test_negative_costs_start_at_the_upper_bound():
    # each variable with c_j < 0 is measured down from ub_j, so with no
    # binding row the all-slack start is already optimal
    c = [-1.0, 2.0, -3.0]
    res = solve_lp(c, [[1.0, 1.0, 1.0]], [100.0], [0.0, -1.0, 1.0], [2.0, 1.0, 4.0])
    assert res.status == "optimal" and res.pivots == 0
    assert res.x == pytest.approx([2.0, -1.0, 4.0])
    # a binding row makes the dual simplex pivot away from the upper bounds
    A, b = [[1.0, 0.0, 1.0], [0.0, 1.0, -1.0]], [3.0, -2.5]
    lb, ub = [0.0, -1.0, 1.0], [2.0, 1.0, 4.0]
    res = solve_lp(c, A, b, lb, ub)
    ref = reference(c, A, b, lb, ub)
    assert res.status == "optimal" and res.pivots > 0
    assert res.objective == pytest.approx(ref.fun, abs=1e-9)


def test_bland_switch_ends_a_cycling_master_solve(monkeypatch):
    # A master LP of the N = 8 random scenario (seed [1, 8, 2]) reached along
    # its branch-and-bound path: the root solved cold, then one u_j fixed per
    # level with warm starts. The last re-solve meets a degenerate cycle
    # under largest-infeasibility pricing; Bland's rule must end it.
    from mdncee import lp

    data = np.load(os.path.join(os.path.dirname(__file__), "data", "lp_master_cycle.npz"))
    c, A, b = data["c"], data["A"], data["b"]
    lo, hi = data["lb"].copy(), data["ub"].copy()
    res = solve_lp(c, A, b, lo, hi)
    for j, value in zip(data["fix_index"], data["fix_value"]):
        lo[j] = hi[j] = value
        parent = res
        res = solve_lp(c, A, b, lo, hi, warm=parent)

    bases = []
    real_pivot = lp._pivot

    def recording_pivot(tableau, basis, row, col):
        real_pivot(tableau, basis, row, col)
        bases.append(tuple(sorted(basis)))

    monkeypatch.setattr(lp, "_pivot", recording_pivot)
    again = solve_lp(c, A, b, lo, hi, warm=parent)
    assert len(set(bases)) < len(bases), "no basis repeated: the instance no longer cycles"
    assert again.status == "optimal" and again.pivots == res.pivots
    ref = reference(c, A, b, lo, hi)
    assert ref.status == 0
    assert again.objective == pytest.approx(ref.fun, rel=1e-9)
    assert again.objective == pytest.approx(solve_lp(c, A, b, lo, hi).objective, rel=1e-9)


def test_warm_child_with_negligible_pivots_matches_scipy(monkeypatch):
    # A 373-row master LP of the (3, 10) MDNC solve at 10^-3.5 (random
    # scenario seed [1, 10, 3]): its parent's tableau as the tree held it,
    # and the child that fixes one u_j. From that tableau the warm solve
    # once met ties whose pivots are negligible against their row: Bland's
    # rule took one of -3.9e-11 where a tied 3.43 stood, a reduced cost fell
    # to -2.1e6, and the solve ran to the iteration limit. It now gives up on
    # such a pivot and re-solves cold. From a cold solve of the parent, the
    # child once came out infeasible.
    from mdncee import lp
    from mdncee.lp import PIVOT_REL, LpResult

    data = np.load(os.path.join(os.path.dirname(__file__), "data", "lp_master_tiny_pivot.npz"))
    c, A, b = data["c"], data["A"], data["b"]
    lo, hi = data["lb"].copy(), data["ub"].copy()
    parents = [LpResult("optimal", None, None, 0, data["parent_tableau"], data["parent_basis"],
                        data["parent_complemented"], data["parent_scale"]),
               solve_lp(c, A, b, lo, hi)]
    lo[data["fix_index"]] = hi[data["fix_index"]] = data["fix_value"]
    ref = reference(c, A, b, lo, hi)
    assert ref.status == 0
    cold = solve_lp(c, A, b, lo, hi)
    assert cold.status == "optimal" and cold.objective == pytest.approx(ref.fun, rel=1e-12)

    statuses, pivots = [], []
    real_simplex, real_pivot = lp._dual_simplex, lp._pivot

    def recording_simplex(tableau, basis, width, complemented, warm):
        statuses.append(real_simplex(tableau, basis, width, complemented, warm)[0])
        return statuses[-1], len(pivots)

    def recording_pivot(tableau, basis, row, col):
        entries = tableau[row, :-1]
        pivots.append((len(statuses), -entries[col] / np.abs(entries).max()))
        real_pivot(tableau, basis, row, col)

    monkeypatch.setattr(lp, "_dual_simplex", recording_simplex)
    monkeypatch.setattr(lp, "_pivot", recording_pivot)
    runs = []
    for parent in parents:
        statuses.clear()
        pivots.clear()
        child = solve_lp(c, A, b, lo, hi, warm=parent)
        assert child.status == "optimal"
        assert child.objective == pytest.approx(ref.fun, rel=1e-9)
        # every warm pivot is a safe one: at least PIVOT_REL of its row
        assert all(rel >= PIVOT_REL for solve, rel in pivots if solve == 0)
        runs.append(statuses[:])
    assert runs == [["unstable", "optimal"], ["optimal"]]


def test_warm_start_with_appended_rows_matches_scipy_and_cold():
    # an outer-approximation tree node: solved over the first k rows, then
    # re-solved from its own basis once 1-4 rows (a new cut) are appended,
    # sometimes with one box changed too
    rng = np.random.default_rng(1992)
    kinds = {"rows": 0, "rows+bound": 0, "infeasible": 0}
    for _ in range(400):
        c, A, b, lb, ub = _random_lp(rng)
        n = len(c)
        k = int(rng.integers(0, len(b) + 1))
        parent = solve_lp(c, A[:k], b[:k], lb, ub)
        if parent.status != "optimal":
            continue
        a = int(rng.integers(1, 5))
        extra = rng.normal(size=(a, n)) * rng.choice([1e-3, 1.0, 1e3], size=(a, 1))
        # mostly cuts through the parent's optimum, sometimes far past it
        shift = rng.uniform(-1, 2, a) * np.where(rng.random(a) < 0.15, 50.0, 1.0)
        A2 = np.vstack([A[:k], extra])
        b2 = np.concatenate([b[:k], extra @ parent.x - shift])
        lo, hi = lb.copy(), ub.copy()
        if rng.random() < 0.5:
            j = int(rng.integers(n))
            lo[j] = hi[j] = rng.choice([lb[j], ub[j], rng.uniform(lb[j], ub[j])])
            kinds["rows+bound"] += 1
        else:
            kinds["rows"] += 1
        ours = solve_lp(c, A2, b2, lo, hi, warm=parent)
        ref = reference(c, A2, b2, lo, hi)
        kinds["infeasible"] += ref.status == 2
        _assert_same_outcome(ours, ref, solve_lp(c, A2, b2, lo, hi), A2, b2)
        if ours.status == "optimal":
            # the grown tableau is itself a warm start for the next append
            again = solve_lp(c, A2, b2, lo, hi, warm=ours)
            assert again.pivots == 0
            assert again.objective == pytest.approx(ours.objective, rel=1e-12, abs=1e-12)
    assert kinds["rows"] > 50 and kinds["rows+bound"] > 50 and kinds["infeasible"] > 10


def test_appended_row_that_cuts_off_the_optimum_pivots_from_the_warm_basis():
    # min x + y on [0,1]^2 with x + y >= 0.5, then x >= 0.8 appended: the
    # warm re-solve starts at the parent's vertex and needs only the new row
    c, lb, ub = [1.0, 1.0], [0.0, 0.0], [1.0, 1.0]
    parent = solve_lp(c, [[-1.0, -1.0]], [-0.5], lb, ub)
    assert parent.objective == pytest.approx(0.5, abs=1e-12)
    A, b = [[-1.0, -1.0], [-1.0, 0.0]], [-0.5, -0.8]
    child = solve_lp(c, A, b, lb, ub, warm=parent)
    assert child.status == "optimal"
    assert child.objective == pytest.approx(0.8, abs=1e-12)
    assert child.x == pytest.approx([0.8, 0.0], abs=1e-12)
    assert child.pivots == 1


def test_optimal_tableau_holds_no_box_rows():
    # the boxes are bounds on complemented variables, not rows: one row per
    # constraint plus the cost row, one column per variable and per slack
    rng = np.random.default_rng(7)
    solved = 0
    for _ in range(100):
        c, A, b, lb, ub = _random_lp(rng)
        res = solve_lp(c, A, b, lb, ub)
        if res.status == "optimal":
            assert res.tableau.shape == (len(b) + 1, len(c) + len(b) + 1)
            assert len(res.basis) == len(b) and len(res.complemented) == len(c)
            solved += 1
    assert solved > 10


def test_warm_child_complements_a_basic_variable_above_its_tightened_bound():
    # min x + y st x + y >= 0.5 on [0,1]^2: x is basic at 0.5. The child caps
    # x at 0.3, so the warm re-solve finds x past its far end, measures it
    # down from the new upper bound (x' = 0.3 - 0.5 < 0) and pivots y in
    c, A, b = [1.0, 1.0], [[-1.0, -1.0]], [-0.5]
    parent = solve_lp(c, A, b, [0.0, 0.0], [1.0, 1.0])
    assert parent.x == pytest.approx([0.5, 0.0], abs=1e-12)
    assert list(parent.basis) == [0] and not parent.complemented.any()
    child = solve_lp(c, A, b, [0.0, 0.0], [0.3, 1.0], warm=parent)
    ref = reference(c, A, b, [0.0, 0.0], [0.3, 1.0])
    assert child.status == "optimal" and ref.status == 0
    assert child.objective == pytest.approx(ref.fun, abs=1e-12)
    assert child.x == pytest.approx([0.3, 0.2], abs=1e-12)
    assert list(child.basis) == [1] and list(child.complemented) == [True, False]
    assert child.pivots == 1
    # the mirror image: negative costs start at the upper bounds, and raising
    # the basic variable's lower bound complements it back to y = x - lb
    c, A, b = [-1.0, -1.0], [[1.0, 1.0]], [1.5]
    parent = solve_lp(c, A, b, [0.0, 0.0], [1.0, 1.0])
    assert parent.x == pytest.approx([0.5, 1.0], abs=1e-12)
    assert list(parent.basis) == [0] and parent.complemented.all()
    child = solve_lp(c, A, b, [0.7, 0.0], [1.0, 1.0], warm=parent)
    ref = reference(c, A, b, [0.7, 0.0], [1.0, 1.0])
    assert child.objective == pytest.approx(ref.fun, abs=1e-12)
    assert child.x == pytest.approx([0.7, 0.8], abs=1e-12)
    assert list(child.complemented) == [False, True] and child.pivots == 1


def test_dense_pivot_matches_the_nonzero_column_update_on_the_cycling_master(monkeypatch):
    # the cycling re-solve of test_bland_switch_ends_a_cycling_master_solve:
    # every dense rank-1 pivot equals the update restricted to the pivot
    # row's nonzero columns (up to the sign of a zero), the state (basic set
    # and complement flags) after pivot 31 repeats an earlier one, which
    # switches the solve to Bland's rule, and it ends in 43 pivots
    from mdncee import lp

    data = np.load(os.path.join(os.path.dirname(__file__), "data", "lp_master_cycle.npz"))
    c, A, b = data["c"], data["A"], data["b"]
    lo, hi = data["lb"].copy(), data["ub"].copy()
    res = solve_lp(c, A, b, lo, hi)
    for j, value in zip(data["fix_index"], data["fix_value"]):
        lo[j] = hi[j] = value
        parent = res
        res = solve_lp(c, A, b, lo, hi, warm=parent)

    flags, states, mismatches = [], [], []
    real_simplex, real_pivot = lp._dual_simplex, lp._pivot

    def recording_simplex(tableau, basis, width, complemented, warm):
        flags.append(complemented)
        return real_simplex(tableau, basis, width, complemented, warm)

    def checked_pivot(tableau, basis, row, col):
        sparse = tableau.copy()
        sparse[row] /= sparse[row, col]
        factor = sparse[:, col].copy()
        factor[row] = 0.0
        nonzero = np.flatnonzero(sparse[row])
        sparse[:, nonzero] -= np.outer(factor, sparse[row, nonzero])
        real_pivot(tableau, basis, row, col)
        mismatches.append(not np.array_equal(tableau, sparse))
        states.append(np.sort(basis).tobytes() + flags[-1].tobytes())

    monkeypatch.setattr(lp, "_dual_simplex", recording_simplex)
    monkeypatch.setattr(lp, "_pivot", checked_pivot)
    again = solve_lp(c, A, b, lo, hi, warm=parent)
    assert again.status == "optimal" and again.pivots == 43 == len(states)
    assert not any(mismatches)
    repeat = next(i for i, state in enumerate(states) if state in states[:i])
    assert repeat == 31
