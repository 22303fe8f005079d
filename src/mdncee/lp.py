"""Dense dual simplex, warm-startable, for the small master-problem LPs.

Minimizes c.x subject to A x <= b and finite boxes lb <= x <= ub. The
outer-approximation master relaxations have a few dozen columns and one to
two hundred rows, so a dense tableau is the simplest correct tool.

Cold start. Each variable is measured from the end of its box that its cost
prefers: y = x - lb when c_j >= 0, y = ub - x when c_j < 0. Every cost is
then >= 0, the far ends of the boxes are explicit rows y <= ub - lb, and the
all-slack basis is dual feasible whatever the right-hand side. Rows are
equilibrated to unit max-abs (an exact reformulation). The dual simplex then
restores primal feasibility: the most negative basic value leaves, and the
entering column passes the dual ratio test (largest pivot among ties). A
negative row with no negative entry proves infeasibility.

Anti-cycling. Reduced costs below COST_TOL are set to exactly zero after
each pivot, so a degenerate pivot (zero dual step) leaves the dual objective
exactly unchanged, and only a run of degenerate pivots can revisit a basis.
When one does, both choices switch to Bland's smallest-index rule for the
rest of the solve, which terminates. The master LPs are highly dual
degenerate (only the epigraph variable has a cost); without the zeroing,
round-off reduced costs hide degenerate pivots from that test and steer
Bland's rule into cycles of its own.

Warm start. The reduced costs do not depend on b, lb or ub, so an LP that
differs from a solved one only there keeps the solved optimal basis dual
feasible. solve_lp(..., warm=parent) rebuilds the initial right-hand side
for the new data, maps it through B^-1 (the final tableau's slack block) and
continues the dual simplex from the parent's basis. A branch-and-bound child,
which fixes one variable, re-solves in a few pivots.

Appended rows. warm may also come from an LP over only the first k rows of
A. Each appended row is reduced against the basic structural columns, and
its slack enters the basis: the slack has no cost, so every reduced cost is
unchanged and the extended basis is still dual feasible. The dual simplex
then continues as above. This is how an outer-approximation tree adds a new
cut to an open node without re-solving it cold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["LpResult", "solve_lp"]

FEAS_TOL = 1e-9             # a basic value below -FEAS_TOL is infeasible
COST_TOL = 1e-9             # a reduced cost below COST_TOL in magnitude is zero
PIVOT_TOL = 1e-11           # smallest usable pivot magnitude
RATIO_TIE = 1e-12           # dual ratios this close count as tied
MAX_ITER = 20000


@dataclass
class LpResult:
    """Outcome of one LP. An optimal result keeps its final tableau and basis
    so that an LP differing only in b, lb or ub can start from it."""

    status: str               # "optimal" | "infeasible"
    x: np.ndarray | None
    objective: float | None
    pivots: int = 0
    tableau: np.ndarray | None = field(default=None, repr=False)
    basis: np.ndarray | None = field(default=None, repr=False)


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factor = tableau[:, col].copy()
    factor[row] = 0.0
    # the pivot row is sparse (about one entry in eight in the master): skip its zeros
    nonzero = np.flatnonzero(tableau[row])
    tableau[:, nonzero] -= np.outer(factor, tableau[row, nonzero])
    basis[row] = col


def _dual_simplex(tableau: np.ndarray, basis: np.ndarray) -> tuple[str, int]:
    """Pivot a dual-feasible tableau to optimality; returns (status, pivots)."""
    m = len(basis)
    rhs = tableau[:m, -1]
    costs = tableau[-1, :-1]
    bland = False
    stalled: set[bytes] = set()         # bases met since the dual objective last rose
    for iteration in range(MAX_ITER):
        short = np.flatnonzero(rhs < -FEAS_TOL)
        if len(short) == 0:
            return "optimal", iteration
        row = int(short[np.argmin(basis[short] if bland else rhs[short])])
        entries = tableau[row, :-1]
        cand = np.flatnonzero(entries < -PIVOT_TOL)
        if len(cand) == 0:
            return "infeasible", iteration
        ratios = np.maximum(costs[cand], 0.0) / -entries[cand]
        step = ratios.min()
        tied = cand[ratios <= step + RATIO_TIE]
        col = int(tied[0] if bland else tied[np.argmin(entries[tied])])
        _pivot(tableau, basis, row, col)
        # round-off zeros become exact, so a degenerate pivot leaves every cost unchanged
        costs[np.abs(costs) < COST_TOL] = 0.0
        if step > 0.0:
            stalled.clear()
        elif not bland:
            key = np.sort(basis).tobytes()
            bland = key in stalled
            stalled.add(key)
    raise RuntimeError("simplex iteration limit exceeded (cycling?)")


def _append_rows(warm: LpResult, rows: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """warm's tableau and basis grown by the equilibrated y-space rows.

    Constraint rows come before the n box rows, so the new slack columns go
    between the old row slacks and the box slacks; the new rows go last,
    each with its own slack basic.
    """
    m_old = len(warm.basis)
    k, a = m_old - n, len(rows)
    m = m_old + a
    tableau = np.zeros((m + 1, n + m + 1))
    keep = np.concatenate([np.arange(n + k), np.arange(n + k + a, n + m + 1)])
    tableau[np.ix_(np.r_[:m_old, m], keep)] = warm.tableau
    new = tableau[m_old:m]
    new[:, :n] = rows
    new[:, n + k:n + k + a] = np.eye(a)
    # eliminate the basic structural columns: the new rows then read in the
    # extended basis, and B^-1 is again the tableau's slack block
    slots = np.flatnonzero(warm.basis < n)
    new -= rows[:, warm.basis[slots]] @ tableau[slots]
    basis = np.where(warm.basis < n + k, warm.basis, warm.basis + a)
    return tableau, np.concatenate([basis, np.arange(n + k, n + k + a)])


def solve_lp(c, A, b, lb, ub, warm: LpResult | None = None) -> LpResult:
    """Minimize c.x subject to A x <= b and lb <= x <= ub (all finite boxes).

    warm: an optimal result of an LP with the same c and the same leading
    rows of A (all of them, or all but some appended at the end), whose basis
    the dual simplex continues from.
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    n = len(c)
    if A.size == 0:
        A = A.reshape(0, n)
    if np.any(ub < lb - 1e-15):
        return LpResult("infeasible", None, None)

    sign = np.where(c < 0, -1.0, 1.0)
    ref = np.where(c < 0, ub, lb)            # x = ref + sign * y with y >= 0
    scale = np.concatenate([np.maximum(np.max(np.abs(A), axis=1, initial=0.0), 1e-300),
                            np.ones(n)])
    rhs0 = np.concatenate([b - A @ ref, ub - lb]) / scale
    m = len(rhs0)
    if warm is None:
        tableau = np.zeros((m + 1, n + m + 1))
        tableau[:m, :n] = np.vstack([A * sign, np.eye(n)]) / scale[:, None]
        tableau[:m, n:n + m] = np.eye(m)
        tableau[:m, -1] = rhs0
        tableau[-1, :n] = c * sign
        basis = np.arange(n, n + m)
    else:
        k = len(warm.basis) - n
        if k == len(A):
            tableau = warm.tableau.copy()
            basis = warm.basis.copy()
        else:
            tableau, basis = _append_rows(warm, A[k:] * sign / scale[k:len(A), None], n)
        tableau[:m, -1] = tableau[:m, n:n + m] @ rhs0

    status, pivots = _dual_simplex(tableau, basis)
    if status == "infeasible":
        return LpResult("infeasible", None, None, pivots)
    y = np.zeros(n + m)
    y[basis] = tableau[:m, -1]
    # snap round-off back into the box
    x = np.minimum(np.maximum(ref + sign * y[:n], lb), ub)
    return LpResult("optimal", x, float(c @ x), pivots, tableau, basis)
