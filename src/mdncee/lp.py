"""Dense dual simplex, warm-startable, for the small master-problem LPs.

Minimizes c.x subject to A x <= b and finite boxes lb <= x <= ub. The
outer-approximation master relaxations have a few dozen columns and tens
to over a hundred rows: under a hundred on the benchmark's N <= 6 masters,
and 105 in the median pivot of the 308 LPs of a (3, 12) MDNC solve at 1e-3.
The tableau is dense, the simplest correct form, though at a hundred rows
most of a pivot's update touches zeros.

Cold start. Each variable is measured from one end of its box: y = x - lb,
or y = ub - x when it is complemented. The cold start complements the
variables of negative cost, so every cost is >= 0 and the all-slack basis is
dual feasible whatever the right-hand side. Rows are equilibrated to unit
max-abs (an exact reformulation). The dual simplex then restores primal
feasibility: the basic value farthest outside its box leaves (one past its
far end is first complemented in place), and the entering column passes the
dual ratio test (largest pivot among ties). A negative row with no negative
entry proves infeasibility.

Anti-cycling. Reduced costs below COST_TOL are set to exactly zero after
each pivot, so a degenerate pivot (zero dual step) leaves the dual objective
exactly unchanged, and only a run of degenerate pivots can revisit a basis.
When one does, both choices switch to Bland's smallest-index rule for the
rest of the solve, which terminates. The master LPs are highly dual
degenerate (only the epigraph variable has a cost); without the zeroing,
round-off reduced costs hide degenerate pivots from that test and steer
Bland's rule into cycles of its own. Bland's rule takes the smallest index
only among the ties whose entry is at least PIVOT_REL times the largest
tied one: a 4e-11 pivot tied with a 3.4 one once drove a reduced cost to
-2e6 on a 373-row master.

Safe pivots. A warm start inherits a tableau that many pivots have
rounded. A warm solve that meets a pivot below PIVOT_REL times its row's
largest entry, or a pivot that leaves a reduced cost below -COST_TOL (the
basis is then no longer dual feasible), gives up and re-solves cold from
the all-slack basis; its pivots count too. A cold solve has no better start
to fall back on and goes on. On 130 GOA solves (bench/workloads'
random_scenario [1, N, M] for M = 2, 3 and N = 4, 6, 8, pool_scenario(0..5)
and paper.cfg, at 1e-2 ... 1e-6, both schemes), 7 of 3,530 warm solves fall
back.

Warm start. The reduced costs do not depend on b, lb or ub, so an LP that
differs from a solved one only there keeps the solved optimal basis and
complement flags dual feasible. solve_lp(..., warm=parent) rebuilds the
initial right-hand side for the new data, maps it through B^-1 (the final
tableau's slack block) and continues the dual simplex, reusing the
parent's row scales, since A's leading rows are the same. A
branch-and-bound child, which fixes one variable, re-solves in a few
pivots.

Appended rows. warm may also come from an LP over only the first k rows of
A. Each appended row, in the parent's complemented variables, is reduced
against the basic structural columns, and its slack (a column after the old
slacks) enters the basis: it has no cost, so every reduced cost is unchanged
and the basis stays dual feasible. This is how an outer-approximation tree
adds a new cut to an open node without re-solving it cold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["LpResult", "solve_lp"]

FEAS_TOL = 1e-9             # a basic value this far outside its box is infeasible
COST_TOL = 1e-9             # a reduced cost below COST_TOL in magnitude is zero
PIVOT_TOL = 1e-11           # smallest usable pivot magnitude
RATIO_TIE = 1e-12           # dual ratios this close count as tied
PIVOT_REL = 1e-9            # a pivot this much smaller than its row's largest entry is unsafe
MAX_ITER = 20000


@dataclass
class LpResult:
    """Outcome of one LP. An optimal result keeps its final tableau, basis and
    complement flags, from which an LP differing only in b, lb or ub starts."""

    status: str               # "optimal" | "infeasible"
    x: np.ndarray | None
    objective: float | None
    pivots: int = 0
    tableau: np.ndarray | None = field(default=None, repr=False)
    basis: np.ndarray | None = field(default=None, repr=False)
    complemented: np.ndarray | None = field(default=None, repr=False)  # y = ub - x
    scale: np.ndarray | None = field(default=None, repr=False)         # row equilibration


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    prow = tableau[row]
    prow /= prow[col]
    factor = tableau[:, col].copy()
    factor[row] = 0.0
    # one dense rank-1 update: where the pivot row is zero it subtracts a
    # zero, which can change only the sign of a zero entry
    tableau -= factor[:, None] * prow
    basis[row] = col


def _dual_simplex(tableau: np.ndarray, basis: np.ndarray, width: np.ndarray,
                  complemented: np.ndarray, warm: bool) -> tuple[str, int]:
    """Pivot a dual-feasible tableau to optimality; returns (status, pivots).
    width: each column's box width (inf for a slack); complemented: updated in
    place. A warm solve gives up with status "unstable" on a pivot below
    PIVOT_REL times its row's largest entry, or on one that leaves a reduced
    cost below -COST_TOL: its tableau has lost the digits a cold start has."""
    m = len(basis)
    if m == 0:              # no rows: each variable sits at an end of its box
        return "optimal", 0
    rhs = tableau[:m, -1]
    costs = tableau[-1, :-1]
    widths = width[basis]               # each row's basic box width, kept current
    basic = np.zeros(len(width), dtype=bool)
    basic[basis] = True
    bland = False
    stalled: set[bytes] = set()         # states met since the dual objective last rose
    for iteration in range(MAX_ITER):
        over = rhs - widths
        violation = np.maximum(-rhs, over)
        row = int(np.where(violation > FEAS_TOL, basis, len(width)).argmin() if bland
                  else violation.argmax())
        if violation[row] <= FEAS_TOL:
            return "optimal", iteration
        j = basis[row]
        if over[row] > 0.0:         # past its far end: measure it from there, below zero
            tableau[row] *= -1.0
            tableau[row, j] = 1.0
            rhs[row] += width[j]
            complemented[j] = not complemented[j]
        entries = tableau[row, :-1]
        cand = (entries < -PIVOT_TOL).nonzero()[0]
        if len(cand) == 0:
            return "infeasible", iteration
        ratios = np.maximum(costs[cand], 0.0) / -entries[cand]
        step = ratios.min()
        tied = cand[ratios <= step + RATIO_TIE]
        if bland:           # the smallest index among the ties that are not negligible pivots
            col = int(tied[entries[tied] <= PIVOT_REL * entries[tied].min()][0])
        else:
            col = int(tied[entries[tied].argmin()])
        if warm and -entries[col] < PIVOT_REL * np.abs(entries).max():
            return "unstable", iteration
        _pivot(tableau, basis, row, col)
        basic[j], basic[col] = False, True
        widths[row] = width[col]
        # round-off zeros become exact, so a degenerate pivot leaves every cost unchanged
        costs[np.abs(costs) < COST_TOL] = 0.0
        if warm and costs.min() < 0.0:
            return "unstable", iteration + 1
        if step > 0.0:
            stalled.clear()
        elif not bland:
            key = basic.tobytes() + complemented.tobytes()
            bland = key in stalled
            stalled.add(key)
    raise RuntimeError("simplex iteration limit exceeded (cycling?)")


def _append_rows(tableau: np.ndarray, basis: np.ndarray,
                 rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A tableau and its basis grown by the equilibrated y-space rows: each new
    row's slack column follows the old ones and is basic in its row."""
    (a, n), k = rows.shape, len(basis)
    m = k + a
    grown = np.zeros((m + 1, n + m + 1))     # the caller rebuilds the rhs column
    grown[:k, :n + k] = tableau[:k, :-1]
    grown[-1, :n + k] = tableau[-1, :-1]
    new = grown[k:m]
    new[:, :n] = rows
    new[:, n + k:n + m] = np.eye(a)
    # eliminate the basic structural columns: the new rows then read in the
    # extended basis, and B^-1 is again the tableau's slack block
    slots = np.flatnonzero(basis < n)
    new -= rows[:, basis[slots]] @ grown[slots]
    return grown, np.concatenate([basis, np.arange(n + k, n + m)])


def solve_lp(c, A, b, lb, ub, warm: LpResult | None = None) -> LpResult:
    """Minimize c.x subject to A x <= b and lb <= x <= ub (all finite boxes).

    warm: an optimal result of an LP with the same c and the same leading
    rows of A (all of them, or all but some appended at the end), whose basis
    and complement flags the dual simplex continues from.
    """
    c, A, b, lb, ub = (np.asarray(v, dtype=float) for v in (c, A, b, lb, ub))
    n, m = len(c), len(b)
    if A.size == 0:
        A = A.reshape(0, n)
    if np.any(ub < lb - 1e-15):
        return LpResult("infeasible", None, None)

    complemented = c < 0 if warm is None else warm.complemented.copy()
    ref = np.where(complemented, ub, lb)     # x = ub - y if complemented, else lb + y
    if warm is None:        # every row appended to the row-free LP: the all-slack basis
        tableau = np.append(np.where(complemented, -c, c), 0.0)[None]
        basis, scale = np.arange(0), np.zeros(0)
    else:
        tableau, basis, scale = warm.tableau.copy(), warm.basis.copy(), warm.scale
    if len(basis) < m:
        k = len(basis)
        scale = np.concatenate(
            [scale, np.maximum(np.max(np.abs(A[k:]), axis=1, initial=0.0), 1e-300)])
        rows = A[k:] / scale[k:, None]
        rows[:, complemented] *= -1.0
        tableau, basis = _append_rows(tableau, basis, rows)
    tableau[:m, -1] = tableau[:m, n:n + m] @ ((b - A @ ref) / scale)

    width = np.concatenate([ub - lb, np.full(m, np.inf)])
    status, pivots = _dual_simplex(tableau, basis, width, complemented, warm is not None)
    if status == "unstable":
        cold = solve_lp(c, A, b, lb, ub)
        cold.pivots += pivots
        return cold
    if status == "infeasible":
        return LpResult("infeasible", None, None, pivots)
    y = np.zeros(n + m)
    y[basis] = tableau[:m, -1]
    # snap round-off back into the box
    x = np.minimum(np.maximum(np.where(complemented, ub - y[:n], lb + y[:n]), lb), ub)
    return LpResult("optimal", x, float(c @ x), pivots, tableau, basis, complemented, scale)
