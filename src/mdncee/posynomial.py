"""Sums of exponentials of affine functions, the convexity workhorse.

A Posynomial here is P(x) = sum_k coef_k * exp(a_k . x) with coef_k > 0 and
integer exponent rows a_k. In the log-transformed power variables every
quantity the solver touches -- the approximated outage probability, the
substituted energy, the shifted subtractive objective -- takes this form, so
log P is a log-sum-exp of affine functions and therefore convex.

The class is a term matrix and its evaluator, with no algebra: builders
assemble the coefficient vector and exponent rows directly (the outage
terms by counting recursions, the energy terms by stacking rows), and
evaluation treats repeated rows as a sum, so nothing needs merging. A
Posynomial gives P and log P. The barrier's gradients and Hessians of
log P and P come from the stacked terms in convex_solver._BarrierStack.
The master's cuts use no posynomial: their outage values and gradients
come from the counting recursion on numbers (optimizer.MasterModel), and
an energy term w*e^(x_k) is its own gradient. Term matrices serve only
the fixed-schedule barriers (the primal and its max-slack point), which
read them at every iterate; every other reading of the outage is the
recursion's (convex_solver.PrimalProblem.outage_at).

All evaluation goes through one evaluator, `stacked_terms`, over a stack of
posynomials: their exponent rows one under another, their log-coefficients,
and the row where each one (a segment) starts. The barrier solver stacks an
objective and its constraints and pays one exponent pass per iterate; a
Posynomial is a stack of one segment. Each segment is shifted by its own
largest exponent, so P = exp(zmax) * sum exp(z - zmax) and
log P = zmax + log sum exp(z - zmax). The exponents come from a row-by-row
`einsum` and the sums from `reduceat`, whose results do not depend on what
else is stacked: a posynomial's value inside a stack equals its standalone
value bit for bit. A BLAS matrix-vector product (`A @ x`) does not promise
that, and in practice its last bits change with the rows around a row.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Posynomial", "segment_logvalues", "segment_values", "stacked_terms"]

_ONE_SEGMENT = np.zeros(1, dtype=np.intp)


def stacked_terms(expos, logc, starts, x, segment=None):
    """Shifted term exponentials of stacked posynomials at x.

    Segment s holds rows starts[s] up to the next start (or the end); every
    segment must be nonempty. segment, the segment of each row, is needed
    when there is more than one. Returns (zmax, e, sums): the largest
    exponent z = a_k . x + log coef_k of each segment, e = exp(z - zmax)
    per row with its own segment's zmax, and the sum of e over each segment.
    """
    z = np.einsum("ij,j->i", expos, x) + logc
    zmax = np.maximum.reduceat(z, starts)
    e = np.exp(z - (zmax if segment is None else zmax[segment]))
    return zmax, e, np.add.reduceat(e, starts)


def segment_values(zmax, sums):
    """P per segment from stacked_terms' zmax and sums."""
    return np.exp(zmax) * sums


def segment_logvalues(zmax, sums):
    """log P per segment from stacked_terms' zmax and sums."""
    return zmax + np.log(sums)


class Posynomial:
    """Immutable positive combination of exponentials exp(a_k . x)."""

    __slots__ = ("coeffs", "expos", "logc", "dim")

    def __init__(self, coeffs, expos, dim: int | None = None):
        coeffs = np.asarray(coeffs, dtype=float)
        expos = np.asarray(expos, dtype=float)
        if dim is None:
            dim = expos.shape[1] if expos.size else 0
        if expos.size == 0:
            expos = expos.reshape(0, dim)
        if np.any(coeffs < 0):
            raise ValueError("posynomial coefficients must be nonnegative")
        keep = coeffs > 0
        self.coeffs = coeffs[keep]
        self.expos = expos[keep]
        self.logc = np.log(self.coeffs)
        self.dim = dim

    @property
    def n_terms(self) -> int:
        return len(self.coeffs)

    # -- evaluation: one-segment calls of stacked_terms ---------------------

    def _terms(self, x):
        return stacked_terms(self.expos, self.logc, _ONE_SEGMENT, np.asarray(x, dtype=float))

    def value(self, x) -> float:
        if len(self.coeffs) == 0:
            return 0.0
        zmax, _, total = self._terms(x)
        return float(segment_values(zmax, total)[0])

    def logvalue(self, x) -> float:
        if len(self.coeffs) == 0:
            return -np.inf
        zmax, _, total = self._terms(x)
        return float(segment_logvalues(zmax, total)[0])

    def __repr__(self):
        return f"Posynomial({self.n_terms} terms, dim={self.dim})"
