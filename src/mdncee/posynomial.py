"""Sums of exponentials of affine functions, the convexity workhorse.

A Posynomial here is P(x) = sum_k coef_k * exp(a_k . x) with coef_k > 0 and
integer exponent rows a_k. In the log-transformed power variables every
quantity the solver touches -- the approximated outage probability, the
substituted energy, the shifted subtractive objective -- takes this form, so
log P is a log-sum-exp of affine functions and therefore convex. Values,
gradients and Hessians of both P and log P are analytic.

The class is a term matrix and its evaluator, with no algebra: builders
assemble the coefficient vector and exponent rows directly (the outage
terms by counting recursions, the energy terms by stacking rows), and
evaluation treats repeated rows as a sum, so nothing needs merging.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Posynomial"]


class Posynomial:
    """Immutable positive combination of exponentials exp(a_k . x)."""

    __slots__ = ("coeffs", "expos", "dim")

    def __init__(self, coeffs, expos, dim: int | None = None):
        coeffs = np.asarray(coeffs, dtype=float)
        expos = np.asarray(expos, dtype=float)
        if expos.ndim == 1:
            expos = expos.reshape(len(coeffs), -1)
        if dim is None:
            dim = expos.shape[1] if expos.size else 0
        if expos.size == 0:
            expos = expos.reshape(0, dim)
        if np.any(coeffs < 0):
            raise ValueError("posynomial coefficients must be nonnegative")
        keep = coeffs > 0
        self.coeffs = coeffs[keep]
        self.expos = expos[keep]
        self.dim = dim

    @property
    def n_terms(self) -> int:
        return len(self.coeffs)

    # -- evaluation ---------------------------------------------------------

    def _exponents(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.expos @ x

    def value(self, x) -> float:
        if len(self.coeffs) == 0:
            return 0.0
        return float(self.coeffs @ np.exp(self._exponents(x)))

    def value_grad(self, x):
        """(P, grad P) at x: the first two of parts, by the same arithmetic."""
        if len(self.coeffs) == 0:
            return 0.0, np.zeros(self.dim)
        e = np.exp(self._exponents(x))
        return float(self.coeffs @ e), (self.coeffs * e) @ self.expos

    def parts(self, x):
        """(P, grad P, Hessian of P) at x from one exponent evaluation."""
        if len(self.coeffs) == 0:
            return 0.0, np.zeros(self.dim), np.zeros((self.dim, self.dim))
        e = np.exp(self._exponents(x))
        t = self.coeffs * e
        return float(self.coeffs @ e), t @ self.expos, self.expos.T @ (t[:, None] * self.expos)

    def _shifted_terms(self, x):
        # log-sum-exp with max shift so extreme exponents stay in range
        z = self._exponents(x) + np.log(self.coeffs)
        zmax = np.max(z)
        return zmax, np.exp(z - zmax)

    def logvalue(self, x) -> float:
        if len(self.coeffs) == 0:
            return -np.inf
        zmax, e = self._shifted_terms(x)
        return float(zmax + np.log(np.sum(e)))

    def log_parts(self, x):
        """(log P, its gradient, its Hessian) at x from one exponent evaluation.

        With softmax weights w over the terms, the gradient is A^T w and the
        Hessian A^T diag(w) A - (A^T w)(A^T w)^T, PSD by construction.
        """
        if len(self.coeffs) == 0:
            raise ValueError("log of an empty posynomial")
        zmax, e = self._shifted_terms(x)
        total = np.sum(e)
        w = e / total
        mean = w @ self.expos
        hess = self.expos.T @ (w[:, None] * self.expos) - np.outer(mean, mean)
        return float(zmax + np.log(total)), mean, hess

    def __repr__(self):
        return f"Posynomial({self.n_terms} terms, dim={self.dim})"
