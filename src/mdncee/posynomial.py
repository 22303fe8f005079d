"""Sums of exponentials of affine functions, the convexity workhorse.

A Posynomial here is P(x) = sum_k coef_k * exp(a_k . x) with coef_k > 0 and
integer exponent rows a_k. In the log-transformed power variables every
quantity the solver touches -- the approximated outage probability, the
substituted energy, the shifted subtractive objective -- takes this form, so
log P is a log-sum-exp of affine functions and therefore convex. Values,
gradients and Hessians of both P and log P are analytic.
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

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, value: float, dim: int) -> "Posynomial":
        if value == 0:
            return cls(np.zeros(0), np.zeros((0, dim)), dim)
        return cls([value], np.zeros((1, dim)), dim)

    @classmethod
    def single_var(cls, coef: float, var: int, power: float, dim: int) -> "Posynomial":
        """coef * exp(power * x[var])."""
        e = np.zeros((1, dim))
        e[0, var] = power
        return cls([coef], e, dim)

    # -- algebra ------------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = Posynomial.constant(float(other), self.dim)
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return Posynomial(
            np.concatenate([self.coeffs, other.coeffs]),
            np.vstack([self.expos, other.expos]),
            self.dim,
        ).merged()

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            if other < 0:
                raise ValueError("posynomials are closed under nonnegative scaling only")
            return Posynomial(self.coeffs * other, self.expos, self.dim)
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        if len(self.coeffs) == 0 or len(other.coeffs) == 0:
            return Posynomial.constant(0.0, self.dim)
        coeffs = np.outer(self.coeffs, other.coeffs).ravel()
        expos = (self.expos[:, None, :] + other.expos[None, :, :]).reshape(-1, self.dim)
        return Posynomial(coeffs, expos, self.dim).merged()

    __rmul__ = __mul__

    def merged(self) -> "Posynomial":
        """Combine terms with identical exponent rows; ordering is deterministic."""
        if len(self.coeffs) <= 1:
            return self
        seen: dict[tuple, int] = {}
        coeffs: list[float] = []
        expos: list[np.ndarray] = []
        for c, e in zip(self.coeffs, self.expos):
            key = tuple(e)
            if key in seen:
                coeffs[seen[key]] += c
            else:
                seen[key] = len(coeffs)
                coeffs.append(c)
                expos.append(e)
        return Posynomial(np.array(coeffs), np.array(expos), self.dim)

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

    def grad(self, x) -> np.ndarray:
        if len(self.coeffs) == 0:
            return np.zeros(self.dim)
        t = self.coeffs * np.exp(self._exponents(x))
        return t @ self.expos

    def hess(self, x) -> np.ndarray:
        if len(self.coeffs) == 0:
            return np.zeros((self.dim, self.dim))
        t = self.coeffs * np.exp(self._exponents(x))
        return self.expos.T @ (t[:, None] * self.expos)

    def logvalue(self, x) -> float:
        # log-sum-exp with max shift so extreme exponents stay in range
        if len(self.coeffs) == 0:
            return -np.inf
        z = self._exponents(x) + np.log(self.coeffs)
        zmax = np.max(z)
        return float(zmax + np.log(np.sum(np.exp(z - zmax))))

    def _softmax_weights(self, x) -> np.ndarray:
        z = self._exponents(x) + np.log(self.coeffs)
        z -= np.max(z)
        w = np.exp(z)
        return w / np.sum(w)

    def loggrad(self, x) -> np.ndarray:
        if len(self.coeffs) == 0:
            raise ValueError("log of an empty posynomial")
        w = self._softmax_weights(x)
        return w @ self.expos

    def loghess(self, x) -> np.ndarray:
        """Hessian of log P: A^T diag(w) A - (A^T w)(A^T w)^T, PSD by construction."""
        w = self._softmax_weights(x)
        mean = w @ self.expos
        return self.expos.T @ (w[:, None] * self.expos) - np.outer(mean, mean)

    def __repr__(self):
        return f"Posynomial({self.n_terms} terms, dim={self.dim})"
