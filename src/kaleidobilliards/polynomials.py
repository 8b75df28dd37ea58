"""Homogeneous polynomials in three relative coordinates.

Coefficients are held in a dense lower-triangular array ``C[a, b]`` giving the
coefficient of ``z1**a * z2**b * z3**(degree-a-b)``.  That layout makes the
operations the solvers lean on (products, Laplacians, composition with a 3x3
matrix, sphere inner products) pure array work.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache

import numpy as np

__all__ = [
    "HomogeneousPolynomial",
    "linear_form",
    "product_of_linear_forms",
    "monomial_images",
    "moment_gram",
]


@lru_cache(maxsize=None)
def _exponent_arrays(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (a, b) monomial exponents, a then b ascending; z3's is degree-a-b."""
    e = np.arange(degree + 1)
    aa, bb = np.nonzero(e[:, None] + e <= degree)
    aa.flags.writeable = bb.flags.writeable = False
    return aa, bb


@lru_cache(maxsize=64)
def moment_gram(d1: int, d2: int) -> np.ndarray:
    """Sphere moments between all degree-d1 and all degree-d2 monomials.

    Entry (i, j) integrates monomial i of ``_exponent_arrays(d1)`` times
    monomial j of ``_exponent_arrays(d2)`` over the unit two-sphere; odd
    exponent sums integrate to zero.  Extended precision and read-only: the
    monomial basis is severely cancellation-prone at high degree
    (Legendre-type coefficients grow like 4^degree), so the Gram is built and
    meant to be contracted in longdouble.
    """
    a1, b1 = _exponent_arrays(d1)
    a2, b2 = _exponent_arrays(d2)
    asum = a1[:, None] + a2[None, :]
    bsum = b1[:, None] + b2[None, :]
    csum = (d1 - a1 - b1)[:, None] + (d2 - a2 - b2)[None, :]
    # df[n] = (n-1)!! with df[0] = df[1] = 1
    df = np.ones(d1 + d2 + 3, dtype=np.longdouble)
    for n in range(2, d1 + d2 + 3):
        df[n] = df[n - 2] * (n - 1)
    odd = (asum % 2 != 0) | (bsum % 2 != 0) | (csum % 2 != 0)
    out = df[asum] * df[bsum] * df[csum] / df[asum + bsum + csum + 2]
    out *= np.longdouble(4) * np.longdouble(math.pi)
    out[odd] = 0.0
    out.flags.writeable = False
    return out


class HomogeneousPolynomial:
    """Homogeneous polynomial of fixed degree in (z1, z2, z3)."""

    __slots__ = ("degree", "_dense")

    def __init__(self, degree: int, dense: np.ndarray | None = None):
        if degree < 0:
            raise ValueError("degree must be non-negative")
        self.degree = int(degree)
        if dense is None:
            dense = np.zeros((degree + 1, degree + 1))
        dense = np.asarray(dense, dtype=float)
        if dense.shape != (degree + 1, degree + 1):
            raise ValueError("dense array shape does not match degree")
        self._dense = dense

    # -- construction ------------------------------------------------------

    @classmethod
    def from_dict(cls, degree: int, coefficients: dict) -> "HomogeneousPolynomial":
        p = cls(degree)
        for expo, coeff in coefficients.items():
            a, b, c = expo
            if a + b + c != degree or min(a, b, c) < 0:
                raise ValueError(f"exponent {expo} does not sum to degree {degree}")
            p._dense[a, b] += coeff
        return p

    @classmethod
    def constant(cls, value: float) -> "HomogeneousPolynomial":
        p = cls(0)
        p._dense[0, 0] = value
        return p

    # -- views -------------------------------------------------------------

    @property
    def coefficients(self) -> dict:
        """Sparse view: exponent tuple -> coefficient, zeros omitted."""
        out = {}
        d = self.degree
        for a, b in zip(*np.nonzero(self._dense)):
            a, b = int(a), int(b)
            if a + b <= d:
                out[(a, b, d - a - b)] = float(self._dense[a, b])
        return out

    def max_abs_coeff(self) -> float:
        return float(np.abs(self._dense).max()) if self._dense.size else 0.0

    def is_zero(self, tol: float = 0.0) -> bool:
        return self.max_abs_coeff() <= tol

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "HomogeneousPolynomial") -> "HomogeneousPolynomial":
        if other.degree != self.degree:
            raise ValueError("cannot add polynomials of different degree")
        return HomogeneousPolynomial(self.degree, self._dense + other._dense)

    def __sub__(self, other: "HomogeneousPolynomial") -> "HomogeneousPolynomial":
        if other.degree != self.degree:
            raise ValueError("cannot subtract polynomials of different degree")
        return HomogeneousPolynomial(self.degree, self._dense - other._dense)

    def __mul__(self, other):
        if isinstance(other, HomogeneousPolynomial):
            d = self.degree + other.degree
            dense = _conv2(self._dense, other._dense)
            return HomogeneousPolynomial(d, dense)
        return HomogeneousPolynomial(self.degree, self._dense * float(other))

    __rmul__ = __mul__

    def __neg__(self) -> "HomogeneousPolynomial":
        return HomogeneousPolynomial(self.degree, -self._dense)

    # -- calculus ----------------------------------------------------------

    def gradient(self) -> tuple["HomogeneousPolynomial", ...]:
        """Partial derivatives with respect to z1, z2, z3."""
        d = self.degree
        if d == 0:
            zero = HomogeneousPolynomial(0)
            return (zero, zero, zero)
        n = d  # derivative degree d-1: array (d, d)
        a = np.arange(d + 1)
        dz1 = (self._dense * a[:, None])[1:, :n]
        dz2 = (self._dense * a[None, :])[:n, 1:]
        c = d - a[:, None] - a[None, :]
        dz3 = (self._dense * np.clip(c, 0, None))[:n, :n]
        return (
            HomogeneousPolynomial(d - 1, dz1),
            HomogeneousPolynomial(d - 1, dz2),
            HomogeneousPolynomial(d - 1, dz3),
        )

    def laplacian(self) -> "HomogeneousPolynomial":
        d = self.degree
        if d < 2:
            return HomogeneousPolynomial(0)
        a = np.arange(d + 1, dtype=float)
        n = d - 1  # result arrays (d-1, d-1)
        dzz1 = (self._dense * (a * (a - 1))[:, None])[2:, :n]
        dzz2 = (self._dense * (a * (a - 1))[None, :])[:n, 2:]
        c = d - a[:, None] - a[None, :]
        c = np.clip(c, 0, None)
        dzz3 = (self._dense * (c * (c - 1)))[:n, :n]
        return HomogeneousPolynomial(d - 2, dzz1 + dzz2 + dzz3)

    # -- evaluation / composition -------------------------------------------

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at an (n, 3) array of points."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        d = self.degree
        # powers[:, k] = coordinate**k
        p1 = np.vander(pts[:, 0], d + 1, increasing=True)
        p2 = np.vander(pts[:, 1], d + 1, increasing=True)
        p3 = np.vander(pts[:, 2], d + 1, increasing=True)
        out = np.zeros(pts.shape[0])
        for a, b in zip(*np.nonzero(self._dense)):
            a, b = int(a), int(b)
            if a + b > d:
                continue
            out += self._dense[a, b] * p1[:, a] * p2[:, b] * p3[:, d - a - b]
        return out if np.ndim(points) > 1 else out[0]

    def compose(self, matrix: np.ndarray) -> "HomogeneousPolynomial":
        """Polynomial z -> p(M z)."""
        images = monomial_images(np.asarray(matrix, float), self.degree)
        coeffs = self._coeff_vector()
        dense = np.tensordot(coeffs, images, axes=(0, 0))
        return HomogeneousPolynomial(self.degree, dense)

    def _coeff_vector(self) -> np.ndarray:
        """Coefficients ordered as _exponent_arrays(degree)."""
        return self._dense[_exponent_arrays(self.degree)]

    @classmethod
    def _from_coeff_vector(cls, degree: int, vec: np.ndarray) -> "HomogeneousPolynomial":
        p = cls(degree)
        p._dense[_exponent_arrays(degree)] = vec
        return p

    # -- sphere inner product -----------------------------------------------

    def sphere_inner(self, other: "HomogeneousPolynomial") -> float:
        """L2 inner product of the restrictions to the unit sphere.

        Exact via monomial moments: one extended-precision contraction with
        ``moment_gram(self.degree, other.degree)``.
        """
        w1 = np.asarray(self._coeff_vector(), dtype=np.longdouble)
        w2 = np.asarray(other._coeff_vector(), dtype=np.longdouble)
        return float(w1 @ moment_gram(self.degree, other.degree) @ w2)

    def sphere_norm(self) -> float:
        return math.sqrt(max(self.sphere_inner(self), 0.0))

    def l2_normalized(self) -> "HomogeneousPolynomial":
        n = self.sphere_norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero polynomial")
        return self * (1.0 / n)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        items = [
            {"exponents": list(expo), "coefficient": coeff}
            for expo, coeff in sorted(self.coefficients.items())
        ]
        return json.dumps(items) + "\n"

    def __repr__(self):
        return (
            f"HomogeneousPolynomial(degree={self.degree}, "
            f"terms={int(np.count_nonzero(self._dense))})"
        )


def _conv2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full 2-D convolution (direct, exact for polynomial products)."""
    na, nb = a.shape[0], b.shape[0]
    out = np.zeros((na + nb - 1, na + nb - 1))
    # iterate over the smaller operand
    if np.count_nonzero(a) > np.count_nonzero(b):
        a, b = b, a
        na, nb = nb, na
    for i, j in zip(*np.nonzero(a)):
        out[i : i + nb, j : j + nb] += a[i, j] * b
    return out


def linear_form(coeffs) -> HomogeneousPolynomial:
    """c1*z1 + c2*z2 + c3*z3 as a degree-1 polynomial."""
    c1, c2, c3 = (float(c) for c in coeffs)
    p = HomogeneousPolynomial(1)
    p._dense[1, 0] = c1
    p._dense[0, 1] = c2
    p._dense[0, 0] = c3
    return p


def product_of_linear_forms(vectors) -> HomogeneousPolynomial:
    out = HomogeneousPolynomial.constant(1.0)
    for v in vectors:
        out = out * linear_form(v)
    return out


def _times_linear(block: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Dense polynomials (n, k, k) of degree k-1, each times row . z."""
    n, k, _ = block.shape
    out = np.zeros((n, k + 1, k + 1))
    out[:, 1:, :k] += row[0] * block
    out[:, :k, 1:] += row[1] * block
    out[:, :k, :k] += row[2] * block
    return out


def monomial_images(matrix: np.ndarray, degree: int) -> np.ndarray:
    """Images of all degree-d monomials under z -> M z.

    The array has shape (n_monomials(d), d+1, d+1), ordered like
    ``_exponent_arrays(d)``.  In that order the degree-k monomials are
    z3 times the first degree-(k-1) one, z2 times the first k and z1 times
    all of them, so level k is three parent blocks, each times one row of M.
    """
    m = np.asarray(matrix, dtype=float)
    if m.shape != (3, 3):
        raise ValueError("matrix must be 3x3")
    level = np.ones((1, 1, 1))
    for k in range(1, degree + 1):
        level = np.concatenate([
            _times_linear(level[:1], m[2]),
            _times_linear(level[:k], m[1]),
            _times_linear(level, m[0]),
        ])
    return level
