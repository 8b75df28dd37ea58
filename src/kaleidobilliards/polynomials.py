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
    "iter_monomial_images",
    "monomial_exponents",
    "sphere_monomial_moment",
    "moment_gram",
    "gram_inner",
]


@lru_cache(maxsize=None)
def monomial_exponents(degree: int) -> tuple[tuple[int, int], ...]:
    """(a, b) exponent pairs of degree-d monomials; z3 exponent is d-a-b."""
    return tuple((a, b) for a in range(degree + 1) for b in range(degree + 1 - a))


@lru_cache(maxsize=None)
def _exponent_arrays(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (a, b) index arrays in monomial_exponents(degree) order."""
    aa, bb = (np.array(col, dtype=int) for col in zip(*monomial_exponents(degree)))
    aa.flags.writeable = bb.flags.writeable = False
    return aa, bb


@lru_cache(maxsize=None)
def _double_factorial(n: int) -> int:
    # (-1)!! = 1 by convention
    if n <= 0:
        return 1
    out = 1
    for k in range(n, 0, -2):
        out *= k
    return out


@lru_cache(maxsize=4096)
def sphere_monomial_moment(a: int, b: int, c: int) -> float:
    """Integral of z1^a z2^b z3^c over the unit two-sphere."""
    if a < 0 or b < 0 or c < 0:
        raise ValueError("negative exponent")
    if a % 2 or b % 2 or c % 2:
        return 0.0
    num = _double_factorial(a - 1) * _double_factorial(b - 1) * _double_factorial(c - 1)
    den = _double_factorial(a + b + c + 1)
    return 4.0 * math.pi * num / den


@lru_cache(maxsize=64)
def moment_gram(degree: int) -> np.ndarray:
    """Sphere-moment Gram matrix between all degree-d monomial pairs.

    Extended precision: the monomial basis is severely cancellation-prone at
    high degree (Legendre-type coefficients grow like 4^degree), so the Gram
    is built and meant to be contracted in longdouble.
    """
    expo = monomial_exponents(degree)
    a = np.array([e[0] for e in expo])
    b = np.array([e[1] for e in expo])
    c = degree - a - b
    top = 2 * degree + 2
    # df[n] = (n-1)!! with df[0] = df[1] = 1
    df = np.ones(top + 2, dtype=np.longdouble)
    for n in range(2, top + 2):
        df[n] = df[n - 2] * (n - 1)
    asum = a[:, None] + a[None, :]
    bsum = b[:, None] + b[None, :]
    csum = c[:, None] + c[None, :]
    odd = (asum % 2 != 0) | (bsum % 2 != 0) | (csum % 2 != 0)
    out = df[asum] * df[bsum] * df[csum] / df[asum + bsum + csum + 2]
    out *= np.longdouble(4) * np.longdouble(math.pi)
    out[odd] = 0.0
    return out


def gram_inner(degree: int, v1: np.ndarray, v2: np.ndarray) -> float:
    """Sphere L2 inner product of two same-degree coefficient vectors."""
    g = moment_gram(degree)
    w1 = np.asarray(v1, dtype=np.longdouble)
    w2 = np.asarray(v2, dtype=np.longdouble)
    return float(w1 @ g @ w2)


class HomogeneousPolynomial:
    """Homogeneous polynomial of fixed degree in (z1, z2, z3)."""

    __slots__ = ("degree", "_dense")

    num_vars = 3

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

    def copy(self) -> "HomogeneousPolynomial":
        return HomogeneousPolynomial(self.degree, self._dense.copy())

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
        """Coefficients ordered as monomial_exponents(degree)."""
        return self._dense[_exponent_arrays(self.degree)]

    @classmethod
    def _from_coeff_vector(cls, degree: int, vec: np.ndarray) -> "HomogeneousPolynomial":
        p = cls(degree)
        p._dense[_exponent_arrays(degree)] = vec
        return p

    # -- sphere inner product -----------------------------------------------

    def sphere_inner(self, other: "HomogeneousPolynomial") -> float:
        """L2 inner product of the restrictions to the unit sphere.

        Exact via monomial moments (extended-precision Gram contraction for
        equal degrees; odd degree differences integrate to zero).
        """
        if self.degree == other.degree:
            return gram_inner(self.degree, self._coeff_vector(), other._coeff_vector())
        total = 0.0
        sd, od = self.degree, other.degree
        sa, sb = np.nonzero(self._dense)
        oa, ob = np.nonzero(other._dense)
        for a1, b1 in zip(sa, sb):
            a1, b1 = int(a1), int(b1)
            c1 = sd - a1 - b1
            if c1 < 0:
                continue
            v1 = self._dense[a1, b1]
            for a2, b2 in zip(oa, ob):
                a2, b2 = int(a2), int(b2)
                c2 = od - a2 - b2
                if c2 < 0:
                    continue
                m = sphere_monomial_moment(a1 + a2, b1 + b2, c1 + c2)
                if m:
                    total += v1 * other._dense[a2, b2] * m
        return total

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
        return json.dumps(items)

    @classmethod
    def from_json(cls, text: str) -> "HomogeneousPolynomial":
        items = json.loads(text)
        if not items:
            return cls(0)
        degree = sum(items[0]["exponents"])
        return cls.from_dict(
            degree, {tuple(it["exponents"]): it["coefficient"] for it in items}
        )

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


def iter_monomial_images(matrix: np.ndarray, degree: int):
    """Yield (k, images of all degree-k monomials under z -> M z) for k=1..degree.

    Each images array has shape (n_monomials(k), k+1, k+1), ordered like
    ``monomial_exponents(k)``.  Level k comes from level k-1 by multiplying a
    canonical parent with one substituted linear form; the canonical ordering
    makes all three parent blocks contiguous slices, so a level costs a few
    whole-array multiply-adds.
    """
    m = np.asarray(matrix, dtype=float)
    if m.shape != (3, 3):
        raise ValueError("matrix must be 3x3")
    # canonical order of monomial_exponents(1) is [(0,0)=z3, (0,1)=z2, (1,0)=z1]
    level = np.zeros((3, 2, 2))
    for idx, j in ((0, 2), (1, 1), (2, 0)):
        level[idx, 1, 0] = m[j, 0]
        level[idx, 0, 1] = m[j, 1]
        level[idx, 0, 0] = m[j, 2]
    yield 1, level
    for k in range(2, degree + 1):
        n_cur = (k + 1) * (k + 2) // 2
        new = np.zeros((n_cur, k + 1, k + 1))
        # index layout at degree k: a=0 block first (indices 0..k in b),
        # then a=1, ... so:
        #   index 0        = (0,0): parent (0,0) via z3
        #   indices 1..k   = (0,b): parent (0,b-1) via z2  [level[0:k]]
        #   indices k+1..  = (a,b), a>0: parent (a-1,b) via z1 [all of level]
        src0 = level[0]
        new[0, 1:, :k] += m[2, 0] * src0
        new[0, :k, 1:] += m[2, 1] * src0
        new[0, :k, :k] += m[2, 2] * src0
        srcb = level[:k]
        new[1 : k + 1, 1:, :k] += m[1, 0] * srcb
        new[1 : k + 1, :k, 1:] += m[1, 1] * srcb
        new[1 : k + 1, :k, :k] += m[1, 2] * srcb
        new[k + 1 :, 1:, :k] += m[0, 0] * level
        new[k + 1 :, :k, 1:] += m[0, 1] * level
        new[k + 1 :, :k, :k] += m[0, 2] * level
        level = new
        yield k, level


def monomial_images(matrix: np.ndarray, degree: int) -> np.ndarray:
    """Images of all degree-d monomials under z -> M z (see iter_monomial_images)."""
    if degree == 0:
        return np.ones((1, 1, 1))
    for _, level in iter_monomial_images(matrix, degree):
        pass
    return level
