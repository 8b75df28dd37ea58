"""Algebraic eigenstates in kaleidoscopic sectors.

The hyperangular states are homogeneous harmonic polynomials that are
anti-invariant under the sector's reflection group: the ground state is the
product of linear forms over all reflection-plane normals.  Excited states of
degree lam are the joint null space of D(s) + 1 over the simple reflections s
in the (2 lam + 1)-dimensional space of real harmonics, accepted when its
singular-value gap matches the character count, and become monomial
polynomials only at the output.  The hyperradial and center-of-mass factors
are the standard oscillator solutions, so the full ladder of energies follows
from four quantum numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import sph_legendre_p

from .errors import RankDeficiencyError
from .masses import CoxeterSpec
from .groups import ReflectionGroup, degeneracy, ladder
from .polynomials import HomogeneousPolynomial, _exponent_arrays, product_of_linear_forms

__all__ = [
    "HyperangularState",
    "EnergyLevel",
    "real_spherical_harmonic",
    "ground_state",
    "project_anti_invariant",
    "excited_basis",
    "projection_tables",
    "energy_levels",
    "levels_to_csv",
    "mu_sweep",
]


@dataclass(frozen=True)
class HyperangularState:
    polynomial: HomogeneousPolynomial


@dataclass(frozen=True, order=True)
class EnergyLevel:
    energy: float
    n: int
    nu: int
    n1: int
    n2: int
    lam: int


# ---------------------------------------------------------------------------
# real solid harmonics


@lru_cache(maxsize=64)
def _solid_harmonics(lam: int) -> np.ndarray:
    """Racah-normalized real solid harmonics of degree lam, dense (read-only).

    Rows in mu_sweep order: for the complex R(l, m) =
    sqrt((l - m)! / (l + m)!) rho^l P_l^m(cos theta) e^(i m phi), Condon-Shortley
    phase included, the cos row of order m is Re R and the sin row Im R.  Built
    from the two degrees below by
    sqrt((l+1)^2 - m^2) R(l+1, m) = (2l+1) z3 R(l, m) - sqrt(l^2 - m^2) r^2 R(l-1, m)
    and R(l+1, l+1) = -sqrt((2l+1)/(2l+2)) (z1 + i z2) R(l, l), so no
    factorial or double factorial is ever formed (|R| <= 1 on the sphere).
    """
    out = np.zeros((2 * lam + 1, lam + 1, lam + 1))
    if lam == 0:
        out[0, 0, 0] = 1.0
    else:
        ell = lam - 1
        prev = _solid_harmonics(ell)
        m = np.repeat(np.arange(lam), 2)[1:]  # the order of each row of prev
        denom = np.sqrt(lam * lam - m * m)
        out[: 2 * ell + 1, :lam, :lam] = ((2 * ell + 1) / denom)[:, None, None] * prev
        if ell:
            rows = 2 * ell - 1  # the r^2 term vanishes at order m = l
            r2 = (np.sqrt(ell * ell - m[:rows] ** 2) / denom[:rows])[:, None, None]
            r2 = r2 * _solid_harmonics(ell - 1)
            out[:rows, 2:, :ell] -= r2
            out[:rows, :ell, 2:] -= r2
            out[:rows, :ell, :ell] -= r2
        re, im = (prev[-2], prev[-1]) if ell else (prev[0], np.zeros_like(prev[0]))
        c = -math.sqrt((2 * ell + 1) / (2 * ell + 2.0))
        out[-2, 1:, :lam] += c * re
        out[-2, :lam, 1:] -= c * im
        out[-1, 1:, :lam] += c * im
        out[-1, :lam, 1:] += c * re
    out.flags.writeable = False
    return out


# The monomial form cancels by about 4^lam: composed with a generator in
# coefficient space, an exact state changes sign to 1e-8 of its largest
# coefficient only up to lambda 65 (A3 test member) or 69 (H3), and to
# 4.9e-6 or 1.0e-6 at lambda 85.
_MONOMIAL_MAX_DEGREE = 85


def _harmonic_matrix(lam: int) -> np.ndarray:
    """Coefficient vectors of all 2*lam+1 unit-norm harmonics, rows in mu_sweep order."""
    if lam > _MONOMIAL_MAX_DEGREE:
        raise ValueError(
            f"lambda={lam}: monomial harmonics stop at degree {_MONOMIAL_MAX_DEGREE}, "
            f"where an exact state's coefficient-space antisymmetry residual is already 1e-6"
        )
    norm = math.sqrt((2 * lam + 1) / (4.0 * math.pi))
    scale = np.full(2 * lam + 1, math.sqrt(2.0) * norm)
    scale[0] = norm
    return scale[:, None] * _solid_harmonics(lam)[(slice(None), *_exponent_arrays(lam))]


def real_spherical_harmonic(lam: int, mu: int) -> HomogeneousPolynomial:
    """rho^lam Y_{lam,mu} as an exact homogeneous polynomial, unit L2 norm."""
    if abs(mu) > lam:
        raise ValueError("|mu| must not exceed lam")
    row = _harmonic_matrix(lam)[mu_sweep(lam).index(mu)]
    return HomogeneousPolynomial._from_coeff_vector(lam, row)


def mu_sweep(lam: int) -> list:
    """Projection sweep order: 0, +1, -1, +2, -2, ..."""
    order = [0]
    for m in range(1, lam + 1):
        order.extend((m, -m))
    return order


# ---------------------------------------------------------------------------
# anti-invariant harmonics


def _harmonics_at(lam: int, points: np.ndarray) -> np.ndarray:
    """Y_{lam,mu} at unit points (n, 3), columns in mu_sweep order."""
    theta = np.arctan2(np.hypot(points[:, 0], points[:, 1]), points[:, 2])
    phi = np.arctan2(points[:, 1], points[:, 0])
    m = np.arange(1, lam + 1)
    # normalized associated Legendre functions, Condon-Shortley phase included,
    # evaluated once per distinct polar angle: only a quadrature grid's rings
    # repeat one, not excited_basis's Fibonacci points or their mirror images
    nodes, ring = np.unique(theta, return_inverse=True)
    legendre = sph_legendre_p(lam, np.arange(lam + 1)[:, None], nodes)[0].T[ring]
    out = np.empty((points.shape[0], 2 * lam + 1))
    out[:, 0] = legendre[:, 0]
    out[:, 1::2] = math.sqrt(2.0) * legendre[:, 1:] * np.cos(np.outer(phi, m))
    out[:, 2::2] = math.sqrt(2.0) * legendre[:, 1:] * np.sin(np.outer(phi, m))
    return out


def _reflect(points: np.ndarray, root: np.ndarray) -> np.ndarray:
    """Images of points (n, 3) under the reflection in the plane normal to root."""
    return points - 2.0 * np.outer(points @ root, root)


# Rotation matrices M(R) act on harmonic coordinates by Y(R x) = Y(x) M(R),
# columns in mu_sweep order, so that M(R1 R2) = M(R2) M(R1).


def _z_rotation(lam: int, angle: float) -> np.ndarray:
    """M(R_z(angle)): 1 on mu = 0, a 2 x 2 rotation on each (cos, sin) pair m."""
    ma = angle * np.arange(1, lam + 1)
    cos, sin = np.cos(ma), np.sin(ma)
    out = np.zeros((2 * lam + 1, 2 * lam + 1))
    out[0, 0] = 1.0
    c, s = np.arange(1, 2 * lam + 1, 2), np.arange(2, 2 * lam + 1, 2)
    out[c, c] = out[s, s] = cos
    out[c, s], out[s, c] = sin, -sin
    return out


@lru_cache(maxsize=64)
def _half_pi_d(lam: int) -> np.ndarray:
    """Wigner's d^lam(pi/2), indices i = lam - m, k = lam - m' (read-only).

    Built from d^(lam-1) in two half steps of Risbo's recursion (T. Risbo,
    J. Geodesy 70, 383, 1996): with d of spin (n-1)/2 zero-padded,
    d_n[i, k] = sqrt(1/2)/n (sqrt((n-i)(n-k)) d[i, k] + sqrt(i(n-k)) d[i-1, k]
    - sqrt((n-i)k) d[i, k-1] + sqrt(ik) d[i-1, k-1]).  The two factors
    sqrt(1/2) are applied as one exact 1/2: a rounded sqrt(1/2) per step
    drifts d from orthogonal by 3.4e-14 at lambda 121, against 1.7e-15.
    """
    d = np.ones((1, 1))
    if lam:
        d = _half_pi_d(lam - 1)
        for n in (2 * lam - 1, 2 * lam):
            b = np.sqrt(np.arange(1.0, n + 1))
            a = b[::-1]
            ad, bd = a[:, None] * d, b[:, None] * d
            d = np.zeros((n + 1, n + 1))
            d[:n, :n] += ad * a
            d[:n, 1:] -= ad * b
            d[1:, :n] += bd * a
            d[1:, 1:] += bd * b
            d /= n
        d *= 0.5
    d.flags.writeable = False
    return d


@lru_cache(maxsize=64)
def _quarter_turn(lam: int) -> np.ndarray:
    """J = M(K) for the quarter turn K = R_y(-pi/2) from d^lam(pi/2) (read-only).

    K takes z to -x, so R_x(-theta) = K R_z(theta) K^T; every group and
    generator of the degree shares J.  In mu_sweep order J has the cos block
    d(m, m') + (-1)^m' d(m, -m'), divided by sqrt 2 on the mu = 0 row and
    column, and the sin block d(m, m') - (-1)^m' d(m, -m').
    """
    d = _half_pi_d(lam)
    m = np.arange(lam + 1)
    pos, neg = d[np.ix_(lam - m, lam - m)], d[np.ix_(lam - m, lam + m)] * (-1.0) ** m
    cos_block, sin_block = pos + neg, (pos - neg)[1:, 1:]
    cos_block[0] /= math.sqrt(2.0)
    cos_block[:, 0] /= math.sqrt(2.0)
    cos, sin = np.r_[0, 2 * m[1:] - 1], 2 * m[1:]
    turn = np.zeros((2 * lam + 1, 2 * lam + 1))
    turn[np.ix_(cos, cos)], turn[np.ix_(sin, sin)] = cos_block, sin_block
    turn.flags.writeable = False
    return turn


def _reflection_matrix(lam: int, root: np.ndarray) -> np.ndarray:
    """D(s) = M(s) for the reflection s in the plane normal to root.

    s is the parity times the half turn about n = root/|root|, which is
    Q R_z(pi) Q^T for Q = R_z(phi) R_x(-theta) taking z to n.  Hence
    D(s) = (-1)^lam M(Q)^T M(R_z(pi)) M(Q), with M(Q) = J^T Z(theta) J Z(phi)
    and J = M(R_y(-pi/2)), the quarter turn that takes z to -x.
    """
    n = np.asarray(root, dtype=float)
    n = n / np.linalg.norm(n)
    theta = math.acos(min(1.0, max(-1.0, n[2])))
    phi = math.atan2(-n[0], n[1])
    turn = _quarter_turn(lam)
    rot = turn.T @ _z_rotation(lam, theta) @ turn @ _z_rotation(lam, phi)
    half_turn = np.ones(2 * lam + 1)
    half_turn[1:] = np.repeat((-1.0) ** np.arange(1, lam + 1), 2)
    return (-1.0) ** lam * (rot.T @ (half_turn[:, None] * rot))


def _fibonacci_points(n: int) -> np.ndarray:
    """n near-uniform unit vectors on a Fibonacci lattice (no grid symmetry)."""
    k = np.arange(n)
    z = 1.0 - (2.0 * k + 1.0) / n
    phi = math.pi * (3.0 - math.sqrt(5.0)) * k
    rho = np.sqrt(1.0 - z * z)
    return np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])


def projection_tables(group: ReflectionGroup, lam: int) -> np.ndarray:
    """Orthonormal basis of the anti-invariant harmonics of degree lam.

    Returns an array (2*lam+1, a), a = ``groups.degeneracy``, with rows in
    mu_sweep order.  The simple reflections s generate the group and have
    det -1, so the columns span the joint null space of D(s) + 1.  D(s) is
    the parity times a half turn, built by ``_reflection_matrix`` from the
    degree's one quarter-turn matrix; over lam <= 121 on the A3, C3 and H3
    test members the null singular values stay below 3.3e-14 and the next
    ones above 0.746.  Raises RankDeficiencyError unless
    the a-th smallest singular value lies below 1e-8 of the (a+1)-th (the
    float64 epsilon stands in for a = 0).
    """
    eye = np.eye(2 * lam + 1)
    stacked = np.vstack([
        _reflection_matrix(lam, root) + eye for root in group.simple_roots
    ])
    _, sing, vt = np.linalg.svd(stacked, full_matrices=False)
    a = degeneracy(lam, group)
    ascending = np.concatenate(([np.finfo(float).eps], sing[::-1], [np.inf]))
    null, gap = ascending[a], ascending[a + 1]
    if not null < 1e-8 * gap:
        raise RankDeficiencyError(
            f"lambda={lam}: character count {a}, but the null singular "
            f"value {null:.3e} is not separated from the next, {gap:.3e}"
        )
    return vt[vt.shape[0] - a :].T


def project_anti_invariant(lam: int, mu: int, group: ReflectionGroup) -> HomogeneousPolynomial:
    """Det-weighted group average of Y_{lam,mu} composed with every element.

    Computed as row mu of P = V V^T for the basis V of ``projection_tables``.
    """
    if abs(mu) > lam:
        raise ValueError("|mu| must not exceed lam")
    harmonics = _harmonic_matrix(lam)
    basis = projection_tables(group, lam)
    row = basis @ basis[mu_sweep(lam).index(mu)]
    return HomogeneousPolynomial._from_coeff_vector(lam, row @ harmonics)


def ground_state(group: ReflectionGroup) -> HyperangularState:
    """Product of linear forms over all reflection normals, unit L2 norm."""
    normals = group.reflection_normals()
    poly = product_of_linear_forms(normals).l2_normalized()
    return HyperangularState(poly)


def excited_basis(lam: int, group: ReflectionGroup) -> list:
    """All anti-invariant harmonic states of degree lam, orthonormal.

    The states are the columns of the ``projection_tables`` basis, whose size
    is certified against the character count, in harmonic coordinates where
    the sphere inner product is the dot product.  Each state must change sign
    under every generator s, |p(s x) + p(x)| <= 1e-8 max |p(x)| over
    2 (2 lam + 1) Fibonacci-lattice points x, evaluated in harmonic
    coordinates, before it becomes a monomial polynomial.  The monomial form
    stops at degree 85 (ValueError), also where no state exists.
    """
    harmonics = _harmonic_matrix(lam)
    basis = projection_tables(group, lam)
    if not basis.shape[1]:
        return []
    # p(s x) = -p(x) for every generator s, at generic points off the grid
    points = _fibonacci_points(2 * (2 * lam + 1))
    values = _harmonics_at(lam, points) @ basis
    scale = np.abs(values).max(axis=0)
    for root in group.simple_roots:
        flipped = _harmonics_at(lam, _reflect(points, root)) @ basis
        if np.any(np.abs(flipped + values).max(axis=0) > 1e-8 * scale):
            raise RankDeficiencyError(f"state at lambda={lam} is not anti-invariant")
    coeffs = basis.T @ harmonics
    return [
        HyperangularState(HomogeneousPolynomial._from_coeff_vector(lam, row)) for row in coeffs
    ]


# ---------------------------------------------------------------------------
# the energy ladder


def energy_levels(spec: CoxeterSpec, e_max: float) -> list:
    """All ladder states with energy n + 2 nu + lambda + N/2 <= e_max, N = rank + 1."""
    zero = (spec.rank + 1) / 2.0
    top = math.floor(e_max - zero)  # largest lam + 2 nu + n
    levels = []
    for n1, n2, lam in ladder(spec, top):
        for nu in range((top - lam) // 2 + 1):
            for n in range(top - lam - 2 * nu + 1):
                levels.append(EnergyLevel(
                    energy=lam + 2 * nu + n + zero, n=n, nu=nu, n1=n1, n2=n2, lam=lam
                ))
    return sorted(levels, key=lambda lv: (lv.energy, lv.n, lv.nu, lv.n1, lv.n2))


def levels_to_csv(levels) -> str:
    lines = ["n,nu,n1,n2,lambda,energy"]
    for lv in levels:
        lines.append(f"{lv.n},{lv.nu},{lv.n1},{lv.n2},{lv.lam},{lv.energy:.12g}")
    return "\n".join(lines) + "\n"
