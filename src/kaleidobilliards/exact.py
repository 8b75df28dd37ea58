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
from scipy.special import eval_genlaguerre, sph_legendre_p

from .errors import RankDeficiencyError
from .masses import CoxeterSpec
from .groups import ReflectionGroup, degeneracy, ladder
from .polynomials import HomogeneousPolynomial, product_of_linear_forms

__all__ = [
    "HyperangularState",
    "EnergyLevel",
    "real_spherical_harmonic",
    "ground_state",
    "project_anti_invariant",
    "excited_basis",
    "projection_tables",
    "radial_wavefunction",
    "energy_levels",
    "levels_to_csv",
    "mu_sweep",
]


@dataclass(frozen=True)
class HyperangularState:
    lam: int
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


@lru_cache(maxsize=4096)  # every (lam, mu) up to lam 89
def _legendre_tail(lam: int, mu: int) -> HomogeneousPolynomial:
    """rho^(lam-mu) * d^mu P_lam / dx^mu (x = z3/rho), homogenized.

    Upward recurrence in lam at fixed mu, one step per cached (lam, mu):
    (lam-mu) S_lam = (2 lam - 1) z3 S_{lam-1} - (lam-1+mu) r^2 S_{lam-2}.
    Callers must not modify the returned polynomial.
    """
    if lam == mu:
        df = 1.0
        for k in range(2 * mu - 1, 0, -2):
            df *= k
        return HomogeneousPolynomial.constant(df)  # S_{mu,mu} = (2mu-1)!!
    z3 = HomogeneousPolynomial.from_dict(1, {(0, 0, 1): 1.0})
    if lam == mu + 1:
        return (2 * mu + 1.0) * (z3 * _legendre_tail(mu, mu))
    r2 = HomogeneousPolynomial.from_dict(
        2, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0}
    )
    return (1.0 / (lam - mu)) * (
        (2.0 * lam - 1.0) * (z3 * _legendre_tail(lam - 1, mu))
        - (lam - 1.0 + mu) * (r2 * _legendre_tail(lam - 2, mu))
    )


@lru_cache(maxsize=512)
def _sectoral(mu: int) -> tuple:
    """Re and Im of (z1 + i z2)^mu as degree-mu polynomials (do not modify)."""
    if mu == 0:
        return HomogeneousPolynomial.constant(1.0), HomogeneousPolynomial(0)
    re, im = _sectoral(mu - 1)
    z1 = HomogeneousPolynomial.from_dict(1, {(1, 0, 0): 1.0})
    z2 = HomogeneousPolynomial.from_dict(1, {(0, 1, 0): 1.0})
    return z1 * re - z2 * im, z1 * im + z2 * re


@lru_cache(maxsize=512)
def real_spherical_harmonic(lam: int, mu: int) -> HomogeneousPolynomial:
    """rho^lam Y_{lam,mu} as an exact homogeneous polynomial, unit L2 norm."""
    if abs(mu) > lam:
        raise ValueError("|mu| must not exceed lam")
    amu = abs(mu)
    # N_{lam,mu} with exact factorial ratio
    ratio = 1.0
    for k in range(lam - amu + 1, lam + amu + 1):
        ratio /= k
    # subnormal from (86, 86) on, and 0 from (89, 89), which zeroed the harmonic
    if ratio < np.finfo(float).tiny:
        raise ValueError(f"Y_({lam},{mu}) normalization underflows float64")
    norm = math.sqrt((2 * lam + 1) / (4.0 * math.pi) * ratio)
    # fill both recurrence caches from below, so that their recursion stays shallow
    for k in range(amu):
        _sectoral(k)
    for ell in range(amu, lam):
        _legendre_tail(ell, amu)
    tail = _legendre_tail(lam, amu)
    sign = (-1.0) ** amu  # Condon-Shortley, as in the P^mu relation
    if mu == 0:
        return norm * tail
    re, im = _sectoral(amu)
    azim = re if mu > 0 else im
    return (math.sqrt(2.0) * norm * sign) * (azim * tail)


def mu_sweep(lam: int) -> list:
    """Projection sweep order: 0, +1, -1, +2, -2, ..."""
    order = [0]
    for m in range(1, lam + 1):
        order.extend((m, -m))
    return order


# ---------------------------------------------------------------------------
# anti-invariant harmonics


@lru_cache(maxsize=64)
def _harmonic_matrix(lam: int) -> np.ndarray:
    """Coefficient vectors of all 2*lam+1 harmonics, rows in mu_sweep order (read-only)."""
    rows = np.array([real_spherical_harmonic(lam, mu)._coeff_vector() for mu in mu_sweep(lam)])
    rows.flags.writeable = False
    return rows


def _harmonics_at(lam: int, points: np.ndarray) -> np.ndarray:
    """Y_{lam,mu} at unit points (n, 3), columns in mu_sweep order."""
    theta = np.arctan2(np.hypot(points[:, 0], points[:, 1]), points[:, 2])
    phi = np.arctan2(points[:, 1], points[:, 0])
    m = np.arange(1, lam + 1)
    # normalized associated Legendre functions, Condon-Shortley phase included,
    # evaluated once per distinct polar angle (a grid ring repeats it)
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


@lru_cache(maxsize=64)
def _sphere_grid(lam: int) -> tuple:
    """Gauss-Legendre x trapezoid points and weighted harmonics W Y(X).

    The quadrature is exact to degree 2*lam.  Both arrays depend on lam only,
    so every group shares them; they are read-only.
    """
    z, w = np.polynomial.legendre.leggauss(lam + 1)
    phi = 2.0 * math.pi * np.arange(2 * lam + 1) / (2 * lam + 1)
    z, phi = (g.ravel() for g in np.meshgrid(z, phi, indexing="ij"))
    rho = np.sqrt(1.0 - z * z)
    points = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
    weights = np.repeat(w, 2 * lam + 1) * (2.0 * math.pi / (2 * lam + 1))
    weighted = weights[:, None] * _harmonics_at(lam, points)
    points.flags.writeable = weighted.flags.writeable = False
    return points, weighted


def _fibonacci_points(n: int) -> np.ndarray:
    """n near-uniform unit vectors on a Fibonacci lattice (no grid symmetry)."""
    k = np.arange(n)
    z = 1.0 - (2.0 * k + 1.0) / n
    phi = math.pi * (3.0 - math.sqrt(5.0)) * k
    rho = np.sqrt(1.0 - z * z)
    return np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])


def projection_tables(group: ReflectionGroup, lambdas) -> dict:
    """Orthonormal basis of the anti-invariant harmonics of each degree.

    Returns {lam: array (2*lam+1, a)}, a = ``groups.degeneracy``, with rows in
    mu_sweep order.  The simple reflections s generate the group and have
    det -1, so the columns span the joint null space of D(s) + 1, where
    D(s) = Y(sX)^T W Y(X) comes from a sphere quadrature exact to degree
    2*lam.  Raises RankDeficiencyError unless the a-th smallest singular value
    lies below 1e-8 of the (a+1)-th (the float64 epsilon stands in for a = 0).
    """
    cache = group.__dict__.setdefault("_projection_cache", {})
    for lam in sorted(set(int(l) for l in lambdas) - set(cache)):
        points, weighted = _sphere_grid(lam)
        eye = np.eye(2 * lam + 1)
        stacked = np.vstack([
            _harmonics_at(lam, _reflect(points, root)).T @ weighted + eye
            for root in group.simple_roots
        ])
        _, sing, vt = np.linalg.svd(stacked)
        a = degeneracy(lam, group)
        ascending = np.concatenate(([np.finfo(float).eps], sing[::-1], [np.inf]))
        null, gap = ascending[a], ascending[a + 1]
        if not null < 1e-8 * gap:
            raise RankDeficiencyError(
                f"lambda={lam}: character count {a}, but the null singular "
                f"value {null:.3e} is not separated from the next, {gap:.3e}"
            )
        cache[lam] = vt[vt.shape[0] - a :].T
    return {int(l): cache[int(l)] for l in lambdas}


def project_anti_invariant(lam: int, mu: int, group: ReflectionGroup) -> HomogeneousPolynomial:
    """Det-weighted group average of Y_{lam,mu} composed with every element.

    Computed as row mu of P = V V^T for the basis V of ``projection_tables``.
    """
    if abs(mu) > lam:
        raise ValueError("|mu| must not exceed lam")
    basis = projection_tables(group, [lam])[lam]
    row = basis @ basis[mu_sweep(lam).index(mu)]
    return HomogeneousPolynomial._from_coeff_vector(lam, row @ _harmonic_matrix(lam))


def ground_state(group: ReflectionGroup) -> HyperangularState:
    """Product of linear forms over all reflection normals, unit L2 norm."""
    normals = group.reflection_normals()
    poly = product_of_linear_forms(normals).l2_normalized()
    return HyperangularState(lam=group.spec.lambda0, polynomial=poly)


def excited_basis(lam: int, group: ReflectionGroup) -> list:
    """All anti-invariant harmonic states of degree lam, orthonormal.

    The states are the columns of the ``projection_tables`` basis, whose size
    is certified against the character count, in harmonic coordinates where
    the sphere inner product is the dot product.  Each state must change sign
    under every generator s, |p(s x) + p(x)| <= 1e-8 max |p(x)| over
    2 (2 lam + 1) Fibonacci-lattice points x, evaluated in harmonic
    coordinates, before it becomes a monomial polynomial.
    """
    basis = projection_tables(group, [lam])[lam]
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
    coeffs = basis.T @ _harmonic_matrix(lam)
    return [
        HyperangularState(lam=lam, polynomial=HomogeneousPolynomial._from_coeff_vector(lam, row))
        for row in coeffs
    ]


# ---------------------------------------------------------------------------
# radial factor and the energy ladder


def radial_wavefunction(nu: int, lam: float, rho, n_particles: int) -> float:
    """Hyperradial oscillator factor, unit-normalized with weight rho^(N-2)."""
    if nu < 0:
        raise ValueError("nu must be non-negative")
    if lam < 0:
        raise ValueError("lam must be non-negative")
    alpha = lam + (n_particles - 3) / 2.0
    log_a = 0.5 * (
        math.log(2.0) + math.lgamma(nu + 1) - math.lgamma(nu + lam + (n_particles - 1) / 2.0)
    )
    rho = np.asarray(rho, dtype=float)
    val = (
        math.exp(log_a)
        * rho**lam
        * eval_genlaguerre(nu, alpha, rho**2)
        * np.exp(-0.5 * rho**2)
    )
    return float(val) if val.ndim == 0 else val


def energy_levels(spec: CoxeterSpec, e_max: float, n_particles: int) -> list:
    """All ladder states with energy n + 2 nu + lambda + N/2 <= e_max."""
    if n_particles != spec.rank + 1:
        raise ValueError(
            f"{spec.name} describes {spec.rank + 1} particles, got N={n_particles}"
        )
    zero = n_particles / 2.0
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
