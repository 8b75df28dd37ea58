"""Algebraic eigenstates in kaleidoscopic sectors.

The hyperangular states are homogeneous harmonic polynomials that are
anti-invariant under the sector's reflection group: the ground state is the
product of linear forms over all reflection-plane normals, and excited states
come from group-averaging real solid harmonics with the determinant character
and orthonormalizing.  The hyperradial and center-of-mass factors are the
standard oscillator solutions, so the full ladder of energies follows from
four quantum numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import eval_genlaguerre

from .errors import RankDeficiencyError
from .masses import CoxeterSpec
from .groups import ReflectionGroup, degeneracy, lambda_spectrum, spectrum_generators
from .polynomials import (
    HomogeneousPolynomial,
    gram_inner,
    iter_monomial_images,
    monomial_exponents,
    product_of_linear_forms,
)

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
    norm: float


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


def _legendre_tail(lam: int, mu: int) -> HomogeneousPolynomial:
    """rho^(lam-mu) * d^mu P_lam / dx^mu (x = z3/rho), homogenized.

    Upward recurrence in lam at fixed mu:
    (lam-mu) S_lam = (2 lam - 1) z3 S_{lam-1} - (lam-1+mu) r^2 S_{lam-2}.
    """
    z3 = HomogeneousPolynomial.from_dict(1, {(0, 0, 1): 1.0})
    r2 = HomogeneousPolynomial.from_dict(
        2, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0}
    )
    df = 1.0
    for k in range(2 * mu - 1, 0, -2):
        df *= k
    prev2 = HomogeneousPolynomial.constant(df)  # S_{mu,mu} = (2mu-1)!!
    if lam == mu:
        return prev2
    prev1 = (2 * mu + 1.0) * (z3 * prev2)  # S_{mu+1,mu}
    if lam == mu + 1:
        return prev1
    for ell in range(mu + 2, lam + 1):
        cur = (1.0 / (ell - mu)) * (
            (2.0 * ell - 1.0) * (z3 * prev1) - (ell - 1.0 + mu) * (r2 * prev2)
        )
        prev2, prev1 = prev1, cur
    return prev1


def _sectoral(mu: int) -> tuple:
    """Re and Im of (z1 + i z2)^mu as degree-mu polynomials."""
    re = HomogeneousPolynomial.constant(1.0)
    im = HomogeneousPolynomial(0)
    z1 = HomogeneousPolynomial.from_dict(1, {(1, 0, 0): 1.0})
    z2 = HomogeneousPolynomial.from_dict(1, {(0, 1, 0): 1.0})
    for _ in range(mu):
        re, im = z1 * re - z2 * im, z1 * im + z2 * re
    return re, im


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
    norm = math.sqrt((2 * lam + 1) / (4.0 * math.pi) * ratio)
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
# group-averaged projections


@lru_cache(maxsize=64)
def _harmonic_matrix(lam: int) -> np.ndarray:
    """Coefficient vectors of all 2*lam+1 harmonics, rows in mu_sweep order."""
    rows = [real_spherical_harmonic(lam, mu)._coeff_vector() for mu in mu_sweep(lam)]
    return np.array(rows)


def projection_tables(group: ReflectionGroup, lambdas) -> dict:
    """Group-averaged det-weighted harmonics for each requested degree.

    Returns {lam: array (2*lam+1, lam+1, lam+1)} whose mu-th row (mu_sweep
    order) is the dense coefficient array of P^A applied to Y_{lam,mu}.
    One pass over the group covers every degree at once.
    """
    cache = group.__dict__.setdefault("_projection_cache", {})
    todo = sorted(set(int(l) for l in lambdas) - set(cache))
    if todo:
        lmax = max(todo)
        mats = group.matrices
        dets = group.dets
        acc = {
            lam: np.zeros((2 * lam + 1, (lam + 1) * (lam + 1))) for lam in todo
        }
        harm = {lam: _harmonic_matrix(lam) for lam in todo}
        for mat, det in zip(mats, dets):
            if lmax == 0:
                continue
            for k, level in iter_monomial_images(mat, lmax):
                if k in acc:
                    flat = level.reshape(level.shape[0], -1)
                    acc[k] += det * (harm[k] @ flat)
        for lam in todo:
            cache[lam] = (acc[lam] / group.order).reshape(
                2 * lam + 1, lam + 1, lam + 1
            )
    return {int(l): cache[int(l)] for l in lambdas}


def project_anti_invariant(lam: int, mu: int, group: ReflectionGroup) -> HomogeneousPolynomial:
    """Det-weighted group average of Y_{lam,mu} composed with every element."""
    if abs(mu) > lam:
        raise ValueError("|mu| must not exceed lam")
    table = projection_tables(group, [lam])[lam]
    row = mu_sweep(lam).index(mu)
    return HomogeneousPolynomial(lam, table[row].copy())


def ground_state(group: ReflectionGroup) -> HyperangularState:
    """Product of linear forms over all reflection normals, unit L2 norm."""
    normals = group.reflection_normals()
    poly = product_of_linear_forms(normals)
    n = poly.sphere_norm()
    poly = poly * (1.0 / n)
    return HyperangularState(lam=group.spec.lambda0, polynomial=poly, norm=1.0)


def excited_basis(lam: int, group: ReflectionGroup) -> list:
    """All anti-invariant harmonic states of degree lam, orthonormalized.

    Projects every harmonic of the mu sweep, drops projections below 1e-8 of
    the unit pre-projection norm, and Gram-Schmidts the candidates in
    descending projection norm (with a re-orthogonalization pass) until the
    character count is reached.  At high degree the float64 monomial basis
    carries a noise floor above 1e-8, so each accepted state is verified to
    flip sign under the generator reflections; noise vectors fail that check.
    """
    a = degeneracy(lam, group)
    table = projection_tables(group, [lam])[lam]
    flat = table.reshape(table.shape[0], -1)
    expo = monomial_exponents(lam)
    aa = np.array([e[0] for e in expo])
    bb = np.array([e[1] for e in expo])
    vecs = flat.reshape(-1, lam + 1, lam + 1)[:, aa, bb]
    norms = np.array([math.sqrt(max(gram_inner(lam, v, v), 0.0)) for v in vecs])
    order = np.argsort(-norms, kind="stable")
    states: list[np.ndarray] = []
    for row in order:
        if len(states) == a:
            break
        if norms[row] < 1e-8:
            continue
        vec = vecs[row] / norms[row]
        for _ in range(2):  # re-orthogonalization pass
            for s in states:
                vec = vec - gram_inner(lam, s, vec) * s
        nrm = math.sqrt(max(gram_inner(lam, vec, vec), 0.0))
        if nrm < 1e-8:
            continue
        states.append(vec / nrm)
    if len(states) != a:
        raise RankDeficiencyError(
            f"projection sweep found {len(states)} states at lambda={lam}, "
            f"character count predicts {a}"
        )
    out = []
    gens = [np.eye(3) - 2.0 * np.outer(g, g) for g in group.simple_roots]
    for vec in states:
        poly = HomogeneousPolynomial._from_coeff_vector(lam, vec)
        scale = poly.max_abs_coeff()
        for gen in gens:
            if not (poly.compose(gen) + poly).is_zero(1e-8 * scale):
                raise RankDeficiencyError(
                    f"accepted state at lambda={lam} is not anti-invariant; "
                    "projection noise exceeded the acceptance threshold"
                )
        out.append(HyperangularState(lam=lam, polynomial=poly, norm=1.0))
    return out


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
    gen_a, gen_b = spectrum_generators(spec)
    zero = n_particles / 2.0
    levels = []
    n1 = 0
    while spec.lambda0 + gen_a * n1 + zero <= e_max:
        n2 = 0
        while True:
            lam = spec.lambda0 + gen_a * n1 + (gen_b or 0) * n2
            if lam + zero > e_max:
                break
            nu = 0
            while lam + 2 * nu + zero <= e_max:
                n = 0
                while lam + 2 * nu + n + zero <= e_max:
                    levels.append(
                        EnergyLevel(
                            energy=lam + 2 * nu + n + zero,
                            n=n,
                            nu=nu,
                            n1=n1,
                            n2=n2,
                            lam=lam,
                        )
                    )
                    n += 1
                nu += 1
            if gen_b is None:
                break
            n2 += 1
        n1 += 1
    return sorted(levels, key=lambda lv: (lv.energy, lv.n, lv.nu, lv.n1, lv.n2))


def levels_to_csv(levels) -> str:
    lines = ["n,nu,n1,n2,lambda,energy"]
    for lv in levels:
        lines.append(f"{lv.n},{lv.nu},{lv.n1},{lv.n2},{lv.lam},{lv.energy:.12g}")
    return "\n".join(lines) + "\n"
