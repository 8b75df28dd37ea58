"""Kaleidoscope angles, integrable mass families, and classification.

An ordered mass sequence is integrable exactly when its pairwise sector
angles hit pi/q_i for one of the finite connected non-branching reflection
group brackets.  This module computes the angles, inverts them recursively to
generate one-parameter mass families, and scores arbitrary sequences against
every candidate bracket.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from .errors import InfeasibleFamilyError, MassDomainError

__all__ = [
    "MassSequence",
    "CoxeterSpec",
    "ClassificationResult",
    "FamilyCurve",
    "FamilyPoint",
    "coxeter_spec",
    "brackets_for_rank",
    "sector_angle",
    "generate_family",
    "family_curve",
    "feasibility_interval",
    "symmetric_member",
    "classify",
    "write_family_csv",
]


@dataclass(frozen=True)
class MassSequence:
    """Ordered positive masses in an arbitrary common unit."""

    masses: tuple

    def __post_init__(self):
        masses = tuple(float(m) for m in self.masses)
        if len(masses) < 3:
            raise MassDomainError("need at least three masses")
        for m in masses:
            if not math.isfinite(m) or m <= 0.0:
                raise MassDomainError(f"non-positive or non-finite mass {m!r}")
        object.__setattr__(self, "masses", masses)

    def __len__(self):
        return len(self.masses)

    @property
    def total(self) -> float:
        return sum(self.masses)

    @property
    def fractions(self) -> tuple:
        total = self.total
        return tuple(m / total for m in self.masses)


@dataclass(frozen=True)
class CoxeterSpec:
    """Table row of a finite connected non-branching reflection group.

    The degrees d_i of the basic invariants fix the rest: the rank is their
    count, the group order is prod d_i and the number of reflections, which
    is the ground-state degree lambda0, is sum (d_i - 1).
    """

    name: str
    bracket: tuple
    degrees: tuple

    def __post_init__(self):
        if any(q < 3 for q in self.bracket):
            raise ValueError("bracket entries must be >= 3")
        if len(self.bracket) != self.rank - 1:
            raise ValueError("bracket length must be rank-1")

    @property
    def rank(self) -> int:
        return len(self.degrees)

    @property
    def lambda0(self) -> int:
        return sum(d - 1 for d in self.degrees)

    @property
    def order(self) -> int:
        return math.prod(self.degrees)


def _a_spec(rank: int) -> CoxeterSpec:
    return CoxeterSpec(f"A{rank}", (3,) * (rank - 1), tuple(range(2, rank + 2)))


def _c_spec(rank: int) -> CoxeterSpec:
    return CoxeterSpec(f"C{rank}", (4,) + (3,) * (rank - 2), tuple(range(2, 2 * rank + 1, 2)))


def _i2_spec(q: int) -> CoxeterSpec:
    return CoxeterSpec(f"I2({q})", (q,), (2, q))


_EXCEPTIONAL = {
    "H2": _i2_spec(5),
    "H3": CoxeterSpec("H3", (5, 3), (2, 6, 10)),
    "H4": CoxeterSpec("H4", (5, 3, 3), (2, 12, 20, 30)),
    "F4": CoxeterSpec("F4", (3, 4, 3), (2, 6, 8, 12)),
}


def coxeter_spec(name: str) -> CoxeterSpec:
    """Look up a group by name: A3, C4, H3, F4, I2(7), ..."""
    key = name.strip().replace("_", "").upper()
    if key in _EXCEPTIONAL:
        return _EXCEPTIONAL[key]
    if key.startswith("I2(") and key.endswith(")"):
        q = int(key[3:-1])
        if q < 3:
            raise ValueError("I2(q) needs q >= 3")
        return _i2_spec(q)
    series, rank = key[:1], key[1:]
    if series in ("A", "C") and rank.isdigit() and int(rank) >= 2:
        return _a_spec(int(rank)) if series == "A" else _c_spec(int(rank))
    raise ValueError(f"unknown group name {name!r}")


def brackets_for_rank(rank: int) -> list:
    """Connected non-branching groups of the given rank (I2(q) excluded)."""
    if rank < 2:
        raise ValueError("rank must be >= 2")
    if rank == 2:
        return [_i2_spec(q) for q in (3, 4, 5)]
    if rank == 3:
        return [_a_spec(3), _c_spec(3), _EXCEPTIONAL["H3"]]
    if rank == 4:
        return [_a_spec(4), _c_spec(4), _EXCEPTIONAL["H4"], _EXCEPTIONAL["F4"]]
    return [_a_spec(rank), _c_spec(rank)]


def _unit_scaled(masses) -> tuple:
    """The masses divided by the power of two at their maximum.

    The division is exact while the mass ratios stay in float64's normal
    range, so formulas in ratios keep their bits and can no longer overflow.
    """
    shift = -math.frexp(max(masses))[1]
    return tuple(math.ldexp(m, shift) for m in masses)


def sector_angle(m_i: float, m_j: float, m_k: float) -> float:
    """Dihedral angle between the coincidence planes of (i,j) and (j,k)."""
    for m in (m_i, m_j, m_k):
        if not math.isfinite(m) or m <= 0.0:
            raise MassDomainError(f"non-positive mass {m!r}")
    s_i, s_j, s_k = _unit_scaled((m_i, m_j, m_k))
    denom = s_i * s_k
    angle = math.atan(math.sqrt(s_j * (s_i + s_j + s_k) / denom)) if denom else 0.0
    if not 0.0 < angle < math.inf:
        raise MassDomainError(f"mass ratios of ({m_i!r}, {m_j!r}, {m_k!r}) leave float64 range")
    return angle


def _tan_sq(q: int) -> float:
    # exact values keep the A/C-series recurrences rational
    if q == 3:
        return 3.0
    if q == 4:
        return 1.0
    if q == 5:
        return 5.0 - 2.0 * math.sqrt(5.0)
    return math.tan(math.pi / q) ** 2


def generate_family(spec: CoxeterSpec, m1: float, m2: float) -> MassSequence:
    """Masses hitting every bracket angle exactly, seeded by (m1, m2).

    The angle condition tan^2(pi/q_i) = m_{i+1}(m_i+m_{i+1}+m_{i+2})/(m_i m_{i+2})
    solves forward as m_{i+2} = m_{i+1}(m_i+m_{i+1}) / (tan^2(pi/q_i) m_i - m_{i+1}).
    Raises MassDomainError where that numerator or the new mass falls below
    float64's normal range, which loses digits before it reaches 0.
    """
    if m1 <= 0 or m2 <= 0:
        raise MassDomainError("seed masses must be positive")
    masses = [float(m1), float(m2)]
    for i, q in enumerate(spec.bracket):
        denom = _tan_sq(q) * masses[i] - masses[i + 1]
        if denom <= 0.0:
            raise InfeasibleFamilyError(
                f"denominator {denom:.3e} <= 0 at step {i + 1} (bracket entry q={q}); "
                f"the (m1, m2) ray exits the positivity domain"
            )
        product = masses[i + 1] * (masses[i] + masses[i + 1])
        mass = product / denom
        if min(product, mass) < sys.float_info.min:
            raise MassDomainError(
                f"mass {i + 3} underflows float64 at step {i + 1}: "
                f"{product:.3e} / {denom:.3e} leaves the normal range"
            )
        masses.append(mass)
    return MassSequence(tuple(masses))


def feasibility_interval(spec: CoxeterSpec) -> tuple:
    """Open interval (0, r_max) of feasible ratios r = m2/m1, in closed form.

    With x_i = m_{i+1}/m_i and t_i = tan^2(pi/q_i), ``generate_family`` steps
    x_{i+1} = (1 + x_i)/(t_i - x_i), which is feasible exactly when x_i < t_i
    and increases with x_i.  The last bound x_last < t_last therefore pulls
    back one step at a time, c <- (t_i c - 1)/(1 + c), to r < r_max.  Raises
    InfeasibleFamilyError when a bound reaches c <= 0.
    """
    c = _tan_sq(spec.bracket[-1])
    for q in reversed(spec.bracket[:-1]):
        c = (_tan_sq(q) * c - 1.0) / (1.0 + c)
        if c <= 0.0:
            raise InfeasibleFamilyError(f"no feasible ratio for {spec.name}")
    return (0.0, c)


@dataclass(frozen=True)
class FamilyPoint:
    r: float
    fractions: tuple


@dataclass(frozen=True)
class FamilyCurve:
    spec: CoxeterSpec
    points: list
    infeasible: list  # (r, reason) pairs, never silently dropped


def family_curve(spec: CoxeterSpec, ratio_grid) -> FamilyCurve:
    """One normalized mass sequence per feasible ratio r = m2/m1."""
    points, infeasible = [], []
    for r in ratio_grid:
        if r <= 0:
            infeasible.append((float(r), "ratio must be positive"))
            continue
        try:
            seq = generate_family(spec, 1.0, float(r))
        except (InfeasibleFamilyError, MassDomainError) as exc:
            infeasible.append((float(r), str(exc)))
            continue
        points.append(FamilyPoint(float(r), seq.fractions))
    if not points:
        lo, hi = feasibility_interval(spec)
        reasons = "".join(f"; r={r:.12g}: {reason}" for r, reason in infeasible[:3])
        if len(infeasible) > 3:
            reasons += f"; and {len(infeasible) - 3} more"
        raise InfeasibleFamilyError(
            f"no feasible grid point for {spec.name}; feasible r interval is "
            f"({lo:.12g}, {hi:.12g}){reasons}"
        )
    return FamilyCurve(spec, points, infeasible)


def symmetric_member(spec: CoxeterSpec) -> MassSequence:
    """Family member with equal first and last mass fraction (bisection)."""

    def imbalance(r):
        seq = generate_family(spec, 1.0, r)
        return seq.masses[-1] - seq.masses[0]

    lo, hi = feasibility_interval(spec)
    a = lo + (hi - lo) * 1e-9
    b = hi * (1.0 - 1e-9)
    fa, fb = imbalance(a), imbalance(b)
    if fa * fb > 0:
        raise InfeasibleFamilyError(f"no symmetric member bracketed for {spec.name}")
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = imbalance(mid)
        if abs(fm) < 1e-14:
            a = b = mid
            break
        if fa * fm <= 0:
            b, fb = mid, fm
        else:
            a, fa = mid, fm
    return generate_family(spec, 1.0, 0.5 * (a + b))


@dataclass(frozen=True)
class ClassificationResult:
    best: CoxeterSpec
    measured_angles: tuple
    target_angles: tuple
    max_deviation: float
    reversed_bracket: bool = field(default=False)


def _measured_angles(masses: MassSequence) -> tuple:
    m = masses.masses
    return tuple(sector_angle(m[i], m[i + 1], m[i + 2]) for i in range(len(m) - 2))


def classify(masses: MassSequence) -> ClassificationResult:
    """Score the ordered sequence against every candidate bracket.

    The metric is the maximum absolute angle deviation; a reversed bracket is
    also scored because the reversed sequence bounds the inversion-congruent
    sector.  For N=3 every single angle is integrable by separability, so the
    nearest integer q of I2(q) is fitted and the residual reported.
    """
    measured = _measured_angles(masses)
    n = len(masses)
    if n == 3:
        q_cont = math.pi / measured[0]
        q = max(3, round(q_cont))
        spec = _i2_spec(q)
        target = math.pi / q
        return ClassificationResult(spec, measured, (target,), abs(measured[0] - target))
    best = None
    for spec in brackets_for_rank(n - 1):
        for rev in (False, True):
            bracket = spec.bracket[::-1] if rev else spec.bracket
            targets = tuple(math.pi / q for q in bracket)
            dev = max(abs(a - t) for a, t in zip(measured, targets))
            cand = ClassificationResult(spec, measured, targets, dev, rev)
            if best is None or cand.max_deviation < best.max_deviation:
                best = cand
    return best


def write_family_csv(curve: FamilyCurve) -> str:
    """CSV text with columns r, mu1..muN at 12 significant digits."""
    n = len(curve.points[0].fractions)
    lines = ["r," + ",".join(f"mu{i + 1}" for i in range(n))]
    for pt in curve.points:
        cells = [f"{pt.r:.12g}"] + [f"{f:.12g}" for f in pt.fractions]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
