"""Coincidence-plane normals and spherical-sector geometry for four particles.

The relative frame is the H-type Jacobi frame: z1 is the scaled (1,2) pair
separation, z2 the scaled (3,4) pair separation, z3 the scaled separation of
the two pair centers.  In that frame the (1,2) plane is z1=0 and the (3,4)
plane is z2=0; the remaining four plane equations follow from eliminating the
center of mass.  Stored normals are the normalized coefficient vectors,
each signed to point to the x_j > x_i side of its plane (i < j).  Sector
congruence classes are also read off the masses here.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError
from .masses import MassSequence, _unit_scaled

__all__ = [
    "PlaneSet",
    "SectorGeometry",
    "coincidence_normals",
    "distinct_sector_orderings",
    "sector_geometry",
    "geometry_from_inward_normals",
    "geometry_to_json",
]

@dataclass(frozen=True)
class PlaneSet:
    """Unit normals of the six coincidence planes, keyed by pair (i, j) with
    i < j, each pointing to the x_j > x_i side."""

    masses: MassSequence
    normals: dict

    def normal(self, i: int, j: int) -> np.ndarray:
        return self.normals[(min(i, j), max(i, j))]

    def oriented(self, i: int, j: int) -> np.ndarray:
        """Normal pointing to the x_j > x_i side."""
        normal = self.normal(i, j)
        return normal if i < j else -normal


def coincidence_normals(masses: MassSequence) -> PlaneSet:
    """Six unit plane normals in the relative (z1, z2, z3) frame."""
    if len(masses) != 4:
        raise GeometryError("coincidence normals are implemented for four particles")
    # the normals depend on mass ratios only
    m = dict(zip((1, 2, 3, 4), _unit_scaled(masses.masses)))
    if min(m.values()) < np.finfo(float).tiny:  # scaled to a subnormal or to 0
        raise GeometryError(f"mass ratio {min(masses.masses)!r}/{max(masses.masses)!r} "
                            f"is below float64's normal range ({np.finfo(float).tiny:.3e})")
    big_m = m[1] + m[2] + m[3] + m[4]
    normals = {(1, 2): np.array([1.0, 0.0, 0.0]), (3, 4): np.array([0.0, 1.0, 0.0])}
    # plane (i, k) joins one particle of each pair; z1 and z2 carry the
    # partner masses, and x_k - x_i grows with z3
    for i, k in ((1, 3), (1, 4), (2, 3), (2, 4)):
        z1 = math.sqrt(m[3 - i] * (m[3] + m[4]) / (m[i] * big_m))
        z2 = math.sqrt(m[7 - k] * (m[1] + m[2]) / (m[k] * big_m))
        v = np.array([z1 if i == 1 else -z1, z2 if k == 4 else -z2, 1.0])
        normals[(i, k)] = v / np.linalg.norm(v)
    return PlaneSet(masses, normals)


def distinct_sector_orderings(masses: MassSequence) -> list:
    """Representative ordering + multiplicity per congruence class.

    Orderings are congruent when their scale-free masses, to 12 significant
    digits, are equal (equal-mass relabeling) or reversed (inversion).
    """
    scaled = [sig12(m) for m in _unit_scaled(masses.masses)]
    groups: dict = {}
    for perm in itertools.permutations(range(1, len(masses) + 1)):
        seq = tuple(scaled[p - 1] for p in perm)
        sig = min(seq, seq[::-1])
        groups.setdefault(sig, []).append(perm)
    return sorted((min(v), len(v)) for v in groups.values())


@dataclass(frozen=True)
class SectorGeometry:
    """Spherical triangle of one ordering sector on the unit sphere."""

    ordering: tuple
    bounding_normals: np.ndarray  # (3, 3) inward normals
    vertices: np.ndarray  # (3, 3) unit vertex directions
    dihedral_angles: tuple
    vertex_angles: tuple  # great-circle side lengths
    area: float
    perimeter: float


def _angle(a: np.ndarray, b: np.ndarray) -> float:
    """Angle between two vectors, resolved near 0 and pi alike."""
    return math.atan2(float(np.linalg.norm(np.cross(a, b))), float(np.dot(a, b)))


def _triangle_geometry(ordering, inward) -> SectorGeometry:
    inward = np.asarray(inward, dtype=float)
    # vertex k lies on the two planes other than k, on the inside of plane k
    vertices = np.empty((3, 3))
    for k in range(3):
        a, b = (k + 1) % 3, (k + 2) % 3
        v = np.cross(inward[a], inward[b])
        norm = np.linalg.norm(v)
        if norm < 1e-12:
            raise GeometryError("two bounding planes are parallel")
        v /= norm
        s = float(np.dot(inward[k], v))
        if abs(s) < 1e-12:
            raise GeometryError("degenerate sector: vertex lies on all three planes")
        vertices[k] = v if s > 0 else -v
    interior = vertices.sum(axis=0)
    interior /= np.linalg.norm(interior)
    if np.any(inward @ interior <= 0):
        raise GeometryError("inconsistent orientation: interior point outside sector")
    # dihedral angle k lies between the half-planes with inward normals a, b;
    # side k joins the vertices a and b
    pairs = [((k + 1) % 3, (k + 2) % 3) for k in range(3)]
    dihedral = [math.pi - _angle(inward[a], inward[b]) for a, b in pairs]
    area = sum(dihedral) - math.pi
    if area <= 1e-12:
        raise GeometryError(f"degenerate sector: Girard area {area:.3e} <= 0")
    sides = [_angle(vertices[a], vertices[b]) for a, b in pairs]
    for s in sides:
        if not 0.0 < s < math.pi:
            raise GeometryError("side length outside (0, pi)")
    return SectorGeometry(
        ordering=tuple(ordering),
        bounding_normals=inward,
        vertices=vertices,
        dihedral_angles=tuple(dihedral),
        vertex_angles=tuple(sides),
        area=area,
        perimeter=sum(sides),
    )


def sector_geometry(planes: PlaneSet, ordering) -> SectorGeometry:
    """Geometry of the sector x_{p1} <= x_{p2} <= x_{p3} <= x_{p4}."""
    p = tuple(int(i) for i in ordering)
    if sorted(p) != [1, 2, 3, 4]:
        raise GeometryError(f"ordering {ordering!r} is not a permutation of 1..4")
    inward = np.array([planes.oriented(p[k], p[k + 1]) for k in range(3)])
    try:
        return _triangle_geometry(p, inward)
    except GeometryError as exc:
        # a mass ratio below float64 resolution drops out of the pair sums
        ratio, eps = min(planes.masses.masses) / max(planes.masses.masses), np.finfo(float).eps
        if ratio >= eps:
            raise
        raise GeometryError(
            f"{exc}; the mass ratio {ratio:.3e} is below float64 resolution ({eps:.3e})"
        ) from exc


def geometry_from_inward_normals(inward, label=("manual",)) -> SectorGeometry:
    """Geometry of a manually specified sector (e.g. the octant oracle)."""
    inward = np.asarray(inward, dtype=float)
    if inward.shape != (3, 3):
        raise GeometryError("need exactly three inward normals")
    norms = np.linalg.norm(inward, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-9):
        inward = inward / norms[:, None]
    return _triangle_geometry(tuple(label), inward)


def sig12(x: float) -> float:
    """``x`` rounded to the 12 significant digits every written float carries."""
    return float(f"{x:.12g}")


def geometry_to_json(geom: SectorGeometry) -> str:
    data = {
        "ordering": list(geom.ordering),
        "bounding_normals": [[sig12(x) for x in row] for row in geom.bounding_normals],
        "vertices": [[sig12(x) for x in row] for row in geom.vertices],
        "dihedral_angles": [sig12(x) for x in geom.dihedral_angles],
        "vertex_angles": [sig12(x) for x in geom.vertex_angles],
        "area": sig12(geom.area),
        "perimeter": sig12(geom.perimeter),
    }
    return json.dumps(data, indent=2) + "\n"


def coxeter_simple_roots(planes: PlaneSet) -> np.ndarray:
    """Inward normals of the 1234 sector: the group's simple roots."""
    return np.array([planes.oriented(1, 2), planes.oriented(2, 3), planes.oriented(3, 4)])
