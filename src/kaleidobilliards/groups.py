"""Finite reflection groups from simple roots: closure, classes, characters.

Groups are generated numerically by worklist closure over 3x3 reflection
matrices (element equality at Frobenius tolerance 1e-9; the roots involve the
golden ratio, so exact arithmetic is deliberately avoided).  Conjugacy classes
come from explicit conjugation orbits and are labeled by rotation angle,
parity, and element order.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import CharacterTableError, NonCoxeterRootsError
from .geometry import coincidence_normals, coxeter_simple_roots, sig12
from .masses import CoxeterSpec, MassSequence, brackets_for_rank

__all__ = [
    "OrthogonalElement",
    "ConjugacyClass",
    "ReflectionGroup",
    "generate_group",
    "group_from_masses",
    "conjugacy_classes",
    "o3_character",
    "degeneracy",
    "lambda_spectrum",
    "ladder",
    "spectrum_generators",
    "group_to_json",
]

_MATCH_TOL = 1e-9


@dataclass(frozen=True)
class OrthogonalElement:
    """One orthogonal 3x3 matrix with its rotation angle; det is its parity."""

    matrix: np.ndarray
    det: int
    rotation_angle: float

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "OrthogonalElement":
        m = np.asarray(m, dtype=float)
        det = int(round(float(np.linalg.det(m))))
        if det not in (-1, 1):
            raise ValueError("matrix is not orthogonal")
        tr = float(np.trace(m))
        # proper: cos(phi) = (tr-1)/2 ; improper (rotoreflection): cos(phi) = (tr+1)/2
        cos_phi = (tr - 1.0) / 2.0 if det == 1 else (tr + 1.0) / 2.0
        angle = math.acos(min(1.0, max(-1.0, cos_phi)))
        return cls(matrix=m, det=det, rotation_angle=angle)

    def is_reflection(self) -> bool:
        return self.det == -1 and abs(float(np.trace(self.matrix)) - 1.0) < 1e-9


@dataclass(frozen=True)
class ConjugacyClass:
    angle: float
    parity: int
    element_order: int
    size: int
    members: tuple = field(repr=False, default=())


@dataclass(eq=False)
class ReflectionGroup:
    spec: CoxeterSpec
    elements: list
    simple_roots: np.ndarray
    reflections: list
    classes: list

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def matrices(self) -> np.ndarray:
        return np.stack([e.matrix for e in self.elements])

    def reflection_normals(self) -> np.ndarray:
        """Unit normals of all reflection planes (eigenvector at -1)."""
        normals = []
        for el in self.reflections:
            w, v = np.linalg.eigh(el.matrix)
            normals.append(v[:, np.argmin(w)])
        return np.array(normals)


def _identify_bracket(roots: np.ndarray) -> CoxeterSpec:
    """Match pairwise root angles to a rank-3 table bracket."""
    tol = 1e-8
    dots = [abs(float(roots[0] @ roots[1])), abs(float(roots[1] @ roots[2]))]
    if abs(float(roots[0] @ roots[2])) > tol:
        raise NonCoxeterRootsError("non-adjacent roots are not orthogonal")
    for spec in brackets_for_rank(3):
        target = [math.cos(math.pi / q) for q in spec.bracket]
        if all(abs(d - t) < tol for d, t in zip(dots, target)):
            return spec
        if all(abs(d - t) < tol for d, t in zip(dots, target[::-1])):
            return spec
    raise NonCoxeterRootsError(f"root angles {dots} match no rank-3 bracket")


def _match_index(candidate: np.ndarray, matrices: np.ndarray) -> int:
    """Index of candidate in the stack, or -1 (Frobenius tolerance)."""
    if len(matrices) == 0:
        return -1
    d = np.abs(matrices - candidate).sum(axis=(1, 2))
    i = int(np.argmin(d))
    return i if d[i] < _MATCH_TOL * 9 else -1


def generate_group(simple_root_normals) -> ReflectionGroup:
    """Close the three root reflections into a finite group."""
    roots = np.asarray(simple_root_normals, dtype=float)
    if roots.shape != (3, 3):
        raise NonCoxeterRootsError("need exactly three rank-3 simple roots")
    norms = np.linalg.norm(roots, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-8):
        raise NonCoxeterRootsError("simple roots must be unit vectors")
    spec = _identify_bracket(roots)
    generators = [np.eye(3) - 2.0 * np.outer(g, g) for g in roots]

    stack = np.empty((0, 3, 3))
    elements: list[np.ndarray] = []

    def add(m) -> bool:
        nonlocal stack
        if _match_index(m, stack) >= 0:
            return False
        elements.append(m)
        stack = np.concatenate([stack, m[None]], axis=0)
        return True

    add(np.eye(3))
    frontier = [np.eye(3)]
    # stop once the closure outgrows the order of the matched table row
    while frontier and len(elements) <= spec.order:
        new_frontier = []
        for m in frontier:
            for g in generators:
                prod = g @ m
                if add(prod):
                    new_frontier.append(prod)
        frontier = new_frontier

    if len(elements) != spec.order:
        raise NonCoxeterRootsError(
            f"closure produced {len(elements)} elements, expected {spec.order} for {spec.name}"
        )
    orth = [OrthogonalElement.from_matrix(m) for m in elements]
    reflections = [e for e in orth if e.is_reflection()]
    if len(reflections) != spec.lambda0:
        raise NonCoxeterRootsError(
            f"{len(reflections)} reflections found, expected {spec.lambda0}"
        )
    group = ReflectionGroup(
        spec=spec, elements=orth, simple_roots=roots, reflections=reflections, classes=[]
    )
    group.classes = conjugacy_classes(group)
    return group


def group_from_masses(masses: MassSequence) -> ReflectionGroup:
    """Group generated by the bounding planes of the 1..N ordering sector."""
    return generate_group(coxeter_simple_roots(coincidence_normals(masses)))


def conjugacy_classes(group: ReflectionGroup) -> list:
    """Conjugation orbits labeled by (angle, parity, order, size)."""
    mats = group.matrices
    n = len(mats)
    inv = np.transpose(mats, (0, 2, 1))  # orthogonal inverse
    assigned = np.full(n, -1, dtype=int)
    classes = []
    for i in range(n):
        if assigned[i] >= 0:
            continue
        conj = mats @ mats[i] @ inv  # h g h^T for all h
        members = set()
        for c in conj:
            j = _match_index(c, mats)
            if j < 0:
                raise CharacterTableError("conjugate fell outside the group")
            members.add(j)
        label = len(classes)
        for j in members:
            assigned[j] = label
        rep = group.elements[i]
        classes.append(
            ConjugacyClass(
                angle=rep.rotation_angle,
                parity=rep.det,
                element_order=_element_order(mats[i]),
                size=len(members),
                members=tuple(sorted(members)),
            )
        )
    if sum(c.size for c in classes) != n:
        raise CharacterTableError("classes do not partition the group")
    return sorted(classes, key=lambda c: (-c.parity, c.angle, c.size))


def _element_order(m: np.ndarray) -> int:
    p = np.eye(3)
    for k in range(1, 65):  # rank-3 table elements have order at most 10
        p = p @ m
        if np.abs(p - np.eye(3)).max() < 1e-8:
            return k
    raise CharacterTableError("element order exceeds cap")


def o3_character(lam: int, cls: ConjugacyClass) -> float:
    """Character of the degree-lam harmonic representation on one class.

    chi = sum_{mu=-lam..lam} cos(mu*phi) * parity^(lam-mu); for proper classes
    this is the Dirichlet kernel sin((lam+1/2)phi)/sin(phi/2).
    """
    if lam < 0:
        raise ValueError("lam must be non-negative")
    phi = cls.angle if cls.parity == 1 else cls.angle + math.pi
    # sum over mu of e^{i mu phi'} with phi' = phi (+pi for improper), times parity^lam
    s = math.sin(0.5 * phi)
    if abs(s) < 1e-12:
        kernel = 2.0 * lam + 1.0
    else:
        kernel = math.sin((lam + 0.5) * phi) / s
    return kernel if cls.parity == 1 else (-1.0) ** lam * kernel


def degeneracy(lam: int, group: ReflectionGroup) -> int:
    """Multiplicity of the anti-invariant irrep inside the degree-lam harmonics."""
    total = 0.0
    for cls in group.classes:
        total += cls.size * cls.parity * o3_character(lam, cls)
    a = total / group.order
    nearest = round(a)
    if abs(a - nearest) > 1e-6 or nearest < 0:
        raise CharacterTableError(f"a_lambda = {a!r} is not a non-negative integer")
    return int(nearest)


def spectrum_generators(spec: CoxeterSpec) -> tuple:
    """Degrees (a, b) of the two symmetric-invariant generators above rho^2.

    These are the second and third invariant degrees; b is None at rank 2.
    """
    if spec.rank > 3:
        raise ValueError(f"no ladder spectrum implemented for {spec.name}")
    return (spec.degrees[1], spec.degrees[2] if spec.rank == 3 else None)


def ladder(spec: CoxeterSpec, lambda_max: int):
    """(n1, n2, lambda) for every lambda = lambda0 + a*n1 + b*n2 <= lambda_max."""
    a, b = spectrum_generators(spec)
    for n1 in range((lambda_max - spec.lambda0) // a + 1):
        base = spec.lambda0 + a * n1
        for n2 in range((lambda_max - base) // b + 1) if b else (0,):
            yield n1, n2, base + (b or 0) * n2


def lambda_spectrum(spec: CoxeterSpec, lambda_max: int) -> dict:
    """Multiplicity of every allowed lambda <= lambda_max on the ladder."""
    return dict(sorted(Counter(lam for _, _, lam in ladder(spec, lambda_max)).items()))


def group_to_json(group: ReflectionGroup) -> str:
    data = {
        "name": group.spec.name,
        "bracket": list(group.spec.bracket),
        "order": group.order,
        "reflections": len(group.reflections),
        "classes": [
            {
                "angle": sig12(c.angle),
                "parity": c.parity,
                "element_order": c.element_order,
                "size": c.size,
            }
            for c in group.classes
        ],
    }
    return json.dumps(data, indent=2)
