import itertools
import json
import math

import numpy as np
import pytest

from kaleidobilliards.errors import GeometryError
from kaleidobilliards.geometry import (
    _angle,
    coincidence_normals,
    coxeter_simple_roots,
    geometry_from_inward_normals,
    geometry_to_json,
    sector_geometry,
)
from kaleidobilliards.masses import (
    MassSequence,
    coxeter_spec,
    generate_family,
    sector_angle,
    symmetric_member,
)

EQUAL = MassSequence((1, 1, 1, 1))
C3_SEQ = generate_family(coxeter_spec("C3"), 3, 1)
H3_SEQ = symmetric_member(coxeter_spec("H3"))


def random_masses(rng):
    return MassSequence(tuple(rng.uniform(0.1, 8.0, 4)))


# -- normals ------------------------------------------------------------------

def test_frame_convention():
    planes = coincidence_normals(EQUAL)
    np.testing.assert_array_equal(planes.normal(1, 2), [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(planes.normal(3, 4), [0.0, 1.0, 0.0])


def test_equal_mass_13_normal_closed_form():
    # substituting equal masses into the plane equation gives (1,-1,sqrt2)/2
    planes = coincidence_normals(EQUAL)
    expected = np.array([1.0, -1.0, math.sqrt(2.0)]) / 2.0
    np.testing.assert_allclose(planes.normal(1, 3), expected, atol=1e-15)


def test_unit_norm_and_disjoint_orthogonality():
    rng = np.random.default_rng(0)
    for _ in range(100):
        planes = coincidence_normals(random_masses(rng))
        for key, vec in planes.normals.items():
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
        for (i, j), (k, l) in [((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))]:
            assert abs(planes.normal(i, j) @ planes.normal(k, l)) < 1e-12


def test_angles_match_mass_formula():
    # normal angles against the arctan formula for 100 random mass tuples
    rng = np.random.default_rng(1)
    pairs = [((1, 2), (2, 3)), ((2, 3), (3, 4)), ((1, 3), (3, 4)), ((1, 2), (1, 3))]
    for _ in range(100):
        masses = random_masses(rng)
        planes, m = coincidence_normals(masses), masses.masses
        for (i, j), (k, l) in pairs:
            mid = ({i, j} & {k, l}).pop()
            outer = sorted({i, j, k, l} - {mid})
            expected = sector_angle(m[outer[0] - 1], m[mid - 1], m[outer[1] - 1])
            ang = _angle(planes.normal(i, j), planes.normal(k, l))
            assert min(abs(ang - expected), abs(math.pi - ang - expected)) < 1e-10


def test_adjacent_pair_angle_is_omega_or_supplement():
    rng = np.random.default_rng(2)
    for _ in range(50):
        masses = random_masses(rng)
        planes = coincidence_normals(masses)
        m = masses.masses
        omega = sector_angle(m[0], m[1], m[2])
        ang = math.acos(np.clip(planes.normal(1, 2) @ planes.normal(2, 3), -1, 1))
        assert min(abs(ang - omega), abs(math.pi - ang - omega)) < 1e-12


# -- sector geometry -----------------------------------------------------------

def test_coxeter_sector_angles_and_tiling():
    cases = [
        (EQUAL, (math.pi / 3, math.pi / 3, math.pi / 2), math.pi / 6, 24),
        (C3_SEQ, (math.pi / 4, math.pi / 3, math.pi / 2), math.pi / 12, 48),
        (H3_SEQ, (math.pi / 5, math.pi / 3, math.pi / 2), math.pi / 30, 120),
    ]
    for masses, angles, area, order in cases:
        geom = sector_geometry(coincidence_normals(masses), (1, 2, 3, 4))
        assert sorted(geom.dihedral_angles) == pytest.approx(sorted(angles), abs=1e-12)
        assert geom.area == pytest.approx(area, abs=1e-12)
        assert order * geom.area == pytest.approx(4 * math.pi, abs=1e-10)


def test_sphere_partition_over_all_orderings():
    rng = np.random.default_rng(3)
    for masses in (EQUAL, C3_SEQ, random_masses(rng)):
        planes = coincidence_normals(masses)
        total = sum(
            sector_geometry(planes, p).area for p in itertools.permutations((1, 2, 3, 4))
        )
        assert total == pytest.approx(4 * math.pi, abs=1e-9)


def test_inversion_congruence():
    rng = np.random.default_rng(4)
    for _ in range(10):
        masses = random_masses(rng)
        planes = coincidence_normals(masses)
        p = tuple(rng.permutation((1, 2, 3, 4)))
        g1 = sector_geometry(planes, p)
        g2 = sector_geometry(planes, p[::-1])
        assert g1.area == pytest.approx(g2.area, rel=1e-12)
        assert sorted(g1.dihedral_angles) == pytest.approx(sorted(g2.dihedral_angles), abs=1e-12)
        assert sorted(g1.vertex_angles) == pytest.approx(sorted(g2.vertex_angles), abs=1e-12)


def test_sides_match_vertex_arcs():
    rng = np.random.default_rng(5)
    for _ in range(10):
        geom = sector_geometry(coincidence_normals(random_masses(rng)), (1, 3, 4, 2))
        arcs = sorted(
            math.acos(np.clip(geom.vertices[a] @ geom.vertices[b], -1, 1))
            for a, b in [(0, 1), (0, 2), (1, 2)]
        )
        assert arcs == pytest.approx(sorted(geom.vertex_angles), abs=1e-12)


def test_girard_area_positive_and_consistent():
    rng = np.random.default_rng(6)
    for _ in range(20):
        geom = sector_geometry(coincidence_normals(random_masses(rng)), (2, 4, 1, 3))
        assert geom.area == pytest.approx(sum(geom.dihedral_angles) - math.pi, abs=1e-13)
        assert geom.area > 0


def test_octant_manual_geometry():
    geom = geometry_from_inward_normals(np.eye(3))
    assert geom.area == pytest.approx(math.pi / 2, abs=1e-14)
    assert geom.perimeter == pytest.approx(3 * math.pi / 2, abs=1e-14)
    assert geom.dihedral_angles == pytest.approx((math.pi / 2,) * 3)


def test_degenerate_sector_raises():
    with pytest.raises(GeometryError):
        geometry_from_inward_normals(
            np.array([[1.0, 0, 0], [-1.0, 1e-13, 0], [0, 0, 1.0]])
        )


def test_bad_ordering_rejected():
    with pytest.raises(GeometryError):
        sector_geometry(coincidence_normals(EQUAL), (1, 2, 2, 4))


def test_simple_roots_obtuse_pairings():
    roots = coxeter_simple_roots(coincidence_normals(C3_SEQ))
    assert roots[0] @ roots[1] == pytest.approx(-math.cos(math.pi / 4), abs=1e-12)
    assert roots[1] @ roots[2] == pytest.approx(-math.cos(math.pi / 3), abs=1e-12)
    assert abs(roots[0] @ roots[2]) < 1e-12


def test_geometry_json_digits():
    geom = sector_geometry(coincidence_normals(H3_SEQ), (1, 2, 3, 4))
    data = json.loads(geometry_to_json(geom))
    assert data["area"] == pytest.approx(math.pi / 30, rel=1e-11)
    assert len(data["dihedral_angles"]) == 3
    assert len(data["bounding_normals"]) == 3


@pytest.mark.parametrize("scale", [1e-200, 1e160, 1e200, 1e308])
def test_equal_mass_geometry_is_scale_free(scale):
    planes, ref = coincidence_normals(MassSequence((scale,) * 4)), coincidence_normals(EQUAL)
    for perm in itertools.permutations((1, 2, 3, 4)):
        assert geometry_to_json(sector_geometry(planes, perm)) == geometry_to_json(
            sector_geometry(ref, perm)
        )
