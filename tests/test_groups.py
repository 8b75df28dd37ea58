import math

import numpy as np
import pytest

from kaleidobilliards.errors import CharacterTableError, NonCoxeterRootsError
from kaleidobilliards.groups import (
    conjugacy_classes,
    degeneracy,
    generate_group,
    group_from_masses,
    group_to_json,
    lambda_spectrum,
    o3_character,
    spectrum_generators,
)
from kaleidobilliards.masses import (
    MassSequence,
    coxeter_spec,
    generate_family,
    symmetric_member,
)


@pytest.fixture(scope="module")
def a3():
    return group_from_masses(MassSequence((1, 1, 1, 1)))


@pytest.fixture(scope="module")
def c3():
    return group_from_masses(generate_family(coxeter_spec("C3"), 3, 1))


@pytest.fixture(scope="module")
def h3():
    return group_from_masses(symmetric_member(coxeter_spec("H3")))


# -- generation ----------------------------------------------------------------

def test_orders_and_reflection_counts(a3, c3, h3):
    for group, order, nrefl in ((a3, 24, 6), (c3, 48, 9), (h3, 120, 15)):
        assert group.order == order
        assert len(group.reflections) == nrefl
        assert group.spec.order == order


def test_closure_and_inverses(h3):
    mats = h3.matrices
    rng = np.random.default_rng(0)
    idx = rng.integers(0, len(mats), size=40)
    jdx = rng.integers(0, len(mats), size=40)
    for i, j in zip(idx, jdx):
        prod = mats[i] @ mats[j]
        dists = np.abs(mats - prod).sum(axis=(1, 2))
        assert dists.min() < 1e-9
        inv = mats[i].T
        assert np.abs(mats - inv).sum(axis=(1, 2)).min() < 1e-9


def test_elements_are_orthogonal_with_unit_det(h3):
    for det, m in zip(h3.dets, h3.matrices):
        assert np.abs(m @ m.T - np.eye(3)).max() < 1e-12
        assert det in (-1, 1)
        assert det == round(float(np.linalg.det(m)))


def test_reflections_have_signature(h3):
    for m in h3.reflections:
        w = np.linalg.eigvalsh(m)
        np.testing.assert_allclose(w, [-1.0, 1.0, 1.0], atol=1e-9)


def test_non_coxeter_roots_rejected():
    theta = math.pi / 7  # not a table angle against orthogonality pattern
    roots = np.array(
        [
            [1.0, 0.0, 0.0],
            [-math.cos(theta), math.sin(theta), 0.0],
            [0.0, -math.cos(math.pi / 3), math.sin(math.pi / 3)],
        ]
    )
    with pytest.raises(NonCoxeterRootsError):
        generate_group(roots)


# -- conjugacy classes ----------------------------------------------------------

H3_CLASS_TABLE = [
    (0.0, 1, 1, 1),
    (2 * math.pi / 5, 1, 5, 12),
    (4 * math.pi / 5, 1, 5, 12),
    (2 * math.pi / 3, 1, 3, 20),
    (math.pi, 1, 2, 15),
    (math.pi, -1, 2, 1),
    (math.pi / 5, -1, 10, 12),
    (3 * math.pi / 5, -1, 10, 12),
    (math.pi / 3, -1, 6, 20),
    (0.0, -1, 2, 15),
]


def test_h3_class_table_matches(h3):
    rows = sorted(
        (round(c.angle, 9), c.parity, c.element_order, c.size) for c in h3.classes
    )
    expected = sorted(
        (round(a, 9), p, o, s) for a, p, o, s in H3_CLASS_TABLE
    )
    assert rows == expected


def test_classes_partition(a3, c3, h3):
    for group in (a3, c3, h3):
        assert sum(c.size for c in group.classes) == group.order
        ident = [c for c in group.classes if c.size == 1 and c.parity == 1]
        assert len(ident) == 1 and abs(ident[0].angle) < 1e-12


def test_class_table_refuses_a_stack_missing_an_element(h3):
    # index 1 is the first simple reflection, in a class of 15
    with pytest.raises(CharacterTableError, match="fell outside the group"):
        conjugacy_classes(np.delete(h3.matrices, 1, axis=0))


def test_class_table_refuses_a_stack_with_a_duplicate(h3):
    stack = np.concatenate([h3.matrices, h3.matrices[1:2]])
    with pytest.raises(CharacterTableError, match="do not partition"):
        conjugacy_classes(stack)


def test_stack_holds_identity_then_closure_order(a3, c3, h3):
    for group in (a3, c3, h3):
        np.testing.assert_array_equal(group.matrices[0], np.eye(3))
        simple = [np.eye(3) - 2.0 * np.outer(r, r) for r in group.simple_roots]
        np.testing.assert_array_equal(group.matrices[1:4], simple)
        np.testing.assert_array_equal(group.reflections[:3], simple)


# -- characters ----------------------------------------------------------------

def test_character_examples(h3):
    refl = next(c for c in h3.classes if c.parity == -1 and abs(c.angle) < 1e-9)
    ident = next(c for c in h3.classes if c.parity == 1 and abs(c.angle) < 1e-9)
    inv = next(c for c in h3.classes if c.parity == -1 and abs(c.angle - math.pi) < 1e-9)
    for lam in (0, 1, 2, 7, 30):
        assert o3_character(lam, refl) == pytest.approx(1.0, abs=1e-9)
    assert o3_character(1, ident) == pytest.approx(3.0)
    assert o3_character(1, inv) == pytest.approx(-3.0)
    assert o3_character(4, inv) == pytest.approx(9.0)  # (-1)^lam (2 lam + 1)


def test_character_matches_matrix_trace_on_vector_irrep(h3):
    # lam = 1 character equals the trace of any class member
    for cls in h3.classes:
        member = h3.matrices[cls.members[0]]
        assert o3_character(1, cls) == pytest.approx(np.trace(member), abs=1e-9)


def test_character_orthogonality(a3, c3, h3):
    for group in (a3, c3, h3):
        total = sum(c.size * (c.parity) ** 2 for c in group.classes) / group.order
        assert total == pytest.approx(1.0, abs=1e-12)


# -- degeneracy oracle -----------------------------------------------------------

def test_degeneracy_examples(h3):
    assert degeneracy(15, h3) == 1
    assert degeneracy(45, h3) == 2
    assert degeneracy(14, h3) == 0


def test_degeneracy_equals_enumeration_up_to_60(a3, c3, h3):
    for group in (a3, c3, h3):
        counts = lambda_spectrum(group.spec, 60)
        for lam in range(61):
            assert degeneracy(lam, group) == counts.get(lam, 0), (group.spec.name, lam)


def test_lambda_spectrum_examples():
    assert lambda_spectrum(coxeter_spec("H3"), 35) == {
        15: 1, 21: 1, 25: 1, 27: 1, 31: 1, 33: 1, 35: 1
    }
    assert lambda_spectrum(coxeter_spec("A3"), 14) == {
        6: 1, 9: 1, 10: 1, 12: 1, 13: 1, 14: 1
    }
    assert lambda_spectrum(coxeter_spec("C3"), 9) == {9: 1}
    assert lambda_spectrum(coxeter_spec("H3"), 45)[45] == 2
    assert lambda_spectrum(coxeter_spec("I2(5)"), 20) == {5: 1, 10: 1, 15: 1, 20: 1}


GENERATORS = {
    "I2(3)": (3, None), "I2(4)": (4, None), "H2": (5, None), "I2(7)": (7, None),
    "A2": (3, None), "C2": (4, None), "A3": (3, 4), "C3": (4, 6), "H3": (6, 10),
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_spectrum_generators_table(name):
    assert spectrum_generators(coxeter_spec(name)) == GENERATORS[name]


@pytest.mark.parametrize("name", ["A4", "C4", "H4", "F4", "A5"])
def test_spectrum_generators_above_rank_3_raise(name):
    with pytest.raises(ValueError, match="no ladder spectrum"):
        spectrum_generators(coxeter_spec(name))


# -- bracket identification -------------------------------------------------------

# members whose simple roots carry the bracket reversed: the larger entry sits
# on the second pair of mirrors
REVERSED = {
    "H3": MassSequence(symmetric_member(coxeter_spec("H3")).masses[::-1]),
    "C3": MassSequence((6, 2, 1, 3)),
}


@pytest.mark.parametrize("name", sorted(REVERSED))
def test_reversed_bracket_members_are_identified(name):
    group = group_from_masses(REVERSED[name])
    roots = group.simple_roots
    assert group.spec.name == name
    # |r_a . r_b| = cos(pi/q) grows with the bracket entry q
    small, large = sorted(group.spec.bracket)
    assert abs(roots[0] @ roots[1]) == pytest.approx(math.cos(math.pi / small), abs=1e-12)
    assert abs(roots[1] @ roots[2]) == pytest.approx(math.cos(math.pi / large), abs=1e-12)


# -- serialization ----------------------------------------------------------------

def test_group_json(h3):
    import json

    data = json.loads(group_to_json(h3))
    assert data["order"] == 120
    assert data["reflections"] == 15
    assert len(data["classes"]) == 10
