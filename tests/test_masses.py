import math

import numpy as np
import pytest

from kaleidobilliards.errors import InfeasibleFamilyError, MassDomainError
from kaleidobilliards.masses import (
    MassSequence,
    classify,
    coxeter_spec,
    brackets_for_rank,
    family_curve,
    feasibility_interval,
    generate_family,
    sector_angle,
    symmetric_member,
    write_family_csv,
)

C3 = coxeter_spec("C3")
A3 = coxeter_spec("A3")
H3 = coxeter_spec("H3")


# -- table data ---------------------------------------------------------------

TABLE_ROWS = [
    ("A2", 2, (3,), 3, 6),
    ("C2", 2, (4,), 4, 8),
    ("H2", 2, (5,), 5, 10),
    ("I2(7)", 2, (7,), 7, 14),
    ("A3", 3, (3, 3), 6, 24),
    ("C3", 3, (4, 3), 9, 48),
    ("H3", 3, (5, 3), 15, 120),
    ("A4", 4, (3, 3, 3), 10, 120),
    ("C4", 4, (4, 3, 3), 16, 384),
    ("H4", 4, (5, 3, 3), 60, 14400),
    ("F4", 4, (3, 4, 3), 24, 1152),
    ("A5", 5, (3, 3, 3, 3), 15, 720),
    ("C5", 5, (4, 3, 3, 3), 25, 3840),
]


@pytest.mark.parametrize("name,rank,bracket,lambda0,order", TABLE_ROWS)
def test_group_table_rows(name, rank, bracket, lambda0, order):
    spec = coxeter_spec(name)
    assert spec.rank == rank
    assert spec.bracket == bracket
    assert spec.lambda0 == lambda0
    assert spec.order == order


def test_rank3_candidates():
    assert [s.name for s in brackets_for_rank(3)] == ["A3", "C3", "H3"]
    assert [s.name for s in brackets_for_rank(4)] == ["A4", "C4", "H4", "F4"]


# -- mass sequence ------------------------------------------------------------

def test_fractions_sum_to_one():
    seq = MassSequence((3, 1, 2, 6))
    assert abs(sum(seq.fractions) - 1.0) < 1e-12
    assert seq.fractions == (0.25, 1 / 12, 1 / 6, 0.5)


def test_positive_masses_required():
    with pytest.raises(MassDomainError):
        MassSequence((1.0, -2.0, 1.0))
    with pytest.raises(MassDomainError):
        MassSequence((1.0, 0.0, 1.0))
    with pytest.raises(MassDomainError):
        MassSequence((1.0, math.inf, 1.0))
    with pytest.raises(MassDomainError):
        MassSequence((1.0, 2.0))


# -- sector angle -------------------------------------------------------------

def test_sector_angle_examples():
    assert sector_angle(1, 1, 1) == pytest.approx(math.pi / 3, abs=1e-15)
    assert sector_angle(3, 1, 2) == pytest.approx(math.pi / 4, abs=1e-15)
    assert sector_angle(1, 2, 6) == pytest.approx(math.pi / 3, abs=1e-15)


def test_sector_angle_range_and_errors():
    rng = np.random.default_rng(0)
    for _ in range(200):
        m = rng.uniform(0.01, 100.0, 3)
        ang = sector_angle(*m)
        assert 0.0 < ang < math.pi / 2
    with pytest.raises(MassDomainError):
        sector_angle(1.0, -1.0, 1.0)


@pytest.mark.parametrize("scale", [1e-200, 1e200, 1e308])
def test_equal_masses_classify_at_any_scale(scale):
    three = classify(MassSequence((scale,) * 3))
    assert three.best.name == "I2(3)" and three.max_deviation == 0.0
    four = classify(MassSequence((scale,) * 4))
    assert four.best.name == "A3" and four.max_deviation == 0.0


def test_sector_angle_outside_float_range_raises():
    with pytest.raises(MassDomainError, match="float64 range"):
        sector_angle(1e-300, 1.0, 1e-300)


def test_middle_angle_sum_identity():
    # the three angles around a triple-coincidence line sum to pi
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, b, c = rng.uniform(0.05, 20.0, 3)
        total = sector_angle(b, a, c) + sector_angle(a, b, c) + sector_angle(a, c, b)
        assert total == pytest.approx(math.pi, abs=1e-12)


# -- family generation ----------------------------------------------------------

PAPER_SEQUENCES = [
    ((3, 1), (3, 1, 2, 6)),
    ((10, 2), (10, 2, 3, 5)),
    ((12, 3), (12, 3, 5, 10)),
    ((56, 7), (56, 7, 9, 12)),
]


@pytest.mark.parametrize("seed,expected", PAPER_SEQUENCES)
def test_c3_rational_sequences(seed, expected):
    got = generate_family(C3, *seed).masses
    assert max(abs(g - e) for g, e in zip(got, expected)) < 1e-12


def test_family_angles_reproduce_bracket():
    rng = np.random.default_rng(2)
    for spec in (A3, C3, H3):
        lo, hi = feasibility_interval(spec)
        for _ in range(20):
            r = rng.uniform(hi * 1e-3, hi * 0.999)
            seq = generate_family(spec, 1.0, r)
            for i, q in enumerate(spec.bracket):
                ang = sector_angle(*seq.masses[i : i + 3])
                assert abs(ang - math.pi / q) < 1e-12


def test_family_scale_covariance():
    rng = np.random.default_rng(3)
    for _ in range(20):
        r = rng.uniform(0.01, 0.4)
        c = rng.uniform(0.1, 10.0)
        base = generate_family(C3, 1.0, r)
        scaled = generate_family(C3, c, c * r)
        np.testing.assert_allclose(scaled.masses, [c * m for m in base.masses], rtol=1e-12)
        assert scaled.fractions == pytest.approx(base.fractions, rel=1e-12)


def test_family_feasibility_error():
    with pytest.raises(InfeasibleFamilyError):
        generate_family(C3, 1.0, 0.75)  # beyond r_max = 1/2


def test_feasibility_intervals_match_closed_forms():
    assert feasibility_interval(coxeter_spec("A2"))[1] == 3.0
    assert feasibility_interval(A3)[1] == 2.0
    assert feasibility_interval(C3)[1] == 0.5
    t = 5.0 - 2.0 * math.sqrt(5.0)
    assert feasibility_interval(H3)[1] == pytest.approx((3 * t - 1) / 4, rel=1e-9)
    # the bound is sharp on every table row: the recurrence fails just past it
    for rank in range(2, 6):
        for spec in brackets_for_rank(rank):
            lo, hi = feasibility_interval(spec)
            assert lo == 0.0
            generate_family(spec, 1.0, hi * (1.0 - 1e-9))
            with pytest.raises(InfeasibleFamilyError):
                generate_family(spec, 1.0, hi * (1.0 + 1e-9))


def test_generalized_series_to_six_particles():
    for name in ("A5", "C5"):
        spec = coxeter_spec(name)
        seq = generate_family(spec, 1.0, 0.05)
        assert len(seq) == 6
        res = classify(seq)
        assert res.best.name == name
        assert res.max_deviation < 1e-10


# -- family curve ---------------------------------------------------------------

def test_family_curve_a3_equal_masses():
    curve = family_curve(A3, [1.0])
    assert curve.points[0].fractions == pytest.approx((0.25, 0.25, 0.25, 0.25))


def test_family_curve_c3_point():
    curve = family_curve(C3, [1.0 / 3.0])
    assert curve.points[0].fractions == pytest.approx((0.25, 1 / 12, 1 / 6, 0.5), rel=1e-12)
    assert curve.points[0].fractions[-1] == pytest.approx(0.5, rel=1e-12)


def test_family_curve_reports_infeasible():
    curve = family_curve(C3, [0.1, 0.75, 0.2])
    assert len(curve.points) == 2
    assert len(curve.infeasible) == 1
    assert curve.infeasible[0][0] == 0.75


@pytest.mark.parametrize("spec", [A3, C3, H3], ids=lambda s: s.name)
def test_family_curve_lists_underflowing_ratio(spec):
    # below r of about 1e-154 the numerator of the last mass is subnormal,
    # and below about 1e-162 the mass itself is 0
    curve = family_curve(spec, [1e-200, 1e-158, 0.1 * feasibility_interval(spec)[1]])
    assert len(curve.points) == 1
    assert [r for r, _ in curve.infeasible] == [1e-200, 1e-158]
    assert all("underflows float64" in reason for _, reason in curve.infeasible)
    with pytest.raises(MassDomainError, match="underflows float64"):
        generate_family(spec, 1.0, 1e-158)


def test_family_curve_empty_raises_with_interval():
    with pytest.raises(InfeasibleFamilyError) as err:
        family_curve(C3, [0.9, 0.95])
    assert "0.5" in str(err.value)


def test_family_curve_empty_raises_with_reasons():
    # both ratios lie inside the feasible interval, so only the reasons tell
    # why they were refused
    with pytest.raises(InfeasibleFamilyError) as err:
        family_curve(H3, [1e-200, 1e-199])
    message = str(err.value)
    assert "feasible r interval is (0, 0.14589803375)" in message
    assert "r=1e-200: mass 4 underflows float64 at step 2" in message
    assert "r=1e-199: mass 4 underflows float64 at step 2" in message
    # a long grid lists its first three reasons
    with pytest.raises(InfeasibleFamilyError, match=r"r=0.93: .*; and 2 more$"):
        family_curve(C3, [0.9, 0.91, 0.93, 0.95, 0.97])


def test_h3_symmetric_member_matches_reported_fractions():
    seq = symmetric_member(H3)
    fr = seq.fractions
    assert fr[0] == pytest.approx(fr[3], abs=1e-12)
    assert fr[0] == pytest.approx(0.44279, abs=5e-6)
    assert fr[1] == pytest.approx(0.03381, abs=5e-6)
    assert fr[2] == pytest.approx(0.08061, abs=5e-6)


def test_family_csv_format():
    curve = family_curve(C3, np.linspace(0.05, 0.45, 9))
    text = write_family_csv(curve)
    assert text.endswith("\n")
    lines = text.strip().split("\n")
    assert lines[0] == "r,mu1,mu2,mu3,mu4"
    assert len(lines) == 10
    cells = lines[1].split(",")
    assert len(cells) == 5
    assert abs(sum(float(c) for c in cells[1:]) - 1.0) < 1e-11


# -- classification ---------------------------------------------------------------

def test_classify_paper_sequences():
    res = classify(MassSequence((3, 1, 2, 6)))
    assert res.best.name == "C3" and res.max_deviation < 1e-12
    res = classify(MassSequence((1, 1, 1, 1)))
    assert res.best.name == "A3" and res.max_deviation < 1e-12


def test_classify_permuted_masses_not_integrable():
    res = classify(MassSequence((1, 3, 2, 6)))
    assert res.max_deviation > 0.05


def test_classify_reversed_sequence_integrable():
    res = classify(MassSequence((6, 2, 1, 3)))
    assert res.best.name == "C3"
    assert res.reversed_bracket
    assert res.max_deviation < 1e-12


def test_classify_round_trips_generated_families():
    rng = np.random.default_rng(4)
    for spec in (A3, C3, H3):
        lo, hi = feasibility_interval(spec)
        for _ in range(5):
            seq = generate_family(spec, 1.0, rng.uniform(hi * 0.01, hi * 0.99))
            res = classify(seq)
            assert res.best.name == spec.name
            assert res.max_deviation < 1e-10


def test_classify_three_particles_fits_nearest_q():
    # equal masses: angle pi/3 -> q = 3
    res = classify(MassSequence((1, 1, 1)))
    assert res.best.name == "I2(3)"
    assert res.max_deviation < 1e-12
    # q = 5 family from the recurrence
    seq5 = generate_family(coxeter_spec("I2(5)"), 1.0, 0.2)
    res5 = classify(MassSequence(seq5.masses))
    assert res5.best.name == "I2(5)"
    assert res5.max_deviation < 1e-12


# a light middle mass opens an angle near pi/q with q large, where pi/q is
# spaced about pi/q^2: 2e-12 rad at q 2221441, below a 1e-10 rad tolerance
@pytest.mark.parametrize("light,name,q_miss", [
    (1e-6, "I2(2221)", 0.442),
    (1e-12, "I2(2221441)", 0.469),
])
def test_classify_judges_the_angle_in_units_of_q(light, name, q_miss):
    res = classify(MassSequence((1.0, light, 1.0)))
    assert res.best.name == name
    (q,) = res.best.bracket
    assert abs(math.pi / res.measured_angles[0] - q) == pytest.approx(q_miss, abs=1e-3)
    assert not res.integrable
    # a generated member of the same order still passes
    member = classify(generate_family(coxeter_spec(name), 1.0, light))
    assert member.best.name == name and member.integrable


def test_classify_passes_generated_members_up_to_q_3e6():
    # float64 rounds a member's angle by a few q x 1e-16 in units of q: the
    # worst of these 150 reads 9.3e-10 (2 ulps of 3e6), inside the 1e-9 rule
    rng = np.random.default_rng(4)
    for q in (100_000, 1_000_000, 3_000_000):
        spec = coxeter_spec(f"I2({q})")
        lo, hi = feasibility_interval(spec)
        for r in rng.uniform(hi * 0.01, hi * 0.99, 50):
            res = classify(generate_family(spec, 1.0, r))
            assert res.best.name == spec.name and res.integrable, (q, r)


@pytest.mark.parametrize("q", [100_000_000, 1_000_000_000_000])
def test_classify_passes_generated_members_at_large_q(q):
    # past q 2^21 the rule's 4 ulp(q) exceeds 1e-9; the worst of 200 members
    # at each q from 1e5 to 1e13 read 2 ulp(q)
    rng = np.random.default_rng(5)
    spec = coxeter_spec(f"I2({q})")
    lo, hi = feasibility_interval(spec)
    for r in rng.uniform(hi * 0.01, hi * 0.99, 150):
        res = classify(generate_family(spec, 1.0, r))
        assert res.best.name == spec.name and res.integrable, (q, r)


def test_classify_beyond_float64_resolution_is_not_integrable():
    # the angle fits q about 2.2e15, where ulp(q) is 0.5 and pi/a may round
    # onto q exactly: float64 cannot tell the lattice apart there
    res = classify(MassSequence((1.0, 1e-30, 1.0)))
    (q,) = res.best.bracket
    assert q > 2**41
    assert not res.integrable


def test_rational_closure_of_a_and_c_series():
    from fractions import Fraction

    for spec, seed in ((A3, (5, 3)), (C3, (7, 2))):
        seq = generate_family(spec, *seed)
        for m in seq.masses:
            frac = Fraction(m).limit_denominator(10**6)
            assert abs(float(frac) - m) < 1e-12
