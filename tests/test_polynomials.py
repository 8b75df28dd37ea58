import json
import math

import numpy as np
import pytest

from kaleidobilliards.polynomials import (
    HomogeneousPolynomial,
    moment_gram,
    _exponent_arrays,
    monomial_images,
    product_of_linear_forms,
)


def random_orthogonal(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    return q * np.sign(np.diag(r))


def test_coefficients_view_sums_to_degree():
    p = HomogeneousPolynomial.from_dict(4, {(2, 1, 1): 2.0, (0, 0, 4): -1.0})
    for expo, coeff in p.coefficients.items():
        assert sum(expo) == 4
        assert coeff != 0.0


def test_from_dict_rejects_bad_exponents():
    with pytest.raises(ValueError):
        HomogeneousPolynomial.from_dict(3, {(1, 1, 2): 1.0})


def test_product_matches_pointwise():
    rng = np.random.default_rng(0)
    p = HomogeneousPolynomial.from_dict(3, {(1, 1, 1): 1.5, (3, 0, 0): -0.5})
    q = HomogeneousPolynomial.from_dict(2, {(0, 2, 0): 2.0, (1, 0, 1): 1.0})
    pq = p * q
    pts = rng.normal(size=(30, 3))
    np.testing.assert_allclose(pq.evaluate(pts), p.evaluate(pts) * q.evaluate(pts), rtol=1e-12)


def test_laplacian_of_harmonic_monomial():
    # z1*z2*z3 is harmonic
    p = HomogeneousPolynomial.from_dict(3, {(1, 1, 1): 1.0})
    assert p.laplacian().is_zero()
    # z1^2 has Laplacian 2
    q = HomogeneousPolynomial.from_dict(2, {(2, 0, 0): 1.0})
    assert q.laplacian().coefficients == {(0, 0, 0): 2.0}


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    p = HomogeneousPolynomial.from_dict(5, {(2, 2, 1): 1.0, (0, 1, 4): -2.0, (5, 0, 0): 0.3})
    grads = p.gradient()
    pts = rng.normal(size=(10, 3))
    h = 1e-6
    for axis in range(3):
        d = np.zeros(3)
        d[axis] = h
        fd = (p.evaluate(pts + d) - p.evaluate(pts - d)) / (2 * h)
        np.testing.assert_allclose(grads[axis].evaluate(pts), fd, rtol=1e-6, atol=1e-8)


def test_compose_matches_evaluation():
    rng = np.random.default_rng(2)
    m = random_orthogonal(rng)
    p = HomogeneousPolynomial.from_dict(6, {(2, 2, 2): 1.0, (6, 0, 0): -0.25, (1, 2, 3): 2.0})
    comp = p.compose(m)
    pts = rng.normal(size=(25, 3))
    np.testing.assert_allclose(comp.evaluate(pts), p.evaluate(pts @ m.T), rtol=1e-12, atol=1e-12)


def test_monomial_images_against_linear_form_products():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(3, 3))
    degree = 6
    images = monomial_images(m, degree)
    for idx, (a, b) in enumerate(zip(*_exponent_arrays(degree))):
        c = degree - a - b
        brute = product_of_linear_forms([m[0]] * a + [m[1]] * b + [m[2]] * c)
        assert np.abs(images[idx] - brute._dense).max() < 1e-10
    with pytest.raises(ValueError):
        monomial_images(np.eye(2), 0)


def monomial(a, b, c):
    return HomogeneousPolynomial.from_dict(a + b + c, {(a, b, c): 1.0})


def test_sphere_moments_known_values():
    one = monomial(0, 0, 0)
    assert one.sphere_inner(one) == pytest.approx(4 * math.pi)
    assert monomial(1, 0, 0).sphere_inner(monomial(1, 0, 0)) == pytest.approx(4 * math.pi / 3)
    assert monomial(1, 0, 0).sphere_inner(monomial(0, 1, 0)) == 0.0
    assert monomial(1, 1, 1).sphere_inner(monomial(1, 1, 1)) == pytest.approx(4 * math.pi / 105)
    # unequal degrees: z1^2 against 1, z1^2 z2^2 against z3^2, odd z1 against 1
    assert monomial(2, 0, 0).sphere_inner(one) == pytest.approx(4 * math.pi / 3)
    assert monomial(2, 2, 0).sphere_inner(monomial(0, 0, 2)) == pytest.approx(4 * math.pi / 105)
    assert monomial(1, 0, 0).sphere_inner(one) == 0.0


def test_sphere_inner_vs_quadrature():
    # moments against a dense Gauss-Legendre x trapezoid sphere quadrature, for
    # equal degrees and for the unequal pairs (4, 6) and (6, 4)
    p = HomogeneousPolynomial.from_dict(4, {(2, 2, 0): 1.0, (0, 0, 4): -0.5})
    q = HomogeneousPolynomial.from_dict(4, {(4, 0, 0): 0.7, (2, 0, 2): 1.0})
    r = HomogeneousPolynomial._from_coeff_vector(6, np.random.default_rng(4).normal(size=28))
    x, w = np.polynomial.legendre.leggauss(24)
    phi = np.linspace(0, 2 * math.pi, 49, endpoint=False)
    ct = x[:, None]
    st = np.sqrt(1 - ct**2)
    pts = np.stack(
        [
            (st * np.cos(phi)[None, :]).ravel(),
            (st * np.sin(phi)[None, :]).ravel(),
            np.broadcast_to(ct, (24, 49)).ravel(),
        ],
        axis=1,
    )
    weights = np.broadcast_to(w[:, None], (24, 49)).ravel() * (2 * math.pi / 49)
    for a, b in [(p, q), (p, r), (r, p)]:
        quad = float(np.sum(weights * a.evaluate(pts) * b.evaluate(pts)))
        assert a.sphere_inner(b) == pytest.approx(quad, rel=1e-12)


def test_moment_gram_symmetry():
    g = moment_gram(7, 7)
    assert g.dtype == np.longdouble and g.shape == (36, 36)
    assert np.array_equal(g, g.T)
    assert np.array_equal(moment_gram(3, 5), moment_gram(5, 3).T)


def test_moment_gram_is_read_only():
    with pytest.raises(ValueError):
        moment_gram(2, 2)[:] = 0
    z3_squared = monomial(0, 0, 2)
    assert z3_squared.sphere_inner(z3_squared) == pytest.approx(4 * math.pi / 5)


def test_json_round_trip():
    p = HomogeneousPolynomial.from_dict(3, {(1, 1, 1): 2.5, (0, 3, 0): -1.0})
    items = json.loads(p.to_json())
    assert {tuple(it["exponents"]): it["coefficient"] for it in items} == p.coefficients


def test_linear_form_product_degree():
    vecs = [np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([1.0, 1, 1])]
    p = product_of_linear_forms(vecs)
    assert p.degree == 3
    assert p.evaluate(np.array([[2.0, 3.0, 4.0]]))[0] == pytest.approx(2 * 3 * 9)


def test_normalization_errors_on_zero():
    with pytest.raises(ValueError):
        HomogeneousPolynomial(2).l2_normalized()
