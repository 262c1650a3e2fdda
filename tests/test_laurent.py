"""Laurent polynomial arithmetic against an independent dense-dict oracle."""

import random

import pytest

from laurent import LaurentPoly


def dense_mul(a: dict, b: dict) -> dict:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def dense_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {k: v for k, v in out.items() if v}


def random_poly(rng: random.Random, nvars: int = 4, terms: int = 6) -> LaurentPoly:
    data = {}
    for _ in range(terms):
        exps = tuple(rng.randint(-3, 3) for _ in range(nvars))
        data[exps] = data.get(exps, 0) + rng.randint(-5, 5)
    return LaurentPoly(nvars, data)


def test_mul_matches_dense_convolution():
    rng = random.Random(4821)
    for _ in range(200):
        a, b = random_poly(rng), random_poly(rng)
        assert dict((a * b).terms()) == dense_mul(dict(a.terms()), dict(b.terms()))


def test_add_sub_match_dense():
    rng = random.Random(1733)
    for _ in range(200):
        a, b = random_poly(rng), random_poly(rng)
        assert dict((a + b).terms()) == dense_add(dict(a.terms()), dict(b.terms()))
        assert (a - b) + b == a


def test_trinomial_cube():
    # (1 + t1 + t2)^3 has the 10 monomials of degree <= 3 in two variables
    t = LaurentPoly(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
    p = t * t * t
    assert p.num_terms == 10
    coeffs = dict(p.terms())
    assert coeffs[(1, 1)] == 6
    assert coeffs[(3, 0)] == 1
    assert coeffs[(2, 1)] == 3
    assert p.constant_term == 1


def test_dual_is_ring_homomorphism():
    rng = random.Random(271)
    for _ in range(100):
        a, b = random_poly(rng), random_poly(rng)
        assert (a * b).dual() == a.dual() * b.dual()
        assert (a + b).dual() == a.dual() + b.dual()
        assert a.dual().dual() == a


def test_dual_of_vertex_denominator():
    # P(1/t) = -P(t)/kappa with P(t) = prod (1 - t^a_i), kappa = t^(a1+a2+a3)
    rng = random.Random(55)
    for _ in range(50):
        vecs = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(3)]
        one = LaurentPoly.monomial((0, 0, 0))
        p = one
        for v in vecs:
            p = p * (one - LaurentPoly.monomial(v))
        kappa_inv = LaurentPoly.monomial(tuple(-sum(col) for col in zip(*vecs)))
        assert p.dual() == -(p * kappa_inv)


def test_zero_coefficients_are_dropped():
    p = LaurentPoly(2, {(1, 0): 3, (0, 1): -3})
    q = LaurentPoly(2, {(1, 0): -3, (0, 1): 3})
    assert not (p + q)
    assert (p + q).num_terms == 0
    assert p * 0 == LaurentPoly.zero(2)


def test_equality_and_hash():
    a = LaurentPoly(2, {(1, 2): 5})
    b = LaurentPoly(2, [((1, 2), 2), ((1, 2), 3)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != LaurentPoly(2, {(1, 2): 4})


def test_constructor_validation():
    with pytest.raises(ValueError):
        LaurentPoly(2, {(1, 2, 3): 1})
    with pytest.raises(TypeError):
        LaurentPoly(1, {(1,): 1.5})
    with pytest.raises(ValueError):
        LaurentPoly(2, {(1, 0): 1}) * LaurentPoly(3, {(1, 0, 0): 1})


def test_terms_are_sorted_deterministically():
    p = LaurentPoly(2, {(2, 0): 1, (-1, 3): 2, (0, 0): 7})
    assert p.terms() == (((-1, 3), 2), ((0, 0), 7), ((2, 0), 1))
