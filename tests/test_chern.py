"""Intersection rings, mixed Chern vectors, phi basis, double point relations.

Frozen integrals were derived by hand (simplex fans, Euler sequences,
Riemann-Roch on 3-folds) and cross-checked against the localization engine
where a toric model exists.
"""

import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from quotdt import chern as C, conventions
from quotdt.errors import SingularBasisMatrixError
from quotdt.partitions import PartitionPair, enum_partition_pairs
from quotdt.record import Record


# -- ring presentations -----------------------------------------------------


def test_projective_space_ring():
    ring = C.ring_of_projective_product((3,))
    h = ring.gen("h1")
    assert ring.integrate(ring.product([h] * 3)) == 1
    assert ring.integrate(ring.product([h] * 2)) == 0
    assert not ring.product([h] * 4)
    c1, c2, c3 = ring.tangent_classes()
    assert c1 == ring.scale(h, 4)
    assert c2 == ring.scale(ring.product([h] * 2), 6)
    assert c3 == ring.scale(ring.product([h] * 3), 4)


def test_product_ring_integrals():
    ring = C.ring_of_projective_product((2, 1))
    h1, h2 = ring.gen("h1"), ring.gen("h2")
    assert ring.integrate(ring.mul(ring.product([h1] * 2), h2)) == 1
    assert ring.integrate(ring.product([h1] * 3)) == 0  # h1^3 = 0 on P^2
    for gamma in (h1, h2):  # h2^2 = 0 on P^1
        assert ring.integrate(ring.mul(gamma, ring.product([h2] * 2))) == 0
    with pytest.raises(ValueError):
        C.ring_of_projective_product((2, 2))


def test_quadric_ring():
    ring = C.quadric_threefold()
    hh = ring.gen("H")
    assert ring.integrate(ring.product([hh] * 3)) == 2
    c1, c2, c3 = ring.tangent_classes()
    assert c1 == ring.scale(hh, 3)
    assert c2 == ring.scale(ring.product([hh] * 2), 4)
    assert c3 == ring.scale(ring.product([hh] * 3), 2)
    assert C.euler_characteristic(ring) == 4
    assert C.c3_t_omega(ring) == -20


def test_projective_bundle_ring_relation():
    ring = C.projective_bundle_ring(1)
    xi = ring.gen("xi")
    h = ring.gen("h")
    # xi^2 = -h xi in the calibrated sub convention, seen by every degree one class
    for gamma in (h, xi):
        got = ring.integrate(ring.mul(gamma, ring.product([xi] * 2)))
        assert got == conventions.GROTHENDIECK_SIGN * ring.integrate(ring.product([gamma, h, xi]))
    assert ring.integrate(ring.mul(ring.product([h] * 2), xi)) == 1
    assert ring.integrate(ring.product([xi] * 3)) == 1
    ring = C.projective_bundle_ring(2)
    assert ring.integrate(ring.product([ring.gen("xi")] * 3)) == 4


def test_projective_bundle_sign_calibration(monkeypatch):
    # chi of a P^1 bundle over P^2 must be 2 * chi(P^2) = 6; the wrong sign
    # in the quadratic relation gives 12 as soon as the twist is nonzero
    assert C.euler_characteristic(C.projective_bundle_ring(1)) == 6
    monkeypatch.setattr(conventions, "GROTHENDIECK_SIGN", 1)
    assert C.euler_characteristic(C.projective_bundle_ring(1)) == 12


def test_projective_bundle_exponent_is_twist_independent():
    for twist in (0, 1, 2, -1, 3):
        ring = C.projective_bundle_ring(twist)
        assert C.euler_characteristic(ring) == 6
        assert C.c3_t_omega(ring) == -18


def test_blowup_ring_structure_constants():
    ring = C.blowup_p3_conic()
    h, e = ring.gen("H"), ring.gen("E")
    assert ring.integrate(ring.product([h] * 3)) == 1
    assert ring.integrate(ring.mul(ring.product([h] * 2), e)) == 0
    assert ring.integrate(ring.mul(h, ring.product([e] * 2))) == -2
    assert ring.integrate(ring.product([e] * 3)) == -6
    # c1^3 = (4H - E)^3 = 64 + 3*16*0 - 3*4*(-2)*... expanded: 46
    c1 = ring.tangent_classes()[0]
    assert ring.integrate(ring.product([c1] * 3)) == 46
    assert C.euler_characteristic(ring) == 6
    assert C.c3_t_omega(ring) == -18


def test_named_rings_and_exponents():
    for name, chi, exponent in (
        ("p3", 4, -20),
        ("p2xp1", 6, -18),
        ("p1cubed", 8, -16),
        ("quadric", 4, -20),
        ("blowup-p3-conic", 6, -18),
        ("pbundle-p2-1", 6, -18),
    ):
        ring = C.named_ring(name)
        assert C.euler_characteristic(ring) == chi
        assert C.c3_t_omega(ring) == exponent
    with pytest.raises(ValueError):
        C.named_ring("k3")


def test_named_ring_reads_products():
    # prod:d1.d2... is read by the library, as pbundle-p2-<d> is
    ring = C.named_ring("prod:2.1")
    assert ring.name == C.named_ring("p2xp1").name == "p2xp1"
    assert (C.euler_characteristic(ring), C.c3_t_omega(ring)) == (6, -18)
    for name in ("prod:a", "prod:", "prod:2..1"):
        with pytest.raises(ValueError, match=rf"^ring '{name}': a product ring is prod:d1\.d2"):
            C.named_ring(name)
    with pytest.raises(ValueError, match="sum to 3"):
        C.named_ring("prod:2.2")


# -- mixed Chern vectors -----------------------------------------------------


def test_rings_are_complete_on_construction():
    # the ring multiplies the given factors of c(T) once, in __init__
    one_plus_h = {(0,): 1, (1,): 1}
    ring = C.ChernRing("p3 by hand", ("h",), {(3,): 1}, [one_plus_h] * 4)
    assert ring.tangent_total == C.ring_of_projective_product((3,)).tangent_total
    assert ring.tangent_total == {(d,): Fraction(c) for d, c in enumerate((1, 4, 6, 4))}
    assert (C.c3_t_omega(ring), C.euler_characteristic(ring)) == (-20, 4)
    bare = C.ChernRing("point-like", ("h",), {(3,): 1}, [])
    assert bare.tangent_total == bare.one()


def test_a_non_integral_chern_number_is_an_invariant_failure():
    # c(T) = 1 + h^3 makes c3_t_omega the integral of h^3, given as 1/2
    ring = C.ChernRing("half", ("h",), {(3,): Fraction(1, 2)}, [{(0,): 1, (3,): 1}])
    with pytest.raises(RuntimeError, match=r"^c3_t_omega of half is not an integer: 1/2$"):
        C.c3_t_omega(ring)


@pytest.mark.parametrize("gens, key", [
    (("h",), (2,)), (("h",), (4,)), (("h",), (3, 0)), (("h",), 3), (("h",), (3.0,)),
    (("h", "e"), (4, -1)), (("a", "b", "c"), (True, True, True)),
])
def test_ring_refuses_an_integral_key_that_is_not_a_degree_three_monomial(gens, key):
    # a misspelt key would otherwise integrate to zero without a word
    with pytest.raises(ValueError, match=r"^ring typo: integral key .* is not a degree 3 monomial in"):
        C.ChernRing("typo", gens, {key: 1}, [])


# Chern numbers of every named ring, frozen: (c3_t_omega, euler_characteristic,
# and the mixed Chern vectors of the split bundles of rank 1, 2, 3 whose
# summands twist the generators by _FROZEN_TWISTS[:rank], cut to the ring's
# generators).  Generated before rings were presented by their integrals.
_FROZEN_TWISTS = ((1, 2, 3), (-1, 1, -2), (2, -1, 1))
_FROZEN_CHERN_NUMBERS = {
    "p3": (-20, 4, [
        (4, 24, 64, 6, 16, 4, 1),
        (4, 24, 64, 0, 0, -4, 0, 0, 0),
        (4, 24, 64, 12, 32, -4, 16, -2, -2, 8),
    ]),
    "p2xp1": (-18, 6, [
        (6, 24, 54, 12, 30, 14, 6),
        (6, 24, 54, 9, 27, -5, 0, -3, 0),
        (6, 24, 54, 18, 42, 13, 32, -1, 8, 24),
    ]),
    "p1cubed": (-16, 8, [
        (8, 24, 48, 24, 48, 44, 36),
        (8, 24, 48, 16, 32, -14, 12, -16, 0),
        (8, 24, 48, 24, 48, 6, 48, 2, 6, 48),
    ]),
    "quadric": (-20, 4, [
        (4, 24, 54, 8, 18, 6, 2),
        (4, 24, 54, 0, 0, -6, 0, 0, 0),
        (4, 24, 54, 16, 36, -6, 24, -4, -4, 16),
    ]),
    "blowup-p3-conic": (-18, 6, [
        (6, 24, 46, 24, 34, 4, -71),
        (6, 24, 46, 24, 30, -10, -18, -30, -162),
        (6, 24, 46, 32, 48, 8, 24, 0, -6, -88),
    ]),
    "pbundle-p2--2": (-18, 6, [
        (6, 24, 62, 24, 62, 62, 62),
        (6, 24, 62, 27, 75, 13, 90, 15, 108),
        (6, 24, 62, 30, 74, 13, 88, 1, 16, 104),
    ]),
    "pbundle-p2--1": (-18, 6, [
        (6, 24, 56, 18, 44, 34, 26),
        (6, 24, 56, 18, 48, 2, 36, 0, 27),
        (6, 24, 56, 24, 56, 14, 56, 2, 14, 56),
    ]),
    "pbundle-p2-0": (-18, 6, [
        (6, 24, 54, 12, 30, 14, 6),
        (6, 24, 54, 9, 27, -5, 0, -3, 0),
        (6, 24, 54, 18, 42, 13, 32, -1, 8, 24),
    ]),
    "pbundle-p2-1": (-18, 6, [
        (6, 24, 56, 6, 20, 2, 2),
        (6, 24, 56, 0, 12, -8, -18, 6, 27),
        (6, 24, 56, 12, 32, 10, 16, -8, -2, 8),
    ]),
    "pbundle-p2-2": (-18, 6, [
        (6, 24, 62, 0, 14, -2, 14),
        (6, 24, 62, -9, 3, -7, -18, 27, 108),
        (6, 24, 62, 6, 26, 5, 8, -19, -16, 8),
    ]),
}


@pytest.mark.parametrize("name", sorted(_FROZEN_CHERN_NUMBERS))
def test_chern_numbers_frozen(name):
    exponent, chi, vectors = _FROZEN_CHERN_NUMBERS[name]
    ring = C.named_ring(name)
    assert (C.c3_t_omega(ring), C.euler_characteristic(ring)) == (exponent, chi)
    for rank, want in enumerate(vectors, start=1):
        twists = [row[:len(ring.gens)] for row in _FROZEN_TWISTS[:rank]]
        assert C.mixed_chern_vector(ring, C.split_bundle_class(ring, twists)) == want


def test_builders_refuse_non_integers():
    # a non-integer degree, dimension or rank is named, never truncated
    ring = C.ring_of_projective_product((2, 1))
    cases = [
        (lambda: C.projective_bundle_ring(1.5), "twist 1.5 is not an integer"),
        (lambda: C.ring_of_projective_product((2.5, 1)), "factor dimension 2.5 is not an integer"),
        (lambda: C.split_bundle_class(ring, [(1, 0.5)]),
         "p2xp1 twist (1, 0.5) is not a vector in Z^2"),
        (lambda: C.split_bundle_class(C.named_ring("p3"), [1.5]),
         "p3 twist (1.5,) is not a vector in Z^1"),
        (lambda: C.BundleClass(ring, 2.0, ()), "rank 2.0 is not an integer"),
    ]
    for build, message in cases:
        with pytest.raises(ValueError) as got:
            build()
        assert str(got.value) == message


def test_mixed_monomial_order():
    assert C.mixed_monomials(1) == (
        ((0, 0, 1), (0, 0, 0)),
        ((1, 1, 0), (0, 0, 0)),
        ((3, 0, 0), (0, 0, 0)),
        ((0, 1, 0), (1, 0, 0)),
        ((2, 0, 0), (1, 0, 0)),
        ((1, 0, 0), (2, 0, 0)),
        ((0, 0, 0), (3, 0, 0)),
    )
    assert C.mixed_monomials(3) == (
        ((0, 0, 1), (0, 0, 0)),
        ((1, 1, 0), (0, 0, 0)),
        ((3, 0, 0), (0, 0, 0)),
        ((0, 1, 0), (1, 0, 0)),
        ((2, 0, 0), (1, 0, 0)),
        ((1, 0, 0), (0, 1, 0)),
        ((1, 0, 0), (2, 0, 0)),
        ((0, 0, 0), (0, 0, 1)),
        ((0, 0, 0), (1, 1, 0)),
        ((0, 0, 0), (3, 0, 0)),
    )
    assert len(C.mixed_monomials(2)) == 9
    assert len(C.mixed_monomials(5)) == 10  # saturates at rank 3


def test_phi_class_vectors_frozen():
    cases = [
        ((3,), (), (4, 24, 64, 0, 0, 0, 0)),
        ((3,), (3,), (4, 24, 64, 6, 16, 4, 1)),
        ((2, 1), (), (6, 24, 54, 0, 0, 0, 0)),
        ((2, 1), (2,), (6, 24, 54, 6, 12, 2, 0)),
        ((2, 1), (1,), (6, 24, 54, 3, 9, 0, 0)),
        ((1, 1, 1), (), (8, 24, 48, 0, 0, 0, 0)),
        ((1, 1, 1), (1,), (8, 24, 48, 4, 8, 0, 0)),
    ]
    for lam, mu, want in cases:
        ring, bundle = C.phi_class(lam, mu, 1)
        assert C.mixed_chern_vector(ring, bundle) == tuple(Fraction(x) for x in want)


def test_phi_class_vector_rank_two():
    ring, bundle = C.phi_class((2, 1), (1,), 2)
    want = (6, 24, 54, 3, 9, 0, 0, 0, 0)
    assert C.mixed_chern_vector(ring, bundle) == tuple(Fraction(x) for x in want)


def test_phi_class_validation():
    with pytest.raises(ValueError):
        C.phi_class((2, 1), (3,), 1)
    with pytest.raises(ValueError):
        C.phi_class((3,), (3, 3), 1)  # mu longer than rank
    with pytest.raises(ValueError):
        C.phi_class((2, 1), (1, 1), 2)  # (1,1) not inside (2,1)


def test_mixed_vector_rejects_foreign_bundle():
    ring = C.ring_of_projective_product((3,))
    other = C.ring_of_projective_product((3,))
    bundle = C.trivial_bundle_class(other, 1)
    with pytest.raises(ValueError):
        C.mixed_chern_vector(ring, bundle)


def test_bundle_class_basics():
    ring = C.ring_of_projective_product((3,))
    h = ring.gen("h1")
    bundle = C.BundleClass(ring, 2, (ring.scale(h, 2),))
    assert len(bundle.roots) == 2  # padded with a trivial root
    assert bundle.chern(1) == ring.scale(h, 2)
    assert not bundle.chern(2)
    assert bundle.chern(0) == ring.one()
    with pytest.raises(ValueError):
        C.BundleClass(ring, 0, ())
    with pytest.raises(ValueError):
        C.BundleClass(ring, 1, (h, h))


def test_bundle_class_total_is_the_product_of_its_factors():
    ring = C.ring_of_projective_product((2, 1))
    h1, h2 = ring.gen("h1"), ring.gen("h2")
    bundle = C.BundleClass(ring, 2, (h1, ring.sub(h2, h1)))
    # c(F) = (1 + h1)(1 + h2 - h1) = 1 + h2 + h1 h2 - h1^2
    want = {(0, 0): 1, (0, 1): 1, (1, 1): 1, (2, 0): -1}
    assert bundle.total == {e: Fraction(c) for e, c in want.items()}
    assert bundle.chern(3) == {} and bundle.chern(0) == ring.one()


def test_split_bundle_class_builds_linear_roots():
    ring = C.ring_of_projective_product((2, 1))
    h1, h2 = ring.gen("h1"), ring.gen("h2")
    bundle = C.split_bundle_class(ring, [(1, -1), [0, 2], (0, 0)])
    assert bundle.rank == 3
    assert bundle.roots == (ring.sub(h1, h2), ring.scale(h2, 2), {})
    p3 = C.ring_of_projective_product((3,))
    o2 = (p3.scale(p3.gen("h1"), 2),)
    assert C.split_bundle_class(p3, [2]).roots == C.split_bundle_class(p3, [(2,)]).roots == o2
    with pytest.raises(ValueError, match=r"^p2xp1 twist \(1,\) is not a vector in Z\^2$"):
        C.split_bundle_class(ring, [1])
    with pytest.raises(ValueError, match="at least one summand is required"):
        C.split_bundle_class(ring, [])


# -- decomposition in the phi basis ------------------------------------------


def test_basis_square_and_invertible():
    for rank in (1, 2, 3):
        pairs, matrix = C.basis_matrix(rank)
        assert len(pairs) == len(matrix) == {1: 7, 2: 9, 3: 10}[rank]
        # solving against every unit vector certifies invertibility
        for i in range(len(pairs)):
            rhs = [Fraction(int(j == i)) for j in range(len(pairs))]
            C.solve_exact(matrix, rhs)


def test_decompose_basis_classes_to_unit_vectors():
    for rank in (1, 2, 3):
        for pair in enum_partition_pairs(3, rank):
            ring, bundle = C.phi_class(pair.lam, pair.mu, rank)
            coeffs = C.decompose(ring, bundle, rank)
            for other, value in coeffs.items():
                assert value == (1 if other == pair else 0)


def test_decompose_twisted_line_bundle_on_p3():
    ring = C.ring_of_projective_product((3,))
    o2 = C.BundleClass(ring, 1, (ring.scale(ring.gen("h1"), 2),))
    vector = C.mixed_chern_vector(ring, o2)
    assert vector == tuple(Fraction(x) for x in (4, 24, 64, 12, 32, 16, 8))
    coeffs = C.decompose(ring, o2, 1)
    assert C.reconstruct(coeffs, 1) == vector


def test_decompose_quadric_class():
    ring = C.quadric_threefold()
    coeffs = C.decompose(ring, C.trivial_bundle_class(ring), 1)
    nonzero = {(p.lam, p.mu): c for p, c in coeffs.items() if c}
    assert nonzero == {
        ((3,), ()): Fraction(-3, 2),
        ((2, 1), ()): Fraction(5),
        ((1, 1, 1), ()): Fraction(-5, 2),
    }


def test_decompose_random_split_bundles():
    # the phi classes span: any split bundle on any model decomposes and
    # reconstructs exactly
    rng = random.Random(90125)
    rings = [
        C.ring_of_projective_product((3,)),
        C.ring_of_projective_product((2, 1)),
        C.ring_of_projective_product((1, 1, 1)),
        C.quadric_threefold(),
        C.blowup_p3_conic(),
    ]
    for _ in range(5):
        ring = rng.choice(rings)
        rank = rng.randint(1, 3)
        roots = []
        for _ in range(rng.randint(0, rank)):
            root = {}
            for gen_name in ring.gens:
                root = ring.add(root, ring.scale(ring.gen(gen_name), rng.randint(-2, 2)))
            roots.append(root)
        bundle = C.BundleClass(ring, rank, tuple(roots))
        vector = C.mixed_chern_vector(ring, bundle)
        assert C.reconstruct(C.decompose(ring, bundle, rank), rank) == vector


def test_decompose_rank_mismatch():
    ring = C.ring_of_projective_product((3,))
    with pytest.raises(ValueError):
        C.decompose(ring, C.trivial_bundle_class(ring, 2), 1)


def test_solve_exact_singular():
    with pytest.raises(SingularBasisMatrixError):
        C.solve_exact([[1, 1], [1, 1]], [1, 0])
    assert C.solve_exact([[2, 0], [0, 4]], [1, 1]) == (Fraction(1, 2), Fraction(1, 4))


# -- double point relations ---------------------------------------------------


def test_quadric_dpr_passes():
    report = C.dpr_check(*C.quadric_dpr())
    assert report.names == ("quadric", "blowup-p3-conic", "p3", "pbundle(p2,1)")
    assert report.exponents == (-20, -18, -20, -18)
    assert report.vector_identity_ok
    assert report.exponent_identity_ok
    assert report.passed


def test_quadric_dpr_vectors():
    report = C.dpr_check(*C.quadric_dpr())
    heads = [tuple(int(x) for x in v[:3]) for v in report.vectors]
    assert heads == [(4, 24, 54), (6, 24, 46), (4, 24, 64), (6, 24, 56)]


def test_normal_cone_dpr_passes():
    report = C.dpr_check(*C.normal_cone_dpr())
    assert report.exponents == (-20, -20, -18, -18)
    assert report.passed


def test_naive_quadric_dpr_fails():
    # the unresolved degeneration is not a double point relation; the checker
    # must flag it on both identities
    report = C.dpr_check(*C.naive_quadric_dpr())
    assert not report.vector_identity_ok
    assert not report.exponent_identity_ok
    assert not report.passed


def test_dpr_report_is_a_record():
    report = C.dpr_check(*C.quadric_dpr())
    twin = C.dpr_check(*C.quadric_dpr())
    assert isinstance(report, Record)
    assert report == twin and hash(report) == hash(twin)
    assert report != C.dpr_check(*C.naive_quadric_dpr())
    assert pickle.loads(pickle.dumps(report)) == report
    with pytest.raises(AttributeError):
        report.exponent_identity_ok = False


def test_chern_import_skips_dataclasses():
    # the chern module's types are plain classes and records
    code = (
        "import sys; before = set(sys.modules); import quotdt.chern; "
        "added = {'dataclasses', 'inspect'} & set(sys.modules) - before; "
        "assert not added, sorted(added)"
    )
    src = str(Path(C.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr


def test_dpr_check_rank_consistency():
    ring = C.ring_of_projective_product((3,))
    r1 = (ring, C.trivial_bundle_class(ring, 1))
    r2 = (ring, C.trivial_bundle_class(ring, 2))
    with pytest.raises(ValueError):
        C.dpr_check(r1, r1, r1, r2)


def test_dpr_exponent_identity_matches_closed_formula_degrees():
    # the exponent identity is exactly multiplicativity of M^(r c3) under the
    # relation: exponents of Y and P(pi) balance those of A and B
    report = C.dpr_check(*C.quadric_dpr())
    y, a, b, p = report.exponents
    assert y + p == a + b
