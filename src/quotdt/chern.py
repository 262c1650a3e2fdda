"""Exact intersection rings of 3-folds and the double point calculus.

Every output here reads integrals of degree three polynomials in Chern
classes, and a 3-fold's cobordism class with a bundle is fixed by those
numbers.  So a ChernRing is presented by its degree one generators and its
Chern-number pairing alone: a table from each degree three exponent tuple to
its integral, where a monomial absent from the table integrates to zero.
Elements are sparse dicts from exponent tuples to Fractions, polynomials in
the free generators truncated above degree three; truncation is a ring
homomorphism, so every integral agrees with the one in the true ring.
A ring multiplies the factors of c(T) once, on construction, and a
BundleClass its (1 + root) factors; BundleClass(ring, rank) with no roots
is the trivial bundle, and split_bundle_class builds one from integer
twists, as toric.split_bundle does on the toric side.  A Chern number that
comes out non-integral raises NonIntegralError.

The cobordism side packages (ring, bundle) pairs: phi classes of partition
pairs, mixed Chern number vectors, decomposition in the phi basis of the
bundle's rank by an exact linear solve, and the double point relation
checker with its built-ins.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Mapping

from . import conventions
from .errors import (
    NonIntegralError, Record, SingularBasisMatrixError, check_int, check_rank, is_exact,
    read_twists,
)
from .partitions import PartitionPair, enum_partition_pairs

Element = dict  # exponent tuple -> Fraction

DIM = 3


def _linear(coeffs, constant=0) -> Element:
    """constant + sum_i coeffs[i] * g_i in the degree one generators g_i."""
    out = {(0,) * len(coeffs): Fraction(constant)} if constant else {}
    for i, c in enumerate(coeffs):
        if c:
            out[tuple(int(j == i) for j in range(len(coeffs)))] = Fraction(c)
    return out


class ChernRing:
    """A 3-fold's Chern-number pairing with its total tangent Chern class.

    integrals maps degree three exponent tuples over gens to their integrals;
    any other degree three monomial integrates to zero.  tangent lists the
    factors whose product is c(T).
    """

    def __init__(self, name: str, gens, integrals: Mapping, tangent):
        self.name = name
        self.gens = tuple(gens)
        for exps, value in integrals.items():
            if not self.is_monomial(exps, DIM):
                raise ValueError(
                    f"ring {name}: integral key {exps!r} is not a degree 3 monomial in {self.gens}"
                )
            if not is_exact(value):
                raise ValueError(
                    f"ring {name}: integral {value!r} of {exps} is not an int or a Fraction"
                )
        self.integrals = integrals
        self.tangent_total = self.product(tangent)

    def is_monomial(self, exps, degree: int) -> bool:
        """exps is a tuple of one nonnegative int exponent per generator, summing to degree."""
        return (
            isinstance(exps, tuple) and len(exps) == len(self.gens)
            and all(type(e) is int and e >= 0 for e in exps) and sum(exps) == degree
        )

    # -- element constructors ------------------------------------------

    def one(self) -> Element:
        return {(0,) * len(self.gens): Fraction(1)}

    def gen(self, name: str) -> Element:
        idx = self.gens.index(name)
        return _linear([int(i == idx) for i in range(len(self.gens))])

    # -- arithmetic ------------------------------------------------------

    def add(self, a: Element, b: Element) -> Element:
        out = dict(a)
        for exps, c in b.items():
            out[exps] = out.get(exps, Fraction(0)) + c
        return {exps: c for exps, c in out.items() if c}

    def sub(self, a: Element, b: Element) -> Element:
        return self.add(a, self.scale(b, Fraction(-1)))

    def scale(self, a: Element, c) -> Element:
        c = Fraction(c)
        if not c:
            return {}
        return {exps: coeff * c for exps, coeff in a.items()}

    def mul(self, a: Element, b: Element) -> Element:
        acc: Element = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                if sum(key) <= DIM:
                    acc[key] = acc.get(key, Fraction(0)) + c1 * c2
        return {exps: c for exps, c in acc.items() if c}

    def product(self, factors) -> Element:
        out = self.one()
        for factor in factors:
            out = self.mul(out, factor)
        return out

    # -- integration and tangent classes ---------------------------------

    def degree_part(self, a: Element, degree: int) -> Element:
        return {exps: c for exps, c in a.items() if sum(exps) == degree}

    def integrate(self, a: Element) -> Fraction:
        """Degree three functional; lower degrees integrate to zero."""
        return sum((c * self.integrals.get(exps, 0) for exps, c in a.items()), Fraction(0))

    def tangent_classes(self) -> tuple[Element, Element, Element]:
        return tuple(self.degree_part(self.tangent_total, d) for d in (1, 2, 3))


# -- built-in rings -----------------------------------------------------


def ring_of_projective_product(lam) -> ChernRing:
    """Intersection ring of the product of projective spaces P^lam."""
    lam = tuple(check_int(x, "factor dimension") for x in lam)
    if sum(lam) != DIM or any(x < 1 for x in lam):
        raise ValueError("factor dimensions must be positive and sum to 3")
    units = [[int(j == i) for j in range(len(lam))] for i in range(len(lam))]
    # c(T) = prod_i (1 + h_i)^(dim_i + 1)
    tangent = [_linear(unit, 1) for unit, dim in zip(units, lam) for _ in range(dim + 1)]
    name = "x".join(f"p{d}" for d in lam)
    gens = tuple(f"h{i + 1}" for i in range(len(lam)))
    return ChernRing(name, gens, {lam: 1}, tangent)


def projective_bundle_ring(twist) -> ChernRing:
    """Ring of P(O + L) over P^2; L has degree `twist`.

    xi is the degree one relative class.  The fiber integral
    int(xi * beta) = int_base(beta) and the relation
    xi^2 = sign * c1(L) xi, with sign = conventions.GROTHENDIECK_SIGN read at
    each call, give int h^(3-b) xi^b = (sign * twist)^(b-1) for b = 1, 2, 3.
    c(T) = (1 + h)^3 (1 + xi) (1 + xi + c1(L)).
    """
    twist = check_int(twist, "twist")
    sign = conventions.GROTHENDIECK_SIGN
    integrals = {(3 - b, b): (sign * twist) ** (b - 1) for b in (1, 2, 3)}
    tangent = [_linear((1, 0), 1)] * 3 + [_linear((0, 1), 1), _linear((twist, 1), 1)]
    return ChernRing(f"pbundle(p2,{twist})", ("h", "xi"), integrals, tangent)


def quadric_threefold() -> ChernRing:
    """The smooth quadric 3-fold: Z[H]/(H^4), int H^3 = 2, c(T) = (1+H)^5 / (1+2H)."""
    # (1 + 2H)^-1 truncated in degree <= 3.
    inverse = {(d,): Fraction((-2) ** d) for d in range(DIM + 1)}
    tangent = [_linear((1,), 1)] * 5 + [inverse]
    return ChernRing("quadric", ("H",), {(3,): 2}, tangent)


def blowup_p3_conic() -> ChernRing:
    """P^3 blown up along a plane conic, presented by its intersection numbers.

    H is the pulled back hyperplane, E the exceptional divisor over the conic:
    int H^3 = 1, H^2 E = 0, H E^2 = -2, E^3 = -6.  The degree three tangent
    class is normalized by its integral chi = 6, the only datum any degree
    three functional can see.
    """
    integrals = {(3, 0): 1, (1, 2): -2, (0, 3): -6}
    tangent = {(0, 0): 1, (1, 0): 4, (0, 1): -1, (2, 0): 8, (1, 1): -4, (3, 0): 6}
    return ChernRing("blowup-p3-conic", ("H", "E"), integrals, [tangent])


_NAMED_RINGS = {"quadric": quadric_threefold, "blowup-p3-conic": blowup_p3_conic}


def named_ring(name: str) -> ChernRing:
    """A built-in space, a ring of _NAMED_RINGS, pbundle-p2-<d> or prod:d1.d2..."""
    if name in conventions.BUILTIN_SPACES:
        return ring_of_projective_product(conventions.BUILTIN_SPACES[name])
    if name in _NAMED_RINGS:
        return _NAMED_RINGS[name]()
    prefix = "pbundle-p2-"
    if name.startswith(prefix):
        try:
            twist = int(name[len(prefix):])
        except ValueError:
            raise ValueError(
                f"ring {name!r}: a projective bundle ring is pbundle-p2-<d> with an integer twist d"
            ) from None
        return projective_bundle_ring(twist)
    prefix = "prod:"
    if name.startswith(prefix):
        try:
            lam = tuple(int(d) for d in name[len(prefix):].split("."))
        except ValueError:
            raise ValueError(
                f"ring {name!r}: a product ring is prod:d1.d2... with integer dimensions"
            ) from None
        return ring_of_projective_product(lam)
    raise ValueError(f"unknown ring {name!r}")


# -- bundles on a ring ---------------------------------------------------


class BundleClass:
    """A split bundle on a ring: Chern roots padded with zeros to the rank, and their product."""

    def __init__(self, ring: ChernRing, rank: int, roots=()):
        check_rank(rank)
        if not isinstance(roots, (tuple, list)):
            raise ValueError(f"ring {ring.name}: Chern roots {roots!r} are not a tuple or a list")
        roots = tuple(roots)
        for root in roots:
            if not isinstance(root, Mapping) or not all(
                ring.is_monomial(exps, 1) and is_exact(c) for exps, c in root.items()
            ):
                raise ValueError(
                    f"ring {ring.name}: Chern root {root!r} is not a degree 1 class in {ring.gens}"
                    " with int or Fraction coefficients"
                )
        if len(roots) > rank:
            raise ValueError("more Chern roots than the rank allows")
        self.ring = ring
        self.rank = rank
        self.roots = roots + ({},) * (rank - len(roots))
        self.total = ring.product(ring.add(ring.one(), root) for root in self.roots)

    def chern(self, j: int) -> Element:
        return self.ring.degree_part(self.total, j)


def split_bundle_class(ring: ChernRing, twists) -> BundleClass:
    """Build a split bundle from one twist per summand, as toric.split_bundle does.

    Each twist is an int (one-generator rings) or a tuple with one degree
    per generator; the summand's Chern root is sum_i degree_i * g_i.
    """
    roots = [_linear(twist) for twist in read_twists(twists, len(ring.gens), ring.name)]
    return BundleClass(ring, len(roots), roots)


# -- Chern number functionals ---------------------------------------------


def _integral_number(ring: ChernRing, element: Element, what: str) -> int:
    value = ring.integrate(element)
    if value.denominator != 1:
        raise NonIntegralError(f"{what} of {ring.name} is not an integer: {value}")
    return value.numerator


def c3_t_omega(ring: ChernRing) -> int:
    """int c3(T tensor omega) = int (c3(T) - c1(T) c2(T)), always an integer."""
    c1, c2, c3 = ring.tangent_classes()
    return _integral_number(ring, ring.sub(c3, ring.mul(c1, c2)), "c3_t_omega")


def euler_characteristic(ring: ChernRing) -> int:
    return _integral_number(ring, ring.tangent_classes()[2], "chi")


def mixed_monomials(rank: int) -> tuple[tuple[tuple[int, int, int], tuple[int, int, int]], ...]:
    """Exponent pairs (a, b) of the degree three monomials in c(T) and c(F).

    a weights c1, c2, c3 of the tangent bundle, b weights f1, f2, f3 of the
    bundle with f_j present only for j <= min(rank, 3).  Ordered by total
    f-degree, then lexicographically in a, then in b, which puts the pure
    tangent monomials c3, c1c2, c1^3 first.
    """
    check_rank(rank)

    def degree(e):
        return e[0] + 2 * e[1] + 3 * e[2]

    tangent = itertools.product(range(4), range(2), range(2))
    # f_j exists only for j <= rank
    bundle = itertools.product(range(4), range(1 + (rank > 1)), range(1 + (rank > 2)))
    pairs = itertools.product(tangent, bundle)
    monos = [(a, b) for a, b in pairs if degree(a) + degree(b) == DIM]
    return tuple(sorted(monos, key=lambda ab: (degree(ab[1]), ab[0], ab[1])))


def mixed_chern_vector(ring: ChernRing, bundle: BundleClass) -> tuple[Fraction, ...]:
    """Integrals of every degree three monomial in c(T) and c(F)."""
    if bundle.ring is not ring:
        raise ValueError("bundle does not live on this ring")
    classes = ring.tangent_classes() + tuple(bundle.chern(j) for j in (1, 2, 3))
    return tuple(
        ring.integrate(ring.product(cls for cls, exp in zip(classes, a + b) for _ in range(exp)))
        for a, b in mixed_monomials(bundle.rank)
    )


# -- phi classes and decomposition ----------------------------------------


def phi_class(lam, mu, rank: int) -> tuple[ChernRing, BundleClass]:
    """The basis class of a partition pair: P^lam with O^(rank-len(mu)) + sum L_m.

    Each part m of mu contributes the pullback of O(1) from a distinct P^m
    factor of the product.  PartitionPair refuses a mu that is not a
    sub-multiset of lam, and BundleClass one with more parts than the rank.
    """
    pair = PartitionPair(tuple(lam), tuple(mu))
    ring = ring_of_projective_product(pair.lam)
    used: list[int] = []  # the factor of each part of mu
    for part in pair.mu:
        used.append(next(i for i, d in enumerate(pair.lam) if d == part and i not in used))
    return ring, BundleClass(ring, rank, [ring.gen(f"h{i + 1}") for i in used])


def solve_exact(matrix, rhs):
    """Solve a square rational system by Gaussian elimination, exactly."""
    n = len(matrix)
    aug = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise SingularBasisMatrixError(f"no pivot in column {col}")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(row[n] for row in aug)


def basis_matrix(rank: int):
    """Partition pairs of size 3 and the matrix of their mixed Chern vectors.

    Column j is the vector of the j-th pair.  The pairs number as many as the
    mixed monomials, so the matrix is square, of size 7, 9, 10 for rank 1, 2,
    >= 3.
    """
    pairs = enum_partition_pairs(DIM, rank)
    columns = [mixed_chern_vector(*phi_class(p.lam, p.mu, rank)) for p in pairs]
    return pairs, list(zip(*columns))


def decompose(ring: ChernRing, bundle: BundleClass) -> dict[PartitionPair, Fraction]:
    """Coefficients of (ring, bundle) in the phi basis of its rank, by exact linear solve."""
    target = mixed_chern_vector(ring, bundle)
    pairs, matrix = basis_matrix(bundle.rank)
    coeffs = solve_exact(matrix, target)
    return dict(zip(pairs, coeffs))


def reconstruct(coeffs: Mapping[PartitionPair, Fraction], rank: int) -> tuple[Fraction, ...]:
    """Mixed Chern vector of a formal sum of phi classes."""
    size = len(mixed_monomials(rank))
    total = [Fraction(0)] * size
    for pair, coeff in coeffs.items():
        vec = mixed_chern_vector(*phi_class(pair.lam, pair.mu, rank))
        total = [t + coeff * v for t, v in zip(total, vec)]
    return tuple(total)


# -- double point relation checker ----------------------------------------


class DprReport(Record):
    """The four spaces' names, mixed Chern vectors and exponents, and both verdicts."""

    __slots__ = ("names", "vectors", "exponents", "vector_identity_ok", "exponent_identity_ok")

    def __init__(self, names, vectors, exponents, vector_identity_ok, exponent_identity_ok):
        self._set(names, vectors, exponents, vector_identity_ok, exponent_identity_ok)

    @property
    def passed(self) -> bool:
        return self.vector_identity_ok and self.exponent_identity_ok


def dpr_check(y_xi, a, b, p_pi) -> DprReport:
    """Check a double point quadruple (Y_xi, A, B, P(pi)) of (ring, bundle) pairs.

    Identity (i): the mixed Chern vector of Y_xi equals v(A) + v(B) - v(P(pi)).
    Identity (ii): the closed-formula exponents satisfy
    c3_t_omega(Y_xi) + c3_t_omega(P(pi)) = c3_t_omega(A) + c3_t_omega(B).
    """
    quadruple = (y_xi, a, b, p_pi)
    ranks = {bundle.rank for _, bundle in quadruple}
    if len(ranks) != 1:
        raise ValueError("all four bundles must have the same rank")
    vectors = tuple(mixed_chern_vector(ring, bundle) for ring, bundle in quadruple)
    exponents = tuple(c3_t_omega(ring) for ring, _ in quadruple)
    expected = tuple(va + vb - vp for va, vb, vp in zip(vectors[1], vectors[2], vectors[3]))
    return DprReport(
        names=tuple(ring.name for ring, _ in quadruple),
        vectors=vectors,
        exponents=exponents,
        vector_identity_ok=vectors[0] == expected,
        exponent_identity_ok=exponents[0] + exponents[3] == exponents[1] + exponents[2],
    )


def _with_trivial_line_bundles(*rings) -> tuple:
    return tuple((ring, BundleClass(ring, 1)) for ring in rings)


def quadric_dpr() -> tuple:
    """Degeneration of the quadric 3-fold to two hyperplanes, resolved.

    The small resolution of the pencil has special fiber A u B with A the
    blow-up of P^3 along the plane conic where the singular pencil member
    pinches, B = P^3, and D = P^2 with N_{D/A} = O(-1), so P(pi) is
    P(O + O(1)) over P^2.  Trivial line bundles throughout.
    """
    return _with_trivial_line_bundles(
        quadric_threefold(), blowup_p3_conic(), ring_of_projective_product((3,)),
        projective_bundle_ring(1),
    )


def normal_cone_dpr() -> tuple:
    """Deformation to the normal cone of a plane in P^3; passes identically."""
    return _with_trivial_line_bundles(
        ring_of_projective_product((3,)), ring_of_projective_product((3,)),
        projective_bundle_ring(1), projective_bundle_ring(1),
    )


def naive_quadric_dpr() -> tuple:
    """The unresolved two-hyperplane degeneration of the quadric.

    Its total space is singular along a conic, so it is not a double point
    degeneration; the checker must report failure on it.  Kept as a negative
    fixture for the checker itself.
    """
    return _with_trivial_line_bundles(
        quadric_threefold(), ring_of_projective_product((3,)),
        ring_of_projective_product((3,)), projective_bundle_ring(1),
    )


BUILTIN_DPRS = {
    "quadric-dpr": quadric_dpr,
    "normal-cone-dpr": normal_cone_dpr,
    "naive-quadric-dpr": naive_quadric_dpr,
}
