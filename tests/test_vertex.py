"""Virtual characters: frozen one-box tables, symmetry, and Euler classes.

The one-box characters were derived by hand from the three-term formula and
are asserted termwise; everything else leans on invariants (symmetry, zero
constant term, twist cancellation) plus the generic one-box Euler class.
The box-pair construction of vertex_character is checked against the
three-term formula evaluated with general LaurentPoly products.
"""

import random
from fractions import Fraction

import pytest

from quotdt.charalg import EquivParams, LaurentPoly
from quotdt.errors import NonzeroFixedPartError, ZeroWeightError
from quotdt.partitions import ColoredPlanePartition, EMPTY_PLANE_PARTITION, PlanePartition, enum_colored
from quotdt.toric import builtin_space, chart_of, split_bundle, trivial_bundle
from quotdt.vertex import (
    ChartWeights,
    _embed,
    chart_contribution,
    euler_inverse,
    kappa_inverse,
    symmetry_defect,
    vertex_character,
)

STD = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def std_chart(rank: int = 1, twists=None) -> ChartWeights:
    if twists is None:
        twists = ((0, 0, 0),) * rank
    return ChartWeights.build(STD, twists)


def one_box(rank: int = 1, color: int = 0) -> ColoredPlanePartition:
    parts = [EMPTY_PLANE_PARTITION] * rank
    parts[color] = PlanePartition(((0, 0, 0),))
    return ColoredPlanePartition(tuple(parts))


def _reference_character(cpp: ColoredPlanePartition, chart: ChartWeights) -> LaurentPoly:
    """T = dual(f) q - dual(q) f / kappa + dual(q) q P / kappa by LaurentPoly products."""
    r = chart.rank
    nv = 3 + r
    a = [_embed(v, r) for v in chart.tangent]

    one = LaurentPoly.one(nv)
    p_poly = one
    for ai in a:
        p_poly = p_poly * (one - LaurentPoly.monomial(ai))
    kappa_inv = kappa_inverse(chart)

    f = LaurentPoly.zero(nv)
    q = LaurentPoly.zero(nv)
    for j, color in enumerate(chart.colors):
        w = LaurentPoly.monomial(color)
        f = f + w
        boxes = LaurentPoly.zero(nv)
        for (i, jj, k) in cpp.parts[j]:
            exps = tuple(i * x + jj * y + k * z for x, y, z in zip(a[0], a[1], a[2]))
            boxes = boxes + LaurentPoly.monomial(exps)
        q = q + w * boxes

    return f.dual() * q - q.dual() * f * kappa_inv + q.dual() * q * p_poly * kappa_inv


# Twisted bundles per space: rank 1, then rank 2 with summands of unequal twist.
TWISTS = {
    "p3": ((1,), (0, 1)),
    "p2xp1": (((1, -1),), ((0, 0), (1, -1))),
    "p1cubed": (((1, 0, 2),), ((0, 0, 0), (1, 0, 2))),
}


@pytest.mark.parametrize("name", sorted(TWISTS))
def test_box_pair_character_matches_reference(name):
    space = builtin_space(name)
    bundles = [trivial_bundle(space, 1), trivial_bundle(space, 2)]
    bundles += [split_bundle(space, twists) for twists in TWISTS[name]]
    for bundle in bundles:
        for ci in range(space.num_charts):
            chart = chart_of(space, bundle, ci)
            for n in range(5):
                for cpp in enum_colored(n, bundle.rank):
                    assert vertex_character(cpp, chart) == _reference_character(cpp, chart)


def test_empty_partition_has_zero_character():
    char = vertex_character(ColoredPlanePartition((EMPTY_PLANE_PARTITION,)), std_chart())
    assert not char


def test_single_box_character_rank_one():
    # T = 1/t1 + 1/t2 + 1/t3 - 1/(t1 t2) - 1/(t1 t3) - 1/(t2 t3)
    char = vertex_character(one_box(), std_chart())
    assert dict(char.terms()) == {
        (-1, 0, 0, 0): 1,
        (0, -1, 0, 0): 1,
        (0, 0, -1, 0): 1,
        (-1, -1, 0, 0): -1,
        (-1, 0, -1, 0): -1,
        (0, -1, -1, 0): -1,
    }


def test_single_box_character_rank_two():
    # same six terms plus the color cross terms u1/u2 - u2/(u1 t1 t2 t3)
    char = vertex_character(one_box(rank=2), std_chart(rank=2))
    assert dict(char.terms()) == {
        (-1, 0, 0, 0, 0): 1,
        (0, -1, 0, 0, 0): 1,
        (0, 0, -1, 0, 0): 1,
        (-1, -1, 0, 0, 0): -1,
        (-1, 0, -1, 0, 0): -1,
        (0, -1, -1, 0, 0): -1,
        (0, 0, 0, 1, -1): 1,
        (-1, -1, -1, -1, 1): -1,
    }


def test_rank_one_character_ignores_twist():
    # a single color's twist multiplies f and q alike, so it cancels from T
    rng = random.Random(321)
    for n in range(4):
        for cpp in enum_colored(n, 1):
            twist = (rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3))
            assert vertex_character(cpp, std_chart(twists=(twist,))) == vertex_character(
                cpp, std_chart()
            )


def test_single_box_euler_inverse():
    char = vertex_character(one_box(), std_chart())
    params = EquivParams(s=(1, 3, 7), v=(11,))
    assert euler_inverse(char, params) == Fraction(320, 21)
    assert euler_inverse(char, EquivParams(s=(1, 1, 1), v=(5,))) == 8


def test_single_box_euler_inverse_generic():
    # (s1+s2)(s1+s3)(s2+s3) / (s1 s2 s3) at any admissible point
    rng = random.Random(2024)
    char = vertex_character(one_box(), std_chart())
    for _ in range(50):
        s = tuple(rng.randint(1, 50) for _ in range(3))
        want = Fraction(
            (s[0] + s[1]) * (s[0] + s[2]) * (s[1] + s[2]), s[0] * s[1] * s[2]
        )
        assert euler_inverse(char, EquivParams(s=s, v=(1,))) == want


def test_rank_two_cross_term_factor():
    # the extra factor relative to rank one is (v2 - v1 - sigma)/(v1 - v2)
    base = vertex_character(one_box(), std_chart())
    char = vertex_character(one_box(rank=2), std_chart(rank=2))
    s = (2, 5, 9)
    sigma = sum(s)
    v = (4, 17)
    lhs = euler_inverse(char, EquivParams(s=s, v=v))
    rhs = euler_inverse(base, EquivParams(s=s, v=v[:1])) * Fraction(
        v[1] - v[0] - sigma, v[0] - v[1]
    )
    assert lhs == rhs


def test_kappa_inverse():
    assert kappa_inverse(std_chart()) == LaurentPoly.monomial((-1, -1, -1, 0))
    chart = ChartWeights.build(((-1, 0, 0), (-1, 1, 0), (-1, 0, 1)), ((0, 0, 0),))
    assert kappa_inverse(chart) == LaurentPoly.monomial((3, -1, -1, 0))


def test_symmetry_and_vd_zero_over_builtin_charts():
    for name in ("p3", "p2xp1", "p1cubed"):
        space = builtin_space(name)
        for rank in (1, 2):
            bundle = trivial_bundle(space, rank)
            seen = set()
            for ci in range(space.num_charts):
                chart = chart_of(space, bundle, ci)
                if chart in seen:
                    continue
                seen.add(chart)
                for n in range(4):
                    for cpp in enum_colored(n, rank):
                        char = vertex_character(cpp, chart)
                        assert char.constant_term == 0
                        assert not symmetry_defect(char, chart)


def test_symmetry_with_twists():
    chart = std_chart(rank=2, twists=((1, -2, 0), (0, 3, 1)))
    for n in range(4):
        for cpp in enum_colored(n, 2):
            char = vertex_character(cpp, chart)
            assert not symmetry_defect(char, chart)


def test_virtual_dimension_is_zero():
    # evaluating the character at t = u = 1 gives the virtual dimension
    chart = std_chart(rank=2, twists=((2, 0, -1), (0, 1, 0)))
    for n in range(5):
        for cpp in enum_colored(n, 2):
            char = vertex_character(cpp, chart)
            assert sum(c for _, c in char.terms()) == 0


def test_euler_inverse_zero_weight():
    char = vertex_character(one_box(), std_chart())
    with pytest.raises(ZeroWeightError):
        euler_inverse(char, EquivParams(s=(1, -1, 5), v=(3,)))


def test_euler_inverse_rejects_parameter_rank_mismatch():
    char = vertex_character(one_box(), std_chart())
    with pytest.raises(ValueError):
        euler_inverse(char, EquivParams(s=(1, 3, 7), v=(2, 5)))
    with pytest.raises(ValueError):
        euler_inverse(char, EquivParams(s=(1, 3, 7)))


def test_euler_inverse_rejects_fixed_part():
    with pytest.raises(NonzeroFixedPartError):
        euler_inverse(LaurentPoly.one(4), EquivParams(s=(1, 2, 3), v=(4,)))


def test_chart_contribution_sums_over_fixed_points():
    chart = std_chart()
    params = EquivParams(s=(1, 3, 7), v=(2,))
    want = sum(
        (euler_inverse(vertex_character(cpp, chart), params) for cpp in enum_colored(2, 1)),
        Fraction(0),
    )
    assert chart_contribution(chart, 1, 2, params) == want


def test_rank_mismatch_errors():
    with pytest.raises(ValueError):
        vertex_character(one_box(rank=2), std_chart(rank=1))
    with pytest.raises(ValueError):
        chart_contribution(std_chart(), 2, 1, EquivParams(s=(1, 2, 3), v=(1, 2)))
    with pytest.raises(ValueError):
        chart_contribution(std_chart(), 1, 1, EquivParams(s=(1, 2, 3), v=(1, 2)))


def test_chart_weights_validation():
    with pytest.raises(ValueError):
        ChartWeights(STD, ())
    with pytest.raises(ValueError):
        ChartWeights((STD[0], STD[1]), (((0, 0, 0, 1)),))
    chart = std_chart(rank=3)
    assert chart.rank == 3
    assert chart.nvars == 6
    assert chart.colors[1] == (0, 0, 0, 0, 1, 0)
