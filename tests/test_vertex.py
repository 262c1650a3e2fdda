"""Virtual characters: frozen one-box tables, symmetry, and Euler classes.

The one-box characters were derived by hand from the three-term formula and
are asserted termwise; everything else leans on invariants (symmetry, zero
constant term, twist cancellation) plus the generic one-box Euler class.
The exponent dicts of vertex_character's chart characters (chart_terms)
are checked against the three-term formula evaluated with general
LaurentPoly products (tests/laurent.py), which share no code with the engine, also when
calls alternate between partitions and charts and on random unimodular
charts, and euler_inverse's scalar weights against the exponent-dict loop
_reference_euler.  The partition-outer chart_sums is checked against
chart-by-chart sums, its joint pass over several points against one pass
per point, and its weights against the codes of its characters, each
unpacked once per call.  At a Calabi-Yau parameter point
every single term is checked against its known sign.
"""

import json
import random
import re
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import assume, given, settings, strategies as st

from quotdt import cli, vertex
from quotdt.errors import NonzeroFixedPartError, VirtualDimensionError, ZeroWeightError
from quotdt.partitions import ColoredPlanePartition, EMPTY_PLANE_PARTITION, PlanePartition, enum_colored
from quotdt.toric import builtin_space, chart_of, split_bundle, trivial_bundle
from quotdt.vertex import (
    MAX_BOX,
    ChartWeights,
    EquivParams,
    _formal_character,
    _pack,
    _unpack,
    chart_contribution,
    chart_sums,
    chart_terms,
    chart_weights,
    euler_inverse,
    symmetry_defect,
    vertex_character,
)

from laurent import LaurentPoly

STD = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def std_chart(rank: int = 1, twists=None) -> ChartWeights:
    if twists is None:
        twists = ((0, 0, 0),) * rank
    return ChartWeights(STD, twists)


def one_box(rank: int = 1, color: int = 0) -> ColoredPlanePartition:
    parts = [EMPTY_PLANE_PARTITION] * rank
    parts[color] = PlanePartition(((0, 0, 0),))
    return ColoredPlanePartition(tuple(parts))


def _reference_character(cpp: ColoredPlanePartition, chart: ChartWeights) -> LaurentPoly:
    """T = dual(f) q - dual(q) f / kappa + dual(q) q P / kappa by LaurentPoly products."""
    r = chart.rank
    nv = 3 + r
    # the tangent characters a_i, embedded in Z^(3 + r) with zero color part
    a = [(*v, *(0,) * r) for v in chart.tangent]

    one = LaurentPoly.monomial((0,) * nv)
    p_poly = one
    for ai in a:
        p_poly = p_poly * (one - LaurentPoly.monomial(ai))
    kappa_inv = LaurentPoly.monomial(tuple(-sum(col) for col in zip(*a)))

    f = LaurentPoly.zero(nv)
    q = LaurentPoly.zero(nv)
    for j, twist in enumerate(chart.twists):
        w = LaurentPoly.monomial((*twist, *(int(i == j) for i in range(r))))
        f = f + w
        boxes = LaurentPoly.zero(nv)
        for (i, jj, k) in cpp.parts[j]:
            exps = tuple(i * x + jj * y + k * z for x, y, z in zip(a[0], a[1], a[2]))
            boxes = boxes + LaurentPoly.monomial(exps)
        q = q + w * boxes

    return f.dual() * q - q.dual() * f * kappa_inv + q.dual() * q * p_poly * kappa_inv


def _plain(char) -> LaurentPoly:
    """The chart character's exponent dict as a LaurentPoly, in formal order."""
    return LaurentPoly(3 + char.chart.rank, chart_terms(char))


def _reference_euler(char: LaurentPoly, params: EquivParams) -> Fraction:
    """Inverse Euler class from the exponent dict, one (3 + r)-term dot product per monomial.

    Walks the dict in its insertion order, so on the _plain copy of a chart
    character it names the first zero-weight monomial in formal order.
    """
    if char.constant_term != 0:
        raise NonzeroFixedPartError("character has a fixed part; Euler class undefined")
    values = params.s + params.v
    num = 1
    den = 1
    for exps, coeff in char._terms.items():
        w = sum(map(mul, exps, values))
        if w == 0:
            raise ZeroWeightError(f"monomial {exps} has weight zero")
        if coeff > 0:
            den *= w ** coeff
        else:
            num *= w ** (-coeff)
    return Fraction(num, den)


def _cross(a, b) -> tuple[int, int, int]:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


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
                    assert _plain(vertex_character(cpp, chart)) == _reference_character(cpp, chart)


def test_empty_partition_has_zero_character():
    char = vertex_character(ColoredPlanePartition((EMPTY_PLANE_PARTITION,)), std_chart())
    assert char.num_terms == 0
    assert chart_terms(char) == {}


def test_single_box_character_rank_one():
    # T = 1/t1 + 1/t2 + 1/t3 - 1/(t1 t2) - 1/(t1 t3) - 1/(t2 t3)
    char = vertex_character(one_box(), std_chart())
    assert chart_terms(char) == {
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
    assert chart_terms(char) == {
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
            assert _plain(vertex_character(cpp, std_chart(twists=(twist,)))) == _plain(
                vertex_character(cpp, std_chart())
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
                        assert _plain(char).constant_term == 0
                        assert not symmetry_defect(char)


def test_symmetry_with_twists():
    chart = std_chart(rank=2, twists=((1, -2, 0), (0, 3, 1)))
    for n in range(4):
        for cpp in enum_colored(n, 2):
            char = vertex_character(cpp, chart)
            assert not symmetry_defect(char)


def test_virtual_dimension_is_zero():
    # evaluating the character at t = u = 1 gives the virtual dimension
    chart = std_chart(rank=2, twists=((2, 0, -1), (0, 1, 0)))
    for n in range(5):
        for cpp in enum_colored(n, 2):
            char = vertex_character(cpp, chart)
            assert sum(chart_terms(char).values()) == 0


def test_euler_inverse_zero_weight():
    char = vertex_character(one_box(), std_chart())
    with pytest.raises(ZeroWeightError):
        euler_inverse(char, EquivParams(s=(1, -1, 5), v=(3,)))


def test_euler_inverse_rejects_parameter_rank_mismatch():
    char = vertex_character(one_box(), std_chart())
    for params in (EquivParams(s=(1, 3, 7), v=(2, 5)), EquivParams(s=(1, 3, 7))):
        with pytest.raises(ValueError, match="parameter rank does not match chart rank"):
            euler_inverse(char, params)
        with pytest.raises(ValueError, match="parameter rank does not match chart rank"):
            chart_weights(std_chart(), params)


def test_euler_inverse_weighs_each_chart_and_point_by_its_own_table():
    # euler_inverse builds its weight table from the character's own chart
    # and the given point, so another chart or point gives the reference value
    # of that chart or point
    char = vertex_character(one_box(), std_chart())
    params = EquivParams(s=(1, 3, 7), v=(11,))
    assert euler_inverse(char, params) == Fraction(320, 21)
    other_chart = ChartWeights(((-1, 0, 0), (-1, 1, 0), (-1, 0, 1)), ((0, 0, 0),))
    other_params = EquivParams(s=(1, 3, 8), v=(11,))
    for c, p in ((vertex_character(one_box(), other_chart), params), (char, other_params)):
        assert euler_inverse(c, p) == _reference_euler(_plain(c), p)
    assert euler_inverse(vertex_character(one_box(), other_chart), params) != Fraction(320, 21)


def test_params_validation():
    # each refusal names the value; a float once raised a TypeError that did
    # not, and a bool was once read as an int
    for s, v, message in [
        ((1, 2), (), "s (1, 2) is not a vector in Z^3"),
        ((1, 2, 3.0), (), "s (1, 2, 3.0) is not a vector in Z^3"),
        ((1, 2, 3), (True,), "v (True,) is not a vector in Z^1"),
        ((1, 2, 3), (0, 0.5), "v (0, 0.5) is not a vector in Z^2"),
        ((1, 2, 3), "ab", "v 'ab' is not a vector in Z^2"),
        # a v without a length once raised a TypeError from len
        ((1, 2, 3), 7, "v 7 is not a vector in Z^1"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            EquivParams(s=s, v=v)
    # lists are read as tuples
    assert EquivParams([1, 2, 3], [4]) == EquivParams((1, 2, 3), (4,))


def _with_extra_terms(monkeypatch, extra):
    """Patch _pair_terms to add the formal monomials of extra, {(x, y, z): c}, to every pair."""
    pair_terms = vertex._pair_terms

    def with_extra(acc, codes_j, codes_k, qp_k, pair):
        pair_terms(acc, codes_j, codes_k, qp_k, pair)
        for exps, c in extra.items():
            code = _pack(pair, *exps)
            acc[code] = acc.get(code, 0) + c

    monkeypatch.setattr(vertex, "_pair_terms", with_extra)
    vertex_character.cache_clear()
    _formal_character.cache_clear()


def test_fixed_part_is_refused_before_any_chart(monkeypatch):
    # a chart character cannot carry a fixed part: the formal character
    # refuses a nonzero constant term, and euler_inverse takes nothing else.
    # One more term t^(0, 0, 0) in every pair:
    _with_extra_terms(monkeypatch, {(0, 0, 0): 1})
    with pytest.raises(NonzeroFixedPartError, match="constant term 1 in virtual character"):
        vertex_character.__wrapped__(one_box(), std_chart())
    with pytest.raises(TypeError, match="chart character"):
        euler_inverse(LaurentPoly.monomial((0, 0, 0, 0)), EquivParams(s=(1, 2, 3), v=(4,)))


def test_asymmetric_character_fails_the_symmetry_check(monkeypatch, capsys):
    # one more rank-zero pair t1 - t2 in every pair breaks
    # T = -kappa^-1 dual(T); symmetry_defect names the four unmatched terms
    # and the vertex command reports FAIL with exit 2
    _with_extra_terms(monkeypatch, {(1, 0, 0): 1, (0, 1, 0): -1})
    try:
        defect = symmetry_defect(vertex_character(one_box(), std_chart()))
        code = cli.main(["vertex", "--space", "p3", "--nmax", "1", "--chart-index", "0"])
    finally:
        # no character built from the broken terms may outlive the patch
        vertex_character.cache_clear()
        _formal_character.cache_clear()
    assert defect == {(1, 0, 0, 0): 1, (0, 1, 0, 0): -1, (-2, -1, -1, 0): 1, (-1, -2, -1, 0): -1}
    assert code == 2
    assert json.loads(capsys.readouterr().out)["verdicts"]["symmetry"] == "FAIL"


def test_a_character_of_nonzero_rank_is_refused(monkeypatch, capsys):
    # one more term t1 in every pair gives T(1) = rank, not 0: the formal
    # character refuses it, before any chart shares its sums with another,
    # and the vertex command exits 2
    _with_extra_terms(monkeypatch, {(1, 0, 0): 1})
    try:
        for rank in (1, 2):
            with pytest.raises(VirtualDimensionError,
                               match=f"^virtual character of rank {rank ** 2}, not 0$"):
                vertex_character.__wrapped__(one_box(rank), std_chart(rank))
        code = cli.main(["vertex", "--space", "p3", "--nmax", "1", "--chart-index", "0"])
    finally:
        vertex_character.cache_clear()
        _formal_character.cache_clear()
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "virtual character of rank 1, not 0" in captured.err


def test_chart_contribution_sums_over_fixed_points():
    chart = std_chart()
    params = EquivParams(s=(1, 3, 7), v=(2,))
    want = sum(
        (euler_inverse(vertex_character(cpp, chart), params) for cpp in enum_colored(2, 1)),
        Fraction(0),
    )
    assert chart_contribution(chart, 1, 2, params) == want


def test_chart_contribution_of_the_empty_partition_is_one():
    params = EquivParams(s=(1, 3, 7), v=(2,))
    assert chart_contribution(std_chart(), 1, 0, params) == 1


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
        ChartWeights((STD[0], STD[1]), ((0, 0, 0),))
    assert std_chart(rank=3).rank == 3


def test_interleaved_calls_never_see_a_stale_formal_character():
    # the formal character memo holds one partition; alternating partitions
    # and charts must rebuild it, never reuse another partition's terms
    space = builtin_space("p3")
    bundle = split_bundle(space, (0, 1))
    charts = [chart_of(space, bundle, ci) for ci in (0, 1)]
    first, second = enum_colored(3, 2)[1], enum_colored(3, 2)[-2]
    build = vertex_character.__wrapped__
    for cpp, chart in [(first, charts[0]), (second, charts[0]), (first, charts[1]),
                       (second, charts[1]), (second, charts[0]), (first, charts[0])]:
        assert _plain(build(cpp, chart)) == _reference_character(cpp, chart)
    assert _formal_character.cache_info().maxsize == 1


def _per_term_rows(charts, rank, nmax, params):
    """chart_sums rows as sums of one euler_inverse Fraction per partition and chart."""
    return [
        [sum((euler_inverse(vertex_character(cpp, chart), params) for cpp in enum_colored(n, rank)),
             Fraction(0))
         for chart in charts]
        for n in range(1, nmax + 1)
    ]


@pytest.mark.parametrize("name", sorted(TWISTS))
def test_chart_sums_match_chart_by_chart_sums(name):
    space = builtin_space(name)
    # p3 rank 1 has 1, 3, 6, 13, 24 and 48 partitions of sizes 1 to 6, so
    # the pairwise sums leave stacks of several levels and odd counts
    cases = [(trivial_bundle(space, 1), 6 if name == "p3" else 4),
             (split_bundle(space, TWISTS[name][1]), 4), (trivial_bundle(space, 3), 4)]
    for bundle, nmax in cases:
        charts = [chart_of(space, bundle, ci) for ci in range(space.num_charts)]
        params = EquivParams(s=(7, 19, 53), v=(101, 331, 1013)[: bundle.rank])
        want = _per_term_rows(charts, bundle.rank, nmax, params)
        assert chart_sums(charts, bundle.rank, nmax, [params]) == [want]
        assert chart_sums(charts, bundle.rank, 0, [params]) == [[]]


@pytest.mark.parametrize("name, twists", [
    ("p3", (0, 1)),
    ("p2xp1", ((0, 0), (1, -1))),
    ("p1cubed", ((0, 0, 0), (1, 0, 2), (0, -1, 1))),
])
def test_joint_pass_equals_one_pass_per_point(name, twists):
    # one pass over the fixed points serves every (point, chart) column,
    # and each point's rows are those of a pass at that point alone
    space = builtin_space(name)
    bundle = split_bundle(space, twists)
    charts = [chart_of(space, bundle, ci) for ci in range(space.num_charts)]
    r = bundle.rank
    p = EquivParams(s=(7, 19, 53), v=(101, 331, 1013)[:r])
    q = EquivParams(s=(-29, 5, 211), v=(17, -443, 89)[:r])
    nmax = 3 if r < 3 else 2
    joint = chart_sums(charts, r, nmax, [p, q])
    assert joint == [chart_sums(charts, r, nmax, [p])[0], chart_sums(charts, r, nmax, [q])[0]]
    assert joint[0] != joint[1]
    assert joint[0] == _per_term_rows(charts, r, nmax, p)
    assert chart_sums(charts, r, nmax, []) == []


def test_chart_sums_take_a_one_shot_iterable_of_charts():
    space = builtin_space("p3")
    charts = [chart_of(space, trivial_bundle(space), ci) for ci in range(space.num_charts)]
    params = EquivParams(s=(7, 19, 53), v=(101,))
    want = chart_sums(charts, 1, 2, [params])
    assert [len(row) for row in want[0]] == [4, 4]
    assert chart_sums(iter(charts), 1, 2, [params]) == want
    assert chart_sums((chart for chart in charts), 1, 2, iter([params])) == want


def test_chart_sums_names_chart_and_size_of_a_zero_weight():
    charts = [std_chart(), ChartWeights(((-1, 0, 0), (-1, 1, 0), (-1, 0, 1)), ((0, 0, 0),))]
    # s1 + s2 = 0 kills the monomial t1^-1 t2^-1 of the first chart only
    zero = EquivParams(s=(1, -1, 5), v=(3,))
    with pytest.raises(ZeroWeightError, match=r"^chart 0, n=1: monomial \(-1, -1, 0, 0\)") as got:
        chart_sums(charts, 1, 1, [zero])
    assert got.value.point == 0
    # among points evaluated together, the error says which one failed
    with pytest.raises(ZeroWeightError) as joint:
        chart_sums(charts, 1, 1, [EquivParams(s=(7, 19, 53), v=(101,)), zero])
    assert (joint.value.point, str(joint.value)) == (1, str(got.value))


def _first_zero_by_euler_inverse(charts, rank, nmax, params) -> str:
    """The message of the first zero weight of a point-by-point euler_inverse walk."""
    for n in range(1, nmax + 1):
        for cpp in enum_colored(n, rank):
            for i, chart in enumerate(charts):
                try:
                    euler_inverse(vertex_character(cpp, chart), params)
                except ZeroWeightError as exc:
                    return f"chart {i}, n={n}: {exc}"
    raise AssertionError("no zero weight")


def test_zero_weight_of_a_monomial_new_at_size_two():
    # a point where every monomial of size 1 weighs nonzero, and one that
    # first appears at size 2 weighs zero in the second chart
    space = builtin_space("p3")
    bundle = trivial_bundle(space)
    charts = [chart_of(space, bundle, ci) for ci in range(space.num_charts)]
    size_one = [set(chart_terms(vertex_character(cpp, chart)))
                for chart in charts for cpp in enum_colored(1, 1)]
    new = next(e for cpp in enum_colored(2, 1)
               for e in chart_terms(vertex_character(cpp, charts[1])) if e not in size_one[1])
    weight = lambda e, s: sum(map(mul, e, s + (11,)))
    s = next(s for s in ((a, b, c) for a in range(1, 30) for b in range(-30, 30) for c in range(-30, 30))
             if weight(new, s) == 0 and all(weight(e, s) for e in set().union(*size_one)))
    zero = EquivParams(s, (11,))
    assert chart_sums(charts, 1, 1, [zero])
    want = _first_zero_by_euler_inverse(charts, 1, 2, zero)
    assert want.startswith("chart ") and ", n=2: monomial " in want
    good = EquivParams(s=(7, 19, 53), v=(101,))
    for points, point in (([zero], 0), ([good, zero], 1), ([zero, good], 0)):
        with pytest.raises(ZeroWeightError) as got:
            chart_sums(charts, 1, 2, points)
        assert (got.value.point, str(got.value)) == (point, want)


def test_chart_sums_call_euler_inverse_only_to_name_a_zero_weight(monkeypatch):
    # terms are summed as int pairs, and a zero weight is named by the
    # helper euler_inverse uses too, so chart_sums never calls it.  This
    # module's euler_inverse stays the real one and gives the reference rows.
    calls = []
    monkeypatch.setattr(vertex, "euler_inverse", lambda *a: calls.append(a) or euler_inverse(*a))
    space = builtin_space("p3")
    for bundle in (trivial_bundle(space, 1), split_bundle(space, TWISTS["p3"][1])):
        charts = [chart_of(space, bundle, ci) for ci in range(space.num_charts)]
        params = EquivParams(s=(7, 19, 53), v=(101, 331)[: bundle.rank])
        want = _per_term_rows(charts, bundle.rank, 4, params)
        assert chart_sums(charts, bundle.rank, 4, [params]) == [want]
    assert calls == []

    # the running denominators share factors with the terms' denominators
    divisors = []
    real_gcd = vertex.gcd
    monkeypatch.setattr(vertex, "gcd", lambda *a: divisors.append(real_gcd(*a)) or divisors[-1])
    chart_sums(charts, bundle.rank, 4, [params])
    assert max(divisors) > 1

    charts = [std_chart(), ChartWeights(((-1, 0, 0), (-1, 1, 0), (-1, 0, 1)), ((0, 0, 0),))]
    with pytest.raises(ZeroWeightError) as got:
        chart_sums(charts, 1, 1, [EquivParams(s=(1, -1, 5), v=(3,))])
    assert str(got.value) == "chart 0, n=1: monomial (-1, -1, 0, 0) has weight zero"
    assert calls == []


def test_chart_sums_unpack_each_code_once_and_weigh_exactly_the_characters_codes(monkeypatch):
    # each code is unpacked once per call however many points share it, and
    # every column, one per (point, chart), weighs exactly the characters' codes
    unpacked = []
    columns = []
    weighed = []
    unpack, weights, weigh = vertex._unpack, vertex.chart_weights, vertex._weigh
    monkeypatch.setattr(vertex, "_unpack", lambda code: unpacked.append(code) or unpack(code))
    monkeypatch.setattr(vertex, "chart_weights",
                        lambda *a: columns.append((a, weights(*a))) or columns[-1][1])
    monkeypatch.setattr(vertex, "_weigh",
                        lambda table, digits: weighed.append((table, digits)) or weigh(table, digits))
    space = builtin_space("p2xp1")
    bundle = split_bundle(space, TWISTS["p2xp1"][1])
    charts = [chart_of(space, bundle, ci) for ci in range(space.num_charts)]
    nmax = 3
    all_points = [EquivParams(s=(7, 19, 53), v=(101, 331)), EquivParams(s=(-3, 43, 2), v=(5, -71)),
                  EquivParams(s=(1009, -2713, 4441), v=(7919, -104729))]
    for count in (1, 2, 3):
        points = all_points[:count]
        for calls in (unpacked, columns, weighed):
            calls.clear()
        chart_sums(charts, bundle.rank, nmax, points)
        codes = set(unpacked)
        assert len(unpacked) == len(codes)
        assert [a for a, _ in columns] == [(chart, params) for params in points for chart in charts]
        # one _weigh per column and size, in column order, on that size's new codes
        assert len(weighed) == len(columns) * nmax
        assert all(table is columns[i % len(columns)][1] for i, (table, _) in enumerate(weighed))
        weighed_codes = {}
        for i, (table, digits) in enumerate(weighed):
            weighed_codes.setdefault(i % len(columns), {}).update(
                zip((_pack(*d) for d in digits), weigh(table, digits)))
        for i, ((chart, params), _) in enumerate(columns):
            table = weighed_codes[i]
            chars = [vertex_character(cpp, chart)
                     for n in range(1, nmax + 1) for cpp in enum_colored(n, bundle.rank)]
            assert table.keys() == set().union(*(char.formal[0] for char in chars)) == codes
            values = params.s + params.v
            for char in chars:
                for code, exps in zip(char.formal[0], chart_terms(char)):
                    assert table[code] == sum(map(mul, exps, values))


def _weighed_columns(monkeypatch) -> list:
    """Record the weights of every column that _weigh is called on."""
    weighed = []
    weigh = vertex._weigh
    monkeypatch.setattr(vertex, "_weigh",
                        lambda weights, digits: weighed.append(weights) or weigh(weights, digits))
    return weighed


@pytest.mark.parametrize("twists", [None, [(1, 0, -1)]], ids=["O", "O1.0.-1"])
def test_antipodal_charts_share_one_column_at_rank_one(monkeypatch, twists):
    # p1cubed's charts 4..7 are charts 3..0 negated.  At rank 1 each column's
    # weights are then its antipode's negated, and a term has as many
    # weights on top as below, so only charts 0..3 are weighed at each point
    weighed = _weighed_columns(monkeypatch)
    space = builtin_space("p1cubed")
    bundle = trivial_bundle(space) if twists is None else split_bundle(space, twists)
    charts = [chart_of(space, bundle, ci) for ci in range(space.num_charts)]
    assert [c.tangent for c in charts[4:]] == [
        tuple(tuple(-x for x in a) for a in c.tangent) for c in reversed(charts[:4])]
    points = [EquivParams(s=(7, 19, 53), v=(101,)), EquivParams(s=(-29, 5, 211), v=(17,))]
    nmax = 4
    sums = chart_sums(charts, 1, nmax, points)
    assert weighed == [chart_weights(chart, p) for p in points for chart in charts[:4]] * nmax
    for point, rows in zip(points, sums):
        for i, chart in enumerate(charts):
            alone = chart_sums([chart], 1, nmax, [point])[0]
            assert [row[i] for row in rows] == [row[0] for row in alone]
    assert sums[0] == _per_term_rows(charts, 1, nmax, points[0])


@pytest.mark.parametrize("name, twists", [
    ("p1cubed", TWISTS["p1cubed"][1]),
    ("p1cubed", ((0, 0, 0), (0, 0, 0))),
    ("p3", (0,)),
    ("p3", TWISTS["p3"][1]),
    ("p2xp1", ((0, 0),)),
    ("p2xp1", TWISTS["p2xp1"][1]),
], ids=["p1cubed-r2tw", "p1cubed-r2", "p3-r1", "p3-r2tw", "p2xp1-r1", "p2xp1-r2tw"])
def test_every_column_is_weighed_without_antipodes_of_rank_one(monkeypatch, name, twists):
    # at rank 2 the color offsets v_k - v_j of an antipodal chart keep their
    # sign, so its weights are not the negation of any column's; p3 and
    # p2xp1 have no antipodal charts
    weighed = _weighed_columns(monkeypatch)
    space = builtin_space(name)
    bundle = split_bundle(space, twists)
    charts = [chart_of(space, bundle, ci) for ci in range(space.num_charts)]
    r = bundle.rank
    points = [EquivParams(s=(7, 19, 53), v=(101, 331)[:r]), EquivParams(s=(-29, 5, 211), v=(17, -443)[:r])]
    nmax = 3
    chart_sums(charts, r, nmax, points)
    assert weighed == [chart_weights(chart, p) for p in points for chart in charts] * nmax


@pytest.mark.parametrize("twists, points, point, message", [
    (None, [((3, 5, 7), (1,)), ((2, -2, 9), (4,))], 1,
     "chart 0, n=1: monomial (-1, -1, 0, 0) has weight zero"),
    (None, [((4, 6, -5), (0,))], 0, "chart 2, n=3: monomial (-1, -1, -2, 0) has weight zero"),
    ([(1, 0, -1)], [((11, 13, 17), (2,)), ((3, -1, 5), (7,))], 1,
     "chart 0, n=3: monomial (-1, -3, 0, 0) has weight zero"),
])
def test_shared_columns_name_the_same_zero_weight(twists, points, point, message):
    # the first column with a zero weight, point-major, is the first of its
    # antipodal pair, so sharing leaves every message as it was
    space = builtin_space("p1cubed")
    bundle = trivial_bundle(space) if twists is None else split_bundle(space, twists)
    charts = [chart_of(space, bundle, ci) for ci in range(space.num_charts)]
    with pytest.raises(ZeroWeightError) as got:
        chart_sums(charts, 1, 4, [EquivParams(*p) for p in points])
    assert (got.value.point, str(got.value)) == (point, message)
    assert str(got.value) == _first_zero_by_euler_inverse(charts, 1, 4, EquivParams(*points[point]))


def test_euler_inverse_weighs_the_characters_codes_into_its_own_table(monkeypatch):
    # one _weigh per call, on the chart's weights, over exactly the character's codes
    weighed = []
    weigh = vertex._weigh
    monkeypatch.setattr(vertex, "_weigh",
                        lambda weights, digits: weighed.append((weights, list(digits)))
                        or weigh(*weighed[-1]))
    space = builtin_space("p3")
    bundle = split_bundle(space, TWISTS["p3"][1])
    chart = chart_of(space, bundle, 1)
    params = EquivParams(s=(7, 19, 53), v=(101, 331))
    for cpp in enum_colored(3, 2):
        char = vertex_character(cpp, chart)
        assert euler_inverse(char, params) == _reference_euler(_plain(char), params)
        weights, digits = weighed.pop()
        assert not weighed
        assert weights == chart_weights(chart, params)
        assert [_pack(*d) for d in digits] == list(char.formal[0])
    # a zero weight names the monomial the reference walk names
    char = vertex_character(one_box(), std_chart())
    zero = EquivParams(s=(1, -1, 5), v=(3,))
    with pytest.raises(ZeroWeightError) as got:
        euler_inverse(char, zero)
    with pytest.raises(ZeroWeightError) as reference:
        _reference_euler(_plain(char), zero)
    assert str(got.value) == str(reference.value) == "monomial (-1, -1, 0, 0) has weight zero"


def test_chart_weights_must_be_unimodular():
    for tangent, det in [(((1, 0, 0), (0, 1, 0), (1, 1, 0)), 0),
                         (((2, 0, 0), (0, 1, 0), (0, 0, 1)), 2)]:
        with pytest.raises(ValueError, match=f"determinant {det}; charts must be unimodular"):
            ChartWeights(tangent, ((0, 0, 0),))
    assert ChartWeights(((-1, 0, 0), (-1, 1, 0), (-1, 0, 1)), ((0, 0, 0),)).rank == 1


def test_chart_weights_twists_lie_in_z3():
    for twists, j in [(((0, 0, 0), (0, 0, 0, 1)), 1), (((0, 0),), 0),
                      (((Fraction(1, 2), 0, 0),), 0), (((0, False, 0),), 0)]:
        named = re.escape(repr(twists[j]))
        with pytest.raises(ValueError, match=rf"^twist {j} {named} is not a vector in Z\^3$"):
            ChartWeights(STD, twists)


# Elementary SL_3(Z) row operations: add c times row j to row i.
_ROW_OPS = [(i, j) for i in range(3) for j in range(3) if i != j]


@st.composite
def unimodular_charts(draw):
    rank = draw(st.integers(1, 3))
    rows = [list(v) for v in STD]
    for i, j in draw(st.lists(st.sampled_from(_ROW_OPS), max_size=6)):
        c = draw(st.sampled_from((-2, -1, 1, 2)))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    if draw(st.booleans()):
        rows[0], rows[1] = rows[1], rows[0]
    twists = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * 3), min_size=rank, max_size=rank))
    return ChartWeights(tuple(map(tuple, rows)), tuple(twists))


@st.composite
def chart_characters(draw):
    chart = draw(unimodular_charts())
    cpp = draw(st.sampled_from(enum_colored(draw(st.integers(0, 4)), chart.rank)))
    return cpp, chart


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=chart_characters(), data=st.data())
def test_chart_characters_match_direct_ones(case, data):
    cpp, chart = case
    char = vertex_character(cpp, chart)
    want = _reference_character(cpp, chart)
    plain = _plain(char)
    assert want.constant_term == 0
    assert char.num_terms == want.num_terms
    assert plain == want
    assert char.num_terms == len(chart_terms(char))

    r = chart.rank
    draw_int = st.integers(-10 ** 4, 10 ** 4)
    params = EquivParams(tuple(data.draw(st.lists(draw_int, min_size=3, max_size=3))),
                         tuple(data.draw(st.lists(draw_int, min_size=r, max_size=r))))
    try:
        expected = _reference_euler(plain, params)
    except ZeroWeightError:
        assume(False)
    assert euler_inverse(char, params) == expected

    # a point where a chosen monomial has weight zero: both walks name the
    # same first zero monomial, in formal order
    assume(char.num_terms)
    exps, _ = data.draw(st.sampled_from(plain.terms()))
    s, v = list(params.s), list(params.v)
    if any(exps[3:]):
        k = exps[3:].index(1)
        v[k] = 0
        v[k] = -sum(map(mul, exps, (*s, *v)))
    else:
        # s orthogonal to the tangent part: its cross product with a random vector
        s = list(_cross(exps[:3], data.draw(st.tuples(draw_int, draw_int, draw_int))))
    # at the origin every weight is zero, so both name the first monomial
    for zero in (EquivParams(tuple(s), tuple(v)), EquivParams((0, 0, 0), (0,) * r)):
        with pytest.raises(ZeroWeightError) as got:
            euler_inverse(char, zero)
        with pytest.raises(ZeroWeightError) as reference:
            _reference_euler(plain, zero)
        assert str(got.value) == str(reference.value)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(chart=unimodular_charts(), data=st.data())
def test_chart_sums_equal_sums_of_euler_inverse(chart, data):
    # weights up to a few hundred: the denominators share factors, so the
    # int-pair sum reduces by a gcd > 1 on the way
    r = chart.rank
    small = st.integers(-50, 50)
    params = EquivParams(tuple(data.draw(st.lists(small, min_size=3, max_size=3))),
                         tuple(data.draw(st.lists(small, min_size=r, max_size=r))))
    nmax = data.draw(st.integers(1, 3))
    try:
        sums = chart_sums((chart,), r, nmax, [params])
    except ZeroWeightError:
        assume(False)
    assert sums == [_per_term_rows((chart,), r, nmax, params)]


def cy_params(chart: ChartWeights, data) -> EquivParams:
    """A parameter point where kappa = a1 + a2 + a3 has weight 0; v is drawn freely.

    u = kappa x e, for a unit vector e not parallel to kappa, and kappa x u
    span the integer vectors orthogonal to kappa over Q; s is a drawn
    integer combination of the two.
    """
    kappa = tuple(map(sum, zip(*chart.tangent)))
    u = next(u for u in (_cross(kappa, e) for e in STD) if any(u))
    w = _cross(kappa, u)
    coeff = st.integers(-10 ** 4, 10 ** 4)
    alpha, beta = data.draw(coeff), data.draw(coeff)
    s = tuple(alpha * x + beta * y for x, y in zip(u, w))
    return EquivParams(s, tuple(data.draw(coeff) for _ in range(chart.rank)))


# every chart of each built-in bundle of TWISTS, one bundle per entry
_TWISTED_CHARTS = [
    [chart_of(space, bundle, ci) for ci in range(space.num_charts)]
    for space in map(builtin_space, sorted(TWISTS))
    for bundle in (split_bundle(space, twists) for twists in TWISTS[space.name])
]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(charts=st.one_of(unimodular_charts().map(lambda chart: [chart]),
                        st.sampled_from(_TWISTED_CHARTS)),
       data=st.data())
def test_every_term_is_a_sign_at_a_calabi_yau_point(charts, data):
    # Where kappa has weight 0 the obstruction theory is symmetric
    # (Behrend-Fantechi; MNOP for r = 1, Fasola-Monavari-Ricolfi for r > 1),
    # so each colored partition of size n contributes exactly (-1)^(r n).
    # This checks terms one by one, where a sum can hide two wrong terms.
    for chart in charts:
        r = chart.rank
        params = cy_params(chart, data)
        for n in range((5, 3, 2)[r - 1] + 1):  # sizes of at most 24 partitions
            for cpp in enum_colored(n, r):
                try:
                    value = euler_inverse(vertex_character(cpp, chart), params)
                except ZeroWeightError:
                    assume(False)
                assert value == (-1) ** (r * n), (cpp, params)


_DIGIT = st.integers(-(MAX_BOX + 2), MAX_BOX + 1)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pair=st.integers(0, 10 ** 4), e=st.tuples(_DIGIT, _DIGIT, _DIGIT),
       b=st.tuples(*[st.integers(0, MAX_BOX)] * 3))
def test_codes_round_trip_and_are_linear(pair, e, b):
    assert _unpack(_pack(pair, *e)) == (pair, *e)
    # e - b - (1, 1, 1) stays in range for a term e of Q P, so its code
    # is a difference of codes
    e = tuple(min(max(x, 0), MAX_BOX + 1) for x in e)
    want = (pair, *(x - y - 1 for x, y in zip(e, b)))
    assert _unpack(_pack(pair, *e) - _pack(0, *b) - _pack(0, 1, 1, 1)) == want


def _line(length: int, axis: int) -> ColoredPlanePartition:
    boxes = tuple(tuple(i if a == axis else 0 for a in range(3)) for i in range(length))
    return ColoredPlanePartition((PlanePartition(boxes),))


def _tuple_character(boxes) -> dict:
    """Q - dual(Q)/kappa + dual(Q) Q P/kappa of one part in the standard chart, on tuples."""
    qp = dict.fromkeys(boxes, 1)
    for axis in STD:
        out = dict(qp)
        for e, c in qp.items():
            key = tuple(x + d for x, d in zip(e, axis))
            out[key] = out.get(key, 0) - c
        qp = out
    qp = {e: c for e, c in qp.items() if c}
    acc = dict.fromkeys(boxes, 1)
    for b in boxes:
        key = tuple(-x - 1 for x in b)
        acc[key] = acc.get(key, 0) - 1
        for e, c in qp.items():
            key = tuple(x - y - 1 for x, y in zip(e, b))
            acc[key] = acc.get(key, 0) + c
    return {(*e, 0): c for e, c in acc.items() if c}


@pytest.mark.parametrize("axis", range(3))
def test_box_coordinates_up_to_the_bound(axis):
    # a line of MAX_BOX + 1 boxes reaches coordinate MAX_BOX and formal
    # exponents of size MAX_BOX + 1; one box more is refused
    cpp = _line(MAX_BOX + 1, axis)
    char = vertex.vertex_character.__wrapped__(cpp, std_chart())
    assert chart_terms(char) == _tuple_character(cpp.parts[0].boxes)
    with pytest.raises(ValueError, match=f"box coordinate {MAX_BOX + 1} exceeds {MAX_BOX} = B/2 - 2"):
        _formal_character(_line(MAX_BOX + 2, axis))
