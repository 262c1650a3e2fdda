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
chart-by-chart sums, and its weight tables against the codes of its
characters, each unpacked once per call.  At a Calabi-Yau parameter point
every single term is checked against its known sign.
"""

import json
import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import assume, given, settings, strategies as st

from quotdt import cli, vertex
from quotdt.errors import NonzeroFixedPartError, ZeroWeightError
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
    with pytest.raises(ValueError):
        EquivParams(s=(1, 2))
    with pytest.raises(TypeError):
        EquivParams(s=(1, 2, 3.0))


def test_fixed_part_is_refused_before_any_chart(monkeypatch):
    # a chart character cannot carry a fixed part: the formal character
    # refuses a nonzero constant term, and euler_inverse takes nothing else
    pair_terms = vertex._pair_terms

    def with_constant(acc, codes_j, codes_k, qp_k, pair):
        # one more term t^(0, 0, 0), with coefficient +1, in every pair
        pair_terms(acc, codes_j, codes_k, qp_k, pair)
        code = _pack(pair, 0, 0, 0)
        acc[code] = acc.get(code, 0) + 1

    monkeypatch.setattr(vertex, "_pair_terms", with_constant)
    _formal_character.cache_clear()
    with pytest.raises(NonzeroFixedPartError, match="constant term 1 in virtual character"):
        vertex_character.__wrapped__(one_box(), std_chart())
    with pytest.raises(TypeError, match="chart character"):
        euler_inverse(LaurentPoly.monomial((0, 0, 0, 0)), EquivParams(s=(1, 2, 3), v=(4,)))


def test_asymmetric_character_fails_the_symmetry_check(monkeypatch, capsys):
    # one more term t1, with coefficient +1, in every pair breaks
    # T = -kappa^-1 dual(T); symmetry_defect names both unmatched terms and
    # the vertex command reports FAIL with exit 2
    pair_terms = vertex._pair_terms

    def with_t1(acc, codes_j, codes_k, qp_k, pair):
        pair_terms(acc, codes_j, codes_k, qp_k, pair)
        code = _pack(pair, 1, 0, 0)
        acc[code] = acc.get(code, 0) + 1

    monkeypatch.setattr(vertex, "_pair_terms", with_t1)
    vertex_character.cache_clear()
    _formal_character.cache_clear()
    try:
        defect = symmetry_defect(vertex_character(one_box(), std_chart()))
        code = cli.main(["vertex", "--space", "p3", "--nmax", "1", "--chart-index", "0"])
    finally:
        # no character built from the broken terms may outlive the patch
        vertex_character.cache_clear()
        _formal_character.cache_clear()
    assert defect == {(1, 0, 0, 0): 1, (-2, -1, -1, 0): 1}
    assert code == 2
    assert json.loads(capsys.readouterr().out)["verdicts"]["symmetry"] == "FAIL"


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
        assert chart_sums(charts, bundle.rank, nmax, params) == want
        assert chart_sums(charts, bundle.rank, 0, params) == []


def test_chart_sums_take_a_one_shot_iterable_of_charts():
    space = builtin_space("p3")
    charts = [chart_of(space, trivial_bundle(space), ci) for ci in range(space.num_charts)]
    params = EquivParams(s=(7, 19, 53), v=(101,))
    want = chart_sums(charts, 1, 2, params)
    assert [len(row) for row in want] == [4, 4]
    assert chart_sums(iter(charts), 1, 2, params) == want
    assert chart_sums((chart for chart in charts), 1, 2, params) == want


def test_chart_sums_names_chart_and_size_of_a_zero_weight():
    charts = [std_chart(), ChartWeights(((-1, 0, 0), (-1, 1, 0), (-1, 0, 1)), ((0, 0, 0),))]
    # s1 + s2 = 0 kills the monomial t1^-1 t2^-1 of the first chart only
    with pytest.raises(ZeroWeightError, match=r"^chart 0, n=1: monomial \(-1, -1, 0, 0\)"):
        chart_sums(charts, 1, 1, EquivParams(s=(1, -1, 5), v=(3,)))


def test_chart_sums_call_euler_inverse_only_to_name_a_zero_weight(monkeypatch):
    # terms are summed as int pairs, and a zero product is named by the
    # helper euler_inverse uses too, so chart_sums never calls it.  This
    # module's euler_inverse stays the real one and gives the reference rows.
    calls = []
    monkeypatch.setattr(vertex, "euler_inverse", lambda *a: calls.append(a) or euler_inverse(*a))
    space = builtin_space("p3")
    for bundle in (trivial_bundle(space, 1), split_bundle(space, TWISTS["p3"][1])):
        charts = [chart_of(space, bundle, ci) for ci in range(space.num_charts)]
        params = EquivParams(s=(7, 19, 53), v=(101, 331)[: bundle.rank])
        want = _per_term_rows(charts, bundle.rank, 4, params)
        assert chart_sums(charts, bundle.rank, 4, params) == want
    assert calls == []

    # the running denominators share factors with the terms' denominators
    divisors = []
    real_gcd = vertex.gcd
    monkeypatch.setattr(vertex, "gcd", lambda *a: divisors.append(real_gcd(*a)) or divisors[-1])
    chart_sums(charts, bundle.rank, 4, params)
    assert max(divisors) > 1

    charts = [std_chart(), ChartWeights(((-1, 0, 0), (-1, 1, 0), (-1, 0, 1)), ((0, 0, 0),))]
    with pytest.raises(ZeroWeightError) as got:
        chart_sums(charts, 1, 1, EquivParams(s=(1, -1, 5), v=(3,)))
    assert str(got.value) == "chart 0, n=1: monomial (-1, -1, 0, 0) has weight zero"
    assert calls == []


def test_chart_sums_unpack_each_code_once_and_weigh_exactly_the_characters_codes(monkeypatch):
    unpacked = []
    tables = []
    unpack, weights = vertex._unpack, vertex.chart_weights
    monkeypatch.setattr(vertex, "_unpack", lambda code: unpacked.append(code) or unpack(code))
    monkeypatch.setattr(vertex, "chart_weights",
                        lambda *a: tables.append((a[0], weights(*a))) or tables[-1][1])
    space = builtin_space("p2xp1")
    bundle = split_bundle(space, TWISTS["p2xp1"][1])
    charts = [chart_of(space, bundle, ci) for ci in range(space.num_charts)]
    params = EquivParams(s=(7, 19, 53), v=(101, 331))
    nmax = 3
    chart_sums(charts, bundle.rank, nmax, params)
    codes = set(unpacked)
    assert len(unpacked) == len(codes)
    assert [chart for chart, _ in tables] == charts
    values = params.s + params.v
    for chart, table in tables:
        chars = [vertex_character(cpp, chart)
                 for n in range(1, nmax + 1) for cpp in enum_colored(n, bundle.rank)]
        assert table.keys() == set().union(*(char.formal[0] for char in chars)) == codes
        for char in chars:
            for code, exps in zip(char.formal[0], chart_terms(char)):
                assert table[code] == sum(map(mul, exps, values))


def test_euler_inverse_weighs_the_characters_codes_into_its_own_table(monkeypatch):
    tables = []
    weights = vertex.chart_weights
    monkeypatch.setattr(vertex, "chart_weights", lambda *a: tables.append(weights(*a)) or tables[-1])
    space = builtin_space("p3")
    bundle = split_bundle(space, TWISTS["p3"][1])
    chart = chart_of(space, bundle, 1)
    params = EquivParams(s=(7, 19, 53), v=(101, 331))
    for cpp in enum_colored(3, 2):
        char = vertex_character(cpp, chart)
        assert euler_inverse(char, params) == _reference_euler(_plain(char), params)
        assert tables.pop().keys() == char.formal[0].keys()
        assert not tables
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
    for twists in [((0, 0, 0), (0, 0, 0, 1)), ((0, 0),), ((Fraction(1, 2), 0, 0),)]:
        with pytest.raises(ValueError, match=r"twists must lie in Z\^3"):
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
        rows = chart_sums((chart,), r, nmax, params)
    except ZeroWeightError:
        assume(False)
    assert rows == _per_term_rows((chart,), r, nmax, params)


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
