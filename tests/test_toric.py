"""Localization over whole spaces: frozen invariants and independence checks."""

import importlib
import pkgutil
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import quotdt
from quotdt import conventions, toric, vertex
from quotdt.errors import NonIntegralError, ParameterDependenceError, ZeroWeightError
from quotdt.partitions import (
    compositions,
    enum_colored,
    enum_partition_pairs,
    enum_plane_partitions,
    partitions_of,
)
from quotdt.series import Series, dt_closed_formula, macmahon, series_pow
from quotdt.toric import (
    SplitBundle,
    ToricSpace,
    _series_values,
    builtin_space,
    c3_via_localization,
    chart_of,
    count_fixed_points,
    dt_series,
    sample_params,
    split_bundle,
    trivial_bundle,
)
from quotdt.vertex import (
    ChartWeights,
    EquivParams,
    _formal_character,
    chart_contribution,
    vertex_character,
)

# charts of the one-point blow-up of P^3, from its fan: the four simplex cones
# minus the one at the blown-up point, plus three new cones along the
# exceptional P^2
BLOWUP_P3_POINT = (
    ((-1, 0, 0), (-1, 1, 0), (-1, 0, 1)),
    ((0, -1, 0), (1, -1, 0), (0, -1, 1)),
    ((0, 0, -1), (1, 0, -1), (0, 1, -1)),
    ((1, 0, 0), (-1, 1, 0), (-1, 0, 1)),
    ((1, -1, 0), (0, 1, 0), (0, -1, 1)),
    ((1, 0, -1), (0, 1, -1), (0, 0, 1)),
)


def test_builtin_chart_data():
    # every chart and twist vertex, in order, as the hand-written atlases had them
    p3 = builtin_space("p3")
    assert p3.charts == (
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((-1, 0, 0), (-1, 1, 0), (-1, 0, 1)),
        ((0, -1, 0), (1, -1, 0), (0, -1, 1)),
        ((0, 0, -1), (1, 0, -1), (0, 1, -1)),
    )
    assert p3.twist_vertices == (((0, 0, 0),), ((1, 0, 0),), ((0, 1, 0),), ((0, 0, 1),))
    p2xp1 = builtin_space("p2xp1")
    assert p2xp1.charts == (
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((1, 0, 0), (0, 1, 0), (0, 0, -1)),
        ((-1, 0, 0), (-1, 1, 0), (0, 0, 1)),
        ((-1, 0, 0), (-1, 1, 0), (0, 0, -1)),
        ((0, -1, 0), (1, -1, 0), (0, 0, 1)),
        ((0, -1, 0), (1, -1, 0), (0, 0, -1)),
    )
    assert p2xp1.twist_vertices == (
        ((0, 0, 0), (0, 0, 0)),
        ((0, 0, 0), (0, 0, 1)),
        ((1, 0, 0), (0, 0, 0)),
        ((1, 0, 0), (0, 0, 1)),
        ((0, 1, 0), (0, 0, 0)),
        ((0, 1, 0), (0, 0, 1)),
    )
    p1cubed = builtin_space("p1cubed")
    assert p1cubed.charts == (
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((1, 0, 0), (0, 1, 0), (0, 0, -1)),
        ((1, 0, 0), (0, -1, 0), (0, 0, 1)),
        ((1, 0, 0), (0, -1, 0), (0, 0, -1)),
        ((-1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((-1, 0, 0), (0, 1, 0), (0, 0, -1)),
        ((-1, 0, 0), (0, -1, 0), (0, 0, 1)),
        ((-1, 0, 0), (0, -1, 0), (0, 0, -1)),
    )
    assert p1cubed.twist_vertices == (
        ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
        ((0, 0, 0), (0, 0, 0), (0, 0, 1)),
        ((0, 0, 0), (0, 1, 0), (0, 0, 0)),
        ((0, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((1, 0, 0), (0, 0, 0), (0, 0, 0)),
        ((1, 0, 0), (0, 0, 0), (0, 0, 1)),
        ((1, 0, 0), (0, 1, 0), (0, 0, 0)),
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    )
    message = r"^unknown space 'p4'; choose from \['p1cubed', 'p2xp1', 'p3'\]$"
    with pytest.raises(ValueError, match=message):
        builtin_space("p4")


def test_chart_bases_are_unimodular():
    # smooth charts: the three tangent characters form a Z^3 basis
    for name in ("p3", "p2xp1", "p1cubed"):
        for chart in builtin_space(name).charts:
            a, b, c = chart
            det = (
                a[0] * (b[1] * c[2] - b[2] * c[1])
                - a[1] * (b[0] * c[2] - b[2] * c[0])
                + a[2] * (b[0] * c[1] - b[1] * c[0])
            )
            assert det in (1, -1)


def test_c3_values():
    assert c3_via_localization(builtin_space("p3")) == -20
    assert c3_via_localization(builtin_space("p2xp1")) == -18
    assert c3_via_localization(builtin_space("p1cubed")) == -16


def test_dt_series_rank_one_frozen():
    p3 = builtin_space("p3")
    assert dt_series(p3, trivial_bundle(p3), 3).integer_coeffs() == (1, 20, 150, 400)
    p2xp1 = builtin_space("p2xp1")
    assert dt_series(p2xp1, trivial_bundle(p2xp1), 2).integer_coeffs() == (1, 18, 117)
    cube = builtin_space("p1cubed")
    assert dt_series(cube, trivial_bundle(cube), 2).integer_coeffs() == (1, 16, 88)


def test_twist_independence_rank_one():
    p3 = builtin_space("p3")
    base = dt_series(p3, trivial_bundle(p3), 2)
    for twist in (1, 2, -1):
        assert dt_series(p3, split_bundle(p3, [twist]), 2) == base


def test_twist_independence_on_product_space():
    space = builtin_space("p2xp1")
    base = dt_series(space, trivial_bundle(space), 1)
    for twist in ((1, 0), (0, 1), (2, -1)):
        assert dt_series(space, split_bundle(space, [twist]), 1) == base


def test_rank_two_series():
    p3 = builtin_space("p3")
    want = dt_closed_formula(2, -20, 2)
    assert dt_series(p3, trivial_bundle(p3, 2), 2) == want
    assert dt_series(p3, split_bundle(p3, [0, 1]), 2) == want
    assert want.integer_coeffs() == (1, -40, 700)


@pytest.mark.parametrize("name, twists, nmax", [
    ("p3", (0, 1), 4),
    ("p2xp1", ((0, 0), (1, -1)), 4),
    ("p1cubed", ((0, 0, 0), (1, 0, 2), (0, -1, 1)), 2),
    ("p3", (0, 1, 2), 3),
])
def test_rank_reduction_per_chart(name, twists, nmax):
    # Each chart's series is M((-1)^r q)^(-r E) with E fixed by s alone
    # (MNOP for r = 1, Fasola-Monavari-Ricolfi for r > 1), so at one s and
    # independent v the rank r series is Z_1((-1)^(r - 1) q)^r, chart by chart.
    space = builtin_space(name)
    bundles = [split_bundle(space, twists), trivial_bundle(space)]
    rng = random.Random(2003)
    params = sample_params(bundles[0].rank, rng)
    points = [params, EquivParams(params.s, sample_params(1, rng).v)]
    series = []
    for bundle, point in zip(bundles, points):
        charts = [chart_of(space, bundle, ci) for ci in range(space.num_charts)]
        (rows,) = vertex.chart_sums(charts, bundle.rank, nmax, [point])
        series.append([Series((1, *column)) for column in zip(*rows)])
    r = bundles[0].rank
    for ci, (z_r, z_1) in enumerate(zip(*series)):
        assert z_r == z_1.substitute_signed((-1) ** (r - 1)) ** r, f"chart {ci}"


def test_seed_independence():
    p3 = builtin_space("p3")
    bundle = trivial_bundle(p3)
    assert dt_series(p3, bundle, 2, seed=0) == dt_series(p3, bundle, 2, seed=987654321)


def test_more_trials_agree():
    p3 = builtin_space("p3")
    assert dt_series(p3, trivial_bundle(p3), 1, trials=5).integer_coeffs() == (1, 20)
    with pytest.raises(ValueError):
        dt_series(p3, trivial_bundle(p3), 1, trials=1)


def test_custom_space_blowup_of_p3():
    space = ToricSpace("blowup-p3-point", BLOWUP_P3_POINT)
    assert c3_via_localization(space) == -18
    series = dt_series(space, trivial_bundle(space), 2)
    assert series == dt_closed_formula(1, -18, 2)
    assert series.integer_coeffs() == (1, 18, 117)


def test_custom_space_has_no_polytope_data():
    # a custom atlas was once a special case whose num_factors raised
    custom = ToricSpace("custom", builtin_space("p3").charts)
    assert custom.num_factors == 0
    assert custom.twist_vertices == ((),) * 4
    assert split_bundle(custom, [(), ()]) == trivial_bundle(custom, 2)
    with pytest.raises(ValueError, match=re.escape("custom twist (1,) is not a vector in Z^0")):
        split_bundle(custom, [1])
    # an empty iterator of charts once built a space with no charts
    for charts in ((), iter(())):
        with pytest.raises(ValueError, match="^a toric space needs at least one chart$"):
            ToricSpace("custom", charts)


def test_split_bundles_refuse_non_integer_characters():
    p3 = builtin_space("p3")
    # a bare degree is read as a one-entry twist, and is named as one
    for twists, named in (([(1.0,)], "(1.0,)"), ([1.5], "(1.5,)"),
                          ([0, Fraction(1)], "(Fraction(1, 1),)")):
        message = rf"^p3 twist {re.escape(named)} is not a vector in Z\^1$"
        with pytest.raises(ValueError, match=message):
            split_bundle(p3, twists)
    for character in ((1.0, 0, 0), (True, 0, 0), (0, 0)):
        message = rf"^chart 1, summand 0 character {re.escape(repr(character))} is not a vector in Z\^3$"
        with pytest.raises(ValueError, match=message):
            SplitBundle(1, (((0, 0, 0),), (character,)))
    with pytest.raises(ValueError, match=r"^rank 2\.0 is not an integer$"):
        SplitBundle(2.0, (((0, 0, 0), (0, 0, 0)),))
    # lists and tuples of int degrees, and bare ints on one factor, are accepted
    assert split_bundle(p3, [[1], (1,)]) == split_bundle(p3, [1, 1])


def test_library_entry_points_refuse_a_non_integer_rank():
    # the CLI types --rank as int; library callers get the same refusal
    # instead of a TypeError from tuple repetition or a RecursionError
    p3 = builtin_space("p3")
    with pytest.raises(ValueError, match=r"^rank 2\.0 is not an integer$"):
        trivial_bundle(p3, 2.0)
    with pytest.raises(ValueError, match=r"^rank 1\.5 is not an integer$"):
        count_fixed_points(p3, 1.5, 2)


@pytest.mark.parametrize("bad", [-1, 2.0, True])
def test_every_size_and_order_is_checked_where_it_enters(bad):
    # each raises a ValueError that names the size or order; some of these
    # once returned a result for -1, most raised a TypeError for 2.0, and
    # True was once read as 1
    p3 = builtin_space("p3")
    params = EquivParams((1, 2, 3), (0,))
    calls = {
        "nmax": [lambda n: dt_series(p3, trivial_bundle(p3), n),
                 lambda n: vertex.chart_sums([chart_of(p3, trivial_bundle(p3), 0)], 1, n, [params]),
                 lambda n: count_fixed_points(p3, 1, n)],
        "order": [macmahon, lambda n: dt_closed_formula(1, -20, n)],
        "size": [lambda n: enum_colored(n, 1)],
        "n": [enum_plane_partitions, partitions_of],
    }
    message = "must be nonnegative" if bad == -1 else f"{bad!r} is not an integer"
    for name, entries in calls.items():
        for call in entries:
            with pytest.raises(ValueError, match=f"^{name} {re.escape(message)}$"):
                call(bad)
    for rank in (1.5, True):
        for call in (lambda r: enum_partition_pairs(3, r), lambda r: trivial_bundle(p3, r)):
            with pytest.raises(ValueError, match=f"^rank {re.escape(str(rank))} is not an integer$"):
                call(rank)
    # c3 2.5 once raised a TypeError from the series power, and True ran as 1
    for c3 in (2.5, True):
        with pytest.raises(ValueError, match=f"^c3 {re.escape(repr(c3))} is not an integer$"):
            dt_closed_formula(1, c3, 3)
    # a seed once ran as 1.5, and [1] raised a TypeError from random
    for seed in (1.5, [1]):
        for call in (lambda s: dt_series(p3, trivial_bundle(p3), 2, seed=s),
                     lambda s: c3_via_localization(p3, seed=s)):
            with pytest.raises(ValueError, match=f"^seed {re.escape(repr(seed))} is not an integer$"):
                call(seed)


@pytest.mark.parametrize("call, message", [
    (lambda p3: dt_series(p3, trivial_bundle(p3), 2, trials=2.5), "trials 2.5"),
    (lambda p3: c3_via_localization(p3, trials=3.0), "trials 3.0"),
], ids=["dt_series", "c3_via_localization"])
def test_trials_are_checked_where_they_enter(call, message):
    # each once raised a TypeError from range
    with pytest.raises(ValueError, match=f"^{re.escape(message)} is not an integer$"):
        call(builtin_space("p3"))


def test_calibration_fixes_the_global_sign():
    # conventions.CALIBRATION pins the one sign the formulas leave open
    space, rank, n, value = conventions.CALIBRATION
    toric_space = builtin_space(space)
    series = dt_series(toric_space, trivial_bundle(toric_space, rank), n)
    assert series.integer_coeffs()[n] == value == 20


def test_non_unimodular_chart_rejected_at_construction():
    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    with pytest.raises(ValueError, match="chart 0 has determinant 2"):
        ToricSpace("x", (((2, 0, 0), (0, 1, 0), (0, 0, 1)),))
    with pytest.raises(ValueError, match="chart 1 has determinant 0"):
        ToricSpace("x", (identity, ((1, 0, 0), (1, 0, 0), (0, 0, 1))))
    # an orientation-reversing chart is unimodular
    assert ToricSpace("x", (((0, 1, 0), (1, 0, 0), (0, 0, 1)),)).num_charts == 1


@pytest.mark.parametrize("entry", [1.0, Fraction(1), True])
def test_non_integer_chart_entries_are_refused_where_they_enter(entry):
    # p3's charts with one entry 1 replaced by an equal non-int; past the
    # constructors it would fail only inside Fraction, with a TypeError,
    # and True was once read as 1
    charts = [list(map(list, chart)) for chart in builtin_space("p3").charts]
    assert charts[0][0] == [1, 0, 0]
    charts[0][0][0] = entry
    charts = tuple(tuple(map(tuple, chart)) for chart in charts)
    message = re.escape(f"tangent character {(entry, 0, 0)!r} is not a vector in Z^3")
    with pytest.raises(ValueError, match=f"^chart 0 {message}$"):
        ToricSpace("p3", charts)
    with pytest.raises(ValueError, match=f"^chart {message}$"):
        ChartWeights(charts[0], ((0, 0, 0),))


def test_spaces_and_bundles_given_as_lists_are_read_as_tuples():
    # p3's charts as lists once built a ToricSpace whose dt_series failed
    # with TypeError: unhashable type: 'list' in an lru_cache, and so did a
    # SplitBundle of lists
    p3 = builtin_space("p3")
    listed = ToricSpace("p3", [[list(a) for a in chart] for chart in p3.charts],
                        [[list(v) for v in vertices] for vertices in p3.twist_vertices])
    assert listed == p3
    want = (1, 20, 150, 400)
    assert dt_series(listed, trivial_bundle(listed), 3).integer_coeffs() == want
    bundle = SplitBundle(1, [[[0, 0, 0]] for _ in p3.charts])
    assert bundle == trivial_bundle(p3)
    assert dt_series(p3, bundle, 3).integer_coeffs() == want


def test_twist_vertices_are_one_z3_vector_per_factor():
    # ragged twist vertices were once cut short by zip in split_bundle: with
    # these, the twist (1, 2) lost its second degree on charts 1-3
    p3 = builtin_space("p3")
    ragged = (((0, 0, 0), (0, 0, 0)), ((1, 0, 0),), ((0, 1, 0),), ((0, 0, 1),))
    with pytest.raises(ValueError, match="^every chart needs one twist vertex per factor$"):
        ToricSpace("x", p3.charts, ragged)
    for vert in ((0.5, 0, 0), (0, True, 0), (0, 0)):
        bad = (((0, 0, 0),), ((1, 0, 0),), (vert,), ((0, 0, 1),))
        message = f"^chart 2 twist vertex {re.escape(repr(vert))} is not a vector in Z\\^3$"
        with pytest.raises(ValueError, match=message):
            ToricSpace("x", p3.charts, bad)


def test_split_bundle_validation():
    p3 = builtin_space("p3")
    bundle = split_bundle(p3, [1])
    # weight of O(1) at each fixed point is the corresponding simplex vertex
    assert bundle.per_chart[0] == ((0, 0, 0),)
    assert bundle.per_chart[1] == ((1, 0, 0),)
    with pytest.raises(ValueError):
        split_bundle(p3, [(1, 2)])
    with pytest.raises(ValueError):
        split_bundle(p3, [])
    with pytest.raises(ValueError):
        SplitBundle(0, ())
    with pytest.raises(ValueError):
        SplitBundle(2, (((0, 0, 0),),))


def test_chart_of_consistency():
    p3 = builtin_space("p3")
    bundle = split_bundle(p3, [1])
    chart = chart_of(p3, bundle, 1)
    assert chart.tangent == p3.charts[1]
    assert chart.twists == ((1, 0, 0),)
    with pytest.raises(ValueError):
        chart_of(p3, SplitBundle(1, (((0, 0, 0),),)), 0)


def test_count_fixed_points_frozen():
    p3 = builtin_space("p3")
    assert count_fixed_points(p3, 1, 3) == (1, 4, 18, 64)
    assert count_fixed_points(p3, 2, 2) == (1, 8, 52)


def test_count_fixed_points_vs_macmahon_power():
    for name in ("p3", "p2xp1", "p1cubed"):
        space = builtin_space(name)
        for rank in (1, 2):
            coeffs = series_pow(macmahon(5), rank * space.num_charts).integer_coeffs()
            counts = count_fixed_points(space, rank, 5)
            assert counts == coeffs
            assert all(type(c) is int for c in counts)


_COEFFS = st.one_of(st.integers(-30, 30), st.fractions(-30, 30, max_denominator=12))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_integer_assembly_equals_the_series_product(data):
    # the product's coefficients are ints where exact, reduced Fractions
    # elsewhere, and equal the Series product either way
    nmax = data.draw(st.integers(0, 6))
    row = st.lists(_COEFFS, min_size=nmax + 1, max_size=nmax + 1)
    rows = data.draw(st.lists(row, min_size=1, max_size=8))
    want = Series.one(nmax)
    for coeffs in rows:
        want = want * Series(coeffs)
    got = toric._product_over_charts(rows, nmax)
    assert got == want.coeffs
    assert all(type(c) is int or c.denominator != 1 for c in got)


def test_non_integral_series_names_its_coefficient(monkeypatch):
    # four charts whose q^1 sums are 1/8 give the non-integral 1/2
    p3 = builtin_space("p3")
    monkeypatch.setattr(toric, "chart_sums", lambda charts, rank, nmax, points:
                        [[[Fraction(1, 8)] * len(charts)] for _ in points])
    with pytest.raises(NonIntegralError) as info:
        dt_series(p3, trivial_bundle(p3), 1)
    assert str(info.value) == "coefficient of q^1 is 1/2"


def test_dt_series_refuses_a_constant_coefficient_other_than_one(monkeypatch):
    p3 = builtin_space("p3")
    monkeypatch.setattr(toric, "_series_values",
                        lambda space, bundle, nmax, points: [(2, 40)] * len(points))
    with pytest.raises(NonIntegralError, match=r"^constant coefficient 2 should be 1$"):
        dt_series(p3, trivial_bundle(p3), 1)


@pytest.mark.parametrize(
    "name, twists, nmax",
    [("p1cubed", ((0, 0, 0),), 4), ("p2xp1", ((0, 0), (1, -1)), 3)],
)
def test_series_values_match_composition_sum(name, twists, nmax):
    # the product of per-chart series against the sum over all assignments
    # of sizes to charts of the products of chart contributions
    space = builtin_space(name)
    bundle = split_bundle(space, twists)
    params = EquivParams(s=(7, 19, 53), v=(101, 313)[: bundle.rank])
    charts = [chart_of(space, bundle, ci) for ci in range(space.num_charts)]
    want = []
    for n in range(nmax + 1):
        total = Fraction(0)
        for sizes in compositions(n, space.num_charts):
            prod = Fraction(1)
            for chart, m in zip(charts, sizes):
                if m:
                    prod *= chart_contribution(chart, bundle.rank, m, params)
            total += prod
        want.append(total)
    assert _series_values(space, bundle, nmax, [params]) == [tuple(want)]


def test_count_fixed_points_independent_recount():
    # colored partitions distribute freely over charts
    space = builtin_space("p2xp1")
    counted = count_fixed_points(space, 1, 3)
    for n in range(4):
        direct = sum(
            _prod(len(enum_colored(m, 1)) for m in sizes)
            for sizes in compositions(n, space.num_charts)
        )
        assert counted[n] == direct


def _prod(xs):
    out = 1
    for x in xs:
        out *= x
    return out


def test_sample_params_shape():
    rng = random.Random(5)
    params = sample_params(2, rng)
    assert len(params.s) == 3
    assert len(params.v) == 2
    assert params.rank == 2


def test_negative_nmax_rejected():
    p3 = builtin_space("p3")
    with pytest.raises(ValueError):
        dt_series(p3, trivial_bundle(p3), -1)


def test_parameter_dependence_names_first_differing_coefficient(monkeypatch):
    p3 = builtin_space("p3")
    samples = iter([(1, 20, 150, 400), (1, 20, Fraction(301, 2), 401)])
    monkeypatch.setattr(toric, "_series_values",
                        lambda space, bundle, nmax, points: [next(samples) for _ in points])
    with pytest.raises(ParameterDependenceError) as info:
        dt_series(p3, trivial_bundle(p3), 3)
    message = str(info.value)
    assert "at coefficient 2: 150 vs 301/2" in message
    assert "400" not in message and "401" not in message


def test_parameter_dependence_names_scalar_values():
    values = iter([Fraction(-20), Fraction(-18), Fraction(-20)])
    with pytest.raises(ParameterDependenceError, match=r"samples 0 and 1 disagree: -20 vs -18$"):
        toric._evaluate_at_samples(0, 0, 3, lambda points: [next(values) for _ in points])


def test_toric_path_builds_each_character_once():
    # one vertex_character miss per (partition, chart), and one formal
    # character per partition, held one at a time
    p3 = builtin_space("p3")
    bundle = trivial_bundle(p3)
    vertex_character.cache_clear()
    _formal_character.cache_clear()
    dt_series(p3, bundle, 3, trials=3)
    # one pass serves every sample, so no call of the later samples hits the cache
    assert vertex_character.cache_info().misses == 4 * (1 + 3 + 6)
    assert vertex_character.cache_info().hits == 0
    assert _formal_character.cache_info().misses == 1 + 3 + 6
    assert _formal_character.cache_info().currsize <= 1
    for ci in range(4):
        for n in range(1, 4):
            for cpp in enum_colored(n, 1):
                vertex_character(cpp, chart_of(p3, bundle, ci))
    assert vertex_character.cache_info().misses == 4 * (1 + 3 + 6)


def test_toric_path_builds_one_weight_table_per_chart_and_sample(monkeypatch):
    # chart_sums builds one weight table per (point, chart) column and uses
    # it for every size n, so a run builds charts x samples tables, whatever
    # nmax is
    built = []
    draws = []
    chart_weights = vertex.chart_weights
    sample_params = toric.sample_params
    monkeypatch.setattr(vertex, "chart_weights", lambda *a: built.append(a) or chart_weights(*a))
    monkeypatch.setattr(toric, "sample_params", lambda *a: draws.append(a) or sample_params(*a))
    for name, twists, nmax in [("p3", (0,), 4), ("p1cubed", ((0, 0, 0), (1, 0, 2)), 2)]:
        space = builtin_space(name)
        built.clear()
        draws.clear()
        dt_series(space, split_bundle(space, twists), nmax, seed=3, trials=3)
        assert len(draws) == 3
        assert len(built) == space.num_charts * 3


def test_process_caches_are_exactly_the_traced_ones():
    # chart_of, enum_plane_partitions and the other helpers build per call;
    # only these keep an lru_cache: the benchmark tracer rewraps the
    # unbounded ones by name, and _formal_character holds one entry
    for info in pkgutil.iter_modules(quotdt.__path__):
        importlib.import_module(f"quotdt.{info.name}")
    cached = sorted(
        f"{name.removeprefix('quotdt.')}.{attr}"
        for name, module in sys.modules.items()
        if name.startswith("quotdt.")
        for attr, value in vars(module).items()
        if hasattr(value, "cache_info") and value.__module__ == name
    )
    assert cached == [
        "partitions.enum_colored",
        "vertex._formal_character",
        "vertex.chart_contribution",
        "vertex.vertex_character",
    ]


def test_an_inadmissible_draw_is_drawn_again_alone(monkeypatch):
    # only the second draw has s1 + s2 = 0, a zero tangent weight of p3's
    # chart 0: that point alone is drawn again, and the series is unchanged
    p3 = builtin_space("p3")
    bundle = trivial_bundle(p3)
    want = dt_series(p3, bundle, 3, seed=11, trials=3)
    draws = []
    real = toric.sample_params

    def draw(rank, rng):
        params = real(rank, rng)
        draws.append(params)
        return EquivParams((1, -1, 5), (3,)) if len(draws) == 2 else params

    monkeypatch.setattr(toric, "sample_params", draw)
    evaluated = []
    series_values = toric._series_values
    monkeypatch.setattr(toric, "_series_values",
                        lambda *a: evaluated.append(list(a[3])) or series_values(*a))
    assert dt_series(p3, bundle, 3, seed=11, trials=3) == want
    assert len(draws) == 3 + 1
    zero = EquivParams((1, -1, 5), (3,))
    assert evaluated == [[draws[0], zero, draws[2]], [draws[0], draws[3], draws[2]]]


def test_draw_admissible_redraws_only_the_named_point():
    # with no inadmissible draw the points are the first draws in order;
    # a point named 32 times ends the draws with its last failure
    rng = random.Random(4)
    points, values = toric.draw_admissible(2, rng, 3, lambda points: [p.s for p in points])
    again = random.Random(4)
    assert points == [sample_params(2, again) for _ in range(3)]
    assert values == [p.s for p in points]

    failures = []

    def compute(points):
        failures.append(list(points))
        raise ZeroWeightError(f"attempt {len(failures)}", 1)

    with pytest.raises(ZeroWeightError) as info:
        toric.draw_admissible(1, random.Random(4), 2, compute)
    assert str(info.value) == "no admissible parameter point after 32 draws; the last failed at attempt 32"
    assert len(failures) == 32
    assert all(points[0] == failures[0][0] for points in failures)
    assert len({points[1] for points in failures}) == 32


def test_c3_names_the_inadmissible_point(monkeypatch):
    # the second draw makes a tangent weight of chart 0 zero; c3 draws it again
    draws = []
    real = toric.sample_params

    def draw(rank, rng):
        draws.append(real(rank, rng))
        return EquivParams((0, 1, 2), ()) if len(draws) == 2 else draws[-1]

    monkeypatch.setattr(toric, "sample_params", draw)
    assert c3_via_localization(builtin_space("p3")) == -20
    assert len(draws) == 3


def test_exhausted_draws_name_chart_size_and_monomial(monkeypatch):
    # every draw has s1 + s2 = 0, a zero tangent weight of chart 0
    monkeypatch.setattr(toric, "sample_params", lambda rank, rng: EquivParams((1, -1, 5), (3,)))
    p3 = builtin_space("p3")
    with pytest.raises(ZeroWeightError) as info:
        dt_series(p3, trivial_bundle(p3), 2)
    assert str(info.value) == (
        "no admissible parameter point after 32 draws; the last failed at "
        "chart 0, n=1: monomial (-1, -1, 0, 0) has weight zero"
    )
