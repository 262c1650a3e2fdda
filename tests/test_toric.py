"""Localization over whole spaces: frozen invariants and independence checks."""

import random
from fractions import Fraction

import pytest

from quotdt.charalg import EquivParams
from quotdt.partitions import compositions, enum_colored
from quotdt.series import dt_closed_formula, macmahon, series_pow
from quotdt.toric import (
    SplitBundle,
    ToricSpace,
    _series_values,
    builtin_space,
    c3_via_localization,
    chart_of,
    count_fixed_points,
    dt_invariant,
    dt_series,
    resolve_threads,
    sample_params,
    split_bundle,
    trivial_bundle,
)
from quotdt.vertex import chart_contribution

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
    p3 = builtin_space("p3")
    assert p3.num_charts == 4
    assert p3.charts[0] == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert p3.charts[1] == ((-1, 0, 0), (-1, 1, 0), (-1, 0, 1))
    assert builtin_space("p2xp1").num_charts == 6
    assert builtin_space("p1cubed").num_charts == 8
    with pytest.raises(ValueError):
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


def test_dt_invariant():
    p3 = builtin_space("p3")
    assert dt_invariant(p3, trivial_bundle(p3), 1) == 20
    assert dt_invariant(p3, trivial_bundle(p3), 0) == 1


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


def test_seed_independence():
    p3 = builtin_space("p3")
    bundle = trivial_bundle(p3)
    assert dt_series(p3, bundle, 2, seed=0) == dt_series(p3, bundle, 2, seed=987654321)


def test_more_trials_agree():
    p3 = builtin_space("p3")
    assert dt_series(p3, trivial_bundle(p3), 1, trials=5).integer_coeffs() == (1, 20)
    with pytest.raises(ValueError):
        dt_series(p3, trivial_bundle(p3), 1, trials=1)


def test_threads_do_not_change_values():
    p3 = builtin_space("p3")
    bundle = trivial_bundle(p3, 2)
    assert dt_series(p3, bundle, 2, threads=4) == dt_series(p3, bundle, 2, threads=1)


def test_resolve_threads(monkeypatch):
    monkeypatch.delenv("QUOTDT_THREADS", raising=False)
    assert resolve_threads(None) == 1
    assert resolve_threads(3) == 3
    monkeypatch.setenv("QUOTDT_THREADS", "5")
    assert resolve_threads(None) == 5
    assert resolve_threads(2) == 2
    with pytest.raises(ValueError):
        resolve_threads(0)


def test_custom_space_blowup_of_p3():
    space = ToricSpace("blowup-p3-point", BLOWUP_P3_POINT)
    assert c3_via_localization(space) == -18
    series = dt_series(space, trivial_bundle(space), 2)
    assert series == dt_closed_formula(1, -18, 2)
    assert series.integer_coeffs() == (1, 18, 117)


def test_custom_space_has_no_polytope_data():
    space = ToricSpace("custom", (((1, 0, 0), (0, 1, 0), (0, 0, 1)),))
    with pytest.raises(ValueError):
        space.num_factors
    with pytest.raises(ValueError):
        split_bundle(space, [1])


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
    assert chart.colors == ((1, 0, 0, 1),)
    with pytest.raises(ValueError):
        chart_of(p3, SplitBundle(1, (((0, 0, 0),),)), 0)


def test_count_fixed_points_frozen():
    p3 = builtin_space("p3")
    assert [count_fixed_points(p3, 1, n) for n in range(4)] == [1, 4, 18, 64]
    assert [count_fixed_points(p3, 2, n) for n in range(3)] == [1, 8, 52]


def test_count_fixed_points_vs_macmahon_power():
    for name in ("p3", "p2xp1", "p1cubed"):
        space = builtin_space(name)
        for rank in (1, 2):
            coeffs = series_pow(macmahon(3), rank * space.num_charts).integer_coeffs()
            for n in range(4):
                assert count_fixed_points(space, rank, n) == coeffs[n]


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
    assert _series_values(space, bundle, nmax, params, threads=1) == tuple(want)


def test_count_fixed_points_independent_recount():
    # colored partitions distribute freely over charts
    space = builtin_space("p2xp1")
    for n in range(4):
        direct = sum(
            _prod(len(enum_colored(m, 1)) for m in sizes)
            for sizes in compositions(n, space.num_charts)
        )
        assert count_fixed_points(space, 1, n) == direct


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
