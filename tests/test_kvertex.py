"""Each chart's characters against the K-theoretic vertex identity (tests/kvertex.py).

The identity is a proved closed form for every chart, rank 1 to 3 here,
and it reads the characters through prod_m [m]^(-c_m), not through the
engine's products of linear weights, so it checks the characters of every
size against something the engine does not compute.  It cannot see an
error that only moves the color weights, such as a block U_jk filed under
the pair (k, j): the identity does not depend on them.  The Hom oracle
(tests/test_hom_oracle.py) sees that one.
"""

from fractions import Fraction
from math import prod

import pytest

from quotdt.partitions import ColoredPlanePartition, PlanePartition, enum_colored
from quotdt.toric import builtin_space, chart_of, split_bundle
from quotdt.vertex import ChartWeights, chart_terms, vertex_character

from kvertex import closed_series, vertex_series

# Square roots of the torus and color variables.  Their primes are apart, so
# m^(1/2) = +-1 only at m = 1, and no [m] of a moving monomial is zero.
S = (Fraction(2), Fraction(3, 5), Fraction(7, 4))
Y = (Fraction(11, 13), Fraction(17, 19), Fraction(23, 29))
OTHER_Y = (Fraction(31, 37), Fraction(41, 43), Fraction(47, 53))
STANDARD = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
L_OF_THREE = PlanePartition(((0, 0, 0), (1, 0, 0), (0, 1, 0)))


def _characters(chart: ChartWeights, nmax: int) -> list[list[dict]]:
    """The chart characters of every colored partition, by size 1 .. nmax."""
    return [[chart_terms(vertex_character(cpp, chart)) for cpp in enum_colored(n, chart.rank)]
            for n in range(1, nmax + 1)]


def _closed(chart: ChartWeights, nmax: int, **choice) -> list[Fraction]:
    # the chart's tangent half weights: t_i = t^(a_i) at t = S^2
    x = tuple(prod(s ** a for s, a in zip(S, tangent)) for tangent in chart.tangent)
    return closed_series(x, chart.rank, nmax, **choice)


def _assert_identity(chart: ChartWeights, nmax: int) -> None:
    r = chart.rank
    characters = _characters(chart, nmax)
    series = vertex_series(characters, S + Y[:r])
    assert series == _closed(chart, nmax)
    # the identity does not depend on the color variables
    assert vertex_series(characters, S + OTHER_Y[:r]) == series
    # and it does not hold by accident: the other signs of q and a missing
    # inversion each give another series
    flipped = -(-1) ** r
    for choice in ({"sign": flipped}, {"invert": False}, {"sign": flipped, "invert": False}):
        assert series != _closed(chart, nmax, **choice), choice


@pytest.mark.parametrize("rank, nmax", [(1, 8), (2, 5), (3, 3)])
def test_standard_chart_satisfies_the_k_vertex_identity(rank, nmax):
    _assert_identity(ChartWeights(STANDARD, ((0, 0, 0),) * rank), nmax)


@pytest.mark.parametrize("space, twists, nmax", [
    ("p2xp1", [(0, 0), (1, -1)], 4),
    ("p1cubed", [(0, 0, 0), (1, 0, -1)], 3),
    ("p1cubed", [(2, -1, 1)], 5),
], ids=["p2xp1-O,O1.-1", "p1cubed-O,O1.0.-1", "p1cubed-O2.-1.1"])
def test_every_twisted_chart_satisfies_the_k_vertex_identity(space, twists, nmax):
    space = builtin_space(space)
    bundle = split_bundle(space, twists)
    for ci in range(space.num_charts):
        _assert_identity(chart_of(space, bundle, ci), nmax)


def test_an_extra_term_on_the_l_of_three_boxes_breaks_the_identity():
    # t^(2,0,0) - t^(0,2,0) has rank zero and no constant term, so the
    # virtual dimension stays zero
    chart = ChartWeights(STANDARD, ((0, 0, 0),))
    characters = _characters(chart, 3)
    target = chart_terms(vertex_character(ColoredPlanePartition((L_OF_THREE,)), chart))
    changed = [dict(ch) for ch in characters[2]]
    i = next(i for i, ch in enumerate(characters[2]) if ch == target)
    for exps, c in (((2, 0, 0, 0), 1), ((0, 2, 0, 0), -1)):
        changed[i][exps] = changed[i].get(exps, 0) + c
    assert vertex_series(characters, S + Y[:1]) == _closed(chart, 3)
    assert vertex_series([*characters[:2], changed], S + Y[:1]) != _closed(chart, 3)
