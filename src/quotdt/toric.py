"""Global invariants of toric 3-folds by summing chart contributions.

A ToricSpace is a list of charts, each carrying three tangent characters in
Z^3.  The built-in spaces P^3, P^2 x P^1 and (P^1)^3 are products of
projective spaces, and one function (_projective_product) generates their
charts from the factors' simplices.  They also carry, per chart and per
factor, the vertex used to linearize a line bundle twist, so split bundles
can be built from twist tuples.  Invariants are assembled as the product
over charts of the series 1 + sum_n c_n q^n of the chart sums c_n, which
one vertex.chart_sums call computes for every parameter point, every chart
and every size n through nmax, in one pass over the fixed points.  The product
is one int convolution (_product_over_charts): each chart's row is scaled
by the lcm of its denominators, and each coefficient of the product takes
one exact division by the product of those lcms, so a Fraction is built
only for a coefficient that is not an integer.  count_fixed_points takes
the same product of its counts.
They are computed at several independently sampled parameter points, which
must agree exactly and be integers.  One loop (draw_admissible) draws all
the points a caller needs and evaluates them together; a zero weight names
one point, and only that point is drawn again.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from operator import mul

from .conventions import BUILTIN_SPACES
from .errors import (
    NonIntegralError,
    ParameterDependenceError,
    Record,
    ZeroWeightError,
    check_int,
    check_rank,
    check_size,
    check_vector,
    read_twists,
)
from .partitions import enum_colored
from .series import Series
from .vertex import ChartWeights, EquivParams, chart_sums, check_unimodular

Vec3 = tuple[int, int, int]

PARAM_BOUND = 10 ** 6
MAX_SAMPLE_ATTEMPTS = 32


class ToricSpace(Record):
    """Chart data of a smooth toric 3-fold.

    twist_vertices[chart][factor] is the weight of the factor's degree one
    line bundle at the chart's fixed point, one vector in Z^3 per factor
    and the same factors on every chart.  A custom space fed with raw chart
    data has no polytope factors: it defaults to one empty tuple per chart,
    so split_bundle takes only untwisted summands there, and a twisted
    bundle is given as a SplitBundle.  Both may be given as lists; they
    are stored as tuples.
    """

    __slots__ = ("name", "charts", "twist_vertices")

    def __init__(
        self,
        name: str,
        charts: tuple[tuple[Vec3, Vec3, Vec3], ...],
        twist_vertices: tuple[tuple[Vec3, ...], ...] | None = None,
    ):
        charts = tuple(check_unimodular(chart, f"chart {i}") for i, chart in enumerate(charts))
        if not charts:
            raise ValueError("a toric space needs at least one chart")
        if twist_vertices is None:
            twist_vertices = ((),) * len(charts)
        twist_vertices = tuple(
            tuple(check_vector(vert, 3, f"chart {i} twist vertex") for vert in vertices)
            for i, vertices in enumerate(twist_vertices)
        )
        if len(twist_vertices) != len(charts) or len(set(map(len, twist_vertices))) != 1:
            raise ValueError("every chart needs one twist vertex per factor")
        self._set(name, charts, twist_vertices)

    @property
    def num_charts(self) -> int:
        return len(self.charts)

    @property
    def num_factors(self) -> int:
        return len(self.twist_vertices[0])


class SplitBundle(Record):
    """A direct sum of line bundles given by per-chart characters in Z^3."""

    __slots__ = ("rank", "per_chart")

    def __init__(self, rank: int, per_chart: tuple[tuple[Vec3, ...], ...]):
        check_rank(rank)
        per_chart = tuple(
            tuple(check_vector(m, 3, f"chart {i}, summand {j} character") for j, m in enumerate(c))
            for i, c in enumerate(per_chart)
        )
        for i, colors in enumerate(per_chart):
            if len(colors) != rank:
                raise ValueError(f"chart {i} has {len(colors)} characters {colors}, not {rank}")
        self._set(rank, per_chart)


def _projective_product(name: str, dims: tuple[int, ...]) -> ToricSpace:
    """The charts of a product of projective spaces P^d, one per factor.

    Factor P^d has the simplex vertices 0, e_1, ..., e_d in its own block of
    coordinates.  A chart picks one vertex v_i per factor, the first factor
    outermost; its tangent characters are v_j - v_i for j != i, factor by
    factor, and its twist vertices are the chosen v_i.
    """
    blocks = []
    start = 0
    for d in dims:
        axes = [tuple(int(c == start + i) for c in range(3)) for i in range(d)]
        blocks.append([(0, 0, 0), *axes])
        start += d
    charts = [((), ())]
    for vertices in blocks:
        charts = [
            (
                tangent
                + tuple(tuple(a - b for a, b in zip(v, chosen)) for v in vertices if v != chosen),
                twist + (chosen,),
            )
            for tangent, twist in charts
            for chosen in vertices
        ]
    tangents, twists = zip(*charts)
    return ToricSpace(name, tangents, twists)


def builtin_space(name: str) -> ToricSpace:
    try:
        dims = BUILTIN_SPACES[name]
    except KeyError:
        raise ValueError(f"unknown space {name!r}; choose from {sorted(BUILTIN_SPACES)}") from None
    return _projective_product(name, dims)


def split_bundle(space: ToricSpace, twists) -> SplitBundle:
    """Build a split bundle from one twist tuple per summand.

    Each twist is an int (single factor spaces) or a tuple with one degree
    per polytope factor.
    """
    normalized = read_twists(twists, space.num_factors, space.name)
    per_chart = []
    for vertices in space.twist_vertices:
        colors = []
        for twist in normalized:
            acc = (0, 0, 0)
            for d, vert in zip(twist, vertices):
                acc = tuple(a + d * b for a, b in zip(acc, vert))
            colors.append(acc)
        per_chart.append(tuple(colors))
    return SplitBundle(len(normalized), tuple(per_chart))


def trivial_bundle(space: ToricSpace, rank: int = 1) -> SplitBundle:
    check_rank(rank)
    return SplitBundle(rank, tuple(((0, 0, 0),) * rank for _ in space.charts))


def chart_of(space: ToricSpace, bundle: SplitBundle, index: int) -> ChartWeights:
    if len(bundle.per_chart) != space.num_charts:
        raise ValueError("bundle chart data does not match the space")
    if not 0 <= check_int(index, "chart index") < space.num_charts:
        raise ValueError(f"chart index {index} out of range")
    return ChartWeights(space.charts[index], bundle.per_chart[index])


def sample_params(rank: int, rng: random.Random) -> EquivParams:
    draw = lambda: rng.randint(-PARAM_BOUND, PARAM_BOUND)
    return EquivParams(
        s=(draw(), draw(), draw()),
        v=tuple(draw() for _ in range(rank)),
    )


def draw_admissible(rank: int, seed: int, count: int, compute):
    """Draw count parameter points and evaluate them together; return the points and values.

    The points come from one random.Random(seed), in the order they are drawn.
    compute takes the list of points and returns one value per point.  A
    ZeroWeightError names one point inadmissible by its position (point);
    that point alone is drawn again, and all are evaluated again.  After
    MAX_SAMPLE_ATTEMPTS draws of one point the error names its last failure.
    """
    rng = random.Random(check_int(seed, "seed"))
    points = [sample_params(rank, rng) for _ in range(count)]
    draws = [1] * count
    while True:
        try:
            return points, compute(points)
        except ZeroWeightError as exc:
            if draws[exc.point] == MAX_SAMPLE_ATTEMPTS:
                raise ZeroWeightError(
                    f"no admissible parameter point after {MAX_SAMPLE_ATTEMPTS} draws; "
                    f"the last failed at {exc}"
                ) from None
            points[exc.point] = sample_params(rank, rng)
            draws[exc.point] += 1


def _evaluate_at_samples(rank: int, seed: int, trials: int, compute):
    """Evaluate compute at `trials` admissible parameter points at once; results must agree."""
    if check_int(trials, "trials") < 2:
        raise ValueError("at least two independent samples are required")
    _, results = draw_admissible(rank, seed, trials, compute)
    first = results[0]
    for trial, other in enumerate(results[1:], start=1):
        if other == first:
            continue
        if isinstance(first, tuple):
            n = next(i for i, (a, b) in enumerate(zip(first, other)) if a != b)
            raise ParameterDependenceError(
                f"samples 0 and {trial} disagree at coefficient {n}: {first[n]} vs {other[n]}"
            )
        raise ParameterDependenceError(f"samples 0 and {trial} disagree: {first} vs {other}")
    return first


def _product_over_charts(rows, nmax: int) -> tuple:
    """Coefficients through q^nmax of the product of the series given by rows.

    Row i holds the coefficients c_0..c_nmax of one chart's series.  Each
    row is scaled to ints by the lcm L_i of its denominators, the rows are
    convolved in ints truncated at q^nmax, and each coefficient is divided
    once by prod_i L_i: it is an int when the division is exact, and a
    Fraction otherwise.
    """
    acc = [1] + [0] * nmax
    scale = 1
    for row in rows:
        den = lcm(*(c.denominator for c in row))
        ints = [c.numerator * (den // c.denominator) for c in row]
        scale *= den
        out = [0] * (nmax + 1)
        for i, a in enumerate(acc):
            if a:
                for j in range(nmax + 1 - i):
                    out[i + j] += a * ints[j]
        acc = out
    coeffs = []
    for c in acc:
        q, rem = divmod(c, scale)
        coeffs.append(Fraction(c, scale) if rem else q)
    return tuple(coeffs)


def _series_values(
    space: ToricSpace, bundle: SplitBundle, nmax: int, points
) -> list[tuple[int | Fraction, ...]]:
    """The series coefficients through q^nmax at each parameter point, from one chart_sums pass."""
    charts = [chart_of(space, bundle, ci) for ci in range(space.num_charts)]
    return [
        _product_over_charts(((1, *values) for values in zip(*rows)), nmax)
        for rows in chart_sums(charts, bundle.rank, nmax, points)
    ]


def dt_series(
    space: ToricSpace, bundle: SplitBundle, nmax: int, seed: int = 0, trials: int = 2
) -> Series:
    """Generating series 1 + sum_n DT_n q^n through q^nmax, exact integers."""
    check_size(nmax, "nmax")
    values = _evaluate_at_samples(
        bundle.rank, seed, trials, lambda points: _series_values(space, bundle, nmax, points)
    )
    series = Series(values)
    coeffs = series.integer_coeffs()
    if coeffs[0] != 1:
        raise NonIntegralError(f"constant coefficient {coeffs[0]} should be 1")
    return series


def c3_via_localization(space: ToricSpace, seed: int = 0, trials: int = 2) -> int:
    """Fixed-point sum for the integral of c3(T tensor K).

    At each fixed point the tangent weight forms w_i give the summand
    prod_i (w_i - sigma) / prod_i w_i with sigma = w_1 + w_2 + w_3.
    """

    def compute(points) -> list[Fraction]:
        values = []
        for position, params in enumerate(points):
            total = Fraction(0)
            for index, chart in enumerate(space.charts):
                ws = [sum(map(mul, a, params.s)) for a in chart]
                if any(w == 0 for w in ws):
                    raise ZeroWeightError(f"chart {index}: a tangent weight is zero", position)
                sigma = sum(ws)
                num = 1
                den = 1
                for w in ws:
                    num *= w - sigma
                    den *= w
                total += Fraction(num, den)
            values.append(total)
        return values

    value = _evaluate_at_samples(0, seed, trials, compute)
    if value.denominator != 1:
        raise NonIntegralError(f"localization sum {value} is not an integer")
    return value.numerator


def count_fixed_points(space: ToricSpace, rank: int, nmax: int) -> tuple[int, ...]:
    """Numbers of torus fixed points with n boxes in total, for n = 0..nmax.

    Each chart holds any colored plane partition, so the counts are the
    coefficients of the product over charts of sum_m #enum_colored(m) q^m.
    """
    check_size(nmax, "nmax")
    counts = tuple(len(enum_colored(m, rank)) for m in range(nmax + 1))
    return _product_over_charts((counts,) * space.num_charts, nmax)
