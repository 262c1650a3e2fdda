"""Global invariants of toric 3-folds by summing chart contributions.

A ToricSpace is a list of charts, each carrying three tangent characters in
Z^3.  Built-in spaces also carry, per chart and per polytope factor, the
vertex used to linearize a line bundle twist, so split bundles can be built
from twist tuples.  Invariants are assembled as the product over charts of
the series 1 + sum_n c_n q^n of memoized chart contributions c_n, and are
computed at several independently sampled parameter points which must agree
exactly and be integers.
"""

from __future__ import annotations

import os
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .charalg import EquivParams, weight_form
from .errors import (
    NonIntegralError,
    ParameterDependenceError,
    ZeroWeightError,
)
from .partitions import enum_colored
from .series import Series
from .vertex import ChartWeights, chart_contribution

Vec3 = tuple[int, int, int]

PARAM_BOUND = 10 ** 6
MAX_SAMPLE_ATTEMPTS = 32


@dataclass(frozen=True)
class ToricSpace:
    """Chart data of a smooth toric 3-fold.

    twist_vertices[chart][factor] is the weight of the factor's degree one
    line bundle at the chart's fixed point; it is None for custom spaces fed
    with raw chart data, which must then supply bundles explicitly.
    """

    name: str
    charts: tuple[tuple[Vec3, Vec3, Vec3], ...]
    twist_vertices: tuple[tuple[Vec3, ...], ...] | None = None

    def __post_init__(self):
        if not self.charts:
            raise ValueError("a toric space needs at least one chart")
        for chart in self.charts:
            if len(chart) != 3 or any(len(v) != 3 for v in chart):
                raise ValueError("each chart needs three tangent characters in Z^3")
        if self.twist_vertices is not None and len(self.twist_vertices) != len(self.charts):
            raise ValueError("twist vertex data must match the chart list")

    @property
    def num_charts(self) -> int:
        return len(self.charts)

    @property
    def num_factors(self) -> int:
        if self.twist_vertices is None:
            raise ValueError(f"space {self.name} has no polytope factor data")
        return len(self.twist_vertices[0])


@dataclass(frozen=True)
class SplitBundle:
    """A direct sum of line bundles given by per-chart characters in Z^3."""

    rank: int
    per_chart: tuple[tuple[Vec3, ...], ...]

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be at least 1")
        for colors in self.per_chart:
            if len(colors) != self.rank:
                raise ValueError("each chart needs one character per summand")


def _p3_space() -> ToricSpace:
    charts = (
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((-1, 0, 0), (-1, 1, 0), (-1, 0, 1)),
        ((0, -1, 0), (1, -1, 0), (0, -1, 1)),
        ((0, 0, -1), (1, 0, -1), (0, 1, -1)),
    )
    # Vertices of the unit simplex, one polytope factor.
    vertices = (((0, 0, 0),), ((1, 0, 0),), ((0, 1, 0),), ((0, 0, 1),))
    return ToricSpace("p3", charts, vertices)


_P2_CHARTS = (
    (((1, 0), (0, 1)), (0, 0)),
    (((-1, 0), (-1, 1)), (1, 0)),
    (((0, -1), (1, -1)), (0, 1)),
)


def _p2xp1_space() -> ToricSpace:
    charts = []
    vertices = []
    for (tan2, vert2) in _P2_CHARTS:
        for sign, vert1 in ((1, 0), (-1, 1)):
            charts.append(
                (
                    (tan2[0][0], tan2[0][1], 0),
                    (tan2[1][0], tan2[1][1], 0),
                    (0, 0, sign),
                )
            )
            vertices.append(((vert2[0], vert2[1], 0), (0, 0, vert1)))
    return ToricSpace("p2xp1", tuple(charts), tuple(vertices))


def _p1cubed_space() -> ToricSpace:
    charts = []
    vertices = []
    for s1 in (0, 1):
        for s2 in (0, 1):
            for s3 in (0, 1):
                signs = (1 - 2 * s1, 1 - 2 * s2, 1 - 2 * s3)
                charts.append(
                    (
                        (signs[0], 0, 0),
                        (0, signs[1], 0),
                        (0, 0, signs[2]),
                    )
                )
                vertices.append(((s1, 0, 0), (0, s2, 0), (0, 0, s3)))
    return ToricSpace("p1cubed", tuple(charts), tuple(vertices))


_BUILTINS = {
    "p3": _p3_space,
    "p2xp1": _p2xp1_space,
    "p1cubed": _p1cubed_space,
}


def builtin_space(name: str) -> ToricSpace:
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise ValueError(f"unknown space {name!r}; choose from {sorted(_BUILTINS)}") from None


def split_bundle(space: ToricSpace, twists) -> SplitBundle:
    """Build a split bundle from one twist tuple per summand.

    Each twist is an int (single factor spaces) or a tuple with one degree
    per polytope factor.
    """
    factors = space.num_factors
    normalized = []
    for twist in twists:
        if isinstance(twist, int):
            twist = (twist,)
        twist = tuple(twist)
        if len(twist) != factors:
            raise ValueError(f"twist {twist} needs {factors} entries for {space.name}")
        normalized.append(twist)
    if not normalized:
        raise ValueError("at least one summand is required")
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
    return SplitBundle(rank, tuple(((0, 0, 0),) * rank for _ in space.charts))


@lru_cache(maxsize=None)
def chart_of(space: ToricSpace, bundle: SplitBundle, index: int) -> ChartWeights:
    if len(bundle.per_chart) != space.num_charts:
        raise ValueError("bundle chart data does not match the space")
    return ChartWeights.build(space.charts[index], bundle.per_chart[index])


def sample_params(rank: int, rng: random.Random) -> EquivParams:
    draw = lambda: rng.randint(-PARAM_BOUND, PARAM_BOUND)
    return EquivParams(
        s=(draw(), draw(), draw()),
        v=tuple(draw() for _ in range(rank)),
    )


def resolve_threads(threads: int | None) -> int:
    if threads is None:
        env = os.environ.get("QUOTDT_THREADS")
        threads = int(env) if env else 1
    if threads < 1:
        raise ValueError("threads must be at least 1")
    return threads


def _evaluate_at_samples(rank: int, seed: int, trials: int, compute):
    """Run compute at `trials` admissible parameter points; results must agree."""
    if trials < 2:
        raise ValueError("at least two independent samples are required")
    rng = random.Random(seed)
    results = []
    for _ in range(trials):
        for _attempt in range(MAX_SAMPLE_ATTEMPTS):
            params = sample_params(rank, rng)
            try:
                results.append(compute(params))
                break
            except ZeroWeightError:
                continue
        else:
            raise ZeroWeightError(
                f"no admissible parameter point after {MAX_SAMPLE_ATTEMPTS} draws"
            )
    first = results[0]
    for other in results[1:]:
        if other != first:
            raise ParameterDependenceError(
                f"samples disagree: {first} vs {other}"
            )
    return first


def _series_values(
    space: ToricSpace,
    bundle: SplitBundle,
    nmax: int,
    params: EquivParams,
    threads: int,
) -> tuple[Fraction, ...]:
    k = space.num_charts
    charts = [chart_of(space, bundle, ci) for ci in range(k)]
    if threads > 1:
        tasks = [(charts[ci], bundle.rank, m, params) for ci in range(k) for m in range(1, nmax + 1)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            # Warms the memoized contribution cache; assembly below stays sequential.
            list(pool.map(lambda t: chart_contribution(*t), tasks))
    product = Series.one(nmax)
    for chart in charts:
        product = product * Series(
            (1, *(chart_contribution(chart, bundle.rank, m, params) for m in range(1, nmax + 1)))
        )
    return product.coeffs


def dt_series(
    space: ToricSpace,
    bundle: SplitBundle,
    nmax: int,
    seed: int = 0,
    trials: int = 2,
    threads: int | None = None,
) -> Series:
    """Generating series 1 + sum_n DT_n q^n through q^nmax, exact integers."""
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    nthreads = resolve_threads(threads)
    values = _evaluate_at_samples(
        bundle.rank,
        seed,
        trials,
        lambda p: _series_values(space, bundle, nmax, p, nthreads),
    )
    series = Series(values)
    coeffs = series.integer_coeffs()
    if coeffs[0] != 1:
        raise NonIntegralError(f"constant coefficient {coeffs[0]} should be 1")
    return series


def dt_invariant(
    space: ToricSpace,
    bundle: SplitBundle,
    n: int,
    seed: int = 0,
    trials: int = 2,
    threads: int | None = None,
) -> int:
    """The degree n invariant as an exact integer."""
    series = dt_series(space, bundle, n, seed=seed, trials=trials, threads=threads)
    return series.integer_coeffs()[n]


def c3_via_localization(space: ToricSpace, seed: int = 0, trials: int = 2) -> int:
    """Fixed-point sum for the integral of c3(T tensor K).

    At each fixed point the tangent weight forms w_i give the summand
    prod_i (w_i - sigma) / prod_i w_i with sigma = w_1 + w_2 + w_3.
    """

    def compute(params: EquivParams) -> Fraction:
        total = Fraction(0)
        for chart in space.charts:
            ws = [weight_form(v, params) for v in chart]
            if any(w == 0 for w in ws):
                raise ZeroWeightError("tangent weight vanished")
            sigma = sum(ws)
            num = 1
            den = 1
            for w in ws:
                num *= w - sigma
                den *= w
            total += Fraction(num, den)
        return total

    value = _evaluate_at_samples(0, seed, trials, compute)
    if value.denominator != 1:
        raise NonIntegralError(f"localization sum {value} is not an integer")
    return value.numerator


def count_fixed_points(space: ToricSpace, rank: int, n: int) -> int:
    """Number of torus fixed points with n boxes in total.

    Each chart holds any colored plane partition, so the count is the q^n
    coefficient of the product over charts of sum_m #enum_colored(m) q^m.
    """
    counts = [len(enum_colored(m, rank)) for m in range(n + 1)]
    totals = [1] + [0] * n
    for _ in space.charts:
        # multiply by the chart's series sum_m counts[m] q^m, truncated at q^n
        totals = [sum(totals[i] * counts[m - i] for i in range(m + 1)) for m in range(n + 1)]
    return totals[n]
