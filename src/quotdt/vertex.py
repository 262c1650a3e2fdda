"""Per-chart virtual characters and their inverse Euler classes.

A chart of a smooth toric 3-fold is an affine space with three tangent
characters a1, a2, a3 (vectors in the character lattice Z^3) and, for a split
rank r bundle, r color characters w_j = u_j * t^(m_j).  A colored plane
partition sitting in the chart determines the virtual tangent character

    T = dual(f) q - dual(q) f / kappa + dual(q) q P(t) / kappa

with f = sum_j w_j, q = sum_j w_j Q_j(t), P(t) = prod_i (1 - t^(a_i)) and
kappa = t^(a1 + a2 + a3).  See conventions.py for the sign calibration.

The character is built one color pair at a time.  Expanding f and q gives
T = sum_{j,k} dual(w_j) w_k U_jk with

    U_jk = Q_k - dual(Q_j) / kappa + dual(Q_j) Q_k P(t) / kappa,

which depends only on the boxes of colors j and k.  U_jk is computed in
formal tangent exponents (x, y, z), standing for t^(x a1 + y a2 + z a3).
Each part's Q_k P(t) is expanded once, by three shift-and-subtract passes
with the zero terms dropped; dual(Q_j) Q_k P(t) / kappa then pairs every
box b of color j with every term e of Q_k P(t) at e - b - (1, 1, 1).
These formal terms, with the diagonal pairs j = k merged, are the formal
character of the partition; it is the same for every chart, and its
constant term is checked once.

A chart enters only through the substitution of each formal monomial by
x a1 + y a2 + z a3 + (c_k - c_j) in Z^(3 + r), where c_j = (m_j, e_j) is
the exponent vector of w_j, built from the chart's twist m_j and the unit
vector e_j of u_j.  Charts must be unimodular; then the substitution is
injective, so it needs no merging and no second constant check.
vertex_character returns a chart character: the formal terms and the
chart, with the LaurentPoly exponent dict filled by the substitution only
when something reads it (the vertex tables, symmetry_defect, equality).
euler_inverse never does.  It takes 3 + r scalar weights, w_i = a_i . s
for the tangent characters and m_j . s + v_j for each color, and weighs a
formal monomial of the pair (j, k) as x w1 + y w2 + z w3 plus color k's
weight minus color j's.

chart_sums loops over partitions on the outside and charts on the inside,
so each formal character is built once for all charts and held in a
one-entry memo.  vertex_character and chart_contribution keep their
process-lifetime caches.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul, sub

from .charalg import EquivParams, LaurentPoly
from .errors import NonzeroFixedPartError, ZeroWeightError
from .partitions import ColoredPlanePartition, enum_colored

Vec3 = tuple[int, int, int]


def determinant(vectors) -> int:
    """Determinant of three vectors in Z^3; ValueError for any other shape."""
    if len(vectors) != 3 or any(len(v) != 3 for v in vectors):
        raise ValueError("a chart needs three tangent characters in Z^3")
    (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) = vectors
    return a1 * (b2 * c3 - b3 * c2) - a2 * (b1 * c3 - b3 * c1) + a3 * (b1 * c2 - b2 * c1)


@dataclass(frozen=True)
class ChartWeights:
    """Tangent characters and color twists of one chart.

    tangent holds three vectors in Z^3, and twists one vector m_j in Z^3 per
    color: color j is the character u_j * t^(m_j).
    """

    tangent: tuple[Vec3, Vec3, Vec3]
    twists: tuple[Vec3, ...]

    def __post_init__(self):
        det = determinant(self.tangent)
        if det not in (1, -1):
            raise ValueError(f"tangent characters have determinant {det}; charts must be unimodular")
        if not self.twists:
            raise ValueError("at least one color is required")
        for j, m in enumerate(self.twists):
            if len(m) != 3 or not all(isinstance(x, int) for x in m):
                raise ValueError(f"twist {j} is {m}; twists must lie in Z^3")

    @property
    def rank(self) -> int:
        return len(self.twists)


def _embed(vec: Vec3, rank: int) -> tuple[int, ...]:
    return (*vec, *((0,) * rank))


def kappa_inverse(chart: ChartWeights) -> LaurentPoly:
    """The monomial kappa^-1 = t^-(a1 + a2 + a3) of a chart."""
    a = [_embed(v, chart.rank) for v in chart.tangent]
    return LaurentPoly.monomial(tuple(-(x + y + z) for x, y, z in zip(*a)))


def symmetry_defect(char: LaurentPoly, chart: ChartWeights) -> LaurentPoly:
    """T + kappa^-1 dual(T); vanishes exactly when the character is symmetric."""
    return char + kappa_inverse(chart) * char.dual()


_AXES = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _times_p(boxes) -> tuple[tuple[Vec3, int], ...]:
    """Q(t) P(t) in formal tangent exponents, for the boxes Q of one part; zeros dropped."""
    acc = dict.fromkeys(boxes, 1)
    for dx, dy, dz in _AXES:
        # multiply by (1 - t_i): subtract a copy shifted one step along axis i
        out = dict(acc)
        for (x, y, z), c in acc.items():
            key = (x + dx, y + dy, z + dz)
            out[key] = out.get(key, 0) - c
        acc = out
    return tuple((e, c) for e, c in acc.items() if c)


def _pair_terms(boxes_j, boxes_k, qp_k) -> dict[Vec3, int]:
    """U_jk in formal tangent exponents, given qp_k = Q_k P; zero coefficients may remain."""
    acc: dict[Vec3, int] = {}
    for x1, y1, z1 in boxes_j:
        for (x2, y2, z2), c in qp_k:
            key = (x2 - x1 - 1, y2 - y1 - 1, z2 - z1 - 1)
            acc[key] = acc.get(key, 0) + c
    for key in boxes_k:
        acc[key] = acc.get(key, 0) + 1
    for x, y, z in boxes_j:
        key = (-x - 1, -y - 1, -z - 1)
        acc[key] = acc.get(key, 0) - 1
    return acc


@lru_cache(maxsize=1)
def _formal_character(cpp: ColoredPlanePartition):
    """The chart-free character of a colored partition: (j, k, terms) per color pair.

    terms holds the nonzero (x, y, z) -> coefficient items of U_jk.  The
    diagonal pairs j = k all land on the color part 0, so they are merged
    into one entry (0, 0, terms).  One entry is memoized: a partition-outer
    loop asks for the same partition once per chart, then moves on.
    """
    boxes = [part.boxes for part in cpp.parts]
    qp = [_times_p(b) for b in boxes]
    diagonal: dict[Vec3, int] = {}
    for b, q in zip(boxes, qp):
        for key, c in _pair_terms(b, b, q).items():
            diagonal[key] = diagonal.get(key, 0) + c
    constant = diagonal.get((0, 0, 0), 0)
    if constant != 0:
        raise NonzeroFixedPartError(f"constant term {constant} in virtual character")
    pairs = [(0, 0, tuple((e, c) for e, c in diagonal.items() if c))]
    for j, boxes_j in enumerate(boxes):
        for k, boxes_k in enumerate(boxes):
            if j != k:
                terms = _pair_terms(boxes_j, boxes_k, qp[k])
                pairs.append((j, k, tuple((e, c) for e, c in terms.items() if c)))
    return tuple(pairs)


def _substitute(formal, chart: ChartWeights) -> dict[tuple[int, ...], int]:
    """The exponent dict of formal terms in a chart, in formal order."""
    r = chart.rank
    (a10, a11, a12), (a20, a21, a22), (a30, a31, a32) = chart.tangent
    twists = chart.twists
    terms: dict[tuple[int, ...], int] = {}
    for j, k, pair in formal:
        # c_k - c_j: the twists' difference, then e_k - e_j
        d0, d1, d2 = map(sub, twists[k], twists[j])
        rest = [(i == k) - (i == j) for i in range(r)]
        # The chart is unimodular and the color parts e_k - e_j differ
        # between pairs, so no two formal monomials share an exponent.
        terms.update({
            (
                x * a10 + y * a20 + z * a30 + d0,
                x * a11 + y * a21 + z * a31 + d1,
                x * a12 + y * a22 + z * a32 + d2,
                *rest,
            ): c
            for (x, y, z), c in pair
        })
    return terms


class ChartCharacter(LaurentPoly):
    """A colored partition's formal character seen through one chart.

    It holds the formal terms and the chart.  The exponent dict of
    LaurentPoly is filled by substitution on its first read (terms(), ==,
    hash, dual, +, ...).  num_terms and constant_term need no dict: the
    substitution is injective, and _formal_character has checked the
    constant term.
    """

    __slots__ = ("formal", "chart")

    def __init__(self, formal, chart: ChartWeights):
        object.__setattr__(self, "nvars", 3 + chart.rank)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "formal", formal)
        object.__setattr__(self, "chart", chart)

    def __getattr__(self, name):
        # Reached only for a slot not filled yet; _terms is filled on demand.
        if name != "_terms":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        terms = _substitute(self.formal, self.chart)
        object.__setattr__(self, "_terms", terms)
        return terms

    @property
    def num_terms(self) -> int:
        return sum(len(pair) for _, _, pair in self.formal)

    @property
    def constant_term(self) -> int:
        return 0


@lru_cache(maxsize=None)
def vertex_character(cpp: ColoredPlanePartition, chart: ChartWeights) -> ChartCharacter:
    """Virtual tangent character of a colored plane partition in a chart.

    Returns the chart character of the partition's formal character.
    Raises NonzeroFixedPartError if the constant term is nonzero, which
    would contradict virtual dimension zero.
    """
    if cpp.rank != chart.rank:
        raise ValueError("colored partition rank does not match chart rank")
    return ChartCharacter(_formal_character(cpp), chart)


def euler_inverse(char: ChartCharacter, params: EquivParams) -> Fraction:
    """Inverse equivariant Euler class of a chart character, from 3 + r scalar weights.

    Moving monomials with positive coefficient contribute their weight to the
    denominator, negative ones to the numerator.  A zero weight means the
    parameters are inadmissible for this character; the error names the
    first such monomial in formal order by its exponent in Z^(3 + r), which
    is built only then.
    """
    if not isinstance(char, ChartCharacter):
        raise TypeError("euler_inverse takes a chart character from vertex_character")
    if char.nvars != params.nvars:
        raise ValueError(
            f"a character in {char.nvars} variables does not match rank {params.rank} parameters"
        )
    chart = char.chart
    s = params.s
    w1, w2, w3 = (sum(map(mul, a, s)) for a in chart.tangent)
    colors = [sum(map(mul, m, s)) + v for m, v in zip(chart.twists, params.v)]
    num = 1
    den = 1
    for j, k, pair in char.formal:
        d = colors[k] - colors[j]
        for (x, y, z), coeff in pair:
            w = x * w1 + y * w2 + z * w3 + d
            if w == 0:
                (exps,) = _substitute(((j, k, (((x, y, z), coeff),)),), chart)
                raise ZeroWeightError(f"monomial {exps} has weight zero")
            if coeff > 0:
                den *= w ** coeff
            else:
                num *= w ** (-coeff)
    return Fraction(num, den)


def chart_sums(charts, rank: int, n: int, params: EquivParams) -> list[Fraction]:
    """Per chart, the sum of inverse Euler classes over colored partitions of size n.

    The partitions are the outer loop, so each one's formal character is
    built once and evaluated in every chart.  A ZeroWeightError names
    the failing chart by its position in charts, and n.
    """
    if any(chart.rank != rank for chart in charts):
        raise ValueError("rank does not match chart data")
    if params.rank != rank:
        raise ValueError("parameter rank does not match chart rank")
    totals = [Fraction(0)] * len(charts)
    try:
        for cpp in enum_colored(n, rank):
            for i, chart in enumerate(charts):
                totals[i] += euler_inverse(vertex_character(cpp, chart), params)
    except ZeroWeightError as exc:
        raise ZeroWeightError(f"chart {i}, n={n}: {exc}") from None
    return totals


@lru_cache(maxsize=None)
def chart_contribution(chart: ChartWeights, rank: int, n: int, params: EquivParams) -> Fraction:
    """Sum of inverse Euler classes over all colored plane partitions of size n."""
    return chart_sums((chart,), rank, n, params)[0]
