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

One Python int, its code, stands for one formal monomial of one color pair:

    code = ((pair * B + x) * B + y) * B + z,    B = 2^12,

with x, y and z signed, and pair 0 for the merged diagonal pairs j = k and
1 + j r + k for the pair (j, k).  _unpack reads the digits back as residues
in [-B/2, B/2), so a code is unique while |x|, |y|, |z| < B/2.  Formal
exponents lie between -(c + 1) and c for the largest box coordinate c, so
box coordinates may reach MAX_BOX = B/2 - 2 = 2046; a larger one raises
ValueError.  The packing is linear, so e - b - (1, 1, 1) is one int
subtraction.

Each part's Q_k P(t) is expanded once, by three shift-and-subtract passes
with the zero terms dropped.  The terms of every pair are then added into
one code -> coefficient dict, the diagonal pairs first; its order of first
insertion is the formal order.  Its nonzero entries, with the codes of the
negative and of the positive terms repeated by multiplicity, are the formal
character of the partition.  It is the same for every chart, and its
constant term is checked once.

A chart enters only through the substitution of each formal monomial by
x a1 + y a2 + z a3 + (c_k - c_j) in Z^(3 + r), where c_j = (m_j, e_j) is
the exponent vector of w_j, built from the chart's twist m_j and the unit
vector e_j of u_j.  Charts must be unimodular; then the substitution is
injective, so it needs no merging and no second constant check.
vertex_character returns a chart character, the formal character and the
chart; chart_terms substitutes its exponent dict, which only the vertex
tables and symmetry_defect read.  euler_inverse weighs a code through
chart_weights, a dict for one chart and one parameter point that fills
itself on lookup with x w1 + y w2 + z w3 plus color k's weight minus color
j's, where w_i = a_i . s and color j weighs m_j . s + v_j.  The inverse
Euler class is then two products of table lookups.

chart_sums returns the chart sums for every size n up to nmax.  It builds
one weight table per chart for all sizes, and loops over partitions on the
outside and charts on the inside, so each formal character is built once
for all charts and held in a one-entry memo.  It takes the same two
products as euler_inverse, but adds the terms top / bottom of each chart
pairwise, as unreduced int pairs N / D over gcd(D1, D2), so the two
operands of an addition are partial sums of about the same size and it
builds one Fraction per chart and size, not one per term; it calls
euler_inverse only on a zero product, to name the monomial.
vertex_character and chart_contribution keep their process-lifetime caches.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, prod
from operator import mul, sub

from .charalg import EquivParams
from .errors import NonzeroFixedPartError, ZeroWeightError
from .partitions import ColoredPlanePartition, enum_colored
from .record import Record

Vec3 = tuple[int, int, int]


def determinant(vectors) -> int:
    """Determinant of three vectors in Z^3; ValueError for any other shape."""
    if len(vectors) != 3 or any(len(v) != 3 for v in vectors):
        raise ValueError("a chart needs three tangent characters in Z^3")
    (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) = vectors
    return a1 * (b2 * c3 - b3 * c2) - a2 * (b1 * c3 - b3 * c1) + a3 * (b1 * c2 - b2 * c1)


class ChartWeights(Record):
    """Tangent characters and color twists of one chart.

    tangent holds three vectors in Z^3, and twists one vector m_j in Z^3 per
    color: color j is the character u_j * t^(m_j).
    """

    __slots__ = ("tangent", "twists")

    def __init__(self, tangent: tuple[Vec3, Vec3, Vec3], twists: tuple[Vec3, ...]):
        det = determinant(tangent)
        if det not in (1, -1):
            raise ValueError(f"tangent characters have determinant {det}; charts must be unimodular")
        if not twists:
            raise ValueError("at least one color is required")
        for j, m in enumerate(twists):
            if len(m) != 3 or not all(isinstance(x, int) for x in m):
                raise ValueError(f"twist {j} is {m}; twists must lie in Z^3")
        self._set(tangent, twists)

    @property
    def rank(self) -> int:
        return len(self.twists)


_BITS = 12
_BASE = 1 << _BITS
_HALF = _BASE >> 1
_MASK = _BASE - 1
# Adding _BIAS moves x, y and z to [0, B) and leaves the pair digit alone.
_BIAS = _HALF * ((_BASE + 1) * _BASE + 1)
MAX_BOX = _HALF - 2
_PAIR = _BASE ** 3  # one step of the pair digit
_ONES = (_BASE + 1) * _BASE + 1  # the code of (1, 1, 1)
_STEPS = (_BASE * _BASE, _BASE, 1)  # the codes of the three unit vectors


def _pack(pair: int, x: int, y: int, z: int) -> int:
    """The code of the formal monomial t^(x, y, z) of a color pair."""
    return ((pair * _BASE + x) * _BASE + y) * _BASE + z


def _unpack(code: int) -> tuple[int, int, int, int]:
    """(pair, x, y, z) of a code, reading x, y and z as residues in [-B/2, B/2)."""
    biased = code + _BIAS
    return (
        biased >> 3 * _BITS,
        (biased >> 2 * _BITS & _MASK) - _HALF,
        (biased >> _BITS & _MASK) - _HALF,
        (biased & _MASK) - _HALF,
    )


def _box_codes(boxes) -> list[int]:
    """The codes of one part's boxes; ValueError past MAX_BOX."""
    # a coordinate c needs c + 1 boxes below it, so only a large part can overflow
    if len(boxes) > MAX_BOX + 1:
        top = max(map(max, boxes))
        if top > MAX_BOX:
            raise ValueError(
                f"box coordinate {top} exceeds {MAX_BOX} = B/2 - 2, "
                f"the bound of a formal monomial code (B = {_BASE})"
            )
    return [(x * _BASE + y) * _BASE + z for x, y, z in boxes]  # _pack(0, x, y, z)


def _times_p(codes) -> list[tuple[int, int]]:
    """Q(t) P(t) as (code, coefficient) pairs, for the box codes Q of one part; zeros dropped."""
    acc = dict.fromkeys(codes, 1)
    for step in _STEPS:
        # multiply by (1 - t_i): subtract a copy shifted one step along axis i
        out = dict(acc)
        for code, c in acc.items():
            out[code + step] = out.get(code + step, 0) - c
        acc = out
    return [(code, c) for code, c in acc.items() if c]


def _pair_terms(acc: dict[int, int], codes_j, codes_k, qp_k, pair: int) -> None:
    """Add U_jk to acc, in codes of the color pair, given qp_k = Q_k P."""
    get = acc.get
    offset = pair * _PAIR
    # dual(Q_j) Q_k P / kappa: e - b - (1, 1, 1) for every box b and term e
    for b in codes_j:
        shift = b + _ONES - offset
        for e, c in qp_k:
            key = e - shift
            acc[key] = get(key, 0) + c
    for b in codes_k:
        key = b + offset
        acc[key] = get(key, 0) + 1
    for b in codes_j:
        key = offset - _ONES - b
        acc[key] = get(key, 0) - 1


@lru_cache(maxsize=1)
def _formal_character(cpp: ColoredPlanePartition):
    """The chart-free character of a colored partition: (terms, num, den).

    terms maps the code of each nonzero formal monomial to its coefficient,
    in formal order: the merged diagonal pairs, then the pairs (j, k) with
    j != k.  num holds the codes of the negative terms and den those of the
    positive ones, each repeated by the size of its coefficient.  One entry
    is memoized: a partition-outer loop asks for the same partition once
    per chart, then moves on.
    """
    codes = [_box_codes(part.boxes) for part in cpp.parts]
    qp = [_times_p(c) for c in codes]
    rank = len(codes)
    acc: dict[int, int] = {}
    for codes_k, qp_k in zip(codes, qp):
        _pair_terms(acc, codes_k, codes_k, qp_k, 0)
    constant = acc.get(0, 0)
    if constant != 0:
        raise NonzeroFixedPartError(f"constant term {constant} in virtual character")
    for j, codes_j in enumerate(codes):
        for k, codes_k in enumerate(codes):
            if j != k:
                _pair_terms(acc, codes_j, codes_k, qp[k], 1 + j * rank + k)
    terms: dict[int, int] = {}
    num: list[int] = []
    den: list[int] = []
    for code, c in acc.items():
        if c == 1:
            den.append(code)
        elif c == -1:
            num.append(code)
        elif c > 0:
            den += [code] * c
        elif c < 0:
            num += [code] * -c
        else:
            continue
        terms[code] = c
    return terms, num, den


class ChartCharacter:
    """A colored partition's formal character seen through one chart.

    formal is the (terms, num, den) of _formal_character and chart the
    ChartWeights; chart_terms gives the exponent dict.  num_terms counts the
    formal terms: the substitution is injective, so it loses none.
    """

    __slots__ = ("formal", "chart")

    def __init__(self, formal, chart: ChartWeights):
        self.formal = formal
        self.chart = chart

    @property
    def num_terms(self) -> int:
        return len(self.formal[0])


def chart_terms(char: ChartCharacter) -> dict[tuple[int, ...], int]:
    """The exponent dict of a chart character in Z^(3 + r), in formal order."""
    chart = char.chart
    r = chart.rank
    (a10, a11, a12), (a20, a21, a22), (a30, a31, a32) = chart.tangent
    twists = chart.twists
    exponents: dict[tuple[int, ...], int] = {}
    for code, c in char.formal[0].items():
        pair, x, y, z = _unpack(code)
        j, k = divmod(pair - 1, r) if pair else (0, 0)
        # c_k - c_j: the twists' difference, then e_k - e_j
        d0, d1, d2 = map(sub, twists[k], twists[j])
        # The chart is unimodular and the color parts e_k - e_j differ
        # between pairs, so no two formal monomials share an exponent.
        exponents[(
            x * a10 + y * a20 + z * a30 + d0,
            x * a11 + y * a21 + z * a31 + d1,
            x * a12 + y * a22 + z * a32 + d2,
            *((i == k) - (i == j) for i in range(r)),
        )] = c
    return exponents


def symmetry_defect(char: ChartCharacter) -> dict[tuple[int, ...], int]:
    """The nonzero terms of T + kappa^-1 dual(T); empty exactly when T is symmetric."""
    terms = chart_terms(char)
    # kappa^-1 dual(t^e) = t^(-e - kappa), kappa = a1 + a2 + a3 in the tangent part
    k0, k1, k2 = map(sum, zip(*char.chart.tangent))
    defect = dict(terms)
    for (e0, e1, e2, *colors), c in terms.items():
        key = (-e0 - k0, -e1 - k1, -e2 - k2, *(-x for x in colors))
        defect[key] = defect.get(key, 0) + c
    return {e: c for e, c in defect.items() if c}


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


class _WeightTable(dict):
    """Code -> weight in one chart at one parameter point, filled on lookup.

    tangent holds w1, w2 and w3, and offsets[pair] the weight of color k
    minus that of color j (0 for the diagonal pair 0).
    """

    __slots__ = ("chart", "params", "tangent", "offsets")

    def __missing__(self, code: int) -> int:
        pair, x, y, z = _unpack(code)
        w1, w2, w3 = self.tangent
        weight = self[code] = x * w1 + y * w2 + z * w3 + self.offsets[pair]
        return weight


def chart_weights(chart: ChartWeights, params: EquivParams) -> _WeightTable:
    """The weight table of a chart at a parameter point, for euler_inverse.

    It starts empty and weighs a code on its first lookup.  One table
    serves every character of the chart at that point.
    """
    if chart.rank != params.rank:
        raise ValueError("parameter rank does not match chart rank")
    s = params.s
    colors = [sum(map(mul, m, s)) + v for m, v in zip(chart.twists, params.v)]
    table = _WeightTable()
    table.chart = chart
    table.params = params
    table.tangent = tuple(sum(map(mul, a, s)) for a in chart.tangent)
    table.offsets = [0] + [ck - cj for cj in colors for ck in colors]
    return table


def euler_inverse(char: ChartCharacter, params: EquivParams, weights=None) -> Fraction:
    """Inverse equivariant Euler class of a chart character, from 3 + r scalar weights.

    Moving monomials with positive coefficient contribute their weight to the
    denominator, negative ones to the numerator.  weights is
    chart_weights(char.chart, params), built here when it is not given.  A
    zero weight means the parameters are inadmissible for this character;
    the error names the first such monomial in formal order by its exponent
    in Z^(3 + r), which is built only then.
    """
    if not isinstance(char, ChartCharacter):
        raise TypeError("euler_inverse takes a chart character from vertex_character")
    if weights is None:
        weights = chart_weights(char.chart, params)
    elif (weights.chart is not char.chart and weights.chart != char.chart) or (
        weights.params is not params and weights.params != params
    ):
        raise ValueError("weights belong to another chart or parameter point")
    terms, num, den = char.formal
    weigh = weights.__getitem__
    top = prod(map(weigh, num))
    bottom = prod(map(weigh, den))
    if top and bottom:
        return Fraction(top, bottom)
    exps = next(e for code, e in zip(terms, chart_terms(char)) if weights[code] == 0)
    raise ZeroWeightError(f"monomial {exps} has weight zero")


def _add(n1: int, d1: int, n2: int, d2: int) -> tuple[int, int]:
    """n1 / d1 + n2 / d2 as an unreduced int pair over lcm(d1, d2)."""
    g = gcd(d1, d2)
    return n1 * (d2 // g) + n2 * (d1 // g), d1 // g * d2


def chart_sums(charts, rank: int, nmax: int, params: EquivParams) -> list[list[Fraction]]:
    """Per size n = 1..nmax, one row with each chart's sum of inverse Euler classes.

    Row n - 1 holds, chart by chart, the sum over the colored partitions of
    size n.  Each chart's weight table is built once for all sizes.  The
    partitions are the outer loop, so each one's formal character is built
    once and evaluated in every chart.

    A term is two int products of table lookups, top / bottom, as in
    euler_inverse, but no Fraction is built per term.  Each chart keeps a
    binary counter of partial sums (count, N, D), unreduced int pairs: a
    term is pushed as (1, top, bottom), and while the last two entries
    cover the same number of terms they are merged over gcd(D1, D2).  So
    the operands of an addition grow together, a chart holds
    O(log #partitions) entries, and each chart and size folds its stack
    into one Fraction.  A zero product is handed to euler_inverse, which
    names the zero-weight monomial; the ZeroWeightError then names the
    failing chart by its position in charts, and n.
    """
    if nmax < 0:
        raise ValueError("n must be nonnegative")
    if any(chart.rank != rank for chart in charts):
        raise ValueError("rank does not match chart data")
    tables = [chart_weights(chart, params) for chart in charts]
    rows = []
    for n in range(1, nmax + 1):
        stacks = [[] for _ in tables]
        for cpp in enum_colored(n, rank):
            for i, table in enumerate(tables):
                char = vertex_character(cpp, table.chart)
                _, num, den = char.formal
                weigh = table.__getitem__
                top = prod(map(weigh, num))
                bottom = prod(map(weigh, den))
                if not (top and bottom):
                    try:
                        euler_inverse(char, params, table)
                    except ZeroWeightError as exc:
                        raise ZeroWeightError(f"chart {i}, n={n}: {exc}") from None
                stack = stacks[i]
                count = 1
                while stack and stack[-1][0] == count:
                    _, a, b = stack.pop()
                    top, bottom = _add(a, b, top, bottom)
                    count *= 2
                stack.append((count, top, bottom))
        row = []
        for stack in stacks:
            _, top, bottom = stack.pop()
            while stack:
                _, a, b = stack.pop()
                top, bottom = _add(a, b, top, bottom)
            row.append(Fraction(top, bottom))
        rows.append(row)
    return rows


@lru_cache(maxsize=None)
def chart_contribution(chart: ChartWeights, rank: int, n: int, params: EquivParams) -> Fraction:
    """Sum of inverse Euler classes over all colored plane partitions of size n.

    A view of chart_sums; 1 at n = 0, the empty partition.  Its lru_cache
    stays while perfbench/tracer.py wraps it by name.
    """
    rows = chart_sums((chart,), rank, n, params)
    return rows[n - 1][0] if n else Fraction(1)
