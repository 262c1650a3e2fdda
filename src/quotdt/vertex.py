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
tables, symmetry_defect and the naming of a zero weight read.
chart_weights gives one chart's weights at one parameter point as a plain
pair: the tangent weights w_i = a_i . s and, per color pair, color k's
weight minus color j's, where color j weighs m_j . s + v_j.  _weigh maps
unpacked codes through that pair to x w1 + y w2 + z w3 plus the pair's
offset, in one comprehension.  euler_inverse(char, params) weighs the
character's codes into a local dict, and the inverse Euler class is then
two products of its lookups.

chart_sums(charts, rank, nmax, points) returns the chart sums for every
parameter point and every size n up to nmax in one pass over the fixed
points.  A column is one (point, chart) pair.  It loops over partitions
on the outside and charts on the inside, so each formal character is
built once for all charts and held in a one-entry memo.  Before it
evaluates a size, it unpacks that size's new codes once into one stack,
code -> the tuple of its weights in every column, and a zero weight is
caught there, before any product.  Each partition then reads each of its
codes once from the stack, and every column's top and bottom are the
products of one transposed column of those tuples: the same ints as
euler_inverse's two products.  Each column's terms for the size are
collected as unreduced int pairs N / D and added neighbour to neighbour
in rounds over gcd(D1, D2), so the two operands of an addition are
partial sums of about the same size and it builds one Fraction per
column and size, not one per term.  It never calls euler_inverse: both
name a zero weight through _zero_weight, which builds the exponents of
the first zero-weight monomial in formal order.

Virtual dimension zero lets antipodal charts share one column.  The rank
T(1) of every formal character is 0, checked with its constant term, so
each term has as many weights on top as below and is unchanged when every
weight flips sign.  chart_sums keys a column by its weights (w1, w2, w3,
*offsets) or their negation, whichever is smaller; the first column with
a key owns it, and only owned columns are weighed, multiplied and summed,
a later one copying its owner's sums.  At rank 1 the offsets are all 0,
so a chart and its negation, as on P1 x P1 x P1, share.  At rank 2 and
above the offsets v_k - v_j keep their sign and nothing is shared: there
the antipodal sums agree only through the vertex identity, which the
engine is meant to test, not to assume.

vertex_character and chart_contribution keep their process-lifetime caches.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, prod
from operator import mul, sub

from .errors import (
    NonzeroFixedPartError, Record, VirtualDimensionError, ZeroWeightError, check_size, check_vector,
)
from .partitions import ColoredPlanePartition, enum_colored

Vec3 = tuple[int, int, int]


def determinant(vectors) -> int:
    """Determinant of three vectors in Z^3."""
    (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) = vectors
    return a1 * (b2 * c3 - b3 * c2) - a2 * (b1 * c3 - b3 * c1) + a3 * (b1 * c2 - b2 * c1)


def check_unimodular(tangent, where: str = "chart") -> tuple[Vec3, Vec3, Vec3]:
    """tangent as three int triples; ValueError, naming where, unless it is three
    vectors in Z^3 with determinant +-1.
    """
    if not isinstance(tangent, (tuple, list)) or len(tangent) != 3:
        raise ValueError(f"{where} {tangent!r} is not three tangent characters")
    tangent = tuple(check_vector(a, 3, f"{where} tangent character") for a in tangent)
    det = determinant(tangent)
    if det not in (1, -1):
        raise ValueError(f"{where} has determinant {det}; charts must be unimodular")
    return tangent


class ChartWeights(Record):
    """Tangent characters and color twists of one chart.

    tangent holds three vectors in Z^3, and twists one vector m_j in Z^3 per
    color: color j is the character u_j * t^(m_j).
    """

    __slots__ = ("tangent", "twists")

    def __init__(self, tangent: tuple[Vec3, Vec3, Vec3], twists: tuple[Vec3, ...]):
        tangent = check_unimodular(tangent)
        twists = tuple(check_vector(m, 3, f"twist {j}") for j, m in enumerate(twists))
        if not twists:
            raise ValueError("at least one color is required")
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
    if len(num) != len(den):
        # T(1) = len(den) - len(num) is the rank of T, the virtual dimension
        raise VirtualDimensionError(f"virtual character of rank {len(den) - len(num)}, not 0")
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


class EquivParams(Record):
    """One sampled point of the torus parameters.

    s weights the three chart variables, v the color variables.  Integer
    entries keep every weight an exact integer.
    """

    __slots__ = ("s", "v")

    def __init__(self, s: tuple[int, int, int], v: tuple[int, ...] = ()):
        # a v with no length, such as 7, is refused as a would-be vector in Z^1
        rank = len(v) if hasattr(v, "__len__") else 1
        self._set(check_vector(s, 3, "s"), check_vector(v, rank, "v"))

    @property
    def rank(self) -> int:
        return len(self.v)


def chart_weights(chart: ChartWeights, params: EquivParams) -> tuple[Vec3, list[int]]:
    """The weights of a chart at a parameter point, as the pair (tangent, offsets).

    tangent holds w1, w2 and w3, and offsets[pair] the weight of color k
    minus that of color j (0 for the diagonal pair 0).  _weigh reads both.
    """
    if chart.rank != params.rank:
        raise ValueError("parameter rank does not match chart rank")
    s = params.s
    colors = [sum(map(mul, m, s)) + v for m, v in zip(chart.twists, params.v)]
    tangent = tuple(sum(map(mul, a, s)) for a in chart.tangent)
    return tangent, [0] + [ck - cj for cj in colors for ck in colors]


def _weigh(weights: tuple[Vec3, list[int]], digits) -> list[int]:
    """The weight under chart_weights' pair of each code, given unpacked as (pair, x, y, z)."""
    (w1, w2, w3), offsets = weights
    return [x * w1 + y * w2 + z * w3 + offsets[pair] for pair, x, y, z in digits]


def _zero_weight(char: ChartCharacter, zeros) -> str:
    """The message naming the first monomial of char whose code is in zeros.

    The monomial is the first in formal order, by its exponent in Z^(3 + r);
    chart_terms is built only here.
    """
    exps = next(e for code, e in zip(char.formal[0], chart_terms(char)) if code in zeros)
    return f"monomial {exps} has weight zero"


def euler_inverse(char: ChartCharacter, params: EquivParams) -> Fraction:
    """Inverse equivariant Euler class of a chart character, from 3 + r scalar weights.

    Moving monomials with positive coefficient contribute their weight to the
    denominator, negative ones to the numerator, read from a dict of the
    character's weights built here.  A zero weight means the parameters are
    inadmissible for this character; _zero_weight names the monomial.
    """
    if not isinstance(char, ChartCharacter):
        raise TypeError("euler_inverse takes a chart character from vertex_character")
    terms, num, den = char.formal
    table = dict(zip(terms, _weigh(chart_weights(char.chart, params), map(_unpack, terms))))
    weigh = table.__getitem__
    top = prod(map(weigh, num))
    bottom = prod(map(weigh, den))
    if top and bottom:
        return Fraction(top, bottom)
    zeros = {code for code, w in table.items() if not w}
    raise ZeroWeightError(_zero_weight(char, zeros))


def chart_sums(charts, rank: int, nmax: int, points) -> list[list[list[Fraction]]]:
    """Per parameter point, per size n = 1..nmax, one row with each chart's sum of
    inverse Euler classes.

    Entry [p][n - 1] holds, chart by chart, the sum at points[p] over the
    colored partitions of size n.  One pass over each size's partitions
    serves every column, a (point, chart) pair, point-major.  For each
    size, the partitions are the outer loop and the charts the inner one,
    so each formal character is built once for all charts.  The size's
    codes that the stack does not hold yet are unpacked once and added to
    it: the stack maps a code to the tuple of its weights in every column.
    A zero among them is caught there, before any product.

    A term is, in every column at once, two int products of the stack
    entries of its codes, top / bottom, as in euler_inverse, but no
    Fraction is built per term.  Each column collects its terms for the
    size as unreduced int pairs (N, D), then adds them neighbour to
    neighbour in rounds over gcd(D1, D2), so the operands of an addition
    grow together, and builds one Fraction from the last pair.  A zero
    weight raises a ZeroWeightError whose point is the first point that
    has one; its message names the first partition with a zero weight
    there, its first such chart by position in charts, n and, through
    _zero_weight as in euler_inverse, the first zero monomial.

    A column whose weights, offsets included, equal or negate those of an
    earlier column is not weighed: it copies that owner's sums.  Every
    term has as many weights on top as below (_formal_character checks
    the rank T(1) = 0), so flipping every sign leaves it unchanged.  At
    rank 1 this shares antipodal charts; at higher rank the offsets keep
    their sign.  An owner has its copies' zeros and comes before them, so
    every zero-weight message is that of the unshared pass.
    """
    check_size(nmax, "nmax")
    charts = list(charts)  # read several times below, so a one-shot iterable is taken once
    if any(chart.rank != rank for chart in charts):
        raise ValueError("rank does not match chart data")
    points = list(points)
    width = len(charts)
    columns = [chart_weights(chart, params) for params in points for chart in charts]
    if not columns:
        return [[[] for _ in range(nmax)] for _ in points]
    # owner[col] is the position in owned of the first column whose weights
    # are col's or their negation; every term has as many codes on top as
    # below, so the two have the same sums
    owned = []
    owner = []
    keys: dict[tuple[int, ...], int] = {}
    for column in columns:
        flat = (*column[0], *column[1])
        key = min(flat, tuple(-w for w in flat))
        if key not in keys:
            keys[key] = len(owned)
            owned.append(column)
        owner.append(keys[key])
    # for a term with no codes zip(*map(get, num)) would yield no column at
    # all; a leading ones tuple keeps one product per column, 1 there as in
    # euler_inverse
    ones = (1,) * len(owned)
    stack: dict[int, tuple[int, ...]] = {}
    get = stack.__getitem__
    sums = [[] for _ in points]
    for n in range(1, nmax + 1):
        # the characters of each partition, one per chart
        characters = [
            [vertex_character(cpp, chart) for chart in charts]
            for cpp in enum_colored(n, rank)
        ]
        codes = list(set().union(*(chars[0].formal[0] for chars in characters)).difference(stack))
        digits = list(map(_unpack, codes))
        weights = [_weigh(column, digits) for column in owned]
        if any(0 in column for column in weights):
            # every new code belongs to a partition of this size, so one
            # fails; a column has the zeros of its owner
            point = next(col for col, slot in enumerate(owner) if 0 in weights[slot]) // width
            zeros = [{code for code, w in zip(codes, weights[slot]) if not w}
                     for slot in owner[point * width:(point + 1) * width]]
            i, char = next((i, char) for chars in characters for i, char in enumerate(chars)
                           if not zeros[i].isdisjoint(char.formal[0]))
            raise ZeroWeightError(f"chart {i}, n={n}: {_zero_weight(char, zeros[i])}", point)
        stack.update(zip(codes, zip(*weights)))
        tops = []
        bottoms = []
        for chars in characters:
            _, num, den = chars[0].formal
            tops.append(tuple(map(prod, zip(ones, *map(get, num)))))
            bottoms.append(tuple(map(prod, zip(ones, *map(get, den)))))
        owned_row = []
        for col_tops, col_bottoms in zip(zip(*tops), zip(*bottoms)):
            pairs = list(zip(col_tops, col_bottoms))
            while len(pairs) > 1:
                # add neighbours over lcm(d1, d2); an odd last pair waits for the next round
                odd = pairs[len(pairs) & ~1:]
                pairs = [
                    (n1 * (d2 // (g := gcd(d1, d2))) + n2 * (d1 // g), d1 // g * d2)
                    for (n1, d1), (n2, d2) in zip(pairs[::2], pairs[1::2])
                ] + odd
            owned_row.append(Fraction(*pairs[0]))
        row = [owned_row[slot] for slot in owner]
        for p, point_sums in enumerate(sums):
            point_sums.append(row[p * width:(p + 1) * width])
    return sums


@lru_cache(maxsize=None)
def chart_contribution(chart: ChartWeights, rank: int, n: int, params: EquivParams) -> Fraction:
    """Sum of inverse Euler classes over all colored plane partitions of size n.

    A one-point, one-chart view of chart_sums; 1 at n = 0, the empty
    partition.  Its lru_cache stays while perfbench/tracer.py wraps it by
    name.
    """
    sums = chart_sums((chart,), rank, n, (params,))[0]
    return sums[n - 1][0] if n else Fraction(1)
