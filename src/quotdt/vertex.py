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
formal tangent exponents (x, y, z), standing for t^(x a1 + y a2 + z a3):
dual(Q_j) Q_k / kappa counts the box differences b' - b - (1, 1, 1), and
three shift-and-subtract passes multiply it by the factors (1 - t_i) of P.
Each formal monomial is then mapped to x a1 + y a2 + z a3 + (c_k - c_j) in
Z^(3 + r), where c_j is the exponent vector of w_j.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul, sub

from .charalg import EquivParams, LaurentPoly, _raw
from .errors import NonzeroFixedPartError, ZeroWeightError
from .partitions import ColoredPlanePartition, enum_colored

Vec3 = tuple[int, int, int]


@dataclass(frozen=True)
class ChartWeights:
    """Tangent and color characters of one chart.

    tangent holds three vectors in Z^3.  colors holds one exponent vector per
    color in Z^(3 + r): the twist part m_j followed by the unit vector of u_j.
    """

    tangent: tuple[Vec3, Vec3, Vec3]
    colors: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.tangent) != 3:
            raise ValueError("a chart has exactly three tangent characters")
        r = len(self.colors)
        if r < 1:
            raise ValueError("at least one color is required")
        for c in self.colors:
            if len(c) != 3 + r:
                raise ValueError("color exponents must have length 3 + rank")

    @property
    def rank(self) -> int:
        return len(self.colors)

    @property
    def nvars(self) -> int:
        return 3 + len(self.colors)

    @classmethod
    def build(cls, tangent, twists) -> "ChartWeights":
        """Assemble from tangent vectors and per-color twist vectors in Z^3."""
        twists = tuple(tuple(t) for t in twists)
        r = len(twists)
        colors = tuple(
            (*twists[j], *(1 if i == j else 0 for i in range(r))) for j in range(r)
        )
        return cls(tuple(tuple(v) for v in tangent), colors)


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


def _pair_terms(boxes_j, boxes_k) -> dict[Vec3, int]:
    """U_jk in formal tangent exponents; zero coefficients may remain."""
    acc: dict[Vec3, int] = {}
    for x1, y1, z1 in boxes_j:
        for x2, y2, z2 in boxes_k:
            key = (x2 - x1 - 1, y2 - y1 - 1, z2 - z1 - 1)
            acc[key] = acc.get(key, 0) + 1
    for dx, dy, dz in _AXES:
        # multiply by (1 - t_i): subtract a copy shifted one step along axis i
        out = dict(acc)
        for (x, y, z), c in acc.items():
            key = (x + dx, y + dy, z + dz)
            out[key] = out.get(key, 0) - c
        acc = out
    for key in boxes_k:
        acc[key] = acc.get(key, 0) + 1
    for x, y, z in boxes_j:
        key = (-x - 1, -y - 1, -z - 1)
        acc[key] = acc.get(key, 0) - 1
    return acc


@lru_cache(maxsize=None)
def vertex_character(cpp: ColoredPlanePartition, chart: ChartWeights) -> LaurentPoly:
    """Virtual tangent character of a colored plane partition in a chart.

    Raises NonzeroFixedPartError if the constant term is nonzero, which would
    contradict virtual dimension zero.
    """
    r = chart.rank
    if cpp.rank != r:
        raise ValueError("colored partition rank does not match chart rank")
    (a10, a11, a12), (a20, a21, a22), (a30, a31, a32) = chart.tangent
    terms: dict[tuple[int, ...], int] = {}
    for j, cj in enumerate(chart.colors):
        for k, ck in enumerate(chart.colors):
            d0, d1, d2, *rest = map(sub, ck, cj)
            for (x, y, z), c in _pair_terms(cpp.parts[j].boxes, cpp.parts[k].boxes).items():
                if c:
                    key = (
                        x * a10 + y * a20 + z * a30 + d0,
                        x * a11 + y * a21 + z * a31 + d1,
                        x * a12 + y * a22 + z * a32 + d2,
                        *rest,
                    )
                    terms[key] = terms.get(key, 0) + c
    constant = terms.get((0,) * (3 + r), 0)
    if constant != 0:
        raise NonzeroFixedPartError(f"constant term {constant} in virtual character")
    return _raw(3 + r, {e: c for e, c in terms.items() if c})


def euler_inverse(char: LaurentPoly, params: EquivParams) -> Fraction:
    """Inverse equivariant Euler class of a virtual character.

    Moving monomials with positive coefficient contribute their weight form to
    the denominator, negative ones to the numerator.  A zero weight form means
    the parameters are inadmissible for this character.
    """
    if char.constant_term != 0:
        raise NonzeroFixedPartError("character has a fixed part; Euler class undefined")
    if char.nvars != params.nvars:
        raise ValueError(
            f"a character in {char.nvars} variables does not match rank {params.rank} parameters"
        )
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


@lru_cache(maxsize=None)
def chart_contribution(chart: ChartWeights, rank: int, n: int, params: EquivParams) -> Fraction:
    """Sum of inverse Euler classes over all colored plane partitions of size n."""
    if rank != chart.rank:
        raise ValueError("rank does not match chart data")
    if params.rank != rank:
        raise ValueError("parameter rank does not match chart rank")
    total = Fraction(0)
    for cpp in enum_colored(n, rank):
        total += euler_inverse(vertex_character(cpp, chart), params)
    return total
