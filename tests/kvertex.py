"""The K-theoretic vertex identity, the tests' closed-form reference for one chart.

Write [m] = m^(1/2) - m^(-1/2) and kappa = t1 t2 t3.  For a chart with
tangent weights t1, t2, t3 and r colors, the sum over colored plane
partitions of the monomials m of their virtual tangent characters, with
coefficients c_m, is

    1 + sum_n q^n sum_{|pi| = n} prod_m [m]^(-c_m) = 1 / Z((-1)^r q),

proved by Nekrasov-Okounkov for r = 1 ("Membranes and sheaves",
arXiv:1404.2323) and by Fasola-Monavari-Ricolfi for rank r
(arXiv:2003.13565), where it does not depend on the color weights.  Z is
the plethystic exponential Exp(F_r) in q and t of

    F_r(q; t) = [t1 t2][t1 t3][t2 t3] / ([t1][t2][t3]) * [kappa^r] / [kappa]
                * q / ((1 - kappa^(r/2) q) (1 - kappa^(-r/2) q)),

and the sign goes into q after it.  Everything is evaluated at t_i = X_i^2
and u_j = Y_j^2 for rational X and Y, so every half power is rational and
both sides are exact Fractions: m^(1/2) is the product of the bases to the
exponents of m.  Exp(F) = exp(l) with l = sum_k F(q^k; X^k) / k, and its
coefficients follow from n z_n = sum_k k l_k z_(n-k).  Nothing here reads
the engine, and nothing in the package uses this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod


def bracket(half: Fraction) -> Fraction:
    """[m] = m^(1/2) - m^(-1/2), given m^(1/2)."""
    return half - 1 / half


def vertex_term(character, base) -> Fraction:
    """prod_m [m]^(-c_m) for a character {exponent tuple of m: c_m}.

    m^(1/2) is the product of base[i] ** e_i over the exponents e of m.
    """
    return prod(bracket(prod(b ** e for b, e in zip(base, exps))) ** -c
                for exps, c in character.items())


def vertex_series(characters_by_size, base) -> list[Fraction]:
    """1, then for each n >= 1 the sum of vertex_term over the characters of size n."""
    return [Fraction(1)] + [sum(vertex_term(ch, base) for ch in chars)
                            for chars in characters_by_size]


def _f_coefficients(x, rank: int, order: int) -> list[Fraction]:
    """F_r(q; t) at t_i = x_i^2, coefficients of q^0 .. q^order."""
    x1, x2, x3 = x
    k = x1 * x2 * x3  # kappa^(1/2)
    scale = (bracket(x1 * x2) * bracket(x1 * x3) * bracket(x2 * x3)
             / (bracket(x1) * bracket(x2) * bracket(x3)) * bracket(k ** rank) / bracket(k))
    a = k ** rank  # kappa^(r/2)
    # q / ((1 - a q)(1 - q / a)) = sum_n q^n sum_{i < n} a^i a^-(n - 1 - i)
    return [Fraction(0)] + [scale * sum(a ** (2 * i - n + 1) for i in range(n))
                            for n in range(1, order + 1)]


def closed_series(x, rank: int, order: int, sign: int | None = None,
                  invert: bool = True) -> list[Fraction]:
    """1 / Z((-1)^r q) through q^order, at the chart's tangent half weights x.

    sign replaces (-1)^r and invert=False drops the inversion; the tests use
    both to see that the identity does not hold by accident.
    """
    sign = (-1) ** rank if sign is None else sign
    log = [Fraction(0)] * (order + 1)
    for k in range(1, order + 1):
        f = _f_coefficients(tuple(xi ** k for xi in x), rank, order // k)
        for m in range(1, order // k + 1):
            log[k * m] += f[m] / k
    z = [Fraction(1)]
    for n in range(1, order + 1):
        z.append(sum(k * log[k] * z[n - k] for k in range(1, n + 1)) / n)
    z = [c * sign ** n for n, c in enumerate(z)]
    if not invert:
        return z
    inverse = [Fraction(1)]
    for n in range(1, order + 1):
        inverse.append(-sum(z[k] * inverse[n - k] for k in range(1, n + 1)))
    return inverse
