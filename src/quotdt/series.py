"""Truncated power series with exact rational coefficients.

A Series of order N stores coefficients of q^0 .. q^N as Fractions.  All
operations truncate at the common order; nothing is ever floated.

The closed forms each take one O(N^2) pass:

- MacMahon's series M(q) = prod_k (1 - q^k)^(-k) has q M'/M = sum_k s2(k) q^k
  with s2(k) the sum of the squares of the divisors of k, so
  n a_n = sum_{k=1..n} s2(k) a_{n-k}.  s2 is sieved in ints and each
  division by n is checked exact.
- Any integer power b = a^p, negative p included, follows from
  a b' = p a' b (J.C.P. Miller's recurrence):
  b_0 = a_0^p,  n a_0 b_n = sum_{k=1..n} ((p+1)k - n) a_k b_{n-k}.
  At p = -1 this is the inverse recurrence.  A series with integer
  coefficients and a_0 = +-1 has integer powers, so it runs in ints with
  checked divisions; any other runs in Fractions.
- A rational power p of a series with a_0 = 1 follows from the same
  recurrence in Fractions, with b_0 = 1 set exactly.

Each makes about N^2/2 products, whatever the power.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .errors import NonIntegralError, check_int, check_rank, check_size


class Series:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int]):
        cs = tuple(map(_exact, coeffs))
        if not cs:
            raise ValueError("a series needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", cs)

    # -- constructors ----------------------------------------------------

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls((1,) + (0,) * order)

    # -- inspection -------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def integer_coeffs(self) -> tuple[int, ...]:
        """Coefficients as ints; raises if any is non-integral."""
        out = []
        for n, c in enumerate(self.coeffs):
            if c.denominator != 1:
                raise NonIntegralError(f"coefficient of q^{n} is {c}")
            out.append(c.numerator)
        return tuple(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, Series) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return "Series" + repr(tuple(str(c) for c in self.coeffs))

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Series") -> None:
        if not isinstance(other, Series):
            raise TypeError(f"a Series cannot be combined with {type(other).__name__}")
        if self.order != other.order:
            raise ValueError("series have different truncation orders")

    def __mul__(self, other: "Series") -> "Series":
        self._check(other)
        n = self.order
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return Series(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int | Fraction) -> "Series":
        if isinstance(exponent, Fraction) and self.coeffs[0] == 1:
            return Series(_power(self.coeffs, exponent))
        if not isinstance(exponent, int):
            raise TypeError("series powers must be integers, or Fractions when a_0 = 1")
        order = self.order
        if exponent == 0:
            return Series.one(order)
        # a = q^v * a' with a'_0 != 0; a^p = q^(v p) * a'^p
        v = next((n for n, c in enumerate(self.coeffs) if c), order + 1)
        if not v:
            return Series(_power(self.coeffs, exponent))
        if exponent < 0:
            raise ZeroDivisionError("series with zero constant term has no negative power")
        shift = v * exponent
        if shift > order:
            return Series((0,) * (order + 1))
        head = self.coeffs[v : v + order - shift + 1]
        return Series((0,) * shift + _power(head, exponent))

    def substitute_signed(self, sign: int) -> "Series":
        """The substitution q -> sign * q for sign in {+1, -1}."""
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if sign == 1:
            return self
        return Series(c if n % 2 == 0 else -c for n, c in enumerate(self.coeffs))


def _exact(c) -> Fraction:
    """A coefficient as a Fraction; TypeError for a float, which is not exact."""
    if isinstance(c, float):
        raise TypeError(f"series coefficient {c!r} is a float; use int or Fraction")
    return Fraction(c)


def _divide_exact(num: int, den: int, n: int) -> int:
    quotient, remainder = divmod(num, den)
    if remainder:
        raise NonIntegralError(f"coefficient of q^{n} is {num}/{den}, not an integer")
    return quotient


def _power(a: tuple[Fraction, ...], p: int | Fraction) -> tuple:
    """Coefficients of a^p through the order of a, by Miller's recurrence.

    a[0] != 0 for an int p, and a[0] = 1 for a Fraction p.
    """
    # Powers of MacMahon's series take this branch: int products skip the gcd
    # that every Fraction product pays, about 20x less work at order 60.
    if isinstance(p, int) and a[0] in (1, -1) and all(c.denominator == 1 for c in a):
        a = tuple(c.numerator for c in a)
        b = [a[0] ** abs(p)]  # a_0 = 1 / a_0
        divide = _divide_exact
    else:
        # Fraction ** Fraction is a float, so 1 ** p is written out
        b = [a[0] ** p if isinstance(p, int) else Fraction(1)]
        divide = lambda num, den, _n: num / den
    a0 = a[0]
    for n in range(1, len(a)):
        total = sum(((p + 1) * k - n) * a[k] * b[n - k] for k in range(1, n + 1))
        b.append(divide(total, n * a0, n))
    return tuple(b)


def series_pow(s: Series, exponent: int | Fraction) -> Series:
    return s ** exponent


def _divisor_square_sums(order: int) -> list[int]:
    """s2[k] = sum of d^2 over the divisors d of k, for k <= order (s2[0] = 0)."""
    s2 = [0] * (order + 1)
    for d in range(1, order + 1):
        for k in range(d, order + 1, d):
            s2[k] += d * d
    return s2


def macmahon(order: int) -> Series:
    """MacMahon's generating series prod_{k>=1} (1 - q^k)^(-k), truncated."""
    s2 = _divisor_square_sums(check_size(order, "order"))
    a = [1]
    for n in range(1, order + 1):
        total = sum(s2[k] * a[n - k] for k in range(1, n + 1))
        a.append(_divide_exact(total, n, n))
    return Series(a)


def dt_closed_formula(rank: int, c3: int, order: int) -> Series:
    """The closed invariant series M((-1)^rank q)^(rank * c3)."""
    check_rank(rank)
    check_int(c3, "c3")
    m = macmahon(order).substitute_signed(-1 if rank % 2 else 1)
    return m ** (rank * c3)
