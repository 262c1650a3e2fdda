"""Sparse integer Laurent polynomials, the tests' independent reference.

A monomial is an exponent tuple of length nvars; a polynomial is a sparse map
from exponent tuples to nonzero integer coefficients.  The tests build the
three-term virtual character with these products and compare the engine's
chart characters against it; nothing in the package uses this module.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Tuple

Exponents = Tuple[int, ...]


class LaurentPoly:
    """Immutable sparse Laurent polynomial with integer coefficients."""

    __slots__ = ("nvars", "_terms", "_hash")

    def __init__(self, nvars: int, terms: Mapping[Exponents, int] | Iterable[tuple[Exponents, int]] = ()):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Exponents, int] = {}
        for exps, coeff in items:
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError(f"exponent tuple {exps} does not have {nvars} entries")
            if not isinstance(coeff, int):
                raise TypeError("coefficients must be integers")
            if coeff:
                new = acc.get(exps, 0) + coeff
                if new:
                    acc[exps] = new
                else:
                    acc.pop(exps, None)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", acc)
        object.__setattr__(self, "_hash", None)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPoly":
        return cls(nvars)

    @classmethod
    def monomial(cls, exps: Iterable[int], coeff: int = 1) -> "LaurentPoly":
        exps = tuple(exps)
        return cls(len(exps), {exps: coeff})

    # -- inspection ----------------------------------------------------

    def terms(self) -> tuple[tuple[Exponents, int], ...]:
        """Terms in a fixed (lexicographic) order, for deterministic output."""
        return tuple(sorted(self._terms.items()))

    @property
    def constant_term(self) -> int:
        return self._terms.get((0,) * self.nvars, 0)

    @property
    def num_terms(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- ring operations -----------------------------------------------

    def _check_compatible(self, other: "LaurentPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("polynomials live in different variable sets")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_compatible(other)
        acc = dict(self._terms)
        for exps, coeff in other._terms.items():
            new = acc.get(exps, 0) + coeff
            if new:
                acc[exps] = new
            else:
                acc.pop(exps, None)
        return _raw(self.nvars, acc)

    def __neg__(self) -> "LaurentPoly":
        return _raw(self.nvars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly.zero(self.nvars)
            return _raw(self.nvars, {e: c * other for e, c in self._terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_compatible(other)
        acc: dict[Exponents, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                new = acc.get(key, 0) + c1 * c2
                if new:
                    acc[key] = new
                else:
                    acc.pop(key, None)
        return _raw(self.nvars, acc)

    __rmul__ = __mul__

    def dual(self) -> "LaurentPoly":
        """The bar involution t -> t^-1 on every variable."""
        return _raw(self.nvars, {tuple(-x for x in e): c for e, c in self._terms.items()})

    # -- equality ------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.nvars == other.nvars
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.nvars, frozenset(self._terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(f"{c}*t^{e}" for e, c in self.terms())


def _raw(nvars: int, terms: dict) -> LaurentPoly:
    # Internal fast path: terms is already normalized (no zeros, right arity).
    poly = LaurentPoly.__new__(LaurentPoly)
    object.__setattr__(poly, "nvars", nvars)
    object.__setattr__(poly, "_terms", terms)
    object.__setattr__(poly, "_hash", None)
    return poly
