"""Error taxonomy shared by the whole package, the input checks, and Record.

Every failure mode that the math can produce has its own class so callers
(and the CLI exit-code mapping) can react precisely.  Bad input is a
ValueError, raised where it enters by one of the checks that follow, which
every entry point and constructor calls.  check_vector is the one check of
a lattice vector: tangent and bundle characters, twist vertices, the
twists of split bundles, torus parameters and the boxes of plane partitions
all enter through it.

Record, at the end, is the immutable slotted base of the package's value
types, series included.
"""

from fractions import Fraction


class QuotDTError(Exception):
    """Base class for all package errors."""


class ZeroWeightError(QuotDTError):
    """A character monomial evaluated to weight zero at the sampled parameters.

    The parameter point is inadmissible; callers are expected to resample.
    point is its position among the points evaluated together, 0 for one.
    """

    def __init__(self, message: str, point: int = 0):
        super().__init__(message)
        self.point = point


class NonzeroFixedPartError(QuotDTError):
    """A virtual character has a nonzero constant term.

    It guards the fixed part, not the rank: a constant term would weigh zero
    at every parameter point, so the fixed part must vanish.  The rank T(1)
    is VirtualDimensionError's check.  A violation is an internal invariant
    failure, not a sampling accident.
    """


class VirtualDimensionError(QuotDTError):
    """A virtual character has nonzero rank T(1), its virtual dimension.

    The obstruction theory has virtual dimension zero, so every fixed point's
    character has as many positive as negative terms; chart_sums relies on it
    to share the sums of antipodal charts.  A violation is an internal
    invariant failure.
    """


class ParameterDependenceError(QuotDTError):
    """A quantity that must be parameter independent differed between samples."""


class NonIntegralError(QuotDTError):
    """A localization sum that must be an integer came out non-integral."""


class SingularBasisMatrixError(QuotDTError):
    """The cobordism basis matrix was singular over the rationals."""


def is_exact(value) -> bool:
    """value is an exact number: an int but not a bool, or a Fraction."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def check_int(value, what: str) -> int:
    """value if it is an int and not a bool; otherwise a ValueError that names it."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} {value!r} is not an integer")
    return value


def check_rank(rank) -> int:
    """rank if it is an int of at least 1; otherwise a ValueError."""
    if check_int(rank, "rank") < 1:
        raise ValueError(f"rank {rank!r} must be at least 1")
    return rank


def check_size(value, what: str) -> int:
    """value if it is an int of at least 0, such as a size or a series order."""
    if check_int(value, what) < 0:
        raise ValueError(f"{what} {value!r} must be nonnegative")
    return value


def check_vector(value, size: int, what: str) -> tuple[int, ...]:
    """value, a tuple or list of `size` ints, as a tuple; otherwise a ValueError naming it."""
    if (
        not isinstance(value, (tuple, list))
        or len(value) != size
        or not all(isinstance(x, int) and not isinstance(x, bool) for x in value)
    ):
        raise ValueError(f"{what} {value!r} is not a vector in Z^{size}")
    return tuple(value)


def read_twists(twists, entries: int, owner: str) -> tuple[tuple[int, ...], ...]:
    """One tuple of integer degrees per summand, `entries` degrees each.

    twists is a tuple or a list with one twist per summand.  A twist is an
    int, read as one degree, or a tuple or list of degrees, one per polytope
    factor or ring generator of owner; each is checked as a vector in
    Z^entries named `<owner> twist`.
    """
    if not isinstance(twists, (tuple, list)):
        raise ValueError(f"{owner} twists {twists!r} are not a tuple or a list")
    out = tuple(
        check_vector(t if isinstance(t, (tuple, list)) else (t,), entries, f"{owner} twist")
        for t in twists
    )
    if not out:
        raise ValueError("at least one summand is required")
    return out


class Record:
    """An immutable slotted record.

    A subclass names its fields in __slots__, in constructor order, and its
    __init__ sets them once through _set, which keeps their values as the key
    that equality, repr and pickling read.  The key's hash is computed on
    first use and stored, so an lru_cache lookup reads one slot.
    """

    __slots__ = ("_key", "_hash")

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_key", values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self._key == other._key if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash(self._key))
            return self._hash

    def __reduce__(self):
        # rebuilt through __init__, which validates; the hash is recomputed
        return self.__class__, self._key

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._key))
        return f"{self.__class__.__qualname__}({fields})"
