"""Error taxonomy shared by the whole package, and the input checks.

Every failure mode that the math can produce has its own class so callers
(and the CLI exit-code mapping) can react precisely.  Bad input is a
ValueError, raised where it enters by one of the checks at the end, which
every entry point and constructor calls.  check_vector is the one check of
a lattice vector: tangent and bundle characters, twist vertices, the
twists of split bundles, torus parameters and the boxes of plane partitions
all enter through it.
"""


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

    Virtual dimension zero means the fixed part must vanish; a violation is an
    internal invariant failure, not a sampling accident.
    """


class ParameterDependenceError(QuotDTError):
    """A quantity that must be parameter independent differed between samples."""


class NonIntegralError(QuotDTError):
    """A localization sum that must be an integer came out non-integral."""


class SingularBasisMatrixError(QuotDTError):
    """The cobordism basis matrix was singular over the rationals."""


def check_int(value, what: str) -> int:
    """value if it is an int and not a bool; otherwise a ValueError that names it."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} {value!r} is not an integer")
    return value


def check_rank(rank) -> int:
    """rank if it is an int of at least 1; otherwise a ValueError."""
    if check_int(rank, "rank") < 1:
        raise ValueError("rank must be at least 1")
    return rank


def check_size(value, what: str) -> int:
    """value if it is an int of at least 0, such as a size or a series order."""
    if check_int(value, what) < 0:
        raise ValueError(f"{what} must be nonnegative")
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

    A twist is an int, read as one degree, or a tuple or list of degrees,
    one per polytope factor or ring generator of owner; each is checked as
    a vector in Z^entries named `<owner> twist`.
    """
    out = tuple(
        check_vector(t if isinstance(t, (tuple, list)) else (t,), entries, f"{owner} twist")
        for t in twists
    )
    if not out:
        raise ValueError("at least one summand is required")
    return out
