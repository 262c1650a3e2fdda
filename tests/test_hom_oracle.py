"""The engine's formal characters against the Hom-space oracle (tests/hom_oracle.py).

The oracle derives T = H - dual(H) / kappa from the tangent space
H = sum_{j,k} Hom(I_j, O/I_k) w_j^-1 w_k of the Quot scheme, not from the
vertex formula, so it sees a character error that leaves every sum
unchanged, such as a block U_jk filed under the color pair (k, j).  It is
first checked on tangent dimensions of Hilbert schemes of points of A^3.
"""

import pytest
from hypothesis import given, settings, strategies as st

from quotdt.partitions import ColoredPlanePartition, PlanePartition, enum_colored
from quotdt.vertex import _formal_character, _unpack

from hom_oracle import hom_character, minimal_generators, virtual_character

CORNER = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))


def _tangent_dimension(boxes) -> int:
    return sum(hom_character(boxes, boxes).values())


def test_oracle_gives_hilbert_scheme_tangent_dimensions():
    # Hilb^n(A^3) is smooth of dimension 3n for n <= 3
    for n in range(4):
        for pp in enum_colored(n, 1):
            assert _tangent_dimension(pp.parts[0].boxes) == 3 * n
    # the ideal (x, y, z)^2 is six quadrics; the linear syzygies send none of
    # them to 1, and each to any of x, y and z: 6 * 3 dimensions
    assert len(minimal_generators(CORNER)) == 6
    assert _tangent_dimension(CORNER) == 18
    # Hom(O, O/I) is O/I, and nothing maps onto O/O = 0
    assert hom_character((), CORNER) == dict.fromkeys(CORNER, 1)
    assert hom_character(CORNER, ()) == {}


def _oracle(cpp: ColoredPlanePartition) -> dict:
    """The oracle's character keyed as _unpack reads a code: (pair, x, y, z)."""
    r = cpp.rank
    out = {}
    for (j, k, chi), c in virtual_character([part.boxes for part in cpp.parts]).items():
        key = (0 if j == k else 1 + j * r + k, *chi)
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def _engine(cpp: ColoredPlanePartition) -> dict:
    return {_unpack(code): c for code, c in _formal_character(cpp)[0].items()}


@pytest.mark.parametrize("rank, nmax", [(1, 7), (2, 5), (3, 3)])
def test_formal_characters_match_the_hom_oracle(rank, nmax):
    for n in range(nmax + 1):
        for cpp in enum_colored(n, rank):
            assert _engine(cpp) == _oracle(cpp), cpp


@st.composite
def colored_partitions(draw):
    """A colored plane partition of size <= 5, grown one addable box at a time."""
    rank = draw(st.integers(1, 3))
    parts = [set() for _ in range(rank)]
    for _ in range(draw(st.integers(0, 5))):
        part = parts[draw(st.integers(0, rank - 1))]
        # the addable boxes of a plane partition are its ideal's generators
        part.add(draw(st.sampled_from(minimal_generators(part))))
    return ColoredPlanePartition(tuple(PlanePartition(tuple(sorted(p))) for p in parts))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cpp=colored_partitions())
def test_random_formal_characters_match_the_hom_oracle(cpp):
    assert _engine(cpp) == _oracle(cpp)
