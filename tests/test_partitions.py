"""Enumeration tests with a brute-force oracle for plane partitions.

The oracle grows downward-closed box sets one box at a time, which is
independent of the layered generation used by the package.
"""

import hashlib
import re
from fractions import Fraction

import pytest

from quotdt.partitions import (
    EMPTY_PLANE_PARTITION,
    ColoredPlanePartition,
    PartitionPair,
    PlanePartition,
    compositions,
    enum_colored,
    enum_partition_pairs,
    enum_plane_partitions,
    partitions_of,
)
from quotdt.series import macmahon


def brute_plane_partitions(n: int) -> set[frozenset]:
    if n == 0:
        return {frozenset()}
    out = set()
    for pp in brute_plane_partitions(n - 1):
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    box = (i, j, k)
                    if box in pp:
                        continue
                    preds = [(i - 1, j, k), (i, j - 1, k), (i, j, k - 1)]
                    if all(min(p) < 0 or p in pp for p in preds):
                        out.add(pp | {box})
    return out


def test_enum_matches_brute_force():
    for n in range(6):
        ours = {frozenset(pp.boxes) for pp in enum_plane_partitions(n)}
        assert ours == brute_plane_partitions(n)
        assert len(enum_plane_partitions(n)) == len(ours)  # no duplicates


def test_counts_match_macmahon():
    coeffs = macmahon(7).integer_coeffs()
    assert coeffs == (1, 1, 3, 6, 13, 24, 48, 86)
    for n in range(8):
        assert len(enum_plane_partitions(n)) == coeffs[n]


def test_enumerated_partitions_pass_the_validating_constructor():
    # enumeration builds its partitions without the checks; each must equal
    # the one the public constructor validates and sorts
    for n in range(9):
        for pp in enum_plane_partitions(n):
            checked = PlanePartition(pp.boxes)
            assert pp == checked and hash(pp) == hash(checked)
            assert pp.boxes == checked.boxes == tuple(sorted(pp.boxes))


def test_plane_partition_validation():
    PlanePartition(((0, 0, 0), (1, 0, 0)))
    with pytest.raises(ValueError):
        PlanePartition(((1, 0, 0),))  # missing (0,0,0)
    with pytest.raises(ValueError):
        PlanePartition(((0, 0, -1),))
    with pytest.raises(ValueError):
        PlanePartition(((0, 0, 0), (0, 0, 0)))
    assert len(EMPTY_PLANE_PARTITION) == 0


def test_plane_partition_boxes_lie_in_z3():
    # each box is checked before the octant and predecessor checks; these
    # were once accepted, and (1.0, 0, 0) then failed in chart_terms with a
    # TypeError
    for boxes, bad in [(((0.5, 0, 0),), (0.5, 0, 0)),
                       (((1.0, 0, 0), (0, 0, 0)), (1.0, 0, 0)),
                       (((0, 0, 0), (True, 0, 0)), (True, 0, 0)),
                       (((0, 0, 0), (0, 0)), (0, 0)),
                       ((7,), 7)]:
        with pytest.raises(ValueError, match=f"^box {re.escape(repr(bad))} is not a vector in Z\\^3$"):
            PlanePartition(boxes)
    # lists are read as tuples
    assert PlanePartition([[1, 0, 0], [0, 0, 0]]) == PlanePartition(((0, 0, 0), (1, 0, 0)))


def test_colored_partition_parts_are_plane_partitions():
    # () and (1, 2) were once accepted, and ('x',) then failed in
    # vertex_character with an AttributeError
    for parts in ((), [], ("x",), (1, 2), (EMPTY_PLANE_PARTITION, None), EMPTY_PLANE_PARTITION):
        with pytest.raises(ValueError, match=f"^parts {re.escape(repr(parts))} is not a nonempty"):
            ColoredPlanePartition(parts)
    # a list is stored as a tuple
    cpp = ColoredPlanePartition([EMPTY_PLANE_PARTITION])
    assert cpp.parts == (EMPTY_PLANE_PARTITION,) and cpp == ColoredPlanePartition((EMPTY_PLANE_PARTITION,))


def test_partitions_of():
    assert partitions_of(5) == (
        (5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1),
    )
    assert partitions_of(0) == ((),)


def _digest(items) -> str:
    return hashlib.sha256(repr(tuple(items)).encode()).hexdigest()


def _colored(n: int, r: int):
    return (tuple(part.boxes for part in cpp.parts) for cpp in enum_colored(n, r))


# The order reaches users as the row order of vertex tables and as the
# partition a ZeroWeightError names, so each enumeration is pinned tuple for
# tuple: the sha256 of the repr of its items, sizes ascending.
@pytest.mark.parametrize("items, want", [
    (lambda: (pp.boxes for n in range(9) for pp in enum_plane_partitions(n)),
     "40742946d868931f75dd70c2ddc27d1f2fbe27c01d5ce12f65241f4175463465"),
    (lambda: (parts for n in range(6) for parts in _colored(n, 2)),
     "a8b1fe80da90df59226a0f5352d6c4ce4a1032252634f33b3a66e0b0a21bc2e0"),
    (lambda: (parts for n in range(4) for parts in _colored(n, 3)),
     "243f05b0203b1e3971b466466c073be7c58e52aa180570a0836cf9330381065d"),
    (lambda: (partitions_of(n) for n in range(11)),
     "20c424100c6df2afadb08ffc98eda460728d209cfc8d7258fe2d05d97e016130"),
    (lambda: ((p.lam, p.mu)
              for n in range(7) for r in range(5) for p in enum_partition_pairs(n, r)),
     "78702e256db9262f1ae4eb90fdad8d22b0f8d1df38e8c24f6c497db66805d481"),
    (lambda: (c for n in range(9) for k in range(6) for c in compositions(n, k)),
     "8dbd283f61662e9939e140d132a068aa2733b960e3ce12af9be7b26f2d9ac4c4"),
], ids=["plane-n8", "rank2-n5", "rank3-n3", "partitions-n10", "pairs-n6-r4",
        "compositions-n8-k5"])
def test_enumeration_order_is_pinned(items, want):
    assert _digest(items()) == want


def test_compositions():
    assert tuple(compositions(3, 2)) == ((3, 0), (2, 1), (1, 2), (0, 3))
    assert tuple(compositions(0, 3)) == ((0, 0, 0),)
    assert tuple(compositions(2, 1)) == ((2,),)
    assert len(tuple(compositions(4, 3))) == 15  # C(6,2)
    assert tuple(compositions(2, 0)) == ()
    # the successor loop needs no stack: a thousand parts once hit the recursion limit
    assert tuple(compositions(0, 1000)) == ((0,) * 1000,)
    assert next(compositions(1, 1000)) == (1,) + (0,) * 999
    assert len(tuple(compositions(1, 1000))) == 1000


@pytest.mark.parametrize("n, k, message", [
    (-1, 2, "size -1 must be nonnegative"),
    (2.5, 2, "size 2.5 is not an integer"),
    (True, 2, "size True is not an integer"),
    (2, -1, "number of parts -1 must be nonnegative"),
    (2, 2.0, "number of parts 2.0 is not an integer"),
])
def test_compositions_refuse_a_bad_size_or_count(n, k, message):
    # (-1, 2) and (2.5, 2) never stopped, and (2, -1) gave (2,); the
    # generator checks on its first step
    with pytest.raises(ValueError) as got:
        next(compositions(n, k))
    assert str(got.value) == message


def test_enum_colored_counts():
    # r-tuples with total n: convolution of plane partition counts
    for r in (1, 2, 3):
        for n in range(5):
            want = sum(
                _prod(len(enum_plane_partitions(m)) for m in sizes)
                for sizes in compositions(n, r)
            )
            assert len(enum_colored(n, r)) == want
    assert len(enum_colored(2, 2)) == 7
    assert len(enum_colored(0, 3)) == 1


def _prod(xs):
    out = 1
    for x in xs:
        out *= x
    return out


def test_colored_total_size():
    for cpp in enum_colored(3, 2):
        assert cpp.rank == 2
        assert sum(map(len, cpp.parts)) == 3
    with pytest.raises(ValueError):
        enum_colored(1, 0)


def test_enum_colored_refuses_non_integer_size_and_rank():
    # a float rank used to recurse until RecursionError, and a float size
    # equal to a cached int one must miss the cache and be refused too
    assert len(enum_colored(2, 1)) == 3
    cases = ((2, 1.5, "rank 1.5"), (2, Fraction(1), "rank Fraction(1, 1)"),
             (2.0, 1, "size 2.0"), (1.5, 1, "size 1.5"))
    for n, r, named in cases:
        with pytest.raises(ValueError, match=rf"^{re.escape(named)} is not an integer$"):
            enum_colored(n, r)


def test_partition_pair_validation():
    PartitionPair((2, 1), (1,))
    with pytest.raises(ValueError):
        PartitionPair((2, 1), (3,))
    with pytest.raises(ValueError):
        PartitionPair((2,), (2, 2))


def test_partition_pairs_of_size_three():
    assert [len(enum_partition_pairs(3, r)) for r in (1, 2, 3)] == [7, 9, 10]
    # the r-independent tail: once r >= n the list is saturated
    assert len(enum_partition_pairs(3, 4)) == 10
    expected_r1 = (
        PartitionPair((3,), ()),
        PartitionPair((3,), (3,)),
        PartitionPair((2, 1), ()),
        PartitionPair((2, 1), (1,)),
        PartitionPair((2, 1), (2,)),
        PartitionPair((1, 1, 1), ()),
        PartitionPair((1, 1, 1), (1,)),
    )
    assert enum_partition_pairs(3, 1) == expected_r1


def test_partition_pairs_small():
    assert enum_partition_pairs(0, 2) == (PartitionPair((), ()),)
    got = enum_partition_pairs(2, 2)
    assert len(got) == 5
    assert PartitionPair((1, 1), (1, 1)) in got
