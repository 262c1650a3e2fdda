"""Plane partitions, colored tuples of them, and partition pairs.

A plane partition of n is a downward-closed set of n boxes in the octant
Z_{>=0}^3.  It is generated here layer by layer: the k-th horizontal slice is
an ordinary Young diagram contained in the slice below it.  Colored variants
are r-tuples of plane partitions; partition pairs (lambda, mu) have mu a
sub-multiset of lambda of length at most r.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Tuple

from .errors import check_rank, check_size, check_vector
from .record import Record

Box = Tuple[int, int, int]
Partition = Tuple[int, ...]


class PlanePartition(Record):
    """A downward-closed finite set of boxes, stored as a sorted tuple."""

    __slots__ = ("boxes",)

    def __init__(self, boxes: tuple[Box, ...]):
        boxes = tuple(sorted(check_vector(box, 3, "box") for box in boxes))
        box_set = frozenset(boxes)
        if len(box_set) != len(boxes):
            raise ValueError("duplicate boxes")
        for (i, j, k) in box_set:
            if min(i, j, k) < 0:
                raise ValueError("boxes must lie in the nonnegative octant")
            for pred in ((i - 1, j, k), (i, j - 1, k), (i, j, k - 1)):
                if min(pred) >= 0 and pred not in box_set:
                    raise ValueError(f"box {(i, j, k)} is missing predecessor {pred}")
        self._set(boxes)

    @classmethod
    def _trusted(cls, boxes) -> "PlanePartition":
        """A plane partition from boxes known to be downward closed; only sorts them."""
        partition = cls.__new__(cls)
        partition._set(tuple(sorted(boxes)))
        return partition

    def __len__(self) -> int:
        return len(self.boxes)

    def __iter__(self) -> Iterator[Box]:
        return iter(self.boxes)


EMPTY_PLANE_PARTITION = PlanePartition(())


class ColoredPlanePartition(Record):
    """An r-tuple of plane partitions, one per color."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[PlanePartition, ...]):
        self._set(parts)

    @property
    def rank(self) -> int:
        return len(self.parts)


def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, largest part first."""
    check_size(n, "n")

    def gen(rest: int, cap: int) -> Iterator[Partition]:
        if rest == 0:
            yield ()
            return
        for part in range(min(cap, rest), 0, -1):
            for tail in gen(rest - part, part):
                yield (part, *tail)

    return tuple(gen(n, n))


def _subdiagrams(shape: Partition) -> Iterator[Partition]:
    """Young diagrams contained in the nonempty shape, including the empty one."""

    def gen(row: int, cap: int) -> Iterator[Partition]:
        if row == len(shape):
            yield ()
            return
        top = min(cap, shape[row])
        for length in range(top, -1, -1):
            if length == 0:
                yield ()
                return
            for tail in gen(row + 1, length):
                yield (length, *tail)

    yield from gen(0, shape[0])


def enum_plane_partitions(n: int) -> tuple[PlanePartition, ...]:
    """All plane partitions of n in a fixed deterministic order."""
    if check_size(n, "n") == 0:
        return (EMPTY_PLANE_PARTITION,)

    results: list[PlanePartition] = []

    def extend(layers: list[Partition], budget: int) -> None:
        if budget == 0:
            boxes = [
                (i, j, k)
                for k, diagram in enumerate(layers)
                for i, row in enumerate(diagram)
                for j in range(row)
            ]
            # each layer lies inside the one below, so the boxes are downward closed
            results.append(PlanePartition._trusted(boxes))
            return
        for nxt in _subdiagrams(layers[-1]):
            size = sum(nxt)
            if 0 < size <= budget:
                layers.append(nxt)
                extend(layers, budget - size)
                layers.pop()

    for first_size in range(n, 0, -1):
        for first in partitions_of(first_size):
            extend([first], n - first_size)

    return tuple(results)


def compositions(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Weak compositions of n into k ordered parts, lexicographically largest first."""
    if k == 0:
        if n == 0:
            yield ()
        return
    if k == 1:
        yield (n,)
        return
    for head in range(n, -1, -1):
        for tail in compositions(n - head, k - 1):
            yield (head, *tail)


# typed: a float size or rank equal to a cached int one must miss, and be refused.
@lru_cache(maxsize=None, typed=True)
def enum_colored(n: int, r: int) -> tuple[ColoredPlanePartition, ...]:
    """All r-tuples of plane partitions with total size n."""
    check_size(n, "size")
    check_rank(r)
    pools: dict[int, tuple[PlanePartition, ...]] = {}  # each size is built once per call
    results = []
    for sizes in compositions(n, r):
        stack: list[tuple[PlanePartition, ...]] = [()]
        for m in sizes:
            if m not in pools:
                pools[m] = enum_plane_partitions(m)
            stack = [(*partial, p) for partial in stack for p in pools[m]]
        results.extend(ColoredPlanePartition(parts) for parts in stack)
    return tuple(results)


class PartitionPair(Record):
    """A partition lambda with a sub-multiset mu of its parts."""

    __slots__ = ("lam", "mu")

    def __init__(self, lam: Partition, mu: Partition):
        if not _is_submultiset(mu, lam):
            raise ValueError(f"{mu} is not a sub-multiset of {lam}")
        self._set(lam, mu)


def _is_submultiset(mu: Partition, lam: Partition) -> bool:
    available = list(lam)
    for part in mu:
        if part in available:
            available.remove(part)
        else:
            return False
    return True


def _submultisets(lam: Partition) -> Iterator[Partition]:
    distinct = sorted(set(lam), reverse=True)
    counts = [lam.count(p) for p in distinct]

    def gen(idx: int) -> Iterator[Partition]:
        if idx == len(distinct):
            yield ()
            return
        for take in range(counts[idx] + 1):
            for tail in gen(idx + 1):
                yield (distinct[idx],) * take + tail

    yield from gen(0)


def enum_partition_pairs(n: int, r: int) -> tuple[PartitionPair, ...]:
    """All pairs (lambda, mu) with |lambda| = n, mu a sub-multiset, len(mu) <= r."""
    check_size(r, "rank")
    pairs = []
    for lam in partitions_of(n):
        for mu in _submultisets(lam):
            if len(mu) <= r:
                pairs.append(PartitionPair(lam, mu))
    return tuple(pairs)
