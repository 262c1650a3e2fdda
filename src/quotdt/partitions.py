"""Plane partitions, colored tuples of them, and partition pairs.

A plane partition of n is a downward-closed set of n boxes in the octant
Z_{>=0}^3.  It is generated here layer by layer: the k-th horizontal slice is
an ordinary Young diagram contained in the slice below it.  Colored variants
are r-tuples of plane partitions; partition pairs (lambda, mu) have mu a
sub-multiset of lambda of length at most r.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import product
from typing import Iterator, Tuple

from .errors import Record, check_rank, check_size, check_vector

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
        if not (isinstance(parts, (tuple, list)) and parts
                and all(isinstance(part, PlanePartition) for part in parts)):
            raise ValueError(f"parts {parts!r} is not a nonempty tuple of plane partitions")
        self._set(tuple(parts))

    @property
    def rank(self) -> int:
        return len(self.parts)


def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, largest part first."""
    if check_size(n, "n") == 0:
        return ((),)
    return tuple(d for d in _subdiagrams((n,) * n, n) if sum(d) == n)


def _subdiagrams(shape: Partition, budget: int) -> Iterator[Partition]:
    """The nonempty Young diagrams inside shape with at most budget boxes, largest first.

    Largest first is descending tuple order: (2, 1) before (2,) before (1, 1).
    A row never outgrows the row above it, the shape or the boxes left, so
    no diagram that does not fit is generated.
    """

    def gen(row: int, cap: int, left: int) -> Iterator[Partition]:
        if row < len(shape):
            for length in range(min(cap, shape[row], left), 0, -1):
                for tail in gen(row + 1, length, left - length):
                    yield (length, *tail)
                yield (length,)

    return gen(0, budget, budget)


def enum_plane_partitions(n: int) -> tuple[PlanePartition, ...]:
    """All plane partitions of n in a fixed deterministic order.

    The bottom layers come by size, largest first, and each layer above is
    one of the diagrams inside the one below that fit the boxes left.
    """
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
        for layer in _subdiagrams(layers[-1], budget):
            extend([*layers, layer], budget - sum(layer))

    # the sort is stable, so each size keeps the generator's order
    for bottom in sorted(_subdiagrams((n,) * n, n), key=sum, reverse=True):
        extend([bottom], n - sum(bottom))
    return tuple(results)


def compositions(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Weak compositions of n into k ordered parts, lexicographically largest first.

    Each follows the one before: the rightmost nonzero part before the last
    gives one unit to the part after it, and that part takes the tail's sum,
    which is the last part, since the parts between are zero.
    """
    check_size(n, "size")
    check_size(k, "number of parts")
    if k == 0:
        if n == 0:
            yield ()
        return
    parts = [n] + [0] * (k - 1)
    while True:
        yield tuple(parts)
        i = next((i for i in range(k - 2, -1, -1) if parts[i]), -1)
        if i < 0:
            return
        last = parts[-1]
        parts[-1] = 0
        parts[i] -= 1
        parts[i + 1] = last + 1


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
        if not Counter(mu) <= Counter(lam):
            raise ValueError(f"{mu} is not a sub-multiset of {lam}")
        self._set(lam, mu)


def _submultisets(lam: Partition) -> Iterator[Partition]:
    """The sub-multisets of lam, largest part first; the largest part's count varies slowest."""
    counts = Counter(lam)
    distinct = sorted(counts, reverse=True)
    for takes in product(*(range(counts[part] + 1) for part in distinct)):
        yield tuple(part for part, take in zip(distinct, takes) for _ in range(take))


def enum_partition_pairs(n: int, r: int) -> tuple[PartitionPair, ...]:
    """All pairs (lambda, mu) with |lambda| = n, mu a sub-multiset, len(mu) <= r."""
    check_size(r, "rank")
    pairs = []
    for lam in partitions_of(n):
        for mu in _submultisets(lam):
            if len(mu) <= r:
                pairs.append(PartitionPair(lam, mu))
    return tuple(pairs)
