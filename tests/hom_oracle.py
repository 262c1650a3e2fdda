"""Hom spaces between monomial ideals, the tests' deformation-theory reference.

At a torus-fixed point sum_j w_j O/I_j of the Quot scheme of A^3, the
Zariski tangent space is

    H = Hom(K, Q) = sum_{j,k} Hom(I_j, O/I_k) w_j^-1 w_k,

and the Quot scheme of A^3 is a critical locus (Fasola-Monavari-Ricolfi,
arXiv:2003.13565; for rank 1, MNOP1), so the virtual tangent character is
T = H - dual(H) / kappa, kappa = t1 t2 t3.  A monomial x^b of O/I has
character t^b, so a homomorphism that sends x^g to x^(g + chi) has
character t^chi.

Hom_chi(I_j, O/I_k) is computed weight by weight over the minimal
generators g of I_j.  A homomorphism of weight chi sends x^g to
c_g x^(g + chi); g is dead, c_g = 0, unless g + chi is a box of pi_k.  The
syzygies of a monomial ideal are generated by the pairwise lcm ones
(Taylor's resolution), and the one of g and h reads c_g = c_h when
lcm(g, h) + chi is a box of pi_k.  A union-find glues generators along
those syzygies, and the dimension is the number of components with no
dead generator.  Nothing here reads the vertex formula, and nothing in
the package uses this module.
"""

from __future__ import annotations

from itertools import combinations

Box = tuple[int, int, int]
_UNITS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _shift(a: Box, b: Box) -> Box:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def minimal_generators(boxes) -> list[Box]:
    """The exponents of the minimal generators of the monomial ideal of a plane partition.

    They are also its addable boxes: the b outside it with b - e_i inside it
    for every i with b_i > 0.
    """
    boxes = set(boxes)
    if not boxes:
        return [(0, 0, 0)]
    candidates = {_shift(b, e) for b in boxes for e in _UNITS} - boxes
    return sorted(
        b for b in candidates
        if all(b[i] == 0 or b[:i] + (b[i] - 1,) + b[i + 1:] in boxes for i in range(3))
    )


def hom_dimension(gens: list[Box], target: set, chi: Box) -> int:
    """dim Hom_chi(I, O/I') for the minimal generators of I and the boxes of I'."""
    parent = list(range(len(gens)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in combinations(range(len(gens)), 2):
        lcm = tuple(map(max, gens[a], gens[b]))
        if _shift(lcm, chi) in target:
            parent[find(a)] = find(b)
    dead = {find(i) for i, g in enumerate(gens) if _shift(g, chi) not in target}
    return len({find(i) for i in range(len(gens))} - dead)


def hom_character(source, target) -> dict[Box, int]:
    """Hom(I_source, O/I_target) as {weight chi: dimension}, for two plane partitions' boxes."""
    gens = minimal_generators(source)
    target = set(target)
    weights = {tuple(b - g for b, g in zip(box, gen)) for box in target for gen in gens}
    out = {}
    for chi in sorted(weights):
        dim = hom_dimension(gens, target, chi)
        if dim:
            out[chi] = dim
    return out


def virtual_character(parts) -> dict[tuple[int, int, Box], int]:
    """T = H - dual(H) / kappa of a colored fixed point, keyed (j, k, chi).

    parts holds the boxes of each color; the term (j, k, chi) stands for
    w_j^-1 w_k t^chi.  dual(w_j^-1 w_k t^chi) / kappa is w_k^-1 w_j
    t^(-chi - (1, 1, 1)), so the dual part of the pair (j, k) lands on (k, j).
    """
    out: dict[tuple[int, int, Box], int] = {}
    for j, source in enumerate(parts):
        for k, target in enumerate(parts):
            for chi, dim in hom_character(source, target).items():
                key = (j, k, chi)
                out[key] = out.get(key, 0) + dim
                key = (k, j, tuple(-x - 1 for x in chi))
                out[key] = out.get(key, 0) - dim
    return {key: c for key, c in out.items() if c}
