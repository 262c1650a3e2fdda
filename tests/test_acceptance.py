"""Acceptance gate: one test per numbered criterion, all values exact.

Every test prints a single CRITERION line (visible with -s or on failure) and
asserts the stated bound.  Criterion 8 carries one extra test that pins the
exponent of P(O + O(1)) over P^2 to a reference value derived by hand, not by
the engine: -18, that is chi_top - 24 chi(O) = 2 * 3 - 24.  An earlier
reference of -20 was the exponent of P^3 itself (chi_top = 4), not of this
P^1 bundle; see README.md.
"""

import hashlib
import json
import time
from fractions import Fraction

from quotdt import chern as C
from quotdt import cli
from quotdt.partitions import compositions, enum_colored, enum_partition_pairs
from quotdt.series import dt_closed_formula, macmahon, series_pow
from quotdt.toric import (
    ToricSpace,
    builtin_space,
    c3_via_localization,
    chart_of,
    count_fixed_points,
    dt_series,
    split_bundle,
    trivial_bundle,
)
from quotdt.vertex import chart_terms, symmetry_defect, vertex_character

from laurent import LaurentPoly

BLOWUP_P3_POINT = (
    ((-1, 0, 0), (-1, 1, 0), (-1, 0, 1)),
    ((0, -1, 0), (1, -1, 0), (0, -1, 1)),
    ((0, 0, -1), (1, 0, -1), (0, 1, -1)),
    ((1, 0, 0), (-1, 1, 0), (-1, 0, 1)),
    ((1, -1, 0), (0, 1, 0), (0, -1, 1)),
    ((1, 0, -1), (0, 1, -1), (0, 0, 1)),
)


def report(number: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_rank_one_p3_series():
    started = time.perf_counter()
    p3 = builtin_space("p3")
    series = dt_series(p3, trivial_bundle(p3), 3).integer_coeffs()
    closed = dt_closed_formula(1, c3_via_localization(p3), 3).integer_coeffs()
    elapsed = time.perf_counter() - started
    ok = series == closed == (1, 20, 150, 400) and elapsed < 60
    report(1, ok, f"dt_series(p3, O, 3) = {series} in {elapsed:.2f}s")


def test_criterion_2_rank_one_p1cubed_series():
    started = time.perf_counter()
    cube = builtin_space("p1cubed")
    series = dt_series(cube, trivial_bundle(cube), 2).integer_coeffs()
    closed = dt_closed_formula(1, -16, 2).integer_coeffs()
    elapsed = time.perf_counter() - started
    ok = series == closed == (1, 16, 88) and elapsed < 120
    report(2, ok, f"dt_series(p1cubed, O, 2) = {series} in {elapsed:.2f}s")


def test_criterion_3_rank_two_twist_independence():
    started = time.perf_counter()
    p3 = builtin_space("p3")
    plain = dt_series(p3, trivial_bundle(p3, 2), 2).integer_coeffs()
    twisted = dt_series(p3, split_bundle(p3, [0, 1]), 2).integer_coeffs()
    closed = dt_closed_formula(2, -20, 2).integer_coeffs()
    elapsed = time.perf_counter() - started
    ok = plain == twisted == closed == (1, -40, 700) and elapsed < 600
    report(3, ok, f"rank-2 series {plain} (twisted {twisted}) in {elapsed:.2f}s")


def test_criterion_4_chern_exponents_match_localization():
    results = {}
    for name, want in (("p3", -20), ("p2xp1", -18), ("p1cubed", -16)):
        via_ring = C.c3_t_omega(C.named_ring(name))
        via_fixed_points = c3_via_localization(builtin_space(name))
        results[name] = (via_ring, via_fixed_points, want)
    ok = all(a == b == want for a, b, want in results.values())
    report(4, ok, f"c3_t_omega ring/localization: {results}")


def test_criterion_5_vertex_symmetry_and_vd_zero():
    checked = 0
    clean = True
    for name in ("p3", "p2xp1", "p1cubed"):
        space = builtin_space(name)
        for rank in (1, 2):
            bundle = trivial_bundle(space, rank)
            seen = set()
            for ci in range(space.num_charts):
                chart = chart_of(space, bundle, ci)
                if chart in seen:
                    continue
                seen.add(chart)
                for n in range(5):
                    for cpp in enum_colored(n, rank):
                        char = vertex_character(cpp, chart)
                        plain = LaurentPoly(3 + rank, chart_terms(char))
                        if plain.constant_term != 0 or symmetry_defect(char):
                            clean = False
                        checked += 1
    report(5, clean and checked > 0, f"{checked} characters, n <= 4, r <= 2")


def test_criterion_6_parameter_independence():
    p3 = builtin_space("p3")
    cube = builtin_space("p1cubed")
    cases = [
        (p3, trivial_bundle(p3), 3),
        (cube, trivial_bundle(cube), 2),
        (p3, trivial_bundle(p3, 2), 2),
        (p3, split_bundle(p3, [0, 1]), 2),
    ]
    ok = True
    for space, bundle, nmax in cases:
        # dt_series raises if the three samples disagree or are non-integral
        three = dt_series(space, bundle, nmax, trials=3)
        two = dt_series(space, bundle, nmax, trials=2)
        ok = ok and three == two and three.integer_coeffs()[0] == 1
    report(6, ok, f"{len(cases)} cases agree across 3 independent samples")


def test_criterion_7_fixed_point_counts():
    ok = True
    for name in ("p3", "p2xp1", "p1cubed"):
        space = builtin_space(name)
        for rank in (1, 2):
            macmahon_counts = series_pow(
                macmahon(4), rank * space.num_charts
            ).integer_coeffs()
            counted = count_fixed_points(space, rank, 4)
            for n in range(5):
                direct = sum(
                    _prod(len(enum_colored(m, rank)) for m in sizes)
                    for sizes in compositions(n, space.num_charts)
                )
                ok = ok and counted[n] == direct == macmahon_counts[n]
    report(7, ok, "counts match direct enumeration and M(q)^(r*charts), n <= 4")


def _prod(xs):
    out = 1
    for x in xs:
        out *= x
    return out


def test_criterion_8_cobordism_suite():
    sizes = [len(enum_partition_pairs(3, r)) for r in (1, 2, 3)]

    invertible = True
    for rank in (1, 2, 3):
        pairs, matrix = C.basis_matrix(rank)
        for i in range(len(pairs)):
            rhs = [Fraction(int(j == i)) for j in range(len(pairs))]
            C.solve_exact(matrix, rhs)

    ring = C.ring_of_projective_product((3,))
    o2 = C.BundleClass(ring, 1, (ring.scale(ring.gen("h1"), 2),))
    vector = C.mixed_chern_vector(ring, o2)
    reconstructs = C.reconstruct(C.decompose(ring, o2), 1) == vector

    dpr = C.dpr_check(*C.quadric_dpr())

    # the exponent of P(O + O(1)) over P^2, two independent ways: its
    # intersection ring, and localization on the isomorphic one-point
    # blow-up of P^3
    via_ring = C.c3_t_omega(C.projective_bundle_ring(1))
    via_blowup = c3_via_localization(ToricSpace("blowup-p3-point", BLOWUP_P3_POINT))

    ok = (
        sizes == [7, 9, 10]
        and invertible
        and reconstructs
        and dpr.passed
        and via_ring == via_blowup
    )
    report(
        8,
        ok,
        f"sizes {sizes}, O(2) reconstructs, quadric dpr passes, "
        f"P(O+O(1)) exponent {via_ring} twice",
    )


def test_criterion_8_stated_pbundle_exponent():
    """Pinned to the reference value -18, derived by hand.

    On a smooth projective 3-fold, integral c3(T x K) = c3 - c1 c2, and
    Riemann-Roch gives c1 c2 = 24 chi(O) = 24.  A P^1 bundle over P^2 has
    c3 = chi_top = 2 * 3 = 6, so the exponent is 6 - 24 = -18.  The same
    value is the fixed-point count of the isomorphic one-point blow-up of
    P^3 (six charts) minus 24.  The reference was once given as -20, which
    would need chi_top = 4: that is the exponent of P^3 itself, not of this
    bundle.
    """
    via_ring = C.c3_t_omega(C.projective_bundle_ring(1))
    via_blowup = c3_via_localization(ToricSpace("blowup-p3-point", BLOWUP_P3_POINT))
    assert via_ring == via_blowup  # the two independent ways agree
    # chi_top of a P^1 bundle over P^2, minus 24 chi(O)
    stated = 2 * 3 - 24
    assert stated == len(BLOWUP_P3_POINT) - 24  # c3 = #fixed points - 24
    report(8, via_ring == stated, f"stated exponent {stated}, computed {via_ring}")


def test_criterion_9_deterministic_json_artifacts(capsys):
    digests = []
    for argv in (
        ["toric", "--space", "p3", "--bundle", "O", "--nmax", "1", "--seed", "3"],
        ["cobordism", "--builtin", "quadric-dpr", "--seed", "3"],
    ):
        hashes = set()
        for _ in range(2):
            code = cli.main(argv)
            out = capsys.readouterr().out
            assert code == 0
            json.loads(out)  # well-formed
            hashes.add(hashlib.sha256(out.encode()).hexdigest())
        digests.append(hashes)
    ok = all(len(h) == 1 for h in digests)
    report(9, ok, "repeated runs hash identically for toric and cobordism")
