"""The mutant ledger: planted bugs, and the tests that must catch each one.

A mutant replaces text, which must occur exactly once, in one module of
src/quotdt.  It lists the tests that must fail under it, by pytest node id
from the repository root, each marked as an oracle or as a pinned value:

- an oracle computes the right answer without the engine's code (a Chern
  ring against localization, a character against the Hom spaces, a series
  against a proved closed form, the API-surface test against the source's
  own references, the import contract against the modules a command reads);
- a pinned value compares with a literal the engine once gave.

test_mutants.py applies each mutant to a copy of the repository and checks
that every listed test fails there.  A change that moves a mutant's text
updates its entry.  A mutant is never dropped because it survives: a
survivor is a finding.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    file: str  # under src/quotdt
    text: str
    replacement: str
    oracles: tuple[str, ...]
    pinned: tuple[str, ...] = ()


# the README commands that print JSON; each report holds a flat tuple, which
# the table format prints as a comma-separated row
_TABLE_COMMANDS = (
    "quotdt toric --space p3 --bundle O --nmax 3 --seed 7",
    "quotdt vertex --space p3 --rank 2 --nmax 2 --chart-index 0",
    "quotdt chern --space pbundle-p2-1",
    "quotdt chern --space prod:2.1 --bundle O2.1",
    "quotdt cobordism --builtin quadric-dpr",
    "quotdt cobordism --space prod:3 --bundle O2 --rank 1",
    "quotdt macmahon --nmax 8 --power -20 --negate-q",
)

# the oracles that catch a wrong off-diagonal block U_jk (j != k)
_OFF_DIAGONAL_ORACLES = (
    "tests/test_toric.py::test_rank_reduction_per_chart[p3-twists0-4]",
    "tests/test_vertex.py::test_every_term_is_a_sign_at_a_calabi_yau_point",
    "tests/test_hom_oracle.py::test_formal_characters_match_the_hom_oracle[2-5]",
    "tests/test_kvertex.py::test_standard_chart_satisfies_the_k_vertex_identity[2-5]",
)

MUTANTS = (
    # each block U_jk filed under the color pair (k, j); no sum changes
    Mutant(
        "vertex.py", "1 + j * rank + k", "1 + k * rank + j",
        oracles=(
            "tests/test_hom_oracle.py::test_formal_characters_match_the_hom_oracle[2-5]",
            "tests/test_hom_oracle.py::test_formal_characters_match_the_hom_oracle[3-3]",
            "tests/test_hom_oracle.py::test_random_formal_characters_match_the_hom_oracle",
        ),
        pinned=(
            "tests/test_vertex.py::test_rank_two_cross_term_factor",
            "tests/test_cli.py::test_vertex_rank_two_cross_terms",
        ),
    ),
    # U_jk built from Q_j times P where it takes Q_k: the off-diagonal blocks change
    Mutant(
        "vertex.py", "qp[k], 1 + j", "qp[j], 1 + j",
        oracles=_OFF_DIAGONAL_ORACLES,
        pinned=("tests/test_vertex.py::test_rank_two_cross_term_factor",),
    ),
    # U_jk built as U_kj: the two colors of each off-diagonal block trade roles
    Mutant(
        "vertex.py", "codes_j, codes_k, qp[k]", "codes_k, codes_j, qp[k]",
        oracles=_OFF_DIAGONAL_ORACLES,
        pinned=("tests/test_vertex.py::test_rank_two_cross_term_factor",),
    ),
    # the sharing key drops the color offsets: at rank 2 an antipodal chart
    # shares its sums although its offsets keep their sign.  The vertex
    # identity gives the two charts the same sums, so only the count of
    # weighed columns shows it
    Mutant(
        "vertex.py", "flat = (*column[0], *column[1])", "flat = column[0]",
        oracles=(),
        pinned=(
            "tests/test_vertex.py::test_every_column_is_weighed_without_antipodes_of_rank_one"
            "[p1cubed-r2tw]",
            "tests/test_vertex.py::test_every_column_is_weighed_without_antipodes_of_rank_one"
            "[p1cubed-r2]",
        ),
    ),
    # the Grothendieck sign of a projective bundle's tautological class
    Mutant(
        "conventions.py", "GROTHENDIECK_SIGN = -1", "GROTHENDIECK_SIGN = 1",
        oracles=(
            "tests/test_chern.py::test_quadric_dpr_passes",
            "tests/test_chern.py::test_normal_cone_dpr_passes",
            "tests/test_chern.py::test_projective_bundle_sign_calibration",
        ),
        pinned=("tests/test_chern.py::test_chern_numbers_frozen[pbundle-p2-1]",),
    ),
    # E^3 of the blow-up of P^3 along a conic
    Mutant(
        "chern.py", "(0, 3): -6", "(0, 3): -5",
        oracles=("tests/test_chern.py::test_quadric_dpr_passes",),
        pinned=("tests/test_chern.py::test_chern_numbers_frozen[blowup-p3-conic]",),
    ),
    # the samples are never compared, so a parameter dependence goes unseen
    Mutant(
        "toric.py", "if other == first:", "if True:",
        oracles=(
            "tests/test_toric.py::test_parameter_dependence_names_first_differing_coefficient",
            "tests/test_toric.py::test_parameter_dependence_names_scalar_values",
        ),
    ),
    # bottom layers by size, smallest first: the same partitions in another order
    Mutant(
        "partitions.py", "key=sum, reverse=True", "key=sum",
        oracles=(),
        pinned=(
            "tests/test_partitions.py::test_enumeration_order_is_pinned[plane-n8]",
            "tests/test_partitions.py::test_enumeration_order_is_pinned[rank2-n5]",
            "tests/test_partitions.py::test_enumeration_order_is_pinned[rank3-n3]",
        ),
    ),
    # Q_k read as dual(Q_k) in U_jk; the constant term still vanishes
    Mutant(
        "vertex.py", "key = b + offset", "key = offset - b",
        oracles=(
            "tests/test_kvertex.py::test_standard_chart_satisfies_the_k_vertex_identity[1-8]",
            "tests/test_kvertex.py::test_standard_chart_satisfies_the_k_vertex_identity[2-5]",
            "tests/test_kvertex.py::test_every_twisted_chart_satisfies_the_k_vertex_identity"
            "[p1cubed-O2.-1.1]",
            "tests/test_hom_oracle.py::test_formal_characters_match_the_hom_oracle[1-7]",
        ),
        pinned=("tests/test_toric.py::test_dt_series_rank_one_frozen",),
    ),
    # cmd_chern labels its monomials inline, with the same labels: the helper
    # loses its last reader and no output changes
    Mutant(
        "cli.py", "[_monomial_label(a, b) for a, b in",
        '["*".join(f"{x}{i}" + (f"^{e}" if e > 1 else "") for x, exps in (("c", a), ("f", b))'
        " for i, e in enumerate(exps, 1) if e) for a, b in",
        oracles=("tests/test_api_surface.py::test_every_member_has_a_reader",),
    ),
    # the table walker takes a tuple for a scalar: the engine's tuples print
    # as "(1, 20, ...)" instead of "1, 20, ..."
    Mutant(
        "cli.py", "elif not isinstance(value, (list, tuple)):", "elif not isinstance(value, list):",
        oracles=(),
        pinned=(
            "tests/test_readme_commands.py::test_readme_command_stdout_is_unchanged"
            "[quotdt toric --space p2xp1 --bundle O2.-1 --nmax 2 --format table]",
            *("tests/test_readme_commands.py::test_readme_command_in_the_other_format_is_unchanged"
              f"[{line}]" for line in _TABLE_COMMANDS),
            "tests/test_cli.py::test_render_report_writes_fractions_and_refuses_other_objects",
        ),
    ),
    # the registry loads each module eagerly: `import quotdt` runs them all
    Mutant(
        "__init__.py", "LazyLoader(_spec.loader)", "_spec.loader",
        oracles=(
            "tests/test_cli.py::test_cli_import_skips_unused_modules",
            "tests/test_cli.py::test_a_command_runs_only_the_modules_it_reads[argv0-runs0]",
            "tests/test_cli.py::test_the_package_registers_its_modules_without_running_them",
        ),
    ),
    # the registry registers every module again on a reload: a second module
    # object for quotdt.toric, and with it a second ToricSpace
    Mutant(
        "__init__.py", "if _module is None:", "if True:",
        oracles=("tests/test_cli.py::test_reload_keeps_the_registered_module_objects",),
    ),
    # a Record, a series included, takes an assignment to a field, so a
    # series's hash can change with its coeffs
    Mutant(
        "errors.py", 'raise AttributeError(f"cannot assign to field {name!r}")',
        "object.__setattr__(self, name, value)",
        oracles=("tests/test_series.py::test_series_are_immutable_and_copy_through_init",),
    ),
)
