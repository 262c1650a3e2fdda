"""Exact degree-zero DT invariants of Quot schemes of points on toric 3-folds.

Fixed points of the big torus action are colored plane partitions; each
contributes the inverse equivariant Euler class of its virtual tangent
character, and the weighted count is an integer matching the closed formula
M((-1)^r q)^(r * c3(T tensor K)).  Everything is exact: big integers
and Fractions; no floats anywhere.

The names below are imported from their modules on first access (PEP 562).
The CLI holds the engine modules through importlib's LazyLoader: `import
quotdt.cli` runs only cli, errors and series, and registers the others so
that each runs when a command first reads from it.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "chern": (
        "BundleClass",
        "ChernRing",
        "basis_matrix",
        "blowup_p3_conic",
        "c3_t_omega",
        "decompose",
        "dpr_check",
        "euler_characteristic",
        "mixed_chern_vector",
        "mixed_monomials",
        "named_ring",
        "normal_cone_dpr",
        "phi_class",
        "projective_bundle_ring",
        "quadric_dpr",
        "quadric_threefold",
        "reconstruct",
        "ring_of_projective_product",
        "split_bundle_class",
    ),
    "errors": (
        "NonIntegralError",
        "NonzeroFixedPartError",
        "ParameterDependenceError",
        "QuotDTError",
        "SingularBasisMatrixError",
        "ZeroWeightError",
    ),
    "partitions": (
        "ColoredPlanePartition",
        "PartitionPair",
        "PlanePartition",
        "enum_colored",
        "enum_partition_pairs",
        "enum_plane_partitions",
        "partitions_of",
    ),
    "series": ("Series", "dt_closed_formula", "macmahon", "series_pow"),
    "toric": (
        "SplitBundle",
        "ToricSpace",
        "builtin_space",
        "c3_via_localization",
        "chart_of",
        "count_fixed_points",
        "dt_series",
        "split_bundle",
        "trivial_bundle",
    ),
    "vertex": (
        "ChartWeights",
        "EquivParams",
        "chart_contribution",
        "chart_sums",
        "chart_terms",
        "euler_inverse",
        "symmetry_defect",
        "vertex_character",
    ),
}

# One name -> module table for the lazy lookup.
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)
