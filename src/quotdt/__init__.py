"""Exact degree-zero DT invariants of Quot schemes of points on toric 3-folds.

Fixed points of the big torus action are colored plane partitions; each
contributes the inverse equivariant Euler class of its virtual tangent
character, and the weighted count is an integer matching the closed formula
M((-1)^r q)^(r * c3(T tensor K)).  Everything is exact: big integers
and Fractions; no floats anywhere.

Importing the package runs none of its modules.  It registers the seven in
the loop below through importlib's LazyLoader, in sys.modules and on the
package, and a module's code runs on its first attribute access; the names
in __all__ are read from those module objects on first access (PEP 562).
So `import quotdt.cli` runs only cli, errors and series, and each command
runs only the modules it reads.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

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

for _name in ("chern", "conventions", "errors", "partitions", "series", "toric", "vertex"):
    _spec = find_spec(f"{__name__}.{_name}")
    _spec.loader = LazyLoader(_spec.loader)
    globals()[_name] = sys.modules[_spec.name] = _module = module_from_spec(_spec)
    _spec.loader.exec_module(_module)
del _name, _spec, _module

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[module], name)
