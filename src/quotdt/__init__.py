"""Exact degree-zero DT invariants of Quot schemes of points on toric 3-folds.

Fixed points of the big torus action are colored plane partitions; each
contributes the inverse equivariant Euler class of its virtual tangent
character, and the weighted count is an integer matching the closed formula
M((-1)^r q)^(r * c3(T tensor K)).  Everything is exact: big integers
and Fractions; no floats anywhere.

The package's names are its seven modules, listed in __all__; callers reach
a function through its module (quotdt.toric.dt_series).  Importing the
package runs none of them.  The loop below registers each through
importlib's LazyLoader, in sys.modules and on the package, and a module's
code runs on its first attribute access.  So `import quotdt.cli` runs only
cli, errors and series, and each command runs only the modules it reads.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"

__all__ = ["chern", "conventions", "errors", "partitions", "series", "toric", "vertex"]

for _name in __all__:
    _module = sys.modules.get(f"{__name__}.{_name}")
    if _module is None:  # a reload keeps the module objects already registered
        _spec = find_spec(f"{__name__}.{_name}")
        _spec.loader = LazyLoader(_spec.loader)
        sys.modules[_spec.name] = _module = module_from_spec(_spec)
        _spec.loader.exec_module(_module)
        del _spec
    globals()[_name] = _module
del _name, _module
