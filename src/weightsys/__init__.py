"""Exact-arithmetic Jacobi diagram algebras and Lie-algebra weight systems.

The package computes with two graded diagram spaces — trivalent graphs
with legs, and trivalent graphs attached to an oriented circle — modulo
the standard local relations, entirely over the rationals:

- enumeration of diagrams and quotient bases by exact elimination
  (:mod:`weightsys.diagrams`, :mod:`weightsys.algebra`);
- the structural maps between the spaces: leg-averaging onto the circle,
  closure, cap products, disjoint union, connect sum, and the wheels
  series (:mod:`weightsys.maps`);
- weight systems from metric Lie algebras by planned sparse tensor
  contraction (:mod:`weightsys.lie`, :mod:`weightsys.tensor`);
- self-checking verification suites (:mod:`weightsys.verify`) and a
  JSON-pipeline command line (:mod:`weightsys.cli`).
"""

import importlib
import types

from .algebra import (DiagramVector, QuotientBasis, equal_mod_relations,
                      ihx_generators, quotient_basis, reduce_vector,
                      stu_generators, vector_from_json, vector_to_json)
from .cache import default_cache_dir
from .diagrams import (CanonicalForm, Diagram, automorphism_count, bare_circle,
                       canonicalize, diagram_from_json, diagram_to_json,
                       empty_diagram, enumerate_diagrams, is_isomorphic,
                       validate)
from .errors import (DiagramError, GradingMismatchError, LieAlgebraError,
                     ResourceLimitError, SpaceMismatchError)

__version__ = "0.1.0"

# The weight, map and verify layers load on first access (PEP 562), so a
# command-line call imports only the layers its verb runs: name -> module.
_LAZY = {name: module for module, names in (
    ("lie", "MetricLieAlgebra Representation StructureTensors abelian "
            "builtin_algebra check_lie check_representation contraction_plan "
            "derive_tensors evaluate evaluate_closed lie_algebra_from_json "
            "lie_algebra_to_json sl2"),
    ("maps", "cap chi closure connect_sum disjoint_union exp_disjoint "
             "modified_bernoulli omega strut theta wheel wheels_vector"),
    ("tensor", "ContractionPlan SparseTensor contract_network network_keys "
               "plan_contraction"),
    ("verify", "SUITES run_suite verify_chi_iso verify_closure_omega "
               "verify_relations verify_wheeling"),
) for name in names.split()}

__all__ = sorted([name for name, x in globals().items()
                  if not name.startswith("_") and not isinstance(x, types.ModuleType)]
                 + list(_LAZY))


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
