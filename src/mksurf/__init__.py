"""Markoff surfaces, SL2 commutator lifting, free-product word algorithms,
and machine-checkable Hasse-failure certificates.

Importing the package loads none of its submodules: each public name, and
each submodule, is imported on first use (PEP 562), so a caller pays only
for the layers it touches.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "rings": ("INF", "BudgetExceeded", "ModInt", "ResidueRing", "SIntegerRing",
              "factorize", "hilbert", "jacobi", "parse_ring"),
    "mat2": ("Mat2", "commutator", "in_trace_set", "mat_mod"),
    "markoff": ("MarkoffMove", "MarkoffPoint", "admissible_k", "admissible_t",
                "apply_move", "apply_path", "class_data", "level", "orbit_within",
                "reduce_point", "search_integral", "search_localized"),
    "quadforms": ("HasseProfile", "form_isotropic", "hasse_profile"),
    "lifting": ("LiftError", "LiftResult", "lift2", "lift_point", "pair_move",
                "universal_pair"),
    "words": ("SRingElem", "Word", "alg1_representatives", "embedding_matrix",
              "in_derived_subgroup", "is_unit_in_S", "metabelian_image",
              "psl2_class_reps", "table1_trace_filter", "word", "word_trace"),
    "quotients": ("commutator_test_modq", "sl2_tuples", "trace_commutator_image"),
    "certify": ("Certificate", "build_hfe1_matrix", "certify_hfz",
                "certify_sint_failure", "check_certificate", "verify_hfe1"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "expected_tables"}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        # the import binds the submodule as a package attribute itself
        return importlib.import_module("." + name, __name__)
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
