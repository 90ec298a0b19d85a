"""Markoff surfaces, SL2 commutator lifting, free-product word algorithms,
and machine-checkable Hasse-failure certificates."""

from .rings import (
    INF,
    BudgetExceeded,
    ModInt,
    ResidueRing,
    SIntegerRing,
    factorize,
    hilbert,
    jacobi,
    parse_ring,
    squarefree_part,
)
from .mat2 import (
    Mat2,
    commutator,
    in_trace_set,
    mat_mod,
)
from .markoff import (
    MarkoffMove,
    MarkoffPoint,
    admissible_k,
    admissible_t,
    apply_move,
    apply_path,
    class_data,
    level,
    orbit_within,
    reduce_point,
    search_integral,
    search_localized,
)
from .quadforms import (
    HasseProfile,
    form_isotropic,
    hasse_profile,
)
from .lifting import (
    LiftError,
    LiftResult,
    lift2,
    lift_point,
    pair_move,
    universal_pair,
)
from .words import (
    SRingElem,
    Word,
    alg1_representatives,
    embedding_matrix,
    in_derived_subgroup,
    is_unit_in_S,
    metabelian_image,
    psl2_class_reps,
    table1_trace_filter,
    word,
    word_trace,
)
from .quotients import (
    commutator_test_modq,
    sl2_tuples,
    trace_commutator_image,
)
from .certify import (
    Certificate,
    build_hfe1_matrix,
    certify_hfz,
    certify_sint_failure,
    check_certificate,
    verify_hfe1,
)

__version__ = "0.1.0"
