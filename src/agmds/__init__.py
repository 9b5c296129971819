"""MDS algebraic-geometry code workbench over small finite fields."""

from .field import FieldSpec, field_make, parse_field_text
from .linalg import FFMatrix, kernel_basis, rank, rref_rank
from .curves import (
    Curve,
    CurvePoint,
    INFINITY,
    admissible_curve_orders,
    admissible_group_structures,
    curve_make,
    find_curve_with_order,
    group_structure,
    hasse_window,
    is_admissible_structure,
    parse_curve_text,
    subgroup_closure,
)
from .rrspace import RRBasis, evaluate_monomial, rr_basis
from .code import (
    CodeReport,
    LinearCode,
    build_code,
    dual_code,
    eaqec_params,
    hull_dim,
    invariant_report,
    is_mds_by_group_sums,
    is_mds_by_minors,
    is_mds_by_systematic_minors,
    is_self_dual,
    min_distance,
    permute_and_scale,
    schur_square,
    self_dualize,
)
from .recipes import (
    coprime_split_code,
    coset_code,
    genus2_mds_search,
    rs_code,
    search_coset_code,
    self_dual_pipeline,
    short_length_code,
    sqrt_prime_code,
    supersingular_code,
    twisted_rs_code,
)

__version__ = "0.1.0"
