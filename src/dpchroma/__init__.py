"""Exact DP color functions and chromatic polynomials for Theta graphs,
their generalizations, and graphs with a one-vertex feedback set."""

from .analysis import (
    CoverLossTerms,
    FeedbackPolynomialResult,
    ParityClassification,
    SubsetAuditReport,
    ThetaDpFormula,
    classify_generalized,
    cover_gap,
    cover_loss_terms,
    cover_subset_audit,
    edge_deletion_gap,
    fvs1_dp_polynomial,
    list_color_threshold,
    loss_term_differences,
    partition_weight,
    theta_dp_formula,
)
from .chromatic import (
    Precoloring,
    chromatic_polynomial,
    precolored_count,
    precolored_polynomial,
    theta_chromatic,
    theta_edge_deleted_chromatic,
    theta_edge_pair_graphs,
    theta_edge_pair_polynomials,
)
from .covers import (
    FullCover,
    MinimizationResult,
    PartitionSpec,
    TwistProfile,
    count_colorings,
    cover_to_json,
    dp_lower_bound,
    identity_cover,
    min_over_covers,
    partitions_of,
    random_cover,
    shift_cover,
    twist_profile,
)
from .errors import DpchromaError
from .graphs import (
    FeedbackVertex,
    Graph,
    StarDecomposition,
    ThetaSpec,
    build_generalized_theta,
    component_count,
    feedback_vertex_set,
    find_feedback_vertex,
    star_forest_decomposition,
    subset_cycle_lengths,
)
from .poly import IntPoly, M, eventual_compare, poly_to_json

__all__ = [name for name in dir() if not name.startswith("_")]
