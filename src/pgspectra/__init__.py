"""Exact spectra of power graphs and enhanced power graphs of finite groups.

The package builds Cayley-table groups for several families (cyclic,
elementary abelian, dihedral, dicyclic, the nonabelian group of order p*q,
and direct products), derives their power and enhanced power graphs, and
computes adjacency and distance characteristic polynomials in exact integer
arithmetic.  A catalog of closed-form spectra for these families can be
verified wholesale against independent brute-force computation.
"""

from .errors import (
    BitGrowthExceeded,
    DiameterExceedsTwo,
    DimensionMismatch,
    DisconnectedGraph,
    FamilyMismatch,
    HypothesisViolated,
    InexactDivision,
    InternalExactnessViolation,
    InvalidFamilyParameters,
    NotAPartition,
    NotEquitable,
    NotSquare,
    SizeMismatch,
    SpectraError,
)
from .graphs import (
    Graph,
    JoinSpec,
    adjacency_matrix,
    complete_graph,
    diameter,
    distance_matrix,
    empty_graph,
    enhanced_power_graph,
    graph_join,
    power_graph,
    proper_power_graph,
    to_dot,
    verify_join_form,
)
from .groups import (
    FiniteGroup,
    GroupFamilySpec,
    cyclic_subgroup,
    cyclic_subgroups,
    direct_product,
    element_order,
    element_subgroups,
    group_from_json,
    group_to_json,
    make_cyclic,
    make_dicyclic,
    make_dihedral,
    make_elementary_abelian,
    make_gpq,
    make_group,
    maximal_cyclic_subgroups,
    order_census,
)
from .linalg import (
    FactoredPoly,
    IntMatrix,
    IntPolynomial,
    block,
    char_poly,
    dense_char_poly,
    determinant,
    identity,
    kron,
    ones,
    poly_exact_div,
    x_plus,
    zeros,
)
from .partitions import (
    Partition,
    coarsest_equitable_partition,
    distance_quotient_from_matrix,
    distance_quotient_matrix,
    quotient_matrix,
)
from .theorems import (
    FAMILY_PARTITIONS,
    THEOREM_IDS,
    TheoremCase,
    VerificationReport,
    build_T1_T2,
    cf_elab_distance,
    cf_elab_product,
    cf_elab_times_cyclic_distance,
    cf_epg_dicyclic_distance,
    cf_epg_dihedral_distance,
    cf_epg_gpq_determinant,
    cf_epg_gpq_distance,
    cf_join_distance,
    cf_pg_dihedral_distance_rhs,
    elab_product_BC,
    enumerate_cases,
    family_partition,
    join_form,
    make_case,
    star_partition,
    verify,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
