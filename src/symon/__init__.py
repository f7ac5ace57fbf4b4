"""Exact combinatorics and seeded simulation for symplectic similitude
groups over Z/n: modular linear algebra, group orders and enumeration,
fixed-vector set construction with exact cardinalities, rational series
diagnostics, and deterministic Monte Carlo experiments."""

from .modmat import (
    ModMatrix,
    ModVector,
    Modulus,
    NotInvertible,
    crt_lift,
    det,
    fixed_space,
    has_eigenvalue_one,
    mat_inv,
    mat_mul,
    mat_vec,
    reduce_mod,
)
from .sympgroup import (
    INFINITY,
    BudgetExceeded,
    GroupContext,
    NotSimilitude,
    StabilizerParams,
    enumerate_group,
    form_matrix,
    gsp_q_order,
    is_member,
    multiplicative_order,
    multiplier,
    pairing,
    sample_uniform,
    sp_order,
    stabilizer_matrix,
    transvection,
)
from .specialsets import (
    CompositeUnionSet,
    DirectMembership,
    FixedVectorSet,
    SetLevel,
    build_core_set,
    build_full_set,
    build_union_set,
    composite_union_cardinality,
    core_cardinality,
    count_without_eigenvalue_one,
    full_cardinality,
    no_eigenvalue_one_floor,
    select_blocks,
    union_cardinality,
)
from .analysis import (
    SeriesReport,
    density_ratio,
    part_a_series,
    part_b_series,
    part_b_term,
)
from .montecarlo import (
    EventEstimate,
    FixedVectorEvent,
    JointSetHitEvent,
    SampleTuple,
    SetHitEvent,
    borel_cantelli_experiment,
    common_fixed_upper_bound,
    estimate_event,
    estimate_events,
    exact_common_fixed_fraction,
    has_common_fixed_vector,
    sample_tuple,
)

__all__ = [name for name in dir() if not name.startswith("_")]
