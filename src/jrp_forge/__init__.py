"""Exact-arithmetic joint replenishment toolkit.

Cycle times, costs, and synchronization rates are rationals end to end; the
only floats are presentation-layer decimals and wall-clock timings. The
package covers single-commodity lot sizing, union/intersection order-rate
calculus, several policy optimizers, and a 3SAT front end that compiles
formulas into replenishment instances whose cheapest assignment policy
mirrors satisfiability at desk scale.
"""
from .model import (
    Commodity,
    CommodityKind,
    InputError,
    Instance,
    JrpError,
    Policy,
    SeedProfile,
    ValidationReport,
    expand_profile,
    format_rational,
    load_instance,
    load_policy,
    parse_rational,
    rational_to_decimal,
    save_instance,
    save_policy,
    validate_policy,
)
from .eoq import EoqResult, optimal_cycle, sqrt_fraction, standalone_cost, theta_pair
from .sync import (
    CapExceeded,
    SeriesFamily,
    check_cardinality_identities,
    hyperperiod,
    ijr,
    ijr_cross_seed,
    ijr_enumerate,
    lcm_rational,
    ujr,
    ujr_enumerate,
)
from .cost import (
    CostBreakdown,
    decompose,
    jr_bounds,
    marginal_jr,
    seed_cost,
    total_cost,
)
from .sat import (
    CnfFormula,
    brute_force_sat,
    evaluate,
    parse_dimacs,
    serialize_dimacs,
    validate_3sat,
)
from .solve import (
    SolveResult,
    coordinate_descent,
    exhaustive_search,
    optimize_seed,
    power_of_two,
)
from .reduction import (
    ConfigRejected,
    GapReport,
    PrimePair,
    ReductionConstants,
    ReductionOutput,
    RoundtripReport,
    assignment_to_policy,
    build_clause_commodity,
    build_constant_commodity,
    build_variable_commodity,
    check_gap_inequality,
    clause_synchronized,
    clause_target,
    compute_delta,
    default_alpha_v_bar,
    is_prime,
    policy_to_assignment,
    reduce_formula,
    reduction_from_json,
    reduction_to_json,
    select_prime_pairs,
    verify_roundtrip,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
