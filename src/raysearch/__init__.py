"""Fault-tolerant multi-robot ray search: bounds, strategies, and refuters."""

from .cover import (
    AssignedInterval,
    ConfigurationError,
    DeficientCoverError,
    Witness,
    exact_q_assignment,
    verify_multicover,
)
from .formulas import (
    CoverParams,
    InfeasibleRegime,
    InstanceParams,
    NoFiniteHorizon,
    TrivialRegime,
    growth_factor_delta,
    horizon_estimate,
    mu_critical,
    optimal_alpha,
    poly_max_point,
    ratio_lower_bound,
)
from .fractional import (
    FractionalInstance,
    Rationalization,
    fractional_ratio,
    rationalize_weights,
)
from .potential import (
    AuditError,
    GapReport,
    GrowthStep,
    GrowthTrace,
    InvalidAssignmentError,
    Mode,
    PrefixState,
    Verdict,
    advance,
    audit_growth,
    covering_situation,
    detect_gap,
    initial_state,
    potential_value,
    refute,
)
from .simulator import (
    DetectionReport,
    Target,
    dense_grid_ratio,
    detection_time,
    first_visit_time,
    supremum,
    sweep_rows,
    worst_ratio,
)
from .strategy import (
    CoverInterval,
    RoundPlan,
    Strategy,
    TurnSequence,
    all_cover_intervals,
    cover_intervals,
    dumps_strategies,
    load_strategies,
    loads_strategies,
    make_exponential_strategy,
    make_geometric_line_strategy,
    save_strategies,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
