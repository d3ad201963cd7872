"""Exact-arithmetic solvers for TU cooperative games: pre-kernel and
pre-nucleolus points, uniqueness certificates, and families of related
games replicating a pre-kernel point."""

from .coalitions import (
    Coalition,
    all_coalitions,
    coalition_of,
    coalitions_with_without,
    format_coalition,
    grand_coalition,
    members,
    ordered_pairs,
    unordered_pairs,
)
from .errors import ClassBoundaryError, NonConvergenceError, ReplicationError, SolverError
from .game import (
    GameProperties,
    Payoff,
    TuGame,
    as_payoff,
    excess,
    extend_payoff,
    game_from_unanimity,
    game_properties,
    is_prekernel,
    max_excess,
    max_marginal_gap,
    max_surplus,
    payoff_total,
    prekernel_residual,
    transfer,
    unanimity_coords,
)
from .linalg import Matrix, nullspace, pseudo_inverse, rank, rref, solve_linear
from .lp import LinearProgram, LpOutcome, solve_lp
from .prekernel import (
    QuadraticSystem,
    SurplusProfile,
    UniquenessCertificate,
    certify_unique,
    prekernel_point,
    profile_preserving_step,
    quadratic_system,
    surplus_profile,
)
from .prenucleolus import (
    BalancedCertificate,
    excess_level_set,
    excess_profile,
    is_balanced,
    kohlberg_criterion,
    lex_le,
    prenucleolus,
)
from .replication import (
    CoalitionPowerSystem,
    RelatedFamily,
    convex_combine,
    critical_bound,
    family_nullspace,
    power_system,
    related_game,
    replicate_family,
    segment_sample,
)

__version__ = "0.1.0"
