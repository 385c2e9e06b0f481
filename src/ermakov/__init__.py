"""Numerical laboratory for generalized Ermakov systems.

Defines the system families from user-supplied expressions, integrates
them directly, builds the linearized angle-domain equation, reconstructs
solutions by quadrature inversion, and cross-validates the two routes.
"""

from .expressions import (
    EvaluationError,
    Expression,
    ParseError,
    as_expression,
    differentiate,
    evaluate,
    parse,
    simplify,
    substitute,
    unparse,
)
from .integration import (
    DriftStats,
    Event,
    EventSpec,
    IntegratorConfig,
    Trajectory,
    detect_events,
    integrate,
    integrate_cartesian,
    integrate_polar,
    monitor_invariant,
)
from .invariant import (
    ForbiddenRegionError,
    InvariantValue,
    TurningPointError,
    lewis_ray_reid_cartesian,
    lewis_ray_reid_polar,
    on_shell_momentum,
    theta_dot_from_invariant,
)
from .linearize import (
    LinearODE,
    LinearSolution,
    LinearizationError,
    OutsideWindowError,
    QuadratureSolution,
    angular_time,
    build_linear_ode,
    build_pipeline,
    free_motion_solution,
    solve_from_state,
    solve_linear,
    time_quadrature,
    verify_compatibility,
    winternitz_angular_time_closed,
    winternitz_psi_closed,
)
from .systems import (
    CartesianSpec,
    CartesianState,
    FreeMotionSystem,
    LinearizableSpec,
    PolarSpec,
    PolarState,
    WinternitzParams,
    absorb_coupling,
    cartesian_rhs,
    cartesian_state_from_polar,
    frequency_from_linearizable,
    free_motion_system,
    kepler_ermakov_system,
    polar_from_cartesian,
    polar_rhs,
    polar_state_from_cartesian,
    potential_value_from_fg,
    quasi_invariance_map,
    radial_coupling_from_fg,
    winternitz_hamiltonian,
    winternitz_system,
)

__version__ = "0.1.0"
