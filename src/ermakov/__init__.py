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
)
from .integration import (
    DriftStats,
    Event,
    EventSpec,
    IntegratorConfig,
    Trajectory,
    integrate,
    integrate_cartesian,
    integrate_polar,
    monitor_invariant,
)
from .invariant import (
    ForbiddenRegionError,
    TurningPointError,
)
from .linearize import (
    AngularTimeRun,
    LinearODE,
    LinearSolution,
    LinearizationError,
    OutsideWindowError,
    build_linear_ode,
    build_pipeline,
    solve_from_state,
    solve_linear,
    verify_compatibility,
)
from .systems import (
    CartesianSpec,
    CartesianState,
    LinearizableSpec,
    PolarSpec,
    PolarState,
    WinternitzParams,
    cartesian_state_from_polar,
    frequency_from_linearizable,
    free_motion_system,
    kepler_ermakov_system,
    polar_from_cartesian,
    polar_state_from_cartesian,
    quasi_invariance_map,
    radial_coupling_from_fg,
    winternitz_system,
)

__version__ = "0.1.0"
