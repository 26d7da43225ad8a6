"""Grover-style search simulated three equivalent ways.

* ``statevector``: the full N-dimensional engine (oracle sign flip plus
  inversion about average), with seeded measurement sampling.
* ``twolevel``: the exact 2x2 reduction to the shared amplitudes (a, b),
  including the spectral decomposition, closed-form trajectories, and the
  optimal iteration count.
* ``collisions``: the classical analogue, two rigid balls trading energy
  through wall bounces and elastic collisions under the same 2x2 map.
* ``correspondence``: the velocity = v*sqrt(N)*amplitude dictionary and a
  three-way residual check.
* ``harness`` / ``cli``: scenario configs, trajectory and sweep CSVs.
"""

from .collisions import (
    Ball,
    CollisionCase,
    CollisionSystem,
    IterationRecord,
    ProtocolWarning,
    center_of_mass_velocity,
    classify_case,
    closed_form_velocities,
    elastic_collide,
    first_iteration_general,
    from_params,
    iterate,
    obstacle_bounce,
)
from .correspondence import (
    DEFAULT_STATEVECTOR_CAP,
    AnalogyReport,
    TrajectoryRow,
    amplitudes_to_velocities,
    analogy_report,
    velocities_to_amplitudes,
    velocity_scale,
    verify_analogy,
)
from .harness import (
    ConfigError,
    ScenarioConfig,
    SweepRow,
    emit_csv,
    run_compare,
    run_search,
    run_sweep,
)
from .params import Regime, RegimeWarning, SearchParams, detect_regime
from .statevector import (
    StateVector,
    apply_diffusion,
    apply_oracle,
    grover_iterate,
    init_uniform,
    marked_probability,
    measure_sample,
)
from .twolevel import (
    THETA_APPROX,
    THETA_EXACT,
    IterationMatrix,
    Spectral,
    TwoLevelState,
    build_matrix,
    closed_form,
    matrix_power,
    optimal_iterations,
    recursion_coefficients,
    rotation_angle,
    spectral_decompose,
    step,
    success_probability,
    uniform_state,
)

__version__ = "0.1.0"

__all__ = [
    "AnalogyReport",
    "Ball",
    "CollisionCase",
    "CollisionSystem",
    "ConfigError",
    "DEFAULT_STATEVECTOR_CAP",
    "IterationMatrix",
    "IterationRecord",
    "ProtocolWarning",
    "Regime",
    "RegimeWarning",
    "ScenarioConfig",
    "SearchParams",
    "Spectral",
    "StateVector",
    "SweepRow",
    "THETA_APPROX",
    "THETA_EXACT",
    "TrajectoryRow",
    "TwoLevelState",
    "amplitudes_to_velocities",
    "analogy_report",
    "apply_diffusion",
    "apply_oracle",
    "build_matrix",
    "center_of_mass_velocity",
    "classify_case",
    "closed_form",
    "closed_form_velocities",
    "detect_regime",
    "elastic_collide",
    "emit_csv",
    "first_iteration_general",
    "from_params",
    "grover_iterate",
    "init_uniform",
    "iterate",
    "marked_probability",
    "matrix_power",
    "measure_sample",
    "obstacle_bounce",
    "optimal_iterations",
    "recursion_coefficients",
    "rotation_angle",
    "run_compare",
    "run_search",
    "run_sweep",
    "spectral_decompose",
    "step",
    "success_probability",
    "uniform_state",
    "velocities_to_amplitudes",
    "velocity_scale",
    "verify_analogy",
]
