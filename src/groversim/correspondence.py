"""Quantitative bridge between the quantum and collision pictures.

The dictionary is linear: velocity = v_init * sqrt(N) * amplitude. Under
that scaling the two-amplitude recursion, the collision iteration, and the
full state vector trace the same trajectory, the marked-state probability
equals ball 2's share of the kinetic energy, and the amplitude mean maps to
the center-of-mass velocity. ``verify_analogy`` runs the engines side by
side and reports the worst residual of each identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .collisions import center_of_mass_velocity, from_params, iterate, obstacle_bounce
from .params import SearchParams
from .statevector import _reflect_about_mean, apply_oracle, init_uniform, marked_probability
from .twolevel import TwoLevelState, step, uniform_state

DEFAULT_STATEVECTOR_CAP = 2**20


@dataclass(frozen=True)
class AnalogyReport:
    """Worst-case residuals over a side-by-side run.

    max_velocity_residual: |u_n - v sqrt(N) a_n| and |v_n - v sqrt(N) b_n|,
        against the recursion and (when run) the state vector.
    max_probability_energy_residual: |p_marked - ball-2 energy fraction|.
    max_center_velocity_residual: |v_c - v sqrt(N) A| right after the bounce
        (A = live amplitude mean right after the oracle).
    statevector_included: False when n_total exceeded the cap and the
        state-vector leg was skipped.
    """

    max_velocity_residual: float
    max_probability_energy_residual: float
    max_center_velocity_residual: float
    steps_checked: int
    statevector_included: bool


def amplitudes_to_velocities(
    state: TwoLevelState, params: SearchParams, v_init: float
) -> tuple[float, float]:
    """Map shared amplitudes (a, b) to ball velocities (u, v) = v sqrt(N) (a, b)."""
    scale = v_init * math.sqrt(params.n_total)
    return scale * state.a, scale * state.b


def velocities_to_amplitudes(
    u: float, v_ball2: float, params: SearchParams, v_init: float
) -> TwoLevelState:
    """Inverse map; round-trips with ``amplitudes_to_velocities`` exactly up
    to rounding."""
    if not v_init > 0:
        raise ValueError(f"v_init must be positive, got {v_init!r}")
    scale = v_init * math.sqrt(params.n_total)
    return TwoLevelState(u / scale, v_ball2 / scale)


def verify_analogy(
    params: SearchParams,
    v_init: float = 1.0,
    steps: int = 1,
    statevector_cap: int = DEFAULT_STATEVECTOR_CAP,
) -> AnalogyReport:
    """Run the two-amplitude recursion, the collision iteration, and (below
    the cap) the full state vector for ``steps`` iterations, comparing them
    at every step.

    The state-vector leg marks the first n2 indices; by symmetry the choice
    does not affect any reported quantity.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    n_total, n2 = params.n_total, params.n2
    scale = v_init * math.sqrt(n_total)
    total_energy = 0.5 * n_total * v_init * v_init  # m_unit = 1

    two = uniform_state(params)
    system = from_params(params, v_init)
    use_statevector = n_total <= statevector_cap
    if use_statevector:
        sv = init_uniform(params, frozenset(range(n2)))
        marked_probe, unmarked_probe = 0, n_total - 1

    vel_res = prob_res = center_res = 0.0
    for _ in range(steps):
        # Oracle / wall-bounce half-step: compare the amplitude mean with the
        # center-of-mass velocity while they are in corresponding phases.
        after_bounce = replace(system, ball2=obstacle_bounce(system.ball2))
        v_c = center_of_mass_velocity(after_bounce)
        mean_two = (params.n1 * two.a - n2 * two.b) / n_total
        center_res = max(center_res, abs(v_c - scale * mean_two))
        if use_statevector:
            sv, mean_sv = _reflect_about_mean(apply_oracle(sv))
            center_res = max(center_res, abs(v_c - scale * mean_sv))

        two = step(two, params)
        system, record = iterate(system)

        vel_res = max(
            vel_res,
            abs(record.u - scale * two.a),
            abs(record.v - scale * two.b),
        )
        energy_fraction = system.ball2.kinetic_energy / total_energy
        prob_res = max(prob_res, abs(n2 * two.b * two.b - energy_fraction))
        if use_statevector:
            a_sv = float(sv.amplitudes[unmarked_probe])
            b_sv = float(sv.amplitudes[marked_probe])
            vel_res = max(
                vel_res,
                abs(record.u - scale * a_sv),
                abs(record.v - scale * b_sv),
            )
            prob_res = max(prob_res, abs(marked_probability(sv) - energy_fraction))

    return AnalogyReport(
        max_velocity_residual=vel_res,
        max_probability_energy_residual=prob_res,
        max_center_velocity_residual=center_res,
        steps_checked=steps,
        statevector_included=use_statevector,
    )
