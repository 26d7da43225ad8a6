"""Quantitative bridge between the quantum and collision pictures.

The dictionary is linear: velocity = v_init * sqrt(N) * amplitude. Under
that scaling the two-amplitude recursion, the collision iteration, and the
full state vector trace the same trajectory, the marked-state probability
equals ball 2's share of the kinetic energy, and the amplitude mean maps to
the center-of-mass velocity.

``analogy_report`` checks each identity at every step of one trajectory and
reports the worst residual. Its input holds the amplitudes and the
velocities side by side, computed independently by the two recursions; it
adds the full state vector itself below the cap. ``verify_analogy`` runs the
two recursions through the reference ``twolevel.step`` and
``collisions.iterate`` and hands them to it; ``harness.run_compare`` hands it
the rows of its own single pass instead, so the recursions run once per query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .collisions import from_params, iterate
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


def velocity_scale(params: SearchParams, v_init: float) -> float:
    """v_init * sqrt(N), the factor from amplitudes to velocities."""
    return v_init * math.sqrt(params.n_total)


def amplitudes_to_velocities(
    state: TwoLevelState, params: SearchParams, v_init: float
) -> tuple[float, float]:
    """Map shared amplitudes (a, b) to ball velocities (u, v) = v sqrt(N) (a, b)."""
    scale = velocity_scale(params, v_init)
    return scale * state.a, scale * state.b


def velocities_to_amplitudes(
    u: float, v_ball2: float, params: SearchParams, v_init: float
) -> TwoLevelState:
    """Inverse map; round-trips with ``amplitudes_to_velocities`` exactly up
    to rounding."""
    if not v_init > 0:
        raise ValueError(f"v_init must be positive, got {v_init!r}")
    scale = velocity_scale(params, v_init)
    return TwoLevelState(u / scale, v_ball2 / scale)


def analogy_report(
    params: SearchParams,
    v_init: float,
    trajectory: Sequence[tuple[float, float, float, float, float]],
    statevector_cap: int = DEFAULT_STATEVECTOR_CAP,
) -> AnalogyReport:
    """Residuals of one side-by-side run over steps = len(trajectory) - 1.

    ``trajectory[n]`` is (a_n, b_n, u_n, v_n, energy_fraction_n) for
    n = 0..steps: the amplitudes from the two-amplitude recursion, the
    velocities and ball 2's share of the kinetic energy from the collision
    iteration, each recursion run on its own. Below the cap the full state
    vector is iterated here for the same steps and compared with the
    velocities too; it marks the first n2 indices, and by symmetry the
    choice does not affect any reported quantity.
    """
    steps = len(trajectory) - 1
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    n_total, n1, n2 = params.n_total, params.n1, params.n2
    scale = velocity_scale(params, v_init)
    use_statevector = n_total <= statevector_cap
    if use_statevector:
        sv = init_uniform(params, range(n2))
        marked_probe, unmarked_probe = 0, n_total - 1

    vel_res = prob_res = center_res = 0.0
    for (a, b, u, v, _), (a_next, b_next, u_next, v_next, energy_fraction) in zip(
        trajectory, trajectory[1:]
    ):
        # Oracle / wall-bounce half-step: compare the amplitude mean with the
        # center-of-mass velocity while they are in corresponding phases.
        # Ball 2 has just bounced, so its velocity is -v.
        v_c = (n1 * u - n2 * v) / n_total
        mean_two = (n1 * a - n2 * b) / n_total
        center_res = max(center_res, abs(v_c - scale * mean_two))
        if use_statevector:
            sv, mean_sv = _reflect_about_mean(apply_oracle(sv))
            center_res = max(center_res, abs(v_c - scale * mean_sv))

        vel_res = max(
            vel_res,
            abs(u_next - scale * a_next),
            abs(v_next - scale * b_next),
        )
        prob_res = max(prob_res, abs(n2 * b_next * b_next - energy_fraction))
        if use_statevector:
            a_sv = float(sv.amplitudes[unmarked_probe])
            b_sv = float(sv.amplitudes[marked_probe])
            vel_res = max(
                vel_res,
                abs(u_next - scale * a_sv),
                abs(v_next - scale * b_sv),
            )
            prob_res = max(prob_res, abs(marked_probability(sv) - energy_fraction))

    return AnalogyReport(
        max_velocity_residual=vel_res,
        max_probability_energy_residual=prob_res,
        max_center_velocity_residual=center_res,
        steps_checked=steps,
        statevector_included=use_statevector,
    )


def verify_analogy(
    params: SearchParams,
    v_init: float = 1.0,
    steps: int = 1,
    statevector_cap: int = DEFAULT_STATEVECTOR_CAP,
) -> AnalogyReport:
    """Run the two-amplitude recursion (``twolevel.step``), the collision
    iteration (``collisions.iterate``) and, below the cap, the full state
    vector for ``steps`` iterations, comparing them at every step.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    total_energy = 0.5 * params.n_total * v_init * v_init  # m_unit = 1

    two = uniform_state(params)
    system = from_params(params, v_init)
    trajectory = []
    for n in range(steps + 1):
        if n > 0:
            two = step(two, params)
            system, _ = iterate(system)
        ball1, ball2 = system.ball1, system.ball2
        trajectory.append(
            (two.a, two.b, ball1.velocity, ball2.velocity, ball2.kinetic_energy / total_energy)
        )
    return analogy_report(params, v_init, trajectory, statevector_cap)
