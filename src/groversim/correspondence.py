"""Quantitative bridge between the quantum and collision pictures.

The dictionary is linear: velocity = v_init * sqrt(N) * amplitude. Under
that scaling the two-amplitude recursion, the collision iteration, and the
full state vector trace the same trajectory, the marked-state probability
equals ball 2's share of the kinetic energy, and the amplitude mean maps to
the center-of-mass velocity.

``TrajectoryRow`` is the one per-step record that the engines and the check
share. ``analogy_report`` reads rows in one pass, two at a time, and checks
each identity at every step, adding the full state vector below the cap.
``harness.run_compare`` hands it the rows of its own single pass, so the
recursions run once per query; ``verify_analogy`` builds the same rows from
the reference steps ``twolevel.step`` and ``collisions.iterate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import pairwise
from typing import Iterable, Iterator, NamedTuple

from .collisions import classify_case, from_params, iterate
from .params import SearchParams, detect_regime
from .statevector import _reflect_about_mean, apply_oracle, init_uniform, marked_probability
from .twolevel import TwoLevelState, step, uniform_state

DEFAULT_STATEVECTOR_CAP = 2**20


class TrajectoryRow(NamedTuple):
    """Joint per-iteration record across the engines: one CSV line. The fields
    are the one home of the CSV column order; ``harness.TRAJECTORY_HEADER``
    joins their names. A NamedTuple, so ``dataclasses`` helpers do not apply."""

    n: int
    a_n: float
    b_n: float
    p_marked: float
    u_n: float
    v_n: float
    energy_fraction_ball2: float
    case_label: str
    regime: str


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


def _start_energy(params: SearchParams, v_init: float) -> float:
    """The balls' total kinetic energy at the start, as the collision engine
    holds it: past N = 2**53, float(n1) + float(n2) can differ from float(N)."""
    return 0.5 * (float(params.n1) + float(params.n2)) * v_init * v_init


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
    rows: Iterable[TrajectoryRow],
    statevector_cap: int = DEFAULT_STATEVECTOR_CAP,
) -> AnalogyReport:
    """Residuals of one side-by-side run over its steps, one fewer than its rows.

    ``rows`` holds n = 0..steps of one trajectory, in order, and is read
    once, so a generator will do: the amplitudes and ``p_marked`` from the
    two-amplitude recursion, the velocities and ball 2's share of the kinetic
    energy from the collision iteration, each recursion run on its own. Below
    the cap the full state vector is iterated here for the same steps and
    compared with the velocities too; it marks the first n2 indices, and by
    symmetry the choice does not affect any reported quantity.
    """
    n_total, n1, n2 = params.n_total, params.n1, params.n2
    scale = velocity_scale(params, v_init)
    use_statevector = n_total <= statevector_cap
    if use_statevector:
        sv = init_uniform(params, range(n2))
        marked_probe, unmarked_probe = 0, n_total - 1

    steps = 0
    vel_res = prob_res = center_res = 0.0
    # Every field is unpacked by name: a starred target builds a list per row.
    for (
        (_, a, b, _, u, v, _, _, _),
        (_, a_next, b_next, p_next, u_next, v_next, energy_fraction, _, _),
    ) in pairwise(rows):
        steps += 1
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
        prob_res = max(prob_res, abs(p_next - energy_fraction))
        if use_statevector:
            a_sv = float(sv.amplitudes[unmarked_probe])
            b_sv = float(sv.amplitudes[marked_probe])
            vel_res = max(
                vel_res,
                abs(u_next - scale * a_sv),
                abs(v_next - scale * b_sv),
            )
            prob_res = max(prob_res, abs(marked_probability(sv) - energy_fraction))
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")

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
    return analogy_report(params, v_init, _reference_rows(params, v_init, steps), statevector_cap)


def _reference_rows(params: SearchParams, v_init: float, steps: int) -> Iterator[TrajectoryRow]:
    """Rows n = 0..steps from the reference steps, each recursion on its own;
    ``collisions.iterate``'s record gives the case label."""
    n2, regime = params.n2, detect_regime(params).value
    total_energy = _start_energy(params, v_init)
    two = uniform_state(params)
    system = from_params(params, v_init)
    case = classify_case(v_init, v_init)
    for n in range(steps + 1):
        if n > 0:
            two = step(two, params)
            system, record = iterate(system)
            case = record.case_label
        b, ball2 = two.b, system.ball2
        yield TrajectoryRow(
            n, two.a, b, n2 * b * b, system.ball1.velocity, ball2.velocity,
            ball2.kinetic_energy / total_energy, case.value, regime,
        )
