"""Classical analogue: two rigid balls on a frictionless line.

Ball 1 (mass n1 unit masses) stands in for the unmarked states, ball 2
(mass n2 unit masses) for the marked ones. One iteration is: ball 2 bounces
off a wall (velocity sign flips, the oracle analogue), then the balls
collide elastically (the diffusion analogue). In the natural units
m_unit = 1, v_init = 1 the velocity pair (u, v) evolves under the same 2x2
matrix as the two-amplitude recursion.

``_rounds`` is ``iterate``'s round as a bare loop on two floats: the one
loop that ``statevector.grover_iterate`` and the harness trajectory share.

Positions are deliberately not modelled: whenever the geometry would stop a
collision from happening one may swap the balls or add a wall at the other
end, so the dynamics is a pure velocity update and the post-collision case
label is diagnostic metadata only.
"""

from __future__ import annotations

import math
import operator
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, replace
from enum import Enum

from .params import SearchParams
from .twolevel import THETA_EXACT, rotation_angle


class CollisionCase(str, Enum):
    """Direction pattern of (u, v) right after the two-ball collision."""

    BOTH_RIGHTWARD = "both-rightward"
    OPPOSITE = "opposite"
    BOTH_LEFTWARD = "both-leftward"


class ProtocolWarning(UserWarning):
    """A velocity pattern the bounce-then-collide protocol is not expected
    to produce (ball 1 rightward, ball 2 leftward)."""


@dataclass(frozen=True)
class Ball:
    """Point mass on the line; velocity is signed, rightward positive."""

    mass: float
    velocity: float

    def __post_init__(self) -> None:
        if not self.mass > 0:
            raise ValueError(f"mass must be positive, got {self.mass!r}")

    @property
    def kinetic_energy(self) -> float:
        return 0.5 * self.mass * self.velocity * self.velocity


@dataclass(frozen=True)
class CollisionSystem:
    """Two balls plus the units they are expressed in.

    ``iteration`` counts completed bounce-then-collide rounds so that
    successive records are labelled consistently.
    """

    ball1: Ball
    ball2: Ball
    v_init: float = 1.0
    m_unit: float = 1.0
    iteration: int = 0

    def __post_init__(self) -> None:
        if not self.v_init > 0:
            raise ValueError(f"v_init must be positive, got {self.v_init!r}")
        if not self.m_unit > 0:
            raise ValueError(f"m_unit must be positive, got {self.m_unit!r}")

    @property
    def total_energy(self) -> float:
        return self.ball1.kinetic_energy + self.ball2.kinetic_energy


@dataclass(frozen=True)
class IterationRecord:
    """Velocities after iteration ``n`` and their direction classification."""

    n: int
    u: float
    v: float
    case_label: CollisionCase


def from_params(
    params: SearchParams, v_init: float = 1.0, m_unit: float = 1.0
) -> CollisionSystem:
    """Initial setup: masses n1*m_unit and n2*m_unit, both moving rightward
    at the common speed v_init."""
    return CollisionSystem(
        ball1=Ball(params.n1 * m_unit, v_init),
        ball2=Ball(params.n2 * m_unit, v_init),
        v_init=v_init,
        m_unit=m_unit,
    )


def center_of_mass_velocity(system: CollisionSystem) -> float:
    """(m1*u + m2*w) / (m1 + m2); unchanged by the two-ball collision."""
    m1, m2 = system.ball1.mass, system.ball2.mass
    return (m1 * system.ball1.velocity + m2 * system.ball2.velocity) / (m1 + m2)


def elastic_collide(m1: float, m2: float, u: float, w: float) -> tuple[float, float]:
    """Head-on elastic collision of masses m1, m2 with incoming signed
    velocities u, w.

    In the center-of-mass frame each velocity is simply inverted, so in the
    lab frame the outgoing pair is (2*v_c - u, 2*v_c - w). Momentum and
    kinetic energy are conserved to rounding.
    """
    if not (m1 > 0 and m2 > 0):
        raise ValueError(f"masses must be positive, got {m1!r}, {m2!r}")
    v_c = (m1 * u + m2 * w) / (m1 + m2)
    return 2.0 * v_c - u, 2.0 * v_c - w


def obstacle_bounce(ball: Ball) -> Ball:
    """Wall bounce: velocity sign flips, modulus and energy unchanged."""
    return replace(ball, velocity=-ball.velocity)


def classify_case(u: float, v: float) -> CollisionCase:
    """Direction pattern of the post-collision velocities.

    Zero counts as rightward, so the u = 0 endpoint of a one-shot success
    classifies as both-rightward. The pattern (u >= 0, v < 0) cannot follow
    a collision in the normal regimes; equal masses do reach it every fourth
    iteration, so it is logged as a protocol violation and reported as
    ``opposite`` (the directions are opposite, with the roles swapped).
    """
    if u >= 0.0:
        if v >= 0.0:
            return CollisionCase.BOTH_RIGHTWARD
        warnings.warn(
            "post-collision pattern u >= 0 > v observed (ball roles swapped); "
            "classifying as opposite",
            ProtocolWarning,
            stacklevel=2,
        )
        return CollisionCase.OPPOSITE
    return CollisionCase.OPPOSITE if v >= 0.0 else CollisionCase.BOTH_LEFTWARD


def iterate(system: CollisionSystem) -> tuple[CollisionSystem, IterationRecord]:
    """One full round: bounce ball 2 off the wall, then collide the balls.

    With masses (n1, n2) in unit masses this realises the velocity update
    u' = ((n1-n2) u - 2 n2 v)/N,  v' = (2 n1 u + (n1-n2) v)/N.
    """
    ball1, ball2 = system.ball1, system.ball2
    # The bounce reverses ball 2, as in ``obstacle_bounce``.
    u_new, v_new = elastic_collide(ball1.mass, ball2.mass, ball1.velocity, -ball2.velocity)
    n = system.iteration + 1
    record = IterationRecord(n, u_new, v_new, classify_case(u_new, v_new))
    updated = CollisionSystem(
        Ball(ball1.mass, u_new), Ball(ball2.mass, v_new), system.v_init, system.m_unit, n
    )
    return updated, record


def _rounds(m1: float, m2: float, u: float, v: float) -> Iterator[tuple[float, float]]:
    """The velocity pair after each of an endless run of ``iterate`` rounds,
    unchecked: ``elastic_collide(m1, m2, u, -v)`` written out, which rounds
    alike since m2*(-v) is -(m2*v) and adding -x is subtracting x."""
    while True:
        v_c = (m1 * u - m2 * v) / (m1 + m2)
        u, v = 2.0 * v_c - u, 2.0 * v_c + v
        yield u, v


def closed_form_velocities(
    params: SearchParams, v_init: float, n: int, theta_mode: str = THETA_EXACT
) -> tuple[float, float]:
    """Velocities after n iterations without iterating:

    u_n = v sqrt(N/n1) cos((2n+1) theta),  v_n = v sqrt(N/n2) sin((2n+1) theta).
    """
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"iteration count must be >= 0, got {n}")
    phi = (2 * n + 1) * rotation_angle(params, theta_mode)
    n_total = params.n_total
    u = v_init * math.sqrt(n_total / params.n1) * math.cos(phi)
    v = v_init * math.sqrt(n_total / params.n2) * math.sin(phi)
    return u, v


def first_iteration_general(params: SearchParams, v_init: float) -> tuple[float, float]:
    """Velocities after the first iteration from the common start (v, v):
    ((1 - 4 n2/N) v, (3 - 4 n2/N) v). Matches one ``iterate`` call."""
    ratio = 4.0 * params.n2 / params.n_total
    return (1.0 - ratio) * v_init, (3.0 - ratio) * v_init

