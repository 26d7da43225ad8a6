"""Collision engine: conservation laws, worked cases, regimes."""

import math
from itertools import islice
from math import sqrt

import pytest
from hypothesis import given, strategies as st

from groversim import (
    Ball,
    CollisionCase,
    CollisionSystem,
    ProtocolWarning,
    Regime,
    SearchParams,
    center_of_mass_velocity,
    classify_case,
    closed_form_velocities,
    detect_regime,
    elastic_collide,
    first_iteration_general,
    from_params,
    iterate,
    obstacle_bounce,
    optimal_iterations,
)
from groversim.collisions import _rounds

masses = st.floats(min_value=1e-2, max_value=1e4, allow_nan=False, allow_infinity=False)
speeds = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


def textbook_collision(m1, m2, u, w):
    """Independent oracle: the standard mass-ratio solution."""
    total = m1 + m2
    return ((m1 - m2) * u + 2 * m2 * w) / total, (2 * m1 * u + (m2 - m1) * w) / total


# --- construction -----------------------------------------------------------

def test_ball_requires_positive_mass():
    with pytest.raises(ValueError):
        Ball(0.0, 1.0)
    with pytest.raises(ValueError):
        Ball(-2.0, 1.0)


def test_system_requires_positive_units():
    with pytest.raises(ValueError):
        CollisionSystem(Ball(1, 1), Ball(1, 1), v_init=0.0)
    with pytest.raises(ValueError):
        CollisionSystem(Ball(1, 1), Ball(1, 1), m_unit=-1.0)


def test_from_params_builds_unit_masses():
    system = from_params(SearchParams(7, 1), v_init=2.0, m_unit=0.5)
    assert system.ball1.mass == 3.5
    assert system.ball2.mass == 0.5
    assert system.ball1.velocity == 2.0
    assert system.ball2.velocity == 2.0
    assert system.iteration == 0


# --- center of mass and collision law ---------------------------------------

def test_center_of_mass_examples():
    assert center_of_mass_velocity(CollisionSystem(Ball(3, 1.0), Ball(1, -1.0))) == 0.5
    assert center_of_mass_velocity(CollisionSystem(Ball(5, 0.7), Ball(9, 0.7))) == pytest.approx(0.7)
    assert center_of_mass_velocity(CollisionSystem(Ball(2, 1.0), Ball(2, -1.0))) == 0.0


def test_elastic_collide_worked_cases():
    assert elastic_collide(7, 1, 1.0, -1.0) == (0.5, 2.5)
    assert elastic_collide(3, 1, 1.0, -1.0) == (0.0, 2.0)


@pytest.mark.parametrize("k", [1.0, 2.0, 11.5])
def test_equal_masses_swap_velocities(k):
    u, w = elastic_collide(k, k, 0.8, -0.3)
    assert u == pytest.approx(-0.3, abs=1e-15)
    assert w == pytest.approx(0.8, abs=1e-15)


def test_elastic_collide_requires_positive_masses():
    with pytest.raises(ValueError):
        elastic_collide(0, 1, 1.0, 1.0)


@given(masses, masses, speeds, speeds)
def test_collision_conserves_momentum_and_energy(m1, m2, u, w):
    u1, w1 = elastic_collide(m1, m2, u, w)
    p_before = m1 * u + m2 * w
    p_after = m1 * u1 + m2 * w1
    p_scale = m1 * abs(u) + m2 * abs(w) + 1e-30
    assert abs(p_after - p_before) <= 1e-12 * p_scale
    e_before = 0.5 * m1 * u * u + 0.5 * m2 * w * w
    e_after = 0.5 * m1 * u1 * u1 + 0.5 * m2 * w1 * w1
    assert abs(e_after - e_before) <= 1e-12 * (e_before + 1e-30)


@given(masses, masses, speeds, speeds)
def test_collision_is_center_frame_inversion(m1, m2, u, w):
    v_c = (m1 * u + m2 * w) / (m1 + m2)
    u1, w1 = elastic_collide(m1, m2, u, w)
    assert u1 == 2.0 * v_c - u
    assert w1 == 2.0 * v_c - w


@given(masses, masses, speeds, speeds)
def test_collision_matches_textbook_form(m1, m2, u, w):
    got = elastic_collide(m1, m2, u, w)
    want = textbook_collision(m1, m2, u, w)
    scale = abs(u) + abs(w) + 1.0
    assert got[0] == pytest.approx(want[0], abs=1e-12 * scale)
    assert got[1] == pytest.approx(want[1], abs=1e-12 * scale)


def test_obstacle_bounce():
    assert obstacle_bounce(Ball(2.0, 1.0)).velocity == -1.0
    assert obstacle_bounce(Ball(2.0, 0.0)).velocity == 0.0
    assert obstacle_bounce(Ball(2.0, -2.5)).velocity == 2.5
    ball = Ball(3.0, 1.7)
    assert obstacle_bounce(ball).kinetic_energy == ball.kinetic_energy


# --- case classification -----------------------------------------------------

def test_classify_case_examples():
    assert classify_case(0.5, 2.5) is CollisionCase.BOTH_RIGHTWARD
    assert classify_case(-0.25, 2.75) is CollisionCase.OPPOSITE
    assert classify_case(-1.0, -0.5) is CollisionCase.BOTH_LEFTWARD
    assert classify_case(0.0, 2.0) is CollisionCase.BOTH_RIGHTWARD  # u = 0 endpoint


def test_classify_case_flags_unexpected_quadrant():
    with pytest.warns(ProtocolWarning):
        label = classify_case(1.0, -1.0)
    assert label is CollisionCase.OPPOSITE


# --- the full iteration -------------------------------------------------------

def test_iterate_n8_worked_case_exact():
    system = from_params(SearchParams(7, 1))
    system, rec1 = iterate(system)
    assert (rec1.u, rec1.v) == (0.5, 2.5)
    assert rec1.n == 1
    assert rec1.case_label is CollisionCase.BOTH_RIGHTWARD
    system, rec2 = iterate(system)
    assert (rec2.u, rec2.v) == (-0.25, 2.75)
    assert rec2.n == 2
    assert rec2.case_label is CollisionCase.OPPOSITE
    assert system.iteration == 2


@pytest.mark.filterwarnings("ignore::groversim.ProtocolWarning")
def test_iterate_matches_recursion_matrix():
    params = SearchParams(5, 3)
    n = params.n_total
    system = from_params(params)
    u, v = 1.0, 1.0
    for _ in range(30):
        system, rec = iterate(system)
        u, v = (
            ((params.n1 - params.n2) * u - 2 * params.n2 * v) / n,
            (2 * params.n1 * u + (params.n1 - params.n2) * v) / n,
        )
        assert rec.u == pytest.approx(u, abs=1e-13)
        assert rec.v == pytest.approx(v, abs=1e-13)


@pytest.mark.filterwarnings("ignore::groversim.ProtocolWarning")
def test_equal_masses_cycle_with_period_four():
    system = from_params(SearchParams(4, 4))
    seen = []
    for _ in range(8):
        system, rec = iterate(system)
        seen.append((rec.u, rec.v))
    assert seen[:4] == [(-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (1.0, 1.0)]
    assert seen[4:] == seen[:4]


def test_equal_masses_warn_on_fourth_quadrant():
    system = from_params(SearchParams(4, 4))
    with pytest.warns(ProtocolWarning):
        for _ in range(3):
            system, _ = iterate(system)


@pytest.mark.filterwarnings("ignore::groversim.ProtocolWarning")
def test_iterate_conserves_energy():
    system = from_params(SearchParams(1000, 3))
    initial = system.total_energy
    for _ in range(200):
        system, _ = iterate(system)
        assert system.total_energy == pytest.approx(initial, rel=1e-12)


# Integer masses as a state vector's class sizes give them, and any positive
# floats; energy conservation bounds |m*u| by sqrt(m*E), so within these
# ranges every product and velocity stays finite.
round_masses = st.one_of(
    st.integers(min_value=1, max_value=2**52).map(float),
    st.floats(min_value=1e-150, max_value=1e150),
)
round_speeds = st.floats(min_value=-1e100, max_value=1e100)


@pytest.mark.filterwarnings("ignore::groversim.ProtocolWarning")
@given(round_masses, round_masses, round_speeds, round_speeds, st.integers(min_value=0, max_value=64))
def test_rounds_equal_iterate_bit_for_bit(m1, m2, u, v, count):
    # No tolerance: the loop that grover_iterate and the trajectory run must
    # give exactly the pairs of the public round.
    system = CollisionSystem(Ball(m1, u), Ball(m2, v))
    pairs = list(islice(_rounds(m1, m2, u, v), count))
    assert len(pairs) == count
    for pair in pairs:
        system, record = iterate(system)
        assert pair == (record.u, record.v)


# --- closed forms -------------------------------------------------------------

def test_closed_form_velocities_examples():
    u, v = closed_form_velocities(SearchParams(3, 1), 1.0, 1)
    assert u == pytest.approx(0.0, abs=1e-15)
    assert v == pytest.approx(2.0, abs=1e-15)
    u0, v0 = closed_form_velocities(SearchParams(3, 1), 1.7, 0)
    assert u0 == pytest.approx(1.7, abs=1e-15)
    assert v0 == pytest.approx(1.7, abs=1e-15)


def test_closed_form_velocities_match_two_iterations_n8():
    params = SearchParams(7, 1)
    system = from_params(params)
    for _ in range(2):
        system, rec = iterate(system)
    u, v = closed_form_velocities(params, 1.0, 2)
    assert u == pytest.approx(rec.u, abs=1e-13)
    assert v == pytest.approx(rec.v, abs=1e-13)
    assert u == pytest.approx(-0.25, abs=1e-13)
    assert v == pytest.approx(2.75, abs=1e-13)


def test_closed_form_velocities_reject_negative_count():
    with pytest.raises(ValueError):
        closed_form_velocities(SearchParams(3, 1), 1.0, -1)


@pytest.mark.filterwarnings("ignore::groversim.ProtocolWarning")
@pytest.mark.parametrize("n1,n2", [(2**10 - 1, 1), (2**20 - 1, 1), (60, 4)])
def test_closed_form_tracks_iteration(n1, n2):
    params = SearchParams(n1, n2)
    horizon = int(4 * sqrt(params.n_total / n2))
    system = from_params(params)
    for n in range(1, horizon + 1):
        system, rec = iterate(system)
    u, v = closed_form_velocities(params, 1.0, horizon)
    assert u == pytest.approx(rec.u, abs=1e-10)
    assert v == pytest.approx(rec.v, abs=1e-10)


def test_first_iteration_general_examples():
    assert first_iteration_general(SearchParams(7, 1), 1.0) == (0.5, 2.5)
    u, v = first_iteration_general(SearchParams(3, 1), 1.0)  # n2 = N/4
    assert (u, v) == (0.0, 2.0)
    u, v = first_iteration_general(SearchParams(2, 2), 1.0)
    assert (u, v) == (-1.0, 1.0)


def test_first_iteration_general_matches_iterate_exhaustively():
    for n_total in range(2, 33):
        for n2 in range(1, n_total):
            params = SearchParams(n_total - n2, n2)
            direct = first_iteration_general(params, 1.0)
            _, rec = iterate(from_params(params))
            assert direct[0] == pytest.approx(rec.u, abs=1e-13)
            assert direct[1] == pytest.approx(rec.v, abs=1e-13)


# --- growth law and scaling ---------------------------------------------------

def test_velocity_grows_by_two_per_iteration():
    n_total = 2**10
    params = SearchParams(n_total - 1, 1)
    system = from_params(params)
    for n in range(1, 4):  # n <= sqrt(N)/10
        system, rec = iterate(system)
        bound = (2 * n + 1) ** 3 / (6 * n_total)
        assert abs(rec.v - (2 * n + 1)) <= bound


@pytest.mark.filterwarnings("ignore::groversim.ProtocolWarning")
@pytest.mark.parametrize("k", [2.0, 3.0, 10.0])
@pytest.mark.parametrize("n1,n2", [(3, 1), (7, 1), (5, 3)])
def test_mass_scaling_leaves_trajectories_unchanged(k, n1, n2):
    params = SearchParams(n1, n2)
    base = from_params(params)
    scaled = from_params(params, m_unit=k)
    for _ in range(100):
        base, rec_base = iterate(base)
        scaled, rec_scaled = iterate(scaled)
        assert abs(rec_base.u - rec_scaled.u) <= 1e-13
        assert abs(rec_base.v - rec_scaled.v) <= 1e-13


def test_ball_two_captures_the_energy_at_the_optimum():
    for k in range(2, 13):
        n_total = 2**k
        params = SearchParams(n_total - 1, 1)
        n0 = optimal_iterations(params)
        system = from_params(params)
        for _ in range(n0):
            system, _ = iterate(system)
        fraction = system.ball2.kinetic_energy / system.total_energy
        assert fraction >= 1.0 - 1.0 / n_total


# --- regimes ------------------------------------------------------------------

def test_detect_regime_examples():
    assert detect_regime(SearchParams(1023, 1)) is Regime.EFFICIENT
    assert detect_regime(SearchParams(3, 1)) is Regime.BOUNDARY
    assert detect_regime(SearchParams(12, 4)) is Regime.BOUNDARY
    assert detect_regime(SearchParams(5, 3)) is Regime.INEFFICIENT
    assert detect_regime(SearchParams(4, 4)) is Regime.INVALID
    assert detect_regime(SearchParams(3, 5)) is Regime.INVALID
