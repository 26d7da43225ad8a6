"""Two-amplitude model: iteration matrix, spectral form, closed forms."""

import math
from dataclasses import astuple
from math import sqrt

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from groversim import (
    RegimeWarning,
    SearchParams,
    StateVector,
    THETA_APPROX,
    THETA_EXACT,
    TwoLevelState,
    build_matrix,
    closed_form,
    closed_form_velocities,
    detect_regime,
    grover_iterate,
    init_uniform,
    matrix_power,
    optimal_iterations,
    recursion_coefficients,
    rotation_angle,
    spectral_decompose,
    step,
    success_probability,
    uniform_state,
)
from groversim.twolevel import _optimal_count

params_strategy = st.builds(
    SearchParams,
    st.integers(min_value=1, max_value=4096),
    st.integers(min_value=1, max_value=4096),
)


# --- iteration matrix ---------------------------------------------------

def test_build_matrix_n4():
    entries = build_matrix(SearchParams(3, 1)).entries
    assert entries.tolist() == [[0.5, -0.5], [1.5, 0.5]]


def test_build_matrix_n8():
    entries = build_matrix(SearchParams(7, 1)).entries
    assert entries.tolist() == [[0.75, -0.25], [1.75, 0.75]]


@pytest.mark.parametrize("k", [1, 2, 7, 100])
def test_build_matrix_equal_counts_is_quarter_turn(k):
    entries = build_matrix(SearchParams(k, k)).entries
    assert entries.tolist() == [[0.0, -1.0], [1.0, 0.0]]


counts_of_every_magnitude = st.integers(min_value=0, max_value=1021).flatmap(
    lambda e: st.integers(min_value=2**e, max_value=2 ** (e + 1) - 1)
)


@given(counts_of_every_magnitude, counts_of_every_magnitude)
@example(1, 3 * 2**1021)  # 1/N is subnormal: doubling 1/N would round it twice
@example(3 * 2**1021, 1)
def test_recursion_coefficients_keep_the_value_of_doubling_the_count_first(n1, n2):
    # Every count here is below 2**1023, so doubling it first is finite.
    n = n1 + n2
    diag, c_a, c_b = recursion_coefficients(SearchParams(n1, n2))
    assert (diag, c_a, c_b) == ((n1 - n2) / n, 2.0 * n1 / n, 2.0 * n2 / n)


@pytest.mark.parametrize(
    "n1, n2",
    [(2**1023 - 1, 1), (1, 2**1023 - 1), (2**1023 - 2**969, 2**969)],
    ids=["n1-rounds-up", "n2-rounds-up", "both-large"],
)
def test_recursion_coefficients_stay_finite_at_two_to_the_1023(n1, n2):
    # float(2**1023 - 1) is 2**1023: doubling it first overflowed to inf.
    coefficients = recursion_coefficients(SearchParams(n1, n2))
    assert all(math.isfinite(c) for c in coefficients)
    assert coefficients[1] + coefficients[2] == 2.0


@given(params_strategy)
def test_matrix_determinant_is_one(params):
    entries = build_matrix(params).entries
    det = entries[0, 0] * entries[1, 1] - entries[0, 1] * entries[1, 0]
    assert abs(det - 1.0) <= 1e-14


# --- recursion step -------------------------------------------------------

def test_step_n8_first_and_second():
    params = SearchParams(7, 1)
    s0 = uniform_state(params)
    s1 = step(s0, params)
    assert s1.a == pytest.approx((1 / 2) / sqrt(8), abs=1e-15)
    assert s1.b == pytest.approx((5 / 2) / sqrt(8), abs=1e-15)
    s2 = step(s1, params)
    assert s2.a == pytest.approx((-1 / 4) / sqrt(8), abs=1e-15)
    assert s2.b == pytest.approx((11 / 4) / sqrt(8), abs=1e-15)


def test_step_equal_counts_rotates_quarter_turn():
    params = SearchParams(5, 5)
    out = step(TwoLevelState(0.3, -0.2), params)
    assert (out.a, out.b) == (0.2, 0.3)


@given(
    params_strategy,
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-1.0, max_value=1.0),
)
def test_step_matches_matrix_multiplication(params, a, b):
    entries = build_matrix(params).entries
    expected = entries @ np.array([a, b])
    got = step(TwoLevelState(a, b), params)
    assert got.a == pytest.approx(expected[0], abs=1e-15)
    assert got.b == pytest.approx(expected[1], abs=1e-15)


@given(
    params_strategy,
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-1.0, max_value=1.0),
)
def test_step_preserves_weighted_quadratic_form(params, a, b):
    out = step(TwoLevelState(a, b), params)
    before = params.n1 * a * a + params.n2 * b * b
    after = params.n1 * out.a * out.a + params.n2 * out.b * out.b
    assert after == pytest.approx(before, abs=1e-12 * max(1.0, before))


@given(
    params_strategy,
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-1.0, max_value=1.0),
)
def test_step_preserves_weighted_sum_through_sign_flip(params, a, b):
    """The step equals the conservation pair: sum n1*a' + n2*b' matches the
    pre-collision weighted sum n1*a - n2*b."""
    out = step(TwoLevelState(a, b), params)
    assert params.n1 * out.a + params.n2 * out.b == pytest.approx(
        params.n1 * a - params.n2 * b, abs=1e-12 * (params.n1 + params.n2)
    )


# --- spectral decomposition ----------------------------------------------

def test_spectral_n4_values():
    spec = spectral_decompose(SearchParams(3, 1))
    assert spec.lambda_plus == pytest.approx(complex(0.5, sqrt(3) / 2), abs=1e-15)
    assert spec.lambda_minus == pytest.approx(complex(0.5, -sqrt(3) / 2), abs=1e-15)
    assert spec.theta == pytest.approx(math.pi / 6, abs=1e-15)


def test_spectral_equal_counts():
    spec = spectral_decompose(SearchParams(4, 4))
    assert spec.lambda_plus == pytest.approx(1j, abs=1e-15)
    assert spec.lambda_minus == pytest.approx(-1j, abs=1e-15)
    assert spec.theta == pytest.approx(math.pi / 4, abs=1e-15)


@given(params_strategy)
def test_spectral_invariants(params):
    spec = spectral_decompose(params)
    assert abs(abs(spec.lambda_plus) - 1.0) <= 1e-14
    assert abs(abs(spec.lambda_minus) - 1.0) <= 1e-14
    identity = spec.s_matrix @ spec.s_inverse
    assert np.abs(identity - np.eye(2)).max() <= 1e-13
    # eigenvalues lie at exp(+/- 2i*theta)
    assert spec.lambda_plus == pytest.approx(
        complex(math.cos(2 * spec.theta), math.sin(2 * spec.theta)), abs=1e-14
    )


@given(params_strategy)
def test_spectral_diagonalises_the_matrix(params):
    spec = spectral_decompose(params)
    t = build_matrix(params).entries.astype(complex)
    diag = spec.s_inverse @ t @ spec.s_matrix
    assert abs(diag[0, 0] - spec.lambda_plus) <= 1e-13
    assert abs(diag[1, 1] - spec.lambda_minus) <= 1e-13
    assert abs(diag[0, 1]) <= 1e-13
    assert abs(diag[1, 0]) <= 1e-13


# --- matrix powers ---------------------------------------------------------

def test_matrix_power_zero_is_identity():
    assert matrix_power(SearchParams(3, 1), 0).tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_matrix_power_one_matches_matrix():
    for params in (SearchParams(3, 1), SearchParams(7, 1), SearchParams(5, 3)):
        assert np.abs(
            matrix_power(params, 1) - build_matrix(params).entries
        ).max() <= 1e-13


def test_matrix_power_rejects_negative():
    with pytest.raises(ValueError):
        matrix_power(SearchParams(3, 1), -1)


@pytest.mark.parametrize("count", [2.0, 2.5, np.int64(2)], ids=["2.0", "2.5", "int64"])
@pytest.mark.parametrize(
    "engine",
    ["closed_form", "success_probability", "velocities", "iterate-uniform", "iterate-vector"],
)
def test_iteration_counts_are_integers(engine, count):
    # A count that is not an integer lies on no trajectory, so every engine
    # refuses it as matrix_power does; an integer of another type gives the
    # result of the int, bit for bit.
    params = SearchParams(15, 1)
    run = {
        "closed_form": lambda n: astuple(closed_form(params, n)),
        "success_probability": lambda n: success_probability(params, n),
        "velocities": lambda n: closed_form_velocities(params, 1.5, n),
        "iterate-uniform": lambda n: grover_iterate(init_uniform(params, [3]), n).amplitudes,
        "iterate-vector": lambda n: grover_iterate(StateVector(np.full(16, 0.25), [3]), n).amplitudes,
    }[engine]
    if isinstance(count, float):
        with pytest.raises(TypeError):
            run(count)
    else:
        assert np.asarray(run(count)).tobytes() == np.asarray(run(2)).tobytes()


def test_matrix_power_three_matches_repeated_multiplication_n16():
    params = SearchParams(15, 1)
    t = build_matrix(params).entries
    assert np.abs(matrix_power(params, 3) - t @ t @ t).max() <= 1e-12


def test_matrix_power_matches_trig_form():
    params = SearchParams(11, 2)
    theta = rotation_angle(params)
    for n in (0, 1, 5, 40):
        phi = 2 * n * theta
        expected = np.array(
            [
                [math.cos(phi), -sqrt(params.n2 / params.n1) * math.sin(phi)],
                [sqrt(params.n1 / params.n2) * math.sin(phi), math.cos(phi)],
            ]
        )
        assert np.abs(matrix_power(params, n) - expected).max() <= 1e-14


@pytest.mark.parametrize("n1,n2", [(3, 1), (63, 1), (12, 5), (9, 9)])
def test_matrix_power_tracks_repeated_multiplication(n1, n2):
    params = SearchParams(n1, n2)
    t = build_matrix(params).entries
    product = np.eye(2)
    for n in range(1, 1001):
        product = t @ product
        power = matrix_power(params, n)
        scale = max(1.0, float(np.abs(product).max()))
        assert np.abs(power - product).max() <= 1e-12 * scale


# --- closed forms ----------------------------------------------------------

def test_closed_form_zero_reproduces_uniform_start():
    for params in (SearchParams(3, 1), SearchParams(100, 27)):
        start = closed_form(params, 0)
        amp = 1.0 / sqrt(params.n_total)
        assert start.a == pytest.approx(amp, abs=1e-15)
        assert start.b == pytest.approx(amp, abs=1e-15)


def test_closed_form_n4_one_iteration_is_certain():
    state = closed_form(SearchParams(3, 1), 1)
    assert state.a == pytest.approx(0.0, abs=1e-15)
    assert state.b == pytest.approx(1.0, abs=1e-15)


def test_closed_form_matches_two_steps_n8():
    params = SearchParams(7, 1)
    direct = closed_form(params, 2)
    stepped = step(step(uniform_state(params), params), params)
    assert direct.a == pytest.approx(stepped.a, abs=1e-14)
    assert direct.b == pytest.approx(stepped.b, abs=1e-14)
    assert direct.a == pytest.approx(-0.08838834764831843, abs=1e-14)
    assert direct.b == pytest.approx(0.9722718241315027, abs=1e-14)


@pytest.mark.parametrize(
    "n1,n2",
    [(2**10 - 1, 1), (2**16 - 2, 2), (2**20 - 1, 1), (48, 16)],
)
def test_closed_form_tracks_recursion(n1, n2):
    params = SearchParams(n1, n2)
    horizon = int(4 * sqrt(params.n_total / n2))
    state = uniform_state(params)
    for n in range(1, horizon + 1):
        state = step(state, params)
    direct = closed_form(params, horizon)
    assert direct.a == pytest.approx(state.a, abs=1e-10)
    assert direct.b == pytest.approx(state.b, abs=1e-10)


def test_closed_form_rejects_negative():
    with pytest.raises(ValueError):
        closed_form(SearchParams(3, 1), -2)


# --- success probability and optimal count ---------------------------------

def test_success_probability_examples():
    assert success_probability(SearchParams(3, 1), 1) == pytest.approx(1.0, abs=1e-15)
    assert success_probability(SearchParams(3, 1), 0) == pytest.approx(0.25, abs=1e-15)
    assert success_probability(SearchParams(15, 1), 3) == pytest.approx(
        0.9613189697265625, abs=1e-12
    )


@given(params_strategy, st.integers(min_value=0, max_value=500))
def test_success_probability_equals_sine_squared(params, n):
    phi = (2 * n + 1) * rotation_angle(params)
    assert success_probability(params, n) == pytest.approx(
        math.sin(phi) ** 2, abs=1e-12
    )


@given(
    st.integers(min_value=1, max_value=2**1000),
    st.integers(min_value=1, max_value=2**1000),
    st.sampled_from([THETA_EXACT, THETA_APPROX]),
)
@example(1, 2**1000, THETA_EXACT)  # theta is pi/2: the argument is exactly 0.0
@example(1, 2**1000, THETA_APPROX)
def test_optimal_count_needs_no_clamp(n1, n2, theta_mode):
    theta = rotation_angle(SearchParams(n1, n2), theta_mode)
    count = _optimal_count(SearchParams(n1, n2), theta_mode)
    assert count == round(math.pi / (4.0 * theta) - 0.5)
    assert count >= 0


def test_optimal_iterations_small_cases():
    assert optimal_iterations(SearchParams(3, 1)) == 1
    assert optimal_iterations(SearchParams(15, 1)) == 3


@pytest.mark.parametrize("n_total", [4, 16, 64, 256])
def test_quarter_marked_needs_exactly_one_iteration(n_total):
    params = SearchParams(n_total - n_total // 4, n_total // 4)
    assert optimal_iterations(params) == 1
    assert success_probability(params, 1) == 1.0


def test_equal_counts_round_half_to_even_gives_zero():
    with pytest.warns(RegimeWarning):
        assert optimal_iterations(SearchParams(6, 6)) == 0


def test_optimal_iterations_warns_only_above_quarter():
    import warnings as _warnings

    with pytest.warns(RegimeWarning):
        optimal_iterations(SearchParams(2, 2))
    # N=4 with n2=3, and N=8 with n2=3 > 2: the warning names the regime.
    for params, regime in ((SearchParams(1, 3), "invalid"), (SearchParams(5, 3), "inefficient")):
        with pytest.warns(RegimeWarning) as caught:
            optimal_iterations(params)
        assert detect_regime(params).value == regime
        assert str(caught[0].message).startswith(f"{regime} regime:")
    with _warnings.catch_warnings():
        _warnings.simplefilter("error")
        optimal_iterations(SearchParams(15, 1))
        optimal_iterations(SearchParams(3, 1))  # boundary n2 = N/4: no warning


def test_optimum_beats_neighbours_and_error_bound():
    for k in range(2, 17):
        n_total = 2**k
        params = SearchParams(n_total - 1, 1)
        n0 = optimal_iterations(params)
        p0 = success_probability(params, n0)
        assert p0 >= 1.0 - 1.0 / n_total
        assert p0 >= success_probability(params, n0 + 1)
        if n0 >= 1:
            assert p0 >= success_probability(params, n0 - 1)


# --- angle modes -------------------------------------------------------------

def test_rotation_angle_modes():
    params = SearchParams(15, 1)
    assert rotation_angle(params, THETA_EXACT) == pytest.approx(math.asin(0.25), abs=5e-16)
    assert rotation_angle(params, THETA_APPROX) == 0.25
    with pytest.raises(ValueError):
        rotation_angle(params, "fancy")


def test_rotation_angle_stays_accurate_near_half_pi():
    # arcsin(sqrt(n2/N)) is ill-conditioned for n2 >> n1; the atan2 form
    # must stay within a few ulps of the true angle there.
    import mpmath

    mpmath.mp.dps = 40
    for n1, n2 in ((5, 700), (1, 1024), (3, 997)):
        exact = float(mpmath.asin(mpmath.sqrt(mpmath.mpf(n2) / (n1 + n2))))
        got = rotation_angle(SearchParams(n1, n2))
        assert abs(got - exact) <= 4e-16


def test_small_angle_gap_is_cubically_small():
    for k in range(2, 21):
        n_total = 2**k
        x = 1.0 / sqrt(n_total)
        assert abs(math.asin(x) - x) <= x**3
