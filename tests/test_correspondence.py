"""Amplitude/velocity dictionary and the three-way residual check."""

from math import sqrt

import pytest
from hypothesis import given, strategies as st

from groversim import (
    ScenarioConfig,
    SearchParams,
    TwoLevelState,
    amplitudes_to_velocities,
    analogy_report,
    run_search,
    step,
    uniform_state,
    velocities_to_amplitudes,
    verify_analogy,
)

small_floats = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


def test_uniform_state_maps_to_common_speed():
    for params in (SearchParams(3, 1), SearchParams(50, 14)):
        u, v = amplitudes_to_velocities(uniform_state(params), params, 1.25)
        assert u == pytest.approx(1.25, abs=1e-15)
        assert v == pytest.approx(1.25, abs=1e-15)


def test_one_step_n8_maps_to_half_and_five_halves():
    params = SearchParams(7, 1)
    state = step(uniform_state(params), params)
    u, v = amplitudes_to_velocities(state, params, 1.0)
    assert u == pytest.approx(0.5, abs=1e-14)
    assert v == pytest.approx(2.5, abs=1e-14)


def test_certain_state_maps_to_full_transfer():
    u, v = amplitudes_to_velocities(TwoLevelState(0.0, 1.0), SearchParams(3, 1), 1.0)
    assert (u, v) == (0.0, 2.0)


def test_inverse_map_examples():
    params = SearchParams(3, 1)
    state = velocities_to_amplitudes(0.0, 2.0, params, 1.0)
    assert (state.a, state.b) == (0.0, 1.0)
    start = velocities_to_amplitudes(1.0, 1.0, params, 1.0)
    assert start.a == pytest.approx(0.5, abs=1e-16)
    assert start.b == pytest.approx(0.5, abs=1e-16)


def test_inverse_map_requires_positive_speed():
    with pytest.raises(ValueError):
        velocities_to_amplitudes(1.0, 1.0, SearchParams(3, 1), 0.0)


@given(small_floats, small_floats, st.floats(min_value=0.1, max_value=10.0))
def test_round_trip_is_identity(a, b, v_init):
    params = SearchParams(12, 3)
    u, v = amplitudes_to_velocities(TwoLevelState(a, b), params, v_init)
    back = velocities_to_amplitudes(u, v, params, v_init)
    assert back.a == pytest.approx(a, abs=1e-14)
    assert back.b == pytest.approx(b, abs=1e-14)


def test_verify_analogy_small_case():
    report = verify_analogy(SearchParams(3, 1), v_init=1.0, steps=3)
    assert report.statevector_included
    assert report.steps_checked == 3
    assert report.max_velocity_residual <= 1e-12
    assert report.max_probability_energy_residual <= 1e-12
    assert report.max_center_velocity_residual <= 1e-12


@pytest.mark.filterwarnings("ignore::groversim.ProtocolWarning")
def test_verify_analogy_large_case():
    n_total = 2**16
    report = verify_analogy(SearchParams(n_total - 1, 1), v_init=1.0, steps=4 * 2**8)
    assert report.statevector_included
    assert report.max_velocity_residual <= 1e-9
    assert report.max_probability_energy_residual <= 1e-9
    assert report.max_center_velocity_residual <= 1e-9


@pytest.mark.filterwarnings("ignore::groversim.ProtocolWarning")
def test_verify_analogy_holds_in_invalid_regime():
    report = verify_analogy(SearchParams(2, 2), v_init=1.0, steps=8)
    assert report.max_velocity_residual <= 1e-12
    assert report.max_probability_energy_residual <= 1e-12


def test_verify_analogy_skips_statevector_above_cap():
    report = verify_analogy(SearchParams(15, 1), v_init=1.0, steps=3, statevector_cap=8)
    assert not report.statevector_included
    assert report.max_velocity_residual <= 1e-12


def test_verify_analogy_rejects_zero_steps():
    with pytest.raises(ValueError):
        verify_analogy(SearchParams(3, 1), steps=0)


@pytest.mark.parametrize("count", [0, 1])
def test_analogy_report_needs_two_rows(count):
    rows = run_search(ScenarioConfig(n1=15, n2=1, iterations=0))[:count]
    with pytest.raises(ValueError, match="steps must be >= 1, got 0"):
        analogy_report(SearchParams(15, 1), 1.0, rows)


@pytest.mark.parametrize("cap", [2, 2**20])
def test_analogy_report_reads_rows_in_one_pass(cap):
    params = SearchParams(1021, 3)
    rows = run_search(ScenarioConfig(n1=1021, n2=3, v_init=1.7))
    report = analogy_report(params, 1.7, (row for row in rows), cap)
    assert report == analogy_report(params, 1.7, rows, cap)
    assert report == verify_analogy(params, 1.7, len(rows) - 1, cap)
    assert report.steps_checked == len(rows) - 1


def test_verify_analogy_scales_with_v_init():
    report = verify_analogy(SearchParams(31, 1), v_init=3.5, steps=10)
    assert report.max_velocity_residual <= 1e-12 * 3.5 * sqrt(32) * 10
    assert report.max_probability_energy_residual <= 1e-12
