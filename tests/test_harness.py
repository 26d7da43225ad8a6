"""Scenario configs, trajectory/sweep assembly, CSV formatting."""

import math
import re
import sys
from dataclasses import replace

import pytest

from groversim import (
    CollisionCase,
    ConfigError,
    ProtocolWarning,
    ScenarioConfig,
    SearchParams,
    amplitudes_to_velocities,
    classify_case,
    detect_regime,
    from_params,
    iterate,
    run_search,
    run_sweep,
    step,
    uniform_state,
    velocities_to_amplitudes,
    verify_analogy,
)
from groversim.harness import (
    _CASE_LABELS,
    ENGINE_ANALYTIC,
    ENGINE_BOTH,
    ENGINE_COLLISION,
    Plan,
    SWEEP_HEADER,
    TRAJECTORY_HEADER,
    TrajectoryRow,
    build_config,
    coerce_config_values,
    emit_csv,
    format_sweep_csv,
    format_trajectory_csv,
    load_scenario,
    run_compare,
)


# --- config resolution --------------------------------------------------------

def test_counts_route():
    config = ScenarioConfig(n1=7, n2=1)
    assert config.resolved_params() == SearchParams(7, 1)


def test_log2_route_defaults_to_one_marked():
    config = ScenarioConfig(log2_n=4)
    assert config.resolved_params() == SearchParams(15, 1)


def test_log2_route_with_marked_count():
    config = ScenarioConfig(log2_n=3, marked_count=2)
    assert config.resolved_params() == SearchParams(6, 2)


def test_both_routes_must_agree():
    ok = ScenarioConfig(n1=15, n2=1, log2_n=4, marked_count=1)
    assert ok.resolved_params() == SearchParams(15, 1)
    with pytest.raises(ConfigError):
        ScenarioConfig(n1=3, n2=1, log2_n=4).resolved_params()


def test_missing_or_partial_sizing_fails():
    with pytest.raises(ConfigError):
        ScenarioConfig().resolved_params()
    with pytest.raises(ConfigError):
        ScenarioConfig(n1=3).resolved_params()
    with pytest.raises(ConfigError):
        ScenarioConfig(log2_n=2, marked_count=4).resolved_params()
    # A lone n1 or n2 is refused even where log2_n sizes the instance.
    for config in (ScenarioConfig(log2_n=4, n2=3), ScenarioConfig(log2_n=4, n1=7)):
        with pytest.raises(ConfigError, match="n1 and n2 must be given together"):
            config.resolved_params()


def test_sizes_past_the_float_range_are_rejected():
    largest = int(sys.float_info.max)
    assert ScenarioConfig(log2_n=1023).resolved_params().n_total == 2**1023
    assert ScenarioConfig(n1=largest - 1, n2=1).resolved_params().n_total == largest
    for config in (
        ScenarioConfig(log2_n=1024),
        ScenarioConfig(log2_n=10**12),  # rejected before 2**log2_n is computed
        ScenarioConfig(n1=largest, n2=1),
    ):
        with pytest.raises(ConfigError):
            config.resolved_params()
    assert run_sweep(1021, 1023, 1)[-1].n_total == 2**1023
    with pytest.raises(ConfigError, match="n_max_log2"):
        run_sweep(1, 1024, 1)


def test_validate_rejects_bad_values():
    with pytest.raises(ConfigError):
        ScenarioConfig(n1=3, n2=1, v_init=0.0).validate()
    with pytest.raises(ConfigError):
        ScenarioConfig(n1=3, n2=1, iterations="sometimes").validate()
    with pytest.raises(ConfigError):
        ScenarioConfig(n1=3, n2=1, iterations=-2).validate()
    with pytest.raises(ConfigError):
        ScenarioConfig(n1=3, n2=1, theta_mode="guess").validate()
    with pytest.raises(ConfigError, match="unknown key 'format'"):
        coerce_config_values({"format": "csv"}, source="test")


def test_auto_iterations_resolve_without_warning_noise(monkeypatch):
    import warnings

    config = ScenarioConfig(n1=2, n2=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert config.validate().iterations == 0
    config = ScenarioConfig(n1=15, n2=1)
    assert config.validate().iterations == 3

    # The count is taken without the warning, not by muting it: the
    # process-wide filter list is left alone.
    def no_catch_warnings(*args, **kwargs):
        raise AssertionError("warnings.catch_warnings was called")

    with monkeypatch.context() as patched:
        patched.setattr(warnings, "catch_warnings", no_catch_warnings)
        config = ScenarioConfig(n1=1, n2=3)
        assert config.validate().iterations == 0
        rows = run_sweep(1, 3, 1)
        assert [row.regime for row in rows] == ["invalid", "boundary", "efficient"]

    # At most 2**20 rows, checked before any row is built.
    config = ScenarioConfig(n1=3, n2=1, iterations=2**20 - 1)
    assert config.validate().iterations == 2**20 - 1

    def no_rows(*args, **kwargs):
        raise AssertionError("rows were built")

    monkeypatch.setattr("groversim.harness._trajectory", no_rows)
    with pytest.raises(ConfigError, match="iterations=1048576 would give more than the limit"):
        run_search(replace(config, iterations=2**20))


def test_coerce_and_build_config():
    values = coerce_config_values(
        {"n1": "7", "n2": "1", "v-init": "2.0", "theta-mode": "paper-approx", "iterations": "4"},
        source="test",
    )
    config = build_config(values)
    assert config.n1 == 7
    assert config.v_init == 2.0
    assert config.theta_mode == "paper"
    assert config.iterations == 4
    with pytest.raises(ConfigError):
        coerce_config_values({"volume": "11"}, source="test")
    with pytest.raises(ConfigError):
        coerce_config_values({"n1": "three"}, source="test")


def test_load_scenario(tmp_path):
    path = tmp_path / "demo.cfg"
    path.write_text(
        """
        # demo instance
        n1 = 7
        n2 = 1
        iterations = auto   # resolves to the optimum
        v_init = 1.0
        """
    )
    values = load_scenario(path)
    assert values == {"n1": 7, "n2": 1, "iterations": "auto", "v_init": 1.0}
    config = build_config(values, {"iterations": 2})
    assert config.iterations == 2  # CLI-style override wins
    # A UTF-8 byte-order mark, as Windows editors write it, is dropped.
    path.write_bytes(b"\xef\xbb\xbfn1=7\nn2=1\n")
    assert load_scenario(path) == {"n1": 7, "n2": 1}


def test_load_scenario_rejects_bad_lines(tmp_path):
    path = tmp_path / "broken.cfg"
    path.write_text("n1: 3\n")
    with pytest.raises(ConfigError):
        load_scenario(path)
    with pytest.raises(ConfigError):
        load_scenario(tmp_path / "missing.cfg")
    path.write_bytes(b"\xff\xfe n1=3\n")
    with pytest.raises(ConfigError, match="cannot read scenario file"):
        load_scenario(path)


# --- trajectories ---------------------------------------------------------------

def test_run_search_n4_auto():
    rows = run_search(ScenarioConfig(n1=3, n2=1))
    assert len(rows) == 2
    assert rows[0].n == 0
    assert rows[0].p_marked == 0.25
    assert rows[1].p_marked == 1.0
    assert rows[1].u_n == 0.0
    assert rows[1].v_n == 2.0
    assert rows[1].regime == "boundary"
    assert rows[1].case_label == "both-rightward"


def test_run_search_n8_two_iterations():
    rows = run_search(ScenarioConfig(n1=7, n2=1, iterations=2))
    final = rows[-1]
    assert (final.u_n, final.v_n) == (-0.25, 2.75)
    assert final.case_label == "opposite"


def test_run_search_n16_auto():
    rows = run_search(ScenarioConfig(n1=15, n2=1))
    assert len(rows) == 4  # auto resolves to three iterations
    assert rows[-1].p_marked == pytest.approx(0.9613189697265625, abs=1e-12)


@pytest.mark.parametrize("engine", [ENGINE_ANALYTIC, ENGINE_COLLISION, ENGINE_BOTH])
def test_engines_agree(engine):
    rows = run_search(ScenarioConfig(n1=31, n2=1, iterations=8), engine=engine)
    reference = run_search(ScenarioConfig(n1=31, n2=1, iterations=8), engine=ENGINE_BOTH)
    for row, ref in zip(rows, reference):
        assert row.a_n == pytest.approx(ref.a_n, abs=1e-12)
        assert row.b_n == pytest.approx(ref.b_n, abs=1e-12)
        assert row.u_n == pytest.approx(ref.u_n, abs=1e-12)
        assert row.v_n == pytest.approx(ref.v_n, abs=1e-12)


@pytest.mark.filterwarnings("ignore::groversim.ProtocolWarning")
def test_row_invariants():
    rows = run_search(ScenarioConfig(n1=12, n2=4, iterations=6))
    for row in rows:
        assert row.p_marked == pytest.approx(4 * row.b_n**2, abs=1e-12)
        assert -1e-12 <= row.energy_fraction_ball2 <= 1.0 + 1e-12
        assert row.regime == "boundary"


def test_row_fields_are_the_csv_columns():
    assert ",".join(TrajectoryRow._fields) == TRAJECTORY_HEADER


def test_rows_are_immutable_and_built_by_keyword_or_position():
    values = (3, 0.25, -0.5, 0.75, 1.5, -2.0, 0.5, "opposite", "efficient")
    row = TrajectoryRow(*values)
    assert row == TrajectoryRow(**dict(zip(TrajectoryRow._fields, values)))
    assert hash(row) == hash(TrajectoryRow(*values))
    assert row.case_label == "opposite" and row.v_n == -2.0
    with pytest.raises(AttributeError):
        row.a_n = 1.0


def test_case_label_table_covers_every_collision_case():
    assert _CASE_LABELS == {case: case.value for case in CollisionCase}


def test_run_search_rejects_unknown_engine():
    with pytest.raises(ConfigError):
        run_search(ScenarioConfig(n1=3, n2=1), engine="quantum")


def reference_rows(config, engine):
    """run_search rebuilt from the public per-step functions."""
    params = config.resolved_params()
    iterations = config.validate().iterations
    v_init = config.v_init
    two = uniform_state(params)
    system = from_params(params, v_init)
    total_energy = 0.5 * (system.ball1.mass + system.ball2.mass) * v_init * v_init
    rows = []
    for n in range(iterations + 1):
        if n > 0:
            if engine != ENGINE_COLLISION:
                two = step(two, params)
            if engine != ENGINE_ANALYTIC:
                system, _ = iterate(system)
        if engine == ENGINE_ANALYTIC:
            a, b = two.a, two.b
            u, v = amplitudes_to_velocities(two, params, v_init)
        elif engine == ENGINE_COLLISION:
            u, v = system.ball1.velocity, system.ball2.velocity
            mapped = velocities_to_amplitudes(u, v, params, v_init)
            a, b = mapped.a, mapped.b
        else:
            a, b = two.a, two.b
            u, v = system.ball1.velocity, system.ball2.velocity
        rows.append(
            TrajectoryRow(
                n=n,
                a_n=a,
                b_n=b,
                p_marked=params.n2 * b * b,
                u_n=u,
                v_n=v,
                energy_fraction_ball2=(0.5 * params.n2 * v * v) / total_energy,
                case_label=classify_case(u, v).value,
                regime=detect_regime(params).value,
            )
        )
    return rows


REFERENCE_CONFIGS = [
    ScenarioConfig(log2_n=12, marked_count=3, v_init=1.7),  # efficient
    ScenarioConfig(n1=4095, n2=1, iterations=120, v_init=0.37),  # efficient, over-rotated
    ScenarioConfig(n1=768, n2=256, iterations=9, v_init=2.5),  # boundary
    ScenarioConfig(n1=600, n2=424, iterations=17),  # inefficient
    ScenarioConfig(n1=1000, n2=2, theta_mode="paper", v_init=3.1),
    ScenarioConfig(n1=5, n2=5, iterations=23, v_init=0.8),  # equal masses
    ScenarioConfig(n1=2**60 + 1, n2=3, iterations=5, v_init=1.3),  # float(n1) rounds
]


@pytest.mark.filterwarnings("ignore::groversim.ProtocolWarning")
@pytest.mark.parametrize("engine", [ENGINE_ANALYTIC, ENGINE_COLLISION, ENGINE_BOTH])
@pytest.mark.parametrize("config", REFERENCE_CONFIGS, ids=lambda c: f"{c.n1}-{c.n2}-{c.log2_n}")
def test_run_search_matches_the_per_step_reference(config, engine):
    assert run_search(config, engine=engine) == reference_rows(config, engine)


def test_equal_masses_warn_through_run_search():
    with pytest.warns(ProtocolWarning):
        run_search(ScenarioConfig(n1=5, n2=5, iterations=8), engine=ENGINE_COLLISION)


@pytest.mark.filterwarnings("ignore::groversim.ProtocolWarning")
@pytest.mark.parametrize("cap", [2, 2**20])
@pytest.mark.parametrize(
    "config",
    [
        ScenarioConfig(n1=1023, n2=1, v_init=1.3),
        ScenarioConfig(n1=768, n2=256, iterations=0),
        ScenarioConfig(n1=600, n2=424, iterations=5, theta_mode="paper"),
        ScenarioConfig(n1=7, n2=7, iterations=12, v_init=2.25),
    ],
    ids=lambda c: f"{c.n1}-{c.n2}",
)
def test_run_compare_report_equals_verify_analogy(config, cap):
    config = replace(config, statevector_cap=cap)
    rows, report = run_compare(config)
    params = config.resolved_params()
    iterations = config.validate().iterations
    assert len(rows) == iterations + 1
    assert rows == run_search(config, engine=ENGINE_BOTH)
    assert report.statevector_included == (params.n_total <= cap)
    assert report == verify_analogy(params, config.v_init, max(1, iterations), cap)


@pytest.mark.filterwarnings("ignore::groversim.ProtocolWarning")
@pytest.mark.parametrize("config", REFERENCE_CONFIGS, ids=lambda c: f"{c.n1}-{c.n2}-{c.log2_n}")
def test_a_plan_runs_as_its_config(config):
    plan = config.validate()
    assert isinstance(plan, Plan)
    assert plan.params == config.resolved_params()
    for engine in (ENGINE_ANALYTIC, ENGINE_COLLISION, ENGINE_BOTH):
        assert run_search(plan, engine=engine) == run_search(config, engine=engine)
    assert run_compare(plan) == run_compare(config)


@pytest.mark.parametrize(
    "config",
    [
        ScenarioConfig(n1=3),
        ScenarioConfig(n1=3, n2=1, v_init=0.0),
        ScenarioConfig(log2_n=4, v_init=float("inf")),
        ScenarioConfig(log2_n=40, marked_count=1, iterations=2**20),
        ScenarioConfig(log2_n=1000),
    ],
    ids=["unpaired", "v_init", "energy", "iterations-past-row-limit", "auto-past-row-limit"],
)
def test_an_invalid_config_fails_alike_at_every_entry(config):
    with pytest.raises(ConfigError) as from_validate:
        config.validate()
    for run in (run_search, run_compare):
        with pytest.raises(ConfigError) as from_run:
            run(config)
        assert str(from_run.value) == str(from_validate.value)


@pytest.mark.parametrize(
    "values, message",
    [
        ({"iterations": 2**30}, "iterations=1073741824 would give more than the limit of 1048576"),
        ({"iterations": -1}, "iterations must be >= 0, got -1"),
        ({"v_init": float("nan")}, "v_init must be positive, got nan"),
        ({"v_init": 1e200}, "outside the normal float range"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"statevector_cap": 1}, "statevector_cap must be >= 2, got 1"),
        ({"params": SearchParams(2**1100, 1)}, "N = n1 + n2 must not exceed the largest float"),
    ],
    ids=[
        "past-row-limit", "negative-iterations", "nan-speed", "energy", "seed", "cap",
        "n-past-float",
    ],
)
def test_a_hand_built_plan_is_checked_before_any_row(monkeypatch, values, message):
    def no_rows(*args, **kwargs):
        raise AssertionError("rows were built")

    monkeypatch.setattr("groversim.harness._trajectory", no_rows)
    good = {"params": SearchParams(3, 1), "iterations": 2, "v_init": 1.0, "seed": 0,
            "statevector_cap": 2, "output": None}
    for run in (run_search, run_compare):
        with pytest.raises(ConfigError, match=re.escape(message)):
            run(Plan(**{**good, **values}))


def test_run_compare_runs_each_recursion_once(monkeypatch):
    import groversim.correspondence as correspondence

    def second_pass(*args, **kwargs):
        raise AssertionError("the report re-ran a recursion")

    monkeypatch.setattr(correspondence, "step", second_pass)
    monkeypatch.setattr(correspondence, "iterate", second_pass)
    rows, report = run_compare(ScenarioConfig(log2_n=24, marked_count=3, v_init=1.3))
    assert report.steps_checked == len(rows) - 1
    assert not report.statevector_included


def test_run_compare_reports_residuals():
    rows, report = run_compare(ScenarioConfig(n1=15, n2=1))
    assert len(rows) == 4
    assert report.steps_checked == 3
    assert report.statevector_included
    assert report.max_velocity_residual <= 1e-12


# --- sweeps ----------------------------------------------------------------------

def test_sweep_rows_hit_the_success_floor():
    rows = run_sweep(2, 10, 1, ScenarioConfig())
    assert [row.n_total for row in rows] == [2**k for k in range(2, 11)]
    for row in rows:
        assert row.p_at_n0 >= 1.0 - 1.0 / row.n_total


def test_sweep_first_row_n4():
    row = run_sweep(2, 2, 1, ScenarioConfig())[0]
    assert (row.n_total, row.n0, row.p_at_n0, row.regime) == (4, 1, 1.0, "boundary")


def test_sweep_flags_invalid_sizes():
    rows = run_sweep(2, 3, 2, ScenarioConfig())
    assert rows[0].regime == "invalid"     # N=4, n2=2
    assert rows[1].regime == "boundary"    # N=8, n2=2


def test_sweep_validates_range():
    with pytest.raises(ConfigError):
        run_sweep(5, 3, 1, ScenarioConfig())
    with pytest.raises(ConfigError):
        run_sweep(2, 4, 4, ScenarioConfig())


# --- CSV -------------------------------------------------------------------------

def test_trajectory_csv_header_and_shape():
    rows = run_search(ScenarioConfig(n1=3, n2=1))
    text = format_trajectory_csv(rows)
    lines = text.splitlines()
    assert lines[0] == TRAJECTORY_HEADER
    assert len(lines) == 3
    assert text.endswith("\n")
    assert "1.0" in lines[2]  # p_marked rendered losslessly


def test_empty_rows_gives_header_only():
    assert format_trajectory_csv([]) == TRAJECTORY_HEADER + "\n"


def test_csv_round_trips_exact_doubles():
    rows = run_search(ScenarioConfig(n1=46, n2=3, iterations=5))
    lines = format_trajectory_csv(rows).splitlines()[1:]
    for row, line in zip(rows, lines):
        fields = line.split(",")
        assert int(fields[0]) == row.n
        assert float(fields[1]) == row.a_n
        assert float(fields[2]) == row.b_n
        assert float(fields[3]) == row.p_marked
        assert float(fields[4]) == row.u_n
        assert float(fields[5]) == row.v_n
        assert float(fields[6]) == row.energy_fraction_ball2
        assert fields[7] == row.case_label
        assert fields[8] == row.regime


def test_emit_csv_writes_file(tmp_path):
    rows = run_search(ScenarioConfig(n1=3, n2=1))
    out = tmp_path / "run.csv"
    emit_csv(rows, out)
    assert out.read_text().splitlines()[0] == TRAJECTORY_HEADER


def test_sweep_csv_header():
    text = format_sweep_csv(run_sweep(2, 4, 1, ScenarioConfig()))
    assert text.splitlines()[0] == SWEEP_HEADER


def test_identical_configs_give_identical_bytes():
    a = format_trajectory_csv(run_search(ScenarioConfig(n1=511, n2=2, iterations=12)))
    b = format_trajectory_csv(run_search(ScenarioConfig(n1=511, n2=2, iterations=12)))
    assert a == b
