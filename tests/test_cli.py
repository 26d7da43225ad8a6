"""CLI surface: subcommands, scenario files, exit codes."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import groversim
from groversim.cli import main
from groversim.harness import TRAJECTORY_HEADER, ScenarioConfig


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_search_to_stdout(capsys):
    code, out, err = run_cli(capsys, "search", "--n1", "3", "--n2", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == TRAJECTORY_HEADER
    assert len(lines) == 3  # auto resolves to one iteration


def test_search_with_draws_appends_sample_comments(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--n1", "3", "--n2", "1", "--seed", "5", "--draws", "100"
    )
    assert code == 0
    assert "# sample_draws=100 seed=5 iterations=1" in out
    # one iteration at N=4 is deterministic: every draw lands on the marked index
    assert "# sample index=0 count=100" in out


def test_search_with_draws_at_the_statevector_cap(capsys):
    code, out, err = run_cli(capsys, "search", "--log2-n", "20", "--draws", "10")
    assert code == 0, err
    assert "# sample_draws=10 " in out


def test_collide_writes_file(tmp_path, capsys):
    out_path = tmp_path / "collide.csv"
    code, out, _ = run_cli(
        capsys,
        "collide",
        "--n1", "7", "--n2", "1",
        "--iterations", "2",
        "--output", str(out_path),
    )
    assert code == 0
    assert out == ""
    lines = out_path.read_text().splitlines()
    assert lines[0] == TRAJECTORY_HEADER
    assert lines[-1].startswith("2,")
    assert "-0.25" in lines[-1] and "2.75" in lines[-1]


def test_compare_appends_report_comments(capsys):
    code, out, _ = run_cli(capsys, "compare", "--log2-n", "4")
    assert code == 0
    assert "# max_velocity_residual=" in out
    assert "# statevector_included=true" in out


def test_compare_at_the_statevector_cap_meets_the_residual_bound(capsys):
    code, out, err = run_cli(capsys, "compare", "--log2-n", "20")
    assert code == 0, err
    assert "# statevector_included=true" in out
    residuals = [float(line.split("=", 1)[1]) for line in out.splitlines() if line.startswith("# max_")]
    assert len(residuals) == 3
    assert max(residuals) <= 1e-9  # the bound of acceptance criterion 04


def test_compare_flags_skipped_statevector(capsys):
    code, out, _ = run_cli(
        capsys, "compare", "--log2-n", "6", "--statevector-cap", "16"
    )
    assert code == 0
    assert "# statevector_included=false" in out


def test_sweep(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--log2-min", "2", "--log2-max", "4", "--n2", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N,n0,p_at_n0,regime"
    assert lines[1].startswith("4,1,1.0,")
    assert len(lines) == 4


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--n1", "100"),
        ("--log2-n", "9"),
        ("--iterations", "3"),
        ("--v-init", "2.5"),
        ("--seed", "4"),
        ("--statevector-cap", "64"),
    ],
)
def test_sweep_rejects_a_flag_it_would_ignore(tmp_path, capsys, flag, value):
    # From a scenario file the key is given at its default where it has one:
    # a key is refused for being given, whatever its value.
    key = flag[2:].replace("-", "_")
    default = getattr(ScenarioConfig(), key)
    scenario = tmp_path / "s.cfg"
    scenario.write_text(f"{key}={value if default is None else default}\n")
    for given in ((flag, value), ("--scenario", str(scenario))):
        code, out, err = run_cli(
            capsys, "sweep", "--log2-min", "2", "--log2-max", "4", "--n2", "1", *given
        )
        assert code == 2
        assert out == ""
        assert f"config error: sweep does not take {flag};" in err


def test_sweep_keeps_its_own_sizing_output_and_scenario_flags(tmp_path, capsys):
    _, by_n2, _ = run_cli(capsys, "sweep", "--log2-min", "3", "--log2-max", "6", "--n2", "3")
    scenario = tmp_path / "s.cfg"
    scenario.write_text("theta_mode=paper\n")
    out_path = tmp_path / "sweep.csv"
    code, out, err = run_cli(
        capsys,
        "sweep", "--log2-min", "3", "--log2-max", "6", "--marked-count", "3",
        "--theta-mode", "exact", "--scenario", str(scenario), "--output", str(out_path),
    )
    assert (code, out, err) == (0, "", "")
    assert out_path.read_text() == by_n2
    code, out, err = run_cli(
        capsys, "sweep", "--log2-min", "3", "--log2-max", "6", "--n2", "1", "--marked-count", "3"
    )
    assert (code, out) == (2, "")
    assert "config error: marked_count=3 contradicts n2=1" in err


def test_scenario_file_with_override(tmp_path, capsys):
    scenario = tmp_path / "s.cfg"
    scenario.write_text("n1=7\nn2=1\niterations=1\n")
    code, out, _ = run_cli(
        capsys, "search", "--scenario", str(scenario), "--iterations", "2"
    )
    assert code == 0
    assert len(out.splitlines()) == 4  # override to 2 iterations


def test_missing_sizing_is_config_error(capsys):
    code, _, err = run_cli(capsys, "search")
    assert code == 2
    assert "config error" in err
    # --n1/--n2 come as a pair, even alongside --log2-n.
    for lone in (("--n2", "3"), ("--n1", "7")):
        code, out, err = run_cli(capsys, "search", "--log2-n", "4", *lone)
        assert (code, out) == (2, "")
        assert "config error: n1 and n2 must be given together" in err


def test_bad_scenario_file_is_config_error(tmp_path, capsys):
    scenario = tmp_path / "bad.cfg"
    scenario.write_text("nonsense line\n")
    code, _, err = run_cli(capsys, "search", "--scenario", str(scenario))
    assert code == 2


def test_scenario_file_that_is_not_utf8_is_config_error(tmp_path, capsys):
    scenario = tmp_path / "bad.cfg"
    scenario.write_bytes(b"\xff\xfe n1=3\n")
    code, _, err = run_cli(capsys, "search", "--scenario", str(scenario))
    assert code == 2
    assert "config error: cannot read scenario file" in err


def test_scenario_file_with_a_byte_order_mark_is_read(tmp_path, capsys):
    scenario = tmp_path / "bom.cfg"
    scenario.write_bytes(b"\xef\xbb\xbfn1=7\nn2=1\n")
    assert run_cli(capsys, "search", "--scenario", str(scenario)) == run_cli(
        capsys, "search", "--n1", "7", "--n2", "1"
    )


@pytest.mark.parametrize(
    "make_output",
    [lambda tmp: str(tmp / "no" / "such" / "dir" / "out.csv"), lambda tmp: str(tmp), lambda tmp: ""],
    ids=["missing-directory", "directory", "empty"],
)
def test_unwritable_output_is_config_error(tmp_path, capsys, make_output):
    output = make_output(tmp_path)
    code, out, err = run_cli(capsys, "search", "--n1", "3", "--n2", "1", "--output", output)
    assert (code, out) == (2, "")
    assert err.startswith(f"groversim: config error: cannot write output file {output}: ")


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["search", "--warp-speed", "9"])
    assert exc.value.code == 2


def test_draws_above_cap_is_config_error(capsys):
    code, _, err = run_cli(
        capsys,
        "search",
        "--log2-n", "6",
        "--statevector-cap", "16",
        "--draws", "10",
    )
    assert code == 2
    assert "cap" in err


def test_draws_above_cap_are_refused_before_the_trajectory(capsys, monkeypatch):
    def no_trajectory(*args):
        raise AssertionError("the trajectory was built before the cap was checked")

    monkeypatch.setattr(groversim.harness, "_trajectory", no_trajectory)
    code, out, err = run_cli(capsys, "search", "--log2-n", "40", "--draws", "10")
    assert code == 2
    assert out == ""
    assert "--draws needs the state vector, but N=1099511627776 exceeds the cap 1048576" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("search", "--log2-n", "4", "--v-init", "1e200"), "v_init=1e+200"),
        (("collide", "--log2-n", "4", "--v-init", "inf"), "v_init=inf"),
        (("compare", "--log2-n", "4", "--v-init", "1e-200"), "v_init=1e-200"),
        (("search", "--log2-n", "4", "--draws", "3", "--seed", "-1"), "seed must be >= 0"),
        (("search", "--log2-n", "4", "--draws", "-3"), "--draws must be in [0, 16777216], got -3"),
        (
            ("search", "--log2-n", "4", "--draws", "16777217"),
            "--draws must be in [0, 16777216], got 16777217",
        ),
        (
            ("search", "--log2-n", "1000"),
            "would give more than the limit of 1048576 trajectory rows",
        ),
        (
            ("compare", "--n1", "3", "--n2", "1", "--iterations", "1048576"),
            "iterations=1048576 would give more than the limit of 1048576 trajectory rows",
        ),
    ],
    ids=[
        "energy-overflows",
        "infinite-speed",
        "energy-underflows",
        "negative-seed",
        "negative-draws",
        "too-many-draws",
        "auto-count-past-row-limit",
        "iterations-past-row-limit",
    ],
)
def test_out_of_range_numbers_are_config_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "config error" in err and message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("search", "--log2-n", "1030"), "log2_n must be in [1, 1023], got 1030"),
        (("collide", "--n1", str(2**1024), "--n2", "1"), "N = n1 + n2 must not exceed"),
        (("compare", "--log2-n", "1024"), "log2_n must be in [1, 1023], got 1024"),
        (
            ("sweep", "--log2-min", "1030", "--log2-max", "1031", "--n2", "1"),
            "--log2-max must be <= 1023 (the float range), got 1031",
        ),
        (
            ("sweep", "--log2-min", "1", "--log2-max", "1030", "--n2", "1"),
            "--log2-max must be <= 1023 (the float range), got 1030",
        ),
        (
            ("sweep", "--log2-min", "1030", "--log2-max", "5", "--n2", "1"),
            "--log2-min must be in [1, --log2-max 5], got 1030",
        ),
    ],
    ids=["search", "collide", "compare", "sweep-whole-range", "sweep-upper-end", "sweep-reversed"],
)
def test_sizes_past_the_float_range_are_config_errors(capsys, argv, message):
    # Every engine takes N through float arithmetic; past the largest float
    # it used to fail with exit 1 ("int too large to convert to float").
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "config error" in err and message in err


def test_sweep_below_the_smallest_size_names_the_flag(capsys):
    # The sweep fills a placeholder size from --log2-min; its range errors
    # must name the sweep's own flags, not log2_n or run_sweep's arguments.
    code, out, err = run_cli(capsys, "sweep", "--log2-min", "0", "--log2-max", "3", "--n2", "1")
    assert code == 2
    assert out == ""
    assert "config error: --log2-min must be in [1, --log2-max 3], got 0" in err


def test_speeds_at_the_edges_of_the_energy_range_give_finite_output(capsys):
    # The largest and smallest speeds whose total energy 0.5*N*v**2 at
    # N = 16 is a normal float; every value written must be finite.
    for v_init in (4.740375954054588e153, 5.2738433074315e-155):
        for command in ("search", "collide", "compare"):
            code, out, err = run_cli(capsys, command, "--log2-n", "4", "--v-init", repr(v_init))
            assert code == 0, err
            assert "nan" not in out and "inf" not in out, out


def test_repeated_calls_in_one_process_give_the_same_output(capsys):
    # (argv, exit code); the parser is built once and shared by every call.
    calls = [
        (("search", "--log2-n", "10", "--v-init", "1.5"), 0),
        (("collide", "--n1", "60", "--n2", "4", "--iterations", "7"), 0),
        (("compare", "--log2-n", "6", "--theta-mode", "paper"), 0),
        (("sweep", "--log2-min", "2", "--log2-max", "9", "--n2", "1"), 0),
        (("search", "--n1", "3"), 2),  # n1 without n2
        (("compare", "--log2-n", "25", "--marked-count", "7"), 0),
    ]
    first = {}
    for _ in range(3):
        for argv, code in calls:
            result = run_cli(capsys, *argv)
            assert result[0] == code, result
            assert first.setdefault(argv, result) == result
        with pytest.raises(SystemExit):
            main(["collide", "--warp-speed", "9"])
        capsys.readouterr()


def test_warnings_print_as_one_groversim_line():
    # Python's default format names the source file and line of the warn
    # call, so stderr would change whenever that code moved.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    src = str(Path(groversim.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = ["collide", "--n1", "4", "--n2", "4", "--iterations", "6"]
    proc = subprocess.run(
        [sys.executable, "-m", "groversim.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stderr == (
        "groversim: warning: post-collision pattern u >= 0 > v observed "
        "(ball roles swapped); classifying as opposite\n"
    )


@pytest.mark.filterwarnings("ignore::groversim.ProtocolWarning")
def test_main_restores_the_warning_format(capsys):
    before = warnings.formatwarning
    warned = ("collide", "--n1", "4", "--n2", "4", "--iterations", "6")
    for argv in (warned, ("search", "--log2-n", "1030")):
        run_cli(capsys, *argv)
        assert warnings.formatwarning is before
