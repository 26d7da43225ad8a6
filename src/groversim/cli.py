"""Command-line front end.

    groversim search  --n1 7 --n2 1 --iterations auto --output run.csv
    groversim collide --log2-n 4 --iterations 3
    groversim compare --scenario demo.cfg
    groversim sweep   --log2-min 2 --log2-max 10 --n2 1 --output sweep.csv

Exit codes: 0 success, 2 configuration error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings
from dataclasses import fields

from . import harness
from .harness import ConfigError, Plan, ScenarioConfig
from .statevector import grover_iterate, init_uniform, measure_sample


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n1", type=int, help="number of unmarked basis states")
    parser.add_argument("--n2", type=int, help="number of marked basis states")
    parser.add_argument("--log2-n", type=int, help="total size as a power of two")
    parser.add_argument("--marked-count", type=int, help="marked count when sizing via --log2-n")
    parser.add_argument("--iterations", help="iteration count, or 'auto' for the optimum")
    parser.add_argument("--v-init", type=float, help="initial common speed (default 1.0)")
    parser.add_argument(
        "--theta-mode",
        choices=list(harness.THETA_ALIASES),
        help="rotation angle: exact arcsin form, or the small-angle shortcut ('paper')",
    )
    parser.add_argument("--seed", type=int, help="seed for measurement sampling")
    parser.add_argument("--statevector-cap", type=int, help="largest N simulated in full")
    parser.add_argument("--output", help="CSV destination (default: stdout)")
    parser.add_argument("--scenario", help="key=value scenario file; flags override it")


def _config_from_args(args: argparse.Namespace, refused: tuple[str, ...] = ()) -> ScenarioConfig:
    """The scenario file's values overridden by the flags given; every config
    field has the flag of the same name. A ``refused`` key, one that ``sweep``
    would ignore, is an error wherever it is given, whatever its value."""
    file_values = harness.load_scenario(args.scenario) if args.scenario else {}
    flags = {
        f.name: getattr(args, f.name)
        for f in fields(ScenarioConfig)
        if getattr(args, f.name) is not None
    }
    for key in refused:
        if key in file_values or key in flags:
            raise ConfigError(
                f"sweep does not take --{key.replace('_', '-')}; it sizes each row from "
                "--log2-min/--log2-max and --n2 or --marked-count"
            )
    return harness.build_config(file_values, harness.coerce_config_values(flags, "flags"))


def _write(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        harness.emit_text(text, output)


def _sample_comments(plan: Plan, draws: int) -> str:
    import numpy as np  # only a sampling command needs it here

    state = grover_iterate(init_uniform(plan.params, range(plan.params.n2)), plan.iterations)
    counts = np.bincount(measure_sample(state, plan.seed, draws), minlength=plan.params.n_total)
    lines = [f"# sample_draws={draws} seed={plan.seed} iterations={plan.iterations}"]
    lines.extend(f"# sample index={i} count={counts[i]}" for i in np.flatnonzero(counts).tolist())
    return "\n".join(lines) + "\n"


# 8 B a draw (the picks, one machine int each): 128 MiB.
_MAX_DRAWS = 2**24


def _cmd_search(args: argparse.Namespace) -> int:
    if not 0 <= args.draws <= _MAX_DRAWS:
        raise ConfigError(f"--draws must be in [0, {_MAX_DRAWS}], got {args.draws}")
    plan = _config_from_args(args).validate()
    # Refused before the trajectory, which takes seconds at the largest sizes.
    if args.draws and plan.params.n_total > plan.statevector_cap:
        raise ConfigError(
            f"--draws needs the state vector, but N={plan.params.n_total} exceeds the cap "
            f"{plan.statevector_cap}"
        )
    rows = harness.run_search(plan, engine=harness.ENGINE_ANALYTIC)
    text = harness.format_trajectory_csv(rows)
    if args.draws:
        text += _sample_comments(plan, args.draws)
    _write(text, plan.output)
    return 0


def _cmd_collide(args: argparse.Namespace) -> int:
    plan = _config_from_args(args).validate()
    rows = harness.run_search(plan, engine=harness.ENGINE_COLLISION)
    _write(harness.format_trajectory_csv(rows), plan.output)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    plan = _config_from_args(args).validate()
    rows, report = harness.run_compare(plan)
    text = harness.format_trajectory_csv(rows) + harness.format_report_comments(report)
    _write(text, plan.output)
    return 0


# Common options that size or run one instance; a sweep would ignore them.
_NOT_FOR_SWEEP = ("n1", "log2_n", "iterations", "v_init", "seed", "statevector_cap")


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _config_from_args(args, refused=_NOT_FOR_SWEEP)
    # Checked here, not only in run_sweep, so the messages name the flags.
    if not 1 <= args.log2_min <= args.log2_max:
        raise ConfigError(
            f"--log2-min must be in [1, --log2-max {args.log2_max}], got {args.log2_min}"
        )
    if args.log2_max > harness.MAX_LOG2_N:
        raise ConfigError(
            f"--log2-max must be <= {harness.MAX_LOG2_N} (the float range), got {args.log2_max}"
        )
    sizes = {config.n2, config.marked_count} - {None}
    if len(sizes) > 1:
        raise ConfigError(f"marked_count={config.marked_count} contradicts n2={config.n2}")
    n2 = sizes.pop() if sizes else 1
    rows = harness.run_sweep(args.log2_min, args.log2_max, n2, config)
    _write(harness.format_sweep_csv(rows), config.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groversim",
        description="Search-iteration trajectories from three equivalent engines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_search = sub.add_parser("search", help="two-amplitude quantum trajectory")
    _add_common_options(p_search)
    p_search.add_argument(
        "--draws", type=int, default=0, help="append sampled measurement counts as comments"
    )
    p_search.set_defaults(func=_cmd_search)

    p_collide = sub.add_parser("collide", help="elastic-collision trajectory")
    _add_common_options(p_collide)
    p_collide.set_defaults(func=_cmd_collide)

    p_compare = sub.add_parser("compare", help="independent engines plus residual report")
    _add_common_options(p_compare)
    p_compare.set_defaults(func=_cmd_compare)

    p_sweep = sub.add_parser("sweep", help="optimal count and peak probability per size")
    _add_common_options(p_sweep)
    p_sweep.add_argument("--log2-min", type=int, required=True, help="smallest log2(N)")
    p_sweep.add_argument("--log2-max", type=int, required=True, help="largest log2(N)")
    p_sweep.set_defaults(func=_cmd_sweep)

    return parser


# main only reads the parser; each call gets its own Namespace.
_shared_parser = functools.cache(build_parser)


def _format_warning(message, category, filename, lineno, line=None) -> str:
    # No source path or line, so stderr does not change when the code moves.
    return f"groversim: warning: {message}\n"


def main(argv: list[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    # Only the format changes: filters and ``showwarning`` stay the caller's.
    default_format = warnings.formatwarning
    warnings.formatwarning = _format_warning
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"groversim: config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001  (CLI boundary: report, exit 1)
        print(f"groversim: error: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = default_format


if __name__ == "__main__":
    raise SystemExit(main())
