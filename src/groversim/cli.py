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
from collections import Counter

from . import harness
from .harness import ConfigError, ScenarioConfig
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
        choices=["exact", "paper", "paper-approx"],
        help="rotation angle: exact arcsin form, or the small-angle shortcut ('paper')",
    )
    parser.add_argument("--seed", type=int, help="seed for measurement sampling")
    parser.add_argument("--statevector-cap", type=int, help="largest N simulated in full")
    parser.add_argument("--output", help="CSV destination (default: stdout)")
    parser.add_argument("--scenario", help="key=value scenario file; flags override it")


def _config_from_args(args: argparse.Namespace) -> ScenarioConfig:
    file_values = harness.load_scenario(args.scenario) if args.scenario else None
    cli_values = {
        key: getattr(args, key)
        for key in (
            "n1",
            "n2",
            "log2_n",
            "marked_count",
            "iterations",
            "v_init",
            "theta_mode",
            "seed",
            "statevector_cap",
            "output",
        )
        if getattr(args, key, None) is not None
    }
    return harness.build_config(file_values, harness.coerce_config_values(cli_values, "flags"))


def _write(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        harness.emit_text(text, output)


def _sample_comments(config: ScenarioConfig, draws: int) -> str:
    params = config.resolved_params()
    if params.n_total > config.statevector_cap:
        raise ConfigError(
            f"--draws needs the state vector, but N={params.n_total} exceeds the cap "
            f"{config.statevector_cap}"
        )
    iterations = config.resolved_iterations(params)
    state = grover_iterate(init_uniform(params, range(params.n2)), iterations)
    counts = Counter(measure_sample(state, config.seed, draws))
    lines = [f"# sample_draws={draws} seed={config.seed} iterations={iterations}"]
    lines.extend(f"# sample index={i} count={counts[i]}" for i in sorted(counts))
    return "\n".join(lines) + "\n"


def _cmd_search(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    rows = harness.run_search(config, engine=harness.ENGINE_ANALYTIC)
    text = harness.format_trajectory_csv(rows)
    if args.draws:
        text += _sample_comments(config, args.draws)
    _write(text, config.output)
    return 0


def _cmd_collide(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    rows = harness.run_search(config, engine=harness.ENGINE_COLLISION)
    _write(harness.format_trajectory_csv(rows), config.output)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    rows, report = harness.run_compare(config)
    text = harness.format_trajectory_csv(rows) + harness.format_report_comments(report)
    _write(text, config.output)
    return 0


# Common options that size or run one instance; a sweep would ignore them.
_NOT_FOR_SWEEP = ("n1", "log2_n", "iterations", "v_init", "seed", "statevector_cap")


def _cmd_sweep(args: argparse.Namespace) -> int:
    for key in _NOT_FOR_SWEEP:
        if getattr(args, key) is not None:
            raise ConfigError(
                f"sweep does not take --{key.replace('_', '-')}; it sizes each row from "
                "--log2-min/--log2-max and --n2 or --marked-count"
            )
    # Checked here, not only in run_sweep, so the messages name the flags and
    # come before the placeholder below is validated.
    if not 1 <= args.log2_min <= args.log2_max:
        raise ConfigError(
            f"--log2-min must be in [1, --log2-max {args.log2_max}], got {args.log2_min}"
        )
    if args.log2_max > harness.MAX_LOG2_N:
        raise ConfigError(
            f"--log2-max must be <= {harness.MAX_LOG2_N} (the float range), got {args.log2_max}"
        )
    # Sweep sizing is taken from --n2/--marked-count; a full instance spec is
    # not required, so fill a placeholder N before generic validation.
    args.log2_n = args.log2_min
    config = _config_from_args(args)
    n2 = config.n2 if config.n2 is not None else (config.marked_count or 1)
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


def main(argv: list[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"groversim: config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001  (CLI boundary: report, exit 1)
        print(f"groversim: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
