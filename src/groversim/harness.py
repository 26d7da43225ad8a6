"""Scenario configuration, trajectory assembly, sweeps, and CSV output."""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Mapping

from .collisions import CollisionCase, _rounds, classify_case, from_params
from .correspondence import (
    DEFAULT_STATEVECTOR_CAP,
    AnalogyReport,
    TrajectoryRow,
    _start_energy,
    analogy_report,
    velocity_scale,
)
from .params import SearchParams, detect_regime
from .twolevel import (
    THETA_APPROX,
    THETA_EXACT,
    _optimal_count,
    recursion_coefficients,
    success_probability,
    uniform_state,
)

TRAJECTORY_HEADER = ",".join(TrajectoryRow._fields)
SWEEP_HEADER = "N,n0,p_at_n0,regime"

ENGINE_ANALYTIC = "analytic"
ENGINE_COLLISION = "collision"
ENGINE_BOTH = "both"

THETA_ALIASES = {"exact": THETA_EXACT, "paper": THETA_APPROX, "paper-approx": THETA_APPROX}
# Enum ``.value`` is a descriptor call; rows look their labels up here instead.
_CASE_LABELS = {case: case.value for case in CollisionCase}
# The engines take N through float arithmetic; 2**1023 is the largest that fits.
MAX_LOG2_N = sys.float_info.max_exp - 1
# Rows and their CSV text are held until written, about 0.75 KB a row: 0.75 GB.
_MAX_ROWS = 2**20


class ConfigError(ValueError):
    """Invalid scenario configuration (sizing, values, or file syntax)."""


def _check_theta_mode(theta_mode: str) -> None:
    if theta_mode not in (THETA_EXACT, THETA_APPROX):
        raise ConfigError(f"theta_mode must be 'exact' or 'paper', got {theta_mode!r}")


def _check_log2_range(log2_min: int, log2_max: int, min_name: str, max_name: str) -> None:
    """Check a sweep's range of log2(N). Each message names a bound as the
    caller's own input does: a flag for the CLI, an argument for ``run_sweep``."""
    if not 1 <= log2_min <= log2_max:
        raise ConfigError(f"{min_name} must be in [1, {max_name} {log2_max}], got {log2_min}")
    if log2_max > MAX_LOG2_N:
        raise ConfigError(f"{max_name} must be <= {MAX_LOG2_N} (the float range), got {log2_max}")


def _check_n_fits_float(params: SearchParams) -> None:
    if params.n_total > sys.float_info.max:
        raise ConfigError(f"N = n1 + n2 must not exceed the largest float, {sys.float_info.max!r}")


@dataclass
class ScenarioConfig:
    """One run's worth of knobs. Sizing comes either from (n1, n2), always as
    a pair, or from (log2_n, marked_count); if both are given they must agree."""

    n1: int | None = None
    n2: int | None = None
    log2_n: int | None = None
    marked_count: int | None = None
    v_init: float = 1.0
    iterations: int | str = "auto"
    theta_mode: str = THETA_EXACT
    seed: int = 0
    statevector_cap: int = DEFAULT_STATEVECTOR_CAP
    output: str | None = None

    def validate(self) -> Plan:
        """Check every value and resolve the query once into a ``Plan``, with
        "auto" iterations taken as the optimum."""
        _check_theta_mode(self.theta_mode)
        if isinstance(self.iterations, str) and self.iterations != "auto":
            raise ConfigError(f"iterations must be an integer or 'auto', got {self.iterations!r}")
        params = self.resolved_params()
        # The regime is reported in its own column; no need to warn here.
        auto = self.iterations == "auto"
        iterations = _optimal_count(params, self.theta_mode) if auto else int(self.iterations)
        return Plan(params, iterations, self.v_init, self.seed, self.statevector_cap, self.output)

    def resolved_params(self) -> SearchParams:
        have_counts = self.n1 is not None
        have_log2 = self.log2_n is not None
        if have_counts != (self.n2 is not None):
            raise ConfigError("n1 and n2 must be given together")
        if not have_counts and not have_log2:
            raise ConfigError("no sizing given: set n1/n2 or log2_n (with marked_count)")
        params: SearchParams | None = None
        if have_counts:
            try:
                params = SearchParams(self.n1, self.n2)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
            _check_n_fits_float(params)
        if have_log2:
            if not 1 <= self.log2_n <= MAX_LOG2_N:
                raise ConfigError(f"log2_n must be in [1, {MAX_LOG2_N}], got {self.log2_n}")
            n_total = 2**self.log2_n
            n2 = 1 if self.marked_count is None else self.marked_count
            if not 1 <= n2 < n_total:
                raise ConfigError(f"marked_count must be in [1, {n_total - 1}], got {n2}")
            from_log2 = SearchParams(n_total - n2, n2)
            if params is not None and params != from_log2:
                raise ConfigError(
                    f"inconsistent sizing: n1/n2 give N={params.n_total}, n2={params.n2} "
                    f"but log2_n/marked_count give N={from_log2.n_total}, n2={from_log2.n2}"
                )
            params = from_log2
        elif self.marked_count is not None and self.marked_count != params.n2:
            raise ConfigError(
                f"marked_count={self.marked_count} contradicts n2={params.n2}"
            )
        return params


@dataclass(frozen=True)
class Plan:
    """One query as ``ScenarioConfig.validate`` resolves it. Its values are
    checked whenever a plan is built, by hand too, so a run can trust it."""

    params: SearchParams
    iterations: int
    v_init: float
    seed: int
    statevector_cap: int
    output: str | None

    def __post_init__(self) -> None:
        if not self.v_init > 0:
            raise ConfigError(f"v_init must be positive, got {self.v_init!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed!r}")
        if self.statevector_cap < 2:
            raise ConfigError(f"statevector_cap must be >= 2, got {self.statevector_cap!r}")
        if self.iterations < 0:
            raise ConfigError(f"iterations must be >= 0, got {self.iterations!r}")
        if self.iterations >= _MAX_ROWS:
            raise ConfigError(
                f"iterations={self.iterations} would give more than the limit of "
                f"{_MAX_ROWS} trajectory rows"
            )
        _check_n_fits_float(self.params)  # before the product, which would overflow
        # The total kinetic energy, as the collision engine computes it, must
        # be a normal float: an overflow turns the energy fractions into NaN,
        # and below the normal range they lose their precision or divide by 0.
        energy = _start_energy(self.params, self.v_init)
        if not sys.float_info.min <= energy <= sys.float_info.max:
            raise ConfigError(
                f"v_init={self.v_init!r} puts the total kinetic energy 0.5*N*v_init**2 "
                f"at N={self.params.n_total} outside the normal float range: {energy!r}"
            )


@dataclass(frozen=True)
class SweepRow:
    n_total: int
    n0: int
    p_at_n0: float
    regime: str


def run_search(query: ScenarioConfig | Plan, engine: str = ENGINE_BOTH) -> list[TrajectoryRow]:
    """Trajectory rows for n = 0..iterations of a config, which is validated
    here, or of a ``Plan``.

    engine selects who produces the primary columns: ``analytic`` drives the
    two-amplitude recursion and maps velocities through the exact scaling,
    ``collision`` drives the velocity iteration and maps amplitudes back,
    ``both`` runs the two recursions independently side by side.

    Both recursions run on plain floats, with the same arithmetic in the
    same order as their reference steps, ``twolevel.step`` and
    ``collisions.iterate``, so every value is bit-identical to theirs.
    """
    if engine not in (ENGINE_ANALYTIC, ENGINE_COLLISION, ENGINE_BOTH):
        raise ConfigError(f"unknown engine {engine!r}")
    plan = query if isinstance(query, Plan) else query.validate()
    return _trajectory(plan.params, plan.v_init, plan.iterations, engine)


def _trajectory(
    params: SearchParams, v_init: float, iterations: int, engine: str
) -> list[TrajectoryRow]:
    regime = detect_regime(params).value
    n2 = params.n2
    scale = velocity_scale(params, v_init)
    diag, c_a, c_b = recursion_coefficients(params)
    two = uniform_state(params)
    system = from_params(params, v_init)
    m1, m2 = system.ball1.mass, system.ball2.mass
    total_energy = _start_energy(params, v_init)

    a, b = two.a, two.b
    u, v = system.ball1.velocity, system.ball2.velocity
    rounds = _rounds(m1, m2, u, v)
    rows: list[TrajectoryRow] = []
    for n in range(iterations + 1):
        if n > 0:
            if engine != ENGINE_COLLISION:
                a, b = diag * a - c_b * b, c_a * a + diag * b
            if engine != ENGINE_ANALYTIC:
                # Ball 2 bounces off the wall, then the balls collide.
                u, v = next(rounds)
        if engine == ENGINE_ANALYTIC:
            u, v = scale * a, scale * b
        elif engine == ENGINE_COLLISION:
            a, b = u / scale, v / scale
        # A NamedTuple built by position, in TRAJECTORY_HEADER column order.
        energy_fraction = (0.5 * n2 * v * v) / total_energy
        label = _CASE_LABELS[classify_case(u, v)]
        rows.append(TrajectoryRow(n, a, b, n2 * b * b, u, v, energy_fraction, label, regime))
    return rows


def run_sweep(
    log2_min: int, log2_max: int, n2: int, theta_mode: str = THETA_EXACT
) -> list[SweepRow]:
    """One row per N = 2**k, k in [log2_min, log2_max], in order of N."""
    _check_log2_range(log2_min, log2_max, "log2_min", "log2_max")
    if not 1 <= n2 < 2**log2_min:
        raise ConfigError(f"n2 must be in [1, {2**log2_min - 1}], got {n2}")
    _check_theta_mode(theta_mode)

    rows = []
    for k in range(log2_min, log2_max + 1):
        params = SearchParams(2**k - n2, n2)
        n0 = _optimal_count(params, theta_mode)
        rows.append(
            SweepRow(
                n_total=params.n_total,
                n0=n0,
                p_at_n0=success_probability(params, n0, theta_mode),
                regime=detect_regime(params).value,
            )
        )
    return rows


# Floats are written with repr, the shortest representation that round-trips
# the exact double (at most 17 significant digits), so emitted CSVs are
# lossless and byte-stable. Each text is one join over its lines, whose last,
# "", gives the final newline: adding it after the join would copy the text.
def format_trajectory_csv(rows: Iterable[TrajectoryRow]) -> str:
    lines = (
        f"{row.n},{row.a_n!r},{row.b_n!r},{row.p_marked!r},{row.u_n!r},{row.v_n!r},"
        f"{row.energy_fraction_ball2!r},{row.case_label},{row.regime}"
        for row in rows
    )
    return "\n".join([TRAJECTORY_HEADER, *lines, ""])


def format_sweep_csv(rows: Iterable[SweepRow]) -> str:
    lines = (f"{row.n_total},{row.n0},{row.p_at_n0!r},{row.regime}" for row in rows)
    return "\n".join([SWEEP_HEADER, *lines, ""])


def format_report_comments(report: AnalogyReport) -> str:
    lines = [
        f"# max_velocity_residual={report.max_velocity_residual!r}",
        f"# max_probability_energy_residual={report.max_probability_energy_residual!r}",
        f"# max_center_velocity_residual={report.max_center_velocity_residual!r}",
        f"# steps_checked={report.steps_checked}",
        f"# statevector_included={'true' if report.statevector_included else 'false'}",
        "",
    ]
    return "\n".join(lines)


def emit_csv(rows: Iterable[TrajectoryRow], path) -> None:
    """Write trajectory rows as CSV (header always present, final newline)."""
    emit_text(path, format_trajectory_csv(rows))


def emit_text(path, *texts: str) -> None:
    """Write ``texts`` one after the other to the file at ``path``."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as out:
            out.writelines(texts)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc}") from None


def run_compare(query: ScenarioConfig | Plan) -> tuple[list[TrajectoryRow], AnalogyReport]:
    """Rows from the independent engines plus the three-way residual report,
    for a config, which is validated here, or a ``Plan``.

    One pass: the report is built from the ``both`` rows, in which the
    two-amplitude recursion and the collision iteration are still computed
    independently of each other, so neither recursion runs a second time.
    Below the state-vector cap the report also iterates the full state
    vector alongside them. The report checks at least one step, as
    ``verify_analogy`` does, so a zero-iteration run computes one row more
    than it returns.
    """
    plan = query if isinstance(query, Plan) else query.validate()
    rows = _trajectory(plan.params, plan.v_init, max(1, plan.iterations), ENGINE_BOTH)
    report = analogy_report(plan.params, plan.v_init, rows, plan.statevector_cap)
    del rows[plan.iterations + 1 :]  # in place: no second list of the rows
    return rows, report


_INT_KEYS = frozenset({"n1", "n2", "log2_n", "marked_count", "seed", "statevector_cap"})
_FLOAT_KEYS = frozenset({"v_init"})
_CONFIG_KEYS = frozenset(f.name for f in fields(ScenarioConfig))


def load_scenario(path) -> dict[str, object]:
    """Parse a flat key=value scenario file (# comments, blank lines ok).

    Keys mirror the CLI flags with underscores; values are coerced to the
    config field types.
    """
    values: dict[str, object] = {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # a leading byte-order mark is dropped
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return coerce_config_values(values, source=str(path))


def coerce_config_values(values: Mapping[str, object], source: str = "config") -> dict[str, object]:
    out: dict[str, object] = {}
    for raw_key, value in values.items():
        key = str(raw_key).replace("-", "_")
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{source}: unknown key {raw_key!r}")
        try:
            if key in _INT_KEYS:
                out[key] = int(value)
            elif key in _FLOAT_KEYS:
                out[key] = float(value)
            elif key == "iterations":
                out[key] = value if value == "auto" else int(value)
            elif key == "theta_mode":
                mode = str(value)
                if mode not in THETA_ALIASES:
                    raise ValueError(f"bad theta_mode {value!r}")
                out[key] = THETA_ALIASES[mode]
            else:
                out[key] = str(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{source}: bad value for {raw_key!r}: {exc}") from None
    return out


def build_config(
    file_values: Mapping[str, object] | None = None,
    overrides: Mapping[str, object] | None = None,
) -> ScenarioConfig:
    """Merge scenario-file values with CLI overrides (overrides win per key).
    Nothing is checked: a run calls ``validate`` once on the result."""
    config = ScenarioConfig()
    for layer in (file_values, overrides):
        if layer:
            config = replace(config, **dict(layer))
    return config
