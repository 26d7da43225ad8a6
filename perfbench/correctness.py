"""Correctness checks for the benchmark, computed apart from groversim.

Expected values come from the closed forms of the search, evaluated in mpmath
at 40 significant digits; nothing here imports the program or reuses its
constants. With theta = asin(sqrt(n2/N)) (or the small-angle sqrt(n2/N) in
``paper`` mode), after n iterations

    p_n = sin^2((2n+1) theta),
    a_n = cos((2n+1) theta) / sqrt(n1),   b_n = sin((2n+1) theta) / sqrt(n2).

Besides these values the checks test properties the method must have: unit
norm, equal amplitudes within each class, p_marked equal to ball 2's energy
fraction, u_n = v_init sqrt(N) a_n, a sampled marked fraction within a
binomial bound, reproducible draws, and a lossless fixed-format CSV. Any
violation raises ``CheckError``.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

_MP = mpmath.MPContext()
_MP.dps = 40

# Acceptance criterion 04's three-way bound, in amplitude units. Values the
# program reaches by iterating (state vector, recursion, collisions) carry
# rounding that grows with the iteration count; 1e-9 leaves a wide margin.
ITERATED_TOL = 1e-9
# Values the program evaluates directly from a closed form.
CLOSED_FORM_TOL = 1e-12
NORM_TOL = 1e-10
# Sampled shares: allowed distance from their expected value in binomial
# standard deviations, plus one draw of slack for the integer count.
SAMPLE_SIGMAS = 6.0

TRAJECTORY_HEADER = "n,a_n,b_n,p_marked,u_n,v_n,energy_fraction_ball2,case_label,regime"
SWEEP_HEADER = "N,n0,p_at_n0,regime"


class CheckError(Exception):
    """An output of the program disagrees with its expected value."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def theta(n_total: int, n2: int, mode: str = "exact"):
    ratio = _MP.mpf(n2) / n_total
    if mode == "exact":
        return _MP.asin(_MP.sqrt(ratio))
    if mode == "paper":
        return _MP.sqrt(ratio)
    raise ValueError(f"unknown theta mode {mode!r}")


def success_probability(n_total: int, n2: int, n: int, mode: str = "exact") -> float:
    return float(_MP.sin((2 * n + 1) * theta(n_total, n2, mode)) ** 2)


def class_amplitudes(n_total: int, n2: int, n: int) -> tuple[float, float]:
    phase = (2 * n + 1) * theta(n_total, n2)
    n1 = n_total - n2
    return float(_MP.cos(phase) / _MP.sqrt(n1)), float(_MP.sin(phase) / _MP.sqrt(n2))


def optimal_counts(n_total: int, n2: int, mode: str = "exact") -> set[int]:
    """Integer maximisers of sin^2((2n+1) theta) on the first rise, n >= 0.

    The peak sits at the real x = pi/(4 theta) - 1/2; the best integer is one
    of its two neighbours (both when they tie, as for n1 = n2).
    """
    th = theta(n_total, n2, mode)
    x = _MP.pi / (4 * th) - _MP.mpf(1) / 2
    lo = max(0, int(_MP.floor(x)))
    values = {n: _MP.sin((2 * n + 1) * th) ** 2 for n in (lo, lo + 1)}
    best = max(values.values())
    return {n for n, p in values.items() if p >= best - _MP.mpf(10) ** -30}


def regime(n_total: int, n2: int) -> str:
    if 2 * n2 >= n_total:
        return "invalid"
    if 4 * n2 < n_total:
        return "efficient"
    if 4 * n2 == n_total:
        return "boundary"
    return "inefficient"


def case_label(u: float, v: float) -> str:
    """Direction pattern from the velocity signs (zero counts as rightward)."""
    if u >= 0.0 and v >= 0.0:
        return "both-rightward"
    if u < 0.0 and v < 0.0:
        return "both-leftward"
    return "opposite"


class TrajectoryTable:
    """cos and sin of (2n+1) theta for n = 0, 1, ..., per (N, n2), grown on
    demand by exact rotation in mpmath and kept for the rest of the run."""

    def __init__(self) -> None:
        self._tables: dict[tuple[int, int], tuple[list[float], list[float], object, object]] = {}

    def get(self, n_total: int, n2: int, iterations: int) -> tuple[np.ndarray, np.ndarray]:
        key = (n_total, n2)
        if key not in self._tables:
            th = theta(n_total, n2)
            self._tables[key] = ([], [], _MP.expj(th), _MP.expj(2 * th))
        cos_n, sin_n, z, step = self._tables[key]
        while len(cos_n) <= iterations:
            cos_n.append(float(z.real))
            sin_n.append(float(z.imag))
            z = z * step
        self._tables[key] = (cos_n, sin_n, z, step)
        return np.array(cos_n[: iterations + 1]), np.array(sin_n[: iterations + 1])


def check_state(amplitudes: np.ndarray, marked_sorted: np.ndarray, iterations: int) -> None:
    """Full state vector after ``iterations`` from the uniform start."""
    n_total = amplitudes.size
    n2 = marked_sorted.size
    n1 = n_total - n2
    b_vals = amplitudes[marked_sorted]
    b0 = float(b_vals[0])
    require(bool(np.all(b_vals == b0)), "marked amplitudes are not all equal")
    # The smallest unmarked index is the first i with marked_sorted[i] != i.
    gaps = np.flatnonzero(marked_sorted != np.arange(n2))
    a0 = float(amplitudes[gaps[0] if gaps.size else n2])
    equal_a = np.count_nonzero(amplitudes == a0) - np.count_nonzero(b_vals == a0)
    require(equal_a == n1, f"unmarked amplitudes are not all equal ({equal_a} of {n1})")
    norm = math.fsum((n1 * a0 * a0, n2 * b0 * b0))
    require(abs(norm - 1.0) <= NORM_TOL, f"state not normalised: {norm!r}")
    a_exp, b_exp = class_amplitudes(n_total, n2, iterations)
    require(abs(a0 - a_exp) <= ITERATED_TOL, f"unmarked amplitude {a0!r}, expected {a_exp!r}")
    require(abs(b0 - b_exp) <= ITERATED_TOL, f"marked amplitude {b0!r}, expected {b_exp!r}")


def check_probability(p: float, n_total: int, n2: int, iterations: int) -> float:
    expected = success_probability(n_total, n2, iterations)
    require(abs(p - expected) <= ITERATED_TOL, f"marked probability {p!r}, expected {expected!r}")
    return expected


def check_draws(draws: np.ndarray, marked_mask: np.ndarray, count: int, p_expected: float) -> None:
    """Every draw is a basis index, and both the marked share and the share
    below N/2 (which catches sampling biased along the index range) are
    within the binomial bound around their expected values."""
    require(draws.size == count, f"{draws.size} draws returned, {count} requested")
    require(bool(draws.min() >= 0 and draws.max() < marked_mask.size), "draw out of range")
    n2 = int(np.count_nonzero(marked_mask))
    n1 = marked_mask.size - n2
    half = marked_mask.size // 2
    marked_low = int(np.count_nonzero(marked_mask[:half]))
    p_low = (1.0 - p_expected) * (half - marked_low) / n1 + p_expected * marked_low / n2
    for what, hits, p in (
        ("marked", int(np.count_nonzero(marked_mask[draws])), p_expected),
        ("lower-half", int(np.count_nonzero(draws < half)), p_low),
    ):
        share = hits / count
        spread = SAMPLE_SIGMAS * math.sqrt(p * (1.0 - p) / count) + 1.0 / count
        require(abs(share - p) <= spread, f"{what} share of draws {share!r} is more than {spread!r} from {p!r}")


def _parse_float(text: str) -> float:
    value = float(text)
    require(repr(value) == text, f"float {text!r} does not round-trip exactly")
    return value


def check_trajectory_csv(
    text: str,
    table: TrajectoryTable,
    n_total: int,
    n2: int,
    v_init: float,
    iterations: int | None,
    theta_mode: str,
    comments_expected: bool,
) -> None:
    """A search/collide/compare output: fixed header, one row per iteration
    0..n, lossless floats, values on the exact closed-form trajectory."""
    lines = text.split("\n")
    require(lines[-1] == "", "output does not end with a newline")
    require(lines[0] == TRAJECTORY_HEADER, f"trajectory header is {lines[0]!r}")
    body = [line for line in lines[1:-1] if not line.startswith("#")]
    comments = [line for line in lines[1:-1] if line.startswith("#")]
    rows = len(body) - 1
    if iterations is None:
        allowed = optimal_counts(n_total, n2, theta_mode)
        require(rows in allowed, f"auto iteration count {rows}, expected one of {sorted(allowed)}")
    else:
        require(rows == iterations, f"{rows} iterations written, {iterations} requested")

    columns = [[] for _ in range(6)]
    expected_regime = regime(n_total, n2)
    for n, line in enumerate(body):
        fields = line.split(",")
        require(len(fields) == 9, f"row {n} has {len(fields)} fields")
        require(fields[0] == str(n), f"row {n} is numbered {fields[0]!r}")
        values = [_parse_float(field) for field in fields[1:7]]
        for column, value in zip(columns, values):
            column.append(value)
        require(fields[7] == case_label(values[3], values[4]), f"row {n}: case label {fields[7]!r}")
        require(fields[8] == expected_regime, f"row {n}: regime {fields[8]!r}")
    a, b, p, u, v, energy = (np.array(column) for column in columns)

    cos_n, sin_n = table.get(n_total, n2, rows)
    a_exp = cos_n / math.sqrt(n_total - n2)
    b_exp = sin_n / math.sqrt(n2)
    scale = v_init * math.sqrt(n_total)
    _require_close(a, a_exp, ITERATED_TOL, "a_n")
    _require_close(b, b_exp, ITERATED_TOL, "b_n")
    _require_close(p, sin_n * sin_n, ITERATED_TOL, "p_marked")
    _require_close(p, energy, ITERATED_TOL, "p_marked against energy_fraction_ball2")
    _require_close(u / scale, a, ITERATED_TOL, "u_n / (v_init sqrt(N)) against a_n")
    _require_close(v / scale, b, ITERATED_TOL, "v_n / (v_init sqrt(N)) against b_n")

    require(bool(comments) == comments_expected, "residual report presence")
    if comments_expected:
        report = dict(line[2:].split("=", 1) for line in comments)
        for key in ("max_velocity_residual", "max_center_velocity_residual"):
            residual = _parse_float(report[key]) / scale
            require(residual <= ITERATED_TOL, f"{key} is {residual!r} in amplitude units")
        residual = _parse_float(report["max_probability_energy_residual"])
        require(residual <= ITERATED_TOL, f"max_probability_energy_residual is {residual!r}")
        require(report["steps_checked"] == str(max(1, rows)), "steps_checked")
        require(report["statevector_included"] in ("true", "false"), "statevector_included")


def check_sweep_csv(text: str, log2_min: int, log2_max: int, n2: int, theta_mode: str) -> None:
    lines = text.split("\n")
    require(lines[-1] == "", "output does not end with a newline")
    require(lines[0] == SWEEP_HEADER, f"sweep header is {lines[0]!r}")
    body = lines[1:-1]
    require(len(body) == log2_max - log2_min + 1, f"{len(body)} sweep rows")
    for k, line in zip(range(log2_min, log2_max + 1), body):
        n_total = 2**k
        fields = line.split(",")
        require(len(fields) == 4, f"sweep row {k} has {len(fields)} fields")
        require(fields[0] == str(n_total), f"sweep row N={fields[0]!r}, expected {n_total}")
        n0 = int(fields[1])
        allowed = optimal_counts(n_total, n2, theta_mode)
        require(n0 in allowed, f"N={n_total}: n0={n0}, expected one of {sorted(allowed)}")
        p = _parse_float(fields[2])
        p_exp = success_probability(n_total, n2, n0, theta_mode)
        require(abs(p - p_exp) <= CLOSED_FORM_TOL, f"N={n_total}: p_at_n0={p!r}, expected {p_exp!r}")
        require(fields[3] == regime(n_total, n2), f"N={n_total}: regime {fields[3]!r}")


def _require_close(actual: np.ndarray, expected: np.ndarray, tol: float, what: str) -> None:
    worst = float(np.max(np.abs(actual - expected)))
    require(worst <= tol, f"{what}: worst difference {worst!r} exceeds {tol!r}")
