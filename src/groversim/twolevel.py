"""Exact two-amplitude model of the search dynamics.

Starting from the uniform superposition, every unmarked basis state carries
one common amplitude ``a`` and every marked one a common amplitude ``b``, so
a full iteration reduces to a fixed 2x2 linear map on (a, b). The map is a
rotation in disguise: with the half-angle

    theta = arcsin(sqrt(n2 / n_total))

its eigenvalues are exactly exp(+/- 2i*theta), which yields closed-form
trajectories valid for every instance size, not just asymptotically. The
small-angle stand-in theta ~ sqrt(n2/N) (the usual hand-derivation shortcut)
is kept as a secondary mode for comparison runs.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .params import Regime, RegimeWarning, SearchParams, detect_regime

THETA_EXACT = "exact"
THETA_APPROX = "paper"


@dataclass(frozen=True)
class TwoLevelState:
    """Shared amplitudes: ``a`` per unmarked basis state, ``b`` per marked one."""

    a: float
    b: float


@dataclass(frozen=True)
class IterationMatrix:
    """The 2x2 map applied to (a, b) by one full iteration.

    entries = [[(n1-n2)/N, -2*n2/N], [2*n1/N, (n1-n2)/N]]; determinant 1.
    """

    entries: np.ndarray


@dataclass(frozen=True)
class Spectral:
    """Eigendecomposition of the iteration matrix.

    ``s_inverse @ T @ s_matrix`` is diag(lambda_plus, lambda_minus), with
    lambda_plus/minus = exp(+/- 2i*theta) on the unit circle.
    """

    lambda_plus: complex
    lambda_minus: complex
    s_matrix: np.ndarray
    s_inverse: np.ndarray
    theta: float


def rotation_angle(params: SearchParams, theta_mode: str = THETA_EXACT) -> float:
    """Half-angle of the per-iteration rotation.

    ``exact`` is arcsin(sqrt(n2/N)), evaluated as atan2(sqrt(n2), sqrt(n1)):
    the same angle, but conditioned well even when n2/N approaches 1, where
    arcsin amplifies the argument rounding. ``paper`` is the small-angle
    stand-in sqrt(n2/N), accurate only for n2 << N.
    """
    if theta_mode == THETA_EXACT:
        return math.atan2(math.sqrt(params.n2), math.sqrt(params.n1))
    if theta_mode == THETA_APPROX:
        return math.sqrt(params.n2 / params.n_total)
    raise ValueError(f"unknown theta_mode {theta_mode!r}, expected 'exact' or 'paper'")


def uniform_state(params: SearchParams) -> TwoLevelState:
    """The starting point a = b = 1/sqrt(N)."""
    amp = 1.0 / math.sqrt(params.n_total)
    return TwoLevelState(amp, amp)


def recursion_coefficients(params: SearchParams) -> tuple[float, float, float]:
    """(diag, c_a, c_b) = ((n1-n2)/N, 2*n1/N, 2*n2/N), the entries of
    T = [[diag, -c_b], [c_a, diag]]. One step on plain floats is

        a, b = diag*a - c_b*b, c_a*a + diag*b

    which is ``step`` term for term, so loops written this way stay
    bit-identical to it.
    """
    n1, n2, n = params.n1, params.n2, params.n_total
    return (n1 - n2) / n, 2.0 * n1 / n, 2.0 * n2 / n


def build_matrix(params: SearchParams) -> IterationMatrix:
    diag, c_a, c_b = recursion_coefficients(params)
    return IterationMatrix(np.array([[diag, -c_b], [c_a, diag]]))


def step(state: TwoLevelState, params: SearchParams) -> TwoLevelState:
    """One iteration of the recursion: (a, b) <- T (a, b)."""
    diag, c_a, c_b = recursion_coefficients(params)
    return TwoLevelState(diag * state.a - c_b * state.b, c_a * state.a + diag * state.b)


def spectral_decompose(params: SearchParams) -> Spectral:
    """Eigenvalues lambda+/- = ((n1-n2) +/- 2i*sqrt(n1*n2))/N and the
    eigenvector matrix S (columns ordered lambda+, lambda-) with its inverse.
    """
    n1, n2, n = params.n1, params.n2, params.n_total
    lam = complex((n1 - n2) / n, 2.0 * math.sqrt(n1 * n2) / n)
    rho = math.sqrt(n1 / n2)
    s = np.array([[1.0, 1.0], [-1j * rho, 1j * rho]], dtype=complex)
    s_inv = 0.5 * np.array([[1.0, 1j / rho], [1.0, -1j / rho]], dtype=complex)
    theta = rotation_angle(params)
    return Spectral(lam, lam.conjugate(), s, s_inv, theta)


def matrix_power(params: SearchParams, n: int) -> np.ndarray:
    """T**n = [[cos phi, -sin phi / rho], [rho * sin phi, cos phi]], with phi = 2n*theta
    and rho = sqrt(n1/n2): S diag(lam+**n, lam-**n) S^-1 multiplied out, as
    lam+/- = exp(+/- 2i*theta) exactly."""
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"power must be >= 0, got {n}")
    phi = 2.0 * n * rotation_angle(params)
    cos_phi, sin_phi = math.cos(phi), math.sin(phi)
    rho = math.sqrt(params.n1 / params.n2)
    # Four stores into an empty 2x2 beat parsing a tuple into an array.
    power = np.empty((2, 2))
    power[0, 0] = power[1, 1] = cos_phi
    power[0, 1] = -sin_phi / rho
    power[1, 0] = rho * sin_phi
    return power


def closed_form(params: SearchParams, n: int, theta_mode: str = THETA_EXACT) -> TwoLevelState:
    """Amplitudes after n iterations, directly:

    a_n = cos((2n+1) theta) / sqrt(n1),  b_n = sin((2n+1) theta) / sqrt(n2).

    With the exact theta this reproduces the recursion at every n, including
    n = 0 where it gives the uniform start.
    """
    if n < 0:
        raise ValueError(f"iteration count must be >= 0, got {n}")
    phi = (2 * n + 1) * rotation_angle(params, theta_mode)
    return TwoLevelState(
        math.cos(phi) / math.sqrt(params.n1),
        math.sin(phi) / math.sqrt(params.n2),
    )


def success_probability(params: SearchParams, n: int, theta_mode: str = THETA_EXACT) -> float:
    """Probability of measuring a marked state after n iterations.

    Equals n2 * b_n**2 = sin((2n+1) theta)**2.
    """
    b = closed_form(params, n, theta_mode).b
    return params.n2 * b * b


def optimal_iterations(params: SearchParams, theta_mode: str = THETA_EXACT) -> int:
    """Iteration count that maximises the success probability:
    round(pi / (4 theta) - 1/2), nearest integer with ties toward even.

    Emits ``RegimeWarning``, naming the regime, when ``detect_regime`` finds
    the instance inefficient or invalid: with n2 > N/4 the first iteration
    already reverses the collective amplitude, so the peak is low, and with
    n1 == n2 no iteration count ever beats probability 1/2.
    """
    regime = detect_regime(params)
    if regime in (Regime.INEFFICIENT, Regime.INVALID):
        warnings.warn(
            f"{regime.value} regime: the optimum is below certainty",
            RegimeWarning,
            stacklevel=2,
        )
    return _optimal_count(params, theta_mode)


def _optimal_count(params: SearchParams, theta_mode: str) -> int:
    """``optimal_iterations`` without the regime warning, for callers that
    report the regime themselves."""
    theta = rotation_angle(params, theta_mode)
    return round(math.pi / (4.0 * theta) - 0.5)
