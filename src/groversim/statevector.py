"""Full state-vector engine for the search iteration.

The state is a length-N vector of real amplitudes plus the set of marked
indices. One iteration applies the oracle (sign flip on the marked
amplitudes) followed by diffusion (reflection of every amplitude about the
mean, "inversion about average"). Both kernels are two-pass O(N); the N x N
diffusion matrix is never materialised.

Invariants are checked when a state is built from caller input; the kernels,
two reflections, keep them by construction. Operations never mutate their
input (``grover_iterate`` works in place on one private copy), so states can
be shared freely across threads.
"""

from __future__ import annotations

import math

import numpy as np

from .params import SearchParams

NORM_TOL = 1e-12


class StateVector:
    """Real amplitude vector with an immutable marked-index set.

    Invariants, checked when built from caller input and kept by the kernels:
    1-D float64 amplitudes with unit sum of squares (within ``NORM_TOL``), and
    a marked set that is a non-empty proper subset of the index range.
    """

    __slots__ = ("amplitudes", "marked", "_marked_idx")

    def __init__(self, amplitudes, marked) -> None:
        amps = np.asarray(amplitudes, dtype=np.float64)
        if amps.ndim != 1 or amps.size < 2:
            raise ValueError("amplitudes must be a 1-D vector of length >= 2")
        marked_set = frozenset(int(i) for i in marked)
        if not marked_set:
            raise ValueError("marked set must not be empty")
        bad = [i for i in marked_set if i < 0 or i >= amps.size]
        if bad:
            raise IndexError(f"marked indices out of range [0, {amps.size}): {sorted(bad)}")
        if len(marked_set) >= amps.size:
            raise ValueError("marked set must leave at least one unmarked state")
        norm = float(amps @ amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"amplitudes are not normalised: sum of squares = {norm!r}")
        self.amplitudes = amps
        self.marked = marked_set
        self._marked_idx = np.sort(np.fromiter(marked_set, dtype=np.intp, count=len(marked_set)))

    def _derive(self, amplitudes: np.ndarray) -> StateVector:
        """A state on this state's marked set, built without the checks."""
        state = object.__new__(StateVector)
        state.amplitudes, state.marked, state._marked_idx = amplitudes, self.marked, self._marked_idx
        return state

    @property
    def n_total(self) -> int:
        return self.amplitudes.size

    @property
    def params(self) -> SearchParams:
        return SearchParams(self.n_total - len(self.marked), len(self.marked))

    def __repr__(self) -> str:  # pragma: no cover
        return f"StateVector(n={self.n_total}, marked={sorted(self.marked)})"


def init_uniform(params: SearchParams, marked) -> StateVector:
    """Equal superposition of all basis states: every amplitude is 1/sqrt(N).

    ``marked`` must contain exactly ``params.n2`` distinct indices in
    ``[0, n_total)``.
    """
    n = params.n_total
    state = StateVector(np.full(n, 1.0 / math.sqrt(n)), marked)
    if len(state.marked) != params.n2:
        raise ValueError(f"marked set has {len(state.marked)} indices, expected n2={params.n2}")
    return state


def _flip_marked(amps: np.ndarray, marked_idx: np.ndarray) -> None:
    """Oracle step, in place: negate the marked amplitudes."""
    amps[marked_idx] = -amps[marked_idx]


def _reflect_about_mean(amps: np.ndarray) -> None:
    """Diffusion step, in place: c_i -> 2*A - c_i. numpy's pairwise mean keeps
    the conservation error near one ulp per element even at N = 2**20, where a
    naive left-to-right sum would not meet the 1e-12 conservation budget."""
    np.subtract(2.0 * float(amps.mean()), amps, out=amps)


def apply_oracle(state: StateVector) -> StateVector:
    """Flip the sign of every marked amplitude; an exact involution."""
    out = state.amplitudes.copy()
    _flip_marked(out, state._marked_idx)
    return state._derive(out)


def apply_diffusion(state: StateVector) -> StateVector:
    """Reflect each amplitude about the mean; preserves the sum and the norm."""
    out = state.amplitudes.copy()
    _reflect_about_mean(out)
    return state._derive(out)


def grover_iterate(state: StateVector, count: int) -> StateVector:
    """Apply ``count`` full iterations (oracle, then diffusion)."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    amps = state.amplitudes.copy()
    for _ in range(count):
        _flip_marked(amps, state._marked_idx)
        _reflect_about_mean(amps)
    return state._derive(amps)


def marked_probability(state: StateVector) -> float:
    """Probability that a measurement lands in the marked set."""
    m = state.amplitudes[state._marked_idx]
    return float(m @ m)


def measure_sample(state: StateVector, seed: int, draws: int) -> list[int]:
    """Draw basis-state indices with probability amplitude**2 each.

    Inverse-CDF sampling over the squared amplitudes, driven by numpy's
    seeded PCG64 stream, so a fixed seed reproduces the same draws on any
    platform.
    """
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    probs = state.amplitudes * state.amplitudes
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    rng = np.random.default_rng(seed)
    picks = np.searchsorted(cdf, rng.random(draws), side="right")
    return picks.tolist()
