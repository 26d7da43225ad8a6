"""Full state-vector engine for the search iteration.

The state is a length-N vector of real amplitudes plus the marked indices,
stored once as a sorted array of distinct ``np.intp`` indices; their
``frozenset`` is built only when read. One iteration applies the oracle
(sign flip on the marked amplitudes) followed by diffusion (reflection of
every amplitude about the mean, "inversion about average").
``apply_oracle`` and ``apply_diffusion`` are the full-vector kernels, each
O(N); the N x N diffusion matrix is never materialised.

``grover_iterate`` does not loop over them: it works in the two-dimensional
invariant subspace spanned by the unmarked and marked means, so ``count``
iterations of any state cost O(N + n2 + count), not O(count * N).

Invariants are checked when a state is built from caller input; the
kernels, two reflections, keep them by construction. Operations never mutate
their input, so states can be shared freely across threads.
"""

from __future__ import annotations

import math
from collections.abc import Collection

import numpy as np

from .params import SearchParams

NORM_TOL = 1e-12
_SQUARES_BLOCK = 256


def _sum_of_squares(x: np.ndarray) -> float:
    """Sum of x*x without a BLAS dot product, which runs on OpenBLAS's thread
    pool and stalls when another process holds a core. einsum sums blocks of
    ``_SQUARES_BLOCK`` products and numpy's pairwise sum adds the block
    totals, which keeps the result within a few ulps of the exact sum and
    allocates only N/_SQUARES_BLOCK partial sums."""
    cut = x.size - x.size % _SQUARES_BLOCK
    blocks = x[:cut].reshape(-1, _SQUARES_BLOCK)
    tail = x[cut:]
    return float(np.einsum("ij,ij->i", blocks, blocks).sum() + np.einsum("i,i->", tail, tail))


def _marked_indices(marked, n_total: int) -> np.ndarray:
    """The distinct indices of ``marked`` as a sorted ``np.intp`` array,
    checked to be non-empty, inside ``[0, n_total)`` and to leave one
    index unmarked."""
    if not isinstance(marked, Collection):
        marked = list(marked)  # read a second time if an index overflows intp
    try:
        idx = np.fromiter(map(int, marked), dtype=np.intp)
    except OverflowError:  # beyond intp, so out of range too
        idx = None
    else:
        idx.sort()
        distinct = idx[1:] != idx[:-1]
        if not distinct.all():
            idx = np.concatenate((idx[:1], idx[1:][distinct]))
        if idx.size == 0:
            raise ValueError("marked set must not be empty")
    if idx is None or idx[0] < 0 or idx[-1] >= n_total:
        bad = sorted({i for i in map(int, marked) if not 0 <= i < n_total})
        raise IndexError(f"marked indices out of range [0, {n_total}): {bad}")
    if idx.size >= n_total:
        raise ValueError("marked set must leave at least one unmarked state")
    idx.flags.writeable = False  # shared by every state derived from this one
    return idx


class StateVector:
    """Real amplitude vector with an immutable set of marked indices.

    Invariants, checked when built from caller input and kept by the kernels:
    1-D float64 amplitudes with unit sum of squares (within ``NORM_TOL``), and
    a marked set that is a non-empty proper subset of the index range.

    The marked set is held once, as the sorted read-only ``np.intp`` array
    ``_marked_idx`` that the kernels index with. ``marked`` builds its
    ``frozenset`` on first read and caches it; two threads that race to fill
    the cache build equal sets, so the race is harmless.
    """

    __slots__ = ("amplitudes", "_marked_idx", "_marked")

    def __init__(self, amplitudes, marked) -> None:
        amps = np.asarray(amplitudes, dtype=np.float64)
        if amps.ndim != 1 or amps.size < 2:
            raise ValueError("amplitudes must be a 1-D vector of length >= 2")
        idx = _marked_indices(marked, amps.size)
        norm = _sum_of_squares(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"amplitudes are not normalised: sum of squares = {norm!r}")
        self.amplitudes = amps
        self._marked_idx = idx
        self._marked = None

    def _derive(self, amplitudes: np.ndarray) -> StateVector:
        """A state on this state's marked set, built without the checks."""
        state = object.__new__(StateVector)
        state.amplitudes, state._marked_idx, state._marked = amplitudes, self._marked_idx, self._marked
        return state

    @property
    def marked(self) -> frozenset[int]:
        if self._marked is None:
            self._marked = frozenset(self._marked_idx.tolist())
        return self._marked

    @property
    def n_total(self) -> int:
        return self.amplitudes.size

    @property
    def params(self) -> SearchParams:
        n2 = self._marked_idx.size
        return SearchParams(self.n_total - n2, n2)

    def __repr__(self) -> str:  # pragma: no cover
        return f"StateVector(n={self.n_total}, marked={self._marked_idx.tolist()})"


def init_uniform(params: SearchParams, marked) -> StateVector:
    """Equal superposition of all basis states: every amplitude is 1/sqrt(N).

    ``marked`` must contain exactly ``params.n2`` distinct indices in
    ``[0, n_total)``.
    """
    n = params.n_total
    state = StateVector(np.full(n, 1.0 / math.sqrt(n)), marked)
    n2 = state._marked_idx.size
    if n2 != params.n2:
        raise ValueError(f"marked set has {n2} indices, expected n2={params.n2}")
    return state


def apply_oracle(state: StateVector) -> StateVector:
    """Flip the sign of every marked amplitude; an exact involution."""
    out = state.amplitudes.copy()
    idx = state._marked_idx
    out[idx] = -out[idx]
    return state._derive(out)


def _reflect_about_mean(state: StateVector) -> tuple[StateVector, float]:
    """Diffusion, c_i -> 2*A - c_i, returning the new state and the mean A it
    reflected about. numpy's pairwise mean keeps the conservation error near
    one ulp per element even at N = 2**20, where a naive left-to-right sum
    would not meet the 1e-12 conservation budget."""
    mean = float(state.amplitudes.mean())
    return state._derive(np.subtract(2.0 * mean, state.amplitudes)), mean


def apply_diffusion(state: StateVector) -> StateVector:
    """Reflect each amplitude about the mean; preserves the sum and the norm."""
    return _reflect_about_mean(state)[0]


def grover_iterate(state: StateVector, count: int) -> StateVector:
    """Apply ``count`` full iterations (oracle, then diffusion) to any state.

    Exact for every input, not only the uniform start: with ``mu`` and ``mm``
    the unmarked and marked means, an iteration maps the mean pair (a, b) to
    (2A - a, 2A + b) with A = (n1*a - n2*b)/N, negates each unmarked
    amplitude's offset from ``mu`` and keeps each marked one's offset from
    ``mm``. The recursion runs on two scalars, and the result is written in
    one pass over the vector plus a gather and a scatter of the marked
    entries: O(N + n2 + count) in all.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    amps, idx = state.amplitudes, state._marked_idx
    if count == 0:
        return state._derive(amps.copy())
    n_total, n2 = amps.size, idx.size
    n1 = n_total - n2
    marked = amps[idx]
    marked_sum = float(marked.sum())
    mu = (float(amps.sum()) - marked_sum) / n1
    mm = marked_sum / n2
    a, b = mu, mm
    for _ in range(count):
        mean = (n1 * a - n2 * b) / n_total
        a, b = 2.0 * mean - a, 2.0 * mean + b
    # Each unmarked amplitude c becomes a + (-1)**count * (c - mu). The
    # marked entries this pass writes are overwritten below.
    out = np.add(amps, a - mu) if count % 2 == 0 else np.subtract(a + mu, amps)
    marked -= mm
    marked += b
    out[idx] = marked
    return state._derive(out)


def marked_probability(state: StateVector) -> float:
    """Probability that a measurement lands in the marked set."""
    return _sum_of_squares(state.amplitudes[state._marked_idx])


def measure_sample(state: StateVector, seed: int, draws: int) -> list[int]:
    """Draw basis-state indices with probability amplitude**2 each.

    Inverse-CDF sampling over the squared amplitudes, driven by numpy's
    seeded PCG64 stream, so a fixed seed reproduces the same draws on any
    platform. Draw j is the first index whose CDF value exceeds key j, the
    j-th uniform from the stream. The keys are searched in sorted order,
    which walks the CDF once instead of jumping across it at random, and
    the picks are scattered back into draw order, so the result is the same
    as searching each key on its own.
    """
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    cdf = np.cumsum(state.amplitudes * state.amplitudes)
    cdf /= cdf[-1]
    keys = np.random.default_rng(seed).random(draws)
    order = np.argsort(keys)
    keys = keys[order]
    picks = np.empty(draws, dtype=np.intp)
    picks[order] = np.searchsorted(cdf, keys, side="right")
    del keys, order  # free them before the list of picks is built
    return picks.tolist()
