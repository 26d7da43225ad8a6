"""Full state-vector engine for the search iteration.

The state is a length-N vector of real amplitudes plus the marked indices,
stored once as a sorted array of distinct ``np.intp`` indices; their
``frozenset`` is built on each read. One iteration applies the oracle
(sign flip on the marked amplitudes) followed by diffusion (reflection of
every amplitude about the mean, "inversion about average").
``apply_oracle`` and ``apply_diffusion`` are the full-vector kernels, each
O(N); the N x N diffusion matrix is never materialised.

``grover_iterate`` does not loop over them: it works in the two-dimensional
invariant subspace spanned by the unmarked and marked means, so ``count``
iterations of any state cost O(N + n2 + count), not O(count * N). The two
means move as the velocities of balls of mass n1 and n2 under ``count``
rounds of ``collisions._rounds``: the oracle is ball 2's wall bounce and
diffusion the elastic collision.

``measure_sample`` is seeded inverse-CDF sampling. It draws its keys in
fixed chunks and writes each chunk's picks straight into its result, an
``array.array`` of C ``intp`` integers, so it holds no second array as long
as the draws and builds no Python int per draw.
How it finds each pick depends on the draws next to N. With at most N/256
draws it sums the squares in blocks and rebuilds the running sum only in the
blocks the keys hit; the a-priori error bound of recursive summation
(Higham 2002, section 4.2) proves each pick equal to the exact one, and a
key it cannot prove is searched in the exact CDF. With at least N/16 draws
it finds each pick through a guide table (Chen & Asau 1974; Devroye 1986,
section III.2) of about 2N bucket bounds, with neither a sort nor a binary
search over the whole CDF. In between it searches the exact CDF for each
key, since neither the table nor the block sums would pay.

Invariants are checked when a state is built from caller input; the
kernels, two reflections, keep them by construction. A vector that repeats
one value v, a broadcast, has its norm checked as the one product N*v*v; any
other vector by a blocked sum of squares. NaN amplitudes fail the check, and
a marked index that is not an integer is refused. Operations never mutate
their input, so states can be shared freely across threads; the kernels
return fresh, writeable vectors. The uniform start of ``init_uniform`` is a
read-only broadcast of its one amplitude at every N, held once, so a search
from it holds one N-vector, its result.
"""

from __future__ import annotations

import functools
import math
import operator
from array import array
from collections.abc import Callable, Collection
from itertools import islice

import numpy as np

from .collisions import _rounds
from .params import SearchParams

NORM_TOL = 1e-12
_SQUARES_BLOCK = 256
# Keys drawn per chunk: enough to spread numpy's per-call cost, few enough
# to stay in cache and leave peak memory flat.
_KEY_CHUNK = 1 << 14
# A guide table, O(N) to build, is used once draws * _TABLE_RATIO >= N.
_TABLE_RATIO = 16
# Block sums replace the sequential running sum once draws * _BLOCK_RATIO <= N.
_BLOCK_RATIO = 256
# The ``array`` typecode of one np.intp, so numpy reads such an array in place.
_INTP = np.dtype(np.intp).char


def _block_squares(x: np.ndarray, width: int) -> tuple[np.ndarray, float]:
    """The sums of x*x over each full block of ``width`` elements, and over
    the ragged tail after them (0.0 when there is none)."""
    cut = x.size - x.size % width
    blocks = x[:cut].reshape(-1, width)
    tail = x[cut:]
    return np.einsum("ij,ij->i", blocks, blocks), np.einsum("i,i->", tail, tail)


def _sum_of_squares(x: np.ndarray) -> float:
    """Sum of x*x without a BLAS dot product, which runs on OpenBLAS's thread
    pool and stalls when another process holds a core. einsum sums blocks of
    ``_SQUARES_BLOCK`` products and numpy's pairwise sum adds the block
    totals, which keeps the result within a few ulps of the exact sum and
    allocates only N/_SQUARES_BLOCK partial sums."""
    sums, tail = _block_squares(x, _SQUARES_BLOCK)
    return float(sums.sum() + tail)


def _marked_indices(marked, n_total: int) -> np.ndarray:
    """The distinct indices of ``marked`` as a sorted ``np.intp`` array,
    checked to be integers, non-empty, inside ``[0, n_total)`` and to leave
    one index unmarked."""
    if not isinstance(marked, Collection):
        marked = list(marked)  # read a second time if an index overflows intp
    try:
        # An array of C integers refuses what operator.index refuses, such as
        # floats and strings, at a fraction of the cost of calling it on each.
        idx = np.frombuffer(array(_INTP, marked), dtype=np.intp)
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
        bad = sorted({i for i in map(operator.index, marked) if not 0 <= i < n_total})
        raise IndexError(f"marked indices out of range [0, {n_total}): {bad}")
    if idx.size >= n_total:
        raise ValueError("marked set must leave at least one unmarked state")
    idx.flags.writeable = False  # shared by every state derived from this one
    return idx


class StateVector:
    """Real amplitude vector with an immutable set of marked indices.

    Invariants, checked when built from caller input and kept by the kernels:
    1-D float64 amplitudes with unit sum of squares (within ``NORM_TOL``), and
    a marked set that is a non-empty proper subset of the index range. The
    sum of squares of a broadcast, one value v repeated N times, is the one
    product N*v*v, within two roundings of the exact sum. A NaN amplitude
    fails the check. A marked index that ``operator.index`` refuses, such as
    a float or a string, is a ``TypeError``.

    The marked set is held once, as the sorted read-only ``np.intp`` array
    ``_marked_idx`` that the kernels index with. ``marked`` builds a new
    ``frozenset`` from it on each read.
    """

    __slots__ = ("amplitudes", "_marked_idx")

    def __init__(self, amplitudes, marked) -> None:
        amps = np.asarray(amplitudes, dtype=np.float64)
        if amps.ndim != 1 or amps.size < 2:
            raise ValueError("amplitudes must be a 1-D vector of length >= 2")
        idx = _marked_indices(marked, amps.size)
        if amps.strides == (0,):  # one value repeated: its norm is one product
            value = float(amps[0])
            norm = amps.size * value * value
        else:
            norm = _sum_of_squares(amps)
        if not abs(norm - 1.0) <= NORM_TOL:  # NaN fails this too
            raise ValueError(f"amplitudes are not normalised: sum of squares = {norm!r}")
        self.amplitudes = amps
        self._marked_idx = idx

    def _derive(self, amplitudes: np.ndarray) -> StateVector:
        """A state on this state's marked set, built without the checks."""
        state = object.__new__(StateVector)
        state.amplitudes, state._marked_idx = amplitudes, self._marked_idx
        return state

    @property
    def marked(self) -> frozenset[int]:
        return frozenset(self._marked_idx.tolist())

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

    The amplitudes are a read-only broadcast of the one value, held once,
    so a search from this state holds one N-vector, its result. The
    constructor checks them like any caller's.

    ``marked`` must contain exactly ``params.n2`` distinct indices in
    ``[0, n_total)``.
    """
    n = params.n_total
    state = StateVector(np.broadcast_to(np.float64(1.0 / math.sqrt(n)), (n,)), marked)
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
    the unmarked and marked means, an iteration negates each unmarked
    amplitude's offset from ``mu``, keeps each marked one's offset from
    ``mm``, and moves the mean pair as the velocities of balls of mass n1
    and n2 through one round of ``collisions._rounds``: the oracle is ball
    2's wall bounce, diffusion the elastic collision. The rounds run on two
    scalars, and the result is written in one pass over the vector plus a
    gather and a scatter of the marked entries: O(N + n2 + count) in all.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    amps, idx = state.amplitudes, state._marked_idx
    if count == 0:
        return state._derive(amps.copy())
    n2 = idx.size
    n1 = amps.size - n2
    marked = amps[idx]
    marked_sum = float(marked.sum())
    mu = (float(amps.sum()) - marked_sum) / n1
    mm = marked_sum / n2
    # float(n1) and float(n2) are exact: no vector has 2**53 entries.
    a, b = next(islice(_rounds(float(n1), float(n2), mu, mm), count - 1, None))
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


def _guide_table_search(cdf: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """``np.searchsorted(cdf, keys, side="right")`` for keys in [0, 1) and a
    sorted ``cdf`` that ends at exactly 1.0, through a guide table.

    With ``m`` the power of two in (N, 2N], ``guide[j]`` counts the CDF values
    ``<= j/m``. Scaling by ``m`` is exact, so ``b = floor(key*m)`` gives
    ``b/m <= key < (b+1)/m`` and the pick lies in ``[guide[b], guide[b+1]]``.
    One comparison settles most keys: the pick is ``lo = guide[b]`` when
    ``cdf[lo] > key`` (``lo <= N - 1``, since ``cdf[-1] > key``). The other
    keys are settled by bisection over ``(lo, guide[b+1]]`` on the same
    ``cdf[i] <= key`` comparison, one round per bit of the widest of them.
    """
    m = 1 << cdf.size.bit_length()
    buckets = cdf * m
    np.ceil(buckets, out=buckets)  # cdf[i] <= j/m exactly when this is <= j
    guide = np.bincount(buckets.astype(np.intp), minlength=m + 1)
    np.cumsum(guide, out=guide)

    def search(keys: np.ndarray) -> np.ndarray:
        b = (keys * m).astype(np.intp)
        lo = guide.take(b)
        todo = np.flatnonzero(cdf.take(lo) <= keys)
        if todo.size:
            # cdf[i] <= key below left and > key from right on. A settled
            # key (left == right) stays put: there cdf[mid] > key.
            left, right, k = lo.take(todo) + 1, guide.take(b.take(todo) + 1), keys.take(todo)
            for _ in range(int((right - left).max()).bit_length()):
                mid = (left + right) >> 1
                above = cdf.take(mid) <= k
                np.copyto(right, mid, where=~above)
                mid += 1
                np.copyto(left, mid, where=above)
            lo[todo] = left
        return lo

    return search


def _cdf(amplitudes: np.ndarray) -> np.ndarray:
    """The sampling CDF: the running sum of the squares, divided by its last
    value so that it ends at exactly 1.0."""
    cdf = np.square(amplitudes)
    np.cumsum(cdf, out=cdf)  # in place: a second fresh N-length buffer costs page faults
    cdf /= cdf[-1]
    return cdf


def _block_search(amplitudes: np.ndarray, draws: int) -> Callable[[np.ndarray], np.ndarray]:
    """``np.searchsorted(_cdf(amplitudes), keys, side="right")`` for keys in
    [0, 1), proven from block sums instead of the N-long running sum.

    The squares are summed in blocks of ``width``, a power of two near
    sqrt(N/draws), and the block sums are run up into ``prefix``. For each
    key the block holding ``target = key * total`` is found in ``prefix``,
    the running sum is rebuilt inside that block only, and the candidate
    pick ``p`` is the first index there whose sum exceeds ``target``.

    The CDF value at i is c_i / T, where c_i is the running sum of the
    rounded squares and T = c_{N-1}. Each of c_i, T, a rebuilt sum and
    ``total`` is the sum of the exact squares with every term off by a
    factor within 1 +- gamma_K (Higham 2002, section 4.2 and lemma 3.1),
    whatever the order of the additions and whether einsum rounds or fuses
    its products; squares that underflow add at most 2**-1075 each.
    ``rounds`` (K) counts the roundings on the way to one comparison: N each
    for c_i and T, 2*width + blocks for a rebuilt sum, width + blocks for
    ``total``, a few for the product, the quotient and the band, and spare.
    With ``delta = 2*K*2**-53 >= gamma_K`` and ``alpha`` twice the summed
    underflow, a rebuilt sum below ``target*(1 - delta) - alpha`` proves its
    CDF value ``<= key`` and one above ``target*(1 + delta) + alpha`` proves
    it ``> key``. The CDF is non-decreasing, so proving the sums just before
    and at ``p`` proves ``p`` exact: a floating-point filter with an exact
    fallback (Shewchuk 1997).

    A key that is not proven, because a neighbouring sum lies in the band or
    ``p`` would leave the rebuilt block, is searched in the exact CDF, built
    on first need and kept for the later chunks.
    """
    n = amplitudes.size
    width = 1 << min(max((n // draws).bit_length() // 2, 3), 8)
    sums, tail = _block_squares(amplitudes, width)
    if n % width:  # the ragged tail is one more, shorter, block
        sums = np.append(sums, tail)
    prefix = np.cumsum(sums)
    before = np.concatenate(([0.0], prefix[:-1]))  # the sum ahead of each block
    total = prefix[-1]
    rounds = 2 * n + 3 * width + 2 * prefix.size + 16
    delta = 2 * rounds * 2.0**-53
    alpha = (4 * n + 32) * 2.0**-1074
    offsets = np.arange(width)
    cdf = None

    def search(keys: np.ndarray) -> np.ndarray:
        nonlocal cdf
        target = keys * total
        block = np.searchsorted(prefix, target, side="right")
        np.minimum(block, prefix.size - 1, out=block)
        start = block * width
        # running[k, r]: the sum up to index start + r - 1. Indices past N in
        # a ragged last block repeat the last amplitude, so their sums are at
        # least the one at N - 1. That one is within the error bound of
        # total >= target, so never below the band: no pick past N - 1 is
        # proven.
        running = np.empty((keys.size, width + 1))
        running[:, 0] = before[block]
        np.square(amplitudes.take(start[:, None] + offsets, mode="clip"), out=running[:, 1:])
        np.cumsum(running, axis=1, out=running)
        r = np.count_nonzero(running[:, 1:] <= target[:, None], axis=1)
        rows = np.arange(keys.size)
        # r == width leaves the block; the sum compared above is then its
        # last one, which is <= target, so the key is not proven.
        proven = (running[rows, r] < target * (1.0 - delta) - alpha) & (
            running[rows, np.minimum(r + 1, width)] > target * (1.0 + delta) + alpha
        )
        picks = start + r
        unproven = np.flatnonzero(~proven)
        if unproven.size:
            if cdf is None:
                cdf = _cdf(amplitudes)
            picks[unproven] = np.searchsorted(cdf, keys[unproven], side="right")
        return picks

    return search


def _draw_indices(amplitudes: np.ndarray, seed: int, out: array) -> None:
    """Write the picks of ``measure_sample`` into ``out``, one chunk of keys
    at a time; every array it builds is freed when it returns."""
    n = amplitudes.size
    draws = len(out)
    if draws * _BLOCK_RATIO <= n:
        search = _block_search(amplitudes, draws)
    elif draws * _TABLE_RATIO < n:
        search = functools.partial(np.searchsorted, _cdf(amplitudes), side="right")
    else:
        search = _guide_table_search(_cdf(amplitudes))
    rng = np.random.default_rng(seed)
    picks = np.frombuffer(out, dtype=np.intp)  # a view: released on return
    for start in range(0, draws, _KEY_CHUNK):
        keys = rng.random(min(_KEY_CHUNK, draws - start))
        picks[start : start + keys.size] = search(keys)


def measure_sample(state: StateVector, seed: int, draws: int) -> array:
    """Draw basis-state indices with probability amplitude**2 each.

    Inverse-CDF sampling over the squared amplitudes, driven by numpy's
    seeded PCG64 stream, so a fixed seed reproduces the same draws on any
    platform. Draw j is the first index whose CDF value exceeds key j, the
    j-th uniform from the stream; the CDF is the running sum of the squares
    divided by its last value. The keys are drawn 2^14 at a time, which
    gives the same stream as one call, and each chunk's picks are written
    straight into the result, so no other array as long as the draws exists.
    Each chunk is looked up by one of three means:

    - at most N/256 draws: block sums of the squares, with the running sum
      rebuilt only in the blocks the keys hit. A pick is kept where the
      rounding-error bound of those sums proves it exact; any other key is
      searched in the exact CDF, built once on first need (see
      ``_block_search``).
    - at least N/16 draws: a guide table that costs O(N) to build (see
      ``_guide_table_search``).
    - in between: each key is searched in the exact CDF.

    All three give exactly the picks of searching each key on its own.

    The draws are an ``array.array`` of C ``intp`` integers, not boxed ints.
    Like a list, two results compare with ``==`` as one bool (a list never
    equals one) and its items are Python ints; ``np.asarray`` reads it
    without a copy.
    """
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    out = array(_INTP, [0]) * draws
    _draw_indices(state.amplitudes, seed, out)
    return out
