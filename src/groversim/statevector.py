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
diffusion the elastic collision. From a broadcast start, one amplitude
repeated N times as ``init_uniform`` builds it, those means and where they
move depend on the amplitude, N, n2 and ``count`` alone, not on which
states are marked. So the two values of the result, the velocities of the
two balls, and its marked probability are kept in a ``functools.lru_cache``
keyed on that shape and bounded to ``_CLASS_CACHE_SIZE`` shapes of three
floats each: a search of a shape already run skips the N-long sum, the
rounds and the gather, and writes its result as the unmarked value filled
in N times and the marked value scattered over the marked indices. That
result is read-only and carries its shape, and so does the uniform start,
whose one value is both; ``marked_probability`` reads such a state's
probability from the cache.

``measure_sample`` is seeded inverse-CDF sampling. It draws its keys in
fixed chunks and writes each chunk's picks straight into its result, an
``array.array`` of C ``intp`` integers, so it holds no second array as long
as the draws and builds no Python int per draw.
With fewer than N/16 draws, a state that carries its two values is sampled
run by run: its runs of equal amplitude (at most 2*n2 + 1) come from the
segments of consecutive marked indices, with no pass over the vector, and
the run sums replace the N-long running sum. The a-priori error bound of
recursive summation (Higham 2002, section 4.2) proves the picks of those
sums equal to the exact ones, and a key it cannot prove is searched in the
exact CDF. The bound is also evaluated once per run of one index, such as
an isolated marked state: the keys it proves form one interval, and one
``searchsorted`` over those intervals settles most chunks of keys of a
Grover state near its optimal count. With at least N/16 draws a guide
table (Chen & Asau 1974; Devroye 1986, section III.2) of about 2N bucket
bounds finds each pick, with neither a sort nor a binary search over the
whole CDF. The table is built one slice of the CDF at a time into 4-byte
bounds, so beside the picks the path holds the CDF, the table and the
scratch of one slice: about 19N bytes, where a build over the whole CDF at
once held 40N. Any other vector, with fewer than N/16 draws, has each key
searched in the exact CDF.

Invariants are checked when a state is built from caller input; the
kernels, two reflections, keep them by construction. A vector that repeats
one value v, a broadcast, has its norm checked as the one product N*v*v; any
other vector by a blocked sum of squares. NaN amplitudes fail the check, and
a marked index that is not an integer is refused. Operations never mutate
their input, so states can be shared freely across threads; the kernels
return fresh vectors, writeable but for ``grover_iterate``'s result from a
broadcast, whose two values would no longer summarise it after a write.
The uniform start of ``init_uniform`` is a read-only broadcast of its one
amplitude at every N, held once, so a search from it holds one N-vector,
its result.
"""

from __future__ import annotations

import functools
import math
import operator
from array import array
from collections.abc import Callable, Collection, Sequence
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
# The run path takes vectors of at most this many runs of equal amplitude.
# It costs about 0.7-1.4 us a run whatever N is, the plain CDF O(N). With
# 256 draws from Grover states of 2*n2 + 1 runs, at the optimal count and
# after one iteration (best of 7), it beat the plain CDF up to about 33-65
# runs at N = 2^14 and 257-513 at 2^16, and at every count up to 1023 runs
# from 2^18 on. At 1023 runs it took 0.65-1.4 ms, the plain CDF 0.13 ms at
# 2^14, 0.33 ms at 2^16, 1.4 ms at 2^18 and 6.2 ms at 2^20.
_MAX_RUNS = 1024
# The ``array`` typecode of one np.intp, so numpy reads such an array in place.
_INTP = np.dtype(np.intp).char
# Shapes (amplitude, N, n2, count) whose two class values and marked
# probability grover_iterate keeps for a broadcast start: three floats each.
_CLASS_CACHE_SIZE = 256


def _sum_of_squares(x: np.ndarray) -> float:
    """Sum of x*x without a BLAS dot product, which runs on OpenBLAS's thread
    pool and stalls when another process holds a core. einsum sums blocks of
    ``_SQUARES_BLOCK`` products and numpy's pairwise sum adds the block
    totals, then the ragged tail's sum, which keeps the result within a few
    ulps of the exact sum and allocates only N/_SQUARES_BLOCK partial sums.
    Fewer values than one block are one einsum, the same float as
    ``0.0 + tail``."""
    if x.size < _SQUARES_BLOCK:
        return float(np.einsum("i,i->", x, x))
    cut = x.size - x.size % _SQUARES_BLOCK
    blocks, tail = x[:cut].reshape(-1, _SQUARES_BLOCK), x[cut:]
    return float(np.einsum("ij,ij->i", blocks, blocks).sum() + np.einsum("i,i->", tail, tail))


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
    if idx is not None:
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

    ``_class_values`` is None, or ``(amplitudes, shape)`` for a read-only
    vector that ``count`` iterations wrote from ``value`` repeated N times,
    with ``shape = (value, N, n2, count)``: ``init_uniform``'s start
    (count 0) and ``grover_iterate``'s result from a broadcast. It holds one
    value at the marked indices and another everywhere else, and
    ``_uniform_class_amplitudes(*shape)`` gives the two and the marked
    probability. The sampler and ``marked_probability`` trust it only while
    ``amplitudes`` is still that array and still read-only.
    """

    __slots__ = ("amplitudes", "_marked_idx", "_class_values")

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
        self._class_values = None

    def _derive(
        self, amplitudes: np.ndarray, class_values: tuple[np.ndarray, tuple] | None = None
    ) -> StateVector:
        """A state on this state's marked set, built without the checks."""
        state = object.__new__(StateVector)
        state.amplitudes, state._marked_idx = amplitudes, self._marked_idx
        state._class_values = class_values
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


def _class_shape(state: StateVector) -> tuple | None:
    """The ``shape`` of a state's class values, or None when it carries none
    or its vector was replaced or made writeable since."""
    record, amps = state._class_values, state.amplitudes
    if record is None or record[0] is not amps or amps.flags.writeable:
        return None
    return record[1]


def _broadcast(value: float, n: int) -> np.ndarray:
    """``value`` seen n times through a zero stride, read-only and held once:
    the array np.broadcast_to builds, at a fraction of its cost."""
    amps = np.ndarray((n,), np.float64, np.array([value]), 0, (0,))
    amps.flags.writeable = False
    return amps


def init_uniform(params: SearchParams, marked) -> StateVector:
    """Equal superposition of all basis states: every amplitude is 1/sqrt(N).

    The amplitudes are a read-only broadcast of the one value, held once,
    so a search from this state holds one N-vector, its result. The
    constructor checks them like any caller's. The state carries that value
    as both its class values, so ``measure_sample`` samples it run by run.

    ``marked`` must contain exactly ``params.n2`` distinct indices in
    ``[0, n_total)``.
    """
    n = params.n_total
    value = 1.0 / math.sqrt(n)
    state = StateVector(_broadcast(value, n), marked)
    n2 = state._marked_idx.size
    if n2 != params.n2:
        raise ValueError(f"marked set has {n2} indices, expected n2={params.n2}")
    state._class_values = (state.amplitudes, (value, n, n2, 0))
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


def _class_amplitudes(
    amps: np.ndarray, marked: np.ndarray, count: int
) -> tuple[float, float, float, float]:
    """The unmarked and marked means ``mu`` and ``mm`` of ``amps``, whose
    marked entries are ``marked``, and the pair ``(a, b)`` they move to in
    ``count`` >= 1 iterations."""
    n2 = marked.size
    n1 = amps.size - n2
    marked_sum = float(marked.sum())
    mu = (float(amps.sum()) - marked_sum) / n1
    mm = marked_sum / n2
    # float(n1) and float(n2) are exact: no vector has 2**53 entries.
    a, b = next(islice(_rounds(float(n1), float(n2), mu, mm), count - 1, None))
    return mu, mm, a, b


@functools.lru_cache(maxsize=_CLASS_CACHE_SIZE)
def _uniform_class_amplitudes(
    value: float, n: int, n2: int, count: int
) -> tuple[float, float, float]:
    """The unmarked and marked values that ``count`` >= 0 iterations give
    ``value`` repeated n times, n2 of them marked, and the marked
    probability of that state.

    ``_class_amplitudes`` runs the same sums on the same values as the
    uncached path of ``grover_iterate``: a broadcast of ``value``, and the
    n2 copies that gathering its marked entries gives. Each class value is
    the float numpy's add or subtract gives at every entry of that path,
    and the probability is ``marked_probability``'s sum over the gather of
    the result, n2 copies of the marked value: all three bit for bit.
    """
    if count == 0:
        unmarked = marked = value
    else:
        mu, mm, a, b = _class_amplitudes(np.broadcast_to(value, (n,)), np.full(n2, value), count)
        unmarked = value + (a - mu) if count % 2 == 0 else (a + mu) - value
        marked = (value - mm) + b
    return unmarked, marked, _sum_of_squares(np.full(n2, marked))


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

    For a broadcast input (``strides == (0,)``, as every ``init_uniform``
    start is), the unmarked and marked values of the result come from a
    cache keyed on its shape ``(amplitude, N, n2, count)`` that holds the
    last ``_CLASS_CACHE_SIZE`` shapes. It computes them with the same code
    on the same values, so the output bytes are those of the uncached path:
    every unmarked entry gets one value and every marked entry the other.
    That output is read-only, a fresh broadcast of the input's value when
    ``count`` is 0, and the state carries its shape for ``measure_sample``
    and ``marked_probability``.
    """
    count = operator.index(count)
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    amps, idx = state.amplitudes, state._marked_idx
    if amps.strides == (0,):
        shape = (float(amps[0]), amps.size, idx.size, count)
        if count == 0:
            out = _broadcast(shape[0], amps.size)
        else:
            unmarked, marked, _ = _uniform_class_amplitudes(*shape)
            out = np.full(amps.size, unmarked)
            out[idx] = marked
            out.flags.writeable = False
        return state._derive(out, (out, shape))
    if count == 0:
        return state._derive(amps.copy())
    # Each unmarked amplitude c becomes a + (-1)**count * (c - mu), and each
    # marked one (c - mm) + b.
    marked = amps[idx]
    mu, mm, a, b = _class_amplitudes(amps, marked, count)
    marked -= mm
    marked += b
    # The marked entries this pass writes are overwritten below.
    out = np.add(amps, a - mu) if count % 2 == 0 else np.subtract(a + mu, amps)
    out[idx] = marked
    return state._derive(out)


def marked_probability(state: StateVector) -> float:
    """Probability that a measurement lands in the marked set.

    The sum of the squares of the marked amplitudes. A state that carries
    its class values reads it from the per-shape cache, which summed the
    same n2 copies of the marked value, so no amplitude is gathered.
    """
    if (shape := _class_shape(state)) is not None:
        return _uniform_class_amplitudes(*shape)[2]
    return _sum_of_squares(state.amplitudes[state._marked_idx])


def _bounds_dtype(n: int) -> type:
    """The integer type of the guide table of an N-long CDF: 4 bytes while
    every bound (at most N) and every bisection sum ``left + right`` (at
    most 2N) fits with room to spare, ``np.intp`` beyond."""
    return np.int32 if 2 * n + 2 < 2**31 else np.intp


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

    The table is built one slice of the CDF at a time, through one float and
    one ``intp`` buffer of ``_KEY_CHUNK`` values. A slice starts at the first
    value not yet counted, in bucket ``first``. It holds at most
    ``_KEY_CHUNK`` values, and only those in the ``4*_KEY_CHUNK`` buckets
    from ``first`` on: twice what ``_KEY_CHUNK`` values span on average,
    since m <= 2N. So the ``bincount`` of ``ceil(slice*m) - first`` stays
    short even where the CDF rises steeply, at an isolated marked state
    near the optimal count. Its running sum, from the count of the values
    before the slice, is ``guide`` over the slice's buckets; a bucket
    between two slices holds no value and repeats the count so far. The
    bounds are 4-byte integers while they fit (``_bounds_dtype``). So the
    CDF (8N bytes) and the table (8N) are all that is N-long: with the
    scratch of one slice and of one chunk of keys, about 19N bytes beside
    the picks at N = 2^18 with 10^6 draws, where holding the scaled CDF,
    its ``intp`` copy and a 2N + 1 ``intp`` count at once took 40N.
    """
    n = cdf.size
    m = 1 << n.bit_length()
    guide = np.empty(m + 1, _bounds_dtype(n))
    scaled, bucket = np.empty(min(n, _KEY_CHUNK)), np.empty(min(n, _KEY_CHUNK), np.intp)
    start = filled = 0  # guide is written up to filled
    while start < n:
        first = math.ceil(cdf[start] * m)
        last = (first + 4 * _KEY_CHUNK - 1) / m  # exact: an integer over a power of two
        stop = start + int(cdf[start : start + _KEY_CHUNK].searchsorted(last, side="right"))
        s, b = scaled[: stop - start], bucket[: stop - start]
        np.multiply(cdf[start:stop], m, out=s)
        np.ceil(s, out=s)  # cdf[i] <= j/m exactly when this is <= j
        np.subtract(s, first, out=b, casting="unsafe")
        counts = np.bincount(b)
        counts[0] += start
        guide[filled:first] = start
        filled = first + counts.size
        np.cumsum(counts, dtype=guide.dtype, out=guide[first:filled])
        start = stop

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


def _band(n: int, rounds: int) -> tuple[float, float, float]:
    """``(1 - delta, 1 + delta, alpha)`` of ``_run_table_search`` for an
    N-vector and K = ``rounds``."""
    delta = 2 * rounds * 2.0**-53
    return 1.0 - delta, 1.0 + delta, (4 * n + 32) * 2.0**-1074


def _run_table_search(
    amplitudes: np.ndarray, rows: list, rounds: int
) -> Callable[[np.ndarray], np.ndarray]:
    """``np.searchsorted(_cdf(amplitudes), keys, side="right")`` for keys in
    [0, 1), from the rows of the runs of equal amplitude that ``_run_search``
    builds, with each pick proven exact by an error bound.

    The rows lie end to end in one flat list, five numbers for each run of
    nonzero square q and length L: ``before, q, L*q, L - 1`` and the run's
    first index; then a closing row, whose ``before`` is ``total``, the sum
    of all the run sums. ``before`` of each row is the running total ahead
    of its run, so ``before`` of the next row is the sum up to the run's
    end: those sums make ``prefix``. For each ``target = key * total`` the
    run holding it is found in ``prefix``; the candidate pick is the run's
    first index plus ``r = floor(min(target - before, L*q) / q)``, at most
    L - 1 (the cap keeps the quotient near L when q is subnormal), and its
    sums of the squares up to the pick - 1 and up to the pick are
    ``before + r*q`` and that plus q.

    The CDF value at i is c_i / T, where c_i is the running sum of the
    rounded squares and T = c_{N-1}. Each of c_i, T, a candidate's sum and
    ``total`` is the sum of the exact squares with every term off by a
    factor within 1 +- gamma_K (Higham 2002, section 4.2 and lemma 3.1),
    whatever the order of the additions and whether a product is rounded or
    fused. ``rounds`` (K) counts the roundings on the way to one comparison.
    A square or product that underflows errs by at most 2**-1075; the four
    sums hold at most 6N + 2 such errors, and ``alpha = (8N + 64)*2**-1075``
    covers them. With ``delta = 2*K*2**-53 >= gamma_K`` (``_band``), a sum
    below ``target*(1 - delta) - alpha`` proves its CDF value ``<= key`` and
    one above ``target*(1 + delta) + alpha`` proves it ``> key``. The CDF is
    non-decreasing, so proving the sums just before and at the pick proves
    it exact: a floating-point filter with an exact fallback (Shewchuk
    1997). A key that is not proven is searched in the exact CDF, built on
    first need and kept for the later chunks.
    """
    table = np.array(rows, np.float64).reshape(-1, 5)
    prefix = np.ascontiguousarray(table[1:, 0])
    total = rows[-5]
    below, above, alpha = _band(amplitudes.size, rounds)
    cdf = None

    def search(keys: np.ndarray) -> np.ndarray:
        nonlocal cdf
        target = keys * total
        run = prefix.searchsorted(target, side="right")
        before, q, run_sum, last, start = table.take(run, axis=0).T
        # target >= before, since the run was found as the first prefix above it.
        r = np.minimum(target - before, run_sum)
        r /= q
        np.minimum(r, last, out=r)
        np.floor(r, out=r)
        picks = (start + r).astype(np.intp)
        r *= q
        before += r
        proven = before < target * below - alpha
        proven &= before + q > target * above + alpha
        if np.count_nonzero(proven) < proven.size:  # faster than not proven.all()
            unproven = np.flatnonzero(~proven)
            if cdf is None:
                cdf = _cdf(amplitudes)
            picks[unproven] = np.searchsorted(cdf, keys[unproven], side="right")
        return picks

    return search


def _run_search(
    amplitudes: np.ndarray,
    starts: Sequence[int],
    lengths: Sequence[int],
    squares: Sequence[float],
) -> Callable[[np.ndarray], np.ndarray]:
    """``np.searchsorted(_cdf(amplitudes), keys, side="right")`` for keys in
    [0, 1), from the runs of equal amplitude of ``amplitudes``: run i covers
    ``lengths[i]`` indices from ``starts[i]``, each with the rounded square
    ``squares[i]``, and the runs cover the vector in order.

    Of the R runs, one of length L and square q adds q to the running sum L
    times. Runs with q == 0.0 are dropped: adding 0.0 is exact, so their
    CDF values repeat the one before and are never picked. Each other run
    is summed as L*q, and the sums are run up left to right, with
    ``before``, the sum ahead of each run, the running total before the
    run's own sum is added, never a difference. K counts N each for c_i and
    T, R + 4 for a candidate's sum (the square, L*q, the run-up over at most
    R runs, r*q and two additions), R + 2 for ``total``, a few for the
    product, the quotient and the band, and spare: K = 2N + 2R + 16.

    A filter settles most keys with one ``searchsorted``. Take a run of one
    index s with square q, and ``at = before + q``: the candidate sums of s
    in ``_run_table_search``. For a target t = key * ``total``,
    ``_run_table_search`` proves s exactly when ``before < t*below - alpha``
    and ``at > t*above + alpha``, each side two rounded operations. A
    correctly rounded product by a positive constant, or sum with a
    constant, never decreases as t grows, in gradual underflow too, where
    results round to multiples of 2**-1074. So the first test holds for
    every t from some t1 up and the second for every t up to some t2: the
    targets that prove s are the floats of [t1, t2]. ``lo`` starts at
    ``(before + alpha)/below`` and ``hi`` at ``(at - alpha)/above``, the
    real-number ends, and each steps inward one float at a time until the
    test, evaluated at it in Python's doubles as numpy evaluates it per
    key, holds. Then every t in [lo, hi] passes both. A zero target never
    does: ``before >= 0`` is not below ``-alpha``, so lo > 0. A subnormal
    target needs no other argument. A run whose square lies inside the band
    gives lo > hi and no interval.

    The intervals come in index order and do not touch: hi < at, which is
    the next ``before``, which is below the next lo. ``ends`` holds each lo
    and the float after its hi, so ``ends.searchsorted(t, side="right")``
    is odd exactly inside an interval, and ``pick_of`` maps it to s there
    and to -1 elsewhere. A chunk with a key outside every interval, in a
    longer run, in a band or at 0, goes whole to ``_run_table_search``,
    built the first time one does: its numpy calls cost the same for a few
    keys as for the chunk, and the other keys get the same picks there.
    """
    n = amplitudes.size
    rounds = 2 * n + 2 * len(squares) + 16
    below, above, alpha = _band(n, rounds)
    rows, ends, pick_of, total = [], [], [-1], 0.0
    for start, length, q in zip(starts, lengths, squares):
        if q:
            run_sum = length * q
            at = total + run_sum
            if length == 1:
                lo = (total + alpha) / below
                while not total < lo * below - alpha:
                    lo = math.nextafter(lo, math.inf)
                hi = (at - alpha) / above
                while not at > hi * above + alpha:
                    hi = math.nextafter(hi, -math.inf)
                if lo <= hi:
                    ends += lo, math.nextafter(hi, math.inf)
                    pick_of += start, -1
            rows += total, q, run_sum, length - 1, start
            total = at
    # A target of exactly ``total`` (key * total may round up to it) finds
    # no run; this row gives it a candidate whose sum ahead, ``total``, is
    # never below the band, so the key goes to the exact CDF.
    rows += total, 1.0, 0.0, 0, n - 1
    ends, pick_of = np.array(ends), np.array(pick_of, dtype=np.intp)
    rest = None

    def search(keys: np.ndarray) -> np.ndarray:
        nonlocal rest
        picks = pick_of.take(ends.searchsorted(keys * total, side="right"))
        if picks.min() >= 0:
            return picks
        if rest is None:
            rest = _run_table_search(amplitudes, rows, rounds)
        return rest(keys)

    return search


def _class_runs(state: StateVector) -> tuple[list, list, list] | None:
    """The runs of equal amplitude of a state that carries its two class
    values, as ``_run_search`` takes them: ``(starts, lengths, squares)``.

    They come from the segments of consecutive marked indices, each one a
    run of the marked value with a run of the unmarked value between any
    two of them, so no amplitude is read. None for a state that carries no
    values, whose vector was replaced or made writeable, or with more than
    ``_MAX_RUNS`` runs.
    """
    if (shape := _class_shape(state)) is None:
        return None
    idx, n = state._marked_idx, state.amplitudes.size
    # The position in idx of the last index of each segment but the last.
    cuts = (idx[1:] != idx[:-1] + 1).nonzero()[0].tolist()
    first, last = idx.item(0), idx.item(-1)
    if 2 * len(cuts) + 3 - (first == 0) - (last == n - 1) > _MAX_RUNS:
        return None
    unmarked, marked, _ = _uniform_class_amplitudes(*shape)
    q_unmarked, q_marked = unmarked * unmarked, marked * marked
    # A run starts at 0, at the first index of each segment and one past
    # its last index: unmarked, marked, unmarked and so on.
    starts = [0, first]
    for i in cuts:
        starts += idx.item(i) + 1, idx.item(i + 1)
    starts.append(last + 1)
    lengths = list(map(operator.sub, starts[1:] + [n], starts))
    squares = [q_unmarked, q_marked] * (len(cuts) + 1) + [q_unmarked]
    if last == n - 1:  # the last run is empty
        del starts[-1], lengths[-1], squares[-1]
    if first == 0:  # the first run is empty
        del starts[0], lengths[0], squares[0]
    return starts, lengths, squares


def _draw_indices(state: StateVector, seed: int, out: array) -> None:
    """Write the picks of ``measure_sample`` into ``out``, one chunk of keys
    at a time; every array it builds is freed when it returns."""
    amplitudes = state.amplitudes
    n = amplitudes.size
    draws = len(out)
    if draws * _TABLE_RATIO >= n:
        search = _guide_table_search(_cdf(amplitudes))
    elif (runs := _class_runs(state)) is not None:
        search = _run_search(amplitudes, *runs)
    else:
        search = functools.partial(np.searchsorted, _cdf(amplitudes), side="right")
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

    - at least N/16 draws: a guide table, O(N) to build
      (``_guide_table_search``).
    - fewer than N/16 draws from the uniform start or a state that
      ``grover_iterate`` wrote from a broadcast, as every Grover state from
      the uniform start is, with at most ``_MAX_RUNS`` runs: the run sums,
      found from the marked indices and the state's two values, with no
      pass over the vector (``_run_search``). One ``searchsorted`` over
      the target intervals that the error bound proves for the runs of one
      index settles a chunk whose keys all fall in them, as most chunks of
      a Grover state near its optimal count do. Any other key keeps its
      pick from the run sums only where a rounding-error bound proves it
      exact, and is searched in the exact CDF otherwise
      (``_run_table_search``).
    - any other vector: each key is searched in the exact CDF.

    So all three give exactly the picks of searching each key on its own.

    The draws are an ``array.array`` of C ``intp`` integers, not boxed ints.
    Like a list, two results compare with ``==`` as one bool (a list never
    equals one) and its items are Python ints; ``np.asarray`` reads it
    without a copy.
    """
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    out = array(_INTP, [0]) * draws
    _draw_indices(state, seed, out)
    return out
