"""State-vector engine: kernels, conservation laws, and sampling."""

import hashlib
import math
import re
import tracemalloc
from array import array
from fractions import Fraction
from math import fsum, sqrt

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from groversim import statevector
from groversim import (
    SearchParams,
    StateVector,
    apply_diffusion,
    apply_oracle,
    closed_form,
    grover_iterate,
    init_uniform,
    marked_probability,
    measure_sample,
    optimal_iterations,
)


def brute_iterate(amplitudes, marked, count):
    """Independent oracle: plain-python sign flip plus two-pass inversion
    about an fsum mean. Shares no code with the numpy kernels."""
    amps = list(amplitudes)
    n = len(amps)
    for _ in range(count):
        amps = [-a if i in marked else a for i, a in enumerate(amps)]
        mean = fsum(amps) / n
        amps = [2.0 * mean - a for a in amps]
    return amps


def random_state(seed: int, n: int, n2: int) -> StateVector:
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(n)
    amps /= np.linalg.norm(amps)
    marked = rng.choice(n, size=n2, replace=False)
    return StateVector(amps, (int(i) for i in marked))


state_shapes = st.tuples(
    st.integers(min_value=0, max_value=2**32 - 1),  # seed
    st.integers(min_value=2, max_value=256),        # n
    st.integers(min_value=1, max_value=64),         # n2 (clamped below n)
).map(lambda t: (t[0], t[1], min(t[2], t[1] - 1)))


# --- construction -----------------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError):
        SearchParams(0, 1)
    with pytest.raises(ValueError):
        SearchParams(1, 0)
    with pytest.raises(ValueError):
        SearchParams(-3, 2)
    assert SearchParams(3, 1).n_total == 4


def test_init_uniform_n4_is_exactly_half():
    state = init_uniform(SearchParams(3, 1), {3})
    assert state.amplitudes.tolist() == [0.5, 0.5, 0.5, 0.5]
    assert state.marked == frozenset({3})


def test_init_uniform_n8():
    state = init_uniform(SearchParams(6, 2), {0, 5})
    assert np.allclose(state.amplitudes, 1.0 / sqrt(8), atol=0, rtol=1e-15)
    assert state.params == SearchParams(6, 2)


def test_init_uniform_rejects_bad_marked_sets():
    params = SearchParams(3, 1)
    with pytest.raises(ValueError):
        init_uniform(params, {1, 2})        # size mismatch
    with pytest.raises(IndexError):
        init_uniform(params, {4})           # out of range
    with pytest.raises(IndexError):
        init_uniform(params, {-1})


def test_statevector_rejects_invalid_inputs():
    with pytest.raises(ValueError):
        StateVector([0.7, 0.7], set())                 # empty marked set
    with pytest.raises(ValueError):
        StateVector([1.0, 1.0], {0})                   # not normalised
    with pytest.raises(ValueError):
        StateVector([1.0 / sqrt(2)] * 2, {0, 1})       # nothing unmarked
    with pytest.raises(ValueError):
        StateVector([1.0], {0})                        # length < 2
    for amplitudes in ([math.nan, math.nan], [math.nan, 1.0], np.broadcast_to(np.nan, (8,))):
        with pytest.raises(ValueError, match="not normalised"):
            StateVector(amplitudes, [0])
    # A broadcast's norm is the one product 4 * 0.6 * 0.6.
    with pytest.raises(ValueError, match=re.escape("sum of squares = 1.44") + "$"):
        StateVector(np.broadcast_to(0.6, (4,)), [0])


@given(st.integers(min_value=2, max_value=2**20), st.floats(min_value=-3e-12, max_value=3e-12))
@example(2**20, 4e-13)  # accepted
@example(2**20, -6e-13)  # rejected
def test_a_broadcast_gets_the_verdict_of_the_same_values_in_full(n, e):
    v = (1.0 + e) / sqrt(n)
    # Both sums are within 1e-13 of the exact one; closer calls may differ.
    assume(abs(abs(n * Fraction(v) ** 2 - 1) - statevector.NORM_TOL) > 1e-13)
    verdicts = []
    for amplitudes in (np.broadcast_to(v, (n,)), np.full(n, v)):
        try:
            StateVector(amplitudes, [0])
        except ValueError:
            verdicts.append("rejected")
        else:
            verdicts.append("accepted")
    assert verdicts[0] == verdicts[1]


UNIFORM8 = np.full(8, 1.0 / sqrt(8))


@pytest.mark.parametrize(
    "make_marked",
    [
        lambda: [5, 1, 3],
        lambda: {1, 3, 5},
        lambda: range(1, 6, 2),
        lambda: (i for i in (5, 3, 1)),
        lambda: np.array([5, 1, 3]),
        lambda: [np.int64(5), np.int32(1), np.uint8(3)],
        lambda: [3, 1, 5, 1, 3, 3],  # duplicates collapse
        lambda: [5, True, 3],
        lambda: np.array([3, 5, 1, 5], dtype=np.int64),
        lambda: np.array([5, 1, 3], dtype=np.uint8),
        lambda: np.array([5, 3, 1], dtype=np.uint64),
    ],
    ids=[
        "list", "set", "range", "generator", "ndarray", "numpy-scalars", "duplicates", "bool",
        "int64-ndarray", "uint8-ndarray", "uint64-ndarray",
    ],
)
def test_statevector_accepts_index_collections(make_marked):
    state = StateVector(UNIFORM8, make_marked())
    assert state.marked == frozenset({1, 3, 5})
    assert state._marked_idx.dtype == np.intp
    assert state._marked_idx.tolist() == [1, 3, 5]
    assert state.params == SearchParams(5, 3)


@pytest.mark.parametrize(
    "make_marked",
    [lambda: [9, 1, -2, 8, 9, -2], lambda: (i for i in (1, 8, -2, 9))],
    ids=["list", "generator"],
)
def test_out_of_range_error_lists_the_bad_indices_sorted(make_marked):
    with pytest.raises(IndexError, match=re.escape("out of range [0, 8): [-2, 8, 9]")):
        StateVector(UNIFORM8, make_marked())


@pytest.mark.parametrize(
    "marked",
    [[2.5], [1.0], ["1"], np.array([2.5]), {2.5}, [2**64, 2.5], np.array([False, True])],
    ids=["float", "integral-float", "string", "float-ndarray", "float-set", "float-past-intp", "mask"],
)
def test_marked_indices_must_be_integers(marked):
    with pytest.raises(TypeError):
        init_uniform(SearchParams(7, 1), marked)


def test_index_beyond_intp_is_an_index_error():
    huge = [1, 2**64, 7, -(2**70), 2**64]
    message = f"out of range [0, 8): [{-(2**70)}, {2**64}]"
    for marked in (huge, (i for i in huge)):
        with pytest.raises(IndexError, match=re.escape(message)):
            StateVector(UNIFORM8, marked)


def test_uint64_index_beyond_intp_is_an_index_error():
    # 2**64 - 1 does not fit intp; the message names the value given.
    marked = np.array([3, 2**64 - 1, 1], dtype=np.uint64)
    with pytest.raises(IndexError, match=re.escape("out of range [0, 8): [18446744073709551615]")):
        StateVector(UNIFORM8, marked)


INTEGER_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


@pytest.mark.parametrize(
    "marked, expected",
    [(np.array([5, 1, 3, 1], dtype=dtype), [1, 3, 5]) for dtype in INTEGER_DTYPES]
    + [
        (np.array([5, 1, 3, 1], dtype=object), [1, 3, 5]),
        (np.array([9, -2, 1], dtype=np.int8), (IndexError, "out of range [0, 8): [-2, 9]")),
        (np.array([9, -2, 1], dtype=np.int64), (IndexError, "out of range [0, 8): [-2, 9]")),
        (
            np.array([3, 2**63, 1], dtype=np.uint64),
            (IndexError, f"out of range [0, 8): [{2**63}]"),
        ),
        (np.array([1, 2], dtype=np.float16), (TypeError, "cannot be interpreted as an integer")),
        (np.array([1.0, 2.0]), (TypeError, "cannot be interpreted as an integer")),
        (np.array([False, True]), (TypeError, "cannot be interpreted as an integer")),
        (np.array([2.5], dtype=object), (TypeError, "cannot be interpreted as an integer")),
        (np.array([[1, 2]]), (TypeError, "only integer scalar arrays")),
    ],
    ids=[np.dtype(dtype).name for dtype in INTEGER_DTYPES]
    + ["object", "int8-negative", "int64-negative", "uint64-past-intp", "float16", "float64",
       "bool", "object-float", "2-d"],
)
def test_marked_index_arrays_of_every_dtype(marked, expected):
    # Every array is read index by index into C integers, as a list is.
    given_values = marked.copy()
    if isinstance(expected, list):
        assert StateVector(UNIFORM8, marked)._marked_idx.tolist() == expected
    else:
        error, message = expected
        with pytest.raises(error, match=re.escape(message)):
            StateVector(UNIFORM8, marked)
    assert np.array_equal(marked, given_values)  # the caller's array is not sorted in place


@pytest.mark.parametrize(
    "marked", [[], set(), range(0), np.array([], dtype=np.int64)], ids=["list", "set", "range", "ndarray"]
)
def test_empty_marked_set_is_rejected(marked):
    with pytest.raises(ValueError, match="must not be empty"):
        StateVector(UNIFORM8, marked)


def test_marking_every_index_is_rejected_even_with_duplicates():
    with pytest.raises(ValueError, match="at least one unmarked"):
        StateVector(UNIFORM8, list(range(8)) + [3, 3])


def test_marked_set_is_built_on_first_read_and_shared_with_derived_states():
    state = init_uniform(SearchParams(13, 3), [9, 0, 4])
    derived_before = grover_iterate(state, 2)
    marked = state.marked
    assert marked == frozenset({0, 4, 9})
    assert derived_before.marked == marked
    for derived in (apply_oracle(state), apply_diffusion(state), grover_iterate(state, 3)):
        assert derived._marked_idx is state._marked_idx
    with pytest.raises(ValueError):
        state._marked_idx[0] = 1  # shared, so read-only


# --- oracle -----------------------------------------------------------------

def test_oracle_flips_only_marked():
    state = init_uniform(SearchParams(3, 1), {3})
    flipped = apply_oracle(state)
    assert flipped.amplitudes.tolist() == [0.5, 0.5, 0.5, -0.5]
    # input untouched
    assert state.amplitudes.tolist() == [0.5, 0.5, 0.5, 0.5]


def test_oracle_flips_multiple_marked():
    state = init_uniform(SearchParams(6, 2), {0, 5})
    flipped = apply_oracle(state)
    expected = state.amplitudes.copy()
    expected[[0, 5]] *= -1
    assert flipped.amplitudes.tolist() == expected.tolist()


@given(state_shapes)
def test_oracle_is_an_exact_involution(shape):
    state = random_state(*shape)
    twice = apply_oracle(apply_oracle(state))
    assert twice.amplitudes.tolist() == state.amplitudes.tolist()


@given(state_shapes)
def test_oracle_preserves_norm(shape):
    state = random_state(*shape)
    after = apply_oracle(state)
    assert abs(float(after.amplitudes @ after.amplitudes) - float(state.amplitudes @ state.amplitudes)) <= 1e-12


# --- diffusion --------------------------------------------------------------

def test_diffusion_fixes_uniform_state():
    state = init_uniform(SearchParams(3, 1), {2})
    after = apply_diffusion(state)
    assert after.amplitudes.tolist() == [0.5, 0.5, 0.5, 0.5]


def test_diffusion_concentrates_n4():
    state = StateVector([0.5, 0.5, 0.5, -0.5], {3})
    after = apply_diffusion(state)
    assert after.amplitudes.tolist() == [0.0, 0.0, 0.0, 1.0]


def test_diffusion_matches_two_pass_oracle_on_random_16_vector():
    state = random_state(7, 16, 3)
    mean = fsum(state.amplitudes) / 16
    expected = [2.0 * mean - a for a in state.amplitudes]
    got = apply_diffusion(state).amplitudes
    assert np.allclose(got, expected, atol=1e-15, rtol=0)


@given(state_shapes)
def test_diffusion_preserves_sum_and_norm(shape):
    state = random_state(*shape)
    n = state.n_total
    after = apply_diffusion(state)
    sum_before = fsum(state.amplitudes)
    sum_after = fsum(after.amplitudes)
    assert abs(sum_after - sum_before) <= 1e-12 * n
    norm_before = float(state.amplitudes @ state.amplitudes)
    norm_after = float(after.amplitudes @ after.amplitudes)
    assert abs(norm_after - norm_before) <= 1e-12


@given(state_shapes)
def test_diffusion_is_an_involution(shape):
    state = random_state(*shape)
    twice = apply_diffusion(apply_diffusion(state))
    assert np.allclose(twice.amplitudes, state.amplitudes, atol=1e-12, rtol=0)


@given(state_shapes)
def test_diffusion_and_iterate_leave_input_untouched(shape):
    state = random_state(*shape)
    before = state.amplitudes.tolist()
    apply_diffusion(state)
    grover_iterate(state, 3)
    assert state.amplitudes.tolist() == before


# --- iteration --------------------------------------------------------------

def test_iterate_zero_is_identity():
    state = init_uniform(SearchParams(15, 1), {11})
    same = grover_iterate(state, 0)
    assert same.amplitudes.tolist() == state.amplitudes.tolist()


def test_iterate_rejects_negative_count():
    state = init_uniform(SearchParams(3, 1), {0})
    with pytest.raises(ValueError):
        grover_iterate(state, -1)


def test_single_iteration_solves_n4():
    state = grover_iterate(init_uniform(SearchParams(3, 1), {3}), 1)
    assert state.amplitudes.tolist() == [0.0, 0.0, 0.0, 1.0]
    assert marked_probability(state) == 1.0


def test_two_iterations_n8_reach_eleven_quarters():
    state = grover_iterate(init_uniform(SearchParams(7, 1), {7}), 2)
    assert state.amplitudes[7] == pytest.approx((11 / 4) / sqrt(8), abs=1e-15)
    assert state.amplitudes[0] == pytest.approx((-1 / 4) / sqrt(8), abs=1e-15)
    brute = brute_iterate([1 / sqrt(8)] * 8, {7}, 2)
    assert np.allclose(state.amplitudes, brute, atol=1e-14, rtol=0)


def test_iterate_runs_to_the_optimum_at_two_to_the_twenty():
    """804 iterations at N = 2**20: rounding drift over the run stays far
    below the tolerances, and no construction-time check cuts it short."""
    params = SearchParams(2**20 - 1, 1)
    n0 = optimal_iterations(params)
    assert n0 == 804
    state = grover_iterate(init_uniform(params, {12345}), n0)
    a, b = float(state.amplitudes[0]), float(state.amplitudes[12345])
    assert abs(params.n1 * a * a + params.n2 * b * b - 1.0) <= 1e-10
    expected = closed_form(params, n0)
    assert abs(a - expected.a) <= 1e-9
    assert abs(b - expected.b) <= 1e-9


def test_iterate_stays_on_the_closed_form_for_ten_optimal_runs_at_two_to_the_twenty():
    """8040 iterations at N = 2**20, far more than a full-vector loop can
    afford per test: the mean-pair recursion tracks the closed form."""
    params = SearchParams(2**20 - 1, 1)
    count = 10 * optimal_iterations(params)
    state = grover_iterate(init_uniform(params, {777}), count)
    expected = closed_form(params, count)
    assert abs(float(state.amplitudes[0]) - expected.a) <= 1e-9
    assert abs(float(state.amplitudes[777]) - expected.b) <= 1e-9


@given(state_shapes, st.integers(min_value=0, max_value=64))
def test_iterate_matches_stepwise_kernels_on_arbitrary_states(shape, count):
    """On non-uniform states the invariant-subspace form equals ``count``
    rounds of the full-vector oracle and diffusion, and the plain-python
    oracle, and leaves its input untouched."""
    state = random_state(*shape)
    before = state.amplitudes.tolist()
    got = grover_iterate(state, count).amplitudes
    assert state.amplitudes.tolist() == before
    stepwise = state
    for _ in range(count):
        stepwise = apply_diffusion(apply_oracle(stepwise))
    assert np.allclose(got, stepwise.amplitudes, atol=1e-12, rtol=0)
    brute = brute_iterate(before, state.marked, count)
    assert np.allclose(got, brute, atol=1e-12, rtol=0)


@pytest.mark.filterwarnings("ignore::groversim.RegimeWarning")
def test_iterate_output_bytes_match_the_recorded_digest():
    """Every byte ``grover_iterate`` writes, over a seeded set of states:
    the uniform and a random start, N = 2**2..2**16, n2 from 1 to N/2 - 1,
    and counts 0, 1, 2, the optimum and twice it plus 3. The digest was
    recorded from the integer-mass loop that ``collisions._rounds`` replaced;
    the random starts are normalised by ``fsum`` to stay off BLAS."""
    rng = np.random.default_rng(20011)
    digest = hashlib.sha256()
    for log2_n in range(2, 17):
        n = 2**log2_n
        for n2 in sorted({1, n // 2 - 1, int(rng.integers(1, n // 2))}):
            params = SearchParams(n - n2, n2)
            marked = rng.choice(n, size=n2, replace=False).tolist()
            amps = rng.standard_normal(n)
            amps /= sqrt(fsum(amps * amps))
            opt = optimal_iterations(params)
            for state in (init_uniform(params, marked), StateVector(amps, marked)):
                for count in (0, 1, 2, opt, 2 * opt + 3):
                    digest.update(grover_iterate(state, count).amplitudes.tobytes())
    assert digest.hexdigest() == "6d0f2137893d7bd2adcab13278be0f228b474a876db442203978ac3b0ea021b5"


def _broadcast_start(kind: str, n: int, marked) -> StateVector:
    value = 1.0 / sqrt(n)
    if kind == "init_uniform":
        return init_uniform(SearchParams(n - len(marked), len(marked)), marked)
    if kind == "as_strided":
        held = np.array([value])
        return StateVector(np.lib.stride_tricks.as_strided(held, (n,), (0,)), marked)
    return StateVector(np.broadcast_to(-value if kind == "negative" else value, (n,)), marked)


vector_sizes = st.one_of(
    st.integers(min_value=1, max_value=16).map(lambda k: 2**k),
    st.integers(min_value=2, max_value=2**16),
)


@pytest.mark.filterwarnings("ignore::groversim.RegimeWarning")
@given(
    vector_sizes.flatmap(lambda n: st.tuples(st.just(n), st.integers(min_value=1, max_value=n // 2))),
    st.one_of(
        st.integers(min_value=1, max_value=400),
        st.sampled_from(["optimal", "over-rotated"]),
    ),
    st.sampled_from(["init_uniform", "broadcast", "negative", "as_strided"]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example((2**16, 1), "optimal", "init_uniform", 0)
@example((2**16, 1), 400, "negative", 1)
@example((3, 1), "over-rotated", "as_strided", 2)
def test_broadcast_start_iterates_to_the_bytes_of_its_contiguous_copy(shape, count, kind, seed):
    """A broadcast start takes its class amplitudes from the per-shape
    cache; the same values held in full take the general path."""
    n, n2 = shape
    marked = np.random.default_rng(seed).choice(n, n2, replace=False).tolist()
    start = _broadcast_start(kind, n, marked)
    assert start.amplitudes.strides == (0,)
    optimal = optimal_iterations(start.params)
    count = {"optimal": max(optimal, 1), "over-rotated": 3 * optimal + 2}.get(count, count)
    full = StateVector(np.array(start.amplitudes), marked)
    assert full.amplitudes.flags.c_contiguous
    for _ in range(2):  # the second call finds the shape cached
        got = grover_iterate(start, count).amplitudes.tobytes()
        assert got == grover_iterate(full, count).amplitudes.tobytes()


def test_a_second_marked_set_of_one_shape_reuses_the_class_amplitudes():
    cached = statevector._uniform_class_amplitudes
    cached.cache_clear()
    n = 2**14
    params = SearchParams(n - 2, 2)
    for marked in ([3, 900], [0, n - 1]):
        grover_iterate(init_uniform(params, marked), optimal_iterations(params))
    info = cached.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    # Bounded: more shapes than it holds leave it full, not larger.
    start = init_uniform(SearchParams(7, 1), [2])
    for count in range(1, info.maxsize + 10):
        grover_iterate(start, count)
    assert cached.cache_info().currsize == info.maxsize
    cached.cache_clear()


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2, max_value=64),
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=0, max_value=12),
)
def test_uniform_start_collapses_to_two_amplitudes(seed, n, n2_raw, count):
    """From the uniform start, marked amplitudes stay mutually identical and
    so do unmarked ones (the basis of the two-level reduction)."""
    n2 = min(n2_raw, n - 1)
    rng = np.random.default_rng(seed)
    marked = {int(i) for i in rng.choice(n, size=n2, replace=False)}
    params = SearchParams(n - n2, n2)
    state = grover_iterate(init_uniform(params, marked), count)
    marked_vals = {state.amplitudes[i] for i in marked}
    unmarked_vals = {state.amplitudes[i] for i in range(n) if i not in marked}
    assert len(marked_vals) == 1
    assert len(unmarked_vals) == 1


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=8),
)
def test_marked_set_relabelling_does_not_change_probabilities(seed, count):
    """Only the marked count matters, never which indices carry the marks."""
    n, n2 = 32, 3
    params = SearchParams(n - n2, n2)
    rng = np.random.default_rng(seed)
    marked_a = {int(i) for i in rng.choice(n, size=n2, replace=False)}
    marked_b = {int(i) for i in rng.choice(n, size=n2, replace=False)}
    state_a = init_uniform(params, marked_a)
    state_b = init_uniform(params, marked_b)
    for _ in range(count):
        state_a = grover_iterate(state_a, 1)
        state_b = grover_iterate(state_b, 1)
        assert marked_probability(state_a) == pytest.approx(
            marked_probability(state_b), abs=1e-12
        )


# --- probability and sampling ----------------------------------------------

def test_marked_probability_examples():
    assert marked_probability(StateVector([0.0, 0.0, 0.0, 1.0], {3})) == 1.0
    uniform8 = init_uniform(SearchParams(6, 2), {0, 5})
    assert marked_probability(uniform8) == pytest.approx(0.25, abs=1e-15)


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2, max_value=3000),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_marked_probability_matches_fsum(seed, n, marked_share):
    """The BLAS-free sum of squares, over whole blocks and a ragged tail,
    stays within a few ulps of the exactly rounded sum."""
    n2 = min(n - 1, max(1, round(marked_share * n)))
    state = random_state(seed, n, n2)
    squares = (state.amplitudes * state.amplitudes).tolist()
    p_exact = fsum(squares[i] for i in state.marked)
    assert abs(marked_probability(state) - p_exact) <= 1e-15 * p_exact


def test_marked_probability_after_three_iterations_n16():
    # Frozen from the plain-python oracle; also equals sin(7*asin(1/4))**2.
    state = grover_iterate(init_uniform(SearchParams(15, 1), {7}), 3)
    expected = 0.9613189697265625
    assert marked_probability(state) == pytest.approx(expected, abs=1e-12)
    brute = brute_iterate([0.25] * 16, {7}, 3)
    assert fsum(a * a for i, a in enumerate(brute) if i == 7) == pytest.approx(
        expected, abs=1e-12
    )
    assert math.sin(7 * math.asin(0.25)) ** 2 == pytest.approx(expected, abs=1e-15)


@pytest.mark.filterwarnings("ignore::groversim.RegimeWarning")
@given(
    vector_sizes.flatmap(
        lambda n: st.tuples(st.just(n), st.integers(min_value=1, max_value=n - 1))
    ),
    st.one_of(
        st.integers(min_value=0, max_value=400),
        st.sampled_from(["optimal", "over-rotated"]),
    ),
    st.sampled_from(["init_uniform", "broadcast", "negative", "as_strided"]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example((2**16, 1), 0, "init_uniform", 0)
@example((2**16, 2**15 + 3), "optimal", "init_uniform", 1)  # many blocks of squares
@example((2**12, 2**10), 1, "negative", 2)  # the unmarked value is 0.0
def test_a_cached_marked_probability_is_the_sum_over_the_gather(shape, count, kind, seed):
    """A state that carries its class values reads its marked probability
    from the per-shape cache: the float that gathering its marked
    amplitudes and summing their squares gives, bit for bit."""
    n, n2 = shape
    marked = np.random.default_rng(seed).choice(n, n2, replace=False).tolist()
    start = _broadcast_start(kind, n, marked)
    optimal = optimal_iterations(start.params)
    count = {"optimal": optimal, "over-rotated": 3 * optimal + 2}.get(count, count)
    result = grover_iterate(start, count)
    assert statevector._class_shape(result) is not None
    assert (statevector._class_shape(start) is not None) == (kind == "init_uniform")
    for state in (start, result):
        gathered = statevector._sum_of_squares(state.amplitudes[state._marked_idx])
        assert marked_probability(state) == gathered


def test_marked_probability_of_a_replaced_or_writeable_vector_is_its_gather():
    n = 2**12
    state = grover_iterate(init_uniform(SearchParams(n - 1, 1), [100]), 3)
    cached = marked_probability(state)
    # Other values, also read-only: the class values no longer describe them.
    amps = np.full(n, 1 / sqrt(n))
    amps.flags.writeable = False
    state.amplitudes = amps
    assert marked_probability(state) == statevector._sum_of_squares(amps[[100]]) != cached
    # The same array, made writeable and written, is read again.
    state = grover_iterate(init_uniform(SearchParams(n - 1, 1), [100]), 3)
    state.amplitudes.flags.writeable = True
    state.amplitudes[100] = 0.5
    assert marked_probability(state) == 0.25


CHUNK = statevector._KEY_CHUNK


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.one_of(st.integers(min_value=2, max_value=300), st.integers(min_value=2, max_value=2**13)),
    st.sampled_from(["random", "with-zeros", "zero-runs", "point-mass"]),
    st.integers(min_value=0, max_value=2**63 - 1),
    st.one_of(
        st.just(1), st.integers(min_value=1, max_value=32), st.integers(min_value=1, max_value=3000)
    ),
)
# Either side of the path choice: 18 * 16 < 300 searches each key, 19 takes the table.
@example(state_seed=1, n=300, kind="random", sample_seed=2, draws=18)
@example(state_seed=1, n=300, kind="random", sample_seed=2, draws=19)
# Few draws from vectors a caller built, a few runs of equal amplitude among
# them: each key is searched in the exact CDF.
@example(state_seed=7, n=4096, kind="random", sample_seed=8, draws=16)
@example(state_seed=7, n=4096, kind="random", sample_seed=8, draws=17)
@example(state_seed=9, n=5000, kind="random", sample_seed=10, draws=3)
@example(state_seed=9, n=5000, kind="with-zeros", sample_seed=10, draws=3)
@example(state_seed=9, n=5000, kind="point-mass", sample_seed=10, draws=3)
@example(state_seed=9, n=5000, kind="zero-runs", sample_seed=10, draws=3)
# One chunk less one, exactly one chunk, and several with a ragged last chunk.
@example(state_seed=3, n=257, kind="with-zeros", sample_seed=4, draws=CHUNK - 1)
@example(state_seed=3, n=257, kind="random", sample_seed=4, draws=CHUNK)
@example(state_seed=5, n=300, kind="zero-runs", sample_seed=6, draws=3 * CHUNK + 7)
def test_measure_sample_matches_searching_each_draw_on_its_own(
    state_seed, n, kind, sample_seed, draws
):
    """The picks, in draw order, are those of searching every uniform key of
    the seeded stream on its own, on the guide-table and plain paths, with
    exactly-zero amplitudes (tied CDF values), long zero runs that put many
    CDF values in one bucket, and point masses."""
    rng = np.random.default_rng(state_seed)
    if kind == "point-mass":
        amps = np.zeros(n)
        amps[rng.integers(n)] = rng.choice([-1.0, 1.0])
    elif kind == "zero-runs":
        amps = np.zeros(n)
        amps[rng.choice(n, size=min(n, 4), replace=False)] = rng.standard_normal(min(n, 4))
        amps[rng.integers(n)] = 1.0
    else:
        amps = rng.standard_normal(n)
        if kind == "with-zeros":
            amps[rng.random(n) < 0.6] = 0.0
            amps[rng.integers(n)] = 1.0
    amps /= np.sqrt(fsum((amps * amps).tolist()))
    state = StateVector(amps, {0})
    cdf = np.cumsum(state.amplitudes * state.amplitudes)
    cdf /= cdf[-1]
    keys = np.random.default_rng(sample_seed).random(draws)
    expected = [int(np.searchsorted(cdf, key, side="right")) for key in keys]
    assert measure_sample(state, sample_seed, draws).tolist() == expected


def test_measure_sample_at_two_to_the_twenty_matches_the_plain_reference():
    # 4000 * 16 < 2**20 and random amplitudes: each key is searched in the
    # in-place CDF, which must give the picks of the textbook two-buffer CDF.
    n = 2**20
    rng = np.random.default_rng(11)
    amps = rng.standard_normal(n)
    amps /= np.sqrt(fsum((amps * amps).tolist()))
    state = StateVector(amps, rng.choice(n, size=17, replace=False))
    cdf = np.cumsum(amps * amps)
    keys = np.random.default_rng(5).random(4000)
    expected = np.searchsorted(cdf / cdf[-1], keys, side="right").tolist()
    assert measure_sample(state, 5, 4000).tolist() == expected


def _guide_of(search):
    """The guide table held by a ``_guide_table_search`` closure."""
    cells = dict(zip(search.__code__.co_freevars, search.__closure__))
    return cells["guide"].cell_contents


def _guide_states(n):
    """Amplitudes for the guide-table build: random, a single marked state at
    the optimum in mid-slice (the CDF rises by nearly 1 inside one slice),
    zero runs whose tied CDF values straddle the slice edges, and the
    adversarial states, subnormal squares included."""
    rng = np.random.default_rng(n)
    params = SearchParams(n - 1, 1)
    optimal = grover_iterate(init_uniform(params, [n // 2 + 5]), optimal_iterations(params))
    # Half the mass at index 0, so that CHUNK values after it span fewer
    # than the 4*CHUNK buckets a slice may hold: each slice ends after CHUNK
    # values, inside a run of zeros.
    straddle = rng.standard_normal(n)
    straddle[np.abs(np.arange(n) - np.round(np.arange(n) / CHUNK) * CHUNK) < 40] = 0.0
    straddle[0] = sqrt(fsum((straddle[1:] * straddle[1:]).tolist()))
    straddle /= sqrt(fsum((straddle * straddle).tolist()))
    random = rng.standard_normal(n)
    random /= sqrt(fsum((random * random).tolist()))
    states = {"random": random, "optimal": optimal.amplitudes, "straddle": straddle}
    return {**states, **_adversarial_states(n)}


@pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
@pytest.mark.parametrize(
    "kind", ["random", "optimal", "straddle", "uniform", "grover", "zero-runs", "underflow"]
)
def test_guide_table_built_in_slices_matches_the_one_shot_build(monkeypatch, n, kind):
    """The table built slice by slice equals ``cumsum(bincount(ceil(cdf*m)))``
    built in one go, in 4-byte bounds, and its picks equal ``searchsorted``
    on keys at the CDF values either side of each slice edge, one step from
    them, at the bucket edges j/m, at 0.0 and at the largest double below
    1.0. The picks are the same with ``np.intp`` bounds."""
    cdf = statevector._cdf(_guide_states(n)[kind])
    m = 1 << n.bit_length()
    edges = np.arange(CHUNK, n, CHUNK)
    if kind == "straddle":
        assert (np.diff(np.ceil(np.r_[cdf[::CHUNK], 1.0] * m)) < 2 * CHUNK).all()
        assert (cdf[edges - 1] == cdf[edges]).all()
    guide = _guide_of(statevector._guide_table_search(cdf))
    assert guide.dtype == np.int32
    expected = np.cumsum(np.bincount(np.ceil(cdf * m).astype(np.intp), minlength=m + 1))
    assert guide.tolist() == expected.tolist()
    at = np.r_[0, 1, edges - 2, edges - 1, edges, edges + 1, n // 2 - 1 : n // 2 + 8, n - 2]
    at = np.unique(at[(at >= 0) & (at < n - 1)])
    values = np.r_[cdf[at], np.nextafter(cdf[at], 0.0), np.nextafter(cdf[at], 1.0)]
    buckets = np.ceil(cdf[at] * m)
    buckets = np.r_[buckets - 1, buckets, buckets + 1, 0, 1, m // 2, m - 1]
    keys = np.r_[values, buckets[(buckets >= 0) & (buckets < m)] / m, 0.0, np.nextafter(1.0, 0.0)]
    keys = np.r_[keys[(keys >= 0.0) & (keys < 1.0)], np.random.default_rng(n).random(2000)]
    reference = np.searchsorted(cdf, keys, side="right").tolist()
    assert statevector._guide_table_search(cdf)(keys).tolist() == reference
    monkeypatch.setattr(statevector, "_bounds_dtype", lambda n: np.intp)
    search = statevector._guide_table_search(cdf)
    assert _guide_of(search).dtype == np.intp
    assert search(keys).tolist() == reference


def test_guide_bounds_are_four_bytes_while_twice_n_fits():
    # Every bound is at most N and every bisection sum left + right at most 2N.
    assert statevector._bounds_dtype(2) is np.int32
    assert statevector._bounds_dtype(2**30 - 2) is np.int32  # 2N + 2 == 2**31 - 2
    assert 2 * (2**30 - 2) + 2 <= np.iinfo(np.int32).max
    assert statevector._bounds_dtype(2**30 - 1) is np.intp  # 2N + 2 == 2**31


def scanned_runs(amps):
    """The runs of equal amplitude as ``(starts, lengths, squares)``, found by
    comparing neighbours: the reference for the runs ``measure_sample``
    finds from the marked indices."""
    bounds = np.r_[0, np.flatnonzero(amps[1:] != amps[:-1]) + 1, amps.size]
    starts = bounds[:-1]
    return starts.tolist(), np.diff(bounds).tolist(), np.square(amps[starts]).tolist()


def _adversarial_states(n):
    rng = np.random.default_rng(n)
    uniform = np.full(n, 1.0 / sqrt(n))
    # Two values: unmarked and marked amplitudes after two iterations.
    grover = grover_iterate(init_uniform(SearchParams(n - 3, 3), {5, n // 2, n - 1}), 2).amplitudes
    zero_runs = np.zeros(n)
    zero_runs[[0, 1, n // 3, n - 2]] = rng.standard_normal(4)
    # Squares that underflow to subnormals or to zero ahead of the mass, so
    # the first CDF values are subnormal.
    underflow = rng.choice([1e-155, 1e-160, 1e-165, 1e-170, 0.0], size=n)
    underflow[[2 * n // 3, n - 5]] = (0.6, -0.8)
    states = {"uniform": uniform, "grover": grover, "zero-runs": zero_runs, "underflow": underflow}
    return {kind: amps / sqrt(fsum((amps * amps).tolist())) for kind, amps in states.items()}


@pytest.mark.parametrize("n", [1000, 3001, 2**16])
@pytest.mark.parametrize("kind", ["uniform", "grover", "optimal", "zero-runs", "underflow"])
def test_run_search_matches_the_exact_search_on_keys_at_the_cdf_values(monkeypatch, n, kind):
    """Keys at, beside and between the CDF values at the edges of the runs:
    a key equal to a CDF value or one step from it must go to the exact CDF
    and get its pick there, and a key halfway between CDF values that differ
    enough is settled by the run sums alone. A chunk of keys inside runs
    of one index (a Grover state at its optimum, isolated nonzero
    amplitudes) is settled by the filter without the unfiltered search,
    which gives the same picks on every key."""
    if kind == "optimal":
        params = SearchParams(n - 3, 3)
        start = init_uniform(params, {5, n // 2, n - 1})
        amps = grover_iterate(start, optimal_iterations(params)).amplitudes
    else:
        amps = _adversarial_states(n)[kind]
    if kind == "underflow":  # the same values in runs of 64, not one by one
        amps = np.repeat(amps[::64], 64)[:n]
        amps /= sqrt(fsum((amps * amps).tolist()))
    cdf = np.cumsum(amps * amps)
    cdf /= cdf[-1]
    runs = scanned_runs(amps)
    starts = np.array(runs[0])  # where each run begins
    assert starts.size <= statevector._MAX_RUNS
    # The last index ahead of each run, its first, its second, and the tail.
    at = np.r_[starts - 1, starts, starts + 1, n // 2, n - 3 : n - 1]
    at = np.unique(at[(at >= 0) & (at < n - 1)])
    edges = np.r_[cdf[at], np.nextafter(cdf[at], 0.0), np.nextafter(cdf[at], 1.0), 0.0]
    edges = np.r_[edges[edges < 1.0], np.nextafter(1.0, 0.0)]
    gaps = (cdf[at] + cdf[at + 1]) / 2
    keys = np.r_[edges, gaps]

    def reference(k):
        return [int(np.searchsorted(cdf, key, side="right")) for key in k]

    builds, received, exact_cdf = [], [], statevector._cdf

    class LoggedCdf(np.ndarray):
        """The exact CDF, logging the keys that its ``searchsorted`` gets."""

        def searchsorted(self, v, side="left", sorter=None):
            received.extend(np.atleast_1d(v).tolist())
            return np.asarray(self).searchsorted(v, side, sorter)

    def logged_cdf(a):
        builds.append(1)
        return exact_cdf(a).view(LoggedCdf)

    monkeypatch.setattr(statevector, "_cdf", logged_cdf)
    # The unfiltered search, built when a chunk holds a key the filter leaves.
    tables, build = [], statevector._run_table_search

    def table_search(*args):
        tables.append(build(*args))
        return tables[-1]

    monkeypatch.setattr(statevector, "_run_table_search", table_search)
    search = statevector._run_search(amps, *runs)
    # All the keys in one call, proven and unproven ones mixed.
    assert search(keys).tolist() == reference(keys)
    assert len(builds) == 1
    # Key 0 is in no interval, so the unfiltered search was built.
    assert len(tables) == 1 and tables[0](keys).tolist() == reference(keys)
    wide = np.diff(cdf)[at] > 1e-6
    singles = [start for start, length in zip(*runs[:2]) if length == 1]
    at_singles = wide & np.isin(at + 1, singles)  # a gap key picks at + 1
    if kind in ("optimal", "zero-runs"):  # runs of one index hold most squares
        inside = gaps[at_singles]
        tables.clear()
        assert statevector._run_search(amps, *runs)(inside).tolist() == reference(inside)
        assert inside.size and not tables
    # Key by key through one search, counting the keys that its exact CDF
    # received: the CDF is built once and each key that needs it is logged.
    search, fell_back = statevector._run_search(amps, *runs), []
    for key in keys:
        received.clear()
        assert search(np.array([key])).tolist() == reference([key])
        assert received in ([], [key])
        fell_back.append(bool(received))
    at_edges, in_gaps = np.split(np.array(fell_back), [edges.size])
    assert at_edges.all()
    assert wide.any() and not in_gaps[wide].any()


@pytest.mark.filterwarnings("ignore::groversim.RegimeWarning")
@given(
    st.integers(min_value=2, max_value=16),
    st.integers(min_value=1, max_value=63),
    st.sampled_from(["random", "adjacent", "ends", "prefix"]),
    st.sampled_from(["none", "optimal", "over-rotated", "any"]),
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=0, max_value=2**32 - 1),
)
# n2 = N/4 and one iteration: the unmarked square is 0.0, the marked runs hold all.
@example(log2_n=6, n2=16, layout="random", counting="any", count=1, seed=1)
# n2 = 3N/4 and one iteration: the marked square is 0.0.
@example(log2_n=4, n2=12, layout="adjacent", counting="any", count=1, seed=2)
# Indices 0 and N - 1 marked, at the optimum and at the uniform start.
@example(log2_n=16, n2=2, layout="ends", counting="optimal", count=1, seed=3)
@example(log2_n=16, n2=2, layout="ends", counting="none", count=1, seed=4)
@example(log2_n=14, n2=4, layout="random", counting="over-rotated", count=3, seed=5)
def test_the_single_index_filter_gives_the_exact_picks_on_grover_states(
    log2_n, n2, layout, counting, count, seed
):
    """On a state that carries its class values, the run search with its
    filter gives the picks of the unfiltered search and of the exact CDF:
    key 0, random keys, and keys at, beside and inside the CDF values of
    every run of one index, for adjacent marked segments, marked ends, runs
    whose square is 0.0, the uniform start, and counts none, optimal and
    over-rotated."""
    n = 2**log2_n
    rng = np.random.default_rng(seed)
    marked = _marked_layout(rng, n, min(n2, n - 1), layout)
    params = SearchParams(n - len(marked), len(marked))
    optimum = optimal_iterations(params)
    count = {"none": 0, "optimal": optimum, "over-rotated": 2 * optimum + 1 + count % 7}.get(
        counting, count
    )
    state = grover_iterate(init_uniform(params, marked), count)
    runs = statevector._class_runs(state)
    amps = state.amplitudes
    cdf = np.cumsum(amps * amps)
    cdf /= cdf[-1]
    ahead = np.r_[0.0, cdf[:-1]]  # the CDF value before each index
    singles = np.array([i for i, length in zip(*runs[:2]) if length == 1], dtype=np.intp)
    near = np.r_[ahead[singles], cdf[singles]]
    inside = (ahead[singles] + cdf[singles]) / 2
    beside = np.r_[np.nextafter(near, 0.0), np.nextafter(near, 1.0)]
    keys = np.r_[0.0, rng.random(64), near, beside, inside]
    keys = keys[keys < 1.0]
    expected = np.searchsorted(cdf, keys, side="right").tolist()
    tables = []
    with pytest.MonkeyPatch.context() as patch:
        build = statevector._run_table_search

        def spy(*args):
            tables.append(build(*args))
            return tables[-1]

        patch.setattr(statevector, "_run_table_search", spy)
        assert statevector._run_search(amps, *runs)(keys).tolist() == expected
    assert len(tables) == 1  # key 0 is in no interval
    assert tables[0](keys).tolist() == expected
    draws = max(1, n // 17)
    expected = np.searchsorted(cdf, np.random.default_rng(seed).random(draws), side="right")
    assert measure_sample(state, seed, draws).tolist() == expected.tolist()


@pytest.mark.filterwarnings("ignore::groversim.RegimeWarning")
@given(
    st.integers(min_value=2, max_value=16),
    st.integers(min_value=1, max_value=511),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(["none", "optimal", "over-rotated", "any"]),
    st.integers(min_value=0, max_value=400),
)
@example(log2_n=16, n2=1, seed=3, counting="optimal", count=0)
@example(log2_n=16, n2=511, seed=4, counting="over-rotated", count=0)
@example(log2_n=2, n2=3, seed=5, counting="any", count=7)
def test_run_search_matches_the_exact_search_on_grover_states(log2_n, n2, seed, counting, count):
    """Any Grover state from the uniform start has at most 2*n2 + 1 runs;
    from the runs its neighbours show, the run search gives the picks of a
    per-key search of the exact CDF, for counts from none through the
    optimum to over-rotated ones. Four entries with three of them marked, and keys at the CDF values
    next to the marked entries, are among the cases."""
    n = 2**log2_n
    n2 = min(n2, n - 1)
    rng = np.random.default_rng(seed)
    params = SearchParams(n - n2, n2)
    start = init_uniform(params, rng.choice(n, n2, replace=False))
    optimum = optimal_iterations(params)
    count = {"none": 0, "optimal": optimum, "over-rotated": 2 * optimum + 1 + count % 7}.get(
        counting, count
    )
    amps = grover_iterate(start, count).amplitudes
    cdf = np.cumsum(amps * amps)
    cdf /= cdf[-1]
    near = np.r_[start._marked_idx - 1, start._marked_idx].clip(0, n - 1)
    keys = np.r_[rng.random(200), cdf[near], np.nextafter(cdf[near], 0.0)]
    keys = keys[keys < 1.0]
    search = statevector._run_search(amps, *scanned_runs(amps))
    expected = [int(np.searchsorted(cdf, key, side="right")) for key in keys]
    assert search(keys).tolist() == expected
    draws = max(1, n // 17)
    expected = np.searchsorted(cdf, np.random.default_rng(seed).random(draws), side="right")
    assert measure_sample(grover_iterate(start, count), seed, draws).tolist() == expected.tolist()


@pytest.mark.parametrize("log2_n", [13, 14, 18])
@pytest.mark.parametrize("head", ["random", "constant"])
def test_random_amplitudes_do_not_take_the_run_path(monkeypatch, log2_n, head):
    # Only a state that grover_iterate wrote from a broadcast carries its
    # runs; any vector built by a caller, even one that opens with a long
    # constant head, is sampled without them.
    n = 2**log2_n
    amps = np.random.default_rng(log2_n).standard_normal(n)
    if head == "constant":
        amps[:4096] = amps[0]
    state = StateVector(amps / sqrt(fsum((amps * amps).tolist())), [3])
    assert statevector._class_runs(state) is None
    monkeypatch.setattr(statevector, "_run_search", None)  # a call would raise
    monkeypatch.setattr(statevector, "_run_table_search", None)
    assert len(measure_sample(state, 1, 4)) == 4


def _marked_layout(rng, n, n2, layout):
    """About n2 distinct indices in [0, n), laid out as ``layout`` says."""
    if layout == "prefix":  # as the CLI marks them
        return list(range(n2))
    if layout == "ends":  # 0 and N - 1 among them
        return [0, n - 1, *rng.choice(np.arange(1, n - 1), max(n2 - 2, 0), replace=False)]
    if layout == "adjacent":  # mostly consecutive, in a few segments
        gaps = rng.choice([1, 1, 1, 2, 7], size=n2)
        return np.unique((rng.integers(n) + np.cumsum(gaps)) % n)[: n - 1].tolist()
    return rng.choice(n, n2, replace=False).tolist()


@pytest.mark.filterwarnings("ignore::groversim.RegimeWarning")
@given(
    st.integers(min_value=5, max_value=16),
    st.integers(min_value=1, max_value=300),
    st.sampled_from(["random", "adjacent", "ends", "prefix"]),
    st.sampled_from(["none", "optimal", "over-rotated", "any"]),
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=0, max_value=2**32 - 1),
)
# n2 = N/4 and one iteration: every unmarked amplitude is exactly 0.0.
@example(log2_n=10, n2=256, layout="prefix", counting="any", count=1, seed=1)
@example(log2_n=8, n2=64, layout="adjacent", counting="any", count=1, seed=2)
# n2 = 3N/4 and one iteration: every marked amplitude is exactly 0.0.
@example(log2_n=8, n2=192, layout="random", counting="any", count=1, seed=3)
@example(log2_n=5, n2=24, layout="ends", counting="any", count=1, seed=4)
@example(log2_n=16, n2=3, layout="ends", counting="optimal", count=1, seed=5)
def test_runs_from_the_marked_indices_match_the_exact_search(
    log2_n, n2, layout, counting, count, seed
):
    """A state that grover_iterate wrote from the uniform start is sampled
    from runs found in its marked indices alone: those its neighbours show,
    and picks equal to a per-key search of the exact CDF, for keys at and
    beside the CDF values at every run edge, and through measure_sample.
    With no iteration the state is the uniform start, whose one value is
    both class values."""
    n = 2**log2_n
    rng = np.random.default_rng(seed)
    marked = _marked_layout(rng, n, min(n2, n - 1), layout)
    params = SearchParams(n - len(marked), len(marked))
    optimum = optimal_iterations(params)
    count = {"none": 0, "optimal": optimum, "over-rotated": 2 * optimum + 1 + count % 7}.get(
        counting, count
    )
    state = grover_iterate(init_uniform(params, marked), count)
    amps = state.amplitudes
    cdf = np.cumsum(amps * amps)
    cdf /= cdf[-1]
    runs = statevector._class_runs(state)
    assert runs is not None  # at most 2*300 + 1 runs
    unmarked, marked_value, _ = statevector._uniform_class_amplitudes(*state._class_values[1])
    if unmarked != marked_value:  # equal values would be one run to the scan
        assert [list(column) for column in runs] == list(scanned_runs(amps))
    edges = np.array(runs[0])
    near = np.r_[edges - 1, edges, n - 1].clip(0, n - 1)
    keys = np.r_[rng.random(100), cdf[near], np.nextafter(cdf[near], 0.0)]
    keys = keys[keys < 1.0]
    expected = [int(np.searchsorted(cdf, key, side="right")) for key in keys]
    assert statevector._run_search(amps, *runs)(keys).tolist() == expected
    draws = max(1, n // 17)
    expected = np.searchsorted(cdf, np.random.default_rng(seed).random(draws), side="right")
    assert measure_sample(state, seed, draws).tolist() == expected.tolist()


def test_a_grover_state_from_a_broadcast_is_read_only():
    state = grover_iterate(init_uniform(SearchParams(60, 4), [0, 1, 2, 63]), 2)
    with pytest.raises(ValueError):
        state.amplitudes[5] = 0.0
    with pytest.raises(ValueError):
        state.amplitudes += 1.0


@pytest.mark.parametrize("marked", [[7], [0, 1, 2, 3], [5, 6, 900, 4095]])
def test_a_copy_of_a_grover_state_samples_the_same_picks_from_its_amplitudes(
    monkeypatch, marked
):
    n = 2**12
    state = grover_iterate(init_uniform(SearchParams(n - len(marked), len(marked)), marked), 5)
    copy = StateVector(np.array(state.amplitudes), marked)
    assert statevector._class_runs(state) is not None
    assert statevector._class_runs(copy) is None
    for draws in (3, 100):  # the copy searches each key in the CDF
        picks = measure_sample(state, 17, draws)
        monkeypatch.setattr(statevector, "_run_search", None)  # a call would raise
        monkeypatch.setattr(statevector, "_run_table_search", None)
        assert measure_sample(copy, 17, draws) == picks
        monkeypatch.undo()


def test_a_state_whose_amplitudes_are_replaced_drops_its_runs():
    n = 2**12
    state = grover_iterate(init_uniform(SearchParams(n - 1, 1), [100]), 3)
    assert statevector._class_runs(state) is not None
    # Other values, also read-only: the two values no longer describe them.
    amps = np.full(n, 1 / sqrt(n))
    amps.flags.writeable = False
    state.amplitudes = amps
    assert statevector._class_runs(state) is None
    cdf = np.cumsum(amps * amps)
    cdf /= cdf[-1]
    keys = np.random.default_rng(8).random(50)
    assert measure_sample(state, 8, 50).tolist() == np.searchsorted(cdf, keys, side="right").tolist()
    # The same array, made writeable again, is not trusted either.
    state = grover_iterate(init_uniform(SearchParams(n - 1, 1), [100]), 3)
    state.amplitudes.flags.writeable = True
    assert statevector._class_runs(state) is None


@pytest.mark.parametrize("n", [1, 2, 17, 255, 256, 257, 1000])
def test_sum_of_squares_is_the_blocked_sum_at_every_length(n):
    # The pairwise sum of the block sums plus the ragged tail's sum; below
    # one block that is one einsum, the float that 0.0 + tail gives.
    x = np.random.default_rng(n).standard_normal(n)
    width = statevector._SQUARES_BLOCK
    cut = n - n % width
    blocks = [x[i : i + width] for i in range(0, cut, width)]
    sums = np.array([np.einsum("i,i->", block, block) for block in blocks])
    tail = np.einsum("i,i->", x[cut:], x[cut:])
    assert statevector._sum_of_squares(x) == float(sums.sum() + tail)


@pytest.mark.parametrize("marked", ["spread", "one-optimal"])
def test_measure_sample_peak_memory_beside_the_picks_is_bounded(marked):
    # The whole call, its result included, holds the picks once (8 bytes a
    # draw) and O(N) tables: no second draws-long buffer, no boxed ints.
    # Beside the picks: the CDF (8N), the guide table's 2N + 1 4-byte
    # bounds (8N) and the scratch of one slice and one chunk of keys, about
    # 19N; a build that held the whole scaled CDF and an N-long intp count
    # at once took 40N. One marked state at the optimum puts nearly the
    # whole rise of the CDF inside one slice, whose count stays short.
    n, draws = 2**18, 10**6
    if marked == "spread":
        state = grover_iterate(init_uniform(SearchParams(n - 1024, 1024), range(0, n, 256)), 3)
    else:
        params = SearchParams(n - 1, 1)
        state = grover_iterate(init_uniform(params, [n // 2 + 5]), optimal_iterations(params))
    tracemalloc.start()
    try:
        picks = measure_sample(state, 9, draws)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(picks) == draws
    assert peak <= 8 * draws + 24 * n


@pytest.mark.parametrize(
    "kind, draws, path",
    [
        ("random", 8, "plain-cdf"),
        ("random", 100, "plain-cdf"),
        ("grover", 1000, "guide-table"),
        ("grover", 8, "runs"),
        ("grover", 100, "runs"),
        ("grover-many-runs", 8, "plain-cdf"),
    ],
    ids=[
        "plain-cdf-8",
        "plain-cdf",
        "guide-table",
        "grover-runs-8",
        "grover-runs-100",
        "grover-many-runs",
    ],
)
def test_measure_sample_returns_machine_ints_filled_in_place(monkeypatch, kind, draws, path):
    # At N = 2**12: 1000 * 16 >= N takes the guide table. Below that a
    # Grover state of at most _MAX_RUNS runs takes the run path, and random
    # amplitudes or a Grover state of more runs a search of each key in the CDF.
    n = 2**12
    if kind == "grover":
        state = grover_iterate(init_uniform(SearchParams(n - 5, 5), [3, 70, 1000, 2048, 4095]), 4)
    elif kind == "grover-many-runs":  # 512 isolated marked states: 1025 runs
        marked = range(1, n, 8)
        state = grover_iterate(init_uniform(SearchParams(n - len(marked), len(marked)), marked), 4)
        assert 2 * len(marked) + 1 > statevector._MAX_RUNS
    else:
        amps = np.random.default_rng(draws).standard_normal(n)
        state = StateVector(amps / sqrt(fsum((amps * amps).tolist())), [3])
    taken = []
    for name, builder in [("runs", "_class_runs"), ("guide-table", "_guide_table_search")]:
        def spy(*args, name=name, build=getattr(statevector, builder)):
            search = build(*args)
            if search is not None:
                taken.append(name)
            return search

        monkeypatch.setattr(statevector, builder, spy)
    picks = measure_sample(state, 21, draws)
    assert isinstance(picks, array)
    assert picks.typecode == np.dtype(np.intp).char
    cdf = np.cumsum(state.amplitudes * state.amplitudes)
    cdf /= cdf[-1]
    keys = np.random.default_rng(21).random(draws)
    expected = [int(np.searchsorted(cdf, key, side="right")) for key in keys]
    assert len(picks) == draws
    assert all(type(pick) is int and pick == want for pick, want in zip(picks, expected))
    assert picks == array(picks.typecode, expected)
    picks.append(0)  # BufferError if a numpy view of the result were still open
    assert len(picks) == draws + 1
    assert taken == ([] if path == "plain-cdf" else [path])


# --- the uniform start ------------------------------------------------------

@pytest.mark.parametrize("log2_n", [2, 4, 12, 14, 15, 16, 18])
@pytest.mark.parametrize("share", ["one", "few", "quarter"])
def test_uniform_start_gives_the_results_of_the_materialized_start(log2_n, share):
    n = 2**log2_n
    n2 = {"one": 1, "few": min(5, n // 4), "quarter": n // 4}[share]
    marked = np.random.default_rng(log2_n).choice(n, n2, replace=False).tolist()
    start = init_uniform(SearchParams(n - n2, n2), marked)
    reference = StateVector(np.full(n, 1 / sqrt(n)), marked)
    kernels = [apply_oracle, apply_diffusion]
    for count in (0, 1, optimal_iterations(start.params)):
        kernels.append(lambda state, count=count: grover_iterate(state, count))
    for kernel in kernels:
        assert kernel(start).amplitudes.tobytes() == kernel(reference).amplitudes.tobytes()
    assert marked_probability(start) == marked_probability(reference)
    # From 2^12 up: the start's runs (where it has at most _MAX_RUNS) against
    # the reference's search of each key in the CDF, then the guide table.
    for draws in (max(n // ratio, 1) for ratio in (512, 64, 8)):
        assert measure_sample(start, 11, draws) == measure_sample(reference, 11, draws)


def test_search_from_the_uniform_start_holds_one_vector():
    # The result is the one N-vector: the start adds no second copy.
    n = 2**18
    params = SearchParams(n - 1, 1)
    count = optimal_iterations(params)
    tracemalloc.start()
    try:
        state = grover_iterate(init_uniform(params, [12345]), count)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert state.amplitudes.size == n
    assert peak <= 8 * n + 2**16


@pytest.mark.parametrize("log2_n", [2, 4, 16])
def test_uniform_start_is_read_only(log2_n):
    n = 2**log2_n
    amplitudes = init_uniform(SearchParams(n - 1, 1), [0]).amplitudes
    assert amplitudes.strides == (0,)  # one amplitude, held once
    assert not amplitudes.flags.writeable
    with pytest.raises(ValueError):
        amplitudes[1] = 0.0


@pytest.mark.parametrize("log2_n", [4, 16])
@pytest.mark.parametrize(
    "kernel, writeable",
    [
        # From a broadcast the result carries its two values: read-only.
        (lambda state: grover_iterate(state, 3), False),
        (apply_oracle, True),
        (apply_diffusion, True),
    ],
    ids=["iterate-3", "oracle", "diffusion"],
)
def test_kernels_return_fresh_writeable_vectors(log2_n, kernel, writeable):
    n = 2**log2_n
    start = init_uniform(SearchParams(n - 2, 2), [1, n - 1])
    out = kernel(start).amplitudes
    assert out.flags.owndata and out.flags.c_contiguous and out.flags.writeable == writeable
    assert not np.shares_memory(out, start.amplitudes)


@pytest.mark.parametrize("log2_n", [4, 16])
@pytest.mark.parametrize("kind", ["init_uniform", "negative", "as_strided"])
def test_zero_iterations_of_a_broadcast_give_a_fresh_read_only_broadcast(log2_n, kind):
    # No pass over N: the one value, seen N times, carrying its shape.
    n = 2**log2_n
    start = _broadcast_start(kind, n, [1, n - 1])
    state = grover_iterate(start, 0)
    out = state.amplitudes
    assert out.strides == (0,) and not out.flags.writeable
    assert not np.shares_memory(out, start.amplitudes)
    assert out.tobytes() == np.array(start.amplitudes).tobytes()
    record, shape = state._class_values
    assert record is out and shape == (float(start.amplitudes[0]), n, 2, 0)
    # Any other vector still gets a writeable copy.
    full = grover_iterate(StateVector(np.array(start.amplitudes), [1, n - 1]), 0).amplitudes
    assert full.flags.owndata and full.flags.writeable


def test_measure_sample_is_deterministic_on_point_mass():
    state = StateVector([0.0, 0.0, 0.0, 1.0], {3})
    assert measure_sample(state, seed=1, draws=50).tolist() == [3] * 50


def test_measure_sample_reproducible_for_fixed_seed():
    state = init_uniform(SearchParams(13, 3), {0, 4, 9})
    assert measure_sample(state, seed=42, draws=200) == measure_sample(state, seed=42, draws=200)
    assert measure_sample(state, seed=42, draws=200) != measure_sample(state, seed=43, draws=200)


def test_measure_sample_rejects_nonpositive_draws():
    state = init_uniform(SearchParams(3, 1), {1})
    with pytest.raises(ValueError):
        measure_sample(state, seed=0, draws=0)


def test_measure_sample_uniform_frequencies_within_four_sigma():
    draws = 100_000
    state = init_uniform(SearchParams(3, 1), {2})
    samples = measure_sample(state, seed=2024, draws=draws)
    sigma = sqrt(0.25 * 0.75 / draws)
    counts = np.bincount(samples, minlength=4)
    for count in counts:
        assert abs(count / draws - 0.25) <= 4 * sigma


def test_measure_sample_marked_frequency_matches_probability():
    draws = 100_000
    params = SearchParams(15, 1)
    state = grover_iterate(init_uniform(params, {7}), 3)
    p = marked_probability(state)
    samples = measure_sample(state, seed=7, draws=draws)
    freq = samples.count(7) / draws
    sigma = sqrt(p * (1 - p) / draws)
    assert abs(freq - p) <= 4 * sigma
