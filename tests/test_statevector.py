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
# 16 * 256 == 4096 takes the block sums, 17 draws search each key.
@example(state_seed=7, n=4096, kind="random", sample_seed=8, draws=16)
@example(state_seed=7, n=4096, kind="random", sample_seed=8, draws=17)
# Block sums over an N that is no multiple of the block width (32 here).
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
    the seeded stream on its own, on the guide-table, plain and block-sum
    paths, with exactly-zero amplitudes (tied CDF values), long zero runs
    that put many CDF values in one bucket, and point masses."""
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
    # 4000 * 256 <= 2**20, so this takes the block sums; their picks, and
    # the in-place CDF of any key they cannot prove, must give the picks of
    # the textbook two-buffer CDF.
    n = 2**20
    rng = np.random.default_rng(11)
    amps = rng.standard_normal(n)
    amps /= np.sqrt(fsum((amps * amps).tolist()))
    state = StateVector(amps, rng.choice(n, size=17, replace=False))
    cdf = np.cumsum(amps * amps)
    keys = np.random.default_rng(5).random(4000)
    expected = np.searchsorted(cdf / cdf[-1], keys, side="right").tolist()
    assert measure_sample(state, 5, 4000).tolist() == expected


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


@pytest.mark.parametrize("n", [1000, 3001])  # block widths 32 and 64, ragged tails
@pytest.mark.parametrize("kind", ["uniform", "grover", "zero-runs", "underflow"])
def test_block_search_matches_the_exact_search_on_keys_at_the_cdf_values(monkeypatch, n, kind):
    """Keys equal to CDF values, one step either side of them, 0.0 and the
    largest double below 1.0 lie inside the error band, so each must go to
    the exact CDF and get its pick there. Keys halfway between CDF values
    that differ enough are settled by the block sums alone."""
    amps = _adversarial_states(n)[kind]
    cdf = np.cumsum(amps * amps)
    cdf /= cdf[-1]
    # Both sides of the first block edges, the middle, and the ragged tail.
    at = np.unique(np.r_[0, 1, 31, 32, 33, 63, 64, 65, n // 2, n - 70 : n - 1])
    edges = np.r_[cdf[at], np.nextafter(cdf[at], 0.0), np.nextafter(cdf[at], 1.0), 0.0]
    edges = np.r_[edges[edges < 1.0], np.nextafter(1.0, 0.0)]
    gaps = (cdf[at] + cdf[at + 1]) / 2
    keys = np.r_[edges, gaps]

    def reference(k):
        return [int(np.searchsorted(cdf, key, side="right")) for key in k]

    builds, exact_cdf = [], statevector._cdf
    monkeypatch.setattr(statevector, "_cdf", lambda a: builds.append(1) or exact_cdf(a))
    # All the keys in one call, proven and unproven ones mixed.
    assert statevector._block_search(amps, 1)(keys).tolist() == reference(keys)
    assert len(builds) == 1
    # Key by key, counting the keys that needed the exact CDF.
    fell_back = []
    for key in keys:
        builds.clear()
        assert statevector._block_search(amps, 1)(np.array([key])).tolist() == reference([key])
        fell_back.append(bool(builds))
    at_edges, in_gaps = np.split(np.array(fell_back), [edges.size])
    assert at_edges.all()
    wide = np.diff(cdf)[at] > 1e-6
    assert wide.any() and not in_gaps[wide].any()


def test_measure_sample_peak_memory_beside_the_picks_is_bounded():
    # The whole call, its result included, holds the picks once (8 bytes a
    # draw) and O(N) tables: no second draws-long buffer, no boxed ints.
    n, draws = 2**18, 10**6
    state = grover_iterate(init_uniform(SearchParams(n - 1024, 1024), range(0, n, 256)), 3)
    tracemalloc.start()
    try:
        picks = measure_sample(state, 9, draws)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(picks) == draws
    assert peak <= 8 * draws + 64 * n


@pytest.mark.parametrize("draws", [8, 100, 1000], ids=["block-sums", "plain-cdf", "guide-table"])
def test_measure_sample_returns_machine_ints_filled_in_place(draws):
    # At N = 2**12: 8 * 256 <= N takes the block sums, 100 * 16 < N searches
    # each key in the CDF, and 1000 * 16 >= N takes the guide table.
    n = 2**12
    state = grover_iterate(init_uniform(SearchParams(n - 5, 5), [3, 70, 1000, 2048, 4095]), 4)
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
    # From 2^12 up: block sums, the plain CDF search and the guide table.
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
    "kernel",
    [
        lambda state: grover_iterate(state, 0),
        lambda state: grover_iterate(state, 3),
        apply_oracle,
        apply_diffusion,
    ],
    ids=["iterate-0", "iterate-3", "oracle", "diffusion"],
)
def test_kernels_return_fresh_writeable_vectors(log2_n, kernel):
    n = 2**log2_n
    start = init_uniform(SearchParams(n - 2, 2), [1, n - 1])
    out = kernel(start).amplitudes
    assert out.flags.owndata and out.flags.c_contiguous and out.flags.writeable
    assert not np.shares_memory(out, start.amplitudes)


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
