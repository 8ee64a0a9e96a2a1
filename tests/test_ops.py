"""Predictor formulas, oracle accounting, and the composed iteration
against dense-matrix references."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groverbench as gb
from class_runs import grk_steps, in_blocks, run_classes, run_dense, write_out
from groverbench.search import _class_run


def dense_iteration_matrix(r: int, pred: gb.BasisPredicate, block_mask: int) -> np.ndarray:
    """Reference matrix for one iteration, built from the reflection algebra.

    The oracle is a diagonal sign matrix; the blockwise diffuser is
    2*P - I where P averages within each block.  Their product is the
    signed pair of reflections the iteration implements.
    """
    n = 1 << r
    idx = np.arange(n)
    oracle = np.eye(n)
    matches = (idx & pred.fixed_mask) == pred.fixed_value
    oracle[matches, matches] = -1.0
    same_block = (idx[:, None] & block_mask) == (idx[None, :] & block_mask)
    block_size = 1 << (r - bin(block_mask).count("1"))
    diffuser = 2.0 * same_block / block_size - np.eye(n)
    return diffuser @ oracle


# ---------------------------------------------------------------------------
# Angles and iteration counts


def test_grover_angle_examples():
    assert gb.grover_angle(4) == pytest.approx(math.pi / 6, abs=1e-15)
    assert gb.grover_angle(16) == pytest.approx(0.25268, abs=1e-5)
    assert gb.grover_angle(2) == pytest.approx(math.pi / 4, abs=1e-15)


def test_grover_angle_rejects_small_dims():
    for m in (1, 0, -2):
        with pytest.raises(ValueError):
            gb.grover_angle(m)


def test_angle_law_over_full_range():
    dims = np.arange(2, (1 << 20) + 1, dtype=np.float64)
    angles = np.arcsin(1.0 / np.sqrt(dims))
    np.testing.assert_allclose(np.sin(angles) ** 2 * dims, 1.0, atol=1e-12)
    # Spot-check the scalar path agrees with the vectorized law.
    for m in (2, 3, 64, 1 << 20):
        assert math.sin(gb.grover_angle(m)) ** 2 * m == pytest.approx(1.0, abs=1e-12)


def test_optimal_iterations_examples():
    assert gb.optimal_iterations(4) == 1
    assert gb.optimal_iterations(16) == 3
    assert gb.optimal_iterations(1 << 20) == 804
    assert gb.optimal_iterations(2) == 1


def test_optimal_iterations_even_r_series():
    expected = {4: 3, 6: 6, 8: 12, 10: 25, 12: 50, 14: 100, 16: 201, 18: 402, 20: 804}
    for r, count in expected.items():
        assert gb.optimal_iterations(1 << r) == count


# ---------------------------------------------------------------------------
# The composed iteration


def test_iteration_exact_at_n4():
    oracle = gb.OracleSpec(2, 3)
    state = gb.grover_iteration(gb.uniform_state(2), oracle)
    np.testing.assert_allclose(state.amplitudes, [0, 0, 0, 1], atol=1e-12)
    assert oracle.query_count == 1


def test_iteration_success_probability_n16():
    oracle = gb.OracleSpec(4, 5)
    state = gb.uniform_state(4)
    for _ in range(3):
        state = gb.grover_iteration(state, oracle)
    p = state.probabilities()[5]
    assert p == pytest.approx(math.sin(7 * math.asin(0.25)) ** 2, abs=1e-4)


def test_iteration_overshoots_past_converged_state():
    oracle = gb.OracleSpec(3, 6)
    state = gb.grover_iteration(gb.basis_state(3, 6), oracle)
    assert state.probabilities()[6] < 1.0 - 1e-6


def test_iteration_rejects_dimension_mismatch():
    oracle = gb.OracleSpec(4, 5)
    with pytest.raises(ValueError):
        gb.grover_iteration(gb.uniform_state(3), oracle)


@pytest.mark.parametrize("n_states", [4, 8, 16, 32, 64])
def test_success_probability_law(n_states):
    r = n_states.bit_length() - 1
    omega = gb.grover_angle(n_states)
    target = n_states // 3
    oracle = gb.OracleSpec(r, target)
    state = gb.uniform_state(r)
    for t in range(1, 2 * gb.optimal_iterations(n_states) + 1):
        state = gb.grover_iteration(state, oracle)
        expected = math.sin((2 * t + 1) * omega) ** 2
        assert state.probabilities()[target] == pytest.approx(expected, abs=1e-9)


def test_gs_amplitudes_follow_closed_form_at_r18():
    # Grover's two-class law on the full register: after t iterations the
    # target holds sin((2t+1)theta) and every other index cos((2t+1)theta)/sqrt(N-1).
    r = 18
    n = 1 << r
    target = n - 7
    t = gb.optimal_iterations(n)
    angle = (2 * t + 1) * gb.grover_angle(n)
    oracle = gb.OracleSpec(r, target)
    state = gb.uniform_state(r)
    for _ in range(t):
        state = gb.grover_iteration(state, oracle)
    expected = np.full(n, math.cos(angle) / math.sqrt(n - 1))
    expected[target] = math.sin(angle)
    np.testing.assert_allclose(state.amplitudes, expected, rtol=0, atol=1e-9)


def test_global_iteration_allocates_no_register():
    # The kernels work in place: one iteration on a 512 KiB register traces
    # a small fraction of one register.
    r = 16
    oracle = gb.OracleSpec(r, (1 << r) - 1)
    state = gb.grover_iteration(gb.uniform_state(r), oracle)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        gb.grover_iteration(state, oracle)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_class_run_allocates_no_register():
    # One class iteration at r = 20, block-local and then global: under
    # 64 KiB traced.  The local one moves the target block's classes only;
    # the other blocks' amplitude stays as it was.
    r = 20
    classes = run_classes(r, grk_steps(r, 4, 3, 1)[:2])
    for blocks in (4, 1):
        other = classes.m_other
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _class_run(classes, 1, blocks)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        if blocks > 1:
            assert classes.m_other == other
    assert classes.blocks == 4


def test_query_accounting_matches_invocations():
    oracle = gb.OracleSpec(5, 17)
    state = gb.uniform_state(5)
    for expected in range(1, 9):
        state = gb.grover_iteration(state, oracle)
        assert oracle.query_count == expected


def test_dense_equivalence_random_cases():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        r = int(rng.integers(2, 7))
        n = 1 << r
        target = int(rng.integers(0, n))
        block_mask = int(rng.integers(0, n))
        oracle = gb.OracleSpec(r, target)
        expected = dense_iteration_matrix(r, oracle.flip_predicate(), block_mask)
        actual = gb.operator_matrix(
            r, lambda s: gb.grover_iteration(s, oracle, block_mask)
        )
        np.testing.assert_allclose(actual, expected, atol=1e-10)


def test_dense_equivalence_segment_conditioned_oracle():
    rng = np.random.default_rng(99)
    for _ in range(20):
        r = int(rng.integers(3, 7))
        target = int(rng.integers(0, 1 << r))
        lo = int(rng.integers(0, r - 1))
        hi = int(rng.integers(lo, min(lo + 2, r - 1) + 1)) if lo < r - 1 else lo
        seg = gb.segment_mask(r, lo, hi)
        det_mask = int(rng.integers(0, 1 << r)) & ~seg
        oracle = gb.OracleSpec(r, target, (lo, hi), det_mask, target & det_mask)
        expected = dense_iteration_matrix(r, oracle.flip_predicate(), 0)
        actual = gb.operator_matrix(r, lambda s: gb.grover_iteration(s, oracle))
        np.testing.assert_allclose(actual, expected, atol=1e-10)


@st.composite
def grk_runs(draw):
    """A GRK-shaped schedule at any valid ``(r, b)``, with any target."""
    r = draw(st.integers(min_value=2, max_value=10))
    b = 1 << draw(st.integers(min_value=1, max_value=r - 1))
    t_global = draw(st.integers(min_value=0, max_value=12))
    t_local = draw(st.integers(min_value=0, max_value=12))
    target = draw(st.integers(min_value=0, max_value=(1 << r) - 1))
    return r, b, t_global, t_local, target


@settings(max_examples=300, deadline=None)
@given(grk_runs())
def test_property_class_readouts_match_the_written_out_register(run):
    # The same schedule on the amplitude classes and on a dense register:
    # the classes write out to the dense amplitudes, the classes' sum over
    # the target's block is the dense one, and the run's certainty is the
    # dense mass of the target's block.
    from groverbench.search import _amplify_and_sample

    r, b, t_global, t_local, target = run
    steps = grk_steps(r, b, t_global, t_local)
    classes = run_classes(r, steps)
    plain = run_dense(r, target, steps)
    np.testing.assert_allclose(
        write_out(classes, target).amplitudes, plain.amplitudes, rtol=0, atol=1e-12
    )
    held = gb.segment_mask(r, 0, b.bit_length() - 2) if t_local else 0
    sums = gb.block_sums(plain, held).ravel()
    size = (1 << r) // sums.size
    held_sum = classes.a + (size - 1) * classes.m
    assert held_sum == pytest.approx(sums[target * sums.size >> r], abs=1e-12)
    config = gb.SearchConfig(r=r, target=target, algorithm="GRK", b=b, shots=8)
    outcome = _amplify_and_sample(config, in_blocks(steps), b)
    block_size = (1 << r) // b
    start = target // block_size * block_size
    expected = plain.probabilities()[start : start + block_size].sum()
    assert outcome.certainty == pytest.approx(expected, abs=1e-12)
    assert outcome.oracle_calls == t_global + t_local + 1


def test_first_iteration_marked_amplitude_closed_form():
    # After one oracle+diffusion round from uniform the marked amplitude is
    # 2*mu - alpha = (3N - 4) / (N*sqrt(N)); at N = 4 that is exactly 1.
    for r in (2, 3, 4, 5):
        n = 1 << r
        oracle = gb.OracleSpec(r, 1)
        state = gb.grover_iteration(gb.uniform_state(r), oracle)
        expected = (3 * n - 4) / (n * math.sqrt(n))
        assert state.amplitudes[1] == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# OracleSpec contract


def test_oracle_defaults_to_full_segment():
    oracle = gb.OracleSpec(4, 9)
    assert oracle.active_segment == (0, 3)
    pred = oracle.flip_predicate()
    assert pred.fixed_mask == 0b1111
    assert pred.fixed_value == 9


def test_oracle_segment_conditioning():
    # Segment covers positions 2..3 of 4 bits; position 0..1 already fixed.
    oracle = gb.OracleSpec(4, 0b1001, (2, 3), determined_mask=0b1100, determined_value=0b1000)
    pred = oracle.flip_predicate()
    assert pred.fixed_mask == 0b1111
    assert pred.fixed_value == 0b1001


def test_oracle_rejects_a_register_of_another_width():
    oracle = gb.OracleSpec(6, 0b101101, (2, 3), determined_mask=0b110000, determined_value=0b100000)
    with pytest.raises(ValueError, match="2 qubits, oracle on 6"):
        oracle.apply(gb.uniform_state(2))
    assert oracle.query_count == 0


def test_oracle_classical_probe_counts_queries():
    oracle = gb.OracleSpec(4, 0b1010)
    assert oracle.query_index(0b1010)
    assert not oracle.query_index(0b1011)
    assert oracle.query_count == 2


def test_oracle_validation():
    with pytest.raises(ValueError):
        gb.OracleSpec(3, 8)
    with pytest.raises(ValueError):
        gb.OracleSpec(4, 3, (0, 1), determined_mask=0b1100, determined_value=0b0100)
    with pytest.raises(ValueError):
        gb.OracleSpec(4, 3, (0, 1), determined_mask=0b0001, determined_value=0b0010)
    # The counter counts this oracle's queries only; a caller cannot preset it.
    with pytest.raises(TypeError, match="query_count"):
        gb.OracleSpec(4, 3, query_count=7)


# ---------------------------------------------------------------------------
# Closed-form predictors


def test_grk_query_count_examples():
    assert gb.grk_query_count(16, 4) == pytest.approx(math.pi / 4 * 4 * math.sqrt(0.75), abs=1e-12)
    assert gb.grk_query_count(16, 4) == pytest.approx(2.721, abs=1e-3)
    assert gb.grk_query_count(4, 4) == pytest.approx(math.pi / 4 * math.sqrt(3), abs=1e-12)
    with pytest.raises(ValueError):
        gb.grk_query_count(16, 1)
    with pytest.raises(ValueError):
        gb.grk_query_count(20, 8)


def test_bdgs_level_iterations_examples():
    assert gb.bdgs_level_iterations(8, 2, 0) == pytest.approx(
        math.pi / 4 * (math.sqrt(128) - math.sqrt(32)), abs=1e-12
    )
    assert gb.bdgs_level_iterations(8, 2, 0) == pytest.approx(4.443, abs=1e-3)
    assert gb.bdgs_level_iterations(8, 2, 1) == pytest.approx(2.221, abs=1e-3)
    # A pass at r = 8, k = 2 has two levels.
    with pytest.raises(ValueError):
        gb.bdgs_level_iterations(8, 2, 2)
    with pytest.raises(ValueError):
        gb.bdgs_level_iterations(8, 2, -1)


@pytest.mark.parametrize("r", [4, 6, 8, 10, 12, 14, 16, 18, 20])
def test_bdgs_levels_telescope_to_total(r):
    levels = range(math.ceil(r / 4))
    partial_sum = sum(gb.bdgs_level_iterations(r, 2, level) for level in levels)
    assert partial_sum == pytest.approx(gb.bdgs_total_queries(r, 2), abs=1e-9)


def test_bdgs_terminal_is_zero_for_even_level_splits():
    # The last level of a pass is a full one when 2k divides r; otherwise
    # it stops at depth r/(2k), short of a full level.
    def full_level(r, k, level):
        half, b = 2.0 ** (r - 1), 2.0**k
        return math.pi / 4 * (math.sqrt(half / b**level) - math.sqrt(half / b ** (level + 1)))

    for r in (4, 8, 12, 16, 20):
        last = r // 4 - 1
        assert gb.bdgs_level_iterations(r, 2, last) == pytest.approx(
            full_level(r, 2, last), abs=1e-12
        )
    partial = gb.bdgs_level_iterations(6, 2, 1)
    assert partial == pytest.approx(math.pi / 4 * (math.sqrt(8) - 2), abs=1e-12)
    assert 0.1 < partial < full_level(6, 2, 1)


def test_bdgs_levels_are_the_layers_of_a_pass():
    # A pass has one level per BDGS layer, and its levels alone add up to
    # the paper's total, the partial last one included.
    for r in range(1, 25):
        for k in range(1, r + 1):
            layers = gb.predicted_layers("BDGS", r, k)
            levels = [gb.bdgs_level_iterations(r, k, level) for level in range(layers)]
            assert all(level > 0 for level in levels), (r, k)
            assert abs(sum(levels) - gb.bdgs_total_queries(r, k)) < 1e-9, (r, k)
            for level in (-1, layers):
                with pytest.raises(ValueError, match="outside") as excinfo:
                    gb.bdgs_level_iterations(r, k, level)
                assert "\n" not in str(excinfo.value)


def test_bdgs_total_queries_examples():
    assert gb.bdgs_total_queries(4, 2) == pytest.approx(
        math.pi / (4 * math.sqrt(2)) * 4 * 0.5, abs=1e-12
    )
    assert gb.bdgs_total_queries(4, 2) == pytest.approx(1.111, abs=1e-3)
    assert gb.bdgs_total_queries(20, 2) == pytest.approx(550.9, abs=0.1)


def test_bdgs_total_queries_bounded_and_monotonic():
    previous = 0.0
    for r in range(2, 25):
        total = gb.bdgs_total_queries(r, 2)
        assert total <= math.pi / (4 * math.sqrt(2)) * math.sqrt(1 << r) + 1e-12
        assert total > previous
        previous = total


def test_bdgs_total_queries_validates_inputs():
    # r < 1 or k < 1 has no pass to count: one line, from both formulas.
    calls = [gb.bdgs_total_queries, lambda r, k: gb.bdgs_level_iterations(r, k, 0)]
    for bound in calls:
        for r, k in [(0, 2), (-3, 2), (6, 0), (6, -1), (0, 0)]:
            with pytest.raises(ValueError, match="needs r >= 1 and k >= 1") as excinfo:
                bound(r, k)
            assert "\n" not in str(excinfo.value)


def test_predicted_layers():
    assert gb.predicted_layers("BDGS", 20, 2) == 5
    assert gb.predicted_layers("DFGS", 20, 2) == 10
    assert gb.predicted_layers("GS", 20, 2) == 804
    assert [gb.predicted_layers("BDGS", r, 2) for r in range(4, 21, 2)] == [
        1, 2, 2, 3, 3, 4, 4, 5, 5,
    ]
    assert [gb.predicted_layers("DFGS", r, 2) for r in range(4, 21, 2)] == [
        2, 3, 4, 5, 6, 7, 8, 9, 10,
    ]
    with pytest.raises(ValueError):
        gb.predicted_layers("GRK", 8, 2)
    # The layered counts are the rounds of the plan; the paper's closed
    # forms ceil(r/k) and ceil(r/(2k)) are the independent reference.
    for r in range(1, 25):
        for k in range(1, r + 1):
            assert gb.predicted_layers("DFGS", r, k) == math.ceil(r / k), (r, k)
            assert gb.predicted_layers("BDGS", r, k) == math.ceil(r / (2 * k)), (r, k)
            assert gb.predicted_layers("GS", r, k) == gb.optimal_iterations(1 << r)


def test_predict_cost():
    gs = gb.predict_cost("GS", 4, 4)
    assert gs.layers == 3
    assert gs.iterations == pytest.approx(math.pi / (4 * gb.grover_angle(16)) - 0.5, abs=1e-12)
    assert abs(gs.iterations - math.pi / 4 * 4) < 1.0

    bdgs = gb.predict_cost("BDGS", 20, 4)
    assert bdgs.layers == 5
    assert bdgs.oracle_calls == pytest.approx(550.9, abs=0.1)

    dfgs = gb.predict_cost("DFGS", 20, 4)
    assert dfgs.layers == 10
    assert dfgs.oracle_calls == pytest.approx(10.0)

    # Two width-3 segments: two rounds each, and nothing else.
    dfgs = gb.predict_cost("DFGS", 6, 8)
    assert (dfgs.iterations, dfgs.oracle_calls) == (4.0, 4.0)

    grk = gb.predict_cost("GRK", 8, 4)
    assert grk.layers is None
    assert grk.oracle_calls == pytest.approx(gb.grk_query_count(256, 4) + 1, abs=1e-12)


def test_bdgs_bound_does_not_depend_on_the_branching_factor():
    # b^(r/2k) = 2^(r/2) whatever b = 2^k is, so the paper's BDGS count is
    # pi/(4*sqrt(2)) * sqrt(N) * (1 - 2^(-r/4)) for every b at every r.
    for r in range(1, 25):
        bound = math.pi / (4 * math.sqrt(2)) * math.sqrt(1 << r) * (1 - 2 ** (-r / 4))
        for k in range(1, r + 1):
            predicted = gb.predict_cost("BDGS", r, 1 << k).oracle_calls
            assert predicted == pytest.approx(bound, rel=1e-12, abs=0)


def test_bdgs_bound_is_out_of_reach_of_one_single_target_oracle():
    # Zalka (quant-ph/9711070): T queries of one single-target oracle find
    # the target, averaged over targets, with probability at most
    # sin^2((2T+1)*theta) while (2T+1)*theta <= pi/2.  Spent as total work,
    # the paper's BDGS count caps success below 0.91 at every r = 3..24;
    # only at r = 2 does its one query suffice.
    caps = {}
    for r in range(2, 25):
        queries = math.ceil(gb.predict_cost("BDGS", r, 4).oracle_calls)
        angle = (2 * queries + 1) * gb.grover_angle(1 << r)
        assert angle <= math.pi / 2 + 1e-12
        caps[r] = math.sin(angle) ** 2
    assert caps.pop(2) == pytest.approx(1.0, abs=1e-12)
    assert max(caps.values()) < 0.91
    assert caps[20] == pytest.approx(0.7755, abs=1e-4)


@pytest.mark.parametrize("width", range(1, 11))
def test_segment_masses_match_a_dense_segment_search(width):
    # A compact run reads the target's value from the segment's row, with
    # certainty, and charges the row's reps; the dense search, on r + 1
    # qubits with the ancilla, agrees to 1e-12 for a segment below a
    # determined bit, at the same cost.
    n, r = 1 << width, width + 1
    row = gb.ops.segment_row(r, 1, width)
    for value in sorted({0, n // 3, n - 1}):
        for top in (0, 1):
            config = gb.SearchConfig(r, top << width | value, "DFGS", b=n)
            assert (config.target & row.mask) >> row.shift == value
            first, first_prob, first_queries = gb.segment_partial_search(config, 0, 0, (0, 0))
            found, prob, queries = gb.segment_partial_search(
                config, 1 << width, top << width, (1, width)
            )
            assert (first, found) == (top, value)
            assert (first_queries, queries) == (1, row.reps)
            assert first_prob * prob == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "width, exact",
    [(3, 0.9453125), (22, 0.99999999997959785717), (24, 0.99999994255802002177)],
)
def test_segment_hit_mass_is_the_rotation_law_to_1e15(width, exact):
    # The hit mass of a standard search over 2**width values, the paper's
    # segment search, is sin^2((2t+1)theta) at t = optimal_iterations(2**width),
    # here to 40 digits.  One _rotate, as GS's class run turns it, holds it
    # to 1e-15; an iterated recurrence drifts past that by width 22.
    n = 1 << width
    amp = 1.0 / math.sqrt(n)
    a, _ = gb.ops._rotate(amp, amp, n, gb.optimal_iterations(n))
    assert abs(a * a - exact) < 1e-15


# The least J with (2J+1)*grover_angle(2**width) >= pi/2, widths 1-24.
EXACT_REPS = [
    1, 1, 2, 3, 4, 6, 9, 13, 18, 25, 36, 50,
    71, 101, 142, 201, 284, 402, 569, 804, 1137, 1608, 2275, 3217,
]


def test_segment_rows_hold_the_exact_search_reps_and_ancilla():
    # reps is optimal_iterations, one more where that count stops short of
    # pi/2, and the ancilla slows each round to exactly pi/(4J+2).
    longer = []
    for width, reps in enumerate(EXACT_REPS, start=1):
        row = gb.ops.segment_row(width, 0, width - 1)
        theta = gb.grover_angle(1 << width)
        assert row.reps == reps
        assert (2 * reps - 1) * theta < math.pi / 2 <= (2 * reps + 1) * theta
        if reps > gb.optimal_iterations(1 << width):
            longer.append(width)
        assert 0 < row.ancilla <= 1
        angle = math.asin(row.ancilla * math.sin(theta))
        assert abs((2 * reps + 1) * angle - math.pi / 2) <= 1e-15
    assert longer == [7, 8, 9, 11, 14, 19, 23, 24]


def test_predicted_dfgs_queries_bound_every_run():
    # predict_cost counts what every DFGS run spends: its segments' rounds.
    for r in range(2, 17):
        for k in range(1, min(r, 4) + 1):
            predicted = gb.predict_cost("DFGS", r, 1 << k).oracle_calls
            for seed in range(3):
                config = gb.SearchConfig(
                    r=r, target=(37 * seed + 11 * r) % (1 << r), algorithm="DFGS",
                    b=1 << k, seed=seed,
                )
                assert gb.run_dfgs(config).oracle_calls == predicted, (r, k, seed)
