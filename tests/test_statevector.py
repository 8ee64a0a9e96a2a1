"""Kernel tests: exact small cases, brute-force cross-checks, and
norm/involution properties."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groverbench as gb
from class_runs import (
    SPREAD_RUNS,
    cells_of,
    grk_steps,
    run_classes,
    run_dense,
    sample_cells,
    shot_counts,
    write_out,
)
from groverbench.search import _Classes


def random_state(r: int, seed: int) -> gb.StateVector:
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=1 << r)
    return gb.StateVector(r, vec / np.linalg.norm(vec))


def brute_phase_flip(state: gb.StateVector, mask: int, value: int) -> np.ndarray:
    """Independent reference: negate matching indices one by one."""
    out = state.amplitudes.copy()
    for i in range(out.size):
        if (i & mask) == value:
            out[i] = -out[i]
    return out


def brute_invert(state: gb.StateVector, block_mask: int) -> np.ndarray:
    """Independent reference: per-index block mean by explicit enumeration."""
    amps = state.amplitudes
    out = np.empty_like(amps)
    for i in range(amps.size):
        block = [j for j in range(amps.size) if (j & block_mask) == (i & block_mask)]
        mu = sum(amps[j] for j in block) / len(block)
        out[i] = 2 * mu - amps[i]
    return out


# ---------------------------------------------------------------------------
# uniform_state


def test_uniform_r2_amplitudes():
    state = gb.uniform_state(2)
    np.testing.assert_allclose(state.amplitudes, np.full(4, 0.5), atol=1e-15)


def test_uniform_r1_is_hadamard_column():
    state = gb.uniform_state(1)
    np.testing.assert_allclose(state.amplitudes, [1 / math.sqrt(2)] * 2, atol=1e-15)


def test_uniform_r20_sampled_entries():
    state = gb.uniform_state(20)
    assert state.dim == 1 << 20
    for index in (0, 1, 12345, 654321, (1 << 20) - 1):
        assert state.amplitudes[index] == pytest.approx(1 / 1024, abs=1e-15)
    assert state.norm() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("r", [0, -3, 25])
def test_uniform_rejects_out_of_range(r):
    with pytest.raises(ValueError):
        gb.uniform_state(r)


# ---------------------------------------------------------------------------
# phase_flip


def test_phase_flip_single_state():
    state = gb.phase_flip(gb.uniform_state(2), gb.BasisPredicate(0b11, 0b11))
    np.testing.assert_allclose(state.amplitudes, [0.5, 0.5, 0.5, -0.5], atol=1e-15)


def test_phase_flip_empty_mask_is_global_phase():
    state = gb.uniform_state(2)
    expected = -state.amplitudes
    flipped = gb.phase_flip(state, gb.BasisPredicate(0, 0))
    np.testing.assert_allclose(flipped.amplitudes, expected, atol=1e-15)


def test_phase_flip_top_bits():
    # Fix the top two of four bits to 01: exactly the indices 0100..0111.
    mask, value = 0b1100, 0b0100
    expected_matches = [i for i in range(16) if (i & mask) == value]
    assert len(expected_matches) == 4
    state = gb.phase_flip(gb.uniform_state(4), gb.BasisPredicate(mask, value))
    for i in range(16):
        expected = -0.25 if i in expected_matches else 0.25
        assert state.amplitudes[i] == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("seed", range(5))
def test_phase_flip_matches_brute_force(seed):
    rng = np.random.default_rng(1000 + seed)
    r = int(rng.integers(2, 6))
    mask = int(rng.integers(0, 1 << r))
    value = int(rng.integers(0, 1 << r)) & mask
    state = random_state(r, seed)
    expected = brute_phase_flip(state, mask, value)
    kernel = gb.phase_flip(state, gb.BasisPredicate(mask, value))
    np.testing.assert_allclose(kernel.amplitudes, expected, atol=1e-14)


def test_kernels_update_in_place():
    state = random_state(3, 5)
    assert gb.phase_flip(state, gb.BasisPredicate(0b101, 0b001)) is state
    assert gb.invert_about_mean(state) is state
    assert gb.invert_about_mean(state, block_mask=0b100) is state
    assert gb.invert_about_mean(state, block_mask=0b111) is state


def test_constructors_build_real_registers():
    assert gb.uniform_state(3).amplitudes.dtype == np.float64
    assert gb.basis_state(3, 5).amplitudes.dtype == np.float64
    assert gb.StateVector(1, [1, 0]).amplitudes.dtype == np.float64
    assert random_state(3, 0).amplitudes.dtype == np.float64
    # A complex register is rejected, never cast: the cast would drop the
    # imaginary part with only a warning.
    for amplitudes in ([1j, 0], np.array([1, 0], dtype=complex)):
        with pytest.raises(ValueError, match="real"):
            gb.StateVector(1, amplitudes)


def test_phase_flip_rejects_wide_mask():
    with pytest.raises(ValueError):
        gb.phase_flip(gb.uniform_state(2), gb.BasisPredicate(0b10000, 0))


def test_predicate_rejects_value_outside_mask():
    with pytest.raises(ValueError):
        gb.BasisPredicate(0b0011, 0b0100)


# ---------------------------------------------------------------------------
# invert_about_mean


def test_invert_global_example():
    state = gb.StateVector(2, np.array([0.5, 0.5, 0.5, -0.5], dtype=float))
    out = gb.invert_about_mean(state)
    np.testing.assert_allclose(out.amplitudes, [0, 0, 0, 1], atol=1e-15)


def test_invert_uniform_with_block_mask_is_noop():
    out = gb.invert_about_mean(gb.uniform_state(4), block_mask=0b1100)
    np.testing.assert_allclose(out.amplitudes, gb.uniform_state(4).amplitudes, atol=1e-15)


def test_invert_full_mask_degenerates_to_identity():
    state = random_state(3, 7)
    out = gb.invert_about_mean(state.copy(), block_mask=0b111)
    np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-15)


@pytest.mark.parametrize("block_mask", [0, 0b1, 0b1010, 0b1100, 0b1111])
def test_invert_matches_brute_force(block_mask):
    state = random_state(4, 42)
    expected = brute_invert(state, block_mask)
    kernel = gb.invert_about_mean(state, block_mask)
    np.testing.assert_allclose(kernel.amplitudes, expected, atol=1e-13)


def test_invert_rejects_wide_mask():
    with pytest.raises(ValueError):
        gb.invert_about_mean(gb.uniform_state(2), 0b100)


@pytest.mark.parametrize("block_mask", [0, 0b1100, 0b0110])
def test_invert_finds_the_free_axes_once(monkeypatch, block_mask):
    # One inversion works out the axes its blocks span once, in its read of
    # the block sums.
    import groverbench.statevector as statevector

    calls = []
    real = statevector._free_axes

    def counting(r, mask):
        calls.append((r, mask))
        return real(r, mask)

    monkeypatch.setattr(statevector, "_free_axes", counting)
    state = random_state(4, 5)
    expected = brute_invert(state, block_mask)
    gb.invert_about_mean(state, block_mask)
    assert calls == [(4, block_mask)]
    np.testing.assert_allclose(state.amplitudes, expected, rtol=0, atol=1e-13)


# ---------------------------------------------------------------------------
# block_sums, and the amplitude classes of GS and GRK runs


@pytest.mark.parametrize("block_mask", [0, 0b1, 0b1010, 0b1100, 0b1111])
def test_block_sums_match_brute_force(block_mask):
    state = random_state(4, 5)
    sums = gb.block_sums(state, block_mask)
    assert sums.shape == tuple(2 if (block_mask >> (3 - ax)) & 1 else 1 for ax in range(4))
    flat = sums.reshape(-1)
    blocks = sorted({i & block_mask for i in range(16)})
    for slot, block in enumerate(blocks):
        expected = sum(state.amplitudes[i] for i in range(16) if i & block_mask == block)
        assert flat[slot] == pytest.approx(expected, abs=1e-14)


def test_block_sums_rejects_wide_mask():
    with pytest.raises(ValueError):
        gb.block_sums(gb.uniform_state(2), 0b100)


def run_history(register, steps):
    """Single-target iterations on ``register``, one ``(target, mask)`` per step."""
    for target, mask in steps:
        register = gb.grover_iteration(register, gb.OracleSpec(register.num_qubits, target), mask)
    return register


# Four amplitude values on 4 qubits: two targets written, in the blocks of 0b1100.
HISTORY_4 = [(3, 0), (12, 0b1100), (3, 0b1100)]

# A GRK schedule on 4 qubits whose classes follow the blocks of 0b1100.
STEPS_4 = grk_steps(4, 4, 1, 1)


@pytest.mark.parametrize("block_mask", [0, 0b1, 0b1010, 0b1100, 0b1111])
def test_kernels_keep_given_sums_current(block_mask):
    # Every single-amplitude flip on a 4-qubit register between two
    # inversions: the kernels update the register they are given in place,
    # so its block sums, read after each kernel, match a brute-force run.
    start = run_history(gb.uniform_state(4), HISTORY_4)
    for value in range(16):
        state = start.copy()
        expected = brute_invert(state, block_mask)
        assert gb.invert_about_mean(state, block_mask) is state
        expected[value] *= -1
        assert gb.phase_flip(state, gb.BasisPredicate(0b1111, value)) is state
        np.testing.assert_allclose(
            gb.block_sums(state, block_mask),
            gb.block_sums(gb.StateVector(4, expected), block_mask),
            atol=1e-14,
        )
        expected = brute_invert(gb.StateVector(4, expected), block_mask)
        gb.invert_about_mean(state, block_mask)
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-13)


@pytest.mark.parametrize(
    "sums_r, sums_mask, block_mask",
    [(4, 0, 0b1100), (4, 0b1100, 0), (4, 0b1100, 0b0011), (4, 0b1000, 0b0001), (3, 0, 0)],
)
def test_invert_rejects_sums_of_another_mask(monkeypatch, sums_r, sums_mask, block_mask):
    # A register last inverted about ``sums_mask`` is inverted about
    # ``block_mask`` from sums read afresh: one read of the register, and
    # the brute-force result.
    import groverbench.statevector as statevector

    state = run_history(gb.uniform_state(sums_r), [(5, sums_mask), (2, sums_mask)])
    expected = brute_invert(state, block_mask)
    reads = []
    real = statevector.block_sums

    def counting(state, mask):
        reads.append((state.num_qubits, mask))
        return real(state, mask)

    monkeypatch.setattr(statevector, "block_sums", counting)
    gb.invert_about_mean(state, block_mask)
    assert reads == [(sums_r, block_mask)]
    np.testing.assert_allclose(state.amplitudes, expected, rtol=0, atol=1e-13)


def test_readouts_leave_the_class_register_unchanged():
    # Sampling the classes of a GRK run leaves them as they are: the same
    # schedule run on afterwards still matches the dense run.
    import dataclasses

    r, target = 5, 11
    steps = grk_steps(r, 4, 2, 3)
    classes = run_classes(r, steps)
    kept = dataclasses.astuple(classes)
    first = sample_cells(classes, target, 4, 256, 1)
    assert dataclasses.astuple(classes) == kept
    assert sample_cells(classes, target, 4, 256, 1) == first
    plain = run_dense(r, target, steps + steps)
    again = run_classes(r, steps + steps)
    np.testing.assert_allclose(
        write_out(again, target).amplitudes, plain.amplitudes, rtol=0, atol=1e-12
    )


def test_class_register_holds_its_classes_1d_in_block_order():
    # After a GS -> GRK-local -> cleanup history the classes follow the four
    # blocks: their block sums are the dense ones, 1-D in block order (the
    # target's block, the others all alike), and the classes write out to
    # the dense register.
    r, target = 8, 0b10110101
    steps = grk_steps(r, 4, 3, 2)
    classes = run_classes(r, steps)
    plain = run_dense(r, target, steps)
    assert classes.blocks == 4
    sums = gb.block_sums(plain, gb.segment_mask(r, 0, 1)).ravel()
    expected = np.full(4, 64 * classes.m_other)
    expected[target >> 6] = classes.a + 63 * classes.m
    np.testing.assert_allclose(expected, sums, rtol=0, atol=1e-14)
    np.testing.assert_allclose(
        write_out(classes, target).amplitudes, plain.amplitudes, rtol=0, atol=1e-14
    )


@pytest.mark.parametrize("block_mask", [0, 0b1000, 0b1100, 0b1110, 0b0011])
def test_block_sums_keep_the_keepdims_shape_on_either_register(block_mask):
    # A GRK run on 4 qubits, on the dense register and written out from its
    # classes: a coarser, the same and a finer mask than the run's 0b1100,
    # and one across it, read the same keepdims shape and values from both.
    state = write_out(run_classes(4, STEPS_4), 6)
    plain = run_dense(4, 6, STEPS_4)
    sums = gb.block_sums(state, block_mask)
    expected = gb.block_sums(plain, block_mask)
    assert sums.shape == expected.shape
    np.testing.assert_allclose(sums, expected, rtol=0, atol=1e-14)


def test_sample_point_mass():
    draws = gb.sample(gb.basis_state(4, 3), shots=1024, seed=1)
    assert draws.dtype == np.int64
    assert shot_counts(draws) == {3: 1024}


def test_sample_uniform_r1_within_binomial_band():
    # 1024 fair coin flips: 5 sigma around 512 is +/- 5*sqrt(1024*0.25) = 80.
    draws = gb.sample(gb.uniform_state(1), shots=1024, seed=99)
    assert 432 <= shot_counts(draws).get(0, 0) <= 592


def test_sample_deterministic_for_seed():
    state = gb.uniform_state(3)
    first = gb.sample(state, shots=500, seed=7)
    second = gb.sample(state, shots=500, seed=7)
    np.testing.assert_array_equal(first, second)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("r", [1, 5, 11])
def test_sample_draws_match_generator_choice(r, seed):
    # The in-place CDF gives exactly the draws of Generator.choice, in order.
    state = random_state(r, seed)
    if seed % 2:
        state = gb.StateVector(r, np.abs(state.amplitudes))
    probs = state.probabilities()
    draws = np.random.default_rng(seed).choice(probs.size, size=333, p=probs / probs.sum())
    np.testing.assert_array_equal(gb.sample(state, shots=333, seed=seed), draws)


@pytest.mark.parametrize("size", [2, 4, 8])
def test_inverse_cdf_draws_match_generator_choice(size):
    # sample's inverse-CDF draws are those of Generator.choice on skewed
    # distributions over a few states too.
    marginals = np.random.default_rng(size)
    for seed in range(50):
        marginal = marginals.random(size) ** 3
        state = gb.StateVector(size.bit_length() - 1, np.sqrt(marginal / marginal.sum()))
        probs = state.probabilities()
        np.testing.assert_array_equal(
            gb.sample(state, shots=64, seed=seed),
            np.random.default_rng(seed).choice(size, 64, p=probs / probs.sum()),
        )


def test_sample_holds_one_register_sized_array():
    state = gb.uniform_state(16)
    # numpy.random's first use allocates; a small draw makes it before the window.
    gb.sample(gb.uniform_state(2), shots=4, seed=3)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        gb.sample(state, shots=1024, seed=3)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * state.amplitudes.nbytes


def test_sample_rejects_unnormalized_state():
    bad = gb.StateVector(2, np.array([0.5, 0.5, 0.5, 0.4], dtype=float))
    with pytest.raises(ValueError, match="norm"):
        gb.sample(bad, shots=10, seed=0)


@pytest.mark.parametrize("dtype", [float])
def test_sample_rejects_a_nan_amplitude(dtype):
    amps = np.full(4, 0.5, dtype=dtype)
    amps[2] = np.nan
    with pytest.raises(ValueError, match="norm"):
        gb.sample(gb.StateVector(2, amps), shots=10, seed=0)


def test_class_sample_follows_the_register_distribution():
    # 200k class-sampled shots against the dense run's probabilities:
    # every resolved cell's count within 5 sigma of its binomial mean.
    shots = 200_000
    for r, target, steps in SPREAD_RUNS:
        classes, cells = run_classes(r, steps), cells_of(r, steps)
        probs = run_dense(r, target, steps).probabilities().reshape(cells, -1).sum(axis=1)
        counts = sample_cells(classes, target, cells, shots, 2024)
        for cell, p in enumerate(probs):
            band = 5 * math.sqrt(shots * p * (1 - p))
            assert abs(counts.get(cell, 0) - shots * p) <= band, (r, cell)
    assert sample_cells(classes, target, cells, 500, 7) == sample_cells(
        classes, target, cells, 500, 7
    )


def test_class_sample_skips_a_zero_target():
    # A target of amplitude 0 gets no vote, wherever it sits, and the cell
    # draw skips it: the other seven indices share the mass, and each is
    # drawn.
    for target in (0, 3, 4, 5, 7):
        classes = _Classes(8)
        classes.a, classes.m = 0.0, 1 / math.sqrt(7)
        counts = sample_cells(classes, target, 8, 4096, 11)
        assert sorted(counts) == [i for i in range(8) if i != target]


def test_class_sample_holds_no_register():
    # 1024 shots at r = 24, whose register would be 128 MiB.
    classes = run_classes(24, ((1, 0),))
    # numpy.random's first use allocates; a small draw makes it before the window.
    sample_cells(run_classes(2, ((1, 0),)), 1, 4, 4, 3)
    tracemalloc.start()
    try:
        sample_cells(classes, 12_345_678, 1 << 24, 1024, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


@pytest.mark.parametrize("scale", [1.001, np.nan])
def test_class_readouts_reject_an_unnormalized_register(scale):
    classes = run_classes(5, grk_steps(5, 4, 1, 2))
    classes.m_other *= scale
    with pytest.raises(ValueError, match="norm"):
        sample_cells(classes, 9, 4, 10, 0)


def test_sample_rejects_zero_shots():
    with pytest.raises(ValueError):
        gb.sample(gb.uniform_state(1), shots=0, seed=0)


# ---------------------------------------------------------------------------
# operator_matrix


def test_operator_matrix_global_diffuser_r1():
    matrix = gb.operator_matrix(1, gb.invert_about_mean)
    np.testing.assert_allclose(matrix, [[0, 1], [1, 0]], atol=1e-15)


def test_operator_matrix_identity_predicate_oracle():
    pred = gb.BasisPredicate(0, 0)
    matrix = gb.operator_matrix(2, lambda s: gb.phase_flip(s, pred))
    np.testing.assert_allclose(matrix, -np.eye(4), atol=1e-15)


def test_operator_matrix_single_iteration_solves_n4():
    oracle = gb.OracleSpec(2, 3)
    matrix = gb.operator_matrix(2, lambda s: gb.grover_iteration(s, oracle))
    assert matrix.dtype == np.float64
    result = matrix @ gb.uniform_state(2).amplitudes
    np.testing.assert_allclose(result, [0, 0, 0, 1], atol=1e-12)


def test_operator_matrix_size_guard():
    with pytest.raises(ValueError):
        gb.operator_matrix(7, gb.invert_about_mean)


# ---------------------------------------------------------------------------
# bit-position helpers


def test_segment_mask_positions():
    assert gb.segment_mask(4, 0, 1) == 0b1100
    assert gb.segment_mask(4, 2, 3) == 0b0011
    assert gb.segment_mask(8, 0, 7) == 0xFF
    with pytest.raises(ValueError):
        gb.segment_mask(4, 3, 2)
    with pytest.raises(ValueError):
        gb.segment_mask(4, 0, 4)


def test_basis_state_bounds():
    with pytest.raises(ValueError):
        gb.basis_state(2, 4)


def test_statevector_shape_check():
    with pytest.raises(ValueError):
        gb.StateVector(2, np.ones(3, dtype=float))


# ---------------------------------------------------------------------------
# Properties


@settings(max_examples=120, deadline=None)
@given(
    r=st.integers(min_value=2, max_value=10),
    seed=st.integers(min_value=0, max_value=2**31),
    mask_bits=st.integers(min_value=0, max_value=(1 << 10) - 1),
    value_bits=st.integers(min_value=0, max_value=(1 << 10) - 1),
)
def test_property_norm_preserved(r, seed, mask_bits, value_bits):
    mask = mask_bits & ((1 << r) - 1)
    pred = gb.BasisPredicate(mask, value_bits & mask)
    state = random_state(r, seed)
    flipped = gb.phase_flip(state.copy(), pred)
    assert abs(flipped.norm() - 1.0) < 1e-10
    inverted = gb.invert_about_mean(flipped, block_mask=mask)
    assert abs(inverted.norm() - 1.0) < 1e-10


@settings(max_examples=60, deadline=None)
@given(
    r=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31),
    mask_bits=st.integers(min_value=0, max_value=(1 << 8) - 1),
)
def test_property_inversion_is_involution(r, seed, mask_bits):
    mask = mask_bits & ((1 << r) - 1)
    state = random_state(r, seed)
    twice = gb.invert_about_mean(gb.invert_about_mean(state.copy(), mask), mask)
    np.testing.assert_allclose(twice.amplitudes, state.amplitudes, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    r=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31),
    mask_bits=st.integers(min_value=0, max_value=(1 << 8) - 1),
    value_bits=st.integers(min_value=0, max_value=(1 << 8) - 1),
)
def test_property_phase_flip_self_inverse(r, seed, mask_bits, value_bits):
    mask = mask_bits & ((1 << r) - 1)
    pred = gb.BasisPredicate(mask, value_bits & mask)
    state = random_state(r, seed)
    twice = gb.phase_flip(gb.phase_flip(state.copy(), pred), pred)
    np.testing.assert_allclose(twice.amplitudes, state.amplitudes, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    r=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31),
    mask_bits=st.integers(min_value=1, max_value=(1 << 8) - 1),
    block_bits=st.integers(min_value=0, max_value=(1 << 8) - 1),
)
def test_property_block_locality(r, seed, mask_bits, block_bits):
    # A state living in one block must stay there: the blockwise inversion
    # never mixes amplitudes across distinct masked-bit values.
    mask = mask_bits & ((1 << r) - 1)
    block_id = block_bits & mask
    rng = np.random.default_rng(seed)
    amps = np.zeros(1 << r, dtype=float)
    members = [i for i in range(1 << r) if (i & mask) == block_id]
    local = rng.normal(size=len(members))
    amps[members] = local / np.linalg.norm(local)
    out = gb.invert_about_mean(gb.StateVector(r, amps), mask)
    outside = [i for i in range(1 << r) if (i & mask) != block_id]
    assert np.all(np.abs(out.amplitudes[outside]) < 1e-14)
