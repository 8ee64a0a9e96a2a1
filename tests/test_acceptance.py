"""Acceptance gate: every criterion at its stated tolerance, one
pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print.  The suite is self-contained: reference matrices and
probability laws are rebuilt here rather than imported from the other
test modules.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import groverbench as gb


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {number}] {title}: FAIL")
        raise
    print(f"\n[criterion {number}] {title}: PASS")


@pytest.fixture(scope="module")
def gs_measured_series():
    """One standard-search run per even r in 8..20, shared by the scaling
    and timing checks (the r=20 run is the expensive one)."""
    start = time.perf_counter()
    outcomes = {}
    for r in range(8, 21, 2):
        config = gb.SearchConfig(r=r, target=(1 << r) - 2, algorithm="GS", shots=4, seed=123)
        outcomes[r] = gb.run_standard_grover(config)
    return outcomes, time.perf_counter() - start


def test_criterion_1_gs_4qubit_accuracy():
    with criterion(1, "GS 4-qubit success probability and shot accuracy"):
        start = time.perf_counter()
        oracle = gb.OracleSpec(4, 11)
        state = gb.uniform_state(4)
        for _ in range(3):
            state = gb.grover_iteration(state, oracle)
        probability = float(state.probabilities()[11])
        expected = math.sin(7 * math.asin(0.25)) ** 2  # = 0.9613...
        assert abs(probability - expected) < 1e-6

        accuracies = []
        for trial in range(5):
            config = gb.SearchConfig(
                r=4, target=11, algorithm="GS", shots=1024, seed=1000 + trial
            )
            outcome = gb.run_standard_grover(config)
            accuracies.append(outcome.success_fraction * 100.0)
        mean_accuracy = sum(accuracies) / len(accuracies)
        assert 94.5 <= mean_accuracy <= 97.5
        assert time.perf_counter() - start < 1.0


def test_criterion_2_gs_iteration_counts():
    with criterion(2, "GS iteration counts 3/12/201/804 at r=4/8/16/20"):
        expected = {4: 3, 8: 12, 16: 201, 20: 804}
        for r, count in expected.items():
            assert gb.optimal_iterations(1 << r) == count


def test_criterion_3_layered_exactness():
    with criterion(3, "BDGS/DFGS exact recovery, 64 random targets per size"):
        start = time.perf_counter()
        rng = np.random.default_rng(42)
        for r in (4, 8, 16, 20):
            targets = rng.integers(0, 1 << r, size=64)
            for target in targets:
                for algorithm, runner in (("BDGS", gb.run_bdgs), ("DFGS", gb.run_dfgs)):
                    config = gb.SearchConfig(
                        r=r,
                        target=int(target),
                        algorithm=algorithm,
                        b=4,
                        shots=64,
                        seed=int(rng.integers(2**31)),
                    )
                    outcome = runner(config)
                    assert outcome.measured_index == int(target)
                    assert outcome.certainty >= 1.0 - 1e-9
                    assert outcome.success_fraction == 1.0
        assert time.perf_counter() - start < 5.0


def test_criterion_4_layer_counts():
    with criterion(4, "layer counts: BDGS 5 and DFGS 10 at r=20, full series"):
        for r in range(4, 21, 2):
            target = (1 << r) // 3
            bdgs = gb.run_bdgs(
                gb.SearchConfig(r=r, target=target, algorithm="BDGS", shots=8, seed=7)
            )
            dfgs = gb.run_dfgs(
                gb.SearchConfig(r=r, target=target, algorithm="DFGS", shots=8, seed=7)
            )
            assert bdgs.layers == math.ceil(r / 4) == gb.predicted_layers("BDGS", r, 2)
            assert dfgs.layers == math.ceil(r / 2) == gb.predicted_layers("DFGS", r, 2)
            if r == 20:
                assert bdgs.layers == 5
                assert dfgs.layers == 10


def test_criterion_5_formula_suite():
    with criterion(5, "predictor formulas: telescoping, bound, block-partial count"):
        for k in (2, 4):
            for r in range(4, 21, 2):
                total = sum(
                    gb.bdgs_level_iterations(r, k, level)
                    for level in range(math.ceil(r / (2 * k)))
                )
                assert abs(total - gb.bdgs_total_queries(r, k)) < 1e-9
                assert (
                    gb.bdgs_total_queries(r, k)
                    <= math.pi / (4 * math.sqrt(2)) * math.sqrt(1 << r) + 1e-12
                )
        for r in range(2, 21):
            n = 1 << r
            for b in (2, 4, 8, 16):
                if b > n:
                    continue
                expected = math.pi / 4 * math.sqrt(n) * math.sqrt(1 - 1 / b)
                assert abs(gb.grk_query_count(n, b) - expected) < 1e-12


def test_criterion_6_kernel_correctness():
    with criterion(6, "kernels match dense brute-force operators; norms hold"):
        start = time.perf_counter()

        def dense_reference(r, target, block_mask):
            n = 1 << r
            idx = np.arange(n)
            oracle = np.eye(n)
            oracle[target, target] = -1.0
            same_block = (idx[:, None] & block_mask) == (idx[None, :] & block_mask)
            block_size = 1 << (r - bin(block_mask).count("1"))
            diffuser = 2.0 * same_block / block_size - np.eye(n)
            return diffuser @ oracle

        rng = np.random.default_rng(7)
        for _ in range(50):
            r = int(rng.integers(2, 7))
            n = 1 << r
            target = int(rng.integers(0, n))
            block_mask = int(rng.integers(0, n))
            oracle = gb.OracleSpec(r, target)
            pipeline = gb.operator_matrix(
                r, lambda s: gb.grover_iteration(s, oracle, block_mask)
            )
            assert np.max(np.abs(pipeline - dense_reference(r, target, block_mask))) < 1e-10

        for case in range(100):
            r = int(rng.integers(2, 11))
            vec = rng.normal(size=1 << r)
            state = gb.StateVector(r, vec / np.linalg.norm(vec))
            for _ in range(3):
                target = int(rng.integers(0, 1 << r))
                mask = int(rng.integers(0, 1 << r))
                state = gb.grover_iteration(state, gb.OracleSpec(r, target), mask)
            assert abs(state.norm() - 1.0) < 1e-10
        assert time.perf_counter() - start < 10.0


def test_criterion_7_exhaustive_small_sweep():
    with criterion(7, "exhaustive target sweep at r=4/6/8 for BDGS and DFGS"):
        start = time.perf_counter()
        for r in (4, 6, 8):
            for target in range(1 << r):
                for algorithm, runner in (("BDGS", gb.run_bdgs), ("DFGS", gb.run_dfgs)):
                    config = gb.SearchConfig(
                        r=r, target=target, algorithm=algorithm, shots=8, seed=target
                    )
                    outcome = runner(config)
                    assert outcome.measured_index == target, (
                        f"{algorithm} missed target {target} at r={r}"
                    )
        assert time.perf_counter() - start < 30.0


def test_criterion_8_scaling_shape(gs_measured_series):
    with criterion(8, "sqrt-N growth for GS calls, linear layer growth for BDGS/DFGS"):
        outcomes, elapsed = gs_measured_series
        sizes = sorted(outcomes)
        calls = [outcomes[r].oracle_calls for r in sizes]
        for r in sizes:
            assert outcomes[r].oracle_calls == gb.optimal_iterations(1 << r)
        slope = np.polyfit(
            [math.log(2**r) for r in sizes], [math.log(c) for c in calls], 1
        )[0]
        assert abs(slope - 0.5) < 0.05

        bdgs_layers = []
        dfgs_layers = []
        for r in range(4, 21, 2):
            target = (1 << r) - 1
            bdgs_layers.append(
                gb.run_bdgs(
                    gb.SearchConfig(r=r, target=target, algorithm="BDGS", shots=8, seed=3)
                ).layers
            )
            dfgs_layers.append(
                gb.run_dfgs(
                    gb.SearchConfig(r=r, target=target, algorithm="DFGS", shots=8, seed=3)
                ).layers
            )
        assert bdgs_layers == [math.ceil(r / 4) for r in range(4, 21, 2)]
        assert dfgs_layers == [math.ceil(r / 2) for r in range(4, 21, 2)]
        # Layer growth is linear: unit steps, never the multiplicative
        # jumps the full search shows.
        assert all(b2 - b1 in (0, 1) for b1, b2 in zip(bdgs_layers, bdgs_layers[1:]))
        assert all(d2 - d1 == 1 for d1, d2 in zip(dfgs_layers, dfgs_layers[1:]))
        assert elapsed < 60.0


def test_timing_sanity_layered_beats_full_search():
    # Harness invariant, ordinal only: the layered search at r=20 finishes
    # faster than the full search at r=20 on the same host.  Both are timed
    # warm, fastest of five, so neither pays a first run's cache fills.
    configs = [
        gb.SearchConfig(r=20, target=(1 << 20) - 2, algorithm="GS", shots=4, seed=123),
        gb.SearchConfig(r=20, target=123456, algorithm="BDGS", shots=8, seed=5),
    ]
    for config in configs:
        gb.run_search(config)
    gs, bdgs = (min(gb.run_search(config).wall_time for _ in range(5)) for config in configs)
    assert bdgs < gs
