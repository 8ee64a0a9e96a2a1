"""Driver-level tests: segment scheduling, exactness, query accounting,
cross-validation of the compact layered runs against the dense reference."""

import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import groverbench as gb
from class_runs import (
    SPREAD_RUNS,
    class_outcome,
    grk_steps,
    run_classes,
    run_dense,
    cells_of,
    sample_cells,
    write_out,
)
from groverbench.ops import _grk_global_step, _grk_schedule, _steps
from groverbench.search import (
    MAX_SHOTS,
    _group_readout,
    grk_reference_amplitudes,
)


def outcome_key(outcome: gb.SearchOutcome) -> tuple:
    """All fields that participate in the determinism contract (no wall time)."""
    return (
        outcome.measured_index,
        outcome.success_fraction,
        outcome.layers,
        outcome.oracle_calls,
        outcome.trial_seed,
        outcome.certainty,
        outcome.resolved_block,
    )


def walk_segments(config: gb.SearchConfig, segments) -> tuple[int, int, list, int]:
    """Search ``segments`` in order on the dense register, each conditioned on
    the ones before: the determined mask and value, each ``(segment, value)``
    found, and the queries spent."""
    mask = value = queries = 0
    history = []
    for segment in segments:
        found, _, spent = gb.segment_partial_search(config, mask, value, segment)
        row = gb.ops.segment_row(config.r, *segment)
        mask |= row.mask
        value |= found << row.shift
        history.append((segment, found))
        queries += spent
    return mask, value, history, queries


# ---------------------------------------------------------------------------
# Segment plans


def bdgs_passes(r: int, k: int) -> tuple[list, list]:
    """BDGS's forward and backward passes, read from its plan: the first
    segment of each two-segment round, and the last segment of every round."""
    rounds = gb.layered_plan("BDGS", r, k)
    forward = [segments[0] for segments in rounds if len(segments) == 2]
    return forward, [segments[-1] for segments in rounds]


def test_dfgs_segments_cover_all_bits():
    assert gb.layered_plan("DFGS", 8, 2) == (((0, 1),), ((2, 3),), ((4, 5),), ((6, 7),))
    assert gb.layered_plan("DFGS", 7, 2) == (((0, 1),), ((2, 3),), ((4, 5),), ((6, 6),))
    assert gb.layered_plan("DFGS", 20, 2)[-1] == ((18, 19),)
    assert len(gb.layered_plan("DFGS", 20, 2)) == 10


def test_forward_backward_segments_meet_in_the_middle():
    assert bdgs_passes(8, 2) == ([(0, 1), (2, 3)], [(6, 7), (4, 5)])
    # Odd half: the forward pass narrows at the boundary.
    assert bdgs_passes(6, 2) == ([(0, 1), (2, 2)], [(4, 5), (3, 3)])
    assert bdgs_passes(5, 2) == ([(0, 1)], [(3, 4), (2, 2)])


def test_segment_plans_are_disjoint_and_complete():
    # Every plan at most k wide, disjoint and covering all r bits.  DFGS
    # ascends from the MSB; BDGS's forward pass ascends inside the top
    # r // 2 positions and its backward pass descends from the LSB until the
    # two meet, the forward pass never the longer.  A plan has ceil(r/k)
    # rounds for DFGS and ceil(r/(2k)) for BDGS, its predicted layers.
    for r in range(1, 65):
        top = r // 2
        for k in range(1, r + 2):
            dfgs = [segments[0] for segments in gb.layered_plan("DFGS", r, k)]
            forward, backward = bdgs_passes(r, k)
            for plan in (dfgs, forward + backward):
                mask = 0
                for lo, hi in plan:
                    assert 0 <= lo <= hi < r and hi - lo + 1 <= k
                    bits = gb.segment_mask(r, lo, hi)
                    assert mask & bits == 0
                    mask |= bits
                assert mask == (1 << r) - 1
            assert [lo for lo, _ in dfgs] == [0, *(hi + 1 for _, hi in dfgs)][:-1]
            assert [lo for lo, _ in forward] == [0, *(hi + 1 for _, hi in forward)][:-1]
            assert all(hi < top for _, hi in forward)
            assert [hi for _, hi in backward] == [r - 1, *(lo - 1 for lo, _ in backward)][:-1]
            assert backward[-1][0] == top
            assert len(forward) <= len(backward)
            assert len(dfgs) == -(-r // k) == gb.predicted_layers("DFGS", r, k)
            assert len(backward) == -(-r // (2 * k)) == gb.predicted_layers("BDGS", r, k)


def test_layered_plan_pairs_the_passes_by_round():
    assert gb.layered_plan("DFGS", 5, 2) == (((0, 1),), ((2, 3),), ((4, 4),))
    assert gb.layered_plan("BDGS", 5, 2) == (((0, 1), (3, 4)), ((2, 2),))
    assert gb.layered_plan("BDGS", 8, 2) == (((0, 1), (6, 7)), ((2, 3), (4, 5)))
    with pytest.raises(ValueError, match="no segment plan"):
        gb.layered_plan("GRK", 4, 2)


@pytest.mark.parametrize("algorithm", ["DFGS", "BDGS"])
@pytest.mark.parametrize("r, k", [(0, 2), (4, 0), (4, -1), (-3, 2)])
def test_a_layered_plan_rejects_r_or_k_below_one(algorithm, r, k):
    # Before planning, with one line that names the bad input, through the
    # plan and the layer prediction that reads it.
    message = f"needs r >= 1 and k >= 1, got r = {r}, k = {k}$"
    for plan in (gb.layered_plan, gb.predicted_layers):
        with pytest.raises(ValueError, match=message):
            plan(algorithm, r, k)


def test_a_layered_plan_goes_past_the_register_cap():
    assert gb.layered_plan("DFGS", 30, 4)[-1] == ((28, 29),)
    assert gb.predicted_layers("BDGS", 40, 4) == 5


def _count_generators(monkeypatch) -> list:
    built = []
    real = np.random.default_rng

    def counted(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted)
    return built


@pytest.mark.parametrize("algorithm", ["GS", "GRK"])
def test_a_gs_or_grk_run_builds_one_generator_from_the_seed(monkeypatch, algorithm):
    # The vote and any cell draws share one generator, seeded with the
    # run's own seed.
    config = gb.SearchConfig(r=20, target=700_001, algorithm=algorithm, b=4, seed=2**40 + 5)
    built = _count_generators(monkeypatch)
    outcome = gb.run_search(config)
    assert built == [(2**40 + 5,)]
    assert gb.verify_outcome(outcome, config)


def test_a_settled_gs_run_draws_no_member(monkeypatch):
    # Over half the shots on the target settle the vote, so no other
    # shot's index is drawn: at r = 20, where nearly every shot hits, and
    # at r = 3, where about 5% of them miss.
    import groverbench.search as search

    cell_draws, missed = [], 0
    monkeypatch.setattr(search, "_draw_cells", lambda *args: cell_draws.append(args))
    for r in (3, 20):
        for seed in range(20):
            target = (314_159 + seed) % (1 << r)
            outcome = gb.run_standard_grover(gb.SearchConfig(r=r, target=target, seed=seed))
            assert outcome.measured_index == target
            missed += outcome.success_fraction < 1
    assert cell_draws == []
    assert missed >= 20


def test_a_settled_grk_run_draws_no_cell(monkeypatch):
    # At r = 20, b = 4 the target's block holds nearly every shot, so the
    # block vote settles and no other shot's block is drawn, though fewer
    # than half the shots fall on the target itself.
    import groverbench.search as search

    cell_draws = []
    monkeypatch.setattr(search, "_draw_cells", lambda *args: cell_draws.append(args))
    for seed in range(20):
        config = gb.SearchConfig(r=20, target=700_001, algorithm="GRK", b=4, seed=seed)
        outcome = gb.run_search(config)
        assert outcome.resolved_block == 700_001 >> 18
        assert outcome.measured_index == outcome.resolved_block << 18
    assert cell_draws == []


def test_an_all_exact_layered_run_builds_no_generator(monkeypatch):
    config = gb.SearchConfig(r=20, target=987654, algorithm="DFGS", b=4, shots=16, seed=5)
    built = _count_generators(monkeypatch)
    outcome = gb.run_dfgs(config)
    assert built == []
    assert (outcome.measured_index, outcome.oracle_calls) == (987654, 10)


@pytest.mark.parametrize("algorithm", ["DFGS", "BDGS"])
def test_a_layered_run_builds_no_generator_at_any_width(monkeypatch, algorithm):
    # Every segment search is exact, width-3 and width-1 ones included, so
    # a run draws nothing: with the generator's constructor broken, runs
    # at r = 20, b = 8 and at r = 5, b = 4 still verify.
    def broken(*args, **kwargs):
        raise AssertionError("a layered run built a generator")

    monkeypatch.setattr(np.random, "default_rng", broken)
    for r, b, target in ((20, 8, 700_001), (5, 4, 0b10110)):
        for seed in (0, 5):
            config = gb.SearchConfig(r=r, target=target, algorithm=algorithm, b=b, seed=seed)
            assert gb.verify_outcome(gb.run_search(config), config)


@pytest.mark.parametrize("algorithm", ["DFGS", "BDGS"])
def test_layered_runs_make_no_classical_probe(monkeypatch, algorithm):
    # Nothing is confirmed, so neither the run nor the dense reference calls
    # OracleSpec.query_index, at widths 3 and 1 too, and both charge the
    # same queries.
    import groverbench.ops as ops

    probes = []
    monkeypatch.setattr(ops.OracleSpec, "query_index", lambda self, index: probes.append(index))
    runner = {"DFGS": gb.run_dfgs, "BDGS": gb.run_bdgs}[algorithm]
    for seed in range(4):
        config = gb.SearchConfig(r=9, target=301, algorithm=algorithm, b=8, shots=1, seed=seed)
        compact, full = runner(config), gb.layered_reference(config)
        assert compact.oracle_calls == full.oracle_calls
    assert probes == []


# ---------------------------------------------------------------------------
# Standard search driver


def test_standard_grover_r4():
    config = gb.SearchConfig(r=4, target=11, algorithm="GS", shots=1024, seed=3)
    outcome = gb.run_standard_grover(config)
    assert outcome.oracle_calls == 3
    assert outcome.layers == 3
    # Deterministic draw from P = 0.9613...; 5 sigma of 1024 shots is ~3%.
    assert 0.93 <= outcome.success_fraction <= 0.995
    assert outcome.certainty == pytest.approx(math.sin(7 * math.asin(0.25)) ** 2, abs=1e-9)


def test_standard_grover_r8_saturates():
    config = gb.SearchConfig(r=8, target=200, algorithm="GS", shots=1024, seed=1)
    outcome = gb.run_standard_grover(config)
    assert outcome.oracle_calls == 12
    assert outcome.success_fraction >= 1023 / 1024
    assert outcome.measured_index == 200


def test_standard_grover_deterministic():
    config = gb.SearchConfig(r=6, target=40, algorithm="GS", shots=512, seed=77)
    assert outcome_key(gb.run_standard_grover(config)) == outcome_key(
        gb.run_standard_grover(config)
    )


def test_standard_grover_rejects_other_algorithms():
    config = gb.SearchConfig(r=4, target=1, algorithm="BDGS")
    with pytest.raises(ValueError):
        gb.run_standard_grover(config)


def assert_within_single_target_bound(outcome: gb.SearchOutcome, r: int) -> None:
    """Zalka's bound (quant-ph/9711070) on a run that resolves an index of
    ``2**r`` with one single-target oracle: its T = ``oracle_calls`` queries
    put at most sin²((2T+1)θ) on the target, θ = ``grover_angle(2**r)``,
    while (2T+1)θ <= pi/2.  Past that an exact search reaches 1, so the cap is 1."""
    angle = min((2 * outcome.oracle_calls + 1) * gb.grover_angle(1 << r), math.pi / 2)
    assert outcome.certainty <= math.sin(angle) ** 2 + 1e-12, (r, outcome)


def test_gs_certainty_stays_within_the_single_target_bound():
    # GS is the optimum the bound describes: its certainty is the curve
    # sin²((2T+1)θ) of its own T at every r, also where (2T+1)θ passes
    # pi/2 (r = 1 ends at 3pi/4, with certainty 1/2).
    for r in range(1, 25):
        n = 1 << r
        for seed in range(3):
            config = gb.SearchConfig(r=r, target=(31_337 * seed + 5) % n, shots=1, seed=seed)
            outcome = gb.run_standard_grover(config)
            assert_within_single_target_bound(outcome, r)
            angle = (2 * outcome.oracle_calls + 1) * gb.grover_angle(n)
            assert outcome.certainty <= math.sin(angle) ** 2 + 1e-12, (r, outcome)


# ---------------------------------------------------------------------------
# Block-partial (GRK) driver


def test_grk_resolves_target_block_r4():
    config = gb.SearchConfig(r=4, target=13, algorithm="GRK", b=4, shots=1024, seed=5)
    block, outcome = gb.run_grk_partial(config)
    assert block == 3  # top two bits of 13
    assert outcome.oracle_calls <= math.ceil(gb.grk_query_count(16, 4)) + 1
    assert outcome.success_fraction == 1.0
    assert outcome.certainty == pytest.approx(1.0, abs=1e-12)


def test_grk_r8_query_bound_and_concentration():
    config = gb.SearchConfig(r=8, target=77, algorithm="GRK", b=4, shots=1024, seed=11)
    block, outcome = gb.run_grk_partial(config)
    assert block == 77 >> 6
    assert outcome.oracle_calls <= 12
    assert outcome.success_fraction >= 0.95
    # Block-subspace success at least matches full search at the same size.
    p_full = math.sin(25 * math.asin(1 / 16)) ** 2
    assert outcome.certainty >= p_full


def test_grk_statevector_matches_reference_recurrence():
    r, b, target = 8, 4, 141
    n = 1 << r
    t_global, t_local = _grk_schedule(r, b)
    mask = gb.segment_mask(r, 0, 1)
    oracle = gb.OracleSpec(r, target)
    state = gb.uniform_state(r)
    for _ in range(t_global):
        state = gb.grover_iteration(state, oracle)
    for _ in range(t_local):
        state = gb.grover_iteration(state, oracle, mask)
    state = gb.grover_iteration(state, oracle)
    a, b_amp, g = grk_reference_amplitudes(n, b, t_global, t_local)

    size = n // b
    block = target // size
    amps = state.amplitudes
    assert amps[target] == pytest.approx(a, abs=1e-12)
    for i in range(block * size, (block + 1) * size):
        if i != target:
            assert amps[i] == pytest.approx(b_amp, abs=1e-12)
    outside = [i for i in range(n) if i // size != block]
    np.testing.assert_allclose(amps[outside], g, atol=1e-12)


def test_grk_statevector_matches_reference_recurrence_at_r18():
    r, b, target = 18, 4, 200_000
    n = 1 << r
    t_global, t_local = _grk_schedule(r, b)
    mask = gb.segment_mask(r, 0, 1)
    oracle = gb.OracleSpec(r, target)
    state = gb.uniform_state(r)
    for _ in range(t_global):
        state = gb.grover_iteration(state, oracle)
    for _ in range(t_local):
        state = gb.grover_iteration(state, oracle, mask)
    state = gb.grover_iteration(state, oracle)
    a, b_amp, g = grk_reference_amplitudes(n, b, t_global, t_local)

    size = n // b
    block = target // size
    expected = np.full(n, g)
    expected[block * size : (block + 1) * size] = b_amp
    expected[target] = a
    np.testing.assert_allclose(state.amplitudes, expected, rtol=0, atol=1e-9)


def sampled_state(monkeypatch) -> list:
    """Record the classes each driver samples, with the sampling left as it is.

    The readout cache is cleared first, so the next run of each group builds
    its classes again."""
    import groverbench.search as search

    seen = []
    real = search._Classes

    def recording(n):
        classes = real(n)
        seen.append(classes)
        return classes

    _group_readout.cache_clear()
    monkeypatch.setattr(search, "_Classes", recording)
    return seen


def test_gs_driver_follows_closed_form_at_r20(monkeypatch):
    # Grover's two-class law through the driver's rotation.
    r, target = 20, 314_159
    n = 1 << r
    seen = sampled_state(monkeypatch)
    outcome = gb.run_standard_grover(gb.SearchConfig(r=r, target=target, shots=64, seed=3))
    angle = (2 * gb.optimal_iterations(n) + 1) * gb.grover_angle(n)
    expected = np.full(n, math.cos(angle) / math.sqrt(n - 1))
    expected[target] = math.sin(angle)
    np.testing.assert_allclose(write_out(seen[0], target).amplitudes, expected, rtol=0, atol=1e-9)
    assert outcome.certainty == pytest.approx(math.sin(angle) ** 2, abs=1e-9)


def test_grk_driver_matches_reference_recurrence_at_r20(monkeypatch):
    r, b, target = 20, 4, 700_001
    n = 1 << r
    seen = sampled_state(monkeypatch)
    config = gb.SearchConfig(r=r, target=target, algorithm="GRK", b=b, shots=64, seed=3)
    block, outcome = gb.run_grk_partial(config)
    a, b_amp, g = grk_reference_amplitudes(n, b, *_grk_schedule(r, b))

    size = n // b
    expected = np.full(n, g)
    expected[block * size : (block + 1) * size] = b_amp
    expected[target] = a
    assert block == target // size
    np.testing.assert_allclose(write_out(seen[0], target).amplitudes, expected, rtol=0, atol=1e-9)
    assert outcome.certainty == pytest.approx(a**2 + (size - 1) * b_amp**2, abs=1e-9)


@pytest.mark.parametrize("algorithm", ["GS", "GRK"])
def test_class_drivers_follow_closed_form_at_r22(monkeypatch, algorithm):
    # The state each driver samples, against Grover's two-class law (GS) or
    # the three-class block-partial recurrence (GRK).
    r, b, target = 22, 4, 3_141_592
    n = 1 << r
    seen = sampled_state(monkeypatch)
    config = gb.SearchConfig(r=r, target=target, algorithm=algorithm, b=b, shots=64, seed=3)
    outcome = gb.run_search(config)
    if algorithm == "GS":
        angle = (2 * gb.optimal_iterations(n) + 1) * gb.grover_angle(n)
        expected = np.full(n, math.cos(angle) / math.sqrt(n - 1))
        expected[target] = math.sin(angle)
        certainty = math.sin(angle) ** 2
    else:
        a, b_amp, g = grk_reference_amplitudes(n, b, *_grk_schedule(r, b))
        size = n // b
        block = target // size
        expected = np.full(n, g)
        expected[block * size : (block + 1) * size] = b_amp
        expected[target] = a
        certainty = a**2 + (size - 1) * b_amp**2
    np.testing.assert_allclose(write_out(seen[0], target).amplitudes, expected, rtol=0, atol=1e-9)
    assert outcome.certainty == pytest.approx(certainty, abs=1e-9)


@pytest.mark.parametrize("algorithm", ["GS", "GRK"])
def test_drivers_at_r24_allocate_no_register(algorithm):
    # The register would be 128 MiB; the run, readouts included, traces
    # under 1 MiB, and its certainty follows the closed form.
    r, b, target = 24, 4, 12_345_678
    n = 1 << r
    config = gb.SearchConfig(r=r, target=target, algorithm=algorithm, b=b, shots=1024, seed=5)
    _group_readout(r, b if algorithm == "GRK" else None)  # cached; not the run's memory
    # A small run first pays the lazy imports (numpy.random) outside the trace.
    gb.run_search(gb.SearchConfig(r=4, target=5, algorithm=algorithm, b=b, shots=16))
    tracemalloc.start()
    try:
        outcome = gb.run_search(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    if algorithm == "GS":
        certainty = math.sin((2 * gb.optimal_iterations(n) + 1) * gb.grover_angle(n)) ** 2
        assert outcome.measured_index == target
    else:
        a, b_amp, _ = grk_reference_amplitudes(n, b, *_grk_schedule(r, b))
        certainty = a**2 + (n // b - 1) * b_amp**2
        assert outcome.measured_index >> (r - 2) == target >> (r - 2)
    assert outcome.certainty == pytest.approx(certainty, abs=1e-9)


def test_compact_dfgs_at_r24_reads_one_segment_without_a_register():
    # One segment of width 24: the run reads its plan's counts, never the
    # 128 MiB register, and builds them cold.
    from groverbench import ops

    r = 24
    config = gb.SearchConfig(r=r, target=12_345_678, algorithm="DFGS", b=1 << r, seed=5)
    gb.run_search(gb.SearchConfig(r=4, target=5, algorithm="DFGS", b=16, seed=5))
    ops._plan_counts.cache_clear()
    tracemalloc.start()
    try:
        outcome = gb.run_search(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ops._plan_counts.cache_info().misses == 1
    assert peak < 64 << 10
    assert outcome.measured_index == config.target and outcome.layers == 1
    # The exact search runs one round past the standard count at width 24.
    assert outcome.oracle_calls == gb.optimal_iterations(1 << r) + 1


def test_a_warm_layered_run_reads_one_cached_entry(monkeypatch):
    # Once a cell's counts are cached, a rerun builds neither its plan nor a
    # segment row: it reads one entry of the plan-counts cache.
    from groverbench import ops, search

    configs = [
        gb.SearchConfig(r=20, target=314159, algorithm=algorithm, b=4, seed=3)
        for algorithm in ("DFGS", "BDGS")
    ]
    for config in configs:
        gb.run_search(config)

    def rebuilt(*args):
        raise AssertionError(f"a warm layered run rebuilt its plan: {args}")

    for module in (ops, search):
        monkeypatch.setattr(module, "layered_plan", rebuilt)
        monkeypatch.setattr(module, "segment_row", rebuilt)
    for config in configs:
        hits = ops._plan_counts.cache_info().hits
        assert gb.verify_outcome(gb.run_search(config), config)
        assert ops._plan_counts.cache_info().hits == hits + 1


def test_a_warm_gs_or_grk_run_reads_one_cached_readout(monkeypatch):
    # Once a group's readout is cached, a run of the group with another
    # target, seed and shot count runs no class step: it reads the one
    # entry and draws its own shots.
    import groverbench.search as search

    steps = []
    real = search._class_run

    def counted(c, iterations, blocks):
        steps.append((iterations, blocks))
        real(c, iterations, blocks)

    monkeypatch.setattr(search, "_class_run", counted)
    for algorithm in ("GS", "GRK"):
        _group_readout.cache_clear()
        gb.run_search(gb.SearchConfig(16, 12_345, algorithm, b=8, shots=64, seed=1))
        assert steps and _group_readout.cache_info().misses == 1
        steps.clear()
        config = gb.SearchConfig(16, 54_321, algorithm, b=8, shots=300, seed=2)
        assert gb.verify_outcome(gb.run_search(config), config)
        assert steps == []
        info = _group_readout.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


def _cold_and_warm_cells():
    """GS at r = 1-24 over three seeds, whose r = 1 runs are coin flips, and
    GRK at every b with r <= 12, with 1,024 shots and with 2.  Two shots at
    r = 3, b = 2 (certainty 0.969) leave the vote open at seeds 4 and 10."""
    for r in range(1, 25):
        for seed in (0, 1, 2):
            yield gb.SearchConfig(r, (1 << r) // 3, "GS", shots=64, seed=seed)
    for r in range(2, 13):
        for k in range(1, r):
            for shots in (1024, 2):
                yield gb.SearchConfig(r, (1 << r) - 1, "GRK", b=1 << k, shots=shots, seed=r + k)
    for seed in (4, 10):
        yield gb.SearchConfig(3, 7, "GRK", b=2, shots=2, seed=seed)


def test_cold_and_warm_runs_give_the_same_outcome():
    # A run that fills its group's readout, and one that reads an entry a
    # run for another target filled, agree in every field but wall time,
    # votes that stay open included.
    opened = {"GS": 0, "GRK": 0}
    for config in _cold_and_warm_cells():
        _group_readout.cache_clear()
        cold = gb.run_search(config)
        _group_readout.cache_clear()
        gb.run_search(replace(config, target=0, seed=config.seed + 99))
        warm = gb.run_search(config)
        assert _group_readout.cache_info().hits == 1
        assert outcome_key(warm) == outcome_key(cold), config
        opened[config.algorithm.value] += cold.success_fraction <= 0.5
    assert opened["GS"] > 0 and opened["GRK"] > 0


def test_gs_runs_share_one_readout_across_block_sizes():
    # GS never reads b: its runs at one r fill one entry whatever their b,
    # and give the same outcome.
    _group_readout.cache_clear()
    outcomes = {
        outcome_key(gb.run_search(gb.SearchConfig(12, 77, "GS", b=b, shots=16, seed=5)))
        for b in (2, 4, 8, 1 << 12)
    }
    info = _group_readout.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 3, 1)
    assert len(outcomes) == 1


def test_a_readout_that_fails_the_norm_check_leaves_no_entry(monkeypatch):
    # The drift of test_norm_drift_is_rejected_at_readout, then a clean run
    # of the same group: the failed fill cached nothing, so the clean run
    # runs its classes and gives the outcome of a cold run.
    import groverbench.search as search

    real = search._class_run

    def drifting(classes, iterations, blocks):
        real(classes, iterations, blocks)
        classes.a *= 1.001

    for algorithm in ("GS", "GRK"):
        config = gb.SearchConfig(r=6, target=37, algorithm=algorithm, shots=16)
        _group_readout.cache_clear()
        expected = outcome_key(gb.run_search(config))
        _group_readout.cache_clear()
        monkeypatch.setattr(search, "_class_run", drifting)
        with pytest.raises(ValueError, match="norm"):
            gb.run_search(config)
        monkeypatch.undo()
        assert _group_readout.cache_info().currsize == 0
        assert outcome_key(gb.run_search(config)) == expected
        assert _group_readout.cache_info().currsize == 1


def test_dense_and_class_runs_agree_at_r22():
    # The dense kernels stay the checked code at r = 22: a few global,
    # block-local and cleanup iterations from the equal superposition, on
    # the dense register and on the amplitude classes.
    r, target = 22, 1_234_567
    steps = grk_steps(r, 4, 2, 3)
    np.testing.assert_allclose(
        write_out(run_classes(r, steps), target).amplitudes,
        run_dense(r, target, steps).amplitudes,
        rtol=0,
        atol=1e-12,
    )


def _schedule(r: int, b: int | None) -> tuple[tuple[int, int], ...]:
    """GS's schedule when ``b`` is None, else GRK's at ``(r, b)``: the drivers'
    own steps, each as ``(iterations, mask)`` with the mask of the positions
    ``0..lo-1`` that number its blocks."""
    algorithm, k = (gb.Algorithm.GS, 0) if b is None else (gb.Algorithm.GRK, b.bit_length() - 1)
    return tuple(
        (iterations, gb.segment_mask(r, 0, lo - 1) if lo else 0)
        for ((iterations, lo, _),) in _steps(algorithm, r, k)
    )


def _segment_walk(algorithm: str, r: int, k: int) -> tuple[int, int]:
    """A layered plan's layers and queries, walked without the step list:
    its rounds, and the sum of every segment row's ``reps``."""
    rounds = gb.layered_plan(algorithm, r, k)
    queries = sum(gb.ops.segment_row(r, lo, hi).reps for segments in rounds for lo, hi in segments)
    return len(rounds), queries


def test_the_step_list_folds_match_references_that_do_not_read_it():
    # Every (algorithm, r, b): GS spends the optimal count at r <= 24, GRK
    # its schedule's burn-in, locals and cleanup within the query budget at
    # r <= 16, and a layered run its plan's rounds and segment rows' reps at
    # r <= 24.
    for r in range(1, 25):
        assert _group_readout(r, None).queries == gb.optimal_iterations(1 << r)
        for k in range(1, r + 1):
            for algorithm in (gb.Algorithm.DFGS, gb.Algorithm.BDGS):
                assert gb.ops._plan_counts(algorithm, r, k) == _segment_walk(algorithm, r, k)
    for r in range(2, 17):
        for k in range(1, r):
            t_global, t_local = _grk_schedule(r, 1 << k)
            budget = math.ceil(gb.grk_query_count(1 << r, 1 << k)) + 1
            assert _group_readout(r, 1 << k).queries == t_global + t_local + 1 <= budget


def test_class_runs_match_the_dense_kernels_up_to_r12():
    # GS and GRK at every valid (r, b) with r <= 12, for targets at both
    # ends and inside a block: the classes write out to the dense register
    # the kernels build, and the driver's certainty is the dense mass it
    # names.
    cells = 0
    for r in range(1, 13):
        for b in [None] + [1 << k for k in range(1, r)]:
            k = 0 if b is None else b.bit_length() - 1
            size = 1 << (r - k)
            steps = _schedule(r, b)
            for target in {0, size - 1, (1 << r) - size, (1 << r) - 1, (1 << r) // 3}:
                plain = run_dense(r, target, steps)
                np.testing.assert_allclose(
                    write_out(run_classes(r, steps), target).amplitudes,
                    plain.amplitudes,
                    rtol=0,
                    atol=1e-12,
                )
                algorithm = "GS" if b is None else "GRK"
                config = gb.SearchConfig(r=r, target=target, algorithm=algorithm, b=b or 2, shots=4)
                held = 1 if b is None else size  # the target alone, or its block
                start = target // held * held
                expected = plain.probabilities()[start : start + held].sum()
                assert gb.run_search(config).certainty == pytest.approx(expected, abs=1e-12)
                cells += 1
    assert cells > 300


def test_multi_step_schedules_on_split_classes_match_the_dense_kernels():
    # Schedules that go global after local (odd and even counts, so the
    # complement's (-1)**t shows), local again after a split global step,
    # and run several cleanups, at every (r, b) with r <= 10 and targets at
    # the ends of the first and last blocks: the rotated classes write out
    # to the register the dense kernels iterate to.
    worst, cells = 0.0, 0
    for r in range(2, 11):
        for k in range(1, r):
            mask = gb.segment_mask(r, 0, k - 1)
            size = 1 << (r - k)
            schedules = [
                ((1, 0), (2, mask), (2, 0)),
                ((2, mask), (3, 0), (1, mask), (2, 0)),
                ((0, 0), (3, mask), (1, 0), (1, 0), (4, 0)),
            ]
            for steps in schedules:
                for target in {0, size - 1, (1 << r) - size, (1 << r) - 1}:
                    classes = run_classes(r, steps)
                    assert classes.blocks == 1 << k
                    plain = run_dense(r, target, steps).amplitudes
                    gap = write_out(classes, target).amplitudes - plain
                    worst = max(worst, float(np.abs(gap).max()))
                    cells += 1
            assert run_classes(r, ((0, mask),)).blocks == 1  # no iteration, no split
    assert worst < 1e-14
    assert cells == 45 * 12


def test_one_step_of_a_trillion_iterations_runs_in_closed_form():
    # 10**12 iterations per step would never finish one at a time: the
    # rotation takes each step, global, block-local and global on the split
    # classes, in O(1) and charges every iteration as a query, and the
    # sampler's norm check (_check_norm) passes on the state it leaves.
    r, t = 24, 10**12
    mask = gb.segment_mask(r, 0, 1)
    config = gb.SearchConfig(r=r, target=12_345_678, shots=64, seed=1)
    outcome = class_outcome(config, ((t, 0), (t, mask), (t + 1, 0)), 4)
    assert outcome.oracle_calls == outcome.layers == 3 * t + 1
    assert 0.0 <= outcome.certainty <= 1.0 + 1e-12


@pytest.mark.parametrize("r", [20, 22, 24])
def test_gs_certainty_is_the_closed_form_to_1e14(r):
    # Grover's law sin^2((2t+1)theta) at the optimal t, to 1e-14.
    n = 1 << r
    angle = (2 * gb.optimal_iterations(n) + 1) * gb.grover_angle(n)
    config = gb.SearchConfig(r=r, target=n // 3, shots=1, seed=2)
    assert gb.run_standard_grover(config).certainty == pytest.approx(
        math.sin(angle) ** 2, abs=1e-14
    )


# GS at r = 1, GRK with blocks of two (r = 2, b = 2) and GRK with no local
# step (r = 3, b = 2).
EDGE_CELLS = [(1, None), (2, 2), (3, 2)]


def _edge_targets(r: int, b: int | None) -> list[int]:
    """A target at either end of each block."""
    size = (1 << r) // (b or 1)
    return sorted({start + end for start in range(0, 1 << r, size) for end in (0, size - 1)})


def _assert_cells_follow_dense(runs) -> None:
    """20,000 shots' cell counts lie within five sigma of the dense run's cell masses."""
    shots = 20_000
    for r, target, steps in runs:
        cells = cells_of(r, steps)
        probs = run_dense(r, target, steps).probabilities().reshape(cells, -1).sum(axis=1)
        counts = sample_cells(run_classes(r, steps), target, cells, shots, target)
        for cell, p in enumerate(probs):
            band = 5 * math.sqrt(shots * p * (1 - p))
            assert abs(counts.get(cell, 0) - shots * p) <= band, (r, target, cell)


@pytest.mark.parametrize("r, b", EDGE_CELLS)
def test_class_sampler_edge_cells(r, b):
    # For a target at either end of each block, the target cell's vote plus
    # the other shots' drawn cells follow the dense run's mass on each cell
    # the run resolves, and a cell of zero probability draws nothing.
    steps = _schedule(r, b)
    if b == 2 and r == 3:
        assert steps[1][0] == 0
    _assert_cells_follow_dense([(r, target, steps) for target in _edge_targets(r, b)])


def test_cell_sampler_follows_the_dense_cells():
    # The same on the spread runs (2048 blocks at r = 12).
    _assert_cells_follow_dense(SPREAD_RUNS)


def reference_readout(config: gb.SearchConfig, steps, resolved: int) -> tuple:
    """The driver's readout fields from every shot's cell, all of them drawn and counted."""
    counts = sample_cells(
        run_classes(config.r, steps), config.target, resolved, config.shots, config.seed
    )
    size = (1 << config.r) // resolved
    cell = min(counts, key=lambda cell: (-counts[cell], cell))
    return (
        cell * size,
        counts.get(config.target // size, 0) / config.shots,
        None if size == 1 else cell,
    )


def readout_fields(config: gb.SearchConfig, steps, resolved: int) -> tuple:
    outcome = class_outcome(config, steps, resolved)
    return outcome.measured_index, outcome.success_fraction, outcome.resolved_block


def test_class_counts_read_out_what_every_shot_reads_out():
    # The driver reads its fields off the target cell's vote and draws the
    # other cells only for a vote it leaves open.  Against the readout
    # over every shot's cell: spread runs, the edge cells (r = 3, b = 2 has
    # unsplit classes), GRK at r = 4, b = 8 and zero-iteration schedules,
    # each read at its blocks and, for unsplit classes, on all its bits.
    runs = list(SPREAD_RUNS) + [
        (r, target, _schedule(r, b))
        for r, b in EDGE_CELLS + [(4, 8)]
        for target in _edge_targets(r, b)
    ]
    runs += [(4, 9, ((0, 0),)), (5, 30, grk_steps(5, 4, 0, 0)), (6, 1, ((0, 0b110000),))]
    cells = beaten = 0
    for r, target, steps in runs:
        blocks = run_classes(r, steps).blocks
        for resolved in {cells_of(r, steps), 1 << r} if blocks == 1 else {blocks}:
            size = (1 << r) // resolved
            for shots in (1, 2, 3, 7, 1024, 20_001):
                for seed in (0, 7, 2**40 + 5):
                    config = gb.SearchConfig(r=r, target=target, b=2, shots=shots, seed=seed)
                    expected = reference_readout(config, steps, resolved)
                    assert readout_fields(config, steps, resolved) == expected, (
                        r, target, steps, resolved, shots, seed
                    )
                    cells += 1
                    beaten += expected[0] != target // size * size
    assert cells == 792 and beaten > 0


def test_a_smaller_index_and_block_win_a_tie_with_the_target():
    # r = 3, target 6: one local step on blocks of four leaves half the mass
    # on the target and half on block 0.  Two shots that split between them
    # tie the target's block with block 0, and the tie goes to block 0,
    # whose first index, 0, is the measured index.
    steps = ((1, 0b100),)
    ties = 0
    for seed in range(40):
        config = gb.SearchConfig(r=3, target=6, b=2, shots=2, seed=seed)
        expected = reference_readout(config, steps, 2)
        assert readout_fields(config, steps, 2) == expected
        if expected[1] == 0.5:  # one shot on the target, one in block 0
            assert expected[0] == expected[2] == 0
            ties += 1
    assert ties > 0


def test_grk_readout_with_a_million_blocks_stays_small():
    # GRK at r = 24 with 2**20 blocks of 16 and 2**22 blocks of 4: the
    # readout draws three class counts, so nothing it holds grows with b
    # (a weight per block would be 8 and 32 MiB).
    gb.run_search(gb.SearchConfig(r=4, target=5, algorithm="GRK", b=4, shots=16))
    for b in (1 << 20, 1 << 22):
        r = 24
        config = gb.SearchConfig(
            r=r, target=12_345_678, algorithm="GRK", b=b, shots=1024, seed=5
        )
        _group_readout(r, b)  # cached; its class run is not the run's memory
        tracemalloc.start()
        try:
            outcome = gb.run_search(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, b
        assert outcome.resolved_block == config.target >> (r - b.bit_length() + 1)


def test_class_run_rejects_a_schedule_it_cannot_hold():
    # Three classes hold a run with one partition into blocks of the top
    # bits.  Blocks of one item, or a second block count, would need more
    # classes, and the run refuses them.
    config = gb.SearchConfig(r=4, target=6, shots=8)
    for steps in [((1, 0b1111),), ((1, 0b1100), (1, 0b1000))]:
        with pytest.raises(ValueError, match="dimension|partition"):
            class_outcome(config, steps, 16)
    with pytest.raises(ValueError, match="partition"):  # split at four blocks, read at two
        class_outcome(config, ((1, 0b1100),), 2)


def _count_kernel_lookups(monkeypatch, run) -> dict:
    # perfbench/tracing.py times these lookups in ``search`` and ``ops``.
    import groverbench.ops as ops
    import groverbench.search as search

    calls = {}

    def counter(owner, name):
        real = getattr(owner, name)
        calls[name] = 0

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for name in ("grover_iteration", "uniform_state", "sample"):
        counter(search, name)
    counter(ops, "phase_flip")
    counter(ops, "invert_about_mean")
    run()
    return calls


NO_KERNEL_CALLS = {
    "grover_iteration": 0, "uniform_state": 0, "sample": 0,
    "phase_flip": 0, "invert_about_mean": 0,
}


def test_gs_run_keeps_the_traced_kernel_boundaries(monkeypatch):
    # GS runs on its amplitude classes: no traced kernel is called.
    config = gb.SearchConfig(r=8, target=200, shots=16)
    calls = _count_kernel_lookups(monkeypatch, lambda: gb.run_standard_grover(config))
    assert calls == NO_KERNEL_CALLS


def test_grk_run_keeps_the_traced_kernel_boundaries(monkeypatch):
    # GRK runs on its amplitude classes: no traced kernel is called.
    config = gb.SearchConfig(r=8, target=200, algorithm="GRK", shots=16)
    calls = _count_kernel_lookups(monkeypatch, lambda: gb.run_grk_partial(config))
    assert calls == NO_KERNEL_CALLS


def _count_layered_lookups(monkeypatch, run) -> dict:
    # perfbench/tracing.py counts segment searches and their amplification
    # passes through these lookups in ``search``.
    import groverbench.search as search

    calls = {}

    def counter(name):
        real = getattr(search, name)
        calls[name] = 0

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(search, name, counted)

    for name in ("segment_partial_search", "uniform_state", "grover_iteration"):
        counter(name)
    run()
    return calls


@pytest.mark.parametrize("algorithm", ["DFGS", "BDGS"])
def test_layered_run_keeps_the_traced_segment_boundaries(monkeypatch, algorithm):
    # A compact run reads its plan: no segment search, no register and no
    # iteration call, for 10 width-2 segments at r = 20, b = 4 and for one
    # 24-bit segment (two 12-bit ones for BDGS) at r = 24, where it
    # allocates under 64 KiB.
    for r, b in ((20, 4), (24, 1 << 24)):
        config = gb.SearchConfig(r=r, target=987654, algorithm=algorithm, b=b, shots=16)
        tracemalloc.start()
        try:
            calls = _count_layered_lookups(monkeypatch, lambda: gb.run_search(config))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == {"segment_partial_search": 0, "uniform_state": 0, "grover_iteration": 0}
        assert peak < 64 << 10


@pytest.mark.parametrize("algorithm", ["DFGS", "BDGS"])
def test_full_layered_run_keeps_the_traced_iterations(monkeypatch, algorithm):
    # The dense reference amplifies the 2**(r+1) register with its own
    # reflection about the start state: one oracle application per segment,
    # and no grover_iteration call.
    import groverbench.ops as ops

    applied = []
    real = ops.OracleSpec.apply

    def counted(self, state):
        applied.append(state.num_qubits)
        return real(self, state)

    monkeypatch.setattr(ops.OracleSpec, "apply", counted)
    config = gb.SearchConfig(r=20, target=987654, algorithm=algorithm, b=4, shots=16)
    calls = _count_layered_lookups(monkeypatch, lambda: gb.layered_reference(config))
    assert calls == {"segment_partial_search": 10, "uniform_state": 0, "grover_iteration": 0}
    assert applied == [21] * 10


@pytest.mark.parametrize("algorithm", ["GS", "GRK"])
def test_class_drivers_keep_real_amplitudes(monkeypatch, algorithm):
    # Every amplitude class of the run stays a real float.  The readout
    # cache is cleared, so the run's group runs its classes again.
    import groverbench.search as search

    real = search._class_run
    types = set()

    def recording(c, iterations, blocks):
        real(c, iterations, blocks)
        types.update(map(type, (c.a, c.m, c.m_other)))

    _group_readout.cache_clear()
    monkeypatch.setattr(search, "_class_run", recording)
    gb.run_search(gb.SearchConfig(r=10, target=613, algorithm=algorithm, shots=16))
    assert types == {float}


def test_grk_local_rotation_closed_form():
    # One local step rotates the in-block pair by exactly 2*arcsin(1/sqrt(B)).
    block = 16
    omega = math.asin(1 / math.sqrt(block))
    a, b_amp = 0.3, 0.05
    root = math.sqrt(block - 1)
    radius = math.hypot(a, root * b_amp)
    phase = math.atan2(a, root * b_amp)
    for step in range(1, 9):
        a, b_amp = _grk_global_step(a, b_amp, 0.0, block, block)[:2]  # block-local
        assert a == pytest.approx(radius * math.sin(phase + 2 * step * omega), abs=1e-12)
        assert b_amp == pytest.approx(
            radius * math.cos(phase + 2 * step * omega) / root, abs=1e-12
        )


@pytest.mark.parametrize("r", [4, 6, 8, 10])
def test_grk_schedule_feasible_within_budget(r):
    n = 1 << r
    t_global, t_local = _grk_schedule(r, 4)
    budget = math.ceil(gb.grk_query_count(n, 4)) + 1
    assert t_global + t_local + 1 <= budget
    a, b_amp, g = grk_reference_amplitudes(n, 4, t_global, t_local)
    p_block = a * a + (n // 4 - 1) * b_amp * b_amp
    t_opt = gb.optimal_iterations(n)
    p_full = math.sin((2 * t_opt + 1) * gb.grover_angle(n)) ** 2
    assert p_block >= p_full


def test_grk_rejects_single_item_blocks():
    with pytest.raises(ValueError, match="two items per block"):
        gb.SearchConfig(r=2, target=1, algorithm="GRK", b=4)


def test_readout_ties_go_to_the_smallest_index_and_block(monkeypatch):
    # With the target's cell's votes and the other shots' cells fixed:
    # GRK's blocks 0 and 3 of four tie at four votes each, ahead of block 1,
    # and GS's indices 5 and 13 tie at two shots each.  Each tie goes to the
    # smallest cell, wherever it falls in the draws.
    import groverbench.search as search

    fixed = {4: (4, [1, 0, 0, 1, 0, 0]), 16: (2, [15, 5, 3, 14, 2, 5, 1, 0])}
    votes = [fixed[4][0], fixed[16][0]]  # in run order: GRK, then GS
    cell_draws = []

    class FixedVotes:
        """A generator whose binomial draw gives the next run's fixed votes."""

        def binomial(self, shots, p):
            return votes.pop(0)

    def fixed_cells(rng, shots, cell, resolved):
        cell_draws.append(shots)
        return np.array(fixed[resolved][1], dtype=np.int64)

    monkeypatch.setattr(search.np.random, "default_rng", lambda seed: FixedVotes())
    monkeypatch.setattr(search, "_draw_cells", fixed_cells)
    config = gb.SearchConfig(r=4, target=14, algorithm="GRK", b=4, shots=10)
    block, outcome = gb.run_grk_partial(config)
    assert (outcome.measured_index, block, outcome.resolved_block) == (0, 0, 0)
    assert outcome.success_fraction == 0.4
    assert not gb.verify_outcome(outcome, config)
    outcome = gb.run_standard_grover(gb.SearchConfig(r=4, target=13, shots=10))
    assert (outcome.measured_index, outcome.resolved_block) == (5, None)
    assert outcome.success_fraction == 0.2
    # Neither cell holds over half the shots, so both runs draw the others.
    assert cell_draws == [6, 8]


def test_grk_deterministic():
    config = gb.SearchConfig(r=6, target=9, algorithm="GRK", b=4, shots=256, seed=13)
    assert outcome_key(gb.run_grk_partial(config)[1]) == outcome_key(
        gb.run_grk_partial(config)[1]
    )


# ---------------------------------------------------------------------------
# Depth-first layered driver


def test_dfgs_r4_history():
    config = gb.SearchConfig(r=4, target=9, algorithm="DFGS", b=4, shots=64, seed=0)
    segments = [round_[0] for round_ in gb.layered_plan("DFGS", config.r, config.k)]
    _, value, history, _ = walk_segments(config, segments)
    # 9 = 1001: MSB pair resolves to 10, then the LSB pair to 01.
    assert history == [((0, 1), 0b10), ((2, 3), 0b01)]
    assert value == 9

    outcome = gb.run_dfgs(config)
    assert outcome.measured_index == 9
    assert outcome.layers == 2


def test_dfgs_r8_exact():
    config = gb.SearchConfig(r=8, target=173, algorithm="DFGS", shots=1024, seed=2)
    outcome = gb.run_dfgs(config)
    assert outcome.success_fraction == 1.0
    assert outcome.measured_index == 173
    assert outcome.certainty == pytest.approx(1.0, abs=1e-12)


def test_dfgs_r20_layers():
    config = gb.SearchConfig(r=20, target=987654, algorithm="DFGS", shots=16, seed=4)
    outcome = gb.run_dfgs(config)
    assert outcome.layers == 10
    assert outcome.oracle_calls == 10
    assert outcome.measured_index == 987654


# ---------------------------------------------------------------------------
# Bi-directional layered driver


def test_bdgs_r8_resolves_from_both_ends():
    target = 0b01101111
    config = gb.SearchConfig(r=8, target=target, algorithm="BDGS", shots=64, seed=6)
    forward, backward = bdgs_passes(8, 2)
    _, _, history, _ = walk_segments(config, forward)
    assert [value for _, value in history] == [0b01, 0b10]
    mask, value, history, _ = walk_segments(config, forward + backward)
    assert [value for _, value in history][2:] == [0b11, 0b11]
    assert value == target
    assert mask == 0xFF


def test_bdgs_r4_parallel_accounting():
    config = gb.SearchConfig(r=4, target=5, algorithm="BDGS", shots=64, seed=8)
    outcome = gb.run_bdgs(config)
    assert outcome.layers == 1
    assert outcome.oracle_calls == 2
    assert outcome.measured_index == 5


def test_bdgs_r20():
    config = gb.SearchConfig(r=20, target=314159, algorithm="BDGS", shots=1024, seed=9)
    outcome = gb.run_bdgs(config)
    assert outcome.layers == 5
    assert outcome.oracle_calls == 10
    assert outcome.success_fraction == 1.0
    assert outcome.certainty == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("r", [2, 3, 5, 7, 9])
def test_bdgs_odd_and_tiny_registers(r):
    # Residual width-1 segments are exact too: one round each.
    rng = np.random.default_rng(500 + r)
    for _ in range(8):
        target = int(rng.integers(0, 1 << r))
        config = gb.SearchConfig(r=r, target=target, algorithm="BDGS", shots=16, seed=int(rng.integers(2**31)))
        outcome = gb.run_bdgs(config)
        assert outcome.measured_index == target
        assert outcome.oracle_calls == _plan_reps("BDGS", r, 2)


def test_bdgs_r6_exhaustive():
    # floor(6/2) = 3 is odd, so both passes end in a width-1 segment.
    for target in range(64):
        config = gb.SearchConfig(r=6, target=target, algorithm="BDGS", shots=16, seed=target)
        outcome = gb.run_bdgs(config)
        assert outcome.measured_index == target
        assert outcome.success_fraction == 1.0


def test_layer_accounting_matches_predictions():
    for r in range(4, 21, 2):
        target = (1 << r) // 3
        bdgs = gb.run_bdgs(gb.SearchConfig(r=r, target=target, algorithm="BDGS", shots=8, seed=1))
        dfgs = gb.run_dfgs(gb.SearchConfig(r=r, target=target, algorithm="DFGS", shots=8, seed=1))
        assert bdgs.layers == gb.predicted_layers("BDGS", r, 2) == math.ceil(r / 4)
        assert dfgs.layers == gb.predicted_layers("DFGS", r, 2) == math.ceil(r / 2)


def test_layered_drivers_deterministic():
    for algorithm, runner in (("BDGS", gb.run_bdgs), ("DFGS", gb.run_dfgs)):
        config = gb.SearchConfig(r=7, target=99, algorithm=algorithm, shots=32, seed=21)
        assert outcome_key(runner(config)) == outcome_key(runner(config))


# ---------------------------------------------------------------------------
# segment_partial_search contract


def test_segment_search_rejects_overlap():
    config = gb.SearchConfig(4, 5, "DFGS")
    assert gb.segment_partial_search(config, 0, 0, (0, 1))[0] == 0b01
    with pytest.raises(ValueError, match="scheduling"):
        gb.segment_partial_search(config, 0b1100, 0b0100, (1, 2))


def test_segment_search_rejects_wide_segment():
    with pytest.raises(ValueError, match="wider"):
        gb.segment_partial_search(gb.SearchConfig(6, 5, "DFGS"), 0, 0, (0, 2))


def test_segment_search_width1_resolves_in_one_round():
    # The ancilla's amplitude sqrt(1/2) slows the one round to pi/6, so a
    # single bit is found with certainty in one query, the value a compact
    # run reads from the row.
    row = gb.ops.segment_row(3, 0, 0)
    assert row.reps == 1
    for target_bit in (0, 1):
        config = gb.SearchConfig(3, target_bit << 2, "DFGS", seed=3)
        found, prob, queries = gb.segment_partial_search(config, 0, 0, (0, 0))
        assert found == (config.target & row.mask) >> row.shift == target_bit
        assert queries == 1
        assert prob == pytest.approx(1.0, abs=1e-15)


# A layered run checks nothing of its own: the SearchConfig it is given
# rejects a bad input before a compact run (run_dfgs) or the dense
# reference (layered_reference) starts.
_LAYERED_ENTRY = {"compact": gb.run_dfgs, "full": gb.layered_reference}


def test_search_context_rejects_a_target_out_of_range():
    for target in (16, 99, -1):
        for run in _LAYERED_ENTRY.values():
            with pytest.raises(ValueError, match="out of range for 4 qubits"):
                run(gb.SearchConfig(4, target, "DFGS"))


def test_search_context_rejects_a_negative_seed():
    # Rejected at construction: a layered run never builds the generator
    # that would reject it later.
    for run in _LAYERED_ENTRY.values():
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            run(gb.SearchConfig(4, 5, "DFGS", seed=-1))


@pytest.mark.parametrize("mode", ["compact", "full"])
@pytest.mark.parametrize("r", [0, 25])
def test_search_context_rejects_a_qubit_count(r, mode):
    # Rejected at construction, before the dense reference could allocate
    # a 2**r register.
    with pytest.raises(ValueError, match=rf"qubit count must be in \[1, 24\], got {r}"):
        _LAYERED_ENTRY[mode](gb.SearchConfig(r, 0, "DFGS"))


def test_layered_reference_rejects_24_qubits_before_allocating(monkeypatch):
    # The dense reference adds the segment search's ancilla, so r = 24
    # would need a 25-qubit register: rejected in one line, before any
    # register exists.  At r = 23 the check passes and the first segment
    # search goes on to build its register.
    import groverbench.search as search

    config = gb.SearchConfig(24, 12_345_678, "DFGS", b=16)
    message = (
        r"^the dense reference needs r \+ 1 = 25 qubits, the register and "
        r"the segment search's ancilla; at most 24$"
    )
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            gb.layered_reference(config)
        with pytest.raises(ValueError, match=message):
            gb.segment_partial_search(config, 0, 0, (0, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10

    def building(*args):
        raise RuntimeError("building the register")

    monkeypatch.setattr(search, "_start_state", building)
    with pytest.raises(RuntimeError, match="building the register"):
        gb.layered_reference(gb.SearchConfig(23, 5, "DFGS"))


# ---------------------------------------------------------------------------
# Full-register cross-validation


def _assert_modes_agree(r: int, b: int, rng: np.random.Generator, configs: int = 6) -> None:
    # A compact run against the dense reference of the same config.
    for _ in range(configs):
        target = int(rng.integers(0, 1 << r))
        seed = int(rng.integers(2**31))
        for algorithm, runner in (("BDGS", gb.run_bdgs), ("DFGS", gb.run_dfgs)):
            config = gb.SearchConfig(
                r=r, target=target, algorithm=algorithm, b=b, shots=16, seed=seed
            )
            compact = runner(config)
            full = gb.layered_reference(config)
            assert compact.measured_index == full.measured_index == target
            assert compact.oracle_calls == full.oracle_calls
            assert compact.layers == full.layers
            assert compact.certainty == pytest.approx(full.certainty, abs=1e-12)


@pytest.mark.parametrize("r", [4, 5, 6, 8, 10])
def test_compact_and_full_modes_agree(r):
    _assert_modes_agree(r, 4, np.random.default_rng(900 + r))


@pytest.mark.parametrize("b", [16, 32])
@pytest.mark.parametrize("r", [10, 12])
def test_compact_and_full_modes_agree_at_sampled_widths(r, b):
    # Widths 4 and 5 and their residuals, where a standard search would
    # miss; the dense search with its ancilla ends on the target's value.
    _assert_modes_agree(r, b, np.random.default_rng(31 * r + b), configs=4)


@pytest.mark.parametrize("b", [4, 8])
@pytest.mark.parametrize("algorithm", ["DFGS", "BDGS"])
def test_compact_and_full_modes_agree_at_r16(algorithm, b):
    runner = {"DFGS": gb.run_dfgs, "BDGS": gb.run_bdgs}[algorithm]
    config = gb.SearchConfig(r=16, target=40503, algorithm=algorithm, b=b, shots=8, seed=b)
    compact = runner(config)
    full = gb.layered_reference(config)
    assert compact.measured_index == full.measured_index == config.target
    assert compact.oracle_calls == full.oracle_calls
    assert compact.layers == full.layers
    assert compact.certainty == pytest.approx(full.certainty, abs=1e-12)


@pytest.mark.parametrize("b", [2, 4, 8])
def test_compact_and_full_modes_agree_up_to_r10(b):
    for r in range(2, 11):
        if b <= 1 << r:
            _assert_modes_agree(r, b, np.random.default_rng(70 * r + b), configs=2)


@pytest.mark.parametrize("algorithm", ["DFGS", "BDGS"])
def test_compact_and_full_modes_agree_segment_by_segment(algorithm):
    # Every dense segment search reads the value and spends the rounds a
    # compact run reads from the segment's row, with certainty, so a
    # difference shows at the segment that makes it, width-1 ones included.
    widths = set()
    for r in range(2, 11):
        for b in (2, 4, 8, 16):
            if b > 1 << r:
                continue
            for seed in range(3):
                target = (seed * 2654435761 + r * 40503 + b) % (1 << r)
                config = gb.SearchConfig(r, target, algorithm, b=b, seed=seed)
                mask = value = 0
                for segments in gb.layered_plan(algorithm, r, config.k):
                    for segment in segments:
                        row = gb.ops.segment_row(r, *segment)
                        found, prob, queries = gb.segment_partial_search(
                            config, mask, value, segment
                        )
                        assert found == (target & row.mask) >> row.shift
                        assert queries == row.reps
                        assert prob == pytest.approx(1.0, abs=1e-12)
                        mask |= row.mask
                        value |= found << row.shift
                        widths.add(row.width)
                assert value == target
    assert widths == {1, 2, 3, 4}


def test_layered_outputs_match_the_pinned_digest():
    # Index, queries, layers and the certainty's bits of 890 compact cells
    # (r = 2-24, b = 2-16), as the exact segment searches produce them.
    # Nothing here is drawn, so the pin holds on any numpy; any change to a
    # query or a rounding shows here.
    digest = hashlib.sha256()
    cells = 0
    for algorithm in ("DFGS", "BDGS"):
        for r in range(2, 25):
            for b in (2, 4, 8, 16):
                if b > 1 << r:
                    continue
                for seed in (0, 1, 7, 123, 2**40 + 5):
                    target = (seed * 2654435761 + r * 40503 + b) % (1 << r)
                    config = gb.SearchConfig(
                        r=r, target=target, algorithm=algorithm, b=b, shots=1, seed=seed
                    )
                    out = gb.run_search(config)
                    digest.update(repr((
                        algorithm, r, b, seed, out.measured_index, out.oracle_calls,
                        out.layers, out.certainty.hex(),
                    )).encode())
                    cells += 1
    assert (digest.hexdigest(), cells) == (
        "4252204af506124bbf35621f334e2e70afc225eebb57ae4ee679f796e38bbbfa", 890
    )


def _grk_digest_cells():
    """The 114 GRK cells of the digests: r = 2-12, b = 2-16, three seeds."""
    for r in range(2, 13):
        for b in (2, 4, 8, 16):
            if b > 1 << (r - 1):
                continue
            for seed in (0, 1, 7):
                target = (seed * 2654435761 + r * 40503 + b) % (1 << r)
                yield gb.SearchConfig(
                    r=r, target=target, algorithm="GRK", b=b, shots=64, seed=seed
                )


def _gs_digest_cells():
    """The 168 GS cells of the digests: r = 1-14, four seeds, 1, 64 and 1024 shots."""
    for r in range(1, 15):
        for seed in (0, 1, 7, 2**40 + 5):
            for shots in (1, 64, 1024):
                target = (seed * 2654435761 + r * 40503 + shots) % (1 << r)
                yield gb.SearchConfig(
                    r=r, target=target, algorithm="GS", b=2, shots=shots, seed=seed
                )


def test_grk_outputs_match_the_pinned_digest():
    # The resolved block and every outcome field but wall time, for the
    # GRK digest cells, pinned like the layered digest.  The fields but
    # certainty are pinned as the block vote drew them; each certainty is
    # within 1e-13 of the iterated recurrence, and the full digest holds
    # the rotation's last bits.
    digest, fields = hashlib.sha256(), hashlib.sha256()
    cells = 0
    for config in _grk_digest_cells():
        r, b = config.r, config.b
        a, b_amp, _ = grk_reference_amplitudes(1 << r, b, *_grk_schedule(r, b))
        block, out = gb.run_grk_partial(config)
        key = (
            r, b, config.seed, block, out.measured_index, out.success_fraction,
            out.oracle_calls, out.layers,
        )
        fields.update(repr(key).encode())
        digest.update(repr((*key, out.certainty.hex())).encode())
        reference = a * a + ((1 << r) // b - 1) * b_amp * b_amp
        assert out.certainty == pytest.approx(reference, abs=1e-13)
        cells += 1
    assert (fields.hexdigest(), cells) == (
        "b2973d540bda8506e5aac118216e4fe6f724ea1216a8349993d7b1ae34267ce9", 114
    )
    assert digest.hexdigest() == (
        "bfc5be7b28d262b4d68f9321e8e85f57daad8f10d8d2b2b476a4beafedd8ee1d"
    )


def test_grk_measures_the_resolved_block_with_the_low_bits_zero():
    # GRK measures only the top k = log2(b) bits, so on every GRK digest
    # cell its index is the resolved block, shifted back into place.
    for config in _grk_digest_cells():
        outcome = gb.run_search(config)
        assert outcome.measured_index == outcome.resolved_block << (config.r - config.k)


def test_gs_outputs_match_the_pinned_digest():
    # Every outcome field but wall time, for the GS digest cells, pinned
    # like the GRK digest: the fields but certainty as the three-class count
    # readout drew them, which the index vote draws to the last bit, each
    # certainty within 1e-13 of the iterated recurrence, and the full
    # digest.
    digest, fields = hashlib.sha256(), hashlib.sha256()
    cells = 0
    for config in _gs_digest_cells():
        n = 1 << config.r
        a, _, _ = grk_reference_amplitudes(n, 2, gb.optimal_iterations(n) - 1, 0)
        out = gb.run_standard_grover(config)
        key = (
            config.r, config.seed, config.shots, out.measured_index, out.success_fraction,
            out.layers, out.oracle_calls, out.trial_seed,
        )
        fields.update(repr(key).encode())
        digest.update(repr((*key, out.certainty.hex())).encode())
        assert out.certainty == pytest.approx(a * a, abs=1e-13)
        cells += 1
    assert (fields.hexdigest(), cells) == (
        "2ef021382aed8f97392e2eae1007779ff0b27afc1ebdceac65ab29cdd858325b", 168
    )
    assert digest.hexdigest() == (
        "333556d8cf78419250b5562c89a68ac595d15a6dccc7e8c5fd66f3410f491ed3"
    )


def test_gs_and_grk_unsampled_fields_match_the_pinned_digest():
    # oracle_calls, layers, trial_seed and the certainty's bits of the GRK
    # and GS digest cells, pinned before the readout drew class counts from
    # one generator.  The readout runs after the rotations, so no change to
    # its draws may move these.
    digest, cells = hashlib.sha256(), 0
    for config in [*_grk_digest_cells(), *_gs_digest_cells()]:
        out = gb.run_search(config)
        digest.update(repr((
            out.oracle_calls, out.layers, out.trial_seed, out.certainty.hex()
        )).encode())
        cells += 1
    assert (digest.hexdigest(), cells) == (
        "dac2d39be0e677cb03dd92fbf37335d45c11fa502b70afa8d282778395c2055a", 282
    )


def test_predictions_and_plans_match_the_pinned_digest():
    # predict_cost's fields and the layered_plan of every algorithm at every
    # r <= 24 and b = 2**k <= 2**r, each error by its type and message, as
    # the driver's plan and the predictor's own segment walk gave them.
    digest, cells = hashlib.sha256(), 0
    for algorithm in gb.Algorithm:
        for r in range(1, 25):
            for k in range(1, r + 1):
                key = [algorithm.value, r, k]
                try:
                    cost = gb.predict_cost(algorithm, r, 1 << k)
                    key.append((
                        cost.algorithm.value, cost.iterations.hex(), cost.oracle_calls.hex(),
                        cost.layers, cost.oracle_model,
                    ))
                except ValueError as exc:
                    key.append((type(exc).__name__, str(exc)))
                try:
                    key.append(gb.layered_plan(algorithm, r, k))
                except ValueError as exc:
                    key.append((type(exc).__name__, str(exc)))
                digest.update(repr(key).encode())
                cells += 1
    assert (digest.hexdigest(), cells) == (
        "edde2b28a9726e656812536cca6439cdec5c6f13796a26b7a16e25b5c93128f1", 1200
    )


def test_grk_schedule_matches_the_pinned_digest():
    # (r, b, t_global, t_local) for every valid pair with r <= 16, as the
    # scan produced them before its cleanup step went through
    # _grk_global_step.  The scan is uncached, so each call reruns it.
    digest = hashlib.sha256()
    pairs = 0
    for r in range(2, 17):
        b = 2
        while b <= 1 << (r - 1):
            digest.update(repr((r, b, *_grk_schedule(r, b))).encode())
            pairs += 1
            b *= 2
    assert (digest.hexdigest(), pairs) == (
        "4773dc4105fc60c5e68dc705f1c34f35e23c05028b1372133bd18ddd7f098ce0", 120
    )


@pytest.mark.parametrize(
    "r, b, schedule",
    [
        (11, 2, (11, 14)),
        (14, 2, (23, 48)),
        (22, 1 << 20, (1607, 0)),
        (22, 1 << 21, (1607, 0)),
        (20, 4, (314, 315)),
        (24, 4, (1260, 1260)),
        (24, 1 << 23, (3215, 0)),
    ],
)
def test_grk_schedule_pins(r, b, schedule):
    # The first four pairs reach no feasible schedule within the budget and
    # take the most likely one.
    assert _grk_schedule(r, b) == schedule


def test_unknown_mode_rejected():
    # The layered drivers take their config alone: the dense reference is
    # layered_reference, not a mode of theirs.
    config = gb.SearchConfig(r=4, target=1, algorithm="DFGS", shots=8, seed=0)
    for runner in (gb.run_dfgs, gb.run_bdgs):
        with pytest.raises(TypeError, match="mode"):
            runner(config, mode="dense")


def test_certainty_is_the_targets_mass_not_the_measured_ones():
    # GS at r = 3 puts 121/128 of the mass on the target; this one shot
    # lands on index 1, which holds about 0.0078, and certainty still reads
    # the target's mass.
    outcome = gb.run_search(gb.SearchConfig(r=3, target=5, algorithm="GS", shots=1, seed=10))
    assert outcome.measured_index == 1
    assert outcome.certainty == pytest.approx(121 / 128, abs=1e-15)


def test_segment_order_independence():
    # Disjoint bit ranges: forward-first, backward-first, and interleaved
    # execution must reconstruct the same index.
    r, k, target = 6, 2, 0b110110
    fwd, bwd = bdgs_passes(r, k)
    orders = [fwd + bwd, bwd + fwd, [fwd[0], bwd[0], fwd[1], bwd[1]]]
    values = []
    config = gb.SearchConfig(r, target, "BDGS", seed=4)
    for order in orders:
        mask, value, _, _ = walk_segments(config, order)
        assert mask == (1 << r) - 1
        values.append(value)
    assert values == [target, target, target]


# ---------------------------------------------------------------------------
# Reported accuracy against the amplitudes


@pytest.mark.parametrize(
    "algorithm, r, b",
    [("GS", 1, 2), ("GS", 3, 2), ("GS", 5, 2),
     ("GRK", 3, 2), ("GRK", 4, 2), ("GRK", 5, 4), ("GRK", 6, 8)],
)
def test_shot_accuracy_agrees_with_the_certainty(algorithm, r, b):
    # Each run's shots land on what it resolves with probability
    # ``certainty``: pooled over 300 seeded runs of 64 shots, the hits lie
    # within 5 sigma of the summed certainties (a sum of binomials).
    shots, hits, expected, variance = 64, 0, 0.0, 0.0
    for seed in range(300):
        target = seed * 7919 % (1 << r)
        config = gb.SearchConfig(r, target, algorithm, b=b, shots=shots, seed=seed)
        outcome = gb.run_search(config)
        hits += round(outcome.success_fraction * shots)
        expected += shots * outcome.certainty
        variance += shots * outcome.certainty * (1 - outcome.certainty)
    assert 0 < variance
    assert abs(hits - expected) <= 5 * math.sqrt(variance)


def _plan_reps(algorithm: str, r: int, k: int) -> int:
    """The sum of the ``reps`` of every segment of a layered plan."""
    return sum(
        gb.ops.segment_row(r, lo, hi).reps
        for segments in gb.layered_plan(algorithm, r, k)
        for lo, hi in segments
    )


def test_layered_queries_are_the_plans_reps():
    # A layered run charges its segments' rounds and nothing else, whatever
    # the target and seed; for DFGS that is predict_cost's count.  Every
    # field but the wall time is read from the plan: the target, one layer
    # per round, those rounds' reps and certainty 1.
    for algorithm in ("DFGS", "BDGS"):
        for r in range(1, 25):
            for k in range(1, r + 1):
                b = 1 << k
                reps = _plan_reps(algorithm, r, k)
                layers = len(gb.layered_plan(algorithm, r, k))
                if algorithm == "DFGS":
                    assert gb.predict_cost("DFGS", r, b).oracle_calls == reps
                for seed in (0, 7, 2**40 + 5):
                    target = (seed * 2654435761 + r * 40503 + b) % (1 << r)
                    config = gb.SearchConfig(r, target, algorithm, b=b, shots=1, seed=seed)
                    outcome = gb.run_search(config)
                    assert outcome_key(outcome) == (
                        target, 1.0, layers, reps, seed, 1.0, None
                    ), (algorithm, r, b, seed)


@pytest.mark.parametrize("algorithm", ["GS", "GRK"])
def test_layered_reference_needs_a_layered_plan(algorithm):
    with pytest.raises(ValueError, match=f"^{algorithm} has no segment plan$"):
        gb.layered_reference(gb.SearchConfig(6, 37, algorithm, b=4))


def test_layered_reference_conditions_each_segment_on_the_ones_before(monkeypatch):
    # The reference searches the plan's segments in order, each with the
    # target's bits of every earlier segment as its determined mask and value.
    import groverbench.search as search

    calls = []
    real = search.segment_partial_search

    def recording(config, mask, value, segment):
        calls.append((segment, mask, value))
        return real(config, mask, value, segment)

    monkeypatch.setattr(search, "segment_partial_search", recording)
    config = gb.SearchConfig(9, 0b101101110, "BDGS", b=4)
    assert gb.layered_reference(config).measured_index == config.target
    mask, expected = 0, []
    for segments in gb.layered_plan("BDGS", 9, 2):
        for segment in segments:
            expected.append((segment, mask, config.target & mask))
            mask |= gb.segment_mask(9, *segment)
    assert calls == expected


# ---------------------------------------------------------------------------
# Dispatch, verification, config validation


def test_run_search_dispatch():
    for algorithm in ("GS", "GRK", "DFGS", "BDGS"):
        config = gb.SearchConfig(r=4, target=6, algorithm=algorithm, shots=64, seed=2)
        outcome = gb.run_search(config)
        assert outcome.oracle_calls >= outcome.layers >= 1


def test_verify_outcome():
    config = gb.SearchConfig(r=4, target=7, algorithm="BDGS", shots=16, seed=0)
    outcome = gb.run_bdgs(config)
    assert gb.verify_outcome(outcome, config)
    other = gb.SearchConfig(r=4, target=8, algorithm="BDGS", shots=16, seed=0)
    assert not gb.verify_outcome(outcome, other)


def test_verify_outcome_checks_a_grk_block():
    # GRK resolves a block: verify_outcome compares the outcome's block, not
    # the sampled index, with the target's.  Of the eight blocks of two,
    # target 1 shares block 0 with target 0; target 9 is in block 4.
    config = gb.SearchConfig(r=4, target=1, algorithm="GRK", b=8, shots=64, seed=0)
    block, outcome = gb.run_grk_partial(config)
    assert block == outcome.resolved_block == config.target >> 1
    assert gb.verify_outcome(outcome, config)
    assert gb.verify_outcome(outcome, gb.SearchConfig(r=4, target=0, algorithm="GRK", b=8))
    assert not gb.verify_outcome(outcome, gb.SearchConfig(r=4, target=9, algorithm="GRK", b=8))
    for algorithm in ("GS", "DFGS", "BDGS"):
        config = gb.SearchConfig(r=6, target=45, algorithm=algorithm, shots=64, seed=3)
        outcome = gb.run_search(config)
        assert outcome.measured_index == 45 and gb.verify_outcome(outcome, config)
        other = gb.SearchConfig(r=6, target=44, algorithm=algorithm, shots=64, seed=3)
        assert not gb.verify_outcome(outcome, other)


@pytest.mark.parametrize("shots", [MAX_SHOTS + 1, 2**70])
@pytest.mark.parametrize("algorithm", ["GS", "GRK", "DFGS", "BDGS"])
def test_search_config_rejects_shots_above_the_cap(algorithm, shots):
    # Rejected at construction, before a binomial draw that an int64 count
    # cannot hold, or an open vote's arrays of that many shots.
    with pytest.raises(ValueError, match=rf"^shots must be in \[1, 16777216\], got {shots}$"):
        gb.SearchConfig(r=12, target=5, algorithm=algorithm, shots=shots)


def test_a_settled_gs_run_draws_the_capped_shot_count():
    # GS at r = 10 puts 0.9995 of its mass on the target, so its 2**24
    # shots settle the vote in one binomial draw.
    assert MAX_SHOTS == 1 << 24
    config = gb.SearchConfig(r=10, target=613, shots=MAX_SHOTS, seed=4)
    outcome = gb.run_standard_grover(config)
    assert outcome.measured_index == 613 and outcome.resolved_block is None
    assert outcome.success_fraction == pytest.approx(outcome.certainty, abs=1e-3)


@pytest.mark.parametrize(
    "field, value",
    [("r", 4.0), ("target", 3.0), ("b", 4.0), ("shots", 2.5), ("shots", True), ("seed", 1.5),
     ("seed", False), ("r", "4")],
)
def test_search_config_rejects_a_field_that_is_not_an_integer(field, value):
    # Rejected at construction in one line, before a float ends in a
    # TypeError from << or &, a fractional shot count in a share of 2/2.5,
    # or a bool runs as one shot.
    fields = {"r": 4, "target": 3, "b": 4, "shots": 2, "seed": 0, field: value}
    with pytest.raises(ValueError, match=rf"^{field} must be an integer, got {value!r}$"):
        gb.SearchConfig(**fields)


def test_search_config_takes_numpy_integers():
    config = gb.SearchConfig(np.int64(4), np.uint8(3), "GRK", np.int32(4), np.int64(8), np.uint64(7))
    assert gb.verify_outcome(gb.run_search(config), config)


def test_search_config_validation():
    with pytest.raises(ValueError):
        gb.SearchConfig(r=4, target=16)
    with pytest.raises(ValueError):
        gb.SearchConfig(r=4, target=-1)
    with pytest.raises(ValueError):
        gb.SearchConfig(r=4, target=3, b=3)
    with pytest.raises(ValueError):
        gb.SearchConfig(r=4, target=3, b=1)
    with pytest.raises(ValueError):
        gb.SearchConfig(r=4, target=3, shots=0)
    # A negative seed fails here, not later inside np.random.default_rng.
    with pytest.raises(ValueError, match="seed"):
        gb.SearchConfig(4, 3, seed=-1)
    with pytest.raises(ValueError):
        gb.SearchConfig(r=30, target=3)
    with pytest.raises(ValueError, match="index space"):
        gb.SearchConfig(r=4, target=3, algorithm="DFGS", b=32)
    # GS never reads b, so the default b = 4 does not reject a 2-state register.
    assert gb.SearchConfig(r=1, target=0).b == 4
    with pytest.raises(ValueError, match="two items per block"):
        gb.SearchConfig(r=3, target=3, algorithm="GRK", b=8)
    assert gb.SearchConfig(r=4, target=3, algorithm="GRK", b=8).k == 3
    assert gb.SearchConfig(r=4, target=3, b=8).k == 3


@pytest.mark.parametrize(
    "algorithm, register",
    [
        ("GS", None),
        ("GRK", None),
        ("DFGS", "full"),
        ("BDGS", "full"),
    ],
)
def test_norm_drift_is_rejected_at_readout(monkeypatch, algorithm, register):
    """A kernel that loses the norm is caught by the readout, with or without -O.

    GS and GRK run no kernel: the drift goes into their class run.  A
    compact layered run has no readout to check: its outcome is certain, so
    the layered ids drift the full register of the dense reference.
    """
    import groverbench.ops as ops
    import groverbench.search as search

    if register is None:
        _group_readout.cache_clear()  # so the run's group runs its classes again
        real_class_run = search._class_run

        def drifting_class_run(classes, iterations, blocks):
            real_class_run(classes, iterations, blocks)
            classes.a *= 1.001
            classes.m *= 1.001
            classes.m_other *= 1.001

        monkeypatch.setattr(search, "_class_run", drifting_class_run)
    else:
        real = ops.phase_flip

        def drifting(state, pred, *args):
            flipped = real(state, pred, *args)
            return gb.StateVector(flipped.num_qubits, flipped.amplitudes * 1.001)

        monkeypatch.setattr(ops, "phase_flip", drifting)
    config = gb.SearchConfig(r=6, target=37, algorithm=algorithm, shots=16)
    with pytest.raises(ValueError, match="norm"):
        if register is None:
            gb.run_search(config)
        else:
            gb.layered_reference(config)
