"""A GS/GRK schedule run two ways: on the amplitude classes the drivers
hold, and on a dense register through the kernels.

A schedule here is a list of ``(iterations, diffusion_mask)`` steps with
one single-target oracle, the form the dense kernels take; the drivers
take each step's mask as its count of top-bit blocks (:func:`in_blocks`).
"""

import numpy as np

import groverbench as gb
from groverbench.search import _Classes, _class_run, _draw_cells, _draw_votes


def grk_steps(r: int, b: int, t_global: int, t_local: int) -> tuple[tuple[int, int], ...]:
    """GRK's schedule: a burn-in, block-local steps, one global cleanup."""
    return ((t_global, 0), (t_local, gb.segment_mask(r, 0, b.bit_length() - 2)), (1, 0))


# Class runs whose mass is spread over many indices: GS short of its
# optimum, GRK mid-schedule, GRK with no local step, and blocks of two at
# r = 12.
SPREAD_RUNS = [
    (6, 45, ((2, 0),)),
    (5, 11, grk_steps(5, 4, 1, 2)),
    (3, 4, grk_steps(3, 2, 1, 0)),
    (12, 3001, grk_steps(12, 2048, 3, 1)),
]


def in_blocks(steps) -> tuple[tuple[int, int], ...]:
    """``steps`` as the drivers take them: each mask of top bits as its block count."""
    return tuple((iterations, 1 << mask.bit_count()) for iterations, mask in steps)


def run_classes(r: int, steps) -> _Classes:
    classes = _Classes(1 << r)
    for iterations, blocks in in_blocks(steps):
        _class_run(classes, iterations, blocks)
    return classes


def sample_cells(
    classes: _Classes, target: int, resolved: int, shots: int, seed: int
) -> dict[int, int]:
    """How many shots land in each of ``resolved`` cells, deterministic for
    ``seed``: the driver's vote for the target's cell, then every other
    shot's cell, drawn as an open vote draws them, on one generator built
    from ``seed``.  A cell no shot lands in is left out."""
    rng = np.random.default_rng(seed)
    votes = _draw_votes(classes, shots, resolved, rng)
    cell = target // (classes.n // resolved)
    counts = shot_counts(_draw_cells(rng, shots - votes, cell, resolved))
    if votes:
        counts[cell] = votes
    return counts


def cells_of(r: int, steps) -> int:
    """The cells a schedule resolves: the blocks of its block-local steps, or
    every index when it has none."""
    masks = [mask for _, mask in steps if mask]
    return 1 << (masks[0].bit_count() if masks else r)


def run_dense(r: int, target: int, steps) -> gb.StateVector:
    oracle = gb.OracleSpec(r, target)
    state = gb.uniform_state(r)
    for iterations, mask in steps:
        for _ in range(iterations):
            state = gb.grover_iteration(state, oracle, mask)
    return state


def write_out(classes: _Classes, target: int) -> gb.StateVector:
    """Every amplitude the classes of a run for ``target`` stand for, as a dense register."""
    size = classes.n // classes.blocks
    start = target - target % size
    amplitudes = np.full(classes.n, classes.m_other)
    amplitudes[start : start + size] = classes.m
    amplitudes[target] = classes.a
    return gb.StateVector(classes.n.bit_length() - 1, amplitudes)


def shot_counts(draws: np.ndarray) -> dict[int, int]:
    """How often each index occurs among ``draws``."""
    values, counts = np.unique(draws, return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))
