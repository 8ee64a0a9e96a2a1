"""A GS/GRK schedule run two ways: on the amplitude classes the drivers
hold, and on a dense register through the kernels.

A schedule here is a list of ``(iterations, diffusion_mask)`` steps with
one single-target oracle, the form the dense kernels take; the drivers
take each step's mask as its count of top-bit blocks (:func:`in_blocks`).
"""

import numpy as np

import groverbench as gb
from groverbench.search import _Classes, _class_run, _draw_counts, _draw_members


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


def run_classes(r: int, target: int, steps) -> _Classes:
    classes = _Classes(1 << r, target)
    for iterations, blocks in in_blocks(steps):
        _class_run(classes, iterations, blocks)
    return classes


def sample_classes(classes: _Classes, shots: int, seed: int) -> np.ndarray:
    """Every shot's index, deterministic for ``seed``: the target's shots,
    then the others in class order.  The drivers' two draws, the class
    counts and then every member, on one generator built from ``seed``."""
    rng = np.random.default_rng(seed)
    n_target, n_in, n_out = _draw_counts(classes, shots, rng)
    on_target = np.full(n_target, classes.target, dtype=np.int64)
    if n_in + n_out == 0:
        return on_target
    return np.concatenate([on_target, _draw_members(classes, rng, n_in, n_out)])


def run_dense(r: int, target: int, steps) -> gb.StateVector:
    oracle = gb.OracleSpec(r, target)
    state = gb.uniform_state(r)
    for iterations, mask in steps:
        for _ in range(iterations):
            state = gb.grover_iteration(state, oracle, mask)
    return state


def write_out(classes: _Classes) -> gb.StateVector:
    """Every amplitude the classes stand for, as a dense register."""
    size = classes.n // classes.blocks
    start = classes.target - classes.target % size
    amplitudes = np.full(classes.n, classes.m_other)
    amplitudes[start : start + size] = classes.m
    amplitudes[classes.target] = classes.a
    return gb.StateVector(classes.n.bit_length() - 1, amplitudes)


def shot_counts(draws: np.ndarray) -> dict[int, int]:
    """How often each index occurs among ``draws``."""
    values, counts = np.unique(draws, return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))
