"""End-to-end search drivers with full query accounting.

Four drivers:

* :func:`run_standard_grover` amplifies over the whole register.
* :func:`run_grk_partial` locates the block holding the target: a burn-in
  of global iterations, block-local rotations that freeze every other
  block, and one global cleanup that empties the non-target blocks.
* :func:`run_dfgs` resolves ``k`` index bits at a time from the MSB side,
  one segment search per layer.
* :func:`run_bdgs` resolves segments from both ends of the index at once;
  forward and backward passes touch disjoint bits, so a wall-clock layer
  counts one round of the two concurrent segment searches.

This module builds no schedule: every run's steps come from ``ops._steps``.
GS and GRK run theirs with one single-target oracle, then ``shots`` draws
vote for the cell the run resolves: a single index for GS, one of the
``b`` blocks for GRK, which reports it as ``resolved_block``.  From the
uniform state a single-target run keeps three amplitude classes: the
target, the rest of its block and every other block.  So the run holds
those amplitudes as three floats (:class:`_Classes`), and a whole step,
whatever its iteration count, is one closed-form rotation
(:func:`~groverbench.ops._rotate`, through :func:`_class_run`).  The
classes do not depend on the target, so a run splits in two:

* :func:`_group_readout`, cached, runs the steps of a group, GS at ``r``
  or GRK at ``(r, b)``, and reads off what every run of the group shares
  (:class:`_Readout`): the resolved cells, the queries, the target cell's
  probability and the certainty.  The first run of a group pays for it,
  GRK's schedule scan included.
* :func:`_vote` draws one run's shots: one generator built from the run's
  seed puts the target cell's votes in one binomial draw, and over half
  the shots settle the vote; only an open vote draws the other shots'
  cells (:func:`_draw_cells`) for ``np.unique`` to count.

Neither driver allocates a ``2**r``- or ``b``-sized array.  The dense
kernels are the reference the tests check the class run against.

Both layered drivers resolve the index in rounds of segment searches, each
starting from the uniform superposition over the indices still consistent
with the bits measured so far; a round's steps are its ``ops.layered_plan``
segments, each with its ``ops.segment_row``'s ``reps``.  Every segment
search is exact amplitude amplification (Brassard, Høyer, Mosca & Tapp,
quant-ph/0005055): one ancilla qubit, rotated to the row's ``ancilla``
amplitude and joined to the oracle's condition, slows each round so that
the segment's ``reps`` rounds end on the marked value with certainty.  This
departs from the paper, which runs standard iterations per segment; those
are exact only at width 2.  So a layered run is its plan: it finds the
target with certainty, takes one layer per round and spends the sum of its
steps' iterations.  :func:`run_dfgs` and :func:`run_bdgs` read both counts
from one cached entry (``ops._plan_counts``), with no per-segment work.
:func:`layered_reference` is the dense reference they are checked against:
it walks the same plan through :func:`segment_partial_search`, which runs
one segment search on ``r + 1`` qubits, the ancilla last.  Each starts from
the superposition conditioned on the determined bits and reflects about
that start state within each block of the other bits, so the reference
needs ``r + 1 <= MAX_QUBITS``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .ops import (
    Algorithm,
    OracleSpec,
    SegmentRow,
    _check_block_size,
    _grk_global_step,
    _integer,
    _plan_counts,
    _rotate,
    _steps,
    grover_iteration,  # no driver calls it; kept bound for tracers that wrap it here
    layered_plan,
    segment_row,
)
from .statevector import (
    MAX_QUBITS,
    MAX_SHOTS,
    StateVector,
    _axis_selector,
    _check_norm,
    _check_qubits,
    sample,  # likewise
    uniform_state,  # likewise
)


@dataclass
class SearchConfig:
    """One search instance: register size, target, and run protocol."""

    r: int
    target: int
    algorithm: Algorithm = Algorithm.GS
    b: int = 4
    shots: int = 1024
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("r", "target", "b", "shots", "seed"):
            setattr(self, name, _integer(name, getattr(self, name)))
        _check_qubits(self.r)
        self.algorithm = Algorithm(self.algorithm)
        if not 0 <= self.target < (1 << self.r):
            raise ValueError(f"target {self.target} out of range for {self.r} qubits")
        _check_block_size(self.r, self.b, self.algorithm)
        if not 1 <= self.shots <= MAX_SHOTS:
            raise ValueError(f"shots must be in [1, {MAX_SHOTS}], got {self.shots}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def k(self) -> int:
        """Segment width in bits: log2(b)."""
        return self.b.bit_length() - 1


@dataclass
class SearchOutcome:
    """Result of one driver run.

    ``certainty`` is the probability mass the final pre-measurement state
    puts on the target (for the block-partial driver: on the target's
    block), whatever index or block the shots vote for; a layered run's is
    1, and :func:`layered_reference` multiplies its segments' readout
    probabilities, each 1 within rounding.  ``resolved_block`` is the block
    the block-partial driver resolves and ``None`` for every other driver.
    That driver measures only the top ``log2(b)`` bits, so its
    ``measured_index`` is ``resolved_block << (r - log2(b))``, the
    unmeasured bits 0.  ``wall_time`` covers, for GS and GRK, the lookup of
    the group's class readout and the run's draws, and in the first run of
    a group also the class run; for a layered run only the read of its
    plan's counts.  It is the one field excluded from determinism
    guarantees.
    """

    measured_index: int
    success_fraction: float
    layers: int
    oracle_calls: int
    wall_time: float
    trial_seed: int
    certainty: float
    resolved_block: int | None = None


# ---------------------------------------------------------------------------
# Segment search


def _start_state(r: int, mask: int, value: int, pair: np.ndarray) -> StateVector:
    """A segment search's start on ``r + 1`` qubits: uniform over every index
    that agrees with ``value`` on ``mask``, each with the ancilla ``pair`` last."""
    support = 1 << (r - mask.bit_count())
    amps = np.zeros(2 << r)
    amps.reshape((2,) * (r + 1))[_axis_selector(r, mask, value)] = pair / math.sqrt(support)
    return StateVector(r + 1, amps)


def _reflect_about_start(state: StateVector, row: SegmentRow, pair: np.ndarray) -> None:
    """Reflect ``state``, in place, about its start state within each block.

    A block is one value of every bit but ``row``'s segment and the
    ancilla, which the start state holds at ``pair``.  Each amplitude ``x``
    becomes ``2 * mean * pair - x``, where ``mean`` is its block's mean over
    the segment values of the ancilla pairs projected on ``pair``: the same
    map as turning the ancilla pairs onto 0, inverting that half about its
    block means, negating the other half and turning back.
    """
    # (bits above, segment values, bits below, ancilla)
    view = state.amplitudes.reshape(-1, 1 << row.width, 1 << row.shift, 2)
    mean = (view[..., 0] * pair[0] + view[..., 1] * pair[1]).mean(axis=1, keepdims=True)
    np.subtract(2.0 * mean[..., None] * pair, view, out=view)


def segment_partial_search(
    config: SearchConfig, mask: int, value: int, segment: tuple[int, int]
) -> tuple[int, float, int]:
    """Search one bit segment of ``config.target`` on the dense ``2**(r+1)`` register.

    ``mask`` and ``value`` hold the bits already determined.  Runs the
    segment's exact search (:class:`~groverbench.ops.SegmentRow`), the
    ancilla last: ``reps`` rounds of the segment-restricted oracle,
    conditioned on every determined bit, each followed by the reflection
    about the start state.  Returns the most likely value of the segment's
    marginal, its probability and the queries spent.  Rejects ``r =
    MAX_QUBITS``, a segment wider than ``config.k`` bits and one that
    overlaps ``mask``, before allocating.
    """
    lo, hi = segment
    r = config.r
    if r >= MAX_QUBITS:
        raise ValueError(
            f"the dense reference needs r + 1 = {r + 1} qubits, the register and "
            f"the segment search's ancilla; at most {MAX_QUBITS}"
        )
    row = segment_row(r, lo, hi)
    if 1 << row.width > config.b:  # wider than k = log2(b) bits
        raise ValueError(f"segment [{lo}, {hi}] wider than {config.k} bits")
    if row.mask & mask:
        raise ValueError(
            f"segment [{lo}, {hi}] overlaps determined bits (driver scheduling bug)"
        )
    oracle = OracleSpec(r + 1, config.target << 1 | 1, segment, mask << 1 | 1, value << 1 | 1)
    pair = np.array([math.sqrt(1.0 - row.ancilla * row.ancilla), row.ancilla])
    register = _start_state(r, mask, value, pair)
    for _ in range(row.reps):
        register = oracle.apply(register)
        _reflect_about_start(register, row, pair)
    probs = register.probabilities().reshape(-1, 1 << row.width, 2 << row.shift)
    marginal = probs.sum(axis=(0, 2))
    top = int(np.argmax(marginal))
    return top, float(marginal[top]), oracle.query_count


# ---------------------------------------------------------------------------
# Drivers


@dataclass(slots=True)
class _Classes:
    """The amplitude classes of a single-target run from the uniform state.

    A single-target search keeps three amplitude classes (Boyer, Brassard,
    Hoyer & Tapp, quant-ph/9605034; Korepin & Grover): ``a``, the target's
    amplitude; ``m``, the one the rest of the target's block shares; and
    ``m_other``, the one every member of the other blocks shares.  The
    classes follow ``blocks`` equal blocks of the top index bits: 1 until
    the first block-local step, or the readout, splits them, and ``m_other``
    is read only after that.
    """

    n: int
    a: float = field(init=False)
    m: float = field(init=False)
    m_other: float = field(init=False)
    blocks: int = field(default=1, init=False)

    def __post_init__(self) -> None:
        self.a = self.m = self.m_other = 1.0 / math.sqrt(self.n)


def _class_run(c: _Classes, iterations: int, blocks: int) -> None:
    """``iterations`` iterations on ``c`` in O(1), inverting within ``blocks`` blocks.

    ``blocks`` is 1 for the global diffuser.  A global step on unsplit
    classes, or a block-local one, rotates ``(a, m)`` over the diffused
    block; a local step leaves every other block frozen.  A global step on
    split classes rotates ``a`` with the mean of the other ``n - 1``
    amplitudes, and the iterate is -1 on what is left of ``m`` and
    ``m_other``, which is orthogonal to the target and the uniform state.
    """
    if iterations == 0:
        return
    if c.blocks == 1 < blocks:  # the first block-local step splits the classes
        c.m_other, c.blocks = c.m, blocks
    if blocks == c.blocks:
        c.a, c.m = _rotate(c.a, c.m, c.n // blocks, iterations)
    elif blocks == 1:
        size = c.n // c.blocks
        rest = ((size - 1) * c.m + (c.n - size) * c.m_other) / (c.n - 1)
        c.a, turned = _rotate(c.a, rest, c.n, iterations)
        sign = -1.0 if iterations % 2 else 1.0
        c.m, c.m_other = turned + sign * (c.m - rest), turned + sign * (c.m_other - rest)
    else:
        raise ValueError("the classes follow one block partition at a time")


class _Readout(NamedTuple):
    """What every run of one GS/GRK group reads off its classes: the
    ``resolved`` cells the shots vote among, the oracle ``queries``, the
    probability ``p`` of the target's cell and the ``certainty``."""

    resolved: int
    queries: int
    p: float
    certainty: float


def _read_classes(c: _Classes, resolved: int) -> tuple[float, float]:
    """The target cell's probability and mass in ``c``, read at ``resolved`` cells.

    The cells are ``resolved`` equal blocks of the top index bits.  Classes
    that no block-local step split give every index off the target one
    amplitude, so they read at any cells; split ones only at their blocks.
    Rejects an unnormalized state as :meth:`StateVector.probabilities` does.
    """
    if c.blocks not in (1, resolved):
        raise ValueError("the classes follow one block partition at a time")
    size = c.n // resolved
    m_other = c.m if c.blocks == 1 else c.m_other
    m_mass = c.m * c.m
    cell = c.a * c.a + m_mass * (size - 1)
    total = cell + m_other * m_other * (c.n - size)
    _check_norm(total)
    # The certainty is the mass of the ``size`` members of the target's
    # cell, with the target's own mass swapped in; the pinned outputs hold
    # this order of operations to the last bit.
    return cell / total, m_mass * size + (c.a * c.a - m_mass)


# Cached: a group's classes do not depend on the target, so every run after
# the first of a group reads this entry.  GS's key is ``(r, None)``, so GS
# runs share it whatever their ``b``.  It holds at most 300 entries, the 24
# GS and 276 GRK groups with r <= MAX_QUBITS.
@lru_cache(maxsize=None)
def _group_readout(r: int, b: int | None) -> _Readout:
    """The class readout of GS at ``r`` (``b`` is None) or of GRK at ``(r, b)``.

    Runs the group's ``ops._steps``, each one :func:`_class_run` within the
    ``2**lo`` blocks of the top ``lo`` bits, and reads the cells the run
    resolves: GS's ``n`` indices, GRK's ``b`` blocks.  A class run that
    fails the norm check raises and leaves no entry.
    """
    n = 1 << r
    algorithm, resolved = (Algorithm.GS, n) if b is None else (Algorithm.GRK, b)
    classes, queries = _Classes(n), 0
    for ((iterations, lo, _),) in _steps(algorithm, r, resolved.bit_length() - 1):
        _class_run(classes, iterations, 1 << lo)
        queries += iterations
    return _Readout(resolved, queries, *_read_classes(classes, resolved))


def _draw_cells(rng: np.random.Generator, shots: int, cell: int, resolved: int) -> np.ndarray:
    """The int64 cells of ``shots`` off-target shots: one ``integers`` call of
    ``rng``, uniform over the ``resolved - 1`` cells but ``cell``."""
    cells = rng.integers(0, resolved - 1, shots)
    cells += cells >= cell
    return cells


def _vote(config: SearchConfig, readout: _Readout, start: float) -> SearchOutcome:
    """Draw ``config.shots`` votes on ``readout``'s cells for ``config``'s target.

    The shots vote for a cell, ties going to the smallest.
    ``success_fraction`` is the share of shots in the target's cell,
    ``certainty`` the final state's mass there, and ``layers`` counts
    oracle queries.  ``measured_index`` is the winning cell's first index:
    the index for GS, the measured block bits with the unmeasured low bits
    0 for GRK, which reports the block as ``resolved_block`` (``None`` for
    GS).  One generator, built from ``config.seed``, draws the target
    cell's votes in one binomial draw.  Over half the shots settle the
    vote; only an open vote draws the other shots' cells
    (:func:`_draw_cells`), the generator's last use, and counts every
    shot's cell with ``np.unique``.  ``wall_time`` counts from ``start``.
    """
    resolved, queries, p, certainty = readout
    shots, size = config.shots, (1 << config.r) // resolved
    cell = config.target // size
    rng = np.random.default_rng(config.seed)
    votes = int(rng.binomial(shots, p))
    if 2 * votes <= shots:
        others = _draw_cells(rng, shots - votes, cell, resolved)
        cells, counts = np.unique(np.append(np.full(votes, cell), others), return_counts=True)
        cell = int(cells[counts.argmax()])
    wall = time.perf_counter() - start
    return SearchOutcome(
        measured_index=cell * size,
        success_fraction=votes / shots,
        layers=queries,
        oracle_calls=queries,
        wall_time=wall,
        trial_seed=config.seed,
        certainty=certainty,
        resolved_block=None if size == 1 else cell,
    )


def run_standard_grover(config: SearchConfig) -> SearchOutcome:
    """Full-register search: optimal iteration count, then ``shots`` draws."""
    if config.algorithm is not Algorithm.GS:
        raise ValueError(f"config requests {config.algorithm}, not GS")
    start = time.perf_counter()
    return _vote(config, _group_readout(config.r, None), start)


def grk_reference_amplitudes(
    n_states: int, b: int, t_global: int, t_local: int
) -> tuple[float, float, float]:
    """Exact amplitudes after ``t_global`` global iterations, ``t_local``
    block-local ones and one global cleanup, tracked as scalars.

    By symmetry the state has only three amplitude classes: the target,
    the other items of the target block, and the items of every other
    block.  This recurrence, run one iteration at a time, is the
    independent reference the class run (:func:`_class_run`) and
    ``ops._grk_schedule`` are checked against.
    """
    block = n_states // b
    a = b_amp = g = 1.0 / math.sqrt(n_states)
    for _ in range(t_global):
        a, b_amp, g = _grk_global_step(a, b_amp, g, n_states, block)
    for _ in range(t_local):  # a global step on the target's block alone
        a, b_amp = _grk_global_step(a, b_amp, g, block, block)[:2]
    a, b_amp, g = _grk_global_step(a, b_amp, g, n_states, block)
    return a, b_amp, g


def run_grk_partial(config: SearchConfig) -> tuple[int, SearchOutcome]:
    """Block-partial search: returns the resolved block id and the outcome.

    The schedule is ``t_global`` global iterations, ``t_local`` block-local
    ones and one global cleanup.  ``resolved_block`` is the block most shots
    landed in, and ``success_fraction`` counts shots that landed anywhere
    in the target block (the block is what this search resolves);
    ``certainty`` is the block's total probability in the final state.
    Oracle calls stay within ``ceil(grk_query_count(N, b)) + 1``.  The block
    is returned beside the outcome as well, for callers that unpack it.
    """
    if config.algorithm is not Algorithm.GRK:
        raise ValueError(f"config requests {config.algorithm}, not GRK")
    start = time.perf_counter()
    outcome = _vote(config, _group_readout(config.r, config.b), start)
    return outcome.resolved_block, outcome


def _run_layered(config: SearchConfig) -> SearchOutcome:
    """Read ``config``'s run from its plan's cached counts: the target, found
    with certainty, one layer per round and the plan's cost in queries."""
    start = time.perf_counter()
    layers, queries = _plan_counts(config.algorithm, config.r, config.k)
    wall = time.perf_counter() - start
    return SearchOutcome(config.target, 1.0, layers, queries, wall, config.seed, certainty=1.0)


def run_dfgs(config: SearchConfig) -> SearchOutcome:
    """Depth-first layered search: resolve every segment MSB to LSB."""
    if config.algorithm is not Algorithm.DFGS:
        raise ValueError(f"config requests {config.algorithm}, not DFGS")
    return _run_layered(config)


def run_bdgs(config: SearchConfig) -> SearchOutcome:
    """Bi-directional layered search: forward and backward passes meet in
    the middle.

    The passes touch disjoint bit ranges, so each round pairs a segment
    search of each pass, and ``layers`` counts the rounds (the longer of
    the two passes) under that parallel accounting.  The run is read from
    the plan; :func:`layered_reference` searches a round's segments one
    after the other.
    """
    if config.algorithm is not Algorithm.BDGS:
        raise ValueError(f"config requests {config.algorithm}, not BDGS")
    return _run_layered(config)


def layered_reference(config: SearchConfig) -> SearchOutcome:
    """The dense reference of ``config``'s DFGS or BDGS run.

    Walks the rounds of the run's plan in order, each segment through
    :func:`segment_partial_search` on the ``2**(r+1)`` register, and
    reports what it measured: the index built from the segment values, the
    queries the searches spent, one layer per round, and the product of the
    readout probabilities as ``certainty``.  A correct run matches
    :func:`run_dfgs` or :func:`run_bdgs` in every field but ``certainty``,
    which is 1 within rounding, and ``wall_time``.  Needs
    ``r + 1 <= MAX_QUBITS``.
    """
    rounds = layered_plan(config.algorithm, config.r, config.k)
    start = time.perf_counter()
    mask = value = queries = 0
    certainty = 1.0
    for segments in rounds:
        for segment in segments:
            found, prob, spent = segment_partial_search(config, mask, value, segment)
            row = segment_row(config.r, *segment)
            mask |= row.mask
            value |= found << row.shift
            queries += spent
            certainty *= min(prob, 1.0)
    wall = time.perf_counter() - start
    return SearchOutcome(
        measured_index=value,
        success_fraction=1.0 if value == config.target else 0.0,
        layers=len(rounds),
        oracle_calls=queries,
        wall_time=wall,
        trial_seed=config.seed,
        certainty=certainty,
    )


def run_search(config: SearchConfig) -> SearchOutcome:
    """Dispatch to the driver selected by ``config.algorithm``."""
    if config.algorithm is Algorithm.GS:
        return run_standard_grover(config)
    if config.algorithm is Algorithm.GRK:
        return run_grk_partial(config)[1]
    if config.algorithm is Algorithm.DFGS:
        return run_dfgs(config)
    return run_bdgs(config)


def verify_outcome(outcome: SearchOutcome, config: SearchConfig) -> bool:
    """True iff the run recovered what it resolves of the configured target.

    GRK resolves the target's block, the top ``k`` bits of its index; every
    other driver resolves the index itself.
    """
    if config.algorithm is Algorithm.GRK:
        return outcome.resolved_block == config.target >> (config.r - config.k)
    return outcome.measured_index == config.target
