"""Oracles with query accounting, the composed search iteration, the one
segment planner of the layered searches, and closed-form iteration/query
predictors, which read the same plans.

A DFGS or BDGS run is a function of its plan: :func:`layered_plan` gives
its rounds, one per layer.  :func:`_plan_counts` caches what every run of
the plan reports: its number of rounds and the sum of its segment rows'
``reps``, the oracle queries it makes.  The layered drivers read both
counts, and :func:`predict_cost` reads the queries.

One search iteration is: flip the sign of the amplitudes the oracle
marks (one query), then invert every amplitude about its block mean.
With an empty block mask the second step is the global diffuser and the
pair rotates the state toward the target by twice the base angle
``arcsin(1/sqrt(M))`` per application, which is what all the predictors
below count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import zip_longest

from .statevector import (
    BasisPredicate,
    StateVector,
    _check_qubits,
    invert_about_mean,
    phase_flip,
    segment_mask,
)


class Algorithm(str, Enum):
    """Search variants covered by the drivers and predictors."""

    GS = "GS"
    GRK = "GRK"
    DFGS = "DFGS"
    BDGS = "BDGS"


@dataclass
class OracleSpec:
    """Phase oracle for a single marked index, restricted to a bit segment.

    The flip condition is: the basis state agrees with ``target`` on the
    active segment AND matches every already-determined bit.  With the
    full-range segment and no determined bits this is the textbook
    single-target oracle.  ``query_count`` increments by exactly one per
    application, whether the oracle acts on the full register or as a
    classical index probe.  The dense layered reference
    (``search.layered_reference``) applies it on ``r + 1`` qubits, the
    segment search's ancilla last, so it marks ``target << 1 | 1`` with the
    ancilla bit among the determined ones.  A compact layered run never
    builds one: its outcome is certain, and it reads its queries from the
    plan.
    """

    r: int
    target: int
    active_segment: tuple[int, int] | None = None
    determined_mask: int = 0
    determined_value: int = 0
    query_count: int = field(default=0, init=False, compare=False)

    def __post_init__(self) -> None:
        if not 0 <= self.target < (1 << self.r):
            raise ValueError(f"target {self.target} out of range for {self.r} qubits")
        if self.active_segment is None:
            self.active_segment = (0, self.r - 1)
        lo, hi = self.active_segment
        seg = segment_mask(self.r, lo, hi)
        if seg & self.determined_mask:
            raise ValueError("active segment overlaps determined bits")
        if self.determined_value & ~self.determined_mask:
            raise ValueError("determined value has bits outside its mask")
        # The flip condition, which a classical probe tests without building
        # the predicate.
        self._flip_mask = seg | self.determined_mask
        self._flip_value = (self.target & seg) | self.determined_value

    def flip_predicate(self) -> BasisPredicate:
        """Full-register predicate for the states that get their sign flipped."""
        return BasisPredicate(self._flip_mask, self._flip_value)

    def apply(self, state: StateVector) -> StateVector:
        """One oracle query: sign-flip the marked amplitudes of the full
        ``r``-qubit register ``state``."""
        if state.num_qubits != self.r:
            raise ValueError(f"state on {state.num_qubits} qubits, oracle on {self.r}")
        self.query_count += 1
        return phase_flip(state, self.flip_predicate())

    def query_index(self, index: int) -> bool:
        """Classical probe: does ``index`` satisfy the flip condition?

        Costs one query, like any other oracle use.  No driver probes: every
        segment search is exact.
        """
        self.query_count += 1
        return index & self._flip_mask == self._flip_value


def _check_block_size(r: int, b: int, algorithm: Algorithm) -> None:
    """Reject a branching factor ``b`` that ``algorithm`` cannot use on ``r`` qubits.

    ``b`` must be a power of two >= 2.  GS never reads it; every other
    algorithm needs it to fit the index space, and the block-partial
    search needs at least two items per block, so ``b <= 2**(r-1)``.
    """
    if b < 2 or b & (b - 1):
        raise ValueError(f"branching factor must be a power of two >= 2, got {b}")
    if algorithm is Algorithm.GS:
        return
    if b > (1 << r):
        raise ValueError(f"branching factor {b} exceeds the index space of {r} qubits")
    if algorithm is Algorithm.GRK and b > (1 << (r - 1)):
        raise ValueError(
            f"block-partial search needs at least two items per block: "
            f"b = {b} exceeds 2**{r - 1} at r = {r}"
        )


@dataclass(frozen=True)
class PredictedCost:
    """Closed-form cost prediction for one algorithm at one size.

    ``oracle_model`` names the oracle ``oracle_calls`` counts queries of:
    ``"segment"`` for DFGS, whose oracle marks every index that matches
    the target on one segment and the bits already found, so one search
    resolves a whole segment; ``"single-target"`` for GS, GRK and BDGS,
    whose bounds assume the oracle that marks the target alone.
    """

    algorithm: Algorithm
    iterations: float
    oracle_calls: float
    layers: int | None
    oracle_model: str


# ---------------------------------------------------------------------------
# Angles and iteration counts


def grover_angle(search_dim: int) -> float:
    """Base rotation angle ``arcsin(1/sqrt(M))`` of one iteration over M states."""
    if search_dim < 2:
        raise ValueError(f"search dimension must be >= 2, got {search_dim}")
    return math.asin(1.0 / math.sqrt(search_dim))


def _rotate(a: float, rest: float, size: int, t: int) -> tuple[float, float]:
    """``t`` iterations over ``size`` states, the target's ``a`` and the others' ``rest``:
    one turn of their plane by ``2*t*grover_angle(size)``."""
    root = math.sqrt(size - 1)
    angle = math.atan2(a, root * rest) + 2 * t * grover_angle(size)
    radius = math.hypot(a, root * rest)
    return radius * math.sin(angle), radius * math.cos(angle) / root


def optimal_iterations(search_dim: int) -> int:
    """Iteration count maximizing the target amplitude over M states.

    Rounds ``pi/(4*arcsin(1/sqrt(M))) - 1/2`` half-up, never below 1.
    Equals 1 at M = 4 (exact success) and 804 at M = 2**20.
    """
    return max(1, math.floor(math.pi / (4.0 * grover_angle(search_dim))))


def grover_iteration(
    state: StateVector, oracle: OracleSpec, diffusion_mask: int = 0
) -> StateVector:
    """One amplification step: oracle sign flip, then blockwise inversion
    about the mean restricted by ``diffusion_mask``.

    The composed map equals the product of the two textbook reflections
    (including the conventional overall sign), so repeated application
    drives the state onto the marked index.  Increments the oracle's
    query counter by one.  Works in place on the dense register.  GS and
    GRK rotate their three amplitude classes through a whole step of it at
    once (``search._class_run``), and the tests check the two against each
    other.
    """
    flipped = oracle.apply(state)
    return invert_about_mean(flipped, diffusion_mask)


# ---------------------------------------------------------------------------
# Segment plans


@dataclass(frozen=True, slots=True)
class SegmentRow:
    """What a segment search over positions ``lo..hi`` of ``r`` needs.

    ``mask`` covers the segment's bits and ``shift`` right-aligns them.
    The search is exact amplitude amplification (Brassard, Høyer, Mosca &
    Tapp, quant-ph/0005055): ``reps`` is the least J with
    ``(2J+1)·grover_angle(2**width) >= pi/2``, and ``ancilla`` the amplitude
    on 1 of one ancilla qubit that joins the oracle's condition.  It slows
    each round to exactly ``pi/(4J+2)``, so after ``reps`` rounds the
    marked value holds all the mass.  ``reps`` is
    ``optimal_iterations(2**width)``, or one more where that count stops
    short of pi/2 (widths 7, 8, 9, 11, 14, 19, 23 and 24).
    """

    width: int
    mask: int
    shift: int
    reps: int
    ancilla: float


def segment_row(r: int, lo: int, hi: int) -> SegmentRow:
    """The :class:`SegmentRow` of one segment, built afresh on each call."""
    width = hi - lo + 1
    mask = segment_mask(r, lo, hi)
    theta = grover_angle(1 << width)
    reps = math.ceil(math.pi / (4.0 * theta) - 0.5)
    ancilla = min(1.0, math.sin(math.pi / (4 * reps + 2)) / math.sin(theta))
    return SegmentRow(width, mask, r - 1 - hi, reps, ancilla)


def layered_plan(
    algorithm: Algorithm | str, r: int, k: int
) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Rounds of segment searches of a DFGS or BDGS run; each round is one layer.

    A DFGS round is one segment, cut ``k`` positions at a time from the MSB.
    A BDGS round pairs a segment of each pass: the forward pass cuts the top
    ``r // 2`` positions the same way, the backward pass the others from the
    LSB up, and the longer pass runs on alone.  Built afresh on each call,
    for any ``r, k >= 1``; the tier-1 tests check over a grid of ``(r, k)``
    that each segment is at most ``k`` wide, no two overlap, and together
    they cover all ``r`` bits.
    """
    algorithm = Algorithm(algorithm)
    if min(r, k) < 1:
        raise ValueError(f"a layered plan needs r >= 1 and k >= 1, got r = {r}, k = {k}")
    if algorithm is Algorithm.DFGS:
        return tuple(((lo, min(lo + k, r) - 1),) for lo in range(0, r, k))
    if algorithm is not Algorithm.BDGS:
        raise ValueError(f"{algorithm.value} has no segment plan")
    top = r // 2
    forward = [(lo, min(lo + k, top) - 1) for lo in range(0, top, k)]
    backward = [(max(hi - k + 1, top), hi) for hi in range(r - 1, top - 1, -k)]
    pairs = zip_longest(forward, backward)
    return tuple(tuple(segment for segment in pair if segment is not None) for pair in pairs)


# Cached: every DFGS/BDGS run reads it, and it walks a row per segment.
@lru_cache(maxsize=None)
def _plan_counts(algorithm: Algorithm, r: int, k: int) -> tuple[int, int]:
    """The layers and the oracle queries of every run of a layered plan: its
    number of rounds and the sum of its segment rows' ``reps``."""
    rounds = layered_plan(algorithm, r, k)
    return len(rounds), sum(
        segment_row(r, lo, hi).reps for segments in rounds for lo, hi in segments
    )


# ---------------------------------------------------------------------------
# Closed-form query counts


def grk_query_count(n_states: int, b: int) -> float:
    """Query bound for block-partial search: ``pi/4 * sqrt(N) * sqrt((b-1)/b)``."""
    if b < 2:
        raise ValueError(f"branching factor must be >= 2, got {b}")
    if n_states % b:
        raise ValueError(f"branching factor {b} does not divide {n_states}")
    return math.pi / 4.0 * math.sqrt(n_states) * math.sqrt((b - 1) / b)


def _bdgs_depth(r: int, k: int) -> float:
    """Depth ``r/(2k)`` one BDGS pass reaches, where ``b**depth = 2**(r/2)``."""
    if min(r, k) < 1:
        raise ValueError(f"the BDGS count needs r >= 1 and k >= 1, got r = {r}, k = {k}")
    return r / (2.0 * k)


def bdgs_level_iterations(r: int, k: int, level: int) -> float:
    """Iteration budget of one bi-directional layer at depth ``level``.

    With N = 2**r and b = 2**k, each pass searches half the index space, so
    the budget at depth ``level`` is
    ``pi/4 * (sqrt((N/2)/b^level) - sqrt((N/2)/b^(level+1)))``.  A pass has
    ``ceil(r/(2k))`` levels, one per layer of :func:`predicted_layers`; when
    2k does not divide r, the last one stops at depth ``r/(2k)``, so the
    levels add up to :func:`bdgs_total_queries`.
    """
    depth = _bdgs_depth(r, k)
    levels = math.ceil(depth)
    if not 0 <= level < levels:
        raise ValueError(f"level {level} outside the {levels} levels of a pass")
    b = 1 << k
    half = (1 << r) / 2.0
    end = min(level + 1, depth)
    return math.pi / 4.0 * (math.sqrt(half / b**level) - math.sqrt(half / b**end))


def bdgs_total_queries(r: int, k: int) -> float:
    """Total oracle-call bound for bi-directional layered search.

    ``pi/(4*sqrt(2)) * sqrt(N) * (1 - sqrt(1/b^(r/2k)))`` with N = 2**r
    and b = 2**k.  This bounds total oracle work; it is not the
    wall-clock layer count, which is :func:`predicted_layers`.
    """
    depth = _bdgs_depth(r, k)
    return (
        math.pi
        / (4.0 * math.sqrt(2.0))
        * math.sqrt(1 << r)
        * (1.0 - math.sqrt(1.0 / (1 << k) ** depth))
    )


def predicted_layers(algorithm: Algorithm | str, r: int, k: int) -> int:
    """Wall-clock layer prediction per algorithm.

    GS runs ``optimal_iterations(2**r)`` sequential iterations.  DFGS and
    BDGS run the rounds of their :func:`layered_plan` one after another,
    BDGS's forward and backward segments of one round in parallel.  GRK has
    no closed-form layer count here (its schedule is size-dependent), so it
    is rejected.
    """
    algorithm = Algorithm(algorithm)
    if algorithm is Algorithm.GS:
        return optimal_iterations(1 << r)
    if algorithm is Algorithm.GRK:
        raise ValueError("no closed-form layer count for GRK; use predict_cost")
    return len(layered_plan(algorithm, r, k))


def predict_cost(algorithm: Algorithm | str, r: int, b: int) -> PredictedCost:
    """Bundle the closed-form predictions for one (algorithm, size) cell.

    The DFGS count is what every run makes, the query count the driver
    reads too: the sum of the ``reps`` of the :func:`segment_row` of every
    segment, since every segment search is exact.  Rejects the same
    ``(r, b)`` the drivers reject.
    """
    _check_qubits(r)
    algorithm = Algorithm(algorithm)
    _check_block_size(r, b, algorithm)
    n = 1 << r
    k = b.bit_length() - 1
    if algorithm is Algorithm.GRK:
        bound = grk_query_count(n, b)
        return PredictedCost(algorithm, bound, bound + 1.0, None, "single-target")
    layers = predicted_layers(algorithm, r, k)
    if algorithm is Algorithm.GS:
        exact = math.pi / (4.0 * grover_angle(n)) - 0.5
        return PredictedCost(algorithm, exact, float(layers), layers, "single-target")
    if algorithm is Algorithm.DFGS:
        queries = float(_plan_counts(algorithm, r, k)[1])
        return PredictedCost(algorithm, queries, queries, layers, "segment")
    bound = bdgs_total_queries(r, k)
    return PredictedCost(algorithm, bound, bound, layers, "single-target")
