"""Dense statevector kernels for amplitude amplification.

A register of ``r`` qubits is a vector of ``2**r`` amplitudes indexed by
the computational-basis integer ``y``.  Qubit positions are counted from
the most significant bit of ``y``: position 0 is the MSB, position
``r - 1`` the LSB.  "Forward" bit groups therefore sit at the top of the
index and "backward" groups at the bottom.  Predicates and block masks
are plain integer bit masks over ``y``; :func:`segment_mask` converts an
inclusive position range into such a mask.

Registers are real float64: the +-1 phase oracle and the inversion about
the mean never create an imaginary part.  A complex input is rejected,
never cast, so no imaginary part is dropped silently.

Kernels update the register in place and return the state they were
given, so a search iteration allocates no second register.  Callers
still write ``state = kernel(state, ...)``, which also carries the one
exception, a :class:`DeferredState` under a flip of several amplitudes
(below); use ``state.copy()`` first to keep an input.

A run of single-target iterations need not store the register at all.
It has few amplitude classes (Boyer, Brassard, Hoyer & Tapp,
quant-ph/9605034): each amplitude the oracle has flipped, and the
untouched members of each block, which share one amplitude.
:class:`DeferredState` holds exactly those classes: ``member``, the
amplitude of the untouched members of each block, 1-D in block order
(the order of :func:`block_sums` flattened); ``written``, a dict from
each flipped index to its amplitude; and the amplitude sum of every
block beside them, in the same order.  The keepdims view of a block
array against the ``(2,)*r`` view is built only where a kernel
broadcasts over the register.  A flip of one amplitude negates one
class and updates one block sum.  An inversion maps each amplitude ``a`` to
``2*mean - a``: it maps ``member`` and every written amplitude from the
sums, and it leaves the sum of each of its blocks unchanged
(``sum(2*mean - a) == sum(a)``).  The classes and sums are held for the
finest block mask used so far.  An inversion about a coarser mask adds
up the sums held, and maps each held sum ``S`` of ``n`` amplitudes to
``2*mean*n - S``; a finer mask splits the classes and computes its sums
from them.  :func:`probability` and :func:`sample` read the classes in
O(classes) and O(shots + classes) work, so a single-target search runs
and reads out without any ``2**r`` array.  A flip of more than one
amplitude returns a new dense register, written out from the classes,
and the caller goes on with that.  :func:`phase_flip`,
:func:`invert_about_mean`, :func:`block_sums`, :func:`probability` and
:func:`sample` dispatch on the register type, so a driver calls the same
kernels on either form.  :meth:`DeferredState.write_out` builds the
dense :class:`StateVector` and leaves the classes as they are.

Kernels never renormalize a state and never re-check its norm: the
reflections implemented here preserve it by construction.  The norm
check is in :meth:`StateVector.probabilities`, the readout of every
dense register (sampling, certainties, block and segment marginals),
and in the class readouts of a :class:`DeferredState`.  It rejects a
state whose norm has drifted, so a normalization failure always points
at a bug in the caller instead of being silently masked, and it raises
the same way under ``python -O``.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

MAX_QUBITS = 24

# L2-norm drift beyond this is a corrupted state, not floating-point noise.
NORM_TOL = 1e-8


def _check_qubits(r: int) -> None:
    if not 1 <= r <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {r}")


def _check_norm(mass: float) -> None:
    """Reject a total probability ``mass`` whose norm is off 1 beyond ``NORM_TOL``, or NaN."""
    norm = math.sqrt(mass)
    if not abs(norm - 1.0) <= NORM_TOL:  # also rejects a NaN norm
        raise ValueError(
            f"state norm {norm:.12f} deviates from 1 beyond {NORM_TOL}; "
            "refusing to read out an unnormalized state"
        )


@dataclass
class StateVector:
    """Amplitudes of an ``r``-qubit register over the computational basis.

    A contiguous float64 array is stored as given, not copied, so the
    in-place kernels also write through to it.  Complex amplitudes are
    rejected, even with a zero imaginary part.
    """

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        _check_qubits(self.num_qubits)
        if np.iscomplexobj(self.amplitudes):
            raise ValueError("amplitudes must be real; registers are float64")
        self.amplitudes = np.ascontiguousarray(self.amplitudes, dtype=np.float64)
        expected = 1 << self.num_qubits
        if self.amplitudes.shape != (expected,):
            raise ValueError(
                f"expected {expected} amplitudes for {self.num_qubits} qubits, "
                f"got shape {self.amplitudes.shape}"
            )

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        """Measurement probabilities ``a**2`` of every basis state.

        Raises ``ValueError`` when the L2 norm deviates from 1 by more
        than ``NORM_TOL``, or is NaN: by the no-renormalize policy that
        signals an upstream kernel bug.
        """
        probs = np.square(self.amplitudes)
        _check_norm(float(probs.sum()))
        return probs

    def copy(self) -> StateVector:
        return StateVector(self.num_qubits, self.amplitudes.copy())


class DeferredState:
    """An ``r``-qubit register kept as its amplitude classes (see the module notes).

    :meth:`uniform` is the one constructor.  ``member`` holds the
    amplitude shared by the untouched members of each block of ``mask``,
    the finest block mask an inversion has used; ``written`` maps each
    index the oracle has flipped to its amplitude; ``sums`` holds the
    amplitude sum of each block of ``mask``.  ``member`` and ``sums`` are
    1-D float64 arrays in block order: block ``_compress(index, mask)``
    holds ``index``.
    """

    @classmethod
    def uniform(cls, r: int) -> DeferredState:
        """Equal superposition over all ``2**r`` basis states."""
        _check_qubits(r)
        register = cls.__new__(cls)
        register.num_qubits = r
        register.mask = 0
        register.member = np.full(1, 1.0 / math.sqrt(1 << r))
        register.written = {}
        register.sums = register.member * (1 << r)
        return register

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits

    @property
    def amplitudes(self) -> np.ndarray:
        """A read-only stand-in with the register's shape, dtype and ``nbytes``.

        The amplitudes are stored only by :meth:`write_out`, so every
        entry is NaN: code that sizes a register works on either form,
        and code that reads values here instead gets NaN, which the
        readout's norm check rejects.
        """
        return np.broadcast_to(np.array(np.nan), (self.dim,))

    def write_out(self) -> StateVector:
        """A new dense :class:`StateVector` of every amplitude; the classes stay as they are."""
        amplitudes = np.empty(self.dim)
        r = self.num_qubits
        amplitudes.reshape((2,) * r)[...] = self.member.reshape(_block_shape(r, self.mask))
        for index, value in self.written.items():
            amplitudes[index] = value
        return StateVector(self.num_qubits, amplitudes)

    def copy(self) -> DeferredState:
        clone = copy.copy(self)
        clone.member = self.member.copy()
        clone.written = dict(self.written)
        clone.sums = self.sums.copy()
        return clone

    def _block_sums(self, block_mask: int) -> np.ndarray:
        """True block sums of ``block_mask``, 1-D in block order.

        Adds up the sums held when ``block_mask`` is no finer than
        ``mask``.  Otherwise first moves the classes and sums to the
        union of both masks.  The result may be the held array itself.
        """
        r = self.num_qubits
        if block_mask & ~self.mask:
            coarse = self.member.reshape(_block_shape(r, self.mask))
            self.mask |= block_mask
            self.member = np.broadcast_to(coarse, _block_shape(r, self.mask)).ravel()
            self.sums = self.member * (self.dim >> self.mask.bit_count())
            for index, value in self.written.items():
                cell = _compress(index, self.mask)
                self.sums[cell] += value - self.member[cell]
        if block_mask == self.mask:
            return self.sums
        held = _block_shape(r, self.mask)
        merged = tuple(ax for ax in _free_axes(r, block_mask) if held[ax] == 2)
        return self.sums.reshape(held).sum(axis=merged).ravel()

    def _flip_one(self, index: int) -> None:
        """Negate amplitude ``index``: one entry of ``written``, one block sum."""
        cell = _compress(index, self.mask)  # the index's block in member and sums
        value = self.written[index] if index in self.written else self.member.item(cell)
        self.written[index] = -value
        self.sums[cell] -= 2 * value

    def _classes(self) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray]:
        """The amplitude classes and their probabilities.

        Each written entry is a class of its own; the untouched members
        of a block of ``mask`` share one amplitude.  Returns ``(indices,
        masses, member_mass, untouched)``: the written indices in
        ascending order and the probability of each, then, in block order
        like ``member``, the probability of one untouched member of each
        block and the number of them.
        """
        indices = sorted(self.written)
        masses = np.array([self.written[index] for index in indices]) ** 2
        untouched = np.full(self.member.size, self.dim >> self.mask.bit_count())
        np.subtract.at(untouched, [_compress(i, self.mask) for i in indices], 1)
        return indices, masses, self.member**2, untouched


# What the kernels take and return: a register in either form.
Register = StateVector | DeferredState


@dataclass(frozen=True)
class BasisPredicate:
    """Bit-mask condition selecting basis states with ``y & mask == value``.

    Matches exactly ``2**(r - popcount(mask))`` of the ``2**r`` basis
    states; an empty mask matches everything.
    """

    fixed_mask: int
    fixed_value: int

    def __post_init__(self) -> None:
        if self.fixed_mask < 0 or self.fixed_value < 0:
            raise ValueError("mask and value must be nonnegative")
        if self.fixed_value & ~self.fixed_mask:
            raise ValueError(
                f"value {self.fixed_value:#x} has bits outside mask {self.fixed_mask:#x}"
            )

    def matches(self, index: int) -> bool:
        return (index & self.fixed_mask) == self.fixed_value


@dataclass
class ShotHistogram:
    """Counts of sampled basis-state indices; values sum to ``total_shots``."""

    counts: dict[int, int]
    total_shots: int

    def __post_init__(self) -> None:
        if self.total_shots < 1:
            raise ValueError("total_shots must be positive")
        if sum(self.counts.values()) != self.total_shots:
            raise ValueError("histogram counts do not sum to total_shots")

    def mode(self) -> int:
        """Most frequent index; ties broken toward the smallest index."""
        return min(self.counts, key=lambda i: (-self.counts[i], i))


# ---------------------------------------------------------------------------
# Bit-position helpers (position 0 = MSB)


def segment_mask(r: int, lo: int, hi: int) -> int:
    """Integer mask covering qubit positions ``lo..hi`` inclusive."""
    if not 0 <= lo <= hi < r:
        raise ValueError(f"segment [{lo}, {hi}] out of range for {r} qubits")
    width = hi - lo + 1
    return ((1 << width) - 1) << (r - 1 - hi)


def _compress(index: int, mask: int) -> int:
    """The bits of ``index`` on ``mask``, packed in order into the low bits."""
    packed, rest = 0, mask
    while rest:
        top = rest.bit_length() - 1
        packed = (packed << 1) | (index >> top) & 1
        rest ^= 1 << top
    return packed


def _expand(packed, mask: int):
    """Inverse of :func:`_compress` on an int or an integer array: spread the low bits onto ``mask``."""
    out, used = 0, 0
    while mask:
        low = (mask & -mask).bit_length() - 1
        run = (~(mask >> low) & ((mask >> low) + 1)).bit_length() - 1
        out = out | ((packed >> used) & ((1 << run) - 1)) << low
        used += run
        mask &= ~(((1 << run) - 1) << low)
    return out


def _axis_selector(r: int, mask: int, value: int) -> tuple:
    """Slicing tuple picking the sub-hypercube where masked bits equal value."""
    sel: list = []
    for ax in range(r):
        bit = r - 1 - ax
        if (mask >> bit) & 1:
            sel.append((value >> bit) & 1)
        else:
            sel.append(slice(None))
    return tuple(sel)


# ---------------------------------------------------------------------------
# Kernels


def basis_state(r: int, index: int) -> StateVector:
    """Computational basis state |index> on ``r`` qubits."""
    _check_qubits(r)
    if not 0 <= index < (1 << r):
        raise ValueError(f"index {index} out of range for {r} qubits")
    amps = np.zeros(1 << r)
    amps[index] = 1.0
    return StateVector(r, amps)


def uniform_state(r: int) -> StateVector:
    """Equal superposition over all ``2**r`` basis states."""
    _check_qubits(r)
    n = 1 << r
    return StateVector(r, np.full(n, 1.0 / math.sqrt(n)))


def phase_flip(state: Register, pred: BasisPredicate) -> Register:
    """Negate, in place, the amplitude of every basis state matching ``pred``.

    Returns ``state`` itself, but for the case below.  Self-inverse and
    norm-preserving; an empty mask applies a global phase of -1.  A
    :class:`DeferredState` negates a single amplitude's class; a wider
    flip returns a new dense register, written out from it, and leaves
    the :class:`DeferredState` as it is.
    """
    r = state.num_qubits
    if pred.fixed_mask >> r:
        raise ValueError(f"predicate mask {pred.fixed_mask:#x} wider than {r} qubits")
    if isinstance(state, DeferredState):
        if pred.fixed_mask != (1 << r) - 1:
            return phase_flip(state.write_out(), pred)
        state._flip_one(pred.fixed_value)
        return state
    view = state.amplitudes.reshape((2,) * r)
    view[_axis_selector(r, pred.fixed_mask, pred.fixed_value)] *= -1
    return state


@lru_cache(maxsize=256)
def _free_axes(r: int, block_mask: int) -> tuple[int, ...]:
    """Axes of the ``(2,)*r`` view that index positions inside a block."""
    if block_mask >> r:
        raise ValueError(f"block mask {block_mask:#x} wider than {r} qubits")
    return tuple(ax for ax in range(r) if not (block_mask >> (r - 1 - ax)) & 1)


@lru_cache(maxsize=256)
def _block_shape(r: int, block_mask: int) -> tuple[int, ...]:
    """Keepdims shape of a per-block array against the ``(2,)*r`` view.

    Size 2 on the masked axes, 1 on the axes a block spans.  A 1-D array
    in block order reshapes to it without moving a value.
    """
    free = _free_axes(r, block_mask)
    return tuple(1 if ax in free else 2 for ax in range(r))


def _sum_blocks(amplitudes: np.ndarray, r: int, block_mask: int) -> np.ndarray:
    """One read of ``amplitudes``: the keepdims-shaped sum of every block."""
    return amplitudes.reshape((2,) * r).sum(axis=_free_axes(r, block_mask), keepdims=True)


def block_sums(state: Register, block_mask: int = 0) -> np.ndarray:
    """Amplitude sum of every block of ``block_mask``.

    Keepdims-shaped against the ``(2,)*r`` view: size 1 on the axes a
    block spans, size 2 on the masked axes.  A :class:`StateVector` is
    read once; a :class:`DeferredState` answers from the sums it holds,
    and computes them from its classes for a mask finer than any it has
    used.
    """
    if isinstance(state, DeferredState):
        r = state.num_qubits
        return state._block_sums(block_mask).reshape(_block_shape(r, block_mask)).copy()
    return _sum_blocks(state.amplitudes, state.num_qubits, block_mask)


def invert_about_mean(state: Register, block_mask: int = 0) -> Register:
    """Replace, in place, every amplitude ``a`` with ``2*mean - a`` within its block.

    Blocks are the groups of basis states sharing the same value on the
    masked bits; the unmasked bits index positions inside a block.  An
    empty mask gives the global diffuser (one block).  A full mask makes
    every block a single amplitude, so the operation degenerates to the
    identity.  Applying the same mask twice restores the input.  Returns
    ``state`` itself.

    A :class:`StateVector` is read for its block sums and then written
    once.  A :class:`DeferredState` maps each of its classes from the
    sums of ``block_mask``, which the inversion leaves unchanged.
    """
    r = state.num_qubits
    if not _free_axes(r, block_mask):
        return state
    if isinstance(state, DeferredState):
        sums = state._block_sums(block_mask)
        twice_means = sums * (2.0 * sums.size / state.dim)
        if block_mask == state.mask:
            np.subtract(twice_means, state.member, out=state.member)
        else:
            # Each held block lies inside one block of the coarser mask:
            # broadcast its mean onto the held blocks through the keepdims
            # views, and map a held sum S of n amplitudes to 2*mean*n - S.
            coarse = twice_means.reshape(_block_shape(r, block_mask))
            held = _block_shape(r, state.mask)
            member, held_sums = state.member.reshape(held), state.sums.reshape(held)
            np.subtract(coarse, member, out=member)
            np.subtract(coarse * (state.dim // state.sums.size), held_sums, out=held_sums)
        for index, value in state.written.items():
            state.written[index] = twice_means.item(_compress(index, block_mask)) - value
        return state
    sums = _sum_blocks(state.amplitudes, r, block_mask)
    # Blocks hold dim / sums.size amplitudes, a power of two: the scale is exact.
    arr = state.amplitudes.reshape((2,) * r)
    np.subtract(sums * (2.0 * sums.size / state.dim), arr, out=arr)
    return state


def probability(state: Register, pred: BasisPredicate) -> float:
    """Probability that measuring ``state`` gives a basis state matching ``pred``.

    A :class:`DeferredState` answers from its amplitude classes, in
    O(classes) work; a :class:`StateVector` is read out through its
    probabilities.  Either way an unnormalized state is rejected, as
    :meth:`StateVector.probabilities` does.
    """
    r = state.num_qubits
    if pred.fixed_mask >> r:
        raise ValueError(f"predicate mask {pred.fixed_mask:#x} wider than {r} qubits")
    if not isinstance(state, DeferredState):
        probs = state.probabilities().reshape((2,) * r)
        return float(probs[_axis_selector(r, pred.fixed_mask, pred.fixed_value)].sum())
    indices, masses, member_mass, untouched = state._classes()
    _check_norm(float(masses.sum() + (member_mass * untouched).sum()))
    # Every block that agrees with pred on their common bits holds the same
    # number of matching members; a written one trades a member's mass for its own.
    overlap = state.mask & pred.fixed_mask
    per_block = state.dim >> (state.mask | pred.fixed_mask).bit_count()
    view = member_mass.reshape(_block_shape(r, state.mask))
    total = view[_axis_selector(r, overlap, pred.fixed_value & overlap)].sum() * per_block
    for index, mass in zip(indices, masses):
        if pred.matches(index):
            total += mass - member_mass[_compress(index, state.mask)]
    return float(total)


def _inverse_cdf(
    p: np.ndarray, rng: np.random.Generator, size: int | None = None
) -> np.ndarray | np.integer:
    """Indices drawn from the distribution ``p`` by inverse CDF.

    The same draws as ``rng.choice(p.size, size, p=p)``, without its
    checks on ``p``: callers pass a distribution their norm check has
    already passed.  The CDF is built in place in ``p``.
    """
    np.cumsum(p, out=p)
    p /= p[-1]
    return p.searchsorted(rng.random(size), side="right")


def _draw_classes(state: DeferredState, shots: int, rng: np.random.Generator) -> np.ndarray:
    """``shots`` indices of a :class:`DeferredState`, drawn class by class.

    Each shot picks an amplitude class by inverse CDF over the class
    masses; a shot on a block's untouched members then picks one of them
    uniformly, skipping the written ones.
    """
    indices, masses, member_mass, untouched = state._classes()
    weights = np.concatenate([masses, member_mass * untouched])
    _check_norm(float(weights.sum()))
    classes = _inverse_cdf(weights, rng, shots)
    first = len(indices)  # the block classes follow the written entries
    draws = np.empty(shots, dtype=np.int64)
    single = classes < first
    draws[single] = np.array(indices, dtype=np.int64)[classes[single]]
    free = (state.dim - 1) ^ state.mask
    per_class = np.bincount(classes, minlength=weights.size)
    for cell in np.flatnonzero(per_class[first:]):
        members = rng.integers(0, untouched[cell], size=per_class[first + cell])
        # The j-th untouched member sits past every written one ranked at or below it.
        written = np.array(
            sorted(_compress(i, free) for i in indices if _compress(i, state.mask) == cell),
            dtype=np.int64,
        )
        members += np.searchsorted(written - np.arange(written.size), members, side="right")
        draws[classes == first + cell] = _expand(members, free) | _expand(int(cell), state.mask)
    return draws


def sample(state: Register, shots: int, seed: int) -> ShotHistogram:
    """Draw ``shots`` independent basis-state indices with probability ``a**2``.

    Deterministic for a fixed ``seed``.  A :class:`StateVector` gives the
    same draws as ``Generator.choice(dim, shots, p=probs / probs.sum())``:
    the CDF is built in place in the probabilities array, so no second
    register-sized array is held.  A :class:`DeferredState` draws from
    its amplitude classes in O(shots + classes) work and allocates no
    register: the same distribution, but not the same draws.  Either way
    an unnormalized state is rejected, as
    :meth:`StateVector.probabilities` does.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    rng = np.random.default_rng(seed)
    if isinstance(state, DeferredState):
        draws = _draw_classes(state, shots, rng)
    else:
        cdf = state.probabilities()
        cdf /= cdf.sum()
        draws = _inverse_cdf(cdf, rng, shots)
        del cdf  # the histogram is built without the register-sized CDF held
    values, counts = np.unique(draws, return_counts=True)
    return ShotHistogram(dict(zip(values.tolist(), counts.tolist())), shots)


def operator_matrix(r: int, operation: Callable[[StateVector], StateVector]) -> np.ndarray:
    """Explicit ``2**r x 2**r`` matrix of a state-to-state operation.

    Built column by column by applying ``operation`` to each basis
    vector.  Brute force for equivalence checks only, hence the size
    guard.
    """
    _check_qubits(r)
    if r > 6:
        raise ValueError(f"dense operator construction is capped at 6 qubits, got {r}")
    dim = 1 << r
    matrix = np.zeros((dim, dim))
    for j in range(dim):
        matrix[:, j] = operation(basis_state(r, j)).amplitudes
    return matrix

