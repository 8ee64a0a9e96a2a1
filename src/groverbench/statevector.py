"""Dense statevector kernels for amplitude amplification.

A register of ``r`` qubits is a vector of ``2**r`` amplitudes indexed by
the computational-basis integer ``y``.  Qubit positions are counted from
the most significant bit of ``y``: position 0 is the MSB, position
``r - 1`` the LSB.  "Forward" bit groups therefore sit at the top of the
index and "backward" groups at the bottom.  Predicates and block masks
are plain integer bit masks over ``y``; :func:`segment_mask` converts an
inclusive position range into such a mask.

The package's own constructors build real float64 registers: the +-1
phase oracle and the inversion about the mean never create an imaginary
part, so storing one would only double the memory traffic.  A complex
input (for example from :func:`state_from_pairs`) is kept as complex128,
and every kernel works on either dtype unchanged.

Kernels update the register in place and return the state they were
given, so a search iteration allocates no second register.  Callers
still write ``state = kernel(state, ...)``; use ``state.copy()`` first
to keep an input.

A run of single-target iterations need not touch the register at all.
:class:`DeferredState` keeps it as ``alpha*x + beta[block]``: a buffer
``x``, a sign ``alpha`` and one offset per block, keepdims-shaped against
the ``(2,)*r`` view like :func:`block_sums`, with the true amplitude sum
of every block beside them.  An inversion maps each amplitude ``a`` to
``2*mean - a``, which is ``-alpha*x + (2*mean - beta)``: it negates
``alpha`` and rewrites ``beta`` from the sums, and it leaves the sum of
each of its blocks unchanged (``sum(2*mean - a) == sum(a)``).  A flip of
one amplitude rewrites one entry of ``x`` and one block sum.  Neither
reads the register.  The offsets and sums are held for the finest block
mask used so far.  An inversion about a coarser mask adds up the sums
held, and maps each held sum ``S`` of ``n`` amplitudes to
``2*mean*n - S``; only a finer mask reads the buffer, once.  A flip of
more than one amplitude writes the register out and runs the dense
kernel, and the sums are read again at the next inversion.
:func:`phase_flip`, :func:`invert_about_mean` and :func:`block_sums`
dispatch on the register type, so a driver calls the same kernels on
either form.  :meth:`DeferredState.write_out` folds ``alpha`` and
``beta`` into the buffer in one pass and returns it as a
:class:`StateVector`.

:meth:`DeferredState.uniform` starts a register with no buffer: ``x`` is
a constant ``fill`` plus a dict of the entries the oracle has written,
and only :meth:`~DeferredState.write_out` allocates it.  Such a register
has few amplitude classes (Boyer, Brassard, Hoyer & Tapp,
quant-ph/9605034): each written entry, and the untouched members of each
block, which share one amplitude.  A finer block mask then computes its
sums from the classes, and :func:`probability` and :func:`sample` read
them in O(classes) and O(shots + classes) work, so a single-target
search runs and reads out without any ``2**r`` array.  Any other
register is read out through its probabilities.

Kernels never renormalize a state and never re-check its norm: the
reflections implemented here preserve it by construction.  The norm
check is in :meth:`StateVector.probabilities`, the readout of every
register with a buffer (sampling, certainties, block and segment
marginals), and in the class readouts of a register without one.  It
rejects a state whose norm has drifted, so a normalization failure
always points at a bug in the caller instead of being silently masked,
and it raises the same way under ``python -O``.
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

    A contiguous float64 or complex128 array is stored as given, not
    copied, so the in-place kernels also write through to it.
    """

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        _check_qubits(self.num_qubits)
        dtype = np.complex128 if np.iscomplexobj(self.amplitudes) else np.float64
        self.amplitudes = np.ascontiguousarray(self.amplitudes, dtype=dtype)
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
        """Measurement probabilities ``|a|**2`` of every basis state.

        Raises ``ValueError`` when the L2 norm deviates from 1 by more
        than ``NORM_TOL``, or is NaN: by the no-renormalize policy that
        signals an upstream kernel bug.
        """
        probs = np.abs(self.amplitudes) ** 2
        _check_norm(float(probs.sum()))
        return probs

    def copy(self) -> StateVector:
        return StateVector(self.num_qubits, self.amplitudes.copy())

    def write_out(self) -> StateVector:
        """The register with every amplitude stored: a dense one already is."""
        return self


class DeferredState:
    """An ``r``-qubit register kept as ``alpha*x + beta[block]`` (see the module notes).

    ``DeferredState(state)`` takes over the buffer of ``state`` as ``x``:
    the kernels write into it, so keep using this register, not
    ``state``.  :meth:`uniform` starts from the equal superposition with
    no buffer at all: ``x`` is None, and its entries are ``fill`` except
    the ones in ``written``, the entries the oracle has flipped.
    :meth:`write_out` is the one place a buffer is allocated.  ``beta``
    holds one offset per block of ``mask``, the finest block mask an
    inversion has used; ``sums`` holds the true amplitude sum of each of
    those blocks, or None until an inversion needs them.
    """

    def __init__(self, state: StateVector) -> None:
        self._start(state.num_qubits, state.amplitudes, fill=0.0)

    @classmethod
    def uniform(cls, r: int) -> DeferredState:
        """Equal superposition over all ``2**r`` basis states, with no buffer."""
        _check_qubits(r)
        register = cls.__new__(cls)
        register._start(r, None, fill=1.0 / math.sqrt(1 << r))
        return register

    def _start(self, r: int, x: np.ndarray | None, fill: float) -> None:
        self.num_qubits = r
        self.x = x
        self.dtype = np.dtype(np.float64) if x is None else x.dtype
        self.fill = fill
        self.written: dict[int, float] = {}
        self.alpha = 1.0
        self.mask = 0
        self.beta = np.zeros((1,) * r, dtype=self.dtype)
        self.sums: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits

    @property
    def amplitudes(self) -> np.ndarray:
        """A read-only stand-in with the register's shape, dtype and ``nbytes``.

        The amplitudes are not stored until :meth:`write_out`, so every
        entry is NaN: code that sizes a register works on either form,
        and code that reads values here instead gets NaN, which the
        readout's norm check rejects.
        """
        return np.broadcast_to(np.array(np.nan, dtype=self.dtype), (self.dim,))

    def write_out(self) -> StateVector:
        """Fold ``alpha`` and ``beta`` into the buffer in one pass; return it.

        Allocates the buffer first when there is none.  The returned
        :class:`StateVector` shares the buffer, so it is the register
        from then on.  The sums stay valid.
        """
        if self.x is None:
            self.x = np.full(self.dim, self.fill, dtype=self.dtype)
            for index, value in self.written.items():
                self.x[index] = value
            self.written = {}
        view = self.x.reshape((2,) * self.num_qubits)
        if self.alpha < 0:
            np.subtract(self.beta, view, out=view)
        elif self.beta.any():
            view += self.beta
        self.alpha = 1.0
        self.beta = np.zeros_like(self.beta)
        return StateVector(self.num_qubits, self.x)

    def probabilities(self) -> np.ndarray:
        """As :meth:`StateVector.probabilities`, after writing the register out."""
        return self.write_out().probabilities()

    def copy(self) -> DeferredState:
        clone = copy.copy(self)
        clone.x = None if self.x is None else self.x.copy()
        clone.written = dict(self.written)
        clone.beta = self.beta.copy()
        clone.sums = None if self.sums is None else self.sums.copy()
        return clone

    def _block_sums(self, block_mask: int) -> np.ndarray:
        """True block sums of ``block_mask``, shaped as :func:`block_sums` returns them.

        Adds up the sums held when ``block_mask`` is no finer than
        ``mask``.  Otherwise first moves the offsets and sums to the
        union of both masks: with one read of the buffer, or, with no
        buffer, from ``fill`` and the written entries.  The result may be
        the held array itself.
        """
        r = self.num_qubits
        free_axes = _free_axes(r, block_mask)
        if self.sums is None or block_mask & ~self.mask:
            self.mask |= block_mask
            if self.x is None:
                free = _free_axes(r, self.mask)
                shape = tuple(1 if ax in free else 2 for ax in range(r))
                x_sums = np.full(
                    shape, self.fill * (self.dim >> self.mask.bit_count()), dtype=self.dtype
                )
                flat = x_sums.reshape(-1)
                for index, value in self.written.items():
                    flat[_compress(index, self.mask)] += value - self.fill
            else:
                x_sums = _sum_blocks(self.x, r, self.mask)
            self.beta = np.broadcast_to(self.beta, x_sums.shape).copy()
            self.sums = self.alpha * x_sums + (self.dim // x_sums.size) * self.beta
        if block_mask == self.mask:
            return self.sums
        merged = tuple(ax for ax in free_axes if self.sums.shape[ax] == 2)
        return self.sums.sum(axis=merged, keepdims=True)

    def _flip_one(self, index: int) -> None:
        """Negate amplitude ``index``: one entry of ``x`` or ``written``, one block sum."""
        cell = _compress(index, self.mask)  # the index's block in beta and sums
        offset = self.beta.item(cell)
        value = self.written.get(index, self.fill) if self.x is None else self.x.item(index)
        flipped = -value - 2 * self.alpha * offset
        if self.x is None:
            self.written[index] = flipped
        else:
            self.x[index] = flipped
        if self.sums is not None:
            self.sums.flat[cell] -= 2 * (self.alpha * value + offset)

    def _classes(self) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray]:
        """The amplitude classes of a register with no buffer.

        Each written entry is a class of its own; the untouched members
        of a block of ``mask`` share one amplitude, ``alpha*fill +
        beta``.  Returns ``(indices, masses, member_mass, untouched)``:
        the written indices in ascending order and the probability of
        each, then, shaped like ``beta``, the probability of one untouched
        member of each block and the number of them.
        """
        indices = sorted(self.written)
        cells = [_compress(index, self.mask) for index in indices]
        values = np.array([self.written[index] for index in indices], dtype=self.dtype)
        masses = np.abs(self.alpha * values + self.beta.reshape(-1)[cells]) ** 2
        member_mass = np.abs(self.alpha * self.fill + self.beta) ** 2
        untouched = np.full(self.beta.shape, self.dim >> self.mask.bit_count())
        np.subtract.at(untouched.reshape(-1), cells, 1)
        return indices, masses, member_mass, untouched


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

    def fraction(self, index: int) -> float:
        return self.counts.get(index, 0) / self.total_shots


# ---------------------------------------------------------------------------
# Bit-position helpers (position 0 = MSB)


def segment_mask(r: int, lo: int, hi: int) -> int:
    """Integer mask covering qubit positions ``lo..hi`` inclusive."""
    if not 0 <= lo <= hi < r:
        raise ValueError(f"segment [{lo}, {hi}] out of range for {r} qubits")
    width = hi - lo + 1
    return ((1 << width) - 1) << (r - 1 - hi)


def extract_segment(r: int, index: int, lo: int, hi: int) -> int:
    """Value of ``index`` on positions ``lo..hi``, right-aligned."""
    width = hi - lo + 1
    return (index >> (r - 1 - hi)) & ((1 << width) - 1)


def place_segment(r: int, value: int, lo: int, hi: int) -> int:
    """Inverse of :func:`extract_segment`: shift ``value`` into place."""
    width = hi - lo + 1
    if value >> width:
        raise ValueError(f"value {value} does not fit in {width} bits")
    return value << (r - 1 - hi)


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

    Returns ``state`` itself.  Self-inverse and norm-preserving; an empty
    mask applies a global phase of -1.  A :class:`DeferredState` follows
    a single flipped amplitude without touching the rest of the register;
    a wider flip writes it out and drops its sums.
    """
    r = state.num_qubits
    if pred.fixed_mask >> r:
        raise ValueError(f"predicate mask {pred.fixed_mask:#x} wider than {r} qubits")
    if isinstance(state, DeferredState):
        if pred.fixed_mask == (1 << r) - 1:
            state._flip_one(pred.fixed_value)
        else:
            phase_flip(state.write_out(), pred)
            state.sums = None
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


def _sum_blocks(amplitudes: np.ndarray, r: int, block_mask: int) -> np.ndarray:
    """One read of ``amplitudes``: the keepdims-shaped sum of every block."""
    return amplitudes.reshape((2,) * r).sum(axis=_free_axes(r, block_mask), keepdims=True)


def block_sums(state: Register, block_mask: int = 0) -> np.ndarray:
    """Amplitude sum of every block of ``block_mask``.

    Keepdims-shaped against the ``(2,)*r`` view: size 1 on the axes a
    block spans, size 2 on the masked axes.  A :class:`StateVector` is
    read once; a :class:`DeferredState` answers from the sums it holds,
    and reads its buffer only for a mask finer than any it has used.
    """
    if isinstance(state, DeferredState):
        return state._block_sums(block_mask).copy()
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
    once.  A :class:`DeferredState` negates ``alpha`` and rewrites its
    offsets and sums from the sums of ``block_mask``, which the inversion
    leaves unchanged.
    """
    r = state.num_qubits
    if not _free_axes(r, block_mask):
        return state
    if isinstance(state, DeferredState):
        sums = state._block_sums(block_mask)
        twice_means = sums * (2.0 * sums.size / state.dim)
        np.subtract(twice_means, state.beta, out=state.beta)
        if block_mask != state.mask:
            # A held block of n amplitudes inside a coarser one: S -> 2*mean*n - S.
            n = state.dim // state.sums.size
            np.subtract(twice_means * n, state.sums, out=state.sums)
        state.alpha = -state.alpha
        return state
    sums = _sum_blocks(state.amplitudes, r, block_mask)
    # Blocks hold dim / sums.size amplitudes, a power of two: the scale is exact.
    arr = state.amplitudes.reshape((2,) * r)
    np.subtract(sums * (2.0 * sums.size / state.dim), arr, out=arr)
    return state


def probability(state: Register, pred: BasisPredicate) -> float:
    """Probability that measuring ``state`` gives a basis state matching ``pred``.

    A register with no buffer (:meth:`DeferredState.uniform`) answers
    from its amplitude classes, in O(classes) work; any other register
    is read out through its probabilities.  Either way an unnormalized
    state is rejected, as :meth:`StateVector.probabilities` does.
    """
    r = state.num_qubits
    if pred.fixed_mask >> r:
        raise ValueError(f"predicate mask {pred.fixed_mask:#x} wider than {r} qubits")
    if not (isinstance(state, DeferredState) and state.x is None):
        probs = state.probabilities().reshape((2,) * r)
        return float(probs[_axis_selector(r, pred.fixed_mask, pred.fixed_value)].sum())
    indices, masses, member_mass, untouched = state._classes()
    _check_norm(float(masses.sum() + (member_mass * untouched).sum()))
    # Every block that agrees with pred on their common bits holds the same
    # number of matching members; a written one trades a member's mass for its own.
    overlap = state.mask & pred.fixed_mask
    per_block = state.dim >> (state.mask | pred.fixed_mask).bit_count()
    total = member_mass[_axis_selector(r, overlap, pred.fixed_value & overlap)].sum() * per_block
    for index, mass in zip(indices, masses):
        if pred.matches(index):
            total += mass - member_mass.flat[_compress(index, state.mask)]
    return float(total)


def _draw_classes(state: DeferredState, shots: int, rng: np.random.Generator) -> np.ndarray:
    """``shots`` indices of a register with no buffer, drawn class by class.

    Each shot picks an amplitude class by inverse CDF over the class
    masses; a shot on a block's untouched members then picks one of them
    uniformly, skipping the written ones.
    """
    indices, masses, member_mass, untouched = state._classes()
    cdf = np.concatenate([masses, (member_mass * untouched).reshape(-1)])
    np.cumsum(cdf, out=cdf)
    _check_norm(float(cdf[-1]))
    cdf /= cdf[-1]
    classes = cdf.searchsorted(rng.random(shots), side="right")
    first = len(indices)  # the block classes follow the written entries
    draws = np.empty(shots, dtype=np.int64)
    single = classes < first
    draws[single] = np.array(indices, dtype=np.int64)[classes[single]]
    free = (state.dim - 1) ^ state.mask
    per_class = np.bincount(classes, minlength=cdf.size)
    for cell in np.flatnonzero(per_class[first:]):
        members = rng.integers(0, untouched.flat[cell], size=per_class[first + cell])
        # The j-th untouched member sits past every written one ranked at or below it.
        written = np.array(
            sorted(_compress(i, free) for i in indices if _compress(i, state.mask) == cell),
            dtype=np.int64,
        )
        members += np.searchsorted(written - np.arange(written.size), members, side="right")
        draws[classes == first + cell] = _expand(members, free) | _expand(int(cell), state.mask)
    return draws


def sample(state: Register, shots: int, seed: int) -> ShotHistogram:
    """Draw ``shots`` independent basis-state indices with probability |a|^2.

    Deterministic for a fixed ``seed``.  A dense register, or a deferred
    one with a buffer, gives the same draws as ``Generator.choice(dim,
    shots, p=probs / probs.sum())``: the CDF is built in place in the
    probabilities array, so no second register-sized array is held.  A
    register with no buffer (:meth:`DeferredState.uniform`) draws from
    its amplitude classes in O(shots + classes) work and allocates no
    register: the same distribution, but not the same draws.  Either way
    an unnormalized state is rejected, as
    :meth:`StateVector.probabilities` does.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    rng = np.random.default_rng(seed)
    if isinstance(state, DeferredState) and state.x is None:
        draws = _draw_classes(state, shots, rng)
    else:
        cdf = state.probabilities()
        cdf /= cdf.sum()
        np.cumsum(cdf, out=cdf)
        cdf /= cdf[-1]
        draws = cdf.searchsorted(rng.random(shots), side="right")
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
    matrix = np.zeros((dim, dim), dtype=np.complex128)
    for j in range(dim):
        matrix[:, j] = operation(basis_state(r, j)).amplitudes
    return matrix


# ---------------------------------------------------------------------------
# Fixture serialization: states as JSON-friendly [re, im] pairs


def state_to_pairs(state: StateVector) -> list[list[float]]:
    return [[float(a.real), float(a.imag)] for a in state.amplitudes]


def state_from_pairs(pairs: list[list[float]]) -> StateVector:
    n = len(pairs)
    r = n.bit_length() - 1
    if n <= 0 or (1 << r) != n:
        raise ValueError(f"amplitude count {n} is not a power of two")
    amps = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
    return StateVector(r, amps)
