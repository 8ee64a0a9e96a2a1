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
either form.  Every readout writes the register out first:
:meth:`DeferredState.write_out` folds ``alpha`` and ``beta`` into the
buffer in one pass and returns it as a :class:`StateVector`.

Kernels never renormalize a state and never re-check its norm: the
reflections implemented here preserve it by construction.  The one norm
check is in :meth:`StateVector.probabilities`, the readout every driver
passes through (sampling, certainties, block and segment marginals).  It
rejects a state whose norm has drifted, so a normalization failure
always points at a bug in the caller instead of being silently masked,
and it raises the same way under ``python -O``.
"""

from __future__ import annotations

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
        norm = math.sqrt(float(probs.sum()))
        if not abs(norm - 1.0) <= NORM_TOL:  # also rejects a NaN norm
            raise ValueError(
                f"state norm {norm:.12f} deviates from 1 beyond {NORM_TOL}; "
                "refusing to read out an unnormalized state"
            )
        return probs

    def copy(self) -> StateVector:
        return StateVector(self.num_qubits, self.amplitudes.copy())

    def write_out(self) -> StateVector:
        """The register with every amplitude stored: a dense one already is."""
        return self


class DeferredState:
    """An ``r``-qubit register kept as ``alpha*x + beta[block]`` (see the module notes).

    Takes over the buffer of ``state`` as ``x``: the kernels write into
    it, so keep using this register, not ``state``.  ``beta`` holds one
    offset per block of ``mask``, the finest block mask an inversion has
    used; ``sums`` holds the true amplitude sum of each of those blocks,
    or None until an inversion needs them.
    """

    def __init__(self, state: StateVector) -> None:
        self.num_qubits = state.num_qubits
        self.x = state.amplitudes
        self.alpha = 1.0
        self.mask = 0
        self.beta = np.zeros((1,) * state.num_qubits, dtype=self.x.dtype)
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
        return np.broadcast_to(np.array(np.nan, dtype=self.x.dtype), self.x.shape)

    def write_out(self) -> StateVector:
        """Fold ``alpha`` and ``beta`` into the buffer in one pass; return it.

        The returned :class:`StateVector` shares the buffer, so it is the
        register from then on.  The sums stay valid.
        """
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
        clone = DeferredState(StateVector(self.num_qubits, self.x.copy()))
        clone.alpha, clone.mask, clone.beta = self.alpha, self.mask, self.beta.copy()
        clone.sums = None if self.sums is None else self.sums.copy()
        return clone

    def _block_sums(self, block_mask: int) -> np.ndarray:
        """True block sums of ``block_mask``, shaped as :func:`block_sums` returns them.

        Adds up the sums held when ``block_mask`` is no finer than
        ``mask``.  Otherwise first moves the offsets and sums to the
        union of both masks, with one read of the buffer.  The result
        may be the held array itself.
        """
        r = self.num_qubits
        free_axes = _free_axes(r, block_mask)
        if self.sums is None or block_mask & ~self.mask:
            self.mask |= block_mask
            x_sums = _sum_blocks(self.x, r, self.mask)
            self.beta = np.broadcast_to(self.beta, x_sums.shape).copy()
            self.sums = self.alpha * x_sums + (self.dim // x_sums.size) * self.beta
        if block_mask == self.mask:
            return self.sums
        merged = tuple(ax for ax in free_axes if self.sums.shape[ax] == 2)
        return self.sums.sum(axis=merged, keepdims=True)

    def _flip_one(self, index: int) -> None:
        """Negate amplitude ``index``: one entry of ``x``, one block sum."""
        # The flat position of the index's block in beta and sums: its
        # bits on ``mask``, from the most significant down.
        cell, rest = 0, self.mask
        while rest:
            top = rest.bit_length() - 1
            cell = (cell << 1) | (index >> top) & 1
            rest ^= 1 << top
        offset = self.beta.flat[cell]
        amplitude = self.alpha * self.x[index] + offset
        self.x[index] = -self.x[index] - 2 * self.alpha * offset
        if self.sums is not None:
            self.sums.flat[cell] -= 2 * amplitude


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


def sample(state: Register, shots: int, seed: int) -> ShotHistogram:
    """Draw ``shots`` independent basis-state indices with probability |a|^2.

    Deterministic for a fixed ``seed``, and the same draws as
    ``Generator.choice(dim, shots, p=probs / probs.sum())``: the CDF is
    built in place in the probabilities array, so no second register-sized
    array is held.  Rejects an unnormalized state through
    :meth:`StateVector.probabilities`.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    cdf = state.probabilities()
    cdf /= cdf.sum()
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    draws = cdf.searchsorted(np.random.default_rng(seed).random(shots), side="right")
    del cdf  # the histogram is built without the register-sized CDF held
    values, counts = np.unique(draws, return_counts=True)
    return ShotHistogram({int(v): int(c) for v, c in zip(values, counts)}, shots)


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
