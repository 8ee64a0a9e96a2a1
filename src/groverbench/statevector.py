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
given, so a search iteration allocates no second register; use
``state.copy()`` first to keep an input.

Kernels never renormalize a state and never re-check its norm: the
reflections implemented here preserve it by construction.  The norm
check is in :meth:`StateVector.probabilities`, the readout of every
register (sampling, certainties, block and segment marginals).  It
rejects a state whose norm has drifted, so a normalization failure
always points at a bug in the caller instead of being silently masked,
and it raises the same way under ``python -O``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

MAX_QUBITS = 24

# The most shots one readout draws.  ``sample`` holds a float64 draw and an
# int64 index per shot (256 MiB at the cap); a search's vote takes its
# binomial count as an int64 and an open vote holds a few int64 arrays of
# ``shots`` entries.
MAX_SHOTS = 1 << 24

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


# ---------------------------------------------------------------------------
# Bit-position helpers (position 0 = MSB)


def segment_mask(r: int, lo: int, hi: int) -> int:
    """Integer mask covering qubit positions ``lo..hi`` inclusive."""
    if not 0 <= lo <= hi < r:
        raise ValueError(f"segment [{lo}, {hi}] out of range for {r} qubits")
    width = hi - lo + 1
    return ((1 << width) - 1) << (r - 1 - hi)


def _axis_selector(r: int, mask: int, value: int) -> tuple:
    """Slicing tuple picking the sub-hypercube where masked bits equal value."""
    bits = range(r - 1, -1, -1)  # axis ax indexes bit r - 1 - ax
    return tuple((value >> bit) & 1 if (mask >> bit) & 1 else slice(None) for bit in bits)


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


def phase_flip(state: StateVector, pred: BasisPredicate) -> StateVector:
    """Negate, in place, the amplitude of every basis state matching ``pred``.

    Returns ``state`` itself.  Self-inverse and norm-preserving; an empty
    mask applies a global phase of -1.
    """
    r = state.num_qubits
    if pred.fixed_mask >> r:
        raise ValueError(f"predicate mask {pred.fixed_mask:#x} wider than {r} qubits")
    view = state.amplitudes.reshape((2,) * r)
    view[_axis_selector(r, pred.fixed_mask, pred.fixed_value)] *= -1
    return state


def _free_axes(r: int, block_mask: int) -> tuple[int, ...]:
    """Axes of the ``(2,)*r`` view that index positions inside a block."""
    if block_mask >> r:
        raise ValueError(f"block mask {block_mask:#x} wider than {r} qubits")
    return tuple(ax for ax in range(r) if not (block_mask >> (r - 1 - ax)) & 1)


def block_sums(state: StateVector, block_mask: int = 0) -> np.ndarray:
    """Amplitude sum of every block of ``block_mask``, in one read of ``state``.

    Keepdims-shaped against the ``(2,)*r`` view: size 1 on the axes a
    block spans, size 2 on the masked axes.
    """
    r = state.num_qubits
    return state.amplitudes.reshape((2,) * r).sum(axis=_free_axes(r, block_mask), keepdims=True)


def invert_about_mean(state: StateVector, block_mask: int = 0) -> StateVector:
    """Replace, in place, every amplitude ``a`` with ``2*mean - a`` within its block.

    Blocks are the groups of basis states sharing the same value on the
    masked bits; the unmasked bits index positions inside a block.  An
    empty mask gives the global diffuser (one block).  A full mask makes
    every block a single amplitude, so the operation degenerates to the
    identity.  Applying the same mask twice restores the input.  Returns
    ``state`` itself.  The register is read once for its block sums and
    then written once.
    """
    r = state.num_qubits
    if block_mask == (1 << r) - 1:
        return state
    sums = block_sums(state, block_mask)  # rejects a mask wider than r qubits
    # Blocks hold dim / sums.size amplitudes, a power of two: the scale is exact.
    arr = state.amplitudes.reshape((2,) * r)
    np.subtract(sums * (2.0 * sums.size / state.dim), arr, out=arr)
    return state


def sample(state: StateVector, shots: int, seed: int) -> np.ndarray:
    """Draw ``shots`` independent basis-state indices with probability ``a**2``.

    Returns the indices in draw order, deterministic for a fixed ``seed``:
    the draws of ``Generator.choice(dim, shots, p=probs / probs.sum())``,
    taken by inverse CDF without its checks on ``p``, which the norm check
    has already passed.  The CDF is built in place in the probabilities
    array, so no second register-sized array is held.  An unnormalized
    state is rejected, as :meth:`StateVector.probabilities` does, and so
    are ``shots`` outside ``[1, MAX_SHOTS]``, before any draw.
    """
    if not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"shots must be in [1, {MAX_SHOTS}], got {shots}")
    cdf = state.probabilities()
    cdf /= cdf.sum()
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    return cdf.searchsorted(np.random.default_rng(seed).random(shots), side="right")


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

