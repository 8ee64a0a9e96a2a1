"""Tour of the statevector kernels.

Everything the search drivers do is built from three operations on a
dense amplitude vector: prepare the uniform superposition, flip the sign
of the amplitudes an oracle marks, and invert every amplitude about its
block mean.  This script walks through them on a 2-qubit register where
every number fits on one line.  The kernels update the register in place
and return it, so each step is printed before the next one runs.
"""

import numpy as np

import groverbench as gb

# The uniform superposition over 4 basis states: every amplitude 1/2.
state = gb.uniform_state(2)
print("uniform state:      ", np.round(state.amplitudes, 4))

# Mark index 3 (binary 11).  The predicate fixes both bits.
marked = gb.phase_flip(state, gb.BasisPredicate(0b11, 0b11))
print("after phase flip:   ", np.round(marked.amplitudes, 4))

# Inversion about the mean amplifies whatever the oracle flipped.
# Mean is 0.25, so 2*0.25 - 0.5 = 0 and 2*0.25 + 0.5 = 1: one round
# lands the whole amplitude on the marked state.  Four states is the
# size where the search is exact.
amplified = gb.invert_about_mean(marked)
print("after inversion:    ", np.round(amplified.amplitudes, 4))

# The same pair of steps as one call, with query accounting.
oracle = gb.OracleSpec(2, 3)
one_round = gb.grover_iteration(gb.uniform_state(2), oracle)
print("one iteration:      ", np.round(one_round.amplitudes, 4))
print("oracle queries used:", oracle.query_count)

# Sampling is an ordinary seeded multinomial draw over |amplitude|^2.
# It returns the drawn indices; np.bincount counts them per index.
draws = gb.sample(one_round, shots=1024, seed=7)
print("1024 shots per index:", np.bincount(draws, minlength=one_round.dim))

# Block masks restrict the inversion: with the top bit as block id, the
# two halves of the register never mix.  Applying the same mask twice
# restores the input (the inversion is an involution).
vec = np.array([0.8, 0.2, 0.4, -0.4])
state = gb.StateVector(2, vec / np.linalg.norm(vec))
print("block-structured:   ", np.round(state.amplitudes, 4))
state = gb.invert_about_mean(state, block_mask=0b10)
print("blockwise inversion:", np.round(state.amplitudes, 4))
state = gb.invert_about_mean(state, block_mask=0b10)
print("applied twice:      ", np.round(state.amplitudes, 4))

# For registers up to 6 qubits the explicit operator matrix is cheap to
# build; the test suite uses it to cross-check every composed pipeline.
matrix = gb.operator_matrix(2, lambda s: gb.grover_iteration(s, gb.OracleSpec(2, 3)))
print("dense operator of one iteration:")
print(np.round(matrix, 4))
