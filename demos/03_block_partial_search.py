"""Block-partial (GRK) search: find the block, not the item.

Splitting 2^r items into b equal blocks and asking only "which block
holds the target" is cheaper than the full search: the query bound is
pi/4 * sqrt(N) * sqrt(1 - 1/b).  The driver runs a burn-in of global
iterations, then block-local iterations that rotate only the target
block while the others stay frozen, then one global cleanup that drains
the non-target blocks.
"""

import math

import numpy as np

import groverbench as gb
from groverbench.ops import _grk_schedule
from groverbench.search import grk_reference_amplitudes

r, b, target = 8, 4, 0b11001101
n = 1 << r
bound = gb.grk_query_count(n, b)
print(f"{r} qubits, {b} blocks of {n // b} items, target {target:#010b}")
print(f"query bound pi/4*sqrt(N)*sqrt(1-1/b) = {bound:.3f} -> budget {math.ceil(bound) + 1}")

t_global, t_local = _grk_schedule(r, b)
print(f"chosen schedule: {t_global} global + {t_local} local + 1 cleanup "
      f"= {t_global + t_local + 1} queries")

config = gb.SearchConfig(r=r, target=target, algorithm="GRK", b=b, shots=1024, seed=21)
block, outcome = gb.run_grk_partial(config)
print(f"resolved block {outcome.resolved_block} (true block {target >> (r - 2)}), "
      f"verified {gb.verify_outcome(outcome, config)}")
print(f"oracle calls {outcome.oracle_calls}, "
      f"shots in target block {outcome.success_fraction * 100:.2f}%, "
      f"block probability {outcome.certainty:.9f}")

# The statevector has only three distinct amplitudes throughout the run:
# the target, its block-mates, and everything else.  The scalar
# recurrence below tracks them one iteration at a time, the reference for
# the closed-form rotations the schedule search and the driver take;
# compare it with the full simulation.
a, b_amp, g = grk_reference_amplitudes(n, b, t_global, t_local)
print("\nthree-class reference vs simulated final state:")
print(f"  target amplitude     {a:+.9f}")
print(f"  in-block amplitude   {b_amp:+.9f}")
print(f"  out-of-block         {g:+.9f}")

# The b blocks are the values of the top log2(b) index bits: block-local
# inversions take their mask, and index i lies in block i // size.
oracle = gb.OracleSpec(r, target)
block_mask = gb.segment_mask(r, 0, b.bit_length() - 2)
size = n // b
state = gb.uniform_state(r)
for _ in range(t_global):
    state = gb.grover_iteration(state, oracle)
for _ in range(t_local):
    state = gb.grover_iteration(state, oracle, block_mask)
state = gb.grover_iteration(state, oracle)
amps = state.amplitudes
others = [i for i in range(n) if i // size == block and i != target]
outside = [i for i in range(n) if i // size != block]
print(f"  simulated target     {amps[target]:+.9f}")
print(f"  simulated in-block   {amps[others[0]]:+.9f}")
print(f"  simulated outside    {amps[outside[0]]:+.9f} "
      f"(max |outside| = {np.abs(amps[outside]).max():.2e})")

print("\nper-block probability after cleanup:")
probs = state.probabilities()
for blk in range(b):
    mass = probs[blk * size : (blk + 1) * size].sum()
    bar = "#" * int(round(mass * 40))
    print(f"  block {blk}: {mass:.6f} {bar}")
