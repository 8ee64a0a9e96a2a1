"""Layered searches: resolve the index a few bits at a time.

A width-2 segment search is exact (four states, one iteration, success
probability 1), so determining the index in 2-bit slices never misses.
The depth-first driver walks the slices MSB to LSB; the bi-directional
driver resolves slices from both ends at once, so its wall-clock layer
count is half as long.  Either way the total oracle work is r/2 queries
at k=2 instead of the 804 iterations the full search needs at 20 qubits.
"""

import groverbench as gb

r, k = 20, 2
target = 0b10110011100011001101
print(f"{r} qubits, target {target:#022b} ({target})")
# BDGS's plan: each round pairs a forward segment, cut from the MSB, with a
# backward one, cut from the LSB; when the passes differ in length, the
# backward pass runs on alone.
rounds = gb.layered_plan("BDGS", r, k)
print(f"forward segments : {[segments[0] for segments in rounds if len(segments) == 2]}")
print(f"backward segments: {[segments[-1] for segments in rounds]}")

bdgs = gb.SearchConfig(r=r, target=target, algorithm="BDGS", b=4, shots=1024, seed=17)
outcome = gb.run_bdgs(bdgs)
print(f"\nbi-directional: {outcome.layers} layers, {outcome.oracle_calls} oracle calls, "
      f"accuracy {outcome.success_fraction * 100:.1f}%, "
      f"{outcome.wall_time * 1e3:.3f} ms")

config = gb.SearchConfig(r=r, target=target, algorithm="DFGS", b=4, shots=1024, seed=17)
outcome = gb.run_dfgs(config)
print(f"depth-first   : {outcome.layers} layers, {outcome.oracle_calls} oracle calls, "
      f"accuracy {outcome.success_fraction * 100:.1f}%, "
      f"{outcome.wall_time * 1e3:.3f} ms")

# Watch the bits arrive from both ends.  Every segment search is exact, so
# a round adds the target's bits under its segments' masks: forward
# segments fill the top of the index, backward ones the bottom, and the
# masks never overlap.  A run reads all of this from its plan.
mask = 0
print("\nlayer-by-layer resolution:")
for layer, segments in enumerate(rounds, start=1):
    for lo, hi in segments:
        mask |= gb.segment_mask(r, lo, hi)
    print(f"  layer {layer}: known bits {target & mask:0{r}b} (mask {mask:0{r}b})")
assert mask == (1 << r) - 1

# Odd register sizes leave a width-1 segment at the meeting point.  A
# standard single-bit search is a coin flip; the exact search adds one
# ancilla qubit that slows its one round to pi/6, so the bit is still
# found with certainty in one query.
config = gb.SearchConfig(r=9, target=0b101101110, algorithm="BDGS", b=4, shots=64, seed=2)
outcome = gb.run_bdgs(config)
print(f"\nr=9 (residual width-1 segment): recovered {outcome.measured_index:#011b}, "
      f"{outcome.oracle_calls} oracle calls over {outcome.layers} layers")

print("\nlayers by register size (k=2):")
print("  r   : " + " ".join(f"{r:>3}" for r in range(4, 21, 2)))
print("  BDGS: " + " ".join(f"{gb.predicted_layers('BDGS', r, 2):>3}" for r in range(4, 21, 2)))
print("  DFGS: " + " ".join(f"{gb.predicted_layers('DFGS', r, 2):>3}" for r in range(4, 21, 2)))
print("  GS  : " + " ".join(f"{gb.predicted_layers('GS', r, 2):>3}" for r in range(4, 21, 2)))
