"""Seeded benchmark plans and the exported artifacts.

A plan is a (qubits x algorithm x trial) grid.  Every cell derives its
seed from the base seed and the cell id, never from execution order, so
reruns reproduce the same table bit for bit.  The same run feeds the
markdown/CSV tables and the per-algorithm scaling series.

This demo keeps the grid at 4-12 qubits so its table stays short; a
20-qubit full-search trial takes well under a millisecond too, since GS
turns its amplitude classes in closed form.  The full-size protocol
(5 trials, 1024 shots, 4-20 qubits) is one CLI call:

    groverbench run --qubits 4,8,16,20 --algo GS,DFGS,BDGS \
        --trials 5 --shots 1024 --seed 7 --format markdown --out results/
"""

import json

import groverbench as gb

plan = gb.ExperimentPlan(
    qubit_list=[4, 8, 12],
    algorithms=["GS", "DFGS", "BDGS"],
    trials=5,
    shots=1024,
    base_seed=7,
)
table = gb.run_plan(plan)

print(gb.emit_table(table, "markdown").decode())

print("aggregate means (exact: summed hit counts, one division):")
for agg in sorted(table.aggregates, key=lambda a: (a.qubits, a.algorithm.value)):
    print(f"  {agg.qubits:>2} qubits {agg.algorithm.value:<4} "
          f"accuracy {agg.accuracy_pct:6.2f}%  time {agg.time_s:.5f}s")

# The table holds its plan, so the series read b from it, and
# results.json records the plan before the rows.
series = gb.emit_scaling_series(table)
print("\nscaling series files:", ", ".join(sorted(series)))
print("plan in the JSON export:", json.loads(gb.emit_table(table, "json"))["plan"])
layers = json.loads(series["layers_vs_qubits_GS.json"])
print("GS layers measured :", layers["measured"])
print("GS layers predicted:", layers["predicted"])
layers = json.loads(series["layers_vs_qubits_BDGS.json"])
print("BDGS layers measured :", layers["measured"])

print("\nrerunning the plan reproduces the accuracy column exactly:")
again = gb.run_plan(plan)
match = [row.accuracy_pct for row in table.rows] == [row.accuracy_pct for row in again.rows]
print("  identical:", match)
