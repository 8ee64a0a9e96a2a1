"""Experiment runner: seeded trial plans, result tables, and plot data.

A plan is a grid of (qubits, algorithm, trial) cells.  ``ExperimentPlan.cell``
alone derives a cell's search config: its seed, and its target unless the
plan fixes one, come from the base seed and the cell id alone, so plans are
reproducible and seeds do not depend on execution order.  Cells run one
after another in plan order.  Per-cell failures become error rows
instead of aborting the batch.  A result table holds the plan it ran:
its JSON export records the block size, shots, base seed and target,
and its scaling series take the block size from there.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, fields
from itertools import groupby

import numpy as np

from .ops import Algorithm, predicted_layers
from .search import SearchConfig, SearchOutcome, run_search

# The most cells one plan holds.  ``run_plan`` keeps every row in memory:
# a 2**14-cell run and its JSON export peaked 46 MiB above the import, about
# 2.4 KiB a cell, which puts a plan at the cap near 0.65 GiB.
MAX_PLAN_CELLS = 1 << 18


@dataclass
class ExperimentPlan:
    """Grid of benchmark cells plus the shared run protocol.

    ``target`` fixes the target index of every cell; ``None`` draws a
    random target per cell from the cell's seed.
    """

    qubit_list: list[int]
    algorithms: list[Algorithm]
    trials: int = 5
    shots: int = 1024
    base_seed: int = 0
    target: int | None = None
    block_size: int = 4

    def __post_init__(self) -> None:
        if not self.qubit_list:
            raise ValueError("plan needs at least one qubit count")
        if not self.algorithms:
            raise ValueError("plan needs at least one algorithm")
        self.algorithms = [Algorithm(a) for a in self.algorithms]
        if len(set(self.qubit_list)) < len(self.qubit_list):
            raise ValueError(f"qubit counts must be distinct, got {self.qubit_list}")
        if len(set(self.algorithms)) < len(self.algorithms):
            raise ValueError("algorithms must be distinct")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        cells = len(self.qubit_list) * len(self.algorithms) * self.trials
        if cells > MAX_PLAN_CELLS:
            raise ValueError(f"plan has {cells} cells, more than the cap of {MAX_PLAN_CELLS}")
        # A cell's config differs from this one only in a target and a seed,
        # and the cell draws both in range.
        target = 0 if self.target is None else self.target
        for qubits in self.qubit_list:
            for algorithm in self.algorithms:
                SearchConfig(
                    qubits, target, algorithm, self.block_size, self.shots, self.base_seed
                )

    def cell(self, qubits: int, algorithm: Algorithm, trial: int) -> SearchConfig:
        """The search config of one cell.

        One ``SeedSequence`` keyed by the base seed and the cell id gives
        the search seed and, when the plan draws targets, the target's
        seed, so streams never coincide across cells or base seeds.  Rejects
        a cell outside the plan's grid.
        """
        algorithm = Algorithm(algorithm)
        if not (
            qubits in self.qubit_list
            and algorithm in self.algorithms
            and 1 <= trial <= self.trials
        ):
            raise ValueError(
                f"cell ({qubits}, {algorithm.value}, {trial}) is not in the plan: "
                f"qubits {self.qubit_list}, algorithms "
                f"{[a.value for a in self.algorithms]}, trials 1..{self.trials}"
            )
        key = (qubits, list(Algorithm).index(algorithm), trial)
        sequence = np.random.SeedSequence(self.base_seed, spawn_key=key)
        seed, target_seed = sequence.generate_state(2, np.uint64)
        target = self.target
        if target is None:
            target = int(np.random.default_rng(target_seed).integers(0, 1 << qubits))
        return SearchConfig(qubits, target, algorithm, self.block_size, self.shots, int(seed))


@dataclass
class TrialRow:
    qubits: int
    algorithm: Algorithm
    trial: int
    accuracy_pct: float
    time_s: float
    hits: int = 0
    shots: int = 0
    layers: int = 0
    oracle_calls: int = 0


@dataclass
class AggregateRow:
    qubits: int
    algorithm: Algorithm
    accuracy_pct: float
    time_s: float


@dataclass
class ErrorRow:
    qubits: int
    algorithm: Algorithm
    trial: int
    message: str


@dataclass
class ResultTable:
    """The plan a run executed, its trial rows and exact per-(qubits, algorithm) aggregates."""

    plan: ExperimentPlan
    rows: list[TrialRow] = field(default_factory=list)
    aggregates: list[AggregateRow] = field(default_factory=list)
    errors: list[ErrorRow] = field(default_factory=list)

    @classmethod
    def from_rows(
        cls, plan: ExperimentPlan, rows: list[TrialRow], errors: list[ErrorRow]
    ) -> "ResultTable":
        groups: dict[tuple[int, Algorithm], list[TrialRow]] = {}
        for row in rows:
            groups.setdefault((row.qubits, row.algorithm), []).append(row)
        aggregates = []
        for (qubits, algorithm), members in groups.items():
            # Exact mean: accumulate integer hit counts, divide once.
            hits = sum(row.hits for row in members)
            shots = sum(row.shots for row in members)
            aggregates.append(
                AggregateRow(
                    qubits=qubits,
                    algorithm=algorithm,
                    accuracy_pct=100.0 * hits / shots,
                    time_s=sum(row.time_s for row in members) / len(members),
                )
            )
        return cls(plan=plan, rows=rows, aggregates=aggregates, errors=errors)


def _run_cell(
    plan: ExperimentPlan, qubits: int, algorithm: Algorithm, trial: int
) -> TrialRow:
    outcome: SearchOutcome = run_search(plan.cell(qubits, algorithm, trial))
    hits = round(outcome.success_fraction * plan.shots)
    return TrialRow(
        qubits=qubits,
        algorithm=algorithm,
        trial=trial,
        accuracy_pct=100.0 * hits / plan.shots,
        time_s=outcome.wall_time,
        hits=hits,
        shots=plan.shots,
        layers=outcome.layers,
        oracle_calls=outcome.oracle_calls,
    )


def run_plan(plan: ExperimentPlan) -> ResultTable:
    """Execute every cell in plan order; failures become error rows."""
    rows: list[TrialRow] = []
    errors: list[ErrorRow] = []
    for qubits in plan.qubit_list:
        for algorithm in plan.algorithms:
            for trial in range(1, plan.trials + 1):
                try:
                    rows.append(_run_cell(plan, qubits, algorithm, trial))
                except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
                    errors.append(
                        ErrorRow(qubits, algorithm, trial, f"{type(exc).__name__}: {exc}")
                    )
    return ResultTable.from_rows(plan, rows, errors)


# ---------------------------------------------------------------------------
# Export


# Every export writes a row's dataclass fields in declaration order;
# ``Algorithm`` is a str enum, so csv and json write it as "GS", "GRK", ...
CSV_COLUMNS = [f.name for f in fields(TrialRow)]


def _fields(obj) -> dict:
    """A dataclass's fields by name, in declaration order; values are not copied."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _table_csv(table: ResultTable) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, CSV_COLUMNS)
    writer.writeheader()
    writer.writerows(_fields(row) for row in table.rows)
    return buffer.getvalue()


def _table_markdown(table: ResultTable) -> str:
    algorithms = []
    for row in table.rows:
        if row.algorithm not in algorithms:
            algorithms.append(row.algorithm)
    header = ["Qubits", "Trial"]
    for algorithm in algorithms:
        header += [f"{algorithm.value} Acc.", f"{algorithm.value} Time(s)"]
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "|".join(["---"] * len(header)) + "|",
    ]
    # Each trial row under its trial number, each group's aggregate under "Avg.".
    by_cell = {(row.qubits, row.algorithm, row.trial): row for row in table.rows}
    by_cell.update({(agg.qubits, agg.algorithm, "Avg."): agg for agg in table.aggregates})
    trials = [*sorted({row.trial for row in table.rows}), "Avg."]
    for qubits in sorted({row.qubits for row in table.rows}):
        for trial in trials:
            cells = [str(qubits), str(trial)]
            for algorithm in algorithms:
                row = by_cell.get((qubits, algorithm, trial))
                if row is None:
                    cells += ["err", "err"]
                else:
                    cells += [f"{row.accuracy_pct:.2f}", f"{row.time_s:.5f}"]
            lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def emit_table(table: ResultTable, format: str) -> bytes:
    """Serialize the table as ``csv``, ``json``, or ``markdown``."""
    if format == "csv":
        return _table_csv(table).encode()
    if format == "json":
        document = {
            "plan": _fields(table.plan),
            "rows": [_fields(row) for row in table.rows],
            "aggregates": [_fields(agg) for agg in table.aggregates],
            "errors": [_fields(err) for err in table.errors],
        }
        return json.dumps(document, indent=2).encode()
    if format == "markdown":
        return _table_markdown(table).encode()
    raise ValueError(f"unknown table format {format!r}")


def emit_scaling_series(table: ResultTable) -> dict[str, bytes]:
    """Per-algorithm scaling series: runtime and layer counts versus qubits.

    Returns a mapping of file name to JSON bytes, two files per
    algorithm, read from the table's aggregates; a group's layer count is
    its first row's.  The layer file carries the closed-form prediction
    at the block size of the table's plan next to the measured counters
    so external plots can overlay them.  Aggregates of fewer than two
    qubit counts give no files: a single point has no scaling shape.
    """
    if len({agg.qubits for agg in table.aggregates}) < 2:
        return {}
    k = table.plan.block_size.bit_length() - 1
    # Read in reverse, so the first row of each group writes last.
    first_layers = {(row.qubits, row.algorithm): row.layers for row in reversed(table.rows)}
    files: dict[str, bytes] = {}
    aggregates = sorted(table.aggregates, key=lambda agg: (agg.algorithm.value, agg.qubits))
    for algorithm, members in groupby(aggregates, key=lambda agg: agg.algorithm):
        groups = list(members)
        layer_payload: dict = {
            "algorithm": algorithm.value,
            "unit": "layers",
            "measured": [[agg.qubits, first_layers[agg.qubits, algorithm]] for agg in groups],
        }
        if algorithm is not Algorithm.GRK:
            layer_payload["predicted"] = [
                [agg.qubits, predicted_layers(algorithm, agg.qubits, k)] for agg in groups
            ]
        runtime = [[agg.qubits, agg.time_s] for agg in groups]
        files[f"layers_vs_qubits_{algorithm.value}.json"] = json.dumps(
            layer_payload, indent=2
        ).encode()
        files[f"runtime_vs_qubits_{algorithm.value}.json"] = json.dumps(
            {"algorithm": algorithm.value, "unit": "seconds", "measured": runtime},
            indent=2,
        ).encode()
    return files
