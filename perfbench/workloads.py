"""The benchmark's three workloads, their inputs and their correctness checks.

* ``dense-r20``: one GS and one GRK (b = 4) cell at r = 20 per pass, called
  through the drivers directly.  Kernel-bound: about 1,434 oracle and
  diffusion iterations on 2**20 amplitudes, with both global and
  block-local inversion.
* ``layered-sweep``: DFGS and BDGS in compact mode, r from 5 to 24 and
  b in {4, 8}, one ``run_search`` call at a time in a closed loop.  Every
  register holds at most 8 amplitudes, so this measures per-call Python
  overhead in ``ops`` and ``search`` and the b = 8 retry path.
* ``plan-jobs2``: ``groverbench run`` in-process through ``cli.main`` on GS,
  GRK, DFGS and BDGS at r = 16 and 18 with ``--jobs 2``, exporting JSON and
  the scaling series.  The only workload that drives the thread pool, the
  exports and the CLI.

Inputs come from the workload seed alone.  A pass is the workload's fixed
cell list; only the calls into the package are timed, and each outcome is
checked afterwards.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import shutil
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import groverbench
import groverbench.cli
from groverbench import ops, search, statevector
from groverbench.ops import Algorithm

WARMUP_QUBITS = 6
LAYERED_REPEATS = 25  # 80 (algorithm, r, b) combinations: 2000 cells a pass
PLAN_ALGORITHMS = "GS,GRK,DFGS,BDGS"
PLAN_TRIALS = 2
PLAN_JOBS = 2
PLAN_SHOTS = 1024


@dataclass
class PassResult:
    """What one pass over a workload's cell list did and how long it took."""

    wall_s: float
    calls: dict  # call into the package -> (wall, cpu) seconds; a pass is their sum
    latencies_s: dict  # cell key -> seconds, timed around the search call
    attempted: int
    failures: dict = field(default_factory=dict)  # cell key -> first problem
    oracle_calls: int = 0
    layers: int = 0
    hits: int = 0
    shots: int = 0
    peak_rss_mb: float = 0.0

    @property
    def signature(self) -> tuple[int, int, int, int]:
        """The exact counts every pass of one run must repeat."""
        return (self.oracle_calls, self.layers, self.hits, self.shots)

    @property
    def failed(self) -> int:
        return min(len(self.failures), self.attempted)

    def fail(self, key, problem: str) -> None:
        self.failures.setdefault(key, problem)


def check_cell(config, outcome, resolved_block: int | None = None) -> str | None:
    """Return why one cell's outcome is wrong, or None when it is right."""
    r, algorithm = config.r, config.algorithm
    label = f"{algorithm.value} r={r} target={config.target} seed={config.seed}"
    if algorithm is Algorithm.GRK:
        shift = r - config.k
        block = outcome.measured_index >> shift if resolved_block is None else resolved_block
        if block != config.target >> shift:
            return f"{label}: resolved block {block}, expected {config.target >> shift}"
        bound = math.ceil(ops.grk_query_count(1 << r, config.b)) + 1
        if outcome.oracle_calls > bound:
            return f"{label}: {outcome.oracle_calls} oracle calls exceed bound {bound}"
        return None
    if outcome.measured_index != config.target:
        return f"{label}: measured {outcome.measured_index}"
    if algorithm is Algorithm.GS:
        expected = ops.optimal_iterations(1 << r)
        if outcome.oracle_calls != expected:
            return f"{label}: {outcome.oracle_calls} oracle calls, expected {expected}"
    else:
        expected = ops.predicted_layers(algorithm, r, config.k)
        if outcome.layers != expected:
            return f"{label}: {outcome.layers} layers, expected {expected}"
    return None


def warm_up() -> None:
    """One small cell per driver, so lazy imports and first calls are paid."""
    r = WARMUP_QUBITS
    target = (1 << r) - 3
    search.run_standard_grover(search.SearchConfig(r, target, Algorithm.GS))
    search.run_grk_partial(search.SearchConfig(r, target, Algorithm.GRK))
    search.run_dfgs(search.SearchConfig(r, target, Algorithm.DFGS))
    search.run_bdgs(search.SearchConfig(r, target, Algorithm.BDGS))


def alloc_peak_per_iteration(r: int) -> int:
    """Peak bytes traced by ``tracemalloc`` during one global ``grover_iteration``."""
    oracle = ops.OracleSpec(r, (1 << r) - 1)
    state = ops.grover_iteration(statevector.uniform_state(r), oracle)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ops.grover_iteration(state, oracle)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class _CellList:
    """A fixed list of configs run one call at a time in a closed loop."""

    alloc_qubits = 0

    def __init__(self, configs) -> None:
        self.configs = configs

    def _call(self, config):
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        outcomes = []
        calls = {}
        start = time.perf_counter()
        for index, config in enumerate(self.configs):
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                outcomes.append(self._call(config))
            except Exception as exc:  # noqa: BLE001 - a raising cell is a failed cell
                outcomes.append(exc)
            calls[index] = (time.perf_counter() - t0, time.process_time() - c0)
        wall = time.perf_counter() - start

        result = PassResult(wall, calls, {key: call[0] for key, call in calls.items()},
                            len(self.configs))
        for index, (config, item) in enumerate(zip(self.configs, outcomes)):
            if isinstance(item, Exception):
                result.fail(index, f"{config}: {type(item).__name__}: {item}")
                continue
            outcome, block = item
            problem = check_cell(config, outcome, block)
            if problem:
                result.fail(index, problem)
            result.oracle_calls += outcome.oracle_calls
            result.layers += outcome.layers
            result.hits += round(outcome.success_fraction * config.shots)
            result.shots += config.shots
        return result

    def verify(self, passes: list[PassResult]) -> None:
        """Checks that need every pass; per-cell checks ran in ``run_pass``."""

    def close(self) -> None:
        """Remove what the passes wrote."""


class DenseR20(_CellList):
    name = "dense-r20"

    def __init__(self, seed: int, smoke: bool) -> None:
        rng = random.Random(seed)
        self.alloc_qubits = r = 8 if smoke else 20
        super().__init__([
            search.SearchConfig(r, rng.randrange(1 << r), Algorithm.GS,
                                seed=rng.randrange(2**32)),
            search.SearchConfig(r, rng.randrange(1 << r), Algorithm.GRK, b=4,
                                seed=rng.randrange(2**32)),
        ])

    def _call(self, config):
        if config.algorithm is Algorithm.GRK:
            block, outcome = search.run_grk_partial(config)
            return outcome, block
        return search.run_standard_grover(config), None


class LayeredSweep(_CellList):
    name = "layered-sweep"

    def __init__(self, seed: int, smoke: bool) -> None:
        rng = random.Random(seed)
        top, repeats = (8, 4) if smoke else (24, LAYERED_REPEATS)
        self.alloc_qubits = 3  # widest compact register: one b = 8 segment
        # Every (algorithm, r, b) appears equally often, so the work in a pass
        # does not depend on the seed; targets, driver seeds and order do.
        grid = [(algorithm, r, b) for algorithm in (Algorithm.DFGS, Algorithm.BDGS)
                for r in range(5, top + 1) for b in (4, 8)] * repeats
        rng.shuffle(grid)
        super().__init__([
            search.SearchConfig(r, rng.randrange(1 << r), algorithm, b=b,
                                seed=rng.randrange(2**32))
            for algorithm, r, b in grid
        ])

    def _call(self, config):
        return search.run_search(config), None


def _cell_key(config) -> tuple:
    return (config.r, config.algorithm.value, config.b, config.target, config.seed)


@contextlib.contextmanager
def _cell_probe(records: list):
    """Time each plan cell from outside, at the ``run_search`` that bench looks up."""
    bench = groverbench.bench
    inner = bench.run_search

    def probe(config):
        t0 = time.perf_counter()
        outcome = inner(config)
        records.append((config, outcome, time.perf_counter() - t0))
        return outcome

    bench.run_search = probe
    try:
        yield
    finally:
        bench.run_search = inner


class PlanJobs2:
    name = "plan-jobs2"

    def __init__(self, seed: int, smoke: bool, out_dir: Path) -> None:
        self.qubits = [6, 8] if smoke else [16, 18]
        self.alloc_qubits = max(self.qubits)
        self.out_dir = out_dir
        self.cells = len(self.qubits) * 4 * PLAN_TRIALS
        self.base_seed = random.Random(seed).randrange(2**31)
        self.records: list[list] = []

    def argv(self, jobs: int) -> list[str]:
        return [
            "run", "--qubits", ",".join(map(str, self.qubits)), "--algo", PLAN_ALGORITHMS,
            "--trials", str(PLAN_TRIALS), "--shots", str(PLAN_SHOTS),
            "--seed", str(self.base_seed),
            "--jobs", str(jobs), "--format", "json", "--out", str(self.out_dir),
        ]

    def run_once(self, jobs: int) -> tuple[int, float, float, list]:
        """One in-process ``groverbench run``; returns (exit code, wall, cpu, cells)."""
        records: list = []
        with _cell_probe(records), contextlib.redirect_stdout(io.StringIO()):
            start_cpu = time.process_time()
            start = time.perf_counter()
            code = groverbench.cli.main(self.argv(jobs))
            wall = time.perf_counter() - start
            cpu = time.process_time() - start_cpu
        return code, wall, cpu, records

    def run_pass(self) -> PassResult:
        code, wall, cpu, records = self.run_once(PLAN_JOBS)
        self.records.append(records)
        result = PassResult(
            wall, {"groverbench run": (wall, cpu)},
            {_cell_key(config): seconds for config, _, seconds in records}, self.cells,
        )
        if code != 0:
            for index in range(self.cells):
                result.fail(index, f"groverbench run exited {code}")
            return result
        rows = json.loads((self.out_dir / "results.json").read_text())["rows"]
        per_group = Counter((row["qubits"], row["algorithm"]) for row in rows)
        expected = {(q, a): PLAN_TRIALS for q in self.qubits for a in PLAN_ALGORITHMS.split(",")}
        if len(rows) != self.cells or per_group != expected or len(records) != self.cells:
            for index in range(self.cells):
                result.fail(index, f"export has {len(rows)} rows and {len(records)} "
                                   f"cells ran, expected {self.cells} of each")
            return result
        for config, outcome, _ in records:
            problem = check_cell(config, outcome)
            if problem:
                result.fail(_cell_key(config), problem)
            result.oracle_calls += outcome.oracle_calls
            result.layers += outcome.layers
        for row in rows:
            result.hits += round(row["accuracy_pct"] * PLAN_SHOTS / 100)
            result.shots += PLAN_SHOTS
        return result

    def close(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def verify(self, passes: list[PassResult]) -> None:
        """Each plan cell's oracle calls must match the same config run alone."""
        reference = {}
        for records, result in zip(self.records, passes):
            for config, outcome, _ in records:
                key = _cell_key(config)
                if key not in reference:
                    reference[key] = search.run_search(config)
                ref = reference[key]
                if (outcome.oracle_calls, outcome.layers) != (ref.oracle_calls, ref.layers):
                    result.fail(
                        key,
                        f"{config.algorithm.value} r={config.r} seed={config.seed}: plan cell "
                        f"made {outcome.oracle_calls} calls in {outcome.layers} layers, "
                        f"run_search alone {ref.oracle_calls} in {ref.layers}"
                    )


WORKLOADS = {cls.name: cls for cls in (DenseR20, LayeredSweep, PlanJobs2)}
