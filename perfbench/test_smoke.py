"""Smoke test of the benchmark at small sizes (r <= 8, a few cells).

Runs every workload untraced and traced, and exercises every check.  Not
part of the package's test suite; run it from the root of the checkout:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_package()
import workloads  # noqa: E402
from groverbench import search  # noqa: E402
from groverbench.ops import Algorithm  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *extra], capture_output=True, text=True, timeout=170, cwd=cwd
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_workload_reports_every_metric(workload, trace):
    done = _run("perfbench/run.py", "--workload", workload, "--seed", "3",
                "--seconds", "1", "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_optimized_interpreter():
    done = _run("-O", "perfbench/run.py", "--workload", "dense-r20", "--seed", "1",
                "--seconds", "1", "--smoke")
    assert done.returncode != 0
    assert "python -O" in done.stderr


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("perfbench/run.py", "--workload", "dense-r20", "--seed", "1",
                "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _outcome(config, **changes):
    outcome = search.run_search(config)
    for name, value in changes.items():
        setattr(outcome, name, value)
    return outcome


@pytest.mark.parametrize("algorithm, changes", [
    (Algorithm.GS, {"measured_index": 1}),
    (Algorithm.GS, {"oracle_calls": 13}),
    (Algorithm.GRK, {"measured_index": 0}),
    (Algorithm.GRK, {"oracle_calls": 99}),
    (Algorithm.DFGS, {"measured_index": 1}),
    (Algorithm.DFGS, {"layers": 5}),
    (Algorithm.BDGS, {"layers": 1}),
])
def test_cell_checks_catch_wrong_outcomes(algorithm, changes):
    config = search.SearchConfig(8, 200, algorithm, b=4, seed=5)
    assert workloads.check_cell(config, search.run_search(config)) is None
    assert workloads.check_cell(config, _outcome(config, **changes))


def test_grk_check_uses_resolved_block():
    config = search.SearchConfig(8, 200, Algorithm.GRK, b=4, seed=5)
    block, outcome = search.run_grk_partial(config)
    assert workloads.check_cell(config, outcome, block) is None
    assert workloads.check_cell(config, outcome, block ^ 1)


def test_determinism_check_flags_a_differing_pass():
    passes = [workloads.PassResult(1.0, {0: (1.0, 1.0)}, {0: 1.0}, 1, oracle_calls=c)
              for c in (4, 4, 5)]
    run.check_determinism(passes)
    assert [p.failed for p in passes] == [0, 0, 1]


def test_plan_checks(tmp_path, monkeypatch):
    plan = workloads.PlanJobs2(3, True, tmp_path / "out")
    good = plan.run_pass()
    assert good.failed == 0 and good.attempted == plan.cells
    plan.verify([good])
    assert good.failed == 0

    # A cell whose oracle calls differ from the same config run alone.
    config, outcome, seconds = plan.records[0][0]
    plan.records[0][0] = (config, _outcome(config, oracle_calls=outcome.oracle_calls + 1),
                          seconds)
    plan.verify([good])
    assert good.failed == 1

    monkeypatch.setattr(workloads.groverbench.cli, "main", lambda argv: 1)
    assert plan.run_pass().failed == plan.cells
