"""tools/bench_record.py reads the benchmark runner's output; fed canned text, nothing is timed."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

META = {"workload": "plan-jobs2", "seed": 1, "trace": 0, "smoke": False, "nproc": 2,
        "python": "3.11.7", "numpy": "2.4.6", "commit": "84df790"}


def runner_output(pass_s: float, correct: bool = True) -> str:
    """What ``perfbench/run.py --trace 0`` prints: meta, metric lines, the JSON result."""
    result = {
        "correct": correct,
        "attempted": 48,
        "failed": 0 if correct else 1,
        "metrics": {
            "pass_s": {"value": pass_s, "unit": "s"},
            "oracle_calls": {"value": 2222.0, "unit": "count"},
        },
    }
    return "\n".join([
        "meta " + json.dumps(META),
        "workload plan-jobs2: 3 passes of 16 cells (cell percentiles across 16 cells' "
        "fastest repeats), 6 set-ups",
        f"pass_s {pass_s:16.6f} s",
        "oracle_calls 2222.000000 count",
        f"failed_frac {0 if correct else 1 / 48:16.6f} ratio",
        json.dumps(result),
    ]) + "\n"


def test_a_good_run_gives_its_meta_and_every_metric():
    run = bench_record.parse_run(runner_output(0.0016), 0)
    assert run == {
        "exit": 0,
        "meta": META,
        "correct": True,
        "metrics": {"pass_s": 0.0016, "oracle_calls": 2222.0},
        "units": {"pass_s": "s", "oracle_calls": "count"},
    }


def test_a_failed_run_keeps_its_metrics_and_its_exit_code():
    run = bench_record.parse_run(runner_output(0.0017, correct=False), 1)
    assert (run["exit"], run["correct"], run["metrics"]["pass_s"]) == (1, False, 0.0017)


def test_an_unrunnable_run_has_no_metrics():
    # Exit 2: the runner refused before printing a meta or a result line.
    run = bench_record.parse_run("", 2)
    assert run == {"exit": 2, "meta": None, "correct": False, "metrics": {}, "units": {}}


def test_only_runs_that_exit_0_enter_the_medians():
    runs = [bench_record.parse_run(runner_output(value), 0) for value in (4.0, 1.0, 2.0, 3.0)]
    runs.append(bench_record.parse_run(runner_output(100.0, correct=False), 1))
    runs.append(bench_record.parse_run("", 2))
    for seed, run in enumerate(runs):
        run.update(seed=seed, numpy_import_s=0.1 * (seed + 1))
    summary = bench_record.summarize(runs)
    assert (summary["runs_ok"], summary["runs_failed"], summary["runs_unrunnable"]) == (4, 1, 1)
    assert summary["metrics"]["pass_s"] == {
        "unit": "s", "median": 2.5, "q1": 1.75, "q3": 3.25, "iqr": 1.5, "n": 4,
    }
    assert summary["metrics"]["oracle_calls"]["iqr"] == 0.0
    assert summary["numpy_import_s"]["median"] == pytest.approx(0.35)
    assert [run["exit"] for run in summary["runs"]] == [0, 0, 0, 0, 1, 2]


def test_a_workload_with_no_good_run_has_no_metrics():
    summary = bench_record.summarize([{**bench_record.parse_run("", 2), "seed": 1}])
    assert (summary["runs_ok"], summary["metrics"], summary["numpy_import_s"]) == (0, {}, None)
