"""Record a checkout's benchmark as ``BENCH_<label>.json``: each metric's median and IQR.

Runs ``perfbench/run.py --trace 0`` in the checkout for each workload and
seed, one run at a time, and reads two lines of each run's standard output:
the ``meta {...}`` line (host, CPU, Python, numpy, BLAS, commit) and the
last line, the JSON result with every metric and its unit.  Before each run
it times one bare ``python -c "import numpy"``, so the run's ``setup_s``
can be read against the interpreter's own start-up.  The record adds the
libc version, which the runner does not print.

    python tools/bench_record.py --checkout . --label HEAD --seeds 1,2,3 --seconds 12

A run that exits 1 (a check failed) or 2 (the benchmark could not run) is
kept in the record with its exit code, but only runs that exit 0 enter the
medians.  Compare only ratios taken within one session: the host's speed
drifts between sessions.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("dense-r20", "layered-sweep", "plan-jobs2")


def parse_run(stdout: str, returncode: int) -> dict:
    """One runner invocation: its exit code, its ``meta`` line and its metrics.

    ``metrics`` maps each metric name to its value and ``units`` to its
    unit; both are empty when the run printed no JSON result line (exit 2).
    """
    lines = stdout.strip().splitlines()
    meta = next((json.loads(line[len("meta "):]) for line in lines if line.startswith("meta ")), None)
    result = {}
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    metrics = result.get("metrics", {})
    return {
        "exit": returncode,
        "meta": meta,
        "correct": result.get("correct", False),
        "metrics": {name: entry["value"] for name, entry in metrics.items()},
        "units": {name: entry["unit"] for name, entry in metrics.items()},
    }


def spread(values: list[float]) -> dict:
    """Median, quartiles and IQR of ``values``; one value has an IQR of 0."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1,
            "n": len(values)}


def summarize(runs: list[dict]) -> dict:
    """A workload's runs and each metric's spread over the runs that exited 0."""
    good = [run for run in runs if run["exit"] == 0 and run["metrics"]]
    metrics = {}
    for name in good[0]["metrics"] if good else []:
        metrics[name] = {"unit": good[0]["units"][name],
                         **spread([run["metrics"][name] for run in good])}
    probes = [run["numpy_import_s"] for run in runs if "numpy_import_s" in run]
    return {
        "runs_ok": len(good),
        "runs_failed": sum(run["exit"] == 1 for run in runs),
        "runs_unrunnable": sum(run["exit"] not in (0, 1) for run in runs),
        "metrics": metrics,
        "numpy_import_s": spread(probes) if probes else None,
        "runs": [{key: run.get(key) for key in ("seed", "exit", "correct", "numpy_import_s",
                                                "metrics")} for run in runs],
    }


def numpy_import_seconds() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--checkout", default=".", help="source checkout to benchmark")
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--out-dir", default=".", help="directory the record is written to")
    args = parser.parse_args(argv)

    checkout = Path(args.checkout).resolve()
    seeds = [int(seed) for seed in args.seeds.split(",")]
    runs: dict[str, list[dict]] = {workload: [] for workload in WORKLOADS}
    for seed in seeds:
        for workload in WORKLOADS:
            probe = numpy_import_seconds()
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=checkout, capture_output=True, text=True,
            )
            run = parse_run(done.stdout, done.returncode)
            run.update(seed=seed, numpy_import_s=probe)
            runs[workload].append(run)
            print(f"{workload} seed {seed}: exit {done.returncode}", file=sys.stderr)

    metas = [run["meta"] for workload_runs in runs.values() for run in workload_runs if run["meta"]]
    host = {key: value for key, value in metas[0].items()
            if key not in ("workload", "seed", "trace", "smoke")} if metas else {}
    record = {
        "label": args.label,
        "libc": " ".join(platform.libc_ver()),
        "host": host,
        "seeds": seeds,
        "seconds": args.seconds,
        "workloads": {workload: summarize(workload_runs) for workload, workload_runs in runs.items()},
    }
    path = Path(args.out_dir) / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0 if all(run["exit"] == 0 for rs in runs.values() for run in rs) else 1


if __name__ == "__main__":
    sys.exit(main())
