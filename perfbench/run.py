"""groverbench's benchmark: three workloads, end-to-end metrics, a traced run per layer.

Run from the root of a source checkout (the package is imported from ``src``):

    python3 perfbench/run.py --workload dense-r20 --seed 1 --seconds 36 --trace 0

``--trace 0`` prints every end-to-end metric, measured with no tracing.
``--trace 1`` runs the same workload untraced and then traced, and prints
the per-layer metrics from the spans (see ``tracing.py``), including the
tracing overhead.  The last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
the run metadata and every metric with its unit.  The exit code is 1 when
any check failed and 2 when the benchmark cannot run at all.

Passes repeat while one more fits in ``--seconds``; an untraced run makes
at least two, so a pass longer than half of ``--seconds`` overruns it.
Set-up is timed in fresh interpreters, three times before the passes and
three times after, and reported as the median.  The BLAS thread setting is
left as the user gets it.

Every call the benchmark makes into the package is timed, and it repeats
once per pass.  A call's time is its fastest repeat in the run; ``pass_s``
and ``cpu_s`` add these up over the calls of one pass (two driver calls in
dense-r20, 2000 in layered-sweep, one ``groverbench run`` in plan-jobs2),
and the cell percentiles are taken across the cells' fastest repeats.  The
median and quartiles of whole passes are printed beside them.  On a shared
host the speed of a plain Python loop was seen to switch between levels
about 35% apart every few seconds: the median of a run follows whichever
level held longest and moved by 30% between runs, while the fastest repeat
tracks the undisturbed speed, the finer the repeats the better (Chen and
Revels, "Robust benchmarking in noisy environments", arXiv:1608.04295).
Noise only ever adds time.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 3  # fresh-interpreter set-ups before the passes, and again after
MAX_TRACED_SPANS = 300_000

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "cells_per_s": "1/s",
    "cell_p99_ms": "ms",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "oracle_calls": "count",
    "layers": "count",
    "accuracy_pct": "%",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    last = name.rsplit(".", 1)[-1]
    if last in ("calls", "classical_probes", "spans"):
        return "count"
    if last == "us_per_call":
        return "us"
    if "bytes" in last:
        return "bytes"
    if last == "gbps_computed":
        return "GB/s"
    if last.endswith("_s"):
        return "s"
    return "ratio"


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with ``q``% of the values at
    or below it, so always a measured value and never a blend of two."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100.0 * len(ordered)), 1) - 1]


def refuse(message: str) -> None:
    """Stop with exit code 2 and no result line: the benchmark cannot run."""
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_package():
    """Import groverbench from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "groverbench" / "__init__.py").is_file():
        refuse(f"no groverbench sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import groverbench
    import groverbench.cli  # noqa: F401 - the plan workload drives the CLI

    if Path(groverbench.__file__).resolve().parent != (src / "groverbench").resolve():
        refuse(f"imported groverbench from {groverbench.__file__}, not {src}")
    return groverbench


def setup(workload: str, seed: int, smoke: bool):
    """Import the package, build the workload's inputs, warm every driver up."""
    import_package()
    import workloads

    cls = workloads.WORKLOADS[workload]
    if cls is workloads.PlanJobs2:
        OUT_DIR.mkdir(exist_ok=True)
        instance = cls(seed, smoke, OUT_DIR / f"plan-{os.getpid()}")
    else:
        instance = cls(seed, smoke)
    workloads.warm_up()
    return instance


def probe_setup(args) -> list[float]:
    """Set-up seconds of fresh interpreters, each timing its own set-up."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        command.append("--smoke")
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(command, capture_output=True, text=True, timeout=120,
                              check=True, cwd=ROOT)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def measure(workload, seconds: float, passes: list, at_least: int,
            enough=lambda: False) -> None:
    """Run ``at_least`` passes, then more while one is expected to fit in ``seconds``.

    The process's peak RSS is read after the first pass, so the latency
    samples the benchmark keeps from later passes do not count in it.
    """
    start = time.perf_counter()
    for done in itertools.count(1):
        passes.append(workload.run_pass())
        if len(passes) == 1:
            passes[0].peak_rss_mb = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
        elapsed = time.perf_counter() - start
        if done >= at_least and (elapsed + passes[-1].wall_s > seconds or enough()):
            return


def metadata(gb, args) -> dict:
    import numpy

    def read(path: str, prefix: str = "") -> str:
        try:
            with open(path) as handle:
                for line in handle:
                    if line.startswith(prefix):
                        return line.split(":", 1)[-1].strip() if prefix else line.strip()
        except OSError:
            pass
        return "unknown"

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    threads = {key: os.environ[key] for key in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
               if key in os.environ}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "cpu_model": read("/proc/cpuinfo", "model name"),
        "l3_cache": read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "groverbench": gb.__version__,
        "blas": blas_name,
        "blas_threads": threads or "unset (library default)",
        "commit": git_commit(),
    }


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def fastest_repeats(passes: list, field: str) -> dict:
    """Each key's fastest value over the passes of ``field`` (a dict per pass)."""
    best: dict = {}
    for p in passes:
        for key, value in getattr(p, field).items():
            best[key] = min(best.get(key, value), value)
    return best


def pass_seconds(passes: list) -> float:
    return sum(wall for wall, _ in fastest_repeats(passes, "calls").values())


def end_to_end(passes: list, setup_s: float) -> dict[str, float]:
    calls = fastest_repeats(passes, "calls").values()
    latencies = list(fastest_repeats(passes, "latencies_s").values())
    pass_s = pass_seconds(passes)
    first = passes[0]
    return {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "cells_per_s": (first.attempted - max(p.failed for p in passes)) / pass_s,
        "cell_p99_ms": 1e3 * percentile(latencies, 99),
        "cpu_s": sum(cpu for _, cpu in calls),
        "peak_rss_mb": first.peak_rss_mb,
        "oracle_calls": float(first.oracle_calls),
        "layers": float(first.layers),
        "accuracy_pct": 100.0 * first.hits / first.shots if first.shots else 0.0,
    }


def check_determinism(passes: list) -> None:
    """Oracle calls, layers and hits must repeat exactly in every pass of a run;
    a difference means some seed depends on execution order."""
    for p in passes[1:]:
        if p.signature != passes[0].signature:
            p.fail("determinism", f"pass counts {p.signature} differ from the "
                                  f"first pass's {passes[0].signature}")


def traced_run(gb, workload, args, passes: list) -> dict[str, float]:
    import tracing
    import workloads

    half = args.seconds / 2.0
    measure(workload, half, passes, at_least=1)
    untraced = passes[:]
    tracer = tracing.Tracer()
    tracing.install(tracer, gb)
    try:
        measure(workload, half, passes, 1, lambda: len(tracer.spans) > MAX_TRACED_SPANS)
    finally:
        tracer.unpatch()
    traced = passes[len(untraced):]
    metrics = tracing.summarize(tracer, len(traced))
    traced_pass = pass_seconds(traced)
    untraced_pass = pass_seconds(untraced)
    metrics["trace.overhead_s"] = traced_pass - untraced_pass
    metrics["trace.overhead_frac"] = (traced_pass - untraced_pass) / untraced_pass
    metrics["trace.accounted_frac"] = (
        metrics.pop("trace.root_span_s") / statistics.mean(p.wall_s for p in traced)
    )

    metrics["bench.plan.speedup_vs_jobs1"] = 0.0
    if isinstance(workload, workloads.PlanJobs2):
        single = tracing.Tracer()
        tracing.install(single, gb)
        try:
            code, *_ = workload.run_once(jobs=1)
        finally:
            single.unpatch()
        if code != 0:
            traced[-1].fail("jobs1", f"single-threaded plan exited {code}")
        jobs1 = tracing.summarize(single, 1)["bench.run_plan.busy_s"]
        metrics["bench.plan.speedup_vs_jobs1"] = jobs1 / metrics["bench.run_plan.busy_s"]
    metrics["statevector.alloc_peak_bytes_per_iteration"] = float(
        workloads.alloc_peak_per_iteration(workload.alloc_qubits)
    )
    tracer.write(OUT_DIR / f"trace-{args.workload}.jsonl")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=["dense-r20", "layered-sweep", "plan-jobs2"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every workload to r <= 8 and a few cells")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if sys.flags.optimize:
        refuse("refusing to run under python -O: it strips the norm assert in "
               "invert_about_mean, so it would measure a different program")
    if args.setup_probe:
        start = time.perf_counter()
        setup(args.workload, args.seed, args.smoke)
        print(json.dumps({"setup_s": time.perf_counter() - start}))
        return 0

    workload = setup(args.workload, args.seed, args.smoke)
    import groverbench as gb

    meta = metadata(gb, args)
    print("meta " + json.dumps(meta))
    passes: list = []
    setups = [] if args.trace else probe_setup(args)
    try:
        if args.trace:
            metrics = traced_run(gb, workload, args, passes)
        else:
            # Two passes at least, so every call has a repeat to be the faster.
            measure(workload, args.seconds, passes, at_least=2)
        workload.verify(passes)
    finally:
        workload.close()
    check_determinism(passes)
    if args.trace:
        units = {name: layer_unit(name) for name in metrics}
        print(f"largest register {metrics['statevector.register_bytes_max']:.0f} bytes; "
              f"host L3 {meta['l3_cache']} (shared)")
    else:
        setups += probe_setup(args)
        metrics = end_to_end(passes, statistics.median(setups))
        units = END_TO_END

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"workload {args.workload}: {len(passes)} passes of {passes[0].attempted} cells "
          f"(cell percentiles across {len(passes[0].latencies_s)} cells' fastest repeats), "
          f"{len(setups)} set-ups")
    walls = [p.wall_s for p in passes]
    quartiles = statistics.quantiles(walls, n=4)
    print(f"pass wall seconds over {len(walls)} passes: fastest {min(walls):.6f}, quartiles "
          + ", ".join(f"{q:.6f}" for q in quartiles) + f", slowest {max(walls):.6f}")
    for name, value in metrics.items():
        print(f"{name:48s} {value:16.6f} {units[name]}")
    if not args.trace:
        # Printed, not gated: half of plan-jobs2's cells are sub-millisecond
        # layered searches that wait on the GIL behind the dense cells, so its
        # median cell sits on that gap and moved by 38% between runs.
        latencies = list(fastest_repeats(passes, "latencies_s").values())
        print(f"{'cell_p50_ms (not in BENCHMARK.json)':48s} "
              f"{1e3 * percentile(latencies, 50):16.6f} ms")
    print(f"{'failed_frac':48s} {failed / attempted:16.6f} ratio ({failed}/{attempted})")
    for p in passes:
        for problem in list(p.failures.values())[:5]:
            print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
