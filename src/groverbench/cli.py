"""Command-line front end for plans, single searches, and cost predictions."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .bench import ExperimentPlan, emit_scaling_series, emit_table, run_plan
from .ops import Algorithm, predict_cost
from .search import run_search, verify_outcome

_FORMAT_EXT = {"csv": "csv", "json": "json", "markdown": "md"}

# Outputs are overwritten in place and then cut to length, never opened
# with O_TRUNC: on ext4, closing a file truncated to zero starts its
# writeback at once (auto_da_alloc), which cost more than a plan's searches.
_OUTPUT_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def _algorithm(token: str) -> Algorithm:
    try:
        return Algorithm(token.strip().upper())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unknown algorithm {token!r}; choose from GS, GRK, DFGS, BDGS"
        ) from None


def _algorithm_list(text: str) -> list[Algorithm]:
    return [_algorithm(token) for token in text.split(",") if token.strip()]


def _int_list(text: str) -> list[int]:
    try:
        return [int(token) for token in text.split(",") if token.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groverbench",
        description="Benchmark standard, block-partial, depth-first, and "
        "bi-directional amplitude-amplification search on a statevector simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_cmd = sub.add_parser("run", help="execute a trial plan and export tables")
    # String defaults go through ``type`` on every parse, so no parse
    # shares a list with another.
    run_cmd.add_argument("--qubits", type=_int_list, default="4,8,16,20")
    run_cmd.add_argument("--algo", type=_algorithm_list, default="GS,DFGS,BDGS")
    run_cmd.add_argument("--trials", type=int, default=5)
    run_cmd.add_argument("--shots", type=int, default=1024)
    run_cmd.add_argument("--seed", type=int, default=0)
    run_cmd.add_argument("--block-size", type=int, default=4)
    run_cmd.add_argument("--target", type=int, default=None,
                         help="fixed target index (default: random per trial)")
    run_cmd.add_argument("--format", choices=sorted(_FORMAT_EXT), default="csv")
    run_cmd.add_argument("--out", default=None,
                         help="output directory (default: $GROVERBENCH_OUT or cwd)")
    run_cmd.add_argument("--jobs", type=int, default=1,
                         help="accepted for compatibility; must be >= 1 and has no "
                         "other effect (cells run one after another)")

    search_cmd = sub.add_parser("search", help="run one search and print the outcome")
    search_cmd.add_argument("--qubits", type=int, required=True)
    search_cmd.add_argument("--algo", type=_algorithm, default=Algorithm.GS)
    search_cmd.add_argument("--target", type=int, default=None,
                            help="target index (default: the target of trial 1 "
                            "of a plan run with the same seed)")
    search_cmd.add_argument("--shots", type=int, default=1024)
    search_cmd.add_argument("--seed", type=int, default=0)
    search_cmd.add_argument("--block-size", type=int, default=4)

    predict_cmd = sub.add_parser("predict", help="print closed-form cost predictions")
    predict_cmd.add_argument("--qubits", type=int, required=True)
    predict_cmd.add_argument("--algo", type=_algorithm, required=True)
    predict_cmd.add_argument("--block-size", type=int, default=4)

    return parser


# Built once per process: a parse leaves the parser as it found it.
_PARSER = build_parser()


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        plan = ExperimentPlan(
            qubit_list=args.qubits,
            algorithms=args.algo,
            trials=args.trials,
            shots=args.shots,
            base_seed=args.seed,
            target=args.target,
            block_size=args.block_size,
        )
        if args.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {args.jobs}")
    except ValueError as exc:
        print(f"invalid plan: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out or os.environ.get("GROVERBENCH_OUT") or ".")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"invalid output directory: {exc}", file=sys.stderr)
        return 2

    table = run_plan(plan)  # a failing cell becomes an error row
    outputs = {f"results.{_FORMAT_EXT[args.format]}": emit_table(table, args.format)}
    outputs.update(emit_scaling_series(table))
    for agg in table.aggregates:
        print(
            f"{agg.qubits:>2} qubits {agg.algorithm.value:<4} "
            f"accuracy {agg.accuracy_pct:6.2f}%  mean time {agg.time_s:.5f}s"
        )
    # Each file is reported as it lands, so a failed write leaves on stdout
    # exactly the files this run wrote.
    try:
        for name, payload in outputs.items():
            with open(os.open(out_dir / name, _OUTPUT_FLAGS, 0o666), "wb") as file:
                file.write(payload)
                file.truncate()
            print(f"wrote {out_dir / name}")
    except OSError as exc:
        print(f"invalid output directory: {exc}", file=sys.stderr)
        return 2
    if table.errors:
        for err in table.errors:
            print(
                f"cell failed: r={err.qubits} {err.algorithm.value} "
                f"trial {err.trial}: {err.message}",
                file=sys.stderr,
            )
        return 1
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    # The one-cell plan of these flags validates them as a plan does, and
    # its trial 1 gives the default target; the search keeps --seed.
    try:
        plan = ExperimentPlan(
            qubit_list=[args.qubits],
            algorithms=[args.algo],
            trials=1,
            shots=args.shots,
            base_seed=args.seed,
            target=args.target,
            block_size=args.block_size,
        )
        config = replace(plan.cell(args.qubits, args.algo, 1), seed=args.seed)
    except ValueError as exc:
        print(f"invalid search config: {exc}", file=sys.stderr)
        return 2

    outcome = run_search(config)
    report = {
        "algorithm": config.algorithm.value,
        "r": config.r,
        "target": config.target,
        "outcome": asdict(outcome),
        "verified": verify_outcome(outcome, config),
    }
    print(json.dumps(report, indent=2))
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    b = args.block_size
    try:
        cost = predict_cost(args.algo, args.qubits, b)
    except ValueError as exc:
        print(f"invalid prediction request: {exc}", file=sys.stderr)
        return 2
    print(
        json.dumps(
            {
                "algorithm": cost.algorithm.value,
                "r": args.qubits,
                "b": b,
                "k": b.bit_length() - 1,
                "layers": cost.layers,
                "oracle_calls_bound": cost.oracle_calls,
                "oracle_model": cost.oracle_model,
            },
            indent=2,
        )
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "search":
        return _cmd_search(args)
    return _cmd_predict(args)


if __name__ == "__main__":
    sys.exit(main())
