"""Source-level rules for the package itself."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "groverbench"


def test_package_has_no_assert_statements():
    """``python -O`` strips ``assert``, so the package must not rely on one."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


# The drivers and their config, the predictors, the plan runner and its
# exports, and the dense kernels with the references the tests compare
# against.  A name added or dropped here is a change of the public API.
PUBLIC_API = {
    "AggregateRow", "Algorithm", "BasisPredicate", "ErrorRow", "ExperimentPlan",
    "MAX_QUBITS", "OracleSpec", "PredictedCost", "ResultTable", "SearchConfig",
    "SearchOutcome", "StateVector", "TrialRow",
    "basis_state", "bdgs_level_iterations", "bdgs_total_queries", "block_sums",
    "emit_scaling_series", "emit_table",
    "grk_query_count", "grk_reference_amplitudes", "grover_angle", "grover_iteration",
    "invert_about_mean", "layered_plan", "layered_reference", "operator_matrix",
    "optimal_iterations", "phase_flip", "predict_cost", "predicted_layers",
    "run_bdgs", "run_dfgs", "run_grk_partial", "run_plan", "run_search",
    "run_standard_grover", "sample", "segment_mask", "segment_partial_search",
    "uniform_state", "verify_outcome",
}


def test_package_exports_exactly_the_public_api():
    import types

    import groverbench

    exported = {
        name
        for name, value in vars(groverbench).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(PUBLIC_API) == 42
    assert exported == PUBLIC_API


# The package's caches, each carrying measured traffic: the layered runs'
# plan counts and GRK's schedule scan.  A cache added or dropped here is a
# change of what the package holds between calls.
CACHED = {"ops._plan_counts", "search._grk_schedule"}


def _is_cache(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    return name in ("lru_cache", "cache")


def test_package_caches_exactly_the_pinned_functions():
    cached = {
        f"{path.stem}.{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_is_cache(decorator) for decorator in node.decorator_list)
    }
    assert cached == CACHED
