"""Statevector simulation and benchmarks for amplitude-amplification search.

Covers the standard full-register search, block-partial search (GRK),
depth-first layered search (DFGS), and bi-directional layered search
(BDGS), together with the closed-form cost predictors and a seeded
benchmark harness.
"""

from .bench import (
    AggregateRow,
    ErrorRow,
    ExperimentPlan,
    ResultTable,
    TrialRow,
    emit_scaling_series,
    emit_table,
    run_plan,
)
from .ops import (
    Algorithm,
    OracleSpec,
    PredictedCost,
    bdgs_level_iterations,
    bdgs_total_queries,
    grk_query_count,
    grover_angle,
    grover_iteration,
    layered_plan,
    optimal_iterations,
    predict_cost,
    predicted_layers,
)
from .search import (
    SearchConfig,
    SearchOutcome,
    grk_reference_amplitudes,
    layered_reference,
    run_bdgs,
    run_dfgs,
    run_grk_partial,
    run_search,
    run_standard_grover,
    segment_partial_search,
    verify_outcome,
)
from .statevector import (
    MAX_QUBITS,
    BasisPredicate,
    StateVector,
    basis_state,
    block_sums,
    invert_about_mean,
    operator_matrix,
    phase_flip,
    sample,
    segment_mask,
    uniform_state,
)

__version__ = "0.1.0"
