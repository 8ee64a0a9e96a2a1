"""The benchmark's tracer still finds every name it patches in the package."""

import importlib.util
from pathlib import Path

import groverbench as gb
import groverbench.cli  # noqa: F401  (install patches gb.cli)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_unpatches():
    tracing = _load_tracing()
    originals = {
        name: getattr(gb.search, name)
        for name in ("segment_partial_search", "uniform_state", "grover_iteration", "sample")
    }
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, gb)
        config = gb.SearchConfig(r=5, target=22, algorithm="BDGS", b=4, shots=1, seed=5)
        assert gb.bench.run_search(config).measured_index == 22
        # A compact run reads its plan; the dense reference searches its
        # three segments through the traced lookup.
        assert gb.search.layered_reference(config).measured_index == 22
    finally:
        tracer.unpatch()
    assert {name: getattr(gb.search, name) for name in originals} == originals
    names = {span[1] for span in tracer.spans}
    assert {"search.run_search", "search.run_bdgs", "search.segment_partial_search"} <= names
    summary = tracing.summarize(tracer, passes=1)
    assert summary["search.segment_partial_search.calls"] == 3
    # Every segment search is exact, so OracleSpec.query_index, which the
    # tracer still patches, is never called.
    assert summary["ops.oracle.classical_probes"] == 0
