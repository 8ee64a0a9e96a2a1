"""Plan execution, exact aggregation, exports, and cell isolation."""

import csv
import dataclasses
import hashlib
import io
import json

import numpy as np
import pytest

import groverbench as gb
from groverbench.bench import CSV_COLUMNS, MAX_PLAN_CELLS


def small_plan(**overrides):
    base = dict(
        qubit_list=[4, 8],
        algorithms=["GS", "DFGS", "BDGS"],
        trials=2,
        shots=256,
        base_seed=7,
    )
    base.update(overrides)
    return gb.ExperimentPlan(**base)


def test_cell_seed_stable_and_distinct():
    plan = small_plan()
    seed = plan.cell(4, gb.Algorithm.GS, 1).seed
    assert seed == small_plan().cell(4, gb.Algorithm.GS, 1).seed
    others = {
        plan.cell(4, gb.Algorithm.GS, 2).seed,
        plan.cell(8, gb.Algorithm.GS, 1).seed,
        plan.cell(4, gb.Algorithm.BDGS, 1).seed,
    }
    assert seed not in others
    assert len(others) == 3


@pytest.mark.parametrize(
    "qubits, algorithm, trial",
    [(5, "GS", 1), (4, "GRK", 1), (4, "GS", 0), (4, "GS", 3), (8, "BDGS", -1)],
)
def test_a_cell_outside_the_plan_is_rejected(qubits, algorithm, trial):
    # Qubits off the plan's list, an algorithm it does not run and a trial
    # outside 1..trials each get one line that names the cell.
    with pytest.raises(ValueError) as excinfo:
        small_plan().cell(qubits, algorithm, trial)
    message = str(excinfo.value)
    assert message.startswith(f"cell ({qubits}, {algorithm}, {trial}) is not in the plan")
    assert "\n" not in message


def test_cell_seeds_independent_across_base_seeds(monkeypatch):
    """Neighbouring base seeds share no search (shot) seed and no target seed."""
    import groverbench.bench as bench

    shot_seeds: list[int] = []
    target_seeds: list[int] = []
    real_rng = np.random.default_rng

    def recording_rng(seed=None):
        target_seeds.append(int(seed))
        return real_rng(seed)

    def fake_search(config):
        shot_seeds.append(config.seed)
        return gb.SearchOutcome(config.target, 1.0, 1, 1, 0.0, config.seed, 1.0)

    monkeypatch.setattr(bench, "run_search", fake_search)
    monkeypatch.setattr(np.random, "default_rng", recording_rng)
    streams = []
    for base_seed in (7, 8):
        shot_seeds.clear()
        target_seeds.clear()
        gb.run_plan(small_plan(base_seed=base_seed, algorithms=["GS", "GRK", "DFGS", "BDGS"]))
        assert len(shot_seeds) == len(target_seeds) == 2 * 4 * 2
        streams.append(set(shot_seeds) | set(target_seeds))
    assert all(len(seeds) == 2 * 2 * 4 * 2 for seeds in streams)
    assert not streams[0] & streams[1]


def test_run_plan_single_cell():
    plan = gb.ExperimentPlan(qubit_list=[4], algorithms=["BDGS"], trials=1, shots=64, base_seed=1)
    table = gb.run_plan(plan)
    assert len(table.rows) == 1
    row = table.rows[0]
    assert row.accuracy_pct == 100.0
    assert row.layers == 1
    assert not table.errors


def test_run_plan_shape_and_aggregates():
    table = gb.run_plan(small_plan())
    assert len(table.rows) == 2 * 3 * 2
    assert len(table.aggregates) == 2 * 3
    for agg in table.aggregates:
        members = [
            row
            for row in table.rows
            if row.qubits == agg.qubits and row.algorithm == agg.algorithm
        ]
        mean = sum(row.accuracy_pct for row in members) / len(members)
        assert abs(agg.accuracy_pct - mean) < 1e-12
        if agg.algorithm in (gb.Algorithm.DFGS, gb.Algorithm.BDGS):
            assert agg.accuracy_pct == 100.0


def test_run_plan_deterministic():
    first = gb.run_plan(small_plan())
    second = gb.run_plan(small_plan())
    assert [row.accuracy_pct for row in first.rows] == [
        row.accuracy_pct for row in second.rows
    ]
    assert [row.oracle_calls for row in first.rows] == [
        row.oracle_calls for row in second.rows
    ]


def test_run_plan_runs_cells_in_plan_order_on_the_calling_thread(monkeypatch):
    import threading

    import groverbench.bench as bench

    real = bench.run_search
    calls = []

    def recording(config):
        calls.append((config.seed, threading.get_ident()))
        return real(config)

    monkeypatch.setattr(bench, "run_search", recording)
    table = gb.run_plan(small_plan())
    # Qubits, then algorithm, then trial.
    cells = [
        (qubits, algorithm, trial)
        for qubits in (4, 8)
        for algorithm in (gb.Algorithm.GS, gb.Algorithm.DFGS, gb.Algorithm.BDGS)
        for trial in (1, 2)
    ]
    # A cell's search seed names its trial too.
    caller = threading.get_ident()
    assert calls == [(small_plan().cell(*cell).seed, caller) for cell in cells]
    assert [(row.qubits, row.algorithm, row.trial) for row in table.rows] == cells


@pytest.mark.parametrize("target", [None, 3])
def test_a_plan_cell_derives_its_seeds_once(monkeypatch, target):
    # One SeedSequence per cell gives its search seed and, when the plan
    # draws targets, its target seed; the run searches plan.cell's config.
    import groverbench.bench as bench

    real_sequence, real_search = np.random.SeedSequence, bench.run_search
    builds, configs = [], []

    def counting(*args, **kwargs):
        builds.append(kwargs["spawn_key"])
        return real_sequence(*args, **kwargs)

    def recording(config):
        configs.append(config)
        return real_search(config)

    monkeypatch.setattr(np.random, "SeedSequence", counting)
    monkeypatch.setattr(bench, "run_search", recording)
    plan = small_plan(target=target, algorithms=["GS", "GRK", "DFGS", "BDGS"])
    table = gb.run_plan(plan)
    assert len(builds) == len(set(builds)) == len(configs) == 2 * 4 * 2
    assert not table.errors
    for config, row in zip(configs, table.rows):
        assert config == plan.cell(row.qubits, row.algorithm, row.trial)
        assert target is None or config.target == target
    assert len(builds) == 2 * 2 * 4 * 2  # plan.cell's own calls build one each too


# Pinned under numpy 2.4.6, Python 3.11.7 and glibc 2.36.  A cell's seed is
# a word of ``SeedSequence.generate_state``, whose stream numpy keeps stable
# across releases.  A drawn target comes from ``Generator.integers`` and the
# hits from ``Generator.binomial``: distribution methods, which numpy may
# change between releases, like the other sampled pins.
_PINNED_CELLS = {
    # (base_seed, qubits, algorithm, trial, plan target): (seed, target)
    (7, 4, "GS", 1, None): (3277017336855510558, 14),
    (7, 4, "GRK", 2, None): (16209623778547985216, 8),
    (7, 20, "DFGS", 1, None): (18092000915145583756, 228312),
    (7, 20, "BDGS", 3, 12345): (5605745049496996085, 12345),
    (2**31 - 1, 4, "BDGS", 1, None): (14496612320569527911, 0),
    (2**31 - 1, 4, "DFGS", 2, 5): (17785476768342621518, 5),
    (2**31 - 1, 20, "GS", 1, None): (5675451054435432297, 331558),
    (2**31 - 1, 20, "GRK", 2, None): (16737459563567520208, 343722),
}

_PINNED_PLAN_ROWS = [
    # small_plan with all four algorithms: (qubits, algorithm, trial, hits, layers, oracle_calls)
    (4, "GS", 1, 248, 3, 3), (4, "GS", 2, 249, 3, 3),
    (4, "GRK", 1, 256, 3, 3), (4, "GRK", 2, 256, 3, 3),
    (4, "DFGS", 1, 256, 2, 2), (4, "DFGS", 2, 256, 2, 2),
    (4, "BDGS", 1, 256, 1, 2), (4, "BDGS", 2, 256, 1, 2),
    (8, "GS", 1, 256, 12, 12), (8, "GS", 2, 256, 12, 12),
    (8, "GRK", 1, 256, 10, 10), (8, "GRK", 2, 256, 10, 10),
    (8, "DFGS", 1, 256, 4, 4), (8, "DFGS", 2, 256, 4, 4),
    (8, "BDGS", 1, 256, 2, 4), (8, "BDGS", 2, 256, 2, 4),
]


def test_plan_cells_match_the_pinned_table(monkeypatch):
    # Each cell is read off the config its plan hands the search, so the
    # table pins what a run does, whichever helper derives it.
    import groverbench.bench as bench

    real = bench.run_search
    configs = []

    def recording(config):
        configs.append(config)
        return real(config)

    monkeypatch.setattr(bench, "run_search", recording)
    cells = {}
    for base_seed, qubits, algorithm, trial, target in _PINNED_CELLS:
        plan = gb.ExperimentPlan(
            [qubits], [algorithm], trials=trial, base_seed=base_seed, target=target
        )
        assert not gb.run_plan(plan).errors
        cells[base_seed, qubits, algorithm, trial, target] = (
            configs[-1].seed, configs[-1].target
        )
    assert cells == _PINNED_CELLS
    table = gb.run_plan(small_plan(algorithms=["GS", "GRK", "DFGS", "BDGS"]))
    assert not table.errors
    assert [
        (row.qubits, row.algorithm.value, row.trial, row.hits, row.layers, row.oracle_calls)
        for row in table.rows
    ] == _PINNED_PLAN_ROWS


def test_run_plan_fixed_target(monkeypatch):
    import groverbench.bench as bench

    real = bench.run_search
    targets = []

    def recording(config):
        targets.append(config.target)
        return real(config)

    monkeypatch.setattr(bench, "run_search", recording)
    plan = small_plan(qubit_list=[4], target=9, algorithms=["BDGS"])
    table = gb.run_plan(plan)
    assert targets == [9, 9]
    assert all(row.accuracy_pct == 100.0 for row in table.rows)


def test_run_plan_records_error_rows(monkeypatch):
    calls = {"n": 0}

    def flaky(config):
        calls["n"] += 1
        if config.algorithm is gb.Algorithm.GS and config.r == 8:
            raise RuntimeError("induced failure")
        return real(config)

    import groverbench.bench as bench

    real = bench.run_search
    monkeypatch.setattr(bench, "run_search", flaky)
    table = gb.run_plan(small_plan())
    assert len(table.errors) == 2  # two GS trials at r=8
    assert all("induced failure" in err.message for err in table.errors)
    assert len(table.rows) == 10  # the other cells still completed


@pytest.mark.parametrize(
    "field, value",
    [("trials", 2.0), ("trials", True), ("base_seed", 1.5), ("shots", 2.5), ("block_size", 4.0),
     ("target", 3.0)],
)
def test_a_plan_rejects_a_field_that_is_not_an_integer(field, value):
    # Rejected before any cell runs: a fractional base seed used to pass
    # validation and turn every cell into an error row.  A field the plan
    # hands to SearchConfig is named as SearchConfig names it.
    name = {"base_seed": "seed", "block_size": "b"}.get(field, field)
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value!r}$"):
        gb.ExperimentPlan(qubit_list=[4], algorithms=["GS"], **{field: value})


def test_plan_validation():
    from groverbench.statevector import MAX_QUBITS

    with pytest.raises(ValueError):
        gb.ExperimentPlan(qubit_list=[], algorithms=["GS"])
    # The plan takes its qubit range from SearchConfig, so GS runs at r = 1.
    for qubits in (0, MAX_QUBITS + 1):
        with pytest.raises(ValueError, match=rf"qubit count must be in \[1, {MAX_QUBITS}\]"):
            gb.ExperimentPlan(qubit_list=[qubits], algorithms=["GS"])
    gb.ExperimentPlan(qubit_list=[1], algorithms=["GS"])
    gb.ExperimentPlan(qubit_list=[2, MAX_QUBITS], algorithms=["GS"])
    with pytest.raises(ValueError):
        gb.ExperimentPlan(qubit_list=[4], algorithms=[])
    with pytest.raises(ValueError):
        gb.ExperimentPlan(qubit_list=[4], algorithms=["GS"], trials=0)
    with pytest.raises(ValueError):
        gb.ExperimentPlan(qubit_list=[4], algorithms=["GS"], target=16)
    with pytest.raises(ValueError):
        gb.ExperimentPlan(qubit_list=[4], algorithms=["GS"], base_seed=-1)
    with pytest.raises(ValueError, match="power of two"):
        gb.ExperimentPlan(qubit_list=[4], algorithms=["GS"], block_size=3)
    with pytest.raises(ValueError, match="index space"):
        gb.ExperimentPlan(qubit_list=[2, 8], algorithms=["DFGS"], block_size=8)
    # GRK needs two items per block at every r of the plan, not just the largest.
    with pytest.raises(ValueError, match="two items per block"):
        gb.ExperimentPlan(qubit_list=[8, 4], algorithms=["BDGS", "GRK"], block_size=16)
    gb.ExperimentPlan(qubit_list=[4, 8], algorithms=["GRK"], block_size=8)


@pytest.mark.parametrize(
    "qubits, trials", [([4], MAX_PLAN_CELLS + 1), ([4, 6, 8, 10, 12], 52429)]
)
def test_a_plan_one_cell_above_the_cap_is_rejected(qubits, trials):
    # 5 * 52429 = 2**18 + 1: the cap counts cells, not trials.
    assert MAX_PLAN_CELLS == 1 << 18
    assert len(qubits) * trials == MAX_PLAN_CELLS + 1
    message = rf"^plan has {MAX_PLAN_CELLS + 1} cells, more than the cap of {MAX_PLAN_CELLS}$"
    with pytest.raises(ValueError, match=message):
        gb.ExperimentPlan(qubit_list=qubits, algorithms=["GS"], trials=trials)
    gb.ExperimentPlan(qubit_list=[4], algorithms=["GS"], trials=MAX_PLAN_CELLS)
    # A repeated qubit count or algorithm would run the same cells twice.
    with pytest.raises(ValueError, match="qubit counts must be distinct"):
        gb.ExperimentPlan(qubit_list=[4, 4], algorithms=["GS"])
    with pytest.raises(ValueError, match="algorithms must be distinct"):
        gb.ExperimentPlan(qubit_list=[4], algorithms=["GS", gb.Algorithm.GS])


# ---------------------------------------------------------------------------
# Exports


def test_emit_csv_columns_exact():
    table = gb.run_plan(
        gb.ExperimentPlan(qubit_list=[4], algorithms=["BDGS"], trials=1, shots=32, base_seed=3)
    )
    text = gb.emit_table(table, "csv").decode()
    lines = text.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2
    parsed = next(csv.DictReader(io.StringIO(text)))
    assert parsed["algorithm"] == "BDGS"
    assert float(parsed["accuracy_pct"]) == 100.0


def test_emit_csv_empty_table():
    text = gb.emit_table(gb.ResultTable(small_plan()), "csv").decode()
    assert text.strip() == ",".join(CSV_COLUMNS)


def test_emit_json_mirrors_table():
    table = gb.run_plan(small_plan(qubit_list=[4], algorithms=["DFGS", "BDGS"]))
    payload = json.loads(gb.emit_table(table, "json"))
    assert len(payload["rows"]) == len(table.rows)
    assert len(payload["aggregates"]) == len(table.aggregates)
    assert payload["errors"] == []
    assert set(payload["rows"][0]) == {
        "qubits", "algorithm", "trial", "accuracy_pct", "time_s",
        "hits", "shots", "layers", "oracle_calls",
    }
    assert payload["rows"][0]["algorithm"] == "DFGS"
    assert payload["aggregates"][0]["algorithm"] == "DFGS"


def test_emit_markdown_has_average_rows():
    table = gb.run_plan(small_plan())
    text = gb.emit_table(table, "markdown").decode()
    assert text.count("Avg.") == 2  # one per qubit group
    assert "GS Acc." in text and "BDGS Time(s)" in text


def test_emit_markdown_marks_failed_cells_and_groups(monkeypatch):
    # A failed trial reads "err" in its own row, and a group whose trials all
    # failed reads "err" in its Avg. row; every other cell keeps its figures.
    import groverbench.bench as bench

    real = bench.run_search
    failing_seed = small_plan().cell(4, gb.Algorithm.GS, 2).seed

    def flaky(config):
        every_dfgs_at_8 = config.algorithm is gb.Algorithm.DFGS and config.r == 8
        if config.seed == failing_seed or every_dfgs_at_8:
            raise RuntimeError("induced failure")
        return real(config)

    monkeypatch.setattr(bench, "run_search", flaky)
    table = gb.run_plan(small_plan(algorithms=["GS", "DFGS"]))
    assert len(table.errors) == 3
    lines = gb.emit_table(table, "markdown").decode().splitlines()
    assert lines[0] == "| Qubits | Trial | GS Acc. | GS Time(s) | DFGS Acc. | DFGS Time(s) |"
    cells = {}
    for line in lines[2:]:
        qubits, trial, *figures = (cell.strip() for cell in line.strip("|").split("|"))
        cells[qubits, trial] = (figures[:2], figures[2:])
    err = ["err", "err"]
    assert cells["4", "2"][0] == err and "err" not in cells["4", "2"][1]
    assert cells["4", "Avg."][0] == cells["4", "1"][0]  # the one GS trial left
    for trial in ("1", "2", "Avg."):
        assert cells["8", trial][1] == err and "err" not in cells["8", trial][0]
    assert sum(figures.count("err") for pair in cells.values() for figures in pair) == 8


def test_emit_table_rejects_unknown_format():
    with pytest.raises(ValueError):
        gb.emit_table(gb.ResultTable(small_plan()), "xml")


def test_emit_json_records_the_plan():
    # The plan comes first and rebuilds into the plan the table ran, so a
    # results.json names the b, shots, base seed and target behind it.
    plan = small_plan(qubit_list=[4, 6], algorithms=["GRK", "BDGS"], target=5, block_size=2)
    table = gb.run_plan(plan)
    exported = json.loads(gb.emit_table(table, "json"))
    assert list(exported) == ["plan", "rows", "aggregates", "errors"]
    assert gb.ExperimentPlan(**exported["plan"]) == table.plan == plan


def test_emit_scaling_series():
    plan = gb.ExperimentPlan(
        qubit_list=[4, 6, 8], algorithms=["GS", "BDGS"], trials=2, shots=64, base_seed=5
    )
    table = gb.run_plan(plan)
    files = gb.emit_scaling_series(table)
    assert set(files) == {
        "layers_vs_qubits_GS.json",
        "runtime_vs_qubits_GS.json",
        "layers_vs_qubits_BDGS.json",
        "runtime_vs_qubits_BDGS.json",
    }
    gs_layers = json.loads(files["layers_vs_qubits_GS.json"])
    assert gs_layers["measured"] == [[4, 3], [6, 6], [8, 12]]
    assert gs_layers["predicted"] == [[4, 3], [6, 6], [8, 12]]
    bdgs_layers = json.loads(files["layers_vs_qubits_BDGS.json"])
    assert bdgs_layers["measured"] == [[4, 1], [6, 2], [8, 2]]
    runtime = json.loads(files["runtime_vs_qubits_GS.json"])
    assert [point[0] for point in runtime["measured"]] == [4, 6, 8]
    assert all(point[1] >= 0 for point in runtime["measured"])


def test_emit_scaling_series_grk_has_no_prediction():
    plan = gb.ExperimentPlan(
        qubit_list=[4, 6], algorithms=["GRK"], trials=1, shots=64, base_seed=5
    )
    files = gb.emit_scaling_series(gb.run_plan(plan))
    payload = json.loads(files["layers_vs_qubits_GRK.json"])
    assert "predicted" not in payload


def test_emit_scaling_series_of_one_qubit_count_is_empty(tmp_path):
    # A single point has no scaling shape: no series, and `run` writes
    # only its table.
    from groverbench.cli import main

    plan = gb.ExperimentPlan(qubit_list=[4], algorithms=["BDGS"], trials=1, shots=32)
    assert gb.emit_scaling_series(gb.run_plan(plan)) == {}
    for fmt, ext in (("csv", "csv"), ("json", "json"), ("markdown", "md")):
        out = tmp_path / fmt
        argv = ["run", "--qubits", "4", "--algo", "GS,BDGS", "--trials", "1",
                "--shots", "16", "--format", fmt, "--out", str(out)]
        assert main(argv) == 0
        assert [path.name for path in out.iterdir()] == [f"results.{ext}"]


def test_emit_scaling_series_reads_the_block_size_from_the_plan():
    # The layer predictions depend on b, so a plan run at b = 8 is read at
    # b = 8, not at the default of 4.
    plan = gb.ExperimentPlan(
        qubit_list=[6, 9], algorithms=["DFGS"], trials=1, shots=8, block_size=8
    )
    payload = json.loads(gb.emit_scaling_series(gb.run_plan(plan))["layers_vs_qubits_DFGS.json"])
    assert payload["measured"] == payload["predicted"] == [[6, 2], [9, 3]]


def _hand_built_table(qubit_list=(9, 3, 6), block_size=4) -> gb.ResultTable:
    """Rows in plan order over unsorted qubits and algorithms, fixed times.

    (3, DFGS) misses trial 2, every (6, GRK) trial failed, and layer counts
    differ between trials, so each export shows which row it reads.
    """
    algorithms = [gb.Algorithm(name) for name in ("BDGS", "GS", "GRK", "DFGS")]
    plan = gb.ExperimentPlan(
        list(qubit_list), algorithms, trials=3, shots=64, block_size=block_size
    )
    rows, errors = [], []
    for qubits in qubit_list:
        for index, algorithm in enumerate(algorithms):
            for trial in (1, 2, 3):
                if (qubits, algorithm.value, trial) == (3, "DFGS", 2) or (
                    (qubits, algorithm.value) == (6, "GRK")
                ):
                    errors.append(
                        gb.ErrorRow(qubits, algorithm, trial, "RuntimeError: induced failure")
                    )
                    continue
                hits = (qubits * 31 + trial * 17 + index) % 65
                rows.append(gb.TrialRow(
                    qubits=qubits, algorithm=algorithm, trial=trial,
                    accuracy_pct=100.0 * hits / 64, time_s=(qubits * 7 + index * 3 + trial) / 10,
                    hits=hits, shots=64, layers=qubits + trial + index,
                    oracle_calls=qubits * 5 + trial,
                ))
    return gb.ResultTable.from_rows(plan, rows, errors)


def _series_digest(table: gb.ResultTable, digest=None):
    """``digest`` (a new sha256 by default) updated with each series file of ``table``."""
    digest = hashlib.sha256() if digest is None else digest
    for name, payload in sorted(gb.emit_scaling_series(table).items()):
        digest.update(name.encode() + payload)
    return digest


def test_each_export_of_a_hand_built_table_matches_its_pinned_digest():
    # Taken before the table held its plan: the plan adds one key to the
    # JSON export and moves no byte of any other export.  A b = 8 plan with
    # GRK at r = 3 is invalid, so the b = 8 series covers qubits 9 and 6.
    table = _hand_built_table()
    exported = json.loads(gb.emit_table(table, "json"))
    del exported["plan"]
    digests = {
        "csv": hashlib.sha256(gb.emit_table(table, "csv")).hexdigest(),
        "markdown": hashlib.sha256(gb.emit_table(table, "markdown")).hexdigest(),
        "json": hashlib.sha256(json.dumps(exported, indent=2).encode()).hexdigest(),
        "series b=4": _series_digest(table).hexdigest(),
        "series b=8": _series_digest(_hand_built_table((9, 6), 8)).hexdigest(),
    }
    assert digests == {
        "csv": "5d6a028776b82c100818a6d439ded1c709a65b1e591b1e115a35520203ed6239",
        "markdown": "a5504a2af36f63890406e501bbad9255984cb802dabbb5cc75081ec5a4e89485",
        "json": "49d732f2100fead6ebb554168499a06f3c26477e4126513666bd90c503b901e5",
        "series b=4": "419a6b64dabcc67a730ef197d6a749878b8efbb139343c38c75ed206b7525015",
        "series b=8": "e32d7b07b3461bcc7c8bffd4c0e5e779a51af9d288e6df5bd5803d512488a82a",
    }


def test_exports_of_a_hand_built_table_match_the_pinned_digest():
    # The csv, json (plan included) and markdown tables and the b = 4 and
    # b = 8 scaling series, each series at its own plan's block size.
    table = _hand_built_table()
    digest = hashlib.sha256()
    for fmt in ("csv", "json", "markdown"):
        digest.update(gb.emit_table(table, fmt))
    _series_digest(table, digest)
    _series_digest(_hand_built_table((9, 6), 8), digest)
    assert digest.hexdigest() == (
        "5806b2ac60a05bc08b26d3f2a359ea515e38d125f1916ecd6e8988dd1801702e"
    )


def _plan_table_with_one_error_row(monkeypatch):
    import groverbench.bench as bench

    real = bench.run_search
    calls = {"n": 0}

    def flaky(config):
        calls["n"] += 1
        if calls["n"] == 3:
            raise RuntimeError("induced failure")
        return real(config)

    monkeypatch.setattr(bench, "run_search", flaky)
    table = gb.run_plan(small_plan())
    assert len(table.errors) == 1
    return table


@pytest.mark.parametrize("kind", ["one error row", "fixed target", "hand-built"])
def test_exports_equal_the_deep_copy_reference(monkeypatch, kind):
    # The exports read each dataclass's fields without copying them; the
    # deep copy of ``dataclasses.asdict`` is the reference they must match.
    if kind == "one error row":
        table = _plan_table_with_one_error_row(monkeypatch)
    elif kind == "fixed target":
        table = gb.run_plan(small_plan(target=9))
    else:
        table = _hand_built_table()
    reference_json = json.dumps(dataclasses.asdict(table), indent=2).encode()
    assert gb.emit_table(table, "json") == reference_json
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, CSV_COLUMNS)
    writer.writeheader()
    writer.writerows(dataclasses.asdict(row) for row in table.rows)
    assert gb.emit_table(table, "csv") == buffer.getvalue().encode()
