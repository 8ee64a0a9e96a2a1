"""Command-line surface: subcommands, exit codes, file outputs."""

import json
from dataclasses import replace

import pytest

import groverbench as gb
from groverbench.cli import main
from groverbench.search import MAX_SHOTS


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_predict_bdgs(capsys):
    code, out, _ = run_cli(capsys, ["predict", "--qubits", "20", "--algo", "BDGS", "--block-size", "4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["algorithm"] == "BDGS"
    assert payload["r"] == 20
    assert payload["b"] == 4
    assert payload["k"] == 2
    assert payload["layers"] == 5
    assert payload["oracle_calls_bound"] == pytest.approx(550.9, abs=0.1)


def test_predict_gs(capsys):
    code, out, _ = run_cli(capsys, ["predict", "--qubits", "20", "--algo", "gs"])
    assert code == 0
    assert json.loads(out)["layers"] == 804


def test_predict_grk_layers_null(capsys):
    code, out, _ = run_cli(capsys, ["predict", "--qubits", "8", "--algo", "GRK"])
    assert code == 0
    payload = json.loads(out)
    assert payload["layers"] is None
    assert payload["oracle_calls_bound"] > 0


@pytest.mark.parametrize(
    "algo, model, bound",
    [("GS", "single-target", 804), ("GRK", "single-target", 697.5),
     ("BDGS", "single-target", 550.9), ("DFGS", "segment", 10)],
)
def test_predict_names_its_oracle_model(capsys, algo, model, bound):
    # BDGS's bound is the paper's single-target sum; DFGS's count is the
    # segment oracle's.  The JSON says which beside each number.
    code, out, _ = run_cli(capsys, ["predict", "--qubits", "20", "--algo", algo])
    assert code == 0
    payload = json.loads(out)
    assert payload["oracle_model"] == model
    assert payload["oracle_calls_bound"] == pytest.approx(bound, abs=0.1)
    assert gb.predict_cost(algo, 20, 4).oracle_model == model


def test_predict_invalid_block_size(capsys):
    code, _, err = run_cli(capsys, ["predict", "--qubits", "8", "--algo", "BDGS", "--block-size", "3"])
    assert code == 2
    assert "invalid" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--qubits", "2", "--algo", "DFGS", "--block-size", "8"],
        ["--qubits", "3", "--algo", "GRK", "--block-size", "8"],
        ["--qubits", "0", "--algo", "DFGS"],
    ],
)
def test_predict_rejects_what_search_rejects(capsys, argv):
    code, out, err = run_cli(capsys, ["predict", *argv])
    assert code == 2
    assert out == ""
    assert err.startswith("invalid prediction request:") and err.count("\n") == 1


@pytest.mark.parametrize("algo", ["GS", "DFGS"])
@pytest.mark.parametrize("qubits", ["0", "-3", "25"])
def test_predict_and_search_reject_a_qubit_count_alike(tmp_path, capsys, qubits, algo):
    # predict checks the qubit count first, so it gives search's message,
    # not a bound (GS) or a shift error (a negative count); a plan checks
    # it through SearchConfig, before it makes its output directory.
    out_dir = tmp_path / "out"
    messages = []
    for command, prefix, extra in (
        ("predict", "invalid prediction request: ", []),
        ("search", "invalid search config: ", []),
        ("run", "invalid plan: ", ["--out", str(out_dir)]),
    ):
        code, out, err = run_cli(capsys, [command, "--qubits", qubits, "--algo", algo, *extra])
        assert code == 2
        assert out == ""
        assert err.startswith(prefix) and err.count("\n") == 1
        messages.append(err[len(prefix):])
    assert set(messages) == {f"qubit count must be in [1, 24], got {qubits}\n"}
    assert not out_dir.exists()


def test_search_bdgs(capsys):
    code, out, _ = run_cli(
        capsys,
        ["search", "--qubits", "6", "--algo", "BDGS", "--target", "44", "--shots", "32", "--seed", "3"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["target"] == 44
    assert payload["outcome"]["measured_index"] == 44
    assert payload["outcome"]["resolved_block"] is None
    assert payload["verified"] is True


def test_search_grk_reports_block(capsys):
    code, out, _ = run_cli(
        capsys,
        ["search", "--qubits", "8", "--algo", "GRK", "--target", "200", "--shots", "256"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"]["resolved_block"] == 200 >> 6


def test_search_grk_verifies_the_resolved_block(capsys):
    # GRK resolves the target's block: seed 0 draws target 1 on 4 qubits,
    # whose block of 8 is 0.  The run measures only the block bits, so its
    # index is the block's first, 0, and not the target.
    code, out, _ = run_cli(capsys, ["search", "--qubits", "4", "--algo", "GRK", "--block-size", "8"])
    assert code == 0
    payload = json.loads(out)
    assert payload["target"] == 1
    assert payload["outcome"]["resolved_block"] == payload["target"] >> 1 == 0
    assert payload["outcome"]["measured_index"] == 0 != payload["target"]
    assert payload["verified"] is True


def test_search_random_target_is_seeded(capsys):
    code, out1, _ = run_cli(capsys, ["search", "--qubits", "5", "--algo", "DFGS", "--seed", "9", "--shots", "16"])
    assert code == 0
    code, out2, _ = run_cli(capsys, ["search", "--qubits", "5", "--algo", "DFGS", "--seed", "9", "--shots", "16"])
    assert code == 0
    assert json.loads(out1)["target"] == json.loads(out2)["target"]


def test_search_random_target_is_the_plan_cell_target(capsys, monkeypatch):
    # search's drawn target, block size and shots are trial 1's of the
    # one-cell plan of its flags; its seed stays --seed.
    import groverbench.cli as cli

    configs = []
    real = cli.run_search

    def recording(config):
        configs.append(config)
        return real(config)

    monkeypatch.setattr(cli, "run_search", recording)
    for algorithm in gb.Algorithm:
        argv = ["search", "--qubits", "12", "--algo", algorithm.value, "--seed", "9", "--shots", "16"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        plan = gb.ExperimentPlan([12], [algorithm], trials=1, shots=16, base_seed=9)
        cell = plan.cell(12, algorithm, 1)
        assert configs[-1] == replace(cell, seed=9)
        assert json.loads(out)["target"] == cell.target
    assert len(configs) == 4


@pytest.mark.parametrize(
    "extra",
    [["--seed", "-1"], ["--seed", "-4", "--target", "3"], ["--qubits", "-2"], ["--qubits", "99"]],
)
def test_search_rejects_bad_seed_or_qubits(capsys, extra):
    code, out, err = run_cli(capsys, ["search", "--qubits", "5", "--algo", "GS", *extra])
    assert code == 2
    assert out == ""
    assert err.startswith("invalid search config:") and err.count("\n") == 1


@pytest.mark.parametrize("shots", [MAX_SHOTS + 1, 2**70])
def test_search_and_run_reject_shots_above_the_cap(tmp_path, capsys, shots):
    # One line and exit 2 from both commands, before any cell runs or any
    # output directory is made.
    message = f"shots must be in [1, {MAX_SHOTS}], got {shots}\n"
    code, out, err = run_cli(capsys, ["search", "--qubits", "12", "--shots", str(shots)])
    assert (code, out, err) == (2, "", f"invalid search config: {message}")
    out_dir = tmp_path / "out"
    argv = ["run", "--qubits", "4,12", "--algo", "GS,GRK", "--shots", str(shots), "--out", str(out_dir)]
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (2, "", f"invalid plan: {message}")
    assert not out_dir.exists()


def test_search_invalid_target(capsys):
    code, _, err = run_cli(capsys, ["search", "--qubits", "4", "--algo", "GS", "--target", "99"])
    assert code == 2
    assert "invalid" in err


def test_run_writes_table_and_series(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "run",
            "--qubits", "4,6",
            "--algo", "BDGS,DFGS",
            "--trials", "2",
            "--shots", "64",
            "--seed", "11",
            "--out", str(tmp_path),
        ],
    )
    assert code == 0
    table = tmp_path / "results.csv"
    assert table.exists()
    header = table.read_text().splitlines()[0]
    assert header == "qubits,algorithm,trial,accuracy_pct,time_s,hits,shots,layers,oracle_calls"
    for name in (
        "layers_vs_qubits_BDGS.json",
        "runtime_vs_qubits_BDGS.json",
        "layers_vs_qubits_DFGS.json",
        "runtime_vs_qubits_DFGS.json",
    ):
        assert (tmp_path / name).exists()
    assert "accuracy 100.00%" in out


def test_run_markdown_format(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys,
        ["run", "--qubits", "4", "--algo", "BDGS", "--trials", "1", "--shots", "32",
         "--format", "markdown", "--out", str(tmp_path)],
    )
    assert code == 0
    assert (tmp_path / "results.md").exists()
    # A single qubit count has no scaling shape, so no series files.
    assert not list(tmp_path.glob("layers_vs_qubits_*.json"))


def test_run_env_var_output_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GROVERBENCH_OUT", str(tmp_path / "nested" / "deeper"))
    code, _, _ = run_cli(
        capsys,
        ["run", "--qubits", "4", "--algo", "BDGS", "--trials", "1", "--shots", "16"],
    )
    assert code == 0
    assert (tmp_path / "nested" / "deeper" / "results.csv").exists()


def test_run_invalid_plan_exits_2(tmp_path, capsys):
    code, _, err = run_cli(
        capsys,
        ["run", "--qubits", "1", "--algo", "BDGS", "--out", str(tmp_path)],
    )
    assert code == 2
    assert "invalid plan" in err


def test_run_out_naming_a_file_exits_2_before_any_cell(tmp_path, capsys, monkeypatch):
    import groverbench.bench as bench

    def no_cell(config):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(bench, "run_search", no_cell)
    afile = tmp_path / "afile"
    afile.write_text("")
    code, out, err = run_cli(
        capsys,
        ["run", "--qubits", "4,6", "--algo", "GS", "--trials", "1", "--out", str(afile)],
    )
    assert code == 2
    assert out == ""
    assert err.startswith("invalid output directory:") and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert afile.read_text() == ""


@pytest.mark.parametrize("blocked", ["results.csv", "layers_vs_qubits_GS.json"])
def test_run_write_failure_exits_2_with_one_line(tmp_path, capsys, blocked):
    # A directory where an output file goes fails the write after the plan
    # has run: exit 2 and one line, as for a directory that cannot be made.
    # Stdout keeps the aggregates and names each file that did land.
    (tmp_path / blocked).mkdir()
    code, out, err = run_cli(
        capsys,
        ["run", "--qubits", "4,6", "--algo", "GS", "--trials", "1", "--out", str(tmp_path)],
    )
    assert code == 2
    written = sorted(path.name for path in tmp_path.iterdir() if path.is_file())
    assert written == ([] if blocked == "results.csv" else ["results.csv"])
    lines = out.splitlines()
    assert [line.split()[:3] for line in lines[:2]] == [
        ["4", "qubits", "GS"], ["6", "qubits", "GS"]
    ]
    assert lines[2:] == [f"wrote {tmp_path / name}" for name in written]
    assert err.startswith("invalid output directory:") and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_run_cell_failure_exits_1(tmp_path, capsys, monkeypatch):
    import groverbench.bench as bench

    real = bench.run_search

    def flaky(config):
        if config.algorithm is bench.Algorithm.DFGS:
            raise RuntimeError("induced failure")
        return real(config)

    monkeypatch.setattr(bench, "run_search", flaky)
    code, _, err = run_cli(
        capsys,
        ["run", "--qubits", "4", "--algo", "BDGS,DFGS", "--trials", "1",
         "--shots", "16", "--out", str(tmp_path)],
    )
    assert code == 1
    assert "induced failure" in err


def test_run_rejects_non_power_of_two_block_size(tmp_path, capsys):
    code, _, err = run_cli(
        capsys,
        ["run", "--qubits", "4", "--algo", "BDGS", "--block-size", "3", "--out", str(tmp_path)],
    )
    assert code == 2
    assert err.startswith("invalid plan:") and len(err.strip().splitlines()) == 1
    assert not list(tmp_path.iterdir())


def test_run_rejects_zero_jobs(tmp_path, capsys):
    code, _, err = run_cli(
        capsys,
        ["run", "--qubits", "4", "--algo", "BDGS", "--jobs", "0", "--out", str(tmp_path)],
    )
    assert code == 2
    assert err.startswith("invalid plan:") and "jobs" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("qubits, algo", [("4,4", "GS"), ("4", "GS,gs")])
def test_run_rejects_duplicate_cells(tmp_path, capsys, qubits, algo):
    code, _, err = run_cli(
        capsys,
        ["run", "--qubits", qubits, "--algo", algo, "--trials", "1", "--out", str(tmp_path)],
    )
    assert code == 2
    assert err.startswith("invalid plan:") and "distinct" in err
    assert len(err.strip().splitlines()) == 1
    assert not list(tmp_path.iterdir())


def test_run_jobs_has_no_effect_on_rows(tmp_path, capsys):
    rows = {}
    for jobs in ("1", "2"):
        out = tmp_path / jobs
        code, _, err = run_cli(
            capsys,
            ["run", "--qubits", "4,6", "--algo", "GS,GRK,DFGS,BDGS", "--trials", "2",
             "--shots", "64", "--seed", "11", "--jobs", jobs, "--format", "json",
             "--out", str(out)],
        )
        assert code == 0, err
        rows[jobs] = json.loads((out / "results.json").read_text())["rows"]
        for row in rows[jobs]:
            del row["time_s"]
    assert len(rows["1"]) == 2 * 4 * 2
    assert rows["1"] == rows["2"]


@pytest.mark.parametrize("command", ["search", "predict"])
def test_gs_on_one_qubit_needs_no_block_size(capsys, command):
    # GS never uses b, so the default block size must not reject a 2-state register.
    code, out, err = run_cli(capsys, [command, "--qubits", "1", "--algo", "GS"])
    assert code == 0, err
    payload = json.loads(out)
    if command == "search":
        # One iteration over two states leaves the target at probability 1/2.
        assert payload["outcome"]["oracle_calls"] == 1
        assert payload["outcome"]["certainty"] == pytest.approx(0.5, abs=1e-12)
    else:
        # The GS bound does not depend on b, so the default b = 4 stands.
        assert payload["layers"] == 1 and payload["b"] == 4


def test_search_rejects_infeasible_grk_block_size(capsys):
    code, out, err = run_cli(
        capsys, ["search", "--qubits", "3", "--algo", "GRK", "--block-size", "8"]
    )
    assert code == 2
    assert out == ""
    assert err.startswith("invalid search config:") and "two items per block" in err


def test_run_cells_failing_at_one_size_skip_series(tmp_path, capsys, monkeypatch):
    import groverbench.bench as bench

    real = bench.run_search

    def flaky(config):
        if config.r == 6:
            raise RuntimeError("induced failure")
        return real(config)

    monkeypatch.setattr(bench, "run_search", flaky)
    code, _, err = run_cli(
        capsys,
        ["run", "--qubits", "4,6", "--algo", "GS,BDGS", "--trials", "1",
         "--shots", "16", "--out", str(tmp_path)],
    )
    assert code == 1
    assert err.count("cell failed") == 2
    assert (tmp_path / "results.csv").exists()
    # Surviving rows cover one qubit count, which has no scaling shape.
    assert not list(tmp_path.glob("*_vs_qubits_*.json"))


def test_unknown_algorithm_rejected(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["predict", "--qubits", "8", "--algo", "QAOA"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("qubits", ["a", "4,x", "4.5"])
def test_a_bad_qubit_list_is_rejected_in_plain_words(tmp_path, capsys, qubits):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--qubits", qubits, "--out", str(tmp_path)])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == (
        "groverbench run: error: argument --qubits: "
        f"expected comma-separated integers, got '{qubits}'"
    )


def test_main_parses_with_the_parser_built_at_import(tmp_path, capsys, monkeypatch):
    import groverbench.cli as cli

    def no_parser():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "build_parser", no_parser)
    code, out, _ = run_cli(capsys, ["predict", "--qubits", "8", "--algo", "BDGS"])
    assert code == 0 and json.loads(out)["algorithm"] == "BDGS"
    argv = ["run", "--qubits", "4,5", "--algo", "DFGS", "--trials", "1", "--out", str(tmp_path)]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0 and (tmp_path / "results.csv").exists()


def test_parses_share_no_default_list():
    import groverbench.cli as cli

    first, second = (cli._PARSER.parse_args(["run"]) for _ in range(2))
    assert first.qubits == second.qubits == [4, 8, 16, 20]
    assert first.algo == second.algo == [gb.Algorithm.GS, gb.Algorithm.DFGS, gb.Algorithm.BDGS]
    assert first.qubits is not second.qubits
    assert first.algo is not second.algo


def _written(out_dir):
    # Every file a run wrote, with its wall times dropped.
    files = {}
    for path in sorted(out_dir.iterdir()):
        payload = json.loads(path.read_bytes())
        if path.name == "results.json":
            for row in payload["rows"] + payload["aggregates"]:
                del row["time_s"]
        elif path.name.startswith("runtime_vs_qubits_"):
            payload["measured"] = [qubits for qubits, _ in payload["measured"]]
        files[path.name] = payload
    return files


def test_a_rejected_argv_leaves_the_parser_as_it_was(tmp_path, capsys):
    argv = ["run", "--qubits", "4,6", "--algo", "GS,BDGS", "--trials", "2",
            "--shots", "64", "--format", "json"]
    assert run_cli(capsys, [*argv, "--out", str(tmp_path / "before")])[0] == 0
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--qubits", "4,x", "--algo", "DFGS", "--format", "xml"])
    assert excinfo.value.code == 2
    capsys.readouterr()
    assert run_cli(capsys, [*argv, "--out", str(tmp_path / "after")])[0] == 0
    before = _written(tmp_path / "before")
    assert len(before) == 5
    assert before == _written(tmp_path / "after")


# Console values, each checked here in-process; CI only smoke-tests the
# installed script.


@pytest.mark.parametrize(
    "qubits, block_size, share", [("3", "2", 0.9658203125), ("4", "8", 0.9853515625)]
)
def test_search_grk_gives_the_pinned_console_outcome(capsys, qubits, block_size, share):
    argv = ["search", "--qubits", qubits, "--algo", "GRK", "--block-size", block_size]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    outcome = json.loads(out)["outcome"]
    assert (outcome["measured_index"], outcome["resolved_block"], outcome["success_fraction"]) == (
        0, 0, share
    )


@pytest.mark.parametrize("block_size", ["2", "4", "1024"])
def test_predict_bdgs_gives_the_pinned_bound_at_every_block_size(capsys, block_size):
    argv = ["predict", "--qubits", "20", "--algo", "BDGS", "--block-size", block_size]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert json.loads(out)["oracle_calls_bound"] == 550.9174843316374


def test_search_dfgs_with_a_22_bit_segment_is_verified_with_certainty(capsys):
    argv = ["search", "--qubits", "23", "--algo", "DFGS", "--block-size", "4194304"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["outcome"]["certainty"] == 1.0


@pytest.mark.parametrize(
    "algo, block_size",
    [("GS", None), ("GRK", "2"), ("GRK", "4"), ("GRK", "1024"), ("GRK", "4194304"),
     ("DFGS", "16777216")],
)
def test_search_on_24_qubits_is_verified(capsys, algo, block_size):
    # The widest register: GS and GRK turn their amplitude classes, and DFGS
    # with b = 2**24 reads its one 24-bit segment from the plan.
    argv = ["search", "--qubits", "24", "--algo", algo]
    if block_size is not None:
        argv += ["--block-size", block_size]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    if algo == "GS":
        assert payload["outcome"]["resolved_block"] is None


def test_search_and_predict_give_dfgs_13_queries_at_b8_on_20_qubits(capsys):
    # Six 3-bit segments of 2 reps each and one 2-bit segment of 1.
    argv = ["--qubits", "20", "--algo", "DFGS", "--block-size", "8"]
    code, out, _ = run_cli(capsys, ["search", *argv])
    assert code == 0
    outcome = json.loads(out)["outcome"]
    assert (outcome["oracle_calls"], outcome["certainty"]) == (13, 1.0)
    code, out, _ = run_cli(capsys, ["predict", *argv])
    assert code == 0
    assert json.loads(out)["oracle_calls_bound"] == 13


def test_search_grk_on_12_qubits_resolves_the_targets_block(capsys):
    code, out, _ = run_cli(capsys, ["search", "--qubits", "12", "--algo", "GRK", "--block-size", "8"])
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["outcome"]["resolved_block"] == payload["target"] >> 9


@pytest.mark.parametrize(
    "qubits, extra, block_size",
    [("23,24", ["--block-size", "8"], 8), ("5,9", [], 4)],
    ids=["23,24-b8", "5,9-default-b"],
)
def test_layered_plan_runs_are_exact(tmp_path, capsys, qubits, extra, block_size):
    # Wide registers with b = 8, and odd ones at the default b = 4: every
    # DFGS and BDGS trial recovers its target.
    code, _, err = run_cli(
        capsys,
        ["run", "--qubits", qubits, "--algo", "DFGS,BDGS", *extra, "--trials", "8",
         "--format", "json", "--out", str(tmp_path)],
    )
    assert code == 0, err
    results = json.loads((tmp_path / "results.json").read_text())
    assert len(results["rows"]) == 32
    assert all(row["accuracy_pct"] == 100 for row in results["rows"])
    assert results["plan"]["block_size"] == block_size


def test_gs_plan_on_one_and_two_qubits_runs(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, ["run", "--qubits", "1,2", "--algo", "GS", "--trials", "1", "--out", str(tmp_path)]
    )
    assert code == 0, err
    assert (tmp_path / "results.csv").exists()
