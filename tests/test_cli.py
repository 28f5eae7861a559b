import json
from dataclasses import asdict, fields

import numpy as np
import pytest

from rulecover import harness, icp
from rulecover.cli import main, parse_parent_probs, parse_xb_sizes
from rulecover.data import (
    Conjunction,
    Rule,
    load_dataset_csv,
    load_model_json,
    save_model_json,
)
from rulecover.errors import ConfigError
from rulecover.harness import ExperimentGrid
from rulecover.icp import IcpConfig, icp_report
from rulecover.icscm import IcscmConfig
from rulecover.scm import ScmConfig
from rulecover.simulator import SimConfig

from conftest import no_enumeration


def test_parse_xb_sizes():
    assert parse_xb_sizes("1..4") == (1, 2, 3, 4)
    assert parse_xb_sizes("3") == (3,)
    assert parse_xb_sizes("1,5,9") == (1, 5, 9)
    assert parse_xb_sizes("1..2,7") == (1, 2, 7)
    with pytest.raises(ConfigError):
        parse_xb_sizes("4..1")
    with pytest.raises(ConfigError):
        parse_xb_sizes("abc")


def test_parse_parent_probs():
    assert parse_parent_probs("0.1,0.5;0.5,0.3") == ((0.1, 0.5), (0.5, 0.3))
    with pytest.raises(ConfigError):
        parse_parent_probs("0.1;0.2,0.3")


@pytest.fixture
def sim_dir(tmp_path):
    out = tmp_path / "data"
    code = main(
        [
            "simulate", "--xb", "2", "--seed", "7", "--samples", "1500",
            "-o", str(out),
        ]
    )
    assert code == 0
    return out


def test_simulate_writes_expected_rows(sim_dir, capsys):
    ds = load_dataset_csv(sim_dir / "dataset.csv")
    assert ds.n_samples == 3000
    assert ds.n_features == 5
    truth = json.loads((sim_dir / "ground_truth.json").read_text())
    assert truth["ground_truth"]["parent_indices"] == [0, 1]


def test_simulate_stdout(tmp_path, capsys):
    out = tmp_path / "data"
    assert main(["simulate", "--xb", "2", "--seed", "7", "--samples", "1500",
                 "-o", str(out)]) == 0
    assert capsys.readouterr().out == (
        f"wrote {out / 'dataset.csv'} (3000 rows, 5 features)\n"
        f"wrote {out / 'ground_truth.json'}\n"
        "  P(parent_1=1) = 0.3120\n"
        "  P(parent_2=1) = 0.3910\n"
        "  P(distractor_1=1) = 0.5040\n"
        "  P(distractor_2=1) = 0.4950\n"
        "  P(child=1) = 0.1627\n"
        "  P(y=1) = 0.1390\n"
        "  P(y = parents' AND) = 0.9527\n"
        "  P(y = child) = 0.9717\n"
    )


def test_simulate_single_env_refused(tmp_path, capsys):
    code = main(["simulate", "--n-env", "1", "-o", str(tmp_path / "x")])
    assert code == 2
    assert "force" in capsys.readouterr().err
    code = main(
        ["simulate", "--n-env", "1", "--samples", "100", "--force",
         "-o", str(tmp_path / "y")]
    )
    assert code == 0


def test_simulate_zero_label_noise(tmp_path, capsys):
    code = main(
        ["simulate", "--xb", "1", "--eps-y", "0", "--samples", "500",
         "-o", str(tmp_path / "z")]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "P(y = parents' AND) = 1.0000" in out


def test_fit_icscm_finds_parents(sim_dir, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    code = main(
        ["fit", "--data", str(sim_dir / "dataset.csv"), "--method", "icscm",
         "--alpha", "0.05", "--p", "1.0", "--max-rules", "5",
         "-o", str(model_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "parent_1" not in out  # CSV loses simulator names; x-names used
    model, stop = load_model_json(model_path)
    assert model.feature_indices() == {0, 1}
    assert stop == "invariance_reached"


def test_fit_scm_selects_child(sim_dir, tmp_path):
    model_path = tmp_path / "scm.json"
    code = main(
        ["fit", "--data", str(sim_dir / "dataset.csv"), "--method", "scm",
         "-o", str(model_path)]
    )
    assert code == 0
    model, _ = load_model_json(model_path)
    assert 4 in model.feature_indices()  # child column of a 2-distractor run


def test_fit_round_trip_predictions(sim_dir, tmp_path):
    model_path = tmp_path / "model.json"
    assert main(
        ["fit", "--data", str(sim_dir / "dataset.csv"), "--method", "icscm",
         "-o", str(model_path)]
    ) == 0
    ds = load_dataset_csv(sim_dir / "dataset.csv")
    model, _ = load_model_json(model_path)
    reloaded, _ = load_model_json(model_path)
    assert np.array_equal(model.predict(ds.features), reloaded.predict(ds.features))


def test_fit_icscm_disjunction_is_saved_as_one(sim_dir, tmp_path):
    model_path = tmp_path / "m.json"
    manifest = tmp_path / "resolved.json"
    code = main(
        ["fit", "--data", str(sim_dir / "dataset.csv"), "--method", "icscm",
         "--model-type", "disjunction", "-o", str(model_path),
         "--manifest", str(manifest)]
    )
    assert code == 0
    assert json.loads(model_path.read_text())["model_type"] == "disjunction"
    model, _ = load_model_json(model_path)
    assert model.is_disjunction
    assert json.loads(manifest.read_text())["model_type"] == "disjunction"


def test_fit_missing_file_is_data_error(tmp_path):
    assert main(["fit", "--data", str(tmp_path / "nope.csv")]) == 3


def test_fit_non_utf8_csv_is_data_error(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"x0,y,e\n0,1,0\n\xff,0,1\n")
    assert main(["fit", "--data", str(path)]) == 3
    assert "UTF-8" in capsys.readouterr().err


def test_fit_oversized_csv_field_is_data_error(tmp_path, capsys):
    path = tmp_path / "huge.csv"
    path.write_text('x0,y,e\n0,1,0\n"' + "1" * 200_000 + '",0,1\n')
    assert main(["fit", "--data", str(path)]) == 3
    assert "field larger than field limit" in capsys.readouterr().err


@pytest.mark.parametrize("env", [2**63, 10**20])
def test_fit_env_id_beyond_int64_is_data_error(env, tmp_path, capsys):
    path = tmp_path / "wide_env.csv"
    path.write_text(f"x0,y,e\n0,1,0\n1,0,{env}\n")
    assert main(["fit", "--data", str(path)]) == 3
    assert "wide_env.csv:3: column 'e'" in capsys.readouterr().err


@pytest.mark.parametrize("env", [" 0", "1_0", "+1", "\u0663", "-1", ""])
def test_fit_env_id_not_ascii_digits_is_data_error(env, tmp_path, capsys):
    # int() would read these as 0, 10, 1, 3 and -1
    path = tmp_path / "loose_env.csv"
    path.write_text(f"x0,y,e\n0,1,0\n1,0,{env}\n", encoding="utf-8")
    assert main(["fit", "--data", str(path)]) == 3
    assert "loose_env.csv:3: column 'e'" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["scm", "icscm"])
@pytest.mark.parametrize("p", ["inf", "nan", "0"])
def test_fit_non_finite_p_is_config_error(sim_dir, method, p, capsys):
    code = main(
        ["fit", "--data", str(sim_dir / "dataset.csv"), "--method", method,
         "--p", p]
    )
    assert code == 2
    assert "p must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [["--alpha", "0.05"], ["--min-leaf", "10"], ["--test-method", "gtest"],
     ["--no-prune"], ["--prune"]],
)
def test_fit_scm_refuses_icscm_flags(sim_dir, flags, capsys):
    code = main(
        ["fit", "--data", str(sim_dir / "dataset.csv"), "--method", "scm"] + flags
    )
    assert code == 2
    assert "--method scm does not use" in capsys.readouterr().err


_SCM_FIELDS = {f.name for f in fields(ScmConfig)}


@pytest.mark.parametrize(
    "field",
    [f for f in fields(IcscmConfig) if f.name not in _SCM_FIELDS],
    ids=lambda f: f.name,
)
def test_fit_scm_refuses_every_icscm_only_field(sim_dir, field, capsys):
    flag = "--" + field.name.replace("_", "-")
    value = [] if isinstance(field.default, bool) else [str(field.default)]
    argv = ["fit", "--data", str(sim_dir / "dataset.csv"), flag] + value
    assert main(argv + ["--method", "icscm"]) == 0
    capsys.readouterr()
    assert main(argv + ["--method", "scm"]) == 2
    assert capsys.readouterr().err == f"error: --method scm does not use {flag}\n"


@pytest.mark.parametrize("method", ["scm", "icscm"])
def test_fit_all_constant_features_is_data_error(method, tmp_path, capsys):
    path = tmp_path / "flat.csv"
    path.write_text("x0,x1,y,e\n0,1,1,0\n0,1,0,1\n0,1,0,0\n0,1,1,1\n")
    assert main(["fit", "--data", str(path), "--method", method]) == 3
    assert "no feature column varies" in capsys.readouterr().err


def test_fit_single_env_is_config_error(tmp_path):
    assert main(
        ["simulate", "--n-env", "1", "--samples", "200", "--force",
         "-o", str(tmp_path / "one")]
    ) == 0
    code = main(
        ["fit", "--data", str(tmp_path / "one" / "dataset.csv"),
         "--method", "icscm"]
    )
    assert code == 2


def test_prune_subcommand(sim_dir, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    pruned_path = tmp_path / "pruned.json"
    assert main(
        ["fit", "--data", str(sim_dir / "dataset.csv"), "--method", "icscm",
         "--no-prune", "-o", str(model_path)]
    ) == 0
    assert main(
        ["prune", "--data", str(sim_dir / "dataset.csv"),
         "--model", str(model_path), "-o", str(pruned_path)]
    ) == 0
    model, _ = load_model_json(model_path)
    pruned, _ = load_model_json(pruned_path)
    assert set(pruned.rules) <= set(model.rules)


def test_prune_single_env_is_config_error(tmp_path, capsys):
    data = tmp_path / "one"
    assert main(
        ["simulate", "--n-env", "1", "--samples", "200", "--force", "-o", str(data)]
    ) == 0
    model_path = tmp_path / "model.json"
    save_model_json(Conjunction(rules=(Rule(0, 1), Rule(1, 1))), model_path)
    code = main(
        ["prune", "--data", str(data / "dataset.csv"), "--model", str(model_path)]
    )
    assert code == 2
    assert "single-environment" in capsys.readouterr().err


def test_prune_refuses_bad_model_and_alpha(sim_dir, tmp_path, capsys):
    data = str(sim_dir / "dataset.csv")
    model_path = tmp_path / "far.json"
    save_model_json(Conjunction(rules=(Rule(50, 1),)), model_path)
    assert main(["prune", "--data", data, "--model", str(model_path)]) == 3
    assert "feature 50" in capsys.readouterr().err
    model_path.write_bytes(b'{"model_type": "conjunction", "rules": [], "x": "\xff"}')
    assert main(["prune", "--data", data, "--model", str(model_path)]) == 3
    assert "invalid JSON" in capsys.readouterr().err
    save_model_json(Conjunction(rules=(Rule(0, 1), Rule(1, 1))), model_path)
    for alpha in ("7", "0"):
        code = main(
            ["prune", "--data", data, "--model", str(model_path), "--alpha", alpha]
        )
        assert code == 2
        assert "alpha" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["feature_index", "expected_value"])
@pytest.mark.parametrize("value", [1.7, 1.0, True, "1"])
def test_prune_refuses_non_integer_model_fields(field, value, sim_dir, tmp_path, capsys):
    rule = {"feature_index": 1, "expected_value": 1, field: value}
    model_path = tmp_path / "model.json"
    model_path.write_text(
        json.dumps({"model_type": "conjunction", "rules": [rule]})
    )
    code = main(
        ["prune", "--data", str(sim_dir / "dataset.csv"), "--model", str(model_path)]
    )
    assert code == 3
    assert "must be JSON integers" in capsys.readouterr().err


def test_icp_subcommand(sim_dir, tmp_path, capsys):
    out = tmp_path / "icp.json"
    code = main(
        ["icp", "--data", str(sim_dir / "dataset.csv"), "-o", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["n_tested"] == 2 ** 5
    assert doc["selected"] == [0, 1]
    assert len(doc["tests"]) == 2 ** 5
    empty = doc["tests"][0]
    assert empty["features"] == []
    expected = icp_report(load_dataset_csv(sim_dir / "dataset.csv"), IcpConfig())
    assert empty["p_value"] == expected.tests[0].p_value
    assert empty["accepted"] is expected.tests[0].accepted
    assert empty["degenerate"] is expected.tests[0].degenerate


def test_icp_infeasible_exit_code(tmp_path, monkeypatch, capsys):
    assert main(
        ["simulate", "--xb", "30", "--samples", "60", "-o", str(tmp_path / "wide")]
    ) == 0
    data = str(tmp_path / "wide" / "dataset.csv")
    code = main(["icp", "--data", data])
    assert code == 4
    # a cap counts the tests it keeps: sum C(33, s) for s <= 15 > 2**20, so
    # the run is refused before any subset is enumerated
    monkeypatch.setattr(icp, "combinations", no_enumeration)
    code = main(["icp", "--data", data, "--max-subset-size", "15", "--min-cell", "0"])
    assert code == 4
    assert "subset tests" in capsys.readouterr().err


def test_experiment_subcommand(tmp_path, capsys):
    out = tmp_path / "exp"
    code = main(
        ["experiment", "--methods", "scm,icscm", "--xb", "1..2", "--runs", "2",
         "--seed", "1", "--samples", "600", "--no-timing", "--plot-data",
         "-o", str(out)]
    )
    assert code == 0
    lines = (out / "summary.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 2
    assert (out / "fig_precision_recall.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["master_seed"] == 1
    assert manifest["record_timings"] is False


@pytest.mark.parametrize("command", ["experiment", "benchmark"])
def test_negative_master_seed_is_config_error(command, tmp_path, capsys):
    code = main(
        [command, "--methods", "scm", "--xb", "1", "--samples", "100",
         "--seed", "-1", "-o", str(tmp_path / "out")]
    )
    assert code == 2
    assert "master_seed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["experiment", "benchmark"])
@pytest.mark.parametrize("sizes", ["1,1", "1..3,2"])
def test_repeated_xb_size_is_config_error(command, sizes, tmp_path, capsys):
    code = main(
        [command, "--methods", "scm", "--xb", sizes, "--samples", "100",
         "-o", str(tmp_path / "out")]
    )
    assert code == 2
    assert "must not repeat a size" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["experiment", "benchmark"])
def test_repeated_method_is_config_error(command, tmp_path, capsys):
    code = main(
        [command, "--methods", "scm,scm", "--xb", "1", "--samples", "100",
         "-o", str(tmp_path / "out")]
    )
    assert code == 2
    assert "must not repeat a method" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_experiment_rerun_byte_identical(tmp_path):
    args = ["experiment", "--methods", "scm", "--xb", "1", "--runs", "2",
            "--seed", "3", "--samples", "400", "--no-timing"]
    assert main(args + ["-o", str(tmp_path / "a")]) == 0
    assert main(args + ["-o", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "identification.csv").read_bytes() == (
        tmp_path / "b" / "identification.csv"
    ).read_bytes()


def test_benchmark_subcommand(tmp_path):
    out = tmp_path / "bench"
    code = main(
        ["benchmark", "--methods", "scm,icscm", "--xb", "1..2",
         "--repeats", "1", "--samples", "400", "-o", str(out)]
    )
    assert code == 0
    lines = (out / "benchmark.csv").read_text().splitlines()
    assert len(lines) == 5


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--data", "{data}", "-o", "{dir}"],
        ["fit", "--data", "{data}", "--manifest", "{missing}/x.json"],
        ["icp", "--data", "{data}", "-o", "{missing}/icp.json"],
        ["simulate", "--xb", "1", "--samples", "200", "-o", "{file}"],
        ["experiment", "--methods", "scm", "--xb", "1", "--runs", "1",
         "--samples", "200", "-o", "{file}"],
        ["benchmark", "--methods", "scm", "--xb", "1", "--repeats", "1",
         "--samples", "200", "-o", "{file}"],
    ],
    ids=["fit-dir", "fit-manifest", "icp", "simulate", "experiment", "benchmark"],
)
def test_unwritable_output_is_config_error(argv, sim_dir, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    paths = dict(
        data=sim_dir / "dataset.csv", dir=sim_dir, missing=tmp_path / "missing",
        file=taken,
    )
    argv = [arg.format(**paths) for arg in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert argv[-1] in err


@pytest.mark.parametrize("command", ["experiment", "benchmark"])
def test_grid_output_over_a_file_is_refused_before_any_cell(
    command, tmp_path, monkeypatch, capsys
):
    cells = []
    monkeypatch.setattr(harness, "_run_cell", cells.append)
    taken = tmp_path / "taken"
    taken.write_text("")
    argv = [command, "--methods", "scm", "--xb", "1", "--samples", "200"]
    assert main(argv + ["-o", str(taken)]) == 2
    assert str(taken) in capsys.readouterr().err
    assert cells == []


def test_manifests_record_config_defaults(sim_dir, tmp_path):
    manifest = tmp_path / "simulate.json"
    assert main(["simulate", "-o", str(tmp_path / "sim"), "--manifest",
                 str(manifest)]) == 0
    assert json.loads(manifest.read_text()) == json.loads(
        json.dumps({"command": "simulate", **asdict(SimConfig())})
    )
    manifest = tmp_path / "fit.json"
    data = str(sim_dir / "dataset.csv")
    assert main(["fit", "--data", data, "--manifest", str(manifest)]) == 0
    assert json.loads(manifest.read_text()) == {
        "command": "fit", "method": "icscm", "data": data,
        "model_type": "conjunction", **asdict(IcscmConfig()),
    }


def test_experiment_manifest_records_grid_defaults(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "_run_cell", lambda task: [])
    out = tmp_path / "exp"
    assert main(["experiment", "--seed", "5", "--no-timing", "-o", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    grid = ExperimentGrid(master_seed=5, record_timings=False)
    expected = json.loads(json.dumps(asdict(grid)))
    assert {k: manifest[k] for k in expected} == expected


@pytest.mark.parametrize("command", ["experiment", "benchmark"])
@pytest.mark.parametrize("methods", ["scm,icscm", "icscm_noprune", "scm,icp"])
def test_single_environment_grid_is_refused_before_any_cell(
    command, methods, tmp_path, monkeypatch, capsys
):
    def run_cell(task):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(harness, "_run_cell", run_cell)
    out = tmp_path / "one"
    argv = [command, "--n-env", "1", "--methods", methods, "--xb", "1..2",
            "--samples", "200", "-o", str(out)]
    assert main(argv) == 2
    assert "need >= 2 environments" in capsys.readouterr().err
    assert not out.exists()


def test_single_environment_scm_grid_runs(tmp_path):
    out = tmp_path / "one"
    assert main(["experiment", "--n-env", "1", "--methods", "scm", "--xb", "1",
                 "--runs", "2", "--samples", "200", "-o", str(out)]) == 0
    assert len((out / "identification.csv").read_text().splitlines()) == 3


def test_manifest_flag(sim_dir, tmp_path):
    manifest = tmp_path / "resolved.json"
    assert main(
        ["fit", "--data", str(sim_dir / "dataset.csv"), "--method", "icscm",
         "--manifest", str(manifest)]
    ) == 0
    doc = json.loads(manifest.read_text())
    assert doc["command"] == "fit"
    assert doc["alpha"] == 0.05
    assert doc["model_type"] == "conjunction"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["fit"])  # missing --data
    assert excinfo.value.code == 2
