import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference
import run
import workloads
from rulecover.icscm import IcscmConfig, icscm_fit
from rulecover.scm import ScmConfig, scm_fit
from rulecover.simulator import SimConfig, simulate
from rulecover.stats import chi2_sf

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("dof", [1, 2, 3, 4, 7, 10, 31, 64])
def test_reference_chi2_sf_matches_the_package(dof):
    for x in (0.0, 1e-6, 0.5, dof * 0.8, dof + 3.0, 40.0, 300.0, 1200.0):
        assert math.isclose(
            reference.chi2_sf(x, dof), chi2_sf(x, dof),
            rel_tol=workloads.P_REL, abs_tol=workloads.P_ABS,
        )


@pytest.mark.parametrize("seed", range(6))
def test_reference_learners_match_the_package(seed):
    dataset, _ = simulate(SimConfig(n_distractors=6, n_samples_per_env=800, seed=seed))
    steps, p_values, stop, kept = reference.icscm(dataset, 1.0, 10, 0.05, 10)
    report = icscm_fit(dataset, IcscmConfig())
    assert steps == [(r.rule.feature_index, r.rule.expected_value)
                     for r in report.per_iteration_log]
    assert stop == report.stop_reason.value
    assert kept == [(r.feature_index, r.expected_value) for r in report.model.rules]
    for (leaf, gamma), rec in zip(p_values, report.per_iteration_log):
        assert math.isclose(leaf, rec.leaf_p_value, rel_tol=1e-9, abs_tol=1e-12)
        assert math.isclose(gamma, rec.stop_p_value, rel_tol=1e-9, abs_tol=1e-12)
    rules, scm_stop = reference.scm(dataset, 1.0, 10)
    greedy = scm_fit(dataset, ScmConfig())
    assert rules == [(r.feature_index, r.expected_value) for r in greedy.model.rules]
    assert scm_stop == greedy.stop_reason.value


def test_cli_check_catches_a_changed_csv(tmp_path):
    workload = workloads.CliCsv(n_seeds=1, n_distractors=2, samples_per_env=200)
    workload.setup(1, tmp_path)
    output, _ = workload.op(0)
    csv_path = workload.dirs[0] / "dataset.csv"
    text = csv_path.read_text()
    workload.check(0, output)
    output, _ = workload.op(0)
    csv_path.write_text(text[:-2] + ("0" if text[-2] == "1" else "1") + "\n")
    with pytest.raises(workloads.CheckFailed):
        workload.check(0, output)


def test_checks_fail_when_an_op_writes_nothing(tmp_path):
    workload = workloads.CliCsv(n_seeds=1, n_distractors=2, samples_per_env=200)
    workload.setup(1, tmp_path)
    workload.check(0, workload.op(0)[0])
    with pytest.raises(FileNotFoundError):
        workload.check(0, (0, 0))


def test_grid_check_catches_a_changed_csv(tmp_path):
    workload = workloads.Grid(n_grids=1, xb_sizes=(1,), samples_per_env=200)
    workload.setup(1, tmp_path)
    workload.check(0, workload.op(0)[0])
    workload.op(0)
    with open(workload.dirs[0] / "summary.csv", "a", encoding="utf-8") as fh:
        fh.write("extra\n")
    with pytest.raises(workloads.CheckFailed):
        workload.check(0, None)


def test_fit_check_catches_a_wrong_scm_model(tmp_path):
    workload = workloads.FitWide(n_datasets=1, n_distractors=4, samples_per_env=400)
    workload.setup(2, tmp_path)
    (filtered, greedy), _ = workload.op(0)
    wrong = type(greedy)(
        model=type(greedy.model)(rules=greedy.model.rules[::-1]),
        selected_features=greedy.selected_features,
        per_iteration_log=greedy.per_iteration_log,
        stop_reason=greedy.stop_reason,
    )
    assert len(greedy.model.rules) > 1
    with pytest.raises(workloads.CheckFailed):
        workload.check(0, (filtered, wrong))


def test_digest_tolerates_only_small_p_value_changes():
    want = {"sha256": "abc", "p_values": [0.5, 1e-30]}
    tol = (workloads.P_REL, workloads.P_ABS)
    assert run.digest_matches({"sha256": "abc", "p_values": [0.5 + 1e-13, 1e-30]}, want, *tol)
    assert not run.digest_matches({"sha256": "abc", "p_values": [0.5001, 1e-30]}, want, *tol)
    assert not run.digest_matches({"sha256": "abd", "p_values": [0.5, 1e-30]}, want, *tol)


def test_quantile_is_linear_between_order_statistics():
    assert run.quantile([3.0, 1.0, 2.0, 4.0], 0.5) == 2.5
    assert run.quantile([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0], 0.9) == 10.0
    assert run.quantile([5.0], 0.9) == 5.0


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
