import json
from dataclasses import fields, replace

import numpy as np
import pytest

from rulecover import harness, icp
from rulecover.errors import ConfigError, InfeasibleError
from rulecover.harness import (
    ExperimentGrid,
    derive_run_seed,
    precision_recall,
    run_identification,
    run_runtime_benchmark,
    summarize,
)
from rulecover.icp import IcpConfig
from rulecover.icscm import IcscmConfig
from rulecover.scm import ScmConfig
from rulecover.simulator import SimConfig

from conftest import no_enumeration


def _small_grid(**overrides):
    defaults = dict(
        methods=("scm", "icscm"),
        xb_sizes=(1, 2),
        n_runs=3,
        master_seed=7,
        base_sim=SimConfig(n_samples_per_env=800),
        record_timings=False,
    )
    defaults.update(overrides)
    return ExperimentGrid(**defaults)


def test_grid_validation():
    with pytest.raises(ConfigError):
        ExperimentGrid(methods=())
    with pytest.raises(ConfigError):
        ExperimentGrid(methods=("dt",))
    with pytest.raises(ConfigError):
        ExperimentGrid(xb_sizes=())
    with pytest.raises(ConfigError):
        ExperimentGrid(n_runs=0)
    with pytest.raises(ConfigError, match="master_seed"):
        ExperimentGrid(master_seed=-1)


@pytest.mark.parametrize("sizes", [(1, 1), (1, 2, 3, 2)])
def test_repeated_xb_size_is_refused(sizes):
    # a repeated size would run the same seeds twice and double n_runs
    with pytest.raises(ConfigError, match="must not repeat a size"):
        ExperimentGrid(xb_sizes=sizes, n_runs=2)


@pytest.mark.parametrize("sizes", [(1.5, 2.9), (1.5, 1.2), (1, 2.0), ("3",)])
def test_non_integer_xb_size_is_refused(sizes):
    # (1.5, 2.9) used to run sizes (1, 2)
    with pytest.raises(ConfigError, match="xb_sizes must be integers"):
        ExperimentGrid(xb_sizes=sizes, n_runs=2)


INTEGER_FIELDS = [
    (ScmConfig, "max_rules"),
    (IcscmConfig, "min_leaf"),
    (IcpConfig, "max_subset_size"),
    (IcpConfig, "min_samples_per_cell"),
    (SimConfig, "n_envs"),
    (SimConfig, "n_samples_per_env"),
    (SimConfig, "n_distractors"),
    (SimConfig, "seed"),
    (ExperimentGrid, "master_seed"),
    (ExperimentGrid, "n_runs"),
    (ExperimentGrid, "jobs"),
]


@pytest.mark.parametrize("value", [1.5, "2"])
@pytest.mark.parametrize(
    "config, name",
    INTEGER_FIELDS + [(run_runtime_benchmark, "repeats")],
    ids=lambda x: getattr(x, "__name__", x),
)
def test_integer_settings_refuse_non_integers(config, name, value):
    # unchecked, max_rules=1.5 fits 2 rules, master_seed=0.5 runs seed 0 while
    # the manifest says 0.5, and the others fail later with a TypeError
    args = (_small_grid(),) if config is run_runtime_benchmark else ()
    with pytest.raises(ConfigError, match=f"^{name} must be an integer"):
        config(*args, **{name: value})


@pytest.mark.parametrize(
    "config, name", INTEGER_FIELDS, ids=lambda x: getattr(x, "__name__", x)
)
def test_integer_settings_store_numpy_integers_as_int(config, name):
    value = getattr(config(**{name: np.int64(2)}), name)
    assert value == 2 and type(value) is int


@pytest.mark.parametrize("methods", [("scm", "scm"), ("scm", "icp", "scm")])
def test_repeated_method_is_refused(methods):
    # a repeated method would fit the same seeds twice and double n_runs
    with pytest.raises(ConfigError, match="must not repeat a method"):
        ExperimentGrid(methods=methods, n_runs=2)


@pytest.mark.parametrize("method", ["icscm", "icscm_noprune", "icp"])
def test_single_environment_grid_needs_scm_only(method):
    one_env = SimConfig(n_envs=1)
    with pytest.raises(ConfigError, match=f"^{method} need >= 2 environments"):
        ExperimentGrid(methods=(method,), base_sim=one_env)
    with pytest.raises(ConfigError, match=f"^{method} need >= 2 environments"):
        ExperimentGrid(methods=("scm", method), base_sim=one_env)
    ExperimentGrid(methods=("scm",), base_sim=one_env)


def test_precision_recall_conventions():
    assert precision_recall(set(), {0, 1}) == (1.0, 0.0)
    assert precision_recall({0, 1}, {0, 1}) == (1.0, 1.0)
    assert precision_recall({0, 5}, {0, 1}) == (0.5, 0.5)
    assert precision_recall({0, 1, 5}, {0, 1}) == (2 / 3, 1.0)


def test_derive_run_seed_is_stable_and_distinct():
    assert derive_run_seed(1, 2, 3) == derive_run_seed(1, 2, 3)
    seeds = {derive_run_seed(1, xb, run) for xb in range(3) for run in range(5)}
    assert len(seeds) == 15


def test_run_identification_outputs(tmp_path):
    grid = _small_grid()
    results = run_identification(grid, out_dir=tmp_path, plot_data=True)
    assert len(results) == 2 * 2 * 3  # methods * sizes * runs
    header = (tmp_path / "identification.csv").read_text().splitlines()[0]
    assert header == "method,xb_size,seed,exact_match,precision,recall,wall_time_s"
    summary_lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary_lines[0] == (
        "method,xb_size,n_runs,identification_rate,mean_precision,"
        "mean_recall,mean_wall_time_s"
    )
    assert len(summary_lines) == 1 + 2 * 2
    assert (tmp_path / "manifest.json").exists()
    assert (tmp_path / "fig_precision_recall.csv").exists()


def test_manifest_records_every_config_field(tmp_path):
    grid = _small_grid(icp_config=IcpConfig(max_subset_size=2))
    run_identification(grid, out_dir=tmp_path)
    doc = json.loads((tmp_path / "manifest.json").read_text())
    assert set(doc) == {f.name for f in fields(grid)} | {
        "seed_derivation",
        "kernel_backend",
    }
    for name in ("base_sim", "scm_config", "icscm_config", "icp_config"):
        config = getattr(grid, name)
        assert set(doc[name]) == {f.name for f in fields(config)}
    assert doc["icp_config"]["max_subset_size"] == 2
    assert doc["base_sim"]["parent_probs"] == [[0.1, 0.5], [0.5, 0.3]]


def test_paired_datasets_across_methods():
    grid = _small_grid()
    results = run_identification(grid)
    by_cell = {}
    for row in results:
        by_cell.setdefault((row.xb_size, row.seed), []).append(row.method)
    for methods in by_cell.values():
        assert sorted(methods) == ["icscm", "scm"]


def test_rerun_is_byte_identical(tmp_path):
    grid = _small_grid()
    run_identification(grid, out_dir=tmp_path / "a")
    run_identification(grid, out_dir=tmp_path / "b")
    for name in ("identification.csv", "summary.csv", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_jobs_do_not_change_results():
    sequential = run_identification(_small_grid(jobs=1))
    parallel = run_identification(_small_grid(jobs=2))
    assert sequential == parallel


def test_jobs_start_no_more_workers_than_cells(monkeypatch):
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
    grid = _small_grid(methods=("scm",), xb_sizes=(1,), n_runs=2, jobs=500)
    results = run_identification(grid)
    assert started == [2]
    assert results == run_identification(replace(grid, jobs=1))
    run_identification(replace(grid, n_runs=1))
    assert started == [2]  # a single cell runs in this process


def test_summarize_rates():
    grid = _small_grid(methods=("scm",), xb_sizes=(1,))
    results = run_identification(grid)
    summary = summarize(results)
    assert len(summary) == 1
    row = summary[0]
    assert row["n_runs"] == 3
    assert 0.0 <= row["identification_rate"] <= 1.0
    expected = sum(r.exact_match for r in results) / len(results)
    assert row["identification_rate"] == pytest.approx(expected)


def test_icp_infeasible_grid_refused(tmp_path, monkeypatch):
    grid = _small_grid(methods=("icp",), xb_sizes=(30,))
    with pytest.raises(InfeasibleError):
        run_identification(grid, out_dir=tmp_path)
    # a capped grid is refused on its count of tests, before any cell runs
    wide_capped = _small_grid(
        methods=("icp",),
        xb_sizes=(27,),
        n_runs=1,
        icp_config=IcpConfig(max_subset_size=15),
    )
    monkeypatch.setattr(icp, "combinations", no_enumeration)
    with pytest.raises(InfeasibleError):
        run_identification(wide_capped, out_dir=tmp_path)
    monkeypatch.undo()
    capped = _small_grid(
        methods=("icp",),
        xb_sizes=(30,),
        n_runs=1,
        icp_config=IcpConfig(max_subset_size=1),
    )
    results = run_identification(capped)
    assert len(results) == 1


def test_icscm_noprune_method():
    grid = _small_grid(methods=("icscm", "icscm_noprune"), xb_sizes=(2,))
    results = run_identification(grid)
    assert {r.method for r in results} == {"icscm", "icscm_noprune"}


def test_runtime_benchmark(tmp_path, monkeypatch):
    calls = []
    run_cell = harness._run_cell

    def recording_run_cell(args):
        calls.append(args)
        return run_cell(args)

    monkeypatch.setattr(harness, "_run_cell", recording_run_cell)
    # neither order is sorted, so grid order shows in the calls and the rows
    grid = _small_grid(methods=("icscm", "scm"), xb_sizes=(2, 1), n_runs=1)
    rows = run_runtime_benchmark(replace(grid, jobs=2), repeats=2, out_dir=tmp_path)
    # the timed cells run in this process, one after another, xb-major
    assert [(xb, run) for _, xb, run in calls] == [(2, 0), (2, 1), (1, 0), (1, 1)]
    assert all(cell_grid.record_timings for cell_grid, _, _ in calls)
    assert all(cell_grid.master_seed == grid.master_seed for cell_grid, _, _ in calls)
    cells = [(2, "icscm"), (2, "scm"), (1, "icscm"), (1, "scm")]
    assert [(row["xb_size"], row["method"]) for row in rows] == cells
    assert all(row["repeats"] == 2 for row in rows)
    assert all(row["median_wall_time_s"] > 0 for row in rows)
    lines = (tmp_path / "benchmark.csv").read_text().splitlines()
    assert lines[0] == "method,xb_size,repeats,median_wall_time_s"
    assert [tuple(line.split(",")[:2]) for line in lines[1:]] == [
        (method, str(xb)) for xb, method in cells
    ]
    with pytest.raises(ConfigError, match=r"^repeats must be >= 1, got 0$"):
        run_runtime_benchmark(grid, repeats=0)
    calls.clear()
    with pytest.raises(InfeasibleError):
        run_runtime_benchmark(_small_grid(methods=("icp",), xb_sizes=(30,)), repeats=1)
    assert calls == []
