import json
from pathlib import Path

import pytest

import run
import workloads
from layers import PER_LAYER, layer_metrics, sites
from spans import Tracer, aggregate

ROOT = Path(__file__).resolve().parents[2]
COUNT_METRICS = [
    name for name, unit, *_ in PER_LAYER
    if unit == "count" or name == "stats.conditional_gtest_useful_frac"
]


def small(name):
    return {
        "fit-wide": lambda: workloads.FitWide(n_datasets=2, n_distractors=4, samples_per_env=400),
        "cli-csv": lambda: workloads.CliCsv(n_seeds=2, n_distractors=3, samples_per_env=300),
        "grid": lambda: workloads.Grid(xb_sizes=(1, 2), samples_per_env=300),
    }[name]()


def traced(workload, tmp_path, passes):
    workload.setup(7, tmp_path)
    workload.min_passes = passes
    tracer = Tracer()
    with tracer.patched(sites()):
        loop = run.measure(workload, 0.0, tracer)
    assert loop.failed == 0
    return layer_metrics(aggregate(tracer.spans), loop.units, 0.0), loop


def test_benchmark_json_lists_the_layer_map():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert bench["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better, *_ in PER_LAYER
    ]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", ["fit-wide", "cli-csv", "grid"])
def test_counts_repeat_exactly_and_wrappers_are_restored(name, tmp_path):
    before = [getattr(module, attr) for module, attr, *_ in sites()]
    first, _ = traced(small(name), tmp_path / "a", passes=1)
    second, _ = traced(small(name), tmp_path / "b", passes=2)
    after = [getattr(module, attr) for module, attr, *_ in sites()]
    assert all(a is b for a, b in zip(before, after))
    assert {k: first[k] for k in COUNT_METRICS} == {k: second[k] for k in COUNT_METRICS}
    assert set(first) == {name for name, *_ in PER_LAYER}


def test_icp_subsets_are_two_to_the_d_per_icp_call(tmp_path):
    metrics, loop = traced(small("grid"), tmp_path, passes=2)
    # xb = 1, 2 distractors -> d = 4, 5 features; one cell per xb
    assert metrics["icp.subsets_tested"]["value"] == (2 ** 4 + 2 ** 5) / 2
    assert metrics["icp.report_s"]["value"] > 0
    assert metrics["harness.cell_s"]["value"] > 0
    assert metrics["cli.self_s"]["value"] == 0
    assert loop.units == 2 * 2 * 2  # 2 passes x 2 grids x 2 cells


def test_fit_counts_match_the_fit_reports(tmp_path):
    workload = small("fit-wide")
    metrics, _ = traced(workload, tmp_path, passes=1)
    logs = [(a.per_iteration_log, b.per_iteration_log) for a, b in (
        workload.op(k)[0] for k in range(workload.pool_size)
    )]
    n = len(logs)
    assert metrics["icscm.iterations"]["value"] == sum(len(a) for a, _ in logs) / n
    assert metrics["scm.iterations"]["value"] == sum(len(b) for _, b in logs) / n
    assert metrics["kernels.leaf_counts_calls"]["value"] >= metrics["scm.iterations"]["value"]


def test_untimed_measurement_rebinds_nothing(tmp_path):
    workload = small("cli-csv")
    workload.setup(3, tmp_path)
    before = [getattr(module, attr) for module, attr, *_ in sites()]
    run.measure(workload, 0.0)
    assert [getattr(module, attr) for module, attr, *_ in sites()] == before
