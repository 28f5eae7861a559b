"""Where the traced run puts its spans, and the per-layer metrics it reports.

``sites()`` lists every name the tracer rebinds, as the module attribute the
caller looks the function up by; ``layer_metrics()`` reduces the aggregated
spans of a traced run to the per-layer metrics. Times and counts are per op
(a fit pair on ``fit-wide``, a simulate+fit pair on ``cli-csv``, a grid cell
on ``grid``); a layer that does not run on a workload reports 0.

``PER_LAYER`` is the layer map: each metric names the end-to-end metric it
should move and the workload it should move it on.
"""

import importlib
import os

# (name, unit, better, layer, end-to-end metric it should move, workload)
PER_LAYER = (
    ("data.load_csv_s", "s", "lower", "data", "cli_fit_s", "cli-csv"),
    ("data.load_csv_mb_per_s", "MB/s", "higher", "data", "cli_fit_s", "cli-csv"),
    ("data.save_csv_s", "s", "lower", "data", "cli_simulate_s", "cli-csv"),
    ("data.save_csv_mb_per_s", "MB/s", "higher", "data", "cli_simulate_s", "cli-csv"),
    ("data.candidate_rules_s", "s", "lower", "data", "icscm_fit_s,scm_fit_s", "fit-wide"),
    ("simulator.simulate_s", "s", "lower", "simulator", "cli_simulate_s,setup_s", "cli-csv"),
    ("scm.fit_s", "s", "lower", "scm", "scm_fit_s", "fit-wide"),
    ("scm.self_s", "s", "lower", "scm", "scm_fit_s", "fit-wide"),
    ("scm.iterations", "count", "lower", "scm", "scm_fit_s", "fit-wide"),
    ("scm.prediction_matrix_s", "s", "lower", "scm", "icscm_fit_s,scm_fit_s", "fit-wide"),
    ("scm.prediction_matrix_cells", "count", "lower", "scm", "icscm_fit_s,scm_fit_s", "fit-wide"),
    ("kernels.leaf_counts_s", "s", "lower", "kernels", "icscm_fit_s,scm_fit_s", "fit-wide"),
    ("kernels.leaf_counts_calls", "count", "lower", "kernels", "icscm_fit_s,scm_fit_s", "fit-wide"),
    ("kernels.leaf_counts_cells", "count", "lower", "kernels", "icscm_fit_s,scm_fit_s", "fit-wide"),
    ("kernels.stratified_counts_s", "s", "lower", "kernels", "grid_cells_per_s", "grid"),
    ("kernels.stratified_counts_rows", "count", "lower", "kernels", "grid_cells_per_s", "grid"),
    ("stats.chi2_sf_calls", "count", "lower", "stats", "icscm_fit_s", "fit-wide"),
    ("stats.chi2_sf_s", "s", "lower", "stats", "icscm_fit_s", "fit-wide"),
    ("stats.table_stats_s", "s", "lower", "stats", "icscm_fit_s", "fit-wide"),
    ("stats.independence_test_calls", "count", "lower", "stats", "icscm_fit_s", "fit-wide"),
    ("stats.independence_test_s", "s", "lower", "stats", "icscm_fit_s", "fit-wide"),
    ("stats.conditional_gtest_calls", "count", "lower", "stats", "grid_cells_per_s", "grid"),
    ("stats.conditional_gtest_s", "s", "lower", "stats", "grid_cells_per_s", "grid"),
    ("stats.conditional_gtest_degenerate", "count", "lower", "stats", "grid_cells_per_s", "grid"),
    ("stats.conditional_gtest_useful_frac", "frac", "higher", "stats", "grid_cells_per_s", "grid"),
    ("stats.joint_strata_s", "s", "lower", "stats", "grid_cells_per_s", "grid"),
    ("icscm.fit_s", "s", "lower", "icscm", "icscm_fit_s", "fit-wide"),
    ("icscm.self_s", "s", "lower", "icscm", "icscm_fit_s", "fit-wide"),
    ("icscm.iterations", "count", "lower", "icscm", "icscm_fit_s", "fit-wide"),
    ("icscm.leaf_tests_per_iter", "count", "lower", "icscm", "icscm_fit_s", "fit-wide"),
    ("icscm.prune_s", "s", "lower", "icscm", "icscm_fit_s,grid_cells_per_s", "fit-wide,grid"),
    ("icscm.prune_tests", "count", "lower", "icscm", "icscm_fit_s,grid_cells_per_s", "fit-wide,grid"),
    ("icp.report_s", "s", "lower", "icp", "grid_cells_per_s", "grid"),
    ("icp.self_s", "s", "lower", "icp", "grid_cells_per_s", "grid"),
    ("icp.subsets_tested", "count", "lower", "icp", "grid_cells_per_s", "grid"),
    ("icp.subsets_per_s", "1/s", "higher", "icp", "grid_cells_per_s", "grid"),
    ("harness.cell_s", "s", "lower", "harness", "grid_cells_per_s", "grid"),
    ("harness.self_s", "s", "lower", "harness", "grid_cells_per_s", "grid"),
    ("harness.write_s", "s", "lower", "harness", "grid_cells_per_s", "grid"),
    ("cli.self_s", "s", "lower", "cli", "cli_simulate_s,cli_fit_s", "cli-csv"),
    ("trace.overhead_frac", "frac", "lower", "trace", "all", "all"),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _leaf_cells(args, kwargs, result):
    preds = _arg(args, kwargs, 0, "preds")
    return {"cells": int(preds.shape[0]) * int(preds.shape[1])}


def _strata_rows(args, kwargs, result):
    return {"rows": int(len(_arg(args, kwargs, 0, "strata")))}


def _matrix_cells(args, kwargs, result):
    return {"cells": int(result.shape[0]) * int(result.shape[1])}


def _degenerate(args, kwargs, result):
    return {"degenerate": int(result.degenerate)}


def _iterations(args, kwargs, result):
    return {"iterations": len(result.per_iteration_log)}


def _subsets(args, kwargs, result):
    return {"subsets": len(result.tests)}


def _loaded_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _saved_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


# (module, attribute, span name, counter)
_SITES = (
    ("rulecover.cli", "main", "cli.main", None),
    ("rulecover.cli", "simulate", "simulator.simulate", None),
    ("rulecover.cli", "load_dataset_csv", "data.load_dataset_csv", _loaded_bytes),
    ("rulecover.cli", "icscm_fit", "icscm.icscm_fit", _iterations),
    ("rulecover.cli", "scm_fit", "scm.scm_fit", _iterations),
    ("rulecover.simulator", "save_dataset_csv", "data.save_dataset_csv", _saved_bytes),
    ("rulecover.harness", "run_identification", "harness.run_identification", None),
    ("rulecover.harness", "_run_cell", "harness.cell", None),
    ("rulecover.harness", "simulate", "simulator.simulate", None),
    ("rulecover.harness", "scm_fit", "scm.scm_fit", _iterations),
    ("rulecover.harness", "icscm_fit", "icscm.icscm_fit", _iterations),
    ("rulecover.harness", "write_identification_csv", "harness.write", None),
    ("rulecover.harness", "write_summary_csv", "harness.write", None),
    ("rulecover.harness", "write_manifest", "harness.write", None),
    ("rulecover.harness", "write_precision_recall_csv", "harness.write", None),
    ("rulecover.scm", "scm_fit", "scm.scm_fit", _iterations),
    ("rulecover.scm", "candidate_rules", "data.candidate_rules", None),
    ("rulecover.scm", "prediction_matrix", "scm.prediction_matrix", _matrix_cells),
    ("rulecover.icscm", "icscm_fit", "icscm.icscm_fit", _iterations),
    ("rulecover.icscm", "candidate_rules", "data.candidate_rules", None),
    ("rulecover.icscm", "prediction_matrix", "scm.prediction_matrix", _matrix_cells),
    ("rulecover.icscm", "table_stats", "stats.table_stats", None),
    ("rulecover.icscm", "chi2_sf", "icscm.chi2_sf", None),
    ("rulecover.icscm", "independence_test", "stats.independence_test", None),
    ("rulecover.icscm", "prune", "icscm.prune", None),
    ("rulecover.icscm", "joint_strata", "stats.joint_strata", None),
    ("rulecover.icscm", "conditional_gtest", "stats.conditional_gtest", _degenerate),
    ("rulecover.icp", "icp_report", "icp.icp_report", _subsets),
    ("rulecover.icp", "joint_strata", "stats.joint_strata", None),
    ("rulecover.icp", "conditional_gtest", "stats.conditional_gtest", _degenerate),
    ("rulecover.stats", "chi2_sf", "stats.chi2_sf", None),
    ("rulecover._kernels", "leaf_label_env_counts", "kernels.leaf_counts", _leaf_cells),
    ("rulecover._kernels", "stratified_label_env_counts", "kernels.stratified_counts", _strata_rows),
)


def sites():
    """The rebinding table with modules resolved, for ``Tracer.patched``."""
    return [
        (importlib.import_module(module), attr, name, count)
        for module, attr, name, count in _SITES
    ]


def layer_metrics(table, ops, overhead_frac):
    """Per-layer metrics from ``spans.aggregate`` output over ``ops`` ops."""

    def get(name, key="total_s"):
        return table.get(name, {}).get(key, 0)

    def per_op(name, key="total_s"):
        return get(name, key) / ops

    def ratio(num, den):
        return num / den if den else 0.0

    chi2_calls = get("stats.chi2_sf", "calls") + get("icscm.chi2_sf", "calls")
    gtests = get("stats.conditional_gtest", "calls")
    degenerate = get("stats.conditional_gtest", "degenerate")
    values = {
        "data.load_csv_s": per_op("data.load_dataset_csv"),
        "data.load_csv_mb_per_s": ratio(
            get("data.load_dataset_csv", "bytes") / 1e6, get("data.load_dataset_csv")
        ),
        "data.save_csv_s": per_op("data.save_dataset_csv"),
        "data.save_csv_mb_per_s": ratio(
            get("data.save_dataset_csv", "bytes") / 1e6, get("data.save_dataset_csv")
        ),
        "data.candidate_rules_s": per_op("data.candidate_rules"),
        "simulator.simulate_s": per_op("simulator.simulate"),
        "scm.fit_s": per_op("scm.scm_fit"),
        "scm.self_s": per_op("scm.scm_fit", "self_s"),
        "scm.iterations": per_op("scm.scm_fit", "iterations"),
        "scm.prediction_matrix_s": per_op("scm.prediction_matrix"),
        "scm.prediction_matrix_cells": per_op("scm.prediction_matrix", "cells"),
        "kernels.leaf_counts_s": per_op("kernels.leaf_counts"),
        "kernels.leaf_counts_calls": per_op("kernels.leaf_counts", "calls"),
        "kernels.leaf_counts_cells": per_op("kernels.leaf_counts", "cells"),
        "kernels.stratified_counts_s": per_op("kernels.stratified_counts"),
        "kernels.stratified_counts_rows": per_op("kernels.stratified_counts", "rows"),
        "stats.chi2_sf_calls": chi2_calls / ops,
        "stats.chi2_sf_s": (get("stats.chi2_sf") + get("icscm.chi2_sf")) / ops,
        "stats.table_stats_s": per_op("stats.table_stats"),
        "stats.independence_test_calls": per_op("stats.independence_test", "calls"),
        "stats.independence_test_s": per_op("stats.independence_test"),
        "stats.conditional_gtest_calls": gtests / ops,
        "stats.conditional_gtest_s": per_op("stats.conditional_gtest"),
        "stats.conditional_gtest_degenerate": degenerate / ops,
        "stats.conditional_gtest_useful_frac": ratio(gtests - degenerate, gtests),
        "stats.joint_strata_s": per_op("stats.joint_strata"),
        "icscm.fit_s": per_op("icscm.icscm_fit"),
        "icscm.self_s": per_op("icscm.icscm_fit", "self_s"),
        "icscm.iterations": per_op("icscm.icscm_fit", "iterations"),
        "icscm.leaf_tests_per_iter": ratio(
            get("icscm.chi2_sf", "calls"), get("icscm.icscm_fit", "iterations")
        ),
        "icscm.prune_s": per_op("icscm.prune"),
        "icscm.prune_tests": per_op("icscm.prune>stats.conditional_gtest", "calls"),
        "icp.report_s": per_op("icp.icp_report"),
        "icp.self_s": per_op("icp.icp_report", "self_s"),
        "icp.subsets_tested": per_op("icp.icp_report", "subsets"),
        "icp.subsets_per_s": ratio(
            get("icp.icp_report", "subsets"), get("icp.icp_report")
        ),
        "harness.cell_s": per_op("harness.cell"),
        "harness.self_s": (
            get("harness.run_identification", "self_s") + get("harness.cell", "self_s")
        ) / ops,
        "harness.write_s": per_op("harness.write"),
        "cli.self_s": per_op("cli.main", "self_s"),
        "trace.overhead_frac": overhead_frac,
    }
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit, *_ in PER_LAYER
    }
