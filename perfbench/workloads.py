"""The benchmark's workloads: inputs from a seed, one timed op, and an
untimed correctness check of each op's output.

Every workload is a single-process closed loop: the next op starts when the
previous one has returned. Ops cycle through a fixed pool of inputs, and the
runner only stops after whole passes over that pool, so two runs on one seed
do the same mix of work.

``fit-wide``  in-memory ``icscm_fit`` then ``scm_fit`` on wide simulated data
              (200 distractors, 406 candidate rules, 2 x 10 000 samples).
``cli-csv``   ``rulecover simulate`` then ``rulecover fit`` through
              ``rulecover.cli.main`` in-process, on a ~500 kB CSV.
``grid``      ``run_identification`` over scm, icscm and icp for distractor
              counts 1..7; one op is one (xb, run) cell.
"""

import contextlib
import hashlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np

import reference
from rulecover import cli, harness, icscm, scm
from rulecover.harness import ExperimentGrid
from rulecover.icscm import IcscmConfig
from rulecover.scm import ScmConfig
from rulecover.simulator import SimConfig, simulate


# Tolerance for p-values computed by different routines or summation orders.
P_REL, P_ABS = 1e-9, 1e-12


class CheckFailed(Exception):
    """An op's output is wrong."""


def derive_seed(seed, *path):
    """A 64-bit input seed for item ``path`` of the workload seeded ``seed``."""
    state = np.random.SeedSequence((int(seed), *path)).generate_state(1, np.uint64)
    return int(state[0])


def describe_fit(report):
    """(discrete description, p-values) of a FitReport, for digests."""
    doc = {
        "model": report.model.to_dict(stop_reason=report.stop_reason),
        "selected": sorted(int(j) for j in report.selected_features),
        "log": [
            [rec.rule.feature_index, rec.rule.expected_value, rec.utility]
            for rec in report.per_iteration_log
        ],
    }
    p_values = []
    for rec in report.per_iteration_log:
        p_values.extend(p for p in (rec.leaf_p_value, rec.stop_p_value) if p is not None)
    return doc, p_values


def _take(path):
    """Read an op's output file and delete it, so that an op which fails to
    write it cannot pass on a stale copy."""
    raw = path.read_bytes()
    path.unlink()
    return raw


def _same_or_first(slots, k, doc, what):
    """Record the first output for pool entry k; later ones must repeat it."""
    if slots[k] is None:
        slots[k] = doc
    elif slots[k] != doc:
        raise CheckFailed(f"{what} {k}: output differs from its first run")


class FitWide:
    name = "fit-wide"
    parts = ("icscm_fit_s", "scm_fit_s")
    rate = None
    units_per_op = 1
    min_passes = 1

    def __init__(self, n_datasets=4, n_distractors=200, samples_per_env=10000):
        self.n_datasets = n_datasets
        self.n_distractors = n_distractors
        self.samples_per_env = samples_per_env
        self.icscm_config = IcscmConfig()
        self.scm_config = ScmConfig()

    def setup(self, seed, workdir):
        self.datasets = [
            simulate(
                SimConfig(
                    n_distractors=self.n_distractors,
                    n_samples_per_env=self.samples_per_env,
                    seed=derive_seed(seed, k),
                )
            )[0]
            for k in range(self.n_datasets)
        ]
        self.references = [None] * self.n_datasets
        self.outputs = [None] * self.n_datasets
        self.op(0)

    @property
    def pool_size(self):
        return self.n_datasets

    def op(self, i):
        dataset = self.datasets[i % self.n_datasets]
        t0 = time.perf_counter()
        filtered = icscm.icscm_fit(dataset, self.icscm_config)
        t1 = time.perf_counter()
        greedy = scm.scm_fit(dataset, self.scm_config)
        t2 = time.perf_counter()
        return (filtered, greedy), {"icscm_fit_s": t1 - t0, "scm_fit_s": t2 - t1}

    def _references(self, k):
        if self.references[k] is None:
            cfg, dataset = self.icscm_config, self.datasets[k]
            self.references[k] = (
                reference.icscm(dataset, cfg.p, cfg.max_rules, cfg.alpha, cfg.min_leaf),
                reference.scm(dataset, self.scm_config.p, self.scm_config.max_rules),
            )
        return self.references[k]

    def check(self, i, output):
        k = i % self.n_datasets
        filtered, greedy = output
        (steps, p_values, stop, kept), (rules, scm_stop) = self._references(k)
        got = [(r.rule.feature_index, r.rule.expected_value) for r in filtered.per_iteration_log]
        got_p = [(r.leaf_p_value, r.stop_p_value) for r in filtered.per_iteration_log]
        got_kept = [(r.feature_index, r.expected_value) for r in filtered.model.rules]
        if (got, filtered.stop_reason.value, got_kept) != (steps, stop, kept) or not all(
            math.isclose(a, b, rel_tol=P_REL, abs_tol=P_ABS)
            for pair, want in zip(got_p, p_values)
            for a, b in zip(pair, want)
        ):
            raise CheckFailed(
                f"dataset {k}: icscm chose {got} -> {got_kept} "
                f"({filtered.stop_reason.value}, p {got_p}), the reference "
                f"{steps} -> {kept} ({stop}, p {p_values})"
            )
        got = [(r.feature_index, r.expected_value) for r in greedy.model.rules]
        if got != rules or greedy.stop_reason.value != scm_stop:
            raise CheckFailed(
                f"dataset {k}: scm chose {got} ({greedy.stop_reason.value}), "
                f"the greedy reference {rules} ({scm_stop})"
            )
        _same_or_first(
            self.outputs, k, [describe_fit(filtered), describe_fit(greedy)], "dataset"
        )

    def digest_parts(self):
        docs, p_values = [], []
        for entry in self.outputs:
            for doc, p in entry:
                docs.append(doc)
                p_values.extend(p)
        return docs, p_values

    def inputs(self):
        return {"datasets": [list(ds.features.shape) for ds in self.datasets]}


class CliCsv:
    name = "cli-csv"
    parts = ("cli_simulate_s", "cli_fit_s")
    rate = None
    units_per_op = 1
    min_passes = 1

    def __init__(self, n_seeds=4, n_distractors=20, samples_per_env=5000):
        self.n_seeds = n_seeds
        self.n_distractors = n_distractors
        self.samples_per_env = samples_per_env

    def setup(self, seed, workdir):
        self.seeds = [derive_seed(seed, k) for k in range(self.n_seeds)]
        self.dirs = [Path(workdir) / f"cli{k}" for k in range(self.n_seeds)]
        self.references = [None] * self.n_seeds
        self.verified = [None] * self.n_seeds
        self.outputs = [None] * self.n_seeds
        self.op(0)
        for name in ("dataset.csv", "model.json"):
            (self.dirs[0] / name).unlink()

    @property
    def pool_size(self):
        return self.n_seeds

    def op(self, i):
        k = i % self.n_seeds
        out = self.dirs[k]
        simulate_argv = [
            "simulate", "--xb", str(self.n_distractors),
            "--samples", str(self.samples_per_env),
            "--seed", str(self.seeds[k]), "-o", str(out),
        ]
        fit_argv = [
            "fit", "--data", str(out / "dataset.csv"),
            "--method", "icscm", "-o", str(out / "model.json"),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            simulated = cli.main(simulate_argv)
            t1 = time.perf_counter()
            fitted = cli.main(fit_argv)
            t2 = time.perf_counter()
        return (simulated, fitted), {"cli_simulate_s": t1 - t0, "cli_fit_s": t2 - t1}

    def _reference(self, k):
        if self.references[k] is None:
            dataset, _ = simulate(
                SimConfig(
                    n_distractors=self.n_distractors,
                    n_samples_per_env=self.samples_per_env,
                    seed=self.seeds[k],
                )
            )
            self.references[k] = (dataset, icscm.icscm_fit(dataset, IcscmConfig()))
        return self.references[k]

    def check(self, i, output):
        k = i % self.n_seeds
        if output != (0, 0):
            raise CheckFailed(f"seed {k}: exit codes {output}, expected (0, 0)")
        dataset, report = self._reference(k)
        raw = _take(self.dirs[k] / "dataset.csv")
        csv_sha = hashlib.sha256(raw).hexdigest()
        if self.verified[k] != csv_sha:
            self._check_csv(k, raw, dataset)
            self.verified[k] = csv_sha
        model = json.loads(_take(self.dirs[k] / "model.json"))
        expected = report.model.to_dict(stop_reason=report.stop_reason)
        if model != expected:
            raise CheckFailed(f"seed {k}: model.json {model} != in-memory fit {expected}")
        _same_or_first(
            self.outputs, k, [csv_sha, len(raw), describe_fit(report)], "seed"
        )

    @staticmethod
    def _check_csv(k, raw, dataset):
        header, _, body = raw.partition(b"\n")
        names = [f"x{j}" for j in range(dataset.n_features)] + ["y", "e"]
        if header.decode("ascii") != ",".join(names):
            raise CheckFailed(f"seed {k}: CSV header {header[:60]!r}...")
        table = np.loadtxt(io.BytesIO(body), delimiter=",", dtype=np.int64, ndmin=2)
        d = dataset.n_features
        if not (
            table.shape == (dataset.n_samples, d + 2)
            and np.array_equal(table[:, :d], dataset.features)
            and np.array_equal(table[:, d], dataset.labels)
            and np.array_equal(table[:, d + 1], dataset.envs)
        ):
            raise CheckFailed(f"seed {k}: reloaded CSV differs from the simulated arrays")

    def digest_parts(self):
        docs, p_values = [], []
        for csv_sha, size, (doc, p) in self.outputs:
            docs.append({"csv_sha256": csv_sha, "csv_bytes": size, "fit": doc})
            p_values.extend(p)
        return docs, p_values

    def inputs(self):
        m = 2 * self.samples_per_env
        return {
            "datasets": [[m, self.n_distractors + 3]] * self.n_seeds,
            "csv_bytes": [entry[1] for entry in self.outputs if entry is not None],
        }


class Grid:
    name = "grid"
    parts = ()
    rate = "grid_cells_per_s"
    min_passes = 2  # every grid runs twice, for the byte-identity check
    csv_names = ("identification.csv", "summary.csv", "fig_precision_recall.csv")

    def __init__(self, n_grids=2, xb_sizes=tuple(range(1, 8)), samples_per_env=10000):
        self.n_grids = n_grids
        self.xb_sizes = tuple(xb_sizes)
        self.samples_per_env = samples_per_env
        self.units_per_op = len(self.xb_sizes)

    def _grid(self, master_seed, xb_sizes):
        return ExperimentGrid(
            methods=("scm", "icscm", "icp"),
            xb_sizes=xb_sizes,
            n_runs=1,
            master_seed=master_seed,
            base_sim=SimConfig(n_samples_per_env=self.samples_per_env),
            record_timings=False,
            jobs=1,
        )

    def setup(self, seed, workdir):
        self.grids = [
            self._grid(derive_seed(seed, k), self.xb_sizes) for k in range(self.n_grids)
        ]
        self.dirs = [Path(workdir) / f"grid{k}" for k in range(self.n_grids)]
        self.outputs = [None] * self.n_grids
        warm = self._grid(derive_seed(seed, self.n_grids), self.xb_sizes[:1])
        harness.run_identification(warm, out_dir=Path(workdir) / "warm", plot_data=True)

    @property
    def pool_size(self):
        return self.n_grids

    def op(self, i):
        k = i % self.n_grids
        harness.run_identification(self.grids[k], out_dir=self.dirs[k], plot_data=True)
        return None, {}

    def check(self, i, output):
        k = i % self.n_grids
        files = {name: _take(self.dirs[k] / name) for name in self.csv_names}
        _same_or_first(self.outputs, k, files, "grid")

    def digest_parts(self):
        docs = [
            {name: hashlib.sha256(raw).hexdigest() for name, raw in files.items()}
            for files in self.outputs
        ]
        return docs, []

    def inputs(self):
        m = 2 * self.samples_per_env
        return {"datasets": [[m, xb + 3] for xb in self.xb_sizes]}


WORKLOADS = {w.name: w for w in (FitWide, CliCsv, Grid)}
