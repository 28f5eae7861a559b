"""Experiment driver: identification-rate grids over (method, distractor
count, seed), runtime curves, and tidy CSV output. ``run_identification`` is
the one loop over grid cells; the runtime curves time the same cells as an
experiment, one after another, and report per-cell medians.

Per-run seeds are derived as SeedSequence((master_seed, xb_size, run_index)),
so every run is reproducible in isolation and all methods within a run see
the identical dataset (paired comparison). Wall-clock columns are the only
nondeterministic output; pass record_timings=False to zero them when byte-
identical re-runs are required.
"""

import csv
import operator
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path
import numpy as np

from . import _kernels as kernels
from . import icp
from .data import write_json
from .errors import ConfigError, _require_int, _require_int_fields
from .icp import IcpConfig
from .icscm import IcscmConfig, icscm_fit
from .scm import ScmConfig, scm_fit
from .simulator import SimConfig, simulate

KNOWN_METHODS = ("scm", "icscm", "icscm_noprune", "icp")

IDENTIFICATION_COLUMNS = (
    "method",
    "xb_size",
    "seed",
    "exact_match",
    "precision",
    "recall",
    "wall_time_s",
)

SUMMARY_COLUMNS = (
    "method",
    "xb_size",
    "n_runs",
    "identification_rate",
    "mean_precision",
    "mean_recall",
    "mean_wall_time_s",
)


@dataclass(frozen=True)
class ExperimentGrid:
    methods: tuple = ("scm", "icscm", "icp")
    xb_sizes: tuple = (1, 2, 3, 4, 5, 6, 7)
    n_runs: int = 20
    master_seed: int = 0
    base_sim: SimConfig = SimConfig()
    scm_config: ScmConfig = ScmConfig()
    icscm_config: IcscmConfig = IcscmConfig()
    icp_config: IcpConfig = IcpConfig()
    record_timings: bool = True
    jobs: int = 1

    def __post_init__(self):
        object.__setattr__(self, "methods", tuple(self.methods))
        try:
            sizes = tuple(map(operator.index, self.xb_sizes))
        except TypeError:
            raise ConfigError(f"xb_sizes must be integers, got {self.xb_sizes}") from None
        object.__setattr__(self, "xb_sizes", sizes)
        if not self.methods:
            raise ConfigError("methods must not be empty")
        unknown = [m for m in self.methods if m not in KNOWN_METHODS]
        if unknown:
            raise ConfigError(f"unknown methods {unknown}; choices: {KNOWN_METHODS}")
        if len(set(self.methods)) < len(self.methods):
            raise ConfigError(f"methods must not repeat a method, got {self.methods}")
        if not self.xb_sizes:
            raise ConfigError("xb_sizes must not be empty")
        if any(x < 0 for x in self.xb_sizes):
            raise ConfigError("xb_sizes must be non-negative")
        if len(set(self.xb_sizes)) < len(self.xb_sizes):
            raise ConfigError(f"xb_sizes must not repeat a size, got {self.xb_sizes}")
        _require_int_fields(self, master_seed=0, n_runs=1, jobs=1)
        invariant = ", ".join(m for m in self.methods if m != "scm")
        if invariant and self.base_sim.n_envs < 2:
            raise ConfigError(f"{invariant} need >= 2 environments, got 1")


@dataclass(frozen=True)
class IdentificationResult:
    method: str
    xb_size: int
    seed: int
    selected_features: frozenset
    exact_match: bool
    precision: float
    recall: float
    wall_time_s: float


def derive_run_seed(master_seed, xb_size, run_index):
    """Stable 64-bit per-run seed; independent of the method list."""
    ss = np.random.SeedSequence((int(master_seed), int(xb_size), int(run_index)))
    return int(ss.generate_state(1, np.uint64)[0])


def precision_recall(selected, parents):
    """Precision of the selected set against the true parents (empty
    selection counts as precision 1) and recall |selected & parents| /
    |parents|."""
    selected = frozenset(selected)
    parents = frozenset(parents)
    hit = len(selected & parents)
    precision = 1.0 if not selected else hit / len(selected)
    recall = hit / len(parents) if parents else 1.0
    return precision, recall


def _fit_selected(method, dataset, grid):
    if method == "scm":
        return set(scm_fit(dataset, grid.scm_config).selected_features)
    if method == "icscm":
        return set(icscm_fit(dataset, grid.icscm_config).selected_features)
    if method == "icscm_noprune":
        config = replace(grid.icscm_config, prune=False)
        return set(icscm_fit(dataset, config).selected_features)
    if method == "icp":
        # looked up on the module, so that a rebound icp.icp_report is called
        return set(icp.icp_report(dataset, grid.icp_config).selected)
    raise ConfigError(f"unknown method {method!r}")


def _run_cell(args):
    """One (xb_size, run_index) task: simulate once, fit every method."""
    grid, xb_size, run_index = args
    seed = derive_run_seed(grid.master_seed, xb_size, run_index)
    sim = replace(grid.base_sim, n_distractors=xb_size, seed=seed)
    dataset, truth = simulate(sim)
    parents = truth.parent_indices
    rows = []
    for method in grid.methods:
        start = time.perf_counter()
        selected = _fit_selected(method, dataset, grid)
        elapsed = time.perf_counter() - start
        precision, recall = precision_recall(selected, parents)
        rows.append(
            IdentificationResult(
                method=method,
                xb_size=xb_size,
                seed=seed,
                selected_features=frozenset(selected),
                exact_match=frozenset(selected) == parents,
                precision=precision,
                recall=recall,
                wall_time_s=elapsed if grid.record_timings else 0.0,
            )
        )
    return rows


def _before_cells(grid, out_dir):
    """Refuse an icp grid too wide for ``icp.check_feasible`` (at max xb + 3
    features), then create ``out_dir`` when one is given, so that neither
    is found out after the cells have run."""
    if "icp" in grid.methods:
        icp.check_feasible(max(grid.xb_sizes) + 3, grid.icp_config)
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)


def run_identification(grid, out_dir=None, plot_data=False):
    """Run the grid and return the per-run results, optionally writing
    identification.csv, summary.csv, manifest.json (and the tidy plot CSV)
    under ``out_dir``. An icp grid too wide for ``icp.check_feasible`` (at
    max xb + 3 features), or an ``out_dir`` that cannot be created, is
    refused before any cell runs."""
    _before_cells(grid, out_dir)
    tasks = [
        (grid, xb, run) for xb in grid.xb_sizes for run in range(grid.n_runs)
    ]
    workers = min(grid.jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            nested = list(pool.map(_run_cell, tasks, chunksize=1))
    else:
        nested = [_run_cell(task) for task in tasks]
    results = [row for rows in nested for row in rows]
    order = {m: i for i, m in enumerate(grid.methods)}
    results.sort(key=lambda r: (r.xb_size, r.seed, order[r.method]))
    if out_dir is not None:
        out_dir = Path(out_dir)
        write_identification_csv(results, out_dir / "identification.csv")
        summary = summarize(results)
        write_summary_csv(summary, out_dir / "summary.csv")
        write_manifest(grid, out_dir)
        if plot_data:
            write_precision_recall_csv(summary, out_dir / "fig_precision_recall.csv")
    return results


def summarize(results):
    """Aggregate per (method, xb_size): identification rate, mean precision,
    recall and wall time."""
    cells = {}
    for row in results:
        cells.setdefault((row.method, row.xb_size), []).append(row)
    summary = []
    for (method, xb_size) in sorted(cells, key=lambda key: (key[1], key[0])):
        rows = cells[(method, xb_size)]
        summary.append(
            {
                "method": method,
                "xb_size": xb_size,
                "n_runs": len(rows),
                "identification_rate": sum(r.exact_match for r in rows) / len(rows),
                "mean_precision": sum(r.precision for r in rows) / len(rows),
                "mean_recall": sum(r.recall for r in rows) / len(rows),
                "mean_wall_time_s": sum(r.wall_time_s for r in rows) / len(rows),
            }
        )
    return summary


def _write_csv(path, header, rows):
    """Every harness table: a header, then one line per row, LF endings,
    float cells with six decimals."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.6f}" if isinstance(v, float) else v for v in row])


def write_identification_csv(results, path):
    _write_csv(
        path,
        IDENTIFICATION_COLUMNS,
        (
            (r.method, r.xb_size, r.seed, int(r.exact_match), r.precision,
             r.recall, r.wall_time_s)
            for r in results
        ),
    )


def write_summary_csv(summary, path):
    _write_csv(
        path, SUMMARY_COLUMNS, ([row[c] for c in SUMMARY_COLUMNS] for row in summary)
    )


def write_precision_recall_csv(summary, path):
    """Tidy long-format metric table (one row per method/size/metric)."""
    _write_csv(
        path,
        ("method", "xb_size", "metric", "value"),
        (
            (row["method"], row["xb_size"], metric, row[metric])
            for row in summary
            for metric in ("identification_rate", "mean_precision", "mean_recall")
        ),
    )


def write_manifest(grid, out_dir):
    """manifest.json: every grid and config field, plus how run seeds are
    derived and which counting kernels ran."""
    path = Path(out_dir) / "manifest.json"
    write_json(
        path,
        {
            **asdict(grid),
            "seed_derivation": "SeedSequence((master_seed, xb_size, run_index))"
            " -> uint64; datasets are shared across methods within a run",
            "kernel_backend": kernels.BACKEND,
        },
    )
    return path


def run_runtime_benchmark(grid, repeats=3, out_dir=None):
    """Median fit wall time per (method, xb_size) over runs 0..repeats-1 of
    ``run_identification``'s cells, timed one after another in this process
    whatever ``grid.jobs`` says (data generation is not timed). Returns row
    dicts in (xb_size, method) grid order; optionally writes benchmark.csv,
    creating ``out_dir`` before any cell runs."""
    repeats = _require_int("repeats", repeats, 1)
    _before_cells(grid, out_dir)
    timed = replace(grid, n_runs=repeats, record_timings=True, jobs=1)
    times = {}
    for r in run_identification(timed):
        times.setdefault((r.xb_size, r.method), []).append(r.wall_time_s)
    rows = [
        {
            "method": method,
            "xb_size": xb_size,
            "repeats": repeats,
            "median_wall_time_s": float(np.median(times[xb_size, method])),
        }
        for xb_size in grid.xb_sizes
        for method in grid.methods
    ]
    if out_dir is not None:
        columns = ("method", "xb_size", "repeats", "median_wall_time_s")
        _write_csv(
            Path(out_dir) / "benchmark.csv",
            columns,
            ([r[c] for c in columns] for r in rows),
        )
    return rows
