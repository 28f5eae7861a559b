"""Command-line surface: simulate, fit, prune, icp, experiment, benchmark.

Every flag that sets a config field is stored under that field's name and
has no default of its own: ``_config`` passes a config dataclass only the
flags given, so each hyperparameter default is the one SimConfig, ScmConfig,
IcscmConfig, IcpConfig or ExperimentGrid declares; benchmark's --xb alone
keeps its own (2..10). The flags that set no config field keep their own
defaults: --data, --model, -o/--out, --manifest, --force, --method,
--model-type, --plot-data and benchmark's --repeats.

Exit codes: 0 success, 2 usage/config error or unwritable output, 3 data
error, 4 refused as infeasible. All randomness flows from --seed.
"""

import argparse
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .data import load_dataset_csv, load_model_json, save_model_json, write_json
from .errors import ConfigError, DataError, InfeasibleError
from .harness import (
    ExperimentGrid,
    run_identification,
    run_runtime_benchmark,
    summarize,
)
from .icp import IcpConfig, icp_report
from .icscm import IcscmConfig, icscm_fit, prune
from .scm import ScmConfig, scm_fit
from .simulator import SimConfig, oracle_accuracy, save_simulation, simulate


def parse_xb_sizes(text):
    """Accept '1..7', '3', or '1,2,5' (mixable: '1..3,7')."""
    sizes = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo, _, hi = part.partition("..")
            try:
                lo, hi = int(lo), int(hi)
            except ValueError:
                raise ConfigError(f"bad size range {part!r}") from None
            if hi < lo:
                raise ConfigError(f"empty size range {part!r}")
            sizes.extend(range(lo, hi + 1))
        elif part:
            try:
                sizes.append(int(part))
            except ValueError:
                raise ConfigError(f"bad size {part!r}") from None
    if not sizes:
        raise ConfigError(f"no sizes in {text!r}")
    return tuple(sizes)


def parse_parent_probs(text):
    """Rows separated by ';', two comma-separated probabilities per row."""
    rows = []
    for chunk in text.split(";"):
        values = [v for v in chunk.split(",") if v.strip()]
        if len(values) != 2:
            raise ConfigError(f"parent-probs row {chunk!r} needs two values")
        try:
            rows.append((float(values[0]), float(values[1])))
        except ValueError:
            raise ConfigError(f"bad probability in {chunk!r}") from None
    return tuple(rows)


def _config(cls, args, **fixed):
    """``cls`` from the flags named after its fields that were given (not
    None), overridden by ``fixed``; every other field keeps its default."""
    given = {f.name: getattr(args, f.name, None) for f in fields(cls)}
    given = {k: v for k, v in given.items() if v is not None}
    return cls(**{**given, **fixed})


def cmd_simulate(args):
    probs = parse_parent_probs(args.parent_probs) if args.parent_probs else None
    config = _config(SimConfig, args, parent_probs=probs)
    if config.n_envs < 2:
        if not args.force:
            raise ConfigError(
                "invariance methods need >= 2 environments; pass --force to "
                "generate single-environment data anyway"
            )
        print(
            "warning: single-environment data; invariance methods will "
            "refuse this dataset",
            file=sys.stderr,
        )
    dataset, truth = simulate(config)
    csv_path, json_path = save_simulation(dataset, truth, config, args.out)
    acc_parents, acc_child = oracle_accuracy(dataset, truth)
    print(f"wrote {csv_path} ({dataset.n_samples} rows, {dataset.n_features} features)")
    print(f"wrote {json_path}")
    marginals = dataset.features.mean(axis=0).tolist()
    for name, marginal in zip(dataset.feature_names, marginals):
        print(f"  P({name}=1) = {marginal:.4f}")
    print(f"  P(y=1) = {float(dataset.labels.mean()):.4f}")
    print(f"  P(y = parents' AND) = {acc_parents:.4f}")
    print(f"  P(y = child) = {acc_child:.4f}")
    if args.manifest:
        write_json(args.manifest, {"command": "simulate", **asdict(config)})
    return 0


def _print_fit_report(dataset, report):
    model = report.model
    print(f"model: {model}")
    print(f"stop_reason: {report.stop_reason.value}")
    names = dataset.feature_names
    selected = sorted(report.selected_features)
    print(
        "selected features: "
        + (", ".join(f"{names[j]} (#{j})" for j in selected) if selected else "(none)")
    )
    error = float((model.predict(dataset.features) != dataset.labels).mean())
    print(f"training error: {error:.6f}")
    for i, rec in enumerate(report.per_iteration_log, start=1):
        line = f"  iter {i}: {rec.rule}  utility={rec.utility:.1f}"
        if rec.leaf_p_value is not None:
            line += f"  leaf_p={rec.leaf_p_value:.4g}"
        if rec.stop_p_value is not None:
            line += f"  stop_p={rec.stop_p_value:.4g}"
        print(line)


def cmd_fit(args):
    if args.method == "scm":
        shared = {f.name for f in fields(ScmConfig)}
        refused = [
            "--" + f.name.replace("_", "-")
            for f in fields(IcscmConfig)
            if f.name not in shared and getattr(args, f.name) is not None
        ]
        if refused:
            raise ConfigError(f"--method scm does not use {', '.join(refused)}")
        config, fit = _config(ScmConfig, args), scm_fit
    else:
        config, fit = _config(IcscmConfig, args), icscm_fit
    dataset = load_dataset_csv(args.data)
    report = fit(dataset, config, model_type=args.model_type)
    _print_fit_report(dataset, report)
    if args.out:
        save_model_json(report.model, args.out, stop_reason=report.stop_reason)
        print(f"wrote {args.out}")
    if args.manifest:
        write_json(
            args.manifest,
            {
                "command": "fit",
                "method": args.method,
                "data": str(args.data),
                "model_type": args.model_type,
                **asdict(config),
            },
        )
    return 0


def cmd_prune(args):
    dataset = load_dataset_csv(args.data)
    model, _ = load_model_json(args.model)
    alpha = IcscmConfig.alpha if args.alpha is None else args.alpha
    pruned = prune(model, dataset, alpha)
    kept = ", ".join(str(r) for r in pruned.rules) or "(empty model)"
    dropped = [str(r) for r in model.rules if r not in pruned.rules]
    print(f"kept: {kept}")
    print(f"dropped: {', '.join(dropped) if dropped else '(none)'}")
    if args.out:
        save_model_json(pruned, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_icp(args):
    dataset = load_dataset_csv(args.data)
    config = _config(IcpConfig, args)
    report = icp_report(dataset, config)
    selected = sorted(report.selected)
    n_accepted = sum(t.accepted for t in report.tests)
    names = dataset.feature_names
    print(f"tested {len(report.tests)} subsets")
    print(f"accepted {n_accepted} subsets")
    print(
        "selected features: "
        + (", ".join(f"{names[j]} (#{j})" for j in selected) if selected else "(none)")
    )
    if args.out:
        doc = {
            "selected": selected,
            "alpha": config.alpha,
            "n_tested": len(report.tests),
            "n_accepted": n_accepted,
            "tests": [asdict(t) for t in report.tests],
        }
        write_json(args.out, doc)
        print(f"wrote {args.out}")
    return 0


def _build_grid(args):
    lists = {}
    if args.methods is not None:
        lists["methods"] = [m.strip() for m in args.methods.split(",") if m.strip()]
    if args.xb_sizes is not None:
        lists["xb_sizes"] = parse_xb_sizes(args.xb_sizes)
    return _config(
        ExperimentGrid,
        args,
        **lists,
        base_sim=_config(SimConfig, args),
        scm_config=_config(ScmConfig, args),
        icscm_config=_config(IcscmConfig, args),
        icp_config=_config(IcpConfig, args),
    )


def cmd_experiment(args):
    grid = _build_grid(args)
    results = run_identification(grid, out_dir=args.out, plot_data=args.plot_data)
    for row in summarize(results):
        print(
            f"{row['method']:>14}  xb={row['xb_size']:<3} "
            f"rate={row['identification_rate']:.2f} "
            f"precision={row['mean_precision']:.2f} "
            f"recall={row['mean_recall']:.2f}"
        )
    print(f"wrote {Path(args.out) / 'identification.csv'}")
    print(f"wrote {Path(args.out) / 'summary.csv'}")
    return 0


def cmd_benchmark(args):
    grid = _build_grid(args)
    rows = run_runtime_benchmark(grid, repeats=args.repeats, out_dir=args.out)
    for row in rows:
        print(
            f"{row['method']:>14}  xb={row['xb_size']:<3} "
            f"median={row['median_wall_time_s']:.4f}s"
        )
    print(f"wrote {Path(args.out) / 'benchmark.csv'}")
    return 0


def _add_sim_flags(parser):
    parser.add_argument(
        "--samples", dest="n_samples_per_env", type=int,
        help=f"samples per environment (default {SimConfig.n_samples_per_env})")
    parser.add_argument("--n-env", dest="n_envs", type=int,
                        help=f"number of environments (default {SimConfig.n_envs})")


def _add_fit_hyper_flags(parser):
    parser.add_argument("--p", type=float,
                        help="utility penalty on misclassified positives")
    parser.add_argument("--max-rules", type=int)
    parser.add_argument("--alpha", type=float, help="independence-test threshold")


def _add_grid_flags(parser):
    """The flags experiment and benchmark share."""
    parser.add_argument("--methods")
    parser.add_argument("--seed", dest="master_seed", type=int)
    _add_sim_flags(parser)
    _add_fit_hyper_flags(parser)
    parser.add_argument("--max-subset-size", type=int)
    parser.add_argument("--min-cell", dest="min_samples_per_cell", type=int)
    parser.add_argument("-o", "--out", required=True)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rulecover",
        description="Rule-conjunction learners, invariant-set baselines and "
        "the multi-environment benchmark harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a benchmark dataset")
    p.add_argument("--xb", dest="n_distractors", type=int,
                   help="number of distractor features")
    p.add_argument("--seed", type=int)
    _add_sim_flags(p)
    p.add_argument("--eps-y", type=float, help="label flip probability")
    p.add_argument("--eps-child", type=float,
                   help="probability the child records the environment instead of y")
    p.add_argument("--eps-distractor", type=float, help="P(distractor = 1)")
    p.add_argument("--parent-probs",
                   help="per-env parent marginals, e.g. '0.1,0.5;0.5,0.3'")
    p.add_argument("--force", action="store_true",
                   help="allow single-environment data")
    p.add_argument("-o", "--out", required=True, help="output directory")
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit a rule conjunction to a dataset CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--method", choices=("scm", "icscm"), default="icscm")
    _add_fit_hyper_flags(p)
    p.add_argument("--min-leaf", type=int)
    p.add_argument("--test-method", choices=("chi2", "gtest"))
    p.add_argument("--prune", dest="prune", action="store_true", default=None)
    p.add_argument("--no-prune", dest="prune", action="store_false")
    p.add_argument("--model-type", choices=("conjunction", "disjunction"),
                   default="conjunction")
    p.add_argument("-o", "--out", default=None, help="model JSON path")
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("prune", help="prune a fitted model against a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--alpha", type=float)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("icp", help="exhaustive invariant-subset baseline")
    p.add_argument("--data", required=True)
    p.add_argument("--alpha", type=float)
    p.add_argument("--max-subset-size", type=int)
    p.add_argument("--min-cell", dest="min_samples_per_cell", type=int,
                   help="required samples per cell before a subset is testable")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_icp)

    p = sub.add_parser("experiment", help="identification-rate grid")
    _add_grid_flags(p)
    p.add_argument("--xb", dest="xb_sizes", help="distractor sizes, e.g. '1..7'")
    p.add_argument("--runs", dest="n_runs", type=int)
    p.add_argument("--jobs", type=int)
    p.add_argument("--plot-data", action="store_true",
                   help="also emit tidy per-figure CSVs")
    p.add_argument("--no-timing", dest="record_timings", action="store_false",
                   default=None,
                   help="write wall_time_s as 0 for byte-identical re-runs")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("benchmark", help="runtime curves per method")
    _add_grid_flags(p)
    p.add_argument("--xb", dest="xb_sizes", default="2..10")
    p.add_argument("--repeats", type=int, default=3)
    p.set_defaults(func=cmd_benchmark)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InfeasibleError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
