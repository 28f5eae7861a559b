"""Command-line surface: simulate, fit, prune, icp, experiment, benchmark.

Exit codes: 0 success, 2 usage/config error or unwritable output, 3 data
error, 4 refused as infeasible. All randomness flows from --seed.
"""

import argparse
import sys
from dataclasses import asdict
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


def cmd_simulate(args):
    config = SimConfig(
        n_envs=args.n_env,
        n_samples_per_env=args.samples,
        n_distractors=args.xb,
        eps_y=args.eps_y,
        eps_child=args.eps_child,
        eps_distractor=args.eps_distractor,
        parent_probs=parse_parent_probs(args.parent_probs)
        if args.parent_probs
        else None,
        seed=args.seed,
    )
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


# Only icscm reads these flags. They default to None, so that --method scm
# can refuse them and icscm takes the IcscmConfig defaults.
_ICSCM_FLAGS = ("alpha", "min_leaf", "test_method", "prune")


def cmd_fit(args):
    given = {k: getattr(args, k) for k in _ICSCM_FLAGS if getattr(args, k) is not None}
    if args.method == "scm":
        if given:
            flags = ", ".join("--" + k.replace("_", "-") for k in given)
            raise ConfigError(f"--method scm does not use {flags}")
        config = ScmConfig(p=args.p, max_rules=args.max_rules)
        fit = scm_fit
    else:
        config = IcscmConfig(p=args.p, max_rules=args.max_rules, **given)
        fit = icscm_fit
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
    pruned = prune(model, dataset, args.alpha)
    kept = ", ".join(str(r) for r in pruned.rules) or "(empty model)"
    dropped = [str(r) for r in model.rules if r not in pruned.rules]
    print(f"kept: {kept}")
    print(f"dropped: {', '.join(dropped) if dropped else '(none)'}")
    if args.out:
        save_model_json(pruned, args.out)
        print(f"wrote {args.out}")
    return 0


def _icp_config(args):
    return IcpConfig(
        alpha=args.alpha,
        max_subset_size=args.max_subset_size,
        min_samples_per_cell=args.min_cell,
    )


def cmd_icp(args):
    dataset = load_dataset_csv(args.data)
    config = _icp_config(args)
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


def _build_grid(args, record_timings=True):
    base_sim = SimConfig(
        n_envs=args.n_env,
        n_samples_per_env=args.samples,
        seed=0,
    )
    return ExperimentGrid(
        methods=tuple(m.strip() for m in args.methods.split(",") if m.strip()),
        xb_sizes=parse_xb_sizes(args.xb),
        n_runs=getattr(args, "runs", 1),
        master_seed=args.seed,
        base_sim=base_sim,
        scm_config=ScmConfig(p=args.p, max_rules=args.max_rules),
        icscm_config=IcscmConfig(
            p=args.p, max_rules=args.max_rules, alpha=args.alpha
        ),
        icp_config=_icp_config(args),
        record_timings=record_timings,
        jobs=getattr(args, "jobs", 1),
    )


def cmd_experiment(args):
    grid = _build_grid(args, record_timings=not args.no_timing)
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
    parser.add_argument("--samples", type=int, default=10000,
                        help="samples per environment (default 10000)")
    parser.add_argument("--n-env", type=int, default=2,
                        help="number of environments (default 2)")


def _add_fit_hyper_flags(parser):
    parser.add_argument("--p", type=float, default=1.0,
                        help="utility penalty on misclassified positives")
    parser.add_argument("--max-rules", type=int, default=10)
    parser.add_argument("--alpha", type=float, default=0.05,
                        help="independence-test threshold")


def _add_grid_flags(parser):
    """The flags experiment and benchmark share."""
    parser.add_argument("--methods", default="scm,icscm,icp")
    parser.add_argument("--seed", type=int, default=0)
    _add_sim_flags(parser)
    _add_fit_hyper_flags(parser)
    parser.add_argument("--max-subset-size", type=int, default=None)
    parser.add_argument("--min-cell", type=int, default=10)
    parser.add_argument("-o", "--out", required=True)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rulecover",
        description="Rule-conjunction learners, invariant-set baselines and "
        "the multi-environment benchmark harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a benchmark dataset")
    p.add_argument("--xb", type=int, default=3, help="number of distractor features")
    p.add_argument("--seed", type=int, default=0)
    _add_sim_flags(p)
    p.add_argument("--eps-y", type=float, default=0.05, help="label flip probability")
    p.add_argument("--eps-child", type=float, default=0.05,
                   help="probability the child records the environment instead of y")
    p.add_argument("--eps-distractor", type=float, default=0.5,
                   help="P(distractor = 1)")
    p.add_argument("--parent-probs", default=None,
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
    p.set_defaults(alpha=None)
    p.add_argument("--model-type", choices=("conjunction", "disjunction"),
                   default="conjunction")
    p.add_argument("-o", "--out", default=None, help="model JSON path")
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("prune", help="prune a fitted model against a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("icp", help="exhaustive invariant-subset baseline")
    p.add_argument("--data", required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--max-subset-size", type=int, default=None)
    p.add_argument("--min-cell", type=int, default=10,
                   help="required samples per cell before a subset is testable")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_icp)

    p = sub.add_parser("experiment", help="identification-rate grid")
    _add_grid_flags(p)
    p.add_argument("--xb", default="1..7", help="distractor sizes, e.g. '1..7'")
    p.add_argument("--runs", type=int, default=20)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--plot-data", action="store_true",
                   help="also emit tidy per-figure CSVs")
    p.add_argument("--no-timing", action="store_true",
                   help="write wall_time_s as 0 for byte-identical re-runs")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("benchmark", help="runtime curves per method")
    _add_grid_flags(p)
    p.add_argument("--xb", default="2..10")
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
