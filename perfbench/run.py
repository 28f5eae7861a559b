"""rulecover's benchmark: end-to-end metrics per workload, and a traced run
for per-layer metrics.

One workload, as the benchmark contract runs it (from the repository root):

    python3 perfbench/run.py --workload fit-wide --seed 1 --seconds 20 --trace 0

prints human-readable lines, then as its last line one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` they are the per-layer ones, from a run whose second half
records spans around calls into the package (see ``layers.py``).

Every workload, each in a fresh interpreter, with a summary of all metrics:

    python3 perfbench/run.py --all [--trace 0|1] [--seed 0] [--seconds N]

The process exits non-zero when an op fails, a correctness check fails, or
a run on the default seed does not reproduce the output digests recorded in
``perfbench/expected.json``.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def child_env():
    """This process's environment with one BLAS/OpenMP thread and the
    checkout's ``src`` first on the import path."""
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


def time_import():
    """Seconds for a fresh interpreter to import the package."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import rulecover.cli"],
        env=child_env(),
        cwd=ROOT,
        check=True,
    )
    return time.perf_counter() - start


def quantile(values, q):
    """Linear-interpolated quantile (statistics.quantiles' inclusive method)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Loop:
    """Outcome of one closed-loop measurement."""

    def __init__(self, parts):
        self.samples = []  # seconds per op, one sample per call
        self.parts = {name: [] for name in parts}
        self.units = 0  # ops completed
        self.busy_s = 0.0  # time inside completed ops
        self.attempted = 0
        self.failed = 0


def measure(workload, seconds, tracer=None):
    """Run whole passes over the workload's input pool until ``seconds`` have
    passed and at least ``min_passes`` passes are done. Only the op is
    timed; its check runs after, outside the timed region and the tracer."""
    loop = Loop(workload.parts)
    start = time.perf_counter()
    i = 0
    while True:
        if i % workload.pool_size == 0:
            passes = i // workload.pool_size
            if passes >= workload.min_passes and time.perf_counter() - start >= seconds:
                return loop
        units = workload.units_per_op
        loop.attempted += units
        recording = tracer.record() if tracer is not None else nullcontext()
        try:
            t0 = time.perf_counter()
            with recording:
                output, parts = workload.op(i)
            elapsed = time.perf_counter() - t0
            workload.check(i, output)
        except Exception:  # an op that raises or fails its check counts as failed
            loop.failed += units
            traceback.print_exc(file=sys.stderr)
        else:
            loop.samples.append(elapsed / units)
            loop.units += units
            loop.busy_s += elapsed
            for name, value in parts.items():
                loop.parts[name].append(value)
        i += 1


def digest(workload):
    """sha256 over the discrete outputs of every pool entry, and their
    p-values, which are compared at a tolerance instead of hashed."""
    docs, p_values = workload.digest_parts()
    blob = json.dumps(docs, sort_keys=True, separators=(",", ":")).encode()
    return {"sha256": hashlib.sha256(blob).hexdigest(), "p_values": p_values}


def digest_matches(found, expected, rel_tol, abs_tol):
    return (
        found["sha256"] == expected["sha256"]
        and len(found["p_values"]) == len(expected["p_values"])
        and all(
            math.isclose(a, b, rel_tol=rel_tol, abs_tol=abs_tol)
            for a, b in zip(found["p_values"], expected["p_values"])
        )
    )


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def metadata(workload):
    import numpy
    import rulecover

    return {
        "git_sha": git_sha(),
        "kernel_backend": rulecover.KERNEL_BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "inputs": workload.inputs(),
    }


def named_metrics(workload, loop, setups, peak_rss_mb):
    """The end-to-end metrics named per workload, each with its sample count."""
    out = {
        "setup_s": {"value": statistics.median(setups), "unit": "s", "n": len(setups)},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB", "n": 1},
        "ops_failed_frac": {
            "value": loop.failed / loop.attempted,
            "unit": "frac",
            "n": loop.attempted,
        },
    }
    for name, values in loop.parts.items():
        if values:
            for label, q in (("p50", 0.5), ("p90", 0.9)):
                out[f"{name}.{label}"] = {
                    "value": quantile(values, q), "unit": "s", "n": len(values)
                }
    if workload.rate and loop.busy_s:
        out[workload.rate] = {
            "value": loop.units / loop.busy_s, "unit": "1/s", "n": loop.units
        }
    return out


def run_workload(args):
    for name in THREAD_VARS:
        os.environ[name] = "1"
    sys.path.insert(0, str(SRC))
    import workloads
    from layers import layer_metrics, sites
    from spans import Tracer, aggregate

    workload = workloads.WORKLOADS[args.workload]()
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        setups = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            import_s = time_import()
            start = time.perf_counter()
            workload.setup(args.seed, workdir)
            setups.append(import_s + time.perf_counter() - start)
        setup_s = statistics.median(setups)

        if args.trace:
            plain = measure(workload, args.seconds / 2)
            tracer = Tracer()
            with tracer.patched(sites()):
                traced = measure(workload, args.seconds / 2, tracer)
            overhead = (
                statistics.median(traced.samples) / statistics.median(plain.samples) - 1
                if plain.samples and traced.samples
                else 0.0
            )
            metrics = layer_metrics(aggregate(tracer.spans), max(traced.units, 1), overhead)
            loops = (plain, traced)
        else:
            loop = measure(workload, args.seconds)
            loops = (loop,)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        found = digest(workload) if all(o is not None for o in workload.outputs) else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        expected = json.load(fh)
    digest_ok = True
    if args.seed == expected["default_seed"]:
        want = expected["digests"].get(args.workload)
        digest_ok = found is not None and want is not None and digest_matches(
            found, want, workloads.P_REL, workloads.P_ABS
        )
        print(f"default-seed digest: {'match' if digest_ok else 'MISMATCH'}")

    timed = loops[0]
    named = named_metrics(workload, timed, setups, peak_rss_mb)
    for name, m in named.items():
        print(f"  {name:<22} {m['value']:.6g} {m['unit']}  (n={m['n']})")
    print("detail " + json.dumps(
        {"workload": args.workload, "seed": args.seed, "metrics": named,
         "digest": found, "meta": metadata(workload)},
        sort_keys=True,
    ))
    if not args.trace:
        metrics = {
            "op_s.p50": {"value": statistics.median(timed.samples), "unit": "s"},
            "ops_per_s": {"value": timed.units / timed.busy_s, "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        } if timed.samples else {}
    correct = failed == 0 and digest_ok and bool(metrics)
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if correct else 1


def run_all(args):
    """Each workload of BENCHMARK.json in a fresh interpreter, then a table."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds if args.seconds else bench["run_seconds"]
    status = 0
    for entry in bench["workloads"]:
        argv = [
            sys.executable, str(HERE / "run.py"), "--workload", entry["name"],
            "--seed", str(args.seed), "--seconds", str(seconds),
            "--trace", str(args.trace),
        ]
        done = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        detail = next(
            (json.loads(line[len("detail "):]) for line in lines if line.startswith("detail ")),
            None,
        )
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = None
        ok = done.returncode == 0 and result is not None and result["correct"]
        status = status or (0 if ok else 1)
        print(f"{entry['name']}: {'ok' if ok else 'FAILED'} (exit {done.returncode})")
        for line in lines:
            if line.startswith("default-seed digest"):
                print(f"  {line}")
        if detail:
            for name, m in detail["metrics"].items():
                print(f"  {name:<22} {m['value']:.6g} {m['unit']}  (n={m['n']})")
        if result:
            for name, m in result["metrics"].items():
                print(f"  {name:<36} {m['value']:.6g} {m['unit']}")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=("fit-wide", "cli-csv", "grid"))
    target.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rulecover" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'rulecover'}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    if args.seconds is None:
        parser.error("--workload needs --seconds")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
