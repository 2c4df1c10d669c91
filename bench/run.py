"""openevt benchmark: seeded workloads, end-to-end metrics and a traced run
with per-layer metrics.

    python3 bench/run.py --workload letter16 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py                      # every workload, one process each

One workload runs in this process (its CLI commands in child processes).
Its inputs are generated and written first; then passes of the workload run
until ``--seconds`` have elapsed, with set-up and a reference computation
timed between them. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics plus the tracing overhead. Outputs are
checked against brute-force oracles after timing. The last line of stdout
is one JSON object; the exit code is non-zero when any operation failed.
Run records and spans are kept under ``.bench_runs/`` in the checkout.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("letter16", "stream2", "oletter30")

# One BLAS thread: the protocol's two worker threads already use both cores.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MIN_PASSES = 3            # untraced run
MIN_TRACED_PASSES = 2     # traced run, alternating with untraced passes

DETAIL_UNITS = {
    "pass_s": "s", "reference_s": "s",
    "fit_gpdc_s": "s", "fit_gevc_s": "s",
    "score_gpdc_rows_per_s": "rows/s", "score_gevc_rows_per_s": "rows/s",
    "update_rows_per_s": "rows/s",
    "query_p50_ms": "ms", "query_p99_ms": "ms", "query_p999_ms": "ms",
    "protocol_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=("full", "smoke"),
                        help="smoke: tiny inputs, for the harness self-test")
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def time_import(env, cwd) -> float:
    """Wall seconds of a fresh interpreter running ``import openevt.cli``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import openevt.cli"], env=env,
                   cwd=cwd, check=True)
    return time.perf_counter() - start


def reference_s(points) -> float:
    """Wall seconds of a fixed computation that does not touch openevt: a
    kd-tree build and query and a Python loop over small numpy operations,
    the kinds of work the workloads do. Timed between a workload's
    operations, it tracks the machine's speed during the run, which drifts
    on shared hosts."""
    import numpy as np
    from scipy.spatial import cKDTree

    start = time.perf_counter()
    cKDTree(points).query(points, k=8)
    for row in points:
        diff = points[:200] - row
        np.sqrt(np.einsum("ij,ij->i", diff, diff)).min()
    return time.perf_counter() - start


def neighbors_import_s(env, cwd) -> float:
    """Cumulative ``-X importtime`` of openevt.neighbors, median of 3."""
    values = []
    for _ in range(3):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import openevt.cli"],
            env=env, cwd=cwd, check=True, stderr=subprocess.PIPE, text=True)
        for line in proc.stderr.splitlines():
            cells = line.split("|")
            if len(cells) == 3 and cells[2].strip() == "openevt.neighbors":
                values.append(int(cells[1]) / 1e6)
    return statistics.median(values) if values else 0.0


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True).stdout.strip()
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ[k] for k in BLAS_ENV},
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def details(passes) -> dict:
    """Per-operation metrics of the untraced passes: name -> (value, n)."""
    import numpy as np

    out = {}
    for key in passes[0].samples:
        values = [p.samples[key] for p in passes if key in p.samples]
        if key == "query_latency_s":
            lat = np.concatenate(values) * 1e3
            for name, q in (("query_p50_ms", 50), ("query_p99_ms", 99),
                            ("query_p999_ms", 99.9)):
                out[name] = (float(np.percentile(lat, q)), lat.shape[0])
        else:
            out[key] = (statistics.median(values), len(values))
    return out


def run_workload(args) -> int:
    import numpy as np

    import spans
    import workloads

    workdir = ROOT / ".bench_runs" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    workdir.mkdir(parents=True)
    env = child_env()
    ctx = workloads.Context(workdir, env, args.seed)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "scale": args.scale, "environment": environment()}

    time_import(env, workdir)  # leaves the bytecode cache warm
    setup, reference = [], []
    reference_points = np.random.default_rng(0).standard_normal((4000, 8))
    import_s = neighbors_import_s(env, workdir) if args.trace else None
    workload = workloads.WORKLOADS[args.workload](
        ctx, workloads.SIZES[args.scale][args.workload])

    plain, traced, layers, errors = [], [], [], []
    recorder, raised, unwrapped = None, 0, []
    start = time.perf_counter()
    while True:
        done = time.perf_counter() - start >= args.seconds
        if args.trace:
            if done and plain and len(traced) >= MIN_TRACED_PASSES:
                break
            use_trace = len(traced) < len(plain)
        else:
            if done and len(plain) >= MIN_PASSES:
                break
            use_trace = False
        before_op = None
        if not args.trace:
            # Set-up and the reference are timed between operations, so
            # that their samples spread over the run like the passes' own.
            setup.append(time_import(env, workdir))
            before_op = lambda: reference.append(reference_s(reference_points))  # noqa: E731
        rec = spans.Recorder() if use_trace else None
        wrappers = spans.Wrappers(rec).install() if use_trace else None
        if wrappers is not None:
            unwrapped = wrappers.missing
        try:
            result = workload.run_pass(rec, before_op)
        except Exception as exc:  # an operation raised: record it and stop
            errors.append(f"pass raised {type(exc).__name__}: {exc}")
            result, raised = None, 1
        finally:
            if wrappers is not None:
                wrappers.remove()
        if result is None:
            break
        errors += result.errors
        if use_trace:
            traced.append(result)
            recorder = rec
            per_pass = spans.layer_metrics(rec.spans, jobs=workload.jobs)
            per_pass["serialize.model_bytes"] = result.model_bytes
            layers.append(per_pass)
        else:
            plain.append(result)
    rss = peak_rss_mb()

    passes = plain + traced
    attempted = sum(p.attempted for p in passes) + raised
    failed = sum(p.failed for p in passes) + raised
    if len({p.digest for p in passes}) > 1:
        errors.append("outputs differ between passes of the same inputs")
        failed += 1
    for name in spans.COUNTERS:
        if len({pass_layers[name] for pass_layers in layers}) > 1:
            errors.append(f"work counter {name} differs between traced passes")
            failed += 1
    if passes and not any(p.failed for p in passes):
        mismatches = workload.check()
        errors += mismatches
        failed += len(mismatches)
    failed = min(failed, attempted)
    correct = failed == 0 and not errors

    found = details(plain) if plain else {}
    pass_s = statistics.median(p.wall for p in plain) if plain else 0.0
    if args.trace:
        metrics = {}
        for name, unit in spans.LAYER_UNITS.items():
            if name == "neighbors.import_s":
                value = import_s
            elif name == "trace.overhead_s":
                value = (statistics.median(p.wall for p in traced) - pass_s
                         if traced else 0.0)
            else:
                value = statistics.median(pl[name] for pl in layers) if layers else 0.0
            metrics[name] = {"value": value, "unit": unit}
    else:
        found["pass_s"] = (pass_s, len(plain))
        found["reference_s"] = (statistics.median(reference), len(reference))
        # A ratio of means, not of medians: the machine switches between
        # two speeds, and a median flips between them where a mean does not.
        metrics = {
            "pass_over_ref": {"value": statistics.mean(p.wall for p in plain)
                              / statistics.mean(reference), "unit": "ratio"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }

    print(f"environment: {json.dumps(record['environment'], sort_keys=True)}")
    print(f"workload {args.workload}: seed {args.seed}, {len(plain)} untraced "
          f"and {len(traced)} traced passes")
    if not args.trace:
        print(f"  pass_over_ref = {metrics['pass_over_ref']['value']:.6g} ratio "
              f"(mean pass_s / mean reference_s)")
        print(f"  peak_rss_mb = {rss:.1f} MB (largest process)")
        print(f"  setup_s = {metrics['setup_s']['value']:.6g} s "
              f"(median of {len(setup)})")
    for name, (value, n) in found.items():
        print(f"  {name} = {value:.6g} {DETAIL_UNITS[name]} (median of {n})"
              if not name.startswith("query_p") else
              f"  {name} = {value:.6g} {DETAIL_UNITS[name]} (of {n} queries)")
    if args.trace:
        print("  per layer (median over traced passes):")
        for name, m in metrics.items():
            print(f"    {name} = {m['value']:.6g} {m['unit']}")
        print("  note: neighbors.returned_per_query comes from QueryCounters, "
              "which counts neighbours returned, not distances evaluated")
        if unwrapped:
            print(f"  note: not found, so not traced: {', '.join(unwrapped)}")
    print(f"operations: {failed} failed of {attempted} attempted")
    for line in errors[:20]:
        print(f"  error: {line}")

    record.update(
        setup_s=setup, reference_s=reference, peak_rss_mb=rss, metrics=metrics,
        details={k: {"value": v, "unit": DETAIL_UNITS[k], "samples": n}
                 for k, (v, n) in found.items()},
        pass_walls={"untraced": [p.wall for p in plain],
                    "traced": [p.wall for p in traced]},
        digests=sorted({p.digest for p in passes}),
        layers_per_pass=layers, attempted=attempted, failed=failed,
        errors=errors)
    for item in workdir.iterdir():
        if item.is_dir():
            shutil.rmtree(item)
        else:
            item.unlink()
    (workdir / "record.json").write_text(json.dumps(record, indent=1, default=str))
    if recorder is not None:
        recorder.dump(workdir / "spans.jsonl")

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process; a summary of every metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})")
            return proc.returncode or 1
        status = status or proc.returncode
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "openevt" / "__init__.py").is_file():
        print(f"error: no openevt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for key in BLAS_ENV:
        os.environ[key] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
