"""Benchmark of anomattr: run one workload for a fixed time and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload scan_long --seed 0 --seconds 40 --trace 0

The package is imported from ``src/`` of the checkout, never from an installed
copy; without it the benchmark exits with code 2 and prints no result. Inputs
are built from ``--seed``, then jobs run back to back until ``--seconds`` would
be exceeded; set-up is timed before the first job and again after each one.
Every job's outputs are checked.

With ``--trace 0`` the jobs run untraced and the end-to-end metrics are
reported. With ``--trace 1`` untraced and traced jobs alternate; the traced
ones give the per-layer metrics and the difference of the two medians is the
tracing overhead. Spans are written to ``.bench_out/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric as median, quartiles and sample count, and the machine.
"""

from __future__ import annotations

import os
import sys
import time

# BLAS threads are pinned before numpy is imported, so that program threads
# come only from the workload's ``threads`` setting.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Imports timed in a fresh interpreter, as a user's process pays them.
_IMPORT_PROBE = (
    "import sys, time; t0 = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import numpy, anomattr.cli; print(time.perf_counter() - t0)"
)

#: End-to-end metrics gated by BENCHMARK.json: (name, unit, better).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: End-to-end metrics that are printed but not gated, because on some
#: workload they are zero or undefined (no scan, no attribution, no failure).
REPORTED_ONLY = (
    ("candidates_per_s", "1/s"),
    ("subsets_per_s", "1/s"),
    ("fail_ratio", "ratio"),
    ("correct", "bool"),
)


@dataclass
class JobRecord:
    traced: bool
    wall_s: float
    cpu_s: float
    outcome: object
    layer: dict = field(default_factory=dict)
    absent: set = field(default_factory=set)
    spans: list = field(default_factory=list)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        # A system OpenBLAS, and the one bundled with numpy's wheels.
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine(threads: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": blas_threads(),
        "program_threads": threads,
    }


def run_job(workload, fixture, job_dir: Path, traced: bool) -> JobRecord:
    from workloads import Outcome

    tracer = tracing.Tracer() if traced else None
    job_dir.mkdir(parents=True)
    error = None
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        if tracer is None:
            result = workload.run(fixture, str(job_dir))
        else:
            with tracer.job():
                result = workload.run(fixture, str(job_dir))
    except Exception as exc:  # a job that raises is counted as failed; the loop goes on
        error = f"job raised {type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if error is not None:
        outcome = Outcome(failures=[error])
    else:
        try:
            outcome = workload.check(fixture, result, str(job_dir), wall)
        except Exception as exc:  # a check that cannot read the outputs fails the job
            outcome = Outcome(failures=[f"check raised {type(exc).__name__}: {exc}"])
    shutil.rmtree(job_dir)
    record = JobRecord(traced, wall, cpu, outcome)
    if tracer is not None:
        record.layer, record.absent = tracing.layer_metrics(tracer, workload.threads)
        record.layer["cli.output_bytes"] = outcome.output_bytes
        record.spans = tracer.spans
        outcome.failures += [f"trace: {p}" for p in tracing.check_tree(tracer.spans)]
    return record


def time_setup(workload, seed: int, setup_dir: Path):
    """One set-up from process start to ready: the imports of numpy and the
    package in a fresh interpreter, then the build of the inputs.

    Returns (fixture, import seconds, input-build seconds).
    """
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    import_s = float(proc.stdout.strip().splitlines()[-1])
    setup_dir.mkdir(parents=True)
    t0 = time.perf_counter()
    fixture = workload.setup(seed, str(setup_dir))
    return fixture, import_s, time.perf_counter() - t0


def run_loop(workload, seed: int, workdir: Path, seconds: float, trace: bool):
    """Closed loop, one client: jobs back to back while the next one fits.

    Set-up is timed once before the first job and again after every job, so
    that its samples span the same stretch of time as the jobs' samples. The
    first set-up's inputs are used by every job. With tracing, untraced and
    traced jobs alternate and at least two of each run, so that the traced
    counters can be compared from job to job.

    Returns (job records, set-up samples as (import s, build s) pairs).
    """
    min_jobs = 4 if trace else 1
    fixture, *first = time_setup(workload, seed, workdir / "setup0")
    setups = [tuple(first)]
    records: list[JobRecord] = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        traced = trace and len(records) % 2 == 1
        t0 = time.perf_counter()
        records.append(run_job(workload, fixture, workdir / f"job{len(records)}", traced))
        _, *sample = time_setup(workload, seed, workdir / f"setup{len(records)}")
        setups.append(tuple(sample))
        longest = max(longest, time.perf_counter() - t0)
        if traced:
            reference = next(r for r in records if r.traced)
            changed = [
                k
                for k in tracing.DETERMINISTIC
                if records[-1].layer.get(k) != reference.layer.get(k)
            ]
            if changed:
                records[-1].outcome.failures.append(f"counters changed between jobs: {changed}")
        elapsed = time.perf_counter() - start
        if len(records) >= min_jobs and elapsed + longest > seconds:
            return records, setups


def summarize(records, setups):
    plain = [r for r in records if not r.traced]
    outcomes = [r.outcome for r in records]
    samples = {
        "setup_s": [import_s + build_s for import_s, build_s in setups],
        "wall_s": [r.wall_s for r in plain],
        "cpu_s": [r.cpu_s for r in plain],
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
        "candidates_per_s": [
            r.outcome.candidates / r.outcome.detect_s for r in plain if r.outcome.candidates
        ],
        "subsets_per_s": [r.outcome.pairs / r.outcome.attribute_s for r in plain if r.outcome.pairs],
    }
    failed_jobs = sum(1 for o in outcomes if o.failures)
    attempted = len(outcomes) + sum(o.subsets_attempted for o in outcomes)
    failed = failed_jobs + sum(o.subsets_failed for o in outcomes)
    samples["fail_ratio"] = [failed / attempted]
    samples["correct"] = [0.0 if failed_jobs else 1.0]
    return samples, attempted, failed


def print_table(title: str, rows, absent=()) -> None:
    print(title)
    print(f"  {'metric':<38} {'median':>14} {'q1':>14} {'q3':>14} {'n':>4}  unit")
    for name, unit, values in rows:
        if name in absent or not values:
            label = "absent" if name in absent else "n/a"
            print(f"  {name:<38} {label:>14} {'':>14} {'':>14} {len(values):>4}  {unit}")
            continue
        q1, med, q3 = quartiles(values)
        print(f"  {name:<38} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {len(values):>4}  {unit}")


def report_layers(workload, seed: int, records, samples, info) -> dict:
    """Print the per-layer table of the traced jobs, write their spans, and
    return the per-layer metrics for the result line."""
    traced = [r for r in records if r.traced]
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    layer_samples = {name: [r.layer[name] for r in traced if name in r.layer] for name in units}
    overhead = quartiles([r.wall_s for r in traced])[1] - quartiles(samples["wall_s"])[1]
    layer_samples["trace.overhead_s"] = [overhead]
    absent = sorted(set().union(*(r.absent for r in traced)))
    print_table("per-layer (traced jobs)", [(n, u, layer_samples[n]) for n, u in units.items()], absent)
    print(f"tracing overhead: {overhead:+.6f} s per job (traced median minus untraced median wall)")
    print("absent " + json.dumps(absent))

    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload.name}-seed{seed}.json"
    jobs = [
        {"wall_s": r.wall_s, "layer": r.layer, "spans": tracing.spans_to_json(r.spans)}
        for r in traced
    ]
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(
            {"workload": workload.name, "seed": seed, "machine": info, "absent": absent, "jobs": jobs},
            fh,
        )
    print(f"spans written to {trace_path.relative_to(ROOT)}")
    return {
        name: {"value": quartiles(layer_samples[name])[1], "unit": unit}
        for name, unit in units.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="toy sizes, for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    if not (SRC / "anomattr" / "__init__.py").is_file():
        print(f"error: no anomattr package under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import anomattr

    if Path(anomattr.__file__).resolve().parent != SRC / "anomattr":
        print(f"error: anomattr imported from {anomattr.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](toy=args.toy)
    workdir = OUT / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    try:
        records, setups = run_loop(workload, args.seed, workdir, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    samples, attempted, failed = summarize(records, setups)
    info = machine(workload.threads)
    print(f"anomattr benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} toy={args.toy}")
    print("machine " + json.dumps(info, sort_keys=True))
    imports, builds = zip(*setups)
    print(f"setup: imports {quartiles(list(imports))[1]:.6f} s + input build "
          f"{quartiles(list(builds))[1]:.6f} s (medians of {len(setups)} set-ups)")
    units = dict((n, u) for n, u, _ in END_TO_END) | dict(REPORTED_ONLY)
    print_table("end-to-end (untraced jobs)", [(n, units[n], samples[n]) for n in units])
    for r in records:
        for failure in r.outcome.failures:
            print(f"check failed: {failure}")

    if args.trace:
        metrics = report_layers(workload, args.seed, records, samples, info)
    else:
        metrics = {
            name: {"value": quartiles(samples[name])[1], "unit": unit}
            for name, unit, _ in END_TO_END
        }

    print(json.dumps({
        "correct": samples["correct"][0] == 1.0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
