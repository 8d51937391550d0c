"""Self-test of the benchmark harness, at toy size, in a few seconds.

    python3 bench/selftest.py

Runs every workload untraced and traced and checks that:

- the last line of output has exactly the keys the benchmark contract names,
  the output checks pass, and every metric named in ``BENCHMARK.json`` is
  printed with its unit (all eight end-to-end metrics appear in the table);
- the traced span tree is well formed: every parent exists and encloses its
  children, self times are >= 0 and, per thread, sum to no more than the
  job's wall time;
- the deterministic work counters repeat exactly between two runs;
- an entry point that does not exist is reported absent, not as an error;
- without the package beside it, the benchmark exits non-zero and prints no
  result.

Exits with code 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
TOY_SECONDS = "0.1"


def invoke(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    buf = io.StringIO()
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", TOY_SECONDS]
    argv += ["--trace", str(trace), "--toy"]
    with contextlib.redirect_stdout(buf):
        code = run.main(argv)
    text = buf.getvalue()
    assert code == 0, f"{workload}: exit code {code}\n{text}"
    return json.loads(text.strip().splitlines()[-1]), text


def check_result(result: dict, text: str, expected: dict[str, str], label: str) -> None:
    assert set(result) == RESULT_KEYS, f"{label}: keys {sorted(result)}"
    assert result["correct"] is True and result["failed"] == 0, f"{label}: checks failed\n{text}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    assert set(result["metrics"]) == set(expected), (
        f"{label}: metrics {sorted(set(result['metrics']) ^ set(expected))} differ from BENCHMARK.json"
    )
    for name, unit in expected.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit, f"{label}: {name} has unit {metric['unit']}, not {unit}"
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), (
            f"{label}: {name} = {metric['value']!r}"
        )


def check_table(text: str, rows: dict[str, str], label: str) -> None:
    lines = text.splitlines()
    for name, unit in rows.items():
        assert any(
            line.split()[:1] == [name] and line.split()[-1] == unit for line in lines
        ), f"{label}: {name} [{unit}] not printed"


def check_spans(workload: str, seed: int) -> None:
    path = run.OUT / f"trace-{workload}-seed{seed}.json"
    with open(path, encoding="utf-8") as fh:
        jobs = json.load(fh)["jobs"]
    assert len(jobs) >= 2, f"{workload}: {len(jobs)} traced jobs"
    for job in jobs:
        spans = [
            tracing.Span(s["id"], s["name"], s["start"], s["end"], s["parent"], s["thread"])
            for s in job["spans"]
        ]
        problems = tracing.check_tree(spans)
        assert not problems, f"{workload}: {problems}"
        selfs = tracing.self_times(spans)
        assert min(selfs.values()) >= 0.0, workload
        root = next(s for s in spans if s.parent is None)
        assert any(s.parent == root.id for s in spans), f"{workload}: no layer span in the job"
        main_self = sum(selfs[s.id] for s in spans if s.thread == root.thread)
        assert main_self <= root.duration * (1 + 1e-9), f"{workload}: self times exceed wall"


def check_absent() -> None:
    saved = tracing.ENTRY_POINTS
    tracing.ENTRY_POINTS = saved + (("detector", "no_such_entry_point", None, ("x.count",)),)
    try:
        tracer = tracing.Tracer()
        with tracer.job():
            pass
    finally:
        tracing.ENTRY_POINTS = saved
    assert "detector.no_such_entry_point" in tracer.absent
    assert "x.count" in tracer.absent
    values, _ = tracing.layer_metrics(tracer, threads=1)
    assert values["detector.detect_s"] == 0.0


def check_bare_directory(benchmark: dict) -> None:
    bare = run.OUT / f"bare-{time.monotonic_ns()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for p in benchmark["paths"]:
            shutil.copytree(
                run.ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__")
            )
        proc = subprocess.run(
            [*benchmark["command"], "--workload", benchmark["workloads"][0]["name"],
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "benchmark succeeded without the package"
    assert '"metrics"' not in proc.stdout, "benchmark printed a result without the package"


def main() -> int:
    start = time.perf_counter()
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        benchmark = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    table = {n: u for n, u, _ in run.END_TO_END} | dict(run.REPORTED_ONLY)
    assert len(table) == 8 and set(end_to_end) <= set(table), "end-to-end metric names drifted"

    seed = 1
    for wl in benchmark["workloads"]:
        name = wl["name"]
        result, text = invoke(name, seed, trace=0)
        check_result(result, text, end_to_end, f"{name} trace=0")
        check_table(text, table, f"{name} trace=0")

        first, text = invoke(name, seed, trace=1)
        check_result(first, text, per_layer, f"{name} trace=1")
        check_spans(name, seed)
        second, _ = invoke(name, seed, trace=1)
        for counter in tracing.DETERMINISTIC:
            a, b = first["metrics"][counter]["value"], second["metrics"][counter]["value"]
            assert a == b, f"{name}: {counter} changed between runs: {a} != {b}"
        print(f"ok  {name}")

    check_absent()
    print("ok  absent entry points")
    check_bare_directory(benchmark)
    print("ok  bare directory fails")
    print(f"self-test passed in {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
