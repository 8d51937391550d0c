"""Span tracing of anomattr's layers, done from outside the package.

For the length of one traced job, each entry point in ``ENTRY_POINTS`` is
replaced by a wrapper that records a span (name, start, end, parent span,
thread) and, where a hook is given, adds work counters taken from the call's
arguments and result. The wrapper is installed in every module namespace of
the package that holds the original object, including module-level dispatch
tables such as the CLI's command map, and everything is restored afterwards.
No file of the package changes. An entry point that no longer exists is
reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


# --- counter hooks: (tracer, args, kwargs, result) -> None -------------------


def _count_regularize(tracer, args, kwargs, result):
    tracer.count("gaussian.regularize_clipped", int(bool(result[2])))


def _count_prefix(tracer, args, kwargs, result):
    scanner = args[0]
    owned = [v for v in vars(scanner).values() if isinstance(v, np.ndarray) and v.base is None]
    tracer.count("detector.prefix_bytes", sum(a.nbytes for a in owned))


def _count_score_batch(tracer, args, kwargs, result):
    tracer.count("detector.candidates", result.size)
    tracer.count("detector.nan_dropped", int(np.isnan(result).sum()))
    # Scored candidates with no more usable rows than the embedding width:
    # their inside covariance is singular before jitter.
    scanner, starts, length = args
    try:
        lo, hi = scanner._row_range(starts, length)
        usable = scanner.counts[hi] - scanner.counts[lo]
        width = scanner.width
    except AttributeError:
        tracer.absent.add("detector.underdetermined")
        return
    tracer.count("detector.underdetermined", int(((usable <= width) & np.isfinite(result)).sum()))


def _count_batched_kl(tracer, args, kwargs, result):
    # Each scored candidate builds two covariances (inside, outside) and
    # gathers two rows of the sum prefix and two of the outer-product prefix.
    rows, width = args[0].shape
    tracer.count("detector.kl_matrices", 2 * rows)
    tracer.count("detector.gather_bytes", 2 * rows * (width + width * width) * args[0].itemsize)


def _count_conditional(tracer, args, kwargs, result):
    window, present = args[1], args[3]
    evidence = np.asarray(present).ravel() & ~window.query_mask()
    tracer.count("counterfactual.evidence_dims", int(evidence.sum()))


def _count_report(tracer, args, kwargs, result):
    tracer.count("attribution.subsets_attempted", len(result.subsets))
    tracer.count("attribution.subsets_failed", sum(s.error is not None for s in result.subsets))
    tracer.count("attribution.rescores", sum(s.realizations for s in result.subsets))


_REPORT_COUNTERS = (
    "attribution.subsets_attempted",
    "attribution.subsets_failed",
    "attribution.rescores",
)

#: (module of anomattr, attribute path, counter hook or None, counters the hook feeds)
ENTRY_POINTS = (
    ("series", "embed", None, ()),
    ("series", "load_csv", None, ()),
    ("series", "zscore", None, ()),
    ("gaussian", "estimate", None, ()),
    ("gaussian", "kl_divergence", None, ()),
    ("gaussian", "regularize_covariance", _count_regularize, ("gaussian.regularize_clipped",)),
    ("detector", "detect", None, ()),
    ("detector", "PrefixScanner.__init__", _count_prefix, ("detector.prefix_bytes",)),
    (
        "detector",
        "PrefixScanner.score_batch",
        _count_score_batch,
        ("detector.candidates", "detector.nan_dropped", "detector.underdetermined"),
    ),
    (
        "detector",
        "_batched_kl",
        _count_batched_kl,
        ("detector.kl_matrices", "detector.gather_bytes"),
    ),
    ("detector", "score_interval", None, ()),
    ("counterfactual", "estimate_stationary", None, ()),
    ("counterfactual", "assemble_joint", None, ()),
    (
        "counterfactual",
        "conditional_replacement",
        _count_conditional,
        ("counterfactual.evidence_dims",),
    ),
    ("counterfactual", "apply_replacement", None, ()),
    ("attribution", "attribute", _count_report, _REPORT_COUNTERS),
    ("attribution", "pre_event_scores", _count_report, _REPORT_COUNTERS),
    ("attribution", "univariate_baseline", None, ()),
    ("cli", "cmd_detect", None, ()),
    ("cli", "cmd_attribute", None, ()),
)


class Tracer:
    """Collects spans and counters in memory for one traced job."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: set[str] = set()
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._job_stack: list[int] | None = None
        self._undo: list = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._job_stack:
            # A pool worker: the job's thread is blocked inside the span that
            # opened the pool, which is the innermost one open on its stack.
            parent = self._job_stack[-1]
        else:
            parent = None
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, threading.get_ident()))

    def count(self, name: str, value) -> None:
        with self._lock:
            self.counters[name] += value

    @contextmanager
    def job(self):
        """Root span of one job; installs the wrappers for its duration."""
        try:
            self._install_all()
            self._job_stack = self._stack()
            with self.span("job"):
                yield
        finally:
            self._job_stack = None
            self._uninstall_all()

    # --- wrapping -----------------------------------------------------------

    def _wrap(self, name, original, hook, fed):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
            if hook is not None:
                try:
                    hook(tracer, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    tracer.absent.update(fed)
            return result

        return wrapper

    def _install_all(self) -> None:
        owners = {}
        for modname, *_ in ENTRY_POINTS:
            try:
                owners[modname] = importlib.import_module(f"anomattr.{modname}")
            except ImportError:
                owners[modname] = None
        modules = [
            m for key, m in list(sys.modules.items()) if key == "anomattr" or key.startswith("anomattr.")
        ]
        fed_by_installed: set[str] = set()
        for modname, path, hook, fed in ENTRY_POINTS:
            name = f"{modname}.{path}"
            owner = owners[modname]
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.add(name)
                continue
            fed_by_installed.update(fed)
            wrapper = self._wrap(name, original, hook, fed)
            if parents:
                self._set(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                self._undo.append((value.__setitem__, k, v))
                                value[k] = wrapper
        self.absent.update(c for *_, fed in ENTRY_POINTS for c in fed if c not in fed_by_installed)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((functools.partial(setattr, owner), attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _uninstall_all(self) -> None:
        while self._undo:
            restore, key, value = self._undo.pop()
            restore(key, value)


# --- span-tree analysis ------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover.

    Children may run in parallel on pool threads, so the covered part is the
    length of the union of the children's intervals, clipped to the parent.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        pieces = sorted(
            (max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.id, ())
        )
        covered, reach = 0.0, s.start
        for lo, hi in pieces:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


def check_tree(spans: list[Span]) -> list[str]:
    """Problems with the span tree: dangling parents, children outside their
    parent, negative self times, or per-thread self times above the job wall."""
    problems = []
    by_id = {s.id: s for s in spans}
    roots = [s for s in spans if s.parent is None]
    if len(roots) != 1 or roots[0].name != "job":
        return [f"expected one root span named 'job', got {[r.name for r in roots]}"]
    wall = roots[0].duration
    for s in spans:
        if s.parent is None:
            continue
        p = by_id.get(s.parent)
        if p is None:
            problems.append(f"span {s.name} has unknown parent {s.parent}")
        elif s.start < p.start or s.end > p.end:
            problems.append(f"span {s.name} lies outside its parent {p.name}")
    selfs = self_times(spans)
    per_thread: dict[int, float] = defaultdict(float)
    for s in spans:
        if selfs[s.id] < 0:
            problems.append(f"span {s.name} has negative self time {selfs[s.id]:.3g}")
        per_thread[s.thread] += selfs[s.id]
    for thread, total in per_thread.items():
        if total > wall * (1 + 1e-9):
            problems.append(f"thread {thread} self times sum to {total:.6f} s > wall {wall:.6f} s")
    return problems


def spans_to_json(spans: list[Span]) -> list[dict]:
    t0 = min((s.start for s in spans), default=0.0)
    return [
        {
            "id": s.id,
            "name": s.name,
            "start": s.start - t0,
            "end": s.end - t0,
            "parent": s.parent,
            "thread": s.thread,
        }
        for s in sorted(spans, key=lambda s: s.start)
    ]


# --- per-layer metrics -------------------------------------------------------

#: Per-layer metrics of a traced job: (name, unit, better).
PER_LAYER = (
    ("series.embed_s", "s", "lower"),
    ("series.embed_calls", "count", "lower"),
    ("series.load_csv_s", "s", "lower"),
    ("series.zscore_s", "s", "lower"),
    ("gaussian.estimate_s", "s", "lower"),
    ("gaussian.estimate_calls", "count", "lower"),
    ("gaussian.kl_divergence_s", "s", "lower"),
    ("gaussian.regularize_calls", "count", "lower"),
    ("gaussian.regularize_clipped", "count", "lower"),
    ("gaussian.regularize_clipped_ratio", "ratio", "lower"),
    ("detector.detect_s", "s", "lower"),
    ("detector.detect_self_s", "s", "lower"),
    ("detector.prefix_build_s", "s", "lower"),
    ("detector.prefix_bytes", "bytes", "lower"),
    ("detector.score_batch_s", "s", "lower"),
    ("detector.score_batch_calls", "count", "lower"),
    ("detector.batched_kl_s", "s", "lower"),
    ("detector.candidates", "count", "lower"),
    ("detector.nan_dropped", "count", "lower"),
    ("detector.underdetermined", "count", "lower"),
    ("detector.scored_ratio", "ratio", "higher"),
    ("detector.kl_matrices", "count", "lower"),
    ("detector.gather_bytes", "bytes", "lower"),
    ("detector.worker_busy_ratio", "ratio", "higher"),
    ("detector.score_interval_s", "s", "lower"),
    ("detector.score_interval_calls", "count", "lower"),
    ("counterfactual.estimate_stationary_s", "s", "lower"),
    ("counterfactual.assemble_joint_s", "s", "lower"),
    ("counterfactual.assemble_joint_calls", "count", "lower"),
    ("counterfactual.conditional_s", "s", "lower"),
    ("counterfactual.conditional_calls", "count", "lower"),
    ("counterfactual.evidence_dim_mean", "count", "lower"),
    ("counterfactual.apply_replacement_s", "s", "lower"),
    ("attribution.attribute_s", "s", "lower"),
    ("attribution.sampling_self_s", "s", "lower"),
    ("attribution.rescores", "count", "lower"),
    ("attribution.subsets_attempted", "count", "higher"),
    ("attribution.subsets_failed", "count", "lower"),
    ("attribution.baseline_s", "s", "lower"),
    ("cli.cmd_detect_s", "s", "lower"),
    ("cli.cmd_attribute_s", "s", "lower"),
    ("cli.report_self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)

#: Counters that must repeat exactly from job to job on the same inputs.
DETERMINISTIC = (
    "detector.candidates",
    "detector.nan_dropped",
    "detector.underdetermined",
    "detector.kl_matrices",
    "detector.prefix_bytes",
    "detector.gather_bytes",
    "counterfactual.conditional_calls",
    "counterfactual.evidence_dim_mean",
    "attribution.rescores",
    "gaussian.regularize_clipped",
    "cli.output_bytes",
)

_SPANS = {
    "series.embed": ("series.embed",),
    "series.load_csv": ("series.load_csv",),
    "series.zscore": ("series.zscore",),
    "gaussian.estimate": ("gaussian.estimate",),
    "gaussian.kl_divergence": ("gaussian.kl_divergence",),
    "gaussian.regularize": ("gaussian.regularize_covariance",),
    "detector.detect": ("detector.detect",),
    "detector.prefix_build": ("detector.PrefixScanner.__init__",),
    "detector.score_batch": ("detector.PrefixScanner.score_batch",),
    "detector.batched_kl": ("detector._batched_kl",),
    "detector.score_interval": ("detector.score_interval",),
    "counterfactual.estimate_stationary": ("counterfactual.estimate_stationary",),
    "counterfactual.assemble_joint": ("counterfactual.assemble_joint",),
    "counterfactual.conditional": ("counterfactual.conditional_replacement",),
    "counterfactual.apply_replacement": ("counterfactual.apply_replacement",),
    "attribution.attribute": ("attribution.attribute", "attribution.pre_event_scores"),
    "attribution.baseline": ("attribution.univariate_baseline",),
    "cli.cmd_detect": ("cli.cmd_detect",),
    "cli.cmd_attribute": ("cli.cmd_attribute",),
    "cli.report": ("cli.cmd_detect", "cli.cmd_attribute"),
}

#: How each traced metric is read: (kind, key). "total" sums the durations
#: of the spans in ``_SPANS[key]``, "calls" counts them, "self" sums their
#: self times, "counter" reads a hook counter. A "ratio" is computed in
#: ``layer_metrics``; its key names the metrics and counters it reads.
_READ = {
    "series.embed_s": ("total", "series.embed"),
    "series.embed_calls": ("calls", "series.embed"),
    "series.load_csv_s": ("total", "series.load_csv"),
    "series.zscore_s": ("total", "series.zscore"),
    "gaussian.estimate_s": ("total", "gaussian.estimate"),
    "gaussian.estimate_calls": ("calls", "gaussian.estimate"),
    "gaussian.kl_divergence_s": ("total", "gaussian.kl_divergence"),
    "gaussian.regularize_calls": ("calls", "gaussian.regularize"),
    "gaussian.regularize_clipped": ("counter", "gaussian.regularize_clipped"),
    "gaussian.regularize_clipped_ratio": (
        "ratio", ("gaussian.regularize_clipped", "gaussian.regularize_calls")
    ),
    "detector.detect_s": ("total", "detector.detect"),
    "detector.detect_self_s": ("self", "detector.detect"),
    "detector.prefix_build_s": ("total", "detector.prefix_build"),
    "detector.prefix_bytes": ("counter", "detector.prefix_bytes"),
    "detector.score_batch_s": ("total", "detector.score_batch"),
    "detector.score_batch_calls": ("calls", "detector.score_batch"),
    "detector.batched_kl_s": ("total", "detector.batched_kl"),
    "detector.candidates": ("counter", "detector.candidates"),
    "detector.nan_dropped": ("counter", "detector.nan_dropped"),
    "detector.underdetermined": ("counter", "detector.underdetermined"),
    "detector.scored_ratio": ("ratio", ("detector.candidates", "detector.nan_dropped")),
    "detector.kl_matrices": ("counter", "detector.kl_matrices"),
    "detector.gather_bytes": ("counter", "detector.gather_bytes"),
    "detector.worker_busy_ratio": ("ratio", ("detector.score_batch_s", "detector.detect_s")),
    "detector.score_interval_s": ("total", "detector.score_interval"),
    "detector.score_interval_calls": ("calls", "detector.score_interval"),
    "counterfactual.estimate_stationary_s": ("total", "counterfactual.estimate_stationary"),
    "counterfactual.assemble_joint_s": ("total", "counterfactual.assemble_joint"),
    "counterfactual.assemble_joint_calls": ("calls", "counterfactual.assemble_joint"),
    "counterfactual.conditional_s": ("total", "counterfactual.conditional"),
    "counterfactual.conditional_calls": ("calls", "counterfactual.conditional"),
    "counterfactual.evidence_dim_mean": (
        "ratio", ("counterfactual.evidence_dims", "counterfactual.conditional_calls")
    ),
    "counterfactual.apply_replacement_s": ("total", "counterfactual.apply_replacement"),
    "attribution.attribute_s": ("total", "attribution.attribute"),
    "attribution.sampling_self_s": ("self", "attribution.attribute"),
    "attribution.rescores": ("counter", "attribution.rescores"),
    "attribution.subsets_attempted": ("counter", "attribution.subsets_attempted"),
    "attribution.subsets_failed": ("counter", "attribution.subsets_failed"),
    "attribution.baseline_s": ("total", "attribution.baseline"),
    "cli.cmd_detect_s": ("total", "cli.cmd_detect"),
    "cli.cmd_attribute_s": ("total", "cli.cmd_attribute"),
    "cli.report_self_s": ("self", "cli.report"),
}


def layer_metrics(tracer: Tracer, threads: int) -> tuple[dict[str, float], set[str]]:
    """Per-layer values of one traced job, and the names reported as absent.

    A metric is absent when every entry point it reads is absent, or when the
    counter it reads could not be taken. Absent metrics read 0.
    ``cli.output_bytes`` and ``trace.overhead_s`` are measured by the caller.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    values: dict[str, float] = {}
    absent: set[str] = set()
    for name, (kind, key) in _READ.items():
        if kind == "ratio":
            continue
        if kind == "counter":
            values[name] = tracer.counters.get(key, 0.0)
            if key in tracer.absent:
                absent.add(name)
            continue
        names = _SPANS[key]
        mine = [s for s in spans if s.name in names]
        if kind == "total":
            values[name] = sum(s.duration for s in mine)
        elif kind == "calls":
            values[name] = len(mine)
        else:
            values[name] = sum(selfs[s.id] for s in mine)
        if all(n in tracer.absent for n in names):
            absent.add(name)

    def ratio(num, den):
        return num / den if den else 0.0

    c = tracer.counters
    values["detector.scored_ratio"] = ratio(
        c.get("detector.candidates", 0.0) - c.get("detector.nan_dropped", 0.0),
        c.get("detector.candidates", 0.0),
    )
    values["gaussian.regularize_clipped_ratio"] = ratio(
        values["gaussian.regularize_clipped"], values["gaussian.regularize_calls"]
    )
    values["counterfactual.evidence_dim_mean"] = ratio(
        c.get("counterfactual.evidence_dims", 0.0), values["counterfactual.conditional_calls"]
    )
    values["detector.worker_busy_ratio"] = ratio(
        values["detector.score_batch_s"], threads * values["detector.detect_s"]
    )
    for name, (kind, key) in _READ.items():
        if kind == "ratio" and any(k in absent or k in tracer.absent for k in key):
            absent.add(name)
    values["trace.spans"] = len(spans)
    return values, absent
