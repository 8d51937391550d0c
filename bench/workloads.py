"""The benchmark's workloads: inputs built from a seed, one job, and its checks.

Every workload is a closed loop with one client: the harness runs one job,
checks its outputs, then runs the next. Inputs come from ``anomattr.generate``
with a stable VAR(1) process (lag-1 matrix 0.4 I, innovation correlation 0.2)
and a +4 sigma mean shift on one planted variable; the program receives only
the generated series (or the CSV written from it).

- ``scan_long`` runs ``detect`` alone on a long, narrow series. Nearly all of
  its time is the prefix-sum scan; attribution does no work. It is the
  single-threaded baseline and the largest prefix in memory.
- ``attr_wide`` runs ``attribute`` alone on the planted interval of a wide
  series with a large subset family, so per-subset conditioning dominates
  and there is no scan.
- ``pipeline_cli`` runs the user's path, ``anomattr detect`` then
  ``anomattr attribute`` in-process on a CSV with missing cells, with two
  program threads. It adds CSV input and report writing, a wider scan that
  drops rows with missing cells, and attribution dominated by full-series
  re-scoring.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

# Jobs call the package's entry points through their modules, at call time,
# so that the traced run's wrappers see them.
from anomattr import (
    AttributionConfig,
    Detection,
    EmbeddingConfig,
    Injection,
    Interval,
    MultivariateSeries,
    ScanConfig,
    SynthSpec,
    attribution,
    cli,
    detector,
    generate,
    load_csv,
    score_interval,
    write_csv,
    zscore,
)

KAPPA = 3
EMBEDDING = EmbeddingConfig(kappa=KAPPA, tau=1)
SHIFT = 4.0
MIN_IOU = 0.8
SCORE_RTOL = 1e-6


@dataclass
class Outcome:
    """What one job did and which of its output checks failed."""

    failures: list[str] = field(default_factory=list)
    subsets_attempted: int = 0
    subsets_failed: int = 0
    candidates: int = 0
    detect_s: float = 0.0
    pairs: int = 0
    attribute_s: float = 0.0
    output_bytes: int = 0


def _spec(n: int, d: int, seed: int, plants: tuple[Injection, ...]) -> SynthSpec:
    cov = np.full((d, d), 0.2) + 0.8 * np.eye(d)
    return SynthSpec(
        n=n, d=d, coeffs=(0.4 * np.eye(d),), innovation_cov=cov, seed=seed, anomalies=plants
    )


def _plant(rng: np.random.Generator, d: int, lo: int, hi: int, length: int, shift=SHIFT):
    a = int(rng.integers(lo, hi - length))
    return Injection(Interval(a, a + length), (int(rng.integers(d)),), "mean_shift", shift)


def iou(x: Interval, y: Interval) -> float:
    inter = max(0, min(x.b, y.b) - max(x.a, y.a))
    return inter / (x.length + y.length - inter)


def _close(value: float, reference: float) -> bool:
    return abs(value - reference) <= SCORE_RTOL * abs(reference)


def _check_detection(out: Outcome, det_iv: Interval, det_score: float, plant: Interval, naive):
    overlap = iou(det_iv, plant)
    if overlap < MIN_IOU:
        out.failures.append(f"rank-1 detection {det_iv} has IoU {overlap:.3f} with plant {plant}")
    if not _close(det_score, naive):
        out.failures.append(f"rank-1 score {det_score!r} differs from naive score {naive!r}")


def _check_report(out: Outcome, report: dict, planted_var: str, naive: float | None):
    """Checks on one attribution report in ``AttributionReport.to_dict`` form."""
    subsets = report["subsets"]
    out.subsets_attempted += len(subsets)
    errors = [s for s in subsets if s["error"] is not None]
    out.subsets_failed += len(errors)
    if errors:
        out.failures.append(f"{len(errors)} subset(s) of window {report['interval']} carry an error")
    if naive is None:
        return
    if not _close(report["original_score"], naive):
        out.failures.append(
            f"original_score {report['original_score']!r} differs from naive score {naive!r}"
        )
    top = [s["variables"] for s in subsets if s["size"] == 1 and s["rank"] == 1]
    if top != [[planted_var]]:
        out.failures.append(f"rank-1 singleton is {top}, planted variable is {planted_var}")


class ScanLong:
    """``detect`` only: n=20000, d=4, width 12, lengths 40..52, top 3, one thread."""

    name = "scan_long"
    threads = 1

    def __init__(self, toy: bool = False):
        self.n, self.d = (1500, 4) if toy else (20000, 4)
        self.len_min, self.len_max = (40, 44) if toy else (40, 52)
        self.plant_len = 42 if toy else 46
        self.scan = ScanConfig(self.len_min, self.len_max, top_k=3, embedding=EMBEDDING)

    def setup(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 1])
        plant = _plant(rng, self.d, self.n // 4, 3 * self.n // 4, self.plant_len)
        series, _ = generate(_spec(self.n, self.d, seed, (plant,)))
        series, _ = zscore(series)
        return series, plant

    def run(self, fixture, job_dir: str):
        series, _ = fixture
        return detector.detect(series, self.scan, threads=self.threads)

    def check(self, fixture, detections, job_dir: str, wall_s: float) -> Outcome:
        series, plant = fixture
        out = Outcome(detect_s=wall_s)
        out.candidates = sum(self.n - L + 1 for L in range(self.len_min, self.len_max + 1))
        top = detections[0]
        naive = score_interval(series, top.interval, EMBEDDING)
        _check_detection(out, top.interval, top.score, plant.interval, naive)
        return out


class AttrWide:
    """``attribute`` only, on the planted interval: n=1500, d=10, cap 5 (637 subsets), R=2."""

    name = "attr_wide"
    threads = 1

    def __init__(self, toy: bool = False):
        self.n, self.d, self.cap = (400, 4, 2) if toy else (1500, 10, 5)
        self.plant_len = 20 if toy else 30
        self.cfg = AttributionConfig(
            embedding=EMBEDDING, realizations=2, max_subset_size=self.cap, threads=self.threads
        )

    def setup(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 2])
        plant = _plant(rng, self.d, self.n // 4, 3 * self.n // 4, self.plant_len)
        series, _ = generate(_spec(self.n, self.d, seed, (plant,)))
        series, _ = zscore(series)
        naive = score_interval(series, plant.interval, EMBEDDING)
        return series, plant, naive

    def run(self, fixture, job_dir: str):
        series, plant, naive = fixture
        return attribution.attribute(series, Detection(plant.interval, naive, 1), self.cfg)

    def check(self, fixture, report, job_dir: str, wall_s: float) -> Outcome:
        series, plant, naive = fixture
        out = Outcome(attribute_s=wall_s)
        out.pairs = len(report.subsets)
        planted_var = series.names[plant.variables[0]]
        _check_report(out, report.to_dict(), planted_var, naive)
        return out


class PipelineCli:
    """``anomattr detect`` then ``anomattr attribute`` on a CSV, two threads."""

    name = "pipeline_cli"
    threads = 2

    def __init__(self, toy: bool = False):
        self.n, self.d = (900, 4) if toy else (2500, 6)
        self.len_min, self.len_max = (30, 40) if toy else (30, 90)
        self.plant_len = 36 if toy else 80
        self.realizations = 2 if toy else 10
        self.offset = 100 if toy else 300
        self.missing_share = 0.005

    def setup(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 3])
        # The rank-1 plant sits in the first half. A weaker second plant in
        # the second half keeps rank 2 away from the series start, so its
        # pre-event window (``offset`` steps earlier) stays inside the series.
        first = _plant(rng, self.d, 2 * self.offset, self.n // 2, self.plant_len)
        second_a = self.n - 3 * self.offset // 2
        second = Injection(
            Interval(second_a, second_a + self.len_min),
            (int((first.variables[0] + 1) % self.d),),
            "mean_shift",
            3.0,
        )
        series, _ = generate(_spec(self.n, self.d, seed, (first, second)))
        values = series.values.copy()
        values[rng.random(values.shape) < self.missing_share] = np.nan
        series = MultivariateSeries(values, names=series.names)
        path = os.path.join(workdir, "series.csv")
        write_csv(series, path)
        reference, _ = zscore(load_csv(path))
        return path, reference, first, seed

    def _argv(self, fixture, job_dir: str) -> tuple[list[str], list[str]]:
        path, _, _, seed = fixture
        shared = ["--input", path, "--output-dir", job_dir, "--kappa", str(KAPPA)]
        shared += ["--threads", str(self.threads), "--seed", str(seed)]
        det = ["detect", *shared, "--len-min", str(self.len_min), "--len-max", str(self.len_max)]
        det += ["--top-k", "2"]
        att = ["attribute", *shared, "--realizations", str(self.realizations)]
        att += ["--max-subset", "3", "--offset", str(self.offset)]
        return det, att

    def run(self, fixture, job_dir: str):
        det_argv, att_argv = self._argv(fixture, job_dir)
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            rc_detect = cli.main(det_argv)
            t1 = time.perf_counter()
            rc_attribute = cli.main(att_argv) if rc_detect == 0 else None
            t2 = time.perf_counter()
        return rc_detect, rc_attribute, t1 - t0, t2 - t1

    def check(self, fixture, result, job_dir: str, wall_s: float) -> Outcome:
        _, reference, plant, _ = fixture
        rc_detect, rc_attribute, detect_s, attribute_s = result
        out = Outcome(detect_s=detect_s, attribute_s=attribute_s)
        out.candidates = sum(
            (reference.n - L + 1) for L in range(self.len_min, self.len_max + 1)
        )
        if rc_detect != 0 or rc_attribute != 0:
            out.failures.append(f"exit codes detect={rc_detect} attribute={rc_attribute}")
            return out
        with open(os.path.join(job_dir, "detections.json"), encoding="utf-8") as fh:
            detections = json.load(fh)["detections"]
        top = detections[0]
        top_iv = Interval(top["a"], top["b"])
        naive = score_interval(reference, top_iv, EMBEDDING)
        _check_detection(out, top_iv, top["score"], plant.interval, naive)
        planted_var = reference.names[plant.variables[0]]
        for det in detections:
            for suffix in ("", f"_before_{self.offset}"):
                path = os.path.join(job_dir, f"attribution_{det['rank']}{suffix}.json")
                with open(path, encoding="utf-8") as fh:
                    report = json.load(fh)
                out.pairs += len(report["subsets"])
                is_top = det["rank"] == 1 and not suffix
                _check_report(out, report, planted_var, naive if is_top else None)
        out.output_bytes = sum(
            os.path.getsize(os.path.join(job_dir, f)) for f in os.listdir(job_dir)
        )
        return out


WORKLOADS = {w.name: w for w in (ScanLong, AttrWide, PipelineCli)}
