"""Subset enumeration, Monte-Carlo counterfactual re-scoring, and baselines.

For every candidate variable subset the anomalous interval is rewritten with
in-distribution replacements and re-scored; subsets whose replacement lowers
the score the most are the attribution. Each window gets one nominal model
(:class:`~anomattr.counterfactual.WindowModel`), inverted once and shared by
every subset: it draws the replacements of a chunk of subsets of one size
in precision form, as memory-bounded stacks, and a
:class:`~anomattr.detector.LocalRescorer` re-scores the draws by refitting
only the embedded rows the replacement touches, the chunk and all its
draws as one stack; threads take whole chunks, so the outputs do not
depend on the thread count. Both are built from the same
(series, interval, embedding), so the model conditions on exactly the cells
the re-score reads around the interval. A per-variable histogram
divergence is included as the univariate baseline for comparison.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import combinations, groupby

import numpy as np

from .counterfactual import VariableSubset, WindowModel, subset_cap
from .detector import Detection, LocalRescorer, score_interval, unscorable
from .errors import ConfigError, EstimationError, NumericalError, ScoringError
from .series import EmbeddingConfig, Interval, MultivariateSeries

log = logging.getLogger(__name__)

#: Most subsets one window may enumerate: the family of 20 variables at the default
#: cap of 10. A wider series is attributed once ``max_subset_size`` keeps its family
#: within this.
MAX_SUBSETS = 616_665

#: Most (subset, draw) pairs re-scored as one stack; a larger stack costs less per pair but
#: holds more memory.
RESCORE_STACK = 64


def enumerate_subsets(d: int, cap: int) -> list[VariableSubset]:
    """All subsets of {0..d-1} with 1 <= size <= cap, size-major then lexicographic."""
    out = []
    for k in range(1, cap + 1):
        for combo in combinations(range(d), k):
            out.append(VariableSubset(combo))
    return out


@dataclass(frozen=True)
class AttributionConfig:
    embedding: EmbeddingConfig = field(default_factory=EmbeddingConfig)
    realizations: int = 10
    seed: int = 0
    max_subset_size: int | None = None
    baseline_bins: int = 30
    threads: int = 1

    def __post_init__(self):
        if self.realizations < 1:
            raise ConfigError(f"realizations must be >= 1, got {self.realizations}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.max_subset_size is not None and self.max_subset_size < 1:
            raise ConfigError(f"max_subset_size must be >= 1, got {self.max_subset_size}")
        if self.baseline_bins < 2:
            raise ConfigError(f"bins must be >= 2, got {self.baseline_bins}")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")


@dataclass(frozen=True)
class SubsetScore:
    """Replacement outcome for one subset (or the error that prevented it)."""

    subset: VariableSubset
    mean_score: float | None
    std_score: float | None
    realizations: int
    rank: int | None = None
    error: str | None = None


@dataclass(frozen=True)
class AttributionReport:
    """All subset scores for one window, plus the univariate baseline."""

    label: str
    interval: Interval
    offset: int
    original_score: float
    subsets: tuple[SubsetScore, ...]
    baseline: tuple[float, ...]
    names: tuple[str, ...]
    kappa: int
    tau: int
    seed: int
    realizations: int
    max_subset_size: int
    baseline_bins: int
    #: Realization 0 of the best subset's replacement, (|interval|, |subset|);
    #: None when no subset was scored. Not part of :meth:`to_dict`.
    preview: np.ndarray | None = field(default=None, compare=False, repr=False)

    def best(self) -> SubsetScore:
        """The scored subset with the lowest mean score overall."""
        scored = [s for s in self.subsets if s.mean_score is not None]
        if not scored:
            raise EstimationError("no subset could be scored")
        return min(scored, key=lambda s: (s.mean_score, s.subset.indices))

    def by_size(self, size: int) -> list[SubsetScore]:
        return [s for s in self.subsets if s.subset.size == size]

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "interval": {"a": self.interval.a, "b": self.interval.b},
            "offset": self.offset,
            "original_score": self.original_score,
            "kappa": self.kappa,
            "tau": self.tau,
            "seed": self.seed,
            "realizations": self.realizations,
            "max_subset_size": self.max_subset_size,
            "baseline_bins": self.baseline_bins,
            "subsets": [
                {
                    "variables": list(s.subset.labels(self.names)),
                    "size": s.subset.size,
                    "mean_score": s.mean_score,
                    "std_score": s.std_score,
                    "realizations": s.realizations,
                    "rank": s.rank,
                    "error": s.error,
                }
                for s in self.subsets
            ],
            "baseline": {name: val for name, val in zip(self.names, self.baseline)},
        }


def _seeds(cfg: AttributionConfig, si: int) -> list[np.random.SeedSequence]:
    """Seeds of the realizations of the subset at position ``si``."""
    return [np.random.SeedSequence([cfg.seed, si, r]) for r in range(cfg.realizations)]


def _failed(subset: VariableSubset, exc: Exception) -> SubsetScore:
    log.warning("subset %s failed: %s", subset.indices, exc)
    return SubsetScore(subset=subset, mean_score=None, std_score=None, realizations=0,
                       error=str(exc))


def _summarize(subset: VariableSubset, scores: np.ndarray, interval: Interval) -> SubsetScore:
    """A subset's mean and spread over its draws; NumericalError if any draw is unscorable."""
    if np.isnan(scores).any():
        raise unscorable(interval)
    return SubsetScore(
        subset=subset,
        mean_score=float(scores.mean()),
        std_score=float(scores.std()),
        realizations=scores.size,
    )


def _score_chunk(
    model: WindowModel,
    rescorer: LocalRescorer,
    chunk: list[tuple[int, VariableSubset]],
    cfg: AttributionConfig,
) -> list[SubsetScore]:
    """Scores of a chunk of (position, subset) items of one size, in order.

    Each subset's row counts are checked on their own; the subsets that pass
    are drawn as stacks (:meth:`~anomattr.counterfactual.WindowModel.draw_stack`),
    and the draws of every subset that draws are re-scored as one stack. A
    subset whose check, draws or any re-score fails records its error; the
    rest of the chunk is still scored.
    """
    results, passed = {}, []
    for si, subset in chunk:
        try:
            rescorer.check(subset.indices)
            passed.append((si, subset))
        except ScoringError as exc:
            results[si] = _failed(subset, exc)
    drawn = []
    if passed:
        stack = model.draw_stack(
            [subset.indices for _, subset in passed], [_seeds(cfg, si) for si, _ in passed]
        )
        for (si, subset), blocks in zip(passed, stack):
            if isinstance(blocks, Exception):
                results[si] = _failed(subset, blocks)
            else:
                drawn.append((si, subset, blocks))
    if drawn:
        columns = np.repeat([subset.indices for _, subset, _ in drawn], cfg.realizations, axis=0)
        scores = rescorer.score(columns, np.concatenate([blocks for *_, blocks in drawn]))
        for (si, subset, _), row in zip(drawn, scores.reshape(len(drawn), cfg.realizations)):
            try:
                results[si] = _summarize(subset, row, rescorer.interval)
            except NumericalError as exc:
                results[si] = _failed(subset, exc)
    return [results[si] for si, _ in chunk]


def _rank_within_size(results: list[SubsetScore]) -> list[SubsetScore]:
    ranked: dict[tuple[int, ...], SubsetScore] = {}
    sizes = sorted({r.subset.size for r in results})
    for size in sizes:
        group = [r for r in results if r.subset.size == size and r.mean_score is not None]
        group.sort(key=lambda r: (r.mean_score, r.subset.indices))
        for pos, r in enumerate(group, start=1):
            ranked[r.subset.indices] = replace(r, rank=pos)
    return [ranked.get(r.subset.indices, r) for r in results]


def _attribute_window(
    series: MultivariateSeries,
    interval: Interval,
    cfg: AttributionConfig,
    label: str,
    offset: int,
) -> AttributionReport:
    if series.d < 2:
        raise ConfigError("attribution needs at least 2 variables")
    cap = subset_cap(series.d, cfg.max_subset_size)
    family = sum(math.comb(series.d, k) for k in range(1, cap + 1))
    if family > MAX_SUBSETS:
        raise ConfigError(
            f"{series.d} variables with subsets of up to {cap} give {family:,} subsets, "
            f"more than {MAX_SUBSETS:,}; lower max_subset_size (--max-subset)"
        )
    interval.validate_within(series.n)
    emb_cfg = cfg.embedding
    original = score_interval(series, interval, emb_cfg)
    model = WindowModel.fit(series, interval, emb_cfg)
    rescorer = LocalRescorer(series, interval, emb_cfg)
    subsets = enumerate_subsets(series.d, cap)

    per_chunk = max(1, RESCORE_STACK // cfg.realizations)
    chunks = []
    for _, group in groupby(enumerate(subsets), key=lambda item: item[1].size):
        group = list(group)
        chunks += [group[i : i + per_chunk] for i in range(0, len(group), per_chunk)]

    run = partial(_score_chunk, model, rescorer, cfg=cfg)
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            scored = list(pool.map(run, chunks))
    else:
        scored = [run(chunk) for chunk in chunks]
    results = _rank_within_size([result for chunk in scored for result in chunk])

    baseline = univariate_baseline(series, interval, cfg.baseline_bins)
    report = AttributionReport(
        label=label,
        interval=interval,
        offset=offset,
        original_score=original,
        subsets=tuple(results),
        baseline=tuple(float(v) for v in baseline),
        names=series.names,
        kappa=emb_cfg.kappa,
        tau=emb_cfg.tau,
        seed=cfg.seed,
        realizations=cfg.realizations,
        max_subset_size=cap,
        baseline_bins=cfg.baseline_bins,
    )
    try:
        best = report.best()
    except EstimationError:
        return report
    si = report.subsets.index(best)
    return replace(report, preview=model.draws(best.subset.indices, _seeds(cfg, si))[0])


def attribute(
    series: MultivariateSeries, detection: Detection, cfg: AttributionConfig
) -> AttributionReport:
    """Score every admissible subset replacement inside the detected interval.

    Each subset is replaced ``cfg.realizations`` times (seeded independently
    per subset and realization) and the interval is re-scored on the modified
    series; subsets are ranked within each cardinality by ascending mean
    score. Subsets that fail numerically are recorded with their error
    instead of a score. A family of more than ``MAX_SUBSETS`` subsets is
    refused with a ConfigError before anything is fitted.
    """
    return _attribute_window(series, detection.interval, cfg, label="detection", offset=0)


def pre_event_window(interval: Interval, offset: int, n: int, length: int | None = None):
    """The window starting ``offset`` steps before ``interval``, of its length unless
    ``length`` is given; ConfigError unless it lies within ``n`` steps."""
    if offset < 0:
        raise ConfigError(f"offset must be >= 0, got {offset}")
    window_len = interval.length if length is None else length
    if window_len < 1:
        raise ConfigError(f"pre-event window length must be >= 1, got {window_len}")
    start = interval.a - offset
    if start < 0 or start + window_len > n:
        raise ConfigError(
            f"pre-event window [{start}, {start + window_len}) out of range for n={n}"
        )
    return Interval(start, start + window_len)


def pre_event_scores(
    series: MultivariateSeries,
    detection: Detection,
    offset: int,
    cfg: AttributionConfig,
    length: int | None = None,
) -> AttributionReport:
    """Run the attribution on the :func:`pre_event_window` ``offset`` steps before the
    detection; offset 0 with the default length is the detection window itself."""
    shifted = pre_event_window(detection.interval, offset, series.n, length)
    return _attribute_window(series, shifted, cfg, label="pre_event", offset=offset)


def baseline_histograms(
    series: MultivariateSeries, interval: Interval, bins: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-variable histograms of in-interval values against all values.

    Returns (scores, edges, interval_counts, overall_counts) with shapes
    (d,), (d, bins+1), (d, bins), (d, bins). The score is the discrete
    KL divergence of the additively smoothed in-interval histogram from the
    all-values histogram on the shared range.
    """
    if bins < 2:
        raise ConfigError(f"bins must be >= 2, got {bins}")
    interval.validate_within(series.n)
    d = series.d
    scores = np.zeros(d)
    edges = np.zeros((d, bins + 1))
    red = np.zeros((d, bins))
    green = np.zeros((d, bins))
    smoothing = 1e-6
    for j in range(d):
        all_vals = series.values[~series.missing[:, j], j]
        inside_mask = np.zeros(series.n, dtype=bool)
        inside_mask[interval.a : interval.b] = True
        in_vals = series.values[inside_mask & ~series.missing[:, j], j]
        out_count = all_vals.size - in_vals.size
        if in_vals.size == 0 or out_count == 0:
            raise EstimationError(
                f"variable {series.names[j]!r} lacks data inside or outside the interval"
            )
        lo, hi = float(all_vals.min()), float(all_vals.max())
        if lo == hi:
            log.warning("constant variable %s: baseline score set to 0", series.names[j])
            edges[j] = np.linspace(lo - 0.5, hi + 0.5, bins + 1)
            continue
        edge = np.linspace(lo, hi, bins + 1)
        red_counts, _ = np.histogram(in_vals, bins=edge)
        green_counts, _ = np.histogram(all_vals, bins=edge)
        p = red_counts + smoothing
        q = green_counts + smoothing
        p = p / p.sum()
        q = q / q.sum()
        scores[j] = float(np.sum(p * np.log(p / q)))
        edges[j] = edge
        red[j] = red_counts
        green[j] = green_counts
    return scores, edges, red, green


def univariate_baseline(
    series: MultivariateSeries, interval: Interval, bins: int = 30
) -> np.ndarray:
    """Per-variable histogram divergence of the interval against the whole series."""
    scores, _, _, _ = baseline_histograms(series, interval, bins)
    return scores
