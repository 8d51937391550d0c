"""Subset enumeration, Monte-Carlo counterfactual re-scoring, and baselines.

For every candidate variable subset the anomalous interval is rewritten with
in-distribution replacements and re-scored; subsets whose replacement lowers
the score the most are the attribution. Each window gets one nominal model
(:class:`~anomattr.counterfactual.WindowModel`), inverted once and shared by
every subset: it conditions each subset in precision form, and a
:class:`~anomattr.detector.LocalRescorer` re-scores each draw by refitting
only the embedded rows the replacement touches. A per-variable histogram
divergence is included as the univariate baseline for comparison.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np

from .counterfactual import WindowModel, subset_cap
from .detector import Detection, LocalRescorer, score_interval
from .errors import ConfigError, EstimationError, NumericalError, ScoringError
from .series import EmbeddingConfig, Interval, MultivariateSeries

log = logging.getLogger(__name__)

#: More variables than this need ``allow_many_variables``: the subset family grows as 2^d.
MAX_VARIABLES = 20


@dataclass(frozen=True)
class VariableSubset:
    """A sorted, non-empty set of variable indices to replace together."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(sorted(int(i) for i in self.indices))
        if not idx:
            raise ConfigError("variable subset must be non-empty")
        if len(set(idx)) != len(idx):
            raise ConfigError(f"variable subset has duplicates: {idx}")
        object.__setattr__(self, "indices", idx)

    @property
    def size(self) -> int:
        return len(self.indices)

    def labels(self, names) -> tuple[str, ...]:
        return tuple(names[i] for i in self.indices)


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
    allow_many_variables: bool = False

    def __post_init__(self):
        if self.realizations < 1:
            raise ConfigError(f"realizations must be >= 1, got {self.realizations}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


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


def _score_subset(
    model: WindowModel,
    rescorer: LocalRescorer,
    subset: VariableSubset,
    si: int,
    cfg: AttributionConfig,
) -> SubsetScore:
    draw = model.sampler(subset.indices)
    scores = np.array(
        [
            rescorer.score(subset.indices, draw(np.random.SeedSequence([cfg.seed, si, r])))
            for r in range(cfg.realizations)
        ]
    )
    return SubsetScore(
        subset=subset,
        mean_score=float(scores.mean()),
        std_score=float(scores.std()),
        realizations=cfg.realizations,
    )


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
    if series.d > MAX_VARIABLES and not cfg.allow_many_variables:
        raise ConfigError(
            f"{series.d} variables would enumerate a very large subset family; "
            f"pass allow_many_variables=True to proceed"
        )
    interval.validate_within(series.n)
    emb_cfg = cfg.embedding
    original = score_interval(series, interval, emb_cfg)
    model = WindowModel.fit(series, interval, emb_cfg.kappa)
    rescorer = LocalRescorer(series, interval, emb_cfg)

    cap = subset_cap(series.d, cfg.max_subset_size)
    subsets = enumerate_subsets(series.d, cap)

    def run(item):
        si, subset = item
        try:
            return _score_subset(model, rescorer, subset, si, cfg)
        except (EstimationError, NumericalError, ScoringError, np.linalg.LinAlgError) as exc:
            log.warning("subset %s failed: %s", subset.indices, exc)
            return SubsetScore(
                subset=subset,
                mean_score=None,
                std_score=None,
                realizations=0,
                error=str(exc),
            )

    items = list(enumerate(subsets))
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            results = list(pool.map(run, items))
    else:
        results = [run(item) for item in items]
    results = _rank_within_size(results)

    baseline = univariate_baseline(series, interval, cfg.baseline_bins)
    return AttributionReport(
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


def attribute(
    series: MultivariateSeries, detection: Detection, cfg: AttributionConfig
) -> AttributionReport:
    """Score every admissible subset replacement inside the detected interval.

    Each subset is replaced ``cfg.realizations`` times (seeded independently
    per subset and realization) and the interval is re-scored on the modified
    series; subsets are ranked within each cardinality by ascending mean
    score. Subsets that fail numerically are recorded with their error
    instead of a score.
    """
    return _attribute_window(series, detection.interval, cfg, label="detection", offset=0)


def pre_event_scores(
    series: MultivariateSeries,
    detection: Detection,
    offset: int,
    cfg: AttributionConfig,
    length: int | None = None,
) -> AttributionReport:
    """Run the attribution on a window placed ``offset`` steps before the detection.

    The window starts at ``a - offset`` and keeps the detection length unless
    an explicit ``length`` is given; offset 0 with the default length
    reproduces the detection window itself.
    """
    if offset < 0:
        raise ConfigError(f"offset must be >= 0, got {offset}")
    window_len = detection.interval.length if length is None else length
    if window_len < 1:
        raise ConfigError(f"pre-event window length must be >= 1, got {window_len}")
    start = detection.interval.a - offset
    if start < 0 or start + window_len > series.n:
        raise ConfigError(
            f"pre-event window [{start}, {start + window_len}) out of range for n={series.n}"
        )
    shifted = Interval(start, start + window_len)
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
