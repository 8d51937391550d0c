"""Exhaustive interval scan for the most divergent intervals of a series.

Every candidate (start, length) on the scan grid is scored by the
length-weighted divergence between the Gaussian fitted to embedded rows
anchored inside the interval and the one fitted to the rest. The scan
reuses centered prefix sums of the embedded rows and their outer products,
so each candidate costs O(width^3) regardless of its length. Scan, naive
score and local re-score go one way: moments, one jittered factor per
covariance (:mod:`.gaussian`), the divergence, and one rule that turns it
into a score (:func:`_scores`). The scan is required (and tested) to match
naive per-interval re-estimation.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalError, ScoringError
from .gaussian import interval_score, jittered_cholesky, kl_from_factors
from .series import Embedding, EmbeddingConfig, Interval, MultivariateSeries, delay_rows, embed

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Detection:
    """A scored anomalous interval, in original time coordinates."""

    interval: Interval
    score: float
    rank: int


@dataclass(frozen=True)
class ScanConfig:
    """Scan grid and suppression parameters for :func:`detect`."""

    len_min: int
    len_max: int
    top_k: int = 1
    stride: int = 1
    embedding: EmbeddingConfig = field(default_factory=EmbeddingConfig)

    def __post_init__(self):
        if self.len_min < 1 or self.len_min > self.len_max:
            raise ConfigError(
                f"need 1 <= len_min <= len_max, got [{self.len_min}, {self.len_max}]"
            )
        if self.top_k < 1:
            raise ConfigError(f"top_k must be >= 1, got {self.top_k}")
        if self.stride < 1:
            raise ConfigError(f"stride must be >= 1, got {self.stride}")


def _check_row_counts(interval: Interval, n_in: int, n_out: int, width: int) -> None:
    """Raise ScoringError unless both sides of an interval can be fitted.

    The inside needs at least as many usable rows as the embedding width:
    with fewer, its covariance misses two or more dimensions and only the
    jitter keeps it factorizable, so the score measures the jitter. At
    exactly the width one dimension is still missing; such an interval is
    still scored when asked for by name, but the scan never ranks it (see
    :meth:`PrefixScanner.score_batch`).
    """
    if n_out == 0:
        raise ScoringError(f"empty complement for interval [{interval.a}, {interval.b})")
    if n_in < 2:
        raise ScoringError(
            f"interval [{interval.a}, {interval.b}) has {n_in} usable embedded rows, need >= 2"
        )
    if n_in < width:
        raise ScoringError(
            f"interval [{interval.a}, {interval.b}) has {n_in} usable embedded rows, "
            f"fewer than the width {width}"
        )
    if n_out < 2:
        raise ScoringError(
            f"complement of [{interval.a}, {interval.b}) has {n_out} usable embedded rows, need >= 2"
        )


def interval_row_masks(emb: Embedding, interval: Interval) -> tuple[np.ndarray, np.ndarray]:
    """Split usable embedded rows into inside/outside masks for an interval.

    A row belongs to the interval iff its anchor time does; rows flagged
    missing are excluded from both sides.
    """
    anchored = (emb.times >= interval.a) & (emb.times < interval.b)
    inside = anchored & ~emb.missing
    outside = ~anchored & ~emb.missing
    _check_row_counts(interval, int(inside.sum()), int(outside.sum()), emb.width)
    return inside, outside


def score_interval(series: MultivariateSeries, interval: Interval, cfg: EmbeddingConfig) -> float:
    """Length-weighted divergence of one interval against the rest of the series (naive path)."""
    interval.validate_within(series.n)
    emb = embed(series, cfg)
    inside, outside = interval_row_masks(emb, interval)
    return _score_pair(interval, _moments(emb.values[inside]), _moments(emb.values[outside]))


def _moments(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and maximum-likelihood covariance of complete rows."""
    mean = rows.sum(axis=0) / rows.shape[0]
    centered = rows - mean
    return mean, centered.T @ centered / rows.shape[0]


def _scores(mu_in, chol_in, mu_out, chol_out, length: int):
    """Interval scores of fitted (mean, factor) pairs, one pair or a stack.

    NaN where a factor is NaN (its covariance did not factor) or the
    divergence is below -1e-6, more than round-off; a divergence between
    that and 0 is round-off and counts as 0.
    """
    kl = kl_from_factors(mu_in, chol_in, mu_out, chol_out)
    return interval_score(np.where(kl < -1e-6, np.nan, np.maximum(kl, 0.0)), length)


def _score_pair(interval: Interval, inside, outside) -> float:
    """One interval's score from each side's (mean, covariance); NumericalError if unscorable."""
    (mu_in, cov_in), (mu_out, cov_out) = inside, outside
    chol_in, chol_out = jittered_cholesky(np.stack([cov_in, cov_out]))
    score = float(_scores(mu_in, chol_in, mu_out, chol_out, interval.length))
    if np.isnan(score):
        raise NumericalError(
            f"interval [{interval.a}, {interval.b}) is unscorable: a covariance does not "
            f"factor after the jitter, or the divergence is negative"
        )
    return score


class LocalRescorer:
    """Re-scores one interval after cells inside it change, touching only what changes.

    A change confined to [a, b) alters only the embedded rows anchored in
    [a, b + history). The count, mean and centered second moment (M2) of the
    other usable outside rows are computed once. Each re-score re-embeds the
    changed rows, takes the moments of the inside ones, and merges the
    changed outside ones into the fixed moments with the pairwise update of
    Chan et al.; raw moments E[xx'] - mu mu' would lose precision when the
    data sit far from zero. Both covariances are then factored once and
    scored as in :func:`score_interval`, whose result this equals on the
    modified series up to round-off, with the same ScoringError checks and
    the same NumericalError for an unscorable pair. Read-only after
    construction; safe to share between threads.
    """

    def __init__(self, series: MultivariateSeries, interval: Interval, cfg: EmbeddingConfig):
        interval.validate_within(series.n)
        emb = embed(series, cfg)
        self.interval = interval
        self.cfg = cfg
        self.width = emb.width
        history = cfg.history
        lo = max(interval.a, history)  # first anchor whose row can change
        hi = min(interval.b + history, series.n)
        self.n_inside = max(0, interval.b - lo)  # changed rows anchored inside
        fixed = ((emb.times < lo) | (emb.times >= hi)) & ~emb.missing
        rows = emb.values[fixed]
        self.fixed_count = rows.shape[0]
        self.fixed_mean = rows.mean(axis=0) if self.fixed_count else np.zeros(self.width)
        centered = rows - self.fixed_mean
        self.fixed_m2 = centered.T @ centered
        self.block_start = lo - history
        self.block_values = series.values[self.block_start : hi]
        self.block_missing = series.missing[self.block_start : hi]

    def score(self, columns, block: np.ndarray) -> float:
        """Score of the interval with ``block`` written into ``columns`` over [a, b)."""
        values = self.block_values.copy()
        missing = self.block_missing.copy()
        rows = slice(self.interval.a - self.block_start, self.interval.b - self.block_start)
        cols = np.asarray(columns)
        values[rows, cols] = block
        missing[rows, cols] = False
        emb_values, emb_missing = delay_rows(values, missing, self.cfg)
        usable = ~emb_missing
        inside = emb_values[: self.n_inside][usable[: self.n_inside]]
        changed = emb_values[self.n_inside :][usable[self.n_inside :]]
        n_out = self.fixed_count + changed.shape[0]
        _check_row_counts(self.interval, inside.shape[0], n_out, self.width)

        mean, m2 = self.fixed_mean, self.fixed_m2
        if changed.shape[0]:
            changed_mean = changed.mean(axis=0)
            centered = changed - changed_mean
            delta = changed_mean - mean
            weight = self.fixed_count * changed.shape[0] / n_out
            mean = mean + delta * (changed.shape[0] / n_out)
            m2 = m2 + centered.T @ centered + weight * np.outer(delta, delta)
        return _score_pair(self.interval, _moments(inside), (mean, m2 / n_out))


class PrefixScanner:
    """Prefix-sum statistics over embedded rows for O(1) interval moments.

    The rows are centered on the mean of the usable ones, so the sums do not
    cancel against a large offset. Missing rows are zero-filled and tracked
    by a separate count prefix, so means and ML covariances come out
    identical (up to round-off) to naive re-estimation over the usable rows.
    """

    def __init__(self, emb: Embedding):
        valid = ~emb.missing
        m, width = emb.values.shape
        center = emb.values[valid].mean(axis=0) if valid.any() else 0.0
        x = np.where(valid[:, None], emb.values - center, 0.0)
        self.width = width
        self.lead = int(emb.times[0])
        self.rows = m
        self.counts = np.concatenate([[0], np.cumsum(valid)])
        self.sums = np.zeros((m + 1, width))
        np.cumsum(x, axis=0, out=self.sums[1:])
        self.outer_sums = np.zeros((m + 1, width, width))
        np.cumsum(x[:, :, None] * x[:, None, :], axis=0, out=self.outer_sums[1:])
        self.total_count = int(self.counts[-1])
        self.total_sum = self.sums[-1]
        self.total_outer = self.outer_sums[-1]

    def _row_range(self, starts: np.ndarray, length: int) -> tuple[np.ndarray, np.ndarray]:
        lo = np.clip(starts - self.lead, 0, self.rows)
        hi = np.clip(starts + length - self.lead, 0, self.rows)
        return lo, np.maximum(hi, lo)

    def score_batch(self, starts: np.ndarray, length: int) -> np.ndarray:
        """Length-weighted scores for all intervals [s, s+length); NaN if unscorable.

        Unscorable: at most ``width`` usable rows inside, fewer than 2
        outside, or a pair that :func:`_scores` refuses.
        """
        lo, hi = self._row_range(starts, length)
        cnt_in = self.counts[hi] - self.counts[lo]
        cnt_out = self.total_count - cnt_in
        # More inside rows than the width (which implies at least 2): with
        # no more, the inside covariance is singular and only the jitter
        # would rank the candidate. interval_row_masks refuses fewer than
        # the width, so the two agree on every candidate scored here.
        ok = (cnt_in > self.width) & (cnt_out >= 2)
        out = np.full(starts.shape, np.nan)
        if not ok.any():
            return out
        lo, hi = lo[ok], hi[ok]
        sum_in = self.sums[hi] - self.sums[lo]
        outer_in = self.outer_sums[hi]
        outer_in -= self.outer_sums[lo]
        # Each covariance stack is built in place and dropped once factored;
        # at most four candidate-sized stacks are alive at a time.
        mu_out, chol_out = _fit(self.total_outer - outer_in, self.total_sum - sum_in, cnt_out[ok])
        mu_in, chol_in = _fit(outer_in, sum_in, cnt_in[ok])
        del outer_in
        out[ok] = _scores(mu_in, chol_in, mu_out, chol_out, length)
        return out


def _fit(outer: np.ndarray, sums: np.ndarray, counts: np.ndarray):
    """Means and jittered covariance factors of a stack from its moment sums.

    ``outer`` is overwritten with the covariances.
    """
    counts = counts.astype(float)
    mean = sums / counts[:, None]
    outer /= counts[:, None, None]
    outer -= mean[:, :, None] * mean[:, None, :]
    return mean, jittered_cholesky(outer)


def _suppress(scores, starts, lens, order, top_k: int) -> list[Detection]:
    """Greedy non-intersecting selection in descending score order."""
    accepted: list[Detection] = []
    for i in order:
        iv = Interval(int(starts[i]), int(starts[i] + lens[i]))
        if any(iv.intersects(det.interval) for det in accepted):
            continue
        accepted.append(Detection(interval=iv, score=float(scores[i]), rank=len(accepted) + 1))
        if len(accepted) == top_k:
            break
    return accepted


def detect(series: MultivariateSeries, cfg: ScanConfig, threads: int = 1) -> list[Detection]:
    """Scan all candidate intervals and return the top-k disjoint detections.

    Candidates are every (start, length) with len_min <= length <= len_max,
    starts on the stride grid. Suppression is greedy: candidates are taken
    in descending score order and discarded if they intersect an accepted
    one. Ties break deterministically on (start, length).
    """
    n = series.n
    if cfg.len_max > n:
        raise ConfigError(f"len_max {cfg.len_max} exceeds series length {n}")
    emb = embed(series, cfg.embedding)
    scanner = PrefixScanner(emb)

    lengths = range(cfg.len_min, cfg.len_max + 1)

    def scan_one(length: int):
        starts = np.arange(0, n - length + 1, cfg.stride)
        if starts.size == 0:
            return None
        return starts, scanner.score_batch(starts, length), length

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = [c for c in pool.map(scan_one, lengths) if c is not None]
    else:
        chunks = [c for c in map(scan_one, lengths) if c is not None]

    all_scores, all_starts, all_lengths = [], [], []
    for starts, scores, length in chunks:
        keep = np.isfinite(scores)
        if keep.any():
            all_scores.append(scores[keep])
            all_starts.append(starts[keep])
            all_lengths.append(np.full(int(keep.sum()), length))
    if not all_scores:
        raise ScoringError("no scorable candidate interval on the scan grid")

    scores = np.concatenate(all_scores)
    starts = np.concatenate(all_starts)
    lens = np.concatenate(all_lengths)
    order = np.lexsort((lens, starts, -scores))
    detections = _suppress(scores, starts, lens, order, cfg.top_k)
    log.info(
        "scan over %d candidates produced %d detection(s)", scores.size, len(detections)
    )
    return detections
