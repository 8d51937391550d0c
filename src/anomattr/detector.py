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


def score_interval(series: MultivariateSeries, interval: Interval, cfg: EmbeddingConfig) -> float:
    """Length-weighted divergence of one interval against the rest of the series (naive path).

    A row belongs to the interval iff its anchor time does; rows flagged
    missing are excluded from both sides. NumericalError if unscorable.
    """
    interval.validate_within(series.n)
    emb = embed(series, cfg)
    anchored = (emb.times >= interval.a) & (emb.times < interval.b)
    inside, outside = anchored & ~emb.missing, ~anchored & ~emb.missing
    _check_row_counts(interval, int(inside.sum()), int(outside.sum()), emb.width)
    mu_in, cov_in = _moments(emb.values[inside])
    mu_out, cov_out = _moments(emb.values[outside])
    chol = jittered_cholesky(np.stack([cov_in, cov_out], axis=-1))
    score = _scores(mu_in[:, None], chol[..., :1], mu_out[:, None], chol[..., 1:], interval.length)
    if np.isnan(score[0]):
        raise unscorable(interval)
    return float(score[0])


def _moments(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and maximum-likelihood covariance of complete rows."""
    mean = rows.sum(axis=0) / rows.shape[0]
    centered = rows - mean
    return mean, centered.T @ centered / rows.shape[0]


def _scores(mu_in, chol_in, mu_out, chol_out, length: int):
    """Interval scores of a stack of fitted (mean, factor) pairs.

    NaN where a factor is NaN (its covariance did not factor) or the
    divergence is below -1e-6, more than round-off; a divergence between
    that and 0 is round-off and counts as 0.
    """
    kl = kl_from_factors(mu_in, chol_in, mu_out, chol_out)
    return interval_score(np.where(kl < -1e-6, np.nan, np.maximum(kl, 0.0)), length)


def unscorable(interval: Interval) -> NumericalError:
    """The error of an interval whose fitted pair :func:`_scores` refuses."""
    return NumericalError(
        f"interval [{interval.a}, {interval.b}) is unscorable: a covariance does not "
        f"factor after the jitter, or the divergence is negative"
    )


def _stack_moments(rows: np.ndarray, usable: np.ndarray):
    """Count (P,), mean (w, P) and centered second moment (w, w, P) of the
    usable rows of each of P row sets (P, r, w), stack last.

    Each row is weighted by its usable flag, so an unusable row must hold
    finite values. A set with no usable row gets zero moments.
    """
    count = usable.sum(axis=1)
    mean = np.einsum("pr,prw->pw", usable, rows) / np.maximum(count, 1)[:, None]
    centered = rows - mean[:, None, :]
    centered *= usable[..., None]
    m2 = np.empty((rows.shape[2], rows.shape[2], rows.shape[0]))
    np.matmul(np.swapaxes(centered, 1, 2), centered, out=np.moveaxis(m2, -1, 0))
    return count, mean.T, m2


class LocalRescorer:
    """Re-scores one interval after cells inside it change, touching only what changes.

    A change confined to [a, b) alters only the embedded rows anchored in
    [a, b + history); the moments of the other usable outside rows are
    computed once. :meth:`score` writes a stack of P changes (a chunk of
    subsets times their draws) into P copies of the cells those rows read,
    re-embeds them in one call and weights the usable rows, so every copy
    keeps its shape. The changed outside rows are merged into the fixed
    moments with the pairwise update of Chan et al., which keeps its
    precision when the data sit far from zero. Each side is factored as one
    stack and scored as in :func:`score_interval`, whose result this equals
    on each modified series up to round-off. Read-only after construction;
    safe to share between threads.
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
        values = np.where(fixed[:, None], emb.values, 0.0)[None]
        (self.fixed_count,), self.fixed_mean, self.fixed_m2 = _stack_moments(values, fixed[None])
        self.block_start = lo - history
        self.block_missing = series.missing[self.block_start : hi]
        # Missing cells hold NaN, and NaN times a zero weight is still NaN.
        self.block_values = np.where(self.block_missing, 0.0, series.values[self.block_start : hi])
        self.interval_rows = np.arange(interval.a, interval.b) - self.block_start

    def check(self, columns) -> None:
        """ScoringError unless both sides can be fitted once ``columns`` are replaced.

        The usable rows do not depend on the values written.
        """
        missing = self.block_missing.copy()
        missing[self.interval_rows[:, None], np.asarray(columns)] = False
        usable = ~delay_rows(self.block_values, missing, self.cfg)[1]
        n_in = int(usable[: self.n_inside].sum())
        n_out = self.fixed_count + int(usable[self.n_inside :].sum())
        _check_row_counts(self.interval, n_in, n_out, self.width)

    def score(self, columns, blocks: np.ndarray) -> np.ndarray:
        """Scores of the interval with ``blocks[p]`` written into ``columns[p]`` over [a, b).

        ``columns`` is (P, k) and ``blocks`` (P, |interval|, k); returns P
        scores, NaN where a pair is unscorable. Every row of ``columns`` must
        have passed :meth:`check`.
        """
        (mu_in, cov_in), (mu_out, cov_out) = self._fit_stack(np.asarray(columns), blocks)
        chol_in, chol_out = jittered_cholesky(cov_in), jittered_cholesky(cov_out)
        return _scores(mu_in, chol_in, mu_out, chol_out, self.interval.length)

    def _fit_stack(self, columns: np.ndarray, blocks: np.ndarray):
        """Inside and outside (means (w, P), covariances (w, w, P)) of each changed copy."""
        pairs = np.arange(len(columns))[:, None, None]
        cells = pairs, self.interval_rows[None, :, None], columns[:, None, :]
        values = np.repeat(self.block_values[None], len(columns), axis=0)
        missing = np.repeat(self.block_missing[None], len(columns), axis=0)
        values[cells] = blocks
        missing[cells] = False
        emb_values, emb_missing = delay_rows(values, missing, self.cfg)
        usable = ~emb_missing
        k = self.n_inside
        n_in, mu_in, cov_in = _stack_moments(emb_values[:, :k], usable[:, :k])
        n_changed, mu_changed, cov_out = _stack_moments(emb_values[:, k:], usable[:, k:])

        n_out = self.fixed_count + n_changed
        delta = mu_changed - self.fixed_mean
        mu_out = self.fixed_mean + delta * (n_changed / n_out)
        weight = self.fixed_count * n_changed / n_out
        cov_out += self.fixed_m2
        cov_out += weight * delta[:, None, :] * delta[None, :, :]
        cov_in /= n_in
        cov_out /= n_out
        return (mu_in, cov_in), (mu_out, cov_out)


class PrefixScanner:
    """Prefix-sum statistics over embedded rows for O(1) interval moments.

    The rows are centered on the mean of the usable ones, so the sums do not
    cancel against a large offset. Missing rows are zero-filled and tracked
    by a separate count prefix, so means and ML covariances come out
    identical (up to round-off) to naive re-estimation over the usable rows.
    The prefix index is the last axis (``sums`` is (width, rows + 1),
    ``outer_sums`` (width, width, rows + 1)), so gathering N candidates
    gives the (width, N) means and (width, width, N) covariance stacks that
    :mod:`.gaussian` factors and scores across the stack.
    """

    def __init__(self, emb: Embedding):
        valid = ~emb.missing
        m, width = emb.values.shape
        center = emb.values[valid].mean(axis=0) if valid.any() else 0.0
        x = np.where(valid[:, None], emb.values - center, 0.0).T
        self.width = width
        self.lead = int(emb.times[0])
        self.rows = m
        self.counts = np.concatenate([[0], np.cumsum(valid)])
        self.sums = np.zeros((width, m + 1))
        np.cumsum(x, axis=1, out=self.sums[:, 1:])
        self.outer_sums = np.zeros((width, width, m + 1))
        np.cumsum(x[:, None, :] * x[None, :, :], axis=2, out=self.outer_sums[:, :, 1:])
        self.total_count = int(self.counts[-1])
        self.total_sum = self.sums[:, -1:]
        self.total_outer = self.outer_sums[:, :, -1:]

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
        # would rank the candidate. score_interval refuses fewer than
        # the width, so the two agree on every candidate scored here.
        ok = (cnt_in > self.width) & (cnt_out >= 2)
        out = np.full(starts.shape, np.nan)
        if not ok.any():
            return out
        lo, hi = lo[ok], hi[ok]
        # np.take returns C-contiguous stacks; indexing the last axis would not.
        sum_in = np.take(self.sums, hi, axis=1)
        sum_in -= np.take(self.sums, lo, axis=1)
        outer_in = np.take(self.outer_sums, hi, axis=2)
        outer_in -= np.take(self.outer_sums, lo, axis=2)
        # Each covariance stack is built and factored in place; at most
        # three candidate-sized stacks are alive at a time.
        mu_out, chol_out = _fit(self.total_outer - outer_in, self.total_sum - sum_in, cnt_out[ok])
        mu_in, chol_in = _fit(outer_in, sum_in, cnt_in[ok])
        out[ok] = _scores(mu_in, chol_in, mu_out, chol_out, length)
        return out


def _fit(outer: np.ndarray, sums: np.ndarray, counts: np.ndarray):
    """Means (width, N) and jittered covariance factors (width, width, N) from moment sums.

    ``outer`` is overwritten with the factors.
    """
    counts = counts.astype(float)
    mean = sums / counts
    outer /= counts
    for row, mean_a in zip(outer, mean):  # row by row: no stack-sized temporary
        row -= mean_a * mean
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
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
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
