"""Exhaustive interval scan for the most divergent intervals of a series.

Every candidate (start, length) on the scan grid is scored by the
length-weighted divergence between the Gaussian fitted to embedded rows
anchored inside the interval and the one fitted to the rest. Scan, naive
score and local re-score go one way: rows centered by one rule
(:func:`_centered`); each side's count, sum and packed outer-product sum
(:func:`_row_sums`, or a prefix of them), an outside being the totals
minus its inside or the sum of its parts; both sides of N candidates as
one stack of 2N, the insides first, fitted one-pass by :func:`_fit` with
one jittered factor per covariance (:mod:`.gaussian`); and one tail that
splits the stack and turns each divergence into a score (:func:`_scores`).
A packed outer-product sum holds the width(width+1)/2 entries of its lower
triangle, row by row in ``np.tril_indices`` order.

The scan scores its grid in blocks of ``SCAN_BLOCK`` starts, with block
boundaries at multiples of ``SCAN_BLOCK`` in start time. The centered rows,
their usable flags and the whole-series totals are built once
(:class:`_ScanRows`); each block builds one prefix over the rows its
candidates read and scores every length from it. A length's starts in a
block are an evenly spaced run, so their prefix columns are read through
basic slices, not gathered (:func:`_runs`). Each candidate costs
O(width^3) whatever its length, and the scan's memory is
O((SCAN_BLOCK + len_max) * width^2) whatever the length of the series. The
scan is required (and tested) to match naive per-interval re-estimation.
Suppression reads only the best candidates: :func:`_select` sorts a window
of them and widens it only if it runs out before ``top_k``.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import ConfigError, NumericalError, ScoringError
from .gaussian import interval_score, jittered_cholesky, kl_from_factors
from .series import (
    Embedding,
    EmbeddingConfig,
    Interval,
    MultivariateSeries,
    delay_missing,
    delay_rows,
    embed,
)

log = logging.getLogger(__name__)

#: Starts per block of the scan grid. A block's prefix covers at most
#: SCAN_BLOCK + len_max - 1 rows, and its stacks hold at most SCAN_BLOCK
#: candidates.
SCAN_BLOCK = 4096


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
    missing are excluded from both sides. The outside is the series totals
    minus the inside, as in the scan. NumericalError if unscorable.
    """
    interval.validate_within(series.n)
    emb = embed(series, cfg)
    whole = _ScanRows(emb)
    anchored = (emb.times >= interval.a) & (emb.times < interval.b)
    inside = _row_sums(whole.centered[None, anchored], whole.usable[None, anchored])
    outside = [total - part for total, part in zip(whole.totals, inside)]
    _check_row_counts(interval, int(inside[0][0]), int(outside[0][0]), emb.width)
    score = _scores(*_fit(*_sides(inside, outside)), interval.length)
    if np.isnan(score[0]):
        raise unscorable(interval)
    return float(score[0])


def _centered(emb: Embedding) -> tuple[np.ndarray, np.ndarray]:
    """Mean of the usable embedded rows, and the rows minus it, zeroed where unusable."""
    valid = ~emb.missing
    center = emb.values[valid].mean(axis=0) if valid.any() else 0.0
    return center, np.where(valid[:, None], emb.values - center, 0.0)


def _row_sums(rows: np.ndarray, usable: np.ndarray):
    """Count (P,), sum (w, P) and packed outer-product sum (w(w+1)/2, P) of the
    usable rows of each of P row sets (P, r, w), stack last.

    Each row is weighted by its usable flag, so an unusable row must hold
    finite values.
    """
    x = rows * usable[..., None]
    lower = np.tril_indices(rows.shape[2])
    outer = (np.swapaxes(x, 1, 2) @ x)[:, lower[0], lower[1]]
    return usable.sum(axis=1), x.sum(axis=1).T, outer.T


def _sides(inside, outside):
    """(count, sum, outer) of N insides and N outsides as one stack of 2N, insides first."""
    return [np.concatenate(pair, axis=-1) for pair in zip(inside, outside)]


def _scores(mean, chol, length: int):
    """Interval scores of a stack of 2N fitted (mean, factor) sides, the N insides first.

    NaN where a factor is NaN (its covariance did not factor) or the
    divergence is below -1e-6, more than round-off; a divergence between
    that and 0 is round-off and counts as 0.
    """
    n = mean.shape[1] // 2
    kl = kl_from_factors(mean[:, :n], chol[..., :n], mean[:, n:], chol[..., n:])
    return interval_score(np.where(kl < -1e-6, np.nan, np.maximum(kl, 0.0)), length)


def unscorable(interval: Interval) -> NumericalError:
    """The error of an interval whose fitted pair :func:`_scores` refuses."""
    return NumericalError(
        f"interval [{interval.a}, {interval.b}) is unscorable: a covariance does not "
        f"factor after the jitter, or the divergence is negative"
    )


class LocalRescorer:
    """Re-scores one interval after cells inside it change, touching only what changes.

    A change confined to [a, b) alters only the embedded rows anchored in
    [a, b + history). The other outside rows are fixed: their sums
    (:func:`_row_sums` of rows centered by :func:`_centered`) are kept once.
    :meth:`score` writes a stack of P changes (a chunk of subsets times their
    draws) into P copies of the cells those rows read and re-embeds them in
    one call. Its inside is the sums of the changed rows anchored in [a, b),
    its outside the fixed sums plus those of the changed rows past b, fitted
    as in :func:`score_interval`, which each score equals on its modified
    series up to round-off. Read-only after construction; thread-safe.
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
        self.center, rows = _centered(emb)
        fixed = (emb.times < lo) | (emb.times >= hi)
        self.fixed = _row_sums(rows[None, fixed], ~emb.missing[None, fixed])
        self.block_start = lo - history
        self.block_missing = series.missing[self.block_start : hi]
        self.step_missing = self.block_missing.any(axis=1)
        # Missing cells hold NaN, and NaN times a zero weight is still NaN.
        self.block_values = np.where(self.block_missing, 0.0, series.values[self.block_start : hi])
        self.interval_rows = np.arange(interval.a, interval.b) - self.block_start

    def check(self, columns) -> None:
        """ScoringError unless both sides can be fitted once ``columns`` are replaced."""
        _check_row_counts(self.interval, *self._usable(columns), self.width)

    def _usable(self, columns) -> tuple[int, int]:
        """Usable inside and outside rows once ``columns`` are replaced.

        They depend only on which cells are missing, not on the values
        written, so no row is embedded: a step in [a, b) is flagged when a
        variable outside ``columns`` misses a cell there.
        """
        others = np.ones(self.block_missing.shape[1], dtype=bool)
        others[list(columns)] = False
        steps = self.step_missing.copy()
        steps[self.interval_rows] = self.block_missing[self.interval_rows][:, others].any(axis=1)
        usable = ~delay_missing(steps, self.cfg)
        k = self.n_inside
        return int(usable[:k].sum()), int(self.fixed[0][0] + usable[k:].sum())

    def score(self, columns, blocks: np.ndarray) -> np.ndarray:
        """Scores of the interval with ``blocks[p]`` written into ``columns[p]`` over [a, b).

        ``columns`` is (P, k) and ``blocks`` (P, |interval|, k); returns P
        scores, NaN where a pair is unscorable. Every row of ``columns`` must
        have passed :meth:`check`.
        """
        columns = np.asarray(columns)
        pairs = np.arange(len(columns))[:, None, None]
        cells = pairs, self.interval_rows[None, :, None], columns[:, None, :]
        values = np.repeat(self.block_values[None], len(columns), axis=0)
        missing = np.repeat(self.block_missing[None], len(columns), axis=0)
        values[cells] = blocks
        missing[cells] = False
        emb_values, emb_missing = delay_rows(values, missing, self.cfg)
        emb_values -= self.center
        usable = ~emb_missing
        k = self.n_inside
        inside = _row_sums(emb_values[:, :k], usable[:, :k])
        changed = _row_sums(emb_values[:, k:], usable[:, k:])  # the `history` rows past b
        outside = [fixed + part for fixed, part in zip(self.fixed, changed)]
        return _scores(*_fit(*_sides(inside, outside)), self.interval.length)


class _ScanRows:
    """What every block of a scan shares: the rows centered by :func:`_centered`,
    their usable flags, and the :func:`_row_sums` ``totals`` of the usable rows."""

    def __init__(self, emb: Embedding):
        self.width = emb.width
        self.lead = int(emb.times[0])
        self.usable = ~emb.missing
        self.centered = _centered(emb)[1]
        self.totals = _row_sums(self.centered[None], self.usable[None])


class PrefixScanner:
    """Prefix sums over a run of centered embedded rows, for O(1) interval moments.

    ``PrefixScanner(emb)`` covers every row of an embedding and scores any
    start; :func:`detect` builds one per block of starts over the rows
    [first, stop) that the block's candidates read. Unusable rows are zero
    and tracked by a count prefix, so ``counts[hi] - counts[lo]`` over
    :meth:`_row_range`'s indices is a candidate's usable inside count; its
    outside is the whole-series totals minus its inside. The prefix index is
    the last axis (``sums`` (width, rows + 1), packed ``outer_sums``
    (width(width+1)/2, rows + 1)), so a slice of prefix columns, or a gather
    where the starts are not an evenly spaced run, gives the stacks that
    :func:`_fit` turns into factors. Memory is O(rows * width^2).
    """

    def __init__(self, emb: Embedding | _ScanRows, first: int = 0, stop: int | None = None):
        whole = emb if isinstance(emb, _ScanRows) else _ScanRows(emb)
        stop = len(whole.centered) if stop is None else stop
        x = whole.centered[first:stop].T
        lower_i, lower_j = np.tril_indices(whole.width)
        self.whole = whole
        self.width = whole.width
        self.lead = whole.lead + first  # anchor time of the prefix's first row
        self.rows = stop - first
        self.counts = np.concatenate([[0], np.cumsum(whole.usable[first:stop])])
        self.sums = np.zeros((self.width, self.rows + 1))
        np.cumsum(x, axis=1, out=self.sums[:, 1:])
        self.outer_sums = np.zeros((len(lower_i), self.rows + 1))
        np.cumsum(x[lower_i] * x[lower_j], axis=1, out=self.outer_sums[:, 1:])

    def _row_range(self, starts: np.ndarray, length: int) -> tuple[np.ndarray, np.ndarray]:
        lo = np.clip(starts - self.lead, 0, self.rows)
        hi = np.clip(starts + length - self.lead, 0, self.rows)
        return lo, np.maximum(hi, lo)

    def score_batch(self, starts: np.ndarray, length: int) -> np.ndarray:
        """Length-weighted scores for all intervals [s, s+length); NaN if unscorable.

        Unscorable: at most ``width`` usable rows inside, fewer than 2
        outside, or a pair that :func:`_scores` refuses. Every interval's
        rows in the series must lie within the prefix's rows.
        """
        lo, hi = self._row_range(starts, length)
        cnt_in = self.counts[hi] - self.counts[lo]
        count, total_sum, total_outer = self.whole.totals
        cnt_out = count - cnt_in
        # More inside rows than the width (which implies at least 2): with
        # no more, the inside covariance is singular and only the jitter
        # would rank the candidate. score_interval refuses fewer than
        # the width, so the two agree on every candidate scored here.
        ok = (cnt_in > self.width) & (cnt_out >= 2)
        out = np.full(starts.shape, np.nan)
        if not ok.any():
            return out
        runs = _runs(lo[ok], hi[ok])
        # The sums are call temporaries, freed before the divergence runs.
        out[ok] = _scores(
            *_fit(
                np.concatenate([cnt_in[ok], cnt_out[ok]]),
                self._gather(self.sums, total_sum, runs),
                self._gather(self.outer_sums, total_outer, runs),
            ),
            length,
        )
        return out

    @staticmethod
    def _gather(prefix: np.ndarray, total: np.ndarray, runs):
        """Inside sums ``prefix[:, hi] - prefix[:, lo]`` and outside sums ``total``
        minus them, side by side as one (k, 2N) array; ``runs`` is :func:`_runs`
        of ``lo`` and ``hi``."""
        # Built in place: concatenating the two sides leaves more freed
        # temporaries behind, enough for glibc's allocator to return the
        # memory to the operating system after each call and fault it in
        # again on the next.
        n = runs[-1][0].stop  # the tail ends at N
        sides = np.empty((len(prefix), 2, n))
        inside, outside = sides[:, 0], sides[:, 1]
        for part, lo, hi in runs:
            np.subtract(prefix[:, hi], prefix[:, lo], out=inside[:, part])
        np.subtract(total, inside, out=outside)
        return sides.reshape(len(prefix), -1)


def _runs(lo: np.ndarray, hi: np.ndarray):
    """Prefix indices ``lo`` and ``hi`` (N,) as (part, lo, hi) triples that cover 0..N.

    The last triple is the longest tail in which both step evenly, as basic
    slices, so that reading it costs no gather; before it, if anything, the
    head as index arrays. A scan call's starts are an evenly spaced run, so
    only a head clipped to the prefix's first row, or a gap left by a
    dropped candidate, is gathered.
    """
    n = len(lo)
    step = int(lo[-1] - lo[-2]) if n > 1 else 1
    if step > 0:
        off = np.flatnonzero((np.diff(lo) != step) | (np.diff(hi) != step))
        k = int(off[-1]) + 1 if off.size else 0
    else:
        k, step = n - 1, 1
    tail = (slice(k, n), slice(lo[k], lo[-1] + 1, step), slice(hi[k], hi[-1] + 1, step))
    return [(slice(0, k), lo[:k], hi[:k]), tail] if k else [tail]


def _fit(counts: np.ndarray, sums: np.ndarray, outer: np.ndarray):
    """Means (width, N) and jittered covariance factors (width, width, N, lower triangles) from moment sums.

    The sums are those of :func:`_row_sums`, stack last: ``counts`` (N,),
    ``sums`` (width, N) and ``outer`` (width(width+1)/2, N), which is
    overwritten. One pass over sums of centered rows, so
    ``outer / count - mean mean'`` does not cancel. The covariances are
    unpacked into the lower triangle of the stack that
    :func:`~.gaussian.jittered_cholesky` factors in place. Nothing reads
    the upper triangles, so they are never set.
    """
    counts = counts.astype(float)
    mean = sums / counts
    outer /= counts
    covs = np.empty((len(mean), len(mean), outer.shape[1]))
    start = 0
    for a, mean_a in enumerate(mean):  # row by row: no stack-sized temporary
        row = covs[a, : a + 1]
        np.multiply(mean_a, mean[: a + 1], out=row)
        np.subtract(outer[start : start + a + 1], row, out=row)
        start += a + 1
    return mean, jittered_cholesky(covs)


#: Candidates per requested detection in the first sorted window of
#: :func:`_select`; each time suppression runs out of sorted candidates, the
#: window grows fourfold.
SELECT_WINDOW = 64


def _select(scores, starts, lens, top_k: int) -> list[Detection]:
    """Greedy non-intersecting top-k of the candidates, as a walk over all of them
    in descending score order, ties broken on (start, length), would give.

    Only a window of the best is sorted: every candidate that scores at
    least the window's worst, ties included, so the window is a prefix of
    the full order. Suppression walks it and, if it runs out before
    ``top_k``, goes on into the next, larger window.
    """
    accepted: list[Detection] = []
    walked = 0
    window = SELECT_WINDOW * top_k
    while True:
        if window >= scores.size:
            best = np.arange(scores.size)
        else:
            cut = np.partition(scores, scores.size - window)[scores.size - window]
            best = np.flatnonzero(scores >= cut)
        order = best[np.lexsort((lens[best], starts[best], -scores[best]))]
        _suppress(scores, starts, lens, order[walked:], top_k, accepted)
        if len(accepted) == top_k or best.size == scores.size:
            return accepted
        walked = order.size
        window *= 4


def _suppress(scores, starts, lens, order, top_k: int, accepted: list[Detection]) -> None:
    """Greedy non-intersecting selection in the given order, appended to ``accepted``."""
    for i in order:
        iv = Interval(int(starts[i]), int(starts[i] + lens[i]))
        if any(iv.intersects(det.interval) for det in accepted):
            continue
        accepted.append(Detection(interval=iv, score=float(scores[i]), rank=len(accepted) + 1))
        if len(accepted) == top_k:
            break


def detect(series: MultivariateSeries, cfg: ScanConfig, threads: int = 1) -> list[Detection]:
    """Scan all candidate intervals and return the top-k disjoint detections.

    Candidates are every (start, length) with len_min <= length <= len_max,
    starts on the stride grid. They are scored in blocks of ``SCAN_BLOCK``
    starts, each from one prefix over the rows it reads; threads share the
    lengths of one block, so neither the blocks nor the scores depend on
    ``threads``. Suppression is greedy: candidates are taken in descending
    score order and discarded if they intersect an accepted one. Ties break
    deterministically on (start, length). Only as many of the best are
    sorted as suppression needs (:func:`_select`).
    """
    n = series.n
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    if cfg.len_max > n:
        raise ConfigError(f"len_max {cfg.len_max} exceeds series length {n}")
    scan_rows = _ScanRows(embed(series, cfg.embedding))
    lengths = range(cfg.len_min, cfg.len_max + 1)
    grid_end = n - cfg.len_min + 1  # past the last start of any length

    def scan_one(scanner: PrefixScanner, s0: int, s1: int, length: int):
        first = -(-s0 // cfg.stride) * cfg.stride
        starts = np.arange(first, min(s1, n - length + 1), cfg.stride)
        if starts.size == 0:
            return None
        return starts, scanner.score_batch(starts, length), length

    chunks = []
    with ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext() as pool:
        run = map if pool is None else pool.map
        for s0 in range(0, grid_end, SCAN_BLOCK):
            s1 = min(s0 + SCAN_BLOCK, grid_end)
            # The rows anchored in [s0, s1 - 1 + len_max): all that the block reads.
            first = max(s0 - scan_rows.lead, 0)
            stop = min(s1 - 1 + cfg.len_max - scan_rows.lead, len(scan_rows.centered))
            scanner = PrefixScanner(scan_rows, first, stop)
            block = run(partial(scan_one, scanner, s0, s1), lengths)
            chunks.extend(c for c in block if c is not None)

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
    detections = _select(scores, starts, lens, cfg.top_k)
    log.info(
        "scan over %d candidates produced %d detection(s)", scores.size, len(detections)
    )
    return detections
