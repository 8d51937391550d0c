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
Only the scan's candidates scored against a floor fit the insides as one
stack and the outsides of the candidates kept as another
(:meth:`PrefixScanner._pruned`).
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

The scan prunes exactly, whether it has one block or several. Each block
is scored in phases: first len_min alone, then the other rungs, the
lengths len_min + k ``RUNG_STEP``, then the lengths between them; a phase
with no length is left out. After each phase that another follows, a floor
is set from the candidates scored so far (:func:`_floor`): no candidate
that scores below it can change the detections. Only the first block's
opening phase is scored in full, both sides of its candidates as one
stack. From then on every length takes one path: a candidate is bounded
from above (:class:`_ScoreBound`) before each fit, the terms of its bound
read from the block's prefixes. A length between rungs is first bounded
from the factor of the rung just below it at the same start, since nested
insides bound each other's log-determinant, at O(width^2) per candidate
and with no fit; a rung, or a candidate that reaches the floor through its
rung, has its own inside fitted and factored and its exact bound taken.
Every bound goes through g = tr(M A), a loose bound on an eigenvalue when
the width is large against the rows; where a candidate's bound first
reaches the floor, g is tightened, once per candidate, by the
Wolkowicz-Styan bound, from a prefix of whitened outer products that each
block builds once it has a floor, and the bound is taken again. Only a
candidate whose exact bound reaches the floor has its outside fitted and
its divergence taken; the others score -inf. The floor moves only between
phases, so the candidates scored do not depend on the thread count. A
scan whose outer-product total is not positive definite has no bound and
scores every candidate in one phase.
"""

from __future__ import annotations

import logging
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NumericalError, ScoringError
from .gaussian import JITTER_FLOOR, interval_score, jitter, jittered_cholesky, kl_from_factors
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

#: Gap between the rungs of a scan: the lengths len_min, len_min + RUNG_STEP,
#: ... are scored first in each block, and every other length is bounded
#: from the factor of the rung just below it.
RUNG_STEP = 3


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
    return _pair_scores(mean[:, :n], chol[..., :n], mean[:, n:], chol[..., n:], length)


def _pair_scores(mean_p, chol_p, mean_q, chol_q, length: int):
    """Interval scores of N fitted insides p and their outsides q, as :func:`_scores`."""
    kl = kl_from_factors(mean_p, chol_p, mean_q, chol_q)
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
    their usable flags, the :func:`_row_sums` ``totals`` of the usable rows,
    and the score bound built from those totals on first use."""

    def __init__(self, emb: Embedding):
        self.width = emb.width
        self.lead = int(emb.times[0])
        self.usable = ~emb.missing
        self.centered = _centered(emb)[1]
        self.totals = _row_sums(self.centered[None], self.usable[None])

    @cached_property
    def bound(self) -> _ScoreBound | None:
        """The :class:`_ScoreBound` of these rows; None if their outer-product
        total is not positive definite, and then nothing is pruned."""
        try:
            return _ScoreBound(*self.totals, self.width)
        except np.linalg.LinAlgError:
            return None


#: Relative and absolute margins added to every :class:`_ScoreBound`, for the
#: round-off of the bound and of the exact score it is compared with.
BOUND_MARGIN = (1e-9, 1e-6)

#: Round-off slack of the variance term f/m - (t/m)^2 of the Wolkowicz-Styan
#: bound (:meth:`_ScoreBound.eigen`), relative to f/m; the term is computed
#: with cancellation, to a few units of 1e-16 f/m.
EIGEN_SLACK = 1e-12


class _Head(NamedTuple):
    """Every term of a divergence bound but -ln|Sp_j| / 2, for N insides: g,
    a bound on lambda_max(T2^-1/2 A T2^-1/2), and the terms that do not
    depend on it (:meth:`_ScoreBound.head`)."""

    g: np.ndarray
    n_out: np.ndarray
    load: np.ndarray  # tr(M Sp) + eps_p tr M + Delta' M Delta
    rest: np.ndarray  # lnq - m

    def value(self):
        """1/2 [n_o / (1 - g) load + rest]; +inf where g >= 1 or g is NaN."""
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = self.n_out / (1.0 - self.g)
        return np.where(self.g < 1.0, 0.5 * (scale * self.load + self.rest), np.inf)

    def take(self, keep) -> _Head:
        return _Head(*(column[keep] for column in self))


class _ScoreBound:
    """An upper bound on a scan candidate's score from its fitted inside alone.

    Built once per scan from the totals of the centered usable rows: their
    count n_T, sum s_T and outer-product sum T2, its inverse M = T2^-1, its
    eigenvalues lambda_k and tr T2 (LinAlgError unless T2 factors). Let a
    candidate of width m and length L have the inside count n_i, sum s_i and
    outer-product sum I2. Its outside has n_o = n_T - n_i rows with the sum
    s_o = s_T - s_i, and its covariance is

        Sq = (T2 - A) / n_o,   A = I2 + s_o s_o' / n_o,   A >= 0.

    *Log-determinant.* Sq <= T2 / n_o, so tr Sq <= tr T2 / n_o and the
    outside jitter (:func:`~.gaussian.jitter_epsilon`) is at most
    1e-9 max(1, tr T2 / (m n_o)). With Sq_j the jittered Sq, and n_o <= n_T,

        ln|Sq_j| <= -m ln n_o + sum_k ln(lambda_k + max(1e-9 n_o, 1e-9 tr T2 / m))
                 <= lnq = -m ln n_o + sum_k ln(lambda_k + 1e-9 max(n_T, tr T2 / m)),

    whose sum is one number per scan.

    *Inverse.* g = tr(M A) = tr(M I2) + s_o' M s_o / n_o is at least the
    largest eigenvalue of T2^-1/2 A T2^-1/2, so A <= g T2 and
    Sq_j >= Sq >= (1 - g) T2 / n_o. For g < 1 that gives
    Sq_j^-1 <= n_o / (1 - g) M, which bounds the trace and Mahalanobis terms
    of the divergence. With the inside mean mu_p = s_i / n_i, its covariance
    Sp = I2 / n_i - mu_p mu_p', its jitter eps_p, its jittered Sp_j and
    Delta = s_o / n_o - mu_p,

        KL <= 1/2 [ n_o / (1 - g) (tr(M Sp) + eps_p tr M + Delta' M Delta)
                    - m + lnq - ln|Sp_j| ],

    and the score is at most U = 2 L max(KL bound, 0), taken as
    U (1 + 1e-9) + 1e-6 (``BOUND_MARGIN``). U is +inf where g >= 1 or the
    bound is NaN. Every term but ln|Sp_j| costs O(m^2) per candidate: tr(M I2)
    and tr I2 come from one product of M's packed weights with the
    outer-product sums, or from a prefix of that product, and the rest from
    the sums s_i and M s_i (:meth:`head`). Only g and n_o / (1 - g) depend
    on g, so a tighter g costs no other term again (:class:`_Head`).

    *Eigenvalue bound.* g sums every eigenvalue of P = W A W, W = T2^-1/2,
    up to m times the largest, and n_o / (1 - g) feels that once g is not
    small against 1, as when m n_i is not small against n_T. Let
    P have the eigenvalues p_1 >= ... >= p_m, their mean t / m with
    t = tr P, and f = ||P||_F^2 = sum_k p_k^2. The deviations p_k - t / m
    sum to 0, so those of p_2 ... p_m sum to -(p_1 - t / m), and by
    Cauchy-Schwarz their squares sum to at least (p_1 - t / m)^2 / (m - 1).
    With all m, f - t^2 / m >= (p_1 - t / m)^2 m / (m - 1), which is the
    Wolkowicz-Styan bound (Wolkowicz and Styan, "Bounds for eigenvalues
    using traces", Linear Algebra Appl. 29, 1980):

        p_1 <= t / m + sqrt((m - 1) (f / m - (t / m)^2)).

    P = Z + v v' with Z = W I2 W, the inside sums of the outer products of
    the whitened rows W x (a prefix of them, ``PrefixScanner.whitened``),
    and v = W s_o / sqrt(n_o) = (W s_T - W s_i) / sqrt(n_o): the s_o term
    folds into the packed Z exactly, and t and f cost O(m^2) per
    candidate (:meth:`eigen`). The variance term f / m - (t / m)^2 is
    computed with cancellation, to a few units of 1e-16 f / m, so it is
    inflated by ``EIGEN_SLACK`` f / m. The bound then uses min(g, that),
    ignoring a NaN. W and M come from one eigendecomposition of T2, so
    both bounds on p_1 carry its round-off, about 1e-16 cond(T2) relative.

    *Nested insides.* ln|Sp_j| comes from the inside's factor, or, without
    one, from the factor of a nested inside. Take one start and lengths
    L0 <= L with n0 <= n usable inside rows. The rows of L0 are a subset of
    those of L, and a subset's scatter about its own mean is at most the
    whole set's, so n Sp(L) >= n0 Sp(L0). Hence tr Sp(L) >= (n0 / n) tr
    Sp(L0), and the jitter eps = max(1e-9, 1e-9 tr Sp / m) keeps the order:
    eps(L) >= (n0 / n) eps(L0), since 1e-9 >= (n0 / n) 1e-9 too. So
    Sp_j(L) >= (n0 / n) Sp_j(L0) and

        ln|Sp_j(L)| >= ln|Sp_j(L0)| + m ln(n0 / n),

    which, in place of ln|Sp_j(L)|, still gives an upper bound U
    (``PrefixScanner._below``). It is +inf where L0's factor is NaN or was
    not kept.
    """

    def __init__(self, count, total_sum, total_outer, width: int):
        lower = np.tril_indices(width)
        t2 = np.zeros((width, width))
        t2[lower] = total_outer[:, 0]
        t2[lower[1], lower[0]] = total_outer[:, 0]
        self.eigenvalues, basis = np.linalg.eigh(t2)
        if not self.eigenvalues[0] > 0:
            raise np.linalg.LinAlgError("the outer-product total is not positive definite")
        self.precision = (basis / self.eigenvalues) @ basis.T
        self.whitening = (basis / np.sqrt(self.eigenvalues)) @ basis.T  # W = T2^-1/2
        self.diagonal = lower[0] == lower[1]
        # ||.||_F^2 of a packed symmetric matrix: its off-diagonal entries count twice.
        self.frobenius = np.where(self.diagonal, 1.0, 2.0)
        # tr(M I2) and tr I2 as one product with the packed lower triangle of I2.
        self.weights = np.stack([self.frobenius * self.precision[lower], self.diagonal])
        self.width = width
        self.count = float(count[0])
        self.scaled_total = self.precision @ total_sum[:, 0]  # M s_T
        self.whitened_total = self.whitening @ total_sum[:, 0]  # W s_T
        self.total_form = float(total_sum[:, 0] @ self.scaled_total)  # s_T' M s_T
        self.trace_precision = float(np.trace(self.precision))
        # n_o <= n_T: one sum of logs bounds every candidate's.
        ceiling = JITTER_FLOOR * max(self.count, float(np.trace(t2)) / width)  # >= n_o eps_q
        self.log_eigen = float(np.log(self.eigenvalues + ceiling).sum())

    def head(self, counts, sums, traces, scaled) -> _Head:
        """The :class:`_Head` of N insides, with g = tr(M A).

        ``counts`` (N,) and ``sums`` (m, N) are the insides' :func:`_row_sums`;
        ``traces`` (2, N) is ``weights`` times their packed outer-product
        sums, tr(M I2) and tr I2, and ``scaled`` (m, N) is M s_i. All four
        are linear in the rows, so a prefix of them gives them for any
        inside without its outer-product sums. Every quadratic form is
        expanded into s_i' M s_i, s_T' M s_i and s_T' M s_T, so only those
        and s_i' s_i are computed per candidate from m-sized columns.
        """
        m = self.width
        n_in = counts.astype(float)
        n_out = self.count - n_in
        energy, trace_in = traces  # tr(M I2), tr I2
        inner = np.einsum("in,in->n", sums, scaled)  # s_i' M s_i
        cross = self.scaled_total @ sums  # s_T' M s_i
        outside = self.total_form - 2.0 * cross + inner  # s_o' M s_o
        g = energy + outside / n_out
        spread = (energy - inner / n_in) / n_in  # tr(M Sp)
        trace = (trace_in - np.einsum("in,in->n", sums, sums) / n_in) / n_in  # tr Sp
        # Delta' M Delta, Delta = s_o / n_o - s_i / n_i, with s_o' M s_i = cross - inner.
        maha = outside / n_out**2 - 2.0 * (cross - inner) / (n_out * n_in) + inner / n_in**2
        lnq = self.log_eigen - m * np.log(n_out)
        return _Head(g, n_out, spread + jitter(trace, m) * self.trace_precision + maha, lnq - m)

    def eigen(self, n_out, sums, whitened):
        """The Wolkowicz-Styan bound on lambda_max(W A W) of N insides.

        ``n_out`` (N,) is their outside counts, ``sums`` (m, N) their sums
        and ``whitened`` (m(m+1)/2, N) their packed whitened outer-product
        sums W I2 W, which is overwritten. NaN where the variance term is
        negative, which round-off within the slack cannot make it.
        """
        m = self.width
        v = (self.whitened_total[:, None] - self.whitening @ sums) / np.sqrt(n_out)  # W s_o / sqrt n_o
        for a, row in _packed_rows(m):  # W A W = W I2 W + v v'
            whitened[row] += v[a] * v[: a + 1]
        t = whitened[self.diagonal].sum(axis=0)
        f = self.frobenius @ np.square(whitened, out=whitened)
        mean, square = t / m, f / m
        with np.errstate(invalid="ignore"):
            return mean + np.sqrt((m - 1) * (square - mean * mean + EIGEN_SLACK * square))

    @staticmethod
    def bounds(head, half_logdet, length: int):
        """Score bounds U of N insides from their :meth:`head` and ln|Sp_j| / 2,
        or any lower bound on it; +inf where NaN."""
        rel, tol = BOUND_MARGIN
        bound = 2.0 * length * np.maximum(head - half_logdet, 0.0) * (1.0 + rel) + tol
        return np.where(np.isnan(bound), np.inf, bound)


def _half_logdet(chol):
    """ln|S| / 2 of each covariance of a stack from its factor (m, m, N)."""
    return np.log(np.diagonal(chol, axis1=0, axis2=1)).sum(axis=-1)


class PrefixScanner:
    """Prefix sums over a run of centered embedded rows, for O(1) interval moments.

    ``PrefixScanner(rows)`` covers every one of a scan's :class:`_ScanRows`
    and scores any start; :func:`detect` builds one per block of starts
    over the rows [first, stop) that the block's candidates read. Unusable
    rows are zero and tracked by a count prefix, so ``counts[hi] -
    counts[lo]`` over :meth:`_row_range`'s indices is a candidate's usable
    inside count; its outside is the whole-series totals minus its inside.
    The prefix index is the last axis (``sums`` (width, rows + 1), packed
    ``outer_sums`` (width(width+1)/2, rows + 1)), so a slice of prefix
    columns, or a gather where the starts are not an evenly spaced run,
    gives the stacks that :func:`_fit` turns into factors. Memory is
    O(rows * width^2).

    With ``rung_base`` (the scan's len_min) the lengths rung_base +
    k ``RUNG_STEP`` are rungs: :meth:`score_batch` keeps each rung inside's
    ln|Sp_j| / 2 per start, and, against a floor, bounds every other length
    from the rung just below it at the same start before any fit
    (:meth:`_below`). Every bound's terms come from the sums and from
    ``traces`` (2, rows + 1), the bound's packed weights times
    ``outer_sums``, so no outer-product sum is gathered for a bound
    (:meth:`_ScoreBound.head`), and its g is tightened from ``whitened``,
    the packed prefix of the whitened rows' outer products (:meth:`_bounds`);
    both are built by :meth:`prepare_bound`, which must run first.
    """

    def __init__(self, whole: _ScanRows, first: int = 0, stop: int | None = None,
                 rung_base: int | None = None):
        stop = len(whole.centered) if stop is None else stop
        x = whole.centered[first:stop].T
        self.whole = whole
        self.width = whole.width
        self.lead = whole.lead + first  # anchor time of the prefix's first row
        self.rows = stop - first
        self.counts = np.concatenate([[0], np.cumsum(whole.usable[first:stop])])
        self.sums = np.zeros((self.width, self.rows + 1))
        np.cumsum(x, axis=1, out=self.sums[:, 1:])
        self.outer_sums = _outer_prefix(x)
        self.rung_base = rung_base
        self.rungs: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # length: (starts, ln|Sp_j| / 2)
        self.rung_pruned = 0  # candidates pruned by a rung bound, over every length
        self._lock = threading.Lock()  # threads score lengths of one scanner at once
        self._span = slice(first, stop)
        self.traces = self.whitened = None  # built by prepare_bound

    def prepare_bound(self) -> None:
        """Build the prefixes that scoring against a floor reads, once.

        ``traces`` (2, rows + 1) is the bound's packed weights times
        ``outer_sums`` (:meth:`_ScoreBound.head`), and ``whitened`` the
        packed prefix of the outer products of the whitened rows W x
        (:meth:`_ScoreBound.eigen`). :func:`detect` calls this on its own
        thread once the block has a floor, so that the prefix is neither
        built by the threads that share the block's lengths nor held beside
        an unpruned stack. Nothing is built without a bound.
        """
        bound = self.whole.bound
        if bound is None or self.whitened is not None:
            return
        self.traces = bound.weights @ self.outer_sums
        self.whitened = _outer_prefix(bound.whitening @ self.whole.centered[self._span].T)

    def _row_range(self, starts: np.ndarray, length: int) -> tuple[np.ndarray, np.ndarray]:
        lo = np.clip(starts - self.lead, 0, self.rows)
        hi = np.clip(starts + length - self.lead, 0, self.rows)
        return lo, np.maximum(hi, lo)

    def score_batch(self, starts: np.ndarray, length: int, *, floor: float = -np.inf) -> np.ndarray:
        """Length-weighted scores for all intervals [s, s+length); NaN if
        unscorable, -inf if pruned below ``floor``.

        Unscorable: at most ``width`` usable rows inside, fewer than 2
        outside, or a pair that :func:`_scores` refuses. Every interval's
        rows in the series must lie within the prefix's rows. There are two
        paths. With no ``floor``, or no bound, every candidate is scored,
        both sides as one stack. With one, a candidate is bounded before
        each fit, and only one whose :class:`_ScoreBound` reaches the floor
        has its outside fitted and its divergence taken (:meth:`_pruned`);
        the others score -inf. A floor needs :meth:`prepare_bound` first.
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
        starts, lo, hi = starts[ok], lo[ok], hi[ok]
        rung = self.rung_base is not None and (length - self.rung_base) % RUNG_STEP == 0
        bound = self.whole.bound if floor > -np.inf else None
        if bound is None:
            # Nothing can be pruned: both sides as one stack of 2N. Two
            # stacks of N, as in _pruned, cost more per matrix (numpy's
            # per-step overhead falls on half as many) and made the
            # pipeline_cli benchmark, whose scan is one block, 17% slower.
            runs = _runs(lo, hi)
            # The sums are call temporaries, freed before the divergence runs.
            mean, chol = _fit(
                np.concatenate([cnt_in[ok], cnt_out[ok]]),
                self._gather(self.sums, total_sum, runs),
                self._gather(self.outer_sums, total_outer, runs),
            )
            half_logdet = _half_logdet(chol[..., : len(lo)]) if rung else None
            out[ok] = _scores(mean, chol, length)
        else:
            out[ok], half_logdet = self._pruned(starts, lo, hi, length, floor, bound)
        if rung:
            self.rungs[length] = starts, half_logdet
        return out

    def _pruned(self, starts, lo, hi, length: int, floor: float, bound: _ScoreBound):
        """Scores of the scorable candidates [s, s + length) of ``starts``,
        with prefix indices ``lo`` and ``hi``, whose bound reaches ``floor``,
        -inf for the others, and the ln|Sp_j| / 2 of the insides fitted.

        One sequence for every length. The insides' sums and ``traces`` are
        gathered once and give their :class:`_Head`. Between rungs, a
        candidate whose bound through the rung below (:meth:`_below`) cannot
        reach the floor is pruned with no fit and counted in
        ``rung_pruned``. The rest have their insides fitted and their exact
        bound taken, and only those that reach the floor have their outsides
        fitted, in their own, smaller stack: the totals minus the sums
        already gathered and minus the outer-product sums, which are
        gathered again. Every bound is taken by :meth:`_bounds`, which
        tightens a candidate's g at most once.
        """
        if self.whitened is None:
            raise RuntimeError("scoring against a floor needs prepare_bound() first")
        counts = self.counts[hi] - self.counts[lo]
        runs = _runs(lo, hi)
        sums = self._gather(self.sums, None, runs)
        head = bound.head(
            counts, sums, self._gather(self.traces, None, runs), bound.precision @ sums
        )
        fresh = np.ones(lo.shape, dtype=bool)  # g not yet tightened
        n = len(lo)
        fitted = slice(None)
        below = self._below(starts, lo, counts, length)
        if below is not None:
            fitted = self._bounds(head, below, length, floor, fresh, lo, hi, sums) >= floor
            with self._lock:
                self.rung_pruned += fitted.size - int(np.count_nonzero(fitted))
            if not fitted.any():
                return np.full(n, -np.inf), None
            lo, hi, counts, sums, fresh = (
                lo[fitted], hi[fitted], counts[fitted], sums[:, fitted], fresh[fitted]
            )
            head = head.take(fitted)
        mean_p, chol_p = _fit(counts, sums, self._gather(self.outer_sums, None, _runs(lo, hi)))
        half_logdet = _half_logdet(chol_p)
        reach = self._bounds(head, half_logdet, length, floor, fresh, lo, hi, sums) >= floor
        kept = np.full(reach.shape, -np.inf)
        if reach.any():
            count, total_sum, total_outer = self.whole.totals
            # The insides' outer-product sums are gathered again rather than
            # kept through the exact bound, where they would sit beside the
            # whitened gather; the outsides' are then made in place.
            outer = self._gather(self.outer_sums, None, _runs(lo[reach], hi[reach]))
            mean_q, chol_q = _fit(
                count - counts[reach],
                total_sum - sums[:, reach],
                np.subtract(total_outer, outer, out=outer),
            )
            kept[reach] = _pair_scores(mean_p[:, reach], chol_p[..., reach], mean_q, chol_q, length)
        # Made last: allocated at the start of the call, it moved where
        # glibc placed the call's large temporaries, and the benchmark's
        # scan_long read a 2-5% higher peak RSS.
        scores = np.full(n, -np.inf)
        scores[fitted] = kept
        return scores, half_logdet

    def _below(self, starts, lo, counts, length: int):
        """Lower bounds on ln|Sp_j| / 2 of the insides [s, s + length) of
        ``starts``, with first prefix index ``lo`` and ``counts`` usable rows,
        through the rung kept just below ``length`` at each start, by the
        nesting lemma (:class:`_ScoreBound`); NaN where that rung kept no
        factor, and None at a rung itself or with no rungs.
        """
        step = 0 if self.rung_base is None else (length - self.rung_base) % RUNG_STEP
        if not step:
            return None
        if length - step not in self.rungs:
            return np.full(starts.shape, np.nan)
        rung_starts, rung_half = self.rungs[length - step]
        # The rung's scorable starts, ascending as detect's are; a longer
        # length's starts are among the rung's, but a start may be scorable
        # at the longer length only.
        at = np.minimum(np.searchsorted(rung_starts, starts), len(rung_starts) - 1)
        half = np.where(rung_starts[at] == starts, rung_half[at], np.nan)
        rung_counts = self.counts[self._row_range(starts, length - step)[1]] - self.counts[lo]
        with np.errstate(divide="ignore"):  # ln 0 where the rung kept no factor
            return half + 0.5 * self.width * np.log(rung_counts / counts)

    def _bounds(self, head: _Head, half_logdet, length: int, floor: float, fresh, lo, hi, sums):
        """Score bounds of N insides from their :class:`_Head` and ln|Sp_j| / 2,
        or a lower bound on it (:meth:`_ScoreBound.bounds`).

        Where the bound through the head's g reaches ``floor`` and g is
        ``fresh`` (N,), still tr(M A), g is lowered in place to the
        eigenvalue bound (:meth:`_ScoreBound.eigen`) where that is lower,
        ``fresh`` is cleared and the bound taken again. The insides have
        prefix indices ``lo`` and ``hi`` and the sums ``sums``.
        """
        bound = self.whole.bound
        bounds = bound.bounds(head.value(), half_logdet, length)
        tighten = fresh & (bounds >= floor)
        if tighten.any():
            whitened = self._gather(self.whitened, None, _runs(lo[tighten], hi[tighten]))
            eigen = bound.eigen(head.n_out[tighten], sums[:, tighten], whitened)
            head.g[tighten] = np.fmin(head.g[tighten], eigen)  # a NaN bound leaves g
            fresh[tighten] = False
            bounds[tighten] = bound.bounds(head.take(tighten).value(), half_logdet[tighten], length)
        return bounds

    @staticmethod
    def _gather(prefix: np.ndarray, total: np.ndarray | None, runs):
        """Inside sums ``prefix[:, hi] - prefix[:, lo]`` and, unless ``total``
        is None, outside sums ``total`` minus them, side by side as one
        (k, 2N) array; ``runs`` is :func:`_runs` of ``lo`` and ``hi``."""
        # Built in place: concatenating the two sides leaves more freed
        # temporaries behind, enough for glibc's allocator to return the
        # memory to the operating system after each call and fault it in
        # again on the next.
        n = runs[-1][0].stop  # the tail ends at N
        sides = np.empty((len(prefix), 1 if total is None else 2, n))
        inside = sides[:, 0]
        for part, lo, hi in runs:
            if isinstance(lo, slice):
                np.subtract(prefix[:, hi], prefix[:, lo], out=inside[:, part])
            else:  # take copies the columns of index arrays faster than indexing does
                np.subtract(prefix.take(hi, axis=1), prefix.take(lo, axis=1), out=inside[:, part])
        if total is not None:
            np.subtract(total, inside, out=sides[:, 1])
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


def _packed_rows(width: int):
    """(a, slice) for each row a of a packed lower triangle: the slice of its
    entries (a, 0), ..., (a, a)."""
    start = 0
    for a in range(width):
        yield a, slice(start, start + a + 1)
        start += a + 1


def _outer_prefix(x: np.ndarray) -> np.ndarray:
    """Packed prefix (w(w+1)/2, r + 1) of the outer products of the columns of
    ``x`` (w, r): column k holds the sum over the first k, in
    ``np.tril_indices`` order.

    Built row by row of the triangle, x[a] times x[:a + 1], then summed in
    place: no gathered copy of the factors, and the same bits as
    ``np.cumsum(x[i] * x[j], axis=1)`` over the triangle's indices i, j.
    """
    width, rows = x.shape
    prefix = np.zeros((width * (width + 1) // 2, rows + 1))
    body = prefix[:, 1:]
    for a, row in _packed_rows(width):
        np.multiply(x[a], x[: a + 1], out=body[row])
    np.cumsum(body, axis=1, out=body)
    return prefix


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
    for a, packed in _packed_rows(len(mean)):  # row by row: no stack-sized temporary
        row = covs[a, : a + 1]
        np.multiply(mean[a], mean[: a + 1], out=row)
        np.subtract(outer[packed], row, out=row)
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
    """Greedy non-intersecting selection in the given order, appended to ``accepted``.

    Each acceptance masks out, in one array operation, every candidate of
    ``order`` that meets it.
    """
    a = starts[order]
    b = a + lens[order]
    free = np.ones(order.size, dtype=bool)
    for det in accepted:
        free &= (b <= det.interval.a) | (a >= det.interval.b)
    while len(accepted) < top_k:
        j = int(free.argmax())
        if not free[j]:
            break
        iv = Interval(int(a[j]), int(b[j]))
        score = float(scores[order[j]])
        accepted.append(Detection(interval=iv, score=score, rank=len(accepted) + 1))
        free &= (b <= iv.a) | (a >= iv.b)


def _meets(len_min: int, len_max: int) -> int:
    """B, the most pairwise-disjoint candidates that one candidate can meet.

    Of k disjoint intervals that meet [a, a + L), all but the first and the
    last lie within [a + 1, a + L - 1), so (k - 2) len_min <= L - 2 <= len_max - 2.
    """
    return (len_max - 2) // len_min + 2


def _floor(scores, starts, lens, top_k: int, meets: int) -> float:
    """Score of the ((top_k - 1) B + 1)-th pick of a greedy disjoint walk over
    the candidates (:func:`_select`), or -inf if the walk picks fewer; B is
    ``meets`` (:func:`_meets`).

    The picks are pairwise disjoint and score at least the floor. Fewer
    than top_k detections of the final walk meet at most (top_k - 1) B of
    them, so one pick stays free, and the walk accepts it or something
    better before it accepts fewer than top_k: every detection scores at
    least the floor, and a candidate whose score is below it can neither
    be a detection nor come before one. At top_k = 1 the floor is the best
    score so far.
    """
    picks = (top_k - 1) * meets + 1
    picked = _select(scores, starts, lens, picks)
    return picked[-1].score if len(picked) == picks else -np.inf


def detect(series: MultivariateSeries, cfg: ScanConfig, threads: int = 1) -> list[Detection]:
    """Scan all candidate intervals and return the top-k disjoint detections.

    Candidates are every (start, length) with len_min <= length <= len_max,
    starts on the stride grid. They are scored in blocks of ``SCAN_BLOCK``
    starts, each from one prefix over the rows it reads; threads share the
    lengths of one phase of a block. A scan whose outer-product total has
    no :class:`_ScoreBound` scores every length in one phase. Otherwise
    each block has up to three: len_min alone, the other rungs (len_min +
    k ``RUNG_STEP``), then the lengths between them. After each phase that
    another follows, the floor rises to the :func:`_floor` of the
    candidates kept so far, and the next phases score exactly only the
    candidates whose bound reaches it; the others cannot change the result.
    Nor can a candidate scored below the floor, so none is kept. Once a
    block has a floor, this thread builds the prefixes its bounds read
    (:meth:`PrefixScanner.prepare_bound`). The floor changes only between
    phases, so neither the candidates scored nor any score depends on
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
    blocks = range(0, grid_end, SCAN_BLOCK)
    meets = _meets(cfg.len_min, cfg.len_max)
    if scan_rows.bound is not None:
        rung_base = cfg.len_min
        rungs = lengths[::RUNG_STEP]
        between = [length for length in lengths if (length - rung_base) % RUNG_STEP]
        phases = [phase for phase in ([rung_base], rungs[1:], between) if phase]
    else:  # nothing to prune: no floor, no rungs
        rung_base, phases = None, [lengths]

    def scan_one(scanner: PrefixScanner, s0: int, s1: int, floor: float, length: int):
        first = -(-s0 // cfg.stride) * cfg.stride
        starts = np.arange(first, min(s1, n - length + 1), cfg.stride)
        if starts.size == 0:
            return None
        return starts, scanner.score_batch(starts, length, floor=floor), length

    # (scores, starts, lengths) of the candidates scored exactly that can
    # still be detections: none below the floor.
    scored = []
    exact = pruned = rung_pruned = unscorable = 0
    floor = -np.inf

    def raise_floor():
        nonlocal floor, scored
        if rung_base is None or not scored:
            return
        joined = _joined(scored)
        floor = max(floor, _floor(*joined, cfg.top_k, meets))
        keep = joined[0] >= floor
        scored = [tuple(column[keep] for column in joined)]

    with ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext() as pool:
        run = map if pool is None else pool.map
        for s0 in blocks:
            s1 = min(s0 + SCAN_BLOCK, grid_end)
            # The rows anchored in [s0, s1 - 1 + len_max): all that the block reads.
            first = max(s0 - scan_rows.lead, 0)
            stop = min(s1 - 1 + cfg.len_max - scan_rows.lead, len(scan_rows.centered))
            scanner = PrefixScanner(scan_rows, first, stop, rung_base)
            for i, phase in enumerate(phases):
                if i:
                    raise_floor()
                if floor > -np.inf:
                    scanner.prepare_bound()
                for chunk in run(partial(scan_one, scanner, s0, s1, floor), phase):
                    if chunk is None:
                        continue
                    starts, scores, length = chunk
                    finite = np.isfinite(scores)
                    exact += int(finite.sum())
                    pruned += int(np.isneginf(scores).sum())
                    unscorable += int(np.isnan(scores).sum())
                    keep = finite & (scores >= floor)
                    if keep.any():
                        scored.append((scores[keep], starts[keep], np.full(int(keep.sum()), length)))
            rung_pruned += scanner.rung_pruned
            del scanner  # its prefix, before the floor's walk and the next block's prefix
            if s1 < grid_end:
                raise_floor()
    if not scored:
        raise ScoringError("no scorable candidate interval on the scan grid")

    scores, starts, lens = _joined(scored)
    detections = _select(scores, starts, lens, cfg.top_k)
    log.info(
        "scan over %d candidates: %d scored exactly, %d pruned by the rung bound "
        "(no inside fit), %d pruned by the exact bound, %d unscorable "
        "(final floor %.6g); %d detection(s)",
        exact + pruned + unscorable, exact, rung_pruned, pruned - rung_pruned, unscorable,
        floor, len(detections),
    )
    return detections


def _joined(scored):
    """The scores, starts and lengths of the scan's chunks, each as one array."""
    return tuple(np.concatenate(column) for column in zip(*scored))
