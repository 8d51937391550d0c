"""In-distribution replacement of variable subsets inside an anomalous interval.

The window of an interval [a, b) under an embedding (kappa, tau) is
[a - (kappa-1)*tau, b + (kappa-1)*tau): the interval and, on each side, the
cells that a re-score of the interval reads (the delay-embedded rows reach
back (kappa-1)*tau steps). The replacement treats each time step of the
window as part of one joint Gaussian over ``d * length`` coordinates.
Stationarity makes that joint covariance block-Toeplitz, so only the first
row of lag blocks C_k = cov(x_t, x_{t-k}) has to be estimated (with the
anomalous interval masked out, so the anomaly cannot contaminate the
nominal model). Every lag is scaled by the same per-variable counts (the
biased autocovariance estimator), so the joint is positive semi-definite by
construction for any window length and any missing cells; it gets the one
diagonal jitter and is never repaired. New values for the replaced
variables are then drawn from the Gaussian conditional on everything that
is kept: the untouched variables inside the interval and the full context
on both sides.

There is one model per window (:class:`WindowModel`): the joint is checked
positive definite by one Cholesky factorization and inverted once into its
precision, and every subset is conditioned and drawn in precision form
through one Cholesky factor of the precision block of its hidden cells.
Subsets of one size are drawn as stacks: the blocks of a stack are gathered,
factored in one call and solved in one blocked substitution, at most
DRAW_STACK_BYTES of them at a time, and each subset's draws are exactly the
ones it gets alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EstimationError, NumericalError
from .gaussian import cholesky, jitter_epsilon, solve_lower
from .series import EmbeddingConfig, Interval, MultivariateSeries

#: Largest gathered stack of hidden-cell precisions, in bytes. A stack of more
#: subsets is factored and drawn in parts; a larger matrix is a stack of its own.
DRAW_STACK_BYTES = 1 << 20


def estimate_stationary(
    series: MultivariateSeries, mask_interval: Interval, max_lag: int
) -> tuple[np.ndarray, np.ndarray]:
    """Estimate lag blocks C_0 ... C_{max_lag} and the nominal mean with the interval masked out.

    All cells inside ``mask_interval`` are treated as missing. With c the
    series centered on the nominal mean and zero on missing cells, and n_j
    the number of observed cells of variable j,

        C_k = D (sum_t c_t c_{t-k}') D,   D = diag(1 / sqrt(n_j)),

    so every lag is scaled alike (the biased autocovariance estimator) and a
    lag with no pairs, in particular any lag at or beyond n, is zero. The
    blocks come back as a ``(max_lag + 1, d, d)`` array. EstimationError if
    a variable has fewer than two observed cells.
    """
    n = series.n
    mask_interval.validate_within(n)
    if max_lag < 0:
        raise ConfigError(f"max_lag must be >= 0, got {max_lag}")

    present = ~series.missing
    present[mask_interval.a : mask_interval.b, :] = False
    counts = present.sum(axis=0)
    if counts.min() < 2:
        j = int(counts.argmin())
        raise EstimationError(
            f"variable {series.names[j]!r} has {counts[j]} observations outside the mask"
        )
    mean = np.where(present, series.values, 0.0).sum(axis=0) / counts
    scaled = np.where(present, series.values - mean, 0.0) / np.sqrt(counts)  # c D

    blocks = np.zeros((max_lag + 1, series.d, series.d))
    for k in range(min(max_lag + 1, n)):
        blocks[k] = scaled[k:].T @ scaled[: n - k]
    blocks[0] = 0.5 * (blocks[0] + blocks[0].T)
    return blocks, mean


def assemble_joint(blocks: np.ndarray, mean: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expand lag blocks C_0 ... C_{L-1} into the joint Gaussian over L consecutive steps.

    Block (i, j) of the covariance is C_{i-j} for i >= j and C_{j-i}' otherwise,
    and the nominal per-variable mean is tiled once per step. The blocks of
    :func:`estimate_stationary` make this block-Toeplitz matrix positive
    semi-definite by construction: it is (I kron D) Z'Z (I kron D), with Z the
    stacked, zero-padded lagged copies of c. The one jitter,
    :func:`~anomattr.gaussian.jitter_epsilon` of the joint, is added to its
    diagonal, and nothing else is repaired. Returns ``(mean, cov)``.
    """
    blocks = np.asarray(blocks, dtype=float)
    if blocks.ndim != 3 or blocks.shape[0] < 1 or blocks.shape[1] != blocks.shape[2]:
        raise ValueError("blocks must be a (lags, d, d) stack")
    length, d, _ = blocks.shape
    mean = np.asarray(mean, dtype=float).reshape(-1)
    if mean.size != d:
        raise ValueError(f"mean has size {mean.size}, blocks are {d}x{d}")
    dim = d * length
    cov = np.zeros((length, d, length, d))  # cov[i, :, j, :] is block (i, j)
    for k in range(length):
        steps = np.arange(k, length)
        cov[steps, :, steps - k, :] = blocks[k]
        if k:
            cov[steps - k, :, steps, :] = blocks[k].T
    cov = cov.reshape(dim, dim)
    cov.flat[:: dim + 1] += jitter_epsilon(cov)
    return np.tile(mean, length), cov


def subset_cap(d: int, max_subset_size: int | None = None) -> int:
    """Largest subset size considered: ceil(d/2), optionally tightened."""
    cap = math.ceil(d / 2)
    return cap if max_subset_size is None else min(cap, max_subset_size)


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


class WindowModel:
    """The nominal Gaussian of one attribution window, inverted once.

    The window of ``interval`` = [a, b) is [a - h, b + h) with
    h = ``cfg.history`` = (kappa-1)*tau: the interval and the cells on each
    side that :class:`~anomattr.detector.LocalRescorer` reads when it
    re-scores the interval. Its cells are flattened time-major, so cell
    (window step i, variable j) is coordinate i*d + j of the joint
    (``mean``, ``cov``); window steps outside the series are absent.

    NumericalError unless ``cov`` is positive definite. The precision
    Lambda = Sigma^-1 of the joint over the window is formed once, and the
    evidence residual r = x - mu (zero on absent cells) is pulled through it
    once. Replacing a subset hides the cells H = A + Q:
    the absent (missing or out-of-series) window cells A, then the replaced
    coordinates Q. Given every other cell, H is Gaussian with precision
    Lambda_HH and mean mu_H - Lambda_HH^-1 p, where p = (Lambda r_H0)_H and
    r_H0 is r with the entries of H zeroed.

    Each subset costs one factorization, Lambda_HH = L L'. With Q last, the
    trailing block L_QQ of L factors the precision of the replaced block, so
    with y = L^-1 p the replacement law is

        cov_Q  = (L_QQ L_QQ')^-1
        mean_Q = mu_Q - L_QQ'^-1 y_Q,

    and a draw is x_Q = mu_Q + L_QQ'^-1 (z - y_Q) with z standard normal.
    Neither cov_Q nor an inverse is formed, and no jitter is added: the law
    is exactly the conditional of the joint.

    :meth:`draw_stack` takes S subsets of one size at once. Subsets with the
    same number of hidden cells h share a stack: their Lambda_HH are gathered
    as one (S, h, h) array of at most DRAW_STACK_BYTES, factored by one
    ``np.linalg.cholesky`` call, and y and the draws of the whole stack are
    each one blocked substitution (:func:`~anomattr.gaussian.solve_lower`).
    Every LAPACK and BLAS call still sees one subset's matrix, so a subset's
    draws do not depend on its stack. If a stack does not factor, its
    matrices are factored one at a time: a subset that fails records its
    NumericalError, and the others are drawn from their own factors.
    :meth:`draws`, :meth:`realize` and :meth:`conditional` run the same code
    on a stack of one. The model is read-only after construction and may be
    shared between threads.
    """

    def __init__(
        self,
        mean: np.ndarray,
        cov: np.ndarray,
        series: MultivariateSeries,
        interval: Interval,
        cfg: EmbeddingConfig,
    ):
        interval.validate_within(series.n)
        self.interval = interval
        self.d = series.d
        self.start = interval.a - cfg.history  # first window time, possibly negative
        self.length = interval.length + 2 * cfg.history
        dim = self.length * self.d
        mean = np.asarray(mean, dtype=float).reshape(-1)
        cov = np.asarray(cov, dtype=float)
        if mean.size != dim or cov.shape != (dim, dim):
            raise ValueError(
                f"joint has mean {mean.shape} and covariance {cov.shape}, window needs {dim}"
            )
        if np.abs(cov - cov.T).max() > 1e-12 * max(1.0, np.abs(cov).max()):
            raise ValueError("joint covariance is not symmetric")
        # The one check that the joint is positive definite. The inverse is
        # then taken directly and symmetrized in place: that holds fewer
        # window-sized buffers at once than an inverse formed from the factor.
        cholesky(cov, "nominal joint of the window")
        precision = np.linalg.inv(cov)
        precision += precision.T  # numpy buffers the overlapping operand
        precision *= 0.5
        self.mean = mean
        self.precision = precision
        lo, hi = max(self.start, 0), min(self.start + self.length, series.n)
        values = np.zeros((self.length, self.d))
        present = np.zeros((self.length, self.d), dtype=bool)
        values[lo - self.start : hi - self.start] = series.values[lo:hi]
        present[lo - self.start : hi - self.start] = ~series.missing[lo:hi]
        present = present.ravel()
        self.residual = np.where(present, values.ravel() - self.mean, 0.0)
        self.pulled = self.precision @ self.residual
        self.absent = np.flatnonzero(~present)

    @classmethod
    def fit(
        cls, series: MultivariateSeries, interval: Interval, cfg: EmbeddingConfig
    ) -> "WindowModel":
        """Estimate the nominal model of the window around ``interval``.

        Lag blocks up to the window length are estimated with the interval
        masked out; lags the series cannot support are zero.
        """
        length = interval.length + 2 * cfg.history
        mean, cov = assemble_joint(*estimate_stationary(series, interval, length - 1))
        return cls(mean, cov, series, interval, cfg)

    def replaced(self, subset) -> np.ndarray:
        """Flat window indices of the cells ``subset`` replaces, time-major.

        The variables are taken in ascending order. ConfigError unless
        ``subset`` is non-empty, free of duplicates, within the series' d
        variables and no larger than :func:`subset_cap` of d.
        """
        return self._replaced([subset])[1][0]

    def _replaced(self, subsets) -> tuple[np.ndarray, np.ndarray]:
        """Variables (S, k) and :meth:`replaced` cells (S, |interval| * k) of S subsets of size k."""
        cap = subset_cap(self.d)
        indices = [VariableSubset(subset).indices for subset in subsets]
        for idx in indices:
            if idx[0] < 0 or idx[-1] >= self.d:
                raise ConfigError(f"subset {idx} out of range for {self.d} variables")
            if len(idx) > cap:
                raise ConfigError(
                    f"subset size {len(idx)} exceeds the cap of {cap} for {self.d} variables"
                )
        if len({len(idx) for idx in indices}) > 1:
            raise ValueError("a stack of subsets must be of one size")
        variables = np.array(indices)
        steps = np.arange(self.interval.a, self.interval.b) - self.start
        return variables, (steps[:, None] * self.d + variables[:, None, :]).reshape(len(indices), -1)

    def _stacks(self, subsets, failed: dict):
        """Yield (rows, Q, y_Q, L_QQ) for each stack of ``subsets``, a list of one size.

        ``rows`` are positions in ``subsets``; Q is (S, q), y_Q (S, q, 1) and
        L_QQ (S, q, q). The subsets are grouped by hidden size h = |A \\ Q| + q,
        which absent cells inside the interval can change, and each group is
        split so that its gathered (S, h, h) Lambda_HH stays within
        DRAW_STACK_BYTES. A subset whose Lambda_HH does not factor is left
        out of its stack, and its NumericalError is put in ``failed`` under
        its position.
        """
        variables, q_idx = self._replaced(subsets)
        q = q_idx.shape[1]
        step, variable = np.divmod(self.absent, self.d)
        inside = (step >= self.interval.a - self.start) & (step < self.interval.b - self.start)
        kept = ~(inside & (variable[:, None] == variables[:, None, :]).any(axis=2))  # A \ Q
        counts = kept.sum(axis=1)
        for count in sorted(set(counts.tolist())):  # not np.unique: it imports numpy.ma, 0.5 MB
            group = np.flatnonzero(counts == count)
            per_stack = max(1, DRAW_STACK_BYTES // (8 * (count + q) ** 2))
            for lo in range(0, group.size, per_stack):
                rows = group[lo : lo + per_stack]
                rest = np.broadcast_to(self.absent, (rows.size, self.absent.size))[kept[rows]]
                hidden = np.concatenate([rest.reshape(rows.size, count), q_idx[rows]], axis=1)
                yield from self._factor(rows, hidden, q_idx[rows], subsets, failed)

    def _factor(self, rows, hidden, q_idx, subsets, failed: dict):
        """Factor the Lambda_HH stack of ``hidden`` (S, h), Q last, in one call; see :meth:`_stacks`."""
        q = q_idx.shape[1]
        lam = self.precision[hidden[:, :, None], hidden[:, None, :]]  # Lambda_HQ = lam[..., -q:]
        pulled = self.pulled[hidden][..., None] - lam[..., -q:] @ self.residual[q_idx][..., None]
        try:
            chol = np.linalg.cholesky(lam)
        except np.linalg.LinAlgError:
            # Factor the matrices one at a time to find the ones that fail;
            # the others keep their own factors, so their draws do not change.
            factors = {}
            for i, row in enumerate(rows):
                what = f"hidden-cell precision of subset {tuple(subsets[row])}"
                try:
                    factors[i] = cholesky(lam[i], what)
                except NumericalError as exc:
                    failed[row] = exc
            if not factors:
                return
            keep = list(factors)
            rows, q_idx, pulled = rows[keep], q_idx[keep], pulled[keep]
            chol = np.stack(list(factors.values()))
        del lam
        y = solve_lower(chol, pulled)
        yield rows, q_idx, y[:, -q:], chol[:, -q:, -q:]

    def conditional(self, subset) -> tuple[np.ndarray, np.ndarray]:
        """Mean of the replaced block of ``subset`` given everything kept, and L_QQ.

        The covariance of that law is (L_QQ L_QQ')^-1.
        """
        failed = {}  # a stack of one is factored once or fails
        for _, q_idx, y_q, chol_qq in self._stacks([subset], failed):
            mean = self.mean[q_idx] - solve_lower(chol_qq, y_q, transpose=True)[..., 0]
            return mean[0], chol_qq[0]
        raise failed[0]

    def _realize(self, subsets, normals: np.ndarray) -> list:
        """Replacements of S subsets of one size from (S, R, q) standard normals.

        Entry i is (R, |interval|, |subset|), or the NumericalError of a
        subset whose hidden-cell precision does not factor. Row r of
        ``normals[i]`` gives x_Q = mu_Q + L_QQ'^-1 (z_r - y_Q); each stack
        solves all its subsets' R rows in one blocked substitution.
        """
        out, failed = [None] * len(subsets), {}
        for rows, q_idx, y_q, chol_qq in self._stacks(subsets, failed):
            rhs = np.swapaxes(normals[rows], -1, -2) - y_q
            x = solve_lower(chol_qq, rhs, transpose=True) + self.mean[q_idx][..., None]
            shape = (rows.size, normals.shape[1], self.interval.length, -1)
            draws = np.swapaxes(x, -1, -2).reshape(shape)
            for row, draw in zip(rows, draws):
                out[row] = draw
            del chol_qq  # the stack's factor, freed before the next stack is gathered
        for row, exc in failed.items():
            out[row] = exc
        return out

    def realize(self, subset, normals: np.ndarray) -> np.ndarray:
        """Replacements of ``subset`` from (R, |Q|) standard normals, shaped (R, |interval|, |subset|).

        Row r of ``normals`` gives x_Q = mu_Q + L_QQ'^-1 (z_r - y_Q).
        NumericalError if the hidden-cell precision does not factor.
        """
        return _raised(self._realize([subset], np.asarray(normals, dtype=float)[None])[0])

    def draw_stack(self, subsets, seeds) -> list:
        """Seeded replacements of S subsets of one size; ``seeds[i]`` seeds ``subsets[i]``.

        Realization r of subset i maps
        ``default_rng(seeds[i][r]).standard_normal(|Q|)`` through the law of
        :meth:`realize`. Entry i is (R, |interval|, |subset|), or the
        NumericalError of a subset whose hidden-cell precision does not
        factor. Every entry is bit-identical to the subset drawn alone with
        the same seeds, in any stack and at any position; a realization
        drawn with other seeds beside it agrees to round-off.
        """
        size = self.interval.length * len(subsets[0])
        normals = np.array(
            [[np.random.default_rng(seed).standard_normal(size) for seed in row] for row in seeds]
        )
        return self._realize(subsets, normals)

    def draws(self, subset, seeds) -> np.ndarray:
        """:meth:`draw_stack` of ``subset`` alone; NumericalError if it fails."""
        return _raised(self.draw_stack([subset], [seeds])[0])


def _raised(result):
    """``result``, unless it is the error of a failed subset, which is raised."""
    if isinstance(result, NumericalError):
        raise result
    return result


def apply_replacement(
    series: MultivariateSeries, interval: Interval, subset, sample: np.ndarray
) -> MultivariateSeries:
    """Write column k of ``sample`` into variable ``subset[k]`` over ``interval``.

    Everything else is untouched; the written cells are no longer missing.
    """
    interval.validate_within(series.n)
    sample = np.asarray(sample, dtype=float)
    cols = list(subset)
    if sample.shape != (interval.length, len(cols)):
        raise ValueError(
            f"sample shape {sample.shape} does not match {(interval.length, len(cols))}"
        )
    values = series.values.copy()
    missing = series.missing.copy()
    values[interval.a : interval.b, cols] = sample
    missing[interval.a : interval.b, cols] = False
    return series.with_values(values, missing)
