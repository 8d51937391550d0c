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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EstimationError
from .gaussian import cholesky, jitter_epsilon, solve_lower
from .series import EmbeddingConfig, Interval, MultivariateSeries


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
    is exactly the conditional of the joint. The model is read-only after
    construction and may be shared between threads.
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
        indices = VariableSubset(subset).indices
        if indices[0] < 0 or indices[-1] >= self.d:
            raise ConfigError(f"subset {indices} out of range for {self.d} variables")
        cap = subset_cap(self.d)
        if len(indices) > cap:
            raise ConfigError(
                f"subset size {len(indices)} exceeds the cap of {cap} for {self.d} variables"
            )
        steps = np.arange(self.interval.a, self.interval.b) - self.start
        return (steps[:, None] * self.d + np.array(indices)).ravel()

    def _factor(self, subset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Replaced indices Q, y_Q and L_QQ of ``subset``; NumericalError if Lambda_HH is not PD."""
        q_idx = self.replaced(subset)
        q = q_idx.size
        hidden = np.concatenate([np.setdiff1d(self.absent, q_idx, assume_unique=True), q_idx])
        lam_hh = self.precision[np.ix_(hidden, hidden)]  # Q last, so Lambda_HQ = lam_hh[:, -q:]
        pulled = self.pulled[hidden] - lam_hh[:, -q:] @ self.residual[q_idx]
        chol = cholesky(lam_hh, f"hidden-cell precision of subset {tuple(subset)}")
        y = solve_lower(chol, pulled)
        return q_idx, y[-q:], chol[-q:, -q:]

    def conditional(self, subset) -> tuple[np.ndarray, np.ndarray]:
        """Mean of the replaced block of ``subset`` given everything kept, and L_QQ.

        The covariance of that law is (L_QQ L_QQ')^-1.
        """
        q_idx, y_q, chol_qq = self._factor(subset)
        return self.mean[q_idx] - solve_lower(chol_qq, y_q, transpose=True), chol_qq

    def realize(self, subset, normals: np.ndarray) -> np.ndarray:
        """Replacements of ``subset`` from standard normals, shaped (R, |interval|, |subset|).

        Row r of the (R, |Q|) ``normals`` gives x_Q = mu_Q + L_QQ'^-1 (z_r - y_Q);
        all R rows are solved together in one solve.
        """
        q_idx, y_q, chol_qq = self._factor(subset)
        x = solve_lower(chol_qq, normals.T - y_q[:, None], transpose=True) + self.mean[q_idx, None]
        return x.T.reshape(len(normals), self.interval.length, len(subset))

    def draws(self, subset, seeds) -> np.ndarray:
        """Seeded replacements of ``subset``, one per seed, shaped (R, |interval|, |subset|).

        Realization r maps ``default_rng(seeds[r]).standard_normal(|Q|)``
        through :meth:`realize`. The same seeds give the same stack exactly;
        a realization drawn in another stack agrees to round-off.
        NumericalError if the hidden-cell precision does not factor.
        """
        size = self.interval.length * len(subset)
        normals = np.stack([np.random.default_rng(seed).standard_normal(size) for seed in seeds])
        return self.realize(subset, normals)


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
