"""In-distribution replacement of variable subsets inside an anomalous interval.

The window of an interval [a, b) under an embedding (kappa, tau) is
[a - (kappa-1)*tau, b + (kappa-1)*tau): the interval and, on each side, the
cells that a re-score of the interval reads (the delay-embedded rows reach
back (kappa-1)*tau steps). The replacement treats each time step of the
window as part of one joint Gaussian over ``d * length`` coordinates.
Stationarity makes that joint covariance block-Toeplitz, so only the first
row of lag blocks C_k = cov(x_t, x_{t-k}) has to be estimated (with the
anomalous interval masked out, so the anomaly cannot contaminate the
nominal model). New values for the replaced variables are then drawn from
the Gaussian conditional on everything that is kept: the untouched
variables inside the interval and the full context on both sides.

There is one model per window (:class:`WindowModel`): the joint is inverted
once into its precision, and every subset is conditioned and drawn in
precision form through one Cholesky factor of the precision block of its
hidden cells.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EstimationError
from .gaussian import GaussianModel, cholesky, jitter_epsilon
from .series import EmbeddingConfig, Interval, MultivariateSeries

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class StationaryCovariance:
    """Lag-indexed cross-covariance blocks C_0 ... C_{max_lag} of a stationary process.

    C_k estimates cov(x_t, x_{t-k}); together the blocks generate the
    symmetric block-Toeplitz joint covariance of any run of consecutive
    steps (block (i, j) = C_{i-j} for i >= j, C_{j-i}^T otherwise).
    """

    blocks: np.ndarray

    def __post_init__(self):
        blocks = np.array(self.blocks, dtype=float)
        if blocks.ndim != 3 or blocks.shape[0] < 1 or blocks.shape[1] != blocks.shape[2]:
            raise ValueError("blocks must be a (lags, d, d) stack")
        c0 = blocks[0]
        if np.abs(c0 - c0.T).max() > 1e-10 * max(1.0, np.abs(c0).max()):
            raise ValueError("lag-0 block must be symmetric")
        blocks.setflags(write=False)
        object.__setattr__(self, "blocks", blocks)

    @property
    def d(self) -> int:
        return self.blocks.shape[1]

    @property
    def max_lag(self) -> int:
        return self.blocks.shape[0] - 1


def estimate_stationary(
    series: MultivariateSeries, mask_interval: Interval, max_lag: int
) -> tuple[StationaryCovariance, np.ndarray]:
    """Estimate lag blocks and the nominal mean with the interval masked out.

    All cells inside ``mask_interval`` are treated as missing. Each C_k
    averages (x_t - mu)(x_{t-k} - mu)^T over pairs whose two rows both lie
    outside the mask (and whose cells are observed), which keeps the cost
    linear in the number of lags. The blocks stop (logged) at the first lag
    k >= 1 where some pair of variables has fewer than two such pairs; at
    lag 0 that is an EstimationError.
    """
    n, d = series.n, series.d
    mask_interval.validate_within(n)
    if max_lag < 0:
        raise ConfigError(f"max_lag must be >= 0, got {max_lag}")
    if max_lag >= n - mask_interval.length:
        raise ConfigError(
            f"max_lag {max_lag} too large for {n - mask_interval.length} unmasked rows"
        )

    present = ~series.missing.copy()
    present[mask_interval.a : mask_interval.b, :] = False
    counts = present.sum(axis=0)
    if counts.min() < 2:
        j = int(counts.argmin())
        raise EstimationError(
            f"variable {series.names[j]!r} has {counts[j]} observations outside the mask"
        )
    filled = np.where(present, series.values, 0.0)
    mean = filled.sum(axis=0) / counts
    centered = np.where(present, series.values - mean, 0.0)
    indicator = present.astype(float)

    blocks = []
    for k in range(max_lag + 1):
        pair_counts = indicator[k:].T @ indicator[: n - k]
        if pair_counts.min() < 2:
            if k == 0:
                raise EstimationError("too few pairwise-complete pairs at lag 0")
            log.warning(
                "lag blocks truncated at lag %d (requested %d): too few pairs", k, max_lag
            )
            break
        block = (centered[k:].T @ centered[: n - k]) / pair_counts
        if k == 0:
            block = 0.5 * (block + block.T)
        blocks.append(block)
    return StationaryCovariance(np.array(blocks)), mean


def _above_jitter(cov: np.ndarray, eps: float) -> bool:
    """Whether every eigenvalue of ``cov`` exceeds ``eps``: a Cholesky of cov - eps*I succeeds."""
    shifted = cov.copy()
    shifted.flat[:: cov.shape[0] + 1] -= eps
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def assemble_joint(stat: StationaryCovariance, mean: np.ndarray, length: int) -> GaussianModel:
    """Expand lag blocks into the joint Gaussian over ``length`` consecutive steps.

    The mean is the nominal per-variable mean tiled once per step. Blocks
    beyond the last estimated lag are taken as zero (logged). A finite-sample
    block-Toeplitz assembly need not be PSD: when a Cholesky factorization of
    ``cov - eps*I`` fails (smallest eigenvalue at or below the jitter level
    eps), eigenvalues are clipped at eps and the repair magnitude is logged.
    """
    mean = np.asarray(mean, dtype=float).reshape(-1)
    d = stat.d
    if mean.size != d:
        raise ValueError(f"mean has size {mean.size}, blocks are {d}x{d}")
    if length < 1:
        raise ValueError("length must be >= 1")
    if length - 1 > stat.max_lag:
        log.warning(
            "joint over %d steps but blocks stop at lag %d: missing lags set to zero",
            length,
            stat.max_lag,
        )
    dim = d * length
    cov = np.zeros((length, d, length, d))  # cov[i, :, j, :] is block (i, j)
    for k in range(min(length, stat.max_lag + 1)):
        steps = np.arange(k, length)
        cov[steps, :, steps - k, :] = stat.blocks[k]
        if k:
            cov[steps - k, :, steps, :] = stat.blocks[k].T
    cov = cov.reshape(dim, dim)

    eps = jitter_epsilon(cov)
    if not _above_jitter(cov, eps):
        w, v = np.linalg.eigh(cov)
        repaired = (v * np.maximum(w, eps)) @ v.T
        cov = 0.5 * (repaired + repaired.T)
        log.warning(
            "block-Toeplitz joint repaired: eigenvalues clipped at %.3g (min was %.3g)",
            eps,
            w.min(),
        )
    return GaussianModel(mean=np.tile(mean, length), cov=cov)


def subset_cap(d: int, max_subset_size: int | None = None) -> int:
    """Largest subset size considered: ceil(d/2), optionally tightened."""
    cap = math.ceil(d / 2)
    if max_subset_size is not None:
        if max_subset_size < 1:
            raise ConfigError(f"max_subset_size must be >= 1, got {max_subset_size}")
        cap = min(cap, max_subset_size)
    return cap


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
    (window step i, variable j) is coordinate i*d + j of ``joint``; window
    steps outside the series are absent.

    The precision Lambda = Sigma^-1 of the joint over the window is formed
    once, and the evidence residual r = x - mu (zero on absent cells) is
    pulled through it once. Replacing a subset hides the cells H = A + Q:
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
        joint: GaussianModel,
        series: MultivariateSeries,
        interval: Interval,
        cfg: EmbeddingConfig,
    ):
        interval.validate_within(series.n)
        self.interval = interval
        self.d = series.d
        self.start = interval.a - cfg.history  # first window time, possibly negative
        self.length = interval.length + 2 * cfg.history
        if joint.dim != self.length * self.d:
            raise ValueError(
                f"joint has dimension {joint.dim}, window needs {self.length * self.d}"
            )
        # assemble_joint's Cholesky check keeps the joint's eigenvalues above
        # the jitter level, so the inverse exists. A direct inverse,
        # symmetrized in place, holds fewer window-sized buffers at once than
        # a Cholesky followed by the inverse of its factor.
        precision = np.linalg.inv(joint.cov)
        precision += precision.T  # numpy buffers the overlapping operand
        precision *= 0.5
        self.mean = joint.mean
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

        Lag blocks are estimated with the interval masked out. Lags the
        series cannot support (too short, or too few pairs) are zero-filled,
        with one warning per window.
        """
        length = interval.length + 2 * cfg.history
        lag_budget = min(length - 1, series.n - interval.length - 1)
        stat, nominal_mean = estimate_stationary(series, interval, lag_budget)
        if stat.max_lag < lag_budget:
            # The truncation is logged; zero-filling here keeps it the only warning.
            pad = ((0, length - 1 - stat.max_lag), (0, 0), (0, 0))
            stat = StationaryCovariance(np.pad(stat.blocks, pad))
        return cls(assemble_joint(stat, nominal_mean, length), series, interval, cfg)

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
        y = np.linalg.solve(chol, pulled)
        return q_idx, y[-q:], chol[-q:, -q:]

    def conditional(self, subset) -> tuple[np.ndarray, np.ndarray]:
        """Mean of the replaced block of ``subset`` given everything kept, and L_QQ.

        The covariance of that law is (L_QQ L_QQ')^-1.
        """
        q_idx, y_q, chol_qq = self._factor(subset)
        return self.mean[q_idx] - np.linalg.solve(chol_qq.T, y_q), chol_qq

    def realize(self, subset, normals: np.ndarray) -> np.ndarray:
        """Replacements of ``subset`` from standard normals, shaped (R, |interval|, |subset|).

        Row r of the (R, |Q|) ``normals`` gives x_Q = mu_Q + L_QQ'^-1 (z_r - y_Q);
        all R rows are solved together in one solve.
        """
        q_idx, y_q, chol_qq = self._factor(subset)
        x = np.linalg.solve(chol_qq.T, normals.T - y_q[:, None]) + self.mean[q_idx, None]
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
