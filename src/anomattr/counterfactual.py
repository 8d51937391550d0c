"""In-distribution replacement of variable subsets inside an anomalous interval.

The replacement treats each time step of the interval plus its surrounding
context as one joint Gaussian over ``d * length`` coordinates. Stationarity
makes that joint covariance block-Toeplitz, so only the first row of
lag blocks C_k = cov(x_t, x_{t-k}) has to be estimated (with the anomalous
interval masked out, so the anomaly cannot contaminate the nominal model).
New values for the replaced variables are then drawn from the Gaussian
conditional on everything that is kept: the untouched variables inside the
interval and the full context columns on both sides.

There is one model per window (:class:`WindowModel`): the joint is inverted
once into its precision, and every subset is conditioned and drawn in
precision form through one Cholesky factor of the precision block of its
hidden cells.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, EstimationError
from .gaussian import GaussianModel, cholesky, jitter_epsilon
from .series import Interval, MultivariateSeries

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
    series: MultivariateSeries,
    mask_interval: Interval,
    max_lag: int,
    truncate: bool = False,
) -> tuple[StationaryCovariance, np.ndarray]:
    """Estimate lag blocks and the nominal mean with the interval masked out.

    All cells inside ``mask_interval`` are treated as missing. Each C_k
    averages (x_t - mu)(x_{t-k} - mu)^T over pairs whose two rows both lie
    outside the mask (and whose cells are observed), which keeps the cost
    linear in the number of lags. With ``truncate=True`` lags that run out
    of pairs are dropped (and logged) instead of raising.
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
            if truncate:
                log.warning(
                    "lag blocks truncated at lag %d (requested %d): too few pairs",
                    k,
                    max_lag,
                )
                break
            raise EstimationError(f"too few pairwise-complete pairs at lag {k}")
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
class ReplacementWindow:
    """Geometry of one replacement: the interval, its context, and the subset.

    The window spans the interval plus ``kappa - 1`` context steps on each
    side, so its length is ``(b - a) + 2*(kappa - 1)``. Context steps falling
    outside the series are simply absent (boundary truncation). The replaced
    subset must leave at least half of the variables untouched.
    """

    interval: Interval
    kappa: int
    subset: tuple[int, ...]
    n_times: int
    n_vars: int

    def __post_init__(self):
        if self.kappa < 1:
            raise ConfigError(f"kappa must be >= 1, got {self.kappa}")
        subset = tuple(sorted(int(j) for j in self.subset))
        if not subset:
            raise ConfigError("replacement subset must be non-empty")
        if len(set(subset)) != len(subset):
            raise ConfigError(f"replacement subset has duplicates: {subset}")
        if subset[0] < 0 or subset[-1] >= self.n_vars:
            raise ConfigError(f"subset {subset} out of range for {self.n_vars} variables")
        cap = subset_cap(self.n_vars)
        if len(subset) > cap:
            raise ConfigError(
                f"subset size {len(subset)} exceeds the cap of {cap} for {self.n_vars} variables"
            )
        self.interval.validate_within(self.n_times)
        object.__setattr__(self, "subset", subset)

    @property
    def length(self) -> int:
        return self.interval.length + 2 * (self.kappa - 1)

    @property
    def start(self) -> int:
        """First (possibly negative) window time: interval start minus context."""
        return self.interval.a - (self.kappa - 1)

    def times(self) -> np.ndarray:
        return np.arange(self.start, self.start + self.length)

    def query_mask(self) -> np.ndarray:
        """Flat (length*d) mask of the coordinates being replaced (time-major)."""
        mask = np.zeros((self.length, self.n_vars), dtype=bool)
        t = self.times()
        inside = (t >= self.interval.a) & (t < self.interval.b)
        mask[np.ix_(inside, np.array(self.subset))] = True
        return mask.ravel()


def window_observation(
    series: MultivariateSeries, window: ReplacementWindow
) -> tuple[np.ndarray, np.ndarray]:
    """Window-shaped view of the series: (length, d) values and a present mask.

    Rows for context times outside the series are absent; observed cells are
    marked present regardless of whether they will be replaced.
    """
    values = np.zeros((window.length, series.d))
    present = np.zeros((window.length, series.d), dtype=bool)
    t = window.times()
    in_range = (t >= 0) & (t < series.n)
    values[in_range] = series.values[t[in_range]]
    present[in_range] = ~series.missing[t[in_range]]
    values[~present] = 0.0
    return values, present


class WindowModel:
    """The nominal Gaussian of one replacement window, inverted once.

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
        window: ReplacementWindow,
        observed_values: np.ndarray,
        observed_present: np.ndarray,
    ):
        """``window`` fixes the geometry (interval, context, series size); its
        subset plays no part."""
        self.geometry = window
        dim = window.length * window.n_vars
        if joint.dim != dim:
            raise ValueError(f"joint has dimension {joint.dim}, window needs {dim}")
        # assemble_joint's Cholesky check keeps the joint's eigenvalues above
        # the jitter level, so the inverse exists. A direct inverse,
        # symmetrized in place, holds fewer window-sized buffers at once than
        # a Cholesky followed by the inverse of its factor.
        precision = np.linalg.inv(joint.cov)
        precision += precision.T  # numpy buffers the overlapping operand
        precision *= 0.5
        self.mean = joint.mean
        self.precision = precision
        present = observed_present.ravel()
        self.residual = np.where(present, observed_values.ravel() - self.mean, 0.0)
        self.pulled = self.precision @ self.residual
        self.absent = np.flatnonzero(~present)

    @classmethod
    def fit(cls, series: MultivariateSeries, interval: Interval, kappa: int) -> "WindowModel":
        """Estimate the nominal model of the window around ``interval``.

        Lag blocks are estimated with the interval masked out; when the
        series is too short for every lag of the window, the missing lags
        are zero-filled (logged).
        """
        probe = ReplacementWindow(
            interval=interval, kappa=kappa, subset=(0,), n_times=series.n, n_vars=series.d
        )
        lag_budget = min(probe.length - 1, series.n - interval.length - 1)
        if lag_budget < probe.length - 1:
            log.warning(
                "series too short for all %d lags; estimating %d and zero-filling the rest",
                probe.length - 1,
                lag_budget,
            )
        stat, nominal_mean = estimate_stationary(series, interval, lag_budget, truncate=True)
        joint = assemble_joint(stat, nominal_mean, probe.length)
        return cls(joint, probe, *window_observation(series, probe))

    def window(self, subset) -> ReplacementWindow:
        """The replacement window of ``subset`` (validated against the cap)."""
        return replace(self.geometry, subset=tuple(subset))

    def _factor(self, subset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Replaced indices Q, y_Q and L_QQ of ``subset``; NumericalError if Lambda_HH is not PD."""
        q_idx = np.flatnonzero(self.window(subset).query_mask())
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
        return x.T.reshape(len(normals), self.geometry.interval.length, len(subset))

    def draws(self, subset, seeds) -> np.ndarray:
        """Seeded replacements of ``subset``, one per seed, shaped (R, |interval|, |subset|).

        Realization r maps ``default_rng(seeds[r]).standard_normal(|Q|)``
        through :meth:`realize`. The same seeds give the same stack exactly;
        a realization drawn in another stack agrees to round-off.
        NumericalError if the hidden-cell precision does not factor.
        """
        size = self.geometry.interval.length * len(subset)
        normals = np.stack([np.random.default_rng(seed).standard_normal(size) for seed in seeds])
        return self.realize(subset, normals)


def apply_replacement(
    series: MultivariateSeries, window: ReplacementWindow, sample: np.ndarray
) -> MultivariateSeries:
    """Overwrite the replaced subset inside the interval; everything else is untouched."""
    sample = np.asarray(sample, dtype=float)
    expected = (window.interval.length, len(window.subset))
    if sample.shape != expected:
        raise ValueError(f"sample shape {sample.shape} does not match {expected}")
    values = series.values.copy()
    missing = series.missing.copy()
    cols = np.array(window.subset)
    values[window.interval.a : window.interval.b, cols] = sample
    missing[window.interval.a : window.interval.b, cols] = False
    return series.with_values(values, missing)
