"""Jittered Cholesky factors of Gaussians and the closed-form divergence between two.

The one place that knows how two Gaussians are compared; the interval scan,
the naive interval score and the local re-score all go through it. Every
fitted covariance is factored once, by :func:`jittered_cholesky`, after the
same scale-aware diagonal jitter (:func:`jitter_epsilon`). A covariance that
still does not factor gets a NaN factor and its interval is unscorable;
nothing is repaired here (the one eigenvalue clip in the package is the
block-Toeplitz assembly's). The divergence of a fitted pair (p, q) is the
standard non-negative Kullback-Leibler closed form for multivariate normals,

    KL(p || q) = 1/2 [ (mu_q-mu_p)' Sq^-1 (mu_q-mu_p) + tr(Sq^-1 Sp)
                       + ln(|Sq|/|Sp|) - m ],

evaluated from the Cholesky factors of Sp and Sq, for one pair or a stack
(:func:`kl_from_factors`). Intervals are ranked by ``2 * |I| * KL``
(:func:`interval_score`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

#: Floor for the diagonal jitter added before factorizing a covariance.
JITTER_FLOOR = 1e-9


def jitter_epsilon(cov: np.ndarray):
    """Scale-aware jitter: max(floor, floor * mean diagonal magnitude), per matrix of a stack."""
    trace = np.trace(cov, axis1=-2, axis2=-1)
    return np.maximum(JITTER_FLOOR, JITTER_FLOOR * trace / cov.shape[-1])


@dataclass(frozen=True)
class GaussianModel:
    """Mean vector and symmetric covariance matrix of a Gaussian."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float).reshape(-1)
        cov = np.array(self.cov, dtype=float)
        if cov.shape != (mean.size, mean.size):
            raise ValueError(f"covariance shape {cov.shape} does not match mean size {mean.size}")
        asym = np.abs(cov - cov.T).max() if cov.size else 0.0
        if asym > 1e-12 * max(1.0, np.abs(cov).max()):
            raise ValueError(f"covariance is not symmetric (max asymmetry {asym:.3g})")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.size


def jittered_cholesky(covs: np.ndarray) -> np.ndarray:
    """Add the jitter to the diagonal of each matrix of a stack, in place, and factor it.

    numpy factors a stack in one call but raises for the whole stack when
    one matrix fails; the matrices are then factored one by one, and each
    one that is not positive definite gets a factor of NaN (so its
    divergence in :func:`kl_from_factors` is NaN).
    """
    diag = np.arange(covs.shape[-1])
    covs[:, diag, diag] += jitter_epsilon(covs)[:, None]
    try:
        return np.linalg.cholesky(covs)
    except np.linalg.LinAlgError:
        pass
    factors = np.full_like(covs, np.nan)
    for k, cov in enumerate(covs):
        try:
            factors[k] = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            pass
    return factors


def jittered_factor(cov: np.ndarray, what: str) -> np.ndarray:
    """Lower factor of one covariance plus the jitter; NumericalError naming ``what`` if none."""
    chol = jittered_cholesky(cov[None].copy())[0]
    if np.isnan(chol).any():
        raise NumericalError(f"{what} is not positive definite after the jitter")
    return chol


def kl_from_factors(mu_p, chol_p, mu_q, chol_q):
    """KL(p || q) from means (..., m) and lower Cholesky factors (..., m, m).

    Works on one pair or on stacks of pairs. The log-determinants come from
    the factor diagonals, the other terms from one solve of
    [Lp | mu_q - mu_p] against Lq. The value is not clamped at zero; a pair
    with a NaN factor gets NaN.
    """
    m = mu_p.shape[-1]
    half_logdet_p, half_logdet_q = (
        np.log(np.diagonal(l, axis1=-2, axis2=-1)).sum(axis=-1) for l in (chol_p, chol_q)
    )
    logdet = 2.0 * (half_logdet_q - half_logdet_p)
    failed = np.isnan(logdet)
    rhs = np.concatenate([chol_p, (mu_q - mu_p)[..., None]], axis=-1)
    if failed.any():  # keep NaN out of LAPACK: solve identity systems instead
        rhs[failed] = 0.0
        chol_q = np.where(failed[..., None, None], np.eye(m), chol_q)
    sol = np.linalg.solve(chol_q, rhs)
    del rhs
    trace_term = np.einsum("...ij,...ij->...", sol[..., :m], sol[..., :m])
    maha = np.einsum("...i,...i->...", sol[..., m], sol[..., m])
    return np.where(failed, np.nan, 0.5 * (maha + trace_term + logdet - m))


def cholesky(cov: np.ndarray, what: str) -> np.ndarray:
    """Lower Cholesky factor of ``cov``; NumericalError naming ``what`` if not PD."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise NumericalError(f"{what} is not positive definite") from None


def kl_divergence(p: GaussianModel, q: GaussianModel) -> float:
    """Closed-form KL(p || q) of two models as given (no jitter); tiny round-off clamped to 0."""
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    l_q = cholesky(q.cov, "q covariance")
    value = float(kl_from_factors(p.mean, cholesky(p.cov, "p covariance"), q.mean, l_q))
    if value < -1e-6:
        raise NumericalError(f"divergence evaluated to {value:.3g}; factorization unreliable")
    return max(0.0, value)


def interval_score(kl, length: int):
    """Length-weighted interval score ``2 * |I| * KL`` used for ranking.

    ``kl`` is one divergence or an array of them (NaN passes through).
    """
    if np.any(np.asarray(kl) < 0):
        raise ValueError(f"divergence must be non-negative, got {np.nanmin(kl)}")
    return 2.0 * length * kl


def sample(model: GaussianModel, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Draw from a Gaussian, its covariance factored with the jitter."""
    l = jittered_factor(model.cov, "covariance")
    if size is None:
        return model.mean + l @ rng.standard_normal(model.dim)
    return model.mean + rng.standard_normal((size, model.dim)) @ l.T
