"""Jittered Cholesky factors of Gaussians and the closed-form divergence between two.

The one place that knows how two Gaussians are compared; the interval scan,
the naive interval score and the local re-score all go through it. Every
fitted covariance is factored once, by :func:`jittered_cholesky`, after the
same scale-aware diagonal jitter (:func:`jitter_epsilon`). A covariance that
still does not factor gets a NaN factor and its interval is unscorable;
no covariance is repaired anywhere in the package. The same jitter is added
once to the diagonal of the block-Toeplitz nominal joint
(:func:`~anomattr.counterfactual.assemble_joint`); attribution draws its
replacements through the Cholesky factor of a precision block, unjittered
(:class:`~anomattr.counterfactual.WindowModel`). The divergence of a fitted
pair (p, q) is the standard non-negative Kullback-Leibler closed form for
multivariate normals,

    KL(p || q) = 1/2 [ (mu_q-mu_p)' Sq^-1 (mu_q-mu_p) + tr(Sq^-1 Sp)
                       + ln(|Sq|/|Sp|) - m ],

evaluated from the Cholesky factors of Sp and Sq, for one pair or a stack
(:func:`kl_from_factors`). Intervals are ranked by ``2 * |I| * KL``
(:func:`interval_score`).
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

#: Floor for the diagonal jitter added before factorizing a covariance.
JITTER_FLOOR = 1e-9


def jitter_epsilon(cov: np.ndarray):
    """Scale-aware jitter: max(floor, floor * mean diagonal magnitude), per matrix of a stack."""
    trace = np.trace(cov, axis1=-2, axis2=-1)
    return np.maximum(JITTER_FLOOR, JITTER_FLOOR * trace / cov.shape[-1])


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


def interval_score(kl, length: int):
    """Length-weighted interval score ``2 * |I| * KL`` used for ranking.

    ``kl`` is one divergence or an array of them (NaN passes through).
    """
    if np.any(np.asarray(kl) < 0):
        raise ValueError(f"divergence must be non-negative, got {np.nanmin(kl)}")
    return 2.0 * length * kl
