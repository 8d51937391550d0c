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

evaluated from the Cholesky factors of Sp and Sq over a stack of pairs
(:func:`kl_from_factors`). Intervals are ranked by ``2 * |I| * KL``
(:func:`interval_score`).

Matrix axes come first and the stack index last: N covariances are an
(m, m, N) array and their means (m, N). Every scorer fits both sides of its
N candidates in this layout as one stack of 2N, from packed sums of
centered rows (the scan's gathered from one block's prefix, the naive
score's and the re-score's summed from rows), and factors it in one call;
the KL takes its two halves as N pairs. Each stack is
factored column by column and solved row by row, each step one vectorised
operation over all N matrices. A factor is the lower triangle of its
array; the upper one is never read. Triangular solves against the larger
factors of attribution, one or a stack of them, go through
:func:`solve_lower`.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

#: Floor for the diagonal jitter added before factorizing a covariance.
JITTER_FLOOR = 1e-9


def jitter_epsilon(cov: np.ndarray):
    """Scale-aware jitter: max(floor, floor * mean diagonal magnitude), per matrix of a stack.

    ``cov`` is one (m, m) matrix or an (m, m, N) stack.
    """
    trace = np.trace(cov, axis1=0, axis2=1)
    return np.maximum(JITTER_FLOOR, JITTER_FLOOR * trace / cov.shape[0])


def jittered_cholesky(covs: np.ndarray) -> np.ndarray:
    """Jitter and factor the lower triangle of every covariance of an (m, m, N) stack, in place.

    Returns ``covs``, whose lower triangle (diagonal included) is then the
    factor; the upper triangle is never read, and it keeps what it held
    unless its matrix fails. The jitter goes onto a strided view of the
    diagonals. Column j of the Cholesky-Crout recursion is one vectorised
    step over all N matrices. A pivot that is not > 0 turns into NaN, which
    runs on into every later pivot of its matrix; a matrix that does not
    factor is then NaN as a whole, so only its divergence in
    :func:`kl_from_factors` is NaN.
    """
    m = covs.shape[0]
    np.einsum("iin->in", covs)[...] += jitter_epsilon(covs)
    for j in range(m):
        if j:
            covs[j:, j] -= np.einsum("ikn,kn->in", covs[j:, :j], covs[j, :j])
        pivot = covs[j, j]
        pivot[pivot <= 0] = np.nan  # a NaN pivot is NaN already
        np.sqrt(pivot, out=pivot)
        covs[j + 1 :, j] /= pivot
    failed = np.isnan(covs[m - 1, m - 1])
    if failed.any():
        covs[:, :, failed] = np.nan
    return covs


def kl_from_factors(mu_p, chol_p, mu_q, chol_q):
    """KL(p || q) of each of N pairs, from means (m, N) and lower Cholesky factors (m, m, N).

    Only the lower triangles of the factors are read. The log-determinants
    come from the factor diagonals, the other terms from the sum of squares
    of X = Lq^-1 [mu_q - mu_p | Lp], solved row by row for all pairs at
    once. Row i of X is zero past column i + 1, so its update reads only
    columns 0 .. i + 1. The value is not clamped at zero; a pair with a NaN
    factor gets NaN.
    """
    m, n = mu_p.shape
    half_logdet_p, half_logdet_q = (
        np.log(np.diagonal(l, axis1=0, axis2=1)).sum(axis=-1) for l in (chol_p, chol_q)
    )
    # Filled row by row, so the zeros past column i + 1 are never written
    # and their untouched pages add nothing to the resident set.
    x = np.zeros((m, m + 1, n))
    np.subtract(mu_q, mu_p, out=x[:, 0])
    for i in range(m):
        row = x[i, : i + 2]
        row[1:] = chol_p[i, : i + 1]
        if i:
            row -= np.einsum("kn,kjn->jn", chol_q[i, :i], x[:i, : i + 2])
        row /= chol_q[i, i]
    squares = np.einsum("ijn,ijn->n", x, x)
    return 0.5 * (squares + 2.0 * (half_logdet_q - half_logdet_p) - m)


def cholesky(cov: np.ndarray, what: str) -> np.ndarray:
    """Lower Cholesky factor of ``cov``; NumericalError naming ``what`` if not PD."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise NumericalError(f"{what} is not positive definite") from None


#: Rows per diagonal block of :func:`solve_lower`.
SOLVE_BLOCK = 32


def solve_lower(chol: np.ndarray, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
    """Solve L x = b, or L' x = b, for lower triangular L (..., m, m) and b (..., m, R).

    Leading axes are a stack: each matrix of ``chol`` solves its own right-hand
    sides. numpy has no triangular solve, and a general solve runs a pivoted
    LU on the whole factor. This blocked substitution solves only the
    diagonal blocks of SOLVE_BLOCK rows with ``np.linalg.solve`` and does the
    rest with matmul, one call per block for the whole stack.
    """
    m = chol.shape[-1]
    x = np.array(rhs, dtype=float)
    starts = range(0, m, SOLVE_BLOCK)
    for s in reversed(starts) if transpose else starts:
        e = min(s + SOLVE_BLOCK, m)
        if transpose:
            if e < m:
                x[..., s:e, :] -= np.swapaxes(chol[..., e:, s:e], -1, -2) @ x[..., e:, :]
            block = np.swapaxes(chol[..., s:e, s:e], -1, -2)
        else:
            if s:
                x[..., s:e, :] -= chol[..., s:e, :s] @ x[..., :s, :]
            block = chol[..., s:e, s:e]
        x[..., s:e, :] = np.linalg.solve(block, x[..., s:e, :])
    return x


def interval_score(kl, length: int):
    """Length-weighted interval score ``2 * |I| * KL`` used for ranking.

    ``kl`` is one divergence or an array of them (NaN passes through).
    """
    if np.any(np.asarray(kl) < 0):
        raise ValueError(f"divergence must be non-negative, got {np.nanmin(kl)}")
    return 2.0 * length * kl
