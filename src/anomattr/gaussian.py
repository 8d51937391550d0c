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

Matrix axes come first and the stack index last: N covariances are an
(m, m, N) array and their means (m, N), the layout in which the scan's
prefix sums gather its candidates. A stack of at least
:data:`STACK_CROSSOVER` matrices is factored column by column and solved
row by row, each step one vectorised operation over all N matrices; a
smaller stack or a single matrix goes to LAPACK one matrix at a time, which
costs less below the measured crossover. Both give the same factors and
divergences up to round-off and the same NaN pattern. Solves against one
large triangular factor go through :func:`solve_lower`.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

#: Floor for the diagonal jitter added before factorizing a covariance.
JITTER_FLOOR = 1e-9

#: Smallest stack of N matrices that is factored and solved across the stack;
#: smaller stacks go to LAPACK one matrix at a time, whose per-call overhead
#: grows with N. Measured on a 2-core x86-64 VM (numpy 2.4, OpenBLAS 0.3.31):
#: jitter, both factors and the KL of N pairs of m x m matrices, median of 15
#: runs, one matrix at a time / across the stack:
#:
#:   ====  ===============  ===============  ===============
#:    N        m = 12           m = 18           m = 30
#:   ====  ===============  ===============  ===============
#:     2    190 /  428 us    278 /  903 us    357 / 1682 us
#:    16    510 /  435 us    676 / 1151 us   1261 / 1525 us
#:    32    967 /  476 us   1595 / 1156 us   1947 / 2225 us
#:    64   1493 /  481 us   2960 / 1290 us   5599 / 2264 us
#:   ====  ===============  ===============  ===============
STACK_CROSSOVER = 32


def jitter_epsilon(cov: np.ndarray):
    """Scale-aware jitter: max(floor, floor * mean diagonal magnitude), per matrix of a stack.

    ``cov`` is one (m, m) matrix or an (m, m, N) stack.
    """
    trace = np.trace(cov, axis1=0, axis2=1)
    return np.maximum(JITTER_FLOOR, JITTER_FLOOR * trace / cov.shape[0])


def _across(stack: np.ndarray) -> bool:
    """Whether an (m, m) matrix or (m, m, N) stack is worked across the stack."""
    return stack.ndim == 3 and stack.shape[2] >= STACK_CROSSOVER


def jittered_cholesky(covs: np.ndarray) -> np.ndarray:
    """Jitter and factor a covariance (m, m) or a stack (m, m, N), in place.

    The jitter is added to each diagonal, then each matrix is overwritten by
    its lower Cholesky factor (upper triangle zero), or by NaN if it is not
    positive definite, so only that matrix's divergence in
    :func:`kl_from_factors` is NaN. Returns ``covs``.
    """
    diag = np.arange(covs.shape[0])
    covs[diag, diag] += jitter_epsilon(covs)
    if _across(covs):
        return _cholesky_across(covs)
    for cov in (covs,) if covs.ndim == 2 else np.moveaxis(covs, -1, 0):
        try:
            cov[...] = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            cov[...] = np.nan
    return covs


def _cholesky_across(a: np.ndarray) -> np.ndarray:
    """Cholesky-Crout of every matrix of an (m, m, N) stack at once, in place.

    Column j is one vectorised step over all N matrices. A pivot that is not
    > 0 turns into NaN, which runs on into every later pivot of its matrix;
    a matrix whose last pivot is NaN is then set to NaN as a whole.
    """
    m = a.shape[0]
    for j in range(m):
        if j:
            a[j:, j] -= np.einsum("ikn,kn->in", a[j:, :j], a[j, :j])
        pivot = a[j, j]
        pivot[~(pivot > 0)] = np.nan
        np.sqrt(pivot, out=pivot)
        a[j + 1 :, j] /= pivot
        a[j, j + 1 :] = 0.0
    failed = np.isnan(a[m - 1, m - 1])
    if failed.any():
        a[:, :, failed] = np.nan
    return a


def kl_from_factors(mu_p, chol_p, mu_q, chol_q):
    """KL(p || q) from means and lower Cholesky factors, one pair or a stack of N.

    A pair is means (m,) and factors (m, m); a stack has N on the last axis,
    means (m, N) and factors (m, m, N). The log-determinants come from the
    factor diagonals, the other terms from solving Lq X = [Lp | mu_q - mu_p]:
    by forward substitution across the stack, or by one LAPACK solve for a
    pair or a stack below :data:`STACK_CROSSOVER`. The value is not clamped
    at zero; a pair with a NaN factor gets NaN.
    """
    m = mu_p.shape[0]
    half_logdet_p, half_logdet_q = (
        np.log(np.diagonal(l, axis1=0, axis2=1)).sum(axis=-1) for l in (chol_p, chol_q)
    )
    logdet = 2.0 * (half_logdet_q - half_logdet_p)
    diff = mu_q - mu_p
    if _across(chol_q):  # a NaN factor runs through the substitution as NaN
        return 0.5 * (_squares_across(chol_p, chol_q, diff) + logdet - m)
    failed = np.isnan(logdet)
    if chol_q.ndim == 3:  # LAPACK takes the stack on the first axis
        chol_p, chol_q, diff = (np.moveaxis(a, -1, 0) for a in (chol_p, chol_q, diff))
    rhs = np.concatenate([chol_p, diff[..., None]], axis=-1)
    if failed.any():  # keep NaN out of LAPACK: solve identity systems instead
        rhs[failed] = 0.0
        chol_q = np.where(failed[..., None, None], np.eye(m), chol_q)
    sol = np.linalg.solve(chol_q, rhs)
    trace_term = np.einsum("...ij,...ij->...", sol[..., :m], sol[..., :m])
    maha = np.einsum("...i,...i->...", sol[..., m], sol[..., m])
    return np.where(failed, np.nan, 0.5 * (maha + trace_term + logdet - m))


def _squares_across(chol_p, chol_q, diff):
    """Sum of squares of X = Lq^-1 [mu_q - mu_p | Lp], per pair of an (m, m, N) stack.

    Row i of X is solved for all pairs at once. Lp is lower triangular, so
    row i of X is zero past column i + 1 and only that prefix is solved.
    """
    m, n = diff.shape
    x = np.zeros((m, m + 1, n))
    for i in range(m):
        row = x[i, : i + 2]
        row[0] = diff[i]
        row[1:] = chol_p[i, : i + 1]
        if i:
            row -= np.einsum("kn,kjn->jn", chol_q[i, :i], x[:i, : i + 2])
        row /= chol_q[i, i]
    return np.einsum("ijn,ijn->n", x, x)


def cholesky(cov: np.ndarray, what: str) -> np.ndarray:
    """Lower Cholesky factor of ``cov``; NumericalError naming ``what`` if not PD."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise NumericalError(f"{what} is not positive definite") from None


#: Rows per diagonal block of :func:`solve_lower`.
SOLVE_BLOCK = 32


def solve_lower(chol: np.ndarray, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
    """Solve L x = b, or L' x = b, for a lower triangular L (m, m) and b (m,) or (m, R).

    numpy has no triangular solve, and a general solve runs a pivoted LU on
    the whole factor. This blocked substitution solves only the diagonal
    blocks of SOLVE_BLOCK rows with ``np.linalg.solve`` and does the rest
    with matmul.
    """
    m = chol.shape[0]
    x = np.array(rhs, dtype=float)
    starts = range(0, m, SOLVE_BLOCK)
    for s in reversed(starts) if transpose else starts:
        e = min(s + SOLVE_BLOCK, m)
        if transpose:
            if e < m:
                x[s:e] -= chol[e:, s:e].T @ x[e:]
            x[s:e] = np.linalg.solve(chol[s:e, s:e].T, x[s:e])
        else:
            if s:
                x[s:e] -= chol[s:e, :s] @ x[:s]
            x[s:e] = np.linalg.solve(chol[s:e, s:e], x[s:e])
    return x


def interval_score(kl, length: int):
    """Length-weighted interval score ``2 * |I| * KL`` used for ranking.

    ``kl`` is one divergence or an array of them (NaN passes through).
    """
    if np.any(np.asarray(kl) < 0):
        raise ValueError(f"divergence must be non-negative, got {np.nanmin(kl)}")
    return 2.0 * length * kl
