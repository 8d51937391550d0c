"""Independent reference implementations used to cross-check the package.

Everything here deliberately avoids the code paths under test: factors one
matrix at a time through LAPACK, divergences via explicit inverses or sampling, conditionals via the precision matrix,
covariances and row counts via plain loops over rows, suppression and the
scan's floor over a full sort of the candidates, and disjoint intervals by
placing them one by one, prefix sums by gathering the triangle's factors,
and eigenvalue bounds against ``np.linalg.eigvalsh``.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import multivariate_normal


def kl_by_inverse(mean_p, cov_p, mean_q, cov_q) -> float:
    """Closed-form Gaussian divergence through explicit inverse and slogdet."""
    maha, trace, logdet = kl_terms_by_inverse(mean_p, cov_p, mean_q, cov_q)
    return 0.5 * (maha + trace + logdet - len(mean_p))


def kl_terms_by_inverse(mean_p, cov_p, mean_q, cov_q) -> tuple[float, float, float]:
    """The Mahalanobis, trace and log-determinant terms of the closed-form
    divergence, through explicit inverse and slogdet."""
    inv_q = np.linalg.inv(cov_q)
    diff = np.asarray(mean_q) - np.asarray(mean_p)
    maha = diff @ inv_q @ diff
    trace = np.trace(inv_q @ cov_p)
    logdet = np.linalg.slogdet(cov_q)[1] - np.linalg.slogdet(cov_p)[1]
    return maha, trace, logdet


def cholesky_each(covs: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of each matrix of an (m, m, N) stack, one LAPACK
    call per matrix; NaN for a matrix that is not positive definite."""
    out = np.full_like(covs, np.nan)
    for k in range(covs.shape[-1]):
        try:
            out[..., k] = np.linalg.cholesky(covs[..., k])
        except np.linalg.LinAlgError:
            pass
    return out


def select_by_full_sort(scores, starts, lens, top_k: int) -> list[tuple[int, int, float]]:
    """Greedy non-intersecting top-k, as (a, b, score), over a full sort of every
    candidate: descending score, ties broken on (start, length)."""
    accepted: list[tuple[int, int, float]] = []
    for i in np.lexsort((lens, starts, -scores)):
        a, b = int(starts[i]), int(starts[i] + lens[i])
        if any(a < y and x < b for x, y, _ in accepted):
            continue
        accepted.append((a, b, float(scores[i])))
        if len(accepted) == top_k:
            break
    return accepted


def floor_by_full_sort(scores, starts, lens, picks: int) -> float:
    """Score of the ``picks``-th pick of a greedy disjoint walk over a full sort
    of every candidate, or -inf if the walk picks fewer."""
    picked = select_by_full_sort(scores, starts, lens, picks)
    return picked[-1][2] if len(picked) == picks else -np.inf


def most_disjoint_meeting(len_min: int, len_max: int) -> int:
    """The most pairwise-disjoint intervals, each of length len_min or more, that
    one interval of length len_max or less meets, by placing them one by one.

    For an interval [0, L), the most are had with the shortest intervals
    packed from the one that ends at its first step; each later one starts
    where the one before it ends, and counts while it starts before L.
    """
    most = 0
    for length in range(len_min, len_max + 1):
        count, start = 1, 1  # [1 - len_min, 1) meets [0, L) at step 0
        while start < length:
            count += 1
            start += len_min
        most = max(most, count)
    return most


def usable_counts(missing, a: int, b: int, kappa: int, tau: int) -> tuple[int, int]:
    """Usable embedded rows anchored inside [a, b) and outside it, by plain loops
    over a series' (n, d) missing flags: the row anchored at t reads the
    steps t, t - tau, ..., t - (kappa-1) tau and is usable if none of their
    cells is missing."""
    n = len(missing)
    inside = outside = 0
    for t in range((kappa - 1) * tau, n):
        if not any(missing[t - k * tau].any() for k in range(kappa)):
            if a <= t < b:
                inside += 1
            else:
                outside += 1
    return inside, outside


def kl_by_sampling(mean_p, cov_p, mean_q, cov_q, n_samples, rng) -> tuple[float, float]:
    """Monte-Carlo divergence: sample from p, average the log density ratio.

    Returns (estimate, standard error).
    """
    x = rng.multivariate_normal(mean_p, cov_p, size=n_samples)
    log_p = multivariate_normal.logpdf(x, mean_p, cov_p)
    log_q = multivariate_normal.logpdf(x, mean_q, cov_q)
    ratio = log_p - log_q
    return float(ratio.mean()), float(ratio.std(ddof=1) / np.sqrt(n_samples))


def fit_by_loops(rows) -> tuple[np.ndarray, np.ndarray]:
    """Mean and ML covariance accumulated row by row (no vectorized shortcuts)."""
    rows = np.asarray(rows, dtype=float)
    n, m = rows.shape
    mean = np.zeros(m)
    for r in rows:
        mean += r
    mean /= n
    cov = np.zeros((m, m))
    for r in rows:
        c = r - mean
        cov += np.outer(c, c)
    return mean, cov / n


def conditional_by_precision(mean, cov, q_idx, e_idx, e_vals):
    """Gaussian conditioning through the precision matrix.

    With precision P = S^-1, the conditional of Q given E is
    N(mu_Q - P_QQ^-1 P_QE (e - mu_E), P_QQ^-1).
    """
    mean = np.asarray(mean, dtype=float)
    precision = np.linalg.inv(cov)
    p_qq = precision[np.ix_(q_idx, q_idx)]
    p_qe = precision[np.ix_(q_idx, e_idx)]
    cov_cond = np.linalg.inv(p_qq)
    mean_cond = mean[q_idx] - cov_cond @ p_qe @ (np.asarray(e_vals) - mean[e_idx])
    return mean_cond, cov_cond


def ar1_autocovariance(phi: float, lag: int, innovation_var: float = 1.0) -> float:
    return innovation_var * phi**lag / (1.0 - phi**2)


def windowed_covariance(values: np.ndarray, window_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of all explicit length-``window_len`` windows.

    Window coordinates are time-major (step 0 first), matching the layout of
    the assembled block-Toeplitz joint.
    """
    n, d = values.shape
    windows = np.stack([values[t : t + window_len].ravel() for t in range(n - window_len + 1)])
    mean = windows.mean(axis=0)
    centered = windows - mean
    cov = centered.T @ centered / windows.shape[0]
    return mean, cov


def lagged_gram(series, mask, length: int) -> np.ndarray:
    """(I kron D) Z'Z (I kron D): the block-Toeplitz joint of the biased lag estimator.

    c is the series centered on the mean of its observed cells outside the
    interval ``mask``, zero on missing and masked cells, and D = diag(1/sqrt(n_j))
    with n_j the count of those cells of variable j. Row t of Z is the
    length-``length`` window of c starting at t, for every start from
    -(length-1) to n-1, zero where the window leaves the series; window step
    i, variable j is column i*d + j. Built with plain loops.
    """
    n, d = series.n, series.d
    observed = [
        [not series.missing[t, j] and not mask.a <= t < mask.b for j in range(d)] for t in range(n)
    ]
    counts = [sum(observed[t][j] for t in range(n)) for j in range(d)]
    means = [
        sum(series.values[t, j] for t in range(n) if observed[t][j]) / counts[j] for j in range(d)
    ]
    c = np.zeros((n, d))
    for t in range(n):
        for j in range(d):
            if observed[t][j]:
                c[t, j] = series.values[t, j] - means[j]
    z = np.zeros((n + length - 1, length * d))
    for row, start in enumerate(range(-(length - 1), n)):
        for i in range(length):
            if 0 <= start + i < n:
                for j in range(d):
                    z[row, i * d + j] = c[start + i, j]
    scale = np.array([1.0 / np.sqrt(counts[j]) for _ in range(length) for j in range(d)])
    return scale[:, None] * (z.T @ z) * scale[None, :]


def interval_iou(a1: int, b1: int, a2: int, b2: int) -> float:
    inter = max(0, min(b1, b2) - max(a1, a2))
    union = (b1 - a1) + (b2 - a2) - inter
    return inter / union if union else 0.0


def random_gaussian(rng, dim: int, mean_scale: float = 1.0):
    """A well-conditioned random Gaussian (mean, covariance) pair."""
    mean = mean_scale * rng.normal(size=dim)
    a = rng.normal(size=(dim, dim))
    cov = a @ a.T + dim * np.eye(dim)
    return mean, cov


def outer_prefix_by_gather(x: np.ndarray) -> np.ndarray:
    """Packed prefix of the outer products of the columns of ``x`` (w, r), as
    a cumulative sum of the gathered lower-triangle products, with a zero
    first column."""
    i, j = np.tril_indices(x.shape[0])
    prefix = np.zeros((len(i), x.shape[1] + 1))
    np.cumsum(x[i] * x[j], axis=1, out=prefix[:, 1:])
    return prefix


def largest_relative_eigenvalue(a: np.ndarray, t2: np.ndarray) -> float:
    """The largest eigenvalue of T2^-1/2 A T2^-1/2, as that of L^-1 A L^-T
    with L the Cholesky factor of T2, by ``np.linalg.eigvalsh``."""
    chol = np.linalg.cholesky(t2)
    inner = np.linalg.solve(chol, np.linalg.solve(chol, a).T)
    return float(np.linalg.eigvalsh((inner + inner.T) / 2)[-1])
