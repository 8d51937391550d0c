import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from anomattr import Interval, MultivariateSeries
from anomattr.gaussian import cholesky, kl_from_factors

ACCEPTANCE_RESULTS: list[tuple[str, bool, str]] = []


def record_criterion(name: str, passed: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS.append((name, passed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, passed, detail in ACCEPTANCE_RESULTS:
        status = "PASS" if passed else "FAIL"
        suffix = f"  [{detail}]" if detail else ""
        terminalreporter.write_line(f"{status}  criterion {name}{suffix}")


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)


def kl_divergence(p, q) -> float:
    """Closed-form KL(p || q) of two ``(mean, cov)`` pairs as given (no jitter).

    Goes through the package kernel (Cholesky factors, then
    ``kl_from_factors`` on a stack of one pair); round-off below zero is
    clamped to 0.
    """
    (mean_p, cov_p), (mean_q, cov_q) = p, q
    if len(mean_p) != len(mean_q):
        raise ValueError(f"dimension mismatch: {len(mean_p)} vs {len(mean_q)}")
    means = [np.asarray(mean, dtype=float)[:, None] for mean in (mean_p, mean_q)]
    chol_p, chol_q = (cholesky(cov, side)[..., None] for cov, side in ((cov_p, "p"), (cov_q, "q")))
    value = float(kl_from_factors(means[0], chol_p, means[1], chol_q)[0])
    assert value > -1e-6, f"divergence evaluated to {value:.3g}"
    return max(0.0, value)


def replacement_law(model, subset) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance (L_QQ L_QQ')^-1 of a window model's replacement of ``subset``."""
    mean, chol = model.conditional(subset)
    return mean, np.linalg.inv(chol @ chol.T)


def window_cells(series, interval, cfg, subset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat values, present mask and replaced-cell mask of the window
    [a - (kappa-1)*tau, b + (kappa-1)*tau), time-major, by plain indexing.

    Window steps outside the series are absent, with value 0."""
    history = (cfg.kappa - 1) * cfg.tau
    times = range(interval.a - history, interval.b + history)
    values = np.zeros((len(times), series.d))
    present = np.zeros((len(times), series.d), dtype=bool)
    for i, t in enumerate(times):
        if 0 <= t < series.n:
            present[i] = ~series.missing[t]
            values[i] = np.where(present[i], series.values[t], 0.0)
    replaced = np.zeros_like(present)
    replaced[history : history + interval.length, list(subset)] = True
    return values.ravel(), present.ravel(), replaced.ravel()


def make_series(values, missing=None, names=None) -> MultivariateSeries:
    return MultivariateSeries(values=np.asarray(values, dtype=float), missing=missing, names=names)


@pytest.fixture
def small_series(rng):
    return make_series(rng.normal(size=(200, 3)))


def shifted_series(rng, n=600, d=2, a=300, b=350, shift=5.0) -> tuple[MultivariateSeries, Interval]:
    values = rng.normal(size=(n, d))
    values[a:b] += shift
    return make_series(values), Interval(a, b)
