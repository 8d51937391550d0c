import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import norm

from anomattr import interval_score
from anomattr.detector import _fit, _row_sums
from anomattr.gaussian import (
    JITTER_FLOOR,
    jitter_epsilon,
    jittered_cholesky,
    kl_from_factors,
    solve_lower,
)

import oracles
from conftest import kl_divergence


#: A small stack and a large one.
STACK_SIZES = [6, 80]


def model(mean, cov):
    return np.atleast_1d(np.asarray(mean, dtype=float)), np.atleast_2d(cov)


def fit(rows):
    """The scorers' fit of complete rows: packed sums, then the one-pass moments
    and the jittered factor of ``detector._fit``.

    Returns (mean, jittered covariance, lower factor of that covariance).
    The kernel leaves the upper triangle of its factor unread, so only the
    lower one is kept.
    """
    mean, chol = _fit(*_row_sums(rows[None], np.ones((1, len(rows)), dtype=bool)))
    chol = np.tril(chol[..., 0])
    return mean[:, 0], chol @ chol.T, chol  # the covariance that was factored


class TestEstimate:
    """The sums (detector._row_sums), the one-pass moments and the jittered factor (detector._fit) of every fit."""

    def test_constant_rows_give_jittered_identity(self):
        rows = np.tile([3.0, -1.0], (5, 1))
        mean, cov, chol = fit(rows)
        assert np.allclose(mean, [3.0, -1.0])
        assert np.allclose(cov, JITTER_FLOOR * np.eye(2))
        assert np.array_equal(chol, np.linalg.cholesky(cov))

    def test_two_point_ml_covariance(self):
        mean, cov, _ = fit(np.array([[0.0, 0.0], [2.0, 2.0]]))
        assert np.allclose(mean, [1.0, 1.0])
        # ML denominator 2; jitter only perturbs the diagonal by ~1e-9
        assert np.allclose(cov, [[1.0, 1.0], [1.0, 1.0]], atol=1e-8)

    def test_matches_loop_recomputation(self, rng):
        rows = rng.normal(size=(1000, 5)) @ rng.normal(size=(5, 5)) + rng.normal(size=5)
        got_mean, got_cov, _ = fit(rows)
        mean, cov = oracles.fit_by_loops(rows)
        assert np.allclose(got_mean, mean, atol=1e-12)
        # the fitted covariance only differs by the diagonal jitter
        np.testing.assert_allclose(got_cov, cov, rtol=1e-9, atol=1e-7)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(40, 3))
        mean1, cov1, _ = fit(rows)
        mean2, cov2, _ = fit(rows[rng.permutation(40)])
        assert np.allclose(mean1, mean2, atol=1e-12)
        assert np.allclose(cov1, cov2, atol=1e-12)


class TestRegularize:
    """The jitter rule (jitter_epsilon) that every factorization applies."""

    def test_jitter_of_a_stack_is_per_matrix(self, rng):
        covs = np.stack(
            [oracles.random_gaussian(rng, 3)[1] * s for s in (1e-12, 1.0, 1e4)], axis=-1
        )
        eps = jitter_epsilon(covs)
        assert eps.shape == (3,)
        assert eps[0] == JITTER_FLOOR
        for k, e in enumerate(eps):
            assert e == jitter_epsilon(covs[..., k])


class TestKl:
    def test_identical_models_zero(self, rng):
        mean, cov = oracles.random_gaussian(rng, 3)
        g = model(mean, cov)
        assert kl_divergence(g, g) == 0.0

    def test_unit_mean_shift(self):
        p = model([1.0], [[1.0]])
        q = model([0.0], [[1.0]])
        assert np.isclose(kl_divergence(p, q), 0.5)

    def test_variance_ratio_against_quadrature(self):
        p = model([0.0], [[2.0]])
        q = model([0.0], [[1.0]])
        expected = 0.5 * (2.0 + np.log(0.5) - 1.0)  # = 0.15342640972...
        got = kl_divergence(p, q)
        assert np.isclose(got, expected, rtol=1e-12)

        def integrand(x):
            lp = norm.pdf(x, 0.0, np.sqrt(2.0))
            lq = norm.pdf(x, 0.0, 1.0)
            return lp * np.log(lp / lq)

        numeric, _ = quad(integrand, -30, 30)
        assert np.isclose(got, numeric, rtol=1e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kl_divergence(model([0.0], [[1.0]]), model([0.0, 0.0], np.eye(2)))

    def test_matches_inverse_based_form(self, rng):
        for _ in range(25):
            dim = int(rng.integers(1, 5))
            mp, cp = oracles.random_gaussian(rng, dim)
            mq, cq = oracles.random_gaussian(rng, dim)
            got = kl_divergence(model(mp, cp), model(mq, cq))
            want = oracles.kl_by_inverse(mp, cp, mq, cq)
            assert np.isclose(got, want, rtol=1e-10)

    def test_matches_sampling_estimate(self, rng):
        for _ in range(5):
            dim = int(rng.integers(1, 5))
            mp, cp = oracles.random_gaussian(rng, dim)
            mq, cq = oracles.random_gaussian(rng, dim)
            got = kl_divergence(model(mp, cp), model(mq, cq))
            est, se = oracles.kl_by_sampling(mp, cp, mq, cq, 100_000, rng)
            assert abs(got - est) < 3 * se + 1e-12

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_affine_invariance(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 4))
        mp, cp = oracles.random_gaussian(rng, dim)
        mq, cq = oracles.random_gaussian(rng, dim)
        base = kl_divergence(model(mp, cp), model(mq, cq))
        # well-conditioned invertible map y = A x + c
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        a = q * rng.uniform(0.5, 2.0, size=dim)
        c = rng.normal(size=dim)
        mapped = kl_divergence(
            model(a @ mp + c, a @ cp @ a.T),
            model(a @ mq + c, a @ cq @ a.T),
        )
        assert np.isclose(mapped, base, rtol=1e-6, atol=1e-9)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_non_negative(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 5))
        mp, cp = oracles.random_gaussian(rng, dim)
        mq, cq = oracles.random_gaussian(rng, dim)
        assert kl_divergence(model(mp, cp), model(mq, cq)) >= 0.0


class TestStackedKl:
    """The stacked kernels agree with kl_divergence pair by pair, on a small
    stack and a large one."""

    @staticmethod
    def stack(rng, k, dim):
        """k pairs of random Gaussians, means (dim, k) and covariances (dim, dim, k)."""
        pairs = [
            (oracles.random_gaussian(rng, dim), oracles.random_gaussian(rng, dim))
            for _ in range(k)
        ]
        mu_p, cov_p = (np.stack(x, axis=-1) for x in zip(*(p for p, _ in pairs)))
        mu_q, cov_q = (np.stack(x, axis=-1) for x in zip(*(q for _, q in pairs)))
        return mu_p, cov_p, mu_q, cov_q

    @staticmethod
    def one_at_a_time(mu_p, cov_p, mu_q, cov_q, k):
        (mp, cp), (mq, cq) = (mu_p[:, k], cov_p[..., k]), (mu_q[:, k], cov_q[..., k])
        eps_p, eps_q = jitter_epsilon(cp), jitter_epsilon(cq)
        return kl_divergence(
            model(mp, cp + eps_p * np.eye(len(mp))), model(mq, cq + eps_q * np.eye(len(mq)))
        )

    @pytest.mark.parametrize("k", STACK_SIZES)
    def test_matches_pairwise_kl(self, rng, k):
        mu_p, cov_p, mu_q, cov_q = self.stack(rng, k, 4)
        want = [self.one_at_a_time(mu_p, cov_p, mu_q, cov_q, i) for i in range(k)]
        got = kl_from_factors(
            mu_p, jittered_cholesky(cov_p.copy()), mu_q, jittered_cholesky(cov_q.copy())
        )
        np.testing.assert_allclose(got, want, rtol=1e-10)

    @pytest.mark.parametrize("side", ["p", "q"])
    @pytest.mark.parametrize("k", STACK_SIZES)
    def test_one_matrix_that_does_not_factor(self, rng, k, side):
        """numpy refuses the whole stack; only the bad candidate gets NaN."""
        mu_p, cov_p, mu_q, cov_q = self.stack(rng, k, 3)
        bad = cov_p if side == "p" else cov_q
        bad[..., 2] = np.diag([1.0, -1.0, 2.0])  # indefinite: jitter cannot fix it
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(np.moveaxis(bad, -1, 0))
        got = kl_from_factors(
            mu_p, jittered_cholesky(cov_p.copy()), mu_q, jittered_cholesky(cov_q.copy())
        )
        assert np.isnan(got[2])
        for i in (0, 1, 3, 4, k - 1):
            want = self.one_at_a_time(mu_p, cov_p, mu_q, cov_q, i)
            assert got[i] == pytest.approx(want, rel=1e-10)


class TestKernelReference:
    """The one factor/KL kernel against the per-matrix reference: LAPACK's
    Cholesky one matrix at a time and the inverse-based divergence."""

    @given(
        m=st.integers(1, 30),
        k=st.sampled_from([1, 2, 6, 80]),
        seed=st.integers(0, 2**31 - 1),
        bad=st.sets(st.integers(0, 1), max_size=2),
    )
    @settings(max_examples=40, deadline=None)
    # A divergence near zero: pair 28 has a KL of about 1e-4 from O(1) terms.
    @example(m=1, k=80, seed=1368954, bad=set())
    def test_matches_per_matrix_reference(self, m, k, seed, bad):
        rng = np.random.default_rng(seed)
        mu_p, cov_p, mu_q, cov_q = TestStackedKl.stack(rng, k, m)
        # Indefinite matrices (one eigenvalue -1) in a few places: no jitter fixes them.
        hit = rng.choice(k, size=min(k, 3), replace=False)
        for side in bad:
            cov = (cov_p, cov_q)[side]
            for i in hit[side::2]:
                basis, _ = np.linalg.qr(rng.normal(size=(m, m)))
                cov[..., i] = (basis * np.r_[-1.0, np.ones(m - 1)]) @ basis.T
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            chol_p = jittered_cholesky(cov_p.copy())
            chol_q = jittered_cholesky(cov_q.copy())
            kl = kl_from_factors(mu_p, chol_p, mu_q, chol_q)
        diag = np.arange(m)
        for cov in (cov_p, cov_q):  # the covariances the kernel factored
            cov[diag, diag] += jitter_epsilon(cov)
        want_p, want_q = oracles.cholesky_each(cov_p), oracles.cholesky_each(cov_q)
        for got, want in ((chol_p, want_p), (chol_q, want_q)):
            # the factor is the lower triangle; (m, m, k) -> (k, m, m) for np.tril
            got, want = (np.tril(np.moveaxis(a, -1, 0)) for a in (got, want))
            assert np.array_equal(np.isnan(got), np.isnan(want))
            # a factor entry near zero carries the round-off of the largest ones
            atol = 1e-12 * np.nanmax(np.abs(want), initial=0.0)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=atol)
        failed = np.isnan(want_p[0, 0]) | np.isnan(want_q[0, 0])
        terms = np.array([
            oracles.kl_terms_by_inverse(mu_p[:, i], cov_p[..., i], mu_q[:, i], cov_q[..., i])
            if not failed[i] else (np.nan,) * 3
            for i in range(k)
        ])
        want_kl = 0.5 * (terms.sum(axis=1) - m)
        # A divergence carries the round-off of its terms, which can be far
        # larger than itself near zero.
        atol = 1e-12 * (np.abs(terms).sum(axis=1) + m)
        assert np.array_equal(np.isnan(kl), np.isnan(want_kl))
        ok = ~np.isnan(want_kl)
        assert np.all(np.abs(kl[ok] - want_kl[ok]) <= 1e-12 * np.abs(want_kl[ok]) + atol[ok])
        assert failed.sum() == len({int(i) for side in bad for i in hit[side::2]})


def test_a_zero_pivot_is_nan():
    """A pivot of exactly 0 after the jitter does not factor: its matrix is
    NaN, the other one is not."""
    covs = np.stack([np.diag([1.0, -JITTER_FLOOR]), np.eye(2)], axis=-1)
    assert np.array_equal(jitter_epsilon(covs), [JITTER_FLOOR, JITTER_FLOOR])
    chol = jittered_cholesky(covs)
    assert np.isnan(chol[..., 0]).all()
    assert np.array_equal(np.tril(chol[..., 1]), np.sqrt(1 + JITTER_FLOOR) * np.eye(2))


class TestSolveLower:
    """The blocked triangular solve against a general solve."""

    @pytest.mark.parametrize("m", [1, 31, 32, 33, 150])
    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("columns", [None, 5])  # None: one right-hand side, (m, 1)
    def test_matches_general_solve(self, rng, m, transpose, columns):
        a = rng.normal(size=(m, m))
        chol = np.linalg.cholesky(a @ a.T / m + np.eye(m))
        rhs = rng.normal(size=(m, columns or 1))
        want = np.linalg.solve(chol.T if transpose else chol, rhs)
        got = solve_lower(chol, rhs, transpose=transpose)
        assert got.shape == rhs.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("stack", [1, 5])
    @pytest.mark.parametrize("m", [1, 33, 70])
    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("columns", [1, 4])
    def test_a_stack_matches_general_solve(self, rng, stack, m, transpose, columns):
        """Each matrix of a stack solves its own right-hand sides, exactly as it
        does alone."""
        a = rng.normal(size=(stack, m, m))
        chol = np.linalg.cholesky(a @ np.swapaxes(a, -1, -2) / m + np.eye(m))
        rhs = rng.normal(size=(stack, m, columns))
        want = np.linalg.solve(np.swapaxes(chol, -1, -2) if transpose else chol, rhs)
        got = solve_lower(chol, rhs, transpose=transpose)
        assert got.shape == rhs.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        for i in range(stack):
            assert np.array_equal(got[i], solve_lower(chol[i], rhs[i], transpose=transpose))


class TestUnbiasedKl:
    """interval_score, the length weighting 2 * |I| * KL (once named unbiased_kl)."""

    def test_definition(self):
        assert interval_score(0.5, 10) == 10.0

    def test_zero(self):
        assert interval_score(0.0, 14) == 0.0

    def test_composition_with_variance_example(self):
        p = model([0.0], [[2.0]])
        q = model([0.0], [[1.0]])
        got = interval_score(kl_divergence(p, q), 25)
        assert np.isclose(got, 2 * 25 * 0.5 * (2.0 + np.log(0.5) - 1.0), rtol=1e-12)
        assert np.isclose(got, 7.6713, atol=5e-5)

    def test_rejects_negative_score(self):
        with pytest.raises(ValueError):
            interval_score(-0.1, 5)
