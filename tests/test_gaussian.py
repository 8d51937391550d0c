import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import norm

from anomattr import GaussianModel, interval_score, kl_divergence
from anomattr.detector import _moments
from anomattr.gaussian import JITTER_FLOOR, jitter_epsilon, jittered_cholesky, kl_from_factors

import oracles


def model(mean, cov):
    return GaussianModel(mean=np.atleast_1d(np.asarray(mean, dtype=float)), cov=np.atleast_2d(cov))


def fit(rows):
    """The scorers' fit of complete rows: ML moments, then the jittered factor.

    Returns (mean, jittered covariance, lower factor of that covariance).
    """
    mean, cov = _moments(rows)
    chol = jittered_cholesky(cov[None])[0]  # adds the jitter to cov in place
    return mean, cov, chol


class TestEstimate:
    """The moments (detector._moments) and the jittered factor every fit goes through."""

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
        covs = np.stack([oracles.random_gaussian(rng, 3)[1] * s for s in (1e-12, 1.0, 1e4)])
        eps = jitter_epsilon(covs)
        assert eps.shape == (3,)
        assert eps[0] == JITTER_FLOOR
        for cov, e in zip(covs, eps):
            assert e == jitter_epsilon(cov)


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
    """The stacked kernel used by the scan agrees with kl_divergence pair by pair."""

    @staticmethod
    def stack(rng, k, dim):
        pairs = [
            (oracles.random_gaussian(rng, dim), oracles.random_gaussian(rng, dim))
            for _ in range(k)
        ]
        mu_p, cov_p = (np.stack(x) for x in zip(*(p for p, _ in pairs)))
        mu_q, cov_q = (np.stack(x) for x in zip(*(q for _, q in pairs)))
        return mu_p, cov_p, mu_q, cov_q

    @staticmethod
    def one_at_a_time(mu_p, cov_p, mu_q, cov_q, k):
        eps_p, eps_q = jitter_epsilon(cov_p[k]), jitter_epsilon(cov_q[k])
        return kl_divergence(
            model(mu_p[k], cov_p[k] + eps_p * np.eye(len(mu_p[k]))),
            model(mu_q[k], cov_q[k] + eps_q * np.eye(len(mu_q[k]))),
        )

    def test_matches_pairwise_kl(self, rng):
        mu_p, cov_p, mu_q, cov_q = self.stack(rng, 12, 4)
        want = [self.one_at_a_time(mu_p, cov_p, mu_q, cov_q, k) for k in range(12)]
        got = kl_from_factors(
            mu_p, jittered_cholesky(cov_p.copy()), mu_q, jittered_cholesky(cov_q.copy())
        )
        np.testing.assert_allclose(got, want, rtol=1e-10)

    @pytest.mark.parametrize("side", ["p", "q"])
    def test_one_matrix_that_does_not_factor(self, rng, side):
        """numpy refuses the whole stack; only the bad candidate gets NaN."""
        mu_p, cov_p, mu_q, cov_q = self.stack(rng, 6, 3)
        bad = cov_p if side == "p" else cov_q
        bad[2] = np.diag([1.0, -1.0, 2.0])  # indefinite: jitter cannot fix it
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(bad)
        got = kl_from_factors(
            mu_p, jittered_cholesky(cov_p.copy()), mu_q, jittered_cholesky(cov_q.copy())
        )
        assert np.isnan(got[2])
        for k in (0, 1, 3, 4, 5):
            want = self.one_at_a_time(mu_p, cov_p, mu_q, cov_q, k)
            assert got[k] == pytest.approx(want, rel=1e-10)


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
