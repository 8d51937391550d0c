import logging

import numpy as np
import pytest

import unittest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from anomattr import (
    EmbeddingConfig,
    Interval,
    WindowModel,
    apply_replacement,
    assemble_joint,
    estimate_stationary,
)
from anomattr import counterfactual
from anomattr.errors import ConfigError, EstimationError
from anomattr.gaussian import JITTER_FLOOR, jitter_epsilon

import oracles
from conftest import make_series, replacement_law, window_cells


def ar1_series(rng, n, phi=0.8, d=1):
    x = np.zeros((n, d))
    eps = rng.standard_normal((n, d))
    for t in range(1, n):
        x[t] = phi * x[t - 1] + eps[t]
    return make_series(x)


def unjittered_joint(series, interval, length) -> np.ndarray:
    """The block-Toeplitz joint over ``length`` steps without its diagonal jitter.

    The joint's mean diagonal entry is that of its lag-0 block, so its jitter
    is the jitter of C_0."""
    blocks, mean = estimate_stationary(series, interval, max_lag=length - 1)
    _, cov = assemble_joint(blocks, mean)
    return cov - jitter_epsilon(blocks[0]) * np.eye(cov.shape[0])


class TestEstimateStationary:
    def test_white_noise_blocks(self):
        rng = np.random.default_rng(5)
        series = make_series(rng.standard_normal((20000, 2)))
        blocks, mean = estimate_stationary(series, Interval(5000, 5100), max_lag=1)
        assert blocks.shape == (2, 2, 2)
        assert np.abs(mean).max() < 0.05
        assert np.abs(blocks[0] - np.eye(2)).max() < 0.05
        assert np.abs(blocks[1]).max() < 0.05

    def test_ar1_matches_analytic_autocovariance(self):
        rng = np.random.default_rng(9)
        series = ar1_series(rng, 20000, phi=0.8)
        blocks, _ = estimate_stationary(series, Interval(100, 150), max_lag=5)
        for k in range(6):
            want = oracles.ar1_autocovariance(0.8, k)
            got = blocks[k][0, 0]
            assert abs(got - want) / want < 0.05

    def test_mask_excludes_the_anomaly(self, rng):
        values = rng.standard_normal((2000, 2))
        clean = make_series(values.copy())
        values[800:900] += 50.0
        dirty = make_series(values)
        _, mean_clean = estimate_stationary(clean, Interval(800, 900), max_lag=0)
        _, mean_dirty = estimate_stationary(dirty, Interval(800, 900), max_lag=0)
        assert np.allclose(mean_clean, mean_dirty)

    def test_constant_outside_mask_gives_zero_blocks(self):
        values = np.ones((50, 2))
        values[10:20] = 7.0
        blocks, mean = estimate_stationary(make_series(values), Interval(10, 20), max_lag=3)
        assert np.allclose(mean, 1.0)
        assert np.allclose(blocks, 0.0)

    def test_variables_never_observed_together_fit(self):
        """Two variables never observed together outside the interval have no
        lag-0 pairs: their lag-0 cross entry is zero, and the window fits."""
        values = np.random.default_rng(0).standard_normal((60, 2))
        missing = np.zeros((60, 2), dtype=bool)
        missing[:30, 0] = True
        missing[30:, 1] = True
        series = make_series(values, missing=missing)
        blocks, _ = estimate_stationary(series, Interval(40, 45), max_lag=8)
        assert blocks[0][0, 1] == 0.0 and blocks[0][1, 0] == 0.0
        assert blocks[1][0, 1] != 0.0  # x0 at t = 30 pairs with x1 at t = 29
        model = WindowModel.fit(series, Interval(40, 45), EmbeddingConfig())
        assert model.length == 9

    def test_a_variable_observed_once_is_refused(self):
        values = np.random.default_rng(0).standard_normal((20, 2))
        missing = np.zeros((20, 2), dtype=bool)
        missing[:, 1] = True
        missing[3, 1] = False
        missing[12, 1] = False  # inside the mask
        series = make_series(values, missing=missing, names=["a", "b"])
        with pytest.raises(EstimationError, match="'b' has 1 observations"):
            estimate_stationary(series, Interval(10, 15), max_lag=2)

    def test_a_lag_without_pairs_is_zero(self):
        """Outside the mask [2, 10) of a 12-step series the observed steps are
        0, 1, 10 and 11: lags 0, 1, 9, 10 and 11 have pairs, the others and
        every lag at or beyond n do not, and are zero."""
        series = make_series(np.random.default_rng(0).standard_normal((12, 1)))
        blocks, _ = estimate_stationary(series, Interval(2, 10), max_lag=14)
        assert blocks.shape == (15, 1, 1)
        with_pairs = [0, 1, 9, 10, 11]
        assert np.all(blocks[with_pairs] != 0.0)
        assert np.all(np.delete(blocks, with_pairs, axis=0) == 0.0)

    def test_max_lag_precondition(self, small_series):
        """A negative max_lag is refused; one beyond the unmasked rows is not."""
        with pytest.raises(ConfigError):
            estimate_stationary(small_series, Interval(0, 150), max_lag=-1)
        blocks, _ = estimate_stationary(small_series, Interval(0, 150), max_lag=60)
        assert blocks.shape == (61, 3, 3)


class TestAssembleJoint:
    def test_two_vars_three_steps_block_pattern(self):
        rng = np.random.default_rng(2)
        series = make_series(rng.standard_normal((20000, 2)) @ rng.normal(size=(2, 2)))
        blocks, mean = estimate_stationary(series, Interval(10, 20), max_lag=2)
        _, cov = assemble_joint(blocks, mean)
        assert cov.shape == (6, 6)
        d = 2
        eps = jitter_epsilon(blocks[0])
        for i in range(3):
            for j in range(3):
                block = cov[i * d : (i + 1) * d, j * d : (j + 1) * d]
                if i == j:
                    np.testing.assert_allclose(block, blocks[0] + eps * np.eye(d), rtol=1e-15)
                    assert block[0, 1] == blocks[0][0, 1] and block[1, 0] == blocks[0][1, 0]
                elif i > j:
                    assert np.array_equal(block, blocks[i - j])
                else:
                    assert np.array_equal(block, blocks[j - i].T)

    def test_diagonal_shift_identity(self):
        """block(i, j) == block(i+1, j+1) exactly."""
        rng = np.random.default_rng(3)
        series = make_series(rng.standard_normal((5000, 3)))
        _, cov = assemble_joint(*estimate_stationary(series, Interval(100, 120), max_lag=3))
        d = 3
        for i in range(3):
            for j in range(3):
                a = cov[i * d : (i + 1) * d, j * d : (j + 1) * d]
                b = cov[(i + 1) * d : (i + 2) * d, (j + 1) * d : (j + 2) * d]
                assert np.array_equal(a, b)

    def test_identity_blocks_give_identity(self):
        """Identity lag-0 and zero lag blocks give the identity plus the jitter
        floor, the one jitter of a unit-diagonal joint."""
        zero = np.zeros((2, 2))
        _, cov = assemble_joint(np.stack([np.eye(2), zero, zero]), np.zeros(2))
        assert np.array_equal(cov, (1.0 + JITTER_FLOOR) * np.eye(6))

    def test_mean_is_tiled(self):
        mean, cov = assemble_joint(np.stack([np.eye(2)] * 3), np.array([1.0, -2.0]))
        assert np.array_equal(mean, [1, -2, 1, -2, 1, -2])
        assert cov.shape == (6, 6)

    def test_matches_windowed_covariance(self):
        """Toeplitz assembly vs the brute-force covariance of explicit windows."""
        rng = np.random.default_rng(11)
        n, d, ell = 20000, 2, 4
        x = np.zeros((n, d))
        eps = rng.standard_normal((n, d))
        a1 = np.array([[0.5, 0.2], [0.0, 0.4]])
        a2 = np.array([[0.2, 0.0], [0.1, 0.2]])
        for t in range(2, n):
            x[t] = a1 @ x[t - 1] + a2 @ x[t - 2] + eps[t]
        series = make_series(x)
        _, cov = assemble_joint(*estimate_stationary(series, Interval(0, 1), max_lag=ell - 1))
        _, brute = oracles.windowed_covariance(x[1:], ell)
        rel = np.linalg.norm(cov - brute) / np.linalg.norm(brute)
        assert rel < 0.10

    def test_matches_the_lagged_gram_oracle(self, rng):
        """Without its jitter the joint is (I kron D) Z'Z (I kron D), Z the
        zero-padded lagged copies of the centered series, on random masks and
        missing cells, including windows longer than the series."""
        for _ in range(20):
            n, d = int(rng.integers(6, 30)), int(rng.integers(1, 4))
            a = int(rng.integers(1, n - 2))  # rows 0 and n-1 stay outside the mask
            interval = Interval(a, int(rng.integers(a + 1, min(a + 8, n - 1))))
            missing = rng.random((n, d)) < rng.uniform(0.0, 0.3)
            missing[0, :] = missing[-1, :] = False
            series = make_series(rng.standard_normal((n, d)), missing=missing)
            length = int(rng.integers(1, n + 6))
            want = oracles.lagged_gram(series, interval, length)
            np.testing.assert_allclose(unjittered_joint(series, interval, length), want, rtol=1e-12)

    @given(
        st.integers(0, 2**31 - 1),
        st.integers(3, 40),
        st.integers(1, 3),
        st.integers(1, 6),
        st.floats(0.0, 0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_the_nominal_joint_is_positive_semi_definite(self, seed, n, d, kappa, share):
        """Any mask, missing share and window length, windows longer than the
        unmasked rows included: the joint without its jitter has no eigenvalue
        below -1e-12 * trace / dim, and the window fits with no warning."""
        rng = np.random.default_rng(seed)
        a = int(rng.integers(0, n))
        interval = Interval(a, int(rng.integers(a + 1, n + 1)))
        series = make_series(rng.standard_normal((n, d)), missing=rng.random((n, d)) < share)
        present = ~series.missing
        present[interval.a : interval.b] = False
        assume(present.sum(axis=0).min() >= 2)
        cfg = EmbeddingConfig(kappa=kappa)
        with unittest.TestCase().assertNoLogs("anomattr", logging.WARNING):
            model = WindowModel.fit(series, interval, cfg)
        raw = unjittered_joint(series, interval, model.length)
        assert np.linalg.eigvalsh(raw).min() >= -1e-12 * np.trace(raw) / raw.shape[0]


def identity_model(series, interval, cfg) -> WindowModel:
    """A window model of ``interval`` over an identity joint."""
    dim = (interval.length + 2 * cfg.history) * series.d
    return WindowModel(np.zeros(dim), np.eye(dim), series, interval, cfg)


class TestReplacementWindow:
    """A window model's window of [a, b) is [a - (kappa-1)*tau, b + (kappa-1)*tau)."""

    def test_length_formula(self, rng):
        series = make_series(rng.standard_normal((100, 2)))
        model = identity_model(series, Interval(10, 20), EmbeddingConfig(kappa=3))
        assert model.length == 10 + 2 * 2
        assert model.start == 8
        assert model.precision.shape == (2 * 14, 2 * 14)

    def test_kappa_one_has_no_context(self, rng):
        series = make_series(rng.standard_normal((100, 2)))
        model = identity_model(series, Interval(10, 20), EmbeddingConfig(kappa=1))
        assert (model.start, model.length) == (10, 10)
        assert model.replaced((1,)).tolist() == list(range(1, 20, 2))

    def test_subset_cap_enforced(self, rng):
        model = identity_model(
            make_series(rng.standard_normal((50, 4))), Interval(0, 5), EmbeddingConfig(kappa=2)
        )
        with pytest.raises(ConfigError, match="cap"):
            model.replaced((0, 1, 2))

    def test_empty_subset_rejected(self, rng):
        model = identity_model(
            make_series(rng.standard_normal((50, 4))), Interval(0, 5), EmbeddingConfig(kappa=2)
        )
        with pytest.raises(ConfigError):
            model.replaced(())

    @pytest.mark.parametrize("subset", [(1, 1), (-1,), (4,), (1, 4)])
    def test_duplicate_or_out_of_range_subset_rejected(self, rng, subset):
        model = identity_model(
            make_series(rng.standard_normal((50, 4))), Interval(0, 5), EmbeddingConfig(kappa=2)
        )
        with pytest.raises(ConfigError):
            model.draws(subset, [0])

    def test_boundary_context_is_absent(self, rng):
        series = make_series(rng.standard_normal((30, 2)))
        cfg = EmbeddingConfig(kappa=3)
        left = identity_model(series, Interval(0, 5), cfg)
        assert left.absent.tolist() == [0, 1, 2, 3]  # times -2 and -1 do not exist
        right = identity_model(series, Interval(25, 30), cfg)
        assert right.absent.tolist() == list(range(14, 18))  # nor do times 30 and 31

    @pytest.mark.parametrize(
        "n, interval, kappa",
        [
            (12, Interval(0, 3), 5),  # the window needs lags the series has no pairs for
            (10, Interval(4, 6), 5),  # the window is as long as the series
        ],
    )
    def test_a_shortened_window_fits_without_warning(self, caplog, n, interval, kappa):
        """Lags without pairs are zero and the joint stays positive definite
        before its jitter: nothing is repaired or logged."""
        series = make_series(np.random.default_rng(1).standard_normal((n, 1)))
        with caplog.at_level(logging.WARNING):
            model = WindowModel.fit(series, interval, EmbeddingConfig(kappa=kappa))
        assert model.length == interval.length + 2 * (kappa - 1)
        assert not caplog.records
        assert np.linalg.eigvalsh(unjittered_joint(series, interval, model.length)).min() > 0

    def test_context_is_what_the_rescore_reads(self, rng):
        """kappa=3, tau=2: the window is [a - 4, b + 4). The conditional matches
        the precision oracle on that window, and a kept cell 3 or 4 steps
        outside the interval moves the replacement law; one 5 steps out does
        not."""
        n, d = 60, 2
        cfg = EmbeddingConfig(kappa=3, tau=2)
        interval = Interval(20, 23)
        values = rng.standard_normal((n, d))
        series = make_series(values)
        fitted = WindowModel.fit(series, interval, cfg)
        assert (fitted.start, fitted.length) == (16, 11)

        mean, cov = oracles.random_gaussian(rng, 11 * d)
        cov = 0.5 * (cov + cov.T)
        law = replacement_law(WindowModel(mean, cov, series, interval, cfg), (0,))
        cells, present, replaced = window_cells(series, interval, cfg, (0,))
        q_idx = np.flatnonzero(replaced)
        e_idx = np.flatnonzero(present & ~replaced)
        want_mean, want_cov = oracles.conditional_by_precision(
            mean, cov, q_idx, e_idx, cells[e_idx]
        )
        np.testing.assert_allclose(law[0], want_mean, rtol=1e-8, atol=1e-8)
        np.testing.assert_allclose(law[1], want_cov, rtol=1e-8, atol=1e-8)

        def moved_mean(t):
            moved = values.copy()
            moved[t, 1] += 3.0
            model = WindowModel(mean, cov, make_series(moved), interval, cfg)
            return replacement_law(model, (0,))[0]

        for t in (16, 17, 25, 26):  # 4 and 3 steps before a, 3 and 4 steps after b - 1
            assert np.abs(moved_mean(t) - law[0]).max() > 1e-6
        for t in (15, 27):  # outside the window
            assert np.array_equal(moved_mean(t), law[0])


class TestConditional:
    def test_schur_matches_precision_oracle(self, rng):
        """Window-model conditioning vs direct precision-matrix conditioning."""
        for _ in range(20):
            d = int(rng.integers(1, 4))
            ell_core = int(rng.integers(1, 5))
            kappa = int(rng.integers(1, 3))
            n = 50
            a = int(rng.integers(kappa, 20))
            interval = Interval(a, a + ell_core)
            subset = tuple(rng.choice(d, size=max(1, d // 2), replace=False)) if d > 1 else (0,)
            cfg = EmbeddingConfig(kappa=kappa)
            dim = (ell_core + 2 * (kappa - 1)) * d
            mean, cov = oracles.random_gaussian(rng, dim)
            cov = 0.5 * (cov + cov.T)
            series = make_series(rng.standard_normal((n, d)))
            model = WindowModel(mean, cov, series, interval, cfg)
            cond_mean, cond_cov = replacement_law(model, subset)

            values, present, replaced = window_cells(series, interval, cfg, subset)
            q_idx = np.flatnonzero(replaced)
            e_idx = np.flatnonzero(present & ~replaced)
            want_mean, want_cov = oracles.conditional_by_precision(
                mean, cov, q_idx, e_idx, values[e_idx]
            )
            np.testing.assert_allclose(cond_mean, want_mean, rtol=1e-8, atol=1e-8)
            np.testing.assert_allclose(cond_cov, want_cov, rtol=1e-8, atol=1e-8)

    def test_precision_form_with_absent_cells_matches_oracle(self, rng):
        """Windows with missing cells and context running off either end of the
        series: the conditional equals the precision-matrix oracle applied to
        the marginal over the replaced and the evidence coordinates."""
        checked_absent = 0
        for case in range(30):
            d = int(rng.integers(2, 4))
            kappa = int(rng.integers(2, 4))
            n = 30
            core = int(rng.integers(1, 5))
            # context off the start, off the end, or inside the series
            a = (0, 1, n - core, n - core - 1, int(rng.integers(3, 20)))[case % 5]
            subset = (int(rng.integers(d)),)
            interval = Interval(a, a + core)
            cfg = EmbeddingConfig(kappa=kappa)
            mean, cov = oracles.random_gaussian(rng, (core + 2 * (kappa - 1)) * d)
            cov = 0.5 * (cov + cov.T)
            missing = rng.random((n, d)) < 0.15
            series = make_series(rng.standard_normal((n, d)), missing=missing)
            model = WindowModel(mean, cov, series, interval, cfg)
            cond_mean, cond_cov = replacement_law(model, subset)

            values, present, replaced = window_cells(series, interval, cfg, subset)
            q_idx = np.flatnonzero(replaced)
            e_idx = np.flatnonzero(present & ~replaced)
            checked_absent += int((~present & ~replaced).sum())
            kept = np.concatenate([q_idx, e_idx])
            want_mean, want_cov = oracles.conditional_by_precision(
                mean[kept],
                cov[np.ix_(kept, kept)],
                np.arange(q_idx.size),
                np.arange(q_idx.size, kept.size),
                values[e_idx],
            )
            np.testing.assert_allclose(cond_mean, want_mean, rtol=1e-8, atol=1e-8)
            np.testing.assert_allclose(cond_cov, want_cov, rtol=1e-8, atol=1e-8)
        assert checked_absent > 0

    def test_one_model_serves_every_subset(self, rng):
        """A WindowModel fitted once gives each subset the same law as a fresh
        WindowModel built from the same joint for that subset."""
        n, d = 200, 4
        missing = rng.random((n, d)) < 0.05
        series = make_series(rng.standard_normal((n, d)), missing=missing)
        interval = Interval(1, 12)  # left context runs off the series
        cfg = EmbeddingConfig(kappa=3)
        model = WindowModel.fit(series, interval, cfg)
        mean, cov = assemble_joint(*estimate_stationary(series, interval, model.length - 1))
        for subset in [(0,), (3,), (1, 2), (0, 3)]:
            want_mean, want_cov = replacement_law(
                WindowModel(mean, cov, series, interval, cfg), subset
            )
            got_mean, got_cov = replacement_law(model, subset)
            np.testing.assert_allclose(got_mean, want_mean, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(got_cov, want_cov, rtol=1e-12, atol=1e-12)

    def test_bivariate_regression_formula(self, rng):
        """d=2, one step, replace variable 0 given variable 1."""
        mu = np.array([1.5, -2.0])
        sigma1, sigma2, rho = 2.0, 0.5, 0.7
        cov = np.array(
            [[sigma1**2, rho * sigma1 * sigma2], [rho * sigma1 * sigma2, sigma2**2]]
        )
        z = 0.3
        series = make_series(np.array([[999.0, z]]))  # value of var 0 is irrelevant
        model = WindowModel(mu, cov, series, Interval(0, 1), EmbeddingConfig(kappa=1))
        cond_mean, cond_cov = replacement_law(model, (0,))
        want = mu[0] + rho * (sigma1 / sigma2) * (z - mu[1])
        assert np.isclose(cond_mean[0], want)
        assert np.isclose(cond_cov[0, 0], sigma1**2 * (1 - rho**2))

    def test_block_diagonal_independence(self, rng):
        """With variables uncorrelated, dropping the other variable's evidence
        leaves the conditional unchanged."""
        zero = np.zeros((2, 2))
        blocks = np.stack([np.diag([1.0, 2.0]), np.diag([0.5, 0.3]), zero, zero])
        mean, cov = assemble_joint(blocks, np.zeros(2))
        values = rng.standard_normal((30, 2))
        series_full = make_series(values.copy())
        hidden = values.copy()
        missing = np.zeros((30, 2), dtype=bool)
        missing[:, 1] = True  # hide variable 1 everywhere
        series_hidden = make_series(hidden, missing=missing)
        interval, cfg = Interval(10, 12), EmbeddingConfig(kappa=2)
        full_mean, full_cov = replacement_law(
            WindowModel(mean, cov, series_full, interval, cfg), (0,)
        )
        hidden_mean, hidden_cov = replacement_law(
            WindowModel(mean, cov, series_hidden, interval, cfg), (0,)
        )
        np.testing.assert_allclose(full_mean, hidden_mean, atol=1e-10)
        np.testing.assert_allclose(full_cov, hidden_cov, atol=1e-10)

    def test_empirical_moments_match(self, rng):
        """Seeded draws reproduce the conditional mean within the Monte-Carlo
        standard error."""
        d, kappa = 2, 2
        interval = Interval(5, 8)
        dim = (interval.length + 2 * (kappa - 1)) * d
        mean, cov = oracles.random_gaussian(rng, dim)
        series = make_series(rng.standard_normal((40, d)))
        cov = 0.5 * (cov + cov.T)
        model = WindowModel(mean, cov, series, interval, EmbeddingConfig(kappa=kappa))
        cond_mean, cond_cov = replacement_law(model, (0,))
        n_draws = 2000
        draws = model.draws((0,), range(n_draws)).reshape(n_draws, -1)
        se = np.sqrt(np.diag(cond_cov) / n_draws)
        assert np.all(np.abs(draws.mean(axis=0) - cond_mean) < 4 * se)


class TestSampling:
    INTERVAL = Interval(200, 210)
    CFG = EmbeddingConfig(kappa=3)

    def _setup(self, rng, phi=0.0, missing=None):
        if phi:
            series = ar1_series(rng, 400, phi=phi, d=2)
        else:
            series = make_series(rng.standard_normal((400, 2)), missing=missing)
        length = self.INTERVAL.length + 2 * self.CFG.history
        mean, cov = assemble_joint(*estimate_stationary(series, self.INTERVAL, length - 1))
        return series, mean, cov

    def test_seed_determinism_and_distinctness(self, rng):
        series, mean, cov = self._setup(rng)
        model = WindowModel(mean, cov, series, self.INTERVAL, self.CFG)
        s1, s3 = model.draws((0,), [42, 43])
        s2 = WindowModel(mean, cov, series, self.INTERVAL, self.CFG).draws((0,), [42, 43])[0]
        assert np.array_equal(s1, s2)
        assert not np.array_equal(s1, s3)
        assert s1.shape == (10, 1)

    def test_draws_go_through_the_hidden_cell_factor(self, rng):
        """Realization r is mu_Q + L_QQ'^-1 (z_r - y_Q): L factors the precision
        block of the hidden cells (absent cells first, replaced cells last),
        y = L^-1 p with p = (Lambda r_H0)_H, and z_r are the normals of seed r.
        Drawn in a stack or alone, it agrees at 1e-12."""
        missing = np.zeros((400, 2), dtype=bool)
        missing[[199, 203, 205], [1, 0, 1]] = True  # context, replaced, kept
        series, mean, cov = self._setup(rng, missing=missing)
        model = WindowModel(mean, cov, series, self.INTERVAL, self.CFG)
        values, present, replaced = window_cells(series, self.INTERVAL, self.CFG, (0,))
        q_idx = np.flatnonzero(replaced)
        q = q_idx.size
        hidden = np.concatenate([np.setdiff1d(np.flatnonzero(~present), q_idx), q_idx])
        residual = np.where(present, values - mean, 0.0)
        residual[hidden] = 0.0
        chol = np.linalg.cholesky(model.precision[np.ix_(hidden, hidden)])
        y_q = np.linalg.solve(chol, (model.precision @ residual)[hidden])[-q:]
        chol_qq = chol[-q:, -q:]
        np.testing.assert_allclose(model.conditional((0,))[1], chol_qq, rtol=1e-12)

        seeds = [np.random.SeedSequence([3, 0, r]) for r in range(4)]
        stack = model.draws((0,), seeds)
        assert stack.shape == (4, self.INTERVAL.length, 1)
        for r, seed in enumerate(seeds):
            z = np.random.default_rng(seed).standard_normal(q)
            want = mean[q_idx] + np.linalg.solve(chol_qq.T, z - y_q)
            np.testing.assert_allclose(stack[r].ravel(), want, rtol=1e-12)
            np.testing.assert_allclose(model.draws((0,), [seed])[0], stack[r], rtol=1e-12)

    def test_conditioning_smooths_the_seam(self, rng):
        """With strong positive lag-1 correlation the conditional draw connects
        to the left context much better than an unconditional one."""
        series, mean, cov = self._setup(rng, phi=0.9)
        a = self.INTERVAL.a
        left_value = series.values[a - 1, 0]
        q_idx = np.flatnonzero(window_cells(series, self.INTERVAL, self.CFG, (0,))[2])
        cond_jumps, uncond_jumps = [], []
        marg_mean = mean[q_idx][0]
        marg_sd = np.sqrt(cov[q_idx[0], q_idx[0]])
        rng2 = np.random.default_rng(77)
        draws = WindowModel(mean, cov, series, self.INTERVAL, self.CFG).draws((0,), range(1000))
        for draw in draws:
            cond_jumps.append(abs(draw[0, 0] - left_value))
            uncond_jumps.append(abs(marg_mean + marg_sd * rng2.standard_normal() - left_value))
        assert np.mean(cond_jumps) < np.mean(uncond_jumps)


class TestDrawStack:
    """Drawn in a stack, a subset's draws are bit-identical to its draws alone."""

    def test_a_stack_draws_each_subset_as_alone(self, rng, monkeypatch):
        """Missing cells in the context (t=199) and inside the interval (t=205,
        210) give the size-2 subsets three hidden sizes. 90 draws of them, in
        shuffled order, hold more hidden-cell precision than DRAW_STACK_BYTES
        and are factored as four stacks."""
        missing = np.zeros((400, 4), dtype=bool)
        missing[[199, 205, 210], [0, 1, 2]] = True
        series = make_series(rng.standard_normal((400, 4)), missing=missing)
        model = WindowModel.fit(series, Interval(200, 230), EmbeddingConfig(kappa=2))
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        subsets = [pairs[k] for k in rng.permutation(np.arange(90) % len(pairs))]
        seeds = [[np.random.SeedSequence([7, k, r]) for r in range(3)] for k in range(90)]
        real, shapes = np.linalg.cholesky, []

        def recording(a):
            shapes.append(np.shape(a))
            return real(a)

        with monkeypatch.context() as m:
            m.setattr(np.linalg, "cholesky", recording)
            stack = model.draw_stack(subsets, seeds)
        # Q is 60 cells; (1, 2) hides both inside cells, (0, 3) neither.
        assert sorted(shape[-1] for shape in shapes) == [61, 62, 62, 63]
        assert sum(shape[0] for shape in shapes) == 90
        assert max(8 * np.prod(shape) for shape in shapes) <= counterfactual.DRAW_STACK_BYTES
        assert 8 * 60 * 62**2 > counterfactual.DRAW_STACK_BYTES
        for subset, row, drawn in zip(subsets, seeds, stack):
            assert drawn.shape == (3, 30, 2)
            assert np.array_equal(drawn, model.draws(subset, row))


class TestApplyReplacement:
    def test_identity_replacement(self, rng):
        series = make_series(rng.standard_normal((50, 3)))
        out = apply_replacement(series, Interval(10, 20), (1,), series.values[10:20, [1]])
        assert np.array_equal(out.values, series.values)

    def test_locality(self, rng):
        series = make_series(rng.standard_normal((50, 3)))
        out = apply_replacement(series, Interval(10, 20), (0, 1), np.zeros((10, 2)))
        touched = np.zeros((50, 3), dtype=bool)
        touched[10:20, [0, 1]] = True
        assert np.array_equal(out.values[~touched], series.values[~touched])
        assert np.all(out.values[touched] == 0.0)

    def test_missing_flags_cleared_inside(self, rng):
        values = rng.standard_normal((50, 2))
        missing = np.zeros((50, 2), dtype=bool)
        missing[12, 0] = True
        missing[30, 1] = True
        series = make_series(values, missing=missing)
        out = apply_replacement(series, Interval(10, 20), (0,), np.ones((10, 1)))
        assert not out.missing[12, 0]
        assert out.missing[30, 1]

    def test_shape_mismatch_rejected(self, rng):
        series = make_series(rng.standard_normal((50, 2)))
        with pytest.raises(ValueError):
            apply_replacement(series, Interval(10, 20), (0,), np.zeros((9, 1)))
