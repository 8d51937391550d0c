import logging

import numpy as np
import pytest

from anomattr import (
    GaussianModel,
    Interval,
    ReplacementWindow,
    StationaryCovariance,
    WindowModel,
    apply_replacement,
    assemble_joint,
    estimate_stationary,
    window_observation,
)
from anomattr.errors import ConfigError, EstimationError
from anomattr.gaussian import jitter_epsilon

import oracles
from conftest import make_series, replacement_law


def ar1_series(rng, n, phi=0.8, d=1):
    x = np.zeros((n, d))
    eps = rng.standard_normal((n, d))
    for t in range(1, n):
        x[t] = phi * x[t - 1] + eps[t]
    return make_series(x)


class TestEstimateStationary:
    def test_white_noise_blocks(self):
        rng = np.random.default_rng(5)
        series = make_series(rng.standard_normal((20000, 2)))
        stat, mean = estimate_stationary(series, Interval(5000, 5100), max_lag=1)
        assert np.abs(mean).max() < 0.05
        assert np.abs(stat.blocks[0] - np.eye(2)).max() < 0.05
        assert np.abs(stat.blocks[1]).max() < 0.05

    def test_ar1_matches_analytic_autocovariance(self):
        rng = np.random.default_rng(9)
        series = ar1_series(rng, 20000, phi=0.8)
        stat, _ = estimate_stationary(series, Interval(100, 150), max_lag=5)
        for k in range(6):
            want = oracles.ar1_autocovariance(0.8, k)
            got = stat.blocks[k][0, 0]
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
        stat, mean = estimate_stationary(make_series(values), Interval(10, 20), max_lag=3)
        assert np.allclose(mean, 1.0)
        assert np.allclose(stat.blocks, 0.0)

    def test_insufficient_pairs_names_the_lag(self):
        series = make_series(np.random.default_rng(0).standard_normal((12, 1)))
        with pytest.raises(EstimationError, match="lag 8"):
            estimate_stationary(series, Interval(0, 3), max_lag=8)

    def test_truncate_stops_and_logs(self, caplog):
        series = make_series(np.random.default_rng(0).standard_normal((12, 1)))
        with caplog.at_level(logging.WARNING):
            stat, _ = estimate_stationary(series, Interval(0, 3), max_lag=8, truncate=True)
        assert stat.max_lag < 8
        assert any("truncated" in rec.message for rec in caplog.records)

    def test_max_lag_precondition(self, small_series):
        with pytest.raises(ConfigError):
            estimate_stationary(small_series, Interval(0, 150), max_lag=60)


class TestAssembleJoint:
    def test_two_vars_three_steps_block_pattern(self):
        rng = np.random.default_rng(2)
        series = make_series(rng.standard_normal((20000, 2)) @ rng.normal(size=(2, 2)))
        stat, mean = estimate_stationary(series, Interval(10, 20), max_lag=2)
        joint = assemble_joint(stat, mean, length=3)
        assert joint.cov.shape == (6, 6)
        d = 2
        for i in range(3):
            for j in range(3):
                block = joint.cov[i * d : (i + 1) * d, j * d : (j + 1) * d]
                if i >= j:
                    assert np.array_equal(block, stat.blocks[i - j])
                else:
                    assert np.array_equal(block, stat.blocks[j - i].T)

    def test_diagonal_shift_identity(self):
        """block(i, j) == block(i+1, j+1) exactly."""
        rng = np.random.default_rng(3)
        series = make_series(rng.standard_normal((5000, 3)))
        stat, mean = estimate_stationary(series, Interval(100, 120), max_lag=3)
        joint = assemble_joint(stat, mean, length=4)
        d = 3
        for i in range(3):
            for j in range(3):
                a = joint.cov[i * d : (i + 1) * d, j * d : (j + 1) * d]
                b = joint.cov[(i + 1) * d : (i + 2) * d, (j + 1) * d : (j + 2) * d]
                assert np.array_equal(a, b)

    def test_identity_blocks_give_identity(self):
        stat = StationaryCovariance(blocks=np.stack([np.eye(2), np.zeros((2, 2))]))
        joint = assemble_joint(stat, np.zeros(2), length=3)
        assert np.array_equal(joint.cov, np.eye(6))

    def test_mean_is_tiled(self):
        stat = StationaryCovariance(blocks=np.eye(2)[None])
        joint = assemble_joint(stat, np.array([1.0, -2.0]), length=3)
        assert np.array_equal(joint.mean, [1, -2, 1, -2, 1, -2])

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
        stat, mean = estimate_stationary(series, Interval(0, 1), max_lag=ell - 1)
        joint = assemble_joint(stat, mean, length=ell)
        _, brute = oracles.windowed_covariance(x[1:], ell)
        rel = np.linalg.norm(joint.cov - brute) / np.linalg.norm(brute)
        assert rel < 0.10

    def test_indefinite_assembly_is_repaired(self, caplog):
        blocks = np.stack([np.eye(2), 1.5 * np.eye(2)])
        stat = StationaryCovariance(blocks=blocks)
        raw = np.block([[blocks[0], blocks[1].T], [blocks[1], blocks[0]]])
        eps = jitter_epsilon(raw)  # the repair-time clipping level
        with caplog.at_level(logging.WARNING):
            joint = assemble_joint(stat, np.zeros(2), length=2)
        assert np.linalg.eigvalsh(joint.cov).min() >= eps * (1 - 1e-9)
        assert any("repaired" in rec.message for rec in caplog.records)

    def test_short_blocks_are_zero_filled(self, caplog):
        stat = StationaryCovariance(blocks=np.eye(2)[None])
        with caplog.at_level(logging.WARNING):
            joint = assemble_joint(stat, np.zeros(2), length=3)
        assert np.array_equal(joint.cov, np.eye(6))
        assert any("zero" in rec.message for rec in caplog.records)


class TestReplacementWindow:
    def test_length_formula(self):
        w = ReplacementWindow(Interval(10, 20), kappa=3, subset=(0,), n_times=100, n_vars=2)
        assert w.length == 10 + 2 * 2
        assert list(w.times()) == list(range(8, 22))

    def test_kappa_one_has_no_context(self):
        w = ReplacementWindow(Interval(10, 20), kappa=1, subset=(0,), n_times=100, n_vars=2)
        assert w.length == 10
        assert w.times()[0] == 10 and w.times()[-1] == 19

    def test_subset_cap_enforced(self):
        with pytest.raises(ConfigError, match="cap"):
            ReplacementWindow(Interval(0, 5), kappa=2, subset=(0, 1, 2), n_times=50, n_vars=4)

    def test_empty_subset_rejected(self):
        with pytest.raises(ConfigError):
            ReplacementWindow(Interval(0, 5), kappa=2, subset=(), n_times=50, n_vars=4)

    def test_boundary_context_is_absent(self, rng):
        series = make_series(rng.standard_normal((30, 2)))
        w = ReplacementWindow(Interval(0, 5), kappa=3, subset=(0,), n_times=30, n_vars=2)
        values, present = window_observation(series, w)
        assert not present[:2].any()  # times -2, -1 do not exist
        assert present[2:].all()


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
            window = ReplacementWindow(interval, kappa, subset, n_times=n, n_vars=d)
            dim = window.length * d
            mean, cov = oracles.random_gaussian(rng, dim)
            joint = GaussianModel(mean=mean, cov=0.5 * (cov + cov.T))
            series = make_series(rng.standard_normal((n, d)))
            values, present = window_observation(series, window)
            model = WindowModel(joint, window, values, present)
            cond_mean, cond_cov = replacement_law(model, window.subset)

            q_mask = window.query_mask()
            q_idx = np.flatnonzero(q_mask)
            e_idx = np.flatnonzero(present.ravel() & ~q_mask)
            want_mean, want_cov = oracles.conditional_by_precision(
                mean, joint.cov, q_idx, e_idx, values.ravel()[e_idx]
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
            window = ReplacementWindow(Interval(a, a + core), kappa, subset, n_times=n, n_vars=d)
            mean, cov = oracles.random_gaussian(rng, window.length * d)
            joint = GaussianModel(mean=mean, cov=0.5 * (cov + cov.T))
            missing = rng.random((n, d)) < 0.15
            series = make_series(rng.standard_normal((n, d)), missing=missing)
            values, present = window_observation(series, window)
            model = WindowModel(joint, window, values, present)
            cond_mean, cond_cov = replacement_law(model, window.subset)

            q_mask = window.query_mask()
            q_idx = np.flatnonzero(q_mask)
            e_idx = np.flatnonzero(present.ravel() & ~q_mask)
            checked_absent += int((~present.ravel() & ~q_mask).sum())
            kept = np.concatenate([q_idx, e_idx])
            want_mean, want_cov = oracles.conditional_by_precision(
                mean[kept],
                joint.cov[np.ix_(kept, kept)],
                np.arange(q_idx.size),
                np.arange(q_idx.size, kept.size),
                values.ravel()[e_idx],
            )
            np.testing.assert_allclose(cond_mean, want_mean, rtol=1e-8, atol=1e-8)
            np.testing.assert_allclose(cond_cov, want_cov, rtol=1e-8, atol=1e-8)
        assert checked_absent > 0

    def test_one_model_serves_every_subset(self, rng):
        """A WindowModel built once gives each subset the same law as a fresh
        WindowModel built from the same joint for that subset's window."""
        n, d = 200, 4
        missing = rng.random((n, d)) < 0.05
        series = make_series(rng.standard_normal((n, d)), missing=missing)
        interval = Interval(1, 12)  # left context runs off the series
        model = WindowModel.fit(series, interval, kappa=3)
        stat, mean = estimate_stationary(series, interval, max_lag=model.window((0,)).length - 1)
        joint = assemble_joint(stat, mean, model.window((0,)).length)
        for subset in [(0,), (3,), (1, 2), (0, 3)]:
            window = model.window(subset)
            values, present = window_observation(series, window)
            want_mean, want_cov = replacement_law(
                WindowModel(joint, window, values, present), window.subset
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
        joint = GaussianModel(mean=mu, cov=cov)
        z = 0.3
        series = make_series(np.array([[999.0, z]]))  # value of var 0 is irrelevant
        window = ReplacementWindow(Interval(0, 1), kappa=1, subset=(0,), n_times=1, n_vars=2)
        values, present = window_observation(series, window)
        model = WindowModel(joint, window, values, present)
        cond_mean, cond_cov = replacement_law(model, window.subset)
        want = mu[0] + rho * (sigma1 / sigma2) * (z - mu[1])
        assert np.isclose(cond_mean[0], want)
        assert np.isclose(cond_cov[0, 0], sigma1**2 * (1 - rho**2))

    def test_block_diagonal_independence(self, rng):
        """With variables uncorrelated, dropping the other variable's evidence
        leaves the conditional unchanged."""
        blocks = np.stack([np.diag([1.0, 2.0]), np.diag([0.5, 0.3])])
        stat = StationaryCovariance(blocks=blocks)
        joint = assemble_joint(stat, np.zeros(2), length=4)
        values = rng.standard_normal((30, 2))
        series_full = make_series(values.copy())
        hidden = values.copy()
        missing = np.zeros((30, 2), dtype=bool)
        missing[:, 1] = True  # hide variable 1 everywhere
        series_hidden = make_series(hidden, missing=missing)
        window = ReplacementWindow(Interval(10, 12), kappa=2, subset=(0,), n_times=30, n_vars=2)
        v1, p1 = window_observation(series_full, window)
        v2, p2 = window_observation(series_hidden, window)
        full_mean, full_cov = replacement_law(WindowModel(joint, window, v1, p1), window.subset)
        hidden_mean, hidden_cov = replacement_law(WindowModel(joint, window, v2, p2), window.subset)
        np.testing.assert_allclose(full_mean, hidden_mean, atol=1e-10)
        np.testing.assert_allclose(full_cov, hidden_cov, atol=1e-10)

    def test_empirical_moments_match(self, rng):
        """Seeded draws reproduce the conditional mean within the Monte-Carlo
        standard error."""
        d, kappa = 2, 2
        window = ReplacementWindow(Interval(5, 8), kappa, (0,), n_times=40, n_vars=d)
        dim = window.length * d
        mean, cov = oracles.random_gaussian(rng, dim)
        joint = GaussianModel(mean=mean, cov=0.5 * (cov + cov.T))
        series = make_series(rng.standard_normal((40, d)))
        values, present = window_observation(series, window)
        model = WindowModel(joint, window, values, present)
        cond_mean, cond_cov = replacement_law(model, window.subset)
        n_draws = 2000
        draws = model.draws(window.subset, range(n_draws)).reshape(n_draws, -1)
        se = np.sqrt(np.diag(cond_cov) / n_draws)
        assert np.all(np.abs(draws.mean(axis=0) - cond_mean) < 4 * se)


class TestSampling:
    def _setup(self, rng, phi=0.0):
        if phi:
            series = ar1_series(rng, 400, phi=phi, d=2)
        else:
            series = make_series(rng.standard_normal((400, 2)))
        interval = Interval(200, 210)
        window = ReplacementWindow(interval, 3, (0,), n_times=400, n_vars=2)
        stat, mean = estimate_stationary(series, interval, max_lag=window.length - 1)
        joint = assemble_joint(stat, mean, window.length)
        values, present = window_observation(series, window)
        return series, window, joint, values, present

    def test_seed_determinism_and_distinctness(self, rng):
        _, window, joint, values, present = self._setup(rng)
        model = WindowModel(joint, window, values, present)
        s1, s3 = model.draws(window.subset, [42, 43])
        s2 = WindowModel(joint, window, values, present).draws(window.subset, [42, 43])[0]
        assert np.array_equal(s1, s2)
        assert not np.array_equal(s1, s3)
        assert s1.shape == (10, 1)

    def test_draws_go_through_the_hidden_cell_factor(self, rng):
        """Realization r is mu_Q + L_QQ'^-1 (z_r - y_Q): L factors the precision
        block of the hidden cells (absent cells first, replaced cells last),
        y = L^-1 p with p = (Lambda r_H0)_H, and z_r are the normals of seed r.
        Drawn in a stack or alone, it agrees at 1e-12."""
        _, window, joint, values, present = self._setup(rng)
        present[1, 1] = present[5, 0] = present[7, 1] = False  # context, replaced, kept
        model = WindowModel(joint, window, values, present)
        q_idx = np.flatnonzero(window.query_mask())
        q = q_idx.size
        hidden = np.concatenate(
            [np.setdiff1d(np.flatnonzero(~present.ravel()), q_idx), q_idx]
        )
        residual = np.where(present.ravel(), values.ravel() - joint.mean, 0.0)
        residual[hidden] = 0.0
        chol = np.linalg.cholesky(model.precision[np.ix_(hidden, hidden)])
        y_q = np.linalg.solve(chol, (model.precision @ residual)[hidden])[-q:]
        chol_qq = chol[-q:, -q:]
        np.testing.assert_allclose(model.conditional(window.subset)[1], chol_qq, rtol=1e-12)

        seeds = [np.random.SeedSequence([3, 0, r]) for r in range(4)]
        stack = model.draws(window.subset, seeds)
        assert stack.shape == (4, window.interval.length, 1)
        for r, seed in enumerate(seeds):
            z = np.random.default_rng(seed).standard_normal(q)
            want = joint.mean[q_idx] + np.linalg.solve(chol_qq.T, z - y_q)
            np.testing.assert_allclose(stack[r].ravel(), want, rtol=1e-12)
            np.testing.assert_allclose(model.draws(window.subset, [seed])[0], stack[r], rtol=1e-12)

    def test_conditioning_smooths_the_seam(self, rng):
        """With strong positive lag-1 correlation the conditional draw connects
        to the left context much better than an unconditional one."""
        series, window, joint, values, present = self._setup(rng, phi=0.9)
        a = window.interval.a
        left_value = series.values[a - 1, 0]
        q_idx = np.flatnonzero(window.query_mask())
        cond_jumps, uncond_jumps = [], []
        marg_mean = joint.mean[q_idx][0]
        marg_sd = np.sqrt(joint.cov[q_idx[0], q_idx[0]])
        rng2 = np.random.default_rng(77)
        draws = WindowModel(joint, window, values, present).draws(window.subset, range(1000))
        for draw in draws:
            cond_jumps.append(abs(draw[0, 0] - left_value))
            uncond_jumps.append(abs(marg_mean + marg_sd * rng2.standard_normal() - left_value))
        assert np.mean(cond_jumps) < np.mean(uncond_jumps)


class TestApplyReplacement:
    def test_identity_replacement(self, rng):
        series = make_series(rng.standard_normal((50, 3)))
        window = ReplacementWindow(Interval(10, 20), 3, (1,), n_times=50, n_vars=3)
        out = apply_replacement(series, window, series.values[10:20, [1]])
        assert np.array_equal(out.values, series.values)

    def test_locality(self, rng):
        series = make_series(rng.standard_normal((50, 3)))
        window = ReplacementWindow(Interval(10, 20), 3, (0, 1), n_times=50, n_vars=3)
        out = apply_replacement(series, window, np.zeros((10, 2)))
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
        window = ReplacementWindow(Interval(10, 20), 2, (0,), n_times=50, n_vars=2)
        out = apply_replacement(series, window, np.ones((10, 1)))
        assert not out.missing[12, 0]
        assert out.missing[30, 1]

    def test_shape_mismatch_rejected(self, rng):
        series = make_series(rng.standard_normal((50, 2)))
        window = ReplacementWindow(Interval(10, 20), 2, (0,), n_times=50, n_vars=2)
        with pytest.raises(ValueError):
            apply_replacement(series, window, np.zeros((9, 1)))
