import math

import numpy as np
import pytest

from anomattr import (
    AttributionConfig,
    Detection,
    EmbeddingConfig,
    Injection,
    Interval,
    LocalRescorer,
    SynthSpec,
    VariableSubset,
    WindowModel,
    attribute,
    enumerate_subsets,
    generate,
    pre_event_scores,
    subset_cap,
    univariate_baseline,
    zscore,
)
from anomattr import attribution, detector
from anomattr.errors import ConfigError, EstimationError

from conftest import make_series


def detection_for(interval, score=1.0):
    return Detection(interval=interval, score=score, rank=1)


def injected_series(seed, d=4, n=1200, iv=Interval(600, 660), target=(0,), kind="mean_shift", mag=4.0):
    coeffs = (np.eye(d) * 0.5,)
    cov = np.full((d, d), 0.3) + 0.7 * np.eye(d)
    spec = SynthSpec(
        n=n,
        d=d,
        coeffs=coeffs,
        innovation_cov=cov,
        seed=seed,
        anomalies=(Injection(iv, target, kind, mag),),
    )
    series, _ = generate(spec)
    series, _ = zscore(series)
    return series


class TestEnumeration:
    def test_default_cap_is_half(self):
        assert subset_cap(3) == 2
        assert subset_cap(4) == 2
        assert subset_cap(6) == 3
        assert subset_cap(6, max_subset_size=2) == 2

    @pytest.mark.parametrize("field", [{"baseline_bins": 1}, {"max_subset_size": 0}])
    def test_config_refuses_bad_bins_and_cap(self, field):
        with pytest.raises(ConfigError):
            AttributionConfig(**field)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_config_refuses_bad_threads(self, threads):
        with pytest.raises(ConfigError, match="threads"):
            AttributionConfig(threads=threads)

    def test_three_variables_give_six_subsets(self):
        assert len(enumerate_subsets(3, subset_cap(3))) == 6

    @pytest.mark.parametrize("d,cap", [(2, 1), (4, 2), (5, 3), (6, 3), (7, 2)])
    def test_count_matches_binomials(self, d, cap):
        expect = sum(math.comb(d, k) for k in range(1, cap + 1))
        subsets = enumerate_subsets(d, cap)
        assert len(subsets) == expect
        assert len(set(subsets)) == expect

    def test_subset_validation(self):
        with pytest.raises(ConfigError):
            VariableSubset(())
        with pytest.raises(ConfigError):
            VariableSubset((1, 1))


class TestAttribute:
    def test_singleton_recovery(self):
        series = injected_series(seed=21)
        iv = Interval(600, 660)
        report = attribute(series, detection_for(iv), AttributionConfig(realizations=5, seed=0))
        singles = report.by_size(1)
        best = min(singles, key=lambda s: s.mean_score)
        assert best.subset.indices == (0,)
        assert best.rank == 1

    def test_replacing_true_subset_lowers_score(self):
        series = injected_series(seed=33)
        iv = Interval(600, 660)
        report = attribute(series, detection_for(iv), AttributionConfig(realizations=5, seed=0))
        true_entry = [s for s in report.subsets if s.subset.indices == (0,)][0]
        assert true_entry.mean_score < report.original_score

    def test_fixed_seed_reports_are_identical(self):
        series = injected_series(seed=5)
        iv = Interval(600, 660)
        cfg = AttributionConfig(realizations=1, seed=9)
        r1 = attribute(series, detection_for(iv), cfg)
        r2 = attribute(series, detection_for(iv), cfg)
        assert r1 == r2

    def test_threads_do_not_change_the_report(self):
        series = injected_series(seed=5)
        iv = Interval(600, 660)
        r1 = attribute(series, detection_for(iv), AttributionConfig(realizations=2, seed=9))
        r2 = attribute(
            series, detection_for(iv), AttributionConfig(realizations=2, seed=9, threads=4)
        )
        assert r1 == r2

    def test_two_threads_share_one_window_model(self):
        """The pool's workers share the window model and the local re-scorer
        read-only: two threads give a report equal to one thread's, also
        with missing cells and a window whose context reaches the start."""
        series = injected_series(seed=6, iv=Interval(1, 40))
        values = series.values.copy()
        values[np.random.default_rng(6).random(values.shape) < 0.02] = np.nan
        series = make_series(values, names=series.names)
        det = detection_for(Interval(1, 40))
        r1 = attribute(series, det, AttributionConfig(realizations=2, seed=4, threads=1))
        r2 = attribute(series, det, AttributionConfig(realizations=2, seed=4, threads=2))
        assert r1 == r2
        assert all(s.error is None for s in r1.subsets)

    def test_report_carries_realization_zero_of_the_best_subset(self):
        """The report's preview is realization 0 of its best subset, exactly as
        drawn in that subset's stack of R realizations; it stays out of the
        report's dictionary."""
        series = injected_series(seed=2)
        iv = Interval(600, 660)
        cfg = AttributionConfig(realizations=3, seed=1)
        report = attribute(series, detection_for(iv), cfg)
        best = report.best()
        si = report.subsets.index(best)
        model = WindowModel.fit(series, iv, cfg.embedding)
        seeds = [np.random.SeedSequence([1, si, r]) for r in range(3)]
        assert np.array_equal(report.preview, model.draws(best.subset.indices, seeds)[0])
        assert "preview" not in report.to_dict()

    def test_ranks_are_ascending_in_mean_score(self):
        series = injected_series(seed=2)
        iv = Interval(600, 660)
        report = attribute(series, detection_for(iv), AttributionConfig(realizations=3, seed=1))
        for size in (1, 2):
            group = sorted(report.by_size(size), key=lambda s: s.rank)
            means = [s.mean_score for s in group]
            assert means == sorted(means)

    @staticmethod
    def failing_draws(monkeypatch, failed):
        """Make LocalRescorer.score give a NaN jittered factor to the (columns,
        draw) pairs in ``failed``, with the draws of each subset counted in
        stack order."""
        real_score, real_cholesky = LocalRescorer.score, detector.jittered_cholesky

        def flaky_score(rescorer, columns, blocks):
            keys = [tuple(c) for c in columns]
            hit = [p for p, key in enumerate(keys) if (key, keys[:p].count(key)) in failed]

            def failing(covs):
                chol = real_cholesky(covs)
                chol[..., hit] = np.nan
                return chol

            with monkeypatch.context() as m:
                m.setattr(detector, "jittered_cholesky", failing)
                return real_score(rescorer, columns, blocks)

        monkeypatch.setattr(LocalRescorer, "score", flaky_score)

    @staticmethod
    def refusing_factor(monkeypatch, series, interval, subset) -> list[int]:
        """Make ``np.linalg.cholesky`` raise for any stack that holds the
        hidden-cell precision of ``subset``; returns the sizes of the stacks
        it refused."""
        model = WindowModel.fit(series, interval, EmbeddingConfig())
        q_idx = model.replaced(subset)
        hidden = np.concatenate([np.setdiff1d(model.absent, q_idx), q_idx])
        target = model.precision[np.ix_(hidden, hidden)]
        real, refused = np.linalg.cholesky, []

        def refusing(a):
            stack = np.reshape(a, (-1, *np.shape(a)[-2:]))
            if any(np.array_equal(matrix, target) for matrix in stack):
                refused.append(len(stack))
                raise np.linalg.LinAlgError("not positive definite")
            return real(a)

        monkeypatch.setattr(np.linalg, "cholesky", refusing)
        return refused

    def test_failed_subsets_are_contained(self, monkeypatch):
        """A subset that fails in its draws (1,), in its hidden-cell precision's
        Cholesky (2,), inside the stack it shares with the other singletons,
        or in a re-score's jittered factor (3,) records its error; every
        other subset is still scored."""
        series = injected_series(seed=2)
        iv = Interval(600, 660)
        real = WindowModel.draw_stack

        def flaky(model, subsets, seeds):
            drawn = real(model, subsets, seeds)
            failure = EstimationError("synthetic failure")
            return [failure if tuple(s) == (1,) else d for s, d in zip(subsets, drawn)]

        monkeypatch.setattr(WindowModel, "draw_stack", flaky)
        refused = self.refusing_factor(monkeypatch, series, iv, (2,))
        self.failing_draws(monkeypatch, {((3,), 0), ((3,), 1)})
        report = attribute(series, detection_for(iv), AttributionConfig(realizations=2, seed=1))
        assert refused == [4, 1]  # the stack of all four singletons, then (2,) alone
        failed = [s for s in report.subsets if s.subset.indices == (1,)][0]
        assert failed.mean_score is None
        assert "synthetic failure" in failed.error
        assert failed.rank is None
        for indices, message in (((2,), "subset (2,)"), ((3,), "unscorable")):
            failed = [s for s in report.subsets if s.subset.indices == indices][0]
            assert failed.mean_score is None and failed.rank is None
            assert message in failed.error
        others = [s for s in report.subsets if s.subset.indices not in ((1,), (2,), (3,))]
        assert all(s.mean_score is not None for s in others)

    def test_a_failed_factor_leaves_its_stack_scored(self, monkeypatch):
        """The hidden-cell precision of (2,) fails to factor inside the stack it
        shares with the other singletons; only (2,) records the error, and
        every other subset keeps the scores it gets without the failure."""
        series = injected_series(seed=2)
        iv = Interval(600, 660)
        cfg = AttributionConfig(realizations=2, seed=1)
        want = attribute(series, detection_for(iv), cfg)
        refused = self.refusing_factor(monkeypatch, series, iv, (2,))
        got = attribute(series, detection_for(iv), cfg)
        assert refused == [4, 1]
        for before, after in zip(want.subsets, got.subsets):
            if after.subset.indices == (2,):
                assert after.mean_score is None and after.error == (
                    "hidden-cell precision of subset (2,) is not positive definite"
                )
            else:
                assert after.error is None
                assert (after.mean_score, after.std_score) == (before.mean_score, before.std_score)

    def test_one_failed_draw_fails_only_its_subset(self, monkeypatch):
        """Draw 1 of (0, 2) fails inside the stack it shares with every other
        subset of size 2; only (0, 2) records the error, and the others keep
        the scores they get without the failure."""
        series = injected_series(seed=2)
        iv = Interval(600, 660)
        cfg = AttributionConfig(realizations=2, seed=1)
        want = attribute(series, detection_for(iv), cfg)
        self.failing_draws(monkeypatch, {((0, 2), 1)})
        got = attribute(series, detection_for(iv), cfg)
        for before, after in zip(want.subsets, got.subsets):
            if after.subset.indices == (0, 2):
                assert after.mean_score is None and "unscorable" in after.error
            else:
                assert after.error is None and after.mean_score == before.mean_score

    def test_needs_two_variables(self, rng):
        series = make_series(rng.standard_normal((200, 1)))
        with pytest.raises(ConfigError):
            attribute(series, detection_for(Interval(50, 80)), AttributionConfig())

    def test_a_family_above_the_limit_is_refused_before_any_fit(self, rng, monkeypatch):
        """21 variables at the default cap of 11 give 1,401,291 subsets."""
        def refuse(*args, **kwargs):
            raise AssertionError("the window was fitted")

        monkeypatch.setattr(attribution, "score_interval", refuse)
        monkeypatch.setattr(attribution.WindowModel, "fit", refuse)
        series = make_series(rng.standard_normal((100, 21)))
        with pytest.raises(ConfigError, match=r"1,401,291 subsets.*max_subset_size"):
            attribute(series, detection_for(Interval(40, 60)), AttributionConfig())

    def test_the_largest_family_admitted_is_twenty_variables_at_the_default_cap(
        self, rng, monkeypatch
    ):
        class Fitted(Exception):
            pass

        def stop(*args, **kwargs):
            raise Fitted

        monkeypatch.setattr(attribution, "score_interval", stop)
        assert attribution.MAX_SUBSETS == sum(math.comb(20, k) for k in range(1, 11))
        series = make_series(rng.standard_normal((100, 20)))
        with pytest.raises(Fitted):  # past the family check, at the first fit
            attribute(series, detection_for(Interval(40, 60)), AttributionConfig())

    def test_a_capped_wide_series_scores_every_subset(self, rng):
        values = rng.standard_normal((300, 21))
        values[100:140, 3] += 4.0
        series = make_series(values)
        cfg = AttributionConfig(
            embedding=EmbeddingConfig(kappa=1, tau=1), realizations=2, max_subset_size=2
        )
        report = attribute(series, detection_for(Interval(100, 140)), cfg)
        assert len(report.subsets) == 21 + math.comb(21, 2) == 231
        assert all(s.mean_score is not None for s in report.subsets)
        assert report.max_subset_size == 2
        best = min(report.by_size(1), key=lambda s: s.rank)
        assert best.subset.indices == (3,)  # the shifted variable

    def test_monotone_information_property(self):
        """Replacing a superset of the anomalous subset never scores worse than
        replacing a disjoint subset (statistically, over seeds)."""
        wins = 0
        seeds = range(10)
        for seed in seeds:
            series = injected_series(seed=100 + seed, d=4, target=(0,))
            iv = Interval(600, 660)
            report = attribute(
                series, detection_for(iv), AttributionConfig(realizations=4, seed=seed)
            )
            supersets = [s.mean_score for s in report.subsets if 0 in s.subset.indices]
            disjoint = [s.mean_score for s in report.subsets if 0 not in s.subset.indices]
            wins += max(supersets) <= min(disjoint)
        assert wins >= 9


class TestPreEvent:
    def test_offset_zero_matches_detection_window(self):
        series = injected_series(seed=13)
        det = detection_for(Interval(600, 660))
        cfg = AttributionConfig(realizations=2, seed=3)
        base = attribute(series, det, cfg)
        pre = pre_event_scores(series, det, offset=0, cfg=cfg)
        assert pre.label == "pre_event"
        assert pre.interval == base.interval
        assert pre.original_score == base.original_score
        assert pre.subsets == base.subsets

    def test_shifted_window_coordinates(self):
        series = injected_series(seed=13)
        det = detection_for(Interval(600, 660))
        pre = pre_event_scores(series, det, offset=100, cfg=AttributionConfig(realizations=1))
        assert pre.interval == Interval(500, 560)
        assert pre.offset == 100

    def test_explicit_length(self):
        series = injected_series(seed=13)
        det = detection_for(Interval(600, 660))
        pre = pre_event_scores(
            series, det, offset=30, cfg=AttributionConfig(realizations=1), length=30
        )
        assert pre.interval == Interval(570, 600)

    def test_out_of_range_offset(self):
        series = injected_series(seed=13)
        det = detection_for(Interval(600, 660))
        with pytest.raises(ConfigError, match="out of range"):
            pre_event_scores(series, det, offset=601, cfg=AttributionConfig(realizations=1))

    def test_quiet_window_scores_far_below_detection(self):
        series = injected_series(seed=40, iv=Interval(600, 660), mag=5.0)
        det = detection_for(Interval(600, 660))
        cfg = AttributionConfig(realizations=1, seed=0)
        base = attribute(series, det, cfg)
        pre = pre_event_scores(series, det, offset=300, cfg=cfg)
        assert pre.original_score < 0.1 * base.original_score

    def test_lagged_cause_is_visible_before_the_event(self):
        """Variable 2 goes anomalous 50 steps before variable 1: the pre-event
        window at offset 50 attributes to variable 2."""
        d = 4
        spec = SynthSpec(
            n=1500,
            d=d,
            coeffs=(np.eye(d) * 0.5,),
            seed=77,
            anomalies=(
                Injection(Interval(750, 810), (2,), "mean_shift", 4.0),
                Injection(Interval(800, 860), (1,), "mean_shift", 4.0),
            ),
        )
        series, _ = generate(spec)
        series, _ = zscore(series)
        det = detection_for(Interval(800, 860))
        cfg = AttributionConfig(realizations=5, seed=1)
        pre = pre_event_scores(series, det, offset=50, cfg=cfg)
        best = min(pre.by_size(1), key=lambda s: s.mean_score)
        assert best.subset.indices == (2,)


class TestBaseline:
    def test_null_interval_scores_near_zero(self):
        """A 30-bin histogram over |I| samples carries a chi-square bias of
        about (bins-1)/(2|I|); the null score sits at that level, far below
        any real shift. Measured: mean 0.066, max 0.113 over 30 seeds at
        |I|=200; mean 0.025, max 0.039 at |I|=500."""
        rng = np.random.default_rng(3)
        series = make_series(rng.standard_normal((5000, 3)))
        scores = univariate_baseline(series, Interval(2000, 2200), bins=30)
        assert scores.max() < 0.13
        longer = univariate_baseline(series, Interval(2000, 2500), bins=30)
        assert longer.max() < 0.05

    def test_shifted_variable_ranks_first(self, rng):
        values = rng.standard_normal((3000, 3))
        values[1000:1150, 1] += 5.0
        series = make_series(values)
        scores = univariate_baseline(series, Interval(1000, 1150), bins=30)
        assert scores.argmax() == 1

    def test_single_bin_rejected(self, small_series):
        with pytest.raises(ConfigError):
            univariate_baseline(small_series, Interval(50, 100), bins=1)

    def test_constant_variable_scores_zero_with_warning(self, caplog, rng):
        values = np.column_stack([rng.standard_normal(200), np.full(200, 2.0)])
        series = make_series(values)
        with caplog.at_level("WARNING"):
            scores = univariate_baseline(series, Interval(50, 100), bins=10)
        assert scores[1] == 0.0
        assert any("constant" in rec.message for rec in caplog.records)

    def test_interval_without_data_errors(self, rng):
        values = rng.standard_normal((100, 2))
        missing = np.zeros((100, 2), dtype=bool)
        missing[40:60, 0] = True
        series = make_series(values, missing=missing)
        with pytest.raises(EstimationError):
            univariate_baseline(series, Interval(40, 60), bins=10)
