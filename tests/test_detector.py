import numpy as np
import pytest

from anomattr import (
    EmbeddingConfig,
    ReplacementWindow,
    WindowModel,
    apply_replacement,
    Injection,
    Interval,
    ScanConfig,
    SynthSpec,
    detect,
    generate,
    score_interval,
)
from anomattr import detector, gaussian
from anomattr.detector import LocalRescorer, PrefixScanner
from anomattr.errors import ConfigError, NumericalError, ScoringError
from anomattr.series import embed

import oracles
from conftest import make_series, shifted_series

EMB = EmbeddingConfig(kappa=3, tau=1)


class TestScoreInterval:
    def test_iid_series_scores_small(self):
        """Calibration: on pure noise the divergence component stays below 0.5.

        Measured null rate at these parameters is 94-95% across 1000 seeds
        (188/200 on this fixed seed set); the bound leaves a small margin for
        BLAS-level variation.
        """
        hits = 0
        interval = Interval(1000, 1050)
        for seed in range(200):
            rng = np.random.default_rng(seed)
            series = make_series(rng.standard_normal((2000, 2)))
            score = score_interval(series, interval, EMB)
            kl = score / (2 * interval.length)
            hits += kl < 0.5
        assert hits >= 185

    def test_shifted_interval_beats_every_disjoint_one(self, rng):
        series, interval = shifted_series(rng, n=500, d=2, a=240, b=280, shift=5.0)
        target = score_interval(series, interval, EMB)
        length = interval.length
        for start in range(0, 500 - length + 1, 4):
            other = Interval(start, start + length)
            if other.intersects(interval):
                continue
            assert score_interval(series, other, EMB) < target

    def test_full_cover_reports_empty_complement(self, small_series):
        with pytest.raises(ScoringError, match="empty complement"):
            score_interval(small_series, Interval(0, small_series.n), EMB)

    def test_tiny_interval_reports_side(self, small_series):
        with pytest.raises(ScoringError, match="interval"):
            score_interval(small_series, Interval(50, 51), EMB)

    def test_interval_out_of_bounds(self, small_series):
        with pytest.raises(ValueError):
            score_interval(small_series, Interval(0, small_series.n + 5), EMB)

    def test_deterministic(self, rng):
        series, interval = shifted_series(rng)
        assert score_interval(series, interval, EMB) == score_interval(series, interval, EMB)


class TestPrefixEquivalence:
    def test_incremental_matches_naive(self):
        """Prefix-sum scoring must agree with per-interval re-estimation."""
        master = np.random.default_rng(7)
        for case in range(100):
            rng = np.random.default_rng(master.integers(2**32))
            n = int(rng.integers(60, 200))
            d = int(rng.integers(1, 4))
            values = rng.standard_normal((n, d)) * rng.uniform(0.5, 2.0, size=d)
            if case % 3 == 0:
                values[rng.integers(0, n, 5), :] = np.nan
            series = make_series(values)
            emb = embed(series, EMB)
            scanner = PrefixScanner(emb)
            length = int(rng.integers(10, max(11, n // 3)))
            start = int(rng.integers(0, n - length + 1))
            batch = scanner.score_batch(np.array([start]), length)[0]
            interval = Interval(start, start + length)
            try:
                naive = score_interval(series, interval, EMB)
            except ScoringError:
                assert np.isnan(batch)
                continue
            assert np.isclose(batch, naive, rtol=1e-8, atol=1e-10)


class TestUnderdetermined:
    """Clumped missing rows leave candidates with too few usable rows to fit
    the inside covariance; only the jitter would keep them factorizable."""

    @pytest.fixture
    def clumped(self):
        rng = np.random.default_rng(4)
        values = rng.standard_normal((600, 3))
        values[400:440] += 4.0
        missing = np.zeros((600, 3), dtype=bool)
        missing[100:130] = True
        missing[110:118] = False  # an island of 8 observed steps: 6 usable rows
        return make_series(values, missing=missing)

    def test_scan_naive_and_local_rescore_agree(self, clumped):
        iv = Interval(100, 125)
        scanner = PrefixScanner(embed(clumped, EMB))
        assert np.isnan(scanner.score_batch(np.array([iv.a]), iv.length)[0])
        with pytest.raises(ScoringError, match="width"):
            score_interval(clumped, iv, EMB)
        with pytest.raises(ScoringError, match="width"):
            LocalRescorer(clumped, iv, EMB).score((0,), np.zeros((iv.length, 1)))

    def test_detect_ranks_only_determined_candidates(self, clumped):
        emb = embed(clumped, EMB)
        dets = detect(clumped, ScanConfig(len_min=20, len_max=40, top_k=3, embedding=EMB))
        assert dets[0].interval.intersects(Interval(400, 440))
        for det in dets:
            inside = (emb.times >= det.interval.a) & (emb.times < det.interval.b)
            assert (inside & ~emb.missing).sum() > emb.width
            assert np.isclose(det.score, score_interval(clumped, det.interval, EMB), rtol=1e-8)


class TestLocalRescorer:
    """The local re-score equals a full re-score of the modified series."""

    @staticmethod
    def check(series, interval, subset, cfg, sample):
        window = ReplacementWindow(interval, cfg.kappa, subset, series.n, series.d)
        want = score_interval(apply_replacement(series, window, sample), interval, cfg)
        got = LocalRescorer(series, interval, cfg).score(subset, sample)
        assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("tau", [1, 2])
    @pytest.mark.parametrize("offset", [0.0, 1e4, 1e6])
    def test_matches_full_rescore(self, tau, offset):
        rng = np.random.default_rng(int(offset) + tau)
        n, d = 300, 3
        missing = rng.random((n, d)) < 0.02
        series = make_series(rng.standard_normal((n, d)) + offset, missing=missing)
        cfg = EmbeddingConfig(kappa=3, tau=tau)
        # Intervals whose replacement context and changed rows run off the
        # start or the end of the series, and one in the middle.
        for interval in (Interval(0, 25), Interval(3, 30), Interval(120, 150),
                         Interval(n - 27, n - 2), Interval(n - 25, n)):
            for subset in ((0,), (1, 2)):
                sample = offset + rng.standard_normal((interval.length, len(subset)))
                self.check(series, interval, subset, cfg, sample)

    def test_replacement_makes_missing_rows_usable(self, rng):
        n, d = 300, 3
        missing = np.zeros((n, d), dtype=bool)
        missing[[125, 131, 148, 149], 0] = True  # inside the interval, replaced column
        missing[[151, 200], 1] = True
        series = make_series(rng.standard_normal((n, d)), missing=missing)
        interval = Interval(120, 150)
        sample = rng.standard_normal((interval.length, 1))
        window = ReplacementWindow(interval, EMB.kappa, (0,), n, d)
        before = (~embed(series, EMB).missing).sum()
        after = (~embed(apply_replacement(series, window, sample), EMB).missing).sum()
        assert after > before
        self.check(series, interval, (0,), EMB, sample)


class TestOneFactorization:
    """Each fitted covariance is factored once, and a covariance that does not
    factor after the jitter makes its score unscorable rather than repaired."""

    @pytest.fixture
    def case(self, rng):
        series, interval = shifted_series(rng, n=300, d=3, a=140, b=170, shift=3.0)
        block = rng.standard_normal((interval.length, 2))
        rescorer = LocalRescorer(series, interval, EMB)  # construction factors nothing
        model = WindowModel.fit(series, interval, EMB.kappa)
        paths = {
            "score_interval": lambda: score_interval(series, interval, EMB),
            "local_rescore": lambda: rescorer.score((0, 2), block),
            "sampler": lambda: model.sampler((1,)),
        }
        return series, interval, paths

    @pytest.mark.parametrize("path", ["score_interval", "local_rescore"])
    def test_two_factorizations_per_score(self, case, monkeypatch, path):
        real = np.linalg.cholesky
        factored = []

        def counting(a):
            factored.append(int(np.prod(np.shape(a)[:-2])))
            return real(a)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        case[2][path]()
        assert sum(factored) == 2

    @pytest.mark.parametrize("path", ["score_interval", "local_rescore", "sampler"])
    def test_nan_factor_is_a_numerical_error(self, case, monkeypatch, path):
        def failing(covs):
            return np.full_like(covs, np.nan)

        monkeypatch.setattr(detector, "jittered_cholesky", failing)
        monkeypatch.setattr(gaussian, "jittered_cholesky", failing)
        with pytest.raises(NumericalError):
            case[2][path]()

    def test_scan_drops_a_candidate_whose_factor_fails(self, case, monkeypatch):
        series, interval, _ = case
        scanner = PrefixScanner(embed(series, EMB))
        starts = np.array([20, interval.a, 200])
        want = scanner.score_batch(starts, interval.length)
        assert np.isfinite(want).all()
        real = detector.jittered_cholesky

        def failing_middle(covs):
            chol = real(covs)
            chol[1] = np.nan
            return chol

        monkeypatch.setattr(detector, "jittered_cholesky", failing_middle)
        got = scanner.score_batch(starts, interval.length)
        assert np.isnan(got[1])
        assert got[[0, 2]].tolist() == want[[0, 2]].tolist()


class TestDetect:
    def test_recovers_injected_shift(self):
        spec = SynthSpec(
            n=1000,
            d=3,
            seed=11,
            anomalies=(Injection(Interval(500, 550), (0, 1, 2), "mean_shift", 4.0),),
        )
        series, _ = generate(spec)
        dets = detect(series, ScanConfig(len_min=40, len_max=60, top_k=1, embedding=EMB))
        iou = oracles.interval_iou(dets[0].interval.a, dets[0].interval.b, 500, 550)
        assert iou >= 0.8

    def test_two_disjoint_anomalies(self):
        spec = SynthSpec(
            n=1500,
            d=2,
            seed=3,
            anomalies=(
                Injection(Interval(300, 350), (0, 1), "mean_shift", 4.0),
                Injection(Interval(900, 950), (0, 1), "mean_shift", 4.0),
            ),
        )
        series, _ = generate(spec)
        dets = detect(series, ScanConfig(len_min=40, len_max=60, top_k=2, embedding=EMB))
        assert len(dets) == 2
        assert not dets[0].interval.intersects(dets[1].interval)
        spans = sorted((d.interval.a, d.interval.b) for d in dets)
        assert oracles.interval_iou(*spans[0], 300, 350) >= 0.6
        assert oracles.interval_iou(*spans[1], 900, 950) >= 0.6

    def test_top_1_contract(self, rng):
        series, _ = shifted_series(rng)
        dets = detect(series, ScanConfig(len_min=30, len_max=40, top_k=1, embedding=EMB))
        assert len(dets) == 1 and dets[0].rank == 1

    def test_ranks_and_scores_ordered(self, rng):
        series, _ = shifted_series(rng, n=800)
        dets = detect(series, ScanConfig(len_min=20, len_max=30, top_k=4, embedding=EMB))
        assert [d.rank for d in dets] == list(range(1, len(dets) + 1))
        scores = [d.score for d in dets]
        assert scores == sorted(scores, reverse=True)

    def test_suppression_is_sound(self, rng):
        """No discarded candidate that is disjoint from every returned interval
        may outscore the weakest returned one."""
        series, _ = shifted_series(rng, n=120, d=2, a=60, b=72, shift=3.0)
        cfg = ScanConfig(len_min=8, len_max=12, top_k=3, embedding=EMB)
        dets = detect(series, cfg)
        for first, second in zip(dets, dets[1:]):
            assert not first.interval.intersects(second.interval)
        weakest = min(d.score for d in dets)
        for length in range(cfg.len_min, cfg.len_max + 1):
            for start in range(0, series.n - length + 1):
                cand = Interval(start, start + length)
                if any(cand.intersects(d.interval) for d in dets):
                    continue
                try:
                    s = score_interval(series, cand, EMB)
                except ScoringError:
                    continue
                assert s <= weakest + 1e-9

    def test_determinism(self, rng):
        series, _ = shifted_series(rng)
        cfg = ScanConfig(len_min=20, len_max=40, top_k=3, embedding=EMB)
        assert detect(series, cfg) == detect(series, cfg)

    def test_threads_do_not_change_results(self, rng):
        series, _ = shifted_series(rng)
        cfg = ScanConfig(len_min=20, len_max=40, top_k=3, embedding=EMB)
        assert detect(series, cfg) == detect(series, cfg, threads=4)

    def test_translation_invariance(self, rng):
        series, _ = shifted_series(rng, n=400)
        cfg = ScanConfig(len_min=20, len_max=30, top_k=2, embedding=EMB)
        base = detect(series, cfg)
        moved = detect(make_series(series.values + np.array([100.0, -40.0])), cfg)
        assert [d.interval for d in base] == [d.interval for d in moved]
        for d1, d2 in zip(base, moved):
            assert np.isclose(d1.score, d2.score, rtol=1e-8)

    @pytest.mark.parametrize("scale", [1.0, 37.5, 1e3])
    @pytest.mark.parametrize("offset", [1e2, 1e5, 1e8])
    def test_affine_invariance(self, scale, offset):
        """detect on scale * x + offset (no normalization) finds the same
        intervals with the same scores. Scales stay >= 1: below that the
        absolute jitter floor, not the data, sets part of the score."""
        rng = np.random.default_rng(29)
        series, _ = shifted_series(rng, n=600, d=3, a=300, b=340, shift=3.0)
        cfg = ScanConfig(len_min=30, len_max=45, top_k=3, embedding=EMB)
        base = detect(series, cfg)
        moved = make_series(scale * series.values + offset * np.array([1.0, -0.3, 0.7]))
        got = detect(moved, cfg)
        assert [d.interval for d in got] == [d.interval for d in base]
        for d1, d2 in zip(base, got):
            assert d2.score == pytest.approx(d1.score, rel=1e-6)

    def test_len_bounds_validated(self, small_series):
        with pytest.raises(ConfigError):
            ScanConfig(len_min=10, len_max=5)
        with pytest.raises(ConfigError):
            detect(small_series, ScanConfig(len_min=10, len_max=10_000, embedding=EMB))

    def test_stride_thins_the_grid(self, rng):
        series, interval = shifted_series(rng, n=400, a=200, b=240)
        dets = detect(series, ScanConfig(len_min=40, len_max=40, stride=5, embedding=EMB))
        assert dets[0].interval.a % 5 == 0
