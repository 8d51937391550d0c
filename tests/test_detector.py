import logging
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anomattr import (
    EmbeddingConfig,
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
from anomattr import AttributionConfig, Detection, VariableSubset, attribute, detector
from anomattr.attribution import RESCORE_STACK, _summarize
from anomattr.detector import LocalRescorer, PrefixScanner
from anomattr.errors import ConfigError, NumericalError, ScoringError
from anomattr.gaussian import jitter_epsilon
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

    @pytest.mark.parametrize("tau", [1, 2])
    @pytest.mark.parametrize("offset", [0.0, 1e4])
    def test_matches_loop_fit_and_inverse_kl(self, offset, tau):
        """An independent path: rows embedded by plain indexing, each side
        fitted row by row plus the jitter_epsilon diagonal, the divergence
        through explicit inverses, times 2 |I|. The series has missing cells
        and a +4 sigma plant; every inside has more usable rows than the width."""
        rng = np.random.default_rng(40 + tau)
        n, d, kappa = 240, 3, 3
        values = rng.standard_normal((n, d)) + offset
        values[100:140, 0] += 4.0
        missing = rng.random((n, d)) < 0.03
        series = make_series(np.where(missing, np.nan, values), missing=missing)
        cfg = EmbeddingConfig(kappa=kappa, tau=tau)
        rows, anchors = [], []
        for t in range((kappa - 1) * tau, n):
            cells = [t - k * tau for k in range(kappa)]
            if not missing[cells].any():
                rows.append(np.concatenate([values[c] for c in cells]))
                anchors.append(t)
        rows, anchors = np.array(rows), np.array(anchors)
        for interval in (Interval(100, 140), Interval(20, 60), Interval(190, 240)):
            inside = (anchors >= interval.a) & (anchors < interval.b)
            assert inside.sum() > kappa * d
            sides = []
            for part in (rows[inside], rows[~inside]):
                mean, cov = oracles.fit_by_loops(part)
                cov[np.diag_indices(len(cov))] += jitter_epsilon(cov)
                sides.append((mean, cov))
            want = 2 * interval.length * oracles.kl_by_inverse(*sides[0], *sides[1])
            assert score_interval(series, interval, cfg) == pytest.approx(want, rel=1e-9)


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
            scanner = PrefixScanner(detector._ScanRows(emb))
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
        scanner = PrefixScanner(detector._ScanRows(embed(clumped, EMB)))
        assert np.isnan(scanner.score_batch(np.array([iv.a]), iv.length)[0])
        with pytest.raises(ScoringError, match="width"):
            score_interval(clumped, iv, EMB)
        with pytest.raises(ScoringError, match="width"):
            LocalRescorer(clumped, iv, EMB).check((0,))

    @pytest.mark.parametrize("tau", [1, 2])
    def test_rescorer_counts_match_a_re_embedding(self, tau):
        """The rescorer counts usable rows from the missing flags alone; they
        equal a count over the series with the replaced cells observed."""
        cfg = EmbeddingConfig(kappa=3, tau=tau)
        rng = np.random.default_rng(8)
        values = rng.standard_normal((120, 3))
        missing = np.zeros(values.shape, dtype=bool)
        iv = Interval(50, 80)
        missing[[46, 48, 55, 60, 61, 62, 70, 79, 81, 83], [0, 1, 2, 2, 0, 2, 1, 2, 0, 1]] = True
        missing[10, 1] = True  # a fixed outside row
        series = make_series(values, missing=missing)
        rescorer = LocalRescorer(series, iv, cfg)
        assert missing[iv.a : iv.b].any(axis=0).all()  # every variable misses a cell inside
        for columns in [(), (0,), (1,), (2,), (0, 2), (1, 2), (0, 1, 2)]:
            filled = missing.copy()
            filled[iv.a : iv.b, list(columns)] = False
            want = oracles.usable_counts(filled, iv.a, iv.b, cfg.kappa, tau)
            assert rescorer._usable(columns) == want, columns

    def test_rescorer_refuses_like_score_interval(self):
        """check raises score_interval's error text on the series with the
        replaced cells observed."""
        rng = np.random.default_rng(9)
        values = rng.standard_normal((150, 2))
        missing = np.zeros(values.shape, dtype=bool)
        iv = Interval(60, 90)
        missing[60:90:2, 0] = True  # every other step of variable 0 inside
        missing[58, 1] = True  # in the context before a
        series = make_series(values, missing=missing)
        rescorer = LocalRescorer(series, iv, EMB)
        with pytest.raises(ScoringError) as refused:
            score_interval(series, iv, EMB)
        with pytest.raises(ScoringError) as checked:
            rescorer.check((1,))
        assert str(checked.value) == str(refused.value)
        rescorer.check((0,))  # filled: enough rows
        filled = missing.copy()
        filled[iv.a : iv.b, 0] = False
        score_interval(make_series(values, missing=filled), iv, EMB)

    def test_detect_ranks_only_determined_candidates(self, clumped):
        emb = embed(clumped, EMB)
        dets = detect(clumped, ScanConfig(len_min=20, len_max=40, top_k=3, embedding=EMB))
        assert dets[0].interval.intersects(Interval(400, 440))
        for det in dets:
            inside = (emb.times >= det.interval.a) & (emb.times < det.interval.b)
            assert (inside & ~emb.missing).sum() > emb.width
            assert np.isclose(det.score, score_interval(clumped, det.interval, EMB), rtol=1e-8)


class TestLocalRescorer:
    """The local re-score equals a full re-score of each modified series."""

    @staticmethod
    def check(series, interval, cfg, cases):
        """Scores the (subset, sample) cases of one interval as one stack."""
        rescorer = LocalRescorer(series, interval, cfg)
        for subset, _ in cases:
            rescorer.check(subset)
        got = rescorer.score([subset for subset, _ in cases], np.stack([s for _, s in cases]))
        want = [
            score_interval(apply_replacement(series, interval, subset, sample), interval, cfg)
            for subset, sample in cases
        ]
        assert got.tolist() == pytest.approx(want, rel=1e-12)

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
            for size in (1, 2):
                subsets = [(0,), (2,)] if size == 1 else [(1, 2), (0, 1)]
                cases = [
                    (subset, offset + rng.standard_normal((interval.length, size)))
                    for subset in subsets
                ]
                self.check(series, interval, cfg, cases)

    def test_replacement_makes_missing_rows_usable(self, rng):
        n, d = 300, 3
        missing = np.zeros((n, d), dtype=bool)
        missing[[125, 131, 148, 149], 0] = True  # inside the interval, replaced column
        missing[[151, 200], 1] = True
        series = make_series(rng.standard_normal((n, d)), missing=missing)
        interval = Interval(120, 150)
        sample = rng.standard_normal((interval.length, 1))
        before = (~embed(series, EMB).missing).sum()
        after = (~embed(apply_replacement(series, interval, (0,), sample), EMB).missing).sum()
        assert after > before
        self.check(series, interval, EMB, [((0,), sample), ((1,), sample)])

    def test_pair_alone_matches_pair_in_a_stack(self, rng):
        series, interval = shifted_series(rng, n=300, d=3, a=140, b=170, shift=3.0)
        rescorer = LocalRescorer(series, interval, EMB)
        columns = ([(0, 2), (1, 2), (0, 1)] * 22)[:RESCORE_STACK]
        blocks = rng.standard_normal((len(columns), interval.length, 2))
        stacked = rescorer.score(columns, blocks)
        for p in (0, 31, len(columns) - 1):
            alone = rescorer.score(columns[p : p + 1], blocks[p : p + 1])
            np.testing.assert_allclose(alone, stacked[p : p + 1], rtol=1e-12)

    def test_missing_cells_in_fixed_and_changed_rows(self, rng):
        """Missing cells hold NaN: in the fixed rows, inside the interval in
        columns that are not replaced, and in the changed rows past it. Every
        subset is still scored, and as a full re-score would score it."""
        n, d = 300, 3
        missing = np.zeros((n, d), dtype=bool)
        missing[[40, 250], 0] = True  # fixed rows
        missing[[125, 131], 1] = True  # inside the interval
        missing[[151, 150], 2] = True  # changed rows after it
        values = np.where(missing, np.nan, rng.standard_normal((n, d)))
        series = make_series(values, missing=missing)
        interval = Interval(120, 150)
        report = attribute(
            series,
            Detection(interval, 1.0, 1),
            AttributionConfig(embedding=EMB, realizations=2, seed=0),
        )
        assert [s.error for s in report.subsets] == [None] * len(report.subsets)
        cases = [(subset, rng.standard_normal((interval.length, len(subset))))
                 for subset in ((0,), (1,), (2,))]
        self.check(series, interval, EMB, cases)


@pytest.mark.parametrize("c", [1e4, 1e6, 1e8])
def test_translation_is_exact(c):
    """Values within a factor 2 of ``c`` hold the same data as their shift by
    ``-c``, since that subtraction is exact (Sterbenz). The naive score and a
    local re-score stack must then not see the offset at all."""
    rng = np.random.default_rng(12)
    values = c + rng.standard_normal((300, 3))
    values[140:170] += 3.0
    missing = rng.random(values.shape) < 0.02
    blocks = c + rng.standard_normal((4, 30, 2))
    for x in (values, blocks):
        assert np.all((c / 2 < x) & (x < 2 * c))
    interval, columns = Interval(140, 170), [(0, 1), (1, 2), (0, 2), (0, 1)]
    got, want = [], []
    for offset, scores in ((c, got), (0.0, want)):
        series = make_series(values - (c - offset), missing=missing)
        scores.append(score_interval(series, interval, EMB))
        rescorer = LocalRescorer(series, interval, EMB)
        scores.extend(rescorer.score(columns, blocks - (c - offset)))
    assert got == pytest.approx(want, rel=1e-12)


class TestOneFactorization:
    """Each fitted covariance is factored once, and a covariance that does not
    factor after the jitter makes its score unscorable rather than repaired.
    Each subset's replacements cost one factorization, of the precision block
    of its hidden cells, and a block that does not factor fails the subset."""

    @pytest.fixture
    def case(self, rng):
        series, interval = shifted_series(rng, n=300, d=3, a=140, b=170, shift=3.0)
        block = rng.standard_normal((interval.length, 2))
        rescorer = LocalRescorer(series, interval, EMB)  # construction factors nothing
        model = WindowModel.fit(series, interval, EMB)
        paths = {
            "score_interval": lambda: score_interval(series, interval, EMB),
            "local_rescore": lambda: _summarize(
                VariableSubset((0, 2)), rescorer.score([(0, 2)], block[None]), interval
            ),
            "sampler": lambda: model.draws((1,), [0, 1, 2]),
            "stack_sampler": lambda: model.draw_stack([(2,), (0,), (1,)], [[0, 1, 2]] * 3),
        }
        return series, interval, paths

    @pytest.mark.parametrize("path", ["score_interval", "local_rescore"])
    def test_two_factorizations_per_score(self, case, monkeypatch, path):
        real = detector.jittered_cholesky
        factored = []

        def counting(covs):
            factored.append(covs.shape[2])
            return real(covs)

        monkeypatch.setattr(detector, "jittered_cholesky", counting)
        case[2][path]()
        assert sum(factored) == 2

    def test_one_factorization_per_subset(self, case, monkeypatch):
        """R=3 draws of one subset factor one matrix and invert none; a stack of
        three subsets factors three matrices in one call."""
        real_cholesky, real_inv = np.linalg.cholesky, np.linalg.inv
        factored, inverted = [], []

        def counting(a):
            factored.append(int(np.prod(np.shape(a)[:-2])))
            return real_cholesky(a)

        def counting_inv(a):
            inverted.append(a)
            return real_inv(a)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        monkeypatch.setattr(np.linalg, "inv", counting_inv)
        draws = case[2]["sampler"]()
        assert draws.shape == (3, case[1].length, 1)
        assert factored == [1]
        assert inverted == []
        stack = case[2]["stack_sampler"]()
        assert [draws.shape for draws in stack] == [(3, case[1].length, 1)] * 3
        assert factored == [1, 3]
        assert inverted == []

    @pytest.mark.parametrize("path", ["score_interval", "local_rescore", "sampler"])
    def test_nan_factor_is_a_numerical_error(self, case, monkeypatch, path):
        """The scores fail through a NaN jittered factor, the draws through the
        hidden-cell precision's Cholesky."""

        def failing(covs):
            return np.full_like(covs, np.nan)

        def refusing(a):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(detector, "jittered_cholesky", failing)
        monkeypatch.setattr(np.linalg, "cholesky", refusing)
        with pytest.raises(NumericalError):
            case[2][path]()

    def test_scan_drops_a_candidate_whose_factor_fails(self, case, monkeypatch):
        series, interval, _ = case
        scanner = PrefixScanner(detector._ScanRows(embed(series, EMB)))
        starts = np.array([20, interval.a, 200])
        want = scanner.score_batch(starts, interval.length)
        assert np.isfinite(want).all()
        real = detector.jittered_cholesky

        def failing_middle(covs):
            chol = real(covs)
            chol[..., 1] = np.nan
            return chol

        monkeypatch.setattr(detector, "jittered_cholesky", failing_middle)
        got = scanner.score_batch(starts, interval.length)
        assert np.isnan(got[1])
        assert got[[0, 2]].tolist() == want[[0, 2]].tolist()

    def test_scan_drops_a_stacked_candidate_that_does_not_factor(self, case, monkeypatch):
        """In a large stack, the stack-last Cholesky gives the one indefinite
        covariance a NaN factor and leaves the others as they were."""
        series, interval, _ = case
        scanner = PrefixScanner(detector._ScanRows(embed(series, EMB)))
        starts = np.arange(0, series.n - interval.length + 1, 3)
        assert starts.size >= 80
        want = scanner.score_batch(starts, interval.length)
        assert np.isfinite(want).all()
        real = detector.jittered_cholesky

        def indefinite_one(covs):
            covs[..., 40] = np.diag(np.arange(covs.shape[0]) - 1.0)
            return real(covs)

        monkeypatch.setattr(detector, "jittered_cholesky", indefinite_one)
        got = scanner.score_batch(starts, interval.length)
        assert np.isnan(got[40])
        keep = np.arange(starts.size) != 40
        assert got[keep].tolist() == want[keep].tolist()


class TestSelect:
    """Suppression sorts only a window of the best candidates, widened until
    it yields top_k; it must pick what a walk over a full sort picks."""

    @staticmethod
    def picked(scores, starts, lens, top_k):
        dets = detector._select(scores, starts, lens, top_k)
        assert [d.rank for d in dets] == list(range(1, len(dets) + 1))
        return [(d.interval.a, d.interval.b, d.score) for d in dets]

    @pytest.mark.parametrize("window", [1, 3, 8])
    @pytest.mark.parametrize("top_k", [1, 2, 5])
    def test_ties_at_the_cut(self, monkeypatch, window, top_k):
        monkeypatch.setattr(detector, "SELECT_WINDOW", window)
        rng = np.random.default_rng(100 * window + top_k)
        starts, lens = (g.ravel() for g in np.meshgrid(np.arange(0, 400, 7), np.arange(5, 12)))
        scores = rng.integers(0, 6, size=starts.size) / 4.0  # few values: many exact ties
        cut = np.sort(scores)[::-1][window * top_k - 1]
        assert (scores == cut).sum() > 1
        want = oracles.select_by_full_sort(scores, starts, lens, top_k)
        assert self.picked(scores, starts, lens, top_k) == want
        assert len(want) == top_k

    def test_widens_when_the_first_window_meets_rank_one(self, monkeypatch):
        rng = np.random.default_rng(3)
        top_k = 3
        # 500 strong candidates that all overlap [1000, 1020), then weak ones elsewhere.
        near_starts = rng.integers(960, 1010, size=500)
        near_lens = rng.integers(20, 60, size=500)
        _, unique = np.unique(np.c_[near_starts, near_lens], axis=0, return_index=True)
        far_starts = np.arange(0, 900, 3)
        starts = np.r_[near_starts[unique], far_starts]
        lens = np.r_[near_lens[unique], np.full(far_starts.size, 10)]
        scores = np.r_[rng.uniform(50, 60, unique.size), rng.uniform(0, 40, far_starts.size)]
        scores[0] = 100.0
        assert unique.size > detector.SELECT_WINDOW * top_k
        real, walks = detector._suppress, []

        def counting(*args):
            walks.append(len(args[3]))
            return real(*args)

        monkeypatch.setattr(detector, "_suppress", counting)
        want = oracles.select_by_full_sort(scores, starts, lens, top_k)
        assert self.picked(scores, starts, lens, top_k) == want
        assert len(walks) > 1  # the first window ran out
        assert want[0][2] == 100.0 and len(want) == top_k

    def test_fewer_disjoint_candidates_than_top_k(self):
        starts = np.array([0, 1, 2, 3])
        lens = np.array([10, 10, 10, 10])
        scores = np.array([1.0, 3.0, 2.0, 3.0])
        want = oracles.select_by_full_sort(scores, starts, lens, 4)
        assert self.picked(scores, starts, lens, 4) == want == [(1, 11, 3.0)]


class TestBlockedScan:
    """The scan scores its grid in blocks of SCAN_BLOCK starts, each from its
    own prefix over the rows it reads; a candidate scores the same whichever
    block it falls in, and the blocks do not depend on the thread count."""

    BLOCK = 32

    @pytest.fixture
    def series(self):
        rng = np.random.default_rng(31)
        values = rng.standard_normal((300, 2))
        values[150:170] += 2.5
        missing = np.zeros(values.shape, dtype=bool)
        missing[rng.integers(0, 300, 8), rng.integers(0, 2, 8)] = True
        missing[[31, 32, 64, 97], 0] = True  # next to block edges
        return make_series(values, missing=missing)

    @pytest.mark.parametrize("stride", [1, 3])
    @pytest.mark.parametrize("tau", [1, 2])
    def test_block_edges_match_naive(self, series, monkeypatch, tau, stride):
        monkeypatch.setattr(detector, "SCAN_BLOCK", self.BLOCK)
        cfg = ScanConfig(len_min=18, len_max=22, top_k=2, stride=stride,
                         embedding=EmbeddingConfig(kappa=3, tau=tau))
        emb = embed(series, cfg.embedding)
        real = PrefixScanner.score_batch
        calls = []

        def recording(scanner, starts, length, **kwargs):
            scores = real(scanner, starts, length, **kwargs)
            calls.append((scanner, starts, length, kwargs.get("floor", -np.inf), scores))
            return scores

        monkeypatch.setattr(PrefixScanner, "score_batch", recording)
        detect(series, cfg)
        edges = range(self.BLOCK, series.n, self.BLOCK)
        checked = past_block = 0
        for scanner, starts, length, floor, scores in calls:
            s0 = starts[0] // self.BLOCK * self.BLOCK
            assert np.all(starts // self.BLOCK == s0 // self.BLOCK)  # one block per call
            near = np.isin(starts, [e + k for e in edges for k in (-1, 0, 1)])
            lo, hi = scanner._row_range(starts, length)
            for i in np.flatnonzero(near):
                interval = Interval(int(starts[i]), int(starts[i]) + length)
                inside = (emb.times >= interval.a) & (emb.times < interval.b) & ~emb.missing
                # The inside count that a tracer reads off the scanner.
                assert scanner.counts[hi[i]] - scanner.counts[lo[i]] == inside.sum()
                naive = score_interval(series, interval, cfg.embedding)
                if scores[i] == -np.inf:  # pruned: it could not reach the floor
                    assert naive < floor
                else:
                    assert scores[i] == pytest.approx(naive, rel=1e-8)
                checked += 1
                past_block += interval.b > s0 + self.BLOCK
        assert checked >= 20 and past_block >= 10

    def test_threads_and_blocks_do_not_change_detections(self, series, monkeypatch):
        cfg = ScanConfig(len_min=18, len_max=22, top_k=3, embedding=EMB)
        whole = detect(series, cfg)
        monkeypatch.setattr(detector, "SCAN_BLOCK", self.BLOCK)
        blocks = len(range(0, series.n - cfg.len_min + 1, self.BLOCK))
        assert blocks >= 3
        serial = detect(series, cfg, threads=1)
        assert detect(series, cfg, threads=3) == serial
        assert [d.interval for d in serial] == [d.interval for d in whole]
        for got, want in zip(serial, whole):
            assert got.score == pytest.approx(want.score, rel=1e-10)


class TestScoreBound:
    """The bound U of _ScoreBound is at least the exact score of every scorable
    candidate, and without a positive definite outer-product total there is no
    bound and nothing is pruned. The bounds taken here with no floor have g
    tightened by the Wolkowicz-Styan bound for every candidate."""

    @staticmethod
    def series(seed, n, d, log_scale, offset, share_missing, shape):
        """A series of one of the property tests' shapes."""
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        values = offset + scale * rng.standard_normal((n, d))
        if shape == "plant":
            a = int(rng.integers(0, n - 20))
            values[a : a + 20] += 3 * scale
        elif shape == "spike":  # one step holds most of the energy: g >= 1 around it
            values[int(rng.integers(0, n))] += 1e3 * scale
        elif shape == "near_constant":
            values[:, 0] = offset + 1e-7 * scale * rng.standard_normal(n)
        elif shape == "constant":
            values[:, 0] = offset
        missing = rng.random((n, d)) < share_missing
        return make_series(values, missing=missing)

    @staticmethod
    def pairs(series, cfg, stride):
        """(U, exact score) of every scorable candidate of a few lengths, and the bound."""
        rows = detector._ScanRows(embed(series, cfg))
        scanner = PrefixScanner(rows)
        scanner.prepare_bound()
        width = rows.width
        pairs = []
        for length in range(width + 2, min(series.n - 3, width + 40), 5):
            starts = np.arange(0, series.n - length + 1, stride)
            exact = scanner.score_batch(starts, length)
            ok = np.isfinite(exact)
            if rows.bound is None:
                # Any floor: nothing is pruned, every score is exact.
                floored = scanner.score_batch(starts, length, floor=np.inf)
                assert floored.tobytes() == exact.tobytes()
            elif ok.any():
                lo, hi = scanner._row_range(starts[ok], length)
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    bound = scanner._inside(lo, hi, length, rows.bound)[2]
                pairs.append((bound, exact[ok]))
        return rows.bound, pairs

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(40, 200),
        d=st.integers(1, 6),
        kappa=st.integers(1, 3),
        tau=st.sampled_from([1, 2]),
        stride=st.integers(1, 3),
        log_scale=st.floats(-6, 3),
        offset=st.sampled_from([0.0, 1e3, -1e6, 1e8]),
        share_missing=st.sampled_from([0.0, 0.02, 0.06]),
        shape=st.sampled_from(["noise", "plant", "spike", "near_constant", "constant"]),
    )
    @settings(max_examples=80, deadline=None)
    @example(seed=5, n=120, d=2, kappa=2, tau=1, stride=1, log_scale=0.0, offset=0.0,
             share_missing=0.0, shape="spike")
    @example(seed=6, n=150, d=2, kappa=2, tau=2, stride=1, log_scale=-6.0, offset=1e8,
             share_missing=0.02, shape="near_constant")
    # Width 18 with lengths long against n: g = tr(M A) is loose there.
    @example(seed=10, n=90, d=6, kappa=3, tau=1, stride=1, log_scale=0.0, offset=0.0,
             share_missing=0.02, shape="plant")
    @example(seed=11, n=120, d=6, kappa=3, tau=2, stride=2, log_scale=3.0, offset=1e8,
             share_missing=0.0, shape="near_constant")
    def test_bound_is_at_least_the_score(self, seed, n, d, kappa, tau, stride, log_scale,
                                         offset, share_missing, shape):
        series = self.series(seed, n, d, log_scale, offset, share_missing, shape)
        bound, pairs = self.pairs(series, EmbeddingConfig(kappa=kappa, tau=tau), stride)
        if shape == "constant":
            assert bound is None
        for upper, exact in pairs:
            assert np.all(upper >= exact)

    @staticmethod
    def rung_pairs(series, cfg, stride, len_min, len_max):
        """(U through the rung below, exact score, whether that rung kept a
        factor at the start) of every scorable candidate between the rungs
        of [len_min, len_max], and the bound."""
        rows = detector._ScanRows(embed(series, cfg))
        scanner = PrefixScanner(rows, rung_base=len_min)
        scanner.prepare_bound()
        pairs = []
        for length in range(len_min, len_max + 1):
            starts = np.arange(0, series.n - length + 1, stride)
            exact = scanner.score_batch(starts, length)
            ok = np.isfinite(exact)
            if (length - len_min) % detector.RUNG_STEP == 0 or rows.bound is None or not ok.any():
                continue
            rung = length - (length - len_min) % detector.RUNG_STEP
            kept = np.isin(starts[ok], scanner.rungs.get(rung, ([],))[0])
            lo, hi = scanner._row_range(starts[ok], length)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                bound = scanner._nested(starts[ok], lo, hi, length, rows.bound)[0]
            pairs.append((bound, exact[ok], kept))
        return rows.bound, pairs

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(40, 200),
        d=st.integers(1, 6),
        kappa=st.integers(1, 3),
        tau=st.sampled_from([1, 2]),
        stride=st.integers(1, 3),
        log_scale=st.floats(-6, 3),
        offset=st.sampled_from([0.0, 1e3, -1e6, 1e8]),
        share_missing=st.sampled_from([0.0, 0.02, 0.06]),
        shape=st.sampled_from(["noise", "plant", "spike", "near_constant", "constant"]),
        len_min=st.integers(1, 30),
        span=st.integers(0, 12),
    )
    @settings(max_examples=80, deadline=None)
    @example(seed=5, n=120, d=2, kappa=2, tau=1, stride=1, log_scale=0.0, offset=0.0,
             share_missing=0.0, shape="spike", len_min=8, span=10)
    @example(seed=6, n=150, d=2, kappa=2, tau=2, stride=1, log_scale=-6.0, offset=1e8,
             share_missing=0.02, shape="near_constant", len_min=10, span=8)
    # The first rung has at most the width's rows, the next lengths more.
    @example(seed=7, n=120, d=3, kappa=2, tau=1, stride=1, log_scale=0.0, offset=0.0,
             share_missing=0.06, shape="noise", len_min=5, span=7)
    @example(seed=8, n=90, d=2, kappa=1, tau=1, stride=2, log_scale=0.0, offset=0.0,
             share_missing=0.0, shape="plant", len_min=12, span=0)  # one length
    @example(seed=9, n=90, d=2, kappa=2, tau=2, stride=1, log_scale=0.0, offset=1e3,
             share_missing=0.02, shape="noise", len_min=12, span=2)  # under one rung step
    @example(seed=10, n=90, d=6, kappa=3, tau=1, stride=1, log_scale=0.0, offset=0.0,
             share_missing=0.02, shape="plant", len_min=20, span=12)  # width 18
    def test_rung_bound_is_at_least_the_score(self, seed, n, d, kappa, tau, stride, log_scale,
                                              offset, share_missing, shape, len_min, span):
        """A length between rungs, bounded from the rung below at the same
        start, is bounded from above; where that rung kept no factor (too few
        usable rows) the bound is +inf."""
        series = self.series(seed, n, d, log_scale, offset, share_missing, shape)
        bound, pairs = self.rung_pairs(series, EmbeddingConfig(kappa=kappa, tau=tau), stride,
                                       len_min, min(len_min + span, n - 3))
        if shape == "constant":
            assert bound is None
        for upper, exact, kept in pairs:
            assert np.all(upper >= exact)
            assert np.all(upper[~kept] == np.inf)

    def test_a_rung_without_a_factor_never_prunes(self):
        """A rung inside whose factor is NaN, or that has at most the width's
        usable rows, bounds nothing: the lengths above it are scored exactly."""
        rng = np.random.default_rng(3)
        values = rng.standard_normal((160, 2))
        missing = np.zeros(values.shape, dtype=bool)
        missing[40:52, 0] = True  # starts near it see few usable rows at the first rung
        rows = detector._ScanRows(embed(make_series(values, missing=missing), EMB))
        scanner = PrefixScanner(rows, rung_base=10)
        scanner.prepare_bound()
        starts = np.arange(0, 140)
        rung = scanner.score_batch(starts, 10)
        few = np.isnan(rung)
        assert few.sum() >= 5
        kept_starts, half = scanner.rungs[10]
        assert np.array_equal(kept_starts, starts[~few])
        half[: len(half) // 2] = np.nan  # as if those factors had failed
        failed = np.isin(starts, kept_starts[: len(half) // 2])
        for length in (11, 12):
            exact = scanner.score_batch(starts, length)
            ok = np.isfinite(exact)
            assert (ok & few).any()
            lo, hi = scanner._row_range(starts[ok], length)
            upper = scanner._nested(starts[ok], lo, hi, length, rows.bound)[0]
            assert np.all(upper[(few | failed)[ok]] == np.inf)
            assert np.isfinite(upper[~(few | failed)[ok]]).all()
            # Through score_batch: any floor prunes none of them before a fit.
            before = scanner.rung_pruned
            floored = scanner.score_batch(starts, length, floor=np.inf)
            assert scanner.rung_pruned - before == int((ok & ~few & ~failed).sum())
            assert np.array_equal(np.isnan(floored), ~ok)
        # A rung never scored at all bounds nothing either.
        fresh = PrefixScanner(rows, rung_base=10)
        fresh.prepare_bound()
        exact = fresh.score_batch(starts, 11)
        floored = fresh.score_batch(starts, 11, floor=np.inf)
        assert fresh.rung_pruned == 0 and np.isfinite(exact).sum() > 100
        assert np.array_equal(np.isnan(floored), np.isnan(exact))

    def test_a_zero_inside_meets_the_bound_within_its_margin(self):
        """Integer data whose sums are exactly zero, with a run of zero steps:
        a candidate within the run has A = 0, so its bound equals its score
        but for the margin and round-off."""
        rng = np.random.default_rng(4)
        half = rng.integers(-3, 4, size=(100, 2)).astype(float)
        values = np.concatenate([half, np.zeros((40, 2)), -half])
        rows = detector._ScanRows(embed(make_series(values), EmbeddingConfig(kappa=1, tau=1)))
        assert rows.totals[1].tolist() == [[0.0], [0.0]]
        scanner = PrefixScanner(rows)
        scanner.prepare_bound()
        tight = 0
        for length in range(4, 40):
            starts = np.arange(100, 140 - length + 1)
            exact = scanner.score_batch(starts, length)
            lo, hi = scanner._row_range(starts, length)
            upper = scanner._inside(lo, hi, length, rows.bound)[2]
            assert np.all(upper >= exact)
            tight += int(np.sum(upper - exact < 1e-5 * exact))
        assert tight > 500


    @pytest.mark.parametrize("width", [1, 2, 5, 12, 18])
    def test_eigen_bound_is_at_least_lambda_max(self, width):
        """The Wolkowicz-Styan bound of _ScoreBound.eigen is at least
        ``np.linalg.eigvalsh``'s largest eigenvalue of T2^-1/2 A T2^-1/2,
        A = I2 + s_o s_o' / n_o, on random pairs of a total T2 of rows,
        centered or not, and an inside of them, planted or not, with column scales
        spread up to 1e+-2. Both sides factor T2, so they agree to about
        1e-16 cond(T2). Where A = c T2, with s_o = 0, every eigenvalue is c
        and the bound is tight but for its round-off slack, sqrt((m - 1)
        1e-12) c."""
        rng = np.random.default_rng(width)
        lower = np.tril_indices(width)
        for trial in range(90):
            n = int(rng.integers(width + 5, 400))
            x = rng.standard_normal((n, width)) * 10.0 ** rng.uniform(-2, 2, width)
            x = x @ (np.eye(width) + 0.5 * rng.standard_normal((width, width)))
            k = int(rng.integers(1, n - 2))
            a = int(rng.integers(0, n - k + 1))
            if trial % 3 == 0:
                x[a : a + k] += 3 * rng.standard_normal(width) * x.std(axis=0)
            if trial % 2:  # s_T = 0, as for the scan's centered rows
                x -= x.mean(axis=0)
            t2 = x.T @ x
            bound = detector._ScoreBound(np.array([n]), x.sum(axis=0)[:, None],
                                         t2[lower][:, None], width)
            tol = 1e-14 * bound.eigenvalues[-1] / bound.eigenvalues[0]
            inside = x[a : a + k]
            i2, s_in, n_out = inside.T @ inside, inside.sum(axis=0), float(n - k)
            if trial % 10 == 9:  # s_o = 0 and A = c T2
                c = k / n
                i2, s_in = c * t2, x.sum(axis=0)
            s_out = x.sum(axis=0) - s_in
            lam = oracles.largest_relative_eigenvalue(i2 + np.outer(s_out, s_out) / n_out, t2)
            whitened = (bound.whitening @ i2 @ bound.whitening)[lower][:, None]
            eigen = bound.eigen(np.array([n_out]), s_in[:, None], whitened)[0]
            assert eigen >= lam - tol, (trial, eigen, lam, tol)
            if trial % 10 == 9 and width > 1:  # tight but for the slack, which shows
                assert lam * (1 + 1e-7) < eigen <= c * (1 + 1e-5) + tol
            else:
                assert lam <= 1 + tol  # A <= T2 where the inside is part of the total

    @pytest.mark.parametrize("path", ["inside", "nested"])
    def test_eigen_bound_tightens_a_wide_scan(self, monkeypatch, path):
        """At width 18, with lengths long against the series, the bound with g
        tightened is below the bound through g = tr(M A) for most candidates,
        and still at least every exact score, whether the inside is fitted
        or bounded through the rung below."""
        rng = np.random.default_rng(18)
        values = rng.standard_normal((400, 6))
        values[200:260, 2] += 2.0
        rows = detector._ScanRows(embed(make_series(values), EMB))
        assert rows.width == 18
        scanner = PrefixScanner(rows, rung_base=30)
        scanner.prepare_bound()
        tighter = total = 0
        for length in (30, 31, 32) if path == "nested" else (30, 60, 90):
            starts = np.arange(0, 400 - length + 1)
            exact = scanner.score_batch(starts, length)
            if length == 30 and path == "nested":
                continue  # the rung
            lo, hi = scanner._row_range(starts, length)

            def bounds():
                if path == "nested":
                    return scanner._nested(starts, lo, hi, length, rows.bound)[0]
                return scanner._inside(lo, hi, length, rows.bound)[2]

            tight = bounds()
            with monkeypatch.context() as patch:  # g = tr(M A) alone
                patch.setattr(rows.bound, "eigen", lambda n_out, *_: np.full(n_out.shape, np.inf))
                loose = bounds()
            assert np.all(tight >= exact) and np.all(tight <= loose)
            tighter += int(np.sum(tight < loose))
            total += len(starts)
        assert tighter > 0.9 * total

    @pytest.mark.parametrize("width, rows", [(1, 5), (3, 1), (12, 300), (18, 257)])
    def test_outer_prefix_equals_the_gather(self, width, rows):
        """The packed prefix built row by row of the triangle has the same bits
        as the cumulative sum of the gathered products, on a strided view
        with zeroed rows as the scan passes it."""
        rng = np.random.default_rng(width)
        centered = rng.standard_normal((rows, width)) * 10.0 ** rng.uniform(-3, 3, width)
        centered[rng.random(rows) < 0.1] = 0.0
        x = centered.T
        assert not x.flags.c_contiguous or rows == 1 or width == 1
        assert np.array_equal(detector._outer_prefix(x), oracles.outer_prefix_by_gather(x))


class TestFloor:
    """The floor is the score of the ((top_k - 1) * B + 1)-th pick of a greedy
    disjoint walk; no candidate below it can change the detections, whatever
    else is scored later."""

    @pytest.mark.parametrize("len_min", [1, 2, 3, 7, 10])
    def test_meets_is_the_most_disjoint_candidates_one_meets(self, len_min):
        for len_max in range(len_min, len_min + 30):
            assert detector._meets(len_min, len_max) == oracles.most_disjoint_meeting(
                len_min, len_max
            )

    @staticmethod
    def candidates(rng, size, len_min, len_max):
        starts = rng.integers(0, 300, size)
        lens = rng.integers(len_min, len_max + 1, size)
        scores = rng.integers(0, 40, size) / 4.0  # ties
        return scores, starts, lens

    @given(
        seed=st.integers(0, 2**32 - 1),
        len_min=st.integers(1, 12),
        extra=st.integers(0, 30),
        top_k=st.integers(1, 4),
        sizes=st.tuples(st.integers(1, 120), st.integers(0, 120)),
    )
    @settings(max_examples=150, deadline=None)
    def test_pruning_below_the_floor_keeps_the_detections(self, seed, len_min, extra, top_k,
                                                          sizes):
        rng = np.random.default_rng(seed)
        len_max = len_min + extra
        first = self.candidates(rng, sizes[0], len_min, len_max)
        later = self.candidates(rng, sizes[1], len_min, len_max)
        meets = detector._meets(len_min, len_max)
        floor = detector._floor(*first, top_k, meets)
        assert floor == oracles.floor_by_full_sort(*first, (top_k - 1) * meets + 1)
        every = [np.concatenate(pair) for pair in zip(first, later)]
        kept = later[0] >= floor
        pruned = [np.concatenate([a, b[kept]]) for a, b in zip(first, later)]
        assert oracles.select_by_full_sort(*pruned, top_k) == oracles.select_by_full_sort(
            *every, top_k
        )

    def test_a_later_candidate_meets_b_picks(self):
        """B = 2 at len_min = len_max = 10, top_k = 2: a later candidate that
        meets the two best picks leaves a later one at 8.5, below the second
        pick, as the second detection. The floor at the third pick keeps it;
        one at the ((top_k - 1) * (B - 1) + 1)-th, the second, would have
        pruned it."""
        starts, lens = np.array([0, 10, 40, 60]), np.full(4, 10)
        scores = np.array([10.0, 9.0, 8.0, 7.0])
        assert detector._meets(10, 10) == 2
        floor = detector._floor(scores, starts, lens, 2, detector._meets(10, 10))
        assert floor == 8.0
        later = np.array([20.0, 8.5]), np.array([5, 80]), np.array([10, 10])
        every = [np.concatenate(pair) for pair in zip((scores, starts, lens), later)]
        want = oracles.select_by_full_sort(*every, 2)
        assert want == [(5, 15, 20.0), (80, 90, 8.5)]
        assert all(score >= floor for _, _, score in want)
        assert detector._floor(scores, starts, lens, 2, 1) == 9.0 > want[1][2]


class TestPruning:
    """detect prunes from the first block's lengths between rungs on, and
    returns what it returns with the floor held at -inf; the candidates it
    scores do not depend on the thread count."""

    @pytest.fixture(scope="class")
    def series(self):
        rng = np.random.default_rng(41)
        values = rng.standard_normal((420, 3))
        values[200:225, 1] += 2.0
        values[320:340] += 1.5
        values[80:100, 0] *= 3.0
        missing = rng.random(values.shape) < 0.01
        return make_series(values, missing=missing)

    @staticmethod
    def run(series, cfg, threads):
        """detect's detections, and the counts and floor of its log line."""
        lines = []
        handler = logging.Handler(logging.INFO)
        handler.emit = lambda record: lines.append(record.getMessage())
        logger = logging.getLogger("anomattr.detector")
        level = logger.level
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
        try:
            dets = detect(series, cfg, threads=threads)
        finally:
            logger.removeHandler(handler)
            logger.setLevel(level)
        (line,) = [x for x in lines if x.startswith("scan over")]
        counts = re.search(
            r"(\d+) scored exactly, (\d+) pruned by the rung bound \(no inside fit\), "
            r"(\d+) pruned by the exact bound", line
        ).groups()
        return dets, (*map(int, counts), line)

    @given(
        block=st.one_of(st.integers(16, 200), st.just(4096)),  # several blocks, or one
        top_k=st.integers(1, 4),
        stride=st.sampled_from([1, 3]),
        tau=st.sampled_from([1, 2]),
        len_max=st.sampled_from([12, 13, 14, 30]),
    )
    @settings(max_examples=15, deadline=None)
    @example(block=16, top_k=2, stride=1, tau=1, len_max=12)  # one rung, nothing between
    @example(block=16, top_k=2, stride=3, tau=2, len_max=13)  # shorter than one rung step
    @example(block=4096, top_k=2, stride=1, tau=1, len_max=30)  # one block
    def test_pruned_detect_equals_unpruned(self, series, block, top_k, stride, tau, len_max):
        cfg = ScanConfig(len_min=12, len_max=len_max, top_k=top_k, stride=stride,
                         embedding=EmbeddingConfig(kappa=2, tau=tau))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(detector, "SCAN_BLOCK", block)
            serial, counted = self.run(series, cfg, 1)
            threaded, counted_threaded = self.run(series, cfg, 3)
            patch.setattr(detector, "_floor", lambda *args: -np.inf)
            unpruned, counted_unpruned = self.run(series, cfg, 1)
        assert serial == threaded and counted == counted_threaded
        assert counted_unpruned[1] == counted_unpruned[2] == 0
        assert sum(counted[:3]) == counted_unpruned[0]
        assert [d.interval for d in serial] == [d.interval for d in unpruned]
        for got, want in zip(serial, unpruned):
            assert got.score == pytest.approx(want.score, rel=1e-13)
        if (block <= 100 or block == 4096) and len_max == 30:
            assert counted[1] + counted[2] > 0
        if len_max == 12:  # every length is a rung
            assert counted[1] == 0

    def test_log_splits_the_pruned_counts(self, series, monkeypatch):
        """The log line counts the candidates the rung bound prunes before any
        fit apart from those the exact bound prunes; neither count depends on
        the thread count, even with more threads than cores adding to one
        scanner's count."""
        monkeypatch.setattr(detector, "SCAN_BLOCK", 48)
        cfg = ScanConfig(len_min=12, len_max=30, top_k=2, embedding=EmbeddingConfig(kappa=2))
        serial, counted = self.run(series, cfg, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads switch often: a lost update would show
        try:
            threaded, counted_threaded = self.run(series, cfg, 4)
        finally:
            sys.setswitchinterval(interval)
        assert serial == threaded
        assert counted[:3] == counted_threaded[:3]
        assert counted[1] > 0 and counted[2] > 0

    @staticmethod
    def plan(series, cfg, monkeypatch, block, threads):
        """detect's detections, and per block of ``block`` starts its events in
        order: (length, floor) for each score_batch call, and "bound" where
        its scanner built its bound's prefixes."""
        monkeypatch.setattr(detector, "SCAN_BLOCK", block)
        score_batch, prepare = PrefixScanner.score_batch, PrefixScanner.prepare_bound
        events, main = {}, threading.current_thread()

        def recording(scanner, starts, length, **kwargs):
            events.setdefault(int(starts[0]) // block, []).append((length, kwargs["floor"]))
            return score_batch(scanner, starts, length, **kwargs)

        def preparing(scanner):
            assert threading.current_thread() is main  # never in a pool worker
            if scanner.whitened is None:
                events.setdefault(scanner.lead // block, []).append("bound")
            prepare(scanner)

        monkeypatch.setattr(PrefixScanner, "score_batch", recording)
        monkeypatch.setattr(PrefixScanner, "prepare_bound", preparing)
        dets = detect(series, cfg, threads=threads)
        return dets, [events[b] for b in sorted(events)]

    @staticmethod
    def phase_of(length):
        """The phase of a length at len_min 12: 0 for len_min, 1 for the
        other rungs, 2 for the lengths between."""
        return 0 if length == 12 else 2 if (length - 12) % detector.RUNG_STEP else 1

    @staticmethod
    def check_floors(blocks, phase_of):
        """The floor is fixed within a phase, -inf only in the first block's
        opening phase, and never falls; each block builds its bound's
        prefixes once, right before its first call against a floor."""
        walk = {}
        for b, events in enumerate(blocks):
            against = [i for i, event in enumerate(events) if event != "bound" and
                       event[1] > -np.inf]
            if against:
                assert events.index("bound") == against[0] - 1 and events.count("bound") == 1
            else:
                assert "bound" not in events
            for length, floor in (event for event in events if event != "bound"):
                walk.setdefault((b, phase_of(length)), set()).add(floor)
        assert all(len(floors) == 1 for floors in walk.values())
        floors = [walk[phase].pop() for phase in sorted(walk)]
        assert floors[0] == -np.inf < floors[1] and floors == sorted(floors)

    def test_first_block_prunes_past_its_rungs(self, series, monkeypatch):
        """Each block scores len_min alone, then its other rungs, then the
        lengths between them; the floor rises between phases, first right
        after the first block's opening phase, which alone is unpruned."""
        cfg = ScanConfig(len_min=12, len_max=30, top_k=2, embedding=EmbeddingConfig(kappa=2))
        _, blocks = self.plan(series, cfg, monkeypatch, 64, threads=2)
        assert len(blocks) == 7
        for events in blocks:
            phases = [self.phase_of(event[0]) for event in events if event != "bound"]
            assert phases == sorted(phases) and set(phases) == {0, 1, 2}
        self.check_floors(blocks, self.phase_of)

    @pytest.mark.parametrize("block", [64, 4096])
    @pytest.mark.parametrize(
        "len_max, want",
        [
            (12, [12]),  # one length
            (13, [12, 13]),  # two lengths
            (14, [12, 13, 14]),  # no rung past len_min: RUNG_STEP is 3
            (15, [12, 15, 13, 14]),
        ],
    )
    def test_phase_plan_edges(self, series, monkeypatch, block, len_max, want):
        """The phase plan of a short length range, in one block or several:
        len_min, the other rungs, the lengths between, leaving out an empty
        phase; and the unpruned scan's detections."""
        cfg = ScanConfig(len_min=12, len_max=len_max, top_k=2, embedding=EmbeddingConfig(kappa=2))
        dets, blocks = self.plan(series, cfg, monkeypatch, block, threads=1)
        assert len(blocks) == (1 if block == 4096 else 7)
        for events in blocks:
            assert [event[0] for event in events if event != "bound"] == want
        if len(blocks) > 1 or len_max > 12:  # a floor only after a phase
            self.check_floors(blocks, self.phase_of)
        else:  # one block of one length: no floor, no bound
            assert blocks == [[(12, -np.inf)]]
        monkeypatch.setattr(detector, "_floor", lambda *args: -np.inf)
        unpruned = detect(series, cfg)
        assert [d.interval for d in dets] == [d.interval for d in unpruned]
        for got, want_det in zip(dets, unpruned):
            assert got.score == pytest.approx(want_det.score, rel=1e-12)

    def test_a_candidate_at_the_floor_is_kept(self, series, monkeypatch):
        """A later candidate that scores exactly the floor can be a detection.
        A floor at the last detection's score is still sound, and the scan
        must keep that detection."""
        monkeypatch.setattr(detector, "SCAN_BLOCK", 64)
        cfg = ScanConfig(len_min=12, len_max=30, top_k=3, embedding=EmbeddingConfig(kappa=2))
        want = detect(series, cfg)
        last = want[-1]
        assert len(want) == 3 and last.interval.a >= 64  # scored against a floor
        monkeypatch.setattr(detector, "_floor", lambda *args: last.score)
        assert detect(series, cfg) == want

    def test_one_block_prunes(self, series, monkeypatch):
        """A scan of one block runs the phase plan too: it prunes, by both
        bounds, and returns the unpruned scan's detections, at any thread
        count."""
        cfg = ScanConfig(len_min=15, len_max=40, top_k=3, embedding=EMB)
        assert series.n < detector.SCAN_BLOCK
        serial, counted = self.run(series, cfg, 1)
        threaded, counted_threaded = self.run(series, cfg, 2)
        assert serial == threaded and counted == counted_threaded
        assert counted[1] > 0 and counted[2] > 0
        monkeypatch.setattr(detector, "_floor", lambda *args: -np.inf)
        unpruned, counted_unpruned = self.run(series, cfg, 2)
        assert sum(counted[:3]) == counted_unpruned[0]
        assert [d.interval for d in serial] == [d.interval for d in unpruned]
        for got, want in zip(serial, unpruned):
            assert got.score == pytest.approx(want.score, rel=1e-12)


class TestRowCountBoundary:
    """The row-count rule at d = 4, kappa = 3, so width 12, with no missing
    cells: an interval asked for by name is scored with exactly the width's
    usable rows and refused with one fewer; the scan ranks only an interval
    with more than the width."""

    CFG = EmbeddingConfig(kappa=3, tau=1)

    @pytest.fixture
    def series(self):
        return make_series(np.random.default_rng(12).standard_normal((200, 4)))

    def test_a_named_interval_needs_the_width(self, series):
        assert embed(series, self.CFG).width == 12
        at_width = Interval(50, 62)
        assert np.isfinite(score_interval(series, at_width, self.CFG))
        LocalRescorer(series, at_width, self.CFG).check((0,))
        short = Interval(50, 61)
        with pytest.raises(ScoringError, match="11 usable embedded rows, fewer than the width 12"):
            score_interval(series, short, self.CFG)
        with pytest.raises(ScoringError, match="11 usable embedded rows, fewer than the width 12"):
            LocalRescorer(series, short, self.CFG).check((0,))

    def test_the_scan_needs_one_row_more(self, series):
        scanner = PrefixScanner(detector._ScanRows(embed(series, self.CFG)))
        starts = np.array([50])
        assert np.isnan(scanner.score_batch(starts, 12)[0])
        naive = score_interval(series, Interval(50, 63), self.CFG)
        assert scanner.score_batch(starts, 13)[0] == pytest.approx(naive, rel=1e-12)


class TestSliceGather:
    """score_batch reads an evenly spaced run of starts through basic slices
    and anything else through a gather; the two give the same scores."""

    @pytest.fixture
    def series(self):
        rng = np.random.default_rng(13)
        values = rng.standard_normal((260, 2))
        values[120:150] += 2.0
        missing = np.zeros(values.shape, dtype=bool)
        missing[[40, 41, 42, 43, 44, 200], [0, 0, 1, 1, 0, 1]] = True
        return make_series(values, missing=missing)

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("length", [8, 12, 30])
    def test_run_equals_shuffled_starts(self, series, stride, length):
        scanner = PrefixScanner(detector._ScanRows(embed(series, EMB)))
        starts = np.arange(0, series.n - length + 1, stride)  # from 0: the head clips
        lo, hi = scanner._row_range(starts, length)
        clipped = int((starts < scanner.lead).sum())  # to the prefix's first row
        assert clipped >= 1 and np.all(lo[:clipped] == 0)
        _, tail = detector._runs(lo, hi)
        assert isinstance(tail[1], slice) and tail[0] == slice(clipped, len(starts))
        run = scanner.score_batch(starts, length)
        shuffle = np.random.default_rng(stride).permutation(len(starts))
        shuffled = np.empty_like(run)
        shuffled[shuffle] = scanner.score_batch(starts[shuffle], length)
        assert np.array_equal(run, shuffled, equal_nan=True)
        assert np.isfinite(run).sum() > len(run) // 2
        # Short candidates over the missing rows are dropped, leaving gaps in the run.
        assert np.isnan(run).any() == (length < 20)
        # A single start is a run of one: its sums equal a gather's. (Its
        # score may differ from the run's in the last bit, since the kernels
        # may sum a stack of one in another order.)
        _, sums, outer = scanner.whole.totals
        for i in (0, len(starts) // 2, len(starts) - 1):
            one = lo[i : i + 1], hi[i : i + 1]
            (part, *slices), = detector._runs(*one)
            assert part == slice(0, 1) and all(isinstance(x, slice) for x in slices)
            for prefix, total in ((scanner.sums, sums), (scanner.outer_sums, outer)):
                sliced = scanner._gather(prefix, total, [(part, *slices)])
                gathered = scanner._gather(prefix, total, [(part, *one)])
                assert np.array_equal(sliced, gathered)

    @pytest.mark.parametrize("seed", range(5))
    def test_a_start_scores_alone_as_in_its_run(self, seed):
        """The last bits of a score may depend on the stack it is fitted in,
        but no more: each of a run of 116 starts (length 30, stride 2) scores
        alone within 1e-12 relative of its score inside the run."""
        rng = np.random.default_rng([13, seed])
        values = rng.standard_normal((260, 2))
        values[120:150] += 2.0
        missing = rng.random(values.shape) < 0.02
        scanner = PrefixScanner(detector._ScanRows(embed(make_series(values, missing=missing), EMB)))
        starts = np.arange(0, 260 - 30 + 1, 2)
        assert starts.size == 116
        run = scanner.score_batch(starts, 30)
        alone = np.concatenate([scanner.score_batch(starts[i : i + 1], 30) for i in range(116)])
        assert np.array_equal(np.isnan(run), np.isnan(alone))
        assert np.isfinite(run).sum() > 100
        ok = np.isfinite(run)
        np.testing.assert_allclose(alone[ok], run[ok], rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "lo, hi, run_from",
    [
        ([0, 0, 0, 1, 2, 3], [5, 6, 7, 8, 9, 10], 2),  # head clipped to row 0
        ([0, 2, 4, 6], [3, 5, 7, 7], 3),  # hi clipped at the end: only the last reads as a run
        ([0, 3, 6, 12, 15, 18], [9, 12, 15, 21, 24, 27], 3),  # a dropped candidate's gap
        ([4], [9], 0),  # a single start
        ([5, 5, 5], [5, 5, 5], 2),  # no step
        ([7, 2, 9, 4], [10, 5, 12, 7], 3),  # shuffled
    ],
)
def test_runs_cover_the_indices(lo, hi, run_from):
    """_runs splits prefix indices into a gathered head and a sliced tail
    that read exactly the indices given."""
    lo, hi = np.array(lo), np.array(hi)
    runs = detector._runs(lo, hi)
    assert runs[-1][0] == slice(run_from, len(lo))
    assert all(isinstance(x, slice) for x in runs[-1])
    assert [i for part, _, _ in runs for i in range(len(lo))[part]] == list(range(len(lo)))
    columns = np.arange(40)
    for part, lo_part, hi_part in runs:
        assert np.array_equal(columns[lo_part], lo[part])
        assert np.array_equal(columns[hi_part], hi[part])


def test_scan_memory_is_bounded_by_the_embedding():
    """The scan keeps one block's prefix and stacks at a time, so its traced
    peak is a small multiple of the embedding, whatever the series length."""
    n = 100_000
    series = make_series(np.random.default_rng(5).standard_normal((n, 4)))
    emb_bytes = embed(series, EMB).values.nbytes
    cfg = ScanConfig(len_min=40, len_max=41, embedding=EMB)
    tracemalloc.start()
    try:
        detect(series, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * emb_bytes, f"traced peak {peak / emb_bytes:.1f}x the embedding"


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

    def test_long_plant_widens_the_sorted_window(self, monkeypatch):
        """A long plant scanned over a wide length range: more than the first
        sorted window of candidates meets rank 1, so suppression widens it,
        and the detections are those of a full sort."""
        spec = SynthSpec(
            n=1200,
            d=2,
            seed=5,
            anomalies=(
                Injection(Interval(300, 460), (0, 1), "mean_shift", 3.0),
                Injection(Interval(800, 840), (0,), "mean_shift", 2.0),
            ),
        )
        series, _ = generate(spec)
        cfg = ScanConfig(len_min=20, len_max=200, top_k=3, embedding=EMB)
        real, seen = detector._select, []

        def recording(scores, starts, lens, top_k):
            seen.append((scores, starts, lens))
            return real(scores, starts, lens, top_k)

        monkeypatch.setattr(detector, "_select", recording)
        dets = detect(series, cfg)
        scores, starts, lens = seen[-1]  # the final walk; those before set floors
        window = np.lexsort((lens, starts, -scores))[: detector.SELECT_WINDOW * cfg.top_k]
        first = dets[0].interval
        assert all(first.intersects(Interval(int(starts[i]), int(starts[i] + lens[i])))
                   for i in window)
        want = oracles.select_by_full_sort(scores, starts, lens, cfg.top_k)
        assert [(d.interval.a, d.interval.b, d.score) for d in dets] == want
        monkeypatch.setattr(detector, "SELECT_WINDOW", scores.size)  # one full sort
        assert detect(series, cfg) == dets

    def test_determinism(self, rng):
        series, _ = shifted_series(rng)
        cfg = ScanConfig(len_min=20, len_max=40, top_k=3, embedding=EMB)
        assert detect(series, cfg) == detect(series, cfg)

    def test_threads_do_not_change_results(self, rng):
        series, _ = shifted_series(rng)
        cfg = ScanConfig(len_min=20, len_max=40, top_k=3, embedding=EMB)
        assert detect(series, cfg) == detect(series, cfg, threads=4)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_refuses_bad_threads(self, rng, threads):
        series, _ = shifted_series(rng)
        cfg = ScanConfig(len_min=20, len_max=40, embedding=EMB)
        with pytest.raises(ConfigError, match="threads"):
            detect(series, cfg, threads=threads)

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
