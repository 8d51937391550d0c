import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anomattr import (
    EmbeddingConfig,
    Interval,
    MultivariateSeries,
    ParseError,
    embed,
    inverse_zscore,
    load_csv,
    write_csv,
    zscore,
)
from anomattr.errors import ConfigError

from conftest import make_series


class TestSeriesContainer:
    def test_auto_names_and_nan_mask(self):
        s = MultivariateSeries(values=[[1.0, np.nan], [2.0, 3.0]])
        assert s.names == ("x1", "x2")
        assert s.missing[0, 1] and not s.missing[0, 0]

    def test_rejects_non_finite_observed(self):
        with pytest.raises(ValueError):
            MultivariateSeries(values=[[np.inf, 1.0]], missing=[[False, False]])

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            MultivariateSeries(values=[[1.0, 2.0]], names=("a", "a"))

    def test_values_are_immutable(self):
        s = make_series([[1.0, 2.0]])
        with pytest.raises(ValueError):
            s.values[0, 0] = 9.0

    def test_interval_validation(self):
        assert Interval(2, 5).length == 3
        with pytest.raises(ValueError):
            Interval(5, 5)
        with pytest.raises(ValueError):
            Interval(-1, 3)

    def test_interval_intersects(self):
        assert Interval(0, 5).intersects(Interval(4, 8))
        assert not Interval(0, 5).intersects(Interval(5, 8))


class TestCsv:
    def test_small_file_with_missing_cell(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("time,a,b\n0,1.5,\n1,2.5,3.5\n2,4.5,5.5\n")
        s = load_csv(path)
        assert (s.n, s.d) == (3, 2)
        assert s.missing.sum() == 1 and s.missing[0, 1]
        assert s.values[1, 0] == 2.5

    def test_literal_nan_is_missing(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("time,a\n0,NaN\n1,2.0\n2,3.0\n")
        assert load_csv(path).missing[0, 0]

    def test_header_only_is_an_error(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("time,a,b\n")
        with pytest.raises(ParseError, match="no data rows"):
            load_csv(path)

    def test_no_data_columns(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("time\n0\n")
        with pytest.raises(ParseError, match="no data columns"):
            load_csv(path)

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("time,a,b\n0,1,2\n1,3\n")
        with pytest.raises(ParseError, match="line 3"):
            load_csv(path)

    def test_non_monotonic_time(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("time,a\n0,1\n2,2\n1,3\n")
        with pytest.raises(ParseError, match="non-monotonic"):
            load_csv(path)

    def test_iso_timestamps(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("time,a\n2020-01-01,1\n2020-01-02,2\n")
        s = load_csv(path)
        assert s.start_index == 0 and s.n == 2

    def test_mixed_naive_and_aware_timestamps_name_the_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(
            "time,a\n2020-01-01T00:00:00,1\n2020-01-02T00:00:00,2\n"
            "2020-01-03T00:00:00+00:00,3\n2020-01-04T00:00:00,4\n"
        )
        with pytest.raises(ParseError, match="line 4: .*UTC offset"):
            load_csv(path)
        path.write_text("time,a\n2020-01-01T00:00:00+01:00,1\n2020-01-02T00:00:00,2\n")
        with pytest.raises(ParseError, match="line 3: "):
            load_csv(path)

    def test_integer_time_origin_kept(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("time,a\n10,1\n11,2\n")
        assert load_csv(path).start_index == 10

    def test_round_trip_is_value_exact(self, tmp_path, rng):
        values = rng.normal(size=(40, 3)) * rng.uniform(1e-8, 1e8, size=3)
        missing = rng.random((40, 3)) < 0.15
        original = make_series(values, missing=missing, names=("u", "v", "w"))
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_csv(original, p1)
        loaded = load_csv(p1)
        write_csv(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert np.array_equal(loaded.missing, original.missing)
        keep = ~original.missing
        assert np.array_equal(loaded.values[keep], original.values[keep])


class TestZscore:
    def test_simple_column(self):
        s = make_series(np.array([[2.0], [4.0], [6.0]]))
        out, params = zscore(s)
        assert params.mean[0] == 4.0 and params.scale[0] == 2.0
        assert np.allclose(out.values[:, 0], [-1.0, 0.0, 1.0])

    def test_constant_column_clamps_scale(self, caplog):
        s = make_series(np.array([[5.0], [5.0], [5.0]]))
        with caplog.at_level("WARNING"):
            out, params = zscore(s)
        assert params.scale[0] == 1.0
        assert np.allclose(out.values[:, 0], 0.0)
        assert any("constant variable" in rec.message for rec in caplog.records)

    def test_recomputed_moments(self, rng):
        s = make_series(rng.normal(loc=3.0, scale=7.0, size=(500, 4)))
        out, _ = zscore(s)
        assert np.abs(out.values.mean(axis=0)).max() < 1e-12
        assert np.abs(out.values.std(axis=0, ddof=1) - 1).max() < 1e-12

    def test_missing_cells_ignored_and_preserved(self, rng):
        values = rng.normal(size=(60, 2))
        missing = rng.random((60, 2)) < 0.2
        s = make_series(values, missing=missing)
        out, params = zscore(s)
        assert np.array_equal(out.missing, s.missing)
        obs = values[~missing[:, 0], 0]
        assert np.isclose(params.mean[0], obs.mean())

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_inverse_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(30, 3)) * 10 + rng.normal(size=3)
        s = make_series(values)
        out, params = zscore(s)
        back = inverse_zscore(out, params)
        assert np.allclose(back.values, values, rtol=1e-10, atol=1e-10)


class TestEmbed:
    def test_univariate_pairs(self):
        s = make_series(np.array([[1.0], [2.0], [3.0], [4.0], [5.0]]))
        emb = embed(s, EmbeddingConfig(kappa=2, tau=1))
        assert np.array_equal(emb.values, [[2, 1], [3, 2], [4, 3], [5, 4]])
        assert np.array_equal(emb.times, [1, 2, 3, 4])

    def test_kappa_one_is_identity(self, small_series):
        emb = embed(small_series, EmbeddingConfig(kappa=1, tau=5))
        assert np.array_equal(emb.values, small_series.values)
        assert np.array_equal(emb.times, np.arange(small_series.n))

    def test_two_vars_kappa3_tau2(self, rng):
        values = rng.normal(size=(7, 2))
        emb = embed(make_series(values), EmbeddingConfig(kappa=3, tau=2))
        assert emb.values.shape == (3, 6)
        expected = np.concatenate([values[4], values[2], values[0]])
        assert np.array_equal(emb.values[0], expected)

    def test_missing_cell_marks_all_touching_rows(self):
        values = np.arange(12, dtype=float).reshape(6, 2)
        missing = np.zeros((6, 2), dtype=bool)
        missing[3, 1] = True
        emb = embed(make_series(values, missing=missing), EmbeddingConfig(kappa=2, tau=1))
        # rows anchored at t=3 and t=4 both touch the missing cell
        assert list(emb.missing) == [False, False, True, True, False]

    def test_invalid_config_rejected(self, small_series):
        with pytest.raises(ConfigError):
            embed(small_series, EmbeddingConfig(kappa=300, tau=1))
        with pytest.raises(ConfigError):
            EmbeddingConfig(kappa=0, tau=1)
        with pytest.raises(ConfigError):
            EmbeddingConfig(kappa=2, tau=0)

    @given(
        n=st.integers(2, 40),
        d=st.integers(1, 4),
        kappa=st.integers(1, 5),
        tau=st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_shape_property(self, n, d, kappa, tau):
        if (kappa - 1) * tau >= n:
            return
        s = make_series(np.arange(n * d, dtype=float).reshape(n, d))
        emb = embed(s, EmbeddingConfig(kappa=kappa, tau=tau))
        assert emb.values.shape == (n - (kappa - 1) * tau, kappa * d)
        assert emb.times.shape == (n - (kappa - 1) * tau,)
