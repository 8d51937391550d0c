import csv
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from anomattr import (
    AttributionConfig,
    Detection,
    EmbeddingConfig,
    Interval,
    MultivariateSeries,
    WindowModel,
    apply_replacement,
    attribute,
    inverse_zscore,
    load_csv,
    score_interval,
    write_csv,
    zscore,
)
import anomattr
from anomattr import attribution
from anomattr.cli import main

SIM_SPEC = """\
n = 900
d = 3
seed = 17
names = temp,wind,pressure
coeff.1 = 0.5 0 0 ; 0 0.5 0 ; 0 0 0.5
anomaly = 500:550 vars=temp kind=mean_shift magnitude=4
"""


def past_the_end(source, tmp_path) -> list[str]:
    """Arguments that ask for [890, 950) of the 900-step series, directly or from a file."""
    if source == "interval":
        return ["--interval", "890:950"]
    path = tmp_path / "foreign_detections.json"
    path.write_text(json.dumps({"detections": [{"a": 890, "b": 950, "score": 1.0, "rank": 1}]}))
    return ["--detections", str(path)]


def records(*changes: dict) -> str:
    """A detections file with one record per change to a valid rank-1 record."""
    base = {"a": 500, "b": 550, "score": 1.0, "rank": 1}
    return json.dumps({"detections": [{**base, **change} for change in changes]})


#: Malformed detections files: (content, the problem the error names).
BAD_DETECTIONS = {
    "invalid_json": ("{not json", "line 1 column 2"),
    "missing_b": (json.dumps({"detections": [{"a": 50, "score": 1.0, "rank": 1}]}),
                  "missing field 'b'"),
    "empty_interval": (json.dumps({"detections": [{"a": 50, "b": 20, "score": 1.0, "rank": 1}]}),
                       "invalid interval [50, 20)"),
    "rank_path": (records({"rank": "1/../x"}),
                  "rank must be a distinct integer >= 1, got '1/../x'"),
    "rank_zero": (records({"rank": 0}), "rank must be a distinct integer >= 1, got 0"),
    "rank_bool": (records({"rank": True}), "rank must be a distinct integer >= 1, got True"),
    "rank_twice": (records({}, {"a": 100, "b": 150}),
                   "rank must be a distinct integer >= 1, got 1"),
    "score_text": (records({"score": "high"}), "score must be a finite number, got 'high'"),
    "score_bool": (records({"score": False}), "score must be a finite number, got False"),
    "score_nan": (records({"score": float("nan")}), "score must be a finite number, got nan"),
    "a_bool": (records({"a": True}), "interval bounds must be integers, got a=True, b=550"),
    "b_bool": (records({"b": True}), "interval bounds must be integers, got a=500, b=True"),
}


@pytest.fixture
def sim_dir(tmp_path):
    spec = tmp_path / "spec.cfg"
    spec.write_text(SIM_SPEC)
    out = tmp_path / "sim"
    assert main(["simulate", "--spec", str(spec), "--output-dir", str(out)]) == 0
    return out


def noise_csv(tmp_path, d: int):
    """A CSV of 300 steps of white noise in ``d`` variables, the fourth shifted over [100, 140)."""
    values = np.random.default_rng(d).standard_normal((300, d))
    values[100:140, 3] += 4.0
    path = tmp_path / f"noise_{d}.csv"
    write_csv(MultivariateSeries(values), str(path))
    return path


def run_detect(sim_dir, out, extra=()):
    return main(
        [
            "detect",
            "--input",
            str(sim_dir / "series.csv"),
            "--output-dir",
            str(out),
            "--len-min",
            "40",
            "--len-max",
            "60",
            *extra,
        ]
    )


class TestSimulate:
    def test_outputs_round_trip(self, sim_dir):
        series = load_csv(sim_dir / "series.csv")
        assert (series.n, series.d) == (900, 3)
        truth = json.loads((sim_dir / "ground_truth.json").read_text())
        assert truth["anomalies"][0]["variables"] == ["temp"]
        assert truth["anomalies"][0]["a"] == 500

    def test_seeded_runs_are_identical(self, tmp_path):
        spec = tmp_path / "spec.cfg"
        spec.write_text(SIM_SPEC)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--spec", str(spec), "--output-dir", str(out1)]) == 0
        assert main(["simulate", "--spec", str(spec), "--output-dir", str(out2)]) == 0
        assert (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()

    def test_unstable_spec_exits_2_with_radius(self, tmp_path, capsys):
        spec = tmp_path / "bad.cfg"
        spec.write_text("n = 100\nd = 1\ncoeff.1 = 1.05\n")
        assert main(["simulate", "--spec", str(spec), "--output-dir", str(tmp_path / "o")]) == 2
        assert "spectral radius" in capsys.readouterr().err

    def test_missing_spec_exits_2(self, tmp_path, capsys):
        assert main(["simulate", "--spec", str(tmp_path / "nope.cfg"), "--output-dir", str(tmp_path)]) == 2
        assert "nope.cfg" in capsys.readouterr().err


class TestDetect:
    def test_finds_the_injected_interval(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "det"
        assert run_detect(sim_dir, out) == 0
        payload = json.loads((out / "detections.json").read_text())
        det = payload["detections"][0]
        assert det["rank"] == 1
        inter = max(0, min(det["b"], 550) - max(det["a"], 500))
        union = (det["b"] - det["a"]) + 50 - inter
        assert inter / union >= 0.8
        assert "rank" in capsys.readouterr().out
        assert (out / "run.log").exists()

    def test_mixed_naive_and_aware_timestamps_exit_2(self, tmp_path, capsys):
        path = tmp_path / "mixed.csv"
        path.write_text("time,a\n2020-01-01T00:00:00,1\n2020-01-02T00:00:00+00:00,2\n")
        code = main(["detect", "--input", str(path), "--output-dir", str(tmp_path / "o"),
                     "--len-min", "1", "--len-max", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: line 3: " in err and "Traceback" not in err

    def test_missing_input_exits_2_naming_path(self, tmp_path, capsys):
        code = main(
            ["detect", "--input", str(tmp_path / "ghost.csv"), "--output-dir", str(tmp_path),
             "--len-min", "10", "--len-max", "20"]
        )
        assert code == 2
        assert "ghost.csv" in capsys.readouterr().err

    def test_bad_length_bounds_exit_2_before_reading(self, tmp_path, capsys):
        code = main(
            ["detect", "--input", str(tmp_path / "ghost.csv"), "--output-dir", str(tmp_path),
             "--len-min", "30", "--len-max", "20"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "len_min" in err and "ghost" not in err

    def test_config_file_supplies_flags(self, sim_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("len_min = 40\nlen_max = 60\ntop_k = 1\n")
        out = tmp_path / "det"
        code = main(
            ["detect", "--input", str(sim_dir / "series.csv"), "--config", str(cfg),
             "--output-dir", str(out)]
        )
        assert code == 0
        assert (out / "detections.json").exists()

    def test_threads_flag_gives_identical_output(self, sim_dir, tmp_path):
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        assert run_detect(sim_dir, out1) == 0
        assert run_detect(sim_dir, out2, extra=["--threads", "4"]) == 0
        assert (out1 / "detections.json").read_bytes() == (out2 / "detections.json").read_bytes()

    def test_handles_missing_cells(self, sim_dir, tmp_path):
        text = (sim_dir / "series.csv").read_text().splitlines()
        # punch a few holes in the data
        for i in (100, 101, 400):
            cells = text[i].split(",")
            cells[1] = ""
            text[i] = ",".join(cells)
        holey = tmp_path / "holey.csv"
        holey.write_text("\n".join(text) + "\n")
        out = tmp_path / "det"
        code = main(
            ["detect", "--input", str(holey), "--output-dir", str(out),
             "--len-min", "40", "--len-max", "60"]
        )
        assert code == 0
        det = json.loads((out / "detections.json").read_text())["detections"][0]
        assert 490 <= det["a"] <= 510


class TestAttribute:
    def test_reports_tables_and_preview(self, sim_dir, tmp_path):
        out = tmp_path / "out"
        assert run_detect(sim_dir, out) == 0
        code = main(
            [
                "attribute",
                "--input",
                str(sim_dir / "series.csv"),
                "--output-dir",
                str(out),
                "--detections",
                str(out / "detections.json"),
                "--realizations",
                "3",
                "--offset",
                "200",
                "--seed",
                "5",
            ]
        )
        assert code == 0

        report = json.loads((out / "attribution_1.json").read_text())
        assert len(report["subsets"]) == 6  # C(3,1) + C(3,2)
        singles = [s for s in report["subsets"] if s["size"] == 1]
        best = min(singles, key=lambda s: s["mean_score"])
        assert best["variables"] == ["temp"]
        assert set(report["baseline"]) == {"temp", "wind", "pressure"}

        pre = json.loads((out / "attribution_1_before_200.json").read_text())
        assert pre["label"] == "pre_event" and pre["offset"] == 200

        with open(out / "attribution_1.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["subset", "size", "before_200", "detection"]
        assert rows[1][0] == "original"
        assert len(rows) == 2 + 6
        det_scores = {r[0]: float(r[3]) for r in rows[1:]}
        assert det_scores["temp"] < det_scores["wind"]

        with open(out / "replacement_preview.csv", newline="") as fh:
            prev = list(csv.reader(fh))
        assert prev[0][0] == "time"
        assert any(col.endswith("_counterfactual") for col in prev[0])
        assert len(prev) == 1 + 900

    def test_explicit_interval(self, sim_dir, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["attribute", "--input", str(sim_dir / "series.csv"), "--output-dir", str(out),
             "--interval", "500:550", "--realizations", "2"]
        )
        assert code == 0
        report = json.loads((out / "attribution_1.json").read_text())
        assert report["interval"] == {"a": 500, "b": 550}

    def test_preview_is_realization_zero_of_the_best_subset(self, sim_dir, tmp_path):
        """The preview is realization 0 of the best subset, drawn from the
        window model with seed [seed, subset position, 0]: with one
        realization, its series re-scores to exactly the subset's reported
        mean score."""
        out = tmp_path / "out"
        code = main(
            ["attribute", "--input", str(sim_dir / "series.csv"), "--output-dir", str(out),
             "--interval", "500:550", "--realizations", "1", "--seed", "5"]
        )
        assert code == 0
        series, zparams = zscore(load_csv(sim_dir / "series.csv"))
        iv = Interval(500, 550)
        report = attribute(series, Detection(iv, 0.0, 1), AttributionConfig(realizations=1, seed=5))
        best = report.best()
        pos = report.subsets.index(best)
        model = WindowModel.fit(series, iv, EmbeddingConfig())
        (sample,) = model.draws(best.subset.indices, [np.random.SeedSequence([5, pos, 0])])
        modified = apply_replacement(series, iv, best.subset.indices, sample)
        assert score_interval(modified, iv, EmbeddingConfig()) == pytest.approx(
            best.mean_score, rel=1e-9
        )

        expected = inverse_zscore(modified, zparams)
        with open(out / "replacement_preview.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == series.n
        for j in best.subset.indices:
            column = f"{series.names[j]}_counterfactual"
            got = np.array([float(row[column]) for row in rows])
            assert np.array_equal(got, expected.values[:, j])

    @pytest.mark.parametrize("source", ["interval", "detections"])
    def test_interval_past_the_series_end_exits_2(self, sim_dir, tmp_path, capsys, source):
        code = main(
            ["attribute", "--input", str(sim_dir / "series.csv"), "--output-dir", str(tmp_path),
             *past_the_end(source, tmp_path), "--realizations", "1"]
        )
        assert code == 2
        assert "error: interval [890, 950) exceeds series length 900" in capsys.readouterr().err

    def test_malformed_interval_exits_2(self, sim_dir, tmp_path):
        code = main(
            ["attribute", "--input", str(sim_dir / "series.csv"), "--output-dir", str(tmp_path),
             "--interval", "oops"]
        )
        assert code == 2

    def test_single_bin_exits_2_before_scoring(self, sim_dir, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a subset was scored")

        monkeypatch.setattr(attribution, "_score_chunk", refuse)
        code = main(
            ["attribute", "--input", str(sim_dir / "series.csv"), "--output-dir", str(tmp_path),
             "--interval", "500:550", "--bins", "1"]
        )
        assert code == 2
        assert "error: bins must be >= 2, got 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "window, problem",
        [
            (["--offset", "50", "--offset-length", "500"],
             "pre-event window [450, 950) out of range for n=900"),
            (["--offset", "50", "--offset-length", "0"], "offset_length must be >= 1, got 0"),
            (["--offset", "50", "--offset", "50"], "offsets must be distinct, got 50, 50"),
        ],
        ids=["rank_2_past_the_end", "zero_length", "repeated_offset"],
    )
    def test_bad_pre_event_window_exits_2_before_writing(
        self, sim_dir, tmp_path, capsys, monkeypatch, window, problem
    ):
        """Rank 1's window [50, 550) fits the series; rank 2's does not, no
        window has a length, or one window would be scored twice. Nothing is
        scored and no output is written."""
        def refuse(*args, **kwargs):
            raise AssertionError("a subset was scored")

        monkeypatch.setattr(attribution, "_score_chunk", refuse)
        path = tmp_path / "detections.json"
        path.write_text(records({"a": 100, "b": 150}, {"a": 500, "b": 550, "rank": 2}))
        out = tmp_path / "out"
        code = main(
            ["attribute", "--input", str(sim_dir / "series.csv"), "--output-dir", str(out),
             "--detections", str(path), "--realizations", "1", *window]
        )
        assert code == 2
        assert f"error: {problem}" in capsys.readouterr().err
        assert not out.exists()

    def test_fixed_seed_outputs_are_byte_identical(self, sim_dir, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            code = main(
                ["attribute", "--input", str(sim_dir / "series.csv"), "--output-dir", str(out),
                 "--interval", "500:550", "--realizations", "2", "--seed", "3"]
            )
            assert code == 0
            outs.append(out)
        for fname in ("attribution_1.json", "attribution_1.csv", "replacement_preview.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    @pytest.mark.parametrize("b, code", [(112, 0), (111, 2)], ids=["width", "one_row_fewer"])
    def test_a_named_interval_needs_the_width(self, tmp_path, capsys, b, code):
        """At d = 4 and kappa = 3, so width 12, an interval of 12 usable rows is
        attributed; one of 11 is refused before anything is written."""
        out = tmp_path / "out"
        got = main(
            ["attribute", "--input", str(noise_csv(tmp_path, 4)), "--output-dir", str(out),
             "--interval", f"100:{b}", "--kappa", "3", "--max-subset", "1", "--realizations", "2"]
        )
        assert got == code
        if code:
            assert "11 usable embedded rows, fewer than the width 12" in capsys.readouterr().err
            assert not out.exists()
        else:
            report = json.loads((out / "attribution_1.json").read_text())
            assert [s["mean_score"] is not None for s in report["subsets"]] == [True] * 4

    def test_a_wide_series_needs_a_subset_cap(self, tmp_path, capsys):
        """21 variables at the default cap of 11 give more subsets than any
        window may enumerate; capped at 2 they give 231."""
        args = ["attribute", "--input", str(noise_csv(tmp_path, 21)), "--interval", "100:140",
                "--kappa", "1", "--realizations", "2"]
        refused = tmp_path / "refused"
        assert main([*args, "--output-dir", str(refused)]) == 2
        assert "--max-subset" in capsys.readouterr().err
        assert not list(refused.glob("attribution_*"))
        assert not (refused / "replacement_preview.csv").exists()
        capped = tmp_path / "capped"
        assert main([*args, "--output-dir", str(capped), "--max-subset", "2"]) == 0
        report = json.loads((capped / "attribution_1.json").read_text())
        assert len(report["subsets"]) == 231
        assert all(s["mean_score"] is not None for s in report["subsets"])


def test_each_command_restores_the_anomattr_logger(sim_dir, tmp_path):
    """Whether a command exits 0 or fails after its log is attached, the
    ``anomattr`` logger keeps the level and handlers it had before."""
    logger = logging.getLogger("anomattr")
    level = logger.level
    logger.setLevel(logging.WARNING)
    try:
        state = logger.level, list(logger.handlers)
        series = str(sim_dir / "series.csv")
        assert run_detect(sim_dir, tmp_path / "det") == 0
        assert (logger.level, logger.handlers) == state
        base = ["baseline", "--input", series, "--output-dir", str(tmp_path / "b")]
        assert main([*base, "--interval", "500:550"]) == 0
        assert (logger.level, logger.handlers) == state
        wide = ["attribute", "--input", str(noise_csv(tmp_path, 21)), "--interval", "100:140",
                "--kappa", "1", "--output-dir", str(tmp_path / "a")]
        assert main(wide) == 2  # refused inside the run, with run.log attached
        assert (tmp_path / "a" / "run.log").exists()
        assert (logger.level, logger.handlers) == state
    finally:
        logger.setLevel(level)


def test_a_refused_run_logs_its_reason(tmp_path, capsys):
    """A run refused after its log is attached writes the reason to run.log
    too, at ERROR, not to stderr alone."""
    out = tmp_path / "a"
    wide = ["attribute", "--input", str(noise_csv(tmp_path, 21)), "--interval", "100:140",
            "--kappa", "1", "--output-dir", str(out)]
    assert main(wide) == 2
    assert "--max-subset" in capsys.readouterr().err
    (line,) = [x for x in (out / "run.log").read_text().splitlines() if x.startswith("ERROR")]
    assert line.startswith("ERROR anomattr.cli ") and "--max-subset" in line


def test_module_run_logs_the_cli_lines(sim_dir, tmp_path):
    """Run as ``python -m anomattr.cli``, the CLI's own lines reach run.log."""
    out = tmp_path / "det"
    src = str(Path(anomattr.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run(
        [sys.executable, "-m", "anomattr.cli", "detect", "--input", str(sim_dir / "series.csv"),
         "--output-dir", str(out), "--len-min", "40", "--len-max", "44", "--kappa", "2"],
        check=True, env=env, capture_output=True,
    )
    log = (out / "run.log").read_text()
    assert "INFO anomattr.cli detect input=series.csv" in log
    assert "INFO anomattr.detector scan over" in log


class TestBaseline:
    def test_scores_and_histograms(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "base"
        code = main(
            ["baseline", "--input", str(sim_dir / "series.csv"), "--output-dir", str(out),
             "--interval", "500:550"]
        )
        assert code == 0
        payload = json.loads((out / "baseline.json").read_text())
        assert max(payload["scores"], key=payload["scores"].get) == "temp"
        with open(out / "baseline_histograms.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["variable", "bin_left", "bin_right", "interval_count", "overall_count"]
        assert len(rows) == 1 + 3 * 30
        per_var = [r for r in rows[1:] if r[0] == "temp"]
        assert sum(int(r[3]) for r in per_var) == 50

    def test_identical_distribution_scores_stay_small(self, tmp_path):
        spec = tmp_path / "flat.cfg"
        spec.write_text("n = 5000\nd = 3\nseed = 2\n")
        sim = tmp_path / "sim"
        assert main(["simulate", "--spec", str(spec), "--output-dir", str(sim)]) == 0
        out = tmp_path / "base"
        code = main(
            ["baseline", "--input", str(sim / "series.csv"), "--output-dir", str(out),
             "--interval", "2000:2500"]
        )
        assert code == 0
        payload = json.loads((out / "baseline.json").read_text())
        assert max(payload["scores"].values()) < 0.05

    @pytest.mark.parametrize("source", ["interval", "detections"])
    def test_interval_past_the_series_end_exits_2(self, sim_dir, tmp_path, capsys, source):
        code = main(
            ["baseline", "--input", str(sim_dir / "series.csv"), "--output-dir", str(tmp_path),
             *past_the_end(source, tmp_path)]
        )
        assert code == 2
        assert "error: interval [890, 950) exceeds series length 900" in capsys.readouterr().err

    def test_single_bin_exits_2(self, sim_dir, tmp_path):
        code = main(
            ["baseline", "--input", str(sim_dir / "series.csv"), "--output-dir", str(tmp_path),
             "--interval", "500:550", "--bins", "1"]
        )
        assert code == 2

    def test_detections_file_gives_the_rank_1_interval(self, sim_dir, tmp_path):
        """The records are in reverse rank order; rank 1 is used, not the first record."""
        path = tmp_path / "detections.json"
        path.write_text(records({"a": 100, "b": 150, "rank": 2}, {}))
        out = tmp_path / "base"
        code = main(
            ["baseline", "--input", str(sim_dir / "series.csv"), "--output-dir", str(out),
             "--detections", str(path)]
        )
        assert code == 0
        assert json.loads((out / "baseline.json").read_text())["interval"] == {"a": 500, "b": 550}

    def test_needs_interval_or_detections(self, sim_dir, tmp_path):
        code = main(
            ["baseline", "--input", str(sim_dir / "series.csv"), "--output-dir", str(tmp_path / "x")]
        )
        assert code == 2


@pytest.mark.parametrize("case", sorted(BAD_DETECTIONS))
@pytest.mark.parametrize("command", ["attribute", "baseline"])
def test_malformed_detections_file_exits_2(sim_dir, tmp_path, capsys, command, case):
    content, problem = BAD_DETECTIONS[case]
    path = tmp_path / "bad_detections.json"
    path.write_text(content)
    code = main(
        [command, "--input", str(sim_dir / "series.csv"), "--output-dir", str(tmp_path / "out"),
         "--detections", str(path)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: detections file {path}")
    assert problem in err
    assert not (tmp_path / "out").exists()


BAD_SPECS = {
    "coeff_lag": ("n = 100\nd = 1\ncoeff.x = 0.5\n", "config key 'coeff.x': cannot parse integer 'x'"),
    "magnitude": (
        "n = 100\nd = 1\nanomaly = 10:20 vars=x1 kind=mean_shift magnitude=big\n",
        "anomaly magnitude must be a number, got 'big'",
    ),
    "duplicate_names": ("n = 100\nd = 2\nnames = a,a\n", "'names' must be 2 distinct labels, got 'a,a'"),
}


@pytest.mark.parametrize("case", list(BAD_SPECS))
def test_malformed_spec_exits_2(tmp_path, capsys, case):
    content, problem = BAD_SPECS[case]
    spec = tmp_path / "spec.cfg"
    spec.write_text(content)
    assert main(["simulate", "--spec", str(spec), "--output-dir", str(tmp_path / "o")]) == 2
    assert f"error: {problem}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
