"""Command-line entry points: detect, attribute, baseline, simulate."""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
from contextlib import contextmanager

from .attribution import (
    AttributionConfig,
    AttributionReport,
    attribute,
    baseline_histograms,
    pre_event_scores,
    pre_event_window,
)
from .config import RunConfig, build_run_config, load_synth_spec
from .counterfactual import apply_replacement
from .detector import Detection, ScanConfig, detect, score_interval
from .errors import AnomattrError, ConfigError
from .series import (
    EmbeddingConfig,
    Interval,
    MultivariateSeries,
    inverse_zscore,
    load_csv,
    write_csv,
    zscore,
)
from .synth import generate

# Named, not __name__: run as ``python -m anomattr.cli`` this module is
# ``__main__``, whose lines would miss the ``anomattr`` logger and run.log.
log = logging.getLogger("anomattr.cli")


def _fmt(x: float) -> str:
    return repr(float(x))


@contextmanager
def _run_context(cfg: RunConfig):
    """Create the output directory and log the run to its ``run.log``.

    Yields the directory. A run refused inside it logs the reason at
    ERROR before it ends. On exit the log file is detached and the
    ``anomattr`` logger gets back the level it had.
    """
    os.makedirs(cfg.output_dir, exist_ok=True)
    handler = logging.FileHandler(os.path.join(cfg.output_dir, "run.log"), mode="a")
    handler.setLevel(logging.INFO)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s %(message)s"))
    root = logging.getLogger("anomattr")
    level = root.level
    root.setLevel(logging.INFO)
    root.addHandler(handler)
    try:
        yield cfg.output_dir
    except (AnomattrError, OSError) as exc:  # the refusals main reports
        log.error("%s", exc)
        raise
    finally:
        root.removeHandler(handler)
        handler.close()
        root.setLevel(level)


def _load_input(cfg: RunConfig) -> MultivariateSeries:
    if not cfg.input:
        raise ConfigError("no input file given (use --input or the config file)")
    if not os.path.exists(cfg.input):
        raise ConfigError(f"input file does not exist: {cfg.input}")
    return load_csv(cfg.input)


def _check_within(interval: Interval, series: MultivariateSeries) -> Interval:
    if interval.b > series.n:
        raise ConfigError(
            f"interval [{interval.a}, {interval.b}) exceeds series length {series.n}"
        )
    return interval


def _prepare_series(cfg: RunConfig) -> tuple[MultivariateSeries, MultivariateSeries, object | None]:
    """The input series as scored (z-scored unless ``normalize`` is off), the
    series as read, and the z-score parameters or None."""
    raw_series = _load_input(cfg)
    if cfg.normalize:
        series, params = zscore(raw_series)
        return series, raw_series, params
    return raw_series, raw_series, None


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _config_echo(cfg: RunConfig) -> dict:
    return {
        "input": os.path.basename(cfg.input) if cfg.input else None,
        "kappa": cfg.kappa,
        "tau": cfg.tau,
        "seed": cfg.seed,
        "normalize": cfg.normalize,
        "len_min": cfg.len_min,
        "len_max": cfg.len_max,
        "top_k": cfg.top_k,
        "stride": cfg.stride,
    }


def cmd_detect(cfg: RunConfig) -> int:
    if cfg.len_min is None or cfg.len_max is None:
        raise ConfigError("detect needs --len-min and --len-max")
    scan = ScanConfig(
        len_min=cfg.len_min,
        len_max=cfg.len_max,
        top_k=cfg.top_k,
        stride=cfg.stride,
        embedding=EmbeddingConfig(cfg.kappa, cfg.tau),
    )
    series, _, _ = _prepare_series(cfg)
    with _run_context(cfg) as out_dir:
        log.info("detect input=%s n=%d d=%d", os.path.basename(cfg.input), series.n, series.d)
        detections = detect(series, scan, threads=cfg.threads)
        payload = {
            "config": _config_echo(cfg),
            "detections": [
                {"a": det.interval.a, "b": det.interval.b, "score": det.score, "rank": det.rank}
                for det in detections
            ],
        }
        _write_json(os.path.join(out_dir, "detections.json"), payload)
        print(f"{'rank':>4}  {'interval':>16}  {'score':>14}")
        for det in detections:
            span = f"[{det.interval.a}, {det.interval.b})"
            print(f"{det.rank:>4}  {span:>16}  {det.score:>14.4f}")
    return 0


def _load_detections(cfg: RunConfig, series: MultivariateSeries) -> list[Detection]:
    if cfg.interval is not None:
        return []
    path = cfg.detections or os.path.join(cfg.output_dir, "detections.json")
    if not os.path.exists(path):
        raise ConfigError(
            f"no detections file at {path}; run detect first or pass --interval a:b"
        )
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        detections: list[Detection] = []
        for rec in payload["detections"]:
            a, b, score, rank = rec["a"], rec["b"], rec["score"], rec["rank"]
            if type(a) is not int or type(b) is not int:
                raise ValueError(f"interval bounds must be integers, got a={a!r}, b={b!r}")
            interval = _check_within(Interval(a, b), series)
            # The rank names output files; JSON booleans are not numbers here.
            if type(rank) is not int or rank < 1 or rank in {d.rank for d in detections}:
                raise ValueError(f"rank must be a distinct integer >= 1, got {rank!r}")
            if type(score) not in (int, float) or not math.isfinite(score):
                raise ValueError(f"score must be a finite number, got {score!r}")
            detections.append(Detection(interval=interval, score=float(score), rank=rank))
        return detections
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        problem = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigError(f"detections file {path} is malformed: {problem}") from None


def _report_columns(cfg: RunConfig) -> list[str]:
    return [f"before_{off}" for off in cfg.offsets] + ["detection"]


def _write_attribution_csv(
    path: str, reports: dict[str, AttributionReport], columns: list[str]
) -> None:
    detection_report = reports["detection"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subset", "size", *columns])
        writer.writerow(
            ["original", 0, *[_fmt(reports[c].original_score) for c in columns]]
        )
        for pos, entry in enumerate(detection_report.subsets):
            row = ["+".join(entry.subset.labels(detection_report.names)), entry.subset.size]
            for col in columns:
                other = reports[col].subsets[pos].mean_score
                row.append("" if other is None else _fmt(other))
            writer.writerow(row)


def _write_replacement_preview(
    path: str,
    series: MultivariateSeries,
    raw_series: MultivariateSeries,
    zparams,
    report: AttributionReport,
) -> None:
    """Realization 0 of the best subset, as the attribution drew and scored it."""
    best = report.best()
    modified = apply_replacement(series, report.interval, best.subset.indices, report.preview)
    if zparams is not None:
        modified = inverse_zscore(modified, zparams)
    labels = best.subset.labels(series.names)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = ["time"]
        for name in labels:
            header += [f"{name}_observed", f"{name}_counterfactual"]
        writer.writerow(header)
        for t in range(series.n):
            row = [str(raw_series.start_index + t)]
            for name, j in zip(labels, best.subset.indices):
                obs = "" if raw_series.missing[t, j] else _fmt(raw_series.values[t, j])
                cf = "" if modified.missing[t, j] else _fmt(modified.values[t, j])
                row += [obs, cf]
            writer.writerow(row)


def cmd_attribute(cfg: RunConfig) -> int:
    series, raw_series, zparams = _prepare_series(cfg)
    detections = _load_detections(cfg, series)
    emb = EmbeddingConfig(cfg.kappa, cfg.tau)
    acfg = AttributionConfig(
        embedding=emb,
        realizations=cfg.realizations,
        seed=cfg.seed,
        max_subset_size=cfg.max_subset,
        baseline_bins=cfg.bins,
        threads=cfg.threads,
    )
    if cfg.interval is not None:
        detections = [
            Detection(
                interval=_check_within(cfg.interval, series),
                score=score_interval(series, cfg.interval, emb),
                rank=1,
            )
        ]
    if not detections:
        raise ConfigError("nothing to attribute: no detections and no --interval")
    # Every window is checked before anything is scored or written.
    for det in detections:
        for off in cfg.offsets:
            pre_event_window(det.interval, off, series.n, cfg.offset_length)
    columns = _report_columns(cfg)
    with _run_context(cfg) as out_dir:
        for det in detections:
            log.info("attribute rank=%d interval=[%d, %d)", det.rank, det.interval.a, det.interval.b)
            reports = {"detection": attribute(series, det, acfg)}
            for off in cfg.offsets:
                reports[f"before_{off}"] = pre_event_scores(
                    series, det, off, acfg, length=cfg.offset_length
                )
            _write_json(
                os.path.join(out_dir, f"attribution_{det.rank}.json"),
                reports["detection"].to_dict(),
            )
            for off in cfg.offsets:
                _write_json(
                    os.path.join(out_dir, f"attribution_{det.rank}_before_{off}.json"),
                    reports[f"before_{off}"].to_dict(),
                )
            _write_attribution_csv(
                os.path.join(out_dir, f"attribution_{det.rank}.csv"), reports, columns
            )
            if det.rank == 1:
                _write_replacement_preview(
                    os.path.join(out_dir, "replacement_preview.csv"),
                    series,
                    raw_series,
                    zparams,
                    reports["detection"],
                )
        print(f"wrote attribution reports for {len(detections)} detection(s) to {out_dir}")
    return 0


def cmd_baseline(cfg: RunConfig) -> int:
    if cfg.bins < 2:
        raise ConfigError(f"bins must be >= 2, got {cfg.bins}")
    series, _, _ = _prepare_series(cfg)
    if cfg.interval is not None:
        interval = _check_within(cfg.interval, series)
    else:
        detections = _load_detections(cfg, series)
        if not detections:
            raise ConfigError("baseline needs --interval a:b or a detections file")
        interval = min(detections, key=lambda det: det.rank).interval
    with _run_context(cfg) as out_dir:
        log.info("baseline interval=[%d, %d) bins=%d", interval.a, interval.b, cfg.bins)
        scores, edges, red, green = baseline_histograms(series, interval, cfg.bins)
        payload = {
            "interval": {"a": interval.a, "b": interval.b},
            "bins": cfg.bins,
            "scores": {name: float(s) for name, s in zip(series.names, scores)},
        }
        _write_json(os.path.join(out_dir, "baseline.json"), payload)
        with open(
            os.path.join(out_dir, "baseline_histograms.csv"), "w", newline="", encoding="utf-8"
        ) as fh:
            writer = csv.writer(fh)
            writer.writerow(["variable", "bin_left", "bin_right", "interval_count", "overall_count"])
            for j, name in enumerate(series.names):
                for k in range(cfg.bins):
                    writer.writerow(
                        [name, _fmt(edges[j, k]), _fmt(edges[j, k + 1]), int(red[j, k]), int(green[j, k])]
                    )
        for name, s in sorted(zip(series.names, scores), key=lambda t: -t[1]):
            print(f"{name:>12}  {s:.6f}")
    return 0


def cmd_simulate(cfg: RunConfig) -> int:
    if not cfg.spec:
        raise ConfigError("simulate needs --spec <file>")
    if not os.path.exists(cfg.spec):
        raise ConfigError(f"spec file does not exist: {cfg.spec}")
    spec = load_synth_spec(cfg.spec)
    series, truth = generate(spec)
    out_dir = cfg.output_dir
    os.makedirs(out_dir, exist_ok=True)
    write_csv(series, os.path.join(out_dir, "series.csv"))
    payload = {
        "n": spec.n,
        "d": spec.d,
        "seed": spec.seed,
        "names": list(series.names),
        "anomalies": [
            {
                "a": inj.interval.a,
                "b": inj.interval.b,
                "variables": [series.names[v] for v in inj.variables],
                "kind": inj.kind,
                "magnitude": inj.magnitude,
            }
            for inj in truth
        ],
    }
    _write_json(os.path.join(out_dir, "ground_truth.json"), payload)
    print(f"wrote series.csv and ground_truth.json to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anomattr",
        description="Detect anomalous intervals in multivariate time series and "
        "attribute them to variable subsets via counterfactual replacement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shared(p):
        p.add_argument("--input", help="input series CSV")
        p.add_argument("--config", help="key-value config file")
        p.add_argument("--output-dir", dest="output_dir", help="directory for outputs")
        p.add_argument("--kappa", type=int, help="embedding dimension (default 3)")
        p.add_argument("--tau", type=int, help="embedding lag (default 1)")
        p.add_argument("--seed", type=int, help="root random seed (default 0)")
        p.add_argument("--threads", type=int, help="worker threads (default 1)")
        p.add_argument(
            "--normalize",
            action=argparse.BooleanOptionalAction,
            default=None,
            help="z-score each variable before scoring (default on)",
        )

    p_detect = sub.add_parser("detect", help="scan for the most divergent intervals")
    add_shared(p_detect)
    p_detect.add_argument("--len-min", dest="len_min", type=int, help="minimum interval length")
    p_detect.add_argument("--len-max", dest="len_max", type=int, help="maximum interval length")
    p_detect.add_argument("--top-k", dest="top_k", type=int, help="number of detections (default 1)")
    p_detect.add_argument("--stride", type=int, help="start-grid stride (default 1)")

    p_attr = sub.add_parser("attribute", help="counterfactual subset attribution")
    add_shared(p_attr)
    p_attr.add_argument("--detections", help="detections.json from a detect run")
    p_attr.add_argument("--interval", help="explicit interval a:b instead of detections")
    p_attr.add_argument("--max-subset", dest="max_subset", type=int, help="subset size cap")
    p_attr.add_argument(
        "--realizations", type=int, help="replacement draws per subset (default 10)"
    )
    p_attr.add_argument(
        "--offset",
        dest="offsets",
        action="append",
        type=int,
        default=[],
        help="also score a window this many steps before the detection (repeatable, distinct)",
    )
    p_attr.add_argument(
        "--offset-length",
        dest="offset_length",
        type=int,
        help="explicit length of pre-event windows (default: detection length)",
    )
    p_attr.add_argument("--bins", type=int, help="baseline histogram bins (default 30)")

    p_base = sub.add_parser("baseline", help="univariate histogram divergence per variable")
    add_shared(p_base)
    p_base.add_argument("--detections", help="detections.json from a detect run")
    p_base.add_argument("--interval", help="interval a:b")
    p_base.add_argument("--bins", type=int, help="histogram bins (default 30)")

    p_sim = sub.add_parser("simulate", help="generate a synthetic series with ground truth")
    add_shared(p_sim)
    p_sim.add_argument("--spec", help="synthesis spec file")

    return parser


_COMMANDS = {
    "detect": cmd_detect,
    "attribute": cmd_attribute,
    "baseline": cmd_baseline,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    values = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    try:
        cfg = build_run_config(values, args.config)
        return _COMMANDS[args.command](cfg)
    except (AnomattrError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
