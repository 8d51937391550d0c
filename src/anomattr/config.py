"""Key-value config files, run configuration, and the synthesis spec format.

Config files are plain text, one ``key = value`` per line, ``#`` comments.
Repeatable keys (``offset``, ``anomaly``) may appear multiple times. Every
CLI flag overrides its config key; precedence is CLI > file > default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ParseError
from .series import Interval
from .synth import Injection, SynthSpec


def parse_kv_file(path) -> dict[str, list[str]]:
    """Read a key-value file into {key: [raw values in order]}."""
    out: dict[str, list[str]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{path}: line {lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if not key:
                raise ParseError(f"{path}: line {lineno}: empty key")
            out.setdefault(key, []).append(value.strip())
    return out


def parse_interval_spec(text: str) -> Interval:
    """Parse 'a:b' into a half-open interval."""
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"interval must look like 'a:b', got {text!r}")
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigError(f"interval bounds must be integers, got {text!r}") from None
    if a < 0 or a >= b:
        raise ConfigError(f"interval needs 0 <= a < b, got {text!r}")
    return Interval(a, b)


def _parse_bool(text: str, key: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"config key {key!r}: cannot parse boolean {text!r}")


def _parse_int(text: str, key: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"config key {key!r}: cannot parse integer {text!r}") from None


@dataclass
class RunConfig:
    """Everything a CLI run needs; fields left None fall back to subcommand rules."""

    input: str | None = None
    output_dir: str = "."
    kappa: int = 3
    tau: int = 1
    seed: int = 0
    threads: int = 1
    normalize: bool = True
    len_min: int | None = None
    len_max: int | None = None
    top_k: int = 1
    stride: int = 1
    max_subset: int | None = None
    realizations: int = 10
    offsets: tuple[int, ...] = ()
    offset_length: int | None = None
    interval: Interval | None = None
    detections: str | None = None
    bins: int = 30
    spec: str | None = None


_INT_KEYS = {
    "kappa",
    "tau",
    "seed",
    "threads",
    "len_min",
    "len_max",
    "top_k",
    "stride",
    "max_subset",
    "realizations",
    "offset_length",
    "bins",
}
_BOOL_KEYS = {"normalize"}
_STR_KEYS = {"input", "output_dir", "detections", "spec"}


def build_run_config(cli_values: dict, config_path: str | None) -> RunConfig:
    """Merge CLI values over config-file values over defaults."""
    cfg = RunConfig()
    file_values = parse_kv_file(config_path) if config_path else {}
    for key, raws in file_values.items():
        if key in _INT_KEYS:
            setattr(cfg, key, _parse_int(raws[-1], key))
        elif key in _BOOL_KEYS:
            setattr(cfg, key, _parse_bool(raws[-1], key))
        elif key in _STR_KEYS:
            setattr(cfg, key, raws[-1])
        elif key == "offset":
            cfg.offsets = tuple(_parse_int(r, key) for r in raws)
        elif key == "interval":
            cfg.interval = parse_interval_spec(raws[-1])
        else:
            raise ConfigError(f"unknown config key {key!r}")
    for key, value in cli_values.items():
        if value is None:
            continue
        if key == "offsets" and value == []:
            continue
        if key == "interval" and isinstance(value, str):
            value = parse_interval_spec(value)
        if key == "offsets":
            value = tuple(value)
        setattr(cfg, key, value)
    if cfg.seed < 0:
        raise ConfigError(f"seed must be non-negative, got {cfg.seed}")
    if cfg.threads < 1:
        raise ConfigError(f"threads must be >= 1, got {cfg.threads}")
    if any(off < 0 for off in cfg.offsets):
        raise ConfigError("offsets must be non-negative")
    if len(set(cfg.offsets)) != len(cfg.offsets):
        raise ConfigError(f"offsets must be distinct, got {', '.join(map(str, cfg.offsets))}")
    if cfg.offset_length is not None and cfg.offset_length < 1:
        raise ConfigError(f"offset_length must be >= 1, got {cfg.offset_length}")
    return cfg


def _parse_matrix(raws: list[str], key: str, d: int) -> np.ndarray:
    """Rows separated by ';', entries by whitespace or commas."""
    text = raws[-1]
    rows = []
    for chunk in text.split(";"):
        entries = chunk.replace(",", " ").split()
        if not entries:
            continue
        try:
            rows.append([float(e) for e in entries])
        except ValueError:
            raise ConfigError(f"spec key {key!r}: cannot parse matrix row {chunk!r}") from None
    mat = np.array(rows)
    if mat.shape != (d, d):
        raise ConfigError(f"spec key {key!r}: expected a {d}x{d} matrix, got {mat.shape}")
    return mat


def _resolve_variables(tokens: list[str], names: tuple[str, ...]) -> tuple[int, ...]:
    """Variable references by exact name or 1-based column number."""
    out = []
    for tok in tokens:
        tok = tok.strip()
        if tok in names:
            out.append(names.index(tok))
        elif tok.isdigit():
            idx = int(tok) - 1
            if not (0 <= idx < len(names)):
                raise ConfigError(f"variable number {tok} out of range 1..{len(names)}")
            out.append(idx)
        else:
            raise ConfigError(f"unknown variable {tok!r}")
    return tuple(out)


def _parse_anomaly(text: str, names: tuple[str, ...]) -> Injection:
    tokens = text.split()
    if not tokens:
        raise ConfigError("empty anomaly line")
    interval = parse_interval_spec(tokens[0])
    fields = {}
    for tok in tokens[1:]:
        if "=" not in tok:
            raise ConfigError(f"anomaly option {tok!r} must look like key=value")
        k, v = tok.split("=", 1)
        fields[k.strip()] = v.strip()
    if "vars" not in fields or "kind" not in fields:
        raise ConfigError(f"anomaly line needs vars= and kind=: {text!r}")
    variables = _resolve_variables(fields["vars"].split(","), names)
    try:
        magnitude = float(fields.get("magnitude", 0.0))
    except ValueError:
        raise ConfigError(f"anomaly magnitude must be a number, got {fields['magnitude']!r}") from None
    return Injection(
        interval=interval, variables=variables, kind=fields["kind"], magnitude=magnitude
    )


def load_synth_spec(path) -> SynthSpec:
    """Build a simulation spec from a key-value file.

    Keys: n, d, seed, optional names (comma-separated), coeff.<lag> matrices
    (rows ';'-separated), optional innovation_cov, and repeatable anomaly
    lines: ``anomaly = a:b vars=x1,x2 kind=mean_shift magnitude=4``.
    """
    kv = parse_kv_file(path)
    if "n" not in kv or "d" not in kv:
        raise ConfigError(f"{path}: spec needs at least 'n' and 'd'")
    n = _parse_int(kv["n"][-1], "n")
    d = _parse_int(kv["d"][-1], "d")
    seed = _parse_int(kv["seed"][-1], "seed") if "seed" in kv else 0
    if "names" in kv:
        names = tuple(s.strip() for s in kv["names"][-1].split(","))
        if len(names) != d:
            raise ConfigError(f"'names' lists {len(names)} labels, d={d}")
        if len(set(names)) != d:
            raise ConfigError(f"'names' must be {d} distinct labels, got {kv['names'][-1]!r}")
    else:
        names = tuple(f"x{j + 1}" for j in range(d))

    lags = sorted(_parse_int(key.split(".", 1)[1], key) for key in kv if key.startswith("coeff."))
    if lags and lags != list(range(1, len(lags) + 1)):
        raise ConfigError(f"coefficient lags must be contiguous from 1, got {lags}")
    coeffs = tuple(_parse_matrix(kv[f"coeff.{lag}"], f"coeff.{lag}", d) for lag in lags)
    innovation_cov = (
        _parse_matrix(kv["innovation_cov"], "innovation_cov", d)
        if "innovation_cov" in kv
        else None
    )
    anomalies = tuple(_parse_anomaly(line, names) for line in kv.get("anomaly", []))
    return SynthSpec(
        n=n,
        d=d,
        coeffs=coeffs,
        innovation_cov=innovation_cov,
        anomalies=anomalies,
        seed=seed,
        names=names,
    )
