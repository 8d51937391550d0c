"""Multivariate series container, CSV I/O, normalization, and time-delay embedding.

Time is a uniform integer grid: row ``t`` of the value matrix is the sample at
step ``t``. Calendar timestamps in input files are reduced to ordinal
positions; only the integer origin of the grid is kept as metadata.
"""

from __future__ import annotations

import csv
import datetime
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EstimationError, ParseError

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class MultivariateSeries:
    """An n x d value matrix with a per-cell missing mask.

    Rows are time steps, columns are variables. Cells flagged missing are
    excluded from every statistic downstream; non-missing cells must be
    finite. Instances are immutable (the arrays are copied and locked).
    """

    values: np.ndarray
    missing: np.ndarray | None = None
    names: tuple[str, ...] | None = None
    start_index: int = 0

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise ValueError("values must be a non-empty 2-d matrix")
        n, d = values.shape
        if self.missing is None:
            missing = np.isnan(values)
        else:
            missing = np.array(self.missing, dtype=bool)
            if missing.shape != values.shape:
                raise ValueError("missing mask shape must match values")
        if not np.all(np.isfinite(values[~missing])):
            raise ValueError("non-missing cells must be finite")
        names = self.names
        if names is None:
            names = tuple(f"x{j + 1}" for j in range(d))
        else:
            names = tuple(str(s) for s in names)
        if len(names) != d or len(set(names)) != d:
            raise ValueError("names must be %d unique labels" % d)
        values.setflags(write=False)
        missing.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "missing", missing)
        object.__setattr__(self, "names", names)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def with_values(self, values: np.ndarray, missing: np.ndarray | None = None) -> "MultivariateSeries":
        """Copy of this series with new cell contents but the same identity."""
        if missing is None:
            missing = self.missing
        return MultivariateSeries(values, missing, self.names, self.start_index)


@dataclass(frozen=True, order=True)
class Interval:
    """Half-open index interval [a, b) on the time grid."""

    a: int
    b: int

    def __post_init__(self):
        if not (isinstance(self.a, (int, np.integer)) and isinstance(self.b, (int, np.integer))):
            raise ValueError("interval bounds must be integers")
        object.__setattr__(self, "a", int(self.a))
        object.__setattr__(self, "b", int(self.b))
        if self.a < 0 or self.a >= self.b:
            raise ValueError(f"invalid interval [{self.a}, {self.b})")

    @property
    def length(self) -> int:
        return self.b - self.a

    def intersects(self, other: "Interval") -> bool:
        return self.a < other.b and other.a < self.b

    def validate_within(self, n: int) -> None:
        if self.b > n:
            raise ValueError(f"interval [{self.a}, {self.b}) exceeds series length {n}")


@dataclass(frozen=True)
class EmbeddingConfig:
    """Time-delay embedding parameters: width ``kappa`` and step lag ``tau``."""

    kappa: int = 3
    tau: int = 1

    def __post_init__(self):
        if self.kappa < 1:
            raise ConfigError(f"embedding dimension must be >= 1, got {self.kappa}")
        if self.tau < 1:
            raise ConfigError(f"embedding lag must be >= 1, got {self.tau}")

    @property
    def history(self) -> int:
        """Number of leading time steps consumed by the lagged context."""
        return (self.kappa - 1) * self.tau


@dataclass(frozen=True)
class Embedding:
    """Delay-embedded view of a series.

    Row ``i`` holds the concatenation [x_t, x_{t-tau}, ..., x_{t-(kappa-1)tau}]
    anchored at time ``t = times[i]``; a row is flagged missing when any of its
    constituent cells is missing.
    """

    values: np.ndarray
    times: np.ndarray
    missing: np.ndarray

    @property
    def width(self) -> int:
        return self.values.shape[1]


def _lags(m: int, cfg: EmbeddingConfig) -> list[slice]:
    """The steps of an m-step block that lag k of every embedded row reads, k = 0..kappa-1."""
    return [slice(cfg.history - k * cfg.tau, m - k * cfg.tau) for k in range(cfg.kappa)]


def delay_rows(
    values: np.ndarray, missing: np.ndarray, cfg: EmbeddingConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Delay-embedded rows of an (m, d) block and their missing flags.

    Row ``i`` is anchored at block time ``i + history``; see :class:`Embedding`.
    A stack of blocks (P, m, d) gives (P, rows, kappa * d) and (P, rows).
    """
    lags = _lags(values.shape[-2], cfg)
    values = np.concatenate([values[..., lag, :] for lag in lags], axis=-1)
    return values, delay_missing(missing.any(axis=-1), cfg)


def delay_missing(steps: np.ndarray, cfg: EmbeddingConfig) -> np.ndarray:
    """Missing flags of the delay-embedded rows of a block whose steps are flagged (..., m).

    A step is flagged if any of its cells is missing, and a row is missing
    if any step it reads is; the flags of :func:`delay_rows`, without the values.
    """
    return np.logical_or.reduce([steps[..., lag] for lag in _lags(steps.shape[-1], cfg)])


def embed(series: MultivariateSeries, cfg: EmbeddingConfig) -> Embedding:
    """Build the time-delay embedded matrix (n - (kappa-1)*tau rows, kappa*d cols)."""
    n = series.n
    lead = cfg.history
    if lead >= n:
        raise ConfigError(
            f"embedding needs (kappa-1)*tau < n, got kappa={cfg.kappa} tau={cfg.tau} n={n}"
        )
    values, missing = delay_rows(series.values, series.missing, cfg)
    return Embedding(values=values, times=np.arange(lead, n), missing=missing)


@dataclass(frozen=True)
class ZScoreParams:
    """Per-variable location/scale removed by :func:`zscore`."""

    mean: np.ndarray
    scale: np.ndarray


def zscore(series: MultivariateSeries) -> tuple[MultivariateSeries, ZScoreParams]:
    """Standardize each variable to zero mean and unit sample standard deviation.

    Statistics use non-missing cells only; the missing mask is unchanged.
    A variable that is constant over its observed cells keeps scale 1 and a
    warning is logged.
    """
    n, d = series.n, series.d
    mean = np.empty(d)
    scale = np.empty(d)
    for j in range(d):
        obs = series.values[~series.missing[:, j], j]
        if obs.size < 2:
            raise EstimationError(
                f"variable {series.names[j]!r} has {obs.size} observed values, need >= 2"
            )
        mean[j] = obs.mean()
        sd = obs.std(ddof=1)
        if sd == 0.0 or not math.isfinite(sd):
            log.warning("constant variable %s: scale clamped to 1", series.names[j])
            sd = 1.0
        scale[j] = sd
    values = (series.values - mean) / scale
    values = np.where(series.missing, np.nan, values)
    return series.with_values(values), ZScoreParams(mean=mean, scale=scale)


def inverse_zscore(series: MultivariateSeries, params: ZScoreParams) -> MultivariateSeries:
    """Undo :func:`zscore` with the parameters it returned."""
    values = series.values * params.scale + params.mean
    values = np.where(series.missing, np.nan, values)
    return series.with_values(values)


_MISSING_TOKENS = {"", "nan"}


def _parse_time_cell(cell: str, lineno: int):
    text = cell.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return datetime.datetime.fromisoformat(text)
    except ValueError:
        raise ParseError(
            f"line {lineno}: time value {cell!r} is neither an integer nor ISO-8601"
        ) from None


def load_csv(path) -> MultivariateSeries:
    """Read a series from CSV: header ``time,<name1>,...``, one row per step.

    Missing cells are empty or the literal ``NaN``. The time column must be
    strictly increasing; it is used for ordering and the integer origin only
    (a uniform step is assumed).
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file: no header row") from None
        if len(header) < 1 or header[0].strip().lower() != "time":
            raise ParseError("line 1: header must start with a 'time' column")
        names = [c.strip() for c in header[1:]]
        if not names:
            raise ParseError("line 1: no data columns after the time column")
        if any(not c for c in names) or len(set(names)) != len(names):
            raise ParseError("line 1: variable names must be non-empty and unique")
        d = len(names)

        rows: list[list[float]] = []
        mask_rows: list[list[bool]] = []
        times = []
        for lineno, rec in enumerate(reader, start=2):
            if len(rec) != d + 1:
                raise ParseError(
                    f"line {lineno}: expected {d + 1} cells, got {len(rec)}"
                )
            times.append(_parse_time_cell(rec[0], lineno))
            row = []
            mask = []
            for col, cell in enumerate(rec[1:], start=1):
                text = cell.strip()
                if text.lower() in _MISSING_TOKENS:
                    row.append(np.nan)
                    mask.append(True)
                    continue
                try:
                    value = float(text)
                except ValueError:
                    raise ParseError(
                        f"line {lineno}, column {names[col - 1]!r}: cannot parse {cell!r}"
                    ) from None
                if not math.isfinite(value):
                    raise ParseError(
                        f"line {lineno}, column {names[col - 1]!r}: non-finite value {cell!r}"
                    )
                row.append(value)
                mask.append(False)
            rows.append(row)
            mask_rows.append(mask)

    if not rows:
        raise ParseError("no data rows")
    kinds = {type(t) for t in times}
    if len(kinds) > 1:
        raise ParseError("time column mixes integer and timestamp values")
    for i in range(1, len(times)):
        if not times[i - 1] < times[i]:
            raise ParseError(f"line {i + 2}: non-monotonic time index")
    start_index = times[0] if isinstance(times[0], int) else 0
    return MultivariateSeries(
        values=np.array(rows, dtype=float),
        missing=np.array(mask_rows, dtype=bool),
        names=tuple(names),
        start_index=start_index,
    )


def write_csv(series: MultivariateSeries, path) -> None:
    """Write a series in the format :func:`load_csv` reads.

    Finite cells round-trip bit-identically (shortest-repr float formatting);
    missing cells are written empty.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", *series.names])
        for i in range(series.n):
            row = [str(series.start_index + i)]
            for j in range(series.d):
                row.append("" if series.missing[i, j] else repr(float(series.values[i, j])))
            writer.writerow(row)
