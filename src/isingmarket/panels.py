"""
Price/return panels: loading, log returns, binarization, standardization,
sliding windows and shuffled baselines.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .network import SectorMap
from .stats import ConfigError, _series_label

logger = logging.getLogger(__name__)

RETURN_KINDS = ("raw", "standardized", "binary")


def _locked(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class PricePanel:
    """N ticker series of strictly positive closing prices over L trading days.

    Dates are opaque identifiers that must sort ascending as strings
    (ISO dates do).  Panels are rectangular; incomplete tickers are
    rejected at load time, never imputed.
    """

    tickers: tuple[str, ...]
    dates: tuple[str, ...]
    prices: np.ndarray  # (N, L)

    def __post_init__(self):
        prices = np.asarray(self.prices, dtype=np.float64)
        if prices.ndim != 2 or prices.shape != (len(self.tickers), len(self.dates)):
            raise ValueError(
                f"price matrix shape {prices.shape} does not match "
                f"{len(self.tickers)} tickers x {len(self.dates)} dates"
            )
        if not np.all(np.isfinite(prices)) or np.any(prices <= 0.0):
            raise ValueError("prices must be finite and strictly positive")
        if len(set(self.tickers)) != len(self.tickers):
            raise ValueError("duplicate tickers")
        if any(a >= b for a, b in zip(self.dates, self.dates[1:])):
            raise ValueError("dates must be strictly increasing")
        object.__setattr__(self, "tickers", tuple(self.tickers))
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "prices", _locked(prices))

    @property
    def n_series(self) -> int:
        return len(self.tickers)

    @property
    def n_days(self) -> int:
        return len(self.dates)


@dataclass(frozen=True)
class ReturnPanel:
    """N return series of length L-1, one of the kinds in RETURN_KINDS."""

    tickers: tuple[str, ...]
    dates: tuple[str, ...]
    values: np.ndarray  # (N, L-1)
    kind: str

    def __post_init__(self):
        if self.kind not in RETURN_KINDS:
            raise ValueError(f"unknown return kind {self.kind!r}")
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape != (len(self.tickers), len(self.dates)):
            raise ValueError("value matrix shape does not match labels")
        if not np.all(np.isfinite(values)):
            raise ValueError("returns must be finite")
        if self.kind == "binary" and not np.all(np.abs(values) == 1.0):
            raise ValueError("binary returns must be exactly -1 or +1")
        object.__setattr__(self, "tickers", tuple(self.tickers))
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "values", _locked(values))

    @property
    def n_series(self) -> int:
        return len(self.tickers)

    @property
    def n_steps(self) -> int:
        return len(self.dates)


@dataclass
class IngestReport:
    """What the CSV loader kept and why it dropped the rest."""

    n_rows: int = 0
    kept: list[str] = field(default_factory=list)
    dropped: dict[str, str] = field(default_factory=dict)


def _price(cell: str) -> float:
    """One price cell as a float; blank or non-numeric cells read as NaN."""
    cell = cell.strip()
    try:
        return float(cell) if cell else math.nan
    except ValueError:
        return math.nan


def load_price_csv(path) -> tuple[PricePanel, IngestReport]:
    """Load a `date,TICKER1,TICKER2,...` CSV of closing prices.

    Tickers with any missing, non-numeric or non-positive cell are dropped
    (recorded in the report) rather than imputed.

    Returns
    -------
    (PricePanel, IngestReport)
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0].strip().lower() != "date" or len(header) < 2:
            raise ValueError(f"{path}: expected header 'date,TICKER1,...'")
        tickers = [t.strip() for t in header[1:]]
        n = len(tickers)
        dates: list[str] = []
        rows: list[np.ndarray] = []
        for row in reader:
            if not row or not any(cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}: row {len(dates) + 2} has {len(row)} cells, "
                                 f"expected {len(header)}")
            dates.append(row[0].strip())
            rows.append(np.fromiter(map(_price, row[1:]), np.float64, n))

    if len(dates) < 2:
        raise ValueError(f"{path}: need at least two price rows")

    report = IngestReport(n_rows=len(dates))
    values = np.stack(rows, axis=1)  # (N, L)
    del rows
    missing = ~np.isfinite(values)
    invalid = missing | (values <= 0.0)
    first = invalid.argmax(axis=1)
    bad: dict[str, str] = {}
    for j, ticker in enumerate(tickers):
        i = first[j]
        if ticker in bad or not invalid[j, i]:
            continue
        kind = "missing or non-numeric" if missing[j, i] else "non-positive"
        bad[ticker] = f"{kind} price on {dates[i]}"

    keep = [j for j, t in enumerate(tickers) if t not in bad]
    if not keep:
        raise ValueError(f"{path}: every ticker was rejected: {bad}")
    for t, reason in bad.items():
        logger.warning("dropping %s: %s", t, reason)
    report.kept = [tickers[j] for j in keep]
    report.dropped = bad
    panel = PricePanel(tuple(report.kept), tuple(dates), values[keep])
    return panel, report


def load_sector_csv(path) -> SectorMap:
    """Load `ticker,name,sector` metadata into a SectorMap."""
    mapping: dict[str, str] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or [h.strip().lower() for h in header[:3]] != ["ticker", "name", "sector"]:
            raise ValueError(f"{path}: expected header 'ticker,name,sector'")
        for lineno, row in enumerate(reader, 2):
            if not row or not any(cell.strip() for cell in row):
                continue
            if len(row) < 3:
                raise ValueError(f"{path}: row {lineno} has {len(row)} cells, expected 3")
            ticker, _, sector = (row[0].strip(), row[1].strip(), row[2].strip())
            if not ticker or not sector:
                raise ValueError(f"{path}: blank ticker or sector in row {row}")
            if ticker in mapping:
                raise ValueError(f"{path}: duplicate ticker {ticker}")
            mapping[ticker] = sector
    return SectorMap(mapping)


def log_returns(prices: PricePanel) -> ReturnPanel:
    """Convert a price panel to log returns ln(S(t+1)/S(t)).

    Output has L-1 steps; step t carries the date of the later price.
    """
    values = np.diff(np.log(prices.prices), axis=1)
    return ReturnPanel(prices.tickers, prices.dates[1:], values, "raw")


def binarize(r: ReturnPanel) -> ReturnPanel:
    """Map returns to their sign, +1 for gains and -1 for losses.

    Exact zeros map to +1 (documented tie-break; their frequency is logged).
    Accepts raw or already-binary input; idempotent on the latter.
    """
    if r.kind == "standardized":
        raise ValueError("binarize standardized returns from the raw panel instead")
    n_zero = int(np.count_nonzero(r.values == 0.0))
    if n_zero:
        logger.info("binarize: %d exact-zero returns mapped to +1", n_zero)
    values = np.where(r.values >= 0.0, 1.0, -1.0)
    return ReturnPanel(r.tickers, r.dates, values, "binary")


def standardize_window(window: np.ndarray, tickers=None) -> np.ndarray:
    """Standardize one (N, T) window to per-series mean 0 and population
    standard deviation 1.

    Raises on any zero-variance series, naming it by its ticker.
    """
    w = np.asarray(window, dtype=np.float64)
    mean = w.mean(axis=1, keepdims=True)
    std = w.std(axis=1, keepdims=True)  # population (1/T) normalization
    dead = np.flatnonzero(std[:, 0] == 0.0)
    if dead.size:
        raise ValueError(f"{_series_label(tickers, dead[0])} has zero variance "
                         "in this window")
    return (w - mean) / std


def check_file(name: str, path) -> None:
    """An input path that names no file is a setting error, found before any read."""
    if not Path(path).is_file():
        raise ConfigError(f"{name} file {path!r} is not a file")


def check_stride(stride: int) -> None:
    if stride < 1:
        raise ConfigError("stride must be at least 1")


def windows(r: ReturnPanel, window_size: int, stride: int = 1):
    """Iterate trailing windows as (last date, (N, T) read-only view).

    The window ending at step t covers columns t-T+1..t, with T =
    `window_size`; the first window ends at t = T-1 and subsequent windows
    advance by `stride`.  Bad sizes raise at the call, not at iteration.
    """
    if window_size < 1:
        raise ConfigError("window_size must be at least 1")
    check_stride(stride)
    if window_size > r.n_steps:
        raise ConfigError(f"window_size {window_size} exceeds series length {r.n_steps}")
    return ((r.dates[end], r.values[:, end - window_size + 1 : end + 1])
            for end in range(window_size - 1, r.n_steps, stride))


def shuffle_window(window: np.ndarray, seed: int) -> np.ndarray:
    """Permute each series of a window independently and uniformly.

    Every row keeps its multiset of values bit-exactly, so per-series
    moments are untouched while cross-series correlations are destroyed.
    """
    w = np.asarray(window)
    rng = np.random.default_rng(seed)
    # argsort of iid uniforms is a uniform random permutation per row
    order = np.argsort(rng.random(w.shape), axis=1)
    return np.take_along_axis(w, order, axis=1)
