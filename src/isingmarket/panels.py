"""
Price/return panels: loading, log returns, binarization, standardization,
sliding windows and shuffled baselines.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .network import SectorMap
from .stats import ConfigError, _series_label

logger = logging.getLogger(__name__)

RETURN_KINDS = ("raw", "standardized", "binary")  # the run's `kind` setting
PANEL_KINDS = ("price", "raw", "binary")


@dataclass(frozen=True)
class Panel:
    """N labelled series over L dates, of one kind: `price` (closing prices,
    strictly positive), `raw` (log returns) or `binary` (their signs,
    exactly -1 or +1).

    Dates are opaque identifiers that must sort ascending as strings
    (ISO dates do).  Panels are rectangular; incomplete tickers are
    rejected at load time, never imputed.  The value matrix is read-only
    and is not copied when it is already a C-contiguous float64 array.
    """

    tickers: tuple[str, ...]
    dates: tuple[str, ...]
    values: np.ndarray  # (N, L)
    kind: str

    def __post_init__(self):
        if self.kind not in PANEL_KINDS:
            raise ValueError(f"unknown panel kind {self.kind!r}; choose from {PANEL_KINDS}")
        tickers, dates = tuple(self.tickers), tuple(self.dates)
        values = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if values.ndim != 2 or values.shape != (len(tickers), len(dates)):
            raise ValueError(f"{self.kind} matrix shape {values.shape} does not match "
                             f"{len(tickers)} tickers x {len(dates)} dates")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{self.kind} values must be finite")
        if len(set(tickers)) != len(tickers):
            raise ValueError("duplicate tickers")
        if any(a >= b for a, b in zip(dates, dates[1:])):
            raise ValueError("dates must be strictly increasing")
        if self.kind == "price" and np.any(values <= 0.0):
            raise ValueError("prices must be strictly positive")
        if self.kind == "binary" and not np.all(np.abs(values) == 1.0):
            raise ValueError("binary returns must be exactly -1 or +1")
        values.flags.writeable = False
        object.__setattr__(self, "tickers", tickers)
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "values", values)

    @property
    def n_series(self) -> int:
        return len(self.tickers)

    @property
    def n_days(self) -> int:
        return len(self.dates)


def _price(cell: str) -> float:
    """One price cell as a float; blank or non-numeric cells read as NaN."""
    cell = cell.strip()
    try:
        return float(cell) if cell else math.nan
    except ValueError:
        return math.nan


def load_price_csv(path) -> tuple[Panel, dict[str, str]]:
    """Load a `date,TICKER1,TICKER2,...` CSV of closing prices.

    Tickers with any missing, non-numeric or non-positive cell are dropped
    rather than imputed.

    Returns
    -------
    (price Panel of the kept tickers over every row, {dropped ticker: reason})
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
    return Panel([tickers[j] for j in keep], dates, values[keep], "price"), bad


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


def log_returns(prices: Panel) -> Panel:
    """Convert a price panel to log returns ln(S(t+1)/S(t)).

    Output has L-1 steps; step t carries the date of the later price.
    """
    if prices.kind != "price":
        raise ValueError(f"log_returns needs a price panel, got a {prices.kind} one")
    values = np.diff(np.log(prices.values), axis=1)
    return Panel(prices.tickers, prices.dates[1:], values, "raw")


def binarize(r: Panel) -> Panel:
    """Map returns to their sign, +1 for gains and -1 for losses.

    Exact zeros map to +1 (documented tie-break; their frequency is logged).
    Accepts raw or already-binary returns; idempotent on the latter.
    """
    if r.kind == "price":
        raise ValueError("binarize needs returns; take log_returns of the prices first")
    n_zero = int(np.count_nonzero(r.values == 0.0))
    if n_zero:
        logger.info("binarize: %d exact-zero returns mapped to +1", n_zero)
    values = np.where(r.values >= 0.0, 1.0, -1.0)
    return Panel(r.tickers, r.dates, values, "binary")


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


def windows(r: Panel, window_size: int, stride: int = 1):
    """Iterate trailing windows as (last date, (N, T) read-only view).

    The window ending at step t covers columns t-T+1..t, with T =
    `window_size`; the first window ends at t = T-1 and subsequent windows
    advance by `stride`.  Bad sizes raise at the call, not at iteration.
    """
    if window_size < 1:
        raise ConfigError("window_size must be at least 1")
    check_stride(stride)
    if window_size > r.n_days:
        raise ConfigError(f"window_size {window_size} exceeds series length {r.n_days}")
    return ((r.dates[end], r.values[:, end - window_size + 1 : end + 1])
            for end in range(window_size - 1, r.n_days, stride))


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
