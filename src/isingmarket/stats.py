"""
Per-window sample statistics: the means and covariance that inference
reads, the stats stage's per-series moment and spectrum rows, moment
summaries of a matrix's off-diagonal entries and bootstrap confidence
intervals.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)


class ConfigError(ValueError):
    """A setting no run can use, raised before any work by the function that reads it."""


def _series_label(tickers, i: int) -> str:
    """Name of series i in an error message: its ticker, else `series i`."""
    return str(tickers[i]) if tickers is not None else f"series {i}"


@dataclass(frozen=True)
class WindowStats:
    """One window's means, population (1/T) covariance, tickers and length T:
    every fit's input.  `n_obs` is None for moments known exactly (no finite-T
    error), as when they are computed from a model."""

    means: np.ndarray          # (N,)
    covariance: np.ndarray     # (N, N)
    tickers: tuple[str, ...] | None = None
    n_obs: int | None = None   # T, the observations behind the moments
    # ridge -> (inverse, cond).  A WindowStats lives inside one window's unit
    # of work, so the cache is never shared between worker threads.
    _inverses: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def label(self, i: int) -> str:
        return _series_label(self.tickers, i)

    def inverse(self, ridge: float) -> tuple[np.ndarray, float]:
        """(inverse, cond) of covariance + ridge*I, computed once per ridge and
        shared by every fit.  Raises when the matrix is singular to working
        precision: cond >= 1/(N*eps), numpy's matrix_rank tolerance."""
        if ridge not in self._inverses:
            # + 0.0 copies and makes an off-diagonal -0.0 +0.0, as adding
            # ridge * I would, without building I
            c = self.covariance + 0.0
            np.fill_diagonal(c, c.diagonal() + ridge)
            cond = float(np.linalg.cond(c))
            if not cond * self.means.size * np.finfo(np.float64).eps < 1.0:
                raise ValueError(f"covariance matrix is singular (cond={cond:.3g}); "
                                 "retry with a positive ridge")
            cinv = np.linalg.inv(c)
            cinv.flags.writeable = False
            self._inverses[ridge] = (cinv, cond)
        return self._inverses[ridge]


def window_stats(window: np.ndarray, tickers=None) -> WindowStats:
    """Compute WindowStats for an (N, T) window.

    Raises when any series has zero variance; a singular covariance (for
    example T < N) is caught where it is inverted, by `inverse`.
    """
    x = np.asarray(window, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("window must be a 2-d (N, T) array")
    t = x.shape[1]
    if t < 2:
        raise ValueError("window needs at least two observations")

    m = x.mean(axis=1)
    xc = x - m[:, None]
    cov = (xc @ xc.T) / t
    st = WindowStats(m, (cov + cov.T) / 2.0, tickers, n_obs=t)
    dead = np.flatnonzero(np.diag(st.covariance) <= 0.0)
    if dead.size:
        raise ValueError(f"{st.label(dead[0])} has zero variance in this window")
    return st


# ---------------------------------------------------------------------------
# Collection summaries and bootstrap intervals
# ---------------------------------------------------------------------------

MOMENT_NAMES = ("mean", "std", "skew", "kurt")

# Values drawn and gathered per bootstrap block (9 resamples of 1770
# values).  On 2 cores, blocks of 8192-17700 values ran alike; blocks of
# 32768 took about 1.6x as long and raised peak memory.
_BLOCK_VALUES = 16384


def _moments(x: np.ndarray, statistic: str) -> np.ndarray:
    """One population moment of each row of a 2-d array.

    mean and std equal `np.mean` / `np.std` of the row bit for bit; skew/kurt
    are NaN on rows with zero spread.  Powers are formed by products:
    numpy's general `**` path is over ten times slower.
    """
    mean = x.mean(axis=1)
    if statistic == "mean":
        return mean
    dev = x - mean[:, None]
    d2 = dev * dev
    std = np.sqrt(d2.mean(axis=1))
    if statistic == "std":
        return std
    with np.errstate(divide="ignore", invalid="ignore"):
        if statistic == "skew":
            d2 *= dev
            m = d2.mean(axis=1) / std**3
        else:
            d2 *= d2
            m = d2.mean(axis=1) / std**4 - 3.0
    return np.where(std == 0.0, np.nan, m)


def _finite_values(values) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size == 0:
        raise ValueError("empty value collection")
    if not np.isfinite(v).all():
        raise ValueError("value collection holds non-finite values")
    return v


@dataclass(frozen=True)
class MomentSummary:
    """First four moments of a value collection, with optional bootstrap CIs.

    skew/kurt are NaN when the collection has zero spread.  `ci` maps
    statistic name -> (lower, upper) at the level asked for.
    """

    mean: float
    std: float
    skew: float
    kurt: float
    ci: dict[str, tuple[float, float]] | None = None


def check_bootstrap(n_boot: int, level: float) -> None:
    """n_boot is 0 (no bootstrap) or at least 100 resamples; level lies in (0, 1)."""
    if n_boot != 0 and n_boot < 100:
        raise ConfigError("n_boot must be 0 (no bootstrap) or at least 100")
    if not 0.0 < level < 1.0:
        raise ConfigError(f"bootstrap level must lie in (0, 1), got {level}")


def moment_summary(values, n_boot: int = 0, level: float = 0.95,
                   seed: int | None = None) -> MomentSummary:
    """Summarize a collection of finite values; bootstrap CIs when n_boot > 0."""
    check_bootstrap(n_boot, level)
    v = _finite_values(values)
    point = {name: float(_moments(v[None, :], name)[0]) for name in MOMENT_NAMES}
    ci = None
    if n_boot:
        stats = MOMENT_NAMES[:2] if point["std"] == 0.0 else MOMENT_NAMES
        rng_seed = np.random.SeedSequence(seed).spawn(len(stats))
        ci = {name: bootstrap_ci(v, name, n_boot, level, seed=s)
              for name, s in zip(stats, rng_seed)}
    return MomentSummary(**point, ci=ci)


def _upper_triangle(m: np.ndarray) -> np.ndarray:
    """Entries above the diagonal of a square matrix, row by row."""
    return m[np.triu(np.ones(m.shape, dtype=bool), k=1)]


def off_diagonal_values(m: np.ndarray) -> np.ndarray:
    """Off-diagonal entries of a symmetric matrix, each unordered pair once."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
        raise ValueError("need a square matrix with N >= 2")
    # an exactly symmetric matrix, every window covariance, skips allclose's temporaries
    if not (np.array_equal(m, m.T) or np.allclose(m, m.T, atol=1e-12)):
        raise ValueError("matrix must be symmetric")
    return _upper_triangle(m)


def off_diagonal_summary(m: np.ndarray, n_boot: int = 0, level: float = 0.95,
                         seed: int | None = None) -> MomentSummary:
    """Moment summary of a matrix's off-diagonal elements."""
    return moment_summary(off_diagonal_values(m), n_boot, level, seed)


def bootstrap_ci(values, statistic: str, n_resamples: int, level: float = 0.95,
                 seed=None) -> tuple[float, float]:
    """Percentile bootstrap interval for a statistic of a value collection.

    Resamples with replacement, drawn and evaluated in blocks of rows.
    Resamples with zero spread have no skew/kurt; they are redrawn from the
    same generator and the redraw count logged, so the kept resamples are
    those of a one-at-a-time draw.
    """
    if n_resamples == 0:
        raise ConfigError("bootstrap_ci needs n_resamples > 0")
    check_bootstrap(n_resamples, level)
    v = _finite_values(values)
    if statistic not in MOMENT_NAMES:
        raise ValueError(f"unknown statistic {statistic!r}")
    rng = np.random.default_rng(seed)
    block = max(1, _BLOCK_VALUES // v.size)
    out = np.empty(n_resamples)
    filled = 0
    redraws = 0
    while filled < n_resamples:
        rows = min(block, n_resamples - filled)
        stat = _moments(v[rng.integers(0, v.size, (rows, v.size))], statistic)
        stat = stat[~np.isnan(stat)]
        redraws += rows - stat.size
        if redraws > 10 * n_resamples:
            raise ValueError(
                f"statistic {statistic!r} undefined on nearly all resamples")
        out[filled:filled + stat.size] = stat
        filled += stat.size
    if redraws:
        logger.info("bootstrap_ci: redrew %d degenerate resamples", redraws)
    lo, hi = np.percentile(out, [100 * (1 - level) / 2, 100 * (1 + level) / 2])
    return float(lo), float(hi)


def dft_amplitudes(series) -> np.ndarray:
    """Amplitudes of the discrete Fourier transform at nonnegative frequencies.

    Normalized by 1/L so a constant series c gives amplitude |c| at
    frequency zero.  No taper is applied.
    """
    x = np.asarray(series, dtype=np.float64).ravel()
    if x.size < 2:
        raise ValueError("series needs at least two samples")
    return np.abs(np.fft.rfft(x)) / x.size


# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------

def stats_csv_rows(date: str, tickers, window: np.ndarray,
                   summary: MomentSummary | None = None):
    """`date,series,stat,value,ci_lo,ci_hi` rows: each series' mean, vol,
    skew and excess kurtosis over the (N, T) window, then the summary."""
    x = np.asarray(window, dtype=np.float64)
    columns = [_moments(x, name) for name in MOMENT_NAMES]
    rows = [(date, t, stat, column[i], "", "")
            for i, t in enumerate(tickers)
            for stat, column in zip(("mean", "vol", "skew", "kurt"), columns)]
    if summary is not None:
        for name in MOMENT_NAMES:
            lo, hi = ("", "")
            if summary.ci and name in summary.ci:
                lo, hi = summary.ci[name]
            rows.append((date, "__offdiag__", name, getattr(summary, name), lo, hi))
    return rows


def eigen_csv_rows(date: str, covariance: np.ndarray, top_k: int):
    """`date,rank,eigenvalue` rows of the `top_k` largest covariance eigenvalues."""
    # eigh, not eigvalsh: their values can differ in the last bits
    lam = np.linalg.eigh(covariance)[0][::-1]
    return [(date, k + 1, lam[k]) for k in range(min(top_k, lam.size))]
