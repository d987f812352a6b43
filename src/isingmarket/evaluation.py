"""
Cross-method comparison, distribution-moment scaling with system size, and
fixed-subset coupling scaling.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .inference import InferenceConfig, infer
from .model import IsingParams
from .stats import MOMENT_NAMES, ConfigError, _upper_triangle, moment_summary, window_stats

logger = logging.getLogger(__name__)


def nrmse(x, y) -> float:
    """Root mean square error of x against reference y, normalized by the
    standard deviation of y."""
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.size != y.size or x.size < 2:
        raise ValueError("inputs must share a length of at least 2")
    denom = np.mean((y - y.mean()) ** 2)
    if denom == 0.0:
        raise ValueError("reference vector is constant; NRMSE undefined")
    return float(np.sqrt(np.mean((x - y) ** 2) / denom))


def pearson(x, y) -> float:
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    sx, sy = x.std(), y.std()
    if sx == 0.0 and sy == 0.0:
        return 1.0 if np.allclose(x, y) else float("nan")
    if sx == 0.0 or sy == 0.0:
        return float("nan")
    return float(np.corrcoef(x, y)[0, 1])


@dataclass(frozen=True)
class ComparisonReport:
    nrmse: float
    pearson: float


@dataclass(frozen=True)
class MethodComparison:
    """Agreement between two parameter sets, fields and couplings separately.

    Couplings are compared over the upper triangle only (the diagonal is
    identically zero).  The second argument of compare_methods is the
    reference for NRMSE normalization.
    """

    h: ComparisonReport
    j: ComparisonReport


def compare_methods(a: IsingParams, b: IsingParams) -> MethodComparison:
    """Compare parameter set `a` against reference `b`."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    if a.tickers and b.tickers and a.tickers != b.tickers:
        raise ValueError("parameter sets cover different tickers")
    ja, jb = _upper_triangle(a.J), _upper_triangle(b.J)
    return MethodComparison(
        h=ComparisonReport(nrmse(a.h, b.h), pearson(a.h, b.h)),
        j=ComparisonReport(nrmse(ja, jb), pearson(ja, jb)),
    )


# ---------------------------------------------------------------------------
# Scaling of parameter-distribution moments with system size
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentFit:
    """Power-law exponent of one distribution moment against subset size."""

    alpha: float          # mean fitted exponent over repeats
    alpha_se: float       # standard error of that mean (0 when exact)
    alphas: tuple[float, ...]
    kept_repeats: tuple[int, ...]  # the repeat index of each alpha
    n_excluded: int       # repeats dropped for sign crossings / zero moments


@dataclass
class ScalingReport:
    sizes: tuple[int, ...]
    repeats: int
    h: dict[str, ExponentFit] = field(default_factory=dict)
    j: dict[str, ExponentFit] = field(default_factory=dict)


def fit_power_law(sizes, values) -> float:
    """Least-squares slope of log|value| against log size.

    Raises when any value is zero or the values change sign (the log of a
    signed moment is undefined across a crossing).
    """
    sizes = np.asarray(sizes, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if np.any(values == 0.0) or np.any(np.isnan(values)):
        raise ValueError("zero or undefined moment; exponent undefined")
    signs = np.sign(values)
    if not np.all(signs == signs[0]):
        raise ValueError("moment changes sign across sizes; exponent undefined")
    slope, _ = np.polyfit(np.log(sizes), np.log(np.abs(values)), 1)
    return float(slope)


def _fit_over_repeats(sizes, per_repeat_values) -> ExponentFit:
    alphas = {}  # repeat index: exponent, for the repeats not excluded
    for r, values in enumerate(per_repeat_values):
        try:
            alphas[r] = fit_power_law(sizes, values)
        except ValueError:
            pass
    excluded = len(per_repeat_values) - len(alphas)
    if excluded:
        logger.info("scaling fit: excluded %d of %d repeats", excluded,
                    len(per_repeat_values))
    if not alphas:
        return ExponentFit(float("nan"), float("nan"), (), (), excluded)
    arr = np.asarray(list(alphas.values()))
    se = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    return ExponentFit(float(arr.mean()), se, tuple(alphas.values()), tuple(alphas),
                       excluded)


def check_scaling(sizes, repeats: int, n: int | None = None) -> None:
    """Raise ConfigError for scaling-scan settings; `n` is the window's N, if known."""
    if len(set(sizes)) < 3:
        raise ConfigError("need at least three distinct subset sizes")
    if min(sizes) < 2:
        raise ConfigError("subset sizes must be at least 2")
    if n is not None and max(sizes) > n:
        raise ConfigError(f"largest subset size {max(sizes)} exceeds N={n}")
    if repeats < 1:
        raise ConfigError("need at least one repeat")


def scaling_exponents(window: np.ndarray, sizes, repeats: int,
                      fit=InferenceConfig(), seed=None) -> ScalingReport:
    """Exponent of each parameter-distribution moment against subset size.

    For every repeat, a random ticker subset is drawn at each size,
    parameters are inferred on the (N, T) window restricted to the subset,
    and log|moment| is regressed on log size across sizes.  Repeats whose
    moment vanishes or changes sign are excluded and counted.  `fit` is an
    InferenceConfig (its seed replaced for each fit), or a callable mapping
    an (n, T) window to IsingParams for custom parameter sources.  Each
    repeat's members and fit seeds derive from its own child of
    SeedSequence(seed).
    """
    sizes = sorted(int(n) for n in sizes)
    check_scaling(sizes, repeats, window.shape[0])
    run = _fit_fn(fit)
    root = np.random.SeedSequence(seed)
    # h_vals[moment][repeat] is the per-size moment track, likewise j_vals
    h_vals = {name: [[] for _ in range(repeats)] for name in MOMENT_NAMES}
    j_vals = {name: [[] for _ in range(repeats)] for name in MOMENT_NAMES}
    for r, child in enumerate(root.spawn(repeats)):
        rng = np.random.default_rng(child)
        for n_sub, fit_seed in zip(sizes, child.spawn(len(sizes))):
            members = np.sort(rng.choice(window.shape[0], size=n_sub, replace=False))
            params = run(window[members], fit_seed)
            h_moments = moment_summary(params.h)
            j_moments = moment_summary(_upper_triangle(params.J))
            for name in MOMENT_NAMES:
                h_vals[name][r].append(getattr(h_moments, name))
                j_vals[name][r].append(getattr(j_moments, name))

    report = ScalingReport(tuple(sizes), repeats)
    for name in MOMENT_NAMES:
        report.h[name] = _fit_over_repeats(sizes, h_vals[name])
        report.j[name] = _fit_over_repeats(sizes, j_vals[name])
    return report


def _fit_fn(fit):
    """(window, seed) -> IsingParams: a callable `fit` ignores the seed; an
    InferenceConfig fits under that seed."""
    if callable(fit):
        return lambda window, seed: fit(window)
    return lambda window, seed: infer(window_stats(window), replace(fit, seed=seed)).params


# ---------------------------------------------------------------------------
# Fixed-subset coupling scaling
# ---------------------------------------------------------------------------

@dataclass
class SubsetScanEntry:
    total: int
    members: tuple[int, ...]          # panel indices used for inference
    couplings: np.ndarray             # restriction to the fixed subset
    top_pairs: list[tuple[int, int, float]]
    bottom_pairs: list[tuple[int, int, float]]
    mean: float
    std: float


@dataclass
class SubsetScanResult:
    subset: tuple[int, ...]
    entries: list[SubsetScanEntry]


def _extreme_pairs(j: np.ndarray, k: int):
    iu = np.triu_indices(j.shape[0], k=1)
    vals = j[iu]
    order = np.argsort(vals)
    bottom = [(int(iu[0][i]), int(iu[1][i]), float(vals[i])) for i in order[:k]]
    top = [(int(iu[0][i]), int(iu[1][i]), float(vals[i])) for i in order[::-1][:k]]
    return top, bottom


def check_subset(subset, totals, n: int | None = None) -> None:
    """Raise ConfigError for fixed-subset-scan settings; `n` is the window's N, if known."""
    if not subset or not totals:
        raise ConfigError("need a non-empty subset and totals")
    if len(set(subset)) < len(subset):
        raise ConfigError("subset has duplicate members")
    if min(totals) < len(subset):
        raise ConfigError("totals must be at least the subset size")
    if n is not None and not all(0 <= i < n for i in subset):
        raise ConfigError(f"subset indices must lie in [0, {n - 1}] for N={n}")
    if n is not None and max(totals) > n:
        raise ConfigError(f"total {max(totals)} exceeds N={n}")


def subset_coupling_scan(window: np.ndarray, subset, totals,
                         fit=InferenceConfig(), seed=None) -> SubsetScanResult:
    """Couplings within a fixed subset as the inference universe grows.

    For each total N', the subset is padded with randomly drawn extra
    tickers up to N', parameters are inferred on the (N, T) window
    restricted to those members, and the subset-by-subset coupling block
    is extracted with its ten strongest and weakest pairs.  With
    totals == [len(subset)] no padding happens and the block equals direct
    inference on the subset alone.  `fit` is as in scaling_exponents.
    Each total's extra members and fit seed derive from its own child of
    SeedSequence(seed).
    """
    n = window.shape[0]
    subset = tuple(int(i) for i in subset)
    totals = sorted(int(t) for t in totals)
    check_subset(subset, totals, n)
    run = _fit_fn(fit)

    others = np.array([i for i in range(n) if i not in subset])
    root = np.random.SeedSequence(seed)
    entries = []
    for total, child in zip(totals, root.spawn(len(totals))):
        rng = np.random.default_rng(child)
        n_extra = total - len(subset)
        extras = np.sort(rng.choice(others, size=n_extra, replace=False)) if n_extra \
            else np.array([], dtype=int)
        members = np.concatenate([np.asarray(subset, dtype=int), extras])
        params = run(window[members], child.spawn(1)[0])
        pos = {m: k for k, m in enumerate(members)}
        idx = np.array([pos[i] for i in subset])
        block = params.J[np.ix_(idx, idx)]
        top, bottom = _extreme_pairs(block, 10)
        vals = _upper_triangle(block)
        entries.append(SubsetScanEntry(total, tuple(int(i) for i in members), block,
                                       top, bottom, float(vals.mean()),
                                       float(vals.std())))
    return SubsetScanResult(subset, entries)
