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
from .panels import ReturnPanel
from .stats import MOMENT_NAMES, _upper_triangle, moment_summary, window_stats

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
    alphas = []
    excluded = 0
    for values in per_repeat_values:
        try:
            alphas.append(fit_power_law(sizes, values))
        except ValueError:
            excluded += 1
    if excluded:
        logger.info("scaling fit: excluded %d of %d repeats", excluded,
                    len(per_repeat_values))
    if not alphas:
        return ExponentFit(float("nan"), float("nan"), (), excluded)
    arr = np.asarray(alphas)
    se = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    return ExponentFit(float(arr.mean()), se, tuple(alphas), excluded)


def _window_matrix(panel: ReturnPanel, end_date: str, window_size: int) -> np.ndarray:
    try:
        end = panel.dates.index(end_date)
    except ValueError:
        raise ValueError(f"date {end_date!r} not in panel") from None
    if end + 1 < window_size:
        raise ValueError(f"window of {window_size} steps does not fit before {end_date}")
    return panel.values[:, end - window_size + 1 : end + 1]


def scaling_exponents(panel: ReturnPanel, end_date: str, window_size: int,
                      sizes, repeats: int, method="nmf", seed=None,
                      cfg: InferenceConfig | None = None) -> ScalingReport:
    """Exponent of each parameter-distribution moment against subset size.

    For every repeat, a random ticker subset is drawn at each size,
    parameters are inferred on the window restricted to the subset, and
    log|moment| is regressed on log size across sizes.  Repeats whose
    moment vanishes or changes sign are excluded and counted.  `method` is
    an inference method name, or a callable mapping an (n, T) window to
    IsingParams for custom parameter sources.  Each repeat's members and
    fit seeds derive from its own child of SeedSequence(seed).
    """
    sizes = sorted(int(n) for n in sizes)
    if len(set(sizes)) < 3:
        raise ValueError("need at least three distinct subset sizes")
    if sizes[-1] > panel.n_series:
        raise ValueError(f"largest size {sizes[-1]} exceeds panel N={panel.n_series}")
    if repeats < 1:
        raise ValueError("need at least one repeat")
    window = _window_matrix(panel, end_date, window_size)

    run = _fit_fn(method, cfg)
    root = np.random.SeedSequence(seed)
    # h_vals[moment][repeat] is the per-size moment track, likewise j_vals
    h_vals = {name: [[] for _ in range(repeats)] for name in MOMENT_NAMES}
    j_vals = {name: [[] for _ in range(repeats)] for name in MOMENT_NAMES}
    for r, child in enumerate(root.spawn(repeats)):
        rng = np.random.default_rng(child)
        for n_sub, fit_seed in zip(sizes, child.spawn(len(sizes))):
            members = np.sort(rng.choice(panel.n_series, size=n_sub, replace=False))
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


def _fit_fn(method, cfg: InferenceConfig | None):
    """(window, seed) -> IsingParams: a callable `method` ignores the seed;
    a method name fits with `cfg` under that seed."""
    if callable(method):
        return lambda window, seed: method(window)
    base = replace(cfg if cfg is not None else InferenceConfig(), method=method)
    return lambda window, seed: infer(window_stats(window),
                                      replace(base, seed=seed)).params


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


def subset_coupling_scan(panel: ReturnPanel, end_date: str, window_size: int,
                         subset, totals, method: str = "nmf", seed=None,
                         cfg: InferenceConfig | None = None,
                         n_extreme: int = 10) -> SubsetScanResult:
    """Couplings within a fixed subset as the inference universe grows.

    For each total N', the subset is padded with randomly drawn extra
    tickers up to N', parameters are inferred on the enlarged window, and
    the subset-by-subset coupling block is extracted.  With
    totals == [len(subset)] no padding happens and the block equals direct
    inference on the subset alone.  Each total's extra members and fit seed
    derive from its own child of SeedSequence(seed).
    """
    subset = tuple(int(i) for i in subset)
    if len(set(subset)) != len(subset):
        raise ValueError("subset has duplicate members")
    if any(i < 0 or i >= panel.n_series for i in subset):
        raise ValueError("subset index out of range")
    totals = sorted(int(t) for t in totals)
    if totals and totals[0] < len(subset):
        raise ValueError("totals must be at least the subset size")
    if totals and totals[-1] > panel.n_series:
        raise ValueError(f"total {totals[-1]} exceeds panel N={panel.n_series}")
    window = _window_matrix(panel, end_date, window_size)
    run = _fit_fn(method, cfg)

    others = np.array([i for i in range(panel.n_series) if i not in subset])
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
        top, bottom = _extreme_pairs(block, n_extreme)
        vals = _upper_triangle(block)
        entries.append(SubsetScanEntry(total, tuple(int(i) for i in members), block,
                                       top, bottom, float(vals.mean()),
                                       float(vals.std())))
    return SubsetScanResult(subset, entries)
