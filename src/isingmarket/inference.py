"""
Coupling/field inference from window statistics.

Five routes: iterative moment matching against sampled (or exactly
enumerated) model moments, and four closed-form inversions (naive mean
field, TAP, independent-pair, Sessak-Monasson small-correlation
expansion).

Calibration note: the closed-form formulas are exact or asymptotic in the
single-count parameterization where each unordered pair contributes
J_ij s_i s_j to the energy.  This package's model energy is -h.s - s'Js
(each pair counted twice, see `model`), so closed-form couplings are
halved before being returned; fields are identical in both
parameterizations and are computed from the uncalibrated coupling
matrices.  The N=2 round trip (enumerate moments from planted parameters,
invert, recover the plant) pins this down and is enforced by tests.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .model import (ENUMERATION_HARD_CAP, IsingParams, SampleStats, exact_moments_small,
                    metropolis_sample)
from .stats import WindowStats

logger = logging.getLogger(__name__)

METHODS = ("exact", "nmf", "tap", "ip", "sm")
# methods that invert the covariance (exact through its mean-field start)
INVERTING = ("exact", "nmf", "tap", "sm")

# below this |m_i m_j| the TAP quadratic is numerically the nMF limit
_TAP_MEAN_PRODUCT_FLOOR = 1e-8


@dataclass(frozen=True)
class InferenceConfig:
    """Knobs for all inference routes; closed-form methods ignore the
    learning-rate and Monte Carlo settings."""

    method: str = "nmf"
    diagonal_trick: bool | None = None  # None: on for nmf/tap
    eta_h: float = 0.1
    eta_j: float = 0.1
    eta_decay: float = 0.99  # per-iteration geometric decay
    max_iters: int = 1000
    tol: float = 5e-3        # max-abs moment residual target
    ridge: float = 0.0       # added to the covariance diagonal before inversion
    mc_sweeps: int = 100
    mc_chains: int = 500
    mc_burnin: int = 100     # sweeps before a fit's first sampled step only
    seed: int | None = None
    exact_max_n: int = 16    # use exhaustive model moments up to this N

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {METHODS}")
        if not (self.eta_h > 0 and self.eta_j > 0):
            raise ValueError("learning rates must be positive")
        if not 0 < self.eta_decay <= 1:
            raise ValueError("eta_decay must be in (0, 1]")
        if not self.tol > 0:
            raise ValueError("tolerance must be positive")
        if not self.ridge >= 0:
            raise ValueError("ridge must be nonnegative")
        for name, low in (("max_iters", 1), ("mc_sweeps", 1), ("mc_chains", 1),
                          ("mc_burnin", 0), ("exact_max_n", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}")
        if self.exact_max_n > ENUMERATION_HARD_CAP:
            raise ValueError(f"exact_max_n must be at most {ENUMERATION_HARD_CAP}")

    @property
    def use_diagonal_trick(self) -> bool:
        if self.diagonal_trick is None:
            return self.method in ("nmf", "tap")
        return self.diagonal_trick


@dataclass
class InferenceResult:
    params: IsingParams
    method: str
    converged: bool
    iterations: int
    residual: float | None
    diagnostics: dict = field(default_factory=dict)


def _check_means(m: np.ndarray, tickers=None):
    bad = np.flatnonzero(np.abs(m) >= 1.0)
    if bad.size:
        name = tickers[bad[0]] if tickers else f"series {bad[0]}"
        raise ValueError(
            f"{name} has |mean| >= 1 (constant sign in this window); fields diverge"
        )


def invert_covariance(cov: np.ndarray, ridge: float) -> tuple[np.ndarray, float]:
    """Inverse and condition number of cov + ridge*I.  Every method in
    INVERTING takes this pair as its `inverse` argument, so a caller fitting
    several of them to one window computes it once."""
    c = cov + ridge * np.eye(cov.shape[0])
    cond = float(np.linalg.cond(c))
    try:
        cinv = np.linalg.inv(c)
    except np.linalg.LinAlgError as err:
        raise ValueError(
            f"covariance matrix is singular (cond={cond:.3g}); "
            "retry with a positive ridge"
        ) from err
    return cinv, cond


def _zero_diag(m: np.ndarray) -> np.ndarray:
    out = m.copy()
    np.fill_diagonal(out, 0.0)
    return out


def _nmf_matrix(m: np.ndarray, cinv: np.ndarray) -> np.ndarray:
    """Mean-field coupling matrix diag(1/(1-m^2)) - Cinv, diagonal kept."""
    return np.diag(1.0 / (1.0 - m**2)) - cinv


def _fields(m: np.ndarray, coupling: np.ndarray) -> np.ndarray:
    """atanh(m_i) - sum_j coupling_ij m_j (single-count coupling matrix)."""
    return np.arctanh(m) - coupling @ m


def _finish(j_single: np.ndarray, h: np.ndarray, method: str, tickers,
            diagnostics: dict) -> InferenceResult:
    j = _zero_diag((j_single + j_single.T) / 2.0) / 2.0  # calibrate to s'Js energy
    params = IsingParams(h, j, tickers=tickers)
    return InferenceResult(params, method, converged=True, iterations=0,
                           residual=None, diagnostics=diagnostics)


def infer_nmf(stats: WindowStats, cfg: InferenceConfig, tickers=None,
              inverse=None) -> InferenceResult:
    """First-order mean-field inversion of the covariance matrix.

    With the diagonal trick on (the default) the uncut diagonal of the
    mean-field matrix participates in the field sums, which markedly
    improves field estimates.
    """
    m = stats.means
    _check_means(m, tickers)
    cinv, cond = inverse or invert_covariance(stats.covariance, cfg.ridge)
    j_full = _nmf_matrix(m, cinv)
    j_for_fields = j_full if cfg.use_diagonal_trick else _zero_diag(j_full)
    h = _fields(m, j_for_fields)
    return _finish(_zero_diag(j_full), h, "nmf", tickers,
                   {"cond_cov": cond, "ridge": cfg.ridge,
                    "diagonal_trick": cfg.use_diagonal_trick})


def infer_tap(stats: WindowStats, cfg: InferenceConfig, tickers=None,
              inverse=None) -> InferenceResult:
    """Second-order (TAP) mean-field inversion.

    Per pair, solves 2 m_i m_j x^2 + x + (Cinv)_ij = 0 taking the root
    x = (-1 + sqrt(1 - 8 m_i m_j (Cinv)_ij)) / (4 m_i m_j), which reduces
    to the mean-field value -(Cinv)_ij as m_i m_j -> 0.  Pairs with a
    negative discriminant fall back to the mean-field coupling and are
    counted in the diagnostics.  With the diagonal trick on, fields are
    computed exactly as in infer_nmf; otherwise the TAP correction
    h_i -= m_i (1 - m_i^2) sum_j x_ij^2 is applied to the untricked
    mean-field fields.
    """
    m = stats.means
    _check_means(m, tickers)
    cinv, cond = inverse or invert_covariance(stats.covariance, cfg.ridge)
    mm = np.outer(m, m)
    disc = 1.0 - 8.0 * mm * cinv
    nmf_limit = np.abs(mm) < _TAP_MEAN_PRODUCT_FLOOR
    negative = (disc < 0.0) & ~nmf_limit
    with np.errstate(divide="ignore", invalid="ignore"):
        root = (-1.0 + np.sqrt(np.maximum(disc, 0.0))) / (4.0 * mm)
    j_tap = np.where(nmf_limit | negative, -cinv, root)
    j_tap = _zero_diag((j_tap + j_tap.T) / 2.0)
    n_fallback = int(np.count_nonzero(np.triu(negative, k=1)))
    if n_fallback:
        logger.info("TAP: %d pairs fell back to the mean-field coupling", n_fallback)

    if cfg.use_diagonal_trick:
        h = _fields(m, _nmf_matrix(m, cinv))
    else:
        h_nmf = _fields(m, _zero_diag(_nmf_matrix(m, cinv)))
        h = h_nmf - m * (1.0 - m**2) * (j_tap**2).sum(axis=1)
    return _finish(j_tap, h, "tap", tickers,
                   {"cond_cov": cond, "ridge": cfg.ridge,
                    "tap_fallbacks": n_fallback,
                    "diagonal_trick": cfg.use_diagonal_trick})


def _pair_couplings(m: np.ndarray, cov: np.ndarray, tickers=None) -> np.ndarray:
    """Closed-form coupling of each pair in isolation, from its joint +-1 table."""
    cstar = cov + np.outer(m, m)  # raw second moments <s_i s_j>
    mi = m[:, None]
    mj = m[None, :]
    num1 = 1.0 + mi + mj + cstar
    num2 = 1.0 - mi - mj + cstar
    den1 = 1.0 - mi + mj - cstar
    den2 = 1.0 + mi - mj - cstar
    off = ~np.eye(m.size, dtype=bool)
    for name, arg in (("1+mi+mj+C*", num1), ("1-mi-mj+C*", num2),
                      ("1-mi+mj-C*", den1), ("1+mi-mj-C*", den2)):
        bad = np.argwhere((arg <= 0.0) & off)
        if bad.size:
            i, j = bad[0]
            li = tickers[i] if tickers else i
            lj = tickers[j] if tickers else j
            raise ValueError(
                f"pair ({li}, {lj}): term {name} is non-positive; joint table "
                "inconsistent with +-1 marginals"
            )
    with np.errstate(divide="ignore", invalid="ignore"):
        j_pair = 0.25 * np.log((num1 * num2) / (den1 * den2))
    return _zero_diag(j_pair)


def infer_ip(stats: WindowStats, cfg: InferenceConfig, tickers=None,
             inverse=None) -> InferenceResult:
    """Independent-pair inversion: each coupling from its pair's joint table
    alone.  No covariance inverse is needed; `inverse` is ignored."""
    m = stats.means
    _check_means(m, tickers)
    j_pair = _pair_couplings(m, stats.covariance, tickers)
    h = _fields(m, j_pair)
    return _finish(j_pair, h, "ip", tickers, {})


def infer_sm(stats: WindowStats, cfg: InferenceConfig, tickers=None,
             inverse=None) -> InferenceResult:
    """Small-correlation expansion: mean-field plus independent-pair couplings
    with the shared second-order term removed once.  Fields are the
    independent-pair fields."""
    m = stats.means
    _check_means(m, tickers)
    cinv, cond = inverse or invert_covariance(stats.covariance, cfg.ridge)
    j_nmf = _zero_diag(_nmf_matrix(m, cinv))
    j_pair = _pair_couplings(m, stats.covariance, tickers)
    cov = stats.covariance
    denom = np.outer(1.0 - m**2, 1.0 - m**2) - cov**2
    off = ~np.eye(m.size, dtype=bool)
    bad = np.argwhere((np.abs(denom) < 1e-300) & off)
    if bad.size:
        i, j = bad[0]
        li = tickers[i] if tickers else i
        lj = tickers[j] if tickers else j
        raise ValueError(f"pair ({li}, {lj}): vanishing denominator in the "
                         "double-count correction")
    with np.errstate(divide="ignore", invalid="ignore"):
        correction = cov / denom
    j_sm = j_nmf + j_pair - _zero_diag(correction)
    h = _fields(m, j_pair)
    return _finish(j_sm, h, "sm", tickers, {"cond_cov": cond, "ridge": cfg.ridge})


# ---------------------------------------------------------------------------
# Iterative moment matching
# ---------------------------------------------------------------------------

def _as_seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def _model_moments(params: IsingParams, cfg: InferenceConfig, seed,
                   chains: np.ndarray | None = None) -> SampleStats:
    """Exact moments up to cfg.exact_max_n, sampled ones above.  Sampling
    starts from random states with cfg.mc_burnin sweeps of burn-in, or,
    given `chains` (an earlier sample's final_states), continues those
    chains with no burn-in."""
    if params.n <= cfg.exact_max_n:
        return exact_moments_small(params, max_n=cfg.exact_max_n)
    fresh = chains is None
    return metropolis_sample(params, n_sweeps=cfg.mc_sweeps,
                             n_burnin=cfg.mc_burnin if fresh else 0,
                             n_chains=cfg.mc_chains, seed=seed,
                             init="random" if fresh else chains)


def _moment_gap(stats: WindowStats, moments: SampleStats):
    """Data minus model means, data minus model pair moments (diagonal zeroed)
    and the largest absolute entry of either."""
    m = stats.means
    pair_data = stats.covariance + np.outer(m, m)
    pair_data = (pair_data + pair_data.T) / 2.0
    np.fill_diagonal(pair_data, 1.0)
    gap_m = m - moments.means
    gap_p = (pair_data - moments.pair_moments) * ~np.eye(m.size, dtype=bool)
    return gap_m, gap_p, float(max(np.abs(gap_m).max(), np.abs(gap_p).max()))


def infer_exact(stats: WindowStats, cfg: InferenceConfig, tickers=None,
                inverse=None) -> InferenceResult:
    """Iterative learning: nudge (h, J) along the gap between data moments and
    model moments until the largest gap falls below cfg.tol.

    Model moments come from exhaustive enumeration for N <= cfg.exact_max_n
    and from Metropolis sampling otherwise.  The sampled chains persist
    across iterations (persistent contrastive divergence): the first step
    starts them from random states and burns in for cfg.mc_burnin sweeps,
    every later step continues the previous step's final states with no
    burn-in.  Each step draws its own child seed, so a fit is deterministic
    for cfg.seed.  diagnostics["residual_history"] lists each iteration's
    residual; sampled fits also record the last step's largest per-spin
    R-hat as diagnostics["mc_r_hat_max"].  Initialized from the
    mean-field solution (fields via the diagonal trick).  Learning rates
    decay geometrically by cfg.eta_decay per iteration.  A run whose
    residual sits 10x above its running minimum for 50 consecutive
    iterations is aborted as diverged.
    """
    _check_means(stats.means, tickers)
    init = infer_nmf(stats, replace(cfg, diagonal_trick=True), tickers, inverse)
    h = init.params.h.copy()
    j = init.params.J.copy()

    ss = _as_seed_sequence(cfg.seed)
    eta_h, eta_j = cfg.eta_h, cfg.eta_j
    best = np.inf
    residual = np.inf
    bad_streak = 0
    diverged = False
    history: list[float] = []
    iterations = 0
    chains = None  # the sampled chains, carried from step to step

    for iterations in range(1, cfg.max_iters + 1):
        params = IsingParams(h, j, tickers=tickers)
        moments = _model_moments(params, cfg, seed=ss.spawn(1)[0], chains=chains)
        chains = moments.final_states
        gap_m, gap_p, residual = _moment_gap(stats, moments)
        history.append(residual)
        best = min(best, residual)
        if residual < cfg.tol:
            break
        if residual > 10.0 * best:
            bad_streak += 1
            if bad_streak >= 50:
                diverged = True
                break
        else:
            bad_streak = 0
        h = h + eta_h * gap_m
        j = j + eta_j * gap_p
        eta_h *= cfg.eta_decay
        eta_j *= cfg.eta_decay

    params = IsingParams(h, j, tickers=tickers)
    converged = residual < cfg.tol and not diverged
    diagnostics = {"min_residual": best, "diverged": diverged,
                   "residual_history": history,
                   "final_eta_h": eta_h, "final_eta_j": eta_j,
                   "init": "nmf", "cond_cov": init.diagnostics.get("cond_cov")}
    if moments.r_hat is not None:
        diagnostics["mc_r_hat_max"] = float(moments.r_hat.max())
    if diverged:
        logger.warning("exact learning aborted as diverged after %d iterations "
                       "(residual %.3g, best %.3g)", iterations, residual, best)
    return InferenceResult(params, "exact", converged, iterations, residual, diagnostics)


_DISPATCH = {"exact": infer_exact, "nmf": infer_nmf, "tap": infer_tap,
             "ip": infer_ip, "sm": infer_sm}


def infer(stats: WindowStats, cfg: InferenceConfig, tickers=None,
          inverse=None) -> InferenceResult:
    """Run the method selected by cfg.method.  `inverse`, when given, is
    invert_covariance(stats.covariance, cfg.ridge).  Closed-form methods
    leave `residual` None; `moment_residual` measures their fit."""
    return _DISPATCH[cfg.method](stats, cfg, tickers, inverse)


def moment_residual(params: IsingParams, stats: WindowStats,
                    cfg: InferenceConfig) -> float:
    """Max-abs gap between data moments and the model moments of `params`."""
    moments = _model_moments(params, cfg, seed=_as_seed_sequence(cfg.seed))
    return _moment_gap(stats, moments)[2]
