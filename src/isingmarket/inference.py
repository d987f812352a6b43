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
from dataclasses import dataclass, fields, replace

import numpy as np

from .model import (ENUMERATION_HARD_CAP, IsingParams, SampleStats, exact_moments_small,
                    metropolis_sample)
from .stats import ConfigError, WindowStats

logger = logging.getLogger(__name__)

METHODS = ("exact", "nmf", "tap", "ip", "sm")

# below this |m_i m_j| the TAP quadratic is numerically the nMF limit
_TAP_MEAN_PRODUCT_FLOOR = 1e-8

# A sampled fit stops once every moment gap is within this many standard
# errors of the window's own finite-T moments.  On the 24-spin mc_learn
# benchmark windows (T=500, seeds 401-411) every gap after one learning step
# was at most 0.54 of its standard error, so z = 1 stops them all there.
DATA_FLOOR_Z = 1.0


@dataclass(frozen=True)
class InferenceConfig:
    """Knobs for all inference routes; closed-form methods ignore the
    learning-rate and Monte Carlo settings.  A bad knob raises ConfigError."""

    method: str = "nmf"
    diagonal_trick: bool = True  # nmf/tap only; exact always uses it
    eta_h: float = 0.1
    eta_j: float = 0.1
    eta_decay: float = 0.99  # per-iteration geometric decay
    max_iters: int = 1000
    tol: float = 5e-3        # max-abs moment residual target
    ridge: float = 0.0       # added to the covariance diagonal before inversion
    mc_sweeps: int = 100
    mc_chains: int = 500
    mc_burnin: int = 100     # sweeps before a fit's first sampled step only
    # None, an int, a sequence of ints or a SeedSequence; read by sampled fits only
    seed: int | tuple[int, ...] | np.random.SeedSequence | None = None
    exact_max_n: int = 16    # use exhaustive model moments up to this N

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; choose from {METHODS}")
        for name, sign in (("eta_h", self.eta_h > 0), ("eta_j", self.eta_j > 0),
                           ("tol", self.tol > 0), ("ridge", self.ridge >= 0)):
            if not (sign and np.isfinite(getattr(self, name))):
                raise ConfigError(f"{name} must be finite and "
                                  + ("nonnegative" if name == "ridge" else "positive"))
        if not 0 < self.eta_decay <= 1:
            raise ConfigError("eta_decay must be in (0, 1]")
        for name, low in (("max_iters", 1), ("mc_sweeps", 1), ("mc_chains", 1),
                          ("mc_burnin", 0), ("exact_max_n", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be at least {low}")
        if self.exact_max_n > ENUMERATION_HARD_CAP:
            raise ConfigError(f"exact_max_n must be at most {ENUMERATION_HARD_CAP}")


@dataclass(frozen=True)
class InferenceResult:
    """One fit and what it says of itself; the defaults describe a closed-form fit."""

    params: IsingParams
    method: str
    stop_reason: str | None = None     # exact: tol, data_floor, max_iters or diverged
    iterations: int = 0
    residual: float | None = None      # closed form: `moment_residual` measures it
    cond_cov: float | None = None      # 1-norm condition number of covariance + ridge
    tap_fallbacks: int | None = None   # tap: pairs that fell back to the nMF coupling
    residual_history: tuple[float, ...] = ()  # exact: each iteration's residual
    mc_r_hat_max: float | None = None  # sampled exact: last step's largest R-hat

    @property
    def converged(self) -> bool:
        return self.stop_reason in (None, "tol", "data_floor")

    @property
    def diagnostics(self) -> dict:
        """Read-only dict of the fields after `residual`, kept for its one reader:
        perfbench/tracer.py calls .get("tap_fallbacks") on it after every fit."""
        return {f.name: getattr(self, f.name) for f in fields(self)[5:]}


def _check_means(stats: WindowStats) -> np.ndarray:
    bad = np.flatnonzero(np.abs(stats.means) >= 1.0)
    if bad.size:
        raise ValueError(f"{stats.label(bad[0])} has |mean| >= 1 (constant sign "
                         "in this window); fields diverge")
    return stats.means


def _nmf_matrix(m: np.ndarray, cinv: np.ndarray) -> np.ndarray:
    """Mean-field coupling matrix diag(1/(1-m^2)) - Cinv, diagonal kept.
    Off the diagonal it is 0.0 - Cinv, as diag(d) - Cinv gives it: -Cinv
    would turn a +0.0 into -0.0."""
    j = np.subtract(0.0, cinv)
    np.fill_diagonal(j, 1.0 / (1.0 - m**2) - np.diagonal(cinv))
    return j


def _check_pairs(bad: np.ndarray, stats: WindowStats, problem: str) -> None:
    """Raise naming the first off-diagonal pair, row by row, that the square
    mask `bad` marks; the mask's diagonal is cleared in place."""
    np.fill_diagonal(bad, False)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueError(f"pair ({stats.label(i)}, {stats.label(j)}): {problem}")


def _fields(m: np.ndarray, coupling: np.ndarray) -> np.ndarray:
    """atanh(m_i) - sum_j coupling_ij m_j (single-count coupling matrix)."""
    return np.arctanh(m) - coupling @ m


def _finish(j_single: np.ndarray, h: np.ndarray, method: str, stats: WindowStats,
            **record) -> InferenceResult:
    j = j_single + j_single.T  # the one N x N array of the fit's couplings
    j /= 2.0
    np.fill_diagonal(j, 0.0)
    j /= 2.0  # calibrate to s'Js energy
    return InferenceResult(IsingParams(h, j, tickers=stats.tickers), method, **record)


def infer_nmf(stats: WindowStats, cfg: InferenceConfig) -> InferenceResult:
    """First-order mean-field inversion of the covariance matrix.

    With the diagonal trick on (the default) the uncut diagonal of the
    mean-field matrix participates in the field sums, which markedly
    improves field estimates.
    """
    m = _check_means(stats)
    cinv, cond = stats.inverse(cfg.ridge)
    j = _nmf_matrix(m, cinv)
    if not cfg.diagonal_trick:
        np.fill_diagonal(j, 0.0)
    h = _fields(m, j)
    np.fill_diagonal(j, 0.0)
    return _finish(j, h, "nmf", stats, cond_cov=cond)


def infer_tap(stats: WindowStats, cfg: InferenceConfig) -> InferenceResult:
    """Second-order (TAP) mean-field inversion.

    Per pair, solves 2 m_i m_j x^2 + x + (Cinv)_ij = 0 taking the root
    x = (-1 + sqrt(1 - 8 m_i m_j (Cinv)_ij)) / (4 m_i m_j), which reduces
    to the mean-field value -(Cinv)_ij as m_i m_j -> 0.  Pairs with a
    negative discriminant fall back to the mean-field coupling and are
    counted in `tap_fallbacks`.  With the diagonal trick on, fields are
    computed exactly as in infer_nmf; otherwise the TAP correction
    h_i -= m_i (1 - m_i^2) sum_j x_ij^2 is applied to the untricked
    mean-field fields.
    """
    m = _check_means(stats)
    cinv, cond = stats.inverse(cfg.ridge)
    mm = np.outer(m, m)
    nmf_limit = np.abs(mm) < _TAP_MEAN_PRODUCT_FLOOR
    root = 8.0 * mm  # becomes the discriminant, then the root, in place
    root *= cinv
    np.subtract(1.0, root, out=root)
    negative = root < 0.0
    negative &= ~nmf_limit
    np.maximum(root, 0.0, out=root)
    np.sqrt(root, out=root)
    root += -1.0
    mm *= 4.0
    with np.errstate(divide="ignore", invalid="ignore"):
        root /= mm
    del mm
    n_fallback = int(np.count_nonzero(np.triu(negative, k=1)))
    negative |= nmf_limit
    np.negative(cinv, out=root, where=negative)
    j_tap = root + root.T
    del root
    j_tap /= 2.0
    np.fill_diagonal(j_tap, 0.0)
    if n_fallback:
        logger.info("TAP: %d pairs fell back to the mean-field coupling", n_fallback)

    j_nmf = _nmf_matrix(m, cinv)
    if cfg.diagonal_trick:
        h = _fields(m, j_nmf)
    else:
        np.fill_diagonal(j_nmf, 0.0)
        h_nmf = _fields(m, j_nmf)
        h = h_nmf - m * (1.0 - m**2) * np.square(j_tap, out=j_nmf).sum(axis=1)
    return _finish(j_tap, h, "tap", stats, cond_cov=cond, tap_fallbacks=n_fallback)


def _pair_couplings(stats: WindowStats) -> np.ndarray:
    """Closed-form coupling of each pair in isolation, from its joint +-1 table."""
    m = stats.means
    cstar = np.outer(m, m)
    np.add(stats.covariance, cstar, out=cstar)  # raw second moments <s_i s_j>
    mi = m[:, None]
    mj = m[None, :]
    num1 = 1.0 + mi + mj
    num1 += cstar
    num2 = 1.0 - mi - mj
    num2 += cstar
    den1 = 1.0 - mi + mj
    den1 -= cstar
    den2 = 1.0 + mi - mj
    den2 -= cstar
    del cstar
    for name, arg in (("1+mi+mj+C*", num1), ("1-mi-mj+C*", num2),
                      ("1-mi+mj-C*", den1), ("1+mi-mj-C*", den2)):
        _check_pairs(arg <= 0.0, stats, f"term {name} is non-positive; joint table "
                     "inconsistent with +-1 marginals")
    with np.errstate(divide="ignore", invalid="ignore"):
        num1 *= num2
        den1 *= den2
        num1 /= den1
        np.log(num1, out=num1)
    num1 *= 0.25
    np.fill_diagonal(num1, 0.0)
    return num1


def infer_ip(stats: WindowStats, cfg: InferenceConfig) -> InferenceResult:
    """Independent-pair inversion: each coupling from its pair's joint table
    alone.  No covariance inverse is needed."""
    m = _check_means(stats)
    j_pair = _pair_couplings(stats)
    return _finish(j_pair, _fields(m, j_pair), "ip", stats)


def infer_sm(stats: WindowStats, cfg: InferenceConfig) -> InferenceResult:
    """Small-correlation expansion: mean-field plus independent-pair couplings
    with the shared second-order term removed once.  Fields are the
    independent-pair fields."""
    m = _check_means(stats)
    cinv, cond = stats.inverse(cfg.ridge)
    j_pair = _pair_couplings(stats)
    cov = stats.covariance
    correction = np.square(cov)
    denom = np.outer(1.0 - m**2, 1.0 - m**2)
    denom -= correction
    _check_pairs(np.abs(denom, out=correction) < 1e-300, stats,
                 "vanishing denominator in the double-count correction")
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(cov, denom, out=correction)
    del denom
    np.fill_diagonal(correction, 0.0)
    j_sm = _nmf_matrix(m, cinv)
    np.fill_diagonal(j_sm, 0.0)
    j_sm += j_pair
    j_sm -= correction
    h = _fields(m, j_pair)
    return _finish(j_sm, h, "sm", stats, cond_cov=cond)


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


@dataclass(frozen=True)
class _Targets:
    """A window's moments as learning targets, computed once per fit: the means,
    the pair moments <s_i s_j> (unit diagonal) and, for a window of known
    length T, DATA_FLOOR_Z data standard errors of each, sqrt((1 - m_i^2)/T)
    and sqrt((1 - <s_i s_j>^2)/T)."""

    means: np.ndarray
    pairs: np.ndarray
    floor_means: np.ndarray | None
    floor_pairs: np.ndarray | None

    @classmethod
    def of(cls, stats: WindowStats) -> "_Targets":
        m = stats.means
        pairs = stats.covariance + np.outer(m, m)
        pairs = (pairs + pairs.T) / 2.0
        np.fill_diagonal(pairs, 1.0)
        if stats.n_obs is None:
            return cls(m, pairs, None, None)
        se = [np.sqrt(np.maximum(1.0 - x**2, 0.0) / stats.n_obs) for x in (m, pairs)]
        return cls(m, pairs, DATA_FLOOR_Z * se[0], DATA_FLOOR_Z * se[1])

    def gap(self, moments: SampleStats):
        """Data minus model means, data minus model pair moments (diagonal
        zeroed) and the largest absolute entry of either."""
        gap_m = self.means - moments.means
        gap_p = self.pairs - moments.pair_moments
        np.fill_diagonal(gap_p, 0.0)
        return gap_m, gap_p, float(max(np.abs(gap_m).max(), np.abs(gap_p).max()))

    def within_floor(self, gap_m: np.ndarray, gap_p: np.ndarray) -> bool:
        """Every gap within its floor; never for a window of unknown length."""
        return (self.floor_means is not None
                and bool(np.all(np.abs(gap_m) <= self.floor_means))
                and bool(np.all(np.abs(gap_p) <= self.floor_pairs)))


def infer_exact(stats: WindowStats, cfg: InferenceConfig) -> InferenceResult:
    """Iterative learning: nudge (h, J) along the gap between data moments and
    model moments until the fit stops, and return the last parameters whose
    moments were measured, so `residual` and `mc_r_hat_max` describe them.

    Model moments come from exhaustive enumeration for N <= cfg.exact_max_n
    and from Metropolis sampling otherwise.  The sampled chains persist
    across iterations (persistent contrastive divergence): the first step
    starts them from random states and burns in for cfg.mc_burnin sweeps,
    every later step continues the previous step's final states with no
    burn-in.  Each step draws its own child seed, so a fit is deterministic
    for cfg.seed.  Initialized from the mean-field solution (fields via the
    diagonal trick).  Learning rates decay geometrically by cfg.eta_decay
    per iteration.

    `stop_reason` says why the fit stopped:
    - `tol`: the largest moment gap fell below cfg.tol;
    - `data_floor`: a sampled fit (N > cfg.exact_max_n) on a window of known
      length T has every mean gap within DATA_FLOOR_Z * sqrt((1 - m_i^2)/T)
      and every pair gap within DATA_FLOOR_Z * sqrt((1 - <s_i s_j>^2)/T),
      the finite-T error of the data moments themselves.  Checked from the
      second iteration on, so the result carries at least one learning step;
    - `diverged`: the residual sat 10x above its running minimum for 50
      consecutive iterations;
    - `max_iters`: cfg.max_iters iterations ran.
    The fit counts as converged for `tol` and `data_floor`.
    `residual_history` lists each iteration's residual; sampled fits also
    record the last step's largest per-spin R-hat as `mc_r_hat_max`.
    `cond_cov` is the start's.
    """
    init = infer_nmf(stats, replace(cfg, diagonal_trick=True))
    h, j = init.params.h, init.params.J  # each step makes new arrays
    targets = _Targets.of(stats)
    sampled = stats.means.size > cfg.exact_max_n

    ss = _as_seed_sequence(cfg.seed) if sampled else None  # enumeration draws nothing
    eta_h, eta_j = cfg.eta_h, cfg.eta_j
    best = np.inf
    bad_streak = 0
    history: list[float] = []
    chains = None  # the sampled chains, carried from step to step

    for iterations in range(1, cfg.max_iters + 1):
        params = IsingParams(h, j, tickers=stats.tickers)
        moments = _model_moments(params, cfg, seed=ss.spawn(1)[0] if sampled else None,
                                 chains=chains)
        chains = moments.final_states
        gap_m, gap_p, residual = targets.gap(moments)
        history.append(residual)
        best = min(best, residual)
        bad_streak = bad_streak + 1 if residual > 10.0 * best else 0
        if residual < cfg.tol:
            stop = "tol"
        elif sampled and iterations > 1 and targets.within_floor(gap_m, gap_p):
            stop = "data_floor"
        elif bad_streak >= 50:
            stop = "diverged"
        elif iterations == cfg.max_iters:
            stop = "max_iters"
        else:
            stop = None
        if stop is not None:
            break
        h = h + eta_h * gap_m
        j = j + eta_j * gap_p
        eta_h *= cfg.eta_decay
        eta_j *= cfg.eta_decay

    if stop == "diverged":
        logger.warning("exact learning aborted as diverged after %d iterations "
                       "(residual %.3g, best %.3g)", iterations, residual, best)
    return InferenceResult(
        params, "exact", stop_reason=stop, iterations=iterations, residual=residual,
        cond_cov=init.cond_cov, residual_history=tuple(history),
        mc_r_hat_max=None if moments.r_hat is None else float(moments.r_hat.max()))


_DISPATCH = {"exact": infer_exact, "nmf": infer_nmf, "tap": infer_tap,
             "ip": infer_ip, "sm": infer_sm}


def infer(stats: WindowStats, cfg: InferenceConfig) -> InferenceResult:
    """Run the method selected by cfg.method.  Closed-form methods leave
    `residual` None; `moment_residual` measures their fit."""
    return _DISPATCH[cfg.method](stats, cfg)


def moment_residual(params: IsingParams, stats: WindowStats,
                    cfg: InferenceConfig) -> float:
    """Max-abs gap between data moments and the model moments of `params`."""
    sampled = params.n > cfg.exact_max_n  # enumeration draws nothing
    moments = _model_moments(params, cfg, seed=_as_seed_sequence(cfg.seed) if sampled else None)
    return _Targets.of(stats).gap(moments)[2]
