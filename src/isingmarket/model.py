"""
Pairwise maximum-entropy (Ising) model over binary market states.

Convention used throughout this package: the energy of a configuration
s in {-1,+1}^N is

    H(s) = -h.s - s'Js         (beta fixed at 1)

with J symmetric and zero on the diagonal, so each unordered pair (i, j)
contributes 2*J_ij to the energy.  The N=2, h=0 closed form under this
convention is <s1 s2> = tanh(2*J12), and the single-flip energy change is
dE = 2*s_i*(h_i + 2*sum_j J_ij s_j).  Inference routines that are exact
in the conventional single-count parameterization are calibrated to this
convention (see `inference`), so sampling from inferred parameters
reproduces the moments they were fit to.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
import orjson

from .stats import ConfigError

ENUMERATION_HARD_CAP = 20  # 2^N states; above this exact sums are refused
STATE_TRACKING_MAX_N = 16  # sampled state counts keep 2^N bins
THIRD_ORDER_MAX_N = 128  # O(N^3 T) cost guard
_BLOCK_VALUES = 1 << 16  # recorded spins cast to float64 at a time (0.5 MB)


@dataclass(frozen=True)
class IsingParams:
    """External fields h (N,) and symmetric zero-diagonal couplings J (N, N)."""

    h: np.ndarray
    J: np.ndarray
    tickers: tuple[str, ...] | None = None

    def __post_init__(self):
        h = np.asarray(self.h, dtype=np.float64)
        j = np.asarray(self.J, dtype=np.float64)
        if h.ndim != 1 or j.shape != (h.size, h.size):
            raise ValueError(f"shape mismatch: h {h.shape}, J {j.shape}")
        with np.errstate(over="ignore"):  # an overflow is caught as non-finite
            sym = (j + j.T) / 2.0
        if not (np.all(np.isfinite(h)) and np.all(np.isfinite(sym))):
            raise ValueError("parameters must be finite")
        if not np.allclose(j, j.T, atol=1e-10):
            raise ValueError("J must be symmetric")
        if not np.allclose(np.diag(j), 0.0, atol=1e-12):
            raise ValueError("J must have zero diagonal")
        j = sym
        np.fill_diagonal(j, 0.0)
        h = h.copy()
        h.flags.writeable = False
        j.flags.writeable = False
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "J", j)
        if self.tickers is not None:
            if len(self.tickers) != h.size:
                raise ValueError("tickers do not match parameter dimension")
            object.__setattr__(self, "tickers", tuple(self.tickers))

    @property
    def n(self) -> int:
        return self.h.size


@dataclass(frozen=True)
class SampleStats:
    """Model moments estimated from samples (or computed exactly).

    pair_moments holds raw second moments <s_i s_j> with unit diagonal.
    Standard errors, when present, come from the spread of independent
    chain means.  state_counts (for small N) indexes configurations by
    sum_i (s_i > 0) << i.  r_hat is the Gelman-Rubin potential scale
    reduction per spin across chains (near 1 when the chains mixed);
    final_states are the chains' states after the last sweep, ready to be
    continued by passing them back as `init`.
    """

    means: np.ndarray           # (N,)
    pair_moments: np.ndarray    # (N, N), diag 1
    sample_count: int
    third_order: np.ndarray | None = None
    state_counts: np.ndarray | None = None
    se_means: np.ndarray | None = None
    se_pairs: np.ndarray | None = None
    r_hat: np.ndarray | None = None         # (N,)
    final_states: np.ndarray | None = None  # (n_chains, N) int8

    def __post_init__(self):
        if np.any(np.abs(self.means) > 1.0 + 1e-12):
            raise ValueError("spin means must lie in [-1, 1]")
        p = self.pair_moments
        if not np.allclose(p, p.T, atol=1e-10) or not np.allclose(np.diag(p), 1.0):
            raise ValueError("pair moments must be symmetric with unit diagonal")


def enumerate_states(n: int) -> np.ndarray:
    """All 2^n spin configurations as a (2^n, n) array of +-1 floats.

    State k has spin i up iff bit i of k is set.
    """
    if n > ENUMERATION_HARD_CAP:
        raise ValueError(f"refusing to enumerate 2^{n} states (cap {ENUMERATION_HARD_CAP})")
    codes = np.arange(2**n, dtype=np.int64)
    bits = (codes[:, None] >> np.arange(n)) & 1
    return bits.astype(np.float64) * 2.0 - 1.0


def encode_states(s: np.ndarray) -> np.ndarray:
    """Inverse of enumerate_states' ordering for an (..., n) array of spins."""
    s = np.asarray(s)
    up = (s > 0).astype(np.int64)
    return up @ (1 << np.arange(s.shape[-1], dtype=np.int64))


def boltzmann_distribution(params: IsingParams) -> np.ndarray:
    """Exact state probabilities exp(-H)/Z over the enumerate_states ordering."""
    return _boltzmann(params, enumerate_states(params.n))


def _boltzmann(params: IsingParams, s: np.ndarray) -> np.ndarray:
    """exp(-H)/Z over the rows of `s`, every state of the model."""
    g = s @ params.h + np.einsum("si,si->s", s @ params.J, s)
    g -= g.max()  # stabilize before exponentiation
    p = np.exp(g)
    return p / p.sum()


def exact_moments_small(params: IsingParams, max_n: int = 16) -> SampleStats:
    """Exact first and second moments by summing over all 2^N states.

    Practical up to max_n (default 16); hard-refused above
    ENUMERATION_HARD_CAP regardless of max_n.
    """
    n = params.n
    if n > min(max_n, ENUMERATION_HARD_CAP):
        raise ValueError(f"exact enumeration limited to N <= {min(max_n, ENUMERATION_HARD_CAP)}")
    s = enumerate_states(n)
    p = _boltzmann(params, s)
    means = p @ s
    pair = (s * p[:, None]).T @ s
    pair = (pair + pair.T) / 2.0
    np.fill_diagonal(pair, 1.0)
    return SampleStats(means, pair, sample_count=2**n)


def _simulate(params: IsingParams, n_chains: int, n_sweeps: int, n_burnin: int,
              rng: np.random.Generator, init="random") -> np.ndarray:
    """Single-spin-flip Metropolis chains, vectorized across chains.

    One sweep is N attempted flips at uniformly random sites (drawn per
    chain).  Returns recorded states of shape (n_chains, n_sweeps, N),
    one record per chain per post-burn-in sweep.

    init='random' draws independent fair-coin starting states.
    init='exact' draws them from the exhaustively enumerated distribution
    (N <= 16 only), so the ensemble starts in equilibrium; strongly coupled
    systems whose modes single-flip dynamics cannot cross in any reasonable
    budget are then weighted correctly.  An (n_chains, N) array of +-1
    entries continues chains from those states (e.g. the final_states of
    an earlier sample), drawing nothing for the start.
    """
    n = params.n
    if not isinstance(init, str):
        # a C-ordered copy: the caller's states stay, and `flat` below is a view
        s = np.array(init, dtype=np.float64, order="C")
        if s.shape != (n_chains, n):
            raise ValueError(f"init states have shape {s.shape}, expected ({n_chains}, {n})")
        if not np.all(np.abs(s) == 1.0):
            raise ValueError("init state entries must be -1 or +1")
    elif init == "exact":
        states = enumerate_states(n)
        picks = rng.choice(2**n, size=n_chains, p=boltzmann_distribution(params))
        s = states[picks].copy()
    elif init == "random":
        s = rng.choice(np.array([-1.0, 1.0]), size=(n_chains, n))
    else:
        raise ValueError(f"unknown init {init!r}")
    out = np.empty((n_chains, n_sweeps, n), dtype=np.int8)
    # Each step forms -dE = -2 s_i (h_i + 2 J_i.s) in place and accepts with
    # probability min(1, exp(-dE)).  Doubling J is exact, so the einsum over
    # 2J equals 2 * (the einsum over J) bit for bit: the states are those of
    # evaluating dE as written.
    h, j2 = params.h, 2.0 * params.J
    flat = s.reshape(-1)
    base = np.arange(n_chains) * n
    x = np.empty(n_chains)
    for sweep in range(n_burnin + n_sweeps):
        for _ in range(n):
            sites = rng.integers(0, n, size=n_chains)
            idx = base + sites
            cur = flat[idx]
            np.einsum("cn,cn->c", j2.take(sites, axis=0), s, out=x)
            x += h.take(sites)
            x *= cur * -2.0
            np.minimum(x, 0.0, out=x)
            np.exp(x, out=x)
            flat[idx] = np.where(rng.random(n_chains) < x, -cur, cur)
        if sweep >= n_burnin:
            out[:, sweep - n_burnin, :] = s
    return out


def check_seed(seed) -> None:
    """Reject a negative integer seed, which numpy's SeedSequence refuses."""
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")


def _check_sampling(n_sweeps: int, n_burnin: int, n_chains: int, seed) -> None:
    """The settings every `_simulate` caller checks before its first sweep."""
    if n_sweeps < 1:
        raise ConfigError("need at least one sweep")
    if n_burnin < 0 or n_chains < 1:
        raise ConfigError("need n_burnin >= 0 and at least one chain")
    check_seed(seed)


def _check_third_order(n: int, max_n: int = THIRD_ORDER_MAX_N) -> None:
    if n > max_n:
        raise ConfigError(f"third-order tensor limited to N <= {max_n} (got {n})")


def _record_moments(configs: np.ndarray, track_states: bool):
    """Spin sums, pair sums, per-chain pair sums (None for one chain) and,
    with track_states, state counts of an (n_chains, n_sweeps, N) int8 record.

    The record is read in float64 blocks of at most _BLOCK_VALUES values,
    each cast into one reused buffer: whole chains, or sweeps of one chain
    when a chain holds more.  Every sum is of +-1 entries, so it is an exact
    integer and the totals (and the batched matmul against the einsum
    "cti,ctj->cij") are bit-identical to those of one float64 copy of the
    record.  The buffer is freed on return, before the caller's next arrays.
    """
    n_chains, n_sweeps, n = configs.shape
    sums, pair = np.zeros(n), np.zeros((n, n))
    chain_pairs = np.zeros((n_chains, n, n)) if n_chains > 1 else None
    counts = np.zeros(2**n, dtype=np.int64) if track_states else None
    chains = max(1, _BLOCK_VALUES // (n_sweeps * n))
    sweeps = min(n_sweeps, _BLOCK_VALUES // n)
    buf = np.empty(min(chains, n_chains) * sweeps * n)
    for c in range(0, n_chains, chains):
        for t in range(0, n_sweeps, sweeps):
            part = configs[c:c + chains, t:t + sweeps]
            block = buf[:part.size].reshape(part.shape)
            block[...] = part
            flat = block.reshape(-1, n)
            sums += flat.sum(axis=0)
            pair += flat.T @ flat
            if chain_pairs is not None:
                chain_pairs[c:c + chains] += block.transpose(0, 2, 1) @ block
            if counts is not None:
                counts += np.bincount(encode_states(flat), minlength=2**n)
    return sums, pair, chain_pairs, counts


def metropolis_sample(params: IsingParams, n_sweeps: int, n_burnin: int = 1000,
                      n_chains: int = 10, seed=None, with_third_order: bool = False,
                      track_states: bool = False, init="random") -> SampleStats:
    """Estimate model moments by Metropolis sampling.

    Runs n_chains independent chains for n_burnin + n_sweeps sweeps and
    records one sample per chain per post-burn-in sweep (n_chains*n_sweeps
    samples total).  Deterministic for a given seed and init.  See
    `_simulate` for the init choices; the returned final_states can be
    passed back as init to continue the same chains.

    Memory: the int8 state record (chains x sweeps x N bytes), the
    (chains, N, N) float64 per-chain pair moments behind se_pairs (their
    spread is taken in place), and one float64 block of at most 64k
    recorded spins (0.5 MB).  Only with_third_order casts the whole record
    to a float64 sample matrix.
    """
    _check_sampling(n_sweeps, n_burnin, n_chains, seed)
    n = params.n
    if n == 0:
        raise ValueError("a model with no spins has nothing to sample")
    if track_states and n > STATE_TRACKING_MAX_N:
        raise ConfigError(f"state tracking limited to N <= {STATE_TRACKING_MAX_N} (got {n})")
    if with_third_order:
        _check_third_order(n)
    rng = np.random.default_rng(seed)
    configs = _simulate(params, n_chains, n_sweeps, n_burnin, rng, init=init)
    count = n_chains * n_sweeps
    sums, pair, chain_pairs, counts = _record_moments(configs, track_states)
    means = sums / count
    pair = pair / count
    pair = (pair + pair.T) / 2.0
    np.fill_diagonal(pair, 1.0)

    # standard errors from the spread of independent chain means
    chain_means = configs.mean(axis=1)  # (chains, N)
    se_means = se_pairs = r_hat = None
    if n_chains > 1:
        se_means = chain_means.std(axis=0, ddof=1) / math.sqrt(n_chains)
        chain_pairs /= n_sweeps
        se_pairs = _std_in_place(chain_pairs) / math.sqrt(n_chains)
        r_hat = _gelman_rubin(chain_means, n_sweeps)

    third = third_order_from_samples(configs.reshape(-1, n)) if with_third_order else None

    return SampleStats(means, pair, count, third, counts, se_means, se_pairs, r_hat,
                       configs[:, -1, :].copy())


def _std_in_place(x: np.ndarray) -> np.ndarray:
    """`x.std(axis=0, ddof=1)` bit for bit, in numpy's order of operations
    (sum, divide, subtract, square, sum, divide, sqrt), but with the
    deviations written over `x` instead of into a copy of it."""
    mean = x.sum(axis=0, keepdims=True)
    mean /= x.shape[0]
    x -= mean
    np.square(x, out=x)
    var = x.sum(axis=0)
    var /= x.shape[0] - 1
    return np.sqrt(var, out=var)


def _gelman_rubin(chain_means: np.ndarray, n_sweeps: int) -> np.ndarray | None:
    """Potential scale reduction per spin from (chains, N) chain means.

    R = sqrt(((n-1)/n W + B/n) / W) with W the mean within-chain variance
    (ddof 1) and B/n the variance of the chain means (ddof 1).  A +-1
    series of length n with mean m has within-chain variance
    n (1 - m^2) / (n - 1), so the chain means are all it needs.  A spin
    that never moved in any chain (W = 0) gets inf when its chains
    disagree and NaN when they agree.  None for a single sweep.
    """
    if n_sweeps < 2:
        return None
    spread = (1.0 - chain_means**2).mean(axis=0)  # (n-1)/n * W
    w = spread * n_sweeps / (n_sweeps - 1)
    b_over_n = chain_means.var(axis=0, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.sqrt((spread + b_over_n) / w)


def third_order_from_samples(samples: np.ndarray,
                             max_n: int = THIRD_ORDER_MAX_N) -> np.ndarray:
    """Central third moments from an (n_samples, N) sample matrix,
    accumulated slice by slice via matrix products."""
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("samples must be (n_samples, N)")
    count, n = x.shape
    _check_third_order(n, max_n)
    xc = x - x.mean(axis=0)
    tensor = np.empty((n, n, n))
    for k in range(n):
        tensor[:, :, k] = (xc * xc[:, k : k + 1]).T @ xc / count
    return tensor


@dataclass(frozen=True)
class EnergySplit:
    """Decomposition of mean energy into field-driven and coupling-driven parts.

    h_int = J <s> is the internal bias each series feels from the rest of
    the system; E_ext/E_int are the corresponding energy contributions
    -h_ext.<s> and -h_int.<s>.  Zero denominators yield signed infinities
    (flagged by the ratio value), never exceptions.
    """

    h_ext: np.ndarray
    h_int: np.ndarray
    e_ext: float
    e_int: float
    energy_ratio: float
    bias_ratio: float
    bias_ratio_sign: float


def _safe_ratio(num: float, den: float) -> float:
    if den == 0.0:
        if num == 0.0:
            return 0.0
        return math.copysign(math.inf, num)
    return num / den


def energy_split(params: IsingParams, means) -> EnergySplit:
    """Split -h.<s> - <s>'J<s> into external and internal energies."""
    m = np.asarray(means, dtype=np.float64)
    if m.shape != (params.n,):
        raise ValueError("means must match parameter dimension")
    if np.any(np.abs(m) > 1.0 + 1e-12):
        raise ValueError("spin means must lie in [-1, 1]")
    h_ext = params.h.copy()
    h_int = params.J @ m
    e_ext = float(-h_ext @ m)
    e_int = float(-h_int @ m)
    bias = _safe_ratio(float(h_ext.mean()), float(h_int.mean()))
    return EnergySplit(
        h_ext=h_ext, h_int=h_int, e_ext=e_ext, e_int=e_int,
        energy_ratio=_safe_ratio(e_ext, e_int),
        bias_ratio=bias,
        bias_ratio_sign=float(np.sign(bias)) if np.isfinite(bias) else math.copysign(1.0, bias),
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _floats_json(a: np.ndarray) -> bytes:
    """`json.dumps(a.tolist()).encode()` for a finite float64 vector or matrix.

    orjson writes the same shortest round-trip digits as float.__repr__,
    but without an exponent for 1e-5 <= |x| < 1e-4 and with a bare one
    (1e-7, 1e16) where repr writes 1e-07 and 1e+16; only the tokens of
    values with 0 < |x| < 1e-4 or |x| >= 1e16 are re-formatted, by repr.
    """
    out = orjson.dumps(a, option=orjson.OPT_SERIALIZE_NUMPY).replace(b",", b", ")
    rows = np.atleast_2d(a)  # a vector is one row
    mag = np.abs(rows)
    odd = (mag >= 1e16) | ((mag < 1e-4) & (mag > 0.0))
    if not odd.any():
        return out
    ends = np.flatnonzero(np.frombuffer(out, np.uint8) == ord("]"))  # row i ends at ends[i]
    view, parts, done = memoryview(out), [], 0
    for i in np.flatnonzero(odd.any(axis=1)):
        first = ends[i - 1] + 4 if i else a.ndim  # just after "], [", "[[" or "["
        tokens = out[first:ends[i]].split(b", ")
        for k in np.flatnonzero(odd[i]):
            tokens[k] = repr(float(rows[i, k])).encode()
        parts += [view[done:first], b", ".join(tokens)]
        done = ends[i]
    return b"".join([*parts, view[done:]])


def params_to_json(params: IsingParams) -> bytes:
    """Byte-equal to json.dumps of {"tickers", "h", "J": J.tolist()}, encoded."""
    tickers = json.dumps(list(params.tickers) if params.tickers else None).encode()
    return b'{"tickers": %b, "h": %b, "J": %b}' % (
        tickers, _floats_json(params.h), _floats_json(params.J))


def params_from_json(text: str | bytes) -> IsingParams:
    obj = orjson.loads(text)
    if not isinstance(obj, dict) or not isinstance(obj.get("tickers"), (list, type(None))):
        raise ValueError("parameter JSON must be an object whose tickers are a list or null")
    tickers = tuple(obj["tickers"]) if obj.get("tickers") else None
    h, j = (np.asarray(obj[key], dtype=float) for key in ("h", "J"))
    if h.shape == j.shape == (0,):  # N = 0 is written as "J": []
        j = j.reshape(0, 0)
    return IsingParams(h, j, tickers=tickers)
