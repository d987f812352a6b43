"""Shared test helpers: exact-moment bridges, brute-force oracles, the
params JSON and CSV text references, cutoff scans at explicit thresholds,
the paper's two baselines (shuffled windows, spectral truncation) and the
closed-form fits written as plain formulas."""

from __future__ import annotations

import json
from itertools import product

import numpy as np

from isingmarket import inference, network
from isingmarket.model import IsingParams, exact_moments_small
from isingmarket.stats import WindowStats


def hamiltonian(params: IsingParams, s) -> float:
    """Energy -h.s - s'Js of one configuration."""
    s = np.asarray(s, dtype=np.float64)
    return float(-params.h @ s - s @ params.J @ s)


def third_order_tensor(window: np.ndarray) -> np.ndarray:
    """Central third moments <(s_i - m_i)(s_j - m_j)(s_k - m_k)> of an (N, T)
    window, by one einsum."""
    xc = window - window.mean(axis=1, keepdims=True)
    return np.einsum("it,jt,kt->ijk", xc, xc, xc) / window.shape[1]


def cutoff_scan(j, labels, thresholds, direction: str, eigen: bool = False):
    """ScanPoints of `j` at explicit thresholds: its coupling scan, or with
    `eigen` its eigenmode scan, through window_forests' checks, batched Prim
    pass and scoring."""
    j = network._check_square_symmetric(j)
    network._check_direction(direction)
    thresholds = list(thresholds)
    grid = ([], thresholds) if eigen else (thresholds, [])
    spectrum = np.linalg.eigh(j) if eigen else None
    _, coupling, eigen_points = network._trees([j], [spectrum], labels, False, [grid],
                                               direction)[0]
    return eigen_points if eigen else coupling


def spectral_truncation(j, threshold: float, direction: str) -> np.ndarray:
    """Rebuild a symmetric matrix from the eigenmodes surviving a cutoff.

    direction='discard_above' keeps eigenvalues <= threshold,
    'discard_below' keeps eigenvalues >= threshold.  The reconstruction's
    diagonal is zeroed so the result is usable as a coupling matrix.
    """
    j = network._check_square_symmetric(j)
    network._check_direction(direction)
    return network._rebuild(*np.linalg.eigh(j), threshold, direction)


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


def stats_from_params(params: IsingParams) -> WindowStats:
    """WindowStats whose means/covariance are the exact model moments."""
    mom = exact_moments_small(params, max_n=16)
    m = mom.means
    cov = mom.pair_moments - np.outer(m, m)
    cov = (cov + cov.T) / 2.0
    np.fill_diagonal(cov, 1.0 - m**2)
    return stats_from_moments(m, cov)


def stats_from_moments(m: np.ndarray, cov: np.ndarray) -> WindowStats:
    return WindowStats(m, cov)


def _zero_diag(m: np.ndarray) -> np.ndarray:
    out = m.copy()
    np.fill_diagonal(out, 0.0)
    return out


def _reference_nmf_matrix(m, cinv):
    return np.diag(1.0 / (1.0 - m**2)) - cinv


def _reference_pair_couplings(stats):
    m = stats.means
    cstar = stats.covariance + np.outer(m, m)
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
            raise ValueError(f"pair ({stats.label(i)}, {stats.label(j)}): term {name} is "
                             "non-positive; joint table inconsistent with +-1 marginals")
    with np.errstate(divide="ignore", invalid="ignore"):
        j_pair = 0.25 * np.log((num1 * num2) / (den1 * den2))
    return _zero_diag(j_pair)


def reference_closed_form(stats: WindowStats, cfg) -> tuple[np.ndarray, np.ndarray]:
    """(h, J) of cfg.method's closed-form fit (nmf, tap, ip or sm), each step
    a formula on whole N x N arrays: the reference the in-place kernels of
    `inference` must match bit for bit."""
    m = inference._check_means(stats)
    fields = inference._fields
    if cfg.method == "ip":
        j_pair = _reference_pair_couplings(stats)
        j, h = j_pair, fields(m, j_pair)
    elif cfg.method == "nmf":
        cinv, _ = stats.inverse(cfg.ridge)
        j_full = _reference_nmf_matrix(m, cinv)
        h = fields(m, j_full if cfg.diagonal_trick else _zero_diag(j_full))
        j = _zero_diag(j_full)
    elif cfg.method == "tap":
        cinv, _ = stats.inverse(cfg.ridge)
        mm = np.outer(m, m)
        disc = 1.0 - 8.0 * mm * cinv
        nmf_limit = np.abs(mm) < inference._TAP_MEAN_PRODUCT_FLOOR
        negative = (disc < 0.0) & ~nmf_limit
        with np.errstate(divide="ignore", invalid="ignore"):
            root = (-1.0 + np.sqrt(np.maximum(disc, 0.0))) / (4.0 * mm)
        j = np.where(nmf_limit | negative, -cinv, root)
        j = _zero_diag((j + j.T) / 2.0)
        if cfg.diagonal_trick:
            h = fields(m, _reference_nmf_matrix(m, cinv))
        else:
            h_nmf = fields(m, _zero_diag(_reference_nmf_matrix(m, cinv)))
            h = h_nmf - m * (1.0 - m**2) * (j**2).sum(axis=1)
    else:
        cinv, _ = stats.inverse(cfg.ridge)
        j_nmf = _zero_diag(_reference_nmf_matrix(m, cinv))
        j_pair = _reference_pair_couplings(stats)
        cov = stats.covariance
        denom = np.outer(1.0 - m**2, 1.0 - m**2) - cov**2
        off = ~np.eye(m.size, dtype=bool)
        bad = np.argwhere((np.abs(denom) < 1e-300) & off)
        if bad.size:
            i, k = bad[0]
            raise ValueError(f"pair ({stats.label(i)}, {stats.label(k)}): vanishing "
                             "denominator in the double-count correction")
        with np.errstate(divide="ignore", invalid="ignore"):
            correction = cov / denom
        j = j_nmf + j_pair - _zero_diag(correction)
        h = fields(m, j_pair)
    params = inference._finish(j, h, cfg.method, stats).params
    return params.h, params.J


def reference_json(params: IsingParams) -> str:
    """The params wire format as json.dumps writes it."""
    return json.dumps({"tickers": list(params.tickers) if params.tickers else None,
                       "h": params.h.tolist(), "J": params.J.tolist()})


def reference_edges_csv(edges, tickers, labels) -> str:
    """An MST edge list as CSV text, each weight its repr."""
    lines = ["i_ticker,j_ticker,weight,i_sector,j_sector"]
    for i, j, wt in edges:
        lines.append(f"{tickers[i]},{tickers[j]},{wt!r},{labels[i]},{labels[j]}")
    return "\n".join(lines) + "\n"


def reference_prices_csv(tickers, dates, prices: np.ndarray) -> str:
    """An (N, L) price matrix as `date,TICKER...` CSV text, each price the
    repr of its float."""
    lines = ["date," + ",".join(tickers)]
    for t, d in enumerate(dates):
        lines.append(d + "," + ",".join(repr(float(p)) for p in prices[:, t]))
    return "\n".join(lines) + "\n"


def reference_sectors_csv(mapping: dict) -> str:
    """A {ticker: sector} mapping as `ticker,name,sector` CSV text, sorted by
    ticker, each ticker its own name."""
    lines = ["ticker,name,sector"]
    for ticker in sorted(mapping):
        lines.append(f"{ticker},{ticker},{mapping[ticker]}")
    return "\n".join(lines) + "\n"


def weights_from_edges(n, entries, default=0.0):
    """Symmetric n x n weights: `default` off the listed (i, j, w) entries,
    zero on the diagonal."""
    w = np.full((n, n), default, dtype=float)
    np.fill_diagonal(w, 0.0)
    for i, j, v in entries:
        w[i, j] = w[j, i] = v
    return w


def brute_force_max_tree_weight(w: np.ndarray) -> float:
    """Maximum spanning-tree weight by enumerating all trees via Pruefer codes."""
    n = w.shape[0]
    if n == 2:
        return float(w[0, 1])
    best = -np.inf
    for code in product(range(n), repeat=n - 2):
        edges = _pruefer_to_edges(code, n)
        best = max(best, sum(w[i, j] for i, j in edges))
    return float(best)


def _pruefer_to_edges(code, n):
    degree = [1] * n
    for v in code:
        degree[v] += 1
    edges = []
    code = list(code)
    for v in code:
        for leaf in range(n):
            if degree[leaf] == 1:
                edges.append((leaf, v))
                degree[leaf] -= 1
                degree[v] -= 1
                break
    last = [v for v in range(n) if degree[v] == 1]
    edges.append((last[0], last[1]))
    return edges
