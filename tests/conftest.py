"""Shared test helpers: exact-moment bridges, brute-force oracles, the
params JSON and CSV text references, cutoff scans at explicit thresholds and
the paper's two baselines (shuffled windows, spectral truncation)."""

from __future__ import annotations

import json
from itertools import product

import numpy as np

from isingmarket import network
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
