"""Shared test helpers: exact-moment bridges and brute-force oracles."""

from __future__ import annotations

from itertools import product

import numpy as np

from isingmarket.model import IsingParams, exact_moments_small
from isingmarket.stats import WindowStats


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
