"""
Spanning-tree structure of coupling/covariance matrices and industry-sector
clustering quality.  Every tree and forest comes from one vectorized Prim
pass over a stack of weight matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .stats import ConfigError, _upper_triangle


@dataclass(frozen=True)
class SectorMap:
    """Ticker to industry-sector assignment."""

    mapping: dict[str, str]
    sectors: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        if not self.mapping:
            raise ValueError("sector map is empty")
        object.__setattr__(self, "sectors", tuple(sorted(set(self.mapping.values()))))

    def labels_for(self, tickers) -> list[str]:
        """Sector label per ticker; a ticker without one is a ConfigError."""
        missing = [t for t in tickers if t not in self.mapping]
        if missing:
            raise ConfigError(f"tickers without sector assignment: {missing}")
        return [self.mapping[t] for t in tickers]


@dataclass
class MstResult:
    """Maximum-weight spanning tree (or forest, under cutoffs) of a panel;
    `q_mst` is the share of nodes in their sector's largest same-sector cluster."""

    edges: list[tuple[int, int, float]]
    cluster_sizes: dict[str, list[int]]
    q_mst: float
    disconnected: bool = False


def _check_square_symmetric(w: np.ndarray, min_nodes: int = 0) -> np.ndarray:
    """`w` as float64 with its lower triangle mirrored from the upper one,
    the only triangle read."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("weight matrix must be square")
    if not np.isfinite(w).all():
        raise ValueError("weight matrix must be finite")
    if not np.allclose(w, w.T, atol=1e-10):
        raise ValueError("weight matrix must be symmetric")
    if w.shape[0] < min_nodes:
        raise ValueError("need at least two nodes")
    return np.where(np.tri(w.shape[0], k=-1, dtype=bool), w.T, w)


def _prim(w: np.ndarray) -> np.ndarray:
    """Parent arrays (K, n) of the maximum spanning forests of a (K, n, n)
    stack of symmetric weights, all grown at once; a root's parent is -1.

    -inf marks a missing edge; the diagonal is never read.  Edges rank in
    (-w, i, j) order: each step adds, per matrix, the free node whose best
    edge into the tree has the highest weight, then the smallest code
    min(i,j)*n + max(i,j).  The order is strict, so each forest is the one
    Kruskal's algorithm builds.  When no edge crosses, the next tree starts
    at the smallest free node.
    """
    k, n = w.shape[:2]
    rows, node = np.arange(k), np.arange(n)
    codes = np.minimum.outer(node, node) * n + np.maximum.outer(node, node)
    parent = np.full((k, n), -1)
    free = np.ones((k, n), dtype=bool)
    # each free node's best edge into the tree: its weight and its code
    key = np.full((k, n), -np.inf)
    code = np.zeros((k, n), dtype=codes.dtype)
    for _ in range(n):
        best = key.max(axis=1)
        crosses = best > -np.inf
        first = np.where(key == best[:, None], code, n * n).argmin(axis=1)
        v = np.where(crosses, first, free.argmax(axis=1))
        c = code[rows, v]
        parent[rows, v] = np.where(crosses, c // n + c % n - v, -1)  # the other end
        free[rows, v] = False
        key[rows, v] = -np.inf
        wv, cv = w[rows, v], codes[v]
        better = free & ((wv > key) | ((wv == key) & (cv < code)))
        np.copyto(key, wv, where=better)
        np.copyto(code, cv, where=better)
    return parent


def _forest_edges(w: np.ndarray, parent: np.ndarray) -> list[tuple[int, int, float]]:
    """A forest's edges as (i, j, weight), i < j, in (-w, i, j) order."""
    child = np.flatnonzero(parent >= 0)
    i, j = np.minimum(child, parent[child]), np.maximum(child, parent[child])
    wts = w[i, j]
    order = np.lexsort((j, i, -wts))
    return list(zip(i[order].tolist(), j[order].tolist(), wts[order].tolist()))


def _scores(parent: np.ndarray, labels):
    """Same-sector cluster sizes (K, n), Q_mst (K,) and component counts (K,)
    of a stack of forests given as parent arrays.  Each cluster's size sits
    at its topmost node; every other node holds 0."""
    names, sector = np.unique(labels, return_inverse=True)
    k, n = parent.shape
    up = np.where((parent >= 0) & (sector[parent] == sector), parent, np.arange(n))
    while True:  # pointer jumping: every node ends at its cluster's top
        top = np.take_along_axis(up, up, axis=1)
        if np.array_equal(top, up):
            break
        up = top
    sizes = np.bincount((up + n * np.arange(k)[:, None]).ravel(),
                        minlength=k * n).reshape(k, n)
    q = sum(sizes[:, sector == s].max(axis=1) for s in range(names.size)) / len(labels)
    return sizes, q, (parent < 0).sum(axis=1)


def _cluster_dict(sizes: np.ndarray, labels) -> dict[str, list[int]]:
    names, sector = np.unique(labels, return_inverse=True)
    return {str(name): sorted(sizes[(sector == s) & (sizes > 0)].tolist(), reverse=True)
            for s, name in enumerate(names)}


def _trees(js, spectra, labels, mst: bool, grids, direction: str) -> list[tuple]:
    """window_forests' (mst, coupling, eigen) per checked matrix, from one
    batched Prim pass over a (K, n, n) stack: the MST with `mst`, then one
    forest per threshold of the matrix's (coupling, eigen) grid.  `spectra`
    holds each matrix's eigh when its eigen grid is not empty."""
    starts = np.cumsum([0] + [int(mst) + len(c) + len(e) for c, e in grids])
    stack = np.empty((starts[-1], len(labels), len(labels)))
    for j, spectrum, (coupling, eigen), at in zip(js, spectra, grids, starts):
        stack[at:at + mst] = j
        at += mst
        layers = stack[at:at + len(coupling)]
        layers.fill(-np.inf)  # in place: no second copy of the layers
        th = np.asarray(coupling, dtype=np.float64)[:, None, None]
        np.copyto(layers, j, where=_survivors(j, th, direction))
        for t, th in enumerate(eigen, at + len(coupling)):
            stack[t] = _rebuild(*spectrum, th, direction)
    parent = _prim(stack)
    sizes, q, n_comp = _scores(parent, labels)
    out = []
    for j, (coupling, eigen), at in zip(js, grids, starts):
        if (n_comp[at + mst:at + mst + len(coupling)] == len(labels)).any():
            raise ValueError("no edges survive the cutoff")
        tree = None
        if mst:
            tree = MstResult(_forest_edges(j, parent[at]), _cluster_dict(sizes[at], labels),
                             float(q[at]))
        points = [ScanPoint(float(th), float(q[t]), bool(n_comp[t] > 1))
                  for t, th in enumerate(coupling + eigen, at + mst)]
        out.append((tree, points[:len(coupling)], points[len(coupling):]))
    return out


def mst_result(w: np.ndarray, labels) -> MstResult:
    """Build the maximum spanning tree of `w` and score its sector clustering;
    edges are (i, j, weight), i < j, by descending weight, then by (i, j)."""
    w = _check_square_symmetric(w, min_nodes=2)
    return _trees([w], [None], labels, True, [([], [])], "discard_above")[0][0]


@dataclass
class ScanPoint:
    threshold: float
    q_mst: float
    disconnected: bool


def _check_direction(direction: str) -> None:
    if direction not in ("discard_above", "discard_below"):
        raise ValueError(f"unknown direction {direction!r}")


def _survivors(values: np.ndarray, threshold, direction: str) -> np.ndarray:
    return values <= threshold if direction == "discard_above" else values >= threshold


def _rebuild(lam: np.ndarray, vec: np.ndarray, threshold: float,
             direction: str) -> np.ndarray:
    keep = _survivors(lam, threshold, direction)
    if not np.any(keep):
        raise ValueError(f"no eigenvalues survive threshold {threshold}")
    rebuilt = (vec[:, keep] * lam[keep]) @ vec[:, keep].T
    rebuilt = (rebuilt + rebuilt.T) / 2.0
    np.fill_diagonal(rebuilt, 0.0)
    return rebuilt


def spectral_truncation(j: np.ndarray, threshold: float, direction: str) -> np.ndarray:
    """Rebuild a symmetric matrix from the eigenmodes surviving a cutoff.

    direction='discard_above' keeps eigenvalues <= threshold,
    'discard_below' keeps eigenvalues >= threshold.  The reconstruction's
    diagonal is zeroed so the result is usable as a coupling matrix.
    """
    j = _check_square_symmetric(j)
    _check_direction(direction)
    return _rebuild(*np.linalg.eigh(j), threshold, direction)


def _interior_grid(values: np.ndarray, n_points: int) -> list[float]:
    # the extremes would discard everything (or nothing) and sit one
    # rounding error away from emptiness
    lo, hi = float(values.min()), float(values.max())
    return list(np.linspace(lo, hi, n_points + 2)[1:-1])


def check_cutoff_points(points: int) -> None:
    """A cutoff scan has at least one threshold (`window_forests` reads 0 as no scan)."""
    if points < 1:
        raise ConfigError("cutoff_points must be at least 1")


def window_forests(js, labels, mst: bool, cutoff_points: int,
                   direction: str = "discard_above") -> list[tuple]:
    """Every tree of a window's coupling matrices, built in one batched pass.

    Returns (mst, coupling, eigen) per matrix: with `mst`, its mst_result
    (else None); with `cutoff_points` > 0, ScanPoints (else empty) over
    interior grids of that many thresholds spanning its off-diagonal entries
    and its spectrum.  A coupling point scores the forest of the couplings
    that survive the threshold (direction='discard_above' drops J_ij above
    it, 'discard_below' those below it), flagged when it disconnects.  An
    eigen point scores the tree of the matrix rebuilt from the surviving
    eigenmodes with its diagonal zeroed.  Each matrix is diagonalized once,
    for both its grid and its rebuilds.
    """
    js = [_check_square_symmetric(j, min_nodes=2) for j in js]
    _check_direction(direction)
    spectra = [np.linalg.eigh(j) if cutoff_points else None for j in js]
    grids = [(_interior_grid(_upper_triangle(j), cutoff_points),
              _interior_grid(spectrum[0], cutoff_points)) if cutoff_points else ([], [])
             for j, spectrum in zip(js, spectra)]
    return _trees(js, spectra, labels, mst, grids, direction)


def edges_to_csv(edges, tickers, labels) -> str:
    """Edge list as `i_ticker,j_ticker,weight,i_sector,j_sector` CSV text."""
    lines = ["i_ticker,j_ticker,weight,i_sector,j_sector"]
    for i, j, wt in edges:
        lines.append(f"{tickers[i]},{tickers[j]},{wt!r},{labels[i]},{labels[j]}")
    return "\n".join(lines) + "\n"


def edges_to_dot(edges, tickers, labels, name: str = "mst") -> str:
    """Edge list as an undirected DOT graph with sector node attributes."""
    lines = [f"graph {name} {{"]
    for t, lab in zip(tickers, labels):
        lines.append(f'  "{t}" [sector="{lab}"];')
    for i, j, wt in edges:
        lines.append(f'  "{tickers[i]}" -- "{tickers[j]}" [weight="{wt:.6g}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
