"""
Spanning-tree structure of coupling/covariance matrices and industry-sector
clustering quality.  Every tree and forest comes from one vectorized Prim
pass over a stack of each matrix and its eigen rebuilds; coupling forests
read thresholded rows of the matrices, so no thresholded copy is stored.
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
    """Maximum-weight spanning tree of a panel; `q_mst` is the share of nodes
    in their sector's largest same-sector cluster."""

    edges: list[tuple[int, int, float]]
    cluster_sizes: dict[str, list[int]]
    q_mst: float


def _check_square_symmetric(w: np.ndarray) -> np.ndarray:
    """`w` as float64 with its lower triangle mirrored from the upper one,
    the only triangle read; a tree needs at least two nodes."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("weight matrix must be square")
    if not np.isfinite(w).all():
        raise ValueError("weight matrix must be finite")
    # an exactly symmetric matrix, every fit's J, skips allclose's N x N temporaries
    if not (np.array_equal(w, w.T) or np.allclose(w, w.T, atol=1e-10)):
        raise ValueError("weight matrix must be symmetric")
    if w.shape[0] < 2:
        raise ValueError("need at least two nodes")
    return np.where(np.tri(w.shape[0], k=-1, dtype=bool), w.T, w)


def _prim(w: np.ndarray, source: np.ndarray, threshold: np.ndarray,
          direction: str) -> np.ndarray:
    """Parent arrays (K, n) of the maximum spanning forests of K layers of
    symmetric weights, all grown at once; a root's parent is -1.  Layer k is
    matrix w[source[k]] of a (M, n, n) stack, read with the entries that do
    not survive threshold[k] (`threshold` is a (K, 1) column) as missing,
    so no thresholded layer is stored.

    -inf marks a missing edge; the diagonal is never read.  Edges rank in
    (-w, i, j) order: each step adds, per layer, the free node whose best
    edge into the tree has the highest weight, then the smallest code
    min(i,j)*n + max(i,j).  The order is strict, so each forest is the one
    Kruskal's algorithm builds.  When no edge crosses, the next tree starts
    at the smallest free node.
    """
    k, n = source.size, w.shape[1]
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
        wv, cv = w[source, v], codes[v]
        wv = np.where(_survivors(wv, threshold, direction), wv, -np.inf)
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
    batched Prim pass: the MST with `mst`, then one forest per threshold of
    the matrix's (coupling, eigen) grid.  `spectra` holds each matrix's eigh
    when its eigen grid is not empty.  The stack holds each matrix and its
    eigen rebuilds; the MST and the coupling forests read the matrix through
    their threshold, the MST's one that keeps every entry."""
    keep_all = np.inf if direction == "discard_above" else -np.inf
    n = len(labels)
    stack = np.empty((sum(1 + len(eigen) for _, eigen in grids), n, n))
    source, threshold, starts = [], [], [0]  # per layer; each matrix's first layer
    slot = 0
    for j, spectrum, (coupling, eigen) in zip(js, spectra, grids):
        stack[slot] = j
        for t, th in enumerate(eigen, slot + 1):
            stack[t] = _rebuild(*spectrum, th, direction)
        source += [slot] * (int(mst) + len(coupling)) + list(range(slot + 1, slot + 1 + len(eigen)))
        threshold += [keep_all] * int(mst) + list(coupling) + [keep_all] * len(eigen)
        starts.append(len(source))
        slot += 1 + len(eigen)
    parent = _prim(stack, np.array(source, dtype=np.intp),
                   np.array(threshold, dtype=np.float64)[:, None], direction)
    sizes, q, n_comp = _scores(parent, labels)
    out = []
    for j, (coupling, eigen), at in zip(js, grids, starts):
        if (n_comp[at + mst:at + mst + len(coupling)] == n).any():
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
    w = _check_square_symmetric(w)
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
    js = [_check_square_symmetric(j) for j in js]
    _check_direction(direction)
    spectra = [np.linalg.eigh(j) if cutoff_points else None for j in js]
    grids = [(_interior_grid(_upper_triangle(j), cutoff_points),
              _interior_grid(spectrum[0], cutoff_points)) if cutoff_points else ([], [])
             for j, spectrum in zip(js, spectra)]
    return _trees(js, spectra, labels, mst, grids, direction)


def edges_to_dot(edges, tickers, labels) -> str:
    """Edge list as an undirected DOT graph with sector node attributes."""
    lines = ["graph mst {"]
    for t, lab in zip(tickers, labels):
        lines.append(f'  "{t}" [sector="{lab}"];')
    for i, j, wt in edges:
        lines.append(f'  "{tickers[i]}" -- "{tickers[j]}" [weight="{wt:.6g}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
