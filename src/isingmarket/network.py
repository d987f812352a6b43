"""
Spanning-tree structure of coupling/covariance matrices and industry-sector
clustering quality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


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
        """Sector label per ticker; unknown tickers are an error."""
        missing = [t for t in tickers if t not in self.mapping]
        if missing:
            raise KeyError(f"tickers without sector assignment: {missing}")
        return [self.mapping[t] for t in tickers]


@dataclass
class MstResult:
    """Maximum-weight spanning tree (or forest, under cutoffs) of a panel."""

    edges: list[tuple[int, int, float]]
    cluster_sizes: dict[str, list[int]]
    q_mst: float
    disconnected: bool = False


def _check_square_symmetric(w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("weight matrix must be square")
    if not np.allclose(w, w.T, atol=1e-10, equal_nan=True):
        raise ValueError("weight matrix must be symmetric")
    return w


class _UnionFind:
    """Disjoint sets over nodes 0..n-1 with path halving."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of a and b; False when they were already one."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def _sorted_edges(w: np.ndarray):
    """Upper-triangle edges as (rows, cols, weights) in (-w, i, j) order.

    The order is a strict total order on edges, so the maximum spanning
    forest over any subset of them is unique.
    """
    rows, cols = np.triu_indices(w.shape[0], k=1)
    wts = w[rows, cols]
    # triu_indices lists pairs in (i, j) order, which a stable sort keeps
    order = np.argsort(-wts, kind="stable")
    return rows[order], cols[order], wts[order]


def _kruskal(n: int, rows, cols, wts):
    """Maximum spanning forest of edges given in (-w, i, j) order.

    Returns (edges, n_components) with the kept edges in that order.
    """
    if rows.size == 0:
        raise ValueError("no edges survive the cutoff")
    uf = _UnionFind(n)
    edges: list[tuple[int, int, float]] = []
    for i, j, wt in zip(rows.tolist(), cols.tolist(), wts.tolist()):
        if uf.union(i, j):
            edges.append((i, j, wt))
            if len(edges) == n - 1:
                break
    return edges, n - len(edges)


def build_mst(w: np.ndarray) -> list[tuple[int, int, float]]:
    """Spanning tree of maximal total weight over a complete weight matrix.

    Kruskal's algorithm over the upper triangle.  Returns N-1 edges as
    (i, j, weight) with i < j, sorted by descending weight, then by (i, j);
    equal weights therefore break toward the smallest index pair.
    """
    w = _check_square_symmetric(w)
    n = w.shape[0]
    if n < 2:
        raise ValueError("need at least two nodes")
    edges, _ = _kruskal(n, *_sorted_edges(w))
    return edges


def max_spanning_forest(w: np.ndarray, allowed: np.ndarray):
    """Maximum-weight spanning forest restricted to allowed edges.

    `allowed` is read on its upper triangle.  Returns (edges, n_components)
    with edges in build_mst's (-w, i, j) order.  With every off-diagonal
    edge allowed this is build_mst.
    """
    w = _check_square_symmetric(w)
    rows, cols, wts = _sorted_edges(w)
    keep = np.asarray(allowed, dtype=bool)[rows, cols]
    return _kruskal(w.shape[0], rows[keep], cols[keep], wts[keep])


def sector_clusters(edges, labels) -> dict[str, list[int]]:
    """Sizes of same-sector connected clusters of a tree (or forest).

    A cluster is a connected subset of the tree in which every node carries
    the same sector label.  Every node contributes to exactly one cluster
    (possibly a singleton).  Returns sector -> sizes sorted descending.
    """
    n = len(labels)
    uf = _UnionFind(n)
    for i, j, _ in edges:
        if labels[i] == labels[j]:
            uf.union(i, j)
    sizes: dict[int, int] = {}
    for i in range(n):
        r = uf.find(i)
        sizes[r] = sizes.get(r, 0) + 1
    clusters: dict[str, list[int]] = {}
    for r, size in sizes.items():
        clusters.setdefault(labels[r], []).append(size)
    return {sector: sorted(cs, reverse=True) for sector, cs in sorted(clusters.items())}


def q_mst(cluster_sizes: dict[str, list[int]], n_nodes: int) -> float:
    """Fraction of nodes covered by each sector's largest same-sector cluster.

    Ranges from M/N (every sector fully dispersed) to 1 (one cluster per
    sector), with M the number of sectors present.
    """
    if n_nodes < 1:
        raise ValueError("empty tree")
    return sum(max(sizes) for sizes in cluster_sizes.values()) / n_nodes


def mst_result(w: np.ndarray, labels) -> MstResult:
    """Build the maximum spanning tree of `w` and score its sector clustering."""
    edges = build_mst(w)
    clusters = sector_clusters(edges, labels)
    return MstResult(edges, clusters, q_mst(clusters, len(labels)), disconnected=False)


@dataclass
class ScanPoint:
    threshold: float
    q_mst: float
    disconnected: bool


def _check_scan(thresholds, direction: str) -> list:
    thresholds = list(thresholds)
    if any(a > b for a, b in zip(thresholds, thresholds[1:])):
        raise ValueError("thresholds must be sorted ascending")
    if direction not in ("discard_above", "discard_below"):
        raise ValueError(f"unknown direction {direction!r}")
    return thresholds


def _survivors(values: np.ndarray, threshold: float, direction: str) -> np.ndarray:
    return values <= threshold if direction == "discard_above" else values >= threshold


def coupling_cutoff_scan(j: np.ndarray, labels, thresholds, direction: str) -> list[ScanPoint]:
    """Q_mst after excluding couplings beyond each threshold.

    direction='discard_above' drops entries J_ij > threshold,
    'discard_below' drops J_ij < threshold.  If the surviving graph
    disconnects, a maximum spanning forest is scored instead and the point
    is flagged.  The edges are sorted once for all thresholds.
    """
    j = _check_square_symmetric(j)
    thresholds = _check_scan(thresholds, direction)
    n = j.shape[0]
    rows, cols, wts = _sorted_edges(j)
    out = []
    for th in thresholds:
        keep = _survivors(wts, th, direction)
        edges, n_comp = _kruskal(n, rows[keep], cols[keep], wts[keep])
        clusters = sector_clusters(edges, labels)
        out.append(ScanPoint(float(th), q_mst(clusters, len(labels)), n_comp > 1))
    return out


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
    _check_scan([threshold], direction)
    return _rebuild(*np.linalg.eigh(j), threshold, direction)


def eigen_cutoff_scan(j: np.ndarray, labels, thresholds, direction: str) -> list[ScanPoint]:
    """Q_mst of the coupling matrix rebuilt from a subset of its eigenmodes.

    For each threshold, eigenvalues beyond the cutoff are dropped and the
    matrix is reconstructed from the surviving modes with its diagonal
    zeroed before tree construction.  The matrix is diagonalized once.
    """
    j = _check_square_symmetric(j)
    thresholds = _check_scan(thresholds, direction)
    n = j.shape[0]
    if n < 2:
        raise ValueError("need at least two nodes")
    lam, vec = np.linalg.eigh(j)
    out = []
    for th in thresholds:
        # _rebuild returns an exactly symmetric matrix: no re-check needed
        edges, _ = _kruskal(n, *_sorted_edges(_rebuild(lam, vec, th, direction)))
        clusters = sector_clusters(edges, labels)
        out.append(ScanPoint(float(th), q_mst(clusters, len(labels)), False))
    return out


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
