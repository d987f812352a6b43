import tracemalloc

import numpy as np
import pytest

from conftest import (brute_force_max_tree_weight, cutoff_scan, reference_edges_csv,
                      spectral_truncation, weights_from_edges)
from isingmarket.network import (SectorMap, _forest_edges, _prim, edges_to_dot, mst_result,
                                 window_forests)
from isingmarket.pipeline import _write_edges_csv
from isingmarket.stats import ConfigError


def chain_edges(n):
    return [(i, i + 1, 1.0) for i in range(n - 1)]


def tree_edges(w):
    """The maximum spanning tree's edges; the labels do not shape the tree."""
    return mst_result(w, ["A"] * len(w)).edges


def masked_forest(w, allowed):
    """The Prim core's forest over the edges `allowed` marks on its upper
    triangle (the rest set to -inf): (edges, n_components)."""
    keep = np.triu(np.asarray(allowed, dtype=bool), k=1)
    parent = _prim(np.where(keep | keep.T, w, -np.inf)[None], np.zeros(1, dtype=np.intp),
                   np.full((1, 1), np.inf), "discard_above")[0]
    return _forest_edges(w, parent), int(np.count_nonzero(parent < 0))


class TestBuildMst:
    def test_three_node_obvious_tree(self):
        w = weights_from_edges(3, [(0, 1, 0.9), (0, 2, 0.5), (1, 2, 0.1)])
        edges = tree_edges(w)
        assert {(i, j) for i, j, _ in edges} == {(0, 1), (0, 2)}

    def test_equal_weights_tie_break(self):
        edges = tree_edges(np.ones((4, 4)) - np.eye(4))
        assert [(i, j) for i, j, _ in edges] == [(0, 1), (0, 2), (0, 3)]

    def test_matches_bruteforce_on_random_instances(self):
        rng = np.random.default_rng(0)
        for trial in range(60):
            n = int(rng.integers(3, 7))
            w = rng.normal(size=(n, n))
            w = (w + w.T) / 2
            np.fill_diagonal(w, 0.0)
            edges = tree_edges(w)
            got = sum(wt for _, _, wt in edges)
            assert got == pytest.approx(brute_force_max_tree_weight(w), abs=1e-10)

    def test_tree_is_spanning_and_acyclic(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(10, 10))
        w = (w + w.T) / 2
        edges = tree_edges(w)
        assert len(edges) == 9
        parent = list(range(10))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for i, j, _ in edges:
            ri, rj = find(i), find(j)
            assert ri != rj  # acyclic
            parent[ri] = rj
        assert len({find(i) for i in range(10)}) == 1  # connected

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            mst_result(np.array([[0.0, 1.0], [2.0, 0.0]]), ["A", "B"])

    def test_edges_in_kruskal_order(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            # one decimal of rounding makes equal weights common
            w = np.round(rng.normal(size=(9, 9)), 1)
            w = (w + w.T) / 2
            edges = tree_edges(w)
            assert edges == sorted(edges, key=lambda e: (-e[2], e[0], e[1]))


class TestSectorClusters:
    def test_chain_aabb(self):
        tree = mst_result(weights_from_edges(4, chain_edges(4)), ["A", "A", "B", "B"])
        assert tree.edges == chain_edges(4)
        assert tree.cluster_sizes == {"A": [2], "B": [2]}
        assert tree.q_mst == 1.0

    def test_chain_abab(self):
        tree = mst_result(weights_from_edges(4, chain_edges(4)), ["A", "B", "A", "B"])
        assert tree.edges == chain_edges(4)
        assert tree.cluster_sizes == {"A": [1, 1], "B": [1, 1]}
        assert tree.q_mst == 0.5

    def test_star_hand_trace(self):
        edges = [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)]
        tree = mst_result(weights_from_edges(4, edges), ["A", "A", "B", "B"])
        assert tree.edges == edges
        assert tree.cluster_sizes == {"A": [2], "B": [1, 1]}

    def test_bounds_on_random_assignments(self):
        rng = np.random.default_rng(2)
        n = 12
        w = rng.normal(size=(n, n))
        w = (w + w.T) / 2
        edges = tree_edges(w)
        for _ in range(200):
            labels = [f"S{k}" for k in rng.integers(0, 4, size=n)]
            tree = mst_result(w, labels)
            assert tree.edges == edges
            q = tree.q_mst
            m = len(set(labels))
            assert m / n - 1e-12 <= q <= 1.0 + 1e-12

    def test_invariant_under_relabeling_and_permutation(self):
        rng = np.random.default_rng(3)
        n = 8
        w = rng.normal(size=(n, n))
        w = (w + w.T) / 2
        np.fill_diagonal(w, 0.0)
        labels = ["A", "A", "B", "B", "C", "C", "A", "B"]
        q0 = mst_result(w, labels).q_mst
        # sector relabeling
        renamed = [{"A": "X", "B": "Y", "C": "Z"}[s] for s in labels]
        assert mst_result(w, renamed).q_mst == q0
        # consistent node permutation
        perm = rng.permutation(n)
        q2 = mst_result(w[np.ix_(perm, perm)], [labels[i] for i in perm]).q_mst
        assert q2 == q0


class TestCouplingCutoff:
    def labels6(self):
        return ["A", "A", "A", "B", "B", "B"]

    def bridge_weights(self):
        # node 2's intra-sector links are weak, its bond into sector B is the
        # strongest edge of the graph, and (0, 4) gives the sectors a direct
        # link so the tree never needs (0, 2) while the bridge stands
        return weights_from_edges(
            6,
            [(0, 1, 0.9), (0, 2, 0.05), (1, 2, 0.04),
             (3, 4, 0.9), (3, 5, 0.8), (4, 5, 0.1),
             (2, 3, 0.95), (0, 4, 0.2)],
            default=-0.5,
        )

    def test_threshold_beyond_max_is_identity(self):
        w = self.bridge_weights()
        base = mst_result(w, self.labels6()).q_mst
        pts = cutoff_scan(w, self.labels6(), [1.5], "discard_above")
        assert pts[0].q_mst == base
        assert not pts[0].disconnected

    def test_discarding_strongest_bridge_changes_q(self):
        # with the bridge, node 2 hangs off sector B: Q = (2+3)/6
        # without it, node 2 rejoins sector A:       Q = (3+3)/6
        w = self.bridge_weights()
        base = mst_result(w, self.labels6())
        assert base.q_mst == pytest.approx(5 / 6)
        assert (2, 3) in {(i, j) for i, j, _ in base.edges}
        pts = cutoff_scan(w, self.labels6(), [0.92], "discard_above")
        assert pts[0].q_mst == pytest.approx(1.0)

    def test_disconnection_flagged_and_scored(self):
        w = weights_from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)], default=-1.0)
        # discard everything below 0: only the two strong bonds survive
        pts = cutoff_scan(w, ["A", "A", "B", "B"], [0.0], "discard_below")
        assert pts[0].disconnected
        assert pts[0].q_mst == 1.0

    def test_all_discarded_is_an_error(self):
        w = self.bridge_weights()
        with pytest.raises(ValueError, match="survive"):
            cutoff_scan(w, self.labels6(), [2.0], "discard_below")


class TestEigenCutoff:
    def test_keep_all_preserves_q(self):
        rng = np.random.default_rng(4)
        j = rng.normal(size=(6, 6)) * 0.1
        j = (j + j.T) / 2
        np.fill_diagonal(j, 0.0)
        labels = ["A", "A", "A", "B", "B", "B"]
        lam = np.linalg.eigvalsh(j)
        base = mst_result(j, labels).q_mst
        pts = cutoff_scan(j, labels, [lam.max() + 1.0], "discard_above", eigen=True)
        assert pts[0].q_mst == base

    def test_scan_matches_trees_of_rebuilt_matrices(self):
        rng = np.random.default_rng(6)
        j = rng.normal(size=(9, 9)) * 0.1
        j = (j + j.T) / 2
        np.fill_diagonal(j, 0.0)
        labels = ["A", "A", "A", "B", "B", "B", "C", "C", "C"]
        thresholds = np.sort(np.linalg.eigvalsh(j))[2:] + 1e-9
        for direction in ("discard_above", "discard_below"):
            ths = thresholds if direction == "discard_above" else thresholds - 2e-9
            pts = cutoff_scan(j, labels, ths, direction, eigen=True)
            want = [mst_result(spectral_truncation(j, th, direction), labels).q_mst
                    for th in ths]
            assert [p.q_mst for p in pts] == want
            assert not any(p.disconnected for p in pts)

    def test_single_node_rejected(self):
        with pytest.raises(ValueError, match="at least two nodes"):
            window_forests([np.zeros((1, 1))], ["A"], mst=False, cutoff_points=1)

    def test_keep_all_reconstruction_exact(self):
        rng = np.random.default_rng(5)
        j = rng.normal(size=(5, 5))
        j = (j + j.T) / 2
        np.fill_diagonal(j, 0.0)
        rebuilt = spectral_truncation(j, np.linalg.eigvalsh(j).max() + 1,
                                      "discard_above")
        np.testing.assert_allclose(rebuilt, j, atol=1e-10)

    def test_rank_one_identity(self):
        v = np.array([0.5, -1.0, 2.0, 1.5])
        j = np.outer(v, v)
        lam = np.linalg.eigvalsh(j)
        rebuilt = spectral_truncation(j, lam.max() - 1e-9, "discard_below")
        expected = j.copy()
        np.fill_diagonal(expected, 0.0)
        np.testing.assert_allclose(rebuilt, expected, atol=1e-10)

    def test_no_modes_left_is_an_error(self):
        j = weights_from_edges(3, [(0, 1, 0.5)])
        with pytest.raises(ValueError, match="survive"):
            spectral_truncation(j, 100.0, "discard_below")

    def test_removing_top_modes_destroys_block_structure(self):
        # three noisy blocks live in the top eigenmodes; truncating them
        # should push Q from near-perfect clustering down into the band of
        # random sector assignments
        rng = np.random.default_rng(3)
        labels = ["A"] * 8 + ["B"] * 8 + ["C"] * 8
        same = np.equal.outer(labels, labels)
        j = np.where(same, 0.12, 0.0) + rng.normal(0, 0.04, size=(24, 24))
        j = (j + j.T) / 2
        np.fill_diagonal(j, 0.0)
        base = mst_result(j, labels).q_mst
        lam = np.sort(np.linalg.eigvalsh(j))[::-1]
        th = (lam[2] + lam[3]) / 2  # drop the top three modes
        truncated = spectral_truncation(j, th, "discard_above")
        q_trunc = mst_result(truncated, labels).q_mst
        randomized = [mst_result(truncated, [labels[i] for i in rng.permutation(24)]).q_mst
                      for _ in range(200)]
        band_top = np.mean(randomized) + 2 * np.std(randomized)
        assert base > band_top
        assert q_trunc < band_top


class TestForestAndOutputs:
    def test_forest_edge_count(self):
        w = weights_from_edges(5, [(0, 1, 1.0), (1, 2, 0.5), (3, 4, 1.0)],
                               default=-2.0)
        allowed = w > 0
        edges, n_comp = masked_forest(w, allowed)
        assert n_comp == 2
        assert len(edges) == 3  # N - components

    def test_forest_matches_bruteforce_on_split_masks(self):
        rng = np.random.default_rng(7)
        # normal weights, then integer weights in {0, 1, 2}: ties everywhere
        for trial in range(80):
            n = int(rng.integers(3, 8))
            w = rng.normal(size=(n, n)) if trial < 40 else rng.integers(0, 3, (n, n))
            w = (w + w.T) / 2
            np.fill_diagonal(w, 0.0)
            # edges only inside random groups, some of them dropped
            group = rng.integers(0, 3, size=n)
            allowed = np.equal.outer(group, group) & (rng.random((n, n)) < 0.7)
            allowed = (allowed | allowed.T) & ~np.eye(n, dtype=bool)
            if not allowed.any():
                continue
            edges, n_comp = masked_forest(w, allowed)
            # components from the transitive closure of the adjacency
            reach = allowed | np.eye(n, dtype=bool)
            for _ in range(n):
                reach = (reach.astype(int) @ reach.astype(int)) > 0
            comps = {tuple(np.flatnonzero(row)) for row in reach}
            assert n_comp == len(comps)
            assert len(edges) == n - n_comp
            assert all(allowed[i, j] for i, j, _ in edges)
            masked = np.where(allowed, w, -np.inf)
            expected = sum(brute_force_max_tree_weight(masked[np.ix_(c, c)])
                           for c in comps if len(c) > 1)
            got = sum(wt for _, _, wt in edges)
            assert got == pytest.approx(expected, abs=1e-10)

    def test_csv_and_dot_outputs(self, tmp_path):
        w = weights_from_edges(3, [(0, 1, 0.9), (0, 2, 0.5), (1, 2, 0.1)])
        tickers = ["AAA", "BBB", "CCC"]
        labels = ["Tech", "Tech", "Energy"]
        edges = mst_result(w, labels).edges
        _write_edges_csv(tmp_path / "mst.csv", edges, tickers, labels)
        csv_text = (tmp_path / "mst.csv").read_text()
        assert csv_text.splitlines()[0] == "i_ticker,j_ticker,weight,i_sector,j_sector"
        assert "AAA,BBB,0.9,Tech,Tech" in csv_text
        dot = edges_to_dot(edges, tickers, labels)
        assert '"AAA" -- "BBB"' in dot
        assert 'sector="Energy"' in dot

    def test_edges_csv_bytes_match_the_reference(self, tmp_path):
        weights = [-0.0, 5e-324, 1e-05, 1e+16, 0.1 + 0.2, np.float64(-2.5e-8)]
        edges = [(k, k + 1, w) for k, w in enumerate(weights)]
        tickers = [f"T{k}" for k in range(len(weights) + 1)]
        labels = ["A", "B"] * 3 + ["C"]
        _write_edges_csv(tmp_path / "deep" / "mst.csv", edges, tickers, labels)
        # the reference's f-string repr would spell a numpy float `np.float64(...)`
        # under numpy 2; the writer reprs it as the builtin float, as for tree edges
        builtin = [(i, j, float(w)) for i, j, w in edges]
        text = (tmp_path / "deep" / "mst.csv").read_bytes()
        assert text == reference_edges_csv(builtin, tickers, labels).encode()
        assert b"T0,T1,-0.0,A,B\n" in text and b"T5,T6,-2.5e-08,B,C\n" in text

    def test_sector_map_validation(self):
        smap = SectorMap({"AAA": "Tech", "BBB": "Energy"})
        assert smap.sectors == ("Energy", "Tech")
        with pytest.raises(ConfigError, match=r"\['XYZ'\]"):
            smap.labels_for(["AAA", "XYZ"])
        with pytest.raises(ValueError):
            SectorMap({})


# ---------------------------------------------------------------------------
# Oracle: the batched Prim forests against a plain Kruskal over one
# union-find, edge by edge in (-w, i, j) order.
# ---------------------------------------------------------------------------

class RefUnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def ref_forest(w, allowed=None):
    """Kruskal over the upper triangle in (-w, i, j) order: (edges, n_comp)."""
    n = w.shape[0]
    rows, cols = np.triu_indices(n, k=1)
    wts = w[rows, cols]
    order = np.argsort(-wts, kind="stable")
    uf = RefUnionFind(n)
    edges = []
    for i, j, wt in zip(rows[order].tolist(), cols[order].tolist(), wts[order].tolist()):
        if (allowed is None or allowed[i, j]) and uf.union(i, j):
            edges.append((i, j, wt))
    return edges, n - len(edges)


def ref_clusters(edges, labels):
    uf = RefUnionFind(len(labels))
    for i, j, _ in edges:
        if labels[i] == labels[j]:
            uf.union(i, j)
    sizes = {}
    for i in range(len(labels)):
        sizes[uf.find(i)] = sizes.get(uf.find(i), 0) + 1
    clusters = {}
    for root, size in sizes.items():
        clusters.setdefault(labels[root], []).append(size)
    return {s: sorted(c, reverse=True) for s, c in sorted(clusters.items())}


def ref_q(edges, labels):
    return sum(max(c) for c in ref_clusters(edges, labels).values()) / len(labels)


def random_weights(rng, n, ties):
    """Symmetric weights; with `ties`, integers in [-3, 3] so most edges tie."""
    w = rng.integers(-3, 4, size=(n, n)).astype(float) if ties else rng.normal(size=(n, n))
    w = np.triu(w, k=1)
    return w + w.T


class TestForestOracle:
    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 7, 24, 60])
    def test_mst_matches_kruskal(self, n, ties):
        rng = np.random.default_rng(10 * n + ties)
        for _ in range(10):
            w = random_weights(rng, n, ties)
            labels = [f"S{k}" for k in rng.integers(0, 3, size=n)]
            want, n_comp = ref_forest(w)
            assert n_comp == 1
            tree = mst_result(w, labels)
            assert tree.edges == want  # same edges, same (-w, i, j) order
            assert tree.cluster_sizes == ref_clusters(want, labels)
            assert tree.q_mst == ref_q(want, labels)
            assert len(tree.edges) == len(labels) - 1

    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 7, 24, 60])
    def test_forests_on_disconnecting_masks_match_kruskal(self, n, ties):
        rng = np.random.default_rng(100 + 10 * n + ties)
        for _ in range(10):
            w = random_weights(rng, n, ties)
            group = rng.integers(0, 4, size=n)
            allowed = np.equal.outer(group, group) & (rng.random((n, n)) < 0.5)
            allowed = np.triu(allowed, k=1)
            if not allowed.any():
                continue
            want, n_comp = ref_forest(w, allowed)
            assert masked_forest(w, allowed) == (want, n_comp)

    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 7, 24, 60])
    def test_window_stack_matches_kruskal(self, n, ties):
        # K = 1, 2 or 3 matrices, each with its MST, 6 coupling forests and
        # 6 eigen trees, all in one stack
        rng = np.random.default_rng(200 + 10 * n + ties)
        labels = [f"S{k}" for k in rng.integers(0, 3, size=n)]
        for k in (1, 2, 3):
            js = [random_weights(rng, n, ties) for _ in range(k)]
            got = window_forests(js, labels, mst=True, cutoff_points=6,
                                 direction="discard_below")
            assert len(got) == k
            for j, (tree, coupling, eigen) in zip(js, got):
                want, _ = ref_forest(j)
                assert tree.edges == want
                assert tree.cluster_sizes == ref_clusters(want, labels)
                assert tree.q_mst == ref_q(want, labels)
                for p in coupling:
                    edges, n_comp = ref_forest(j, j >= p.threshold)
                    assert (p.q_mst, p.disconnected) == (ref_q(edges, labels), n_comp > 1)
                assert [p.threshold for p in eigen] == list(
                    np.linspace(*np.linalg.eigh(j)[0][[0, -1]], 8)[1:-1])
                for p in eigen:
                    rebuilt = spectral_truncation(j, p.threshold, "discard_below")
                    edges, n_comp = ref_forest(rebuilt)
                    assert (p.q_mst, p.disconnected) == (ref_q(edges, labels), False)
                    assert n_comp == 1

    def test_window_memory_holds_no_thresholded_layer(self):
        # 3 matrices, 15 points: the 3 x (1 + 15) matrices and eigen rebuilds
        # take 1.38 MB; a thresholded copy per coupling point would add 1.30 MB
        rng = np.random.default_rng(7)
        n = 60
        labels = [f"S{k}" for k in rng.integers(0, 3, size=n)]
        js = [random_weights(rng, n, ties=False) for _ in range(3)]
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            window_forests(js, labels, mst=True, cutoff_points=15)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base < 2.3e6

    @pytest.mark.parametrize("ties", [False, True])
    def test_coupling_scan_matches_kruskal(self, ties):
        rng = np.random.default_rng(300 + ties)
        n = 24
        labels = [f"S{k}" for k in rng.integers(0, 3, size=n)]
        j = random_weights(rng, n, ties)
        upper = j[np.triu_indices(n, k=1)]
        thresholds = np.linspace(upper.min(), upper.max(), 13)[1:-1]
        for direction in ("discard_above", "discard_below"):
            pts = cutoff_scan(j, labels, thresholds, direction)
            for th, p in zip(thresholds, pts):
                keep = j <= th if direction == "discard_above" else j >= th
                edges, n_comp = ref_forest(j, keep)
                assert p.threshold == th
                assert (p.q_mst, p.disconnected) == (ref_q(edges, labels), n_comp > 1)

    def test_error_paths(self):
        j = random_weights(np.random.default_rng(0), 5, ties=False)
        labels = ["A"] * 5
        with pytest.raises(ValueError, match="no edges survive the cutoff"):
            cutoff_scan(j, labels, [-10.0, 100.0], "discard_below")
        # with every edge masked the core leaves 5 singletons, which the
        # scans report as the error above
        assert masked_forest(j, np.zeros((5, 5), dtype=bool)) == ([], 5)
        with pytest.raises(ValueError, match="no edges survive the cutoff"):
            cutoff_scan(j, labels, [-10.0], "discard_above")
        with pytest.raises(ValueError, match="no eigenvalues survive threshold"):
            cutoff_scan(j, labels, [100.0], "discard_below", eigen=True)
        with pytest.raises(ValueError, match="at least two nodes"):
            mst_result(np.zeros((1, 1)), ["A"])
        with pytest.raises(ValueError, match="at least two nodes"):
            window_forests([np.zeros((1, 1))], ["A"], mst=True, cutoff_points=0)
        with pytest.raises(ValueError, match="symmetric"):
            window_forests([np.triu(j)], labels, mst=True, cutoff_points=0)
        with pytest.raises(ValueError, match="unknown direction"):
            window_forests([j], labels, mst=False, cutoff_points=3, direction="up")


ENTRY_POINTS = {
    "mst_result": lambda j: mst_result(j, ["A", "A", "B"]),
    # the two scans at explicit thresholds, as the tests reach them
    "coupling_cutoff_scan": lambda j: cutoff_scan(j, ["A", "A", "B"], [0.0],
                                                  "discard_below"),
    "eigen_cutoff_scan": lambda j: cutoff_scan(j, ["A", "A", "B"], [0.0],
                                               "discard_below", eigen=True),
    "spectral_truncation": lambda j: spectral_truncation(j, 0.0, "discard_below"),
    "window_forests": lambda j: window_forests([j], ["A", "A", "B"], mst=True,
                                               cutoff_points=3),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_weights_rejected(entry, bad):
    j = weights_from_edges(3, [(0, 1, 0.5), (0, 2, bad), (1, 2, 0.2)])
    with pytest.raises(ValueError, match="weight matrix must be finite"):
        ENTRY_POINTS[entry](j)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("shape", [(3,), (2, 3)])
def test_non_square_weights_rejected(entry, shape):
    with pytest.raises(ValueError) as err:
        ENTRY_POINTS[entry](np.zeros(shape))
    assert err.type is ValueError and str(err.value) == "weight matrix must be square"
