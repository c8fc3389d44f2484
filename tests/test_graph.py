import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph

from hopmap import graph
from hopmap.graph import (
    UNREACHABLE,
    Graph,
    HopDistanceMatrix,
    adjacency_from_hdm,
    all_pairs_hops,
    anchor_hops,
    graph_laplacian,
    is_connected,
)

from hopmap.netgen import gen_holme_kim, subgraph_bfs
from hopmap.sampling import AnchorSelection, select_anchors

from oracles import (
    complete_graph,
    cycle_graph,
    floyd_warshall_hops,
    naive_bfs_order,
    neighbours,
    grid_graph,
    masked_hops_from,
    masked_level_sweeps,
    path_graph,
    petersen_graph,
    random_connected_graph,
    random_graph_with_components,
    sweep_test_graphs,
    triangle_violations,
)


class TestFromEdgeList:
    def test_reversed_duplicates_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (1, 2)])
        assert g.edge_count == 2
        assert g.edges.tolist() == [[0, 1], [1, 2]]

    def test_empty(self):
        g = Graph(2, [])
        assert g.n == 2 and g.edge_count == 0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(4, [(0, 5)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(1, 1)])

    def test_constructor_checks_raw_pairs(self):
        with pytest.raises(ValueError, match="self-loop at node 1"):
            Graph(2, [(1, 1)])
        with pytest.raises(ValueError, match=r"edge \(0, 5\) out of range for n=3"):
            Graph(3, np.array([[0, 5]]))
        g = adjacency_from_hdm(all_pairs_hops(petersen_graph()))
        assert (g.edges[:, 0] < g.edges[:, 1]).all() and not g.edges.flags.writeable
        assert np.array_equal(Graph(g.n, g.edges[::-1, ::-1]).edges, g.edges)

    def test_canonical_rows_match_row_unique(self):
        # the rows np.unique(np.sort(pairs, axis=1), axis=0) gives, in order
        rng = np.random.default_rng(60)
        for n, size in ((2, 5), (6, 40), (50, 300), (2000, 1000)):
            pairs = rng.integers(0, n, size=(size, 2))
            pairs = pairs[pairs[:, 0] != pairs[:, 1]]
            pairs = np.concatenate([pairs, pairs[: size // 3, ::-1], pairs[: size // 4]])
            edges = Graph(n, rng.permutation(pairs)).edges
            assert edges.dtype == np.int64
            assert np.array_equal(edges, np.unique(np.sort(pairs, axis=1), axis=0))

    def test_degrees_and_adjacency(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert g.degrees.tolist() == [3, 1, 1, 1]
        assert neighbours(g)[0] == (1, 2, 3)
        assert neighbours(g)[2] == (0,)


def _components(g: Graph) -> list[list[int]]:
    """Connected node sets from csgraph's component labels, each sorted,
    ordered by smallest member."""
    _, labels = csgraph.connected_components(g.csr, directed=False)
    _, first = np.unique(labels, return_index=True)
    return [np.flatnonzero(labels == labels[i]).tolist() for i in np.sort(first)]


class TestBfs:
    # rows of Graph.hops, and _hops_from's level sweep from one source
    def test_path_graph(self):
        assert path_graph(3).hops[0].tolist() == [0, 1, 2]

    def test_complete_graph(self):
        assert graph._hops_from(complete_graph(4), [2])[0].tolist() == [1, 1, 0, 1]

    def test_petersen_diameter_two(self):
        g = petersen_graph()
        fw = floyd_warshall_hops(g)
        for s in range(10):
            got = g.hops[s]
            assert got.tolist() == fw[s].tolist()
            assert got.max() == 2

    def test_unreachable_sentinel(self):
        g = Graph(3, [(0, 1)])
        assert graph._hops_from(g, [0])[0].tolist() == [0, 1, UNREACHABLE]

    def test_source_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            anchor_hops(path_graph(3), [3])


class TestAllPairs:
    def test_cycle_is_circulant(self):
        h = all_pairs_hops(cycle_graph(4)).hops
        assert h[0].tolist() == [0, 1, 2, 1]
        for i in range(4):
            assert h[i].tolist() == np.roll([0, 1, 2, 1], i).tolist()

    def test_disconnected_sentinels(self):
        g = Graph(4, [(0, 1), (2, 3)])
        h = all_pairs_hops(g).hops
        assert h[0, 2] == UNREACHABLE and h[1, 3] == UNREACHABLE
        assert h[0, 1] == 1 and h[2, 3] == 1

    def test_complete_graph_all_ones(self):
        h = all_pairs_hops(complete_graph(6)).hops
        off = ~np.eye(6, dtype=bool)
        assert (h[off] == 1).all()

    def test_equals_stacked_bfs_rows(self):
        rng = np.random.default_rng(7)
        g = random_connected_graph(rng, 40)
        h = all_pairs_hops(g).hops
        fresh = Graph(n=g.n, edges=g.edges)  # searched per source, not cached
        for s in range(g.n):
            assert (h[s] == graph._hops_from(fresh, [s])[0]).all()

    def test_matches_floyd_warshall_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(2, 60))
            g = random_connected_graph(rng, n)
            assert (all_pairs_hops(g).hops == floyd_warshall_hops(g)).all()

    def test_invariants_on_random_graphs(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            g = random_connected_graph(rng, int(rng.integers(5, 80)))
            h = all_pairs_hops(g).hops
            assert (h == h.T).all()
            assert (np.diag(h) == 0).all()
            assert triangle_violations(h) == 0
            a = g.adjacency_matrix()
            assert ((h == 1) == (a == 1)).all()


class TestAnchorHops:
    def test_single_anchor_column(self):
        p = anchor_hops(path_graph(3), [0])
        assert p.hops[:, 0].tolist() == [0, 1, 2]
        assert p.anchor_ids == (0,)

    def test_all_anchors_equals_hdm(self):
        g = grid_graph(3, 4)
        p = anchor_hops(g, list(range(g.n)))
        assert (p.hops == all_pairs_hops(g).hops).all()

    def test_matches_hdm_columns(self):
        g = petersen_graph()
        anchors = [3, 7, 0]
        p = anchor_hops(g, anchors)
        h = all_pairs_hops(g).hops
        assert (p.hops == h[:, anchors]).all()
        # zero exactly where the row is the anchor itself
        for j, a in enumerate(anchors):
            assert (p.hops[:, j] == 0).nonzero()[0].tolist() == [a]

    def test_duplicate_anchor_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            anchor_hops(path_graph(4), [1, 1])

    def test_out_of_range_anchor_rejected(self):
        with pytest.raises(ValueError):
            anchor_hops(path_graph(4), [9])

    def test_unreachable_rejected(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(ValueError, match="reach"):
            anchor_hops(g, [0])


class TestAdjacencyFromHdm:
    def test_round_trip_cycle(self):
        g = cycle_graph(4)
        h = all_pairs_hops(g)
        assert np.array_equal(adjacency_from_hdm(h).edges, g.edges)

    def test_all_ones_gives_complete(self):
        h = np.ones((5, 5)) - np.eye(5)
        g = adjacency_from_hdm(h)
        assert g.edge_count == 10

    def test_real_valued_rounds_first(self):
        g = grid_graph(2, 3)
        h = all_pairs_hops(g).hops.astype(float)
        noisy = h + 0.3 * np.sin(np.arange(h.size)).reshape(h.shape)
        noisy = (noisy + noisy.T) / 2
        np.fill_diagonal(noisy, 0.0)
        assert np.array_equal(adjacency_from_hdm(noisy).edges, g.edges)

    def test_round_trip_random_connected(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            g = random_connected_graph(rng, int(rng.integers(4, 50)))
            h = all_pairs_hops(g)
            g2 = adjacency_from_hdm(h)
            assert np.array_equal(g2.edges, g.edges)
            assert (all_pairs_hops(g2).hops == h.hops).all()

    def test_sentinel_rejected(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(ValueError, match="negative"):
            adjacency_from_hdm(all_pairs_hops(g))

    def test_asymmetric_rejected(self):
        m = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            adjacency_from_hdm(m)


class TestLaplacian:
    def test_single_edge(self):
        lap = graph_laplacian(Graph(2, [(0, 1)]))
        assert lap.tolist() == [[1.0, -1.0], [-1.0, 1.0]]

    def test_row_sums_zero_and_psd(self):
        g = petersen_graph()
        lap = graph_laplacian(g)
        assert np.allclose(lap.sum(axis=1), 0.0)
        eig = np.linalg.eigvalsh(lap)
        assert eig.min() > -1e-10

    def test_k3_eigenvalues(self):
        lap = graph_laplacian(complete_graph(3))
        eig = np.sort(np.linalg.eigvalsh(lap))
        assert np.allclose(eig, [0.0, 3.0, 3.0])

    @pytest.mark.parametrize("sizes", [[12], [8, 9], [5, 6, 7], [4, 5, 6, 7]])
    def test_rank_is_n_minus_components(self, sizes):
        rng = np.random.default_rng(sum(sizes))
        g = random_graph_with_components(rng, sizes)
        s = np.linalg.svd(graph_laplacian(g), compute_uv=False)
        rank = int((s > 1e-8 * s[0]).sum())
        assert rank == g.n - len(sizes)


class TestComponents:
    def test_two_triangles(self):
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert _components(g) == [[0, 1, 2], [3, 4, 5]]
        assert not is_connected(g)

    def test_connected_grid(self):
        assert len(_components(grid_graph(4, 5))) == 1
        assert is_connected(grid_graph(4, 5))

    def test_all_singletons(self):
        g = Graph(5, [])
        assert _components(g) == [[0], [1], [2], [3], [4]]
        assert not is_connected(g)


@given(
    n=st.integers(min_value=2, max_value=40),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=30)
def test_hdm_invariants_property(n, seed):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n)
    h = all_pairs_hops(g).hops
    assert (np.diag(h) == 0).all()
    assert (h == h.T).all()
    assert (h >= 0).all()
    assert triangle_violations(h) == 0
    assert ((h == 1) == (g.adjacency_matrix() == 1)).all()


def test_hdm_wrapper_is_read_only():
    h = all_pairs_hops(cycle_graph(5))
    with pytest.raises(ValueError):
        h.hops[0, 0] = 3
    assert isinstance(h, HopDistanceMatrix)


class TestHopsCache:
    def test_all_pairs_shares_the_read_only_cache(self):
        g = cycle_graph(5)
        assert all_pairs_hops(g).hops is g.hops
        assert not g.hops.flags.writeable
        with pytest.raises(ValueError):
            g.hops[0, 1] = 3

    def test_empty_graph(self):
        g = Graph(0, [])
        assert g.hops.shape == (0, 0) and g.hops.dtype == np.int64
        assert all_pairs_hops(g).n == 0

    def test_cached_graph_is_not_searched_again(self, monkeypatch):
        # anchor_hops and _hops_from then read rows of the cache: count
        # the level sweeps _hops_from starts.
        # _betweenness runs its own sweep through sampling's binding of
        # level_sweeps, which this does not count
        searches = []
        search = graph.level_sweeps

        def counting(g, sources=None):
            searches.append(sources)
            return search(g, sources)

        monkeypatch.setattr(graph, "level_sweeps", counting)
        g = gen_holme_kim(120, 2, 0.5, seed=1)
        all_pairs_hops(g)
        for strategy in ("closeness", "betweenness"):
            anchors = select_anchors(g, AnchorSelection(strategy, 10))
        anchor_hops(g, anchors)
        graph._hops_from(g, [3])
        assert searches == [None]


def _oracle_graphs(seed: int) -> list[Graph]:
    """Random connected graphs and disjoint unions of them."""
    rng = np.random.default_rng(seed)
    graphs = [random_connected_graph(rng, int(rng.integers(2, 50))) for _ in range(6)]
    for _ in range(6):
        sizes = rng.integers(1, 15, size=int(rng.integers(2, 5))).tolist()
        graphs.append(random_graph_with_components(rng, sizes))
    return graphs


def _fresh_and_cached(g: Graph) -> tuple[Graph, Graph]:
    """Two copies of g: one searched on demand, one whose Graph.hops is
    already cached."""
    cached = Graph(n=g.n, edges=g.edges)
    all_pairs_hops(cached)
    return Graph(n=g.n, edges=g.edges), cached


def _is_int64_c(a: np.ndarray) -> bool:
    return a.dtype == np.int64 and a.flags.c_contiguous


class TestTraversalOracles:
    """Every traversal against the brute-force references in oracles.py."""

    def test_bfs_hops_equal_floyd_warshall_rows(self):
        for g in _oracle_graphs(31):
            fw = floyd_warshall_hops(g)
            for copy in _fresh_and_cached(g):
                for s in range(g.n):
                    row = graph._hops_from(copy, [s])[0]
                    assert _is_int64_c(row) and row.tolist() == fw[s].tolist()

    @pytest.mark.parametrize("one_source_per_block", [False, True])
    def test_level_sweep_hops_equal_floyd_warshall(self, monkeypatch, one_source_per_block):
        # the oracle graphs include disjoint unions; the path has 39 levels
        if one_source_per_block:
            monkeypatch.setattr(graph, "BLOCK_CELLS", 1)
        rng = np.random.default_rng(39)
        for g in _oracle_graphs(38) + [path_graph(40)]:
            fw = floyd_warshall_hops(g)
            hops = all_pairs_hops(g).hops
            assert _is_int64_c(hops) and (hops == fw).all()
            sources = rng.permutation(g.n)[: max(1, g.n // 2)]
            fresh = Graph(n=g.n, edges=g.edges)
            assert (graph._hops_from(fresh, sources) == fw[sources]).all()

    def test_bfs_hops_unreachable_across_components(self):
        g = random_graph_with_components(np.random.default_rng(32), [6, 4, 5])
        hops = graph._hops_from(g, [7])[0]
        assert (hops[:6] == UNREACHABLE).all() and (hops[10:] == UNREACHABLE).all()
        assert (hops[6:10] >= 0).all()

    def test_anchor_hops_equal_floyd_warshall_columns(self):
        rng = np.random.default_rng(33)
        for g in _oracle_graphs(34):
            fw = floyd_warshall_hops(g)
            anchors = rng.permutation(g.n)[: min(g.n, 5)].tolist()
            errors = set()
            for copy in _fresh_and_cached(g):
                if (fw[anchors] == UNREACHABLE).any():
                    with pytest.raises(ValueError, match="cannot reach") as err:
                        anchor_hops(copy, anchors)
                    errors.add(str(err.value))
                else:
                    hops = anchor_hops(copy, anchors).hops
                    assert _is_int64_c(hops) and (hops == fw[:, anchors]).all()
            assert len(errors) <= 1

    def test_components_are_floyd_warshall_reachability_classes(self):
        for g in _oracle_graphs(35):
            fw = floyd_warshall_hops(g)
            classes = {tuple(np.flatnonzero(fw[v] != UNREACHABLE).tolist()) for v in range(g.n)}
            expected = sorted(list(c) for c in classes)
            assert _components(g) == expected
            assert is_connected(g) == (len(expected) == 1)

    def test_subgraph_bfs_relabels_in_naive_bfs_order(self):
        rng = np.random.default_rng(36)
        for g in _oracle_graphs(37):
            root = int(rng.integers(0, g.n))
            order = naive_bfs_order(g, root)
            for target_n in sorted({1, (len(order) + 1) // 2, len(order)}):
                index = {v: i for i, v in enumerate(order[:target_n])}
                expected = Graph(
                    target_n,
                    [(index[i], index[j]) for i, j in g.edges if i in index and j in index],
                )
                assert np.array_equal(subgraph_bfs(g, root, target_n).edges, expected.edges)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and np.array_equal(a, b) and a.tobytes() == b.tobytes()


class TestMaskedSweepOracle:
    """The unmasked level sweep against the masked one it replaced
    (oracles.masked_level_sweeps): the same levels and path counts bit for
    bit, and so the same Graph.hops and anchor_hops."""

    @pytest.mark.parametrize("one_source_per_block", [False, True])
    def test_same_bits_as_masked_sweep(self, monkeypatch, one_source_per_block):
        if one_source_per_block:
            monkeypatch.setattr(graph, "BLOCK_CELLS", 1)
        rng = np.random.default_rng(42)
        for g in sweep_test_graphs():
            connected = is_connected(g)
            assert _same_bits(Graph(g.n, g.edges).hops, masked_hops_from(g))
            for sources in (None, rng.permutation(g.n)[:1], rng.permutation(g.n)[:20]):
                got = list(graph.level_sweeps(g, sources))
                want = list(masked_level_sweeps(g, sources))
                assert len(got) == len(want)
                for (block, level, sigma), (block0, level0, sigma0) in zip(got, want):
                    assert np.array_equal(block, block0)
                    assert _same_bits(level, level0) and _same_bits(sigma, sigma0)
                fresh = Graph(g.n, g.edges)
                want_hops = masked_hops_from(g, sources)
                assert _same_bits(graph._hops_from(fresh, sources), want_hops)
                if connected:
                    anchors = range(g.n) if sources is None else sources
                    hops = anchor_hops(fresh, anchors).hops
                    assert _same_bits(hops, np.ascontiguousarray(want_hops.T))
