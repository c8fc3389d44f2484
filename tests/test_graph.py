import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopmap.graph import (
    UNREACHABLE,
    Graph,
    HopDistanceMatrix,
    adjacency_from_hdm,
    all_pairs_hops,
    anchor_hops,
    bfs_hops,
    connected_components,
    graph_laplacian,
    is_connected,
)

from hopmap.netgen import subgraph_bfs

from oracles import (
    complete_graph,
    cycle_graph,
    floyd_warshall_hops,
    naive_bfs_order,
    grid_graph,
    path_graph,
    petersen_graph,
    random_connected_graph,
    random_graph_with_components,
    triangle_violations,
)


class TestFromEdgeList:
    def test_reversed_duplicates_collapse(self):
        g = Graph.from_edge_list(3, [(0, 1), (1, 0), (1, 2)])
        assert g.edge_count == 2
        assert g.edges == frozenset({(0, 1), (1, 2)})

    def test_empty(self):
        g = Graph.from_edge_list(2, [])
        assert g.n == 2 and g.edge_count == 0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edge_list(4, [(0, 5)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edge_list(3, [(1, 1)])

    def test_degrees_and_adjacency(self):
        g = Graph.from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
        assert g.degrees.tolist() == [3, 1, 1, 1]
        assert g.adjacency[0] == (1, 2, 3)
        assert g.adjacency[2] == (0,)


class TestBfs:
    def test_path_graph(self):
        assert bfs_hops(path_graph(3), 0).tolist() == [0, 1, 2]

    def test_complete_graph(self):
        assert bfs_hops(complete_graph(4), 2).tolist() == [1, 1, 0, 1]

    def test_petersen_diameter_two(self):
        g = petersen_graph()
        fw = floyd_warshall_hops(g)
        for s in range(10):
            got = bfs_hops(g, s)
            assert got.tolist() == fw[s].tolist()
            assert got.max() == 2

    def test_unreachable_sentinel(self):
        g = Graph.from_edge_list(3, [(0, 1)])
        assert bfs_hops(g, 0).tolist() == [0, 1, UNREACHABLE]

    def test_source_out_of_range(self):
        with pytest.raises(ValueError):
            bfs_hops(path_graph(3), 3)


class TestAllPairs:
    def test_cycle_is_circulant(self):
        h = all_pairs_hops(cycle_graph(4)).hops
        assert h[0].tolist() == [0, 1, 2, 1]
        for i in range(4):
            assert h[i].tolist() == np.roll([0, 1, 2, 1], i).tolist()

    def test_disconnected_sentinels(self):
        g = Graph.from_edge_list(4, [(0, 1), (2, 3)])
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
        for s in range(g.n):
            assert (h[s] == bfs_hops(g, s)).all()

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
        g = Graph.from_edge_list(3, [(0, 1)])
        with pytest.raises(ValueError, match="reach"):
            anchor_hops(g, [0])


class TestAdjacencyFromHdm:
    def test_round_trip_cycle(self):
        g = cycle_graph(4)
        h = all_pairs_hops(g)
        assert adjacency_from_hdm(h).edges == g.edges

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
        assert adjacency_from_hdm(noisy).edges == g.edges

    def test_round_trip_random_connected(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            g = random_connected_graph(rng, int(rng.integers(4, 50)))
            h = all_pairs_hops(g)
            g2 = adjacency_from_hdm(h)
            assert g2.edges == g.edges
            assert (all_pairs_hops(g2).hops == h.hops).all()

    def test_sentinel_rejected(self):
        g = Graph.from_edge_list(3, [(0, 1)])
        with pytest.raises(ValueError, match="negative"):
            adjacency_from_hdm(all_pairs_hops(g))

    def test_asymmetric_rejected(self):
        m = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            adjacency_from_hdm(m)


class TestLaplacian:
    def test_single_edge(self):
        lap = graph_laplacian(Graph.from_edge_list(2, [(0, 1)]))
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
        g = Graph.from_edge_list(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert connected_components(g) == [[0, 1, 2], [3, 4, 5]]

    def test_connected_grid(self):
        assert len(connected_components(grid_graph(4, 5))) == 1
        assert is_connected(grid_graph(4, 5))

    def test_all_singletons(self):
        g = Graph.from_edge_list(5, [])
        assert connected_components(g) == [[0], [1], [2], [3], [4]]


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


def _oracle_graphs(seed: int) -> list[Graph]:
    """Random connected graphs and disjoint unions of them."""
    rng = np.random.default_rng(seed)
    graphs = [random_connected_graph(rng, int(rng.integers(2, 50))) for _ in range(6)]
    for _ in range(6):
        sizes = rng.integers(1, 15, size=int(rng.integers(2, 5))).tolist()
        graphs.append(random_graph_with_components(rng, sizes))
    return graphs


class TestTraversalOracles:
    """Every traversal against the brute-force references in oracles.py."""

    def test_bfs_hops_equal_floyd_warshall_rows(self):
        for g in _oracle_graphs(31):
            fw = floyd_warshall_hops(g)
            for s in range(g.n):
                assert bfs_hops(g, s).tolist() == fw[s].tolist()

    def test_bfs_hops_unreachable_across_components(self):
        g = random_graph_with_components(np.random.default_rng(32), [6, 4, 5])
        hops = bfs_hops(g, 7)
        assert (hops[:6] == UNREACHABLE).all() and (hops[10:] == UNREACHABLE).all()
        assert (hops[6:10] >= 0).all()

    def test_anchor_hops_equal_floyd_warshall_columns(self):
        rng = np.random.default_rng(33)
        for g in _oracle_graphs(34):
            fw = floyd_warshall_hops(g)
            anchors = rng.permutation(g.n)[: min(g.n, 5)].tolist()
            if (fw[anchors] == UNREACHABLE).any():
                with pytest.raises(ValueError, match="cannot reach"):
                    anchor_hops(g, anchors)
            else:
                assert (anchor_hops(g, anchors).hops == fw[:, anchors]).all()

    def test_components_are_floyd_warshall_reachability_classes(self):
        for g in _oracle_graphs(35):
            fw = floyd_warshall_hops(g)
            classes = {tuple(np.flatnonzero(fw[v] != UNREACHABLE).tolist()) for v in range(g.n)}
            expected = sorted(list(c) for c in classes)
            assert connected_components(g) == expected
            assert is_connected(g) == (len(expected) == 1)

    def test_subgraph_bfs_relabels_in_naive_bfs_order(self):
        rng = np.random.default_rng(36)
        for g in _oracle_graphs(37):
            root = int(rng.integers(0, g.n))
            order = naive_bfs_order(g, root)
            for target_n in sorted({1, (len(order) + 1) // 2, len(order)}):
                index = {v: i for i, v in enumerate(order[:target_n])}
                expected = Graph.from_edge_list(
                    target_n,
                    [(index[i], index[j]) for i, j in g.edges if i in index and j in index],
                )
                assert subgraph_bfs(g, root, target_n).edges == expected.edges
