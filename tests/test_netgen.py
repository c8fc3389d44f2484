import numpy as np
import pytest

from hopmap.graph import all_pairs_hops, is_connected
from hopmap.netgen import (
    GeneratorConfig,
    PointCloud,
    gen_circular_voids_2d,
    gen_concave_2d,
    gen_cube_void_3d,
    gen_holme_kim,
    gen_t_cylinder_3d,
    load_snap_edge_list,
    read_points,
    subgraph_bfs,
    unit_disk_connect,
    write_edge_list,
    write_points,
)
from oracles import cycle_graph, random_connected_graph


def brute_unit_disk_edges(coords, radius):
    n = len(coords)
    return {
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if np.linalg.norm(coords[i] - coords[j]) <= radius
    }


class TestPointCloud:
    def test_shape_and_properties(self):
        pc = PointCloud(coords=np.zeros((5, 2)))
        assert pc.n == 5 and pc.dim == 2
        pc3 = PointCloud(coords=np.zeros((4, 3)))
        assert pc3.dim == 3

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            PointCloud(coords=np.zeros((5, 4)))
        with pytest.raises(ValueError):
            PointCloud(coords=np.zeros(5))

    def test_rejects_non_finite(self):
        c = np.zeros((3, 2))
        c[1, 1] = np.nan
        with pytest.raises(ValueError):
            PointCloud(coords=c)

    def test_coords_read_only(self):
        pc = PointCloud(coords=np.zeros((3, 2)))
        with pytest.raises(ValueError):
            pc.coords[0, 0] = 1.0


class TestUnitDisk:
    def test_two_close_points(self):
        pc = PointCloud(coords=np.array([[0.0, 0.0], [0.5, 0.0]]))
        g = unit_disk_connect(pc, 1.0)
        assert g.edges == frozenset({(0, 1)})

    def test_radius_below_separation_gives_empty_graph(self):
        pc = PointCloud(coords=np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 7.0]]))
        assert unit_disk_connect(pc, 1.0).edges == frozenset()

    def test_grid_interior_degree_eight(self):
        xs, ys = np.meshgrid(np.arange(10), np.arange(10), indexing="ij")
        coords = np.column_stack([xs.ravel(), ys.ravel()]).astype(float)
        g = unit_disk_connect(PointCloud(coords=coords), 1.5)
        deg = g.degrees
        interior = [
            i for i, (x, y) in enumerate(coords) if 0 < x < 9 and 0 < y < 9
        ]
        assert all(deg[i] == 8 for i in interior)

    def test_matches_bruteforce_pairs(self):
        rng = np.random.default_rng(0)
        coords = rng.random((40, 3)) * 4
        g = unit_disk_connect(PointCloud(coords=coords), 1.1)
        assert set(g.edges) == brute_unit_disk_edges(coords, 1.1)

    def test_bad_radius_rejected(self):
        pc = PointCloud(coords=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            unit_disk_connect(pc, 0.0)


LAYOUTS = [
    (gen_concave_2d, 550, 2),
    (gen_circular_voids_2d, 496, 2),
    (gen_cube_void_3d, 1640, 3),
    (gen_t_cylinder_3d, 1245, 3),
]


class TestLayoutGenerators:
    @pytest.mark.parametrize("fn,target,dim", LAYOUTS)
    def test_count_band_connectivity_dim(self, fn, target, dim):
        pc, g = fn(GeneratorConfig(seed=0))
        assert 0.95 * target <= pc.n <= 1.05 * target
        assert pc.dim == dim
        assert g.n == pc.n
        assert is_connected(g)

    @pytest.mark.parametrize("fn,target,dim", LAYOUTS)
    def test_deterministic_given_seed(self, fn, target, dim):
        a_pc, a_g = fn(GeneratorConfig(seed=7))
        b_pc, b_g = fn(GeneratorConfig(seed=7))
        assert np.array_equal(a_pc.coords, b_pc.coords)
        assert a_g.edges == b_g.edges

    def test_node_count_independent_of_seed(self):
        counts = {gen_concave_2d(GeneratorConfig(seed=s))[0].n for s in range(3)}
        assert len(counts) == 1

    def test_concave_region_is_notched(self):
        pc, _ = gen_concave_2d(GeneratorConfig(seed=1, jitter=0.0))
        x, y = pc.coords[:, 0], pc.coords[:, 1]
        assert not np.any((x > 8.5) & (x < 21.5) & (y > 9.5))
        assert np.any((x < 8.5) & (y > 20))  # left arm of the U survives

    def test_circular_voids_cut_out(self):
        pc, _ = gen_circular_voids_2d(GeneratorConfig(seed=1, jitter=0.0))
        r2 = (pc.coords ** 2).sum(axis=1)
        assert np.all(r2 <= 13.0 ** 2)
        d2 = (pc.coords[:, 0] + 5.5) ** 2 + (pc.coords[:, 1] - 4.5) ** 2
        assert np.all(d2 > 2.1 ** 2)

    def test_too_few_voids_rejected(self):
        with pytest.raises(ValueError):
            gen_circular_voids_2d(GeneratorConfig(seed=0), voids=((0.0, 0.0, 2.0),))

    def test_hourglass_waist_removed(self):
        pc, _ = gen_cube_void_3d(GeneratorConfig(seed=1, jitter=0.0))
        c = 5.5
        radial = np.hypot(pc.coords[:, 0] - c, pc.coords[:, 1] - c)
        cone = 2.5 * np.abs(pc.coords[:, 2] - c) / c
        assert np.all(radial > cone)

    def test_retry_exhaustion_errors(self):
        # two far-apart clusters can never connect within 5 radius bumps
        cfg = GeneratorConfig(seed=0, comm_radius=0.4, max_retries=2)
        with pytest.raises(ValueError):
            gen_concave_2d(cfg)


class TestHolmeKim:
    def test_basic_shape_and_determinism(self):
        g = gen_holme_kim(500, 3, 0.5, seed=1)
        h = gen_holme_kim(500, 3, 0.5, seed=1)
        assert g.n == 500
        assert g.edges == h.edges
        assert is_connected(g)
        assert gen_holme_kim(500, 3, 0.5, seed=2).edges != g.edges

    def test_triad_probability_zero_is_pure_attachment(self):
        g = gen_holme_kim(300, 2, 0.0, seed=2)
        assert g.n == 300
        assert is_connected(g)

    def test_max_degree_grows_with_n(self):
        small = gen_holme_kim(100, 3, 0.5, seed=4).degrees.max()
        large = gen_holme_kim(800, 3, 0.5, seed=4).degrees.max()
        assert large > small

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            gen_holme_kim(10, 0, 0.5)
        with pytest.raises(ValueError):
            gen_holme_kim(5, 5, 0.5)
        with pytest.raises(ValueError):
            gen_holme_kim(10, 2, 1.5)


class TestSnapEdgeList:
    def test_small_file(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_text("0 1\n1 2\n")
        g, ids = load_snap_edge_list(p)
        assert g.n == 3
        assert g.edges == frozenset({(0, 1), (1, 2)})
        assert ids.tolist() == [0, 1, 2]

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_text("# a SNAP header\n# more\n\n10 30\n30 20\n")
        g, ids = load_snap_edge_list(p)
        assert g.n == 3
        assert ids.tolist() == [10, 20, 30]
        # remapped along sorted original ids: 10->0, 20->1, 30->2
        assert g.edges == frozenset({(0, 2), (1, 2)})

    def test_duplicate_and_reversed_edges_collapse(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_text("1 2\n2 1\n1 2\n")
        g, _ = load_snap_edge_list(p)
        assert len(g.edges) == 1

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_text("1 2 3\n")
        with pytest.raises(ValueError):
            load_snap_edge_list(p)
        p.write_text("a b\n")
        with pytest.raises(ValueError):
            load_snap_edge_list(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_text("# only comments\n")
        with pytest.raises(ValueError):
            load_snap_edge_list(p)

    def test_round_trip_through_writer(self, tmp_path):
        g = gen_holme_kim(60, 2, 0.3, seed=5)
        p = tmp_path / "out.txt"
        write_edge_list(g, p)
        back, ids = load_snap_edge_list(p)
        assert back.edges == g.edges
        assert ids.tolist() == list(range(60))


class TestSubgraphBfs:
    def test_full_graph_round_trip(self):
        g = cycle_graph(12)
        sub = subgraph_bfs(g, 0, 12)
        assert sub.n == 12
        assert len(sub.edges) == 12

    def test_single_node(self):
        sub = subgraph_bfs(cycle_graph(5), 3, 1)
        assert sub.n == 1
        assert sub.edges == frozenset()

    def test_connected_and_sized(self):
        rng = np.random.default_rng(6)
        g = random_connected_graph(rng, 200, extra_edge_frac=1.0)
        sub = subgraph_bfs(g, 17, 80)
        assert sub.n == 80
        assert is_connected(sub)

    def test_small_component_rejected(self):
        from hopmap.graph import Graph

        g = Graph.from_edge_list(6, [(0, 1), (2, 3), (3, 4), (4, 5)])
        with pytest.raises(ValueError):
            subgraph_bfs(g, 0, 3)

    def test_hop_distances_preserved_near_root(self):
        # nodes are relabeled in discovery order, root becomes 0
        g = cycle_graph(20)
        sub = subgraph_bfs(g, 5, 9)
        h = all_pairs_hops(sub)
        assert h.hops[0].max() <= all_pairs_hops(g).hops[5].max()


class TestLayoutIo:
    def test_round_trip_2d(self, tmp_path):
        pc, _ = gen_concave_2d(GeneratorConfig(seed=2))
        path = tmp_path / "layout.csv"
        write_points(pc, path)
        back = read_points(path)
        assert np.array_equal(back.coords, pc.coords)

    def test_round_trip_3d(self, tmp_path):
        pc = PointCloud(coords=np.random.default_rng(7).random((9, 3)))
        path = tmp_path / "layout3.csv"
        write_points(pc, path)
        back = read_points(path)
        assert np.array_equal(back.coords, pc.coords)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("id,a,b\n0,1,2\n")
        with pytest.raises(ValueError):
            read_points(p)


class TestPointTable:
    """Layouts and maps share one CSV format, pinned byte for byte."""

    @pytest.mark.parametrize(
        "coords, expected",
        [
            (
                np.array([[1 / 3, -2.0], [0.1, 1e-20]]),
                b"node_id,x,y\r\n0,0.3333333333333333,-2.0\r\n1,0.1,1e-20\r\n",
            ),
            (
                np.array([[1 / 3, 0.0, 2.5]]),
                b"node_id,x,y,z\r\n0,0.3333333333333333,0.0,2.5\r\n",
            ),
        ],
    )
    def test_layout_and_map_bytes(self, tmp_path, coords, expected):
        write_points(PointCloud(coords=coords.copy()), tmp_path / "points.csv")
        assert (tmp_path / "points.csv").read_bytes() == expected
        assert np.array_equal(read_points(tmp_path / "points.csv").coords, coords)

    @pytest.mark.parametrize(
        "text",
        [
            "id,x,y\n0,1,2\n",
            "node_id,x,y\n0,1.0\n",
            "node_id,x,y\n0,one,2.0\n",
            "node_id,x,y\n",
            "node_id,x,y\n0,1.0,2.0\n2,3.0,4.0\n",
            "node_id,x,y\n0,1.0,2.0\n1,nan,4.0\n",
            "node_id,x,y,z\n0,1.0,-inf,2.0\n",
        ],
    )
    def test_malformed_file_error_names_path(self, tmp_path, text):
        path = tmp_path / "points.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="points.csv"):
            read_points(path)
