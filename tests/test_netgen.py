import ast
from pathlib import Path

import numpy as np
import pytest

import hopmap
from hopmap import netgen
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
    read_ids,
    read_json_object,
    read_matrix,
    read_points,
    subgraph_bfs,
    unit_disk_connect,
    write_csv,
    write_edge_list,
    write_ids,
    write_json,
    write_matrix,
    write_points,
)
from hopmap.sampling import load_observed
from oracles import cycle_graph, naive_t_cylinder_points, random_connected_graph


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
        assert g.edges.tolist() == [[0, 1]]

    def test_radius_below_separation_gives_empty_graph(self):
        pc = PointCloud(coords=np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 7.0]]))
        assert unit_disk_connect(pc, 1.0).edges.tolist() == []

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
        assert g.edges.tolist() == sorted(map(list, brute_unit_disk_edges(coords, 1.1)))

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


@pytest.fixture
def clean_grid(monkeypatch):
    """Layouts placed without noise, exactly on their grid."""
    monkeypatch.setattr(netgen, "JITTER", 0.0)


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
        assert np.array_equal(a_g.edges, b_g.edges)

    def test_node_count_independent_of_seed(self):
        counts = {gen_concave_2d(GeneratorConfig(seed=s))[0].n for s in range(3)}
        assert len(counts) == 1

    @pytest.mark.parametrize(
        "fn, n",
        [(gen_concave_2d, 555), (gen_circular_voids_2d, 496), (gen_cube_void_3d, 1640),
         (gen_t_cylinder_3d, 1213)],
    )
    def test_exact_node_counts(self, fn, n):
        # the counts each generator's docstring gives
        assert {fn(GeneratorConfig(seed=s))[0].n for s in (0, 5)} == {n}
        assert f"{n} nodes" in " ".join(fn.__doc__.split())

    def test_concave_region_is_notched(self, clean_grid):
        pc, _ = gen_concave_2d(GeneratorConfig(seed=1))
        x, y = pc.coords[:, 0], pc.coords[:, 1]
        assert not np.any((x > 8.5) & (x < 21.5) & (y > 9.5))
        assert np.any((x < 8.5) & (y > 20))  # left arm of the U survives

    def test_circular_voids_cut_out(self, clean_grid):
        pc, _ = gen_circular_voids_2d(GeneratorConfig(seed=1))
        r2 = (pc.coords ** 2).sum(axis=1)
        assert np.all(r2 <= 13.0 ** 2)
        d2 = (pc.coords[:, 0] + 5.5) ** 2 + (pc.coords[:, 1] - 4.5) ** 2
        assert np.all(d2 > 2.1 ** 2)

    def test_hourglass_waist_removed(self, clean_grid):
        pc, _ = gen_cube_void_3d(GeneratorConfig(seed=1))
        c = 5.5
        radial = np.hypot(pc.coords[:, 0] - c, pc.coords[:, 1] - c)
        cone = 2.5 * np.abs(pc.coords[:, 2] - c) / c
        assert np.all(radial > cone)

    def test_t_cylinder_surfaces_and_hole(self, clean_grid):
        # radius 3, bar along x over [0, 40], stem along z from x = 20
        pc, _ = gen_t_cylinder_3d(GeneratorConfig(seed=1))
        _, y, z = pc.coords.T
        on_bar = np.abs(y ** 2 + z ** 2 - 9.0) < 1e-9
        bar, stem = pc.coords[on_bar], pc.coords[~on_bar]
        assert len(bar) and len(stem)
        assert np.all((bar[:, 0] >= 0) & (bar[:, 0] <= 40))
        # every other point is on the stem's cylinder, above the bar's axis
        # and outside the bar
        assert np.allclose((stem[:, 0] - 20.0) ** 2 + stem[:, 1] ** 2, 9.0, rtol=0, atol=1e-9)
        assert np.all((stem[:, 2] > 0) & (stem[:, 2] <= 26))
        assert np.all(stem[:, 1] ** 2 + stem[:, 2] ** 2 > 9.0)
        # the bar wall is open where the stem attaches
        hole = ((bar[:, 0] - 20.0) ** 2 + bar[:, 1] ** 2 < 9.0) & (bar[:, 2] > 0)
        assert not np.any(hole)

    def test_t_cylinder_matches_point_by_point_oracle(self, clean_grid):
        pc, _ = gen_t_cylinder_3d(GeneratorConfig(seed=2))
        assert pc.coords.tobytes() == naive_t_cylinder_points().tobytes()

    @pytest.mark.parametrize(
        "fn, label",
        [(gen_concave_2d, "concave-2d"), (gen_circular_voids_2d, "circular-voids-2d"),
         (gen_cube_void_3d, "cube-void-3d"), (gen_t_cylinder_3d, "t-cylinder-3d")],
    )
    def test_disconnected_layout_errors(self, monkeypatch, fn, label):
        # most neighbours, one unit apart before the jitter, do not link within 0.5
        monkeypatch.setattr(netgen, "RADIUS", 0.5)
        with pytest.raises(
            ValueError, match=f"^{label} layout with seed 3 is disconnected at radius 0.5$"
        ):
            fn(GeneratorConfig(seed=3))

    @pytest.mark.parametrize("fn", [fn for fn, _, _ in LAYOUTS])
    def test_one_link_pass_per_seed(self, monkeypatch, fn):
        # each layout links its points once, at RADIUS: no seed needs a wider one
        radii = []

        def connect(pc, radius):
            radii.append(radius)
            return unit_disk_connect(pc, radius)

        monkeypatch.setattr(netgen, "unit_disk_connect", connect)
        for seed in range(20):
            fn(GeneratorConfig(seed=seed))
        assert radii == [netgen.RADIUS] * 20


class TestHolmeKim:
    def test_basic_shape_and_determinism(self):
        g = gen_holme_kim(500, 3, 0.5, seed=1)
        h = gen_holme_kim(500, 3, 0.5, seed=1)
        assert g.n == 500
        assert np.array_equal(g.edges, h.edges)
        assert is_connected(g)
        assert not np.array_equal(gen_holme_kim(500, 3, 0.5, seed=2).edges, g.edges)

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
        assert g.edges.tolist() == [[0, 1], [1, 2]]
        assert ids.tolist() == [0, 1, 2]

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_text("# a SNAP header\n# more\n\n10 30\n30 20\n")
        g, ids = load_snap_edge_list(p)
        assert g.n == 3
        assert ids.tolist() == [10, 20, 30]
        # remapped along sorted original ids: 10->0, 20->1, 30->2
        assert g.edges.tolist() == [[0, 2], [1, 2]]

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

    @pytest.mark.parametrize(
        "body, message",
        [
            ("0 1\n1 2 3\n", r"edges\.txt:5: expected 2 values, got '1 2 3'"),
            ("0 1\n7\n", r"edges\.txt:5: expected 2 values, got '7'"),
            ("0 1\n1 2 # trailing\n", r"edges\.txt:5: expected 2 values"),
            ("0 1\n1.0 2\n", r"edges\.txt:5: non-integer value '1\.0'"),
            ("0 1\na b\n", r"edges\.txt:5: non-integer value 'a'"),
        ],
    )
    def test_error_names_the_file_line(self, tmp_path, body, message):
        # the block parse refuses the file, the line loop names the line:
        # counted in the file, past a comment and a blank line
        p = tmp_path / "edges.txt"
        p.write_text("# header\n\n  # indented comment\n" + body)
        with pytest.raises(ValueError, match=message):
            load_snap_edge_list(p)

    def test_line_loop_reads_what_the_block_parse_refuses(self, tmp_path):
        # ids that int() reads and numpy does not are still accepted
        p = tmp_path / "edges.txt"
        p.write_text("1_000 2\n2 3\n")
        g, ids = load_snap_edge_list(p)
        assert ids.tolist() == [2, 3, 1000]
        assert g.edges.tolist() == [[0, 1], [0, 2]]

    def test_self_loops_only_is_no_edges(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_text("# loops\n3 3\n4 4\n")
        with pytest.raises(ValueError, match=r"edges\.txt: no edges found"):
            load_snap_edge_list(p)

    def test_id_outside_int64_rejected(self, tmp_path):
        p = tmp_path / "edges.txt"
        for big in (2**63, -(2**63) - 1, 2**64):
            p.write_text(f"0 1\n1 {big}\n")
            with pytest.raises(ValueError, match=r"edges\.txt:2: value .* outside the int64 range"):
                load_snap_edge_list(p)

    def test_int64_extreme_ids_accepted(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_text(f"{-(2**63)} 0\n0 {2**63 - 1}\n")
        g, ids = load_snap_edge_list(p)
        assert ids.tolist() == [-(2**63), 0, 2**63 - 1]
        assert g.edges.tolist() == [[0, 1], [1, 2]]

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
        assert np.array_equal(back.edges, g.edges)
        assert ids.tolist() == list(range(60))


def _read_back(tmp_path, fmt, text):
    """text written as a file of the format, read back as arrays."""
    if fmt == "edge-list":
        (tmp_path / "t.txt").write_text(text)
        g, ids = load_snap_edge_list(tmp_path / "t.txt")
        return ids, g.edges
    (tmp_path / "t.csv").write_text(text)
    if fmt == "point-table":
        return (read_points(tmp_path / "t.csv").coords,)
    (tmp_path / "t.json").write_text('{"rows": 3, "cols": 2, "mode": "general"}\n')
    o = load_observed(tmp_path / "t")
    return o.values, o.mask


class TestReadTable:
    """read_table, the one reader of edge lists, point tables and
    observation files: one block parse, and a line loop that names the
    first bad line."""

    @pytest.mark.parametrize(
        "fmt, text, want",
        [
            # comments, blank lines, tabs, padding, signs and a self-loop
            ("edge-list", "# FromNodeId\tToNodeId\n\n 10\t30 \n\n  # note\n+30 -20\n5 5\n",
             ([-20, 10, 30], [[0, 2], [1, 2]])),
            # rows out of order, padding, a quoted value and \r\n line ends
            ("point-table", 'node_id,x,y\r\n1, 0.5 ,-2\r\n0,"1e-20",+3\r\n',
             ([[1e-20, 3.0], [0.5, -2.0]],)),
            ("observation", 'row,col,value\r\n2,1,4.0\r\n 0 ,0,"1"\r\n',
             ([[1.0, 0.0], [0.0, 0.0], [0.0, 4.0]], [[True, False], [False, False], [False, True]])),
        ],
        ids=["edge-list", "point-table", "observation"],
    )
    def test_well_formed_file_is_parsed_as_one_block(self, tmp_path, monkeypatch, fmt, text, want):
        def no_line_loop(*args):
            raise AssertionError("read line by line")

        monkeypatch.setattr(netgen, "_read_lines", no_line_loop)
        got = _read_back(tmp_path, fmt, text)
        assert tuple(a.tolist() for a in got) == want

    @pytest.mark.parametrize(
        "fmt, text, want",
        [
            ("point-table", '"node_id",x,y\n0_1,"1_0.5",2\n0,3,4\n', ([[3.0, 4.0], [10.5, 2.0]],)),
            ("observation", "row,col,value\n0_2,1,1_0\n",
             ([[0.0, 0.0], [0.0, 0.0], [0.0, 10.0]], [[False, False], [False, False], [False, True]])),
        ],
        ids=["point-table", "observation"],
    )
    def test_int_only_values_are_read_by_the_line_loop(self, tmp_path, fmt, text, want):
        # as the edge list's ids are (see TestSnapEdgeList): values that
        # int() and float() read and numpy does not are still accepted,
        # quoted as csv.reader reads them
        got = _read_back(tmp_path, fmt, text)
        assert tuple(a.tolist() for a in got) == want

    @pytest.mark.parametrize(
        "fmt, text, message",
        [
            ("point-table", "node_id,x,y\n0,1,2\n\n1,3,4\n", r"t\.csv:3: expected 3 values, got ''"),
            ("point-table", "node_id,x,y\n0,1,2\n1,3,4\n\n", r"t\.csv:4: expected 3 values, got ''"),
            ("observation", "row,col,value\n0,0,1\n   \n1,1,2\n", r"t\.csv:3: expected 3 values, got '   '"),
        ],
        ids=["point-table", "point-table-last", "observation"],
    )
    def test_blank_line_in_a_csv_table_is_refused(self, tmp_path, fmt, text, message):
        # np.loadtxt skips blank lines, which these tables may not hold
        with pytest.raises(ValueError, match=message):
            _read_back(tmp_path, fmt, text)

    def test_only_netgen_imports_csv_or_json(self):
        # netgen holds every file format
        importers = set()
        for path in Path(hopmap.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                if {"csv", "json"} & {n.split(".")[0] for n in names}:
                    importers.add(path.stem)
        assert importers == {"netgen"}


class TestMatrixTable:
    """write_matrix and read_matrix: the completed matrix that complete writes."""

    def test_round_trip_is_exact(self, tmp_path):
        a = np.random.default_rng(3).normal(size=(4, 6)) * 1e3
        write_matrix(a, tmp_path / "m.csv")
        back = read_matrix(tmp_path / "m.csv")
        assert back.shape == (4, 6) and np.array_equal(back, a)

    def test_comment_and_blank_lines_skipped(self, tmp_path):
        (tmp_path / "m.csv").write_text("# a header\n1,2\n\n3,4.5\n")
        assert read_matrix(tmp_path / "m.csv").tolist() == [[1.0, 2.0], [3.0, 4.5]]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0.0,1.0\n1.0,x\n", r"m\.csv:2: non-numeric value 'x'"),
            ("0.0,1.0\n1.0\n", r"m\.csv:2: expected 2 values, got '1\.0'"),
            ("0.0,nan\n", r"m\.csv:1: non-finite value 'nan'"),
            ("# nothing\n", r"m\.csv: no rows"),
        ],
        ids=["cell", "width", "nan", "empty"],
    )
    def test_error_names_the_file_line(self, tmp_path, text, message):
        (tmp_path / "m.csv").write_text(text)
        with pytest.raises(ValueError, match=message):
            read_matrix(tmp_path / "m.csv")


class TestIdList:
    """write_ids and read_ids: the anchors sidecar of a vc observation."""

    def test_round_trip(self, tmp_path):
        write_ids(np.array([3, 0, 17]), tmp_path / "a.txt")
        assert (tmp_path / "a.txt").read_text() == "3,0,17\n"
        assert read_ids(tmp_path / "a.txt").tolist() == [3, 0, 17]

    def test_error_names_the_file(self, tmp_path):
        (tmp_path / "a.txt").write_text("1,x,3\n")
        with pytest.raises(ValueError, match=r"a\.txt: non-integer value 'x'"):
            read_ids(tmp_path / "a.txt")


class TestSubgraphBfs:
    def test_full_graph_round_trip(self):
        g = cycle_graph(12)
        sub = subgraph_bfs(g, 0, 12)
        assert sub.n == 12
        assert len(sub.edges) == 12

    def test_single_node(self):
        sub = subgraph_bfs(cycle_graph(5), 3, 1)
        assert sub.n == 1
        assert sub.edges.tolist() == []

    def test_connected_and_sized(self):
        rng = np.random.default_rng(6)
        g = random_connected_graph(rng, 200, extra_edge_frac=1.0)
        sub = subgraph_bfs(g, 17, 80)
        assert sub.n == 80
        assert is_connected(sub)

    def test_small_component_rejected(self):
        from hopmap.graph import Graph

        g = Graph(6, [(0, 1), (2, 3), (3, 4), (4, 5)])
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
            "a,b,c\n0,1.0,2.0\n",
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


class TestMapTable:
    """Maps share the layouts' point table: round trips of SVD-like maps."""

    def test_normal_map_round_trip_2d(self, tmp_path):
        rng = np.random.default_rng(29)
        tm = PointCloud(coords=rng.normal(size=(7, 2)))
        path = tmp_path / "map.csv"
        write_points(tm, path)
        back = read_points(path)
        assert np.array_equal(back.coords, tm.coords)

    def test_normal_map_round_trip_3d(self, tmp_path):
        rng = np.random.default_rng(30)
        tm = PointCloud(coords=rng.normal(size=(5, 3)))
        path = tmp_path / "map.csv"
        write_points(tm, path)
        back = read_points(path)
        assert np.array_equal(back.coords, tm.coords)

    def test_map_with_sparse_ids_rejected(self, tmp_path):
        path = tmp_path / "map.csv"
        path.write_text("node_id,x,y\n0,1.0,2.0\n2,3.0,4.0\n")
        with pytest.raises(ValueError):
            read_points(path)


class TestTableWriters:
    """write_csv and write_json, the one writer of each format."""

    def test_csv_bytes(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [[1 / 3, 1e-20, np.float64(0.1)], [7, np.int64(-2), "x, y"]]
        write_csv(["a", "b", "c"], rows, path)
        assert path.read_bytes() == b'a,b,c\r\n0.3333333333333333,1e-20,0.1\r\n7,-2,"x, y"\r\n'

    @pytest.mark.parametrize("dim", [2, 3])
    def test_points_match_csv_writer(self, tmp_path, dim):
        # write_points keeps its own template for speed; the bytes are write_csv's
        pc = PointCloud(coords=np.random.default_rng(dim).normal(size=(6, dim)) * 1e3)
        write_points(pc, tmp_path / "points.csv")
        header = ["node_id", "x", "y", "z"][: 1 + dim]
        write_csv(header, ([i, *row] for i, row in enumerate(pc.coords)), tmp_path / "table.csv")
        assert (tmp_path / "points.csv").read_bytes() == (tmp_path / "table.csv").read_bytes()

    def test_json_bytes_and_round_trip(self, tmp_path):
        path = tmp_path / "meta.json"
        value = {"a": 1, "b": [0.5, None], "c": np.float64(1 / 3)}
        write_json(value, path)
        assert path.read_text() == (
            '{\n  "a": 1,\n  "b": [\n    0.5,\n    null\n  ],\n  "c": 0.3333333333333333\n}\n'
        )
        assert read_json_object(path) == value

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]\n", "3\n", ""])
    def test_read_json_object_names_the_file(self, tmp_path, text):
        path = tmp_path / "conf.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=r"conf\.json: "):
            read_json_object(path)
