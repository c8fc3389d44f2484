"""Map extraction from full and partial anchor-distance matrices."""
import tracemalloc

import numpy as np
import pytest

from hopmap.graph import Graph, all_pairs_hops, anchor_hops
from hopmap.lowrank import CompletionConfig, complete_nuclear_norm
from hopmap.netgen import PointCloud, gen_holme_kim
from hopmap.sampling import (
    AnchorSelection,
    ObservedMatrix,
    random_entry_observations,
    select_anchors,
    vc_observations,
)
from hopmap import graph, tpm
from hopmap.experiment import MODES
from hopmap.tpm import (
    NEIGHBOUR_ROUNDS,
    NEIGHBOURS,
    CompletionFailure,
    align_maps,
    complete_anchor_hops,
    fill_from_neighbours,
    geodesic_bounds,
    tpm_full_vc,
    tpm_via_grammian,
    tpm_via_p_completion,
)

from oracles import (
    blocked_neighbour_fill,
    floyd_warshall_hops,
    grid_graph,
    naive_geodesic_bounds,
    naive_neighbour_fill,
    path_graph,
    random_connected_graph,
)


def _vc(g: Graph, m: int, seed: int = 0):
    anchors = select_anchors(g, AnchorSelection("random", m, seed=seed))
    return anchor_hops(g, anchors)


class TestFullVc:
    def test_shapes(self):
        g = grid_graph(6, 6)
        p = _vc(g, 8)
        assert tpm_full_vc(p, k=2).coords.shape == (36, 2)
        assert tpm_full_vc(p, k=3).coords.shape == (36, 3)

    def test_too_few_anchors_rejected(self):
        g = grid_graph(4, 4)
        with pytest.raises(ValueError):
            tpm_full_vc(_vc(g, 2), k=2)
        with pytest.raises(ValueError):
            tpm_full_vc(_vc(g, 3), k=3)
        with pytest.raises(ValueError):
            tpm_full_vc(_vc(g, 5), k=4)

    def test_identical_vc_rows_coincide(self):
        # two leaves hanging off the same hub are indistinguishable from
        # any anchor that is not one of them, so their map points coincide
        edges = [(0, 1), (1, 2), (2, 3), (1, 4), (1, 5)]
        g = Graph(6, edges)
        p = anchor_hops(g, [0, 2, 3])
        assert np.array_equal(p.hops[4], p.hops[5])
        tm = tpm_full_vc(p, k=2)
        assert np.allclose(tm.coords[4], tm.coords[5], atol=1e-10)

    def test_deterministic(self):
        g = gen_holme_kim(50, 3, 0.4, seed=2)
        p = _vc(g, 8, seed=3)
        a = tpm_full_vc(p, k=2)
        b = tpm_full_vc(p, k=2)
        assert np.array_equal(a.coords, b.coords)

    def test_first_column_dropped(self):
        # the leading singular direction is excluded: coordinates are
        # columns 2..k+1 of U Sigma
        g = grid_graph(5, 5)
        p = _vc(g, 6, seed=4)
        tm2 = tpm_full_vc(p, k=2)
        tm3 = tpm_full_vc(p, k=3)
        assert np.allclose(tm3.coords[:, :2], tm2.coords)


class TestPCompletion:
    def test_full_mask_matches_full_vc_exactly(self):
        # with nothing deleted the completion is an identity and the two
        # paths must agree bit for bit
        rng = np.random.default_rng(7)
        g = random_connected_graph(rng, 40, 0.4)
        p = _vc(g, 8, seed=5)
        o = vc_observations(p, 0.0, seed=6)
        full = tpm_full_vc(p, k=2)
        via = tpm_via_p_completion(o, k=2)
        assert np.array_equal(full.coords, via.coords)

    def test_partial_mask_close_after_alignment(self):
        # hop distances on a grid have strong low-rank structure, so 20%
        # deletion should barely move the recovered map
        g = grid_graph(10, 10)
        p = _vc(g, 12, seed=9)
        full = tpm_full_vc(p, k=2)
        o = vc_observations(p, 0.2, seed=10)
        via = tpm_via_p_completion(o, k=2)
        _, t = align_maps(via, full)
        rel = t.residual / np.linalg.norm(full.coords)
        assert rel < 0.25

    def test_non_convergence_raises_with_diagnostics(self):
        g = gen_holme_kim(60, 3, 0.4, seed=11)
        p = _vc(g, 10, seed=12)
        o = vc_observations(p, 0.5, seed=13)
        cfg = CompletionConfig(max_iters=1)
        with pytest.raises(CompletionFailure) as exc:
            tpm_via_p_completion(o, k=2, cfg=cfg)
        assert exc.value.result.iterations == 1
        assert "residual" in str(exc.value)

    def test_k_validation(self):
        g = grid_graph(4, 4)
        o = vc_observations(_vc(g, 3), 0.0)
        with pytest.raises(ValueError):
            tpm_via_p_completion(o, k=3)


class TestGrammian:
    def test_full_mask_matches_classical_scaling_oracle(self):
        # on a full mask the pipeline reduces to: square, double-center,
        # SVD, first k columns of U Sigma; check against a direct
        # computation that never touches the completion code
        rng = np.random.default_rng(14)
        g = random_connected_graph(rng, 35, 0.4)
        p = _vc(g, 8, seed=15)
        o = vc_observations(p, 0.0, seed=16)
        tm = tpm_via_grammian(o, k=2)

        sq = p.hops.astype(float) ** 2
        n, m = sq.shape
        j_n = np.eye(n) - np.ones((n, n)) / n
        j_m = np.eye(m) - np.ones((m, m)) / m
        centered = -0.5 * (j_n @ sq @ j_m)
        u, s, vt = np.linalg.svd(centered, full_matrices=False)
        oracle = (u * s)[:, :2]

        # same point geometry regardless of the sign convention applied to
        # the singular vectors: compare pairwise distance matrices
        def pairwise(c):
            return np.linalg.norm(c[:, None, :] - c[None, :, :], axis=2)

        assert np.allclose(pairwise(tm.coords), pairwise(oracle), atol=1e-8)

    def test_partial_mask_close_after_alignment(self):
        g = grid_graph(10, 10)
        p = _vc(g, 12, seed=18)
        o0 = vc_observations(p, 0.0, seed=19)
        base = tpm_via_grammian(o0, k=2)
        o = vc_observations(p, 0.2, seed=20)
        via = tpm_via_grammian(o, k=2)
        _, t = align_maps(via, base)
        rel = t.residual / np.linalg.norm(base.coords)
        assert rel < 0.3

    def test_non_convergence_raises(self):
        g = gen_holme_kim(60, 3, 0.4, seed=21)
        p = _vc(g, 10, seed=22)
        o = vc_observations(p, 0.5, seed=23)
        with pytest.raises(CompletionFailure):
            tpm_via_grammian(o, k=2, cfg=CompletionConfig(max_iters=1))


class TestGeodesicBounds:
    def test_bounds_contain_true_hops(self):
        rng = np.random.default_rng(40)
        for trial in range(20):
            n = int(rng.integers(20, 120))
            g = random_connected_graph(rng, n, float(rng.uniform(0.0, 1.0)))
            m = int(rng.integers(4, 12))
            anchors = select_anchors(g, AnchorSelection("random", m, seed=trial))
            truth = floyd_warshall_hops(g)[:, anchors]
            p = anchor_hops(g, anchors)
            for f in (0.0, 0.3, 0.6):
                o = vc_observations(p, f, seed=trial)
                lower, upper = geodesic_bounds(o)
                assert np.all(lower <= truth) and np.all(truth <= upper)
                assert np.array_equal(lower[o.mask], truth[o.mask])
                assert np.array_equal(upper[o.mask], truth[o.mask])

    def test_matches_entrywise_oracle(self):
        rng = np.random.default_rng(50)
        for trial in range(8):
            n = int(rng.integers(20, 120))
            g = random_connected_graph(rng, n, float(rng.uniform(0.0, 1.0)))
            p = _vc(g, int(rng.integers(4, 20)), seed=trial)
            for f in (0.0, 0.3, 0.6, 0.85):
                o = vc_observations(p, f, seed=trial)
                for got, want in zip(geodesic_bounds(o), naive_geodesic_bounds(o.values, o.mask)):
                    assert np.array_equal(got, want)

    def test_anchors_without_a_common_observer(self):
        # path 0-1-2-3-4-5 with anchors 0, 5 and 2: no node observes both
        # 0 and 5, so their upper bound 5 comes only through anchor 2 in
        # the closure, and caps node 1's hop to anchor 5 at 1 + 3; node 2
        # observes nothing and keeps [0, inf)
        p = anchor_hops(path_graph(6), [0, 5, 2])
        mask = np.array(
            [[1, 0, 0], [1, 0, 1], [0, 0, 0], [0, 0, 1], [0, 1, 1], [0, 1, 0]], dtype=bool
        )
        o = ObservedMatrix(values=np.where(mask, p.hops, 0).astype(float), mask=mask)
        lower, upper = geodesic_bounds(o)
        want_lower, want_upper = naive_geodesic_bounds(o.values, mask)
        assert np.array_equal(lower, want_lower) and np.array_equal(upper, want_upper)
        assert upper[1, 1] == 4.0
        assert np.array_equal(lower[2], np.zeros(3)) and np.isinf(upper[2]).all()

    def test_hand_worked_path(self):
        # path 0-1-2-3-4 with anchors at both ends; node 0 observes both,
        # so h(a0, a4) = 4 exactly, and each missing hop h(i, j) lies
        # between |h(i, a) - 4| and h(i, a) + 4 for the anchor a it observes
        p = anchor_hops(path_graph(5), [0, 4])
        mask = np.array(
            [[True, True], [True, False], [True, False], [False, True], [False, True]]
        )
        o = ObservedMatrix(values=np.where(mask, p.hops, 0).astype(float), mask=mask)
        lower, upper = geodesic_bounds(o)
        expected_lower = np.array([[0, 4], [1, 3], [2, 2], [3, 1], [4, 0]], dtype=float)
        expected_upper = np.array([[0, 4], [1, 5], [2, 6], [5, 1], [4, 0]], dtype=float)
        assert np.array_equal(lower, expected_lower)
        assert np.array_equal(upper, expected_upper)


class TestNeighbourFill:
    def test_observed_entries_unchanged(self):
        rng = np.random.default_rng(41)
        g = random_connected_graph(rng, 80, 0.5)
        o = vc_observations(_vc(g, 10, seed=42), 0.6, seed=43)
        lower, upper = geodesic_bounds(o)
        estimate = rng.uniform(-50.0, 50.0, size=o.shape)
        filled = fill_from_neighbours(o, estimate, lower, upper)
        assert np.array_equal(filled[o.mask], o.values[o.mask])
        assert np.all((lower <= filled) & (filled <= upper))

    def test_matches_entrywise_reference(self, monkeypatch):
        # continuous values leave no distance ties in one round, so the
        # blocked nearest-node search must pick the same nodes as a plain
        # scan (later rounds tie nodes that got the same neighbours); the
        # sparse observation also sends some entries past the first
        # candidates to the search over all observers of their column
        monkeypatch.setattr(tpm, "NEIGHBOUR_ROUNDS", 1)
        rng = np.random.default_rng(44)
        n, m = 150, 8
        values = rng.uniform(0.0, 10.0, size=(n, m))
        mask = rng.random((n, m)) < 0.3
        mask[np.arange(n), rng.integers(0, m, size=n)] = True
        o = ObservedMatrix(values=np.where(mask, values, 0.0), mask=mask)
        estimate = rng.uniform(0.0, 10.0, size=(n, m))
        # bounds that never bind: clipping would make equal rows, and ties
        lower = np.where(mask, o.values, 0.0)
        upper = np.where(mask, o.values, 10.0)
        got = fill_from_neighbours(o, estimate, lower, upper)
        want = naive_neighbour_fill(o.values, mask, estimate, lower, upper, NEIGHBOURS, 1)
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)

    def test_one_row_blocks_match_entrywise_reference(self, monkeypatch):
        # the row blocks take their size from graph.BLOCK_CELLS
        monkeypatch.setattr(graph, "BLOCK_CELLS", 1)
        self.test_matches_entrywise_reference(monkeypatch)

    @staticmethod
    def _blocked_reference(o: ObservedMatrix):
        """fill_from_neighbours and the blocked reference, both from the
        nuclear-norm estimate, and how many entries the reference sent to
        the search over all observers of their column."""
        estimate = complete_nuclear_norm(o).completed
        lower, upper = geodesic_bounds(o)
        want, short = blocked_neighbour_fill(
            o.values, o.mask, estimate, lower, upper,
            NEIGHBOURS, NEIGHBOUR_ROUNDS, graph.BLOCK_CELLS,
        )
        return fill_from_neighbours(o, estimate, lower, upper), want, short

    @pytest.mark.parametrize("one_row_blocks", [False, True])
    @pytest.mark.parametrize("f", [0.2, 0.6, 0.85])
    def test_whole_hops_match_blocked_reference_bit_for_bit(self, monkeypatch, f, one_row_blocks):
        # whole hops on a grid tie often, and a tie goes to whichever node
        # the ranking calls put first; the entrywise reference sorts ties
        # its own way, so only the blocked one pins their order
        if one_row_blocks:
            monkeypatch.setattr(graph, "BLOCK_CELLS", 1)
        g = grid_graph(12, 12)
        o = vc_observations(_vc(g, 10, seed=60), f, seed=61)
        got, want, _ = self._blocked_reference(o)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("f", [0.6, 0.85])
    def test_multi_row_blocks_match_blocked_reference_bit_for_bit(self, monkeypatch, f):
        # blocks of 3 rows: a reference that blocked its rows by another
        # rule ranks other nodes first among tied ones here
        g = grid_graph(12, 12)
        monkeypatch.setattr(graph, "BLOCK_CELLS", 3 * g.n)
        o = vc_observations(_vc(g, 10, seed=60), f, seed=61)
        got, want, _ = self._blocked_reference(o)
        assert np.array_equal(got, want)

    @staticmethod
    def _far_from_anchor_zero(side: int, seed: int, f: float) -> ObservedMatrix:
        """anchor 0's hops observed only by the nodes nearest to it (and by
        nodes that observe nothing else): the far nodes find none of its
        observers among their nearest and rank all of them instead."""
        p = _vc(grid_graph(side, side), 10, seed=seed)
        mask = vc_observations(p, f, seed=seed + 1).mask.copy()
        near_anchor = p.hops[:, 0] <= np.quantile(p.hops[:, 0], 0.3)
        mask[:, 0] &= near_anchor | (mask.sum(axis=1) == mask[:, 0])
        return ObservedMatrix(values=p.hops, mask=mask)

    def test_short_entries_match_blocked_reference_bit_for_bit(self):
        got, want, short = self._blocked_reference(self._far_from_anchor_zero(12, 60, 0.6))
        assert short > 0
        assert np.array_equal(got, want)

    def test_short_entry_distances_match_blocked_reference_bit_for_bit(self):
        # here the short rows' distances taken from their whole rows of
        # distances, not from the products over the column's observers,
        # tie other nodes
        got, want, short = self._blocked_reference(self._far_from_anchor_zero(14, 2, 0.85))
        assert short > 0
        assert np.array_equal(got, want)

    def test_memory_stays_below_one_rows_by_n_table(self):
        # ranked a block of graph.BLOCK_CELLS // n rows at a time, with the
        # short entries' distances taken over their column's observers only,
        # the fill never holds a rows x n float64 table (20.5 MB here)
        g = grid_graph(40, 40)
        o = vc_observations(_vc(g, 20, seed=62), 0.6, seed=63)
        estimate = complete_nuclear_norm(o).completed
        lower, upper = geodesic_bounds(o)
        rows = np.count_nonzero(~o.mask.all(axis=1))
        tracemalloc.start()
        try:
            fill_from_neighbours(o, estimate, lower, upper)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows * g.n * 8

    def test_full_mask_returned_as_is(self):
        rng = np.random.default_rng(45)
        p = _vc(random_connected_graph(rng, 30), 6, seed=46)
        o = vc_observations(p, 0.0, seed=47)
        assert np.array_equal(complete_anchor_hops(o).completed, p.hops.astype(float))
        lower, upper = geodesic_bounds(o)
        filled = fill_from_neighbours(o, np.zeros(o.shape), lower, upper)
        assert np.array_equal(filled, p.hops.astype(float))


class TestModeCompleters:
    def test_each_mode_completes_through_its_table_entry(self):
        # random_entry's completer is the nuclear-norm solve alone, vc's
        # adds the geodesic step; both carry the solve's diagnostics and
        # fail the same way
        rng = np.random.default_rng(48)
        g = random_connected_graph(rng, 40)
        observations = {
            "random_entry": random_entry_observations(all_pairs_hops(g), 0.4, seed=49),
            "vc": vc_observations(_vc(g, 8, seed=50), 0.4, seed=51),
        }
        assert set(observations) == set(MODES)
        for name, o in observations.items():
            solve = complete_nuclear_norm(o)
            res = MODES[name].complete(o, CompletionConfig())
            if name == "vc":
                want = fill_from_neighbours(o, solve.completed, *geodesic_bounds(o))
                assert not np.array_equal(want, solve.completed)
            else:
                want = solve.completed
                assert np.array_equal(res.completed, res.completed.T)
            assert np.array_equal(res.completed, want)
            assert res.converged and res.iterations == solve.iterations > 0
            assert res.final_residual == solve.final_residual
            assert res.residual_trace == solve.residual_trace
            assert res.nuclear_trace == solve.nuclear_trace
            assert res.rank_trace == solve.rank_trace
            with pytest.raises(CompletionFailure) as exc:
                MODES[name].complete(o, CompletionConfig(max_iters=1))
            assert exc.value.result.iterations == 1


class TestAlignMaps:
    @staticmethod
    def _rot(theta):
        c, s = np.cos(theta), np.sin(theta)
        return np.array([[c, -s], [s, c]])

    def test_recovers_rotation_and_scale(self):
        rng = np.random.default_rng(24)
        coords = rng.normal(size=(20, 2))
        a = PointCloud(coords=coords)
        b = PointCloud(coords=3.0 * coords @ self._rot(0.7))
        moved, t = align_maps(a, b)
        assert t.residual < 1e-9
        assert abs(t.scale - 3.0) < 1e-9
        assert np.allclose(moved.coords, b.coords, atol=1e-9)

    def test_recovers_reflection(self):
        rng = np.random.default_rng(25)
        coords = rng.normal(size=(15, 2))
        flip = np.array([[1.0, 0.0], [0.0, -1.0]])
        a = PointCloud(coords=coords)
        b = PointCloud(coords=coords @ flip)
        _, t = align_maps(a, b)
        assert t.residual < 1e-9
        assert abs(np.linalg.det(t.rotation) + 1.0) < 1e-9

    def test_matches_angle_sweep_oracle(self):
        # brute force over rotations and reflections with the optimal
        # scale for each angle; the closed form must do at least as well
        rng = np.random.default_rng(26)
        a_c = rng.normal(size=(3, 2))
        b_c = rng.normal(size=(3, 2))
        a = PointCloud(coords=a_c)
        b = PointCloud(coords=b_c)
        _, t = align_maps(a, b)

        best = np.inf
        flip = np.array([[1.0, 0.0], [0.0, -1.0]])
        for theta in np.linspace(0, 2 * np.pi, 20001):
            for base in (self._rot(theta), self._rot(theta) @ flip):
                ar = a_c @ base
                denom = (ar ** 2).sum()
                scale = (ar * b_c).sum() / denom
                res = np.linalg.norm(scale * ar - b_c)
                best = min(best, res)
        assert t.residual <= best + 1e-6

    def test_orthogonality_of_transform(self):
        rng = np.random.default_rng(27)
        a = PointCloud(coords=rng.normal(size=(10, 2)))
        b = PointCloud(coords=rng.normal(size=(10, 2)))
        _, t = align_maps(a, b)
        assert np.allclose(t.rotation @ t.rotation.T, np.eye(2), atol=1e-12)

    def test_shape_mismatch_rejected(self):
        a = PointCloud(coords=np.arange(10.0).reshape(5, 2))
        b = PointCloud(coords=np.arange(8.0).reshape(4, 2))
        with pytest.raises(ValueError):
            align_maps(a, b)

    def test_degenerate_map_rejected(self):
        a = PointCloud(coords=np.ones((5, 2)))
        b = PointCloud(coords=np.arange(10.0).reshape(5, 2))
        with pytest.raises(ValueError):
            align_maps(a, b)
        with pytest.raises(ValueError):
            align_maps(b, a)

    def test_3d_alignment(self):
        rng = np.random.default_rng(28)
        coords = rng.normal(size=(12, 3))
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        a = PointCloud(coords=coords)
        b = PointCloud(coords=0.5 * coords @ q)
        _, t = align_maps(a, b)
        assert t.residual < 1e-9

