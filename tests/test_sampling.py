import json
from functools import reduce

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hopmap import graph, sampling
from hopmap.graph import Graph, HopDistanceMatrix, all_pairs_hops, anchor_hops
from hopmap.netgen import gen_holme_kim
from hopmap.sampling import (
    AnchorSelection,
    ObservedMatrix,
    load_observed,
    random_entry_observations,
    save_observed,
    select_anchors,
    vc_observations,
)
from oracles import (
    brandes_betweenness,
    brute_betweenness,
    cartesian_product,
    cycle_graph,
    masked_betweenness,
    path_graph,
    petersen_graph,
    random_connected_graph,
    random_graph_with_components,
    sweep_test_graphs,
)


def star_graph(n):
    return Graph(n, [(0, i) for i in range(1, n)])


def random_vc(rng, n, m):
    hops = rng.integers(1, 12, size=(n, m))
    anchors = np.arange(m)
    hops[anchors, np.arange(m)] = 0
    return HopDistanceMatrix(hops=hops, anchor_ids=anchors)


class TestSelectAnchors:
    def test_star_degree_hub(self):
        got = select_anchors(star_graph(7), AnchorSelection("degree", 1))
        assert list(got) == [0]

    def test_m_equals_n_returns_all(self):
        g = cycle_graph(6)
        for strategy in ("random", "degree", "closeness", "betweenness"):
            got = select_anchors(g, AnchorSelection(strategy, 6, seed=3))
            assert sorted(got) == list(range(6))

    def test_path_closeness_center(self):
        got = select_anchors(path_graph(5), AnchorSelection("closeness", 1))
        assert list(got) == [2]

    def test_path_betweenness_center(self):
        got = select_anchors(path_graph(5), AnchorSelection("betweenness", 1))
        assert list(got) == [2]

    @pytest.mark.parametrize("n", [5, 6, 9])
    def test_betweenness_ranking_matches_bruteforce(self, n):
        rng = np.random.default_rng(n)
        g = random_connected_graph(rng, n, extra_edge_frac=0.8)
        scores = brute_betweenness(g)
        m = 3
        got = select_anchors(g, AnchorSelection("betweenness", m))
        order = np.lexsort((np.arange(n), -scores))
        assert sorted(got) == sorted(order[:m].tolist())

    @pytest.mark.parametrize(
        "g",
        [
            cycle_graph(9),
            cartesian_product(cycle_graph(7), cycle_graph(7)),
            cartesian_product(cycle_graph(12), cycle_graph(12)),
            reduce(cartesian_product, [path_graph(2)] * 6),
            petersen_graph(),
        ],
        ids=["cycle-9", "torus-7x7", "torus-12x12", "6-cube", "petersen"],
    )
    def test_betweenness_ties_break_low_index(self, g):
        # every node of a vertex-transitive graph is equally central
        got = select_anchors(g, AnchorSelection("betweenness", 3))
        assert list(got) == [0, 1, 2]

    def test_degree_ties_break_low_index(self):
        # all cycle nodes have equal degree
        got = select_anchors(cycle_graph(5), AnchorSelection("degree", 2))
        assert list(got) == [0, 1]

    def test_random_unique_and_deterministic(self):
        g = cycle_graph(30)
        sel = AnchorSelection("random", 10, seed=42)
        a = select_anchors(g, sel)
        b = select_anchors(g, sel)
        assert np.array_equal(a, b)
        assert len(set(a.tolist())) == 10
        c = select_anchors(g, AnchorSelection("random", 10, seed=43))
        assert not np.array_equal(a, c)

    def test_m_too_large_rejected(self):
        with pytest.raises(ValueError):
            select_anchors(cycle_graph(4), AnchorSelection("random", 5))

    def test_bad_strategy_rejected(self):
        with pytest.raises(ValueError):
            AnchorSelection("pagerank", 3)


class TestBetweenness:
    """The blocked level-by-level sweeps against Brandes' per-source loop
    (same sums in another order) and against path enumeration."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brandes_connected(self, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, int(rng.integers(20, 80)), extra_edge_frac=0.6)
        np.testing.assert_allclose(sampling._betweenness(g), brandes_betweenness(g), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brandes_disconnected(self, seed):
        rng = np.random.default_rng(100 + seed)
        g = random_graph_with_components(rng, [1, 2, 15, 30, 7])
        np.testing.assert_allclose(sampling._betweenness(g), brandes_betweenness(g), rtol=1e-12, atol=0)

    def test_matches_brandes_holme_kim(self):
        # n = 300 spans more than one block of sources
        g = gen_holme_kim(300, 2, 0.5, seed=3)
        assert g.n > graph.BLOCK_CELLS // g.n
        np.testing.assert_allclose(sampling._betweenness(g), brandes_betweenness(g), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_bruteforce_tiny(self, seed):
        rng = np.random.default_rng(200 + seed)
        if seed % 2:
            g = random_graph_with_components(rng, [int(rng.integers(1, 5)), int(rng.integers(2, 5))])
        else:
            g = random_connected_graph(rng, int(rng.integers(2, 10)), extra_edge_frac=0.5)
        assert g.n <= 9
        np.testing.assert_allclose(sampling._betweenness(g), brute_betweenness(g), rtol=1e-12, atol=1e-12)

    def test_block_size_does_not_change_result(self, monkeypatch):
        g = random_graph_with_components(np.random.default_rng(7), [25, 12])
        whole = sampling._betweenness(g)
        monkeypatch.setattr(graph, "BLOCK_CELLS", 1)  # one source per block
        np.testing.assert_allclose(sampling._betweenness(g), whole, rtol=1e-12, atol=0)

    def test_long_path_in_one_source_blocks_without_hop_search(self, monkeypatch):
        # the sweep finds every level itself, 39 of them on this path; hop
        # searches (_hops_from, so Graph.hops and anchor_hops too) look up
        # graph.level_sweeps, _betweenness its own import of it
        def no_search(*args, **kwargs):
            raise AssertionError("_betweenness searched for hops")

        monkeypatch.setattr(graph, "level_sweeps", no_search)
        monkeypatch.setattr(graph, "BLOCK_CELLS", 1)
        g = path_graph(40)
        np.testing.assert_allclose(sampling._betweenness(g), brute_betweenness(g), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("g", [Graph(1, []), Graph(4, [])])
    def test_edgeless_graph_scores_zero(self, g):
        assert sampling._betweenness(g).tolist() == [0.0] * g.n

    @pytest.mark.parametrize("one_source_per_block", [False, True])
    def test_same_bits_as_masked_brandes(self, monkeypatch, one_source_per_block):
        # oracles.masked_betweenness is the where= backward pass this one
        # replaced, over the masked sweep: the scores must not move a bit
        if one_source_per_block:
            monkeypatch.setattr(graph, "BLOCK_CELLS", 1)
        for g in sweep_test_graphs():
            got, want = sampling._betweenness(g), masked_betweenness(g)
            assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


class TestVcObservations:
    def test_zero_deletion_keeps_everything(self):
        p = random_vc(np.random.default_rng(0), 12, 4)
        o = vc_observations(p, 0.0, seed=1)
        assert o.mask.all()
        assert np.array_equal(o.values, p.hops.astype(float))

    def test_deletion_count_exact(self):
        # 550 x 20 at 60% deleted leaves 4400 observations
        p = random_vc(np.random.default_rng(1), 550, 20)
        o = vc_observations(p, 0.6, seed=2)
        assert o.n_observed == 4400

    def test_every_row_covered_at_high_deletion(self):
        p = random_vc(np.random.default_rng(2), 60, 5)
        o = vc_observations(p, 0.7, seed=3)
        assert o.mask.any(axis=1).all()
        assert o.n_observed == 60 * 5 - int(0.7 * 60 * 5)

    def test_infeasible_deletion_rejected(self):
        # 0.9 of 60x4 leaves fewer observations than rows
        p = random_vc(np.random.default_rng(2), 60, 4)
        with pytest.raises(ValueError):
            vc_observations(p, 0.9, seed=3)

    def test_deterministic_given_seed(self):
        p = random_vc(np.random.default_rng(3), 40, 6)
        a = vc_observations(p, 0.5, seed=9)
        b = vc_observations(p, 0.5, seed=9)
        assert np.array_equal(a.mask, b.mask)

    def test_values_match_source_on_mask(self):
        p = random_vc(np.random.default_rng(4), 40, 6)
        o = vc_observations(p, 0.4, seed=5)
        assert np.array_equal(o.values[o.mask], p.hops.astype(float)[o.mask])
        assert np.all(o.values[~o.mask] == 0)

    def test_fraction_one_rejected(self):
        p = random_vc(np.random.default_rng(5), 10, 3)
        with pytest.raises(ValueError):
            vc_observations(p, 1.0)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(4, 30),
        m=st.integers(2, 6),
        f=st.floats(0.0, 0.9),
        seed=st.integers(0, 999),
    )
    @example(n=7, m=3, f=1 / 3, seed=0)
    def test_row_coverage_and_count_property(self, n, m, f, seed):
        assume(n >= m)
        # f * (n * m) as vc_observations rounds it: (f * n) * m can land
        # just below a whole number, as 1/3 * 7 * 3 does
        kept = n * m - int(np.floor(f * (n * m)))
        assume(kept >= 2 * n)
        p = random_vc(np.random.default_rng(seed), n, m)
        o = vc_observations(p, f, seed=seed)
        assert o.n_observed == kept
        assert o.mask.any(axis=1).all()


class TestRandomEntryObservations:
    def test_full_fraction_gives_full_matrix(self):
        h = all_pairs_hops(cycle_graph(8))
        o = random_entry_observations(h, 1.0, seed=0)
        assert o.mask.all()
        assert np.array_equal(o.values, h.hops.astype(float))

    def test_symmetric_with_observed_diagonal(self):
        rng = np.random.default_rng(6)
        g = random_connected_graph(rng, 40, extra_edge_frac=1.0)
        o = random_entry_observations(all_pairs_hops(g), 0.3, seed=7)
        assert np.array_equal(o.mask, o.mask.T)
        assert np.array_equal(o.values, o.values.T)
        assert o.mask.diagonal().all()
        offdiag = o.mask & ~np.eye(40, dtype=bool)
        assert offdiag.any(axis=1).all()

    def test_coverage_close_to_requested(self):
        rng = np.random.default_rng(8)
        g = random_connected_graph(rng, 100, extra_edge_frac=1.0)
        o = random_entry_observations(all_pairs_hops(g), 0.2, seed=9)
        assert abs(o.coverage - 0.2) < 2.0 / 100

    def test_tiny_fraction_rejected(self):
        h = all_pairs_hops(cycle_graph(50))
        with pytest.raises(ValueError):
            random_entry_observations(h, 0.01, seed=0)

    def test_unreachable_input_rejected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            random_entry_observations(all_pairs_hops(g), 0.9, seed=0)

    @pytest.mark.parametrize("n", [2, 3, 7, 450])
    def test_pair_numbers_map_as_triu_indices(self, n):
        i, j = sampling._upper_pair(n, np.arange(n * (n - 1) // 2))
        ref_i, ref_j = np.triu_indices(n, k=1)
        assert np.array_equal(i, ref_i) and np.array_equal(j, ref_j)

    @pytest.mark.parametrize(
        "h, fraction, seed",
        [
            (lambda: all_pairs_hops(gen_holme_kim(300, 3, 0.3, seed=0)), 0.2, 3),
            (lambda: all_pairs_hops(gen_holme_kim(300, 3, 0.3, seed=0)), 0.02, 5),
            # few enough pairs that the row coverage repair runs
            (lambda: all_pairs_hops(cycle_graph(50)), 0.05, 1),
            (lambda: all_pairs_hops(cycle_graph(7)), 0.5, 2),
        ],
    )
    def test_masks_equal_triu_indices_draws(self, monkeypatch, h, fraction, seed):
        # the same seeded draws mapped through np.triu_indices, as the
        # sampler did before it computed rows and columns from pair numbers
        h = h()
        got = random_entry_observations(h, fraction, seed=seed).mask
        monkeypatch.setattr(
            sampling, "_upper_pair", lambda n, k: tuple(ix[k] for ix in np.triu_indices(n, k=1))
        )
        assert np.array_equal(got, random_entry_observations(h, fraction, seed=seed).mask)


class TestObservedMatrix:
    """The constructor owns every rule of an observation: its own read-only
    copies, values zero off the mask, finite observations and, in
    symmetric mode, a square matrix mirrored across an observed diagonal."""

    def test_full_mask_clean(self):
        o = ObservedMatrix(values=np.ones((4, 4)), mask=np.ones((4, 4), dtype=bool))
        assert o.n_observed == 16
        assert o.coverage == 1.0

    def test_copies_zeroed_off_the_mask(self):
        values = np.arange(12).reshape(4, 3)
        mask = np.zeros((4, 3), dtype=int)
        mask[::2] = 1
        o = ObservedMatrix(values=values, mask=mask)
        assert o.values.dtype == np.float64 and o.mask.dtype == bool
        assert np.array_equal(o.values, np.where(mask, values, 0))
        assert not o.values.flags.writeable and not o.mask.flags.writeable
        # the caller's arrays stay writable and unchanged
        assert values.flags.writeable and mask.flags.writeable
        values[0, 0] = mask[1, 1] = 7
        assert o.values[0, 0] == 0.0 and not o.mask[1, 1]

    def test_values_off_the_mask_dropped(self):
        # they need be neither finite nor mirrored
        values = np.array([[1.0, np.nan], [np.inf, 2.0]])
        o = ObservedMatrix(values=values, mask=np.eye(2, dtype=bool), symmetric=True)
        assert np.array_equal(o.values, np.diag([1.0, 2.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_observation_rejected(self, bad):
        values = np.ones((3, 2))
        values[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            ObservedMatrix(values=values, mask=np.ones((3, 2), dtype=bool))

    @pytest.mark.parametrize(
        "values, mask",
        [
            (np.zeros((3, 4)), np.ones((4, 3), dtype=bool)),
            (np.zeros(5), np.ones(5, dtype=bool)),
            (np.zeros((2, 2, 2)), np.ones((2, 2, 2), dtype=bool)),
        ],
        ids=["shapes-differ", "1-d", "3-d"],
    )
    def test_bad_shape_rejected(self, values, mask):
        with pytest.raises(ValueError, match="2-d and of one shape"):
            ObservedMatrix(values=values, mask=mask)

    def test_empty_row_and_column_are_valid(self):
        # vc_observations can leave a column empty on small inputs; the
        # completion, not the observation, refuses it
        mask = np.ones((3, 3), dtype=bool)
        mask[1] = mask[:, 2] = False
        assert ObservedMatrix(values=np.ones((3, 3)), mask=mask).n_observed == 4

    def test_asymmetric_mask_rejected_in_symmetric_mode(self):
        mask = np.eye(4, dtype=bool)
        mask[0, 1] = True
        with pytest.raises(ValueError, match="symmetric mode needs a mirrored mask"):
            ObservedMatrix(values=np.zeros((4, 4)), mask=mask, symmetric=True)

    @pytest.mark.parametrize(
        "values, mask, message",
        [
            (np.zeros((3, 4)), np.ones((3, 4), dtype=bool), "square"),
            (np.array([[0.0, 1.0], [2.0, 0.0]]), np.ones((2, 2), dtype=bool), "mirrored values"),
            (np.ones((2, 2)), ~np.eye(2, dtype=bool), "observed diagonal"),
        ],
        ids=["not-square", "values-not-mirrored", "diagonal-unobserved"],
    )
    def test_symmetric_mode_faults_rejected(self, values, mask, message):
        with pytest.raises(ValueError, match=f"symmetric mode needs .*{message}"):
            ObservedMatrix(values=values, mask=mask, symmetric=True)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        p = random_vc(np.random.default_rng(10), 15, 4)
        o = vc_observations(p, 0.3, seed=11)
        save_observed(o, tmp_path / "obs")
        back = load_observed(tmp_path / "obs")
        assert np.array_equal(back.mask, o.mask)
        assert np.array_equal(back.values, o.values)
        assert back.symmetric == o.symmetric
        assert back.seed == o.seed

    def test_symmetric_round_trip(self, tmp_path):
        h = all_pairs_hops(cycle_graph(9))
        o = random_entry_observations(h, 0.6, seed=12)
        save_observed(o, tmp_path / "h_obs")
        back = load_observed(tmp_path / "h_obs")
        assert back.symmetric
        assert np.array_equal(back.values, o.values)

    def test_bad_header_rejected(self, tmp_path):
        (tmp_path / "x.csv").write_text("a,b,c\n0,0,1.0\n")
        (tmp_path / "x.json").write_text('{"rows": 2, "cols": 2, "mode": "general"}\n')
        with pytest.raises(ValueError):
            load_observed(tmp_path / "x")

    def _write(self, tmp_path, mode, rows, shape=(3, 3)):
        header = {"rows": shape[0], "cols": shape[1], "mode": mode}
        (tmp_path / "x.json").write_text(json.dumps(header) + "\n")
        body = "".join(f"{r},{c},{v!r}\n" for r, c, v in rows)
        (tmp_path / "x.csv").write_text("row,col,value\n" + body)
        return tmp_path / "x"

    def test_header_not_an_object_rejected(self, tmp_path):
        base = self._write(tmp_path, "general", [(0, 0, 1.0)])
        (tmp_path / "x.json").write_text("[1, 2]\n")
        with pytest.raises(ValueError, match=r"x\.json.*object"):
            load_observed(base)

    def test_header_without_rows_rejected(self, tmp_path):
        base = self._write(tmp_path, "general", [(0, 0, 1.0)])
        (tmp_path / "x.json").write_text('{"cols": 3, "mode": "general"}\n')
        with pytest.raises(ValueError, match=r"x\.json.*'rows'"):
            load_observed(base)

    def test_shape_beyond_memory_rejected(self, tmp_path):
        # the mask alone is 2**62 bytes, which no address space maps, so
        # the allocation fails at once
        base = self._write(tmp_path, "general", [(0, 0, 1.0)], shape=(2**31, 2**31))
        with pytest.raises(ValueError, match=r"x\.json: a 2147483648 x 2147483648 matrix"):
            load_observed(base)

    def test_non_integer_index_rejected(self, tmp_path):
        base = self._write(tmp_path, "general", [(0, 0, 1.0), (0.5, 1, 2.0)])
        with pytest.raises(ValueError, match=r"x\.csv:3: .*0\.5"):
            load_observed(base)

    def test_non_numeric_value_rejected(self, tmp_path):
        base = self._write(tmp_path, "general", [(0, 0, 1.0)])
        with open(tmp_path / "x.csv", "a") as fh:
            fh.write("1,1,abc\n")
        with pytest.raises(ValueError, match=r"x\.csv:3: .*abc"):
            load_observed(base)

    def test_non_finite_value_rejected(self, tmp_path):
        base = self._write(tmp_path, "general", [(0, 0, 1.0), (1, 1, float("nan"))])
        with pytest.raises(ValueError, match=r"x\.csv:3: .*non-finite"):
            load_observed(base)

    def test_negative_general_value_rejected(self, tmp_path):
        # a general file holds node x anchor hops, which the geodesic
        # bounds read as graph distances
        base = self._write(tmp_path, "general", [(0, 0, 1.0), (1, 2, -0.5)])
        with pytest.raises(ValueError, match=r"x\.csv:3: .*-0\.5.*negative"):
            load_observed(base)

    def test_negative_symmetric_value_accepted(self, tmp_path):
        # a symmetric file is completed by the nuclear-norm solve alone
        rows = [(i, i, 0.0) for i in range(3)] + [(0, 1, -1.5), (1, 0, -1.5)]
        back = load_observed(self._write(tmp_path, "symmetric", rows))
        assert back.values[0, 1] == back.values[1, 0] == -1.5

    def test_unknown_mode_rejected(self, tmp_path):
        base = self._write(tmp_path, "symetric", [(0, 0, 1.0)])
        with pytest.raises(ValueError, match=r"x\.json.*'symetric'"):
            load_observed(base)

    def test_row_past_the_end_rejected(self, tmp_path):
        base = self._write(tmp_path, "general", [(0, 0, 1.0), (5, 1, 2.0)])
        with pytest.raises(ValueError, match=r"x\.csv.*\(5, 1\)"):
            load_observed(base)

    def test_negative_index_rejected(self, tmp_path):
        base = self._write(tmp_path, "general", [(0, 0, 1.0), (-1, 2, 2.0)])
        with pytest.raises(ValueError, match=r"x\.csv.*\(-1, 2\)"):
            load_observed(base)

    def test_duplicate_cell_rejected(self, tmp_path):
        base = self._write(tmp_path, "general", [(0, 1, 1.0), (2, 2, 3.0), (0, 1, 2.0)])
        with pytest.raises(ValueError, match=r"x\.csv.*twice"):
            load_observed(base)

    def test_symmetric_upper_triangle_only_rejected(self, tmp_path):
        rows = [(i, i, 0.0) for i in range(3)] + [(0, 1, 1.0), (1, 2, 1.0)]
        with pytest.raises(ValueError, match=r"x\.csv.*symmetric"):
            load_observed(self._write(tmp_path, "symmetric", rows))

    def test_symmetric_values_not_mirrored_rejected(self, tmp_path):
        rows = [(i, i, 0.0) for i in range(3)] + [(0, 1, 1.0), (1, 0, 2.0)]
        with pytest.raises(ValueError, match=r"x\.csv.*symmetric"):
            load_observed(self._write(tmp_path, "symmetric", rows))

    def test_symmetric_not_square_rejected(self, tmp_path):
        rows = [(0, 0, 0.0), (1, 1, 0.0), (0, 1, 1.0), (1, 0, 1.0)]
        with pytest.raises(ValueError, match=r"x\.csv.*symmetric.*square"):
            load_observed(self._write(tmp_path, "symmetric", rows, shape=(2, 3)))

    def test_symmetric_missing_diagonal_rejected(self, tmp_path):
        rows = [(0, 0, 0.0), (1, 1, 0.0), (0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)]
        with pytest.raises(ValueError, match=r"x\.csv.*symmetric"):
            load_observed(self._write(tmp_path, "symmetric", rows))
