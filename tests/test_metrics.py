"""Error metrics: map distance change, scan-line order preservation, hop errors."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from hopmap.graph import Graph, all_pairs_hops
from hopmap.metrics import (
    MetricReport,
    ScanLineConfig,
    hdm_absolute_error,
    hdm_mean_error,
    mean_distance_error,
    topology_preservation_error,
)
from hopmap.netgen import PointCloud
from hopmap.tpm import TopologyMap

from oracles import cycle_graph, naive_topology_preservation_error, random_connected_graph


def _map(coords):
    return TopologyMap(coords=np.asarray(coords, dtype=float))


def _cloud(coords):
    return PointCloud(coords=np.asarray(coords, dtype=float))


class TestMeanDistanceError:
    def test_identical_maps_zero(self):
        rng = np.random.default_rng(0)
        tm = _map(rng.normal(size=(12, 2)))
        ids = np.array([0, 3, 7])
        assert mean_distance_error(tm, tm, ids) == 0.0

    def test_orthogonal_invariance(self):
        # rotating or reflecting either map changes no within-map distance
        rng = np.random.default_rng(1)
        coords_f = rng.normal(size=(15, 2))
        coords_0 = rng.normal(size=(15, 2))
        ids = np.array([1, 4, 9, 14])
        base = mean_distance_error(_map(coords_f), _map(coords_0), ids)
        theta = 1.234
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        flip = np.array([[1.0, 0.0], [0.0, -1.0]])
        for q in (rot, rot @ flip):
            rotated = mean_distance_error(_map(coords_f @ q), _map(coords_0), ids)
            assert abs(rotated - base) < 1e-9

    def test_uniform_scale_doubles_to_one(self):
        rng = np.random.default_rng(2)
        coords = rng.normal(size=(10, 2))
        ids = np.array([0, 5])
        # d(f) = 2 d(0) everywhere, so the relative deviation is exactly 1
        value = mean_distance_error(_map(2.0 * coords), _map(coords), ids)
        assert abs(value - 1.0) < 1e-12

    def test_hand_computed_single_anchor(self):
        base = _map([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        moved = _map([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
        ids = np.array([0])
        # distances to anchor 0: base (0, 1, 2); moved (0, sqrt(2), 2)
        expect = (np.sqrt(2.0) - 1.0) / 3.0
        assert abs(mean_distance_error(moved, base, ids) - expect) < 1e-12

    def test_anchor_ids_validated(self):
        tm = _map(np.arange(8.0).reshape(4, 2))
        with pytest.raises(ValueError):
            mean_distance_error(tm, tm, np.array([4]))
        with pytest.raises(ValueError):
            mean_distance_error(tm, tm, np.array([-1]))
        with pytest.raises(ValueError):
            mean_distance_error(tm, tm, np.array([], dtype=int))

    def test_shape_mismatch_rejected(self):
        a = _map(np.zeros((4, 2)))
        b = _map(np.zeros((5, 2)))
        with pytest.raises(ValueError):
            mean_distance_error(a, b, np.array([0]))

    def test_degenerate_baseline_rejected(self):
        a = _map(np.arange(8.0).reshape(4, 2))
        b = _map(np.ones((4, 2)))
        with pytest.raises(ValueError):
            mean_distance_error(a, b, np.array([0, 1]))


class TestTopologyPreservation:
    def test_layout_vs_itself_zero(self):
        rng = np.random.default_rng(3)
        coords = rng.uniform(0, 10, size=(30, 2))
        layout = _cloud(coords)
        assert topology_preservation_error(layout, _map(coords)) == 0.0

    def test_axis_aligned_transforms_score_zero(self):
        # flips and axis swaps of a faithful map are degenerate labels of
        # the same topology and must not be penalized
        rng = np.random.default_rng(4)
        coords = rng.uniform(0, 10, size=(25, 2))
        layout = _cloud(coords)
        for t in (
            np.array([[-1.0, 0.0], [0.0, 1.0]]),
            np.array([[1.0, 0.0], [0.0, -1.0]]),
            np.array([[0.0, 1.0], [1.0, 0.0]]),
            np.array([[0.0, -1.0], [-1.0, 0.0]]),
        ):
            tm = _map(coords @ t.T)
            assert topology_preservation_error(layout, tm) == 0.0

    def test_single_swap_hand_count(self):
        # four nodes on one horizontal line; the map swaps the middle two.
        # one unordered pair is out of order: 2 of the 12 ordered pairs
        layout = _cloud([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        tm = _map([[0.0, 7.0], [2.0, 7.0], [1.0, 7.0], [3.0, 7.0]])
        value = topology_preservation_error(layout, tm)
        assert abs(value - 2.0 / 12.0) < 1e-12

    def test_full_reversal_not_penalized(self):
        # reversal equals an axis flip, which the transform search tries
        layout = _cloud([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        tm = _map([[3.0, 0.0], [2.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        assert topology_preservation_error(layout, tm) == 0.0

    def test_two_line_aggregation(self):
        # two horizontal lines of three nodes; map breaks one pair on one
        # line only: 2 bad ordered pairs out of 6+6 line pairs, plus the
        # three vertical lines of two nodes each (6 more ordered pairs)
        layout = _cloud(
            [
                [0.0, 0.0], [1.0, 0.0], [2.0, 0.0],
                [0.0, 5.0], [1.0, 5.0], [2.0, 5.0],
            ]
        )
        good = np.array(
            [
                [0.0, 0.0], [1.0, 0.0], [2.0, 0.0],
                [0.0, 5.0], [1.0, 5.0], [2.0, 5.0],
            ]
        )
        swapped = good.copy()
        swapped[[0, 1]] = swapped[[1, 0]]
        value = topology_preservation_error(layout, _map(swapped))
        assert abs(value - 2.0 / 18.0) < 1e-12

    def test_ties_count_as_violations(self):
        # a map that collapses a line to one point preserves no order on it
        layout = _cloud([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        tm = _map([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0], [5.0, 4.0]])
        # horizontal scan: all x equal in the map -> fully violated either
        # direction; vertical scan lines are singletons.  the transform
        # search can still rescue it by swapping axes
        assert topology_preservation_error(layout, tm) == 0.0
        collapsed = _map([[5.0, 5.0], [5.0, 5.0], [5.0, 5.0], [5.0, 5.0]])
        assert topology_preservation_error(layout, collapsed) == 1.0

    def test_bin_width_groups_lines(self):
        # y jitter of 0.3 splits lines at bin width 0.25 but not at 1.0
        layout_coords = np.array(
            [[0.0, 0.0], [1.0, 0.3], [2.0, -0.3], [3.0, 0.2]]
        )
        layout = _cloud(layout_coords)
        tm = _map([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        coarse = topology_preservation_error(layout, tm, ScanLineConfig(bin_width=1.0))
        assert abs(coarse - 2.0 / 12.0) < 1e-12
        with pytest.raises(ValueError):
            # at 0.05 every line is a singleton and nothing can be scored
            topology_preservation_error(layout, tm, ScanLineConfig(bin_width=0.05))

    def test_direction_subset(self):
        layout = _cloud([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        tm = _map([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        cfg = ScanLineConfig(directions=("horizontal",))
        assert topology_preservation_error(layout, tm, cfg) == 0.0

    def test_requires_2d(self):
        layout3 = _cloud(np.zeros((4, 3)))
        tm2 = _map(np.arange(8.0).reshape(4, 2))
        with pytest.raises(ValueError):
            topology_preservation_error(layout3, tm2)
        layout2 = _cloud(np.arange(8.0).reshape(4, 2))
        tm3 = _map(np.arange(12.0).reshape(4, 3))
        with pytest.raises(ValueError):
            topology_preservation_error(layout2, tm3)

    def test_node_count_mismatch(self):
        layout = _cloud(np.arange(8.0).reshape(4, 2))
        tm = _map(np.arange(10.0).reshape(5, 2))
        with pytest.raises(ValueError):
            topology_preservation_error(layout, tm)

    def test_no_populated_line_rejected(self):
        # diagonal points: every horizontal and vertical bin is a singleton
        layout = _cloud([[0.0, 0.0], [5.0, 5.0], [10.0, 10.0]])
        tm = _map([[0.0, 0.0], [5.0, 5.0], [10.0, 10.0]])
        with pytest.raises(ValueError):
            topology_preservation_error(layout, tm)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force_oracle(self, seed):
        # integer-rounded coordinates put many ties on the layout's lines
        # and on the map's axes, where the order of ties matters
        rng = np.random.default_rng(100 + seed)
        layout_coords = np.round(rng.uniform(0, 6, size=(60, 2)) * 2) / 2
        noise = rng.standard_normal((60, 2)) * (0.5 * seed)
        map_coords = np.round(layout_coords @ np.linalg.qr(rng.standard_normal((2, 2)))[0] + noise)
        layout, tm = _cloud(layout_coords), _map(map_coords)
        for cfg in (
            ScanLineConfig(),
            ScanLineConfig(bin_width=0.5),
            ScanLineConfig(directions=("vertical",)),
        ):
            expected = naive_topology_preservation_error(
                layout_coords, map_coords, cfg.bin_width, cfg.directions
            )
            assert topology_preservation_error(layout, tm, cfg) == expected

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ScanLineConfig(bin_width=0.0)
        with pytest.raises(ValueError):
            ScanLineConfig(directions=("diagonal",))
        with pytest.raises(ValueError):
            ScanLineConfig(directions=())


class TestHopErrors:
    def test_perfect_estimate_zero(self):
        h = all_pairs_hops(cycle_graph(6))
        est = h.hops.astype(float)
        assert hdm_mean_error(est, h) == 0.0
        assert hdm_absolute_error(est, h) == 0.0

    def test_hand_computed_on_cycle(self):
        # C5 hop sums: each row sums to 6, total 30, N^2 = 25.  adding one
        # hop to every off-diagonal entry deviates by 20
        h = all_pairs_hops(cycle_graph(5))
        assert h.hops.sum() == 30
        est = h.hops.astype(float)
        off = ~np.eye(5, dtype=bool)
        est[off] += 1.0
        assert abs(hdm_mean_error(est, h) - 20.0 / 30.0) < 1e-12
        assert abs(hdm_absolute_error(est, h) - 20.0 / 25.0) < 1e-12

    def test_fractional_estimates_not_rounded(self):
        # deviations below one half must not vanish: the raw estimate is
        # scored, not an integer-rounded one
        h = all_pairs_hops(cycle_graph(5))
        est = h.hops.astype(float)
        off = ~np.eye(5, dtype=bool)
        est[off] += 0.4
        assert abs(hdm_mean_error(est, h) - (0.4 * 20) / 30.0) < 1e-12
        assert abs(hdm_absolute_error(est, h) - (0.4 * 20) / 25.0) < 1e-12

    def test_identity_between_metrics(self):
        rng = np.random.default_rng(5)
        for seed in range(4):
            g = random_connected_graph(np.random.default_rng(seed), 25, 0.3)
            h = all_pairs_hops(g)
            est = h.hops + rng.uniform(-0.8, 0.8, size=h.hops.shape)
            em = hdm_mean_error(est, h)
            ea = hdm_absolute_error(est, h)
            total = float(h.hops.sum())
            assert abs(ea - em * total / h.hops.size) < 1e-12

    def test_dimension_mismatch_rejected(self):
        h = all_pairs_hops(cycle_graph(5))
        with pytest.raises(ValueError):
            hdm_mean_error(np.zeros((4, 4)), h)

    def test_unreachable_reference_rejected(self):
        g = Graph.from_edge_list(4, [(0, 1), (2, 3)])
        h = all_pairs_hops(g)
        with pytest.raises(ValueError):
            hdm_mean_error(np.zeros((4, 4)), h)

    def test_zero_total_rejected(self):
        h = all_pairs_hops(Graph.from_edge_list(1, []))
        with pytest.raises(ValueError):
            hdm_mean_error(np.zeros((1, 1)), h)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_identity_property(self, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, int(rng.integers(3, 20)), 0.3)
        h = all_pairs_hops(g)
        est = h.hops + rng.normal(scale=0.5, size=h.hops.shape)
        em = hdm_mean_error(est, h)
        ea = hdm_absolute_error(est, h)
        assert abs(ea - em * float(h.hops.sum()) / h.hops.size) < 1e-12


class TestMetricReport:
    def test_fields_round_trip(self):
        r = MetricReport("net", "p-completion", 20, 0.4, 7, "E_TP", 0.05)
        assert r.metric == "E_TP" and r.value == 0.05

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            MetricReport("net", "grammian", 20, 0.4, 7, "E", -0.1)
