"""Error metrics: map distance change, scan-line order preservation, hop errors."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from hopmap.graph import Graph, all_pairs_hops
from hopmap.metrics import (
    MetricReport,
    hdm_absolute_error,
    hdm_mean_error,
    mean_distance_error,
    scan_lines,
    topology_preservation_error,
)
from hopmap.netgen import PointCloud

from oracles import cycle_graph, naive_topology_preservation_error, random_connected_graph


def _points(coords):
    return PointCloud(coords=np.asarray(coords, dtype=float))


class TestMeanDistanceError:
    def test_identical_maps_zero(self):
        rng = np.random.default_rng(0)
        tm = _points(rng.normal(size=(12, 2)))
        ids = np.array([0, 3, 7])
        assert mean_distance_error(tm, tm, ids) == 0.0

    def test_orthogonal_invariance(self):
        # rotating or reflecting either map changes no within-map distance
        rng = np.random.default_rng(1)
        coords_f = rng.normal(size=(15, 2))
        coords_0 = rng.normal(size=(15, 2))
        ids = np.array([1, 4, 9, 14])
        base = mean_distance_error(_points(coords_f), _points(coords_0), ids)
        theta = 1.234
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        flip = np.array([[1.0, 0.0], [0.0, -1.0]])
        for q in (rot, rot @ flip):
            rotated = mean_distance_error(_points(coords_f @ q), _points(coords_0), ids)
            assert abs(rotated - base) < 1e-9

    def test_uniform_scale_doubles_to_one(self):
        rng = np.random.default_rng(2)
        coords = rng.normal(size=(10, 2))
        ids = np.array([0, 5])
        # d(f) = 2 d(0) everywhere, so the relative deviation is exactly 1
        value = mean_distance_error(_points(2.0 * coords), _points(coords), ids)
        assert abs(value - 1.0) < 1e-12

    def test_hand_computed_single_anchor(self):
        base = _points([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        moved = _points([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
        ids = np.array([0])
        # distances to anchor 0: base (0, 1, 2); moved (0, sqrt(2), 2)
        expect = (np.sqrt(2.0) - 1.0) / 3.0
        assert abs(mean_distance_error(moved, base, ids) - expect) < 1e-12

    def test_anchor_ids_validated(self):
        tm = _points(np.arange(8.0).reshape(4, 2))
        with pytest.raises(ValueError):
            mean_distance_error(tm, tm, np.array([4]))
        with pytest.raises(ValueError):
            mean_distance_error(tm, tm, np.array([-1]))
        with pytest.raises(ValueError):
            mean_distance_error(tm, tm, np.array([], dtype=int))

    def test_shape_mismatch_rejected(self):
        a = _points(np.zeros((4, 2)))
        b = _points(np.zeros((5, 2)))
        with pytest.raises(ValueError):
            mean_distance_error(a, b, np.array([0]))

    def test_degenerate_baseline_rejected(self):
        a = _points(np.arange(8.0).reshape(4, 2))
        b = _points(np.ones((4, 2)))
        with pytest.raises(ValueError):
            mean_distance_error(a, b, np.array([0, 1]))


class TestTopologyPreservation:
    def test_layout_vs_itself_zero(self):
        rng = np.random.default_rng(3)
        coords = rng.uniform(0, 10, size=(30, 2))
        layout = _points(coords)
        assert topology_preservation_error(scan_lines(layout), _points(coords)) == 0.0

    def test_axis_aligned_transforms_score_zero(self):
        # flips and axis swaps of a faithful map are degenerate labels of
        # the same topology and must not be penalized
        rng = np.random.default_rng(4)
        coords = rng.uniform(0, 10, size=(25, 2))
        layout = _points(coords)
        for t in (
            np.array([[-1.0, 0.0], [0.0, 1.0]]),
            np.array([[1.0, 0.0], [0.0, -1.0]]),
            np.array([[0.0, 1.0], [1.0, 0.0]]),
            np.array([[0.0, -1.0], [-1.0, 0.0]]),
        ):
            tm = _points(coords @ t.T)
            assert topology_preservation_error(scan_lines(layout), tm) == 0.0

    def test_single_swap_hand_count(self):
        # four nodes on one horizontal line; the map swaps the middle two.
        # one unordered pair is out of order: 2 of the 12 ordered pairs
        layout = _points([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        tm = _points([[0.0, 7.0], [2.0, 7.0], [1.0, 7.0], [3.0, 7.0]])
        value = topology_preservation_error(scan_lines(layout), tm)
        assert abs(value - 2.0 / 12.0) < 1e-12

    def test_full_reversal_not_penalized(self):
        # reversal equals an axis flip, which the transform search tries
        layout = _points([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        tm = _points([[3.0, 0.0], [2.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        assert topology_preservation_error(scan_lines(layout), tm) == 0.0

    def test_two_line_aggregation(self):
        # two horizontal lines of three nodes; map breaks one pair on one
        # line only: 2 bad ordered pairs out of 6+6 line pairs, plus the
        # three vertical lines of two nodes each (6 more ordered pairs)
        layout = _points(
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
        value = topology_preservation_error(scan_lines(layout), _points(swapped))
        assert abs(value - 2.0 / 18.0) < 1e-12

    def test_ties_count_as_violations(self):
        # a map that collapses a line to one point preserves no order on it
        layout = _points([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        tm = _points([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0], [5.0, 4.0]])
        # horizontal scan: all x equal in the map -> fully violated either
        # direction; vertical scan lines are singletons.  the transform
        # search can still rescue it by swapping axes
        assert topology_preservation_error(scan_lines(layout), tm) == 0.0
        collapsed = _points([[5.0, 5.0], [5.0, 5.0], [5.0, 5.0], [5.0, 5.0]])
        assert topology_preservation_error(scan_lines(layout), collapsed) == 1.0

    def test_bin_width_groups_lines(self):
        # y jitter of 0.3 splits lines at bin width 0.25 but not at 1.0
        layout_coords = np.array(
            [[0.0, 0.0], [1.0, 0.3], [2.0, -0.3], [3.0, 0.2]]
        )
        layout = _points(layout_coords)
        tm = _points([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        coarse = topology_preservation_error(scan_lines(layout, bin_width=1.0), tm)
        assert abs(coarse - 2.0 / 12.0) < 1e-12
        with pytest.raises(ValueError):
            # at 0.05 every line is a singleton and nothing can be scored
            scan_lines(layout, bin_width=0.05)

    def test_requires_2d(self):
        with pytest.raises(ValueError, match="2-d"):
            scan_lines(_points(np.zeros((4, 3))))
        lines = scan_lines(_points([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]))
        tm3 = _points(np.arange(12.0).reshape(4, 3))
        with pytest.raises(ValueError, match="2-d"):
            topology_preservation_error(lines, tm3)

    def test_node_count_mismatch(self):
        tm = _points(np.arange(10.0).reshape(5, 2))
        lines = scan_lines(_points([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]))
        with pytest.raises(ValueError, match="share node indexing"):
            topology_preservation_error(lines, tm)

    def test_no_populated_line_rejected(self):
        # diagonal points: every horizontal and vertical bin is a singleton
        layout = _points([[0.0, 0.0], [5.0, 5.0], [10.0, 10.0]])
        with pytest.raises(ValueError, match="no scan line"):
            scan_lines(layout)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force_oracle(self, seed):
        # integer-rounded coordinates put many ties on the layout's lines
        # and on the map's axes, where the order of ties matters
        rng = np.random.default_rng(100 + seed)
        layout_coords = np.round(rng.uniform(0, 6, size=(60, 2)) * 2) / 2
        noise = rng.standard_normal((60, 2)) * (0.5 * seed)
        map_coords = np.round(layout_coords @ np.linalg.qr(rng.standard_normal((2, 2)))[0] + noise)
        layout, tm = _points(layout_coords), _points(map_coords)
        for bin_width in (1.0, 0.5, 2.0):
            expected = naive_topology_preservation_error(layout_coords, map_coords, bin_width)
            assert topology_preservation_error(scan_lines(layout, bin_width), tm) == expected

    def test_config_validation(self):
        layout = _points([[0.0, 0.0], [1.0, 0.0]])
        for bin_width in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="bin_width must be positive"):
                scan_lines(layout, bin_width)


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
        g = Graph(4, [(0, 1), (2, 3)])
        h = all_pairs_hops(g)
        with pytest.raises(ValueError):
            hdm_mean_error(np.zeros((4, 4)), h)

    def test_zero_total_rejected(self):
        h = all_pairs_hops(Graph(1, []))
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
