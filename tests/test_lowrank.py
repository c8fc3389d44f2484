import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hopmap.graph import all_pairs_hops, anchor_hops
from hopmap.netgen import GeneratorConfig, gen_circular_voids_2d, gen_concave_2d, gen_holme_kim
from hopmap.lowrank import (
    FULL_SVD_BELOW,
    GRAM_MIN_RATIO,
    CompletionConfig,
    complete_nuclear_norm,
    double_center_full,
    double_center_partial,
    normalized_spectrum,
    singular_rank,
    svd,
    _spectral_norm,
    _svt,
)
from hopmap.sampling import (
    AnchorSelection,
    ObservedMatrix,
    random_entry_observations,
    select_anchors,
    vc_observations,
)
from hopmap.graph import HopDistanceMatrix
from oracles import (
    cartesian_product,
    cycle_graph,
    matrix_rank,
    naive_complete_nuclear_norm,
    naive_partial_center,
    validate_svd_factors,
)


def hdm_of_cycle(n):
    return all_pairs_hops(cycle_graph(n)).hops.astype(float)


class TestSvd:
    def test_identity_spectrum(self):
        f = svd(np.eye(3))
        assert np.allclose(f.s, [1.0, 1.0, 1.0])
        validate_svd_factors(f, np.eye(3))

    def test_rank_one_outer_product(self):
        u = np.array([1.0, 2.0, -1.0])
        v = np.array([0.5, 1.0, 1.5, 2.0])
        f = svd(np.outer(u, v))
        assert f.rank == 1

    def test_c4_hdm_singular_values(self):
        # circulant(0,1,2,1) has eigenvalues {4, -2, 0, -2}
        f = svd(hdm_of_cycle(4))
        assert np.allclose(f.s, [4.0, 2.0, 2.0, 0.0], atol=1e-12)

    def test_factor_invariants_on_random_matrices(self):
        rng = np.random.default_rng(0)
        for shape in [(6, 6), (9, 4), (3, 8)]:
            m = rng.standard_normal(shape)
            f = svd(m)
            validate_svd_factors(f, m)

    def test_sign_convention_deterministic(self):
        m = np.random.default_rng(1).standard_normal((7, 5))
        a, b = svd(m), svd(m)
        assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)
        for i in range(a.s.size):
            j = np.argmax(np.abs(a.u[:, i]))
            assert a.u[j, i] >= 0

    def test_non_finite_rejected(self):
        m = np.ones((3, 3))
        m[1, 1] = np.nan
        with pytest.raises(ValueError):
            svd(m)

    @settings(max_examples=25, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(2, 8), st.integers(2, 8)),
            elements=st.floats(-50, 50),
        )
    )
    def test_spectrum_descending_nonnegative(self, m):
        f = svd(m)
        assert np.all(f.s >= 0)
        assert np.all(np.diff(f.s) <= 1e-12)
        validate_svd_factors(f, m)


class TestRank:
    def test_cycle_hdm_ranks(self):
        assert matrix_rank(hdm_of_cycle(4)) == 3
        assert matrix_rank(hdm_of_cycle(6)) == 4

    def test_torus_hdm_rank_frozen(self):
        # HDM of C4 x C4 (Cartesian product), rank recorded from the
        # Floyd-Warshall + SVD oracle run
        g = cartesian_product(cycle_graph(4), cycle_graph(4))
        h = all_pairs_hops(g).hops.astype(float)
        assert matrix_rank(h) == 5

    def test_threshold_is_relative(self):
        # cutoff sits at 1e-10 times the leading value
        s = np.array([1e6, 1.0, 1e-3, 1e-5])
        assert singular_rank(s) == 3
        assert singular_rank(np.array([1.0, 1e-11])) == 1
        assert singular_rank(np.zeros(3)) == 0


class TestNormalizedSpectrum:
    def test_leading_entry_is_one(self):
        m = np.random.default_rng(2).standard_normal((10, 6))
        ns = normalized_spectrum(m)
        assert ns[0] == 1.0
        assert np.all((ns >= 0) & (ns <= 1.0))

    def test_center_flag_squares_then_centers(self):
        h = hdm_of_cycle(8)
        manual = svd(double_center_full(h * h)).s
        got = normalized_spectrum(h, center=True)
        assert np.allclose(got, manual / manual[0])

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            normalized_spectrum(np.zeros((4, 4)))

    @pytest.mark.parametrize(
        "m, center",
        [
            (np.random.default_rng(3).standard_normal((40, 25)), False),
            (np.random.default_rng(4).standard_normal((25, 40)), False),
            (all_pairs_hops(gen_holme_kim(200, 2, 0.5, seed=1)).hops.astype(float), True),
            # symmetric and indefinite: eigenvalues 2cos(2 pi k / 8) of both signs
            (cycle_graph(8).adjacency_matrix(), False),
            # square but not normal: |eig| = 1, 1, singular values about 100.01, 0.0099
            (np.array([[1.0, 100.0], [0.0, 1.0]]), False),
        ],
        ids=["tall", "wide", "centered-hops", "even-cycle-adjacency", "non-normal"],
    )
    def test_values_match_full_svd(self, m, center):
        # values relative to the largest, so tiny trailing values compare absolutely
        full = svd(double_center_full(m * m) if center else m).s
        np.testing.assert_allclose(normalized_spectrum(m, center), full / full[0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("m", [np.zeros((0, 3)), np.array([[1.0, np.nan], [0.0, 1.0]])])
    def test_empty_or_non_finite_rejected(self, m):
        with pytest.raises(ValueError):
            normalized_spectrum(m)


class TestCentering:
    def test_constant_matrix_centers_to_zero(self):
        assert np.allclose(double_center_full(np.full((5, 7), 3.0)), 0.0)

    def test_collinear_points_give_rank_one(self):
        # squared distances between points 0, 1, 2 on a line
        x = np.array([0.0, 1.0, 2.0])
        sq = (x[:, None] - x[None, :]) ** 2
        s = double_center_full(sq)
        assert matrix_rank(s) == 1
        # gram matrix of centered 1-d coordinates
        assert np.allclose(s, np.outer(x - 1.0, x - 1.0))

    def test_zero_row_and_column_sums(self):
        m = np.random.default_rng(3).random((8, 5)) * 9
        s = double_center_full(m)
        tol = 1e-8 * np.abs(s).max()
        assert np.all(np.abs(s.sum(axis=0)) < tol)
        assert np.all(np.abs(s.sum(axis=1)) < tol)

    def test_partial_equals_full_on_full_mask(self):
        rng = np.random.default_rng(4)
        values = rng.integers(0, 9, size=(12, 5)).astype(float)
        o = ObservedMatrix(values=values.copy(), mask=np.ones((12, 5), dtype=bool))
        full = double_center_full(values * values)
        part = double_center_partial(o)
        assert np.allclose(part.values, full, rtol=1e-12, atol=1e-12)

    def test_partial_matches_naive_oracle(self):
        rng = np.random.default_rng(5)
        values = rng.integers(1, 10, size=(20, 6)).astype(float)
        mask = rng.random((20, 6)) < 0.6
        mask[~mask.any(axis=1), 0] = True
        mask[0, ~mask.any(axis=0)] = True
        o = ObservedMatrix(values=np.where(mask, values, 0.0), mask=mask)
        expected = naive_partial_center(np.where(mask, values, 0.0), mask)
        got = double_center_partial(o)
        assert np.allclose(got.values, expected)
        assert np.array_equal(got.mask, mask)

    def test_single_entry_rows_collapse_to_zero(self):
        # one observation per row and column, all equal: centering kills them
        v = 3.0 * np.eye(4)
        o = ObservedMatrix(values=v, mask=np.eye(4, dtype=bool))
        got = double_center_partial(o)
        assert np.allclose(got.values, 0.0)

    def test_empty_row_rejected(self):
        mask = np.ones((4, 3), dtype=bool)
        mask[2] = False
        o = ObservedMatrix(values=np.zeros((4, 3)), mask=mask)
        with pytest.raises(ValueError):
            double_center_partial(o)

    def test_symmetric_partial_mirrors_exactly(self):
        # row sums and column sums of a mirrored matrix add in different
        # orders, so column means taken on their own break the mirror
        h = all_pairs_hops(gen_holme_kim(300, 3, 0.3, seed=0))
        o = random_entry_observations(h, 0.3, seed=1)
        got = double_center_partial(o)
        assert got.symmetric
        assert np.array_equal(got.values, got.values.T)
        assert np.allclose(got.values, naive_partial_center(o.values, o.mask))


class TestCompletion:
    def test_observations_that_null_the_all_ones_vector(self):
        # every observed row sums to zero, so the power iteration for mu_0
        # lands at zero on its first step and takes the exact spectral norm
        values = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0], [-1.0, -1.0, 2.0]])
        mask = np.ones((3, 3), dtype=bool)
        mask[0, 1] = mask[1, 0] = False
        d = np.where(mask, values, 0.0)
        assert np.array_equal(d @ np.ones(3), np.zeros(3))
        assert _spectral_norm(d) == np.linalg.norm(d, 2)
        res = complete_nuclear_norm(ObservedMatrix(values=d, mask=mask, symmetric=True))
        assert res.converged
        assert np.allclose(res.completed[mask], values[mask])

    def test_full_mask_returns_input_exactly(self):
        values = np.random.default_rng(6).standard_normal((9, 9))
        o = ObservedMatrix(values=values.copy(), mask=np.ones((9, 9), dtype=bool))
        res = complete_nuclear_norm(o)
        assert np.array_equal(res.completed, values)
        assert res.converged
        assert res.iterations == 0
        assert res.final_residual == 0.0

    def test_low_rank_recovery(self):
        rng = np.random.default_rng(7)
        truth = rng.standard_normal((80, 3)) @ rng.standard_normal((3, 80))
        mask = rng.random((80, 80)) < 0.5
        mask[~mask.any(axis=1), 0] = True
        mask[0, ~mask.any(axis=0)] = True
        o = ObservedMatrix(values=np.where(mask, truth, 0.0), mask=mask)
        res = complete_nuclear_norm(o)
        assert res.converged
        assert res.iterations <= 500
        err = np.linalg.norm(res.completed - truth) / np.linalg.norm(truth)
        assert err <= 1e-3
        assert res.final_residual <= 1e-6

    def test_observed_entries_enforced(self):
        rng = np.random.default_rng(8)
        truth = rng.standard_normal((40, 4)) @ rng.standard_normal((4, 40))
        mask = rng.random((40, 40)) < 0.6
        mask[~mask.any(axis=1), 0] = True
        mask[0, ~mask.any(axis=0)] = True
        o = ObservedMatrix(values=np.where(mask, truth, 0.0), mask=mask)
        res = complete_nuclear_norm(o)
        gap = np.linalg.norm((res.completed - truth)[mask])
        assert gap / np.linalg.norm(truth[mask]) <= 1e-6

    def test_symmetric_mode_output_is_symmetric(self):
        h = all_pairs_hops(cycle_graph(20))
        o = random_entry_observations(h, 0.6, seed=9)
        res = complete_nuclear_norm(o)
        assert np.array_equal(res.completed, res.completed.T)

    def test_deterministic(self):
        p = HopDistanceMatrix(
            hops=np.random.default_rng(10).integers(0, 9, size=(50, 8)),
            anchor_ids=np.arange(8),
        )
        o = vc_observations(p, 0.4, seed=11)
        a = complete_nuclear_norm(o)
        b = complete_nuclear_norm(o)
        assert np.array_equal(a.completed, b.completed)
        assert a.iterations == b.iterations

    def test_rank_trace_one_entry_per_iteration(self):
        rng = np.random.default_rng(14)
        truth = rng.standard_normal((40, 3)) @ rng.standard_normal((3, 40))
        mask = rng.random((40, 40)) < 0.6
        mask[~mask.any(axis=1), 0] = True
        mask[0, ~mask.any(axis=0)] = True
        o = ObservedMatrix(values=np.where(mask, truth, 0.0), mask=mask)
        res = complete_nuclear_norm(o)
        assert len(res.rank_trace) == res.iterations
        assert res.rank_trace[-1] == 3

    def test_non_convergence_flagged_not_raised(self):
        rng = np.random.default_rng(13)
        truth = rng.standard_normal((30, 5)) @ rng.standard_normal((5, 30))
        mask = rng.random((30, 30)) < 0.6
        mask[~mask.any(axis=1), 0] = True
        mask[0, ~mask.any(axis=0)] = True
        o = ObservedMatrix(values=np.where(mask, truth, 0.0), mask=mask)
        res = complete_nuclear_norm(o, CompletionConfig(max_iters=3))
        assert not res.converged
        assert res.iterations == 3

    def test_empty_mask_rejected(self):
        o = ObservedMatrix(values=np.zeros((3, 3)), mask=np.zeros((3, 3), dtype=bool))
        with pytest.raises(ValueError):
            complete_nuclear_norm(o)

    def test_empty_row_rejected(self):
        mask = np.ones((4, 4), dtype=bool)
        mask[1] = False
        o = ObservedMatrix(values=np.zeros((4, 4)), mask=mask)
        with pytest.raises(ValueError):
            complete_nuclear_norm(o)

    def test_empty_row_reported(self):
        # a valid observation, but not a completable one
        mask = np.ones((5, 3), dtype=bool)
        mask[3] = False
        o = ObservedMatrix(values=np.zeros((5, 3)), mask=mask)
        with pytest.raises(ValueError, match=r"mask has empty rows \(3,\) / columns \(\)"):
            complete_nuclear_norm(o)

    def test_empty_column_reported(self):
        mask = np.ones((3, 5), dtype=bool)
        mask[:, 2] = False
        o = ObservedMatrix(values=np.zeros((3, 5)), mask=mask)
        with pytest.raises(ValueError, match=r"mask has empty rows \(\) / columns \(2,\)"):
            complete_nuclear_norm(o)

    def test_non_finite_observation_rejected(self):
        # the observation refuses it, so it never reaches the completion
        values = np.ones((3, 3))
        values[0, 0] = np.inf
        with pytest.raises(ValueError):
            complete_nuclear_norm(ObservedMatrix(values=values, mask=np.ones((3, 3), dtype=bool)))

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            CompletionConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            CompletionConfig(tolerance=float("nan"))
        with pytest.raises(ValueError):
            CompletionConfig(max_iters=0)


def _vc_observation(gen, f):
    _, g = gen(GeneratorConfig(seed=0))
    p = anchor_hops(g, select_anchors(g, AnchorSelection("random", 20, seed=1)))
    return vc_observations(p, f, seed=2)


def _entry_observation(n):
    h = all_pairs_hops(gen_holme_kim(n, 3, 0.3, seed=0))
    return random_entry_observations(h, 0.2, seed=3)


class TestMaskedLoopMatchesDenseLoop:
    """The loop keeps its multipliers on the observed entries only; the
    dense np.where loop of the oracle must give the same bits."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: _vc_observation(gen_concave_2d, 0.1),
            lambda: _vc_observation(gen_concave_2d, 0.8),
            lambda: _vc_observation(gen_circular_voids_2d, 0.1),
            lambda: _vc_observation(gen_circular_voids_2d, 0.8),
            lambda: _entry_observation(300),
            lambda: _entry_observation(450),
        ],
        ids=["concave-f10", "concave-f80", "circular-f10", "circular-f80", "entry-300", "entry-450"],
    )
    def test_bit_identical(self, make):
        o = make()
        cfg = CompletionConfig(tolerance=1e-4)
        got = complete_nuclear_norm(o, cfg)
        ref = naive_complete_nuclear_norm(o, cfg)
        assert np.array_equal(got.completed, ref.completed)
        assert got.iterations == ref.iterations
        assert got.residual_trace == ref.residual_trace
        assert got.nuclear_trace == ref.nuclear_trace
        assert got.rank_trace == ref.rank_trace
        assert got.converged == ref.converged


def _symmetric_rank5_observation(n=450, seed=21):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 5))
    truth = x @ x.T
    upper = np.triu(rng.random((n, n)) < 0.3, k=1)
    mask = upper | upper.T | np.eye(n, dtype=bool)
    return truth, ObservedMatrix(values=np.where(mask, truth, 0.0), mask=mask, symmetric=True)


def _assert_step_matches_full_svd(g, thresh, rank, start=None):
    full_u, full_s, full_vt = np.linalg.svd(g)
    shrunk = full_s[:rank] - thresh
    assert full_s[rank] <= thresh < full_s[rank - 1]
    expected = (full_u[:, :rank] * shrunk) @ full_vt[:rank]
    # _svt overwrites its input, so each call takes a copy of g
    a, got_rank, nuclear, kept_v = _svt(g.copy(), thresh, 10, np.random.default_rng(0))
    # warm-started from its own kept subspace, or from the given start, the
    # step agrees as well
    if start is None:
        start = kept_v
    warm, warm_rank, _, _ = _svt(g.copy(), thresh, rank + 5, np.random.default_rng(1), start)
    assert got_rank == warm_rank == rank
    assert abs(nuclear - shrunk.sum()) <= 1e-8 * nuclear
    for step in (a, warm):
        assert np.linalg.norm(step - expected) <= 1e-8 * np.linalg.norm(expected)
        # each kept value on its own, so the smallest are not hidden
        # behind the largest in the norm above
        along = np.einsum("ik,ij,jk->k", full_u[:, :rank], step, full_vt[:rank].T)
        np.testing.assert_allclose(along, shrunk, rtol=1e-6, atol=0)


def _with_spectrum(head, tail, seed, shape=(450, 450)):
    """A random matrix of this shape with singular values head, then tail."""
    rng = np.random.default_rng(seed)
    r = min(shape)
    u = np.linalg.qr(rng.standard_normal((shape[0], r)))[0]
    v = np.linalg.qr(rng.standard_normal((shape[1], r)))[0]
    s = np.full(r, tail)
    s[: head.size] = head
    return (u * s) @ v.T


class TestFullSvt:
    """Matrices with a side of at most FULL_SVD_BELOW, such as every N x M
    anchor matrix, are factored whole through the same Gram step."""

    @pytest.mark.parametrize("shape", [(555, 20), (20, 300)], ids=["tall", "wide"])
    def test_step_matches_full_svd_threshold(self, shape):
        assert min(shape) <= FULL_SVD_BELOW
        g = _with_spectrum(np.linspace(100.0, 10.0, 8), 1e-3, seed=25, shape=shape)
        _assert_step_matches_full_svd(g, 5.0, 8)

    def test_small_threshold_falls_back_to_plain_svd(self):
        # kept values span 1e8; through the Gram matrix the smallest would
        # sink below the rounding of the largest squared value
        head = np.geomspace(1e3, 1e-5, 8)
        thresh = 5e-6
        assert thresh < GRAM_MIN_RATIO * head[0]
        g = _with_spectrum(head, 1e-8, seed=26, shape=(555, 20))
        _assert_step_matches_full_svd(g, thresh, 8)


class TestRandomizedSvt:
    """Matrices above FULL_SVD_BELOW on a side take the warm-started
    randomized range finder instead of a full SVD."""

    def test_symmetric_low_rank_recovery(self):
        truth, o = _symmetric_rank5_observation()
        assert min(truth.shape) > FULL_SVD_BELOW
        res = complete_nuclear_norm(o)
        assert res.converged
        assert np.linalg.norm(res.completed - truth) / np.linalg.norm(truth) <= 1e-3
        assert len(res.rank_trace) == res.iterations
        assert res.rank_trace[-1] == 5

    def test_deterministic(self):
        _, o = _symmetric_rank5_observation(seed=22)
        cfg = CompletionConfig(tolerance=1e-4)
        a = complete_nuclear_norm(o, cfg)
        b = complete_nuclear_norm(o, cfg)
        assert np.array_equal(a.completed, b.completed)
        assert a.iterations == b.iterations

    def test_one_step_matches_full_svd_threshold(self):
        # eight singular values 10..100 over a tail of 1e-3: a clear gap,
        # thresholded on the Gram path
        g = _with_spectrum(np.linspace(100.0, 10.0, 8), 1e-3, seed=23)
        _assert_step_matches_full_svd(g, 5.0, 8)

    @pytest.mark.parametrize("source", ["half", "perturbed"])
    def test_warm_start_from_partial_subspace(self, source):
        # start spans only part of the answer: 4 of the 8 kept vectors, or
        # all 8 of a perturbed copy (a stale subspace, as in the IALM loop);
        # the power-stepped fresh columns must find what start lacks
        g = _with_spectrum(np.linspace(100.0, 10.0, 8), 1e-3, seed=23)
        true_v = np.linalg.svd(g)[2][:8].T
        if source == "half":
            start = true_v[:, :4]
        else:
            noise = np.random.default_rng(27).standard_normal(g.shape)
            start = _svt(g + 0.05 * noise, 5.0, 10, np.random.default_rng(2))[3]
            assert start.shape[1] == 8
            # the stale subspace is visibly off the true one
            assert np.linalg.norm(start @ (start.T @ true_v) - true_v) > 1e-3
        _assert_step_matches_full_svd(g, 5.0, 8, start)

    def test_high_rank_falls_back_to_the_whole_matrix(self):
        # 300 kept values: the range finder doubles its rank from 10 until
        # half the side, then the whole matrix is factored
        g = _with_spectrum(np.linspace(100.0, 10.0, 300), 1e-3, seed=28)
        _assert_step_matches_full_svd(g, 5.0, 300)

    def test_small_threshold_falls_back_to_plain_svd(self):
        # kept values span 1e8 and the threshold lies far below
        # GRAM_MIN_RATIO * sigma_max; through the Gram matrix of the
        # warm-started block the smallest kept value is off by about 1e-3
        head = np.geomspace(1e3, 1e-5, 8)
        thresh = 5e-6
        assert thresh < GRAM_MIN_RATIO * head[0]
        g = _with_spectrum(head, 1e-8, seed=24)
        _assert_step_matches_full_svd(g, thresh, 8)


class TestOneIterate:
    """A square completion holds one n x n iterate: each step thresholds
    into its input, and the residual sums the observed entries only."""

    def test_step_thresholds_into_its_input(self):
        g = _with_spectrum(np.linspace(100.0, 10.0, 8), 1e-3, seed=23)
        expected, rank, _, _ = _svt(g.copy(), 5.0, 10, np.random.default_rng(0))
        buf = g.copy()
        got, got_rank, _, _ = _svt(buf, 5.0, 10, np.random.default_rng(0))
        assert got is buf and got_rank == rank == 8
        assert np.array_equal(got, expected)
        # nothing kept: the input is zeroed
        buf = g.copy()
        got, got_rank, nuclear, kept_v = _svt(buf, 1e3, 10, np.random.default_rng(0))
        assert got is buf and (got_rank, nuclear, kept_v) == (0, 0.0, None)
        assert not buf.any()

    def test_allocation_peak_under_four_iterates(self):
        # the step input, its thresholded product, a dense residual buffer
        # and two symmetrization temporaries once took 5.3 n^2 float64 cells
        o = _entry_observation(450)
        n = o.shape[0]
        assert n > FULL_SVD_BELOW
        tracemalloc.start()
        try:
            res = complete_nuclear_norm(o, CompletionConfig(tolerance=1e-4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.converged
        assert peak <= 4 * n * n * 8
