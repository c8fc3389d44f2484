"""End-to-end acceptance gate: one test per numbered criterion.

Every test prints a single `criterion N (...): PASS/FAIL - details` line,
so the captured output doubles as a release checklist.  These runs are
sized like small experiments (minutes, not milliseconds); the fast unit
coverage lives in the other test modules.
"""
from __future__ import annotations

import time

import numpy as np
import pytest

from hopmap.graph import all_pairs_hops, anchor_hops, graph_laplacian
from hopmap.lowrank import (
    CompletionConfig,
    complete_nuclear_norm,
    normalized_spectrum,
    singular_rank,
)
from hopmap.metrics import (
    hdm_absolute_error,
    hdm_mean_error,
    mean_distance_error,
    scan_lines,
    topology_preservation_error,
)
from hopmap.netgen import (
    GeneratorConfig,
    PointCloud,
    gen_circular_voids_2d,
    gen_concave_2d,
    gen_holme_kim,
)
from hopmap.sampling import (
    AnchorSelection,
    ObservedMatrix,
    random_entry_observations,
    select_anchors,
    vc_observations,
)
from hopmap.seeding import run_seed
from hopmap.tpm import (
    CompletionFailure,
    align_maps,
    tpm_full_vc,
    tpm_via_grammian,
    tpm_via_p_completion,
)

from oracles import (
    cartesian_product,
    cycle_graph,
    floyd_warshall_hops,
    random_connected_graph,
    random_graph_with_components,
)


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    line = f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def holme_kim_graphs():
    # ten 500-node instances shared by the two spectrum criteria; sparse
    # attachment keeps the hop spectrum decaying fast while the adjacency
    # spectrum stays heavy, which is the contrast under test
    return [gen_holme_kim(500, 2, 0.5, seed=s) for s in range(10)]


def test_criterion_1_hop_matrix_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(2, 201))
        g = random_connected_graph(rng, n)
        if not (all_pairs_hops(g).hops == floyd_warshall_hops(g)).all():
            _report(1, "hop-matrix oracle", False, f"mismatch on n={n}")
        checked += 1
    elapsed = time.perf_counter() - t0
    _report(
        1,
        "hop-matrix oracle",
        checked == 100 and elapsed < 30.0,
        f"{checked}/100 graphs exact, {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_2_completion_recovery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    truth = rng.standard_normal((200, 5)) @ rng.standard_normal((5, 200))
    mask = rng.random((200, 200)) < 0.5
    o = ObservedMatrix(values=np.where(mask, truth, 0.0), mask=mask)
    res = complete_nuclear_norm(o, CompletionConfig())
    rel = float(np.linalg.norm(res.completed - truth) / np.linalg.norm(truth))
    elapsed = time.perf_counter() - t0
    ok = rel <= 1e-3 and res.iterations <= 500 and elapsed < 60.0
    _report(
        2,
        "rank-5 recovery",
        ok,
        f"relative error {rel:.2e} in {res.iterations} iterations, "
        f"{elapsed:.1f}s (budget 60s)",
    )


def test_criterion_3_spectrum_gap(holme_kim_graphs):
    t0 = time.perf_counter()
    h_vals, a_vals = [], []
    for g in holme_kim_graphs:
        h = all_pairs_hops(g)
        h.require_finite()
        h_vals.append(normalized_spectrum(h.as_float(), center=True)[99])
        a_vals.append(normalized_spectrum(g.adjacency_matrix())[99])
    mh, ma = float(np.mean(h_vals)), float(np.mean(a_vals))
    elapsed = time.perf_counter() - t0
    ok = mh <= 0.1 and ma >= 0.2 and elapsed < 300.0
    _report(
        3,
        "spectral gap",
        ok,
        f"100th normalized singular value: centered hops {mh:.3f} (<=0.1), "
        f"adjacency {ma:.3f} (>=0.2), 10 seeds, {elapsed:.1f}s",
    )


def test_criterion_4_anchor_strategy_insensitivity(holme_kim_graphs):
    t0 = time.perf_counter()
    spectra = {"random": [], "degree": []}
    h_vals, a_vals = [], []
    for s, g in enumerate(holme_kim_graphs):
        for strategy in spectra:
            anchors = select_anchors(g, AnchorSelection(strategy, 100, seed=s))
            vc = anchor_hops(g, anchors)
            spectra[strategy].append(normalized_spectrum(vc.as_float(), center=True))
        h = all_pairs_hops(g)
        h_vals.append(normalized_spectrum(h.as_float(), center=True)[99])
        a_vals.append(normalized_spectrum(g.adjacency_matrix())[99])
    mean_random = np.mean(spectra["random"], axis=0)
    mean_degree = np.mean(spectra["degree"], axis=0)
    max_diff = float(np.max(np.abs(mean_random - mean_degree)))
    gap = float(np.mean(a_vals) - np.mean(h_vals))
    elapsed = time.perf_counter() - t0
    ok = max_diff <= 0.1 and gap > max_diff
    _report(
        4,
        "anchor-strategy insensitivity",
        ok,
        f"max pointwise spectrum difference {max_diff:.3f} (<=0.1), "
        f"hop-vs-adjacency gap {gap:.3f} exceeds it, 10 seeds, {elapsed:.1f}s",
    )


def test_criterion_5_deletion_grid():
    t0 = time.perf_counter()
    fractions = (0.1, 0.2, 0.4, 0.6, 0.8)
    repeats = 20
    procedures = {"grammian": tpm_via_grammian, "p-completion": tpm_via_p_completion}
    grid: dict[tuple[str, str], list[float]] = {}
    for name, gen in (("circular", gen_circular_voids_2d), ("concave", gen_concave_2d)):
        pts, g = gen(GeneratorConfig(seed=0))
        scan = scan_lines(pts, bin_width=1.0)
        vcs = []
        for rep in range(repeats):
            anchors = select_anchors(
                g, AnchorSelection("random", 20, seed=run_seed(2026, "anchors", rep))
            )
            vcs.append(anchor_hops(g, anchors))
        for proc, fn in procedures.items():
            means = []
            for f in fractions:
                vals = []
                for rep, vc in enumerate(vcs):
                    o = vc_observations(vc, f, seed=run_seed(2026, "delete", rep))
                    try:
                        tm = fn(o, 2)
                    except CompletionFailure:
                        continue
                    oriented, _ = align_maps(tm, pts)
                    vals.append(topology_preservation_error(scan, oriented))
                means.append(float(np.mean(vals)) if vals else float("nan"))
            grid[(name, proc)] = means
    elapsed = time.perf_counter() - t0

    over, non_monotone = [], []
    for (name, proc), means in grid.items():
        for f, m in zip(fractions, means):
            if not (m <= 0.10):
                over.append(f"{name}/{proc} f={f:.0%}: {m:.1%}")
        for i in range(len(means) - 1):
            if means[i + 1] < means[i] - 0.01:
                non_monotone.append(f"{name}/{proc} f={fractions[i + 1]:.0%}")
    table = "; ".join(
        f"{name}/{proc} " + ",".join(f"{m:.1%}" for m in means)
        for (name, proc), means in grid.items()
    )
    ok = not over and not non_monotone and elapsed < 1200.0
    detail = f"{repeats} repeats/cell, {elapsed:.0f}s (budget 1200s); grid: {table}"
    if over:
        detail = f"cells above 10%: {'; '.join(over)} | " + detail
    if non_monotone:
        detail = f"non-monotone at: {'; '.join(non_monotone)} | " + detail
    _report(5, "deletion grid", ok, detail)


def test_criterion_6_zero_deletion_consistency():
    pts, g = gen_concave_2d(GeneratorConfig(seed=3))
    anchors = select_anchors(g, AnchorSelection("random", 20, seed=3))
    vc = anchor_hops(g, anchors)
    o = vc_observations(vc, 0.0, seed=3)
    via_completion = tpm_via_p_completion(o, 2)
    direct = tpm_full_vc(vc, 2)
    identical = np.array_equal(via_completion.coords, direct.coords)
    e = mean_distance_error(via_completion, direct, anchors)
    _report(
        6,
        "zero-deletion consistency",
        identical and e == 0.0,
        f"maps byte-identical: {identical}, map distance error E = {e}",
    )


def test_criterion_7_large_graph_entry_recovery():
    t0 = time.perf_counter()
    g = gen_holme_kim(2000, 3, 0.3, seed=0)
    h = all_pairs_hops(g)
    h.require_finite()
    ems, eas = [], []
    for s in range(5):
        o = random_entry_observations(h, 0.2, seed=run_seed(11, "large", s))
        res = complete_nuclear_norm(o, CompletionConfig(tolerance=1e-4))
        sym = 0.5 * (res.completed + res.completed.T)
        ems.append(hdm_mean_error(sym, h))
        eas.append(hdm_absolute_error(sym, h))
    em, ea = float(np.mean(ems)), float(np.mean(eas))
    elapsed = time.perf_counter() - t0
    ok = em <= 0.10 and ea <= 1.5 and elapsed < 1800.0
    _report(
        7,
        "large-graph entry recovery",
        ok,
        f"n=2000, 20% observed: mean E_m {em:.4f} (<=0.10), mean E_a {ea:.4f} "
        f"(<=1.5), 5 seeds, {elapsed:.0f}s (budget 1800s)",
    )


def test_criterion_8_hop_matrix_rank_regression():
    ranks = {}
    for label, g in (
        ("C4", cycle_graph(4)),
        ("C6", cycle_graph(6)),
        ("C4xC4", cartesian_product(cycle_graph(4), cycle_graph(4))),
    ):
        s = np.linalg.svd(all_pairs_hops(g).as_float(), compute_uv=False)
        ranks[label] = singular_rank(s)
    expected = {"C4": 3, "C6": 4, "C4xC4": 5}
    _report(
        8,
        "hop-matrix rank regression",
        ranks == expected,
        f"measured {ranks}, frozen {expected}",
    )


def test_criterion_9_laplacian_rank():
    rng = np.random.default_rng(9)
    outcomes = []
    for sizes in ([40], [30, 25], [20, 15, 12], [18, 14, 11, 9]):
        g = random_graph_with_components(rng, sizes)
        s = np.linalg.svd(graph_laplacian(g), compute_uv=False)
        outcomes.append((len(sizes), g.n, singular_rank(s)))
    ok = all(rank == n - c for c, n, rank in outcomes)
    _report(
        9,
        "laplacian rank",
        ok,
        ", ".join(f"c={c}: rank {rank} of n={n}" for c, n, rank in outcomes),
    )


def test_criterion_10_metric_identities():
    rng = np.random.default_rng(10)
    coords = rng.uniform(0, 20, size=(60, 2))
    layout = PointCloud(coords=coords.copy())
    tm = PointCloud(coords=coords.copy())
    anchors = np.arange(6)
    zero_e = mean_distance_error(tm, tm, anchors)
    zero_etp = topology_preservation_error(scan_lines(layout), tm)
    h = all_pairs_hops(random_connected_graph(rng, 40))
    zero_em = hdm_mean_error(h.as_float(), h)
    zero_ea = hdm_absolute_error(h.as_float(), h)
    zeros_ok = zero_e == 0.0 and zero_etp == 0.0 and zero_em == 0.0 and zero_ea == 0.0

    other = PointCloud(coords=rng.uniform(0, 20, size=(60, 2)))
    theta = 0.7
    q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    base = mean_distance_error(other, tm, anchors)
    rot_a = mean_distance_error(PointCloud(coords=other.coords @ q), tm, anchors)
    rot_b = mean_distance_error(other, PointCloud(coords=tm.coords @ q.T), anchors)
    invariance = max(abs(rot_a - base), abs(rot_b - base))

    est = h.as_float() + rng.uniform(0, 1, size=(h.n, h.n))
    em, ea = hdm_mean_error(est, h), hdm_absolute_error(est, h)
    identity_rel = abs(ea - em * h.as_float().sum() / h.n**2) / ea

    ok = zeros_ok and invariance <= 1e-9 and identity_rel <= 1e-12
    _report(
        10,
        "metric identities",
        ok,
        f"zeros exact: {zeros_ok}, rotation invariance {invariance:.1e} (<=1e-9), "
        f"absolute-vs-mean identity {identity_rel:.1e} (<=1e-12 relative)",
    )
