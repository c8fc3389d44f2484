"""Topology coordinates and topology-preserving maps from anchor distances."""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import graph
from .graph import HopDistanceMatrix
from .lowrank import (
    CompletionConfig,
    CompletionResult,
    complete_nuclear_norm,
    double_center_full,
    double_center_partial,  # noqa: F401  bound here for perfbench's lowrank.center span
    svd,
)
from .netgen import PointCloud
from .sampling import ObservedMatrix


class CompletionFailure(RuntimeError):
    """Completion hit its iteration cap before reaching tolerance."""

    def __init__(self, result: CompletionResult):
        self.result = result
        super().__init__(
            f"completion stopped at iteration {result.iterations} with "
            f"residual {result.final_residual:.3e}"
        )


def require_converged(res: CompletionResult) -> CompletionResult:
    """res, when its solve reached tolerance; raises CompletionFailure
    carrying it when the solve hit its iteration cap instead."""
    if not res.converged:
        raise CompletionFailure(res)
    return res


# geodesic recovery: each missing hop becomes the mean over this many
# best-matching nodes that observed it, re-estimated this many times. Each
# round ranks the nearest nodes of every incomplete row a block of step
# rows at a time, step x n distances a block, keeping the rows x n distances
# for the entries that must rank all observers; it then estimates column by
# column, gathering only for the rows that miss the column. The step is
# graph.BLOCK_CELLS // max(n, k*m): the k*m term (k ranked nodes, m
# columns) sizes no array and stays only to keep the row blocks where they
# were, and with them every distance bit for bit: BLAS orders a product's
# sums by its row count, and a distance one bit off can reorder tied nodes.
NEIGHBOURS = 5
NEIGHBOUR_ROUNDS = 3


def geodesic_bounds(o: ObservedMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds on every entry of a node x anchor hop matrix
    that follow from its observed entries alone.

    Hops are graph geodesics, so each node i that observes anchors a and b
    bounds their distance: |h(i,a) - h(i,b)| <= h(a,b) <= h(i,a) + h(i,b).
    The upper anchor bounds are closed under the triangle inequality, and
    each missing h(i,j) is then bounded through every anchor a that node i
    observes, |h(i,a) - h(a,j)| <= h(i,j) <= h(i,a) + h(a,j), with h(a,j)
    known only within its bounds. Both bounds equal the observation on
    observed entries; an entry that no observation reaches keeps the
    bounds [0, inf).
    """
    mask = o.mask
    n, m = mask.shape
    # missing entries drop out of every maximum (below) and minimum (above)
    below = np.where(mask, o.values, -np.inf)
    above = np.where(mask, o.values, np.inf)
    lo = np.empty((m, m))
    hi = np.empty((m, m))
    for a in range(m):
        lo[a] = (below[:, a, None] - above).max(axis=0, initial=0.0)
        hi[a] = (above[:, a, None] + above).min(axis=0, initial=np.inf)
    lo = np.maximum(lo, lo.T)
    np.fill_diagonal(hi, 0.0)
    for c in range(m):
        hi = np.minimum(hi, hi[:, c : c + 1] + hi[c : c + 1, :])

    lower = np.zeros((n, m))
    upper = np.full((n, m), np.inf)
    for a in range(m):
        np.maximum(lower, below[:, a, None] - hi[a], out=lower)
        np.maximum(lower, lo[a] - above[:, a, None], out=lower)
        np.minimum(upper, above[:, a, None] + hi[a], out=upper)
    lower[mask] = upper[mask] = o.values[mask]
    return lower, upper


def fill_from_neighbours(
    o: ObservedMatrix, estimate: np.ndarray, lower: np.ndarray, upper: np.ndarray
) -> np.ndarray:
    """Re-estimate the missing entries of a node x anchor hop matrix from
    the nodes that look most alike: nodes whose hops agree sit in the same
    place, so they share their hops to the other anchors.

    Starting from estimate clipped into [lower, upper], each of
    NEIGHBOUR_ROUNDS rounds replaces every missing h(i,j) by the mean of
    the observed h(l,j) over the NEIGHBOURS nodes l observing j whose
    current rows are closest, in squared distance, to node i's observed
    entries (fewer when fewer nodes observe j), clipped to the bounds
    again. Observed entries are never changed; a fully observed input
    comes back as its observations.
    """
    mask, v = o.mask, o.values
    h = np.where(mask, v, np.clip(estimate, lower, upper))
    if mask.all():
        return h
    n, m = h.shape
    w = mask.astype(float)
    take = np.minimum(NEIGHBOURS, mask.sum(axis=0))
    # rank only the nearest nodes of each row, about twice as many as hold
    # NEIGHBOURS observers of the sparsest column; an entry short of them
    # then ranks all observers of its column
    k = min(n, math.ceil(2 * NEIGHBOURS / mask.mean(axis=0).min()))
    step = max(1, graph.BLOCK_CELLS // max(n, k * m))
    rows_missing = np.flatnonzero(~mask.all(axis=1))
    # per round: the ranked nodes of each incomplete row, nearest first down
    # a column, and the row's distances to every node for its short entries
    near = np.empty((k, rows_missing.size), dtype=np.intp)
    dist = np.empty((rows_missing.size, n))
    product = np.empty((min(step, rows_missing.size), n))
    observed_t, values_t = mask.T.copy(), v.T.copy()
    # for each column, the places in rows_missing of the rows that miss it
    missing_t = ~mask[rows_missing].T
    at = [np.flatnonzero(missing_t[j]) for j in range(m)]
    for _ in range(NEIGHBOUR_ROUNDS):
        sq_t, h_t = (h * h).T, h.T
        for start in range(0, rows_missing.size, step):
            rows = rows_missing[start : start + step]
            # sum over node i's observed a of (h(l,a) - h(i,a))^2, less a per-row
            # constant: w[rows] @ sq_t - 2.0 * v[rows] @ h_t, the same products
            # of the same operands, written into the table, not new arrays
            d, p = dist[start : start + step], product[: rows.size]
            np.matmul(w[rows], sq_t, out=d)
            np.matmul(2.0 * v[rows], h_t, out=p)
            d -= p
            ranked = np.argpartition(d, k - 1, axis=1)[:, :k]
            order = np.argsort(np.take_along_axis(d, ranked, axis=1), axis=1)
            near[:, start : start + step] = np.take_along_axis(ranked, order, axis=1).T
        nxt = h.copy()
        for j in range(m):
            nb = near[:, at[j]]  # k x rows missing j
            count = np.cumsum(observed_t[j][nb], axis=0, dtype=np.int32)
            got = np.minimum(count[-1], NEIGHBOURS)
            # values are zero off the mask, so the sum up to the NEIGHBOURS-th
            # observer adds exactly the observers' hops, nearest first
            est = np.sum(values_t[j][nb], axis=0, where=count <= NEIGHBOURS)
            est /= np.maximum(got, 1)
            short = np.flatnonzero(got < take[j])
            if short.size:
                cand = np.flatnonzero(observed_t[j])
                d = dist[np.ix_(at[j][short], cand)]
                nearest = cand[np.argpartition(d, take[j] - 1, axis=1)[:, : take[j]]]
                est[short] = values_t[j][nearest].mean(axis=1)
            nxt[rows_missing[at[j]], j] = est
        h = np.where(mask, v, np.clip(nxt, lower, upper))
    return h


def complete_anchor_hops(
    o: ObservedMatrix, cfg: CompletionConfig | None = None
) -> CompletionResult:
    """Complete a partial node x anchor hop matrix: the minimum-nuclear-norm
    extension, clipped into the geodesic bounds and refined from
    like-placed nodes (see geodesic_bounds and fill_from_neighbours).

    Returns the nuclear-norm solve's result, its iterations and traces,
    with completed replaced by the refined matrix. Observed entries come
    back exactly as observed, and a fully observed input as is. Raises
    CompletionFailure when the nuclear-norm solve does not converge.
    """
    res = require_converged(complete_nuclear_norm(o, cfg))
    if o.mask.all():
        return res
    lower, upper = geodesic_bounds(o)
    return replace(res, completed=fill_from_neighbours(o, res.completed, lower, upper))


def _check_k(m: int, k: int) -> None:
    if k not in (2, 3):
        raise ValueError("map dimension k must be 2 or 3")
    if m <= k:
        raise ValueError(f"need more than {k} anchor columns, got {m}")


def p_completion_map(hops: np.ndarray, k: int = 2) -> PointCloud:
    """Map coordinates from a complete anchor-distance matrix: columns
    2..k+1 of U Sigma (the leading column carries no shape information
    and is dropped)."""
    _check_k(hops.shape[1], k)
    f = svd(hops)
    coords = (f.u * f.s)[:, 1 : k + 1]
    return PointCloud(coords=coords.copy())


def grammian_map(hops: np.ndarray, k: int = 2) -> PointCloud:
    """Map coordinates from a complete anchor-distance matrix by classical
    scaling: double-center the squared distances over all entries and take
    the first k columns of U Sigma."""
    _check_k(hops.shape[1], k)
    f = svd(double_center_full(hops * hops))
    coords = (f.u * f.s)[:, :k]
    return PointCloud(coords=coords.copy())


# procedure name -> map extraction from a completed anchor-distance matrix
MAP_EXTRACTORS = {"grammian": grammian_map, "p-completion": p_completion_map}


def tpm_full_vc(p: HopDistanceMatrix, k: int = 2) -> PointCloud:
    """The p-completion map of the full anchor-distance matrix."""
    return p_completion_map(p.hops.astype(float), k)


def tpm_via_p_completion(
    o: ObservedMatrix, k: int = 2, cfg: CompletionConfig | None = None
) -> PointCloud:
    """Complete the partial anchor-distance matrix (complete_anchor_hops),
    then take columns 2..k+1 of U Sigma. With nothing deleted this is
    exactly tpm_full_vc."""
    _check_k(o.shape[1], k)
    return p_completion_map(complete_anchor_hops(o, cfg).completed, k)


def tpm_via_grammian(
    o: ObservedMatrix, k: int = 2, cfg: CompletionConfig | None = None
) -> PointCloud:
    """Complete the partial anchor-distance matrix (complete_anchor_hops),
    then double-center its square over all entries and take the first k
    columns of U Sigma. Centering after completion keeps the row and column
    means free of the sampling noise of means over observed entries."""
    _check_k(o.shape[1], k)
    return grammian_map(complete_anchor_hops(o, cfg).completed, k)


@dataclass(frozen=True)
class AlignmentTransform:
    rotation: np.ndarray  # k x k orthogonal, reflections allowed
    scale: float
    residual: float


def align_maps(a: PointCloud, b: PointCloud) -> tuple[PointCloud, AlignmentTransform]:
    """Orthogonal-plus-uniform-scale registration of map a onto map b (or
    onto a layout) minimizing the sum of squared point distances."""
    if a.coords.shape != b.coords.shape:
        raise ValueError("maps must share n and k")
    if np.allclose(a.coords, a.coords[0]) or np.allclose(b.coords, b.coords[0]):
        raise ValueError("degenerate map: all points coincide")
    # orthogonal Procrustes: rotation from the SVD of the cross-covariance
    u, s, vt = np.linalg.svd(a.coords.T @ b.coords)
    rot = u @ vt
    scale = float(s.sum() / (a.coords ** 2).sum())
    moved = scale * a.coords @ rot
    residual = float(np.linalg.norm(moved - b.coords))
    return PointCloud(coords=moved), AlignmentTransform(
        rotation=rot, scale=scale, residual=residual
    )

