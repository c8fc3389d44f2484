"""Topology coordinates and topology-preserving maps from anchor distances."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import graph
from .graph import VcMatrix
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


# geodesic recovery: each missing hop becomes the mean over this many
# best-matching nodes that observed it, re-estimated this many times; the
# per-node intermediates are built a block of rows at a time, with at most
# graph.BLOCK_CELLS cells per block
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
    below = np.where(mask, o.values, -np.inf)[:, :, None]
    above = np.where(mask, o.values, np.inf)[:, :, None]
    step = max(1, graph.BLOCK_CELLS // (m * m))
    lo = np.zeros((m, m))
    hi = np.full((m, m), np.inf)
    for start in range(0, n, step):
        b = below[start : start + step]
        a = above[start : start + step]
        lo = np.maximum(lo, (b - a.transpose(0, 2, 1)).max(axis=0))
        hi = np.minimum(hi, (a + a.transpose(0, 2, 1)).min(axis=0))
    lo = np.maximum(lo, lo.T)
    np.fill_diagonal(hi, 0.0)
    for c in range(m):
        hi = np.minimum(hi, hi[:, c : c + 1] + hi[c : c + 1, :])

    lower = np.empty((n, m))
    upper = np.empty((n, m))
    for start in range(0, n, step):
        rows = slice(start, start + step)
        b, a = below[rows], above[rows]
        lower[rows] = np.maximum((b - hi).max(axis=1), (lo - a).max(axis=1))
        upper[rows] = (a + hi).min(axis=1)
    np.maximum(lower, 0.0, out=lower)
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
    for _ in range(NEIGHBOUR_ROUNDS):
        sq_t, h_t = (h * h).T, h.T
        nxt = h.copy()
        for start in range(0, rows_missing.size, step):
            rows = rows_missing[start : start + step]
            # sum over node i's observed a of (h(l,a) - h(i,a))^2, less a per-row constant
            d = w[rows] @ sq_t - 2.0 * v[rows] @ h_t
            near = np.argpartition(d, k - 1, axis=1)[:, :k]
            order = np.argsort(np.take_along_axis(d, near, axis=1), axis=1)
            near = np.take_along_axis(near, order, axis=1)
            seen = mask[near]  # rows x k x m, nearest first
            used = seen & (np.cumsum(seen, axis=1, dtype=np.int32) <= NEIGHBOURS)
            got = used.sum(axis=1, dtype=np.int32)
            est = np.where(used, v[near], 0.0).sum(axis=1) / np.maximum(got, 1)
            for r, j in zip(*np.nonzero((got < take) & ~mask[rows])):
                cand = np.flatnonzero(mask[:, j])
                nearest = cand[np.argpartition(d[r, cand], take[j] - 1)[: take[j]]]
                est[r, j] = v[nearest, j].mean()
            nxt[rows] = est
        h = np.where(mask, v, np.clip(nxt, lower, upper))
    return h


def complete_anchor_hops(
    o: ObservedMatrix, cfg: CompletionConfig | None = None
) -> np.ndarray:
    """Complete a partial node x anchor hop matrix: the minimum-nuclear-norm
    extension, clipped into the geodesic bounds and refined from
    like-placed nodes (see geodesic_bounds and fill_from_neighbours).

    Observed entries are returned exactly as observed, and a fully observed
    input is returned as is. Symmetric-mode observations of a whole hop
    matrix (every node an anchor) get the nuclear-norm completion alone:
    with a fifth or more of all pairs observed it is already closer than
    the neighbour fill, which would also break the symmetry. Raises
    CompletionFailure when the nuclear-norm solve does not converge.
    """
    res = complete_nuclear_norm(o, cfg)
    if not res.converged:
        raise CompletionFailure(res)
    if o.symmetric or o.mask.all():
        return res.completed
    lower, upper = geodesic_bounds(o)
    return fill_from_neighbours(o, res.completed, lower, upper)


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


def tpm_full_vc(p: VcMatrix, k: int = 2) -> PointCloud:
    """The p-completion map of the full anchor-distance matrix."""
    return p_completion_map(p.hops.astype(float), k)


def tpm_via_p_completion(
    o: ObservedMatrix, k: int = 2, cfg: CompletionConfig | None = None
) -> PointCloud:
    """Complete the partial anchor-distance matrix (complete_anchor_hops),
    then take columns 2..k+1 of U Sigma. With nothing deleted this is
    exactly tpm_full_vc."""
    _check_k(o.shape[1], k)
    return p_completion_map(complete_anchor_hops(o, cfg), k)


def tpm_via_grammian(
    o: ObservedMatrix, k: int = 2, cfg: CompletionConfig | None = None
) -> PointCloud:
    """Complete the partial anchor-distance matrix (complete_anchor_hops),
    then double-center its square over all entries and take the first k
    columns of U Sigma. Centering after completion keeps the row and column
    means free of the sampling noise of means over observed entries."""
    _check_k(o.shape[1], k)
    return grammian_map(complete_anchor_hops(o, cfg), k)


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

