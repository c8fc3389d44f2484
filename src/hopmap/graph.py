"""Undirected unweighted graphs, hop-distance matrices, and Laplacians.

Nodes are integers 0..n-1.  Unreachable node pairs are marked with the
``UNREACHABLE`` sentinel (-1), never with a large finite value; operations
that consume hop matrices reject the sentinel unless stated otherwise.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.sparse import csgraph, csr_matrix

UNREACHABLE = -1

# cells of one node x source block in a level sweep, and of one row x node
# block of distances in tpm.fill_from_neighbours (float64, a handful of
# arrays alive at once)
BLOCK_CELLS = 1 << 16


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable undirected graph on nodes 0..n-1.

    ``edges`` takes any array-like of index pairs and holds them as one
    read-only E x 2 int64 array of canonical rows (i, j), i < j, sorted,
    with duplicates and reversals collapsed. An index out of range or a
    self-loop raises ValueError naming the first bad pair.
    """

    n: int
    edges: np.ndarray

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"node count must be nonnegative, got {self.n}")
        pairs = np.asarray(self.edges, dtype=np.int64)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"edges must be index pairs, got shape {pairs.shape}")
        outside = ((pairs < 0) | (pairs >= self.n)).any(axis=1)
        bad = outside | (pairs[:, 0] == pairs[:, 1])
        if bad.any():
            first = int(np.argmax(bad))
            i, j = pairs[first].tolist()
            if outside[first]:
                raise ValueError(f"edge ({i}, {j}) out of range for n={self.n}")
            raise ValueError(f"self-loop at node {i}")
        rows = np.sort(pairs, axis=1)
        rows = rows[np.lexsort((rows[:, 1], rows[:, 0]))]
        keep = np.ones(len(rows), dtype=bool)
        keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        edges = rows[keep]
        edges.flags.writeable = False
        object.__setattr__(self, "edges", edges)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def degrees(self) -> np.ndarray:
        deg = np.diff(self.csr.indptr).astype(np.int64)
        deg.flags.writeable = False
        return deg

    def adjacency_matrix(self) -> np.ndarray:
        """Dense 0/1 adjacency matrix as float64."""
        return self.csr.toarray().astype(float)

    @cached_property
    def csr(self) -> csr_matrix:
        """Symmetric 0/1 adjacency in CSR form, column indices sorted."""
        i, j = self.edges.T
        rows, cols = np.concatenate([i, j]), np.concatenate([j, i])
        data = np.ones(len(rows), dtype=np.int8)
        a = csr_matrix((data, (rows, cols)), shape=(self.n, self.n))
        a.sort_indices()
        return a

    @cached_property
    def hops(self) -> np.ndarray:
        """All-pairs hop counts, UNREACHABLE where no path; read-only.

        Kept for as long as the graph lives (n^2 int64), so every
        traversal of an already studied graph reads its rows instead of
        searching again (see _hops_from).
        """
        h = np.zeros((0, 0), dtype=np.int64) if self.n == 0 else _hops_from(self, None)
        h.flags.writeable = False
        return h


@dataclass(frozen=True)
class HopDistanceMatrix:
    """Hop distances from every node to an ordered set of anchor nodes.

    ``hops[i, j]`` is the hop count between node i and node
    ``anchor_ids[j]``, UNREACHABLE (-1) when no path exists; the row of
    node i is its virtual coordinate vector. With every node an anchor
    (``anchor_ids`` 0..n-1) it is the all-pairs hop matrix: symmetric,
    zero diagonal, and entry 1 exactly on edges of the source graph.
    """

    hops: np.ndarray
    anchor_ids: tuple[int, ...]

    def __post_init__(self):
        if self.hops.ndim != 2 or self.hops.shape[1] != len(self.anchor_ids):
            raise ValueError("anchor column count mismatch")
        self.hops.flags.writeable = False

    @property
    def n(self) -> int:
        return self.hops.shape[0]

    def require_finite(self) -> None:
        if (self.hops == UNREACHABLE).any():
            raise ValueError("hop matrix contains unreachable pairs")

    def as_float(self) -> np.ndarray:
        """Float copy; rejects unreachable sentinels."""
        self.require_finite()
        return self.hops.astype(float)


def level_sweeps(g: Graph, sources=None):
    """Breadth-first hop levels and shortest-path counts from ``sources``
    (default every node), BLOCK_CELLS node x source cells at a time.

    Yields ``(block, level, sigma)`` per block of sources: ``level`` is the
    node x source int64 hop count, UNREACHABLE outside each source's
    component, and ``sigma`` the float64 number of shortest paths. Both
    come from one sparse product with the adjacency matrix per level (the
    forward half of Brandes 2001, batched as in Buluc & Gilbert 2011):
    path counts grow one hop level at a time, and a node not yet reached
    with a positive count from level k-1 is at level k.

    Every pass is unmasked: a boolean ``unseen`` block marks the nodes not
    yet reached, and each level adds it to the level count, so a node
    first reached at depth d ends with d.
    """
    sources = np.arange(g.n) if sources is None else np.asarray(sources, dtype=np.int64)
    a = g.csr.astype(float)
    step = max(1, BLOCK_CELLS // max(g.n, 1))
    for start in range(0, sources.size, step):
        block = sources[start : start + step]
        level = np.zeros((g.n, block.size), dtype=np.int64)
        unseen = np.ones((g.n, block.size), dtype=bool)
        unseen[block, np.arange(block.size)] = False
        sigma = (~unseen).astype(float)
        front = sigma  # sigma on the deepest level, zero elsewhere
        while True:
            prod = a @ front
            on = prod > 0
            on &= unseen
            if not on.any():
                break
            level += unseen
            unseen ^= on
            # counts are finite and nonnegative, so this is where(on, prod, 0)
            prod *= on
            front = prod
            sigma += front  # exact: sigma is zero where front is not
        level[unseen] = UNREACHABLE
        yield block, level, sigma


def _hops_from(g: Graph, sources) -> np.ndarray:
    """Hop counts from each source (rows, every node when ``sources`` is
    None) to every node; UNREACHABLE where no path. Rows of ``g.hops``
    once that is cached, otherwise the levels of one level sweep from just
    these sources. A sweep costs one sparse product per hop level: on
    Holme-Kim graphs it takes a quarter to two fifths of Dijkstra's CPU time,
    on long-diameter ones such as the concave layout (34 levels) 1.1 to
    1.4 times as much (see README)."""
    if "hops" in vars(g):
        return g.hops[sources]
    n_sources = g.n if sources is None else len(sources)
    hops = np.empty((n_sources, g.n), dtype=np.int64)
    start = 0
    for block, level, _ in level_sweeps(g, sources):
        hops[start : start + block.size] = level.T
        start += block.size
    return hops


def all_pairs_hops(g: Graph) -> HopDistanceMatrix:
    """Full hop-distance matrix, every node an anchor, sharing the
    graph's cached ``Graph.hops`` array."""
    return HopDistanceMatrix(g.hops, tuple(range(g.n)))


def anchor_hops(g: Graph, anchors: Sequence[int]) -> HopDistanceMatrix:
    """Hop distances to each anchor, one column per anchor.

    Anchors must be distinct, in range, and able to reach every node
    (a sentinel in the result would poison downstream numerics).
    """
    anchors = [int(a) for a in anchors]
    if len(set(anchors)) != len(anchors):
        raise ValueError("duplicate anchors")
    for a in anchors:
        if not 0 <= a < g.n:
            raise ValueError(f"anchor {a} out of range for n={g.n}")
    # row-major like the full hop matrix: float reductions over it downstream
    # sum in memory order
    hops = np.ascontiguousarray(_hops_from(g, anchors).T)
    unreached = (hops == UNREACHABLE).any(axis=0)
    if unreached.any():
        raise ValueError(f"anchor {anchors[int(np.argmax(unreached))]} cannot reach every node")
    return HopDistanceMatrix(hops, tuple(anchors))


def adjacency_from_hdm(h) -> Graph:
    """Recover the graph whose hop matrix is ``h``: edge iff entry 1.

    Accepts an integer HopDistanceMatrix or a real-valued (completed)
    array; real entries are rounded to the nearest integer first.
    Rejects negative entries (including unreachable sentinels) and
    asymmetric input.
    """
    arr = h.hops if isinstance(h, HopDistanceMatrix) else np.asarray(h, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected square matrix, got shape {arr.shape}")
    rounded = np.rint(arr).astype(np.int64)
    if (rounded < 0).any():
        raise ValueError("negative entries in hop matrix (unreachable sentinels?)")
    if (rounded != rounded.T).any():
        raise ValueError("hop matrix is not symmetric")
    return Graph(rounded.shape[0], np.argwhere(np.triu(rounded == 1, k=1)))


def graph_laplacian(g: Graph) -> np.ndarray:
    """L = D_row - A; rows sum to zero, positive semidefinite."""
    a = g.adjacency_matrix()
    return np.diag(a.sum(axis=1)) - a


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or csgraph.connected_components(g.csr, directed=False)[0] == 1
