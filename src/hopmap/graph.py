"""Undirected unweighted graphs, hop-distance matrices, and Laplacians.

Nodes are integers 0..n-1.  Unreachable node pairs are marked with the
``UNREACHABLE`` sentinel (-1), never with a large finite value; operations
that consume hop matrices reject the sentinel unless stated otherwise.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csgraph, csr_matrix

UNREACHABLE = -1


@dataclass(frozen=True)
class Graph:
    """Immutable undirected graph: node count plus unordered edge pairs.

    Edges are stored canonically as (i, j) with i < j.  Use
    :meth:`from_edge_list` to build one from raw, possibly messy input.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    @classmethod
    def from_edge_list(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from index pairs; duplicates and reversals collapse.

        Raises ValueError on out-of-range indices or self-loops.
        """
        if n < 0:
            raise ValueError(f"node count must be nonnegative, got {n}")
        edges = set()
        for i, j in pairs:
            i, j = int(i), int(j)
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            edges.add((i, j) if i < j else (j, i))
        return cls(n=n, edges=frozenset(edges))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor tuples, one per node."""
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.edges:
            nbrs[i].append(j)
            nbrs[j].append(i)
        return tuple(tuple(sorted(b)) for b in nbrs)

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
        if not self.edges:
            return csr_matrix((self.n, self.n), dtype=np.int8)
        ij = np.array(sorted(self.edges), dtype=np.int64)
        rows = np.concatenate([ij[:, 0], ij[:, 1]])
        cols = np.concatenate([ij[:, 1], ij[:, 0]])
        data = np.ones(len(rows), dtype=np.int8)
        a = csr_matrix((data, (rows, cols)), shape=(self.n, self.n))
        a.sort_indices()
        return a


@dataclass(frozen=True)
class HopDistanceMatrix:
    """n x n matrix of shortest-path lengths in hops.

    ``hops[i, j]`` is the hop count between i and j, UNREACHABLE (-1) when
    no path exists.  Symmetric, zero diagonal, and entry 1 exactly on edges
    of the source graph.
    """

    hops: np.ndarray

    def __post_init__(self):
        h = self.hops
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError(f"hop matrix must be square, got shape {h.shape}")
        h.flags.writeable = False

    @property
    def n(self) -> int:
        return self.hops.shape[0]

    @property
    def fully_finite(self) -> bool:
        return bool((self.hops != UNREACHABLE).all())

    def require_finite(self) -> None:
        if not self.fully_finite:
            raise ValueError("hop matrix contains unreachable pairs")

    def as_float(self) -> np.ndarray:
        """Float copy; rejects unreachable sentinels."""
        self.require_finite()
        return self.hops.astype(float)


@dataclass(frozen=True)
class VcMatrix:
    """Hop distances from every node to an ordered set of anchor nodes.

    Column j equals column ``anchor_ids[j]`` of the full hop matrix; the
    row of node i is its virtual coordinate vector.
    """

    hops: np.ndarray
    anchor_ids: tuple[int, ...]

    def __post_init__(self):
        if self.hops.ndim != 2 or self.hops.shape[1] != len(self.anchor_ids):
            raise ValueError("anchor column count mismatch")
        self.hops.flags.writeable = False

    @property
    def n_nodes(self) -> int:
        return self.hops.shape[0]

    @property
    def n_anchors(self) -> int:
        return self.hops.shape[1]

    def as_float(self) -> np.ndarray:
        return self.hops.astype(float)


def _hops_from(g: Graph, sources) -> np.ndarray:
    """Hop counts from each source (rows) to every node; UNREACHABLE where
    no path."""
    d = csgraph.shortest_path(
        g.csr, method="D", directed=False, unweighted=True, indices=sources
    )
    return np.where(np.isfinite(d), d, UNREACHABLE).astype(np.int64)


def bfs_hops(g: Graph, source: int) -> np.ndarray:
    """Hop counts from ``source`` to every node; UNREACHABLE where no path."""
    if not (0 <= source < g.n):
        raise ValueError(f"source {source} out of range for n={g.n}")
    return _hops_from(g, [source])[0]


def all_pairs_hops(g: Graph) -> HopDistanceMatrix:
    """Full hop-distance matrix (equivalent to stacking bfs_hops rows)."""
    if g.n == 0:
        return HopDistanceMatrix(np.zeros((0, 0), dtype=np.int64))
    return HopDistanceMatrix(_hops_from(g, None))


def anchor_hops(g: Graph, anchors: Sequence[int]) -> VcMatrix:
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
    return VcMatrix(hops=hops, anchor_ids=tuple(anchors))


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
    n = rounded.shape[0]
    ii, jj = np.nonzero(np.triu(rounded == 1, k=1))
    return Graph(n=n, edges=frozenset(zip(ii.tolist(), jj.tolist())))


def graph_laplacian(g: Graph) -> np.ndarray:
    """L = D_row - A; rows sum to zero, positive semidefinite."""
    a = g.adjacency_matrix()
    return np.diag(a.sum(axis=1)) - a


def connected_components(g: Graph) -> list[list[int]]:
    """Maximal connected node sets, each sorted, ordered by smallest member."""
    _, labels = csgraph.connected_components(g.csr, directed=False)
    _, first = np.unique(labels, return_index=True)
    return [np.flatnonzero(labels == labels[i]).tolist() for i in np.sort(first)]


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(connected_components(g)) == 1
