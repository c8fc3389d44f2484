"""Independent reference implementations used only to check the library.

Everything here is deliberately brute-force, or an earlier version of a
rewritten routine kept to pin its exact outputs, and free of the code
paths under test.
"""
from __future__ import annotations

import math
from collections import deque

import numpy as np

from hopmap import graph
from hopmap.graph import UNREACHABLE, Graph
from hopmap.lowrank import (
    MU_GROWTH,
    MU_SCALE,
    CompletionConfig,
    CompletionResult,
    SvdFactors,
    _spectral_norm,
    _svt,
    svd,
)
from hopmap.netgen import gen_holme_kim
from hopmap.sampling import ObservedMatrix

INF = np.iinfo(np.int64).max // 4


def neighbours(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Sorted neighbour tuples, one per node, built from the edge set."""
    nbrs: list[list[int]] = [[] for _ in range(g.n)]
    for i, j in g.edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    return tuple(tuple(sorted(b)) for b in nbrs)


def floyd_warshall_hops(g: Graph) -> np.ndarray:
    """All-pairs hop counts by Floyd-Warshall; -1 where unreachable."""
    d = np.full((g.n, g.n), INF, dtype=np.int64)
    np.fill_diagonal(d, 0)
    for i, j in g.edges:
        d[i, j] = 1
        d[j, i] = 1
    for k in range(g.n):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    d[d >= INF] = -1
    return d


def triangle_violations(hops: np.ndarray) -> int:
    """Count triples (i, j, k), all finite, with h_ij > h_ik + h_kj."""
    h = hops.astype(np.int64)
    finite = h >= 0
    bad = 0
    for k in range(h.shape[0]):
        ok = finite & finite[:, k, None] & finite[None, k, :]
        bad += int(np.sum(ok & (h > h[:, k, None] + h[None, k, :])))
    return bad


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def grid_graph(rows: int, cols: int) -> Graph:
    def idx(r, c):
        return r * cols + c

    pairs = []
    for r in range(rows):
        for c in range(cols):
            if r + 1 < rows:
                pairs.append((idx(r, c), idx(r + 1, c)))
            if c + 1 < cols:
                pairs.append((idx(r, c), idx(r, c + 1)))
    return Graph(rows * cols, pairs)


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def cartesian_product(g1: Graph, g2: Graph) -> Graph:
    """Nodes (a, b) flattened as a * g2.n + b; edges on one factor at a time."""
    pairs = []
    for a in range(g1.n):
        for i, j in g2.edges:
            pairs.append((a * g2.n + i, a * g2.n + j))
    for b in range(g2.n):
        for i, j in g1.edges:
            pairs.append((i * g2.n + b, j * g2.n + b))
    return Graph(g1.n * g2.n, pairs)


def random_connected_graph(rng: np.random.Generator, n: int, extra_edge_frac: float = 0.5) -> Graph:
    """Random spanning tree plus extra random edges; connected by construction."""
    pairs = []
    order = rng.permutation(n)
    for k in range(1, n):
        attach = order[rng.integers(0, k)]
        pairs.append((int(order[k]), int(attach)))
    n_extra = int(extra_edge_frac * n)
    for _ in range(n_extra):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            pairs.append((int(i), int(j)))
    return Graph(n, pairs)


def random_graph_with_components(rng: np.random.Generator, sizes: list[int]) -> Graph:
    """Disjoint union of random connected graphs of the given sizes."""
    pairs = []
    offset = 0
    for size in sizes:
        sub = random_connected_graph(rng, size)
        pairs.extend((i + offset, j + offset) for i, j in sub.edges)
        offset += size
    return Graph(offset, pairs)


def sweep_test_graphs() -> list[Graph]:
    """Holme-Kim graphs (at n=300 the sources span several blocks of
    graph.BLOCK_CELLS), disjoint unions with singletons, the 40-node path
    (39 levels) and edgeless graphs."""
    rng = np.random.default_rng(41)
    return [
        gen_holme_kim(120, 2, 0.5, seed=1),
        gen_holme_kim(300, 2, 0.5, seed=3),
        *(random_graph_with_components(rng, [1, 2, 15, 30, 7]) for _ in range(3)),
        path_graph(40),
        Graph(1, []),
        Graph(4, []),
    ]


def brute_betweenness(g: Graph) -> np.ndarray:
    """Betweenness by enumerating every shortest path (tiny graphs only)."""
    h = floyd_warshall_hops(g)
    adj = neighbours(g)

    def all_shortest_paths(s, t):
        if h[s, t] < 0:
            return []
        paths = []
        stack = [(s, [s])]
        while stack:
            v, path = stack.pop()
            if v == t:
                paths.append(path)
                continue
            for w in adj[v]:
                if h[s, w] == len(path) and h[w, t] == h[s, t] - len(path):
                    stack.append((w, path + [w]))
        return paths

    cb = np.zeros(g.n)
    for s in range(g.n):
        for t in range(s + 1, g.n):
            paths = all_shortest_paths(s, t)
            if not paths:
                continue
            for path in paths:
                for v in path[1:-1]:
                    cb[v] += 1.0 / len(paths)
    return cb


def brandes_betweenness(g: Graph) -> np.ndarray:
    """Betweenness by Brandes (2001): one breadth-first search per source,
    dependencies accumulated in reverse discovery order."""
    cb = np.zeros(g.n)
    adj = neighbours(g)
    for s in range(g.n):
        stack = []
        preds: list[list[int]] = [[] for _ in range(g.n)]
        sigma = np.zeros(g.n)
        sigma[s] = 1.0
        dist = np.full(g.n, -1, dtype=np.int64)
        dist[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            stack.append(v)
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = np.zeros(g.n)
        while stack:
            w = stack.pop()
            for v in preds[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != s:
                cb[w] += delta[w]
    return cb / 2.0  # each undirected pair counted twice


def masked_level_sweeps(g: Graph, sources=None):
    """graph.level_sweeps as first written, every level pass masked: the
    int64 levels compared with UNREACHABLE, ``np.copyto(where=)`` and
    ``np.where``. Kept to pin the exact levels and path counts of the
    unmasked sweep; blocks the sources by graph.BLOCK_CELLS as read at
    call time, as the library does."""
    sources = np.arange(g.n) if sources is None else np.asarray(sources, dtype=np.int64)
    a = g.csr.astype(float)
    step = max(1, graph.BLOCK_CELLS // max(g.n, 1))
    for start in range(0, sources.size, step):
        block = sources[start : start + step]
        level = np.full((g.n, block.size), UNREACHABLE, dtype=np.int64)
        level[block, np.arange(block.size)] = 0
        sigma = (level == 0).astype(float)
        front, depth = sigma, 0
        while True:
            prod = a @ front
            on = (prod > 0) & (level == UNREACHABLE)
            if not on.any():
                break
            depth += 1
            np.copyto(level, depth, where=on)
            front = np.where(on, prod, 0.0)
            sigma += front
        yield block, level, sigma


def masked_hops_from(g: Graph, sources=None) -> np.ndarray:
    """Source x node hop counts from masked_level_sweeps."""
    levels = [level.T for _, level, _ in masked_level_sweeps(g, sources)]
    return np.concatenate(levels) if levels else np.zeros((0, g.n), dtype=np.int64)


def masked_betweenness(g: Graph) -> np.ndarray:
    """sampling._betweenness as first written, its backward pass masked
    (``np.divide(where=)``, ``np.copyto(where=)``), over
    masked_level_sweeps. Kept to pin the exact scores."""
    cb = np.zeros(g.n)
    a = g.csr.astype(float)
    for _, level, sigma in masked_level_sweeps(g):
        delta = np.zeros_like(sigma)
        for k in range(int(level.max()), 1, -1):
            w = np.divide(1.0 + delta, sigma, out=np.zeros_like(sigma), where=level == k)
            np.copyto(delta, sigma * (a @ w), where=level == k - 1)
        cb += delta.sum(axis=1)
    return cb / 2.0


def validate_svd_factors(f: SvdFactors, m: np.ndarray | None = None) -> None:
    """Raise ValueError unless f has orthonormal factors and descending,
    nonnegative singular values, and reconstructs m to 1e-6 when given."""
    eye = np.eye(f.s.size)
    if not np.allclose(f.u.T @ f.u, eye, atol=1e-8):
        raise ValueError("left singular vectors not orthonormal")
    if not np.allclose(f.v.T @ f.v, eye, atol=1e-8):
        raise ValueError("right singular vectors not orthonormal")
    if np.any(np.diff(f.s) > 0) or np.any(f.s < 0):
        raise ValueError("singular values not descending and nonnegative")
    if m is not None:
        err = np.linalg.norm(f.reconstruct() - m)
        denom = np.linalg.norm(m)
        if denom > 0 and err > 1e-6 * denom:
            raise ValueError(f"reconstruction error {err / denom:.3e} above 1e-6")


def matrix_rank(m: np.ndarray) -> int:
    return svd(m).rank


def naive_complete_nuclear_norm(
    o: ObservedMatrix, cfg: CompletionConfig | None = None
) -> CompletionResult:
    """The IALM loop of lowrank.complete_nuclear_norm on dense n x n
    arrays: multipliers, step input and misfit all formed by np.where over
    the whole matrix, a fresh step input each iteration. Takes a valid
    observation whose mask is neither empty nor full."""
    cfg = cfg or CompletionConfig()
    mask = o.mask
    d = np.where(mask, o.values, 0.0)
    obs_norm = np.linalg.norm(d)
    mu = MU_SCALE / _spectral_norm(d)
    rng = np.random.default_rng(np.random.SeedSequence(0x5EED))
    a = np.zeros_like(d)
    y = np.zeros_like(d)
    residuals, nuclears, ranks = [], [], []
    rank_guess = 10
    v = None
    converged = False
    for it in range(1, cfg.max_iters + 1):
        a, n_kept, nuclear, v = _svt(np.where(mask, d + y / mu, a), 1.0 / mu, rank_guess, rng, v)
        rank_guess = n_kept + 5
        ranks.append(n_kept)
        gap = np.where(mask, d - a, 0.0)
        # the misfit on the observed entries, in row-major order
        residuals.append(float(np.linalg.norm(gap[mask]) / obs_norm))
        nuclears.append(nuclear)
        if residuals[-1] <= cfg.tolerance:
            converged = True
            break
        y += mu * gap
        mu *= MU_GROWTH
    if o.symmetric:
        a = 0.5 * (a + a.T)
    return CompletionResult(
        completed=a,
        iterations=it,
        final_residual=residuals[-1],
        converged=converged,
        residual_trace=tuple(residuals),
        nuclear_trace=tuple(nuclears),
        rank_trace=tuple(ranks),
    )


def naive_partial_center(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Partial double centering of squared values via explicit loops."""
    n, m = values.shape
    sq = values * values
    col_mean = np.zeros(m)
    row_mean = np.zeros(n)
    total, count = 0.0, 0
    for j in range(m):
        obs = [sq[i, j] for i in range(n) if mask[i, j]]
        col_mean[j] = sum(obs) / len(obs)
    for i in range(n):
        obs = [sq[i, j] for j in range(m) if mask[i, j]]
        row_mean[i] = sum(obs) / len(obs)
        total += sum(obs)
        count += len(obs)
    grand = total / count
    out = np.zeros_like(values, dtype=float)
    for i in range(n):
        for j in range(m):
            if mask[i, j]:
                out[i, j] = -0.5 * (sq[i, j] - row_mean[i] - col_mean[j] + grand)
    return out


def naive_geodesic_bounds(values: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds on every entry of a node x anchor hop matrix, entry by entry
    as tpm.geodesic_bounds' docstring states them.

    h(a,b) lies in [max |h(i,a) - h(i,b)|, min h(i,a) + h(i,b)] over the
    nodes i observing both anchors ([0, inf) when none does, h(a,a) = 0);
    the upper bounds are closed by Floyd-Warshall. A missing h(i,j) takes
    the max of h(i,a) - hi(a,j) and lo(a,j) - h(i,a), at least 0, and the
    min of h(i,a) + hi(a,j) over the anchors a that node i observes; an
    observed entry is its observation.
    """
    n, m = mask.shape
    lo = np.zeros((m, m))
    hi = np.full((m, m), np.inf)
    for a in range(m):
        for b in range(m):
            both = [i for i in range(n) if mask[i, a] and mask[i, b]]
            if both:
                lo[a, b] = max(abs(values[i, a] - values[i, b]) for i in both)
                hi[a, b] = min(values[i, a] + values[i, b] for i in both)
        hi[a, a] = 0.0
    for c in range(m):
        for a in range(m):
            for b in range(m):
                hi[a, b] = min(hi[a, b], hi[a, c] + hi[c, b])
    lower = np.zeros((n, m))
    upper = np.full((n, m), np.inf)
    for i in range(n):
        for j in range(m):
            if mask[i, j]:
                lower[i, j] = upper[i, j] = values[i, j]
                continue
            for a in range(m):
                if mask[i, a]:
                    lower[i, j] = max(lower[i, j], values[i, a] - hi[a, j], lo[a, j] - values[i, a])
                    upper[i, j] = min(upper[i, j], values[i, a] + hi[a, j])
    return lower, upper


def naive_neighbour_fill(
    values: np.ndarray,
    mask: np.ndarray,
    estimate: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    neighbours: int,
    rounds: int,
) -> np.ndarray:
    """Nearest-observer fill of the missing entries, one entry at a time.

    Each round replaces every missing (i, j) by the mean observed value in
    column j of the `neighbours` nodes observing j whose current rows are
    nearest to node i's observed entries, clipped to [lower, upper].
    """
    h = np.where(mask, values, np.clip(estimate, lower, upper))
    n, m = h.shape
    for _ in range(rounds):
        nxt = h.copy()
        for i in range(n):
            obs = np.flatnonzero(mask[i])
            for j in range(m):
                if mask[i, j]:
                    continue
                cand = [l for l in range(n) if mask[l, j]]
                dist = [float(((h[l, obs] - values[i, obs]) ** 2).sum()) for l in cand]
                order = sorted(range(len(cand)), key=lambda c: dist[c])[:neighbours]
                mean = sum(values[cand[c], j] for c in order) / len(order)
                nxt[i, j] = min(max(mean, lower[i, j]), upper[i, j])
        h = nxt
    return h


def blocked_neighbour_fill(
    values: np.ndarray,
    mask: np.ndarray,
    estimate: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    neighbours: int,
    rounds: int,
    block_cells: int,
) -> tuple[np.ndarray, int]:
    """The neighbour fill as it was before its per-column gather: each row
    block gathers the observations of its k nearest nodes for every column
    (rows x k x m), and an entry short of observers there ranks all
    observers of its column from its row's distances to them alone.

    It makes the same ranking calls on the same row blocks as
    tpm.fill_from_neighbours (block_cells // n rows), and computes the
    short entries' distances with the same products over the same rows
    (all short rows of a column at once), so tied distances resolve alike
    and the two agree bit for bit. Returns the filled matrix and the number
    of entries that went through the all-observers search, over all rounds.
    """
    h = np.where(mask, values, np.clip(estimate, lower, upper))
    if mask.all():
        return h, 0
    n, m = h.shape
    w = mask.astype(float)
    take = np.minimum(neighbours, mask.sum(axis=0))
    k = min(n, math.ceil(2 * neighbours / mask.mean(axis=0).min()))
    step = max(1, block_cells // n)
    rows_missing = np.flatnonzero(~mask.all(axis=1))
    short_entries = 0
    for _ in range(rounds):
        sq_t, h_t = (h * h).T, h.T
        nxt = h.copy()
        short = np.zeros(h.shape, dtype=bool)
        for start in range(0, rows_missing.size, step):
            rows = rows_missing[start : start + step]
            d = w[rows] @ sq_t - 2.0 * values[rows] @ h_t
            near = np.argpartition(d, k - 1, axis=1)[:, :k]
            order = np.argsort(np.take_along_axis(d, near, axis=1), axis=1)
            near = np.take_along_axis(near, order, axis=1)
            seen = mask[near]  # rows x k x m, nearest first
            used = seen & (np.cumsum(seen, axis=1, dtype=np.int32) <= neighbours)
            got = used.sum(axis=1, dtype=np.int32)
            nxt[rows] = np.where(used, values[near], 0.0).sum(axis=1) / np.maximum(got, 1)
            short[rows] = (got < take) & ~mask[rows]
        for j in range(m):
            rs = np.flatnonzero(short[:, j])
            if rs.size == 0:
                continue
            cand = np.flatnonzero(mask[:, j])
            d = w[rs] @ sq_t[:, cand] - 2.0 * values[rs] @ h_t[:, cand]
            for r, dr in zip(rs, d):
                nearest = cand[np.argpartition(dr, take[j] - 1)[: take[j]]]
                nxt[r, j] = values[nearest, j].mean()
                short_entries += 1
        h = np.where(mask, values, np.clip(nxt, lower, upper))
    return h, short_entries


def naive_topology_preservation_error(
    layout: np.ndarray, coords: np.ndarray, bin_width: float = 1.0
) -> float:
    """E_TP over every ordered pair and every axis transform, one at a time.

    A line groups the nodes whose binned cross coordinate agrees. For
    each ordered pair (a, b) on a line, the node that comes first along
    the line (smaller coordinate, then smaller index) must also come
    strictly first on the transformed map axis; otherwise the pair is
    out of order. Returns the smallest fraction over the 8 transforms.
    """
    n = layout.shape[0]
    lines = []
    # horizontal lines bin y and run along x (map axis 0), vertical the reverse
    for cross, along in ((1, 0), (0, 1)):
        bins: dict[float, list[int]] = {}
        for v in range(n):
            bins.setdefault(round(float(layout[v, cross]) / bin_width), []).append(v)
        lines += [(nodes, along) for nodes in bins.values() if len(nodes) >= 2]
    best = None
    for swap in (False, True):
        for sx in (1, -1):
            for sy in (1, -1):
                def mapped(v, axis):
                    x, y = float(coords[v, 0]), float(coords[v, 1])
                    if swap:
                        return sx * y if axis == 0 else sy * x
                    return sx * x if axis == 0 else sy * y

                bad = pairs = 0
                for nodes, axis in lines:
                    for a in nodes:
                        for b in nodes:
                            if a == b:
                                continue
                            pairs += 1
                            first, second = sorted((a, b), key=lambda v: (layout[v, axis], v))
                            if mapped(first, axis) >= mapped(second, axis):
                                bad += 1
                score = bad / pairs
                best = score if best is None else min(best, score)
    return best


def naive_t_cylinder_points() -> np.ndarray:
    """gen_t_cylinder_3d's points before their noise, built point by point:
    the bar's rings along x, then the stem's along z over the bar's middle,
    less the stem points inside the bar and the bar points in the hole."""
    radius, bar_length, stem_length, ring_points = 3.0, 40, 26, 19
    theta = 2.0 * np.pi * np.arange(ring_points) / ring_points
    xc = bar_length / 2.0
    bar, stem = [], []
    for x in range(bar_length + 1):
        for t in theta:
            y, z = radius * math.cos(t), radius * math.sin(t)
            if not ((x - xc) ** 2 + y ** 2 < radius ** 2 and z > 0):
                bar.append((float(x), y, z))
    for z in range(stem_length + 1):
        for t in theta:
            x, y = xc + radius * math.cos(t), radius * math.sin(t)
            if y ** 2 + z ** 2 > radius ** 2:
                stem.append((x, y, float(z)))
    return np.array(bar + stem)
