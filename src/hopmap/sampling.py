"""Partial observation of hop matrices: anchor selection, deletions, masks."""
from __future__ import annotations

import csv
import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import Graph, HopDistanceMatrix, VcMatrix, all_pairs_hops
from .seeding import spawn_rng

STRATEGIES = ("random", "degree", "closeness", "betweenness")


@dataclass(frozen=True)
class AnchorSelection:
    strategy: str = "random"
    m: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; choose from {STRATEGIES}")
        if self.m < 1:
            raise ValueError("anchor count must be >= 1")


@dataclass(frozen=True)
class ObservedMatrix:
    """Real matrix known only on an observation mask.

    ``values`` outside the mask are meaningless (kept zero by the
    constructors here).  ``symmetric`` marks symmetric-mode observations
    of a square matrix: the mask and values mirror across the diagonal
    and the diagonal itself is observed.
    """

    values: np.ndarray
    mask: np.ndarray
    symmetric: bool = False
    seed: int | None = None

    def __post_init__(self):
        if self.values.shape != self.mask.shape:
            raise ValueError("values and mask shapes differ")
        self.values.flags.writeable = False
        self.mask.flags.writeable = False

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @property
    def n_observed(self) -> int:
        return int(self.mask.sum())

    @property
    def coverage(self) -> float:
        return self.n_observed / self.mask.size


@dataclass(frozen=True)
class MaskReport:
    empty_rows: tuple[int, ...]
    empty_cols: tuple[int, ...]
    asymmetric_cells: int
    coverage: float

    @property
    def ok(self) -> bool:
        return not self.empty_rows and not self.empty_cols and self.asymmetric_cells == 0


def _closeness(g: Graph) -> np.ndarray:
    h = all_pairs_hops(g)
    h.require_finite()
    totals = h.hops.sum(axis=1)
    # isolated single node: sum 0; treat as centrality 0 to avoid division blowup
    out = np.zeros(g.n)
    nz = totals > 0
    out[nz] = 1.0 / totals[nz]
    return out


def _betweenness(g: Graph) -> np.ndarray:
    """Exact unweighted betweenness (Brandes 2001)."""
    cb = np.zeros(g.n)
    adj = g.adjacency
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


def select_anchors(g: Graph, sel: AnchorSelection) -> np.ndarray:
    """m distinct node indices per the selection strategy.

    Centrality strategies take the m most central nodes, ties broken by
    lowest index; random draws uniformly without replacement.
    """
    if sel.m > g.n:
        raise ValueError(f"cannot select {sel.m} anchors from {g.n} nodes")
    if sel.strategy == "random":
        rng = spawn_rng(sel.seed, "anchors")
        return np.sort(rng.choice(g.n, size=sel.m, replace=False))
    if sel.strategy == "degree":
        score = g.degrees.astype(float)
    elif sel.strategy == "closeness":
        score = _closeness(g)
    else:
        score = _betweenness(g)
    order = np.lexsort((np.arange(g.n), -score))
    return np.sort(order[: sel.m])


def vc_observations(p: VcMatrix, delete_fraction: float, seed: int = 0) -> ObservedMatrix:
    """Delete a uniform random floor(f*N*M) subset of anchor-distance cells.

    Deletions that would empty a row are re-drawn elsewhere so that every
    node keeps at least one measured coordinate; the deletion count is
    preserved.
    """
    if not 0.0 <= delete_fraction < 1.0:
        raise ValueError("delete_fraction must be in [0, 1)")
    n, m = p.hops.shape
    total = n * m
    n_delete = int(np.floor(delete_fraction * total))
    rng = spawn_rng(seed, "vc-observations")
    mask = np.ones((n, m), dtype=bool)
    if n_delete:
        flat = rng.choice(total, size=n_delete, replace=False)
        mask.flat[flat] = False
        _repair_empty_rows(mask, rng, max_moves=100 * n)
    values = np.where(mask, p.hops.astype(float), 0.0)
    return ObservedMatrix(values=values, mask=mask, symmetric=False, seed=seed)


def _repair_empty_rows(mask: np.ndarray, rng: np.random.Generator, max_moves: int) -> None:
    """Move deletions out of empty rows into rows that can spare a cell."""
    moves = 0
    while True:
        empty = np.flatnonzero(~mask.any(axis=1))
        if empty.size == 0:
            return
        for row in empty:
            col = rng.integers(0, mask.shape[1])
            mask[row, col] = True
            # delete a different observed cell, without emptying its row or column
            for _ in range(max_moves):
                moves += 1
                if moves > max_moves:
                    raise ValueError("could not repair empty rows within retry budget")
                r = rng.integers(0, mask.shape[0])
                c = rng.integers(0, mask.shape[1])
                if not mask[r, c] or (r == row and c == col):
                    continue
                if mask[r].sum() < 2 or mask[:, c].sum() < 2:
                    continue
                mask[r, c] = False
                break
            else:
                raise ValueError("could not repair empty rows within retry budget")


def random_entry_observations(
    h: HopDistanceMatrix, observe_fraction: float, seed: int = 0
) -> ObservedMatrix:
    """Symmetric random observation of a full hop matrix.

    The diagonal is always observed (trivially zero); off-diagonal pairs
    are drawn uniformly so that total coverage is close to
    ``observe_fraction`` and every row keeps at least one off-diagonal
    observation.
    """
    if not 0.0 < observe_fraction <= 1.0:
        raise ValueError("observe_fraction must be in (0, 1]")
    h.require_finite()
    n = h.n
    n_pairs_wanted = int(round((observe_fraction * n * n - n) / 2.0))
    n_pairs_total = n * (n - 1) // 2
    if n > 1 and n_pairs_wanted < (n + 1) // 2:
        raise ValueError("observe_fraction too small to cover every row")
    n_pairs_wanted = min(n_pairs_wanted, n_pairs_total)

    rng = spawn_rng(seed, "entry-observations")
    iu, ju = np.triu_indices(n, k=1)
    chosen = rng.choice(n_pairs_total, size=n_pairs_wanted, replace=False)
    mask = np.zeros((n, n), dtype=bool)
    mask[iu[chosen], ju[chosen]] = True
    mask |= mask.T
    # guarantee off-diagonal coverage per row by swapping pairs in
    for _ in range(100 * n):
        empty = np.flatnonzero(~mask.any(axis=1))
        if empty.size == 0:
            break
        row = empty[0]
        partner = rng.integers(0, n - 1)
        partner += partner >= row
        # remove one existing pair whose endpoints stay covered
        obs_i, obs_j = np.nonzero(np.triu(mask, k=1))
        order = rng.permutation(obs_i.size)
        for idx in order:
            r, c = obs_i[idx], obs_j[idx]
            if mask[r].sum() >= 2 and mask[c].sum() >= 2:
                mask[r, c] = mask[c, r] = False
                break
        else:
            raise ValueError("could not enforce row coverage")
        mask[row, partner] = mask[partner, row] = True
    else:
        raise ValueError("could not enforce row coverage")
    np.fill_diagonal(mask, True)
    values = np.where(mask, h.hops.astype(float), 0.0)
    return ObservedMatrix(values=values, mask=mask, symmetric=True, seed=seed)


def validate_mask(o: ObservedMatrix) -> MaskReport:
    """Diagnostic only: empty rows/columns, symmetry violations, coverage."""
    empty_rows = tuple(np.flatnonzero(~o.mask.any(axis=1)).tolist())
    empty_cols = tuple(np.flatnonzero(~o.mask.any(axis=0)).tolist())
    asym = 0
    if o.symmetric:
        mism = o.mask != o.mask.T
        vals = np.where(o.mask, o.values, 0.0)
        mism |= o.mask & o.mask.T & (vals != vals.T)
        asym = int(np.count_nonzero(mism))
        asym += int(np.count_nonzero(~np.diag(o.mask)))
    return MaskReport(
        empty_rows=empty_rows,
        empty_cols=empty_cols,
        asymmetric_cells=asym,
        coverage=o.coverage,
    )


def save_observed(o: ObservedMatrix, base: str | Path) -> tuple[Path, Path]:
    """Write <base>.csv (row, col, value triplets) and <base>.json header."""
    base = Path(base)
    csv_path = base.with_suffix(".csv")
    json_path = base.with_suffix(".json")
    rows, cols = np.nonzero(o.mask)
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["row", "col", "value"])
        for r, c in zip(rows.tolist(), cols.tolist()):
            w.writerow([r, c, repr(float(o.values[r, c]))])
    header = {
        "rows": int(o.shape[0]),
        "cols": int(o.shape[1]),
        "mode": "symmetric" if o.symmetric else "general",
        "seed": o.seed,
    }
    with open(json_path, "w") as fh:
        json.dump(header, fh, indent=2)
        fh.write("\n")
    return csv_path, json_path


def load_observed(base: str | Path) -> ObservedMatrix:
    base = Path(base)
    with open(base.with_suffix(".json")) as fh:
        header = json.load(fh)
    shape = (header["rows"], header["cols"])
    values = np.zeros(shape)
    mask = np.zeros(shape, dtype=bool)
    with open(base.with_suffix(".csv"), newline="") as fh:
        reader = csv.reader(fh)
        head = next(reader, None)
        if head != ["row", "col", "value"]:
            raise ValueError(f"bad observation CSV header: {head}")
        for line in reader:
            if len(line) != 3:
                raise ValueError(f"malformed observation row: {line}")
            r, c, v = int(line[0]), int(line[1]), float(line[2])
            values[r, c] = v
            mask[r, c] = True
    if not mask.any():
        raise ValueError("observation file contains no entries")
    return ObservedMatrix(
        values=values,
        mask=mask,
        symmetric=header.get("mode") == "symmetric",
        seed=header.get("seed"),
    )
