"""Partial observation of hop matrices: anchor selection, deletions, masks."""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import Graph, HopDistanceMatrix, all_pairs_hops, level_sweeps
from .netgen import read_json_object, read_table, refuse_rows, write_csv, write_json
from .seeding import spawn_rng

# decimals kept of each centrality score, divided by the largest, before
# ranking (see select_anchors)
TIE_DIGITS = 9


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

    The constructor keeps read-only copies of its inputs: the mask as bool
    and the values as float64, zero off the mask. It raises ValueError when
    values and mask are not 2-d arrays of one shape or an observed value is
    not finite. ``symmetric`` marks symmetric-mode observations of a square
    matrix, in which the mask and values mirror across the diagonal and the
    diagonal itself is observed; anything else raises ValueError too. Empty
    rows and columns are valid here: the stages that cannot use them
    refuse them.
    """

    values: np.ndarray
    mask: np.ndarray
    symmetric: bool = False
    seed: int | None = None

    def __post_init__(self):
        mask = np.array(self.mask, dtype=bool)
        values = np.asarray(self.values)
        if values.shape != mask.shape or mask.ndim != 2:
            raise ValueError(
                f"values {values.shape} and mask {mask.shape} must be 2-d and of one shape"
            )
        values = np.where(mask, values, 0.0).astype(float, copy=False)
        if not np.isfinite(values).all():
            raise ValueError("observed values must be finite")
        if self.symmetric:
            if mask.shape[0] != mask.shape[1]:
                raise ValueError(f"symmetric mode needs a square matrix, got {mask.shape}")
            if not np.array_equal(mask, mask.T):
                raise ValueError("symmetric mode needs a mirrored mask")
            if not np.array_equal(values, values.T):
                raise ValueError("symmetric mode needs mirrored values")
            if not mask.diagonal().all():
                raise ValueError("symmetric mode needs an observed diagonal")
        values.flags.writeable = False
        mask.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @property
    def n_observed(self) -> int:
        return int(self.mask.sum())

    @property
    def coverage(self) -> float:
        return self.n_observed / self.mask.size


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
    """Exact unweighted betweenness: Brandes (2001) run level by level for
    a block of sources at a time, as sparse products with the adjacency
    matrix (the batched form of Buluc & Gilbert 2011).

    ``graph.level_sweeps`` grows the path counts sigma forward from each
    source. Dependencies delta flow back one level at a time, with
    delta(v) = sigma(v) * sum over successors w of (1 + delta(w)) / sigma(w).

    Each level multiplies by its 0/1 mask instead of masking the passes:
    the quotient is taken over a copy of sigma whose unreached zeros are
    ones, and a level's delta cells are still zero when it adds to them,
    so every cell gets the same bits as a masked divide and copy.
    """
    cb = np.zeros(g.n)
    a = g.csr.astype(float)
    for _, level, sigma in level_sweeps(g):
        # a source's own dependency is never counted, so stop at level 1
        delta = np.zeros_like(sigma)
        sigma_safe = np.where(sigma > 0, sigma, 1.0)
        top = int(level.max())
        on = level == top
        for k in range(top, 1, -1):
            w = (1.0 + delta) / sigma_safe
            w *= on
            on = level == k - 1
            up = a @ w
            up *= sigma
            up *= on
            delta += up
        cb += delta.sum(axis=1)
    return cb / 2.0  # each undirected pair counted twice


# centrality strategy -> node scores, of which select_anchors takes the top m
CENTRALITY = {
    "degree": lambda g: g.degrees.astype(float),
    "closeness": _closeness,
    "betweenness": _betweenness,
}
STRATEGIES = ("random", *CENTRALITY)


def select_anchors(g: Graph, sel: AnchorSelection) -> np.ndarray:
    """m distinct node indices per the selection strategy.

    Centrality strategies take the m most central nodes, ties broken by
    lowest index. Scores are divided by the largest and rounded to
    TIE_DIGITS decimals first, so rounding error in the centrality sums
    cannot reorder nodes that are equally central. Random draws uniformly
    without replacement.
    """
    if sel.m > g.n:
        raise ValueError(f"cannot select {sel.m} anchors from {g.n} nodes")
    if sel.strategy == "random":
        rng = spawn_rng(sel.seed, "anchors")
        return np.sort(rng.choice(g.n, size=sel.m, replace=False))
    score = CENTRALITY[sel.strategy](g)
    top = score.max()
    if top > 0:
        score = np.round(score / top, TIE_DIGITS)
    order = np.lexsort((np.arange(g.n), -score))
    return np.sort(order[: sel.m])


def vc_observations(p: HopDistanceMatrix, delete_fraction: float, seed: int = 0) -> ObservedMatrix:
    """Delete a uniform random floor(f*N*M) subset of anchor-distance cells.

    Deletions that would empty a row are re-drawn elsewhere so that every
    node keeps at least one measured coordinate; the deletion count is
    preserved. A fraction that leaves fewer cells than rows is refused
    before any draw, and a draw that leaves no observed cell free to move
    (one whose row and column each hold two or more) raises ValueError
    naming the row it could not repair.
    """
    if not 0.0 <= delete_fraction < 1.0:
        raise ValueError("delete_fraction must be in [0, 1)")
    n, m = p.hops.shape
    total = n * m
    n_delete = int(np.floor(delete_fraction * total))
    if total - n_delete < n:
        raise ValueError(
            f"deleting f={delete_fraction} of a {n} x {m} matrix leaves "
            f"{total - n_delete} cells, fewer than one per row"
        )
    rng = spawn_rng(seed, "vc-observations")
    mask = np.ones((n, m), dtype=bool)
    if n_delete:
        flat = rng.choice(total, size=n_delete, replace=False)
        mask.flat[flat] = False
        _repair_empty_rows(mask, rng)
    return ObservedMatrix(values=p.hops, mask=mask, symmetric=False, seed=seed)


def _repair_empty_rows(mask: np.ndarray, rng: np.random.Generator) -> None:
    """Move deletions out of empty rows into rows that can spare a cell.
    A move deletes only an observed cell whose row and column each hold
    two cells or more, so it never empties one, and one pass over the rows
    that start empty covers every row. Raises ValueError naming the row
    when no observed cell can move."""
    for row in np.flatnonzero(~mask.any(axis=1)):
        mask[row, rng.integers(0, mask.shape[1])] = True
        # the cell just restored is its row's only one, so it is not movable
        movable = mask & (mask.sum(axis=1) >= 2)[:, None] & (mask.sum(axis=0) >= 2)
        if not movable.any():
            raise ValueError(
                f"cannot repair empty row {row}: no observed cell lies in a row "
                "and a column that each hold two or more"
            )
        # probe cells uniformly until one can move; each probe may hit one
        while True:
            r = rng.integers(0, mask.shape[0])
            c = rng.integers(0, mask.shape[1])
            if movable[r, c]:
                mask[r, c] = False
                break


def _upper_pair(n: int, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of pair number k in the order of np.triu_indices(n, 1),
    without it: row i holds the numbers from i*n - i*(i+1)/2 on."""
    rows = np.arange(n)
    i = np.searchsorted(rows * n - rows * (rows + 1) // 2, k, side="right") - 1
    return i, k - i * n + i * (i + 1) // 2 + i + 1


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
    chosen = rng.choice(n_pairs_total, size=n_pairs_wanted, replace=False)
    mask = np.zeros((n, n), dtype=bool)
    mask[_upper_pair(n, chosen)] = True
    mask |= mask.T
    # cover each empty row by swapping a pair of it in; no swap empties a row
    for row in np.flatnonzero(~mask.any(axis=1)):
        if mask[row].any():
            continue  # covered as an earlier row's partner
        partner = rng.integers(0, n - 1)
        partner += partner >= row
        # remove one existing pair whose endpoints stay covered
        obs_i, obs_j = np.nonzero(np.triu(mask, k=1))
        for idx in rng.permutation(obs_i.size):
            r, c = obs_i[idx], obs_j[idx]
            if mask[r].sum() >= 2 and mask[c].sum() >= 2:
                mask[r, c] = mask[c, r] = False
                break
        else:
            raise ValueError("could not enforce row coverage")
        mask[row, partner] = mask[partner, row] = True
    np.fill_diagonal(mask, True)
    return ObservedMatrix(values=h.hops, mask=mask, symmetric=True, seed=seed)


def save_observed(o: ObservedMatrix, base: str | Path) -> tuple[Path, Path]:
    """Write <base>.csv (row, col, value triplets) and <base>.json header,
    each suffix appended to base, so run.a and run.b keep apart."""
    csv_path, json_path = Path(f"{base}.csv"), Path(f"{base}.json")
    write_csv(["row", "col", "value"], zip(*np.nonzero(o.mask), o.values[o.mask]), csv_path)
    header = {
        "rows": int(o.shape[0]),
        "cols": int(o.shape[1]),
        "mode": "symmetric" if o.symmetric else "general",
        "seed": o.seed,
    }
    write_json(header, json_path)
    return csv_path, json_path


def load_observed(base: str | Path) -> ObservedMatrix:
    """Read an observation written by save_observed. Raises ValueError
    naming the file, and for the CSV the line, when the header is not a
    JSON object with positive integer rows and cols and a general or
    symmetric mode, a row does not hold an integer cell and a finite
    number, a general-mode value is negative (those files hold node x
    anchor hops), a cell lies outside the header's shape or is listed
    twice, the file lists no cell, the header's shape does not fit in
    memory, or the cells are not a valid ObservedMatrix (a symmetric-mode
    matrix that is not square, whose mask or values do not mirror, or
    whose diagonal is not observed)."""
    csv_path, json_path = Path(f"{base}.csv"), Path(f"{base}.json")
    header = read_json_object(json_path)
    for key in ("rows", "cols"):
        size = header.get(key)
        if not isinstance(size, int) or isinstance(size, bool) or size < 1:
            raise ValueError(f"{json_path}: header key {key!r} must be a positive integer")
    mode = header.get("mode", "general")
    if mode not in ("general", "symmetric"):
        raise ValueError(f"{json_path}: header mode must be general or symmetric, got {mode!r}")
    shape = (header["rows"], header["cols"])
    r, c, v = read_table(csv_path, "iif", ",", ("row,col,value",))
    if mode == "general":
        refuse_rows(csv_path, v < 0, lambda i: f"value {v[i]} is negative, not a hop count")
    outside = (r < 0) | (r >= shape[0]) | (c < 0) | (c >= shape[1])
    refuse_rows(csv_path, outside, lambda i: f"cell ({r[i]}, {c[i]}) outside the {shape} matrix")
    try:
        mask, values = np.zeros(shape, dtype=bool), np.zeros(shape)
    except (MemoryError, ValueError):  # numpy's ValueError: beyond the address space
        raise ValueError(
            f"{json_path}: a {shape[0]} x {shape[1]} matrix does not fit in memory"
        ) from None
    mask[r, c] = True
    if np.count_nonzero(mask) < len(v):
        twice = np.ones(len(v), dtype=bool)
        twice[np.unique(r * shape[1] + c, return_index=True)[1]] = False
        refuse_rows(csv_path, twice, lambda i: f"cell ({r[i]}, {c[i]}) listed twice")
    if not len(v):
        raise ValueError(f"{csv_path}: observation file contains no entries")
    values[r, c] = v
    del r, c, v  # free the parsed table before ObservedMatrix copies the values
    try:
        return ObservedMatrix(
            values=values,
            mask=mask,
            symmetric=mode == "symmetric",
            seed=header.get("seed"),
        )
    except ValueError as exc:
        raise ValueError(f"{csv_path}: {exc}") from None
