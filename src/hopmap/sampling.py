"""Partial observation of hop matrices: anchor selection, deletions, masks."""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import Graph, HopDistanceMatrix, VcMatrix, all_pairs_hops, level_sweeps
from .seeding import spawn_rng

STRATEGIES = ("random", "degree", "closeness", "betweenness")

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
    """
    cb = np.zeros(g.n)
    a = g.csr.astype(float)
    for _, level, sigma in level_sweeps(g):
        # a source's own dependency is never counted, so stop at level 1
        delta = np.zeros_like(sigma)
        for k in range(int(level.max()), 1, -1):
            w = np.divide(1.0 + delta, sigma, out=np.zeros_like(sigma), where=level == k)
            np.copyto(delta, sigma * (a @ w), where=level == k - 1)
        cb += delta.sum(axis=1)
    return cb / 2.0  # each undirected pair counted twice


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
    if sel.strategy == "degree":
        score = g.degrees.astype(float)
    elif sel.strategy == "closeness":
        score = _closeness(g)
    else:
        score = _betweenness(g)
    top = score.max()
    if top > 0:
        score = np.round(score / top, TIE_DIGITS)
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
    return ObservedMatrix(values=p.hops, mask=mask, symmetric=False, seed=seed)


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
    return ObservedMatrix(values=h.hops, mask=mask, symmetric=True, seed=seed)


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
    """Read an observation written by save_observed. Raises ValueError
    naming the file, and for the CSV the line, when the header is not a
    JSON object with positive integer rows and cols and a general or
    symmetric mode, a row does not hold an integer cell and a finite
    number, a cell lies outside the header's shape or is listed twice,
    the file lists no cell, or the cells are not a valid ObservedMatrix
    (a symmetric-mode matrix that is not square, whose mask or values do
    not mirror, or whose diagonal is not observed)."""
    base = Path(base)
    json_path = base.with_suffix(".json")
    csv_path = base.with_suffix(".csv")
    with open(json_path) as fh:
        try:
            header = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{json_path}: {exc}") from None
    if not isinstance(header, dict):
        raise ValueError(f"{json_path}: header must be a JSON object")
    for key in ("rows", "cols"):
        size = header.get(key)
        if not isinstance(size, int) or isinstance(size, bool) or size < 1:
            raise ValueError(f"{json_path}: header key {key!r} must be a positive integer")
    mode = header.get("mode", "general")
    if mode not in ("general", "symmetric"):
        raise ValueError(f"{json_path}: header mode must be general or symmetric, got {mode!r}")
    shape = (header["rows"], header["cols"])
    values = np.zeros(shape)
    mask = np.zeros(shape, dtype=bool)
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        head = next(reader, None)
        if head != ["row", "col", "value"]:
            raise ValueError(f"{csv_path}: bad observation CSV header: {head}")
        for line in reader:
            where = f"{csv_path} line {reader.line_num}"
            if len(line) != 3:
                raise ValueError(f"{where}: malformed observation row: {line}")
            try:
                r, c, v = int(line[0]), int(line[1]), float(line[2])
            except ValueError:
                raise ValueError(
                    f"{where}: row and col must be integers and value a number, got {line}"
                ) from None
            if not np.isfinite(v):
                raise ValueError(f"{where}: value {line[2]!r} is not finite")
            if not (0 <= r < shape[0] and 0 <= c < shape[1]):
                raise ValueError(f"{where}: cell ({r}, {c}) outside the {shape} matrix")
            if mask[r, c]:
                raise ValueError(f"{where}: cell ({r}, {c}) listed twice")
            values[r, c] = v
            mask[r, c] = True
    if not mask.any():
        raise ValueError(f"{csv_path}: observation file contains no entries")
    try:
        return ObservedMatrix(
            values=values,
            mask=mask,
            symmetric=mode == "symmetric",
            seed=header.get("seed"),
        )
    except ValueError as exc:
        raise ValueError(f"{csv_path}: {exc}") from None
