"""Evaluation topologies (sensor layouts, power-law graphs) and every file
format the program reads or writes."""
from __future__ import annotations

import csv
import io
import json
import math
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from .graph import Graph, is_connected
from .seeding import spawn_rng


@dataclass(frozen=True)
class PointCloud:
    """n points in 2-D or 3-D: a network's layout, or a map of it."""

    coords: np.ndarray  # n x d, d in {2, 3}

    def __post_init__(self):
        if self.coords.ndim != 2 or self.coords.shape[1] not in (2, 3):
            raise ValueError("coords must be n x 2 or n x 3")
        if not np.all(np.isfinite(self.coords)):
            raise ValueError("coords must be finite")
        self.coords.flags.writeable = False

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]


# the placement every layout shares: clean points one unit apart (a unit
# grid, or rings one unit apart), each coordinate moved by a uniform draw
# in [-JITTER, JITTER], and a link between every two nodes within RADIUS;
# hop counts, and so every result, do not depend on the physical scale
JITTER = 0.3
RADIUS = 1.8


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int = 0  # of the placement noise


def unit_disk_connect(pc: PointCloud, radius: float) -> Graph:
    """Edge between every pair of points at Euclidean distance <= radius."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    pairs = cKDTree(pc.coords).query_pairs(radius, output_type="ndarray")
    return Graph(pc.n, pairs)


def _layout(clean: np.ndarray, cfg: GeneratorConfig, label: str) -> tuple[PointCloud, Graph]:
    """The clean points moved by the seed's jitter and linked within
    RADIUS. Membership is decided on the clean points, so the node count
    ignores the seed. A graph that does not connect raises ValueError. On
    a 2-D grid, neighbours along an axis stay within sqrt(1.6**2 + 0.6**2)
    = 1.71 of each other, and seeds 0-3999 of every layout connect."""
    rng = spawn_rng(cfg.seed, label)
    pc = PointCloud(coords=clean + rng.uniform(-JITTER, JITTER, size=clean.shape))
    g = unit_disk_connect(pc, RADIUS)
    if not is_connected(g):
        raise ValueError(f"{label} layout with seed {cfg.seed} is disconnected at radius {RADIUS}")
    return pc, g


def gen_concave_2d(cfg: GeneratorConfig) -> tuple[PointCloud, Graph]:
    """U-shaped deployment: the 30 x 25 unit grid less the notch
    8.5 < x < 21.5, y > 9.5 cut from its top edge. 555 nodes at any seed."""
    xs, ys = np.meshgrid(np.arange(30), np.arange(25), indexing="ij")
    pts = np.column_stack([xs.ravel(), ys.ravel()]).astype(float)
    inside_notch = (pts[:, 0] > 8.5) & (pts[:, 0] < 21.5) & (pts[:, 1] > 9.5)
    return _layout(pts[~inside_notch], cfg, "concave-2d")


def gen_circular_voids_2d(cfg: GeneratorConfig) -> tuple[PointCloud, Graph]:
    """Disk-shaped deployment: the unit grid points within 13 of the
    origin, less three circular holes, of radius 2.1 around (-5.5, 4.5)
    and (5, -3) and of radius 1.6 around (1.5, 8). 496 nodes at any seed."""
    xs, ys = np.meshgrid(np.arange(-13, 14), np.arange(-13, 14), indexing="ij")
    pts = np.column_stack([xs.ravel(), ys.ravel()]).astype(float)
    keep = (pts ** 2).sum(axis=1) <= 13.0 ** 2
    for cx, cy, vr in ((-5.5, 4.5, 2.1), (5.0, -3.0, 2.1), (1.5, 8.0, 1.6)):
        keep &= (pts[:, 0] - cx) ** 2 + (pts[:, 1] - cy) ** 2 > vr ** 2
    return _layout(pts[keep], cfg, "circular-voids-2d")


def gen_cube_void_3d(cfg: GeneratorConfig) -> tuple[PointCloud, Graph]:
    """Cube-filling deployment: the 12 x 12 x 12 unit grid less an
    hourglass (double cone) hollow around its vertical axis, of radius 2.5
    at the top and bottom faces and 0 at the mid-plane. 1640 nodes at any
    seed."""
    ax = np.arange(12, dtype=float)
    xs, ys, zs = np.meshgrid(ax, ax, ax, indexing="ij")
    pts = np.column_stack([xs.ravel(), ys.ravel(), zs.ravel()])
    c = 5.5
    # cone radius widens linearly away from the mid-plane waist
    cone_r = 2.5 * np.abs(pts[:, 2] - c) / c
    radial = np.hypot(pts[:, 0] - c, pts[:, 1] - c)
    return _layout(pts[radial > cone_r], cfg, "cube-void-3d")


def gen_t_cylinder_3d(cfg: GeneratorConfig) -> tuple[PointCloud, Graph]:
    """Two hollow cylinder surfaces of radius 3 joined in a T, each ring
    of 19 points and one unit from the next: a bar from x = 0 to 40 and a
    stem from z = 0 to 26 over its middle. 1213 nodes at any seed."""
    theta = 2.0 * np.pi * np.arange(19) / 19
    ring = 3.0 * np.array([[math.cos(t), math.sin(t)] for t in theta])
    # bar along the x axis, one ring per unit step
    bar = np.column_stack([np.repeat(np.arange(41.0), 19), np.tile(ring, (41, 1))])
    # stem along the z axis, centered over the bar middle
    xc = 20.0
    cos, sin = np.tile(ring, (27, 1)).T
    stem = np.column_stack([xc + cos, sin, np.repeat(np.arange(27.0), 19)])
    # drop stem points buried inside the bar, and open a hole in the bar
    # wall where the stem attaches
    stem = stem[stem[:, 1] ** 2 + stem[:, 2] ** 2 > 3.0 ** 2]
    hole = ((bar[:, 0] - xc) ** 2 + bar[:, 1] ** 2 < 3.0 ** 2) & (bar[:, 2] > 0)
    return _layout(np.vstack([bar[~hole], stem]), cfg, "t-cylinder-3d")


def gen_holme_kim(n: int = 500, m: int = 3, p_triad: float = 0.5, seed: int = 0) -> Graph:
    """Growing power-law graph with tunable clustering: each new node
    attaches m edges preferentially, and with probability p_triad a step
    closes a triangle on the previous target's neighborhood instead."""
    if m < 1 or m >= n:
        raise ValueError("need n > m >= 1")
    if not 0.0 <= p_triad <= 1.0:
        raise ValueError("p_triad must be in [0, 1]")
    rng = spawn_rng(seed, "holme-kim")
    neighbors: list[set[int]] = [set() for _ in range(n)]
    repeated: list[int] = list(range(m))

    def add_edge(a, b):
        neighbors[a].add(b)
        neighbors[b].add(a)

    def distinct_targets(source):
        targets: list[int] = []
        seen = set()
        while len(targets) < m:
            cand = repeated[rng.integers(0, len(repeated))]
            if cand != source and cand not in seen:
                seen.add(cand)
                targets.append(cand)
        return targets

    for source in range(m, n):
        targets = distinct_targets(source)
        target = targets.pop()
        add_edge(source, target)
        repeated.append(target)
        made = 1
        while made < m:
            if rng.random() < p_triad:
                pool = sorted(neighbors[target] - neighbors[source] - {source})
                if pool:
                    nbr = pool[rng.integers(0, len(pool))]
                    add_edge(source, nbr)
                    repeated.append(nbr)
                    made += 1
                    continue
            target = targets.pop()
            add_edge(source, target)
            repeated.append(target)
            made += 1
        repeated.extend([source] * m)
    return Graph(n, [(a, b) for a, nbrs in enumerate(neighbors) for b in nbrs])


_INT64 = np.iinfo(np.int64)
_DTYPES = {"i": np.int64, "f": np.float64}

# the lines a table without a header skips as comments (first
# non-whitespace character '#'), with any blank lines before them
_COMMENT_LINES = re.compile(r"^\s*#.*$", re.MULTILINE)


def read_table(
    path: str | Path, types: str, sep: str | None = None, headers: tuple[str, ...] = ()
) -> list[np.ndarray]:
    """The columns of a text table: an int64 array for each 'i' in types
    and a finite float64 array for each 'f'. Values are separated by sep,
    or else by whitespace.

    A table with headers opens with one of them, whose names set its width
    and take the first codes of types; a value may be quoted as csv.writer
    quotes it, and row i is line i + 2, so a blank line is an error. A
    table without headers skips blank lines and '#' comment lines; its
    width is len(types), or its first row's when types is one code.

    The rows are parsed as one np.loadtxt block. Rows that it refuses, that
    lack a line or that hold a value that is not finite are read again one
    line at a time, which raises ValueError naming the file and first bad
    line."""
    text = Path(path).read_text()
    if headers:
        head, _, text = text.partition("\n")
        names = [_unquote(v) for v in head.split(sep)]
        if names not in [h.split(sep) for h in headers]:
            expected = " or ".join(map(repr, headers))
            raise ValueError(f"{path}:1: expected the header {expected}, got {head!r}")
        types = types[: len(names)]
    width = len(types) if headers or len(types) > 1 else None
    uniform = len(set(types)) == 1
    dtype = _DTYPES[types[0]] if uniform else [(f"c{j}", _DTYPES[t]) for j, t in enumerate(types)]
    try:
        with warnings.catch_warnings():
            # older numpy reads "1.0" as an int with a DeprecationWarning,
            # and an empty block warns: both go to the line loop
            warnings.simplefilter("error")
            block = np.loadtxt(io.StringIO(text if headers else _COMMENT_LINES.sub("", text)), dtype=dtype,
                               delimiter=sep, comments=None, quotechar='"' if headers else None,
                               ndmin=2 if uniform else 1)
        columns = list(block.T) if uniform else [block[name] for name in block.dtype.names]
        # loadtxt skips blank lines, which a table with headers may not hold
        lost = headers and len(block) != text.count("\n") + (not text.endswith("\n"))
        if lost or width not in (None, len(columns)) or not all(np.isfinite(c).all() for c in columns):
            raise ValueError("the block is not the table")
    except (ValueError, Warning):
        columns = _read_lines(path, text, types, width, sep, bool(headers))
    return columns


def _read_lines(
    path: str | Path, text: str, types: str, width: int | None, sep: str | None, headed: bool
) -> list[np.ndarray]:
    """read_table's columns, read one line at a time by int() and float()."""
    lines, rows = text.split("\n"), []
    if not lines[-1]:
        lines.pop()
    for lineno, line in enumerate(lines, start=2 if headed else 1):
        if not headed and (not line.strip() or line.lstrip().startswith("#")):
            continue
        values = [_unquote(v) for v in line.split(sep)] if headed else line.split(sep)
        width = width or len(values)
        if len(values) != width:
            raise ValueError(f"{path}:{lineno}: expected {width} values, got {line!r}")
        types = types.ljust(width, types[-1])  # one code stands for every column
        try:
            rows.append([_value(v, t) for v, t in zip(values, types)])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    columns = list(zip(*rows)) or [()] * len(types)
    return [np.array(c, dtype=_DTYPES[t]) for c, t in zip(columns, types)]


def _unquote(value: str) -> str:
    # a quoted value, as csv.reader reads it; numbers hold no quotes
    return value[1:-1] if len(value) > 1 and value[0] == value[-1] == '"' else value


def _value(text: str, code: str) -> int | float:
    """text read by int() for an 'i' code and by float() for an 'f' one;
    ValueError when it is not an int64 or not a finite number."""
    try:
        value = int(text) if code == "i" else float(text)
    except ValueError:
        raise ValueError(f"non-{'integer' if code == 'i' else 'numeric'} value {text!r}") from None
    if code == "i" and not _INT64.min <= value <= _INT64.max:
        raise ValueError(f"value {text!r} outside the int64 range")
    if code == "f" and not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def refuse_rows(path: str | Path, bad: np.ndarray, describe) -> None:
    """Raise ValueError naming the line of the first row of a read_table
    table with headers that bad marks, and saying describe(row)."""
    if bad.any():
        row = int(bad.argmax())
        raise ValueError(f"{path}:{row + 2}: {describe(row)}")


def load_snap_edge_list(path: str | Path) -> tuple[Graph, np.ndarray]:
    """Read a plain-text edge list ('# comment' lines skipped, one
    whitespace-separated pair of int64 ids per line; see read_table).
    Node ids are remapped to a dense [0, n) range; returns the graph and
    the original id of each new index."""
    pairs = np.column_stack(read_table(path, "ii"))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    if not len(pairs):
        raise ValueError(f"{path}: no edges found")
    original_ids, index = np.unique(pairs, return_inverse=True)
    return Graph(len(original_ids), index.reshape(-1, 2)), original_ids


def write_edge_list(g: Graph, path: str | Path) -> None:
    header = f"undirected graph: {g.n} nodes, {g.edge_count} edges"
    np.savetxt(path, g.edges, fmt="%d", header=header)


def write_csv(header: list[str], rows, path: str | Path) -> None:
    """Write a header and rows of plain values as CSV through csv.writer,
    which puts a float in repr form, so reading it back is exact; a numpy
    float, whose repr names its type, is written as a float."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([float(v) if isinstance(v, np.floating) else v for v in row] for row in rows)


def write_json(obj, path: str | Path) -> None:
    """Write a JSON value indented by two spaces, with a final newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def read_json_object(path: str | Path) -> dict:
    """The JSON object a file holds. Raises ValueError naming the file when
    its text is not JSON or its value is not an object."""
    with open(path) as fh:
        try:
            value = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(value, dict):
        raise ValueError(f"{path}: must hold a JSON object")
    return value


def write_points(pc: PointCloud, path: str | Path) -> None:
    """Write a layout or map as CSV rows node_id,x,y[,z], floats in repr
    form so that reading them back is exact."""
    n, k = pc.coords.shape
    # write_csv's bytes from one %-template, faster for the sweep's most frequent writer
    row = "%d" + ",%s" * k + "\r\n"
    cells = list(map(repr, pc.coords.ravel().tolist()))
    columns = (cells[j::k] for j in range(k))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["node_id", "x", "y", "z"][: 1 + k]) + "\r\n")
        fh.write("".join(row % r for r in zip(range(n), *columns)))


def read_points(path: str | Path) -> PointCloud:
    """The points of a write_points file, in node order; rows may come in
    any order but ids must cover 0..n-1. Every error names the file, and
    for a bad row its line (see read_table)."""
    ids, *xyz = read_table(path, "ifff", ",", ("node_id,x,y", "node_id,x,y,z"))
    if not len(ids):
        raise ValueError(f"{path}: no points")
    if not np.array_equal(np.sort(ids), np.arange(len(ids))):
        raise ValueError(f"{path}: node ids are not a dense 0..n-1 range")
    coords = np.empty((len(ids), len(xyz)))
    coords[ids] = np.column_stack(xyz)
    return PointCloud(coords=coords)


def write_matrix(a: np.ndarray, path: str | Path) -> None:
    """Write a dense matrix as comma-separated rows, floats in %.18e form."""
    np.savetxt(path, a, delimiter=",")


def read_matrix(path: str | Path) -> np.ndarray:
    """The matrix of a write_matrix file, or of any comma-separated table
    of finite numbers (see read_table), as a float64 array. Every error
    names the file, and for a bad row its line."""
    columns = read_table(path, "f", ",")
    if not len(columns[0]):
        raise ValueError(f"{path}: no rows")
    return np.column_stack(columns)


def write_spectrum(values: np.ndarray, path: str | Path) -> None:
    """Write a spectrum as CSV rows index,value: 1-based indices, floats
    in repr form."""
    write_csv(["index", "value"], enumerate(values, start=1), path)


def write_ids(ids, path: str | Path) -> None:
    """Write node ids as one comma-separated line."""
    Path(path).write_text(",".join(str(i) for i in ids) + "\n")


def read_ids(path: str | Path) -> np.ndarray:
    """The int64 ids of a write_ids file; raises ValueError naming the file
    and the first value that int() cannot read or that lies outside int64."""
    values = Path(path).read_text().strip().split(",")
    try:
        return np.array([_value(v, "i") for v in values], dtype=np.int64)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
