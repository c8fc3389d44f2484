"""Evaluation topologies: sensor layouts, power-law graphs, edge-list ingest."""
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
from scipy.sparse import triu
from scipy.sparse.csgraph import breadth_first_order
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


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int = 0
    pitch: float = 1.0
    jitter: float = 0.3          # uniform placement noise, fraction of pitch
    comm_radius: float | None = None  # defaults to 1.8 * pitch
    max_retries: int = 5

    def __post_init__(self):
        if self.pitch <= 0:
            raise ValueError("pitch must be positive")
        if self.comm_radius is not None and self.comm_radius <= 0:
            raise ValueError("comm_radius must be positive")
        if not 0 <= self.jitter < 0.5:
            raise ValueError("jitter must be in [0, 0.5)")

    @property
    def radius(self) -> float:
        return self.comm_radius if self.comm_radius is not None else 1.8 * self.pitch


def unit_disk_connect(pc: PointCloud, radius: float) -> Graph:
    """Edge between every pair of points at Euclidean distance <= radius."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    pairs = cKDTree(pc.coords).query_pairs(radius, output_type="ndarray")
    return Graph(pc.n, pairs)


def _connect_with_retries(pc: PointCloud, cfg: GeneratorConfig) -> Graph:
    # disconnected placements get +10% radius, a bounded number of times
    radius = cfg.radius
    for _ in range(cfg.max_retries + 1):
        g = unit_disk_connect(pc, radius)
        if is_connected(g):
            return g
        radius *= 1.1
    raise ValueError(
        f"layout stayed disconnected after {cfg.max_retries} radius increases"
    )


def _perturbed_points(clean: np.ndarray, cfg: GeneratorConfig, label: str) -> PointCloud:
    # membership is decided on the clean grid, so node count ignores the seed
    rng = spawn_rng(cfg.seed, label)
    jitter = rng.uniform(-cfg.jitter, cfg.jitter, size=clean.shape) * cfg.pitch
    return PointCloud(coords=clean + jitter)


def gen_concave_2d(
    cfg: GeneratorConfig,
    width: int = 30,
    height: int = 25,
    notch: tuple[float, float, float] = (8.5, 21.5, 9.5),
) -> tuple[PointCloud, Graph]:
    """U-shaped deployment: a rectangle with a rectangular notch cut from
    the top edge. Roughly 550 nodes with the default extents."""
    xs, ys = np.meshgrid(np.arange(width), np.arange(height), indexing="ij")
    pts = np.column_stack([xs.ravel(), ys.ravel()]).astype(float) * cfg.pitch
    x0, x1, y0 = notch
    inside_notch = (pts[:, 0] > x0 * cfg.pitch) & (pts[:, 0] < x1 * cfg.pitch) & (
        pts[:, 1] > y0 * cfg.pitch
    )
    pc = _perturbed_points(pts[~inside_notch], cfg, "concave-2d")
    return pc, _connect_with_retries(pc, cfg)


def gen_circular_voids_2d(
    cfg: GeneratorConfig,
    outer_radius: float = 13.0,
    voids: tuple[tuple[float, float, float], ...] = (
        (-5.5, 4.5, 2.1),
        (5.0, -3.0, 2.1),
        (1.5, 8.0, 1.6),
    ),
) -> tuple[PointCloud, Graph]:
    """Disk-shaped deployment with interior circular holes. Roughly 496
    nodes with the default extents."""
    if len(voids) < 2:
        raise ValueError("need at least two interior voids")
    r = int(math.ceil(outer_radius))
    xs, ys = np.meshgrid(np.arange(-r, r + 1), np.arange(-r, r + 1), indexing="ij")
    pts = np.column_stack([xs.ravel(), ys.ravel()]).astype(float)
    keep = (pts ** 2).sum(axis=1) <= outer_radius ** 2
    for cx, cy, vr in voids:
        keep &= (pts[:, 0] - cx) ** 2 + (pts[:, 1] - cy) ** 2 > vr ** 2
    pc = _perturbed_points(pts[keep] * cfg.pitch, cfg, "circular-voids-2d")
    return pc, _connect_with_retries(pc, cfg)


def gen_cube_void_3d(
    cfg: GeneratorConfig,
    side: int = 12,
    waist_radius: float = 2.5,
) -> tuple[PointCloud, Graph]:
    """Cube-filling deployment with an hourglass (double cone) hollow
    around the vertical axis. Roughly 1640 nodes with the defaults."""
    ax = np.arange(side, dtype=float)
    xs, ys, zs = np.meshgrid(ax, ax, ax, indexing="ij")
    pts = np.column_stack([xs.ravel(), ys.ravel(), zs.ravel()])
    c = (side - 1) / 2.0
    half = c if c > 0 else 1.0
    # cone radius widens linearly away from the mid-plane waist
    cone_r = waist_radius * np.abs(pts[:, 2] - c) / half
    radial = np.hypot(pts[:, 0] - c, pts[:, 1] - c)
    keep = radial > cone_r
    pc = _perturbed_points(pts[keep] * cfg.pitch, cfg, "cube-void-3d")
    return pc, _connect_with_retries(pc, cfg)


def gen_t_cylinder_3d(
    cfg: GeneratorConfig,
    radius: float = 3.0,
    bar_length: int = 40,
    stem_length: int = 26,
    ring_points: int = 19,
) -> tuple[PointCloud, Graph]:
    """Two hollow cylinder surfaces joined in a T. Roughly 1245 nodes
    with the defaults."""
    theta = 2.0 * np.pi * np.arange(ring_points) / ring_points
    # bar along the x axis
    bar = []
    for x in range(bar_length + 1):
        for t in theta:
            bar.append((float(x), radius * math.cos(t), radius * math.sin(t)))
    bar = np.array(bar)
    # stem along the z axis, centered over the bar middle
    xc = bar_length / 2.0
    stem = []
    for z in range(stem_length + 1):
        for t in theta:
            stem.append((xc + radius * math.cos(t), radius * math.sin(t), float(z)))
    stem = np.array(stem)
    # drop stem points buried inside the bar, and open a hole in the bar
    # wall where the stem attaches
    stem = stem[stem[:, 1] ** 2 + stem[:, 2] ** 2 > radius ** 2]
    hole = (
        ((bar[:, 0] - xc) ** 2 + bar[:, 1] ** 2 < radius ** 2)
        & (bar[:, 2] > 0)
    )
    pts = np.vstack([bar[~hole], stem]) * cfg.pitch
    pc = _perturbed_points(pts, cfg, "t-cylinder-3d")
    return pc, _connect_with_retries(pc, cfg)


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


_ID_MIN, _ID_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


# the lines _edge_lines skips as comments (first non-whitespace character
# '#'), with any blank lines before them
_COMMENT_LINES = re.compile(r"^\s*#.*$", re.MULTILINE)


def load_snap_edge_list(path: str | Path) -> tuple[Graph, np.ndarray]:
    """Read a plain-text edge list ('# comment' lines skipped, one
    whitespace-separated pair of int64 ids per line). Node ids are
    remapped to a dense [0, n) range; returns the graph and the original
    id of each new index.

    The file is parsed as one block (np.loadtxt over the text without its
    comment lines). A file the block parse refuses is read again line by
    line, which names the first bad line in the error."""
    text = Path(path).read_text()
    try:
        with warnings.catch_warnings():
            # older numpy reads "1.0" as an int with a DeprecationWarning,
            # and an empty block warns: both go to the line loop
            warnings.simplefilter("error")
            pairs = np.loadtxt(
                io.StringIO(_COMMENT_LINES.sub("", text)), dtype=np.int64, comments=None, ndmin=2
            )
        if pairs.shape[1] != 2:
            raise ValueError("not two ids per line")
    except (ValueError, Warning):
        pairs = _edge_lines(path)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    if not len(pairs):
        raise ValueError(f"{path}: no edges found")
    original_ids, index = np.unique(pairs, return_inverse=True)
    return Graph(len(original_ids), index.reshape(-1, 2)), original_ids


def _edge_lines(path: str | Path) -> np.ndarray:
    """The edge list's id pairs read one line at a time; raises ValueError
    naming the first line that is not two int64 ids."""
    raw_pairs = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected two ids, got {line!r}")
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-integer id in {line!r}") from None
            if not (_ID_MIN <= a <= _ID_MAX and _ID_MIN <= b <= _ID_MAX):
                raise ValueError(f"{path}:{lineno}: id outside the int64 range in {line!r}")
            raw_pairs.append((a, b))
    return np.array(raw_pairs, dtype=np.int64).reshape(-1, 2)


def write_edge_list(g: Graph, path: str | Path) -> None:
    header = f"undirected graph: {g.n} nodes, {g.edge_count} edges"
    np.savetxt(path, g.edges, fmt="%d", header=header)


def subgraph_bfs(g: Graph, root: int, target_n: int) -> Graph:
    """Induced subgraph on the first target_n nodes discovered breadth-
    first from root, relabeled in discovery order."""
    if not 0 <= root < g.n:
        raise ValueError(f"root {root} out of range")
    if target_n < 1 or target_n > g.n:
        raise ValueError(f"target_n {target_n} out of range")
    order = breadth_first_order(g.csr, root, return_predecessors=False)[:target_n]
    if len(order) < target_n:
        raise ValueError(
            f"component of root holds only {len(order)} of {target_n} requested nodes"
        )
    return Graph(target_n, np.column_stack(triu(g.csr[order][:, order]).nonzero()))


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
    any order but ids must cover 0..n-1. Every error names the file."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header not in (["node_id", "x", "y"], ["node_id", "x", "y", "z"]):
            raise ValueError(f"{path}: bad point table header {header}")
        rows = []
        for line in reader:
            try:
                if len(line) != len(header):
                    raise ValueError
                rows.append((int(line[0]), [float(v) for v in line[1:]]))
            except ValueError:
                raise ValueError(f"{path}: malformed row {line}") from None
    if not rows:
        raise ValueError(f"{path}: no points")
    rows.sort()
    if [r[0] for r in rows] != list(range(len(rows))):
        raise ValueError(f"{path}: node ids are not a dense 0..n-1 range")
    try:
        return PointCloud(coords=np.array([r[1] for r in rows]))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
