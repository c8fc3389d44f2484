"""Evaluation metrics: map distance error, neighborhood preservation, hop errors."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import HopDistanceMatrix
from .netgen import PointCloud


@dataclass(frozen=True)
class MetricReport:
    network: str
    procedure: str
    m: int
    f: float
    seed: int
    metric: str
    value: float

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("metric values are nonnegative")


def mean_distance_error(
    tpm_f: PointCloud, tpm_0: PointCloud, anchor_ids: np.ndarray
) -> float:
    """Relative change in node-to-anchor map distances.

    Sums |d_ij(f) - d_ij(0)| over every node i and anchor j, divided by
    the same sum of baseline distances d_ij(0).
    """
    if tpm_f.coords.shape != tpm_0.coords.shape:
        raise ValueError("maps must share n and k")
    anchor_ids = np.asarray(anchor_ids, dtype=np.int64)
    if anchor_ids.size == 0 or anchor_ids.min() < 0 or anchor_ids.max() >= tpm_0.n:
        raise ValueError("anchor ids out of range")
    d_f = np.linalg.norm(
        tpm_f.coords[:, None, :] - tpm_f.coords[None, anchor_ids, :], axis=2
    )
    d_0 = np.linalg.norm(
        tpm_0.coords[:, None, :] - tpm_0.coords[None, anchor_ids, :], axis=2
    )
    denom = d_0.sum()
    if denom <= 0:
        raise ValueError("baseline map is degenerate: zero distance total")
    return float(np.abs(d_f - d_0).sum() / denom)


def _binned_lines(values: np.ndarray, bin_width: float) -> list[np.ndarray]:
    """Group node indices into lines by binning one coordinate."""
    bins = np.rint(values / bin_width).astype(np.int64)
    lines = []
    for b in np.unique(bins):
        idx = np.flatnonzero(bins == b)
        if idx.size >= 2:
            lines.append(idx)
    return lines


def _line_pairs(lines: list[np.ndarray], order_coord: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Node pairs (i, j) on a common line with i before j in the stable
    order of order_coord along that line."""
    firsts, seconds = [], []
    for line in lines:
        idx = line[np.argsort(order_coord[line], kind="stable")]
        i, j = np.triu_indices(idx.size, k=1)
        firsts.append(idx[i])
        seconds.append(idx[j])
    return np.concatenate(firsts), np.concatenate(seconds)


@dataclass(frozen=True)
class ScanLines:
    """The ordered node pairs on the scan lines of one 2-d layout of n
    nodes: per group, the map axis its lines are read on and the first
    and second node of each pair."""

    n: int
    groups: tuple[tuple[int, np.ndarray, np.ndarray], ...]


def scan_lines(layout: PointCloud, bin_width: float = 1.0) -> ScanLines:
    """The horizontal and vertical scan lines of a 2-d layout, each the
    nodes whose cross coordinate rounds to one multiple of bin_width,
    built once for scoring many maps of it with
    topology_preservation_error."""
    if not bin_width > 0:
        raise ValueError("bin_width must be positive")
    if layout.dim != 2:
        raise ValueError("neighborhood preservation is defined for 2-d maps")
    # horizontal lines bin y, run along x and are read on map axis 0;
    # vertical lines bin x, run along y and are read on map axis 1
    groups = []
    for axis in (0, 1):
        lines = _binned_lines(layout.coords[:, 1 - axis], bin_width)
        if lines:
            groups.append((axis, *_line_pairs(lines, layout.coords[:, axis])))
    if not groups:
        raise ValueError("no scan line holds two or more nodes")
    return ScanLines(n=layout.n, groups=tuple(groups))


def topology_preservation_error(lines: ScanLines, tpm: PointCloud) -> float:
    """Fraction of ordered node pairs, along the scan lines of the original
    layout (see scan_lines), whose order the map fails to preserve. The
    map is scored under all 8 axis-aligned orthogonal transforms and the
    best score is returned."""
    if tpm.dim != 2:
        raise ValueError("neighborhood preservation is defined for 2-d maps")
    if lines.n != tpm.n:
        raise ValueError("layout and map must share node indexing")

    # an out-of-order pair (i before j) has p_i >= p_j on a map axis a
    # transform keeps, p_i <= p_j on one it negates; ties count both ways.
    # The sign of each axis is free, so bad[axis][src], the pairs of the
    # lines read on axis when that axis comes from source map axis src, is
    # the fewer of the two; the best transform keeps or swaps the axes
    bad = [[0, 0], [0, 0]]
    pair_total = 0
    for axis, i, j in lines.groups:
        pair_total += 2 * i.size
        for src in (0, 1):
            p_i, p_j = tpm.coords[i, src], tpm.coords[j, src]
            bad[axis][src] = min(
                int(np.count_nonzero(p_i >= p_j)), int(np.count_nonzero(p_i <= p_j))
            )
    return 2 * min(bad[0][0] + bad[1][1], bad[0][1] + bad[1][0]) / pair_total


def _hop_error_sums(h_hat: np.ndarray, h: HopDistanceMatrix) -> tuple[float, float]:
    h_hat = np.asarray(h_hat, dtype=float)
    if h_hat.shape != h.hops.shape:
        raise ValueError("estimate and reference dimensions differ")
    h.require_finite()
    true = h.hops.astype(float)
    return float(np.abs(h_hat - true).sum()), float(true.sum())


def hdm_mean_error(h_hat: np.ndarray, h: HopDistanceMatrix) -> float:
    """Total absolute hop deviation relative to the total hop count."""
    dev, total = _hop_error_sums(h_hat, h)
    if total <= 0:
        raise ValueError("reference hop matrix sums to zero")
    return dev / total

def hdm_absolute_error(h_hat: np.ndarray, h: HopDistanceMatrix) -> float:
    """Mean absolute hop deviation per matrix cell."""
    dev, _ = _hop_error_sums(h_hat, h)
    return dev / h.hops.size
