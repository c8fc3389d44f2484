"""SVD, spectra, double centering, and nuclear-norm matrix completion."""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import lu

from .sampling import ObservedMatrix

RANK_TOLERANCE = 1e-10

# singular value thresholding: mu_0 = MU_SCALE / ||P_Omega(M)||_2, raised by
# the factor MU_GROWTH each iteration; a growth of 1.2 breaks down on masks
# with 5% of entries observed. The whole matrix is factored when its smaller
# dimension is at most FULL_SVD_BELOW, else a randomized range finder with
# OVERSAMPLE extra columns and POWER_ITERS power steps, warm-started: its
# test block leads with the right singular vectors the previous iteration
# kept, so one power step is enough. Either block, the whole matrix or the
# range finder's projection, is factored from the eigenvalues of its Gram
# matrix over the shorter side, which squares the condition number: below a
# threshold of GRAM_MIN_RATIO times the largest singular value it takes a
# plain SVD
MU_SCALE = 1.0
MU_GROWTH = 1.1
FULL_SVD_BELOW = 400
OVERSAMPLE = 10
POWER_ITERS = 1
GRAM_MIN_RATIO = 1e-4


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD m = u @ diag(s) @ v.T with s descending."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.s) @ self.v.T

    @property
    def rank(self) -> int:
        return singular_rank(self.s)


def singular_rank(s: np.ndarray, rel_tol: float = RANK_TOLERANCE) -> int:
    """Count of singular values above rel_tol times the largest."""
    s = np.asarray(s, dtype=float)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))


def _fix_signs(u: np.ndarray, v: np.ndarray) -> None:
    # reproducible convention: largest-magnitude entry of each left vector >= 0
    flip = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])] < 0
    u[:, flip] = -u[:, flip]
    v[:, flip] = -v[:, flip]


def _svd_input(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.size == 0:
        raise ValueError("svd expects a nonempty 2-d array")
    if not np.all(np.isfinite(m)):
        raise ValueError("svd input contains non-finite entries")
    return m


def svd(m: np.ndarray) -> SvdFactors:
    u, s, vt = np.linalg.svd(_svd_input(m), full_matrices=False)
    v = vt.T
    _fix_signs(u, v)
    return SvdFactors(u=u, s=s, v=v)


def normalized_spectrum(m: np.ndarray, center: bool = False) -> np.ndarray:
    """Singular values divided by the largest, descending, optionally after
    double centering the elementwise-squared matrix.

    A square input equal to its transpose (hop and adjacency matrices; the
    centered matrix is symmetric too) takes the absolute eigenvalues from
    ``eigvalsh``, which are its singular values at about half the cost of
    an SVD. Any other input, a non-normal square one included, takes
    ``np.linalg.svd``.
    """
    m = np.asarray(m, dtype=float)
    if m.size == 0:
        raise ValueError("empty matrix")
    symmetric = m.ndim == 2 and m.shape[0] == m.shape[1] and np.array_equal(m, m.T)
    if center:
        m = double_center_full(m * m)
    m = _svd_input(m)
    if symmetric:
        s = np.sort(np.abs(np.linalg.eigvalsh(m)))[::-1]
    else:
        s = np.linalg.svd(m, compute_uv=False)
    if s[0] <= 0.0:
        raise ValueError("all-zero matrix has no normalized spectrum")
    return s / s[0]


def write_spectrum(values: np.ndarray, path: str | Path) -> None:
    """Write a spectrum as CSV rows index,value: 1-based indices, floats
    in repr form."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "value"])
        w.writerows([i, repr(float(v))] for i, v in enumerate(values, start=1))


def double_center_full(sq: np.ndarray) -> np.ndarray:
    """Double centering of an already-squared distance matrix.

    Returns -1/2 (sq - row means - column means + grand mean); every row
    and column of the result sums to zero.
    """
    sq = np.asarray(sq, dtype=float)
    row_means = sq.mean(axis=1, keepdims=True)
    col_means = sq.mean(axis=0, keepdims=True)
    grand = sq.mean()
    return -0.5 * (sq - row_means - col_means + grand)


def double_center_partial(o: ObservedMatrix) -> ObservedMatrix:
    """Double centering of raw distances observed on a mask.

    Input values are squared internally; row, column, and grand means run
    over observed entries only. The mask is unchanged. A symmetric-mode
    input takes its row means as its column means, so the result mirrors
    exactly and stays a symmetric-mode observation.
    """
    mask = o.mask
    row_counts = mask.sum(axis=1)
    col_counts = mask.sum(axis=0)
    if np.any(row_counts == 0):
        raise ValueError(f"empty row {int(np.argmin(row_counts))} in observation mask")
    if np.any(col_counts == 0):
        raise ValueError(f"empty column {int(np.argmin(col_counts))} in observation mask")
    sq = o.values * o.values
    row_means = sq.sum(axis=1) / row_counts
    col_means = row_means if o.symmetric else sq.sum(axis=0) / col_counts
    grand = sq.sum() / mask.sum()
    centered = -0.5 * (sq - (row_means[:, None] + col_means[None, :]) + grand)
    return ObservedMatrix(values=centered, mask=mask, symmetric=o.symmetric, seed=o.seed)


@dataclass(frozen=True)
class CompletionConfig:
    """Stopping rule and penalty schedule of complete_nuclear_norm.

    tolerance: stop once the relative Frobenius residual over the mask is
    at most this. max_iters: give up (converged=False) after this many
    iterations. The penalty schedule (1/mu starts at the spectral norm of
    the observations and shrinks by MU_GROWTH = 1.1 per iteration) and the
    SVD method of each thresholding step are fixed by the module constants
    MU_SCALE, MU_GROWTH, FULL_SVD_BELOW, OVERSAMPLE, POWER_ITERS and
    GRAM_MIN_RATIO.
    """

    tolerance: float = 1e-6
    max_iters: int = 500

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class CompletionResult:
    completed: np.ndarray
    iterations: int
    final_residual: float
    converged: bool
    residual_trace: tuple[float, ...] = ()
    nuclear_trace: tuple[float, ...] = ()
    rank_trace: tuple[int, ...] = ()


def _spectral_norm(a: np.ndarray, iters: int = 100, tol: float = 1e-9) -> float:
    """Largest singular value by alternating power iteration."""
    v = np.ones(a.shape[1]) / math.sqrt(a.shape[1])
    sigma = 0.0
    for _ in range(iters):
        u = a @ v
        nu = np.linalg.norm(u)
        if nu == 0.0:
            return 0.0
        v = a.T @ (u / nu)
        nv = np.linalg.norm(v)
        if nv == 0.0:
            return 0.0
        v /= nv
        if abs(nv - sigma) <= tol * max(nv, 1.0):
            return float(nv)
        sigma = nv
    return float(sigma)


def _randomized_svd(a, k, rng, thresh, start=None):
    """Halko-style range finder; top ~k singular triplets of a.

    The test block has p = min(k + OVERSAMPLE, min_dim) columns: the
    columns of start (orthonormal right vectors, at most p of them) first,
    then Gaussian columns drawn from rng. The power steps normalise by LU
    and only the last product is orthonormalised by QR. The projected
    p x n block is factored by _gram_svd.
    """
    min_dim = min(a.shape)
    p = min(k + OVERSAMPLE, min_dim)
    if start is None:
        q = rng.standard_normal((a.shape[1], p))
    else:
        q = np.hstack([start, rng.standard_normal((a.shape[1], p - start.shape[1]))])
    for _ in range(POWER_ITERS):
        q = lu(a @ q, permute_l=True)[0]
        q = lu(a.T @ q, permute_l=True)[0]
    q = np.linalg.qr(a @ q)[0]
    ub, s, vt = _gram_svd(q.T @ a, thresh)
    return q @ ub, s, vt


def _gram_svd(b, thresh):
    """Thin SVD u, s, vt of b from eigh of its Gram matrix over the shorter
    side: b @ b.T when b has no more rows than columns, else through b.T.

    Forming the Gram matrix squares the condition number, so values near
    thresh are lost to rounding once thresh lies below GRAM_MIN_RATIO
    times the largest singular value; then it takes a plain SVD of b.
    """
    tall = b.shape[0] > b.shape[1]
    c = b.T if tall else b
    w, z = np.linalg.eigh(c @ c.T)
    w, z = w[::-1], z[:, ::-1]
    s = np.sqrt(np.maximum(w, 0.0))
    if thresh < GRAM_MIN_RATIO * s[0]:
        return np.linalg.svd(b, full_matrices=False)
    vt = z.T @ c
    # s is descending; rows with s == 0 are never kept, so stay unscaled
    pos = int(np.count_nonzero(s > 0.0))
    vt[:pos] /= s[:pos, None]
    return (vt.T, s, z.T) if tall else (z, s, vt)


def _svt(g, thresh, rank_guess, rng, start=None):
    """Singular value thresholding: keep sigma > thresh, shrink by thresh.

    Returns the thresholded matrix, its rank, its nuclear norm and the kept
    right singular vectors as columns (None when none is kept), which the
    next call can take as start for its randomized range finder.
    """
    min_dim = min(g.shape)
    if min_dim <= FULL_SVD_BELOW:
        u, s, vt = _gram_svd(g, thresh)
    else:
        k = max(rank_guess, 1)
        while True:
            if k >= min_dim // 2:
                # partial SVD no longer pays off at this rank
                u, s, vt = _gram_svd(g, thresh)
                break
            u, s, vt = _randomized_svd(g, k, rng, thresh, start)
            if s.size >= min_dim or s[-1] <= thresh:
                break
            k = 2 * k + 5
    kept = s > thresh
    n_kept = int(np.count_nonzero(kept))
    if n_kept == 0:
        m, n = g.shape
        return np.zeros((m, n)), 0, 0.0, None
    shrunk = s[kept] - thresh
    a = (u[:, kept] * shrunk) @ vt[kept]
    # s is descending, so the kept vectors are the leading rows of vt
    return a, n_kept, float(shrunk.sum()), vt[:n_kept].T


def complete_nuclear_norm(
    o: ObservedMatrix, cfg: CompletionConfig | None = None
) -> CompletionResult:
    """Fill the unobserved entries of o with the minimum-nuclear-norm
    extension, via an inexact augmented Lagrangian / singular value
    thresholding iteration.

    The observed entries of the result match o within cfg.tolerance
    (relative Frobenius over the mask). Symmetric-mode inputs are
    symmetrized on output. Deterministic for fixed inputs and config.
    """
    if cfg is None:
        cfg = CompletionConfig()
    mask, d = o.mask, o.values
    empty_rows = tuple(np.flatnonzero(~mask.any(axis=1)).tolist())
    empty_cols = tuple(np.flatnonzero(~mask.any(axis=0)).tolist())
    if empty_rows or empty_cols:
        raise ValueError(f"mask has empty rows {empty_rows} / columns {empty_cols}")

    obs_norm = np.linalg.norm(d)
    if mask.all() or obs_norm == 0.0:
        # constraint pins every entry (or the zero matrix is optimal)
        return CompletionResult(completed=d.copy(), iterations=0, final_residual=0.0, converged=True)

    mu = MU_SCALE / _spectral_norm(d)
    rng = np.random.default_rng(np.random.SeedSequence(0x5EED))
    # the multipliers are zero off the mask, so keep them and the
    # observations as vectors over the observed entries
    idx = np.flatnonzero(mask)
    d_m = d.ravel()[idx]
    y_m = np.zeros(idx.size)
    a = np.zeros_like(d)
    # zero off the mask; the residual is the norm of the whole buffer, so
    # it sums in the same order as over a masked n x n difference
    gap = np.zeros_like(d)
    residuals: list[float] = []
    nuclears: list[float] = []
    ranks: list[int] = []
    rank_guess = 10
    v = None
    converged = False
    for _ in range(cfg.max_iters):
        # _svt returns a fresh C-contiguous array, so the previous
        # iterate is free to take the step's input in place
        a.ravel()[idx] = d_m + y_m / mu
        a, n_kept, nuclear, v = _svt(a, 1.0 / mu, rank_guess, rng, v)
        rank_guess = n_kept + 5
        ranks.append(n_kept)
        gap_m = d_m - a.ravel()[idx]
        gap.ravel()[idx] = gap_m
        residual = float(np.linalg.norm(gap) / obs_norm)
        residuals.append(residual)
        nuclears.append(nuclear)
        if residual <= cfg.tolerance:
            converged = True
            break
        y_m += mu * gap_m
        mu *= MU_GROWTH

    completed = a
    if o.symmetric:
        completed = 0.5 * (completed + completed.T)
    return CompletionResult(
        completed=completed,
        iterations=len(residuals),
        final_residual=residuals[-1],
        converged=converged,
        residual_trace=tuple(residuals),
        nuclear_trace=tuple(nuclears),
        rank_trace=tuple(ranks),
    )
