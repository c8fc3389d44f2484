"""SVD, spectra, double centering, and nuclear-norm matrix completion."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu

from .sampling import ObservedMatrix, validate_mask

RANK_TOLERANCE = 1e-10

# singular value thresholding: mu_0 = MU_SCALE / ||P_Omega(M)||_2, raised by
# the factor MU_GROWTH each iteration; plain SVD when the smaller dimension
# is at most FULL_SVD_BELOW, else a randomized range finder with OVERSAMPLE
# extra columns and POWER_ITERS power steps, warm-started: its test block
# leads with the right singular vectors the previous iteration kept, so one
# power step is enough. The range finder takes the SVD of its projected
# block from the eigenvalues of the block's Gram matrix, which squares the
# condition number: below a threshold of GRAM_MIN_RATIO times the largest
# singular value it uses a plain SVD
MU_SCALE = 1.0
MU_GROWTH = 1.05
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
    for i in range(u.shape[1]):
        j = int(np.argmax(np.abs(u[:, i])))
        if u[j, i] < 0:
            u[:, i] = -u[:, i]
            v[:, i] = -v[:, i]


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
    """Singular values divided by the largest, optionally after double
    centering the elementwise-squared matrix."""
    m = np.asarray(m, dtype=float)
    if m.size == 0:
        raise ValueError("empty matrix")
    if center:
        m = double_center_full(m * m)
    s = np.linalg.svd(_svd_input(m), compute_uv=False)
    if s[0] <= 0.0:
        raise ValueError("all-zero matrix has no normalized spectrum")
    return s / s[0]


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
    over observed entries only. The mask is unchanged.
    """
    mask = o.mask
    row_counts = mask.sum(axis=1)
    col_counts = mask.sum(axis=0)
    if np.any(row_counts == 0):
        raise ValueError(f"empty row {int(np.argmin(row_counts))} in observation mask")
    if np.any(col_counts == 0):
        raise ValueError(f"empty column {int(np.argmin(col_counts))} in observation mask")
    sq = np.where(mask, o.values * o.values, 0.0)
    row_means = sq.sum(axis=1) / row_counts
    col_means = sq.sum(axis=0) / col_counts
    grand = sq.sum() / mask.sum()
    centered = -0.5 * (sq - row_means[:, None] - col_means[None, :] + grand)
    return ObservedMatrix(
        values=np.where(mask, centered, 0.0),
        mask=mask.copy(),
        symmetric=o.symmetric,
        seed=o.seed,
    )


@dataclass(frozen=True)
class CompletionConfig:
    """Stopping rule and penalty schedule of complete_nuclear_norm.

    tolerance: stop once the relative Frobenius residual over the mask is
    at most this. max_iters: give up (converged=False) after this many
    iterations. The penalty schedule and the SVD method of each
    thresholding step are fixed by the module constants MU_SCALE,
    MU_GROWTH, FULL_SVD_BELOW, OVERSAMPLE, POWER_ITERS and GRAM_MIN_RATIO.
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
    p x n block is factored through the eigenvalues of its Gram matrix,
    unless thresh lies below GRAM_MIN_RATIO times its largest singular
    value, where that loses the values near thresh to rounding.
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
    b = q.T @ a
    w, z = np.linalg.eigh(b @ b.T)
    w, z = w[::-1], z[:, ::-1]
    s = np.sqrt(np.maximum(w, 0.0))
    if thresh < GRAM_MIN_RATIO * s[0]:
        ub, s, vt = np.linalg.svd(b, full_matrices=False)
        return q @ ub, s, vt
    vt = z.T @ b
    # s is descending; rows with s == 0 are never kept, so stay unscaled
    pos = int(np.count_nonzero(s > 0.0))
    vt[:pos] /= s[:pos, None]
    return q @ z, s, vt


def _svt(g, thresh, rank_guess, rng, start=None):
    """Singular value thresholding: keep sigma > thresh, shrink by thresh.

    Returns the thresholded matrix, its rank, its nuclear norm and the kept
    right singular vectors as columns (None when none is kept), which the
    next call can take as start for its randomized range finder.
    """
    min_dim = min(g.shape)
    if min_dim <= FULL_SVD_BELOW:
        u, s, vt = np.linalg.svd(g, full_matrices=False)
    else:
        k = max(rank_guess, 1)
        while True:
            if k >= min_dim // 2:
                # partial SVD no longer pays off at this rank
                u, s, vt = np.linalg.svd(g, full_matrices=False)
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
    mask = o.mask
    if not mask.any():
        raise ValueError("observation mask is empty")
    d = np.where(mask, o.values, 0.0)
    if not np.all(np.isfinite(d)):
        raise ValueError("observations contain non-finite values")
    report = validate_mask(o)
    if report.empty_rows or report.empty_cols:
        raise ValueError(
            f"mask has empty rows {report.empty_rows} / columns {report.empty_cols}"
        )

    obs_norm = np.linalg.norm(d)
    if mask.all() or obs_norm == 0.0:
        # constraint pins every entry (or the zero matrix is optimal)
        return CompletionResult(completed=d, iterations=0, final_residual=0.0, converged=True)

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
