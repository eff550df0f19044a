"""Dense complex linear algebra and power-allocation primitives.

Everything here is pure and reentrant.  ``jacobi_eigh`` diagonalizes stacks
of small Hermitian matrices (OFDM's K M per-subcarrier Grams) by cyclic
Jacobi rotations vectorized across the stack, where LAPACK would pay its
per-call overhead once per block.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "rank",
    "null_space_basis",
    "path_span",
    "project_off_others",
    "jacobi_eigh",
    "water_fill",
    "RANK_TOL",
    "GRAM_MIN_RATIO",
    "JACOBI_MAX_SWEEPS",
]

# Relative singular-value threshold used for rank decisions throughout.
RANK_TOL = 1e-10

# Interferer Grams whose eigenvalues span a wider ratio than this are not
# inverted; OFDM zero-forcing takes ``project_off_others`` there instead.
# Gram eigenvalues are accurate only to about eps * lambda_max, so a Schur
# complement through G_oo^-1 errs by about eps / ratio (README: measured).
GRAM_MIN_RATIO = 1e-5

# Cyclic Jacobi converges quadratically, in about 4-7 sweeps up to n = 6 (one
# sweep, a single exact rotation, at n = 2); a stack still off-diagonal after
# this many sweeps raises instead of returning unconverged eigenpairs.
JACOBI_MAX_SWEEPS = 30


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    return a


def rank(a, tol: float = RANK_TOL) -> int:
    """Number of singular values above tol * largest singular value."""
    a = _as_matrix(a)
    if a.size == 0:
        return 0
    if not np.all(np.isfinite(a)):
        raise ValueError("rank input has non-finite entries")
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))


def null_space_basis(a, tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the kernel of ``a``, shape (cols, cols - rank)."""
    a = _as_matrix(a)
    n_cols = a.shape[1]
    if a.shape[0] == 0 or not np.any(a):
        return np.eye(n_cols, dtype=complex)
    if not np.all(np.isfinite(a)):
        raise ValueError("null_space_basis input has non-finite entries")
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    r = int(np.sum(s > tol * s[0])) if s.size else 0
    return vh[r:].conj().T


def path_span(gains: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal Q (n, r) spanning the rows of every matrix in ``gains`` (..., m, n).

    Also returns the coordinates gains Q, so that gains = (gains Q) Q^H and
    r is at most the total number of rows.
    """
    q, _ = np.linalg.qr(gains.reshape(-1, gains.shape[-1]).conj().T)
    return q, gains @ q


def project_off_others(blocks: np.ndarray) -> np.ndarray:
    """Each of the G blocks (..., G, m, n) minus its projection on the others' row space.

    The row space of the other G - 1 blocks is spanned by the right singular
    vectors of their stacked rows with s_i > RANK_TOL * s_0, from one batched
    reduced SVD.  Needs (G - 1) m <= n, which zero-forcing feasibility implies.
    """
    G, m, n = blocks.shape[-3:]
    if G == 1:
        return blocks
    skip = np.arange(G - 1)
    idx = skip[None, :] + (skip[None, :] >= np.arange(G)[:, None])  # (G, G - 1)
    others = blocks[..., idx, :, :].reshape(*blocks.shape[:-3], G, (G - 1) * m, n)
    _, s, vh = np.linalg.svd(others, full_matrices=False)
    keep = s > RANK_TOL * s[..., :1]
    basis = np.where(keep[..., None], vh, 0.0).conj().swapaxes(-1, -2)
    return blocks - (blocks @ basis) @ basis.conj().swapaxes(-1, -2)


def jacobi_eigh(a) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues (..., n) and unitary eigenvectors (..., n, n) of a
    Hermitian stack (..., n, n), read from its lower triangle like ``np.linalg.eigh``.

    The stack is held batch-last, as its real diagonal d (n, B) and its
    off-diagonal part x (n, n, B), so each rotation updates whole contiguous
    rows for every matrix at once.  Rotation (p, q) takes the phase e of
    a_pq and the angle t = tan(theta) that zero it exactly, then updates
    rows p and q; the columns are their conjugates.  A sweep visits every
    pair, and sweeps stop once every |a_pq| <= eps sqrt(|a_pp a_qq|), the
    relative rule under which Jacobi keeps the small eigenvalues of a
    positive semidefinite Gram to high relative accuracy (Demmel and
    Veselic, SIAM J. Matrix Anal. Appl. 13(4), 1992).  A bubble-sort network
    of compare-exchanges then orders the pairs.  Raises ValueError on
    non-finite input and LinAlgError after JACOBI_MAX_SWEEPS sweeps.
    """
    a = np.asarray(a)
    *lead, n, _ = a.shape
    batch = math.prod(lead)
    x = np.array(a.reshape(batch, n, n).transpose(1, 2, 0), dtype=complex, order="C")
    for i in range(n):
        for j in range(i + 1, n):
            x[i, j] = x[j, i].conj()
    if not np.all(np.isfinite(x)):
        raise ValueError("jacobi_eigh input has non-finite entries")
    d = np.diagonal(x).real.T.copy()                                   # (n, B)
    v = np.zeros_like(x)
    for i in range(n):
        x[i, i] = 0.0
        v[i, i] = 1.0
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    rows = np.array([p for p, _ in pairs], dtype=np.intp)
    cols = np.array([q for _, q in pairs], dtype=np.intp)
    tol, tiny = np.finfo(float).eps, np.finfo(float).tiny
    for _ in range(JACOBI_MAX_SWEEPS):
        for p, q in pairs:
            apq = x[p, q]
            b, diff = np.abs(apq), d[q] - d[p]
            den = np.abs(diff) + np.hypot(diff, 2.0 * b)
            # t = g b and s e = c t apq / b = c g apq; a pair below the normal
            # range is dropped, not rotated, so g cannot overflow
            g = np.divide(np.copysign(2.0, diff), den, out=np.zeros_like(den), where=den > tiny)
            t = g * b
            c = 1.0 / np.sqrt(1.0 + t * t)
            se = (c * g) * apq
            shift = t * b
            d[p] -= shift
            d[q] += shift
            row_p = x[p].copy()
            x[p] = c * row_p - se * x[q]
            x[q] = se.conj() * row_p + c * x[q]
            x[:, p], x[:, q] = x[p].conj(), x[q].conj()
            x[p, p], x[q, q], x[p, q], x[q, p] = 0.0, 0.0, 0.0, 0.0
            col_p = v[:, p].copy()
            v[:, p] = c * col_p - se.conj() * v[:, q]
            v[:, q] = se * col_p + c * v[:, q]
        root = np.sqrt(np.abs(d))
        if np.all(np.abs(x[rows, cols]) <= tol * root[rows] * root[cols]):
            break
    else:
        raise np.linalg.LinAlgError(f"jacobi_eigh did not converge in {JACOBI_MAX_SWEEPS} sweeps")
    for end in range(n - 1, 0, -1):
        for i in range(end):
            swap = d[i] > d[i + 1]
            d[i], d[i + 1] = np.where(swap, d[i + 1], d[i]), np.where(swap, d[i], d[i + 1])
            v[:, i], v[:, i + 1] = np.where(swap, v[:, i + 1], v[:, i]), np.where(swap, v[:, i], v[:, i + 1])
    return d.T.reshape(*lead, n), v.transpose(2, 0, 1).reshape(*lead, n, n)


def water_fill(gains, total_power: float) -> np.ndarray:
    """Water-filling power allocation over parallel channels.

    ``gains`` are effective power gains g_i (SNR per unit power); the active
    channels satisfy p_i = level - 1/g_i with a common water level, inactive
    channels get zero.  Solved exactly: with the gains sorted, the active
    count is the largest n whose level (P + sum of the n smallest 1/g) / n
    reaches the n-th smallest 1/g, read off one cumulative sum.
    """
    g = np.asarray(gains, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise ValueError("gains must be a non-empty 1-D array")
    if total_power <= 0.0:
        raise ValueError("total_power must be positive")
    if np.any(g < 0.0) or not np.all(np.isfinite(g)):
        raise ValueError("gains must be finite and non-negative")
    if not np.any(g > 0.0):
        raise ValueError("all channel gains are zero")

    order = np.argsort(g)[::-1]
    n_pos = int(np.sum(g > 0.0))
    inv = 1.0 / g[order[:n_pos]]

    levels = (total_power + np.cumsum(inv)) / np.arange(1, n_pos + 1)
    n_active = 1 + int(np.flatnonzero(levels >= inv)[-1])  # n = 1 always qualifies
    level = (total_power + inv[:n_active].sum()) / n_active

    powers = np.zeros_like(g)
    powers[order[:n_active]] = level - inv[:n_active]
    return powers
