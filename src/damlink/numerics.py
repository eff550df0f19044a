"""Dense complex linear algebra and power-allocation primitives.

Everything here is pure and reentrant.  ``jacobi_eigh`` diagonalizes stacks
of small Hermitian matrices (OFDM's K M per-subcarrier Grams) held as entry
planes (n, n, ...): a 2x2 stack by one exact Jacobi rotation, elementwise
over the contiguous planes, where LAPACK would pay its per-call overhead once
per block, and any other size by ``np.linalg.eigh``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "null_space_basis",
    "path_span",
    "other_groups",
    "project_off_others",
    "jacobi_eigh",
    "water_fill",
    "RANK_TOL",
    "GRAM_MIN_RATIO",
]

# Relative singular-value threshold used for rank decisions throughout.
RANK_TOL = 1e-10

# Interferer Grams whose eigenvalues span a wider ratio than this are not
# inverted; OFDM zero-forcing takes ``project_off_others`` there instead.
# Gram eigenvalues are accurate only to about eps * lambda_max, so a Schur
# complement through G_oo^-1 errs by about eps / ratio (README: measured).
GRAM_MIN_RATIO = 1e-5


def null_space_basis(a, tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the kernel of ``a``, shape (cols, cols - rank)."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
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

    Q holds the left singular vectors of the stacked rows' conjugate
    transpose with s_i > RANK_TOL * s_0, so r is the numerical rank at
    RANK_TOL: K L for rank-1 path gains, not their K L M_r rows.  Also
    returns the coordinates gains Q, so that gains = (gains Q) Q^H.
    """
    u, s, _ = np.linalg.svd(gains.reshape(-1, gains.shape[-1]).conj().T, full_matrices=False)
    q = u[:, : int(np.sum(s > RANK_TOL * s[:1]))]
    return q, gains @ q


def other_groups(G: int) -> np.ndarray:
    """(G, G - 1) indices of every group but g, in order, in row g."""
    skip = np.arange(G - 1)
    return skip[None, :] + (skip[None, :] >= np.arange(G)[:, None])


def project_off_others(blocks: np.ndarray) -> np.ndarray:
    """Each of the G blocks (..., G, m, n) minus its projection on the others' row space.

    The row space of the other G - 1 blocks is spanned by the right singular
    vectors of their stacked rows with s_i > RANK_TOL * s_0, from one batched
    reduced SVD; n may be smaller than (G - 1) m, as in a ``path_span``
    trimmed to the rank of the rows.
    """
    G, m, n = blocks.shape[-3:]
    if G == 1:
        return blocks
    others = blocks[..., other_groups(G), :, :].reshape(*blocks.shape[:-3], G, (G - 1) * m, n)
    _, s, vh = np.linalg.svd(others, full_matrices=False)
    keep = s > RANK_TOL * s[..., :1]
    basis = np.where(keep[..., None], vh, 0.0).conj().swapaxes(-1, -2)
    return blocks - (blocks @ basis) @ basis.conj().swapaxes(-1, -2)


def jacobi_eigh(a) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues (n, ...) and unitary eigenvectors (columns of (n, n, ...))
    of a Hermitian stack held entries first, as planes (n, n, ...), read from its
    lower triangle.  Unlike ``np.linalg.eigh``, the matrix axes lead: a stack of
    (..., n, n) blocks must be moved first, as (2, 2, 2) would be read as 2x2 planes.

    At n = 2 one Jacobi rotation, elementwise over the planes, diagonalizes
    every block exactly (Golub and Van Loan, Matrix Computations, sec. 8.5,
    sym.schur2), where LAPACK would pay its per-call overhead once per block:
    with e the phase of a_01 and t = tan(theta), the rotation J = [[c, s e],
    [-(s e)^*, c]] zeroes a_01, shifts the diagonal by t |a_01|, and one
    compare-exchange orders the pair.  Every other n takes ``np.linalg.eigh``
    on moved axes.  Raises ValueError on non-finite input.
    """
    a = np.asarray(a, dtype=complex)
    if not np.isfinite(a[np.tri(a.shape[0], dtype=bool)]).all():
        raise ValueError("jacobi_eigh input has non-finite entries")
    if a.shape[0] != 2:
        lam, v = np.linalg.eigh(np.moveaxis(a, (0, 1), (-2, -1)))
        return np.moveaxis(lam, -1, 0), np.moveaxis(v, (-2, -1), (0, 1))
    d0, d1, apq = a[0, 0].real, a[1, 1].real, a[1, 0].conj()
    b, diff = np.abs(apq), d1 - d0
    den = np.abs(diff) + np.hypot(diff, 2.0 * b)
    # t = g b and s e = c t apq / b = c g apq; a pair below the normal range
    # is left unrotated, so g cannot overflow
    tiny = np.finfo(float).tiny
    g = np.divide(np.copysign(2.0, diff), den, out=np.zeros_like(den), where=den > tiny)
    t = g * b
    c = 1.0 / np.sqrt(1.0 + t * t)
    se = (c * g) * apq
    shift = t * b
    lo, hi = d0 - shift, d1 + shift
    # J's off-diagonal entries as rotating the identity leaves them: a zero part is +0
    se, minus_se = se + 0.0, 0.0 - se.conj()
    swap = lo > hi
    lam = np.stack([np.where(swap, hi, lo), np.where(swap, lo, hi)])
    v = np.stack([np.where(swap, se, c), np.where(swap, c, se),
                  np.where(swap, c, minus_se), np.where(swap, minus_se, c)])
    return lam, v.reshape(2, 2, *v.shape[1:])


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
