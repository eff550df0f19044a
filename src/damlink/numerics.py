"""Dense complex linear algebra and power-allocation primitives.

Everything here is pure and reentrant.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "rank",
    "null_space_basis",
    "path_span",
    "project_off_others",
    "water_fill",
    "RANK_TOL",
    "GRAM_MIN_RATIO",
]

# Relative singular-value threshold used for rank decisions throughout.
RANK_TOL = 1e-10

# Interferer Grams whose eigenvalues span a wider ratio than this are not
# inverted; OFDM zero-forcing takes ``project_off_others`` there instead.
# Gram eigenvalues are accurate only to about eps * lambda_max, too coarse
# for the rank rule s_i > RANK_TOL * s_0; above the ratio every s_i is kept.
GRAM_MIN_RATIO = 1e-8


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
