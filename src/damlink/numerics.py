"""Dense complex linear algebra and power-allocation primitives.

Everything here is pure and reentrant.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "rank",
    "null_space_basis",
    "water_fill",
    "RANK_TOL",
]

# Relative singular-value threshold used for rank decisions throughout.
RANK_TOL = 1e-10


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


def water_fill(gains, total_power: float) -> np.ndarray:
    """Water-filling power allocation over parallel channels.

    ``gains`` are effective power gains g_i (SNR per unit power); the active
    channels satisfy p_i = level - 1/g_i with a common water level, inactive
    channels get zero.  Solved exactly by sorting and scanning active sets.
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

    n_active = n_pos
    level = (total_power + inv.sum()) / n_pos
    while n_active > 1 and level < inv[n_active - 1]:
        n_active -= 1
        level = (total_power + inv[:n_active].sum()) / n_active

    powers = np.zeros_like(g)
    powers[order[:n_active]] = level - inv[:n_active]
    return powers
