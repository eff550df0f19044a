"""Multi-user OFDM benchmark and overhead-adjusted spectral efficiencies.

Per-subcarrier eigen-beamforming tolerates inter-user interference; the
zero-forcing variant projects each UE onto the null space of the others and
water-fills power across all (UE, subcarrier) effective channels.  Both work
in the span of the path gains' rows, which holds every row of every
per-subcarrier response: the responses are built as H Q with at most K L M_r
columns.  Only ``ofdm_eigen``'s beamformers, which the OFDM waveform needs
with LAPACK's phases, come from the reduced SVD of the full responses; both
functions return that span's basis Q with their beamformers.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet, SimConfig, frequency_response
from .delay_design import InfeasibleError
from .numerics import RANK_TOL, water_fill

__all__ = [
    "OfdmBeamformerSet",
    "ofdm_eigen",
    "ofdm_eigen_sinrs",
    "ofdm_zf_waterfill",
    "dam_overhead_factor",
    "ofdm_overhead_factor",
    "dam_effective_rate",
    "ofdm_effective_rate",
]


@dataclass
class OfdmBeamformerSet:
    """Per-(UE, subcarrier) transmit/receive vectors and allocated powers.

    Every transmit vector lies in the span of ``basis``'s orthonormal
    columns, so the OFDM waveform is shaped in r dimensions instead of M_t.
    """

    v: np.ndarray       # (K, M, M_t)
    u: np.ndarray       # (K, M, M_r)
    power: np.ndarray   # (K, M) allocated transmit power per stream
    basis: np.ndarray   # (M_t, r) orthonormal, the rows of v lie in its span


def _path_span(channels: ChannelSet) -> np.ndarray:
    """Orthonormal Q (M_t, r) spanning every path gain's rows, r <= K L M_r."""
    q, _ = np.linalg.qr(channels.gains.reshape(-1, channels.M_t).conj().T)
    return q


def _responses_in_span(channels: ChannelSet, M: int, q: np.ndarray) -> np.ndarray:
    """(K, M, M_r, r) stack of H_km Q = (1/sqrt(M)) sum_l (H_kl Q) exp(2j pi m n_kl / M)."""
    return frequency_response(dataclasses.replace(channels, gains=channels.gains @ q), M)


def _top_pairs(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Top left singular vector u of every M_r x r block of h, and u^H h.

    u is the top eigenvector of the M_r x M_r Gram matrix h h^H, and u^H h is
    sigma_1 times the conjugated top right singular vector.
    """
    _, vecs = np.linalg.eigh(h @ h.conj().swapaxes(-1, -2))
    u = vecs[..., -1]
    return u, (u.conj()[..., None, :] @ h)[..., 0, :]


def ofdm_eigen_sinrs(channels: ChannelSet, M: int, P: float, sigma2: float) -> np.ndarray:
    """(K, M) SINRs of per-subcarrier eigen-beamforming at P/K per stream.

    SINRs do not depend on the singular vectors' phases, so the top singular
    pair of each block comes from H Q (r <= K L M_r columns): u is the top
    eigenvector of the M_r x M_r Gram matrix (H Q)(H Q)^H, and u^H H Q is
    sigma_1 times the top right singular vector.  Every coupling
    u^H H v = u^H (H Q) v~ is formed in r dimensions.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    h = _responses_in_span(channels, M, _path_span(channels))  # (K, M, M_r, r)
    K = channels.K
    _, uh = _top_pairs(h)                               # uh: (K, M, r)
    norm = np.linalg.norm(uh, axis=-1, keepdims=True)
    # unit-norm v~ at power P/K; a stream whose block is zero stays silent
    v = np.sqrt(P / K) * uh.conj() / np.maximum(norm, np.finfo(float).tiny)
    # coupling[k, kp, m] = u_{k,m}^H H_{k,m} v_{kp,m}
    coupling = np.einsum("kmt,jmt->kjm", uh, v)
    signal = np.abs(coupling[np.arange(K), np.arange(K)]) ** 2  # (K, M)
    interference = np.sum(np.abs(coupling) ** 2, axis=1) - signal
    return signal / (interference + sigma2 / M)


def ofdm_eigen(channels: ChannelSet, M: int, P: float) -> OfdmBeamformerSet:
    """Per-subcarrier top-singular-pair beamforming with equal power split.

    Every stream receives P/K so the frequency-domain budget M*P binds.  The
    beamformers come from the reduced SVD of the full M_r x M_t responses,
    whose phases the OFDM waveform keeps; ``ofdm_eigen_sinrs`` gives their
    SINRs.
    """
    u_all, _, vh_all = np.linalg.svd(frequency_response(channels, M), full_matrices=False)
    u = u_all[..., :, 0]                # (K, M, M_r)
    v_hat = vh_all[..., 0, :].conj()    # (K, M, M_t), unit norm
    frob = np.sqrt(np.sum(np.abs(v_hat) ** 2))  # sqrt(K*M)
    v = np.sqrt(M * P) * v_hat / frob           # each stream at power P/K
    power = np.full((channels.K, M), M * P / (channels.K * M))
    return OfdmBeamformerSet(v=v, u=u, power=power, basis=_path_span(channels))


# Interferer blocks whose Gram eigenvalues span a wider ratio than this take
# the SVD.  Gram eigenvalues are accurate only to about eps * lambda_max, too
# coarse for the rank rule s_i > RANK_TOL * s_0; above the ratio every s_i is kept.
GRAM_MIN_RATIO = 1e-8


def _project_off(h: np.ndarray, others: np.ndarray) -> np.ndarray:
    """h minus its orthogonal projection on the row space of others, per block.

    The row space keeps the right singular vectors with s_i > RANK_TOL * s_0.
    Where the eigenvalues of others others^H span at most GRAM_MIN_RATIO every
    one is kept, and the columns of others^H U, normalized, are those vectors.
    """
    oh = others.conj().swapaxes(1, 2)               # (M, r, R)
    lam, vecs = np.linalg.eigh(others @ oh)         # ascending
    rest = lam[:, 0] <= GRAM_MIN_RATIO * lam[:, -1]
    basis = oh @ vecs                               # columns s_i v_i
    norm = np.linalg.norm(basis, axis=1, keepdims=True)
    norm[rest] = 1.0                                # replaced below
    basis /= norm
    if rest.any():
        _, s_all, vh_all = np.linalg.svd(others[rest], full_matrices=False)
        keep = s_all > RANK_TOL * s_all[:, :1]
        basis[rest] = np.where(keep[:, :, None], vh_all, 0.0).conj().swapaxes(1, 2)
    return h - (h @ basis) @ basis.conj().swapaxes(1, 2)


def ofdm_zf_waterfill(
    channels: ChannelSet, M: int, P: float, sigma2: float
) -> tuple[OfdmBeamformerSet, np.ndarray, float]:
    """Null-space projection per UE plus water-filling across all streams.

    Feasible when M_t >= (K-1) M_r + 1; returns per-stream SNRs and the
    subcarrier-averaged sum rate in bits/s/Hz (before overhead discounts).
    Everything runs on H Q, where Q is an orthonormal basis of the span of
    all path gains' rows; since H = H Q Q^H, v = Q v~ is exact.  The
    interferers' row spaces and each projected block's top singular pair
    come from M_r-sized Gram matrices, as in ``ofdm_eigen_sinrs``.
    """
    K, M_r, M_t = channels.K, channels.M_r, channels.M_t
    if M_t < (K - 1) * M_r + 1:
        raise InfeasibleError(
            "OFDM zero-forcing infeasible: requires M_t >= (K-1)*M_r + 1, "
            f"got M_t={M_t}, M_r={M_r}, K={K}"
        )
    q = _path_span(channels)
    h = _responses_in_span(channels, M, q)
    sigma2_hat = sigma2 / M

    eff = h.reshape(K * M, M_r, -1)
    if K > 1:
        # every UE's blocks against the stacked blocks of the other UEs
        others = h[np.nonzero(~np.eye(K, dtype=bool))[1].reshape(K, K - 1)]
        eff = _project_off(eff, others.swapaxes(1, 2).reshape(K * M, (K - 1) * M_r, -1))
    u, uh = _top_pairs(eff)
    norm = np.linalg.norm(uh, axis=-1)
    gains = (norm**2 / sigma2_hat).reshape(K, M)
    # a block projected to zero gets gain 0 and a zero direction
    v_dir = (uh.conj() / np.maximum(norm, np.finfo(float).tiny)[:, None]).reshape(K, M, -1)

    powers = water_fill(gains.ravel(), M * P).reshape(K, M)
    v = (np.sqrt(powers)[..., None] * v_dir) @ q.T
    snr = gains * powers
    rate = float(np.sum(np.log2(1.0 + snr))) / M
    return OfdmBeamformerSet(v=v, u=u.reshape(K, M, M_r), power=powers, basis=q), snr, rate


def dam_overhead_factor(cfg: SimConfig) -> float:
    """Roll-off and per-coherence-block guard discount for single-carrier use."""
    return (1.0 / (1.0 + cfg.beta)) * (cfg.G_c - cfg.G_gi) / cfg.G_c


def ofdm_overhead_factor(cfg: SimConfig) -> float:
    """Cyclic-prefix discount M / (M + G_cp)."""
    return cfg.M / (cfg.M + cfg.G_cp)


def dam_effective_rate(dam_sinrs, cfg: SimConfig) -> float:
    return dam_overhead_factor(cfg) * float(np.sum(np.log2(1.0 + np.asarray(dam_sinrs))))


def ofdm_effective_rate(ofdm_sinrs, cfg: SimConfig) -> float:
    """Subcarrier-averaged sum rate times the cyclic-prefix discount."""
    per = np.asarray(ofdm_sinrs)
    return ofdm_overhead_factor(cfg) * float(np.sum(np.log2(1.0 + per))) / cfg.M
