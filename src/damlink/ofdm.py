"""Multi-user OFDM benchmark and overhead-adjusted spectral efficiencies.

Per-subcarrier eigen-beamforming tolerates inter-user interference; the
zero-forcing variant projects each UE onto the null space of the others and
water-fills power across all (UE, subcarrier) effective channels.  Neither
builds an M_t x M_t factor: eigen-beamforming takes the reduced SVD, and
zero-forcing works in the span of the path gains' rows, which holds every
row of every per-subcarrier response.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet, SimConfig, frequency_response
from .delay_design import InfeasibleError
from .numerics import water_fill

__all__ = [
    "OfdmBeamformerSet",
    "ofdm_eigen",
    "ofdm_zf_waterfill",
    "dam_overhead_factor",
    "ofdm_overhead_factor",
    "dam_effective_rate",
    "ofdm_effective_rate",
]


@dataclass
class OfdmBeamformerSet:
    """Per-(UE, subcarrier) transmit/receive vectors and allocated powers."""

    v: np.ndarray       # (K, M, M_t)
    u: np.ndarray       # (K, M, M_r)
    power: np.ndarray   # (K, M) allocated transmit power per stream

    def total_transmit_power(self) -> float:
        return float(np.sum(np.abs(self.v) ** 2))


def _stacked_responses(channels: ChannelSet, M: int) -> np.ndarray:
    return np.stack([frequency_response(ue, M) for ue in channels.ues])  # (K, M, M_r, M_t)


def ofdm_eigen(
    channels: ChannelSet, M: int, P: float, sigma2: float
) -> tuple[OfdmBeamformerSet, np.ndarray]:
    """Per-subcarrier top-singular-pair beamforming with equal power split.

    Every stream receives P/K so the frequency-domain budget M*P binds; the
    per-subcarrier noise power is sigma2 / M.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    h = _stacked_responses(channels, M)
    K = channels.K
    u_all, _, vh_all = np.linalg.svd(h, full_matrices=False)
    u = u_all[..., :, 0]                # (K, M, M_r)
    v_hat = vh_all[..., 0, :].conj()    # (K, M, M_t), unit norm
    frob = np.sqrt(np.sum(np.abs(v_hat) ** 2))  # sqrt(K*M)
    v = np.sqrt(M * P) * v_hat / frob           # each stream at power P/K

    sigma2_hat = sigma2 / M
    # coupling[k, kp, m] = u_{k,m}^H H_{k,m} v_{kp,m}
    uh = (u.conj()[..., None, :] @ h)[..., 0, :]  # (K, M, M_t)
    coupling = np.einsum("kmt,jmt->kjm", uh, v)
    signal = np.abs(coupling[np.arange(K), np.arange(K)]) ** 2  # (K, M)
    total = np.sum(np.abs(coupling) ** 2, axis=1)               # (K, M)
    interference = total - signal
    sinr = signal / (interference + sigma2_hat)
    power = np.full((K, M), M * P / (K * M))
    return OfdmBeamformerSet(v=v, u=u, power=power), sinr


def ofdm_zf_waterfill(
    channels: ChannelSet, M: int, P: float, sigma2: float, tol: float = 1e-10
) -> tuple[OfdmBeamformerSet, np.ndarray, float]:
    """Null-space projection per UE plus water-filling across all streams.

    Feasible when M_t >= (K-1) M_r + 1; returns per-stream SNRs and the
    subcarrier-averaged sum rate in bits/s/Hz (before overhead discounts).
    Both SVDs run on H Q, where Q is an orthonormal basis of the span of all
    path gains' rows; since H = H Q Q^H, v = Q v~ is exact.
    """
    K, M_r, M_t = channels.K, channels.M_r, channels.M_t
    if M_t < (K - 1) * M_r + 1:
        raise InfeasibleError(
            "OFDM zero-forcing infeasible: requires M_t >= (K-1)*M_r + 1, "
            f"got M_t={M_t}, M_r={M_r}, K={K}"
        )
    rows = np.concatenate([ue.gains.reshape(-1, M_t) for ue in channels.ues])
    q, _ = np.linalg.qr(rows.conj().T)               # (M_t, min(M_t, K L M_r))
    h = _stacked_responses(channels, M) @ q
    sigma2_hat = sigma2 / M

    gains = np.zeros((K, M))
    u = np.zeros((K, M, M_r), dtype=complex)
    v_dir = np.zeros((K, M, q.shape[1]), dtype=complex)
    for k in range(K):
        if K > 1:
            # orthogonal projection off the interferers' row space; the
            # explicit kernel basis is never needed
            others = np.concatenate([h[kp] for kp in range(K) if kp != k], axis=1)
            _, s_all, vh_all = np.linalg.svd(others, full_matrices=False)
            keep = s_all > tol * s_all[:, :1]          # (M, rows) row-space mask
            vh_all = np.where(keep[:, :, None], vh_all, 0.0)
            eff = h[k] - (h[k] @ vh_all.conj().transpose(0, 2, 1)) @ vh_all
        else:
            eff = h[k]
        u_m, s_m, vh_m = np.linalg.svd(eff, full_matrices=False)
        gains[k] = s_m[:, 0] ** 2 / sigma2_hat
        u[k] = u_m[:, :, 0]
        v_dir[k] = vh_m[:, 0].conj()

    powers = water_fill(gains.ravel(), M * P).reshape(K, M)
    v = np.sqrt(powers)[..., None] * (v_dir @ q.T)
    snr = gains * powers
    rate = float(np.sum(np.log2(1.0 + snr))) / M
    return OfdmBeamformerSet(v=v, u=u, power=powers), snr, rate


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
