"""Multi-user OFDM benchmark and overhead-adjusted spectral efficiencies.

Per-subcarrier eigen-beamforming tolerates inter-user interference; the
zero-forcing variant projects each UE onto the null space of the others and
water-fills power across all (UE, subcarrier) effective channels.  Both work
in the span of the path gains' rows, which holds every row of every
per-subcarrier response: the responses are built as H Q with at most K L M_r
columns, and ``numerics.path_span`` gives its basis Q.  Only ``ofdm_eigen``'s
beamformers, which the OFDM waveform needs with LAPACK's phases, come from
the reduced SVD of the full responses; both functions return Q with their
beamformers.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet, SimConfig, frequency_response
from .delay_design import InfeasibleError
from .numerics import path_span, project_off_others, water_fill

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


def _span_responses(channels: ChannelSet, M: int) -> tuple[np.ndarray, np.ndarray]:
    """The path span Q (M_t, r) and the (K, M, M_r, r) stack of
    H_km Q = (1/sqrt(M)) sum_l (H_kl Q) exp(2j pi m n_kl / M)."""
    q, coords = path_span(channels.gains)
    return q, frequency_response(dataclasses.replace(channels, gains=coords), M)


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
    _, h = _span_responses(channels, M)                 # (K, M, M_r, r)
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
    return OfdmBeamformerSet(v=v, u=u, power=power, basis=path_span(channels.gains)[0])


def ofdm_zf_waterfill(
    channels: ChannelSet, M: int, P: float, sigma2: float
) -> tuple[OfdmBeamformerSet, np.ndarray, float]:
    """Null-space projection per UE plus water-filling across all streams.

    Feasible when M_t >= (K-1) M_r + 1; returns per-stream SNRs and the
    subcarrier-averaged sum rate in bits/s/Hz (before overhead discounts).
    Everything runs on H Q, where Q is an orthonormal basis of the span of
    all path gains' rows; since H = H Q Q^H, v = Q v~ is exact.  On each
    subcarrier ``numerics.project_off_others`` takes every UE's block off
    the other UEs' row space, and each projected block's top singular pair
    comes from its M_r x M_r Gram matrix, as in ``ofdm_eigen_sinrs``.
    """
    K, M_r, M_t = channels.K, channels.M_r, channels.M_t
    if M_t < (K - 1) * M_r + 1:
        raise InfeasibleError(
            "OFDM zero-forcing infeasible: requires M_t >= (K-1)*M_r + 1, "
            f"got M_t={M_t}, M_r={M_r}, K={K}"
        )
    q, h = _span_responses(channels, M)
    sigma2_hat = sigma2 / M

    # the K UEs of each subcarrier are the groups
    eff = project_off_others(h.swapaxes(0, 1)).swapaxes(0, 1).reshape(K * M, M_r, -1)
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
