"""Multi-user OFDM benchmark and overhead-adjusted spectral efficiencies.

Per-subcarrier eigen-beamforming tolerates inter-user interference; the
zero-forcing variant projects each UE onto the null space of the others and
water-fills power across all (UE, subcarrier) effective channels.  Both read
a path's subcarrier weights c from ``channel.subcarrier_coefficients``.
Eigen SINRs need only the cross Grams H_km H_jm^H = sum c_kl[m] c_jl'[m]^*
H_kl H_jl'^H; zero-forcing works on sum_l c_kl[m] H_kl Q, where Q
(``numerics.path_span``) spans all path gains' rows in <= K L M_r columns.
``ofdm_eigen``'s beamformers, which the OFDM waveform needs with LAPACK's
phases, come from the reduced SVD of the full responses.  Both beamformer
functions return Q and each transmit vector's coordinates v~ = Q^H v.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet, SimConfig, frequency_response, subcarrier_coefficients
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

    Transmit vectors are stored as their coordinates v~ in ``basis``'s r
    orthonormal columns (v = Q v~), so none can leave that span and the OFDM
    waveform is shaped in r dimensions instead of M_t.
    """

    coords: np.ndarray  # (K, M, r) transmit vectors in basis coordinates
    u: np.ndarray       # (K, M, M_r)
    power: np.ndarray   # (K, M) allocated transmit power per stream
    basis: np.ndarray   # (M_t, r) orthonormal

    @property
    def v(self) -> np.ndarray:  # (K, M, M_t)
        return self.coords @ self.basis.T


def ofdm_eigen_sinrs(channels: ChannelSet, M: int, P: float, sigma2: float) -> np.ndarray:
    """(K, M) SINRs of per-subcarrier eigen-beamforming at P/K per stream.

    SINRs do not depend on the singular vectors' phases, so they come from
    the M_r x M_r cross Grams G_kj[m] = H_km H_jm^H alone: sums over path
    pairs of c_kl[m] c_jl'[m]^* H_kl H_jl'^H, with c the subcarrier
    coefficients and every H_kl H_jl'^H from one Gram of the path rows.  With
    u_k and sigma_k^2 the top eigenpair of G_kk, v_j = H_j^H u_j / sigma_j, so
    UE j reaches UE k with the power (P/K) |u_k^H G_kj u_j|^2 / sigma_j^2.
    """
    K, L, M_r, M_t = channels.gains.shape
    rows = channels.gains.reshape(K * L * M_r, M_t)
    pairs = (rows @ rows.conj().T).reshape(K, L, M_r, K, L, M_r)
    pairs = pairs.transpose(0, 3, 1, 4, 2, 5).reshape(K, K, L * L, M_r * M_r)
    c = subcarrier_coefficients(channels, M)                         # (K, M, L)
    coef = (c[:, None, :, :, None] * c.conj()[None, :, :, None, :]).reshape(K, K, M, L * L)
    gram = (coef @ pairs).reshape(K, K, M, M_r, M_r)
    idx = np.arange(K)
    lam, vecs = np.linalg.eigh(gram[idx, idx])
    top, u = lam[..., -1], vecs[..., -1]                            # (K, M), (K, M, M_r)
    coupling = np.einsum("kmr,kjmrs,jms->kjm", u.conj(), gram, u)
    # UE j's power at UE k; a stream whose block is zero stays silent
    leak = np.abs(coupling) ** 2 * np.divide(P / K, top, out=np.zeros_like(top), where=top > 0)
    leak[idx, idx] = 0.0
    return (P / K) * top / (np.sum(leak, axis=1) + sigma2 / M)


def ofdm_eigen(channels: ChannelSet, M: int, P: float) -> OfdmBeamformerSet:
    """Per-subcarrier top-singular-pair beamforming with equal power split.

    Every stream receives P/K so the frequency-domain budget M*P binds.  The
    beamformers come from the reduced SVD of the full M_r x M_t responses,
    whose phases the OFDM waveform keeps.  ``ofdm_eigen_sinrs`` gives their
    SINRs from the M_r x M_r cross Grams alone, without these vectors.
    """
    u_all, _, vh_all = np.linalg.svd(frequency_response(channels, M), full_matrices=False)
    u = u_all[..., :, 0]                # (K, M, M_r)
    v_hat = vh_all[..., 0, :].conj()    # (K, M, M_t), unit norm
    frob = np.sqrt(np.sum(np.abs(v_hat) ** 2))  # sqrt(K*M)
    v = np.sqrt(M * P) * v_hat / frob           # each stream at power P/K
    power = np.full((channels.K, M), M * P / (channels.K * M))
    q = path_span(channels.gains)[0]
    return OfdmBeamformerSet(coords=v @ q.conj(), u=u, power=power, basis=q)


def ofdm_zf_waterfill(
    channels: ChannelSet, M: int, P: float, sigma2: float
) -> tuple[OfdmBeamformerSet, np.ndarray, float]:
    """Null-space projection per UE plus water-filling across all streams.

    Feasible when M_t >= (K-1) M_r + 1; returns per-stream SNRs and the
    subcarrier-averaged sum rate in bits/s/Hz (before overhead discounts).
    Everything runs on the responses H Q, at most K L M_r columns wide, where
    Q = ``numerics.path_span`` spans all path gains' rows; since H = H Q Q^H,
    v = Q v~ is exact and v~ is stored.  ``numerics.project_off_others``
    takes every UE's block off the other UEs' row space per subcarrier.  A
    projected block's top left singular vector u is its M_r x M_r Gram's top
    eigenvector, and u^H (H Q) is sigma_1 times the conjugated top right one.
    """
    K, M_r, M_t = channels.K, channels.M_r, channels.M_t
    if M_t < (K - 1) * M_r + 1:
        raise InfeasibleError(
            "OFDM zero-forcing infeasible: requires M_t >= (K-1)*M_r + 1, "
            f"got M_t={M_t}, M_r={M_r}, K={K}"
        )
    q, coords = path_span(channels.gains)
    h = subcarrier_coefficients(channels, M) @ coords.reshape(K, channels.L, -1)
    h = h.reshape(K, M, M_r, -1)                                     # (K, M, M_r, r)

    # the K UEs of each subcarrier are the groups
    eff = project_off_others(h.swapaxes(0, 1)).swapaxes(0, 1).reshape(K * M, M_r, -1)
    u = np.linalg.eigh(eff @ eff.conj().swapaxes(-1, -2))[1][..., -1]
    uh = (u.conj()[:, None, :] @ eff)[:, 0, :]
    norm = np.linalg.norm(uh, axis=-1)
    gains = (norm**2 / (sigma2 / M)).reshape(K, M)
    # a block projected to zero gets gain 0 and a zero direction
    v_dir = (uh.conj() / np.maximum(norm, np.finfo(float).tiny)[:, None]).reshape(K, M, -1)

    powers = water_fill(gains.ravel(), M * P).reshape(K, M)
    v_coords = np.sqrt(powers)[..., None] * v_dir
    snr = gains * powers
    rate = float(np.sum(np.log2(1.0 + snr))) / M
    return OfdmBeamformerSet(v_coords, u.reshape(K, M, M_r), powers, q), snr, rate


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
