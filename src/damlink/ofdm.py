"""Multi-user OFDM benchmark and overhead-adjusted spectral efficiencies.

Per-subcarrier eigen-beamforming tolerates inter-user interference; the
zero-forcing variant sends each UE off the other UEs' rows (block
diagonalization) and water-fills power across all (UE, subcarrier) streams.
Both read a path's subcarrier weights c from
``channel.subcarrier_coefficients``.  Their SINRs need only the M_r x M_r
cross Grams G_kj[m] = H_km H_jm^H = sum c_kl[m] c_jl'[m]^* H_kl H_jl'^H.
The ZF beamformers take one route: ``numerics.project_off_others`` on the
responses sum_l c_kl[m] H_kl Q, where Q (``numerics.path_span``) spans all
path gains' rows in <= K L M_r columns.  The rate's fast path is their
Gram, S_k = G_kk - G_ko G_oo^-1 G_ok, a Schur complement of the cross
Grams; a subcarrier whose G_oo is too ill-conditioned for it takes the
projection.  Every Hermitian eigenproblem here is one batched
``numerics.jacobi_eigh`` call over all K M blocks; SINRs and rates read
eigenvalues, and eigenvectors only up to phase.  ``ofdm_eigen``'s
beamformers, which the OFDM waveform needs with LAPACK's phases, come from
the reduced SVD of the full responses.  Both beamformer functions return Q
and each transmit vector's coordinates v~ = Q^H v.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet, SimConfig, frequency_response, subcarrier_coefficients
from .delay_design import InfeasibleError
from .numerics import GRAM_MIN_RATIO, jacobi_eigh, path_span, project_off_others, water_fill

__all__ = [
    "OfdmBeamformerSet",
    "ofdm_eigen",
    "ofdm_eigen_sinrs",
    "ofdm_zf_waterfill",
    "ofdm_zf_beamformers",
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


def _cross_grams(channels: ChannelSet, M: int) -> np.ndarray:
    """(K, K, M, M_r, M_r) cross Grams G_kj[m] = H_km H_jm^H.

    Sums over path pairs of c_kl[m] c_jl'[m]^* H_kl H_jl'^H, with c the
    subcarrier coefficients and every H_kl H_jl'^H from one Gram of the path
    rows.
    """
    K, L, M_r, M_t = channels.gains.shape
    rows = channels.gains.reshape(K * L * M_r, M_t)
    pairs = (rows @ rows.conj().T).reshape(K, L, M_r, K, L, M_r)
    pairs = pairs.transpose(0, 3, 1, 4, 2, 5).reshape(K, K, L * L, M_r * M_r)
    c = subcarrier_coefficients(channels, M)                         # (K, M, L)
    coef = (c[:, None, :, :, None] * c.conj()[None, :, :, None, :]).reshape(K, K, M, L * L)
    return (coef @ pairs).reshape(K, K, M, M_r, M_r)


def ofdm_eigen_sinrs(channels: ChannelSet, M: int, P: float, sigma2: float) -> np.ndarray:
    """(K, M) SINRs of per-subcarrier eigen-beamforming at P/K per stream.

    SINRs do not depend on the singular vectors' phases, so they come from
    the cross Grams G_kj[m] = H_km H_jm^H alone.  With u_k and sigma_k^2 the
    top eigenpair of G_kk, v_j = H_j^H u_j / sigma_j, so UE j reaches UE k
    with the power (P/K) |u_k^H G_kj u_j|^2 / sigma_j^2.
    """
    K = channels.K
    gram = _cross_grams(channels, M)
    idx = np.arange(K)
    lam, vecs = jacobi_eigh(gram[idx, idx])
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


def _require_zf_feasible(channels: ChannelSet) -> None:
    K, M_r, M_t = channels.K, channels.M_r, channels.M_t
    if M_t < (K - 1) * M_r + 1:
        raise InfeasibleError(
            "OFDM zero-forcing infeasible: requires M_t >= (K-1)*M_r + 1, "
            f"got M_t={M_t}, M_r={M_r}, K={K}"
        )


def _other_ues(K: int) -> np.ndarray:
    """(K, K - 1) indices of every UE but k, in order."""
    skip = np.arange(K - 1)
    return skip[None, :] + (skip[None, :] >= np.arange(K)[:, None])


def _zf_projected(channels: ChannelSet, M: int, subcarriers=slice(None)):
    """Q and the (K, m, M_r, r) span responses H_km Q on ``subcarriers``, each
    UE's block taken off the other UEs' rows; H = H Q Q^H, so nothing is lost."""
    K, M_r = channels.K, channels.M_r
    q, coords = path_span(channels.gains)
    c = subcarrier_coefficients(channels, M)[:, subcarriers]
    h = (c @ coords.reshape(K, channels.L, -1)).reshape(K, -1, M_r, q.shape[1])
    # the K UEs of each subcarrier are the groups
    return q, project_off_others(h.swapaxes(0, 1)).swapaxes(0, 1)


def _zf_schur(channels: ChannelSet, M: int) -> np.ndarray:
    """(K, M, M_r, M_r) Gram of each UE's block projected off the other UEs' rows.

    With G_oo = W diag(lam) W^H from one batched ``numerics.jacobi_eigh`` and
    B = G_ko W, it is the Schur complement S_k = G_kk - B diag(1/lam) B^H.
    Gram eigenvalues are accurate only to about eps * lam_max, so every
    subcarrier where some UE's lam span more than GRAM_MIN_RATIO takes the
    ``_zf_projected`` blocks' Grams instead.
    """
    K, M_r = channels.K, channels.M_r
    grams = _cross_grams(channels, M)
    own, idx = np.arange(K), _other_ues(K)
    schur = grams[own, own]                                          # (K, M, M_r, M_r)
    if K == 1:
        return schur
    g_ko = grams[own[:, None], idx].transpose(0, 2, 3, 1, 4).reshape(K, M, M_r, -1)
    g_oo = grams[idx[:, :, None], idx[:, None, :]].transpose(0, 3, 1, 4, 2, 5)
    lam, w = jacobi_eigh(g_oo.reshape(K, M, (K - 1) * M_r, -1))     # ascending
    to_svd = lam[..., 0] <= GRAM_MIN_RATIO * lam[..., -1]            # (K, M)
    b = g_ko @ w
    inv = np.divide(1.0, lam, out=np.zeros_like(lam), where=~to_svd[..., None])
    schur = schur - b @ (inv[..., :, None] * b.conj().swapaxes(-1, -2))
    handed = np.flatnonzero(to_svd.any(axis=0))
    if handed.size:
        projected = _zf_projected(channels, M, handed)[1]
        schur[:, handed] = projected @ projected.conj().swapaxes(-1, -2)
    return schur


def _water_fill_streams(top: np.ndarray, M: int, P: float, sigma2: float):
    """(snr, powers, rate) of water-filling M P over streams of gain top / (sigma2 / M)."""
    # a block projected to zero may come out a rounding error below zero
    gains = np.maximum(top, 0.0) / (sigma2 / M)
    powers = water_fill(gains.ravel(), M * P).reshape(top.shape)
    snr = gains * powers
    return snr, powers, float(np.sum(np.log2(1.0 + snr))) / M


def ofdm_zf_waterfill(
    channels: ChannelSet, M: int, P: float, sigma2: float
) -> tuple[np.ndarray, float]:
    """Per-stream SNRs and sum rate of OFDM zero-forcing with water-filling.

    Feasible when M_t >= (K-1) M_r + 1.  UE k's gain on subcarrier m is the
    top eigenvalue of its projected Gram S_k (the Schur complement of the
    cross Grams, or the projection past GRAM_MIN_RATIO) over sigma2 / M, and
    water-filling spreads M P over all K M streams.  Returns the (K, M) SNRs
    and the subcarrier-averaged sum rate in bits/s/Hz (before overhead
    discounts); no beamformer is built (``ofdm_zf_beamformers`` gives them).
    """
    _require_zf_feasible(channels)
    top = jacobi_eigh(_zf_schur(channels, M))[0][..., -1]
    snr, _, rate = _water_fill_streams(top, M, P, sigma2)
    return snr, rate


def ofdm_zf_beamformers(channels: ChannelSet, M: int, P: float, sigma2: float) -> OfdmBeamformerSet:
    """The beamformers and powers behind ``ofdm_zf_waterfill``'s rate.

    From each UE's block projected off the other UEs' rows
    (``_zf_projected``, in the coordinates of Q = ``numerics.path_span``),
    u is the top eigenvector of its Gram and, with X_k that projected block,
    the transmit direction v~ is proportional to X_k^H u; v = Q v~.
    """
    _require_zf_feasible(channels)
    q, projected = _zf_projected(channels, M)
    lam, vecs = jacobi_eigh(projected @ projected.conj().swapaxes(-1, -2))
    u = vecs[..., -1]                                                # (K, M, M_r)
    uh = (u.conj()[..., None, :] @ projected)[..., 0, :]
    norm = np.linalg.norm(uh, axis=-1)
    # a block projected to zero gets a zero direction
    v_dir = uh.conj() / np.maximum(norm, np.finfo(float).tiny)[..., None]
    _, powers, _ = _water_fill_streams(lam[..., -1], M, P, sigma2)
    return OfdmBeamformerSet(np.sqrt(powers)[..., None] * v_dir, u, powers, q)


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
