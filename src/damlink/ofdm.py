"""Multi-user OFDM benchmark and overhead-adjusted spectral efficiencies.

Per-subcarrier eigen-beamforming tolerates inter-user interference; the
zero-forcing variant sends each UE off the other UEs' rows (block
diagonalization) and water-fills power across all (UE, subcarrier) streams.
Both read a path's subcarrier weights c from
``channel.subcarrier_coefficients``.  Their SINRs need only the M_r x M_r
cross Grams G_kj[m] = H_km H_jm^H = sum c_kl[m] c_jl'[m]^* H_kl H_jl'^H.
The ZF projection is ``numerics.project_off_others`` on the responses
sum_l c_kl[m] H_kl Q, where Q (``numerics.path_span``) spans all path gains'
rows in as many columns as their numerical rank: K L for the rank-1 paths of
the geometric channel.  The rate's fast path is the projected blocks' Gram,
S_k = G_kk - G_ko G_oo^-1 G_ok, a Schur complement of the cross Grams; a
subcarrier whose G_oo is too ill-conditioned for it takes the projection.
``ofdm_eigen_and_zf`` gives both schemes' SE from one pass of cross Grams
and own-Gram eigenpairs; at K = 2 the ZF interferer Grams are the other
UE's own Grams, so it decomposes no Gram twice.  Every per-subcarrier
quantity is held subcarrier-last: the cross Grams as (K, K, M_r, M_r, M)
entry planes, built one UE pair at a time, and every eigenproblem, coupling
and Schur complement as elementwise passes over (K, M) planes.  Every
Hermitian eigenproblem is one ``numerics.jacobi_eigh`` call over all K M
blocks (one exact rotation per 2x2 block, ``np.linalg.eigh`` for any other
size).  SINRs and rates read eigenvalues, and eigenvectors only up to phase.
``ofdm_eigen``'s beamformers, which the OFDM waveform needs with LAPACK's
phases, come from the reduced SVD of the full responses; it returns Q and
each transmit vector's coordinates v~ = Q^H v.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet, SimConfig, frequency_response, subcarrier_coefficients
from .delay_design import InfeasibleError
from .numerics import (
    GRAM_MIN_RATIO,
    jacobi_eigh,
    other_groups,
    path_span,
    project_off_others,
    water_fill,
)

__all__ = [
    "OfdmBeamformerSet",
    "ofdm_eigen",
    "ofdm_eigen_sinrs",
    "ofdm_zf_waterfill",
    "ofdm_eigen_and_zf",
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
    """(K, K, M_r, M_r, M) cross Grams G_kj[m] = H_km H_jm^H, each entry a plane over m.

    Sums over path pairs of c_kl[m] c_jl'[m]^* H_kl H_jl'^H, with c the
    subcarrier coefficients and every H_kl H_jl'^H from one Gram of the path
    rows; one UE pair k <= j at a time, as (M_r^2, L^2) path-pair Grams times
    the (L^2, M) coefficient products, and G_jk = G_kj^H.
    """
    K, L, M_r, M_t = channels.gains.shape
    rows = channels.gains.reshape(K * L * M_r, M_t)
    pairs = (rows @ rows.conj().T).reshape(K, L, M_r, K, L, M_r).transpose(0, 3, 2, 5, 1, 4)
    c = np.ascontiguousarray(subcarrier_coefficients(channels, M).swapaxes(1, 2))  # (K, L, M)
    c_conj = c.conj()
    gram = np.empty((K, K, M_r, M_r, M), dtype=complex)
    coef = np.empty((L, L, M), dtype=complex)
    for k in range(K):
        for j in range(k, K):
            for l in range(L):  # row by row, so numpy allocates no broadcast buffer
                np.multiply(c[k, l], c_conj[j], out=coef[l])
            pair = pairs[k, j].reshape(M_r * M_r, L * L)
            np.matmul(pair, coef.reshape(L * L, M), out=gram[k, j].reshape(-1, M))
            if j > k:
                gram[j, k] = gram[k, j].conj().swapaxes(0, 1)
    return gram


def _gram_eigen(channels: ChannelSet, M: int):
    """The cross Grams and the own Grams G_kk's ascending eigenpairs.

    The one pass ``ofdm_eigen_sinrs`` and ``ofdm_eigen_and_zf`` read:
    ``_cross_grams`` once, then one ``jacobi_eigh`` over the (M_r, M_r, K, M)
    own-Gram planes.
    """
    gram = _cross_grams(channels, M)
    return gram, jacobi_eigh(np.einsum("kkrsm->rskm", gram))


def _eigen_sinrs(gram, own_eig, P: float, sigma2: float) -> np.ndarray:
    """``ofdm_eigen_sinrs`` from ``_gram_eigen``'s cross Grams and own eigenpairs."""
    K, M = gram.shape[0], gram.shape[-1]
    idx = np.arange(K)
    top, u = own_eig[0][-1], own_eig[1][:, -1]                      # (K, M), (M_r, K, M)
    coupling = np.einsum("rkm,kjrsm,sjm->kjm", u.conj(), gram, u)    # u_k^H G_kj u_j
    # UE j's power at UE k; a stream whose block is zero stays silent
    leak = np.abs(coupling) ** 2 * np.divide(P / K, top, out=np.zeros_like(top), where=top > 0)
    leak[idx, idx] = 0.0
    return (P / K) * top / (np.sum(leak, axis=1) + sigma2 / M)


def ofdm_eigen_sinrs(channels: ChannelSet, M: int, P: float, sigma2: float) -> np.ndarray:
    """(K, M) SINRs of per-subcarrier eigen-beamforming at P/K per stream.

    SINRs do not depend on the singular vectors' phases, so they come from
    the cross Grams G_kj[m] = H_km H_jm^H alone.  With u_k and sigma_k^2 the
    top eigenpair of G_kk, v_j = H_j^H u_j / sigma_j, so UE j reaches UE k
    with the power (P/K) |u_k^H G_kj u_j|^2 / sigma_j^2.
    """
    return _eigen_sinrs(*_gram_eigen(channels, M), P, sigma2)


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


def _zf_projected(channels: ChannelSet, M: int, subcarriers=slice(None)):
    """Q and the (K, m, M_r, r) span responses H_km Q on ``subcarriers``, each
    UE's block taken off the other UEs' rows; H = H Q Q^H, so nothing is lost."""
    K, M_r = channels.K, channels.M_r
    q, coords = path_span(channels.gains)
    c = subcarrier_coefficients(channels, M)[:, subcarriers]
    h = (c @ coords.reshape(K, channels.L, -1)).reshape(K, -1, M_r, q.shape[1])
    # the K UEs of each subcarrier are the groups
    return q, project_off_others(h.swapaxes(0, 1)).swapaxes(0, 1)


def _zf_schur(channels: ChannelSet, M: int, grams, own_eig=None) -> np.ndarray:
    """(M_r, M_r, K, M) Gram planes of each UE's block projected off the other UEs' rows.

    ``grams`` are the cross Grams and ``own_eig``, if given, the own Grams'
    eigenpairs, both from ``_gram_eigen``.  With G_oo = W diag(lam) W^H and
    B = G_ko W, it is the Schur complement S_k = G_kk - B diag(1/lam) B^H,
    formed entry by entry as elementwise products of (K, M) planes: B from
    the (K-1) M_r columns of G_ko, then one rank-1 term per column of B.
    At K = 2 UE k's G_oo is UE 1-k's own Gram, so given ``own_eig`` its
    eigenpairs are ``own_eig`` reversed along K: the same bits, as
    ``jacobi_eigh`` treats each block alone.  Otherwise one ``jacobi_eigh``
    decomposes the G_oo.  Gram eigenvalues are accurate only to about
    eps * lam_max, so every subcarrier where some UE's lam span more than
    GRAM_MIN_RATIO takes the ``_zf_projected`` blocks' Grams instead.
    """
    K, M_r = channels.K, channels.M_r
    own, idx = np.arange(K), other_groups(K)
    schur = np.einsum("kkrsm->rskm", grams)                          # (M_r, M_r, K, M)
    if K == 1:
        return schur
    # (M_r, (K-1) M_r, K, M): UE k's rows against the other UEs' rows
    g_ko = grams[own[:, None], idx].transpose(2, 1, 3, 0, 4).reshape(M_r, -1, K, M)
    if K == 2 and own_eig is not None:
        lam, w = own_eig[0][:, ::-1], own_eig[1][:, :, ::-1]         # ascending
    else:
        g_oo = grams[idx[:, :, None], idx[:, None, :]].transpose(1, 3, 2, 4, 0, 5)
        lam, w = jacobi_eigh(g_oo.reshape((K - 1) * M_r, (K - 1) * M_r, K, M))
    to_svd = lam[0] <= GRAM_MIN_RATIO * lam[-1]                      # (K, M)
    b = np.einsum("rqkm,qpkm->rpkm", g_ko, w)                        # (M_r, (K-1) M_r, K, M)
    inv = np.divide(1.0, lam, out=np.zeros_like(lam), where=~to_svd)
    schur = schur - sum(b[:, None, j] * (inv[j] * b[None, :, j].conj()) for j in range(len(w)))
    handed = np.flatnonzero(to_svd.any(axis=0))
    if handed.size:
        projected = _zf_projected(channels, M, handed)[1]
        gram = projected @ projected.conj().swapaxes(-1, -2)          # (K, m, M_r, M_r)
        schur[..., handed] = gram.transpose(2, 3, 0, 1)
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
    discounts); no beamformer is built.
    """
    _require_zf_feasible(channels)
    top = jacobi_eigh(_zf_schur(channels, M, _cross_grams(channels, M)))[0][-1]
    snr, _, rate = _water_fill_streams(top, M, P, sigma2)
    return snr, rate


def ofdm_eigen_and_zf(
    channels: ChannelSet, M: int, P: float, sigma2: float
) -> tuple[np.ndarray, float | None]:
    """``ofdm_eigen_sinrs`` and ``ofdm_zf_waterfill``'s rate from one ``_gram_eigen`` pass.

    The SE runner's one OFDM call per trial; the rate is None where
    zero-forcing is infeasible.
    """
    grams, own_eig = _gram_eigen(channels, M)
    sinrs = _eigen_sinrs(grams, own_eig, P, sigma2)
    try:
        _require_zf_feasible(channels)
    except InfeasibleError:
        return sinrs, None
    top = jacobi_eigh(_zf_schur(channels, M, grams, own_eig))[0][-1]
    return sinrs, _water_fill_streams(top, M, P, sigma2)[2]


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
