"""Multi-user OFDM benchmark and overhead-adjusted spectral efficiencies.

Per-subcarrier eigen-beamforming tolerates inter-user interference; the
zero-forcing variant sends each UE off the other UEs' rows (block
diagonalization) and water-fills power across all (UE, subcarrier) streams.
Both read a path's subcarrier weights c from
``channel.subcarrier_coefficients``.  Their SINRs need only the M_r x M_r
cross Grams G_kj[m] = H_km H_jm^H = sum c_kl[m] c_jl'[m]^* H_kl H_jl'^H.
UE k's block projected off the others' rows O has the Gram
S_k = G_kk - G_ko G_oo^-1 G_ok, a Schur complement of those cross Grams;
where G_oo is too ill-conditioned for that, the subcarrier takes
``numerics.project_off_others`` on the responses sum_l c_kl[m] H_kl Q, where
Q (``numerics.path_span``) spans all path gains' rows in <= K L M_r columns.
``ofdm_eigen``'s beamformers, which the OFDM waveform needs with LAPACK's
phases, come from the reduced SVD of the full responses.  Both beamformer
functions return Q and each transmit vector's coordinates v~ = Q^H v.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet, SimConfig, frequency_response, subcarrier_coefficients
from .delay_design import InfeasibleError
from .numerics import GRAM_MIN_RATIO, path_span, project_off_others, water_fill

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


def _span_responses(channels: ChannelSet, M: int) -> tuple[np.ndarray, np.ndarray]:
    """Q from ``numerics.path_span`` and the (K, M, M_r, r) responses H Q."""
    K, M_r = channels.K, channels.M_r
    q, coords = path_span(channels.gains)
    h = subcarrier_coefficients(channels, M) @ coords.reshape(K, channels.L, -1)
    return q, h.reshape(K, M, M_r, -1)


def _zf_schur(channels: ChannelSet, M: int, h: np.ndarray | None = None):
    """Gram of each UE's block projected off the other UEs' rows, per subcarrier.

    Returns (schur, solve, handed, projected).  With O the other UEs' rows
    and G_oo = W diag(lam) W^H from one batched ``eigh``, B = G_ko W gives
    the Schur complement S_k = G_kk - B diag(1/lam) B^H (``schur``, (K, M,
    M_r, M_r)) and solve = G_oo^-1 G_ok ((K, M, (K-1) M_r, M_r)), so the
    projected block is H_k - solve^H O.  Gram eigenvalues are accurate only
    to about eps * lam_max, so on every subcarrier where some UE's lam span
    more than GRAM_MIN_RATIO (indices ``handed``) all K blocks come from
    ``numerics.project_off_others`` on the span responses ``h`` instead,
    built here if not given; ``projected`` holds those (K, len(handed), M_r,
    r) blocks, and ``schur`` their Grams.
    """
    K, M_r = channels.K, channels.M_r
    grams = _cross_grams(channels, M)
    own, idx = np.arange(K), _other_ues(K)
    schur = grams[own, own]                                          # (K, M, M_r, M_r)
    if K == 1:
        return schur, np.zeros((1, M, 0, M_r), dtype=complex), np.arange(0), None
    g_ko = grams[own[:, None], idx].transpose(0, 2, 3, 1, 4).reshape(K, M, M_r, -1)
    g_oo = grams[idx[:, :, None], idx[:, None, :]].transpose(0, 3, 1, 4, 2, 5)
    lam, w = np.linalg.eigh(g_oo.reshape(K, M, (K - 1) * M_r, -1))  # ascending
    to_svd = lam[..., 0] <= GRAM_MIN_RATIO * lam[..., -1]            # (K, M)
    b = g_ko @ w
    inv = np.divide(1.0, lam, out=np.zeros_like(lam), where=~to_svd[..., None])
    scaled = inv[..., :, None] * b.conj().swapaxes(-1, -2)           # diag(1/lam) B^H
    schur = schur - b @ scaled
    solve = w @ scaled
    handed = np.flatnonzero(to_svd.any(axis=0))
    projected = None
    if handed.size:
        if h is None:
            h = _span_responses(channels, M)[1]
        # the K UEs of each subcarrier are the groups
        projected = project_off_others(h[:, handed].swapaxes(0, 1)).swapaxes(0, 1)
        schur[:, handed] = projected @ projected.conj().swapaxes(-1, -2)
    return schur, solve, handed, projected


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
    cross Grams, or the ``numerics.project_off_others`` route past
    GRAM_MIN_RATIO) over sigma2 / M, and water-filling spreads M P over all
    K M streams.  Returns the (K, M) SNRs and the subcarrier-averaged sum
    rate in bits/s/Hz (before overhead discounts); no beamformer is built
    (``ofdm_zf_beamformers`` gives them).
    """
    _require_zf_feasible(channels)
    top = np.linalg.eigvalsh(_zf_schur(channels, M)[0])[..., -1]
    snr, _, rate = _water_fill_streams(top, M, P, sigma2)
    return snr, rate


def ofdm_zf_beamformers(channels: ChannelSet, M: int, P: float, sigma2: float) -> OfdmBeamformerSet:
    """The beamformers and powers behind ``ofdm_zf_waterfill``'s rate.

    u is the top eigenvector of S_k, and the transmit direction is the
    projected block's conjugated top right singular vector,
    v~ proportional to (H_k Q - G_ko G_oo^-1 O Q)^H u in the coordinates of
    Q = ``numerics.path_span``; since H = H Q Q^H, v = Q v~ is exact.
    """
    _require_zf_feasible(channels)
    K, M_r = channels.K, channels.M_r
    q, h = _span_responses(channels, M)
    schur, solve, handed, projected = _zf_schur(channels, M, h)
    lam, vecs = np.linalg.eigh(schur)
    u = vecs[..., -1]                                                # (K, M, M_r)
    others = h[_other_ues(K)].transpose(0, 2, 1, 3, 4).reshape(K, M, (K - 1) * M_r, h.shape[-1])
    eff = h - solve.conj().swapaxes(-1, -2) @ others
    if handed.size:
        eff[:, handed] = projected
    uh = (u.conj()[..., None, :] @ eff)[..., 0, :]
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
