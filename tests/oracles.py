"""Independent references for the fractional-delay algebra.

``oracle_power_terms`` is a time-domain oracle for the power split of
either delay design.  It simulates one impulse per pre-delayed transmit
stream through the multipath channel on an oversampled grid: pulse-shape by
discrete convolution, delay by grid shifts, matched-filter by another
convolution, then sample each post-delayed receive branch at the receiver's
alignment instant.  The resulting per-(branch, stream, path) tap sequences
are combined into desired / aligned-ISI / cross-path-ISI / IUI powers
without touching the closed-form raised cosine or any block-matrix assembly.

``oracle_isi_zf`` is a literal reference for the ISI-ZF alternating MMSE
loop from a given start receive vector.  It keeps every lag explicit: per
UE a (2W+1, M_r, D) stack of projected channels (``lag_stacked_channels``),
its SINR summed lag by lag (``stacked_sinrs``), and D x D transmit solves
over the null-space coordinates (D = total null-space dimension).

``oracle_ofdm_eigen`` and ``oracle_ofdm_zf_waterfill`` are the literal OFDM
baseline: per-subcarrier responses summed path by path with einsum,
full-matrices SVDs over all M_t transmit dimensions, and the three-operand
coupling einsum.

``oracle_grid_start`` is the exhaustive ISI-ZF start: one L x L solve per
UE and sphere point.  ``oracle_zf_schur`` forms the OFDM ZF Schur
complement with stacked matmuls on (K, M, M_r, M_r) blocks, where the
library holds subcarrier-last planes; ``block_eigh`` is ``jacobi_eigh`` on
that block layout, and ``block_layout`` converts the library's cross Grams
and eigenpairs to it.  ``ofdm_zf_beamformers`` builds the beamformers behind
the OFDM ZF rate from the projected blocks.

``oracle_cp_ofdm_couplings`` is a time-domain CP-OFDM link on integer
delays: IDFT, cyclic prefix, each path as a sample shift, prefix removal,
DFT and combining, one unit symbol per (UE, subcarrier), from the path
gains and delays alone.

``build_compensation_matrix``, ``enumerate_alignment_sets`` and
``AlignmentSets`` are the delay design's combinatorial bookkeeping: the
matrix of all I*R delay sums and the aligned / ISI split of the triples.

``oracle_generate_channel_set`` draws a channel path by path, one steering
vector and one gain matrix at a time, with the same random numbers in the
same order as ``generate_channel_set``.

``oracle_shape_streams`` is the literal pulse shaper: each stream is
zero-stuffed by the oversampling factor at its delay and convolved with the
RRC taps in the time domain.

``oracle_ofdm_waveform`` is the per-antenna OFDM transmitter: every antenna
gets its own beamformed spectrum, IDFT and cyclic prefix, and its serialized
samples go through ``oracle_shape_streams``.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from damlink.beamforming import PathGrams, _solve, _sphere_points, null_space_projection
from damlink.channel import ChannelSet, ConfigError, SimConfig, split_delay
from damlink.delay_design import DelayPlan, triple_lags
from damlink.numerics import GRAM_MIN_RATIO, jacobi_eigh, other_groups, water_fill
from damlink.ofdm import OfdmBeamformerSet, _require_zf_feasible, _water_fill_streams, _zf_projected
from damlink.pulse import build_rho_table, rrc, rrc_taps
from damlink.waveform import SYNTH_SPAN_SYMBOLS


def bs_side_delays(channels):
    """BS-side compensation: pre-delays n_max - n_l (K, L), one branch with mu = 0."""
    return channels.n[:, -1:] - channels.n, np.zeros((channels.K, 1), dtype=int)


def oracle_power_terms(channels, f_list, w_list, kappa, mu, window, beta, os=8, span=64):
    """Power components per UE, matching ``power_terms`` semantics.

    Stream i of UE k' is pre-delayed by ``kappa[k', i]`` samples and sent
    with its block of the stacked transmit vector ``f_list[k']`` (I M_t);
    branch r of UE k post-delays what it hears by ``mu[k, r]`` samples and
    combines it with its block of the stacked receive vector ``w_list[k]``
    (R M_r).  A (branch, path, stream) triple of UE k's own streams is
    aligned when its integer offset n_kl + kappa_ki + mu_kr - n_k,max is 0.
    Time runs in samples; fractional delays must sit on the 1/os grid.
    """
    grid = np.arange(-span * os, span * os + 1)
    phi = rrc(grid / os, beta)
    m_t, m_r = channels.M_t, channels.M_r
    lags = np.arange(-window, window + 1)
    kappa, mu = np.asarray(kappa), np.asarray(mu)
    I, R = kappa.shape[1], mu.shape[1]

    L = channels.L
    n_max = channels.n[:, -1]

    def stream_taps(k, kp):
        """taps[r, i, l, m]: stream i of UE kp heard on branch r of UE k through its path l."""
        taps = np.zeros((R, I, L, lags.size), dtype=complex)
        for i in range(I):
            tx = np.zeros(2 * span * os + 1)
            tx[span * os + kappa[kp, i] * os] = 1.0  # unit impulse delayed by kappa_i
            shaped = np.convolve(tx, phi)
            f_i = f_list[kp][i * m_t : (i + 1) * m_t]
            for l in range(L):
                shift = int(round((channels.n[k, l] + channels.frac[k, l]) * os))
                if shift >= 0:
                    rx = np.concatenate([np.zeros(shift), shaped])
                else:
                    rx = shaped[-shift:]  # advance: negative total delay
                filtered = np.convolve(rx, phi[::-1]) / os
                for r in range(R):
                    w_r = w_list[k][r * m_r : (r + 1) * m_r]
                    coupling = complex(w_r.conj() @ channels.gains[k, l] @ f_i)
                    # impulse, shaping and matched filter each carry span*os
                    # steps; the branch's post-delay mu_r moves its samples later
                    idx = 3 * span * os + (n_max[k] + lags - mu[k, r]) * os
                    valid = (idx >= 0) & (idx < filtered.size)
                    taps[r, i, l, valid] = coupling * filtered[idx[valid]]
        return taps

    results = []
    for k in range(channels.K):
        center = window
        own = stream_taps(k, k)
        offset = mu[k][:, None, None] + kappa[k][None, :, None] + channels.n[k][None, None, :]
        is_aligned = offset == n_max[k]  # (R, I, L)
        aligned = own[is_aligned].sum(axis=0)
        desired = abs(aligned[center]) ** 2
        isi_aligned = float(np.sum(np.abs(aligned) ** 2) - desired)

        cross_total = own.sum(axis=(0, 1, 2)) - aligned  # every other own triple
        isi_cross = float(np.sum(np.abs(cross_total) ** 2))

        iui = 0.0
        for kp in range(channels.K):
            if kp != k:
                iui += float(np.sum(np.abs(stream_taps(k, kp).sum(axis=(0, 1, 2))) ** 2))
        results.append((float(desired), isi_aligned, isi_cross, iui))
    return results


def _projected_channels(channels, bases, tables):
    """Per-UE lag-indexed matrices [H_kl basis_kl rho_ll[n]]_l, (2W+1, M_r, sum N_l)."""
    out = []
    for k in range(channels.K):
        tab = tables[k, k]
        effective = [channels.gains[k, l] @ bases[k][l] for l in range(channels.L)]
        blocks = [
            eff[None, :, :] * tab[l, l][:, None, None]
            for l, eff in enumerate(effective)
        ]
        out.append(np.concatenate(blocks, axis=2))
    return out


def _unit_or_first_axis(v):
    norm = np.linalg.norm(v)
    if norm == 0.0:
        v = np.zeros(v.size, dtype=complex)
        v[0] = 1.0
        return v
    return v / norm


def stacked_sinrs(h_tilde, w_list, b_list, sigma2):
    """Per-UE SINR of receive vectors and reduced transmit vectors, lag by lag."""
    sinrs = np.empty(len(h_tilde))
    for k, (h, w, b) in enumerate(zip(h_tilde, w_list, b_list)):
        center = (h.shape[0] - 1) // 2
        coup = (h @ b) @ w.conj()
        desired = abs(coup[center]) ** 2
        isi = float(np.sum(np.abs(coup) ** 2) - desired)
        sinrs[k] = desired / (isi + sigma2 * float(np.linalg.norm(w) ** 2))
    return sinrs


def _stacked_receive(h_tilde, b_list, sigma2):
    out = []
    for h, b in zip(h_tilde, b_list):
        center = (h.shape[0] - 1) // 2
        y = h @ b  # (2W+1, M_r)
        y0 = y[center]
        cov = y.T @ y.conj() - np.outer(y0, y0.conj()) + sigma2 * np.eye(h.shape[1])
        out.append(_unit_or_first_axis(np.linalg.solve(cov, y0)))
    return out


def _stacked_transmit(h_tilde, w_list, P, sigma2):
    K = len(h_tilde)
    out = []
    for h, w in zip(h_tilde, w_list):
        center = (h.shape[0] - 1) // 2
        g = np.matmul(w.conj(), h).conj()  # g[n] = h[n]^H w, shape (2W+1, D)
        g0 = g[center]
        reg = sigma2 * (K / P) * float(np.linalg.norm(w) ** 2)
        cov = g.T @ g.conj() - np.outer(g0, g0.conj()) + reg * np.eye(h.shape[2])
        out.append(np.sqrt(P / K) * _unit_or_first_axis(np.linalg.solve(cov, g0)))
    return out


def lag_stacked_channels(channels, beta, window):
    """Null-space bases [k][l] of the BS-side ZF solve and the per-UE lag stacks
    ``_projected_channels`` of it, (2W+1, M_r, D), with stream l aligned through path l."""
    bases = [
        [null_space_projection(channels.gains, k, l) for l in range(channels.L)]
        for k in range(channels.K)
    ]
    kappa, mu = bs_side_delays(channels)
    lags = triple_lags(channels.n, channels.n_max, kappa, mu)
    tables = build_rho_table(lags, channels.frac, window, beta)[:, :, 0]
    return bases, _projected_channels(channels, bases, tables)


def oracle_isi_zf(channels, P, sigma2, beta, window, w_start=None, tol=1e-6, max_iter=200):
    """Lag-stacked ISI-ZF loop: (iterations, objective trace, stacked f_bar).

    Starts from the unit receive vectors ``w_start`` (K, M_r) with one
    transmit update, then runs the same alternating updates and stopping
    rule as ``isi_zf_alternating``.  Without ``w_start`` it starts from an
    equal split over each UE's null-space coordinates and the matched
    receive filter: a start that depends on the null-space bases.
    """
    K = channels.K
    bases, h_tilde = lag_stacked_channels(channels, beta, window)
    if w_start is None:
        b_list = [np.sqrt(P / K / h.shape[2]) * np.ones(h.shape[2], dtype=complex) for h in h_tilde]
        w_list = [_unit_or_first_axis(h[(h.shape[0] - 1) // 2] @ b) for h, b in zip(h_tilde, b_list)]
    else:
        w_list = list(w_start)
        b_list = _stacked_transmit(h_tilde, w_list, P, sigma2)

    def objective(w, b):
        return float(np.sum(np.log2(1.0 + stacked_sinrs(h_tilde, w, b, sigma2))))

    trace = [objective(w_list, b_list)]
    iterations = 0
    if math.isfinite(tol):
        for _ in range(max_iter):
            w_list = _stacked_receive(h_tilde, b_list, sigma2)
            b_list = _stacked_transmit(h_tilde, w_list, P, sigma2)
            prev = trace[-1]
            trace.append(objective(w_list, b_list))
            iterations += 1
            if trace[-1] - prev < tol * max(abs(prev), 1e-300):
                break

    f_bar = []
    for k in range(K):
        pieces, offset = [], 0
        for l in range(channels.L):
            dim = bases[k][l].shape[1]
            pieces.append(bases[k][l] @ b_list[k][offset : offset + dim])
            offset += dim
        f_bar.append(np.concatenate(pieces))
    return iterations, trace, f_bar


def _literal_responses(channels, M):
    """(K, M, M_r, M_t) stack of (1/sqrt(M)) sum_l H_l exp(2j pi m n_l / M)."""
    m = np.arange(M)
    phases = np.exp(2j * np.pi * m[None, :, None] * channels.n[:, None, :] / M)
    return np.einsum("kml,klrt->kmrt", phases, channels.gains) / np.sqrt(M)


def oracle_ofdm_eigen(channels, M, P, sigma2):
    """(u, v, sinr) of per-subcarrier top-singular-pair beamforming at P/K each."""
    h = _literal_responses(channels, M)
    K = channels.K
    u_all, _, vh_all = np.linalg.svd(h)
    u = u_all[..., :, 0]
    v_hat = vh_all[..., 0, :].conj()
    v = np.sqrt(M * P) * v_hat / np.sqrt(np.sum(np.abs(v_hat) ** 2))
    coupling = np.einsum("kmr,kmrt,jmt->kjm", u.conj(), h, v)
    signal = np.abs(coupling[np.arange(K), np.arange(K)]) ** 2
    interference = np.sum(np.abs(coupling) ** 2, axis=1) - signal
    return u, v, signal / (interference + sigma2 / M)


def oracle_ofdm_zf_waterfill(channels, M, P, sigma2, tol=1e-10):
    """(snr, power, rate) of null-space ZF on all M_t columns plus water-filling."""
    h = _literal_responses(channels, M)
    K = channels.K
    gains = np.zeros((K, M))
    for k in range(K):
        eff = h[k]
        if K > 1:
            others = np.concatenate([h[kp] for kp in range(K) if kp != k], axis=1)
            _, s_all, vh_all = np.linalg.svd(others, full_matrices=False)
            keep = s_all > tol * s_all[:, :1]
            vh_all = np.where(keep[:, :, None], vh_all, 0.0)
            eff = h[k] - (h[k] @ vh_all.conj().transpose(0, 2, 1)) @ vh_all
        gains[k] = np.linalg.svd(eff, compute_uv=False)[:, 0] ** 2 / (sigma2 / M)
    powers = water_fill(gains.ravel(), M * P).reshape(K, M)
    snr = gains * powers
    return snr, powers, float(np.sum(np.log2(1.0 + snr))) / M


def _steering_vector(count: int, angle_rad: float) -> np.ndarray:
    """Unit-norm half-wavelength ULA response for the given angle."""
    m = np.arange(count)
    return np.exp(1j * np.pi * m * np.sin(angle_rad)) / np.sqrt(count)


def oracle_generate_channel_set(cfg: SimConfig, seed, integer_delays: bool = False) -> ChannelSet:
    """``generate_channel_set`` built path by path."""
    if cfg.L > cfg.delay_span_samples + 1:
        raise ConfigError(
            f"cannot place {cfg.L} paths on {cfg.delay_span_samples + 1} distinct sample delays"
        )
    rng = np.random.default_rng(seed)
    T = cfg.T
    gains = np.empty((cfg.K, cfg.L, cfg.M_r, cfg.M_t), dtype=complex)
    n = np.empty((cfg.K, cfg.L), dtype=int)
    frac = np.empty((cfg.K, cfg.L))
    for k in range(cfg.K):
        while True:
            taus = rng.uniform(0.0, cfg.delay_span_samples * T, cfg.L)
            split = [split_delay(t, T) for t in taus]
            if len({d for d, _ in split}) == cfg.L:
                break
        for l, idx in enumerate(np.argsort([d for d, _ in split])):
            n[k, l], rest = split[idx]
            frac[k, l] = rest / T
            aod = rng.uniform(-np.pi / 2, np.pi / 2)
            aoa = rng.uniform(-np.pi / 2, np.pi / 2)
            alpha = np.sqrt(cfg.g_ls / (2.0 * cfg.L)) * (
                rng.standard_normal() + 1j * rng.standard_normal()
            )
            gains[k, l] = (
                np.sqrt(cfg.M_t * cfg.M_r)
                * alpha
                * np.outer(_steering_vector(cfg.M_r, aoa), _steering_vector(cfg.M_t, aod).conj())
            )
    if integer_delays:
        frac[:] = 0.0
    return ChannelSet(gains=gains, n=n, frac=frac)


def oracle_shape_streams(streams, delays, oversample, beta):
    """Zero-stuff, delay and RRC-filter each stream by direct convolution."""
    streams = np.atleast_2d(streams)
    n_streams, n_sym = streams.shape
    delays = np.asarray(delays, dtype=int)
    total = (n_sym + int(delays.max())) * oversample
    taps = rrc_taps(beta, oversample, SYNTH_SPAN_SYMBOLS)
    lead = SYNTH_SPAN_SYMBOLS * oversample
    out = np.empty((n_streams, total), dtype=complex)
    for s in range(n_streams):
        up = np.zeros(total, dtype=complex)
        start = delays[s] * oversample
        up[start : start + n_sym * oversample : oversample] = streams[s]
        out[s] = np.convolve(up, taps)[lead : lead + total]
    return out


def oracle_ofdm_waveform(symbols, v, cfg):
    """(M_t, n_samples) OFDM waveform of (K, n_ofdm, M) symbols and (K, M, M_t) v."""
    m = symbols.shape[2]
    spectrum = np.einsum("kdm,kmt->tdm", symbols, v)       # (M_t, n_ofdm, M)
    time = np.fft.ifft(spectrum, axis=2, norm="ortho")
    with_cp = np.concatenate([time[:, :, m - cfg.G_cp :], time], axis=2)
    serial = with_cp.reshape(v.shape[2], -1)
    return oracle_shape_streams(serial, np.zeros(serial.shape[0], dtype=int), cfg.oversample, cfg.beta)


def oracle_grid_start(grams: PathGrams, P: float, sigma2: float) -> tuple[np.ndarray, int]:
    """Each UE's best sphere point w under the transmit weights optimal for it.

    Under ZF a UE hears no other UE, so for a unit w its SINR with the best
    transmit weights is r0^T diag(n) c, where (reg I + s diag(n)) c = r0,
    n_l = w^H gram_l w and reg = K sigma2 / P: the ``mmse_transmit_update``
    system.  Returns the (K, M_r) start and the number of ``pinv`` fallbacks.
    """
    K, L = grams.r0.shape
    points = _sphere_points(grams.gram.shape[-1])[0]  # (G, M_r)
    G = points.shape[0]
    outer = (points.conj()[:, :, None] * points[:, None, :]).reshape(G, -1)
    n = (outer @ grams.gram.reshape(K * L, -1).T).real.reshape(G, K, L).swapaxes(0, 1)
    a = grams.s[:, None] * n[:, :, None, :]  # (K, G, L, L)
    np.einsum("kgii->kgi", a)[:] += sigma2 * K / P
    rhs = np.broadcast_to(grams.r0[:, None], (K, G, L)).reshape(K * G, L)
    c, fallbacks = _solve(a.reshape(K * G, L, L), rhs)
    sinrs = np.sum(grams.r0[:, None] * n * c.reshape(K, G, L), axis=2)  # (K, G)
    return points[np.argmax(sinrs, axis=1)], fallbacks


def block_eigh(a):
    """``jacobi_eigh`` of a block-layout stack (..., n, n), handed over as the
    contiguous entry planes (n, n, ...) it reads: eigenvalues (..., n) and
    eigenvectors (..., n, n)."""
    n = a.shape[-1]
    lam, v = jacobi_eigh(np.ascontiguousarray(np.moveaxis(a, (-2, -1), (0, 1))))
    assert lam.shape == (n, *a.shape[:-2]) and v.shape == (n, n, *a.shape[:-2])
    return np.moveaxis(lam, 0, -1), np.moveaxis(v, (0, 1), (-2, -1))


def block_layout(grams, own_eig=None):
    """``_gram_eigen``'s (K, K, M_r, M_r, M) cross Grams and own eigenpairs
    ((n, K, M), (n, n, K, M)) in block layout: (K, K, M, M_r, M_r), ((K, M, n),
    (K, M, n, n))."""
    grams = np.moveaxis(grams, -1, 2)
    if own_eig is None:
        return grams, None
    return grams, (np.moveaxis(own_eig[0], 0, -1), np.moveaxis(own_eig[1], (0, 1), (-2, -1)))


def oracle_zf_schur(channels: ChannelSet, M: int, grams, own_eig=None) -> np.ndarray:
    """(K, M, M_r, M_r) Gram of each UE's block projected off the other UEs' rows.

    ``grams`` are the cross Grams and ``own_eig``, if given, the own Grams'
    eigenpairs, both from ``_gram_eigen`` through ``block_layout``.  With G_oo = W diag(lam) W^H and
    B = G_ko W, it is the Schur complement S_k = G_kk - B diag(1/lam) B^H.
    At K = 2 UE k's G_oo is UE 1-k's own Gram, so given ``own_eig`` its
    eigenpairs are ``own_eig`` reversed along K: the same bits, as
    ``jacobi_eigh`` treats each block alone.  Otherwise one batched
    ``jacobi_eigh`` decomposes the G_oo.  Gram eigenvalues are accurate only
    to about eps * lam_max, so every subcarrier where some UE's lam span more
    than GRAM_MIN_RATIO takes the ``_zf_projected`` blocks' Grams instead.
    """
    K, M_r = channels.K, channels.M_r
    own, idx = np.arange(K), other_groups(K)
    schur = grams[own, own]                                          # (K, M, M_r, M_r)
    if K == 1:
        return schur
    g_ko = grams[own[:, None], idx].transpose(0, 2, 3, 1, 4).reshape(K, M, M_r, -1)
    if K == 2 and own_eig is not None:
        lam, w = (part[::-1] for part in own_eig)                    # ascending
    else:
        g_oo = grams[idx[:, :, None], idx[:, None, :]].transpose(0, 3, 1, 4, 2, 5)
        lam, w = block_eigh(g_oo.reshape(K, M, (K - 1) * M_r, -1))
    to_svd = lam[..., 0] <= GRAM_MIN_RATIO * lam[..., -1]            # (K, M)
    b = g_ko @ w
    inv = np.divide(1.0, lam, out=np.zeros_like(lam), where=~to_svd[..., None])
    schur = schur - b @ (inv[..., :, None] * b.conj().swapaxes(-1, -2))
    handed = np.flatnonzero(to_svd.any(axis=0))
    if handed.size:
        projected = _zf_projected(channels, M, handed)[1]
        schur[:, handed] = projected @ projected.conj().swapaxes(-1, -2)
    return schur


def ofdm_zf_beamformers(channels: ChannelSet, M: int, P: float, sigma2: float) -> OfdmBeamformerSet:
    """The beamformers and powers behind ``ofdm_zf_waterfill``'s rate.

    From each UE's block projected off the other UEs' rows
    (``_zf_projected``, in the coordinates of Q = ``numerics.path_span``),
    u is the top eigenvector of its Gram and, with X_k that projected block,
    the transmit direction v~ is proportional to X_k^H u; v = Q v~.
    """
    _require_zf_feasible(channels)
    q, projected = _zf_projected(channels, M)
    lam, vecs = block_eigh(projected @ projected.conj().swapaxes(-1, -2))
    u = vecs[..., -1]                                                # (K, M, M_r)
    uh = (u.conj()[..., None, :] @ projected)[..., 0, :]
    norm = np.linalg.norm(uh, axis=-1)
    # a block projected to zero gets a zero direction
    v_dir = uh.conj() / np.maximum(norm, np.finfo(float).tiny)[..., None]
    _, powers, _ = _water_fill_streams(lam[..., -1], M, P, sigma2)
    return OfdmBeamformerSet(np.sqrt(powers)[..., None] * v_dir, u, powers, q)


def oracle_cp_ofdm_couplings(channels: ChannelSet, u, v, cp: int) -> np.ndarray:
    """(K, M, K, M) couplings c[k, m, j, m'] of a time-domain CP-OFDM link:
    UE k's output on subcarrier m, combined with u_k[m], from UE j's unit
    symbol on subcarrier m' precoded with v_j[m'].

    Reads only ``channels.gains`` and ``channels.n``; u is (K, M, M_r) and v
    (K, M, M_t).  Each unit symbol's spectrum goes through the IDFT x[t] =
    M^-1/2 sum_b X[b] exp(+2j pi b t / M) (``np.fft.ifft``, the transmitter
    of ``waveform.ofdm_streams``), then a cyclic prefix of ``cp`` >= max n
    samples, each path l as a shift by n_kl samples times H_kl, prefix
    removal and the DFT Y[b] = M^-1/2 sum_t y[t] exp(-2j pi b t / M).  Under
    this pair a path of delay n reaches bin b as exp(-2j pi b n / M), which
    is sqrt(M) times ``subcarrier_coefficients``' weight of subcarrier
    (-b) mod M.  So the model's subcarrier m is sent and read on bin (-m)
    mod M, and c is indexed by the model's subcarriers.  At integer delays
    the sampled raised cosine is a unit tap, so the link is exact, and white
    noise of variance sigma2 per sample is sigma2 per bin.
    """
    gains, n = channels.gains, channels.n
    K, L, M_r, M_t = gains.shape
    M = v.shape[1]
    if cp < n.max():
        raise ValueError(f"cyclic prefix {cp} shorter than the largest delay {n.max()}")
    bins = -np.arange(M) % M
    out = np.empty((K, M, K, M), dtype=complex)
    for j in range(K):
        spectra = np.zeros((M, M, M_t), dtype=complex)            # (symbol m', bin, antenna)
        spectra[np.arange(M), bins] = v[j]
        x = np.fft.ifft(spectra, axis=1, norm="ortho")
        x = x[:, np.arange(-cp, M) % M]                            # prefix: the last cp samples, cyclically
        for k in range(K):
            y = np.zeros((M, cp + M, M_r), dtype=complex)
            for l in range(L):
                y[:, n[k, l]:] += x[:, : cp + M - n[k, l]] @ gains[k, l].T
            spectrum = np.fft.fft(y[:, cp:], axis=1, norm="ortho")[:, bins]  # (m', m, M_r)
            out[k, :, j, :] = np.einsum("mr,pmr->mp", u[k].conj(), spectrum)
    return out


@dataclass(frozen=True)
class AlignmentSets:
    """Classification of all (stream, branch, path) triples by total delay."""

    desired: tuple[tuple[int, int, int], ...]  # 1-indexed (i, r, l) hitting n_max
    isi: tuple[tuple[int, int, int], ...]
    L_extra: int


def build_compensation_matrix(I: int, R: int) -> np.ndarray:
    """0/1 matrix mapping [kappa; mu] to all I*R combined delays kappa_i + mu_r.

    Row (i-1)*R + (r-1) has ones at columns i-1 and I+r-1; its rank is
    I + R - 1.
    """
    if I < 1 or R < 1:
        raise ValueError("I and R must be >= 1")
    q = np.zeros((I * R, I + R))
    rows = np.arange(I * R)
    q[rows, rows // R] = 1.0
    q[rows, I + rows % R] = 1.0
    return q


def enumerate_alignment_sets(plan: DelayPlan, n_list: Sequence[int]) -> AlignmentSets:
    """Split all I*R*L (stream, branch, path) triples into aligned and ISI sets."""
    n = [int(v) for v in n_list]
    lags = triple_lags([n], [plan.n_max], [plan.kappa], [plan.mu])[0, 0]  # (R, L, I)
    aligned = lags.transpose(2, 0, 1) == 0  # (I, R, L)
    desired, isi = (
        tuple(map(tuple, (np.argwhere(m) + 1).tolist())) for m in (aligned, ~aligned)
    )
    return AlignmentSets(desired=desired, isi=isi, L_extra=len(desired) - len(n))
