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
UE a (2W+1, M_r, D) stack of projected channels, and D x D transmit solves
over the null-space coordinates (D = total null-space dimension).

``oracle_ofdm_eigen`` and ``oracle_ofdm_zf_waterfill`` are the literal OFDM
baseline: per-subcarrier responses summed path by path with einsum,
full-matrices SVDs over all M_t transmit dimensions, and the three-operand
coupling einsum.

``oracle_shape_streams`` is the literal pulse shaper: each stream is
zero-stuffed by the oversampling factor at its delay and convolved with the
RRC taps in the time domain.

``oracle_ofdm_waveform`` is the per-antenna OFDM transmitter: every antenna
gets its own beamformed spectrum, IDFT and cyclic prefix, and its serialized
samples go through ``oracle_shape_streams``.
"""

import math

import numpy as np

from damlink.beamforming import null_space_projection
from damlink.numerics import water_fill
from damlink.pulse import build_rho_table, rrc, rrc_taps
from damlink.waveform import SYNTH_SPAN_SYMBOLS


def bs_side_delays(channels):
    """BS-side compensation: pre-delays n_max - n_l (K, L), one branch with mu = 0."""
    return channels.n[:, -1:] - channels.n, np.zeros((channels.K, 1), dtype=int)


def oracle_power_terms(channels, f_list, w_list, kappa, mu, window, T, beta, os=8, span=64):
    """Power components per UE, matching ``power_terms`` semantics.

    Stream i of UE k' is pre-delayed by ``kappa[k', i]`` samples and sent
    with its block of the stacked transmit vector ``f_list[k']`` (I M_t);
    branch r of UE k post-delays what it hears by ``mu[k, r]`` samples and
    combines it with its block of the stacked receive vector ``w_list[k]``
    (R M_r).  A (branch, path, stream) triple of UE k's own streams is
    aligned when its integer offset n_kl + kappa_ki + mu_kr - n_k,max is 0.
    Fractional delays must sit on the T/os grid.
    """
    dt = T / os
    grid = np.arange(-span * os, span * os + 1)
    phi = rrc(grid * dt / T, beta) / np.sqrt(T)
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
                tau = channels.n[k, l] * T + channels.tau_f[k, l]
                shift = int(round(tau / dt))
                if shift >= 0:
                    rx = np.concatenate([np.zeros(shift), shaped])
                else:
                    rx = shaped[-shift:]  # advance: negative total delay
                filtered = np.convolve(rx, phi[::-1]) * dt
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


def _stacked_sinrs(h_tilde, w_list, b_list, sigma2):
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


def oracle_isi_zf(channels, P, sigma2, T, beta, window, w_start=None, tol=1e-6, max_iter=200):
    """Lag-stacked ISI-ZF loop: (iterations, objective trace, stacked f_bar).

    Starts from the unit receive vectors ``w_start`` (K, M_r) with one
    transmit update, then runs the same alternating updates and stopping
    rule as ``isi_zf_alternating``.  Without ``w_start`` it starts from an
    equal split over each UE's null-space coordinates and the matched
    receive filter: a start that depends on the null-space bases.
    """
    K = channels.K
    bases = [
        [null_space_projection(channels.gains, k, l) for l in range(channels.L)]
        for k in range(K)
    ]
    kappa = channels.n[:, -1:] - channels.n  # BS-side pre-delays
    mu = np.zeros((K, 1), dtype=int)  # one branch
    tables = build_rho_table(channels, kappa, mu, window, T, beta)[:, :, 0]
    h_tilde = _projected_channels(channels, bases, tables)
    if w_start is None:
        b_list = [np.sqrt(P / K / h.shape[2]) * np.ones(h.shape[2], dtype=complex) for h in h_tilde]
        w_list = [_unit_or_first_axis(h[(h.shape[0] - 1) // 2] @ b) for h, b in zip(h_tilde, b_list)]
    else:
        w_list = list(w_start)
        b_list = _stacked_transmit(h_tilde, w_list, P, sigma2)

    def objective(w, b):
        return float(np.sum(np.log2(1.0 + _stacked_sinrs(h_tilde, w, b, sigma2))))

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
