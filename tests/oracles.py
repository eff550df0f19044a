"""Independent references for the fractional-delay algebra.

``oracle_power_terms`` is a time-domain oracle for the power split.  It
simulates one impulse per transmit stream through the multipath channel on an
oversampled grid: pulse-shape by discrete convolution, delay by grid shifts,
matched-filter by another convolution, then sample at the receiver's
alignment instant.  The resulting per-(stream, path) tap sequences are
combined into desired / aligned-ISI / cross-path-ISI / IUI powers without
touching the closed-form raised cosine or any block-matrix assembly.

``oracle_isi_zf`` is a literal reference for the ISI-ZF alternating MMSE
loop.  It keeps every lag explicit: per UE a (2W+1, M_r, D) stack of
projected channels, and D x D transmit solves over the null-space
coordinates (D = total null-space dimension).

``oracle_ofdm_eigen`` and ``oracle_ofdm_zf_waterfill`` are the literal OFDM
baseline: per-subcarrier responses summed path by path with einsum,
full-matrices SVDs over all M_t transmit dimensions, and the three-operand
coupling einsum.
"""

import math

import numpy as np

from damlink.beamforming import bs_side_kappa, null_space_projection
from damlink.numerics import water_fill
from damlink.pulse import build_rho_table, rrc


def oracle_power_terms(channels, f_list, w_list, window, T, beta, os=8, span=64):
    """Power components per UE, matching ``power_terms`` semantics.

    ``f_list`` holds stacked per-stream transmit vectors (BS-side layout:
    one stream per path of the owning UE), ``w_list`` unit receive vectors.
    Fractional delays must sit on the T/os grid.
    """
    dt = T / os
    grid = np.arange(-span * os, span * os + 1)
    phi = rrc(grid * dt, T, beta)
    m_t = channels.M_t
    lags = np.arange(-window, window + 1)

    def stream_taps(k, kp, w):
        """taps[i, l, m]: stream i of UE kp heard by UE k through its path l."""
        ue = channels.ues[k]
        ue_p = channels.ues[kp]
        kappa = bs_side_kappa(ue_p)
        taps = np.zeros((ue_p.L, ue.L, lags.size), dtype=complex)
        for i in range(ue_p.L):
            tx = np.zeros(2 * span * os + 1)
            tx[span * os + kappa[i] * os] = 1.0  # unit impulse delayed by kappa_i
            shaped = np.convolve(tx, phi)
            f_i = f_list[kp][i * m_t : (i + 1) * m_t]
            for l, path in enumerate(ue.paths):
                shift = int(round(path.tau_s / dt))
                if shift >= 0:
                    rx = np.concatenate([np.zeros(shift), shaped])
                else:
                    rx = shaped[-shift:]  # advance: negative total delay
                filtered = np.convolve(rx, phi[::-1]) * dt
                coupling = complex(w.conj() @ path.gain @ f_i)
                # impulse, shaping and matched filter each carry span*os steps
                idx = 3 * span * os + (ue.n_max + lags) * os
                valid = (idx >= 0) & (idx < filtered.size)
                taps[i, l, valid] = coupling * filtered[idx[valid]]
        return taps

    results = []
    for k, ue in enumerate(channels.ues):
        w = w_list[k]
        center = window
        own = stream_taps(k, k, w)
        diag = own[np.arange(ue.L), np.arange(ue.L)]  # (L, lags)
        aligned = diag.sum(axis=0)
        desired = abs(aligned[center]) ** 2
        isi_aligned = float(np.sum(np.abs(aligned) ** 2) - desired)

        cross_total = own.sum(axis=(0, 1)) - aligned  # streams through other paths
        isi_cross = float(np.sum(np.abs(cross_total) ** 2))

        iui = 0.0
        for kp in range(channels.K):
            if kp != k:
                iui += float(np.sum(np.abs(stream_taps(k, kp, w).sum(axis=(0, 1))) ** 2))
        results.append((float(desired), isi_aligned, isi_cross, iui))
    return results


def _projected_channels(channels, bases, tables):
    """Per-UE lag-indexed matrices [H_kl basis_kl rho_ll[n]]_l, (2W+1, M_r, sum N_l)."""
    out = []
    for k, ue in enumerate(channels.ues):
        tab = tables[(k, k)].values
        effective = [ue.paths[l].gain @ bases[k][l] for l in range(ue.L)]
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


def oracle_isi_zf(channels, P, sigma2, T, beta, window, tol=1e-6, max_iter=200):
    """Lag-stacked ISI-ZF loop: (iterations, objective trace, stacked f_bar).

    Same start (equal split over each UE's null-space coordinates, matched
    receive filter) and stopping rule as ``isi_zf_alternating``.
    """
    K = channels.K
    bases = [
        [null_space_projection(channels, k, l) for l in range(ue.L)]
        for k, ue in enumerate(channels.ues)
    ]
    tables = {
        (k, k): build_rho_table(ue, ue, bs_side_kappa(ue), window, T, beta)
        for k, ue in enumerate(channels.ues)
    }
    h_tilde = _projected_channels(channels, bases, tables)
    b_list = [np.sqrt(P / K / h.shape[2]) * np.ones(h.shape[2], dtype=complex) for h in h_tilde]
    w_list = [_unit_or_first_axis(h[(h.shape[0] - 1) // 2] @ b) for h, b in zip(h_tilde, b_list)]

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
    for k, ue in enumerate(channels.ues):
        pieces, offset = [], 0
        for l in range(ue.L):
            dim = bases[k][l].shape[1]
            pieces.append(bases[k][l] @ b_list[k][offset : offset + dim])
            offset += dim
        f_bar.append(np.concatenate(pieces))
    return iterations, trace, f_bar


def _literal_responses(channels, M):
    """(K, M, M_r, M_t) stack of (1/sqrt(M)) sum_l H_l exp(2j pi m n_l / M)."""
    m = np.arange(M)
    out = []
    for ue in channels.ues:
        phases = np.exp(2j * np.pi * np.outer(m, ue.n_list) / M)
        out.append(np.einsum("ml,lrt->mrt", phases, ue.gains) / np.sqrt(M))
    return np.stack(out)


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
