"""Tests for pulse shapes and correlation tables."""

import dataclasses

import numpy as np
import pytest

from damlink.channel import ChannelSet, SimConfig, generate_channel_set
from damlink.pulse import build_rho_table, rho, rrc, rrc_taps

T = 5e-9


class TestRho:
    def test_peak(self):
        assert rho(0.0, T, 0.25) == 1.0

    @pytest.mark.parametrize("beta", [0.0, 0.01, 0.25, 0.5, 0.9])
    def test_nyquist_zero_crossings(self, beta):
        n = np.concatenate([np.arange(-10, 0), np.arange(1, 11)])
        assert np.all(np.abs(rho(n * T, T, beta)) < 1e-12)

    def test_beta_zero_half_sample(self):
        assert rho(T / 2, T, 0.0) == pytest.approx(2.0 / np.pi, rel=1e-12)

    def test_even(self):
        rng = np.random.default_rng(2)
        t = rng.uniform(-30 * T, 30 * T, 200)
        assert np.array_equal(rho(t, T, 0.3), rho(-t, T, 0.3))

    def test_singularity_limit(self):
        beta = 0.25
        t_sing = T / (2 * beta)
        expected = (np.pi / 4) * np.sinc(1.0 / (2 * beta))
        assert rho(t_sing, T, beta) == pytest.approx(expected, rel=1e-9)
        # continuity across the singular point
        assert rho(t_sing * (1 + 1e-10), T, beta) == pytest.approx(expected, rel=1e-6)


class TestRrc:
    def test_value_at_origin(self):
        beta = 0.3
        assert rrc(0.0, T, beta) == pytest.approx(
            (1.0 - beta + 4.0 * beta / np.pi) / np.sqrt(T), rel=1e-12
        )

    def test_unit_energy(self):
        beta = 0.3
        t = np.linspace(-40 * T, 40 * T, 400_001)
        energy = np.trapezoid(rrc(t, T, beta) ** 2, t)
        assert energy == pytest.approx(1.0, abs=1e-3)

    def test_beta_to_zero_limit_is_sinc(self):
        t = 0.3 * T
        expected = np.sinc(0.3) / np.sqrt(T)
        assert rrc(t, T, 1e-9) == pytest.approx(expected, abs=1e-6 / np.sqrt(T))

    def test_self_convolution_reproduces_rho(self):
        beta = 0.22
        os = 64
        span = 60
        dt = T / os
        t = np.arange(-span * os, span * os + 1) * dt
        phi = rrc(t, T, beta)
        auto = np.convolve(phi, phi[::-1]) * dt  # centered at len-1
        center = len(phi) - 1
        n = np.arange(-10, 11)
        sampled = auto[center + n * os]
        assert np.allclose(sampled, rho(n * T, T, beta), atol=1e-3)


class TestRrcTaps:
    def test_mean_power_normalization(self):
        taps = rrc_taps(0.25, 8, span_symbols=24)
        assert np.sum(taps**2) / 8 == pytest.approx(1.0, abs=1e-3)


def _two_ue_channels(seed, integer_delays=False, L=3):
    cfg = SimConfig(M_t=4, M_r=2, K=2, L=L, delay_span_samples=20, G_cp=20, rho_window=40)
    return cfg, generate_channel_set(cfg, seed, integer_delays=integer_delays)


def _bs_side_kappa(cs):
    return cs.n_max[:, None] - cs.n


class TestBuildRhoTable:
    def test_aligned_columns_are_delta(self):
        cfg, cs = _two_ue_channels(0, integer_delays=True)
        table = build_rho_table(cs, _bs_side_kappa(cs), 40, cfg.T, cfg.beta)
        assert table.shape == (2, 2, 3, 3, 81)
        delta = np.zeros(81)
        delta[40] = 1.0
        for k in range(cs.K):
            for l in range(cs.L):
                assert np.array_equal(table[k, k, l, l], delta)
        assert np.all(np.abs(table) <= 1.0 + 1e-9)

    def test_off_diagonal_zero_for_integer_delays(self):
        cfg, cs = _two_ue_channels(1, integer_delays=True)
        table = build_rho_table(cs, _bs_side_kappa(cs), 40, cfg.T, cfg.beta)[0, 0]
        n = cs.n[0]
        for l in range(cs.L):
            for i in range(cs.L):
                if l != i:
                    # stream i peaks at lag n_l - n_i seen from path l
                    peak = n[l] - n[i] + 40
                    col = table[l, i].copy()
                    assert col[peak] == 1.0
                    col[peak] = 0.0
                    assert np.all(col == 0.0)

    def test_every_pair_follows_the_formula(self):
        # entry (k, k', l, i, n) = rho((n - W + n_k,max - kappa_k'i - n_kl) T - tau_f,kl)
        cfg, cs = _two_ue_channels(4)
        kappa = _bs_side_kappa(cs)
        W = 40
        table = build_rho_table(cs, kappa, W, cfg.T, cfg.beta)
        for k in range(cs.K):
            for kp in range(cs.K):
                for l in range(cs.L):
                    for i in range(cs.L):
                        offset = cs.n_max[k] - kappa[kp, i] - cs.n[k, l]
                        t = (np.arange(-W, W + 1) + offset) * cfg.T - cs.tau_f[k, l]
                        assert np.allclose(
                            table[k, kp, l, i], rho(t, cfg.T, cfg.beta), rtol=0.0, atol=1e-12
                        )

    def test_negated_fractional_delays_time_reverse_diagonal(self):
        cfg, cs = _two_ue_channels(5)
        flipped = dataclasses.replace(cs, tau_f=-cs.tau_f)
        kappa = _bs_side_kappa(cs)
        t_plus = build_rho_table(cs, kappa, 40, cfg.T, cfg.beta)
        t_minus = build_rho_table(flipped, kappa, 40, cfg.T, cfg.beta)
        for k in range(cs.K):
            for l in range(cs.L):
                assert np.allclose(t_minus[k, k, l, l], t_plus[k, k, l, l][::-1], atol=1e-12)

    def test_columns_match_oversampled_convolution(self):
        beta = 0.25  # faster tail decay keeps the truncation error below tolerance
        T_s = T
        os = 64
        dt = T_s / os
        rng = np.random.default_rng(9)

        # fractional delays on the 64x grid so the oracle needs no interpolation
        n = np.array([[1, 5, 8]])
        frac = np.array([[int(rng.integers(-os // 2 + 1, os // 2)) * dt for _ in range(3)]])
        cs = ChannelSet(gains=np.ones((1, 3, 1, 1), dtype=complex), n=n, tau_f=frac)
        kappa = _bs_side_kappa(cs)
        W = 40
        table = build_rho_table(cs, kappa, W, T_s, beta)[0, 0]

        span = 80
        t = np.arange(-span * os, span * os + 1) * dt
        phi = rrc(t, T_s, beta)
        auto = np.convolve(phi, phi[::-1]) * dt
        center = len(phi) - 1

        for l in range(cs.L):
            for i in range(cs.L):
                offset = cs.n_max[0] - kappa[0, i] - n[0, l]
                args = (np.arange(-W, W + 1) + offset) * T_s - frac[0, l]
                idx = np.round(args / dt).astype(int) + center
                oracle = np.array([auto[j] if 0 <= j < len(auto) else 0.0 for j in idx])
                col = table[l, i]
                assert np.sum(col**2) == pytest.approx(
                    np.sum(oracle**2), abs=1e-4 * max(np.sum(col**2), 1e-3)
                )

    def test_window_too_small_raises(self):
        cfg, cs = _two_ue_channels(2, L=3)
        span = int(np.max(cs.n_max - cs.n[:, 0]))
        if span > 1:
            with pytest.raises(ValueError):
                build_rho_table(cs, _bs_side_kappa(cs), span - 1, cfg.T, cfg.beta)

    def test_tail_energy_outside_default_window(self):
        cfg, cs = _two_ue_channels(3)
        wide = build_rho_table(cs, _bs_side_kappa(cs), 600, cfg.T, cfg.beta)
        full = np.sum(wide**2, axis=-1)
        inner = np.sum(wide[..., 600 - 200 : 600 + 201] ** 2, axis=-1)
        tails = (full - inner) / np.maximum(full, 1e-300)
        assert np.all(tails < 1e-6)
