"""Tests for pulse shapes and correlation tables."""

import numpy as np
import pytest

from damlink.channel import SimConfig, generate_channel_set
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


def _bs_side_kappa(ue):
    return [ue.n_max - n for n in ue.n_list]


class TestBuildRhoTable:
    def test_aligned_columns_are_delta(self):
        cfg, cs = _two_ue_channels(0, integer_delays=True)
        ue = cs.ues[0]
        table = build_rho_table(ue, ue, _bs_side_kappa(ue), 40, cfg.T, cfg.beta)
        delta = np.zeros(81)
        delta[40] = 1.0
        for l in range(ue.L):
            assert np.array_equal(table.values[l, l], delta)
        assert np.all(np.abs(table.values) <= 1.0 + 1e-9)

    def test_off_diagonal_zero_for_integer_delays(self):
        cfg, cs = _two_ue_channels(1, integer_delays=True)
        ue = cs.ues[0]
        table = build_rho_table(ue, ue, _bs_side_kappa(ue), 40, cfg.T, cfg.beta)
        for l in range(ue.L):
            for i in range(ue.L):
                if l != i:
                    # stream i peaks at lag n_l - n_i seen from path l
                    peak = ue.n_list[l] - ue.n_list[i] + 40
                    col = table.values[l, i].copy()
                    assert col[peak] == 1.0
                    col[peak] = 0.0
                    assert np.all(col == 0.0)

    def test_negated_fractional_delays_time_reverse_diagonal(self):
        from damlink.channel import PathComponent, UEChannel

        cfg, cs = _two_ue_channels(5)
        ue = cs.ues[0]
        flipped = UEChannel(
            paths=tuple(
                PathComponent(gain=p.gain, tau_s=p.n * cfg.T - p.tau_f_s, n=p.n, tau_f_s=-p.tau_f_s)
                for p in ue.paths
            ),
        )
        kappa = _bs_side_kappa(ue)
        t_plus = build_rho_table(ue, ue, kappa, 40, cfg.T, cfg.beta)
        t_minus = build_rho_table(flipped, flipped, kappa, 40, cfg.T, cfg.beta)
        for l in range(ue.L):
            assert np.allclose(t_minus.values[l, l], t_plus.values[l, l][::-1], atol=1e-12)

    def test_columns_match_oversampled_convolution(self):
        from damlink.channel import PathComponent, UEChannel

        beta = 0.25  # faster tail decay keeps the truncation error below tolerance
        T_s = T
        os = 64
        dt = T_s / os
        rng = np.random.default_rng(9)

        # fractional delays on the 64x grid so the oracle needs no interpolation
        n_list = [1, 5, 8]
        paths = []
        for n in n_list:
            frac = int(rng.integers(-os // 2 + 1, os // 2)) * dt
            paths.append(
                PathComponent(gain=np.ones((1, 1)), tau_s=n * T_s + frac, n=n, tau_f_s=frac)
            )
        ue = UEChannel(paths=tuple(paths))
        kappa = _bs_side_kappa(ue)
        W = 40
        table = build_rho_table(ue, ue, kappa, W, T_s, beta)

        span = 80
        t = np.arange(-span * os, span * os + 1) * dt
        phi = rrc(t, T_s, beta)
        auto = np.convolve(phi, phi[::-1]) * dt
        center = len(phi) - 1

        for l in range(ue.L):
            for i in range(ue.L):
                offset = ue.n_max - kappa[i] - ue.n_list[l]
                args = (np.arange(-W, W + 1) + offset) * T_s - ue.paths[l].tau_f_s
                idx = np.round(args / dt).astype(int) + center
                oracle = np.array([auto[j] if 0 <= j < len(auto) else 0.0 for j in idx])
                col = table.values[l, i]
                assert np.sum(col**2) == pytest.approx(
                    np.sum(oracle**2), abs=1e-4 * max(np.sum(col**2), 1e-3)
                )

    def test_window_too_small_raises(self):
        cfg, cs = _two_ue_channels(2, L=3)
        ue = cs.ues[0]
        span = ue.n_max - ue.n_list[0]
        if span > 1:
            with pytest.raises(ValueError):
                build_rho_table(ue, ue, _bs_side_kappa(ue), span - 1, cfg.T, cfg.beta)

    def test_tail_energy_outside_default_window(self):
        cfg, cs = _two_ue_channels(3)
        ue = cs.ues[0]
        kappa = _bs_side_kappa(ue)
        wide = build_rho_table(ue, ue, kappa, 600, cfg.T, cfg.beta)
        W = cfg.rho_window  # 200 default window, 40 in the small config
        full = np.sum(wide.values**2, axis=2)
        inner = np.sum(wide.values[:, :, 600 - 200 : 600 + 201] ** 2, axis=2)
        tails = (full - inner) / np.maximum(full, 1e-300)
        assert np.all(tails < 1e-6)
        del W
