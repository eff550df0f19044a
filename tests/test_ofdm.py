"""Tests for the OFDM benchmark and effective-rate accounting."""

import numpy as np
import pytest

from conftest import make_channel_set, random_delay_channel_set
from damlink.channel import SimConfig
from damlink.delay_design import InfeasibleError
from damlink.numerics import water_fill
from damlink.ofdm import (
    dam_effective_rate,
    dam_overhead_factor,
    ofdm_effective_rate,
    ofdm_eigen,
    ofdm_overhead_factor,
    ofdm_zf_waterfill,
)

SIGMA2 = 1e-3


def small_cfg(**overrides):
    base = dict(M_t=4, M_r=2, K=2, L=3, delay_span_samples=20, G_cp=100, rho_window=40)
    base.update(overrides)
    return SimConfig(**base)


class TestOfdmEigen:
    def test_single_path_flat_sinr(self):
        rng = np.random.default_rng(0)
        cs = make_channel_set(rng, 2, 4, [[0]])
        _, sinr = ofdm_eigen(cs, 16, 1.0, SIGMA2)
        assert np.allclose(sinr, sinr[0, 0], rtol=1e-10)

    def test_noise_scaling_with_subcarrier_count(self):
        # interference-free single UE: SINR proportional to M through sigma^2/M
        rng = np.random.default_rng(1)
        cs = make_channel_set(rng, 2, 4, [[0]])
        _, s8 = ofdm_eigen(cs, 8, 1.0, SIGMA2)
        _, s16 = ofdm_eigen(cs, 16, 1.0, SIGMA2)
        # per-subcarrier power P/K and channel 1/sqrt(M): signal ~ 1/M, noise sigma2/M
        assert s16[0, 0] == pytest.approx(s8[0, 0], rel=1e-9)

    def test_matches_literal_formula(self):
        rng = np.random.default_rng(2)
        cs = random_delay_channel_set(rng, 2, 5, K=2, L=3, fractional=False, span=10)
        M = 8
        bf, sinr = ofdm_eigen(cs, M, 1.3, SIGMA2)
        from damlink.channel import frequency_response

        for k in range(cs.K):
            h_k = frequency_response(cs.ues[k], M)
            for m in range(M):
                sig = abs(bf.u[k, m].conj() @ h_k[m] @ bf.v[k, m]) ** 2
                interf = sum(
                    abs(bf.u[k, m].conj() @ h_k[m] @ bf.v[kp, m]) ** 2
                    for kp in range(cs.K)
                    if kp != k
                )
                expected = sig / (interf + SIGMA2 / M)
                assert sinr[k, m] == pytest.approx(expected, rel=1e-10)

    def test_power_budget_binds(self):
        rng = np.random.default_rng(3)
        cs = random_delay_channel_set(rng, 2, 5, K=3, L=2, fractional=False, span=10)
        M, P = 16, 2.0
        bf, _ = ofdm_eigen(cs, M, P, SIGMA2)
        assert bf.total_transmit_power() == pytest.approx(M * P, rel=1e-9)
        norms = np.linalg.norm(bf.u, axis=2)
        assert np.allclose(norms, 1.0, atol=1e-12)


class TestOfdmZfWaterfill:
    def test_projection_removes_iui(self):
        rng = np.random.default_rng(4)
        cs = random_delay_channel_set(rng, 2, 8, K=2, L=3, fractional=False, span=10)
        M = 8
        bf, _, _ = ofdm_zf_waterfill(cs, M, 1.0, SIGMA2)
        from damlink.channel import frequency_response

        for k in range(cs.K):
            h_k = frequency_response(cs.ues[k], M)
            for kp in range(cs.K):
                if kp == k:
                    continue
                for m in range(M):
                    leak = abs(bf.u[k, m].conj() @ h_k[m] @ bf.v[kp, m])
                    assert leak <= 1e-10 * np.linalg.norm(h_k[m])

    def test_single_user_reduces_to_classic_water_filling(self):
        rng = np.random.default_rng(5)
        cs = random_delay_channel_set(rng, 1, 4, K=1, L=3, fractional=False, span=10)
        M, P = 16, 2.0
        bf, snr, rate = ofdm_zf_waterfill(cs, M, P, SIGMA2)
        from damlink.channel import frequency_response

        h = frequency_response(cs.ues[0], M)
        gains = np.array([np.linalg.norm(h[m]) ** 2 for m in range(M)]) / (SIGMA2 / M)
        powers = water_fill(gains, M * P)
        assert np.allclose(np.sort(bf.power.ravel()), np.sort(powers), rtol=1e-9)
        assert rate == pytest.approx(np.sum(np.log2(1 + gains * powers)) / M, rel=1e-9)

    def test_kkt_water_level_and_budget(self):
        rng = np.random.default_rng(6)
        cs = random_delay_channel_set(rng, 2, 8, K=2, L=3, fractional=False, span=10)
        M, P = 16, 1.0
        bf, snr, _ = ofdm_zf_waterfill(cs, M, P, SIGMA2)
        powers = bf.power.ravel()
        assert powers.sum() == pytest.approx(M * P, rel=1e-9)
        gains = np.where(powers > 0, snr.ravel() / np.where(powers > 0, powers, 1.0), 0.0)
        active = powers > 1e-9
        levels = powers[active] + 1.0 / gains[active]
        assert np.allclose(levels, levels.mean(), atol=1e-6 * levels.mean())

    def test_infeasible_dimensions(self):
        rng = np.random.default_rng(7)
        cs = random_delay_channel_set(rng, 4, 4, K=2, L=2, fractional=False, span=10)
        with pytest.raises(InfeasibleError):
            ofdm_zf_waterfill(cs, 8, 1.0, SIGMA2)

    def test_waterfill_beats_equal_power(self):
        rng = np.random.default_rng(8)
        cs = random_delay_channel_set(rng, 2, 8, K=2, L=3, fractional=False, span=10)
        M, P = 16, 1.0
        bf, snr, rate = ofdm_zf_waterfill(cs, M, P, SIGMA2)
        gains = np.where(bf.power > 0, snr / np.where(bf.power > 0, bf.power, 1.0), 0.0)
        # recompute gains including zero-power streams via effective channels
        equal = np.sum(np.log2(1.0 + gains * P / cs.K)) / M
        assert rate >= equal - 1e-12

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(9)
        cs = random_delay_channel_set(rng, 2, 8, K=2, L=3, fractional=False, span=10)
        from damlink.channel import ChannelSet

        swapped = ChannelSet(ues=(cs.ues[1], cs.ues[0]))
        _, _, r1 = ofdm_zf_waterfill(cs, 8, 1.0, SIGMA2)
        _, _, r2 = ofdm_zf_waterfill(swapped, 8, 1.0, SIGMA2)
        assert r1 == pytest.approx(r2, rel=1e-9)


class TestEffectiveRates:
    def test_reference_overhead_factors(self):
        cfg = SimConfig()  # M=512, G_cp=100, beta=0.01, G_gi=200, G_c=2e5
        assert ofdm_overhead_factor(cfg) == pytest.approx(0.836601, abs=1e-6)
        assert dam_overhead_factor(cfg) == pytest.approx(0.989109, abs=1e-6)

    def test_zero_overheads(self):
        from types import SimpleNamespace

        cfg = SimpleNamespace(beta=0.0, G_gi=0, G_c=1000, M=64, G_cp=0)
        assert ofdm_overhead_factor(cfg) == 1.0
        assert dam_overhead_factor(cfg) == 1.0

    def test_effective_below_raw_and_monotone_in_overheads(self):
        cfg = small_cfg()
        dam_sinrs = [3.0, 5.0]
        ofdm_sinrs = np.full((2, cfg.M), 2.0)
        dam_raw = float(np.sum(np.log2(1.0 + np.asarray(dam_sinrs))))
        ofdm_raw = float(np.sum(np.log2(1.0 + ofdm_sinrs))) / cfg.M
        dam_rate = dam_effective_rate(dam_sinrs, cfg)
        ofdm_rate = ofdm_effective_rate(ofdm_sinrs, cfg)
        assert dam_rate <= dam_raw
        assert ofdm_rate <= ofdm_raw
        assert 0 < dam_overhead_factor(cfg) <= 1
        assert 0 < ofdm_overhead_factor(cfg) <= 1

        bigger_cp = small_cfg(G_cp=200)
        ofdm_rate2 = ofdm_effective_rate(np.full((2, bigger_cp.M), 2.0), bigger_cp)
        assert ofdm_rate2 <= ofdm_rate
        bigger_gi = small_cfg(G_gi=400)
        assert dam_effective_rate(dam_sinrs, bigger_gi) <= dam_rate
