"""Tests for waveform synthesis and PAPR measurement."""

import numpy as np
import pytest

from conftest import make_channel_set
from damlink.beamforming import BeamformerSet
from damlink.channel import SimConfig
from damlink.ofdm import OfdmBeamformerSet, ofdm_eigen
from damlink.pulse import rrc_taps
from damlink.waveform import (
    SYNTH_SPAN_SYMBOLS,
    Waveform,
    ccdf_from_paprs,
    papr_blocks,
    qam4_map,
    synthesize_dam_waveform,
    synthesize_ofdm_waveform,
    synthesize_strongest_path_waveform,
)


def small_cfg(**overrides):
    base = dict(M_t=4, M_r=2, K=2, L=3, M=64, delay_span_samples=10, G_cp=10, rho_window=20)
    base.update(overrides)
    return SimConfig(**base)


class TestQam4:
    def test_gray_map_zero_bits(self):
        assert qam4_map([0, 0])[0] == pytest.approx((1 + 1j) / np.sqrt(2))

    def test_all_patterns_unit_energy(self):
        sym = qam4_map([0, 0, 0, 1, 1, 0, 1, 1])
        assert np.allclose(np.abs(sym) ** 2, 1.0)
        assert len(set(np.round(sym, 12))) == 4

    def test_mean_power(self):
        rng = np.random.default_rng(0)
        sym = qam4_map(rng.integers(0, 2, 10_000))
        assert np.mean(np.abs(sym) ** 2) == pytest.approx(1.0, rel=0.03)

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            qam4_map([0, 1, 0])


class TestDamWaveform:
    def test_zero_symbols_zero_waveform(self):
        cfg = small_cfg(M_t=2, K=1)
        rng = np.random.default_rng(1)
        bf = BeamformerSet(
            f_bar=rng.standard_normal((1, 4)) + 1j * rng.standard_normal((1, 4)),
            w_bar=np.array([[1.0, 0.0]]),
        )
        wf = synthesize_dam_waveform(np.zeros((1, 50)), bf, [[0, 3]], cfg)
        assert not np.any(wf.samples)

    def test_single_stream_reduces_to_shaped_qam(self):
        cfg = small_cfg(M_t=1, M_r=1, K=1, L=1)
        rng = np.random.default_rng(2)
        sym = qam4_map(rng.integers(0, 2, 2 * 400))
        f = np.array([0.7 - 0.3j])
        bf = BeamformerSet(f_bar=f[None], w_bar=np.ones((1, 1)))
        wf = synthesize_dam_waveform(sym[None, :], bf, [[0]], cfg)

        taps = rrc_taps(cfg.beta, cfg.oversample, SYNTH_SPAN_SYMBOLS)
        up = np.zeros(sym.size * cfg.oversample, dtype=complex)
        up[:: cfg.oversample] = sym
        direct = np.convolve(up, taps)[
            SYNTH_SPAN_SYMBOLS * cfg.oversample : SYNTH_SPAN_SYMBOLS * cfg.oversample
            + sym.size * cfg.oversample
        ]
        assert np.allclose(wf.samples[0], f[0] * direct, atol=1e-12)
        # PAPR of the beamformed stream equals that of the bare shaped stream
        p1 = papr_blocks(wf, 100)
        p2 = papr_blocks(Waveform(direct[None, :], cfg.oversample), 100)
        assert np.allclose(p1, p2, rtol=1e-12)

    def test_mean_sample_power_accounting(self):
        cfg = small_cfg(M_t=3, K=2)
        rng = np.random.default_rng(3)
        n_sym = 4000
        sym = np.stack([qam4_map(rng.integers(0, 2, 2 * n_sym)) for _ in range(2)])
        f_bars = np.array([
            rng.standard_normal(9) + 1j * rng.standard_normal(9),
            rng.standard_normal(9) + 1j * rng.standard_normal(9),
        ])
        bf = BeamformerSet(f_bar=f_bars, w_bar=np.zeros((2, 2)))
        plans = [[0, 2, 5], [1, 3, 4]]
        wf = synthesize_dam_waveform(sym, bf, plans, cfg)
        interior = wf.samples[:, 50 * cfg.oversample : (n_sym - 50) * cfg.oversample]
        mean_power = np.mean(np.sum(np.abs(interior) ** 2, axis=0))
        taps = rrc_taps(cfg.beta, cfg.oversample, SYNTH_SPAN_SYMBOLS)
        pulse_factor = np.sum(taps**2) / cfg.oversample
        expected = sum(np.linalg.norm(f) ** 2 for f in f_bars) * pulse_factor
        assert mean_power == pytest.approx(expected, rel=0.05)


class TestOfdmWaveform:
    def test_single_tone_constant_envelope(self):
        cfg = small_cfg(M_t=1, M_r=1, K=1, M=64, G_cp=16)
        m0 = 4  # m0 * G_cp divisible by M keeps the tone phase-continuous at CP joins
        coords = np.zeros((1, 64, 1), dtype=complex)
        coords[0, m0, 0] = 1.0
        bf = OfdmBeamformerSet(
            coords=coords, u=np.ones((1, 64, 1)), power=np.ones((1, 64)), basis=np.eye(1)
        )
        sym = np.zeros((1, 6, 64), dtype=complex)
        sym[0, :, m0] = 1.0
        wf = synthesize_ofdm_waveform(sym, bf, cfg)
        block = (64 + cfg.G_cp) * cfg.oversample
        middle = wf.samples[:, 2 * block : 3 * block]
        papr = papr_blocks(Waveform(middle, cfg.oversample), 64 + cfg.G_cp)
        assert 10 * np.log10(papr[0, 0]) < 0.5

    def test_output_length(self):
        cfg = small_cfg(M_t=2, K=1, M=32, G_cp=10)
        rng = np.random.default_rng(4)
        bf = ofdm_eigen(make_channel_set(rng, 2, 2, [[0, 4]]), 32, 1.0)
        sym = rng.standard_normal((1, 5, 32)) + 1j * rng.standard_normal((1, 5, 32))
        wf = synthesize_ofdm_waveform(sym, bf, cfg)
        assert wf.samples.shape == (2, 5 * (32 + 10) * cfg.oversample)

    def test_unitary_transform_parseval(self):
        cfg = small_cfg(M_t=2, K=1, M=32, G_cp=10)
        rng = np.random.default_rng(5)
        v = rng.standard_normal((1, 32, 2)) + 1j * rng.standard_normal((1, 32, 2))
        sym = rng.standard_normal((1, 4, 32)) + 1j * rng.standard_normal((1, 4, 32))
        spectrum = np.einsum("kdm,kmt->dmt", sym, v)
        time = np.fft.ifft(spectrum, axis=1, norm="ortho")
        assert np.sum(np.abs(time) ** 2) == pytest.approx(
            np.sum(np.abs(spectrum) ** 2), rel=1e-9
        )


class TestStrongestPath:
    def test_single_path_coincides_with_single_stream_dam(self):
        cfg = small_cfg(M_t=4, M_r=2, K=1, L=1)
        rng = np.random.default_rng(6)
        cs = make_channel_set(rng, 2, 4, [[3]])
        sym = qam4_map(rng.integers(0, 2, 2 * 200))[None, :]
        P = 2.0
        wf_sp = synthesize_strongest_path_waveform(sym, cs, P, cfg)

        _, _, vh = np.linalg.svd(cs.gains[0, 0], full_matrices=False)
        f = np.sqrt(P / 1) * vh[0].conj()
        bf = BeamformerSet(f_bar=f[None], w_bar=np.zeros((1, 2)))
        wf_dam = synthesize_dam_waveform(sym, bf, [[0]], cfg)
        assert np.allclose(wf_sp.samples, wf_dam.samples, atol=1e-12)

    def test_beam_power(self):
        cfg = small_cfg(M_t=4, M_r=2, K=2, L=3)
        rng = np.random.default_rng(7)
        cs = make_channel_set(rng, 2, 4, [[1, 3, 5], [2, 4, 8]])
        sym = np.ones((2, 10), dtype=complex)
        P = 3.0
        wf = synthesize_strongest_path_waveform(sym, cs, P, cfg)
        assert wf.samples.shape[0] == 4
        # reconstruct the applied beam norms from a unit impulse stream
        one = np.zeros((2, 10), dtype=complex)
        one[0, 0] = 1.0
        del one  # power is enforced in construction: sqrt(P/K) scaling
        strongest = max(cs.gains[0], key=np.linalg.norm)
        _, _, vh = np.linalg.svd(strongest, full_matrices=False)
        assert np.linalg.norm(np.sqrt(P / 2) * vh[0]) ** 2 == pytest.approx(P / 2, rel=1e-12)

    def test_papr_distribution_close_to_single_tap_dam(self):
        cfg = small_cfg(M_t=4, M_r=2, K=2, L=3)
        rng = np.random.default_rng(8)
        cs = make_channel_set(rng, 2, 4, [[1, 3, 5], [2, 4, 8]])
        n_sym = 100 * 64
        sym = np.stack([qam4_map(rng.integers(0, 2, 2 * n_sym)) for _ in range(2)])
        P = 1.0
        wf_sp = synthesize_strongest_path_waveform(sym, cs, P, cfg)

        weights = []
        for gains in cs.gains:
            strongest = max(gains, key=np.linalg.norm)
            _, _, vh = np.linalg.svd(strongest, full_matrices=False)
            weights.append(np.sqrt(P / 2) * vh[0].conj())
        bf = BeamformerSet(f_bar=np.array(weights), w_bar=np.zeros((2, 2)))
        wf_dam = synthesize_dam_waveform(sym, bf, [[0], [0]], cfg)

        p_sp = np.sort(10 * np.log10(papr_blocks(wf_sp, 64).ravel()))
        p_dam = np.sort(10 * np.log10(papr_blocks(wf_dam, 64).ravel()))
        # two-sample KS distance between the block PAPR distributions
        grid = np.union1d(p_sp, p_dam)
        cdf_sp = np.searchsorted(p_sp, grid, side="right") / p_sp.size
        cdf_dam = np.searchsorted(p_dam, grid, side="right") / p_dam.size
        assert np.max(np.abs(cdf_sp - cdf_dam)) < 0.1


class TestPapr:
    def test_constant_envelope(self):
        n = np.arange(4096)
        tone = np.exp(2j * np.pi * 0.01 * n)
        paprs = papr_blocks(Waveform(tone[None, :], 4), 1024)
        assert np.allclose(paprs, 1.0)
        assert ccdf_from_paprs(paprs, [0.1])[0] == 0.0

    def test_two_sample_stream(self):
        wf = Waveform(np.array([[1.0 + 0j, 0.0 + 0j]]), 1)
        paprs = papr_blocks(wf, 2)
        assert paprs[0, 0] == pytest.approx(2.0)
        assert ccdf_from_paprs(paprs, [3.0, 3.1]).tolist() == [1.0, 0.0]

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
        p1 = papr_blocks(Waveform(x[None, :], 4), 256)
        p2 = papr_blocks(Waveform(17.3 * x[None, :], 4), 256)
        assert np.allclose(p1, p2, rtol=1e-12)

    def test_ccdf_matches_comparison_definition(self):
        rng = np.random.default_rng(11)
        paprs = np.repeat(10 ** rng.uniform(0, 1.2, 300), rng.integers(1, 4, 300))
        papr_db = 10.0 * np.log10(paprs)
        # every fifth PAPR lies exactly on a threshold, some of them repeated
        thresholds = np.concatenate([np.linspace(-1, 13, 141), papr_db[::5]])
        ref = np.array([(papr_db > th).mean() for th in thresholds])
        assert np.array_equal(ccdf_from_paprs(paprs, thresholds), ref)

    def test_ccdf_monotone_bounded(self):
        rng = np.random.default_rng(10)
        paprs = 10 ** (rng.uniform(0, 1.2, 500))
        ccdf = ccdf_from_paprs(paprs, np.linspace(0, 12, 49))
        assert np.all(np.diff(ccdf) <= 0)
        assert np.all((ccdf >= 0) & (ccdf <= 1))

    def test_empty_waveform_rejected(self):
        with pytest.raises(ValueError):
            papr_blocks(Waveform(np.zeros((1, 0)), 4), 16)
