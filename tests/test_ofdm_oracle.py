"""Reduced-SVD / path-subspace OFDM baseline vs the literal full-M_t reference."""

import tracemalloc

import numpy as np
import pytest

from conftest import make_channel_set, random_delay_channel_set
from damlink.channel import SimConfig, frequency_response, generate_channel_set
from damlink.ofdm import ofdm_eigen, ofdm_eigen_sinrs, ofdm_zf_waterfill
from oracles import oracle_ofdm_eigen, oracle_ofdm_zf_waterfill

M = 16
P = 1.0
SIGMA2 = 1e-3


# (M_t, M_r, K, L); at (16, 2, 2, 4) M_t <= K L M_r, so the path subspace is
# all of C^M_t
SHAPES = [(128, 2, 2, 3), (64, 4, 3, 2), (16, 2, 2, 4), (8, 1, 2, 3)]


def _channel_sets():
    cases = []
    for seed, (m_t, m_r, K, L) in enumerate(SHAPES):
        for fractional in (False, True):
            rng = np.random.default_rng(100 + seed)
            cs = random_delay_channel_set(
                rng, m_r, m_t, K=K, L=L, span=12, fractional=fractional
            )
            kind = "frac" if fractional else "int"
            cases.append(pytest.param(cs, id=f"{m_t}x{m_r}-K{K}-L{L}-{kind}"))
    rng = np.random.default_rng(7)
    full = make_channel_set(rng, 2, 16, [[0, 3, 7], [1, 5, 9]], full_rank=True)
    cases.append(pytest.param(full, id="16x2-K2-L3-full-rank"))
    return cases


@pytest.mark.parametrize("cs", _channel_sets())
def test_eigen_matches_full_svd_oracle(cs):
    bf, sinr = ofdm_eigen(cs, M, P, SIGMA2)
    u, v, sinr_ref = oracle_ofdm_eigen(cs, M, P, SIGMA2)
    # elementwise, not up to a phase: v feeds the OFDM waveform
    assert np.max(np.abs(bf.u - u)) <= 1e-12
    assert np.max(np.abs(bf.v - v)) <= 1e-12 * np.max(np.abs(v))
    assert np.allclose(sinr, sinr_ref, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("cs", _channel_sets())
def test_eigen_sinrs_follow_returned_beamformers(cs):
    bf, sinr = ofdm_eigen(cs, M, P, SIGMA2)
    h = np.stack([frequency_response(ue, M) for ue in cs.ues])
    coupling = np.einsum("kmr,kmrt,jmt->kjm", bf.u.conj(), h, bf.v)
    idx = np.arange(cs.K)
    signal = np.abs(coupling[idx, idx]) ** 2
    literal = signal / (np.sum(np.abs(coupling) ** 2, axis=1) - signal + SIGMA2 / M)
    assert np.allclose(sinr, literal, rtol=1e-10, atol=0.0)
    _, _, sinr_ref = oracle_ofdm_eigen(cs, M, P, SIGMA2)
    assert np.allclose(ofdm_eigen_sinrs(cs, M, P, SIGMA2), sinr_ref, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("cs", _channel_sets())
def test_zf_waterfill_matches_full_column_oracle(cs):
    bf, snr, rate = ofdm_zf_waterfill(cs, M, P, SIGMA2)
    snr_ref, power_ref, rate_ref = oracle_ofdm_zf_waterfill(cs, M, P, SIGMA2)
    assert np.allclose(snr, snr_ref, rtol=1e-10, atol=0.0)
    assert np.allclose(bf.power, power_ref, rtol=1e-10, atol=0.0)
    assert rate == pytest.approx(rate_ref, rel=1e-10)


@pytest.mark.parametrize("solve", [ofdm_eigen, ofdm_eigen_sinrs, ofdm_zf_waterfill])
def test_reference_config_memory_peak(solve):
    # an M_t x M_t factor per (UE, subcarrier) alone would take 268 MB here
    cfg = SimConfig()
    cs = generate_channel_set(cfg, 0)
    tracemalloc.start()
    try:
        solve(cs, cfg.M, cfg.p_watts(), cfg.sigma2_watts())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
