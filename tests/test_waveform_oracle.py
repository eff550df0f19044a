"""Matrix pipeline vs end-to-end time-domain convolution simulation."""

import numpy as np
import pytest

from conftest import by_path, make_channel_set
from damlink.beamforming import (
    assemble_bs_side,
    assemble_effective_channels,
    eigen_beamform_bs_side,
    eigen_beamform_doubleside,
    isi_zf_alternating,
    power_terms,
)
from damlink.delay_design import solve_compensation_delays, triple_lags
from oracles import bs_side_delays, oracle_power_terms

BETA = 0.25  # fast tail decay keeps truncation error well under the tolerance
OS = 8


def _grid_fraction_channels(rng, m_r, m_t, delay_lists):
    # fractional delays on the 1/8-sample grid so the oracle never interpolates
    frac_lists = [
        (rng.integers(-OS // 2 + 1, OS // 2, size=len(d)) / OS).tolist()
        for d in delay_lists
    ]
    return make_channel_set(rng, m_r, m_t, delay_lists, frac_lists)


@pytest.mark.parametrize(
    "m_t,m_r,delays",
    [
        (4, 2, [[2, 7, 11], [1, 5, 13]]),
        (8, 2, [[0, 3, 9], [4, 8, 15]]),
        (6, 1, [[2, 6], [3, 10]]),
    ],
)
def test_power_terms_match_convolution_oracle(m_t, m_r, delays):
    rng = np.random.default_rng(m_t * 100 + m_r)
    cs = _grid_fraction_channels(rng, m_r, m_t, delays)
    window = 48
    F = assemble_bs_side(cs, window, BETA)
    bf, _ = eigen_beamform_bs_side(F, 1.0, 1e-3)

    pipeline = power_terms(F, bf.w_bar, bf.f_bar)
    # the oracle pre-delays its stream l by n_max - n_l: the stream aligned through path l
    kappa, mu = bs_side_delays(cs)
    oracle = oracle_power_terms(cs, by_path(F, bf.f_bar), bf.w_bar, kappa, mu, window, BETA, os=OS)

    for k in range(cs.K):
        o_ds, o_isi1, o_isi2, o_iui = oracle[k]
        scale = max(o_ds, 1e-12)
        assert pipeline.desired[k] == pytest.approx(o_ds, rel=1e-3)
        assert pipeline.isi_aligned[k] == pytest.approx(o_isi1, abs=1e-3 * scale, rel=1e-3)
        assert pipeline.isi_cross[k] == pytest.approx(o_isi2, abs=1e-3 * scale, rel=1e-3)
        assert pipeline.iui[k] == pytest.approx(o_iui, abs=1e-3 * scale, rel=1e-3)


@pytest.mark.parametrize(
    "m_r,m_t,delays,I,fractional",
    [
        pytest.param(3, 6, [[1, 4, 9], [2, 5, 12]], 1, False, id="3-6-delays0-1"),  # R = 3
        pytest.param(2, 6, [[0, 3, 7], [1, 6, 10]], 2, False, id="2-6-delays1-2"),  # I = R = 2
        pytest.param(  # L = 4, I = 3, R = 2
            2, 8, [[2, 5, 6, 11], [0, 4, 7, 9]], 3, False, id="2-8-delays2-3"
        ),
        pytest.param(3, 6, [[1, 4, 9], [2, 5, 12]], 1, True, id="frac-R3"),
        pytest.param(2, 6, [[0, 3, 7], [1, 6, 10]], 2, True, id="frac-R2"),
    ],
)
def test_doubleside_power_terms_match_convolution_oracle(m_r, m_t, delays, I, fractional):
    rng = np.random.default_rng(m_t * 10 + m_r + I)
    if fractional:
        cs = _grid_fraction_channels(rng, m_r, m_t, delays)
    else:
        cs = make_channel_set(rng, m_r, m_t, delays)
    plans = [solve_compensation_delays(n, I, cs.L + 1 - I) for n in cs.n]
    kappa = np.array([plan.kappa for plan in plans])
    mu = np.array([plan.mu for plan in plans])
    # integer delays take one unit tap per triple at W = max |q|; the oracle
    # and fractional delays see 8 lags more on each side
    window = int(np.max(np.abs(triple_lags(cs.n, cs.n_max, kappa, mu)))) + 8
    F = assemble_effective_channels(cs, I, window, BETA)
    sigma2 = 1e-3
    # random beamformers use every branch; eigen-beamforming leaves a branch
    # without aligned triples silent
    w = rng.standard_normal((cs.K, mu.shape[1] * m_r, 2)) @ np.array([1.0, 1j])
    f = rng.standard_normal((cs.K, I * m_t, 2)) @ np.array([1.0, 1j])
    bf, sinrs = eigen_beamform_doubleside(F, 1.0, sigma2)
    for w_bar, f_bar in ((w, f), (bf.w_bar, bf.f_bar)):
        pipeline = power_terms(F, w_bar, f_bar)
        oracle = oracle_power_terms(cs, f_bar, w_bar, kappa, mu, window, BETA, os=OS)
        for k in range(cs.K):
            o_ds, o_isi1, o_isi2, o_iui = oracle[k]
            scale = max(o_ds, 1e-12)
            assert pipeline.desired[k] == pytest.approx(o_ds, rel=1e-3)
            assert pipeline.isi_aligned[k] == pytest.approx(o_isi1, abs=1e-3 * scale, rel=1e-3)
            assert pipeline.isi_cross[k] == pytest.approx(o_isi2, abs=1e-3 * scale, rel=1e-3)
            assert pipeline.iui[k] == pytest.approx(o_iui, abs=1e-3 * scale, rel=1e-3)
    for k in range(cs.K):
        o_ds, o_isi1, o_isi2, o_iui = oracle[k]
        noise = sigma2 * np.linalg.norm(bf.w_bar[k]) ** 2
        assert sinrs[k] == pytest.approx(o_ds / (o_isi1 + o_isi2 + o_iui + noise), rel=2e-3)


def test_sinr_matches_oracle_end_to_end():
    rng = np.random.default_rng(99)
    cs = _grid_fraction_channels(rng, 2, 6, [[1, 4, 9], [2, 6, 12]])
    window = 48
    sigma2 = 1e-3
    F = assemble_bs_side(cs, window, BETA)
    bf, sinrs = eigen_beamform_bs_side(F, 1.0, sigma2)
    kappa, mu = bs_side_delays(cs)
    oracle = oracle_power_terms(cs, by_path(F, bf.f_bar), bf.w_bar, kappa, mu, window, BETA, os=OS)
    for k in range(cs.K):
        o_ds, o_isi1, o_isi2, o_iui = oracle[k]
        oracle_sinr = o_ds / (o_isi1 + o_isi2 + o_iui + sigma2)
        assert sinrs[k] == pytest.approx(oracle_sinr, rel=2e-3)


@pytest.mark.parametrize(
    "m_t,m_r,delays",
    [
        (12, 2, [[2, 7, 11], [1, 5, 13]]),
        (6, 1, [[2, 6], [3, 10]]),
    ],
)
def test_isi_zf_sinrs_match_convolution_oracle(m_t, m_r, delays):
    rng = np.random.default_rng(m_t * 100 + m_r + 7)
    cs = _grid_fraction_channels(rng, m_r, m_t, delays)
    window = 48
    sigma2 = 1e-3
    F = assemble_bs_side(cs, window, BETA)
    state, sinrs = isi_zf_alternating(F, 1.0, sigma2)
    assert state.iterations > 0
    kappa, mu = bs_side_delays(cs)
    oracle = oracle_power_terms(cs, by_path(F, state.f), state.w, kappa, mu, window, BETA, os=OS)
    for k in range(cs.K):
        o_ds, o_isi1, o_isi2, o_iui = oracle[k]
        # zero forcing: no path carries another path's or another UE's stream
        assert o_isi2 <= 1e-12 * o_ds
        assert o_iui <= 1e-12 * o_ds
        noise = sigma2 * np.linalg.norm(state.w[k]) ** 2
        assert sinrs[k] == pytest.approx(o_ds / (o_isi1 + o_isi2 + o_iui + noise), rel=1e-3)
