"""Symbol-rate pulse shaping and the tiled PAPR reduction.

The shaper is checked against the literal zero-stuffed convolution, the
tiled reduction against ``papr_blocks`` on the whole synthesized waveform,
and the span-coordinate OFDM waveform against the per-antenna transmitter.
"""

import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from damlink.beamforming import (
    assemble_bs_side,
    eigen_beamform_bs_side,
)
from damlink.channel import SimConfig, generate_channel_set
from damlink.experiments import (
    PAPR_THRESHOLDS_DB,
    ExperimentSpec,
    _chunk_blocks,
    _chunked_paprs,
    _dam_papr_draw,
    _ofdm_papr_draw,
    _strongest_papr_draw,
    papr_at_exceedance,
    run_experiment,
)
from damlink.ofdm import ofdm_eigen
from damlink.waveform import (
    ANTENNA_GROUP,
    Waveform,
    _fast_len,
    _shape_streams,
    dam_streams,
    ofdm_streams,
    papr_blocks,
    qam4_map,
    stream_paprs,
    strongest_path_streams,
    synthesize_dam_waveform,
    synthesize_ofdm_waveform,
    synthesize_strongest_path_waveform,
)
from oracles import ofdm_zf_beamformers, oracle_ofdm_waveform, oracle_shape_streams

SRC = Path(__file__).resolve().parent.parent / "src"


def _smooth(n):
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def test_fast_len_is_smallest_5_smooth_length():
    for n in range(1, 5001):
        m = n
        while not _smooth(m):
            m += 1
        assert _fast_len(n) == m, n


@pytest.mark.parametrize("n_streams", [1, 5, 13])
@pytest.mark.parametrize("beta", [0.0, 0.01, 0.25])
@pytest.mark.parametrize("oversample", [1, 2, 4, 8])
def test_shape_streams_matches_zero_stuffed_convolution(oversample, beta, n_streams):
    rng = np.random.default_rng(100 * oversample + n_streams)
    n_sym = 150
    streams = rng.standard_normal((n_streams, n_sym)) + 1j * rng.standard_normal((n_streams, n_sym))
    delays = 1 + rng.permutation(20)[:n_streams]  # distinct, max_delay > 0
    got = _shape_streams(streams, delays, oversample, beta)
    ref = oracle_shape_streams(streams, delays, oversample, beta)
    assert got.shape == ref.shape == (n_streams, (n_sym + delays.max()) * oversample)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def _qam(rng, K, n_sym):
    return np.stack([qam4_map(rng.integers(0, 2, 2 * n_sym)) for _ in range(K)])


def _dam_case(cfg, channels, rng, blocks, block_symbols):
    F = assemble_bs_side(channels, cfg.rho_window, cfg.beta)
    bf, _ = eigen_beamform_bs_side(F, cfg.p_watts(), cfg.sigma2_watts())
    pad = 32 + int(F.kappa.max())
    sym = _qam(rng, cfg.K, blocks * block_symbols + 2 * pad)
    return (
        dam_streams(sym, bf, F.kappa, cfg),
        synthesize_dam_waveform(sym, bf, F.kappa, cfg),
        pad,
    )


def _ofdm_eigen_bf(cfg, channels):
    return ofdm_eigen(channels, cfg.M, cfg.p_watts())


def _ofdm_zf_bf(cfg, channels):
    return ofdm_zf_beamformers(channels, cfg.M, cfg.p_watts(), cfg.sigma2_watts())


def _ofdm_symbols(cfg, rng, n_ofdm):
    return _qam(rng, cfg.K, n_ofdm * cfg.M).reshape(cfg.K, n_ofdm, cfg.M)


def _ofdm_case(cfg, channels, rng, blocks, block_symbols):
    bf = _ofdm_eigen_bf(cfg, channels)
    sym = _ofdm_symbols(cfg, rng, blocks + 2)
    return ofdm_streams(sym, bf, cfg), synthesize_ofdm_waveform(sym, bf, cfg), block_symbols


def _strongest_case(cfg, channels, rng, blocks, block_symbols):
    sym = _qam(rng, cfg.K, blocks * block_symbols + 64)
    P = cfg.p_watts()
    return (
        strongest_path_streams(sym, channels, P, cfg),
        synthesize_strongest_path_waveform(sym, channels, P, cfg),
        32,
    )


CASES = [_dam_case, _ofdm_case, _strongest_case]
SMALL = dict(M=64, G_cp=20, delay_span_samples=20, rho_window=40)
REF = SimConfig()


@pytest.mark.parametrize(
    "cfg,blocks",
    [
        pytest.param(SimConfig(M_t=5, **SMALL), 6, id="M_t=5"),
        pytest.param(SimConfig(M_t=13, **SMALL), 6, id="M_t=13"),
        # a last tile shorter than ANTENNA_GROUP behind two full ones
        pytest.param(SimConfig(M_t=2 * ANTENNA_GROUP + 5, **SMALL), 6, id="partial-tile"),
        pytest.param(SimConfig(M_t=2 * ANTENNA_GROUP + 5, **SMALL), 1, id="one-block"),
        pytest.param(REF, _chunk_blocks(REF, REF.M + REF.G_cp), id="reference-chunk"),
    ],
)
@pytest.mark.parametrize("case", CASES, ids=["dam", "ofdm", "strongest-path"])
def test_group_paprs_match_synthesized_waveform(case, cfg, blocks):
    block_symbols = cfg.M + cfg.G_cp
    channels = generate_channel_set(cfg, 3, integer_delays=False)
    streams, wf, lead = case(cfg, channels, np.random.default_rng(4), blocks, block_symbols)
    assert wf.samples.shape[0] == cfg.M_t
    start = lead * cfg.oversample
    cut = wf.samples[:, start : start + blocks * block_symbols * cfg.oversample]
    ref = papr_blocks(Waveform(cut, cfg.oversample), block_symbols)
    got = stream_paprs(streams, cfg, lead, blocks, block_symbols)
    assert got.shape == ref.shape == (blocks, cfg.M_t)
    assert np.allclose(got, ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize(
    "cfg",
    [
        pytest.param(SimConfig(M_t=5, **SMALL), id="M_t=5"),
        pytest.param(SimConfig(M_t=13, **SMALL), id="M_t=13"),
        pytest.param(SimConfig(M_t=13, M_r=1, **SMALL), id="M_r=1"),
    ],
)
@pytest.mark.parametrize("beamform", [_ofdm_eigen_bf, _ofdm_zf_bf], ids=["eigen", "zf"])
def test_ofdm_waveform_matches_per_antenna_oracle(cfg, beamform):
    channels = generate_channel_set(cfg, 3, integer_delays=False)
    bf = beamform(cfg, channels)
    assert bf.basis.shape[1] <= cfg.K * cfg.L * cfg.M_r
    sym = _ofdm_symbols(cfg, np.random.default_rng(5), 6)
    got = synthesize_ofdm_waveform(sym, bf, cfg).samples
    ref = oracle_ofdm_waveform(sym, bf.v, cfg)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_ofdm_reference_chunk_matches_per_antenna_oracle():
    cfg = REF
    block_symbols = cfg.M + cfg.G_cp
    blocks = _chunk_blocks(cfg, block_symbols)
    bf = _ofdm_eigen_bf(cfg, generate_channel_set(cfg, 3, integer_delays=False))
    sym = _ofdm_symbols(cfg, np.random.default_rng(4), blocks + 2)
    streams = ofdm_streams(sym, bf, cfg)
    paprs = stream_paprs(streams, cfg, block_symbols, blocks, block_symbols)
    start = block_symbols * cfg.oversample
    stop = start + blocks * block_symbols * cfg.oversample
    shaped = _shape_streams(streams.streams, streams.delays, cfg.oversample, cfg.beta)
    # the per-antenna transmitter is separable, so it runs a group at a time
    for a in range(0, cfg.M_t, ANTENNA_GROUP):
        got = streams.weights[a : a + ANTENNA_GROUP] @ shaped
        ref = oracle_ofdm_waveform(sym, bf.v[:, :, a : a + ANTENNA_GROUP], cfg)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        ref_paprs = papr_blocks(Waveform(ref[:, start:stop], cfg.oversample), block_symbols)
        assert np.allclose(paprs[:, a : a + ANTENNA_GROUP], ref_paprs, rtol=1e-12, atol=0.0)


def test_papr_blocks_reject_a_silent_block():
    x = np.random.default_rng(7).standard_normal((3, 4 * 16 * 4)) + 0j
    x[1, 2 * 64 : 3 * 64] = 0.0  # antenna 1 sends nothing in block 2
    with pytest.raises(ValueError, match="block 2, antenna 1 "):
        papr_blocks(Waveform(x, 4), 16)


@pytest.mark.parametrize("case", CASES, ids=["dam", "ofdm", "strongest-path"])
def test_stream_paprs_reject_a_silent_antenna(case):
    cfg = SimConfig(M_t=2 * ANTENNA_GROUP + 5, **SMALL)
    block_symbols = cfg.M + cfg.G_cp
    channels = generate_channel_set(cfg, 3, integer_delays=False)
    streams, _, lead = case(cfg, channels, np.random.default_rng(4), 2, block_symbols)
    weights = streams.weights.copy()
    weights[ANTENNA_GROUP + 3] = 0.0  # an antenna in the second tile
    silent = dataclasses.replace(streams, weights=weights)
    with pytest.raises(ValueError, match=f"block 0, antenna {ANTENNA_GROUP + 3} "):
        stream_paprs(silent, cfg, lead, 2, block_symbols)


def test_stream_paprs_reject_blocks_past_the_streams():
    cfg = SimConfig(M_t=5, **SMALL)
    block_symbols = cfg.M + cfg.G_cp
    channels = generate_channel_set(cfg, 3, integer_delays=False)
    streams, _, lead = _strongest_case(cfg, channels, np.random.default_rng(4), 2, block_symbols)
    assert stream_paprs(streams, cfg, lead, 2, block_symbols).shape == (2, cfg.M_t)
    with pytest.raises(ValueError):  # a third block would run past the shaped samples
        stream_paprs(streams, cfg, lead, 3, block_symbols)


@pytest.mark.parametrize("extra", [-1, 1])
def test_ofdm_streams_reject_coords_that_miss_the_basis_width(extra):
    cfg = SimConfig(M_t=13, **SMALL)
    bf = _ofdm_eigen_bf(cfg, generate_channel_set(cfg, 3, integer_delays=False))
    r = bf.basis.shape[1]
    assert 1 < r < cfg.M_t
    sym = _ofdm_symbols(cfg, np.random.default_rng(6), 2)
    # one coordinate too few or too many for the basis columns
    coords = np.resize(bf.coords, bf.coords.shape[:2] + (r + extra,))
    with pytest.raises(ValueError):
        ofdm_streams(sym, dataclasses.replace(bf, coords=coords), cfg)


def _traced_peak(func, *args):
    tracemalloc.start()
    try:
        result = func(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_reference_ofdm_streams_one_per_path():
    # rank-1 path gains span K L dimensions, so OFDM shapes K L streams,
    # not one per path row (K L M_r)
    cfg = REF
    draw = _ofdm_papr_draw(generate_channel_set(cfg, 0, integer_delays=False), cfg,
                           cfg.M + cfg.G_cp)
    streams, _ = draw(np.random.default_rng(0), 1)
    assert streams.streams.shape[0] == streams.weights.shape[1] == cfg.K * cfg.L == 6
    assert streams.weights.shape[0] == cfg.M_t


# about 1.25x the measured peaks (6.0, 6.6 and 2.7 MB): a chunk holds its
# shaped streams (OFDM: one per path, K L = 6 of them) and one real tile; the
# complex waveform of a group of 8 antennas alone would take 4.7 MB more
CHUNK_PEAK_MB = {_dam_papr_draw: 7.5, _ofdm_papr_draw: 8.2, _strongest_papr_draw: 3.5}


@pytest.mark.parametrize("setup", [_dam_papr_draw, _ofdm_papr_draw, _strongest_papr_draw])
def test_reference_chunk_memory_peak(setup):
    # the whole M_t x 41 616 waveform of one chunk alone would take 85 MB
    cfg = SimConfig()
    block_symbols = cfg.M + cfg.G_cp
    chunk = _chunk_blocks(cfg, block_symbols)
    draw = setup(generate_channel_set(cfg, 0, integer_delays=False), cfg, block_symbols)
    paprs, peak = _traced_peak(
        _chunked_paprs, draw, np.random.default_rng(0), cfg, chunk, block_symbols
    )
    assert paprs.shape == (chunk, cfg.M_t)
    assert peak < CHUNK_PEAK_MB[setup] * 2**20
    # nothing of one chunk may stay alive while the next is drawn
    _, peak_two = _traced_peak(
        _chunked_paprs, draw, np.random.default_rng(0), cfg, 2 * chunk, block_symbols
    )
    assert peak_two < 1.1 * peak


def test_cli_import_leaves_scipy_unloaded():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, damlink.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "False"


def test_papr_ordering_across_channel_seeds():
    # criterion 11 checks one channel draw; the ordering must not hinge on it
    for seed in (0, 1, 2):
        spec = ExperimentSpec(
            kind="papr_ccdf", config=SimConfig(), grid=(30.0,), trials=90, seed=seed
        )
        table = run_experiment(spec)
        dam_db = papr_at_exceedance(PAPR_THRESHOLDS_DB, table.ccdf["dam"], 1e-2)
        ofdm_db = papr_at_exceedance(PAPR_THRESHOLDS_DB, table.ccdf["ofdm"], 1e-2)
        assert dam_db <= ofdm_db - 1.0, (seed, dam_db, ofdm_db)
