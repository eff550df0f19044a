"""Reduced-SVD / path-subspace OFDM baseline vs the literal full-M_t reference
and a time-domain CP-OFDM link."""

import tracemalloc

import numpy as np
import pytest

from conftest import make_channel_set, random_delay_channel_set
from damlink.channel import ChannelSet, SimConfig, frequency_response, generate_channel_set
from damlink import ofdm
from damlink.numerics import GRAM_MIN_RATIO
from damlink.ofdm import ofdm_eigen, ofdm_eigen_sinrs, ofdm_zf_waterfill
import oracles
from oracles import (
    block_layout,
    ofdm_zf_beamformers,
    oracle_cp_ofdm_couplings,
    oracle_ofdm_eigen,
    oracle_ofdm_zf_waterfill,
    oracle_zf_schur,
)

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
    # delays past M wrap every phase index of the Gram route modulo M
    wrap = random_delay_channel_set(np.random.default_rng(41), 2, 16, K=2, L=3, span=40)
    assert wrap.n.max() >= 2 * M
    cases.append(pytest.param(wrap, id="16x2-K2-L3-delays-past-M"))
    single = random_delay_channel_set(np.random.default_rng(42), 2, 16, K=1, L=3, span=12)
    cases.append(pytest.param(single, id="16x2-K1-L3"))
    return cases


@pytest.mark.parametrize("cs", _channel_sets())
def test_eigen_matches_full_svd_oracle(cs):
    bf = ofdm_eigen(cs, M, P)
    sinr = ofdm_eigen_sinrs(cs, M, P, SIGMA2)
    u, v, sinr_ref = oracle_ofdm_eigen(cs, M, P, SIGMA2)
    # elementwise, not up to a phase: v feeds the OFDM waveform
    assert np.max(np.abs(bf.u - u)) <= 1e-12
    assert np.max(np.abs(bf.v - v)) <= 1e-12 * np.max(np.abs(v))
    assert np.allclose(sinr, sinr_ref, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("cs", _channel_sets())
def test_eigen_sinrs_follow_returned_beamformers(cs):
    # the SINRs of ofdm_eigen's own u and v, by the literal formula
    bf = ofdm_eigen(cs, M, P)
    h = frequency_response(cs, M)
    coupling = np.einsum("kmr,kmrt,jmt->kjm", bf.u.conj(), h, bf.v)
    idx = np.arange(cs.K)
    signal = np.abs(coupling[idx, idx]) ** 2
    literal = signal / (np.sum(np.abs(coupling) ** 2, axis=1) - signal + SIGMA2 / M)
    sinr = ofdm_eigen_sinrs(cs, M, P, SIGMA2)
    assert np.allclose(sinr, literal, rtol=1e-10, atol=0.0)
    _, _, sinr_ref = oracle_ofdm_eigen(cs, M, P, SIGMA2)
    assert np.allclose(sinr, sinr_ref, rtol=1e-10, atol=0.0)


def test_eigen_sinrs_reference_shape():
    cfg = SimConfig()
    cs = generate_channel_set(cfg, 0)
    sinr = ofdm_eigen_sinrs(cs, cfg.M, cfg.p_watts(), cfg.sigma2_watts())
    _, _, sinr_ref = oracle_ofdm_eigen(cs, cfg.M, cfg.p_watts(), cfg.sigma2_watts())
    assert np.allclose(sinr, sinr_ref, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("cs", _channel_sets())
def test_zf_waterfill_matches_full_column_oracle(cs):
    snr, rate = ofdm_zf_waterfill(cs, M, P, SIGMA2)
    bf = ofdm_zf_beamformers(cs, M, P, SIGMA2)
    snr_ref, power_ref, rate_ref = oracle_ofdm_zf_waterfill(cs, M, P, SIGMA2)
    assert np.allclose(snr, snr_ref, rtol=1e-10, atol=0.0)
    assert np.allclose(bf.power, power_ref, rtol=1e-10, atol=0.0)
    assert rate == pytest.approx(rate_ref, rel=1e-10)


def _weak_direction_channel_set(rng, ratio):
    """UE 0 on three rank-1 paths; UE 1 on three scaled copies of one matrix with
    singular values 1 and ratio, so each of its blocks has that singular ratio."""
    m_r, m_t = 2, 16
    gains0 = make_channel_set(rng, m_r, m_t, [[0, 3, 7]]).gains[0]
    left, _ = np.linalg.qr(rng.standard_normal((m_r, m_r)) + 1j * rng.standard_normal((m_r, m_r)))
    right, _ = np.linalg.qr(rng.standard_normal((m_t, m_r)) + 1j * rng.standard_normal((m_t, m_r)))
    gain = left @ np.diag([1.0, ratio]) @ right.conj().T
    # |1 + 0.6 e^ja + 0.3 e^jb| >= 0.1, so no subcarrier cancels UE 1's paths
    gains1 = np.array([1.0, 0.6, 0.3])[:, None, None] * gain
    return ChannelSet(
        gains=np.stack([gains0, gains1]), n=np.array([[0, 3, 7], [5, 6, 9]]), frac=np.zeros((2, 3))
    )


def _rank_cases():
    return [
        # every interferer block has rank 1 in M_r = 2 rows
        pytest.param(
            random_delay_channel_set(np.random.default_rng(31), 2, 16, K=2, L=1, span=12),
            False,
            id="L1-rank1-interferers",
        ),
        pytest.param(
            random_delay_channel_set(np.random.default_rng(32), 2, 24, K=3, L=3, span=12),
            False,
            id="K3",
        ),
        # the rank rule keeps a 5e-6 direction, whose squared ratio sends the
        # block to the SVD; both sides err by about eps / ratio, so the ratio
        # stays near 1e-5 to keep that error under the 1e-10 tolerance
        pytest.param(
            _weak_direction_channel_set(np.random.default_rng(33), 5e-6), True, id="weak-5e-6"
        ),
    ]


@pytest.mark.parametrize("cs,weak", _rank_cases())
def test_zf_waterfill_rank_cases(cs, weak):
    h = frequency_response(cs, M)
    if weak:
        s = np.linalg.svd(h[1], compute_uv=False)
        ratio = s[:, 1] / s[:, 0]
        assert np.all((ratio > 1e-10) & (ratio ** 2 < GRAM_MIN_RATIO))
    snr, rate = ofdm_zf_waterfill(cs, M, P, SIGMA2)
    bf = ofdm_zf_beamformers(cs, M, P, SIGMA2)
    snr_ref, power_ref, rate_ref = oracle_ofdm_zf_waterfill(cs, M, P, SIGMA2)
    assert np.allclose(snr, snr_ref, rtol=1e-10, atol=0.0)
    assert np.allclose(bf.power, power_ref, rtol=1e-10, atol=0.0)
    assert rate == pytest.approx(rate_ref, rel=1e-10)
    for k in range(cs.K):
        for kp in range(cs.K):
            if kp == k:
                continue
            for m in range(M):
                leak = abs(bf.u[k, m].conj() @ h[k, m] @ bf.v[kp, m])
                assert leak <= 1e-10 * np.linalg.norm(h[k, m])


def _mixed_route_channel_set(rng, ratio):
    """UE 1 sends A at delays 0 and M/2 and 2 ratio B at delay 5, with A and B
    rank-1 on orthogonal rows and columns: its even subcarriers have singular
    values in the ratio ``ratio``, and on odd ones the two A paths cancel to
    rounding, leaving rank 1."""
    m_r, m_t = 2, 16
    gains0 = make_channel_set(rng, m_r, m_t, [[0, 3, 7]]).gains[0]
    left, _ = np.linalg.qr(rng.standard_normal((m_r, m_r)) + 1j * rng.standard_normal((m_r, m_r)))
    right, _ = np.linalg.qr(rng.standard_normal((m_t, m_r)) + 1j * rng.standard_normal((m_t, m_r)))
    a = np.outer(left[:, 0], right[:, 0].conj())
    b = np.outer(left[:, 1], right[:, 1].conj())
    gains1 = np.stack([a, 2 * ratio * b, a])
    return ChannelSet(
        gains=np.stack([gains0, gains1]), n=np.array([[0, 3, 7], [0, 5, M // 2]]), frac=np.zeros((2, 3))
    )


def _svd_subcarriers(cs):
    """Subcarriers where some UE's interferer Gram has eigenvalues spanning
    more than GRAM_MIN_RATIO, from the literal responses."""
    h = frequency_response(cs, M)
    handed = np.zeros(M, dtype=bool)
    for k in range(cs.K):
        others = np.concatenate([h[j] for j in range(cs.K) if j != k], axis=1)
        lam = np.linalg.eigvalsh(others @ others.conj().swapaxes(1, 2))
        handed |= lam[:, 0] <= GRAM_MIN_RATIO * lam[:, -1]
    return np.flatnonzero(handed)


def _handover_cases():
    everywhere, odd = np.arange(M), np.arange(1, M, 2)
    cases = []
    for seed in range(33, 43):
        tag = "" if seed == 33 else f"-seed{seed}"
        cases += [
            # squared singular ratio 1e-4 > GRAM_MIN_RATIO: the Schur complement
            pytest.param(
                _weak_direction_channel_set(np.random.default_rng(seed), 1e-2), [], id=f"ratio-1e-2{tag}"
            ),
            # 1e-6 < GRAM_MIN_RATIO: the projection
            pytest.param(
                _weak_direction_channel_set(np.random.default_rng(seed), 1e-3), everywhere, id=f"ratio-1e-3{tag}"
            ),
        ]
    return cases + [
        pytest.param(_weak_direction_channel_set(np.random.default_rng(33), 5e-6), everywhere, id="ratio-5e-6"),
        pytest.param(
            random_delay_channel_set(np.random.default_rng(31), 2, 16, K=2, L=1, span=12),
            everywhere,
            id="rank-deficient",
        ),
        pytest.param(_mixed_route_channel_set(np.random.default_rng(34), 1e-2), odd, id="mixed-1e-2"),
    ]


def _spy(monkeypatch, name):
    """Record every call ofdm makes to its import ``name``."""
    calls = []
    func = getattr(ofdm, name)

    def spy(*args):
        calls.append(args)
        return func(*args)

    monkeypatch.setattr(ofdm, name, spy)
    return calls


@pytest.mark.parametrize("cs,svd_subcarriers", _handover_cases())
def test_zf_handover_to_the_projection(cs, svd_subcarriers, monkeypatch):
    assert np.array_equal(_svd_subcarriers(cs), svd_subcarriers)
    h = frequency_response(cs, M)
    projected = _spy(monkeypatch, "project_off_others")
    snr, rate = ofdm_zf_waterfill(cs, M, P, SIGMA2)
    # one projector call holds exactly the handed-over subcarriers, in order
    if len(svd_subcarriers):
        (blocks,), = projected
        rows = blocks.reshape(len(svd_subcarriers), -1, blocks.shape[-1])
        full = h[:, svd_subcarriers].swapaxes(0, 1).reshape(len(svd_subcarriers), -1, cs.M_t)
        gram = full @ full.conj().swapaxes(1, 2)
        assert np.allclose(rows @ rows.conj().swapaxes(1, 2), gram, rtol=0.0, atol=1e-12 * np.abs(gram).max())
    else:
        assert projected == []
    snr_ref, power_ref, rate_ref = oracle_ofdm_zf_waterfill(cs, M, P, SIGMA2)
    assert np.allclose(snr, snr_ref, rtol=1e-10, atol=0.0)
    assert rate == pytest.approx(rate_ref, rel=1e-10)
    bf = ofdm_zf_beamformers(cs, M, P, SIGMA2)
    assert np.allclose(bf.power, power_ref, rtol=1e-10, atol=0.0)
    for k in range(cs.K):
        for kp in range(cs.K):
            if kp != k:
                leak = np.abs(np.einsum("mr,mrt,mt->m", bf.u[k].conj(), h[k], bf.v[kp]))
                assert np.all(leak <= 1e-10 * np.linalg.norm(h[k], axis=(1, 2)))


BITWISE_CASES = [
    pytest.param(random_delay_channel_set(np.random.default_rng(70), 2, 8, K=1, L=3, span=12), id="K1"),
    pytest.param(random_delay_channel_set(np.random.default_rng(71), 2, 8, K=2, L=3, span=12), id="K2"),
    pytest.param(random_delay_channel_set(np.random.default_rng(72), 3, 8, K=2, L=3, span=12), id="K2-Mr3"),
    pytest.param(random_delay_channel_set(np.random.default_rng(73), 2, 8, K=3, L=3, span=12), id="K3"),
    # K = 2 with every subcarrier, then every odd one, handed to the projection
    pytest.param(_weak_direction_channel_set(np.random.default_rng(33), 1e-3), id="K2-projection"),
    pytest.param(_mixed_route_channel_set(np.random.default_rng(34), 1e-2), id="K2-mixed"),
]


@pytest.mark.parametrize("cs", BITWISE_CASES)
def test_eigen_and_zf_is_both_schemes_bitwise(cs):
    # one _gram_eigen pass and one ZF tail serve all three functions, so this
    # pins that ofdm_eigen_and_zf reads them as the other two do
    sinrs, rate = ofdm.ofdm_eigen_and_zf(cs, M, P, SIGMA2)
    assert np.array_equal(sinrs, ofdm_eigen_sinrs(cs, M, P, SIGMA2))
    assert rate == ofdm_zf_waterfill(cs, M, P, SIGMA2)[1]


def test_eigen_and_zf_keeps_the_eigen_sinrs_where_zf_is_infeasible():
    cs = random_delay_channel_set(np.random.default_rng(74), 4, 4, K=2, L=2, span=12)
    sinrs, rate = ofdm.ofdm_eigen_and_zf(cs, M, P, SIGMA2)
    assert rate is None
    assert np.array_equal(sinrs, ofdm_eigen_sinrs(cs, M, P, SIGMA2))


@pytest.mark.parametrize("integer_delays", [True, False], ids=["int", "frac"])
def test_zf_rate_builds_no_beamformer_on_reference_draws(integer_delays, monkeypatch):
    cfg = SimConfig()
    cs = generate_channel_set(cfg, 0, integer_delays)
    projected, spans = _spy(monkeypatch, "project_off_others"), _spy(monkeypatch, "path_span")
    ofdm_zf_waterfill(cs, cfg.M, cfg.p_watts(), cfg.sigma2_watts())
    assert projected == [] and spans == []


@pytest.mark.parametrize("shape", [SHAPES[0], SHAPES[1]], ids=lambda s: "{}x{}-K{}-L{}".format(*s))
def test_outputs_do_not_depend_on_eigenvector_phases(shape, monkeypatch):
    # every OFDM SINR and rate reads eigenvalues, and eigenvectors only up to
    # phase, which is what lets any Hermitian eigensolver serve
    m_t, m_r, K, L = shape
    cs = random_delay_channel_set(np.random.default_rng(60), m_r, m_t, K=K, L=L, span=12)
    sinr = ofdm_eigen_sinrs(cs, M, P, SIGMA2)
    snr, rate = ofdm_zf_waterfill(cs, M, P, SIGMA2)
    power = ofdm_zf_beamformers(cs, M, P, SIGMA2).power
    rng, kernel, calls = np.random.default_rng(61), ofdm.jacobi_eigh, []

    def rephased(a):
        lam, v = kernel(a)
        calls.append(a.shape)
        # eigenvector i is the column v[:, i] of every (n, n) block
        return lam, v * np.exp(2j * np.pi * rng.uniform(size=(1,) + v.shape[1:]))

    monkeypatch.setattr(ofdm, "jacobi_eigh", rephased)
    monkeypatch.setattr(oracles, "jacobi_eigh", rephased)  # ofdm_zf_beamformers' module
    assert np.allclose(ofdm_eigen_sinrs(cs, M, P, SIGMA2), sinr, rtol=1e-12, atol=0.0)
    snr2, rate2 = ofdm_zf_waterfill(cs, M, P, SIGMA2)
    assert np.allclose(snr2, snr, rtol=1e-12, atol=0.0)
    assert rate2 == pytest.approx(rate, rel=1e-12)
    bf = ofdm_zf_beamformers(cs, M, P, SIGMA2)
    assert np.allclose(bf.power, power, rtol=1e-12, atol=0.0)
    h = frequency_response(cs, M)
    for k in range(K):
        for kp in range(K):
            if kp != k:
                leak = np.abs(np.einsum("mr,mrt,mt->m", bf.u[k].conj(), h[k], bf.v[kp]))
                assert np.all(leak <= 1e-10 * np.linalg.norm(h[k], axis=(1, 2)))
    # every route went through the rephased kernel: the SINRs' own Grams; the
    # rate's own Grams, interferer Grams (at K = 2 the rephased own eigenpairs,
    # reversed) and Schur complements; then the beamformers' projected Grams
    own, interferer = (m_r, m_r, K, M), ((K - 1) * m_r, (K - 1) * m_r, K, M)
    assert calls == [own, own] + [interferer] * (K != 2) + [own, own]


@pytest.mark.parametrize(
    "solve",
    [
        pytest.param(lambda cs, M, P, sigma2: ofdm_eigen(cs, M, P), id="ofdm_eigen"),
        pytest.param(ofdm_eigen_sinrs, id="ofdm_eigen_sinrs"),
        pytest.param(ofdm_zf_waterfill, id="ofdm_zf_waterfill"),
        pytest.param(ofdm_zf_beamformers, id="ofdm_zf_beamformers"),
    ],
)
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


SCHUR_CASES = [
    pytest.param(random_delay_channel_set(np.random.default_rng(80), 2, 8, K=1, L=3, span=12), id="K1"),
    pytest.param(random_delay_channel_set(np.random.default_rng(81), 1, 8, K=2, L=3, span=12), id="K2-Mr1"),
    pytest.param(random_delay_channel_set(np.random.default_rng(82), 2, 8, K=2, L=3, span=12), id="K2-Mr2"),
    pytest.param(random_delay_channel_set(np.random.default_rng(83), 3, 12, K=2, L=3, span=12), id="K2-Mr3"),
    pytest.param(random_delay_channel_set(np.random.default_rng(84), 1, 8, K=3, L=3, span=12), id="K3-Mr1"),
    pytest.param(random_delay_channel_set(np.random.default_rng(85), 2, 24, K=3, L=3, span=12), id="K3-Mr2"),
    pytest.param(random_delay_channel_set(np.random.default_rng(86), 3, 24, K=3, L=3, span=12), id="K3-Mr3"),
    # every odd subcarrier handed to the projection
    pytest.param(_mixed_route_channel_set(np.random.default_rng(34), 1e-2), id="K2-mixed"),
]


@pytest.mark.parametrize("cs", SCHUR_CASES)
def test_zf_schur_per_entry_products_match_matmuls(cs):
    grams, own_eig = ofdm._gram_eigen(cs, M)
    schur = np.moveaxis(ofdm._zf_schur(cs, M, grams, own_eig), (0, 1), (-2, -1))
    # the oracle on the same eigenpairs, and on a fresh decomposition of the G_oo
    for eig in (own_eig, None):
        ref = oracle_zf_schur(cs, M, *block_layout(grams, eig))
        scale = np.abs(ref).max(axis=(-2, -1), keepdims=True)
        assert np.all(np.abs(schur - ref) <= 1e-13 * scale)


def _cp_cases():
    """(channels, cyclic prefix): two K = 2 shapes, one with delays past M, and K = 3."""
    past_m = random_delay_channel_set(np.random.default_rng(91), 2, 16, K=2, L=3, span=30, fractional=False)
    assert past_m.n.max() >= M
    return [
        pytest.param(
            random_delay_channel_set(np.random.default_rng(90), 2, 8, K=2, L=3, span=12, fractional=False),
            12, id="8x2-K2-L3",
        ),
        # every (m n) mod M phase index wraps, and the prefix is longer than M
        pytest.param(past_m, 32, id="16x2-K2-L3-delays-past-M"),
        pytest.param(
            random_delay_channel_set(np.random.default_rng(92), 2, 24, K=3, L=2, span=12, fractional=False),
            16, id="24x2-K3-L2",
        ),
    ]


def _powers(c):
    """(K, M) desired, inter-carrier and inter-user powers of (K, M, K, M) couplings."""
    power = np.abs(c) ** 2
    desired = np.einsum("kmkm->km", power)
    own = np.einsum("kmkp->km", power)
    return desired, own - desired, power.sum(axis=(2, 3)) - own


@pytest.mark.parametrize("cs,cp", _cp_cases())
def test_link_delivers_the_frequency_response(cs, cp):
    # on the model's subcarrier m every beamformer pair couples through
    # sqrt(M) H_k[m], in phase, and no other subcarrier leaks in
    rng = np.random.default_rng(93)
    u = rng.standard_normal((cs.K, M, cs.M_r)) + 1j * rng.standard_normal((cs.K, M, cs.M_r))
    v = rng.standard_normal((cs.K, M, cs.M_t)) + 1j * rng.standard_normal((cs.K, M, cs.M_t))
    c = oracle_cp_ofdm_couplings(cs, u, v, cp)
    h = frequency_response(cs, M)
    expected = np.sqrt(M) * np.einsum("kmr,kmrt,jmt->kmj", u.conj(), h, v)
    on_bin = np.einsum("kmjm->kmj", c)
    assert np.max(np.abs(on_bin - expected)) <= 1e-12 * np.max(np.abs(expected))
    off_bin = c.copy()
    np.einsum("kmjm->kmj", off_bin)[:] = 0.0
    assert np.max(np.abs(off_bin)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("cs,cp", _cp_cases())
def test_eigen_sinrs_match_the_link(cs, cp):
    bf = ofdm_eigen(cs, M, P)
    desired, ici, iui = _powers(oracle_cp_ofdm_couplings(cs, bf.u, bf.v, cp))
    assert np.all(ici <= 1e-12 * desired)
    # white noise of variance SIGMA2 per sample is SIGMA2 per bin
    sinr = desired / (iui + ici + SIGMA2)
    assert np.allclose(ofdm_eigen_sinrs(cs, M, P, SIGMA2), sinr, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("cs,cp", _cp_cases())
def test_zf_snrs_match_the_link(cs, cp):
    bf = ofdm_zf_beamformers(cs, M, P, SIGMA2)
    desired, ici, iui = _powers(oracle_cp_ofdm_couplings(cs, bf.u, bf.v, cp))
    assert np.all(ici <= 1e-12 * desired)
    assert np.all(iui <= 1e-10 * desired)
    snr, _ = ofdm_zf_waterfill(cs, M, P, SIGMA2)
    assert np.allclose(snr, desired / SIGMA2, rtol=1e-9, atol=0.0)


def _k2_cases():
    """Every K = 2 channel set of this file's tests."""
    lists = {
        "sets": _channel_sets(), "rank": _rank_cases(), "handover": _handover_cases(),
        "bitwise": BITWISE_CASES, "schur": SCHUR_CASES, "cp": _cp_cases(),
    }
    return [
        pytest.param(case.values[0], id=f"{name}-{case.id}")
        for name, cases in lists.items() for case in cases if case.values[0].K == 2
    ]


@pytest.mark.parametrize("cs", _k2_cases())
def test_k2_interferer_eigenpairs_are_the_own_eigenpairs_reversed(cs):
    # _zf_schur's K = 2 route reads the own eigenpairs reversed along K in
    # place of a jacobi_eigh of the interferer Grams: the same bits
    grams, (lam, w) = ofdm._gram_eigen(cs, M)
    interferer = np.stack([grams[1, 1], grams[0, 0]], axis=2)      # UE k's G_oo at K index k
    lam_oo, w_oo = ofdm.jacobi_eigh(interferer)
    assert np.array_equal(lam_oo, lam[:, ::-1])
    assert np.array_equal(w_oo, w[:, :, ::-1])
