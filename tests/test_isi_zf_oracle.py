"""Per-path ISI-ZF loop vs the literal lag-stacked reference, and its screened
sphere-grid start vs the exhaustive one."""

import numpy as np
import pytest

from conftest import by_path, random_delay_channel_set
from damlink import beamforming
from damlink.beamforming import SPHERE_GRID, _sphere_points, assemble_bs_side, isi_zf_alternating
from damlink.channel import ChannelSet, SimConfig, generate_channel_set
from oracles import oracle_grid_start, oracle_isi_zf

BETA = 0.25
SIGMA2 = 1e-3
WINDOW = 40


# from the sphere-grid start, fractional instances stop after 1-37 iterations
# (one of them under a 60-iteration cap); integer-delay instances have no ISI
# and stop after a few
@pytest.mark.parametrize(
    "seed,m_r,m_t,K,L,span,fractional,P,max_iter",
    [
        (2, 2, 12, 1, 3, 30, True, 0.1, 200),
        (1, 2, 16, 2, 2, 30, True, 0.1, 200),
        (5, 2, 12, 2, 2, 15, True, 0.1, 200),
        (1, 2, 12, 1, 3, 30, True, 0.1, 200),
        (1, 2, 16, 2, 3, 30, True, 2.0, 60),
        (3, 1, 8, 2, 2, 15, True, 2.0, 200),
        (6, 2, 16, 2, 3, 30, False, 2.0, 200),
        (7, 2, 8, 1, 3, 30, False, 2.0, 200),
    ],
)
def test_matches_lag_stacked_oracle(seed, m_r, m_t, K, L, span, fractional, P, max_iter):
    rng = np.random.default_rng(seed)
    cs = random_delay_channel_set(rng, m_r, m_t, K=K, L=L, span=span, fractional=fractional)
    F = assemble_bs_side(cs, WINDOW, BETA)
    # with an infinite tol the solver returns its start: the receive vectors
    # that the oracle's literal loop starts from
    start, _ = isi_zf_alternating(F, P, SIGMA2, max_iter=0)
    state, _ = isi_zf_alternating(F, P, SIGMA2, max_iter=max_iter)
    iterations, trace, f_bar = oracle_isi_zf(
        cs, P, SIGMA2, BETA, WINDOW, start.w, max_iter=max_iter
    )

    assert state.iterations == iterations
    assert np.allclose(state.trace, trace, rtol=1e-9, atol=0.0)
    # the oracle stacks its transmit vectors by path
    for f, f_ref in zip(by_path(F, state.f), f_bar):
        assert np.linalg.norm(f - f_ref) <= 1e-8 * np.linalg.norm(f_ref)


# every shape the start's screen serves: (M_r, K, L); M_t = 128 covers them all
START_SHAPES = [(1, 2, 3), (2, 2, 3), (3, 2, 3), (4, 2, 3), (2, 3, 4)]
START_POWERS_DBM = (10.0, 20.0, 30.0, 40.0, 50.0)


def _exact_values(grams, P, sigma2):
    """Path gains n (K, G, L) and the start objective r0^T diag(n) c of every
    sphere point, from one L x L solve each, as the exhaustive start forms them."""
    K, L = grams.r0.shape
    points = _sphere_points(grams.gram.shape[-1])[0]
    outer = (points.conj()[:, :, None] * points[:, None, :]).reshape(len(points), -1)
    n = (outer @ grams.gram.reshape(K * L, -1).T).real.reshape(-1, K, L).swapaxes(0, 1)
    a = grams.s[:, None] * n[:, :, None, :]
    np.einsum("kgii->kgi", a)[:] += sigma2 * K / P
    c = np.linalg.solve(a, np.broadcast_to(grams.r0[:, None, :, None], n.shape + (1,)))[..., 0]
    return n, np.sum(grams.r0[:, None] * n * c, axis=2)


def _same_solve(F, P, sigma2, monkeypatch):
    """The start and solve equal, to the bit, those from the exhaustive start."""
    state, sinrs = isi_zf_alternating(F, P, sigma2)
    start = beamforming._grid_start(state.grams, P, sigma2)[0]
    assert np.array_equal(start, oracle_grid_start(state.grams, P, sigma2)[0])
    with monkeypatch.context() as patch:
        patch.setattr(beamforming, "_grid_start", oracle_grid_start)
        ref, ref_sinrs = isi_zf_alternating(F, P, sigma2)
    assert np.array_equal(state.w, ref.w) and np.array_equal(state.f, ref.f)
    assert state.trace == ref.trace and state.iterations == ref.iterations
    assert np.array_equal(sinrs, ref_sinrs)
    return state


@pytest.mark.parametrize("fractional", [True, False], ids=["frac", "int"])
@pytest.mark.parametrize("m_r,K,L", START_SHAPES)
def test_screened_start_is_the_exhaustive_start(m_r, K, L, fractional, monkeypatch):
    worst = 0.0
    for seed in range(4):
        for p_dbm in START_POWERS_DBM:
            cfg = SimConfig(M_r=m_r, K=K, L=L, P_dbm=p_dbm)
            P, sigma2 = cfg.p_watts(), cfg.sigma2_watts()
            cs = generate_channel_set(cfg, [seed, int(p_dbm)], integer_delays=not fractional)
            state = _same_solve(assemble_bs_side(cs, cfg.rho_window, cfg.beta), P, sigma2, monkeypatch)
            n, exact = _exact_values(state.grams, P, sigma2)
            fast = beamforming._screen_values(state.grams, n, sigma2 * K / P)
            best = exact.max(axis=1, keepdims=True)
            worst = max(worst, float(np.max(np.abs(fast - exact) / best)))
    # the screen's margin stays far above its rounding error
    assert worst < beamforming._SCREEN_TOL / 1e3


def test_screened_start_keeps_the_first_of_exact_ties(monkeypatch):
    # every path arrives on receive antenna 0, so the 48 points of the theta = 0
    # row, w = (1, 0) up to phase, tie exactly at the best objective
    cfg = SimConfig(P_dbm=30.0)
    P, sigma2 = cfg.p_watts(), cfg.sigma2_watts()
    cs = generate_channel_set(cfg, 5)
    gains = cs.gains.copy()
    gains[:, :, 1] = 0.0
    cs = ChannelSet(gains=gains, n=cs.n, frac=cs.frac)
    state = _same_solve(assemble_bs_side(cs, cfg.rho_window, cfg.beta), P, sigma2, monkeypatch)
    _, exact = _exact_values(state.grams, P, sigma2)
    ties = exact == exact.max(axis=1, keepdims=True)
    assert np.array_equal(np.nonzero(ties)[1], np.tile(np.arange(SPHERE_GRID[1]), cs.K))
    sizes, solve = [], beamforming._solve
    monkeypatch.setattr(beamforming, "_solve", lambda a, rhs: sizes.append(len(a)) or solve(a, rhs))
    start = beamforming._grid_start(state.grams, P, sigma2)[0]
    assert sizes == [ties.sum()]  # the screen keeps every tied point
    assert np.array_equal(start, np.tile(_sphere_points(2)[0][0], (cs.K, 1)))
