"""Per-path ISI-ZF loop vs the literal lag-stacked reference."""

import numpy as np
import pytest

from conftest import bs_side_channels, random_delay_channel_set
from damlink.beamforming import isi_zf_alternating
from oracles import oracle_isi_zf

T = 5e-9
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
    F = bs_side_channels(cs, T, BETA, WINDOW)
    # with an infinite tol the solver returns its start: the receive vectors
    # that the oracle's literal loop starts from
    start, _ = isi_zf_alternating(F, P, SIGMA2, max_iter=0)
    state, _ = isi_zf_alternating(F, P, SIGMA2, max_iter=max_iter)
    iterations, trace, f_bar = oracle_isi_zf(
        cs, P, SIGMA2, T, BETA, WINDOW, start.w, max_iter=max_iter
    )

    assert state.iterations == iterations
    assert np.allclose(state.trace, trace, rtol=1e-9, atol=0.0)
    for f, f_ref in zip(state.f, f_bar):
        assert np.linalg.norm(f - f_ref) <= 1e-8 * np.linalg.norm(f_ref)
