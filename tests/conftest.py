"""Shared builders for synthetic channels with controlled delays."""

import numpy as np

from damlink.channel import ChannelSet


def rank1_gain(rng, m_r, m_t, scale=1.0):
    u = rng.standard_normal(m_r) + 1j * rng.standard_normal(m_r)
    v = rng.standard_normal(m_t) + 1j * rng.standard_normal(m_t)
    return scale * np.outer(u, v) / np.sqrt(2.0)


def full_rank_gain(rng, m_r, m_t, scale=1.0):
    return scale * (rng.standard_normal((m_r, m_t)) + 1j * rng.standard_normal((m_r, m_t)))


def make_channel_set(rng, m_r, m_t, delay_lists, frac_lists=None, scale=1.0, full_rank=False):
    """Channel set with prescribed integer delays and optional fractional delays.

    ``delay_lists`` is one list of strictly increasing integers per UE, all of
    the same length; ``frac_lists`` holds matching fractional offsets in
    samples within (-1/2, 1/2], defaulting to zero.  Gains are rank-1 outer
    products like the production model unless ``full_rank`` is set; they are
    drawn UE by UE, path by path.
    """
    n = np.array(delay_lists, dtype=int)
    if n.ndim != 2:
        raise ValueError("every UE needs the same number of delays")
    fracs = np.zeros(n.shape) if frac_lists is None else np.array(frac_lists, dtype=float)
    gain_of = full_rank_gain if full_rank else rank1_gain
    gains = np.array([[gain_of(rng, m_r, m_t, scale) for _ in row] for row in n])
    return ChannelSet(gains=gains, n=n, frac=fracs)


def assert_same_channels(a, b):
    """Equal gains, integer delays and fractional delays."""
    assert np.array_equal(a.gains, b.gains)
    assert np.array_equal(a.n, b.n)
    assert np.array_equal(a.frac, b.frac)


def random_delay_channel_set(
    rng, m_r, m_t, K, L, span=30, fractional=True, scale=1.0, full_rank=False
):
    delay_lists = [
        np.sort(rng.choice(np.arange(span + 1), size=L, replace=False)).tolist()
        for _ in range(K)
    ]
    frac_lists = None
    if fractional:
        frac_lists = [rng.uniform(-0.5, 0.5, L).tolist() for _ in range(K)]
    return make_channel_set(
        rng, m_r, m_t, delay_lists, frac_lists, scale=scale, full_rank=full_rank
    )


def aligned_stream(F):
    """(K, L) index of the stream aligned through path l of UE k, read from the
    aligned mask of a one-branch assembly, where it is one stream per path."""
    mask = F.aligned_mask[:, 0]
    assert np.all(mask.sum(axis=2) == 1)
    return np.argmax(mask, axis=2)


def by_path(F, f):
    """Stacked per-stream transmit vectors (K, L M_t) of a one-branch assembly,
    reordered so block l holds the stream aligned through path l."""
    K, L = f.shape[0], F.aligned_mask.shape[2]
    blocks = f.reshape(K, L, -1)
    return blocks[np.arange(K)[:, None], aligned_stream(F)].reshape(K, -1)
