"""Raised-cosine / root-raised-cosine pulses and sampled correlation tables.

The matched-filter autocorrelation of the unit-energy root-raised-cosine
transmit filter is the raised cosine, which vanishes at nonzero integer
sample offsets.  Residual inter-symbol coupling under fractional path delays
is captured by tables of raised-cosine samples at integer-plus-fractional
offsets.  Both pulses are evaluated in symbol units x = t / T, and the tables
read every delay in samples, so nothing here takes the sample interval T.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["rho", "rrc", "rrc_taps", "build_rho_table"]


def _check_beta(beta: float) -> None:
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must lie in [0, 1)")


def rho(x, beta: float):
    """Raised cosine sinc(x) cos(pi beta x) / (1 - (2 beta x)^2) at x = t / T.

    Exact zeros are returned at nonzero integers, and the removable
    singularity at |x| = 1/(2 beta) is evaluated by its limit.
    """
    _check_beta(beta)
    x = np.asarray(x, dtype=float)

    den = 1.0 - (2.0 * beta * x) ** 2
    out = np.empty_like(x)

    singular = np.abs(den) < 1e-8
    regular = ~singular
    out[regular] = np.sinc(x[regular]) * np.cos(np.pi * beta * x[regular]) / den[regular]
    if np.any(singular):
        out[singular] = (np.pi / 4.0) * np.sinc(1.0 / (2.0 * beta))

    # true Nyquist zeros; float sin(pi*n) noise would otherwise leak through
    nyquist = (x == np.round(x)) & (x != 0.0)
    out[nyquist] = 0.0
    return out[()]


def rrc(x, beta: float):
    """Root-raised-cosine impulse response at x = t / T, unit energy in units of T.

    Self-convolution sampled at integers reproduces the raised cosine ``rho``.
    In seconds the unit-energy pulse is ``rrc(t / T, beta) / sqrt(T)``.
    """
    _check_beta(beta)
    x = np.asarray(x, dtype=float)

    out = np.empty_like(x)

    at_zero = x == 0.0
    den = np.pi * x * (1.0 - (4.0 * beta * x) ** 2)
    singular = (~at_zero) & (np.abs(1.0 - (4.0 * beta * x) ** 2) < 1e-10)
    regular = ~(at_zero | singular)

    xr = x[regular]
    out[regular] = (
        np.sin(np.pi * xr * (1.0 - beta))
        + 4.0 * beta * xr * np.cos(np.pi * xr * (1.0 + beta))
    ) / den[regular]
    out[at_zero] = 1.0 - beta + 4.0 * beta / np.pi
    if np.any(singular):
        out[singular] = (beta / np.sqrt(2.0)) * (
            (1.0 + 2.0 / np.pi) * np.sin(np.pi / (4.0 * beta))
            + (1.0 - 2.0 / np.pi) * np.cos(np.pi / (4.0 * beta))
        )
    return out[()]


def rrc_taps(beta: float, oversample: int, span_symbols: int) -> np.ndarray:
    """Symbol-normalized RRC taps on an oversampled grid.

    Sampled at ``oversample`` points per symbol over +/- ``span_symbols``
    symbols; normalized so that sum(taps^2) / oversample = pulse energy ~= 1,
    which makes a unit-power shaped symbol stream have unit mean sample power.
    """
    if oversample < 1:
        raise ValueError("oversample must be >= 1")
    n = np.arange(-span_symbols * oversample, span_symbols * oversample + 1)
    return rrc(n / oversample, beta)


def build_rho_table(lags, frac, window: int, beta: float) -> np.ndarray:
    """(K, K, R, L, I, 2W+1) raised-cosine couplings of every (branch, path, stream) triple.

    ``lags`` (K, K, R, L, I) holds the integer lag q of every triple: the
    samples by which path l of UE k, heard on branch r from stream i of UE
    k', arrives after UE k's alignment target.  ``frac`` (K, L) holds each
    path's fractional delay in samples.  Entry (k, k', r, l, i, n) is
    rho(n - W - q - frac_kl), the matched-filter coupling at lag n - W.

    ``rho`` is exactly 1 at 0 and exactly 0 at nonzero integers, so when every
    ``frac`` is 0 each triple's table is one unit tap at its lag, with
    W = max |q|.  Otherwise W = ``window``, which must cover every |q|; at
    the default window of 200 samples the tail energy left outside is below
    1e-6 of any column.  Each path's sequence rho(m - frac_kl) is evaluated
    once, for |m| <= W + max |q|, and each triple reads its window at
    m = n - W - q: the same float subtraction, so the same bits.
    """
    _check_beta(beta)
    lags, frac = np.asarray(lags), np.asarray(frac)
    max_lag = int(np.max(np.abs(lags)))
    if not frac.any():
        table = np.zeros((lags.size, 2 * max_lag + 1))
        table[np.arange(lags.size), lags.ravel() + max_lag] = 1.0
        return table.reshape(lags.shape + (2 * max_lag + 1,))
    if max_lag > window:
        raise ValueError(f"window {window} too small for delay offsets up to {max_lag} samples")
    # integer lags stay exact; frac enters once, as the sampled offset
    m = np.arange(-window - max_lag, window + max_lag + 1)
    seqs = sliding_window_view(rho(m - frac[..., None], beta), 2 * window + 1, axis=-1)
    K, L = frac.shape  # path l's window max_lag - q starts at m = -W - q
    return seqs[np.arange(K)[:, None, None, None, None], np.arange(L)[:, None], max_lag - lags]
