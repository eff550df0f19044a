"""Raised-cosine / root-raised-cosine pulses and sampled correlation tables.

The matched-filter autocorrelation of the unit-energy root-raised-cosine
transmit filter is the raised cosine, which vanishes at nonzero integer
sample offsets.  Residual inter-symbol coupling under fractional path delays
is captured by tables of raised-cosine samples at integer-plus-fractional
offsets.  Both pulses are evaluated in symbol units x = t / T.
"""

from __future__ import annotations

import numpy as np

from .delay_design import triple_lags

__all__ = ["rho", "rrc", "rrc_taps", "check_pulse", "build_rho_table"]


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


def check_pulse(T: float, beta: float) -> None:
    """Raise unless the sample interval T is positive and beta lies in [0, 1)."""
    if T <= 0.0:
        raise ValueError("T must be positive")
    _check_beta(beta)


def build_rho_table(channels, kappa, mu, window: int, T: float, beta: float) -> np.ndarray:
    """Raised-cosine couplings between every UE's paths and every UE's delayed streams.

    Stream i of UE k' is pre-delayed by ``kappa[k', i]`` samples and branch r
    of UE k post-delays what it hears by ``mu[k, r]`` samples; UE k samples at
    its own alignment target, its latest integer path delay n_k,max.  Entry
    (k, k', r, l, i, n) of the (K, K, R, L, I, 2W+1) table is
    rho(n - W - q - tau_f,kl / T) with q the integer lag of the triple
    (``delay_design.triple_lags``): the matched-filter coupling from stream i
    of UE k' into path l of UE k on branch r at sample lag n - W.  At the
    default window of 200 samples the tail energy left outside is below 1e-6
    of any column.
    """
    check_pulse(T, beta)
    kappa, mu = np.asarray(kappa, dtype=int), np.asarray(mu, dtype=int)
    if kappa.ndim != 2 or kappa.shape[0] != channels.K or mu.ndim != 2 or mu.shape[0] != channels.K:
        raise ValueError("one row of pre- and of post-compensation delays per UE")
    offsets = -triple_lags(channels.n, channels.n_max, kappa, mu)  # (K, K, R, L, I)
    max_offset = int(np.max(np.abs(offsets)))
    if max_offset > window:
        raise ValueError(
            f"window {window} too small for delay offsets up to {max_offset} samples"
        )
    lags = np.arange(-window, window + 1)
    # computed in symbol units so integer offsets stay exactly integer
    x = (lags + offsets[..., None]) - (channels.tau_f[:, None, None, :, None, None] / T)
    return rho(x, beta)
