"""Raised-cosine / root-raised-cosine pulses and sampled correlation tables.

The matched-filter autocorrelation of the unit-energy root-raised-cosine
transmit filter is the raised cosine, which vanishes at nonzero integer
sample offsets.  Residual inter-symbol coupling under fractional path delays
is captured by tables of raised-cosine samples at integer-plus-fractional
offsets.
"""

from __future__ import annotations

import numpy as np

from .delay_design import triple_lags

__all__ = ["rho", "rrc", "rrc_taps", "build_rho_table"]


def _rho_normalized(x, beta: float):
    """Raised cosine at symbol-normalized offsets x = t / T."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)

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
    return out[0] if scalar else out


def rho(t, T: float, beta: float):
    """Raised-cosine pulse sinc(t/T) cos(pi beta t/T) / (1 - (2 beta t/T)^2).

    Exact zeros are returned at nonzero integer multiples of T, and the
    removable singularity at |t| = T/(2 beta) is evaluated by its limit.
    """
    if T <= 0.0:
        raise ValueError("T must be positive")
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must lie in [0, 1)")
    return _rho_normalized(np.asarray(t, dtype=float) / T, beta)


def rrc(t, T: float, beta: float):
    """Unit-energy root-raised-cosine impulse response.

    Self-convolution sampled at T reproduces the raised cosine ``rho``.
    """
    if T <= 0.0:
        raise ValueError("T must be positive")
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must lie in [0, 1)")
    x = np.asarray(t, dtype=float) / T
    scalar = x.ndim == 0
    x = np.atleast_1d(x)

    scale = 1.0 / np.sqrt(T)
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
    out *= scale
    return out[0] if scalar else out


def rrc_taps(beta: float, oversample: int, span_symbols: int = 16) -> np.ndarray:
    """Symbol-normalized RRC taps on an oversampled grid.

    Sampled at ``oversample`` points per symbol over +/- ``span_symbols``
    symbols; normalized so that sum(taps^2) / oversample = pulse energy ~= 1,
    which makes a unit-power shaped symbol stream have unit mean sample power.
    """
    if oversample < 1:
        raise ValueError("oversample must be >= 1")
    n = np.arange(-span_symbols * oversample, span_symbols * oversample + 1)
    return rrc(n / oversample, 1.0, beta)


def build_rho_table(channels, kappa, window: int, T: float, beta: float) -> np.ndarray:
    """Raised-cosine couplings between every UE's paths and every UE's delayed streams.

    Stream i of UE k' is pre-delayed by ``kappa[k', i]`` samples; UE k samples
    at its own alignment target, its latest integer path delay n_k,max.
    Entry (k, k', l, i, n) of the (K, K, L, I, 2W+1) table is
    rho((n - W - q) T - tau_f,kl) with q the integer lag of the triple
    (``delay_design.triple_lags``, no post-delay): the matched-filter
    coupling from stream i of UE k' into path l of UE k at sample lag n - W.
    At the default window of 200 samples the tail energy left outside is
    below 1e-6 of any column.
    """
    kappa = np.asarray(kappa, dtype=int)
    if kappa.ndim != 2 or kappa.shape[0] != channels.K:
        raise ValueError("one row of pre-compensation delays per UE")
    mu = np.zeros((channels.K, 1), dtype=int)  # no post-delay
    offsets = -triple_lags(channels.n, channels.n_max, kappa, mu)[:, :, 0]  # (K, K, L, I)
    max_offset = int(np.max(np.abs(offsets)))
    if max_offset > window:
        raise ValueError(
            f"window {window} too small for delay offsets up to {max_offset} samples"
        )
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must lie in [0, 1)")
    lags = np.arange(-window, window + 1)
    # computed in symbol-normalized units so integer offsets stay exactly integer
    x = (lags + offsets[..., None]) - (channels.tau_f[:, None, :, None, None] / T)
    return _rho_normalized(x, beta)
