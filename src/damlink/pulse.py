"""Raised-cosine / root-raised-cosine pulses and sampled correlation tables.

The matched-filter autocorrelation of the unit-energy root-raised-cosine
transmit filter is the raised cosine, which vanishes at nonzero integer
sample offsets.  Residual inter-symbol coupling under fractional path delays
is captured by tables of raised-cosine samples at integer-plus-fractional
offsets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["rho", "rrc", "rrc_taps", "RhoTable", "build_rho_table"]


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


@dataclass(frozen=True)
class RhoTable:
    """Raised-cosine samples rho[l, i, n] over a symmetric sample window.

    Entry (l, i, n) is the matched-filter coupling from transmit stream i of
    the interfering user into receive path l at sample lag n, after the
    receiver aligned itself to its own latest path.  At the default window of
    200 samples the tail energy left outside is below 1e-6 of any column.
    """

    window: int
    values: np.ndarray  # (L_k, L_kprime, 2*window + 1)


def build_rho_table(ch_k, ch_kprime, kappa_kprime, window: int, T: float, beta: float) -> RhoTable:
    """Correlation table between UE k's paths and UE k'`s delayed streams.

    Stream i of UE k' is pre-delayed by ``kappa_kprime[i]`` samples; UE k
    samples at its own alignment target (latest integer path delay).  Entry
    (l, i, n) is rho((n + n_align_k - kappa_i - n_l) T - tau_f_l).
    """
    kappa = np.asarray(kappa_kprime, dtype=int)
    if kappa.ndim != 1 or kappa.size != len(ch_kprime.paths):
        raise ValueError("one pre-compensation delay per stream of the interfering UE")
    n_align = ch_k.n_max
    n_l = np.array([p.n for p in ch_k.paths])
    tau_f = np.array([p.tau_f_s for p in ch_k.paths])

    offsets = n_align - kappa[None, :] - n_l[:, None]  # (L_k, L_kprime)
    max_offset = int(np.max(np.abs(offsets)))
    if max_offset > window:
        raise ValueError(
            f"window {window} too small for delay offsets up to {max_offset} samples"
        )
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must lie in [0, 1)")
    lags = np.arange(-window, window + 1)
    # computed in symbol-normalized units so integer offsets stay exactly integer
    x = (lags[None, None, :] + offsets[:, :, None]) - (tau_f[:, None, None] / T)
    return RhoTable(window=window, values=_rho_normalized(x, beta))
