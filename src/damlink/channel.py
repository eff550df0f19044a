"""Sparse multipath MIMO channel generation and derived representations.

Each UE sees a small number of temporally resolvable paths; a path carries a
rank-1 complex gain matrix and an absolute delay split into an integer sample
part and a fractional remainder in [-1/2, 1/2] samples.  A drawn channel
holds its delays in samples only; the sample interval T stays in ``SimConfig``.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SimConfig",
    "ChannelSet",
    "split_delay",
    "steering_vector",
    "generate_channel_set",
    "subcarrier_coefficients",
    "frequency_response",
    "dbm_to_watts",
]


class ConfigError(ValueError):
    """Raised for configuration values that cannot describe a system."""


def is_finite_real(value) -> bool:
    """A real number (numpy scalars too) other than a bool, NaN or an infinity."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass
class SimConfig:
    """Scalar system parameters; defaults reproduce the reference setup."""

    M_t: int = 128                     # BS antennas
    M_r: int = 2                       # UE antennas
    K: int = 2                         # UEs
    L: int = 3                         # paths per UE
    P_dbm: float = 30.0                # transmit power budget
    noise_psd_dbm_hz: float = -174.0
    T_ns: float = 5.0                  # sample interval
    beta: float = 0.01                 # roll-off
    M: int = 512                       # OFDM subcarriers
    G_c: int = 200_000                 # samples per coherence block
    G_cp: int = 100                    # OFDM cyclic prefix length
    G_gi: int = 200                    # DAM per-block guard interval
    delay_span_samples: int = 100
    rho_window: int = 200              # ISI summation half-window
    oversample: int = 4                # waveform oversampling factor
    g_ls_db: float = -101.0            # large-scale gain; ~20 dB SISO SNR at 30 dBm

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        least_counts = {
            "M_t": 1, "M_r": 1, "K": 1, "L": 1, "M": 1, "G_c": 1,
            "delay_span_samples": 1, "rho_window": 1, "oversample": 1, "G_cp": 0, "G_gi": 0,
        }
        for name, least in least_counts.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
                raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
        for name in ("P_dbm", "noise_psd_dbm_hz", "T_ns", "beta", "g_ls_db"):
            value = getattr(self, name)
            if not is_finite_real(value):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        if not 0.0 <= self.beta < 1.0:
            raise ConfigError(f"beta must lie in [0, 1), got {self.beta}")
        if self.T_ns <= 0.0:
            raise ConfigError("T_ns must be positive")
        # a finite dB value can still overflow or underflow in watts
        for name, linear in (
            ("P_dbm", self.p_watts), ("noise_psd_dbm_hz", self.sigma2_watts),
            ("g_ls_db", lambda: self.g_ls),
        ):
            try:
                with np.errstate(over="ignore", under="ignore"):
                    value = linear()
            except OverflowError:
                value = math.inf
            if not 0.0 < value < math.inf:
                raise ConfigError(
                    f"{name} must give a finite positive linear value, got {getattr(self, name)!r}"
                )
        if self.G_cp < self.delay_span_samples:
            raise ConfigError("G_cp must cover the delay span")
        if self.rho_window < 2 * self.delay_span_samples:
            # double-side lags q = mu + n - n_max + kappa reach -span ... 2 span
            raise ConfigError(
                "rho_window must cover twice the delay span, got "
                f"rho_window={self.rho_window}, delay_span_samples={self.delay_span_samples}"
            )
        if self.G_cp > self.M:
            raise ConfigError(f"G_cp must not exceed M, got G_cp={self.G_cp}, M={self.M}")
        if self.G_gi >= self.G_c:
            raise ConfigError(
                f"G_gi must be shorter than G_c, got G_gi={self.G_gi}, G_c={self.G_c}"
            )

    @property
    def T(self) -> float:
        """Sample interval in seconds."""
        return self.T_ns * 1e-9

    @property
    def g_ls(self) -> float:
        return 10.0 ** (self.g_ls_db / 10.0)

    def noise_power_dbm(self) -> float:
        """sigma^2 in dBm over the full sample-rate bandwidth 1/T."""
        return self.noise_psd_dbm_hz + 10.0 * np.log10(1.0 / self.T)

    def sigma2_watts(self) -> float:
        return dbm_to_watts(self.noise_power_dbm())

    def p_watts(self) -> float:
        return dbm_to_watts(self.P_dbm)


@dataclass(frozen=True)
class ChannelSet:
    """K UEs with L resolvable paths each.

    Path l of UE k has the gain matrix ``gains[k, l]`` and the delay
    ``n[k, l] + frac[k, l]`` samples; each UE's integer delays increase strictly.
    """

    gains: np.ndarray  # (K, L, M_r, M_t)
    n: np.ndarray      # (K, L) integer sample delays
    frac: np.ndarray   # (K, L) fractional remainders in samples

    def __post_init__(self) -> None:
        # private read-only delays, so the ordering checked here stays true
        for name in ("n", "frac"):
            value = np.array(getattr(self, name))
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        if self.gains.ndim != 4 or not self.n.shape == self.frac.shape == self.gains.shape[:2]:
            raise ValueError("gains must be (K, L, M_r, M_t) with (K, L) delays")
        if np.any(np.diff(self.n, axis=1) <= 0):
            raise ConfigError("integer path delays must be strictly increasing")

    @property
    def K(self) -> int:
        return self.gains.shape[0]

    @property
    def L(self) -> int:
        return self.gains.shape[1]

    @property
    def M_r(self) -> int:
        return self.gains.shape[2]

    @property
    def M_t(self) -> int:
        return self.gains.shape[3]

    @property
    def n_max(self) -> np.ndarray:
        """(K,) latest integer path delay of each UE, its alignment target."""
        return self.n[:, -1]


def split_delay(tau_s: float, T: float) -> tuple[int, float]:
    """Split a delay into nearest-integer sample count and fractional rest.

    Rounds half away from zero; the fractional part lands in [-T/2, T/2].
    """
    if tau_s < 0.0:
        raise ValueError("delay must be non-negative")
    if T <= 0.0:
        raise ValueError("T must be positive")
    n = int(np.floor(tau_s / T + 0.5))
    return n, tau_s - n * T


def steering_vector(count: int, angle_rad) -> np.ndarray:
    """Unit-norm half-wavelength ULA responses (..., count) to angles (...); (count,) to one."""
    if count < 1:
        raise ValueError("antenna count must be >= 1")
    m = np.arange(count)
    return np.exp(1j * np.pi * m * np.sin(angle_rad)[..., None]) / np.sqrt(count)


def generate_channel_set(cfg: SimConfig, seed, integer_delays: bool = False) -> ChannelSet:
    """Draw a random sparse channel for every UE; deterministic per seed.

    Path delays are uniform on [0, delay_span * T] and redrawn until the
    integer parts are pairwise distinct; each remainder of ``split_delay`` is
    stored over T, in samples.  Each gain matrix is a rank-1 outer
    product of receive/transmit steering vectors scaled by a CN(0, g_ls / L)
    coefficient.  The random numbers are drawn one at a time, path by path;
    every steering vector and gain is then built at once.
    """
    if cfg.L > cfg.delay_span_samples + 1:
        raise ConfigError(
            f"cannot place {cfg.L} paths on {cfg.delay_span_samples + 1} distinct sample delays"
        )
    rng = np.random.default_rng(seed)
    T = cfg.T
    n = np.empty((cfg.K, cfg.L), dtype=int)
    frac = np.empty((cfg.K, cfg.L))
    draws = np.empty((4, cfg.K, cfg.L))  # AoD, AoA and two normals per path
    for k in range(cfg.K):
        while True:
            taus = rng.uniform(0.0, cfg.delay_span_samples * T, cfg.L)
            split = [split_delay(t, T) for t in taus]
            if len({d for d, _ in split}) == cfg.L:
                break
        for l, idx in enumerate(np.argsort([d for d, _ in split])):
            n[k, l], rest = split[idx]
            frac[k, l] = rest / T
            aod, aoa = rng.uniform(-np.pi / 2, np.pi / 2), rng.uniform(-np.pi / 2, np.pi / 2)
            draws[:, k, l] = aod, aoa, rng.standard_normal(), rng.standard_normal()
    aod, aoa, re, im = draws
    alpha = np.sqrt(cfg.g_ls / (2.0 * cfg.L)) * (re + 1j * im)
    a_r, a_t = steering_vector(cfg.M_r, aoa), steering_vector(cfg.M_t, aod)
    outer = a_r[..., :, None] * a_t.conj()[..., None, :]
    gains = (np.sqrt(cfg.M_t * cfg.M_r) * alpha)[..., None, None] * outer
    if integer_delays:
        frac[:] = 0.0
    return ChannelSet(gains=gains, n=n, frac=frac)


@functools.cache
def _phase_table(M: int) -> np.ndarray:
    """(M,) subcarrier phases exp(2j pi i / M) / sqrt(M) (read-only)."""
    table = np.exp(2j * np.pi * np.arange(M) / M) / np.sqrt(M)
    table.flags.writeable = False
    return table


def subcarrier_coefficients(channels: ChannelSet, M: int) -> np.ndarray:
    """(K, M, L) weights c_kl[m] = exp(2j pi ((m n_kl) mod M) / M) / sqrt(M).

    The one place a path delay becomes a subcarrier weight: integer delays
    only, phases read from one exact M-entry table (n and n + M weigh alike).
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    return _phase_table(M)[(np.arange(M)[:, None] * channels.n[:, None, :]) % M]


def frequency_response(channels: ChannelSet, M: int) -> np.ndarray:
    """(K, M, M_r, M_t) responses H_km = sum_l c_kl[m] H_kl, c from ``subcarrier_coefficients``."""
    gains = channels.gains
    flat = subcarrier_coefficients(channels, M) @ gains.reshape(*gains.shape[:2], -1)
    return flat.reshape(gains.shape[0], M, *gains.shape[2:])
