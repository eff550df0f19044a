"""Sparse multipath MIMO channel generation and derived representations.

Each UE sees a small number of temporally resolvable paths; a path carries a
rank-1 complex gain matrix and an absolute delay split into an integer sample
part and a fractional remainder in [-T/2, T/2].
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SimConfig",
    "PathComponent",
    "UEChannel",
    "ChannelSet",
    "split_delay",
    "steering_vector",
    "generate_channel_set",
    "frequency_response",
    "dbm_to_watts",
]


class ConfigError(ValueError):
    """Raised for configuration values that cannot describe a system."""


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
        if not 0.0 <= self.beta < 1.0:
            raise ConfigError(f"beta must lie in [0, 1), got {self.beta}")
        if self.T_ns <= 0.0:
            raise ConfigError("T_ns must be positive")
        if self.G_cp < self.delay_span_samples:
            raise ConfigError("G_cp must cover the delay span")
        if self.rho_window < self.delay_span_samples:
            raise ConfigError("rho_window must cover the delay span")

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
class PathComponent:
    """One resolvable path: rank-1 gain matrix plus split delay."""

    gain: np.ndarray       # (M_r, M_t)
    tau_s: float
    n: int
    tau_f_s: float


@dataclass(frozen=True)
class UEChannel:
    paths: tuple[PathComponent, ...]

    def __post_init__(self) -> None:
        n_list = [p.n for p in self.paths]
        if any(b <= a for a, b in zip(n_list, n_list[1:])):
            raise ConfigError("integer path delays must be strictly increasing")

    @property
    def L(self) -> int:
        return len(self.paths)

    @property
    def n_list(self) -> list[int]:
        return [p.n for p in self.paths]

    @property
    def n_max(self) -> int:
        return self.paths[-1].n

    @property
    def gains(self) -> np.ndarray:
        """Stacked gain matrices, shape (L, M_r, M_t)."""
        return np.stack([p.gain for p in self.paths])


@dataclass(frozen=True)
class ChannelSet:
    ues: tuple[UEChannel, ...]

    @property
    def K(self) -> int:
        return len(self.ues)

    @property
    def M_r(self) -> int:
        return self.ues[0].paths[0].gain.shape[0]

    @property
    def M_t(self) -> int:
        return self.ues[0].paths[0].gain.shape[1]


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


def steering_vector(count: int, angle_rad: float) -> np.ndarray:
    """Unit-norm half-wavelength ULA response for the given angle."""
    if count < 1:
        raise ValueError("antenna count must be >= 1")
    m = np.arange(count)
    return np.exp(1j * np.pi * m * np.sin(angle_rad)) / np.sqrt(count)


def generate_channel_set(cfg: SimConfig, seed, integer_delays: bool = False) -> ChannelSet:
    """Draw a random sparse channel for every UE; deterministic per seed.

    Path delays are uniform on [0, delay_span * T] and redrawn until the
    integer parts are pairwise distinct; each gain matrix is a rank-1 outer
    product of receive/transmit steering vectors scaled by a CN(0, g_ls / L)
    coefficient.
    """
    if cfg.L > cfg.delay_span_samples + 1:
        raise ConfigError(
            f"cannot place {cfg.L} paths on {cfg.delay_span_samples + 1} distinct sample delays"
        )
    rng = np.random.default_rng(seed)
    T = cfg.T
    ues = []
    for k in range(cfg.K):
        while True:
            taus = rng.uniform(0.0, cfg.delay_span_samples * T, cfg.L)
            split = [split_delay(t, T) for t in taus]
            if len({n for n, _ in split}) == cfg.L:
                break
        order = np.argsort([n for n, _ in split])
        paths = []
        for idx in order:
            tau = taus[idx]
            if integer_delays:
                n = split[idx][0]
                tau, tau_f = n * T, 0.0
            else:
                n, tau_f = split[idx]
            aod = rng.uniform(-np.pi / 2, np.pi / 2)
            aoa = rng.uniform(-np.pi / 2, np.pi / 2)
            alpha = np.sqrt(cfg.g_ls / (2.0 * cfg.L)) * (
                rng.standard_normal() + 1j * rng.standard_normal()
            )
            gain = (
                np.sqrt(cfg.M_t * cfg.M_r)
                * alpha
                * np.outer(steering_vector(cfg.M_r, aoa), steering_vector(cfg.M_t, aod).conj())
            )
            paths.append(PathComponent(gain=gain, tau_s=tau, n=n, tau_f_s=tau_f))
        ues.append(UEChannel(paths=tuple(paths)))
    return ChannelSet(ues=tuple(ues))


def frequency_response(ch: UEChannel, M: int) -> np.ndarray:
    """Per-subcarrier response H_m = (1/sqrt(M)) sum_l H_l exp(2j pi m n_l / M).

    Only integer delay parts enter, matching the discrete transform of the
    sampled channel; shape (M, M_r, M_t).
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    m = np.arange(M)
    n_l = np.asarray(ch.n_list)
    phases = np.exp(2j * np.pi * np.outer(m, n_l) / M)  # (M, L)
    gains = ch.gains                                    # (L, M_r, M_t)
    flat = phases @ gains.reshape(n_l.size, -1)
    return flat.reshape(M, *gains.shape[1:]) / np.sqrt(M)
