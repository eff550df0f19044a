"""Design of integer delay pre/post-compensation for multipath alignment.

A UE with L resolvable integer path delays n_1 < ... < n_L is served by I
pre-delayed transmit streams and R post-delayed receive branches; stream i,
branch r and path l add up to the delay kappa_i + mu_r + n_l.  The I*R sums
kappa_i + mu_r have rank I + R - 1, so every path can reach the target n_L
through some (stream, branch) pair whenever I + R - 1 >= L, and for
I + R - 1 = L the compensation delays are closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "DelayPlan", "CountChoice", "solve_compensation_delays", "triple_lags",
    "stream_count_range", "choose_compensation_counts",
]


class InfeasibleError(ValueError):
    """Raised when antenna counts cannot support a requested design."""


@dataclass(frozen=True)
class DelayPlan:
    """Per-UE compensation delays: kappa at the transmitter, mu at the receiver."""

    I: int
    R: int
    kappa: tuple[int, ...]
    mu: tuple[int, ...]
    n_max: int

    def __post_init__(self) -> None:
        if len(self.kappa) != self.I or len(self.mu) != self.R:
            raise ValueError("kappa/mu lengths must match I/R")
        if len(set(self.kappa)) != self.I or len(set(self.mu)) != self.R:
            raise ValueError("compensation delays must be pairwise distinct")
        if self.kappa[0] != 0:
            raise ValueError("first pre-compensation delay is fixed to zero")
        if any(v < 0 for v in self.kappa) or any(v < 0 for v in self.mu):
            raise ValueError("compensation delays must be non-negative")


class CountChoice(NamedTuple):
    I: int
    R: int
    case: int
    side: str


def solve_compensation_delays(n_list: Sequence[int], I: int, R: int) -> DelayPlan:
    """Closed-form compensation delays for the exactly-determined case I+R-1 = L.

    mu_{L+1-l} = n_max - n_l for the last R paths and kappa_{I+1-l} = n_I - n_l
    for the first I paths, anchored by kappa_1 = 0; every path then reaches the
    target n_max through at least one (stream, branch) pair.
    """
    n = [int(v) for v in n_list]
    L = len(n)
    if any(b <= a for a, b in zip(n, n[1:])):
        raise ValueError("path delays must be strictly increasing")
    if I < 1 or R < 1 or I + R - 1 != L:
        raise ValueError(f"need I + R - 1 = L, got I={I}, R={R}, L={L}")
    n_max = n[-1]
    kappa = tuple(n[I - 1] - n[I - i] for i in range(1, I + 1))
    mu = tuple(n_max - n[L - r] for r in range(1, R + 1))
    return DelayPlan(I=I, R=R, kappa=kappa, mu=mu, n_max=n_max)


def triple_lags(n, n_max, kappa, mu) -> np.ndarray:
    """(K, K, R, L, I) integer lag of every (branch, path, stream) triple of every UE pair.

    Path l of receiving UE k, heard on branch r from stream i of transmitting
    UE k', arrives q = n_kl + kappa_k'i + mu_kr - n_k,max samples after UE k's
    alignment target; UE k's own triples at q = 0 are aligned.  ``n`` is
    (K, L), ``n_max`` (K,), ``kappa`` (K, I) and ``mu`` (K, R).
    """
    n, n_max, kappa, mu = (np.asarray(a) for a in (n, n_max, kappa, mu))
    return (
        mu[:, None, :, None, None]
        + (n - n_max[:, None])[:, None, None, :, None]
        + kappa[None, :, None, None, :]
    )


def stream_count_range(M_t: int, M_r: int, L: int) -> range:
    """Stream counts I that fit I <= M_t streams and R = L + 1 - I <= M_r branches."""
    return range(max(1, L + 1 - M_r), min(L, M_t) + 1)


_REGIMES = {  # (M_r >= L, M_t >= L) -> (case, side) of the antenna regime
    (False, True): (1, "bs-side"), (True, False): (2, "ue-side"),
    (True, True): (3, "single-side"), (False, False): (4, "double-side"),
}


def choose_compensation_counts(M_t: int, M_r: int, L: int) -> CountChoice:
    """Pick stream/branch counts minimizing the same-UE interference count.

    The count L(L+1-I)I - L is concave in I, so its minimum over the feasible
    ``stream_count_range`` lies at an endpoint; ties go to the transmit-heavy
    end, which suits the downlink.  ``case``/``side`` name the antenna regime
    (M_r >= L, M_t >= L): 1 bs-side, 2 ue-side, 3 single-side (both ends tie),
    4 double-side.
    """
    if M_t < 1 or M_r < 1 or L < 1:
        raise ValueError("antenna counts and path count must be >= 1")
    counts = stream_count_range(M_t, M_r, L)
    if not counts:
        raise InfeasibleError(
            f"no feasible stream count: need M_t + M_r >= L + 1, got "
            f"M_t={M_t}, M_r={M_r}, L={L}"
        )
    lo, hi = counts[0], counts[-1]
    I = hi if (L + 1 - hi) * hi <= (L + 1 - lo) * lo else lo
    case, side = _REGIMES[M_r >= L, M_t >= L]
    return CountChoice(I=I, R=L + 1 - I, case=case, side=side)
