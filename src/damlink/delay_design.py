"""Design of integer delay pre/post-compensation for multipath alignment.

A UE with L resolvable integer path delays n_1 < ... < n_L is served by I
pre-delayed transmit streams and R post-delayed receive branches.  Choosing
the I + R compensation values so that every path has at least one (stream,
branch) pair summing to the alignment target n_L is a linear system over a
structured 0/1 matrix; it is solvable whenever I + R - 1 >= L, and for
I + R - 1 = L the solution is closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "DelayPlan",
    "AlignmentSets",
    "CompensationSystem",
    "CountChoice",
    "build_compensation_matrix",
    "build_selection_matrix",
    "build_compensation_system",
    "feasibility_check",
    "solve_compensation_delays",
    "enumerate_alignment_sets",
    "choose_compensation_counts",
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


@dataclass(frozen=True)
class AlignmentSets:
    """Classification of all (stream, branch, path) triples by total delay."""

    desired: tuple[tuple[int, int, int], ...]  # 1-indexed (i, r, l) hitting n_max
    isi: tuple[tuple[int, int, int], ...]
    L_extra: int


@dataclass(frozen=True)
class CompensationSystem:
    """Structured linear system: selection @ Q @ [kappa; mu] = alignment vector."""

    Q: np.ndarray      # (I*R, I+R) 0/1
    V: np.ndarray      # (L, I*R) 0/1 row selector
    x: np.ndarray      # (I+R,) concatenated [kappa; mu]
    n_vec: np.ndarray  # (L,) targets [n_max - n_L, ..., n_max - n_1]


class CountChoice(NamedTuple):
    I: int
    R: int
    case: int
    side: str


def build_compensation_matrix(I: int, R: int) -> np.ndarray:
    """0/1 matrix mapping [kappa; mu] to all I*R combined delays kappa_i + mu_r.

    Row (i-1)*R + (r-1) has ones at columns i-1 and I+r-1; its rank is
    I + R - 1.
    """
    if I < 1 or R < 1:
        raise ValueError("I and R must be >= 1")
    q = np.zeros((I * R, I + R))
    rows = np.arange(I * R)
    q[rows, rows // R] = 1.0
    q[rows, I + rows % R] = 1.0
    return q


def build_selection_matrix(I: int, R: int) -> np.ndarray:
    """Row selector picking L = I + R - 1 independent combined-delay equations.

    Takes the whole first stream block (all R branches) plus the last branch
    of every remaining stream block.
    """
    if I < 1 or R < 1:
        raise ValueError("I and R must be >= 1")
    L = I + R - 1
    selected = list(range(R)) + [i * R + (R - 1) for i in range(1, I)]
    v = np.zeros((L, I * R))
    v[np.arange(L), selected] = 1.0
    return v


def feasibility_check(I: int, R: int, L: int) -> bool:
    """Whether I streams and R branches can align L paths."""
    return I + R - 1 >= L


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


def build_compensation_system(plan: DelayPlan, n_list: Sequence[int]) -> CompensationSystem:
    n = np.asarray(n_list, dtype=float)
    q = build_compensation_matrix(plan.I, plan.R)
    v = build_selection_matrix(plan.I, plan.R)
    x = np.concatenate([np.asarray(plan.kappa, float), np.asarray(plan.mu, float)])
    n_vec = plan.n_max - n[::-1]
    return CompensationSystem(Q=q, V=v, x=x, n_vec=n_vec)


def enumerate_alignment_sets(plan: DelayPlan, n_list: Sequence[int]) -> AlignmentSets:
    """Split all I*R*L (stream, branch, path) triples into aligned and ISI sets."""
    n = [int(v) for v in n_list]
    desired = []
    isi = []
    for i, kappa in enumerate(plan.kappa, start=1):
        for r, mu in enumerate(plan.mu, start=1):
            for l, nl in enumerate(n, start=1):
                if kappa + mu + nl == plan.n_max:
                    desired.append((i, r, l))
                else:
                    isi.append((i, r, l))
    return AlignmentSets(
        desired=tuple(desired),
        isi=tuple(isi),
        L_extra=len(desired) - len(n),
    )


def choose_compensation_counts(M_t: int, M_r: int, L: int) -> CountChoice:
    """Pick stream/branch counts minimizing the same-UE interference count.

    The objective L(L+1-I)I - L over the feasible stream-count interval is
    minimized at an interval endpoint; the four antenna-regime cases below
    reproduce that optimum directly.
    """
    if M_t < 1 or M_r < 1 or L < 1:
        raise ValueError("antenna counts and path count must be >= 1")
    lo = max(1, L + 1 - M_r)
    hi = min(L, M_t)
    if lo > hi:
        raise InfeasibleError(
            f"no feasible stream count: need M_t + M_r >= L + 1, got "
            f"M_t={M_t}, M_r={M_r}, L={L}"
        )
    if M_r < L and M_t >= L:
        case, side, I = 1, "bs-side", L
    elif M_r >= L and M_t < L:
        case, side, I = 2, "ue-side", 1
    elif M_r >= L and M_t >= L:
        # both endpoints tie; transmit-side compensation suits the downlink
        case, side, I = 3, "single-side", L
    else:
        case, side = 4, "double-side"
        # endpoint comparison; ties go to the transmit-heavy choice
        I = M_t if M_r * (L + 1 - M_r) >= M_t * (L + 1 - M_t) else L + 1 - M_r
    return CountChoice(I=I, R=L + 1 - I, case=case, side=side)
