"""Effective channels, beamformers and SINRs for delay-aligned transmission.

Three pipelines share this module:

* double-side eigen-beamforming on integer delays, built from per-pair
  effective-channel tensors grouped by residual delay difference;
* BS-side eigen-beamforming under fractional delays, built from
  raised-cosine-weighted block matrices;
* ISI-zero-forcing transmission with alternating MMSE updates of the
  receive and transmit vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet, UEChannel
from .delay_design import DelayPlan, InfeasibleError
from .numerics import RANK_TOL, null_space_basis
from .pulse import build_rho_table

__all__ = [
    "BeamformerSet",
    "PairTensor",
    "EffectiveChannelTensor",
    "FractionalEffectiveChannels",
    "PowerTerms",
    "ProjectedPaths",
    "IsiZfState",
    "assemble_effective_channels",
    "eigen_beamform_doubleside",
    "bs_side_kappa",
    "bs_side_rho_tables",
    "assemble_bs_side",
    "power_terms",
    "eigen_beamform_bs_side",
    "null_space_projection",
    "mmse_receive_update",
    "mmse_transmit_update",
    "isi_zf_sinrs",
    "isi_zf_alternating",
]


@dataclass
class BeamformerSet:
    """Stacked per-UE transmit and receive vectors under a shared power budget."""

    f_bar: list[np.ndarray]
    w_bar: list[np.ndarray]
    power: float

    def total_transmit_power(self) -> float:
        return float(sum(np.linalg.norm(f) ** 2 for f in self.f_bar))


@dataclass(frozen=True)
class PairTensor:
    """Blocks of one (receiving UE, transmitting UE) pair keyed by delay lag."""

    delta_min: int
    delta_max: int
    blocks: dict  # q -> (M_r * R_k, M_t * I_kprime)

    def block(self, q: int, shape) -> np.ndarray:
        found = self.blocks.get(q)
        return found if found is not None else np.zeros(shape, dtype=complex)


@dataclass(frozen=True)
class EffectiveChannelTensor:
    pairs: dict  # (k, kprime) -> PairTensor
    plans: tuple[DelayPlan, ...]
    M_r: int
    M_t: int

    @property
    def K(self) -> int:
        return len(self.plans)


def assemble_effective_channels(
    channels: ChannelSet, plans: list[DelayPlan] | tuple[DelayPlan, ...]
) -> EffectiveChannelTensor:
    """Group every (branch, stream, path) product by its residual delay lag.

    For receiving UE k and transmitting UE k', path l heard on branch r from
    stream i arrives with lag q = n_kl + kappa_{k'i} + mu_{kr} - n_{k,max}
    relative to UE k's alignment target; the block matrix at lag q holds
    H_kl in block (r, i).
    """
    if len(plans) != channels.K:
        raise ValueError("one delay plan per UE")
    M_r, M_t = channels.M_r, channels.M_t
    pairs = {}
    for k, ue in enumerate(channels.ues):
        plan_k = plans[k]
        if plan_k.n_max != ue.n_max:
            raise ValueError(f"plan for UE {k} does not target its latest path")
        for kp, _ in enumerate(channels.ues):
            plan_kp = plans[kp]
            blocks: dict[int, np.ndarray] = {}
            count = 0
            for r, mu in enumerate(plan_k.mu):
                for i, kappa in enumerate(plan_kp.kappa):
                    for l, path in enumerate(ue.paths):
                        q = path.n + kappa + mu - plan_k.n_max
                        blk = blocks.get(q)
                        if blk is None:
                            blk = np.zeros((M_r * plan_k.R, M_t * plan_kp.I), dtype=complex)
                            blocks[q] = blk
                        blk[r * M_r : (r + 1) * M_r, i * M_t : (i + 1) * M_t] = path.gain
                        count += 1
            if count != plan_k.R * plan_kp.I * ue.L:
                raise AssertionError("placement count mismatch")
            qs = blocks.keys()
            pairs[(k, kp)] = PairTensor(delta_min=min(qs), delta_max=max(qs), blocks=blocks)
    return EffectiveChannelTensor(pairs=pairs, plans=tuple(plans), M_r=M_r, M_t=M_t)


def _top_singular_pair(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    u, _, vh = np.linalg.svd(a, full_matrices=False)
    return u[:, 0], vh[0].conj()


def eigen_beamform_doubleside(
    tensor: EffectiveChannelTensor, P: float, sigma2: float
) -> tuple[BeamformerSet, np.ndarray]:
    """Top singular pair of each UE's aligned block as transmit/receive vectors.

    Transmit vectors share the budget equally (P/K each); the SINR counts all
    misaligned same-UE lags and every lag of the other UEs.
    """
    if P <= 0.0 or sigma2 <= 0.0:
        raise ValueError("P and sigma2 must be positive")
    K = tensor.K
    v_list, w_list = [], []
    for k in range(K):
        pair = tensor.pairs[(k, k)]
        shape = (tensor.M_r * tensor.plans[k].R, tensor.M_t * tensor.plans[k].I)
        u, v = _top_singular_pair(pair.block(0, shape))
        v_list.append(v)
        w_list.append(u)
    frob = math.sqrt(sum(float(np.linalg.norm(v) ** 2) for v in v_list))
    f_list = [np.sqrt(P) * v / frob for v in v_list]

    sinrs = np.empty(K)
    for k in range(K):
        w = w_list[k]
        pair_self = tensor.pairs[(k, k)]
        shape_self = (w.size, f_list[k].size)
        signal = abs(np.vdot(w, pair_self.block(0, shape_self) @ f_list[k])) ** 2
        interference = 0.0
        for q, blk in pair_self.blocks.items():
            if q != 0:
                interference += abs(np.vdot(w, blk @ f_list[k])) ** 2
        for kp in range(K):
            if kp == k:
                continue
            for blk in tensor.pairs[(k, kp)].blocks.values():
                interference += abs(np.vdot(w, blk @ f_list[kp])) ** 2
        sinrs[k] = signal / (interference + sigma2 * float(np.linalg.norm(w) ** 2))
    return BeamformerSet(f_bar=f_list, w_bar=w_list, power=P), sinrs


# ---------------------------------------------------------------------------
# BS-side pipeline with fractional delays
# ---------------------------------------------------------------------------


def bs_side_kappa(ue: UEChannel) -> list[int]:
    """Transmit-side delays aligning each path to the UE's latest path."""
    return [ue.n_max - n for n in ue.n_list]


def bs_side_rho_tables(
    channels: ChannelSet, window: int, T: float, beta: float
) -> dict:
    """Correlation tables for every (receiving, transmitting) UE pair."""
    tables = {}
    for k, ue in enumerate(channels.ues):
        for kp, ue_p in enumerate(channels.ues):
            tables[(k, kp)] = build_rho_table(ue, ue_p, bs_side_kappa(ue_p), window, T, beta)
    return tables


@dataclass(frozen=True)
class FractionalEffectiveChannels:
    """Raised-cosine-weighted block matrices over a symmetric lag window.

    ``h_rho[k][n]`` couples each stream through its own aligned path,
    ``h_hat[k][n]`` through the same UE's other paths, and
    ``h_cross[(k, kp)][n]`` couples UE kp's streams into UE k.
    """

    window: int
    h_rho: tuple[np.ndarray, ...]   # per UE (2W+1, M_r, M_t * L_k)
    h_hat: tuple[np.ndarray, ...]   # per UE (2W+1, M_r, M_t * L_k)
    h_cross: dict                   # (k, kp) -> (2W+1, M_r, M_t * L_kp)

    @property
    def K(self) -> int:
        return len(self.h_rho)


def _blockize(gains: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Combine per-path gains (L, M_r, M_t) with weights (L, I, 2W+1) into
    lag-indexed block rows (2W+1, M_r, I * M_t)."""
    out = np.einsum("lrt,lin->nirt", gains, weights)
    n_lags, n_blocks, m_r, m_t = out.shape
    return out.transpose(0, 2, 1, 3).reshape(n_lags, m_r, n_blocks * m_t)


def assemble_bs_side(channels: ChannelSet, tables: dict) -> FractionalEffectiveChannels:
    """Build the aligned, cross-path and cross-UE block matrices per lag."""
    windows = {t.window for t in tables.values()}
    if len(windows) != 1:
        raise ValueError("all correlation tables must share one window")
    window = windows.pop()

    h_rho, h_hat = [], []
    h_cross = {}
    for k, ue in enumerate(channels.ues):
        gains = ue.gains
        tab = tables[(k, k)].values  # (L, L, 2W+1)
        diag_only = np.zeros_like(tab)
        idx = np.arange(ue.L)
        diag_only[idx, idx] = tab[idx, idx]
        h_rho.append(_blockize(gains, diag_only))
        h_hat.append(_blockize(gains, tab - diag_only))
        for kp, ue_p in enumerate(channels.ues):
            if kp != k:
                h_cross[(k, kp)] = _blockize(gains, tables[(k, kp)].values)
    return FractionalEffectiveChannels(
        window=window, h_rho=tuple(h_rho), h_hat=tuple(h_hat), h_cross=h_cross
    )


@dataclass(frozen=True)
class PowerTerms:
    desired: float
    isi_aligned: float   # own streams through their own paths, off-sample lags
    isi_cross: float     # own streams through the UE's other paths
    iui: float

    @property
    def interference(self) -> float:
        return self.isi_aligned + self.isi_cross + self.iui


def _lag_couplings(w: np.ndarray, h: np.ndarray, f: np.ndarray) -> np.ndarray:
    return (h @ f) @ w.conj()


def power_terms(
    F: FractionalEffectiveChannels, w_list, f_list
) -> list[PowerTerms]:
    """Decompose each UE's received power into desired/ISI/IUI components."""
    out = []
    center = F.window
    for k in range(F.K):
        a = _lag_couplings(w_list[k], F.h_rho[k], f_list[k])
        b = _lag_couplings(w_list[k], F.h_hat[k], f_list[k])
        desired = abs(a[center]) ** 2
        isi_aligned = float(np.sum(np.abs(a) ** 2) - desired)
        isi_cross = float(np.sum(np.abs(b) ** 2))
        iui = 0.0
        for kp in range(F.K):
            if kp != k:
                c = _lag_couplings(w_list[k], F.h_cross[(k, kp)], f_list[kp])
                iui += float(np.sum(np.abs(c) ** 2))
        out.append(
            PowerTerms(desired=float(desired), isi_aligned=isi_aligned,
                       isi_cross=isi_cross, iui=iui)
        )
    return out


def eigen_beamform_bs_side(
    F: FractionalEffectiveChannels, P: float, sigma2: float
) -> tuple[BeamformerSet, np.ndarray]:
    """Eigen-beamforming on the zero-lag aligned block of each UE."""
    if P <= 0.0 or sigma2 <= 0.0:
        raise ValueError("P and sigma2 must be positive")
    center = F.window
    v_list, w_list = [], []
    for k in range(F.K):
        u, v = _top_singular_pair(F.h_rho[k][center])
        v_list.append(v)
        w_list.append(u)
    frob = math.sqrt(sum(float(np.linalg.norm(v) ** 2) for v in v_list))
    f_list = [np.sqrt(P) * v / frob for v in v_list]

    terms = power_terms(F, w_list, f_list)
    sinrs = np.array(
        [
            t.desired / (t.interference + sigma2 * float(np.linalg.norm(w_list[k]) ** 2))
            for k, t in enumerate(terms)
        ]
    )
    return BeamformerSet(f_bar=f_list, w_bar=w_list, power=P), sinrs


# ---------------------------------------------------------------------------
# ISI zero-forcing with alternating MMSE updates
# ---------------------------------------------------------------------------


def _total_paths(channels: ChannelSet) -> int:
    return sum(ue.L for ue in channels.ues)


def zf_feasible(channels: ChannelSet) -> bool:
    return channels.M_t >= channels.M_r * (_total_paths(channels) - 1) + 1


def null_space_projection(channels: ChannelSet, k: int, l: int, tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis orthogonal to every path matrix except UE k's path l.

    A transmit vector drawn from this span is invisible to all other paths of
    all UEs, enforcing the zero-forcing conditions by construction.
    """
    L_tot = _total_paths(channels)
    if not zf_feasible(channels):
        raise InfeasibleError(
            "zero-forcing infeasible: requires M_t >= M_r * (L_tot - 1) + 1, "
            f"got M_t={channels.M_t}, M_r={channels.M_r}, L_tot={L_tot}"
        )
    rows = [
        path.gain
        for kp, ue in enumerate(channels.ues)
        for lp, path in enumerate(ue.paths)
        if (kp, lp) != (k, l)
    ]
    stacked = np.concatenate(rows, axis=0) if rows else np.zeros((0, channels.M_t))
    return null_space_basis(stacked, tol)


@dataclass(frozen=True)
class ProjectedPaths:
    """One UE's ISI-ZF channel in per-path form.

    UE k hears its stream at lag n as Y r[n], Y = [H_kl basis_kl b_l]_l and
    r[n] = (rho_ll[n])_l, so every lag sum reduces to r0 = r[0] and the
    L x L Gram matrix s of the other lags.
    """

    bases: tuple[np.ndarray, ...]   # per path null-space basis, (M_t, N_l)
    g: np.ndarray                   # [H_kl basis_kl]_l, (M_r, D) with D = sum N_l
    e: np.ndarray                   # (D, L) indicator of the path owning each coordinate
    r0: np.ndarray                  # (L,)
    s: np.ndarray                   # (L, L) sum over n != 0 of r[n] r[n]^T

    def outputs(self, b: np.ndarray) -> np.ndarray:
        """Y = [G_l b_l]_l, (M_r, L)."""
        return (self.g * b) @ self.e


@dataclass
class IsiZfState:
    """State of the alternating optimization over ZF-projected beamformers.

    ``converged`` is False only when the loop stopped at ``max_iter`` with the
    objective still rising by at least ``tol`` relative in the last step.
    """

    paths: list[ProjectedPaths]
    b_bar: list[np.ndarray]           # per UE reduced transmit vector
    w: list[np.ndarray]               # per UE receive vector (unit norm)
    trace: list[float]                # objective value per iteration
    iterations: int
    converged: bool

    def f_bar(self, channels: ChannelSet) -> list[np.ndarray]:
        """Full stacked transmit vectors f_kl = basis_kl @ b_kl."""
        out = []
        for p, b in zip(self.paths, self.b_bar):
            cuts = np.cumsum([basis.shape[1] for basis in p.bases])[:-1]
            out.append(np.concatenate([B @ b_l for B, b_l in zip(p.bases, np.split(b, cuts))]))
        return out

    def to_beamformer_set(self, channels: ChannelSet, P: float) -> BeamformerSet:
        return BeamformerSet(f_bar=self.f_bar(channels), w_bar=list(self.w), power=P)


def _solve(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    # the noise floor keeps these systems non-singular; guard anyway
    try:
        return np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.pinv(a) @ rhs


def _unit_or_first_axis(v: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(v)
    if norm == 0.0:
        v = np.zeros(v.size, dtype=complex)
        v[0] = 1.0
        return v
    return v / norm


def mmse_receive_update(paths, b_bar, sigma2: float) -> list[np.ndarray]:
    """SINR-optimal receive vectors for fixed transmit vectors."""
    out = []
    for p, b in zip(paths, b_bar):
        y = p.outputs(b)
        cov = y @ p.s @ y.conj().T + sigma2 * np.eye(y.shape[0])
        out.append(_unit_or_first_axis(_solve(cov, y @ p.r0)))
    return out


def mmse_transmit_update(paths, w_list, P: float, sigma2: float) -> list[np.ndarray]:
    """SINR-optimal reduced transmit vectors at fixed per-UE power P/K.

    With A = blkdiag(G_l^H w) the transmit covariance is A s A^H + reg I, so
    by the push-through identity b = A c, c = (reg I + s A^H A)^{-1} r0.
    """
    K = len(paths)
    out = []
    for p, w in zip(paths, w_list):
        a = p.g.conj().T @ w
        reg = sigma2 * (K / P) * float(np.linalg.norm(w) ** 2)
        c = _solve(reg * np.eye(p.s.shape[0]) + p.s * (np.abs(a) ** 2 @ p.e), p.r0)
        out.append(np.sqrt(P / K) * _unit_or_first_axis(a * (p.e @ c)))
    return out


def isi_zf_sinrs(paths, w_list, b_bar, sigma2: float) -> np.ndarray:
    """Per-UE SINR; with z = Y^H w the coupling at lag n is r[n]^T z."""
    sinrs = np.empty(len(paths))
    for k, (p, w, b) in enumerate(zip(paths, w_list, b_bar)):
        z = p.outputs(b).conj().T @ w
        desired = abs(p.r0 @ z) ** 2
        isi = float(np.vdot(z, p.s @ z).real)
        sinrs[k] = desired / (isi + sigma2 * float(np.linalg.norm(w) ** 2))
    return sinrs


def isi_zf_alternating(
    channels: ChannelSet,
    P: float,
    sigma2: float,
    T: float,
    beta: float,
    window: int,
    tol: float = 1e-6,
    max_iter: int = 200,
) -> tuple[IsiZfState, np.ndarray, float]:
    """Alternate MMSE receive/transmit updates on the ZF-projected channels.

    Starts from equal power split across each UE's reduced dimensions; stops
    when the relative sum-rate increase drops below ``tol`` or after
    ``max_iter`` iterations.  The objective trace is non-decreasing.
    """
    K = channels.K
    paths = []
    for k, ue in enumerate(channels.ues):
        bases = tuple(null_space_projection(channels, k, l) for l in range(ue.L))
        idx = np.arange(ue.L)
        r = build_rho_table(ue, ue, bs_side_kappa(ue), window, T, beta).values[idx, idx]
        off = np.delete(r, window, axis=1)
        paths.append(ProjectedPaths(
            bases=bases,
            g=np.concatenate([path.gain @ basis for path, basis in zip(ue.paths, bases)], axis=1),
            e=np.repeat(np.eye(ue.L), [basis.shape[1] for basis in bases], axis=0),
            r0=r[:, window],
            s=off @ off.T,
        ))
    b_bar = [np.sqrt(P / K / p.g.shape[1]) * np.ones(p.g.shape[1], dtype=complex) for p in paths]
    # matched-filter receive start keeps the initial state usable as-is
    w_list = [_unit_or_first_axis(p.outputs(b) @ p.r0) for p, b in zip(paths, b_bar)]

    def objective(w, b):
        return float(np.sum(np.log2(1.0 + isi_zf_sinrs(paths, w, b, sigma2))))

    trace = [objective(w_list, b_bar)]
    iterations = 0
    if math.isfinite(tol):
        for _ in range(max_iter):
            w_list = mmse_receive_update(paths, b_bar, sigma2)
            b_bar = mmse_transmit_update(paths, w_list, P, sigma2)
            obj = objective(w_list, b_bar)
            prev = trace[-1]
            trace.append(obj)
            iterations += 1
            if obj - prev < tol * max(abs(prev), 1e-300):
                break
    # cut off: stopped at max_iter while the last step still rose by >= tol
    converged = not (
        iterations >= max_iter
        and iterations > 0
        and trace[-1] - trace[-2] >= tol * max(abs(trace[-2]), 1e-300)
    )

    state = IsiZfState(
        paths=paths, b_bar=b_bar, w=w_list, trace=trace, iterations=iterations,
        converged=converged,
    )
    sinrs = isi_zf_sinrs(paths, w_list, b_bar, sigma2)
    return state, sinrs, float(np.sum(np.log2(1.0 + sinrs)))
