"""Effective channels, beamformers and SINRs for delay-aligned transmission.

Three pipelines share this module:

* double-side eigen-beamforming on integer delays, built from each pair's
  (branch, stream, path) lag indices;
* BS-side eigen-beamforming under fractional delays, built from the
  raised-cosine correlation tables;
* ISI-zero-forcing transmission with alternating MMSE updates of the
  receive and transmit vectors.

Each path gain is one matrix and the pulse couples paths only through a
scalar weight per lag, so no per-lag block matrix is built: every SINR is a
contraction of the scalar couplings w^H H_l f_i with lag indices or weights.
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
    "EffectiveChannelTensor",
    "BsSideChannels",
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
class EffectiveChannelTensor:
    """Per-UE path gains and, per (receiving, transmitting) UE pair, the lag
    q[r, i, l] at which branch r hears stream i through path l."""

    gains: tuple[np.ndarray, ...]  # per UE (L_k, M_r, M_t)
    lags: dict                     # (k, kprime) -> int array (R_k, I_kprime, L_k)
    plans: tuple[DelayPlan, ...]

    @property
    def K(self) -> int:
        return len(self.plans)

    def aligned_block(self, k: int) -> np.ndarray:
        """(M_r R_k, M_t I_k) block with H_kl at (r, i) wherever q[r, i, l] = 0."""
        gains, plan = self.gains[k], self.plans[k]
        _, m_r, m_t = gains.shape
        blk = np.zeros((plan.R, m_r, plan.I, m_t), dtype=complex)
        r, i, l = np.nonzero(self.lags[(k, k)] == 0)
        blk[r, :, i, :] = gains[l]
        return blk.reshape(plan.R * m_r, plan.I * m_t)


def assemble_effective_channels(
    channels: ChannelSet, plans: list[DelayPlan] | tuple[DelayPlan, ...]
) -> EffectiveChannelTensor:
    """Residual delay lag of every (branch, stream, path) product.

    For receiving UE k and transmitting UE k', path l heard on branch r from
    stream i arrives with lag q = n_kl + kappa_{k'i} + mu_{kr} - n_{k,max}
    relative to UE k's alignment target.
    """
    if len(plans) != channels.K:
        raise ValueError("one delay plan per UE")
    lags = {}
    for k, ue in enumerate(channels.ues):
        plan_k = plans[k]
        if plan_k.n_max != ue.n_max:
            raise ValueError(f"plan for UE {k} does not target its latest path")
        for kp, plan_kp in enumerate(plans):
            mu_kappa = np.add.outer(plan_k.mu, plan_kp.kappa)
            lags[(k, kp)] = np.add.outer(mu_kappa, ue.n_list) - plan_k.n_max
    return EffectiveChannelTensor(
        gains=tuple(ue.gains for ue in channels.ues), lags=lags, plans=tuple(plans)
    )


def _eigen_beamformers(blocks, P: float, sigma2: float) -> tuple[list, list]:
    """Top singular pair of each UE's aligned block; transmit vectors get P/K each."""
    if P <= 0.0 or sigma2 <= 0.0:
        raise ValueError("P and sigma2 must be positive")
    w_list, v_list = [], []
    for a in blocks:
        u, _, vh = np.linalg.svd(a, full_matrices=False)
        w_list.append(u[:, 0])
        v_list.append(vh[0].conj())
    frob = math.sqrt(sum(float(np.linalg.norm(v) ** 2) for v in v_list))
    return w_list, [np.sqrt(P) * v / frob for v in v_list]


def eigen_beamform_doubleside(
    tensor: EffectiveChannelTensor, P: float, sigma2: float
) -> tuple[BeamformerSet, np.ndarray]:
    """Top singular pair of each UE's aligned block as transmit/receive vectors.

    Transmit vectors share the budget equally (P/K each); the SINR counts all
    misaligned same-UE lags and every lag of the other UEs.  The coupling at
    lag q is the sum of the scalars w_r^H H_l f_i over the triples at lag q.
    """
    K = tensor.K
    w_list, f_list = _eigen_beamformers([tensor.aligned_block(k) for k in range(K)], P, sigma2)

    sinrs = np.empty(K)
    for k in range(K):
        gains = tensor.gains[k]
        wh = np.einsum("rm,lmt->rlt", w_list[k].reshape(-1, gains.shape[1]).conj(), gains)
        signal, interference = 0.0, 0.0
        for kp in range(K):
            z = np.einsum("rlt,it->ril", wh, f_list[kp].reshape(-1, gains.shape[2]))
            q, bins = np.unique(tensor.lags[(k, kp)], return_inverse=True)
            per_lag = np.zeros(q.size, dtype=complex)
            np.add.at(per_lag, bins.ravel(), z.ravel())
            power = np.abs(per_lag) ** 2
            if kp == k:
                signal = float(np.sum(power[q == 0]))
                power = power[q != 0]
            interference += float(np.sum(power))
        sinrs[k] = signal / (interference + sigma2 * float(np.linalg.norm(w_list[k]) ** 2))
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
class BsSideChannels:
    """Per-UE path gains, the correlation tables and each UE's aligned block.

    UE k hears stream i of UE kp through its path l at lag n with the scalar
    weight ``tables[(k, kp)].values[l, i, n]``; ``aligned[k]`` is
    [rho_ll[0] H_kl]_l, the zero-lag block of UE k's own streams.
    """

    window: int
    gains: tuple[np.ndarray, ...]    # per UE (L_k, M_r, M_t)
    tables: dict                     # (k, kp) -> RhoTable
    aligned: tuple[np.ndarray, ...]  # per UE (M_r, M_t * L_k)

    @property
    def K(self) -> int:
        return len(self.gains)


def assemble_bs_side(channels: ChannelSet, tables: dict) -> BsSideChannels:
    """Collect the gains and tables, and build each UE's zero-lag aligned block."""
    windows = {t.window for t in tables.values()}
    if len(windows) != 1:
        raise ValueError("all correlation tables must share one window")
    window = windows.pop()
    aligned = []
    for k, ue in enumerate(channels.ues):
        tab = tables[(k, k)].values
        aligned.append(np.concatenate(
            [tab[l, l, window] * path.gain for l, path in enumerate(ue.paths)], axis=1
        ))
    return BsSideChannels(
        window=window, gains=tuple(ue.gains for ue in channels.ues),
        tables=tables, aligned=tuple(aligned),
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


def power_terms(F: BsSideChannels, w_list, f_list) -> list[PowerTerms]:
    """Decompose each UE's received power into desired/ISI/IUI components.

    With z[l, i] = w_k^H H_kl f_kp,i the coupling at lag n is
    sum_{l,i} rho_li[n] z[l, i]: the diagonal (l = i) of UE k's own table
    carries the desired and aligned-ISI power, its off-diagonal the
    cross-path ISI, and the cross-UE tables the IUI.
    """
    out = []
    for k in range(F.K):
        gains = F.gains[k]
        wh = w_list[k].conj() @ gains  # (L_k, M_t)
        own = F.tables[(k, k)].values
        z = wh @ f_list[k].reshape(-1, gains.shape[2]).T  # (L_k, L_k)
        a = np.einsum("lln,ll->n", own, z)
        desired = abs(a[F.window]) ** 2
        isi_aligned = float(np.sum(np.abs(a) ** 2) - desired)
        np.fill_diagonal(z, 0.0)  # cross-path couplings only
        isi_cross = float(np.sum(np.abs(np.einsum("lin,li->n", own, z)) ** 2))
        iui = 0.0
        for kp in range(F.K):
            if kp != k:
                z = wh @ f_list[kp].reshape(-1, gains.shape[2]).T
                c = np.einsum("lin,li->n", F.tables[(k, kp)].values, z)
                iui += float(np.sum(np.abs(c) ** 2))
        out.append(
            PowerTerms(desired=float(desired), isi_aligned=isi_aligned,
                       isi_cross=isi_cross, iui=iui)
        )
    return out


def eigen_beamform_bs_side(
    F: BsSideChannels, P: float, sigma2: float
) -> tuple[BeamformerSet, np.ndarray]:
    """Eigen-beamforming on the zero-lag aligned block of each UE."""
    w_list, f_list = _eigen_beamformers(F.aligned, P, sigma2)

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
