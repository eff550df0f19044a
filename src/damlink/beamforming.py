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
from .numerics import null_space_basis
from .pulse import build_rho_table

__all__ = [
    "BeamformerSet",
    "EffectiveChannelTensor",
    "BsSideChannels",
    "PowerTerms",
    "PathGrams",
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


def zf_feasible(gains) -> bool:
    """Whether M_t >= M_r (L_tot - 1) + 1 for the per-UE gain stacks (L_k, M_r, M_t)."""
    _, M_r, M_t = gains[0].shape
    return M_t >= M_r * (sum(g.shape[0] for g in gains) - 1) + 1


def null_space_projection(gains, k: int, l: int) -> np.ndarray:
    """Orthonormal basis orthogonal to every path matrix except UE k's path l.

    ``gains`` holds each UE's stacked path gains (L_k, M_r, M_t).  A transmit
    vector drawn from this span is invisible to all other paths of all UEs,
    enforcing the zero-forcing conditions by construction.
    """
    _, M_r, M_t = gains[0].shape
    if not zf_feasible(gains):
        raise InfeasibleError(
            "zero-forcing infeasible: requires M_t >= M_r * (L_tot - 1) + 1, "
            f"got M_t={M_t}, M_r={M_r}, L_tot={sum(g.shape[0] for g in gains)}"
        )
    rows = [
        g[lp]
        for kp, g in enumerate(gains)
        for lp in range(g.shape[0])
        if (kp, lp) != (k, l)
    ]
    stacked = np.concatenate(rows, axis=0) if rows else np.zeros((0, M_t))
    return null_space_basis(stacked)


@dataclass(frozen=True)
class PathGrams:
    """Every UE's ISI-ZF channel in per-path Gram form, padded to L = max L_k.

    With B_kl the null-space basis of path l and G_kl = H_kl B_kl, the stream
    f_kl = B_kl b_kl reaches UE k's receiver as the output Y_kl = G_kl b_kl,
    and UE k hears its stream at lag n as Y_k r_k[n] with r_k[n] =
    (rho_ll[n])_l.  So every lag sum reduces to r0 = r[0] and the L x L Gram
    matrix s of the other lags.  The transmit update always picks b_kl along
    G_kl^H w_k, so the loop needs the bases only through the M_r x M_r Gram
    matrices gram[k, l] = G_kl G_kl^H.  A padded path has zero gram, r0 and s.
    """

    gram: np.ndarray   # (K, L, M_r, M_r)
    r0: np.ndarray     # (K, L)
    s: np.ndarray      # (K, L, L) sum over n != 0 of r[n] r[n]^T


@dataclass
class IsiZfState:
    """Result of the alternating optimization over ZF-projected beamformers.

    ``converged`` is False only when the loop stopped at ``max_iter`` with the
    objective still rising by at least ``tol`` relative in the last step.
    ``fallbacks`` counts the linear solves that took the ``pinv`` fallback.
    """

    grams: PathGrams
    w: list[np.ndarray]               # per UE receive vector (unit norm)
    f: list[np.ndarray]               # per UE stacked transmit vector [f_kl]_l
    trace: list[float]                # objective value per iteration
    iterations: int
    converged: bool
    fallbacks: int


def _solve(a: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, int]:
    """x[k] solving a[k] x[k] = rhs[k], and the number of systems solved by pinv."""
    # the noise floor keeps these systems non-singular; guard anyway
    try:
        return np.linalg.solve(a, rhs[..., None])[..., 0], 0
    except np.linalg.LinAlgError:
        pass
    x = np.empty(rhs.shape, dtype=np.result_type(a, rhs))
    fallbacks = 0
    for k in range(a.shape[0]):
        try:
            x[k] = np.linalg.solve(a[k], rhs[k])
        except np.linalg.LinAlgError:
            x[k] = np.linalg.pinv(a[k]) @ rhs[k]
            fallbacks += 1
    return x, fallbacks


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """Each row scaled to unit norm; a zero row becomes the first axis."""
    norm = np.sqrt((v * v.conj()).real.sum(axis=1))
    zero = norm == 0.0
    out = v / np.where(zero, 1.0, norm)[:, None]
    out[zero, 0] = 1.0
    return out


def mmse_receive_update(grams: PathGrams, y: np.ndarray, sigma2: float) -> tuple[np.ndarray, int]:
    """SINR-optimal unit receive vectors (K, M_r) for fixed outputs y (K, M_r, L).

    Also returns the number of solves that took the ``pinv`` fallback.
    """
    cov = y @ grams.s @ y.conj().swapaxes(1, 2)
    np.einsum("kii->ki", cov)[:] += sigma2
    x, fallbacks = _solve(cov, (y @ grams.r0[..., None])[..., 0])
    return _unit_rows(x), fallbacks


def mmse_transmit_update(
    grams: PathGrams, w: np.ndarray, P: float, sigma2: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """SINR-optimal transmit weights (K, L) at fixed per-UE power P/K.

    Path l of UE k sends b_kl = weights_kl G_kl^H w_k, that is f_kl =
    weights_kl B_kl B_kl^H H_kl^H w_k, and so produces the output Y_kl =
    weights_kl gram_kl w_k.  With n_l = w^H gram_l w = ||G_l^H w||^2 the
    push-through identity gives weights proportional to c, where
    (reg I + s diag(n)) c = r0.  Returns the weights, the outputs Y
    (K, M_r, L) and the number of solves that took the ``pinv`` fallback.
    """
    K = grams.r0.shape[0]
    gw = grams.gram @ w[:, None, :, None]  # (K, L, M_r, 1)
    n = (w.conj()[:, None, None, :] @ gw)[..., 0, 0].real
    a = grams.s * n[:, None, :]
    np.einsum("kii->ki", a)[:] += sigma2 * (K / P) * (w * w.conj()).real.sum(axis=1)[:, None]
    c, fallbacks = _solve(a, grams.r0)
    norm = np.sqrt((c * c * n).sum(axis=1))  # ||b_k||
    # a UE whose receive vector sees none of its paths transmits nothing
    weights = np.sqrt(P / K) * c / np.where(norm > 0.0, norm, np.inf)[:, None]
    return weights, (gw[..., 0] * weights[..., None]).swapaxes(1, 2), fallbacks


def isi_zf_sinrs(grams: PathGrams, w: np.ndarray, y: np.ndarray, sigma2: float) -> np.ndarray:
    """Per-UE SINR; with x = w^H Y the coupling at lag n is x r[n]."""
    x = w.conj()[:, None, :] @ y  # (K, 1, L)
    desired = np.abs(x @ grams.r0[..., None])[:, 0, 0] ** 2
    isi = (x @ grams.s @ x.conj().swapaxes(1, 2))[:, 0, 0].real
    return desired / (isi + sigma2 * (w * w.conj()).real.sum(axis=1))


def isi_zf_alternating(
    F: BsSideChannels,
    P: float,
    sigma2: float,
    tol: float = 1e-6,
    max_iter: int = 200,
) -> tuple[IsiZfState, np.ndarray, float]:
    """Alternate MMSE receive/transmit updates on the ZF-projected channels.

    Reads the path gains and each UE's own correlation table from the same
    BS-side assembly that eigen-beamforming uses.  Starts from equal power
    split across each UE's null-space coordinates; stops when the relative
    sum-rate increase drops below ``tol`` or after ``max_iter`` iterations.
    The objective trace is non-decreasing.  The bases enter only the start
    and the final transmit vectors; the loop runs on the path Grams of all
    UEs at once.
    """
    K, window = F.K, F.window
    M_r = F.gains[0].shape[1]
    L = max(g.shape[0] for g in F.gains)
    gram = np.zeros((K, L, M_r, M_r), dtype=complex)
    r0 = np.zeros((K, L))
    s = np.zeros((K, L, L))
    y = np.zeros((K, M_r, L), dtype=complex)
    f, projected = [], []  # per UE: start transmit vector and (B_kl, G_kl) pairs
    for k, gains in enumerate(F.gains):
        L_k = gains.shape[0]
        idx = np.arange(L_k)
        r = F.tables[(k, k)].values[idx, idx]
        off = np.delete(r, window, axis=1)
        r0[k, :L_k] = r[:, window]
        s[k, :L_k, :L_k] = off @ off.T
        pairs = []
        for l in range(L_k):
            basis = null_space_projection(F.gains, k, l)
            g = gains[l] @ basis
            gram[k, l] = g @ g.conj().T
            pairs.append((basis, g))
        # equal split: every null-space coordinate of the UE gets amp
        amp = np.sqrt(P / K / sum(basis.shape[1] for basis, _ in pairs))
        y[k, :, :L_k] = amp * np.stack([g.sum(axis=1) for _, g in pairs], axis=1)
        f.append(amp * np.concatenate([basis.sum(axis=1) for basis, _ in pairs]))
        projected.append(pairs)
    grams = PathGrams(gram=gram, r0=r0, s=s)

    # matched-filter receive start keeps the initial state usable as-is
    w = _unit_rows((y @ r0[..., None])[..., 0])
    sinrs = isi_zf_sinrs(grams, w, y, sigma2)
    trace = [float(np.sum(np.log2(1.0 + sinrs)))]
    iterations, fallbacks, weights = 0, 0, None
    if math.isfinite(tol):
        for _ in range(max_iter):
            w, rx_fallbacks = mmse_receive_update(grams, y, sigma2)
            weights, y, tx_fallbacks = mmse_transmit_update(grams, w, P, sigma2)
            fallbacks += rx_fallbacks + tx_fallbacks
            sinrs = isi_zf_sinrs(grams, w, y, sigma2)
            obj = float(np.sum(np.log2(1.0 + sinrs)))
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
    if weights is not None:
        f = [
            np.concatenate([c * (basis @ (g.conj().T @ w_k)) for (basis, g), c in zip(pairs, c_k)])
            for pairs, c_k, w_k in zip(projected, weights, w)
        ]

    state = IsiZfState(
        grams=grams, w=list(w), f=f, trace=trace, iterations=iterations,
        converged=converged, fallbacks=fallbacks,
    )
    return state, sinrs, trace[-1]
