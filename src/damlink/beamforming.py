"""Effective channels, beamformers and SINRs for delay-aligned transmission.

Every DAM delay design is a plan of ``delay_design.solve_compensation_delays``
and yields one assembly, ``DamChannels``: the path gains, a (2W+1)-lag scalar
weight for every (branch, path, stream) triple of every UE pair, a mask of
each UE's aligned triples and the pre-delays of its streams.  BS-side
single-side DAM is the I = L, R = 1 plan: one branch, and each path l
aligned through one stream, pre-delayed by n_max - n_l.  The assembly derives
every triple's integer lag once and hands the lags, with the fractional
delays in samples, to ``pulse.build_rho_table``.  On this assembly run:

* eigen-beamforming on each UE's aligned block, with one power split
  (desired / aligned ISI / cross-path ISI / IUI) for every plan;
* ISI-zero-forcing transmission on the BS-side assembly, sending the stream
  aligned through path l on that path alone, from a sphere-grid start
  polished by alternating MMSE updates of the receive and transmit vectors.

Each path gain is one matrix and the pulse couples paths only through a
scalar weight per lag, so no per-lag block matrix is built: every SINR is a
contraction of the scalar couplings w_r^H H_l f_i with the lag weights.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet
from .delay_design import InfeasibleError, solve_compensation_delays, triple_lags
from .numerics import null_space_basis, path_span, project_off_others
from .pulse import build_rho_table

__all__ = [
    "BeamformerSet",
    "DamChannels",
    "PowerTerms",
    "PathGrams",
    "IsiZfState",
    "assemble_effective_channels",
    "eigen_beamform_doubleside",
    "bs_side_rho_tables",
    "assemble_bs_side",
    "power_terms",
    "eigen_beamform_bs_side",
    "null_space_projection",
    "mmse_receive_update",
    "mmse_transmit_update",
    "isi_zf_alternating",
]


@dataclass
class BeamformerSet:
    """Stacked transmit and receive vectors of every UE under a shared power budget.

    Row k of ``f_bar`` is UE k's stacked per-stream transmit vector [f_ki]_i,
    and row k of ``w_bar`` its stacked per-branch receive vector.
    """

    f_bar: np.ndarray  # (K, I M_t)
    w_bar: np.ndarray  # (K, R M_r)


@dataclass(frozen=True)
class DamChannels:
    """Path gains and the scalar coupling of every (branch, path, stream) triple.

    Branch r of UE k hears stream i of UE k' through its path l at lag n - W
    with the weight ``tables[k, k', r, l, i, n]``.  ``aligned_mask[k, r, l, i]``
    marks UE k's aligned triples: its own streams that the delay design lines
    up at lag 0.  ``kappa[k, i]`` is the pre-delay of UE k's stream i that
    the assembly was built for.
    """

    gains: np.ndarray         # (K, L, M_r, M_t)
    tables: np.ndarray        # (K, K, R, L, I, 2W+1)
    aligned_mask: np.ndarray  # (K, R, L, I) bool
    kappa: np.ndarray         # (K, I) integer pre-delays of the streams

    @property
    def window(self) -> int:
        return (self.tables.shape[-1] - 1) // 2

    def aligned_blocks(self) -> np.ndarray:
        """(K, R M_r, I M_t) blocks with rho[0] H_kl at (r, i) for every aligned triple."""
        K, _, m_r, m_t = self.gains.shape
        _, R, _, I = self.aligned_mask.shape
        blk = np.zeros((K, R, m_r, I, m_t), dtype=complex)
        k, r, l, i = np.nonzero(self.aligned_mask)
        rho0 = self.tables[k, k, r, l, i, self.window]
        blk[k, r, :, i, :] = rho0[:, None, None] * self.gains[k, l]
        return blk.reshape(K, R * m_r, I * m_t)


def assemble_effective_channels(
    channels: ChannelSet, I: int, window: int, beta: float
) -> DamChannels:
    """Double-side assembly with I streams per UE, under UE k's plan
    ``solve_compensation_delays(n_k, I, L + 1 - I)``, so 1 <= I <= L; on
    fractional delays ``window`` must cover |q|, up to twice the delay span.
    UE k's own triples at lag q = 0 (``delay_design.triple_lags``) are aligned."""
    plans = [solve_compensation_delays(n, I, channels.L + 1 - I) for n in channels.n]
    kappa = np.array([p.kappa for p in plans])
    lags = triple_lags(channels.n, channels.n_max, kappa, [p.mu for p in plans])
    tables = build_rho_table(lags, channels.frac, window, beta)
    own = np.arange(channels.K)
    return DamChannels(channels.gains, tables, aligned_mask=lags[own, own] == 0, kappa=kappa)


def bs_side_rho_tables(channels: ChannelSet, window: int, beta: float) -> np.ndarray:
    """(K, K, 1, L, L, 2W+1) correlation tables under BS-side pre-delays (one branch)."""
    return assemble_bs_side(channels, window, beta).tables


def assemble_bs_side(channels: ChannelSet, window: int, beta: float) -> DamChannels:
    """BS-side assembly: the I = L, R = 1 double-side plan, one branch without
    post-delay and the stream aligned through path l pre-delayed by n_max - n_l."""
    return assemble_effective_channels(channels, channels.L, window, beta)


@dataclass(frozen=True)
class PowerTerms:
    """Each UE's received power split, as (K,) arrays."""

    desired: np.ndarray
    isi_aligned: np.ndarray  # aligned triples at off-sample lags
    isi_cross: np.ndarray    # own streams through every other triple
    iui: np.ndarray

    @property
    def interference(self) -> np.ndarray:
        return self.isi_aligned + self.isi_cross + self.iui


def power_terms(F: DamChannels, w: np.ndarray, f: np.ndarray) -> PowerTerms:
    """Decompose each UE's received power into desired/ISI/IUI components.

    With z[k, k', r, l, i] = w_kr^H H_kl f_k'i the coupling at lag n is
    sum_{r,l,i} tables[k, k', r, l, i, n] z[k, k', r, l, i]: UE k's aligned
    triples carry the desired and aligned-ISI power, its other own triples
    the cross-path ISI, and the other UEs' streams the IUI.
    """
    K, _, m_r, m_t = F.gains.shape
    _, R, _, I = F.aligned_mask.shape
    wh = np.einsum("krm,klmt->krlt", w.reshape(K, R, m_r).conj(), F.gains)
    z = np.einsum("krlt,jit->kjrli", wh, f.reshape(K, I, m_t))  # (K, K, R, L, I)
    own = np.arange(K)
    z_own, tables_own = z[own, own], F.tables[own, own]
    a = np.einsum("krlin,krli->kn", tables_own, z_own * F.aligned_mask)
    desired = np.abs(a[:, F.window]) ** 2
    isi_aligned = np.sum(np.abs(a) ** 2, axis=1) - desired
    cross = z_own * ~F.aligned_mask
    isi_cross = np.sum(np.abs(np.einsum("krlin,krli->kn", tables_own, cross)) ** 2, axis=1)
    z[own, own] = 0.0  # other UEs' streams only
    iui = np.sum(np.abs(np.einsum("kjrlin,kjrli->kjn", F.tables, z)) ** 2, axis=(1, 2))
    return PowerTerms(desired=desired, isi_aligned=isi_aligned, isi_cross=isi_cross, iui=iui)


def eigen_beamform_bs_side(
    F: DamChannels, P: float, sigma2: float
) -> tuple[BeamformerSet, np.ndarray]:
    """Eigen-beamforming on the aligned block of each UE, for every delay plan.

    The top singular pair of each UE's aligned block gives its transmit and
    receive vectors; transmit vectors share the budget equally (P/K each).
    The SINR counts every term of ``power_terms`` but the desired one.
    """
    if P <= 0.0 or sigma2 <= 0.0:
        raise ValueError("P and sigma2 must be positive")
    u, _, vh = np.linalg.svd(F.aligned_blocks(), full_matrices=False)
    w, v = u[:, :, 0], vh[:, 0].conj()
    f = np.sqrt(P) * v / np.linalg.norm(v)
    terms = power_terms(F, w, f)
    sinrs = terms.desired / (terms.interference + sigma2 * np.sum((w * w.conj()).real, axis=1))
    return BeamformerSet(f_bar=f, w_bar=w), sinrs


def eigen_beamform_doubleside(
    F: DamChannels, P: float, sigma2: float
) -> tuple[BeamformerSet, np.ndarray]:
    """Eigen-beamforming on a double-side assembly."""
    # kept as a name of its own: perfbench/tracing.py times double-side solves through it
    return eigen_beamform_bs_side(F, P, sigma2)


# ---------------------------------------------------------------------------
# ISI zero-forcing with alternating MMSE updates
# ---------------------------------------------------------------------------


# Receive vectors the ISI-ZF start is chosen from: a (theta, phi) grid of the
# phase-free unit sphere of C^2, and for M_r > 2 a fixed pseudo-random sample
# of the unit sphere of C^{M_r}.
SPHERE_GRID = (25, 48)
SPHERE_SAMPLES = 1200
SPHERE_SEED = 0
# Relative margin of the start's screen: it must exceed the screen's rounding
# error, which grows with the objective's conditioning (about 10x per 10 dB).
_SCREEN_TOL = 1e-6


def _require_zf_feasible(gains: np.ndarray) -> None:
    """Raise unless M_t >= M_r (K L - 1) + 1 for the path gains (K, L, M_r, M_t)."""
    K, L, M_r, M_t = gains.shape
    if M_t < M_r * (K * L - 1) + 1:
        raise InfeasibleError(
            "zero-forcing infeasible: requires M_t >= M_r * (L_tot - 1) + 1, "
            f"got M_t={M_t}, M_r={M_r}, L_tot={K * L}"
        )


def null_space_projection(gains: np.ndarray, k: int, l: int) -> np.ndarray:
    """Orthonormal basis orthogonal to every path matrix except UE k's path l.

    ``gains`` holds every UE's path gains (K, L, M_r, M_t).  A transmit
    vector drawn from this span is invisible to all other paths of all UEs,
    enforcing the zero-forcing conditions by construction.
    """
    _require_zf_feasible(gains)
    K, L, M_r, M_t = gains.shape
    others = np.delete(gains.reshape(K * L, M_r, M_t), k * L + l, axis=0)
    return null_space_basis(others.reshape(-1, M_t))


@dataclass(frozen=True)
class PathGrams:
    """Every UE's ISI-ZF channel in per-path Gram form.

    The stream aligned through path l of UE k (stream i_l) is sent in the
    complement of every other path's row space, P_kl = I - Q_o Q_o^H, so only
    path l carries it, and UE k hears its streams at lag n as Y_k r_k[n], with
    Y_kl path l's output and r_k[n] = (rho_{l i_l}[n])_l.  So every lag sum
    reduces to r0 = r[0] and the L x L Gram matrix s of the other lags.  The
    transmit update sends f_kl along P_kl H_kl^H w_k, so the loop sees the
    projector only through gram[k, l] = H_kl P_kl H_kl^H, and the SINR only
    through n_l = w^H gram_l w in ``_transmit_solve``.
    """

    gram: np.ndarray   # (K, L, M_r, M_r)
    r0: np.ndarray     # (K, L)
    s: np.ndarray      # (K, L, L) sum over n != 0 of r[n] r[n]^T


@dataclass
class IsiZfState:
    """Result of the alternating optimization over ZF-projected beamformers.

    ``converged`` is False only when the loop stopped at ``max_iter`` with
    the objective still rising by at least ``tol`` relative in the last step.
    ``fallbacks`` counts the linear solves that took the ``pinv`` fallback:
    the start's solves of the sphere points its screen keeps, the start's
    transmit update, and each iteration's receive and transmit solves, one
    per UE each.
    """

    grams: PathGrams
    w: np.ndarray                     # (K, M_r) unit receive vectors
    f: np.ndarray                     # (K, L M_t) stacked transmit vectors [f_ki]_i
    trace: list[float]                # sum rate of each iterate's _transmit_solve SINRs
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


def _transmit_solve(
    s: np.ndarray, r0: np.ndarray, n: np.ndarray, reg
) -> tuple[np.ndarray, np.ndarray, int]:
    """c solving (reg I + s diag(n)) c = r0 per row, and the SINR r0^T diag(n) c.

    Under ZF, weights on paths of gains n_l at power P/K give the SINR
    (x^T r0)^2 / x^T (s + reg diag(1/n)) x with x_l = weight_l n_l, largest at
    x = (s + reg diag(1/n))^-1 r0 = diag(n) c by the push-through identity
    diag(n) (reg I + s diag(n))^-1 = (s + reg diag(1/n))^-1.  So the best weights
    are proportional to c, and their SINR is r0^T diag(n) c, also where n_l = 0.
    ``reg`` broadcasts against (N, L).  Also returns the count of ``pinv`` fallbacks.
    """
    a = s * n[:, None, :]
    np.einsum("kii->ki", a)[:] += reg
    c, fallbacks = _solve(a, r0)
    return c, np.sum(r0 * n * c, axis=1), fallbacks


def mmse_transmit_update(
    grams: PathGrams, w: np.ndarray, P: float, sigma2: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """SINR-optimal transmit weights (K, L) at fixed per-UE power P/K.

    Path l of UE k sends f_kl = weights_kl P_kl H_kl^H w_k and so produces
    the output Y_kl = weights_kl gram_kl w_k.  With n_l = w^H gram_l w =
    ||P_l H_l^H w||^2 and reg = K sigma2 ||w||^2 / P the weights are c of
    ``_transmit_solve`` scaled to P/K.  Returns the weights, the outputs
    Y (K, M_r, L), the (K,) SINRs they give and the number of solves that
    took the ``pinv`` fallback.
    """
    K = grams.r0.shape[0]
    gw = grams.gram @ w[:, None, :, None]  # (K, L, M_r, 1)
    n = (w.conj()[:, None, None, :] @ gw)[..., 0, 0].real
    reg = sigma2 * (K / P) * (w * w.conj()).real.sum(axis=1)[:, None]
    c, sinrs, fallbacks = _transmit_solve(grams.s, grams.r0, n, reg)
    norm = np.sqrt((c * c * n).sum(axis=1))  # ||b_k||
    # a UE whose receive vector sees none of its paths transmits nothing
    weights = np.sqrt(P / K) * c / np.where(norm > 0.0, norm, np.inf)[:, None]
    return weights, (gw[..., 0] * weights[..., None]).swapaxes(1, 2), sinrs, fallbacks


@functools.cache
def _sphere_points(m_r: int) -> tuple[np.ndarray, np.ndarray]:
    """(G, M_r) unit receive vectors the ISI-ZF start is chosen from, and their
    (G, M_r^2) outer products w^* w^T (both read-only)."""
    if m_r == 1:
        points = np.ones((1, 1), dtype=complex)
    elif m_r == 2:
        # w = (cos(theta/2), e^{j phi} sin(theta/2)) covers every w up to a phase
        n_theta, n_phi = SPHERE_GRID
        half = np.linspace(0.0, np.pi, n_theta)[:, None] / 2
        phase = np.exp(2j * np.pi * np.arange(n_phi) / n_phi)
        first, second = np.broadcast_arrays(np.cos(half), phase * np.sin(half))
        points = np.stack([first, second], axis=-1).reshape(-1, 2)
    else:
        rng = np.random.default_rng(SPHERE_SEED)
        z = rng.standard_normal((SPHERE_SAMPLES, m_r, 2)) @ np.array([1.0, 1j])
        points = z / np.linalg.norm(z, axis=1, keepdims=True)
    outer = (points.conj()[:, :, None] * points[:, None, :]).reshape(len(points), -1)
    points.flags.writeable = outer.flags.writeable = False
    return points, outer


def _screen_values(grams: PathGrams, n: np.ndarray, reg: float) -> np.ndarray:
    """(K, G) start objective y^T B^-1 y for the path gains n (K, G, L) of every point.

    With y = sqrt(n) r0 and the SPD B = reg I + diag(sqrt(n)) s diag(sqrt(n)),
    one elementwise Cholesky factor and forward solve, a (K, G) array per
    entry, serve every point at once.  A pivot that rounding leaves
    non-positive makes the value non-finite.
    """
    L = n.shape[2]
    root = np.sqrt(np.maximum(n, 0.0).transpose(2, 0, 1))  # (L, K, G)
    chol, z, value = {}, [], 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        for i in range(L):
            for j in range(i + 1):
                v = grams.s[:, i, j, None] * root[i] * root[j] + (reg if i == j else 0.0)
                for p in range(j):
                    v = v - chol[i, p] * chol[j, p]
                chol[i, j] = np.sqrt(v) if i == j else v / chol[j, j]
            zi = root[i] * grams.r0[:, i, None]
            for p in range(i):
                zi = zi - chol[i, p] * z[p]
            z.append(zi / chol[i, i])
            value = value + z[i] * z[i]
    return value


def _grid_start(grams: PathGrams, P: float, sigma2: float) -> tuple[np.ndarray, int]:
    """Each UE's best sphere point w under the transmit weights optimal for it.

    Under ZF a UE hears no other UE, so for a unit w its SINR with the best
    transmit weights is that of ``_transmit_solve`` at n_l = w^H gram_l w and
    reg = K sigma2 / P.  ``_screen_values`` evaluates it on every point; the
    points within ``_SCREEN_TOL`` (relative) of their UE's best, and any
    whose value is not finite, go through ``_transmit_solve``, and the first
    best of those is the start: the point that solving every one would pick,
    to the bit.  Returns the (K, M_r) start and the number of those
    solves that took the ``pinv`` fallback.
    """
    K, L = grams.r0.shape
    points, outer = _sphere_points(grams.gram.shape[-1])  # (G, M_r), (G, M_r^2)
    G = points.shape[0]
    n = (outer @ grams.gram.reshape(K * L, -1).T).real.reshape(G, K, L).swapaxes(0, 1)
    reg = sigma2 * K / P
    fast = _screen_values(grams, n, reg)
    ok = np.isfinite(fast)
    best = np.max(fast, axis=1, initial=0.0, where=ok)
    k, g = np.nonzero(~ok | (fast >= (1.0 - _SCREEN_TOL) * best[:, None]))
    sinrs = np.full((K, G), -np.inf)
    _, sinrs[k, g], fallbacks = _transmit_solve(grams.s[k], grams.r0[k], n[k, g], reg)
    return points[np.argmax(sinrs, axis=1)], fallbacks


def isi_zf_alternating(
    F: DamChannels,
    P: float,
    sigma2: float,
    tol: float = 1e-6,
    max_iter: int = 200,
) -> tuple[IsiZfState, np.ndarray]:
    """ISI-ZF beamforming: a sphere-grid start polished by alternating MMSE updates.

    Reads the path gains, and for each path l of UE k the correlation of the
    stream aligned through it (``aligned_mask[k, 0, l]``) on its one branch,
    from the same BS-side assembly that eigen-beamforming uses; an assembly
    with more than one branch raises ``ValueError``.  The stream aligned
    through path l is sent in the complement of every other path's row
    space (projector P_kl = I - Q_o Q_o^H, from
    ``numerics.project_off_others`` on the path rows in their span
    ``numerics.path_span``), so no null-space basis is built and the result
    does not depend on one.  For each UE the start is the receive vector on
    a fixed sample of the unit sphere (``SPHERE_GRID`` at M_r = 2,
    ``SPHERE_SAMPLES`` points at M_r > 2, w = 1 at M_r = 1) with the largest
    ``_transmit_solve`` SINR, followed by one transmit update; ``max_iter=0``
    returns that start.  The receive/transmit updates then run on the path
    Grams of all UEs at once until the relative sum-rate increase drops
    below ``tol`` or after ``max_iter`` iterations; the trace and the
    returned SINRs are those of the transmit updates, and the trace is
    non-decreasing.  The final transmit vector of the stream aligned through
    path l is c_l P_kl H_kl^H w_k, and ``state.f`` stacks them in the
    assembly's stream order, like ``BeamformerSet.f_bar``.
    """
    if F.aligned_mask.shape[1] != 1:
        raise ValueError("ISI-ZF needs a single-branch (I = L, R = 1) assembly")
    _require_zf_feasible(F.gains)
    K, L, M_r, M_t = F.gains.shape
    own = np.arange(K)[:, None]
    stream = np.argmax(F.aligned_mask[:, 0], axis=2)  # (K, L) stream aligned through path l
    r = F.tables[own, own, 0, np.arange(L), stream]   # (K, L, 2W+1)
    off = np.delete(r, F.window, axis=2)
    q, rows = path_span(F.gains)                  # H_kl = rows Q^H
    # H_kl P_kl = projected Q^H, every path off every other path of every UE
    projected = project_off_others(rows.reshape(K * L, M_r, -1)).reshape(rows.shape)
    grams = PathGrams(
        gram=projected @ projected.conj().swapaxes(2, 3),
        r0=r[..., F.window],
        s=off @ off.swapaxes(1, 2),
    )
    w, fallbacks = _grid_start(grams, P, sigma2)
    weights, y, sinrs, start_fallbacks = mmse_transmit_update(grams, w, P, sigma2)
    fallbacks += start_fallbacks
    trace = [float(np.sum(np.log2(1.0 + sinrs)))]
    for _ in range(max_iter):
        w, rx_fallbacks = mmse_receive_update(grams, y, sigma2)
        weights, y, sinrs, tx_fallbacks = mmse_transmit_update(grams, w, P, sigma2)
        fallbacks += rx_fallbacks + tx_fallbacks
        obj = float(np.sum(np.log2(1.0 + sinrs)))
        prev = trace[-1]
        trace.append(obj)
        if obj - prev < tol * max(abs(prev), 1e-300):
            converged = True
            break
    else:
        # cut off at max_iter while every step still rose by >= tol
        converged = max_iter == 0
    f = np.empty((K, L, M_t), dtype=complex)
    f[own, stream] = weights[..., None] * (np.einsum("klmr,km->klr", projected.conj(), w) @ q.T)

    state = IsiZfState(
        grams=grams, w=w, f=f.reshape(K, L * M_t), trace=trace, iterations=len(trace) - 1,
        converged=converged, fallbacks=fallbacks,
    )
    return state, sinrs
