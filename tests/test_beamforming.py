"""Tests for effective channels, eigen-beamforming and ISI zero-forcing."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import aligned_stream, by_path, make_channel_set, random_delay_channel_set
from damlink import beamforming
from damlink.beamforming import (
    SPHERE_GRID,
    DamChannels,
    assemble_bs_side,
    assemble_effective_channels,
    eigen_beamform_bs_side,
    eigen_beamform_doubleside,
    isi_zf_alternating,
    mmse_receive_update,
    mmse_transmit_update,
    null_space_projection,
    power_terms,
)
from damlink.channel import ChannelSet, SimConfig, generate_channel_set
from damlink.delay_design import InfeasibleError, solve_compensation_delays, triple_lags
from damlink.experiments import DEFAULT_POWER_GRID, trial_seed
from damlink.pulse import build_rho_table
from oracles import enumerate_alignment_sets, lag_stacked_channels, oracle_isi_zf, stacked_sinrs

BETA = 0.25
SIGMA2 = 1e-3
WINDOW = 64  # covers every lag |q| <= 2 * 30 of the default random delays


def _plans(channels, I):
    """The per-UE delay plans the I-stream double-side assembly solves, for the oracles."""
    return [solve_compensation_delays(n, I, channels.L + 1 - I) for n in channels.n]


def _count_placements(block, m_r, m_t):
    rows = block.shape[0] // m_r
    cols = block.shape[1] // m_t
    count = 0
    for r in range(rows):
        for i in range(cols):
            if np.any(block[r * m_r : (r + 1) * m_r, i * m_t : (i + 1) * m_t]):
                count += 1
    return count


def _literal_doubleside_sinr(channels, plans, f_list, w_list, sigma2, k):
    """Direct triple-sum evaluation of the grouped-lag SINR."""
    m_r, m_t = channels.M_r, channels.M_t
    pk = plans[k]

    def couplings(kp):
        pkp = plans[kp]
        acc = {}
        for r in range(pk.R):
            w_r = w_list[k][r * m_r : (r + 1) * m_r]
            for i in range(pkp.I):
                f_i = f_list[kp][i * m_t : (i + 1) * m_t]
                for n, gain in zip(channels.n[k], channels.gains[k]):
                    q = n + pkp.kappa[i] + pk.mu[r] - pk.n_max
                    acc[q] = acc.get(q, 0.0) + w_r.conj() @ gain @ f_i
        return acc

    own = couplings(k)
    signal = abs(own.get(0, 0.0)) ** 2
    interference = sum(abs(v) ** 2 for q, v in own.items() if q != 0)
    for kp in range(channels.K):
        if kp != k:
            interference += sum(abs(v) ** 2 for v in couplings(kp).values())
    return signal / (interference + sigma2 * np.linalg.norm(w_list[k]) ** 2)


def _table_lags(F):
    """(K, K, R, L, I) lag of each triple's 0/1 table, checking it holds one 1."""
    assert set(np.unique(F.tables)) <= {0.0, 1.0}
    assert np.all(F.tables.sum(axis=-1) == 1.0)
    return np.argmax(F.tables, axis=-1) - F.window


class TestAssembleEffectiveChannels:
    def test_single_path_single_ue(self):
        rng = np.random.default_rng(0)
        cs = make_channel_set(rng, 2, 4, [[5]])
        F = assemble_effective_channels(cs, 1, WINDOW, BETA)
        assert set(np.unique(_table_lags(F)[0, 0])) == {0}
        assert np.all(F.aligned_mask)
        assert np.array_equal(F.aligned_blocks()[0], cs.gains[0, 0])

    def test_reference_plan_has_five_zero_lag_placements(self):
        rng = np.random.default_rng(1)
        cs = make_channel_set(rng, 2, 3, [[1, 3, 4, 5]])
        F = assemble_effective_channels(cs, 2, WINDOW, BETA)  # plan (I, R) = (2, 3)
        block0 = F.aligned_blocks()[0]
        assert _count_placements(block0, 2, 3) == 5
        assert np.count_nonzero(F.aligned_mask[0]) == 5

    def test_total_placements(self):
        rng = np.random.default_rng(2)
        cs = random_delay_channel_set(rng, 2, 4, K=2, L=4, fractional=False)
        plans = _plans(cs, 2)
        F = assemble_effective_channels(cs, 2, WINDOW, BETA)
        lags = _table_lags(F)
        assert lags.shape == (cs.K, cs.K, 3, cs.L, 2)
        assert F.window == np.max(np.abs(lags))
        for k in range(cs.K):
            for kp in range(cs.K):
                for r, mu in enumerate(plans[k].mu):
                    for i, kappa in enumerate(plans[kp].kappa):
                        for l, n in enumerate(cs.n[k]):
                            q = n + kappa + mu - plans[k].n_max
                            assert lags[k, kp, r, l, i] == q
                            if kp == k:
                                assert F.aligned_mask[k, r, l, i] == (q == 0)

    def test_alignment_sets_list_the_aligned_mask(self):
        # (i, r, l) triples of one reader against the (K, R, L, I) mask of the other
        rng = np.random.default_rng(41)
        for L in range(1, 6):
            for I in range(max(1, L - 2), L + 1):  # R = L + 1 - I up to 3
                for _ in range(10):
                    K = int(rng.integers(2, 4))
                    cs = random_delay_channel_set(rng, 1, 2, K=K, L=L, fractional=False)
                    plans = _plans(cs, I)
                    F = assemble_effective_channels(cs, I, WINDOW, BETA)
                    for k in range(K):
                        desired = enumerate_alignment_sets(plans[k], cs.n[k]).desired
                        r, l, i = np.nonzero(F.aligned_mask[k])
                        expected = sorted(zip((i + 1).tolist(), (r + 1).tolist(), (l + 1).tolist()))
                        assert list(desired) == expected
                        assert all(type(v) is int for triple in desired for v in triple)

    def test_self_pair_min_lag(self):
        rng = np.random.default_rng(3)
        cs = random_delay_channel_set(rng, 2, 4, K=2, L=3, fractional=False)
        lags = _table_lags(assemble_effective_channels(cs, 2, WINDOW, BETA))
        for k in range(cs.K):
            assert lags[k, k].min() == cs.n[k, 0] - cs.n_max[k]

    def test_kappa_is_the_plan(self):
        rng = np.random.default_rng(42)
        cs = random_delay_channel_set(rng, 2, 4, K=3, L=4)
        for I in range(1, cs.L + 1):
            F = assemble_effective_channels(cs, I, WINDOW, BETA)
            assert F.kappa.shape == (cs.K, I)
            for k, plan in enumerate(_plans(cs, I)):
                assert F.kappa[k].tolist() == list(plan.kappa)
        # I = L: one branch, and each path aligned through exactly one stream
        mask = F.aligned_mask
        assert mask.shape == (cs.K, 1, cs.L, cs.L)
        for k in range(cs.K):
            assert np.array_equal(mask[k, 0].sum(axis=0), np.ones(cs.L))
            assert np.array_equal(mask[k, 0].sum(axis=1), np.ones(cs.L))

    def test_bs_side_is_the_full_stream_plan(self):
        rng = np.random.default_rng(43)
        for fractional in (False, True):
            cs = random_delay_channel_set(rng, 2, 4, K=2, L=3, fractional=fractional)
            bs = assemble_bs_side(cs, WINDOW, BETA)
            full = assemble_effective_channels(cs, cs.L, WINDOW, BETA)
            for field in dataclasses.fields(bs):
                assert np.array_equal(getattr(bs, field.name), getattr(full, field.name))

    @pytest.mark.parametrize("I", [0, 4])
    def test_stream_count_must_fit_the_paths(self, I):
        # 1 <= I <= L, so that R = L + 1 - I >= 1 branch
        rng = np.random.default_rng(3)
        cs = random_delay_channel_set(rng, 2, 4, K=2, L=3, fractional=False)
        with pytest.raises(ValueError, match="need I \\+ R - 1 = L"):
            assemble_effective_channels(cs, I, WINDOW, BETA)

    def test_fractional_delays_take_the_rho_tables(self):
        # the reference config's fractional draw has |frac| up to 0.44 samples
        cfg = SimConfig()
        cs = generate_channel_set(cfg, 5)
        assert np.any(cs.frac != 0.0)
        plans = _plans(cs, 2)
        lags = triple_lags(cs.n, cs.n_max, [p.kappa for p in plans], [p.mu for p in plans])
        F = assemble_effective_channels(cs, 2, cfg.rho_window, cfg.beta)
        assert np.array_equal(F.tables, build_rho_table(lags, cs.frac, cfg.rho_window, cfg.beta))
        integer = dataclasses.replace(cs, frac=0.0 * cs.frac)
        for G in (F, assemble_effective_channels(integer, 2, cfg.rho_window, cfg.beta)):
            _, sinrs = eigen_beamform_doubleside(G, 1.0, SIGMA2)
            assert np.all(np.isfinite(sinrs)) and np.all(sinrs > 0.0)

    @pytest.mark.parametrize("I", [1, 2, 3])
    def test_default_window_covers_fractional_double_side_lags(self, I):
        # lags reach 2 * delay_span_samples, past the 120 samples SimConfig once allowed
        cfg = SimConfig()
        widest = 0
        for s in range(20):
            cs = generate_channel_set(cfg, s)
            F = assemble_effective_channels(cs, I, cfg.rho_window, cfg.beta)
            assert F.window == cfg.rho_window
            plans = _plans(cs, I)
            lags = triple_lags(cs.n, cs.n_max, [p.kappa for p in plans], [p.mu for p in plans])
            widest = max(widest, int(np.max(np.abs(lags))))
        assert widest <= 2 * cfg.delay_span_samples
        if I == 2:
            assert widest > 120  # draw 13 reaches 122


class TestEigenBeamformDoubleside:
    def test_interference_free_closed_form(self):
        rng = np.random.default_rng(4)
        cs = make_channel_set(rng, 2, 4, [[3]])
        F = assemble_effective_channels(cs, 1, WINDOW, BETA)
        P = 2.0
        bf, sinrs = eigen_beamform_doubleside(F, P, SIGMA2)
        smax = np.linalg.svd(cs.gains[0, 0], compute_uv=False)[0]
        assert sinrs[0] == pytest.approx(P * smax**2 / SIGMA2, rel=1e-10)

    def test_zero_channel_gives_zero_sinr(self):
        rng = np.random.default_rng(5)
        cs = make_channel_set(rng, 2, 4, [[3]], scale=0.0)
        F = assemble_effective_channels(cs, 1, WINDOW, BETA)
        _, sinrs = eigen_beamform_doubleside(F, 1.0, SIGMA2)
        assert sinrs[0] == 0.0

    def test_matches_literal_formula_oracle(self):
        rng = np.random.default_rng(6)
        for trial in range(5):
            cs = random_delay_channel_set(rng, 2, 5, K=2, L=3, fractional=False)
            I = int(rng.integers(1, cs.L + 1))
            plans = _plans(cs, I)
            F = assemble_effective_channels(cs, I, WINDOW, BETA)
            bf, sinrs = eigen_beamform_doubleside(F, 1.5, SIGMA2)
            for k in range(cs.K):
                oracle = _literal_doubleside_sinr(cs, plans, bf.f_bar, bf.w_bar, SIGMA2, k)
                assert sinrs[k] == pytest.approx(oracle, rel=1e-9)

    def test_power_budget_binds(self):
        rng = np.random.default_rng(7)
        cs = random_delay_channel_set(rng, 2, 4, K=3, L=2, fractional=False)
        F = assemble_effective_channels(cs, 1, WINDOW, BETA)
        bf, _ = eigen_beamform_doubleside(F, 3.0, SIGMA2)
        assert np.linalg.norm(bf.f_bar) ** 2 == pytest.approx(3.0, rel=1e-9)
        for w in bf.w_bar:
            assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)

    def test_sinr_scale_covariance(self):
        rng = np.random.default_rng(8)
        cs = random_delay_channel_set(rng, 2, 4, K=2, L=3, fractional=False)
        c = 3.7
        scaled = dataclasses.replace(cs, gains=c * cs.gains)
        t1 = assemble_effective_channels(cs, 2, WINDOW, BETA)
        t2 = assemble_effective_channels(scaled, 2, WINDOW, BETA)
        _, s1 = eigen_beamform_doubleside(t1, 1.0, SIGMA2)
        _, s2 = eigen_beamform_doubleside(t2, 1.0, SIGMA2 * c**2)
        assert np.allclose(s1, s2, rtol=1e-12)


def _lag_blocks(gains, weights):
    """Literal per-lag block rows (2W+1, M_r, I * M_t) from gains (L, M_r, M_t)
    and weights (L, I, 2W+1): block i at lag n is sum_l weights[l, i, n] H_l."""
    out = np.einsum("lrt,lin->nirt", gains, weights)
    n_lags, n_blocks, m_r, m_t = out.shape
    return out.transpose(0, 2, 1, 3).reshape(n_lags, m_r, n_blocks * m_t)


def _own_lag_blocks(F, k):
    """(aligned, cross-path) per-lag blocks of UE k's own streams on branch 0,
    split by the (path, stream) pairs of ``aligned_mask[k, 0]``."""
    tab = F.tables[k, k, 0]
    aligned_only = np.where(F.aligned_mask[k, 0][..., None], tab, 0.0)
    return _lag_blocks(F.gains[k], aligned_only), _lag_blocks(F.gains[k], tab - aligned_only)


class TestBsSideAssembly:
    def test_integer_delays_collapse_to_zero_lag(self):
        rng = np.random.default_rng(9)
        cs = make_channel_set(rng, 2, 4, [[1, 4, 7]])
        F = assemble_bs_side(cs, 20, BETA)
        center = F.window
        paths = np.argsort(aligned_stream(F)[0])  # the path each stream is aligned through
        expected = np.concatenate(list(cs.gains[0, paths]), axis=1)
        h_rho, h_hat = _own_lag_blocks(F, 0)
        assert np.array_equal(F.aligned_blocks()[0], expected)
        assert np.array_equal(h_rho[center], expected)
        off = np.delete(h_rho, center, axis=0)
        assert not np.any(off)
        assert not np.any(h_hat[center])

    def test_negating_fractions_time_reverses_aligned_blocks(self):
        rng = np.random.default_rng(10)
        delays = [[2, 5, 9]]
        fracs = [[0.21, -0.37, 0.44]]
        cs_plus = make_channel_set(rng, 2, 3, delays, fracs)
        # identical gains with negated fractional delays
        cs_minus = dataclasses.replace(cs_plus, frac=-cs_plus.frac)
        Fp = assemble_bs_side(cs_plus, 25, BETA)
        Fm = assemble_bs_side(cs_minus, 25, BETA)
        h_rho_p, _ = _own_lag_blocks(Fp, 0)
        h_rho_m, _ = _own_lag_blocks(Fm, 0)
        assert np.allclose(h_rho_m, h_rho_p[::-1], atol=1e-12)
        assert np.allclose(Fm.aligned_blocks()[0], h_rho_m[Fm.window], atol=1e-12)


class TestPowerTerms:
    def test_integer_delays_kill_aligned_isi(self):
        rng = np.random.default_rng(11)
        cs = random_delay_channel_set(rng, 2, 6, K=2, L=3, fractional=False)
        F = assemble_bs_side(cs, 40, BETA)
        bf, _ = eigen_beamform_bs_side(F, 1.0, SIGMA2)
        assert np.all(power_terms(F, bf.w_bar, bf.f_bar).isi_aligned == 0.0)

    def test_single_ue_single_path_has_no_cross_terms(self):
        rng = np.random.default_rng(12)
        cs = make_channel_set(rng, 2, 4, [[3]], [[0.3]])
        F = assemble_bs_side(cs, 20, BETA)
        bf, _ = eigen_beamform_bs_side(F, 1.0, SIGMA2)
        t = power_terms(F, bf.w_bar, bf.f_bar)
        assert t.isi_cross[0] == 0.0
        assert t.iui[0] == 0.0
        assert t.desired[0] > 0.0

    @pytest.mark.parametrize(
        "m_r,m_t,delays,full_rank",
        [
            (2, 6, [[2, 7, 11], [1, 5, 13]], False),
            (1, 5, [[0, 4, 6], [3, 6, 8], [1, 5, 9]], False),
            (3, 4, [[1, 2, 6, 10], [0, 3, 5, 7]], True),
        ],
    )
    def test_matches_lag_stacked_blocks(self, m_r, m_t, delays, full_rank):
        # the per-lag block-matrix form: every lag's coupling is w^H (B[n] f)
        rng = np.random.default_rng(m_t)
        fracs = [rng.uniform(-0.5, 0.5, len(d)).tolist() for d in delays]
        cs = make_channel_set(rng, m_r, m_t, delays, fracs, full_rank=full_rank)
        F = assemble_bs_side(cs, 30, BETA)
        w_list = rng.standard_normal((cs.K, m_r)) + 1j * rng.standard_normal((cs.K, m_r))
        shape = (cs.K, m_t * cs.L)
        f_list = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        terms = power_terms(F, w_list, f_list)
        for k in range(cs.K):
            h_rho, h_hat = _own_lag_blocks(F, k)
            a = (h_rho @ f_list[k]) @ w_list[k].conj()
            b = (h_hat @ f_list[k]) @ w_list[k].conj()
            iui = sum(
                np.sum(np.abs(
                    (_lag_blocks(F.gains[k], F.tables[k, kp, 0]) @ f_list[kp])
                    @ w_list[k].conj()
                ) ** 2)
                for kp in range(cs.K) if kp != k
            )
            assert terms.desired[k] == pytest.approx(abs(a[F.window]) ** 2, rel=1e-12)
            assert terms.isi_aligned[k] == pytest.approx(
                np.sum(np.abs(np.delete(a, F.window)) ** 2), rel=1e-10
            )
            assert terms.isi_cross[k] == pytest.approx(np.sum(np.abs(b) ** 2), rel=1e-12)
            assert terms.iui[k] == pytest.approx(iui, rel=1e-12)

    def test_reference_config_memory_peak(self):
        # the per-lag block stacks this replaces peaked at 34.5 MB here
        cfg = SimConfig()
        cs = generate_channel_set(cfg, 0)
        F = assemble_bs_side(cs, cfg.rho_window, cfg.beta)
        tracemalloc.start()
        try:
            eigen_beamform_bs_side(F, cfg.p_watts(), cfg.sigma2_watts())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestEigenBeamformBsSide:
    def test_closed_form_single_path(self):
        rng = np.random.default_rng(13)
        cs = make_channel_set(rng, 2, 4, [[3]])
        F = assemble_bs_side(cs, 20, BETA)
        P = 1.7
        _, sinrs = eigen_beamform_bs_side(F, P, SIGMA2)
        smax = np.linalg.svd(cs.gains[0, 0], compute_uv=False)[0]
        assert sinrs[0] == pytest.approx(P * smax**2 / SIGMA2, rel=1e-10)

    def test_sinr_invariant_under_receive_phase(self):
        rng = np.random.default_rng(14)
        cs = random_delay_channel_set(rng, 2, 5, K=2, L=3)
        F = assemble_bs_side(cs, 40, BETA)
        bf, sinrs = eigen_beamform_bs_side(F, 1.0, SIGMA2)
        rotated = np.exp(1j * rng.uniform(0, 2 * np.pi, (cs.K, 1))) * bf.w_bar
        terms = power_terms(F, rotated, bf.f_bar)
        again = terms.desired / (terms.interference + SIGMA2 * np.linalg.norm(rotated, axis=1) ** 2)
        assert np.allclose(again, sinrs, rtol=1e-12)

    def test_dominates_random_beamformers(self):
        rng = np.random.default_rng(15)
        cs = random_delay_channel_set(rng, 2, 16, K=1, L=3)
        F = assemble_bs_side(cs, 40, BETA)
        P = 1.0
        _, sinrs = eigen_beamform_bs_side(F, P, SIGMA2)
        dim = 16 * 3
        for _ in range(100):
            f = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            f *= np.sqrt(P) / np.linalg.norm(f)
            w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            w /= np.linalg.norm(w)
            t = power_terms(F, w[None], f[None])
            rnd = t.desired[0] / (t.interference[0] + SIGMA2)
            assert rnd <= sinrs[0]


class TestNullSpaceProjection:
    def test_generic_dimension(self):
        rng = np.random.default_rng(16)
        cs = random_delay_channel_set(rng, 1, 8, K=2, L=2, fractional=False)
        basis = null_space_projection(cs.gains, 0, 0)
        assert basis.shape == (8, 5)

    def test_boundary_dimension(self):
        rng = np.random.default_rng(17)
        # M_t = M_r * (L_tot - 1) + 1 exactly; full-rank paths make the
        # stacked interference matrix generically full row rank
        cs = random_delay_channel_set(rng, 2, 11, K=2, L=3, fractional=False, full_rank=True)
        basis = null_space_projection(cs.gains, 1, 2)
        assert basis.shape == (11, 1)

    def test_kernel_membership(self):
        rng = np.random.default_rng(18)
        cs = random_delay_channel_set(rng, 2, 16, K=2, L=3, fractional=False)
        basis = null_space_projection(cs.gains, 0, 1)
        for kp, lp in np.ndindex(cs.K, cs.L):
            if (kp, lp) != (0, 1):
                gain = cs.gains[kp, lp]
                assert np.linalg.norm(gain @ basis) <= 1e-10 * np.linalg.norm(gain)

    def test_infeasible_dimensions_raise(self):
        rng = np.random.default_rng(19)
        cs = random_delay_channel_set(rng, 2, 8, K=2, L=3, fractional=False)
        with pytest.raises(InfeasibleError, match=r"M_t >= M_r \* \(L_tot - 1\) \+ 1"):
            null_space_projection(cs.gains, 0, 0)


def _zf_setup(rng, fractional=True, m_t=16, K=2, L=3, m_r=2):
    cs = random_delay_channel_set(rng, m_r, m_t, K=K, L=L, fractional=fractional)
    return cs


def _center_channels(cs, window=40):
    """Per-UE zero-lag projected channels [H_kl basis_kl rho_l,i_l[0]]_l, (M_r, D),
    with i_l the stream aligned through path l."""
    F = assemble_bs_side(cs, window, BETA)
    tab, stream = F.tables[:, :, 0], aligned_stream(F)
    return [
        np.concatenate(
            [cs.gains[k, l] @ null_space_projection(cs.gains, k, l)
             * tab[k, k, l, stream[k, l], F.window]
             for l in range(cs.L)],
            axis=1,
        )
        for k in range(cs.K)
    ]


def _grams(cs, window=40):
    F = assemble_bs_side(cs, window, BETA)
    state, _ = isi_zf_alternating(F, 1.0, SIGMA2, max_iter=0)
    return state.grams


def _projected(cs):
    """Per UE, the per-path projected channels G_kl = H_kl B_kl."""
    return [
        [cs.gains[k, l] @ null_space_projection(cs.gains, k, l) for l in range(cs.L)]
        for k in range(cs.K)
    ]


def _outputs(projected, b):
    """Y (K, M_r, L) = [G_kl b_kl]_l of the reduced transmit vectors b_k = [b_kl]_l."""
    out = []
    for gs, bk in zip(projected, b):
        cuts = np.cumsum([g.shape[1] for g in gs])[:-1]
        out.append(np.stack([g @ bl for g, bl in zip(gs, np.split(bk, cuts))], axis=1))
    return np.stack(out)


def _reduced(projected, w, weights):
    """Reduced transmit vectors b_k = [weights_kl G_kl^H w_k]_l."""
    return [
        np.concatenate([c * (g.conj().T @ wk) for g, c in zip(gs, ck)])
        for gs, wk, ck in zip(projected, w, weights)
    ]


def _permute_streams(F, perm):
    """``F`` with UE k's stream i taken from its stream perm[k, i]."""
    tables, mask = F.tables.copy(), F.aligned_mask.copy()
    for k, p in enumerate(perm):
        tables[:, k] = F.tables[:, k][..., p, :]
        mask[k] = F.aligned_mask[k][..., p]
    kappa = np.take_along_axis(F.kappa, perm, axis=1)
    return DamChannels(gains=F.gains, tables=tables, aligned_mask=mask, kappa=kappa)


class TestMmseUpdates:
    def test_no_isi_reduces_to_matched_filter(self):
        rng = np.random.default_rng(20)
        cs = _zf_setup(rng, fractional=False)
        grams, gs = _grams(cs), _projected(cs)
        h0 = _center_channels(cs)
        P = 1.0
        b = [np.sqrt(P / 2 / h.shape[1]) * np.ones(h.shape[1], dtype=complex) for h in h0]
        w, fallbacks = mmse_receive_update(grams, _outputs(gs, b), SIGMA2)
        assert fallbacks == 0
        for h, bk, wk in zip(h0, b, w):
            mf = h @ bk
            mf /= np.linalg.norm(mf)
            assert abs(abs(np.vdot(mf, wk)) - 1.0) < 1e-10
            assert np.linalg.norm(wk) == pytest.approx(1.0, abs=1e-12)

        weights, _, _, fallbacks = mmse_transmit_update(grams, w, P, SIGMA2)
        assert fallbacks == 0
        for h, wk, bk in zip(h0, w, _reduced(gs, w, weights)):
            mf = h.conj().T @ wk
            mf /= np.linalg.norm(mf)
            align = abs(np.vdot(mf, bk)) / np.linalg.norm(bk)
            assert align == pytest.approx(1.0, abs=1e-10)
            assert np.linalg.norm(bk) ** 2 == pytest.approx(P / 2, rel=1e-12)

    def test_updates_never_decrease_sinr(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            cs = _zf_setup(rng, fractional=True)
            grams, gs = _grams(cs), _projected(cs)
            _, h_tilde = lag_stacked_channels(cs, BETA, 40)
            P = 1.0
            b = []
            for g in gs:
                dim = sum(gl.shape[1] for gl in g)
                x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                b.append(np.sqrt(P / 2) * x / np.linalg.norm(x))
            w = []
            for _ in gs:
                x = rng.standard_normal(cs.M_r) + 1j * rng.standard_normal(cs.M_r)
                w.append(x / np.linalg.norm(x))
            w = np.array(w)
            y = _outputs(gs, b)
            base = stacked_sinrs(h_tilde, w, b, SIGMA2)
            w2, _ = mmse_receive_update(grams, y, SIGMA2)
            after_w = stacked_sinrs(h_tilde, w2, b, SIGMA2)
            assert np.all(after_w >= base - 1e-9 * np.abs(base))
            weights, y2, _, _ = mmse_transmit_update(grams, w2, P, SIGMA2)
            # the returned outputs are those of the returned weights
            b2 = _reduced(gs, w2, weights)
            y2_ref = _outputs(gs, b2)
            assert np.allclose(y2, y2_ref, rtol=0.0, atol=1e-12 * np.max(np.abs(y2_ref)))
            after_b = stacked_sinrs(h_tilde, w2, b2, SIGMA2)
            assert np.all(after_b >= after_w - 1e-9 * np.abs(after_w))

    @pytest.mark.parametrize("m_r", [1, 2, 3])
    @pytest.mark.parametrize("K", [1, 2])
    @pytest.mark.parametrize("fractional", [True, False], ids=["frac", "int"])
    def test_returned_sinrs_are_those_of_the_returned_weights(self, fractional, K, m_r):
        rng = np.random.default_rng(30 + 10 * K + m_r)
        cs = _zf_setup(rng, fractional=fractional, K=K, L=2, m_r=m_r)
        # receive vectors of any norm: the noise term scales with ||w||^2
        w = rng.standard_normal((K, m_r)) + 1j * rng.standard_normal((K, m_r))
        for deaf in (False, True):
            if deaf:
                # UE 0's paths all miss receive antenna 0, which is all w_0 hears
                gains = cs.gains.copy()
                gains[0, :, 0] = 0.0
                cs = ChannelSet(gains=gains, n=cs.n, frac=cs.frac)
                w[0] = np.eye(m_r)[0]
            weights, _, sinrs, _ = mmse_transmit_update(_grams(cs), w, 2.0, SIGMA2)
            _, h_tilde = lag_stacked_channels(cs, BETA, 40)
            literal = stacked_sinrs(h_tilde, w, _reduced(_projected(cs), w, weights), SIGMA2)
            assert np.allclose(sinrs, literal, rtol=1e-9, atol=0.0)
            assert np.all(sinrs[int(deaf):] > 0.0)
        assert sinrs[0] == 0.0
        assert np.all(weights[0] == 0.0)


class TestIsiZfAlternating:
    def test_integer_delays_single_ue_interference_free(self):
        rng = np.random.default_rng(22)
        cs = random_delay_channel_set(rng, 2, 8, K=1, L=3, fractional=False)
        F = assemble_bs_side(cs, 40, BETA)
        state, sinrs = isi_zf_alternating(F, 1.0, SIGMA2)
        w, f = state.w[0], state.f[0]
        m_t = cs.M_t
        tab = F.tables[0, 0, 0]
        coup = sum(
            tab[l, i] * (w.conj() @ cs.gains[0, l] @ f[i * m_t : (i + 1) * m_t])
            for l, i in enumerate(aligned_stream(F)[0])
        )
        center = F.window
        desired = abs(coup[center]) ** 2
        residual = np.sum(np.abs(coup) ** 2) - desired
        assert residual <= 1e-20 * desired
        assert sinrs[0] == pytest.approx(desired / SIGMA2, rel=1e-9)

    def test_full_stream_plan_is_the_bs_side_solve(self):
        # the streams of the I = L plan are in plan order, not path order
        cs = random_delay_channel_set(np.random.default_rng(0), 3, 32, K=2, L=3)
        state, sinrs = isi_zf_alternating(assemble_effective_channels(cs, 3, 40, BETA), 1.0, SIGMA2)
        ref, ref_sinrs = isi_zf_alternating(assemble_bs_side(cs, 40, BETA), 1.0, SIGMA2)
        assert np.array_equal(sinrs, ref_sinrs)
        assert np.array_equal(state.f, ref.f)
        assert np.array_equal(state.w, ref.w)

    def test_more_than_one_branch_raises(self):
        cs = random_delay_channel_set(np.random.default_rng(0), 3, 32, K=2, L=3)
        for I in (1, 2):
            with pytest.raises(ValueError, match="single-branch"):
                isi_zf_alternating(assemble_effective_channels(cs, I, 40, BETA), 1.0, SIGMA2)

    def test_reads_the_aligned_mask_in_any_stream_order(self):
        cs = random_delay_channel_set(np.random.default_rng(0), 3, 32, K=2, L=3)
        F = assemble_bs_side(cs, 40, BETA)
        state, sinrs = isi_zf_alternating(F, 1.0, SIGMA2)
        # the SINRs the power split gives the returned beamformers, in stream order
        terms = power_terms(F, state.w, state.f)
        assert np.allclose(sinrs, terms.desired / (terms.interference + SIGMA2), rtol=1e-9)
        perm = np.array([[1, 2, 0], [2, 1, 0]])
        G = _permute_streams(F, perm)
        again_state, again = isi_zf_alternating(G, 1.0, SIGMA2)
        assert np.array_equal(again, sinrs)
        assert np.array_equal(by_path(G, again_state.f), by_path(F, state.f))

    def test_trace_monotone(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            cs = _zf_setup(rng, fractional=True)
            state, _ = isi_zf_alternating(assemble_bs_side(cs, 40, BETA), 1.0, SIGMA2)
            diffs = np.diff(state.trace)
            assert np.all(diffs >= -1e-9 * np.maximum(np.abs(state.trace[:-1]), 1.0))

    def test_zero_max_iter_returns_initialization(self):
        rng = np.random.default_rng(24)
        cs = _zf_setup(rng, fractional=True)
        state, sinrs = isi_zf_alternating(
            assemble_bs_side(cs, 40, BETA), 1.0, SIGMA2, max_iter=0
        )
        assert state.iterations == 0
        assert len(state.trace) == 1
        assert state.converged
        assert sum(np.linalg.norm(f) ** 2 for f in state.f) == pytest.approx(1.0, rel=1e-9)
        assert np.all(sinrs >= 0.0)

    def test_max_iter_cutoff_reports_unconverged(self):
        rng = np.random.default_rng(23)
        cs = _zf_setup(rng, fractional=True)
        F = assemble_bs_side(cs, 40, BETA)
        # from the sphere-grid start this draw meets tol=1e-6 after one step
        full, _ = isi_zf_alternating(F, 1.0, SIGMA2, tol=1e-9)
        assert full.iterations > 1
        state, _ = isi_zf_alternating(F, 1.0, SIGMA2, tol=1e-9, max_iter=1)
        assert state.iterations == 1
        assert not state.converged

    def test_pinv_fallbacks_are_counted(self, monkeypatch):
        rng = np.random.default_rng(27)
        cs = _zf_setup(rng, fractional=True)
        F = assemble_bs_side(cs, 40, BETA)
        ref, ref_sinrs = isi_zf_alternating(F, 1.0, SIGMA2)
        assert ref.fallbacks == 0

        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        sizes, solve = [], beamforming._solve

        def spy(a, rhs):
            sizes.append(a.shape[0])
            return solve(a, rhs)

        monkeypatch.setattr(np.linalg, "solve", singular)
        monkeypatch.setattr(beamforming, "_solve", spy)
        state, sinrs = isi_zf_alternating(F, 1.0, SIGMA2)
        assert state.iterations == ref.iterations > 0
        # every solve took pinv: one per sphere point the start's screen kept,
        # one per UE for the start's transmit update, and a receive and a
        # transmit solve per UE and iteration
        candidates = sizes[0]
        assert cs.K <= candidates < cs.K * SPHERE_GRID[0] * SPHERE_GRID[1]
        assert sizes[1:] == [cs.K] * (1 + 2 * state.iterations)
        assert state.fallbacks == candidates + cs.K + 2 * cs.K * state.iterations
        assert np.allclose(sinrs, ref_sinrs, rtol=1e-9, atol=0.0)

    def test_converged_integer_delay_solve(self):
        rng = np.random.default_rng(22)
        cs = _zf_setup(rng, fractional=False)
        state, _ = isi_zf_alternating(assemble_bs_side(cs, 40, BETA), 1.0, SIGMA2)
        assert state.iterations < 200
        assert state.converged

    def test_zero_forcing_residuals(self):
        rng = np.random.default_rng(25)
        cs = _zf_setup(rng, fractional=True, m_t=16)
        P = 2.0
        F = assemble_bs_side(cs, 40, BETA)
        state, _ = isi_zf_alternating(F, P, SIGMA2)
        f_bar = by_path(F, state.f)  # block l: the stream aligned through path l
        m_t = cs.M_t
        scale = np.sqrt(P) * np.max(np.linalg.norm(cs.gains, axis=(2, 3)))
        for k, l, kp, i in np.ndindex(cs.K, cs.L, cs.K, cs.L):
            if (kp, i) == (k, l):
                continue
            f_i = f_bar[kp][i * m_t : (i + 1) * m_t]
            cross = abs(state.w[k].conj() @ cs.gains[k, l] @ f_i)
            assert cross <= 1e-9 * scale

    def test_power_budget(self):
        rng = np.random.default_rng(26)
        cs = _zf_setup(rng, fractional=True)
        P = 3.0
        state, _ = isi_zf_alternating(assemble_bs_side(cs, 40, BETA), P, SIGMA2)
        assert sum(np.linalg.norm(f) ** 2 for f in state.f) <= P * (1 + 1e-9)

    def test_single_receive_antenna_is_one_transmit_update(self):
        rng = np.random.default_rng(28)
        cs = _zf_setup(rng, fractional=True, m_t=12, m_r=1)
        F = assemble_bs_side(cs, 40, BETA)
        state, sinrs = isi_zf_alternating(F, 2.0, SIGMA2)
        w = np.ones((cs.K, 1), dtype=complex)
        weights, _, once, _ = mmse_transmit_update(state.grams, w, 2.0, SIGMA2)
        assert np.allclose(sinrs, once, rtol=1e-12, atol=0.0)
        # and they are the lag-stacked SINRs of the weights that update returns
        _, h_tilde = lag_stacked_channels(cs, BETA, 40)
        literal = stacked_sinrs(h_tilde, w, _reduced(_projected(cs), w, weights), SIGMA2)
        assert np.allclose(once, literal, rtol=1e-9, atol=0.0)
        assert np.allclose(np.abs(state.w), 1.0, rtol=0.0, atol=1e-12)
        start, _ = isi_zf_alternating(F, 2.0, SIGMA2, max_iter=0)
        assert np.array_equal(start.w, w)
        assert np.linalg.norm(state.f - start.f) <= 1e-12 * np.linalg.norm(start.f)

    @pytest.mark.parametrize("seed", range(4))
    def test_four_receive_antennas_reach_long_basis_start_run(self, seed):
        # the 5000-iteration run of the literal loop from an equal split over
        # the null-space coordinates
        rng = np.random.default_rng(seed)
        cs = random_delay_channel_set(rng, 4, 16, K=2, L=2, fractional=True)
        state, _ = isi_zf_alternating(assemble_bs_side(cs, 40, BETA), 1.0, SIGMA2)
        _, trace, _ = oracle_isi_zf(cs, 1.0, SIGMA2, BETA, 40, max_iter=5000)
        assert state.trace[-1] >= trace[-1] * (1.0 - 1e-6)


def _reference_draw(seed, j, t, integer_delays=False):
    """The CLI's channel draw at power index j of DEFAULT_POWER_GRID, and its config."""
    cfg = dataclasses.replace(SimConfig(), P_dbm=DEFAULT_POWER_GRID[j])
    return generate_channel_set(cfg, trial_seed(seed, j, t), integer_delays), cfg


class TestIsiZfReferenceConfig:
    @pytest.mark.parametrize("seed", [1, 1009])
    def test_fractional_grid_solves_converge(self, seed):
        for j in range(len(DEFAULT_POWER_GRID)):
            cs, cfg = _reference_draw(seed, j, 0)
            F = assemble_bs_side(cs, cfg.rho_window, cfg.beta)
            state, _ = isi_zf_alternating(F, cfg.p_watts(), cfg.sigma2_watts())
            assert state.converged, (seed, DEFAULT_POWER_GRID[j], state.iterations)

    def test_result_does_not_depend_on_transmit_basis(self):
        j = DEFAULT_POWER_GRID.index(40.0)
        rng = np.random.default_rng(29)
        for t in range(3):
            cs, cfg = _reference_draw(1, j, t)
            z = rng.standard_normal((cs.M_t, cs.M_t)) + 1j * rng.standard_normal((cs.M_t, cs.M_t))
            q, r = np.linalg.qr(z)
            unitary = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
            rotated = ChannelSet(gains=cs.gains @ unitary, n=cs.n, frac=cs.frac)
            P, sigma2 = cfg.p_watts(), cfg.sigma2_watts()
            _, sinrs = isi_zf_alternating(
                assemble_bs_side(cs, cfg.rho_window, cfg.beta), P, sigma2
            )
            _, again = isi_zf_alternating(
                assemble_bs_side(rotated, cfg.rho_window, cfg.beta), P, sigma2
            )
            assert np.allclose(again, sinrs, rtol=1e-9, atol=0.0), (t, np.max(np.abs(again / sinrs - 1)))


class TestPathGrams:
    @pytest.mark.parametrize(
        "seed,m_t,full_rank",
        [(30, 16, False), (31, 128, False), (32, 16, True), (33, 11, True)],
    )
    def test_projector_grams_match_null_space_bases(self, seed, m_t, full_rank):
        rng = np.random.default_rng(seed)
        cs = random_delay_channel_set(rng, 2, m_t, K=2, L=3, full_rank=full_rank)
        gram = _grams(cs).gram
        for k, l in np.ndindex(cs.K, cs.L):
            basis = null_space_projection(cs.gains, k, l)
            g = cs.gains[k, l] @ basis
            literal = g @ g.conj().T
            assert np.linalg.norm(gram[k, l] - literal) <= 1e-12 * np.linalg.norm(literal)
