"""Tests for pulse shapes and correlation tables."""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import damlink.pulse
from conftest import random_delay_channel_set
from damlink.beamforming import assemble_bs_side, assemble_effective_channels
from damlink.channel import ChannelSet, SimConfig, generate_channel_set
from damlink.delay_design import solve_compensation_delays, triple_lags
from damlink.pulse import build_rho_table, rho, rrc, rrc_taps
from oracles import bs_side_delays

T = 5e-9


class TestRho:
    def test_peak(self):
        assert rho(0.0, 0.25) == 1.0

    @pytest.mark.parametrize("beta", [0.0, 0.01, 0.25, 0.5, 0.9])
    def test_nyquist_zero_crossings(self, beta):
        n = np.concatenate([np.arange(-10, 0), np.arange(1, 11)])
        assert np.all(np.abs(rho(n, beta)) < 1e-12)

    def test_beta_zero_half_sample(self):
        assert rho(0.5, 0.0) == pytest.approx(2.0 / np.pi, rel=1e-12)

    def test_even(self):
        rng = np.random.default_rng(2)
        t = rng.uniform(-30 * T, 30 * T, 200)
        assert np.array_equal(rho(t / T, 0.3), rho(-t / T, 0.3))

    def test_singularity_limit(self):
        beta = 0.25
        t_sing = T / (2 * beta)
        expected = (np.pi / 4) * np.sinc(1.0 / (2 * beta))
        assert rho(t_sing / T, beta) == pytest.approx(expected, rel=1e-9)
        # continuity across the singular point
        assert rho(t_sing * (1 + 1e-10) / T, beta) == pytest.approx(expected, rel=1e-6)


class TestRrc:
    def test_value_at_origin(self):
        beta = 0.3
        assert rrc(0.0, beta) == pytest.approx(1.0 - beta + 4.0 * beta / np.pi, rel=1e-12)

    def test_unit_energy(self):
        beta = 0.3
        x = np.linspace(-40, 40, 400_001)
        energy = np.trapezoid(rrc(x, beta) ** 2, x)
        assert energy == pytest.approx(1.0, abs=1e-3)

    def test_beta_to_zero_limit_is_sinc(self):
        assert rrc(0.3, 1e-9) == pytest.approx(np.sinc(0.3), abs=1e-6)

    def test_self_convolution_reproduces_rho(self):
        beta = 0.22
        os = 64
        span = 60
        dt = 1.0 / os
        x = np.arange(-span * os, span * os + 1) * dt
        phi = rrc(x, beta)
        auto = np.convolve(phi, phi[::-1]) * dt  # centered at len-1
        center = len(phi) - 1
        n = np.arange(-10, 11)
        sampled = auto[center + n * os]
        assert np.allclose(sampled, rho(n, beta), atol=1e-3)


@pytest.mark.parametrize("pulse", [rho, rrc])
class TestOneCodePath:
    def test_python_float_gives_float64(self, pulse):
        assert type(pulse(0.3, 0.25)) is np.float64

    @pytest.mark.parametrize("shape", [(), (5,), (3, 4)])
    def test_shape_and_dtype_kept(self, pulse, shape):
        x = np.linspace(-2.5, 3.5, int(np.prod(shape))).reshape(shape)
        out = pulse(x, 0.25)
        assert out.shape == shape
        assert out.dtype == np.float64
        elementwise = np.reshape([pulse(float(v), 0.25) for v in x.ravel()], shape)
        assert np.array_equal(out, elementwise)

    @pytest.mark.parametrize("beta", [-0.1, 1.0])
    def test_beta_out_of_range_raises(self, pulse, beta):
        with pytest.raises(ValueError, match="beta"):
            pulse(0.3, beta)


class TestRrcTaps:
    def test_mean_power_normalization(self):
        taps = rrc_taps(0.25, 8, span_symbols=24)
        assert np.sum(taps**2) / 8 == pytest.approx(1.0, abs=1e-3)


def _two_ue_channels(seed, integer_delays=False, L=3):
    cfg = SimConfig(M_t=4, M_r=2, K=2, L=L, delay_span_samples=20, G_cp=20, rho_window=40)
    return cfg, generate_channel_set(cfg, seed, integer_delays=integer_delays)


def _bs_side_lags(cs):
    """(K, K, 1, L, L) triple lags under BS-side pre-delays n_max - n_l on stream l,
    one branch without post-delay."""
    return triple_lags(cs.n, cs.n_max, *bs_side_delays(cs))


def _bs_side_table(cs, W, beta):
    """``build_rho_table`` on the BS-side lags, (K, K, L, I, 2W+1)."""
    return build_rho_table(_bs_side_lags(cs), cs.frac, W, beta)[:, :, 0]


def _beta_check_cases(bad_values):
    """(bad value, integer delays, builder(cs, beta)) for ``build_rho_table`` on
    fractional delays and for both assemblies on integer and fractional delays."""
    assemblies = {
        "assemble_bs_side": lambda cs, beta: assemble_bs_side(cs, 40, beta),
        "assemble_effective_channels": (
            lambda cs, beta: assemble_effective_channels(cs, 2, 40, beta)
        ),
    }
    cases = [
        pytest.param(bad, False, lambda cs, beta: _bs_side_table(cs, 40, beta), id=f"{bad}")
        for bad in bad_values
    ]
    for name, build in assemblies.items():
        for bad in bad_values:
            for integer in (False, True):
                cases.append(pytest.param(bad, integer, build, id=f"{bad}-{integer}-{name}"))
    return cases


class TestBuildRhoTable:
    def test_aligned_columns_are_delta(self):
        cfg, cs = _two_ue_channels(0, integer_delays=True)
        table = _bs_side_table(cs, 40, cfg.beta)
        W = int(np.max(np.abs(_bs_side_lags(cs))))
        assert table.shape == (2, 2, 3, 3, 2 * W + 1)
        delta = np.zeros(2 * W + 1)
        delta[W] = 1.0
        for k in range(cs.K):
            for l in range(cs.L):
                assert np.array_equal(table[k, k, l, l], delta)
        assert np.all(np.abs(table) <= 1.0 + 1e-9)

    def test_off_diagonal_zero_for_integer_delays(self):
        cfg, cs = _two_ue_channels(1, integer_delays=True)
        table = _bs_side_table(cs, 40, cfg.beta)[0, 0]
        W = (table.shape[-1] - 1) // 2
        n = cs.n[0]
        for l in range(cs.L):
            for i in range(cs.L):
                if l != i:
                    # stream i peaks at lag n_l - n_i seen from path l
                    peak = n[l] - n[i] + W
                    col = table[l, i].copy()
                    assert col[peak] == 1.0
                    col[peak] = 0.0
                    assert np.all(col == 0.0)

    @pytest.mark.parametrize("design", [1, 2, 3, "bs-side"])
    def test_unit_taps_are_the_rho_tables(self, design):
        # rho is exactly 1 at 0 and 0 at nonzero integers, so on integer delays
        # the unit taps are rho(n - W - q) on the full window's common lags,
        # and that full table holds exact zeros on every other lag
        rng = np.random.default_rng(43)
        cs = random_delay_channel_set(rng, 2, 4, K=3, L=3, fractional=False)
        if design == "bs-side":
            kappa, mu = bs_side_delays(cs)
        else:
            plans = [solve_compensation_delays(n, design, cs.L + 1 - design) for n in cs.n]
            kappa, mu = [plan.kappa for plan in plans], [plan.mu for plan in plans]
        lags = triple_lags(cs.n, cs.n_max, kappa, mu)
        window = 64
        table = build_rho_table(lags, cs.frac, window, 0.25)
        W = (table.shape[-1] - 1) // 2
        assert W == np.max(np.abs(lags)) < window
        full = rho(np.arange(-window, window + 1) - lags[..., None], 0.25)
        assert np.array_equal(table, full[..., window - W : window + W + 1])
        assert not np.any(full[..., : window - W]) and not np.any(full[..., window + W + 1 :])

    @pytest.mark.parametrize("design", [1, 2, "bs-side"])
    @pytest.mark.parametrize("wide", [False, True], ids=["window-at-max-lag", "wide-window"])
    def test_shared_path_sequences_are_the_direct_formula(self, design, wide):
        # every triple's window of its path's one sequence, bit for bit the
        # direct rho((n - q) - frac); design 2 is R = 2 double-side lags
        cs = random_delay_channel_set(np.random.default_rng(44), 2, 4, K=3, L=3)
        if design == "bs-side":
            kappa, mu = bs_side_delays(cs)
        else:
            plans = [solve_compensation_delays(n, design, cs.L + 1 - design) for n in cs.n]
            kappa, mu = [plan.kappa for plan in plans], [plan.mu for plan in plans]
        lags = triple_lags(cs.n, cs.n_max, kappa, mu)
        assert lags.min() < 0 < lags.max()
        window = int(np.max(np.abs(lags))) + (17 if wide else 0)
        n = np.arange(-window, window + 1)
        direct = rho((n - lags[..., None]) - cs.frac[:, None, None, :, None, None], 0.25)
        assert np.array_equal(build_rho_table(lags, cs.frac, window, 0.25), direct)

    def test_every_pair_follows_the_formula(self):
        # entry (k, k', l, i, n) = rho(n - W + n_k,max - kappa_k'i - n_kl - frac_kl)
        cfg, cs = _two_ue_channels(4)
        kappa, _ = bs_side_delays(cs)
        W = 40
        table = _bs_side_table(cs, W, cfg.beta)
        for k in range(cs.K):
            for kp in range(cs.K):
                for l in range(cs.L):
                    for i in range(cs.L):
                        offset = cs.n_max[k] - kappa[kp, i] - cs.n[k, l]
                        x = np.arange(-W, W + 1) + offset - cs.frac[k, l]
                        assert np.allclose(
                            table[k, kp, l, i], rho(x, cfg.beta), rtol=0.0, atol=1e-12
                        )

    def test_negated_fractional_delays_time_reverse_diagonal(self):
        cfg, cs = _two_ue_channels(5)
        flipped = dataclasses.replace(cs, frac=-cs.frac)
        t_plus = _bs_side_table(cs, 40, cfg.beta)
        t_minus = _bs_side_table(flipped, 40, cfg.beta)
        for k in range(cs.K):
            for l in range(cs.L):
                assert np.allclose(t_minus[k, k, l, l], t_plus[k, k, l, l][::-1], atol=1e-12)

    def test_columns_match_oversampled_convolution(self):
        beta = 0.25  # faster tail decay keeps the truncation error below tolerance
        os = 64
        rng = np.random.default_rng(9)

        # fractional delays on the 1/64-sample grid so the oracle needs no interpolation
        n = np.array([[1, 5, 8]])
        frac = np.array([[int(rng.integers(-os // 2 + 1, os // 2)) / os for _ in range(3)]])
        cs = ChannelSet(gains=np.ones((1, 3, 1, 1), dtype=complex), n=n, frac=frac)
        kappa, _ = bs_side_delays(cs)
        W = 40
        table = _bs_side_table(cs, W, beta)[0, 0]

        span = 80
        phi = rrc(np.arange(-span * os, span * os + 1) / os, beta)
        auto = np.convolve(phi, phi[::-1]) / os
        center = len(phi) - 1

        for l in range(cs.L):
            for i in range(cs.L):
                offset = cs.n_max[0] - kappa[0, i] - n[0, l]
                args = np.arange(-W, W + 1) + offset - frac[0, l]
                idx = np.round(args * os).astype(int) + center
                oracle = np.array([auto[j] if 0 <= j < len(auto) else 0.0 for j in idx])
                col = table[l, i]
                assert np.sum(col**2) == pytest.approx(
                    np.sum(oracle**2), abs=1e-4 * max(np.sum(col**2), 1e-3)
                )
                # sample by sample too, so a time-reversed column cannot pass
                assert np.allclose(col, oracle, rtol=0.0, atol=1e-5)

    @pytest.mark.parametrize("beta,integer_delays,build", _beta_check_cases((-0.1, 1.0)))
    def test_beta_out_of_range_raises(self, beta, integer_delays, build):
        _, cs = _two_ue_channels(1, integer_delays=integer_delays)
        with pytest.raises(ValueError, match="beta"):
            build(cs, beta)

    def test_window_too_small_raises(self):
        cfg, cs = _two_ue_channels(2, L=3)
        span = int(np.max(cs.n_max - cs.n[:, 0]))
        if span > 1:
            with pytest.raises(ValueError):
                _bs_side_table(cs, span - 1, cfg.beta)

    def test_tail_energy_outside_default_window(self):
        cfg, cs = _two_ue_channels(3)
        wide = _bs_side_table(cs, 600, cfg.beta)
        full = np.sum(wide**2, axis=-1)
        inner = np.sum(wide[..., 600 - 200 : 600 + 201] ** 2, axis=-1)
        tails = (full - inner) / np.maximum(full, 1e-300)
        assert np.all(tails < 1e-6)


def test_pulse_imports_no_damlink_module():
    # pulse is a leaf: the assemblies hand it lags and fractions, never channels or plans
    tree = ast.parse(Path(damlink.pulse.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
    assert imported, "no imports parsed"
    assert not [m for m in imported if m.startswith((".", "damlink"))], imported
