"""Tests for channel generation and derived representations."""

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

import damlink.channel
from conftest import assert_same_channels
from oracles import oracle_generate_channel_set
from damlink.channel import (
    ChannelSet,
    ConfigError,
    SimConfig,
    frequency_response,
    generate_channel_set,
    split_delay,
    steering_vector,
    subcarrier_coefficients,
)


def small_cfg(**overrides):
    base = dict(M_t=4, M_r=2, K=2, L=3, delay_span_samples=20, G_cp=20, rho_window=40)
    base.update(overrides)
    return SimConfig(**base)


class TestSplitDelay:
    def test_exact_multiple(self):
        assert split_delay(5 * 2e-9, 2e-9) == (5, 0.0)

    def test_below_half(self):
        n, tau_f = split_delay(5.4 * 2e-9, 2e-9)
        assert n == 5
        assert tau_f == pytest.approx(0.4 * 2e-9, rel=1e-12)

    def test_above_half_rounds_up(self):
        n, tau_f = split_delay(5.6 * 2e-9, 2e-9)
        assert n == 6
        assert tau_f == pytest.approx(-0.4 * 2e-9, rel=1e-12)

    def test_round_trip_exact(self):
        rng = np.random.default_rng(0)
        T = 5e-9
        for tau in rng.uniform(0.0, 100 * T, 200):
            n, tau_f = split_delay(tau, T)
            assert n * T + tau_f == pytest.approx(tau, abs=1e-24)
            assert -T / 2 - 1e-24 <= tau_f <= T / 2 + 1e-24


class TestSteeringVector:
    def test_broadside(self):
        assert np.allclose(steering_vector(4, 0.0), 0.5 * np.ones(4))

    def test_unit_norm(self):
        rng = np.random.default_rng(1)
        for angle in rng.uniform(-np.pi / 2, np.pi / 2, 20):
            assert np.linalg.norm(steering_vector(7, angle)) == pytest.approx(1.0, abs=1e-12)

    def test_broadcasts_over_angles(self):
        angles = np.random.default_rng(2).uniform(-np.pi / 2, np.pi / 2, (3, 4))
        stacked = steering_vector(5, angles)
        assert stacked.shape == (3, 4, 5) and steering_vector(5, 0.3).shape == (5,)
        for index in np.ndindex(angles.shape):
            assert np.array_equal(stacked[index], steering_vector(5, angles[index]))

    def test_dft_grid_orthogonality(self):
        # sin(angle) spaced by 2/count lands on the DFT grid
        a1 = steering_vector(8, np.arcsin(0.25))
        a2 = steering_vector(8, np.arcsin(0.25 + 2.0 / 8.0))
        assert abs(np.vdot(a1, a2)) < 1e-10


class TestGenerateChannelSet:
    def test_deterministic_per_seed(self):
        cfg = small_cfg()
        assert_same_channels(generate_channel_set(cfg, 123), generate_channel_set(cfg, 123))

    @pytest.mark.parametrize("integer_delays", [True, False], ids=["int", "frac"])
    @pytest.mark.parametrize(
        "overrides", [{}, dict(M_t=6, M_r=3, K=3, L=4), dict(M_t=1, M_r=1, K=1, L=1)],
        ids=["reference", "6x3-K3-L4", "siso"],
    )
    def test_matches_path_by_path_draw_bitwise(self, overrides, integer_delays):
        cfg = SimConfig(**overrides)
        for seed in range(50):
            assert_same_channels(
                generate_channel_set(cfg, seed, integer_delays),
                oracle_generate_channel_set(cfg, seed, integer_delays),
            )

    def test_distinct_sorted_integer_delays(self):
        cfg = small_cfg(L=8)
        for seed in range(20):
            cs = generate_channel_set(cfg, seed)
            assert cs.n.shape == (cfg.K, cfg.L)
            assert np.all(np.diff(cs.n, axis=1) > 0)

    def test_paths_are_rank_one(self):
        cs = generate_channel_set(small_cfg(M_t=6, M_r=3), 7)
        for gain in cs.gains.reshape(-1, 3, 6):
            assert np.linalg.matrix_rank(gain) == 1

    def test_mean_power_matches_large_scale_gain(self):
        cfg = small_cfg(M_t=1, M_r=1, K=1, L=1)
        draws = np.array(
            [
                abs(generate_channel_set(cfg, seed).gains[0, 0, 0, 0]) ** 2
                for seed in range(10_000)
            ]
        )
        assert draws.mean() == pytest.approx(cfg.g_ls, rel=0.05)

    def test_integer_delay_option(self):
        cs = generate_channel_set(small_cfg(), 3, integer_delays=True)
        assert np.all(cs.frac == 0.0)
        assert np.array_equal(cs.n, generate_channel_set(small_cfg(), 3).n)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_fractions_are_split_delay_remainders_in_samples(self, monkeypatch, seed):
        # every accepted draw of L delays is stored as split_delay(tau, T)[1] / T, bit for bit
        cfg = SimConfig()
        splits = []

        def spy(tau, T):
            splits.append(split_delay(tau, T))
            return splits[-1]

        monkeypatch.setattr(damlink.channel, "split_delay", spy)
        cs = generate_channel_set(cfg, seed)
        draws = [splits[i : i + cfg.L] for i in range(0, len(splits), cfg.L)]
        accepted = [sorted(d) for d in draws if len({n for n, _ in d}) == cfg.L]
        assert len(accepted) == cfg.K
        for k, draw in enumerate(accepted):
            assert cs.n[k].tolist() == [n for n, _ in draw]
            assert np.array_equal(cs.frac[k], [rest / cfg.T for _, rest in draw])
        assert np.all(np.abs(cs.frac) <= 0.5)

    def test_impossible_distinctness_rejected(self):
        with pytest.raises(ConfigError):
            generate_channel_set(small_cfg(L=22, G_cp=20), 0)


class TestChannelSet:
    @pytest.mark.parametrize("n", [[[2, 2, 5]], [[0, 4, 3]], [[1, 2, 3], [4, 1, 6]]])
    def test_integer_delays_must_increase(self, n):
        K, L = np.shape(n)
        with pytest.raises(ConfigError, match="strictly increasing"):
            ChannelSet(gains=np.zeros((K, L, 2, 4)), n=np.array(n), frac=np.zeros((K, L)))

    def test_delays_are_read_only(self):
        n = np.array([[0, 2, 5]])
        cs = ChannelSet(gains=np.zeros((1, 3, 2, 4)), n=n, frac=np.zeros((1, 3)))
        n[0, 1] = 7  # the caller's array is not the set's
        assert cs.n.tolist() == [[0, 2, 5]]
        with pytest.raises(ValueError, match="read-only"):
            cs.n[0, 1] = 7

    def test_delay_shapes_must_match_gains(self):
        with pytest.raises(ValueError, match="gains must be"):
            ChannelSet(
                gains=np.zeros((2, 3, 2, 4)), n=np.array([[0, 1], [0, 1]]), frac=np.zeros((2, 2))
            )


class TestFrequencyResponse:
    def test_single_path_at_zero_is_flat(self):
        cfg = small_cfg(K=1, L=1)
        cs = generate_channel_set(cfg, 11, integer_delays=True)
        h = cs.gains[0, 0]
        resp = frequency_response(cs, 8)[0]
        if cs.n[0, 0] == 0:
            expected = h / np.sqrt(8)
            assert np.allclose(resp, np.broadcast_to(expected, resp.shape))
        flat = np.linalg.norm(resp - resp[0], axis=(1, 2))
        # any single path gives equal magnitude across subcarriers
        assert np.allclose(np.linalg.norm(resp, axis=(1, 2)), np.linalg.norm(resp[0]))
        del flat

    def test_parseval_with_distinct_integer_delays(self):
        cfg = small_cfg()
        cs = generate_channel_set(cfg, 5, integer_delays=True)
        M = 64
        resp = frequency_response(cs, M)
        lhs = np.sum(np.abs(resp) ** 2, axis=(1, 2, 3))
        rhs = np.sum(np.abs(cs.gains) ** 2, axis=(1, 2, 3))
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_single_point_transform_sums_paths(self):
        cs = generate_channel_set(small_cfg(K=1), 9)
        resp = frequency_response(cs, 1)
        assert np.allclose(resp[0, 0], cs.gains[0].sum(axis=0))

    def test_delays_whole_periods_apart_give_identical_responses(self):
        # one exact phase rule: n, n + M and n + 3M read the same table entry
        M = 64
        cs = generate_channel_set(small_cfg(), 3)
        shifted = dataclasses.replace(cs, n=cs.n + np.array([M, 3 * M, 3 * M]))
        assert np.array_equal(frequency_response(shifted, M), frequency_response(cs, M))

    def test_coefficients_match_the_direct_phase(self):
        M = 16
        cs = generate_channel_set(small_cfg(), 4)
        # the direct phase in extended precision, so its own rounding stays far below 1e-15
        pi = 4 * np.arctan(np.longdouble(1))
        direct = np.exp(2j * pi * np.arange(M)[:, None] * cs.n[:, None, :] / M) / np.sqrt(M)
        coefficients = subcarrier_coefficients(cs, M)
        assert coefficients.shape == (cs.K, M, cs.L)
        assert np.max(np.abs(coefficients - direct)) <= 1e-15

    def test_subcarrier_count_must_be_positive(self):
        with pytest.raises(ValueError, match="M must be >= 1"):
            subcarrier_coefficients(generate_channel_set(small_cfg(), 4), 0)


class TestNoisePower:
    def test_reference_value(self):
        cfg = SimConfig()
        # -174 dBm/Hz over 200 MHz
        assert cfg.noise_power_dbm() == pytest.approx(-90.99, abs=0.01)
        assert abs(cfg.noise_power_dbm() - (-91.0)) < 0.1


class TestConfigValidation:
    def test_beta_range(self):
        with pytest.raises(ConfigError):
            SimConfig(beta=1.5)

    def test_cp_covers_delay_span(self):
        with pytest.raises(ConfigError):
            SimConfig(G_cp=10, delay_span_samples=100)

    @pytest.mark.parametrize("T_ns", [0.0, -5.0])
    def test_sample_interval_must_be_positive(self, T_ns):
        with pytest.raises(ConfigError, match="T_ns must be positive"):
            SimConfig(T_ns=T_ns)

    def test_rho_window_covers_twice_the_delay_span(self):
        # double-side lags q = mu + n - n_max + kappa reach 2 * delay_span_samples
        with pytest.raises(ConfigError, match="rho_window"):
            SimConfig(rho_window=120)
        assert SimConfig(rho_window=200).rho_window == 200

    @pytest.mark.parametrize(
        "overrides,message",
        [
            (dict(G_c=150, G_gi=200), "G_gi must be shorter than G_c"),
            (dict(G_c=200, G_gi=200), "G_gi must be shorter than G_c"),
            (dict(M=64), "G_cp must not exceed M"),
        ],
    )
    def test_lengths_that_describe_no_system(self, overrides, message):
        with pytest.raises(ConfigError, match=message):
            SimConfig(**overrides)

    @pytest.mark.parametrize(
        "name,value", [("K", 2.0), ("M_t", True), ("G_cp", 100.5), ("G_gi", -1), ("L", 0)]
    )
    def test_counts_must_be_integers(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be an integer"):
            SimConfig(**{name: value})

    @pytest.mark.parametrize(
        "name,value",
        [
            ("T_ns", math.nan), ("T_ns", math.inf), ("P_dbm", math.nan), ("P_dbm", -math.inf),
            ("g_ls_db", math.inf), ("noise_psd_dbm_hz", math.nan),
            ("P_dbm", True), ("beta", False), ("T_ns", True),
        ],
    )
    def test_real_values_must_be_finite(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be a finite number"):
            SimConfig(**{name: value})

    # 10^400 overflows a float and 10^-400 underflows to zero watts
    @pytest.mark.parametrize("value", [4000.0, -4000.0])
    @pytest.mark.parametrize("name", ["P_dbm", "noise_psd_dbm_hz", "g_ls_db"])
    def test_db_values_must_have_finite_positive_watts(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must give a finite positive linear value"):
            SimConfig(**{name: value})


def test_every_config_field_is_read_by_the_library():
    # a field no library code reads as .<field> is a setting without effect
    package = Path(__file__).resolve().parent.parent / "src" / "damlink"
    source = "\n".join(path.read_text() for path in sorted(package.glob("*.py")))
    unread = [
        f.name for f in dataclasses.fields(SimConfig)
        if not re.search(rf"\.{re.escape(f.name)}\b", source)
    ]
    assert unread == []
