"""Tests for the linear-algebra and water-filling primitives."""

import numpy as np
import pytest

from damlink.numerics import null_space_basis, rank, water_fill


def _random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


class TestRank:
    def test_zero_matrix(self):
        assert rank(np.zeros((4, 4))) == 0

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_identity(self, n):
        assert rank(np.eye(n)) == n

    def test_rank_deficient(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        assert rank(a) == 1


class TestNullSpaceBasis:
    def test_axis_aligned(self):
        basis = null_space_basis(np.array([[1.0, 0.0]]))
        assert basis.shape == (2, 1)
        assert abs(basis[1, 0]) == pytest.approx(1.0)
        assert abs(basis[0, 0]) < 1e-14

    def test_full_rank_has_empty_kernel(self):
        rng = np.random.default_rng(5)
        a = _random_complex(rng, 3, 3)
        assert null_space_basis(a).shape == (3, 0)

    def test_wide_matrix(self):
        rng = np.random.default_rng(11)
        a = _random_complex(rng, 3, 8)
        basis = null_space_basis(a)
        assert basis.shape == (8, 5)
        assert np.linalg.norm(a @ basis) <= 1e-10 * np.linalg.norm(a)
        assert np.allclose(basis.conj().T @ basis, np.eye(5), atol=1e-10)

    def test_empty_row_matrix_gives_identity(self):
        basis = null_space_basis(np.zeros((0, 4)))
        assert np.allclose(basis, np.eye(4))

    def test_kernel_membership_and_count(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            rows = rng.integers(1, 12)
            cols = rng.integers(1, 12)
            a = _random_complex(rng, rows, cols)
            if rng.uniform() < 0.5 and rows > 1:
                a[-1] = a[0] * (1.0 + 1.0j)  # force rank deficiency
            basis = null_space_basis(a)
            r = rank(a)
            assert basis.shape == (cols, cols - r)
            if basis.shape[1]:
                assert np.linalg.norm(a @ basis) <= 1e-9 * max(np.linalg.norm(a), 1.0)
                gram = basis.conj().T @ basis
                assert np.allclose(gram, np.eye(basis.shape[1]), atol=1e-10)


class TestWaterFill:
    def test_symmetric_gains(self):
        assert np.allclose(water_fill([1.0, 1.0], 2.0), [1.0, 1.0])

    def test_hand_kkt_case(self):
        # level = 1.25 fills both channels: powers (1.25 - 1/2, 1.25 - 1/1)
        powers = water_fill([2.0, 1.0], 1.0)
        assert np.allclose(powers, [0.75, 0.25], atol=1e-12)

    def test_zero_gain_channel_gets_nothing(self):
        assert np.allclose(water_fill([1.0, 0.0], 1.0), [1.0, 0.0])

    def test_all_zero_gains_is_an_error(self):
        with pytest.raises(ValueError):
            water_fill([0.0, 0.0], 1.0)

    def test_budget_and_kkt_random(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = rng.integers(1, 20)
            g = rng.uniform(0.0, 5.0, n)
            g[rng.uniform(size=n) < 0.2] = 0.0
            if not np.any(g > 0):
                g[0] = 1.0
            total = rng.uniform(0.1, 10.0)
            p = water_fill(g, total)
            assert p.sum() == pytest.approx(total, rel=1e-9)
            assert np.all(p >= -1e-12)
            active = p > 1e-12
            if np.any(active):
                levels = p[active] + 1.0 / g[active]
                level = levels.mean()
                assert np.allclose(levels, level, rtol=1e-9)
                inactive = (~active) & (g > 0)
                assert np.all(level <= 1.0 / g[inactive] + 1e-9)

    def test_monotone_in_gain(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            g = rng.uniform(0.0, 4.0, rng.integers(2, 12))
            if not np.any(g > 0):
                g[0] = 1.0
            p = water_fill(g, rng.uniform(0.5, 5.0))
            order = np.argsort(g)
            assert np.all(np.diff(p[order]) >= -1e-12)
