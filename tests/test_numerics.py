"""Tests for the linear-algebra and water-filling primitives."""

import numpy as np
import pytest

from damlink import numerics
from damlink.numerics import (
    jacobi_eigh,
    null_space_basis,
    project_off_others,
    rank,
    water_fill,
)


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


def _others(blocks, idx):
    """The rows of every block but the last index's, for one group."""
    *batch, g = idx
    return np.delete(blocks[tuple(batch)], g, axis=0).reshape(-1, blocks.shape[-1])


def _literal_projection(blocks):
    """Each block times N N^H, N a null-space basis of the other blocks' rows."""
    out = np.empty_like(blocks)
    for idx in np.ndindex(blocks.shape[:-2]):
        n = null_space_basis(_others(blocks, idx))
        out[idx] = blocks[idx] @ n @ n.conj().T
    return out


def _rank1(rng, m, n):
    return _random_complex(rng, m, 1) @ _random_complex(rng, 1, n)


class TestProjectOffOthers:
    def _check(self, blocks):
        out = project_off_others(blocks)
        assert out.shape == blocks.shape
        assert np.max(np.abs(out - _literal_projection(blocks))) <= 1e-12
        return out

    def test_generic_full_rank_groups(self):
        blocks = _random_complex(np.random.default_rng(21), 3 * 2, 10).reshape(3, 2, 10)
        self._check(blocks)

    def test_rank_one_interferers(self):
        # L = 1 paths: each interferer block has rank 1 in its 2 rows
        rng = np.random.default_rng(22)
        blocks = np.stack([_rank1(rng, 2, 16) for _ in range(2)])
        self._check(blocks)

    def test_weak_direction_is_kept(self):
        rng = np.random.default_rng(23)
        left, _ = np.linalg.qr(_random_complex(rng, 2, 2))
        right, _ = np.linalg.qr(_random_complex(rng, 16, 2))
        weak = left @ np.diag([1.0, 5e-6]) @ right.conj().T
        blocks = np.stack([_random_complex(rng, 2, 16), weak])
        out = self._check(blocks)
        # the 5e-6 direction is above the rank rule, so block 0 is off both
        # rows; that direction is known only to about eps / 5e-6
        assert np.max(np.abs(out[0] @ right)) <= 1e-9

    def test_zero_others_leave_the_block_unchanged(self):
        blocks = np.zeros((2, 2, 8), dtype=complex)
        blocks[0] = _random_complex(np.random.default_rng(24), 2, 8)
        out = self._check(blocks)
        assert np.array_equal(out, blocks)

    def test_single_group_is_unchanged(self):
        blocks = _random_complex(np.random.default_rng(26), 2, 8)[None]
        assert np.array_equal(project_off_others(blocks), blocks)

    def test_leading_batch_axis(self):
        # (subcarriers, UEs, M_r, r), as OFDM ZF calls it; one subcarrier's
        # interferer is rank 1, so the batch mixes full and deficient ranks
        rng = np.random.default_rng(27)
        blocks = _random_complex(rng, 4 * 2 * 2, 12).reshape(4, 2, 2, 12)
        blocks[1, 1] = _rank1(rng, 2, 12)
        self._check(blocks)


def _hermitian(rng, shape):
    h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return h + h.conj().swapaxes(-1, -2)


def _unitary(rng, shape):
    q, _ = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return q


def _stack(kind, lead, n, rng):
    """A (*lead, n, n) Hermitian stack of one kind."""
    shape = (*lead, n, n)
    if kind == "random":
        return _hermitian(rng, shape)
    if kind == "rank-deficient":
        # indefinite, rank n // 2 (zero at n = 1)
        x = rng.standard_normal((*lead, n, n // 2)) + 1j * rng.standard_normal((*lead, n, n // 2))
        signs = np.where(np.arange(n // 2) % 2, -1.0, 1.0)
        return (x * signs) @ x.conj().swapaxes(-1, -2)
    if kind == "zero":
        return np.zeros(shape, dtype=complex)
    if kind == "diagonal":
        return rng.standard_normal((*lead, n))[..., None] * np.eye(n)
    if kind == "repeated":
        u = _unitary(rng, shape)
        return (u * (np.arange(n) // 2 + 1.0)) @ u.conj().swapaxes(-1, -2)  # 1, 1, 2, 2, ...
    if kind == "scaled":
        # each matrix graded over 1e-6 across its rows and scaled by 1e-150..1e150
        grade = np.logspace(0.0, -6.0, n)
        scale = 10.0 ** rng.uniform(-150.0, 150.0, lead)[..., None, None]
        return scale * (grade[:, None] * _hermitian(rng, shape) * grade)
    raise ValueError(kind)


class TestJacobiEigh:
    KINDS = ["random", "rank-deficient", "zero", "diagonal", "repeated", "scaled"]

    @pytest.mark.parametrize("lead", [(), (3,), (2, 5)], ids=["single", "3", "2x5"])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_lapack(self, n, kind, lead):
        rng = np.random.default_rng(1000 * n + 10 * self.KINDS.index(kind) + len(lead))
        a = _stack(kind, lead, n, rng)
        lam, v = jacobi_eigh(a)
        assert lam.shape == (*lead, n) and v.shape == (*lead, n, n)
        assert lam.dtype == float
        norm = np.linalg.norm(a, axis=(-2, -1))[..., None]
        assert np.all(np.diff(lam, axis=-1) >= 0.0)
        assert np.all(np.abs(lam - np.linalg.eigvalsh(a)) <= 1e-13 * norm)
        residual = np.linalg.norm(a @ v - v * lam[..., None, :], axis=(-2, -1))
        assert np.all(residual <= 1e-13 * norm[..., 0])
        gram = v.conj().swapaxes(-1, -2) @ v
        assert np.all(np.linalg.norm(gram - np.eye(n), axis=(-2, -1)) <= 1e-13)

    def test_reads_the_lower_triangle(self):
        rng = np.random.default_rng(3)
        a = _hermitian(rng, (4, 3, 3))
        upper = np.triu_indices(3, 1)
        a[:, upper[0], upper[1]] = np.nan
        lam, v = jacobi_eigh(a)
        lam_ref, v_ref = np.linalg.eigh(a)
        assert np.allclose(lam, lam_ref, rtol=0.0, atol=1e-13 * np.abs(lam_ref).max())
        # the same eigenvectors up to phase (the spectrum is simple)
        overlap = np.abs(np.sum(v.conj() * v_ref, axis=-2))
        assert np.allclose(overlap, 1.0, rtol=0.0, atol=1e-12)

    def test_real_input(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        lam, v = jacobi_eigh(a)
        assert np.allclose(lam, [1.0, 3.0], rtol=0.0, atol=1e-15)
        assert np.allclose(a @ v, v * lam, rtol=0.0, atol=1e-15)

    def test_empty_stack(self):
        lam, v = jacobi_eigh(np.zeros((0, 3, 3), dtype=complex))
        assert lam.shape == (0, 3) and v.shape == (0, 3, 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.inf)])
    def test_non_finite_raises(self, bad):
        a = _hermitian(np.random.default_rng(4), (5, 3, 3))
        a[2, 2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            jacobi_eigh(a)

    def test_sweep_cap_raises(self, monkeypatch):
        a = _hermitian(np.random.default_rng(5), (8, 4, 4))
        monkeypatch.setattr(numerics, "JACOBI_MAX_SWEEPS", 2)
        with pytest.raises(np.linalg.LinAlgError, match="2 sweeps"):
            jacobi_eigh(a)
        # one rotation is exact at n = 2, so a single sweep converges
        monkeypatch.setattr(numerics, "JACOBI_MAX_SWEEPS", 1)
        lam, _ = jacobi_eigh(a[:, :2, :2])
        assert np.allclose(lam, np.linalg.eigvalsh(a[:, :2, :2]), rtol=0.0, atol=1e-14)


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

    def test_matches_active_set_scan(self):
        # the scan that drops the weakest channel while the level stays below
        # its 1/g; the level arithmetic is the same, so results are equal
        def scan(g, total):
            order = np.argsort(g)[::-1]
            inv = 1.0 / g[order[: int(np.sum(g > 0.0))]]
            n = inv.size
            level = (total + inv.sum()) / n
            while n > 1 and level < inv[n - 1]:
                n -= 1
                level = (total + inv[:n].sum()) / n
            powers = np.zeros_like(g)
            powers[order[:n]] = level - inv[:n]
            return powers

        rng = np.random.default_rng(29)
        cases = [(rng.uniform(1e2, 1e3, 1024), 20.0)]  # every channel active
        for _ in range(300):
            n = int(rng.integers(1, 300))
            g = np.exp(rng.uniform(-15.0, 10.0, n)) * (rng.uniform(size=n) > 0.1)
            g[0] = max(g[0], 1e-3)
            cases.append((g, float(np.exp(rng.uniform(-5.0, 8.0)))))
        for g, total in cases:
            assert np.array_equal(water_fill(g, total), scan(g, total))

    def test_adversarial_gains_kkt(self):
        # 24 strong gains, 1000 gains spread over six decades around the level
        # and three repeated ones: the cut lands among the weak gains
        rng = np.random.default_rng(23)
        g = rng.permutation(np.concatenate(
            [rng.uniform(1e2, 1e3, 24), np.logspace(-3, 3, 1000), [0.05] * 3]
        ))
        total = 20.0
        p = water_fill(g, total)
        assert p.sum() == pytest.approx(total, rel=1e-12)
        active = p > 0.0
        assert 24 < active.sum() < g.size
        level = (total + np.sum(1.0 / g[active])) / active.sum()
        assert np.allclose(p[active] + 1.0 / g[active], level, rtol=1e-12, atol=0.0)
        assert np.all(1.0 / g[~active] >= level)

    def test_monotone_in_gain(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            g = rng.uniform(0.0, 4.0, rng.integers(2, 12))
            if not np.any(g > 0):
                g[0] = 1.0
            p = water_fill(g, rng.uniform(0.5, 5.0))
            order = np.argsort(g)
            assert np.all(np.diff(p[order]) >= -1e-12)
