"""Tests for the delay-compensation design."""

import numpy as np
import pytest

from damlink.delay_design import InfeasibleError, choose_compensation_counts, solve_compensation_delays
from oracles import build_compensation_matrix, enumerate_alignment_sets


def _random_delay_list(rng, L, span=60):
    return sorted(rng.choice(np.arange(span + 1), size=L, replace=False).tolist())


class TestCompensationMatrix:
    def test_printed_3x2_example(self):
        expected = np.array(
            [
                [1, 0, 0, 1, 0],
                [1, 0, 0, 0, 1],
                [0, 1, 0, 1, 0],
                [0, 1, 0, 0, 1],
                [0, 0, 1, 1, 0],
                [0, 0, 1, 0, 1],
            ],
            dtype=float,
        )
        assert np.array_equal(build_compensation_matrix(3, 2), expected)

    def test_minimal_case(self):
        assert np.array_equal(build_compensation_matrix(1, 1), [[1.0, 1.0]])

    def test_rank_is_i_plus_r_minus_1(self):
        for I in range(1, 7):
            for R in range(1, 7):
                q = build_compensation_matrix(I, R)
                assert np.linalg.matrix_rank(q) == I + R - 1
                # each row couples exactly one stream delay and one branch delay
                assert np.all(q.sum(axis=1) == 2)
                assert np.all(q[:, :I].sum(axis=1) == 1)


class TestSolveCompensationDelays:
    def test_reference_example(self):
        plan = solve_compensation_delays([1, 3, 4, 5], 2, 3)
        assert plan.kappa == (0, 2)
        assert plan.mu == (0, 1, 2)
        assert plan.n_max == 5

    def test_single_path(self):
        plan = solve_compensation_delays([7], 1, 1)
        assert plan.kappa == (0,)
        assert plan.mu == (0,)
        assert plan.n_max == 7

    def test_base_alignments_hold_exactly(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            L = int(rng.integers(1, 9))
            n = _random_delay_list(rng, L)
            I = int(rng.integers(1, L + 1))
            R = L + 1 - I
            plan = solve_compensation_delays(n, I, R)
            n_max = plan.n_max
            for l in range(1, L + 1):
                if l > L - R:
                    assert plan.kappa[0] + plan.mu[L - l] + n[l - 1] == n_max
                else:
                    assert plan.kappa[I - l] + plan.mu[R - 1] + n[l - 1] == n_max

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            solve_compensation_delays([1, 2, 3], 1, 1)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            solve_compensation_delays([3, 1, 2], 2, 2)


class TestEnumerateAlignmentSets:
    def test_reference_example_counts(self):
        plan = solve_compensation_delays([1, 3, 4, 5], 2, 3)
        sets = enumerate_alignment_sets(plan, [1, 3, 4, 5])
        assert len(sets.desired) == 5
        assert sets.L_extra == 1
        assert len(sets.isi) == 19

    def test_single_path(self):
        plan = solve_compensation_delays([4], 1, 1)
        sets = enumerate_alignment_sets(plan, [4])
        assert sets.desired == ((1, 1, 1),)
        assert sets.isi == ()

    def test_partition_and_lower_bound(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            L = int(rng.integers(1, 8))
            n = _random_delay_list(rng, L)
            I = int(rng.integers(1, L + 1))
            R = L + 1 - I
            plan = solve_compensation_delays(n, I, R)
            sets = enumerate_alignment_sets(plan, n)
            assert len(sets.desired) + len(sets.isi) == I * R * L
            assert len(set(sets.desired) | set(sets.isi)) == I * R * L
            assert len(sets.desired) >= L


class TestChooseCompensationCounts:
    def test_bs_side_case(self):
        choice = choose_compensation_counts(128, 2, 3)
        assert (choice.I, choice.R, choice.case) == (3, 1, 1)
        assert choice.side == "bs-side"

    def test_ue_side_case(self):
        choice = choose_compensation_counts(4, 64, 5)
        assert (choice.I, choice.R, choice.case) == (1, 5, 2)
        assert choice.side == "ue-side"

    def test_single_side_case(self):
        choice = choose_compensation_counts(8, 8, 4)
        assert (choice.I, choice.R, choice.case) == (4, 1, 3)
        assert choice.side == "single-side"

    def test_double_side_singleton_interval(self):
        choice = choose_compensation_counts(4, 2, 5)
        assert (choice.I, choice.R, choice.case) == (4, 2, 4)

    def test_matches_brute_force_everywhere(self):
        def f(I, L):
            return L * (L + 1 - I) * I - L

        regimes = {  # (M_r >= L, M_t >= L) -> (case, side)
            (False, True): (1, "bs-side"),
            (True, False): (2, "ue-side"),
            (True, True): (3, "single-side"),
            (False, False): (4, "double-side"),
        }

        for M_t in range(1, 17):
            for M_r in range(1, 17):
                for L in range(1, 17):
                    lo, hi = max(1, L + 1 - M_r), min(L, M_t)
                    if lo > hi:
                        with pytest.raises(InfeasibleError):
                            choose_compensation_counts(M_t, M_r, L)
                        continue
                    choice = choose_compensation_counts(M_t, M_r, L)
                    assert lo <= choice.I <= hi
                    assert choice.R == L + 1 - choice.I
                    best = min(f(i, L) for i in range(lo, hi + 1))
                    assert f(choice.I, L) == best
                    assert (choice.case, choice.side) == regimes[M_r >= L, M_t >= L]
