import math

import numpy as np
import pytest

from intricacy._masks import product_table
from intricacy.coeffs import CoefficientSystem
from intricacy.errors import CapExceeded
from intricacy.sft import Sft, SubsetSpec
from intricacy.topo import (
    _asc_reduced,
    _finite_profile_slow,
    asc_series,
    finite_profile,
    int_series,
    recursion_check,
)

UNIFORM = CoefficientSystem.uniform()
SFT_I = [[1, 1, 0], [0, 0, 1], [1, 1, 0]]
SFT_2028_2 = [[1, 1, 1], [1, 1, 0], [1, 0, 0]]


class TestFiniteProfile:
    def test_table_row_one(self):
        prof = finite_profile(Sft(SFT_I), UNIFORM, 10)
        assert prof.asc == pytest.approx(0.399, abs=5e-4)
        assert prof.intricacy == pytest.approx(0.254, abs=5e-4)
        assert prof.h == pytest.approx(0.545, abs=5e-4)

    def test_table_row_two_of_second_pair(self):
        prof = finite_profile(Sft(SFT_2028_2), UNIFORM, 10)
        assert prof.asc == pytest.approx(0.472, abs=5e-4)
        assert prof.intricacy == pytest.approx(0.114, abs=5e-4)

    def test_full_shift_n1(self):
        prof = finite_profile(Sft.full_shift(2), UNIFORM, 1)
        assert prof.asc == pytest.approx(math.log(2) / 2, abs=1e-15)
        assert prof.intricacy == pytest.approx(0.0, abs=1e-15)

    def test_identity_two_asc_minus_h(self):
        for coeffs, tol in [(UNIFORM, 1e-12), (CoefficientSystem.neural(), 1e-9)]:
            prof = finite_profile(Sft(SFT_I), coeffs, 9)
            assert prof.intricacy == pytest.approx(2 * prof.asc - prof.h, abs=tol)

    def test_acc_identity_exact(self):
        s = Sft(SFT_I)
        p9 = finite_profile(s, UNIFORM, 9)
        p10 = finite_profile(s, UNIFORM, 10)
        assert p10.asc == pytest.approx(p10.acc + (9 / 20) * p9.asc, abs=1e-12)

    def test_alt_full_shift_closed_form(self):
        # sum over subsets of 2^|S| is (3/2)^n on average
        for n in (3, 6, 10):
            prof = finite_profile(Sft.full_shift(2), UNIFORM, n)
            assert prof.alt == pytest.approx(1.5**n, rel=1e-12)

    def test_alt_none_for_general_weights(self):
        assert finite_profile(Sft.full_shift(2), CoefficientSystem.neural(), 5).alt is None

    def test_alt_matches_direct_sum(self):
        s = Sft.golden_mean()
        n = 7
        direct = sum(s.count_words_at(SubsetSpec(n, m)) for m in range(1 << n)) / 2**n
        assert finite_profile(s, UNIFORM, n).alt == pytest.approx(direct, rel=1e-12)

    def test_widest_vectorized_window(self):
        # n = 23 fills the largest table (2^22 rows) instead of the per-mask path
        s = Sft(SFT_I)
        prof = finite_profile(s, UNIFORM, 23)
        assert prof.h == pytest.approx(math.log(s.complexity_count(23)) / 23, rel=1e-14)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            finite_profile(Sft.full_shift(2), UNIFORM, 25)
        with pytest.raises(CapExceeded):
            finite_profile(Sft.full_shift(2), UNIFORM, 10, block_k=60)

    def test_bounds_sample(self):
        for coeffs in (UNIFORM, CoefficientSystem.p_symmetric(0.3)):
            for n in range(1, 13):
                prof = finite_profile(Sft(SFT_I), coeffs, n)
                assert prof.intricacy >= -1e-12
                assert prof.asc <= prof.h + 1e-12


class TestEnumerationAgreement:
    # full enumeration vs the translate-reduced sum must agree
    @pytest.mark.parametrize("block_k", [0, 2])
    def test_reduced_vs_full(self, block_k):
        s = Sft.golden_mean()
        for coeffs in (UNIFORM, CoefficientSystem.neural()):
            for n in (3, 6, 9):
                full = finite_profile(s, coeffs, n, block_k=block_k).asc
                assert _asc_reduced(s, coeffs, n, block_k) == pytest.approx(full, abs=1e-12)

    def test_slow_path_matches_vectorized(self):
        # the per-mask route sums every mask with its complement; the table
        # route sums canonical masks by size, so an asymmetric table
        # system checks the intricacy reduction beyond weight symmetry
        s = Sft(SFT_I)
        asym = CoefficientSystem.from_table(
            {(n, k): (k + 1) / (n + 2) ** 3 for n in range(1, 11) for k in range(n + 1)}
        )
        systems = [UNIFORM, CoefficientSystem.neural(), CoefficientSystem.p_symmetric(0.3),
                   CoefficientSystem.from_measure([(0.2, 0.25)], lebesgue_mass=0.5), asym]
        for coeffs in systems:
            for n in (1, 2, 3, 6, 10):
                for block_k in (0, 1, 2, 3):
                    fast = finite_profile(s, coeffs, n, block_k=block_k)
                    slow = _finite_profile_slow(s, coeffs, n, block_k)
                    assert slow.h == pytest.approx(fast.h, abs=1e-12)
                    assert slow.asc == pytest.approx(fast.asc, abs=1e-12)
                    assert slow.intricacy == pytest.approx(fast.intricacy, abs=1e-12)
                    assert slow.acc == pytest.approx(fast.acc, abs=1e-12)
                    assert (slow.alt is None) == (fast.alt is None)
                    if fast.alt is not None:
                        assert slow.alt == pytest.approx(fast.alt, rel=1e-12)


class TestMaskTable:
    @pytest.mark.parametrize(
        "make",
        [lambda: Sft(SFT_I), Sft.golden_mean, lambda: Sft.full_shift(3),
         lambda: Sft.from_forbidden_words(3, ["00", "121"])],
        ids=["golden-pair-I", "gms", "full3", "forbidden"],
    )
    def test_rows_are_exact_canonical_counts(self, make):
        s = make()
        for n_bits in range(1, 11):
            table = product_table(n_bits, np.ones(s.alphabet_size), s.reach)
            assert table.shape == (1 << (n_bits - 1),)
            want = [s.count_words_at(SubsetSpec(n_bits, 2 * i + 1)) for i in range(len(table))]
            assert table.tolist() == want


class TestBlockCover:
    def test_full_shift_blocked_expectation(self):
        # every dilated pattern on the full shift counts 2^|dilation|, so
        # the profile equals an explicit coverage-probability sum
        n, k = 16, 2
        prof = finite_profile(Sft.full_shift(2), UNIFORM, n, block_k=k)
        expected = 0.0
        for j in range(n + k - 1):
            window = len([i for i in range(j - k + 1, j + 1) if 0 <= i < n])
            expected += 1.0 - 0.5**window
        expected *= math.log(2) / n
        assert prof.asc == pytest.approx(expected, abs=1e-9)
        assert prof.asc == pytest.approx((1 - 0.25) * math.log(2), abs=0.02)

    @pytest.mark.parametrize("make", [lambda: Sft.full_shift(2), Sft.golden_mean],
                             ids=["full2", "gms"])
    def test_trend_nondecreasing_and_below_entropy(self, make):
        s = make()
        h = s.topological_entropy()
        vals = [finite_profile(s, UNIFORM, 14, block_k=k).asc for k in range(4)]
        assert vals[0] == vals[1]  # width-1 blocks are plain positions
        for a, b in zip(vals, vals[1:]):
            assert b >= a - 1e-12
        assert all(v <= h + 1e-12 for v in vals)
        assert h - vals[3] <= 0.12 * h


class TestSeries:
    def test_full_shift_closed_form(self):
        est = asc_series(Sft.full_shift(2), terms=40)
        assert est.value == pytest.approx(math.log(2) / 2, abs=1e-9)
        assert int_series(Sft.full_shift(2), terms=40).value == pytest.approx(0.0, abs=1e-9)

    def test_tail_bound_brackets_truncation(self):
        s = Sft.golden_mean()
        short = asc_series(s, terms=12)
        long = asc_series(s, terms=50)
        assert abs(long.value - short.value) <= short.tail_bound

    def test_requires_square_positive(self):
        with pytest.raises(ValueError):
            asc_series(Sft(SFT_I), 20)

    def test_series_vs_finite_trend(self):
        s = Sft.golden_mean()
        est = asc_series(s, terms=20)
        asc20 = finite_profile(s, UNIFORM, 20).asc
        assert abs(asc20 - est.value) <= est.tail_bound + 0.01

    def test_fekete_gap_shrinks(self):
        for M in (None, [[0, 1, 1], [1, 1, 1], [1, 0, 1]]):
            s = Sft.golden_mean() if M is None else Sft(M)
            est = asc_series(s, terms=20)
            gaps = [finite_profile(s, UNIFORM, n).asc - est.value for n in range(2, 21)]
            assert all(g >= -est.tail_bound for g in gaps)
            assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))


class TestRecursion:
    def test_golden_mean(self):
        assert recursion_check(Sft.golden_mean(), 8).passed

    def test_full_shift_closed_form(self):
        rep = recursion_check(Sft.full_shift(2), 8)
        assert rep.passed
        assert rep.direct == pytest.approx(8 * 2**7 * math.log(2), rel=1e-12)

    def test_first_pair_matrix(self):
        assert recursion_check(Sft([[0, 1, 1], [1, 1, 1], [1, 0, 1]]), 10).passed

    def test_base_case(self):
        assert recursion_check(Sft.golden_mean(), 1).passed

    def test_hypothesis_failure(self):
        with pytest.raises(ValueError):
            recursion_check(Sft(SFT_I), 8)


class TestSubadditivity:
    def test_weighted_log_counts_subadditive(self):
        s = Sft.golden_mean()
        for coeffs in (UNIFORM, CoefficientSystem.neural(), CoefficientSystem.p_symmetric(0.3)):
            b = {n: n * finite_profile(s, coeffs, n).asc for n in range(1, 13)}
            for n in range(1, 7):
                for m in range(1, 7):
                    assert b[n + m] <= b[n] + b[m] + 1e-12
