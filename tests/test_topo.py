import math
import tracemalloc

import numpy as np
import pytest

from intricacy import _masks
from intricacy._masks import product_table, size_sums, table_size_sums
from intricacy.coeffs import CoefficientSystem
from intricacy.errors import CapExceeded
from intricacy.properties import _asc_reduced, _finite_profile_slow
from intricacy.sft import Sft, SubsetSpec
from intricacy.topo import (
    _count_mats,
    asc_series,
    finite_profile,
    finite_profiles,
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

    def test_square_positive_shift_fills_no_table(self, monkeypatch):
        # the run-length kernel takes these shifts for every block_k; the
        # full window is one cluster of span n - 1, read as a word of
        # length n - 1 + max(block_k, 1)
        def no_table(*args, **kwargs):
            raise AssertionError("table built")

        monkeypatch.setattr("intricacy.topo.table_size_sums", no_table)
        s = Sft(SFT_2028_2)
        for block_k in (0, 3):
            prof = finite_profile(s, UNIFORM, 23, block_k=block_k)
            words = s.complexity_count(22 + max(block_k, 1))
            assert prof.h == pytest.approx(math.log(words) / 23, rel=1e-14)

    def test_cap(self, monkeypatch):
        with pytest.raises(CapExceeded):
            finite_profile(Sft.full_shift(2), UNIFORM, 25)
        with pytest.raises(CapExceeded):
            finite_profile(Sft.full_shift(2), UNIFORM, 10, block_k=60)

        # n = 24 would need 2^23 rows; it is refused before any table is built
        def no_table(*args, **kwargs):
            raise AssertionError("table built")

        monkeypatch.setattr("intricacy.topo.table_size_sums", no_table)
        for block_k in (0, 3):
            with pytest.raises(CapExceeded, match="n=24"):
                finite_profile(Sft.full_shift(2), UNIFORM, 24, block_k=block_k)

    def test_bounds_sample(self):
        for coeffs in (UNIFORM, CoefficientSystem.p_symmetric(0.3)):
            for n in range(1, 13):
                prof = finite_profile(Sft(SFT_I), coeffs, n)
                assert prof.intricacy >= -1e-12
                assert prof.asc <= prof.h + 1e-12


    @pytest.mark.parametrize("A", [SFT_I, SFT_2028_2])
    @pytest.mark.parametrize("n,block_k", [(1, 0), (5, 0), (9, 2)])
    def test_several_systems_match_one_at_a_time(self, A, n, block_k):
        s = Sft(A)
        systems = [CoefficientSystem.neural(), UNIFORM, CoefficientSystem.p_symmetric(0.3)]
        together = finite_profiles(s, systems, n, block_k=block_k)
        assert together == [finite_profile(s, c, n, block_k=block_k) for c in systems]
        assert [p.alt is None for p in together] == [True, False, True]


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
        # route (SFT_I) and the cluster route (SFT_2028_2, positive square)
        # sum by size and take the intricacy as 2 asc - h
        systems = [UNIFORM, CoefficientSystem.neural(), CoefficientSystem.p_symmetric(0.3),
                   CoefficientSystem.from_measure([(0.2, 0.25)], lebesgue_mass=0.5)]
        for s in (Sft(SFT_I), Sft(SFT_2028_2)):
            for coeffs in systems:
                for n in (1, 2, 3, 6, 10):
                    for block_k in (0, 1, 2, 3, 5, 12, 20):
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
            table = product_table(n_bits, np.ones(s.alphabet_size), s.reach_powers(n_bits - 1))
            assert table.shape == (1 << (n_bits - 1),)
            want = [s.count_words_at(SubsetSpec(n_bits, 2 * i + 1)) for i in range(len(table))]
            assert table.tolist() == want
            # a k-block cover keeps the 2^(n-1) rows and widens the gap matrices
            for k in (2, 4, 7):
                table = product_table(n_bits, *_count_mats(s, n_bits, k))
                want = [s.count_words_at(SubsetSpec(n_bits, 2 * i + 1).dilate(k))
                        for i in range(len(table))]
                assert table.tolist() == want


class TestTableSizeSums:
    @staticmethod
    def from_table(n, init, mats):
        table = product_table(n, init, mats)
        every, with_zero = size_sums(np.log(table), n)
        return every, with_zero, math.log(table[-1]), size_sums(table, n)[0]

    @pytest.mark.parametrize("left_bits,block", [(1, 1), (3, 5), (4, 1 << 17), (16, 1 << 17)])
    def test_matches_the_table(self, left_bits, block, monkeypatch):
        # narrow left tables and small blocks take every split of the masks
        monkeypatch.setattr(_masks, "LEFT_BITS", left_bits)
        monkeypatch.setattr(_masks, "BLOCK_ENTRIES", block)
        s = Sft(SFT_I)
        w = np.array([0.3, 1.0, 2.5])
        for n in range(1, 11):
            R = s.reach_powers(n - 1)
            cases = [(np.ones(3), R), (w, R * w[:, None])] + [
                _count_mats(s, n, k) for k in (2, 4)]
            for init, mats in cases:
                got = table_size_sums(n, init, mats, with_counts=True)
                want = self.from_table(n, init, mats)
                for a, b in zip(got, want):
                    np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-13)

    def test_zero_entry_gives_minus_inf(self, monkeypatch):
        monkeypatch.setattr(_masks, "LEFT_BITS", 3)
        # every gap leads to symbol 0, which init weighs 0: each mask of two
        # or more places has entry 0, below and past the left table alike;
        # its log is -inf with no divide warning (a warning fails the test)
        mats = np.array([[[1.0, 0.0], [1.0, 0.0]]] * 5)
        every, with_zero, log_full, _ = table_size_sums(6, np.array([0.0, 1.0]), mats)
        assert every[1] == with_zero[1] == 0.0
        assert (every[2:] == -math.inf).all() and (with_zero[2:] == -math.inf).all()
        assert log_full == -math.inf

    def test_holds_no_full_table(self):
        # n = 20 on a 3-symbol shift: the table would be 2^19 x 3 floats, 12.6 MB
        s = Sft(SFT_I)
        init, mats = _count_mats(s, 20)
        tracemalloc.start()
        try:
            table_size_sums(20, init, mats, with_counts=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20


def loop_size_sums(values, n):
    # the per-top-element loop that size_sums replaced, kept as its reference
    m = len(values).bit_length()
    every = np.zeros(n + 1)
    with_zero = np.zeros(n + 1)
    with_zero[1] = values[0]
    every[1] = n * values[0]
    pc = _masks.popcounts(max(m - 2, 0))
    for j in range(1, m):
        half = 1 << (j - 1)
        part = np.bincount(pc[:half], weights=values[half : 2 * half], minlength=j)
        with_zero[2 : j + 2] += part
        every[2 : j + 2] += (n - j) * part
    return every, with_zero


def loop_cluster_size_sums(span_values, n, kappa):
    # cluster_size_sums before its weights were kept per (n, kappa): shapes,
    # placements and binomials rebuilt on every call, summed by size last
    values = np.asarray(span_values, dtype=float)
    a = np.arange(n)
    d = a[:, None]
    free = d - np.minimum(a, kappa) - np.minimum(d - a, kappa)
    G = np.zeros((n + 1, n + 1))
    G[1:] = (_masks._BINOMIALS[free, : n + 1] * (a <= d)[..., None]).sum(axis=1)
    placements = np.concatenate([G[:0:-1], (G[1:] - G[:-1])[::-1]], axis=1)
    M = (values[:, None] * _masks._cluster_shapes(n, kappa)).T @ placements
    k = np.add.outer(np.arange(n + 1), np.arange(n + 1))
    sums = np.bincount(np.concatenate([k, k + 2 * n + 1], axis=1).ravel(),
                       weights=M.ravel(), minlength=4 * n + 2)
    return sums[: n + 1], sums[2 * n + 1 : 3 * n + 2]


class TestWindowTables:
    @pytest.mark.parametrize("n", range(1, 24))
    def test_cluster_sums_match_the_loop(self, n):
        # log word counts grow with the span; every and with_zero alike
        values = np.log(2.0) * np.arange(1, n + 1) + np.random.default_rng(n).uniform(0, 1, n)
        for kappa in {1, 2, 5, n - 1, n + 3}:
            got = _masks.cluster_size_sums(values, n, kappa)
            for a, b in zip(got, loop_cluster_size_sums(values, n, kappa)):
                np.testing.assert_allclose(a, b, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("n", range(1, 24))
    def test_size_sums_match_the_loop(self, n):
        # values on the masks below m <= n positions, cached (m <= LEFT_BITS)
        # and built per call (wider)
        for m in {min(n, _masks.LEFT_BITS), min(n, 16)}:
            values = np.random.default_rng(m).uniform(0.5, 9.0, 1 << (m - 1))
            for a, b in zip(size_sums(values, n), loop_size_sums(values, n)):
                np.testing.assert_allclose(a, b, rtol=1e-13, atol=0)

    def test_cached_arrays_are_read_only(self):
        arrays = [_masks._cluster_weights(6, 2), *_masks._mask_index(5)]
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[0] = 1


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

    @pytest.mark.parametrize("n", [0, -3])
    def test_window_below_one_is_refused(self, n):
        with pytest.raises(ValueError, match=f"n={n}"):
            recursion_check(Sft.golden_mean(), n)

    def test_window_is_the_tables(self):
        assert recursion_check(Sft.golden_mean(), 23).passed
        with pytest.raises(CapExceeded, match="n=24"):
            recursion_check(Sft.golden_mean(), 24)

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
