import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intricacy import properties
from intricacy.errors import CapExceeded
from intricacy.properties import (_dedup_sfts, check_count_oracle, check_product_formula,
                                  count_words_at_oracle)
from intricacy.sft import Sft, SubsetSpec, log_spectral_radius

SFT_I = [[1, 1, 0], [0, 0, 1], [1, 1, 0]]
SFT_II = [[0, 1, 1], [1, 0, 1], [1, 0, 0]]


class TestSubsetSpec:
    def test_elements_and_gaps(self):
        s = SubsetSpec.from_elements(6, [1, 2, 5])
        assert s.elements == (1, 2, 5)
        assert s.gaps == (1, 3)
        assert s.runs == (2, 1)
        assert s.size == 3

    def test_complement(self):
        s = SubsetSpec.from_elements(5, [0, 2])
        c = s.complement()
        assert c.elements == (1, 3, 4)
        assert s.mask ^ c.mask == (1 << 5) - 1
        assert s.size + c.size == 5

    def test_canonical_preserves_gaps(self):
        s = SubsetSpec.from_elements(10, [3, 5, 8])
        c = s.canonical()
        assert c.elements[0] == 0
        assert c.gaps == s.gaps

    def test_dilate(self):
        s = SubsetSpec.from_elements(4, [0, 3])
        assert s.dilate(1).elements == (0, 3)
        assert s.dilate(2).elements == (0, 1, 3, 4)
        assert s.dilate(2).n == 5

    def test_bounds(self):
        with pytest.raises(ValueError):
            SubsetSpec(65, 0)
        with pytest.raises(ValueError):
            SubsetSpec(3, 1 << 3)
        with pytest.raises(ValueError):
            SubsetSpec.from_elements(3, [3])

    def test_value_type(self):
        # a key of caches and memo tables: immutable, equal and hashed by (n, mask)
        s = SubsetSpec(5, 0b10110)
        assert s == SubsetSpec.from_elements(5, [1, 2, 4]) and s != SubsetSpec(6, 0b10110)
        assert s != (5, 0b10110) and hash(s) == hash((5, 0b10110))
        assert len({s, SubsetSpec(5, 0b10110), s.complement()}) == 2
        assert repr(s) == "SubsetSpec(n=5, mask=22)"
        assert list(s) == [1, 2, 4]
        with pytest.raises(AttributeError):
            s.mask = 1
        with pytest.raises(AttributeError):
            del s.n
        assert (s.n, s.mask) == (5, 0b10110)


class TestBuild:
    def test_golden_mean_from_forbidden(self):
        s = Sft.from_forbidden_words(2, ["11"])
        assert s.adjacency.tolist() == [[1, 1], [1, 0]]
        assert s.symbol_labels == (0, 1)

    def test_full_shift_from_empty_forbidden(self):
        s = Sft.from_forbidden_words(2, [])
        assert s.adjacency.tolist() == [[1, 1], [1, 1]]

    def test_forbidden_symbols_only(self):
        # words of length 1 only: the other symbols, every pair allowed
        s = Sft.from_forbidden_words(3, ["1"])
        assert s.adjacency.tolist() == np.ones((2, 2)).tolist()
        assert s.symbol_labels == (0, 2)

    def test_adjacency_input_no_pruning(self):
        s = Sft(SFT_I)
        assert s.alphabet_size == 3
        assert s.adjacency.tolist() == SFT_I

    def test_longer_forbidden_word_recodes_blocks(self):
        # no "111": vertices are the four 2-blocks, and the word count
        # of length n matches direct enumeration-by-definition
        s = Sft.from_forbidden_words(2, ["111"])
        assert s.alphabet_size == 4
        for n in (1, 2, 3, 5):
            brute = [
                w
                for w in _all_words(2, n + 1)
                if "111" not in "".join(map(str, w))
            ]
            assert s.complexity_count(n) == len(brute)

    def test_pruning_iterates(self):
        # 2 -> nothing, and 1 -> only 2, so both fall away
        M = [[1, 1, 0], [0, 0, 1], [0, 0, 0]]
        s = Sft(M)
        assert s.alphabet_size == 1
        assert s.symbol_labels == (0,)

    def test_empty_shift_rejected(self):
        with pytest.raises(ValueError):
            Sft([[0, 1], [0, 0]])
        with pytest.raises(ValueError):
            Sft.from_forbidden_words(2, ["0", "1"])

    def test_malformed(self):
        with pytest.raises(ValueError):
            Sft([[1, 2], [1, 1]])
        with pytest.raises(ValueError):
            Sft([[1, 1, 1], [1, 1, 1]])
        with pytest.raises(ValueError):
            Sft.from_dict({"alphabet_size": 2})
        with pytest.raises(ValueError):
            Sft.from_dict(
                {"alphabet_size": 2, "adjacency": [[1, 1], [1, 0]], "forbidden_words": ["11"]}
            )


def _all_words(r, n):
    words = [()]
    for _ in range(n):
        words = [w + (a,) for w in words for a in range(r)]
    return words


class TestCounting:
    def test_golden_mean_gap_count(self):
        assert Sft.golden_mean().count_words_at([0, 2]) == 4

    def test_full_shift_powers(self):
        s = Sft.full_shift(2)
        for elems in ([1, 3, 4], [0, 5], [2]):
            assert s.count_words_at(elems) == 2 ** len(elems)

    def test_published_spot_checks(self):
        assert Sft(SFT_I).count_words_at([0, 1, 3]) == 13
        assert Sft(SFT_II).count_words_at([0, 1, 3]) == 11

    def test_empty_set_counts_one(self):
        assert Sft.golden_mean().count_words_at(SubsetSpec(4, 0)) == 1

    def test_complexity_count(self):
        assert Sft.golden_mean().complexity_count(3) == 5
        assert Sft.full_shift(2).complexity_count(10) == 1024
        # Fibonacci growth
        gm = Sft.golden_mean()
        assert [gm.complexity_count(n) for n in range(1, 8)] == [2, 3, 5, 8, 13, 21, 34]

    def test_complexity_count_is_full_window_count(self):
        for s in (Sft.golden_mean(), Sft(SFT_I)):
            for n in (1, 4, 9):
                assert s.complexity_count(n) == s.count_words_at(range(n))

    def test_big_counts_stay_exact(self):
        # beyond 64-bit territory
        assert Sft.full_shift(3).complexity_count(50) == 3**50

    @pytest.mark.parametrize("make", [Sft.golden_mean, lambda: Sft(SFT_I), lambda: Sft(SFT_II),
                                      lambda: Sft.from_forbidden_words(2, ["111"])],
                             ids=["golden", "I", "II", "no-111"])
    def test_word_counts_walk_once_for_every_length(self, make):
        s = make()
        counts = s.word_counts(8)
        assert counts == [s.complexity_count(k) for k in range(1, 9)]
        assert counts == [len(s.enumerate_words(k)) for k in range(1, 9)]
        with pytest.raises(ValueError):
            s.word_counts(0)


class TestEntropy:
    def test_golden_mean(self):
        phi = (1 + math.sqrt(5)) / 2
        assert Sft.golden_mean().topological_entropy() == pytest.approx(math.log(phi), abs=1e-10)

    def test_full_shift(self):
        assert Sft.full_shift(2).topological_entropy() == pytest.approx(math.log(2), abs=1e-12)

    def test_table_values(self):
        assert Sft(SFT_I).topological_entropy() == pytest.approx(0.481, abs=5e-4)
        assert Sft([[0, 1, 1], [1, 1, 1], [1, 0, 1]]).topological_entropy() == pytest.approx(
            0.810, abs=1e-3
        )

    def test_agrees_with_word_growth(self):
        # the local growth rate at n=30 is already within 0.01 of the limit
        for M in (SFT_I, SFT_II):
            s = Sft(M)
            rate = math.log(s.complexity_count(31) / s.complexity_count(30))
            assert s.topological_entropy() == pytest.approx(rate, abs=0.01)

    def test_periodic_shift_exact_without_warning(self):
        # bipartite with unequal parts: eigenvalues +-sqrt(2), so h = log 2 / 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = Sft([[0, 1, 1], [1, 0, 0], [1, 0, 0]]).topological_entropy()
        assert h == pytest.approx(math.log(2) / 2, abs=1e-12)

    def test_reducible_shift_has_zero_entropy(self):
        # a loop at 1 fed from the 2-cycle 0 <-> 2: every component has rho = 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = Sft([[0, 1, 1], [0, 1, 0], [1, 0, 0]]).topological_entropy()
        assert h == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "A, f, want",
        [
            # the 2-cycle 0 <-> 1 (mean -400) outweighs the loop at 2 (-500)
            ([[0, 1, 0], [1, 0, 1], [0, 0, 1]], [0.0, -800.0, -500.0], -400.0),
            # e^-745 is subnormal; the 2-cycle has mean -372.5
            ([[1, 1], [1, 0]], [-745.0, 0.0], -372.5),
            ([[0, 1], [1, 0]], [0.0, -800.0], -400.0),
        ],
        ids=["mixed-cycle", "golden-subnormal", "two-cycle"],
    )
    def test_wide_log_weight_spread_is_exact(self, A, f, want):
        # spreads beyond ~708 underflow plain exp(f - max f)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = log_spectral_radius(A, f)
        assert got == pytest.approx(want, abs=1e-12)

    def test_zero_radius_is_refused(self):
        # nilpotent: no cycle, so the radius is exactly 0, for one row or a stack
        for f in ([0.0, -800.0], [[0.0, -800.0], [1.0, 2.0]]):
            with pytest.raises(ValueError, match="no cycle"):
                log_spectral_radius([[0, 1], [0, 0]], f)

    def test_stack_rows_equal_one_row_calls(self):
        rng = np.random.default_rng(5)
        mats = [s.adjacency for _, s in _dedup_sfts()]
        mats += [Sft.full_shift(r).adjacency for r in range(2, 6)]
        mats += [[[0, 1, 0], [0, 0, 1], [1, 0, 0]]]  # periodic: a 3-cycle
        for A in mats:
            d = len(A)
            stack = np.vstack([np.zeros(d), rng.normal(0.0, 3.0, (4, d)),
                               rng.uniform(-800.0, 800.0, (4, d)), np.full(d, -800.0)])
            got = log_spectral_radius(A, stack)
            assert got.shape == (len(stack),)
            assert got.tolist() == [log_spectral_radius(A, f) for f in stack]
            assert got[0] == log_spectral_radius(A)


class TestOracle:
    @pytest.mark.parametrize("M", [SFT_I, SFT_II], ids=["I", "II"])
    def test_matches_fast_counts_exhaustively(self, M):
        s = Sft(M)
        for n in range(1, 9):
            for mask in range(1, 1 << n):
                spec = SubsetSpec(n, mask)
                assert s.count_words_at(spec) == count_words_at_oracle(s, spec)

    def test_golden_mean_n10(self):
        s = Sft.golden_mean()
        for mask in range(1, 1 << 10, 7):  # stride keeps it quick; suite covers the rest
            spec = SubsetSpec(10, mask)
            assert s.count_words_at(spec) == count_words_at_oracle(s, spec)

    def test_full_shift_slice(self):
        assert count_words_at_oracle(Sft.full_shift(2), [1, 3, 4]) == 8

    def test_cap(self):
        with pytest.raises(CapExceeded):
            Sft.full_shift(3).enumerate_words(20)

    def test_spot_check(self):
        assert count_words_at_oracle(Sft(SFT_II), [0, 1, 3]) == 11

    @pytest.mark.parametrize("suite", [check_count_oracle, check_product_formula])
    def test_suites_check_each_subset_once_and_flag_a_wrong_count(self, suite, monkeypatch):
        shifts = [s for _, s in _dedup_sfts()]
        if suite is check_product_formula:
            shifts = [s for s in shifts if s.is_square_positive()]
        rep = suite(5)
        # the count oracle also holds the per-size sums at block_k 0 and 2:
        # two cases per shift
        assert rep.passed and rep.cases == len(shifts) * (31 + 2 * (suite is check_count_oracle))
        exact = properties.product_table

        def off_at_0_2(n_bits, init, gap_mats):
            table = exact(n_bits, init, gap_mats)
            table[2] += 1  # the canonical mask 2 * 2 + 1 = 0b101
            return table

        monkeypatch.setattr(properties, "product_table", off_at_0_2)
        rep = suite(5)
        # each subset is held to the count of its translate to 0, so the
        # wrong count at {0, 2} fails it and its translates {1, 3} and {2, 4}
        assert len(rep.failures) == 3 * len(shifts)
        for a in range(3):
            assert sum(f"({a}, {a + 2})" in msg for msg in rep.failures) == len(shifts)

    def test_count_oracle_flags_wrong_per_size_sums(self, monkeypatch):
        exact = properties._count_sums

        def off_at_one_shape(sft, n, block_k):
            # the shape sum of {0, 1}, which every window of 2 or more holds
            phi, *rest = exact(sft, n, block_k)
            phi = phi.copy()
            phi[1, 2] += 1e-9
            return (phi, *rest)

        monkeypatch.setattr(properties, "_count_sums", off_at_one_shape)
        rep = check_count_oracle(5)
        # one failure per shift at each of block_k 0 and 2
        assert len(rep.failures) == 2 * len(_dedup_sfts())
        assert all("per-size sums" in msg for msg in rep.failures)
        for k in (0, 2):
            assert sum(f"at block_k {k} " in msg for msg in rep.failures) == len(_dedup_sfts())


class TestCountProperties:
    @given(mask=st.integers(1, (1 << 10) - 1))
    @settings(max_examples=80, deadline=None)
    def test_shift_invariance(self, mask):
        s = Sft.golden_mean()
        spec = SubsetSpec(10, mask)
        assert s.count_words_at(spec) == s.count_words_at(spec.canonical())

    @given(mask=st.integers(1, (1 << 10) - 1), drop=st.integers(0, 9))
    @settings(max_examples=80, deadline=None)
    def test_monotone(self, mask, drop):
        s = Sft(SFT_I)
        smaller = mask & ~(1 << drop)
        if smaller == 0:
            return
        assert s.count_words_at(SubsetSpec(10, smaller)) <= s.count_words_at(
            SubsetSpec(10, mask)
        )

    def test_submultiplicative_over_disjoint_unions(self):
        s = Sft(SFT_II)
        n = 8
        for m1 in range(1, 1 << n, 5):
            m2 = (((1 << n) - 1) ^ m1) & 0b10110101
            if m2 == 0:
                continue
            lhs = s.count_words_at(SubsetSpec(n, m1 | m2))
            assert lhs <= s.count_words_at(SubsetSpec(n, m1)) * s.count_words_at(
                SubsetSpec(n, m2)
            )

    def test_product_formula_on_square_positive(self):
        s = Sft([[1, 1, 1], [1, 1, 0], [1, 0, 0]])
        assert s.is_square_positive()
        for mask in range(1, 1 << 10):
            spec = SubsetSpec(10, mask)
            expected = math.prod(s.complexity_count(t) for t in spec.runs)
            assert s.count_words_at(spec) == expected

    @pytest.mark.parametrize(
        "make",
        [lambda: Sft(SFT_I), Sft.golden_mean, lambda: Sft.full_shift(3),
         lambda: Sft.from_forbidden_words(3, ["00", "121"])],
        ids=["golden-pair-I", "gms", "full3", "forbidden"],
    )
    def test_reach_powers_are_sign_of_matrix_powers(self, make):
        # boolean semiring: R[g-1] = sign(A^g), computed in integers
        s = make()
        R = s.reach_powers(8)
        assert R.shape == (8, s.alphabet_size, s.alphabet_size)
        for g in range(1, 9):
            Ag = np.linalg.matrix_power(s.adjacency, g)
            assert np.array_equal(R[g - 1], (Ag > 0).astype(int))
        assert s.reach_powers(0).shape == (0, s.alphabet_size, s.alphabet_size)

    @pytest.mark.parametrize(
        "adjacency",
        [[[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 1, 0, 0]],
         [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
         [[1, 1], [0, 1]]],
        ids=["primitive-exponent-10", "3-cycle", "reducible"],
    )
    def test_reach_powers_stop_at_saturation_exactly(self, adjacency):
        # every product of a loop with no early stop, against the stack that
        # stops multiplying at the first all-ones gap
        s = Sft(adjacency)
        A = s.adjacency
        ref = [A]
        for _ in range(29):
            ref.append(((ref[-1] @ A) > 0).astype(np.int64))
        for count in range(31):
            R = s.reach_powers(count)
            assert R.dtype == np.int64
            assert np.array_equal(R, np.array(ref[:count]).reshape(count, *A.shape))
