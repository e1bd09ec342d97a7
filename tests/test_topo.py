import itertools
import math
import tracemalloc

import numpy as np
import pytest

from intricacy import _masks
from intricacy._masks import moment_tables, product_table, shape_sums, table_shape_sums
from intricacy.benchmarks import SFT_BENCHMARKS
from intricacy.coeffs import CoefficientSystem
from intricacy.errors import CapExceeded
from intricacy.properties import (_asc_reduced, _finite_profile_slow, _random_primitive_sfts,
                                  _size_placements, _systems)
from intricacy.sft import Sft, SubsetSpec
from intricacy.topo import (
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

        monkeypatch.setattr("intricacy.topo.table_shape_sums", no_table)
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

        monkeypatch.setattr("intricacy.topo.table_shape_sums", no_table)
        for block_k in (0, 3):
            with pytest.raises(CapExceeded, match="n=24"):
                finite_profile(Sft.full_shift(2), UNIFORM, 24, block_k=block_k)

    def test_underflowed_weights_warn_end_to_end(self):
        # psym:1e-30 weighs a k-subset of 23 places about p^min(k, 23 - k) / 2,
        # below 1e-300 for k = 10..13: one warning each.  Nearly all the mass
        # is on the empty and the full window, so asc = acc = h / 2
        with pytest.warns(RuntimeWarning) as caught:
            prof = finite_profile(Sft(SFT_I), CoefficientSystem.p_symmetric(1e-30), 23)
        assert [str(w.message) for w in caught] == [
            f"weight(23,{k}) underflowed to 0" for k in range(10, 14)]
        assert prof.h == pytest.approx(0.5089908041443073, rel=1e-13)
        assert prof.asc == pytest.approx(0.25449540207215365, rel=1e-13)
        assert prof.acc == pytest.approx(0.25449540207215365, rel=1e-13)
        assert prof.intricacy == pytest.approx(0.0, abs=1e-15)

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


class TestSymmetries:
    # relabelling the vertices (P A P^T) or reversing time (A^T) leaves
    # every count average alone, though the kernels see other matrices
    @staticmethod
    def variants(A):
        # every other order of the vertices, and the transpose
        A = np.asarray(A)
        perms = list(itertools.permutations(range(len(A))))[1:]
        return {"transposed": A.T, **{f"relabelled {p}": A[np.ix_(p, p)] for p in perms}}

    @pytest.mark.parametrize("bench", SFT_BENCHMARKS, ids=lambda b: b.tag)
    @pytest.mark.parametrize("n", [5, 12, 16, 23])
    @pytest.mark.parametrize("block_k", [0, 2])
    def test_profiles_unchanged(self, bench, n, block_k):
        systems = _systems()
        want = finite_profiles(Sft(np.asarray(bench.adjacency)), systems, n, block_k)
        for name, A in self.variants(bench.adjacency).items():
            got = finite_profiles(Sft(A), systems, n, block_k)
            for w, g in zip(want, got):
                for field in ("h", "asc", "intricacy", "acc"):
                    assert getattr(g, field) == pytest.approx(getattr(w, field), rel=1e-13,
                                                              abs=0.0), (name, w.coeffs_spec, field)


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
                table = product_table(n_bits, *s.count_matrices(n_bits, k))
                want = [s.count_words_at(SubsetSpec(n_bits, 2 * i + 1).dilate(k))
                        for i in range(len(table))]
                assert table.tolist() == want


GOLDEN_PAIR_II = [[0, 1, 1], [1, 0, 1], [1, 0, 0]]
LOG2_FAMILY_5 = [[0, 1, 1], [1, 0, 1], [1, 0, 1]]
# primitive of exponent 5 on 5 vertices: split at D = 5, 6 and 8 at block_k 0, 2 and 4
PRIMITIVE_5 = [[1, 0, 1, 1, 0], [0, 0, 0, 0, 1], [0, 0, 0, 1, 0], [1, 1, 1, 1, 0],
               [1, 0, 0, 0, 0]]
PERIODIC = [[0, 1], [1, 0]]
REDUCIBLE = [[1, 1], [0, 1]]


def rank_one_gap(init, gap_mats) -> int:
    # the smallest gap D >= 2 from which every gap matrix is outer(init,
    # ones), n (one more than the widest gap) when even that one is not:
    # an exact scan, as the matrices hold 0/1 reach times symbol weights or
    # integer path counts
    mats = np.asarray(gap_mats, dtype=np.float64).reshape(-1, len(init), len(init))
    if len(mats) < 2 or (mats[-1] != init[:, None]).any():
        return len(mats) + 1
    off = np.flatnonzero((mats[1:-1] != init[:, None]).any(axis=(1, 2)))
    return int(off[-1]) + 3 if off.size else 2


def split_gap_shifts() -> list[Sft]:
    # the published shifts, the random primitive ones of the runs suite,
    # a shift of exponent 5, two with none (periodic, reducible) and forbidden-word
    # recodings on 2 and 3 symbols
    return ([Sft(np.asarray(b.adjacency)) for b in SFT_BENCHMARKS]
            + list(_random_primitive_sfts())
            + [Sft(A) for A in (PRIMITIVE_5, PERIODIC, REDUCIBLE)]
            + [Sft.from_forbidden_words(2, ["111"]), Sft.from_forbidden_words(3, ["012", "22"])])


class TestTableSizeSums:
    @staticmethod
    def from_table(n, init, mats, split):
        # the logs of the whole table's entries at the shapes, the canonical
        # masks whose gaps are all < split, binned by top and size; the
        # window's log; and 1 plus the entries at the n - top translates
        table = product_table(n, init, mats)
        masks = 2 * np.arange(len(table)) + 1
        top = np.floor(np.log2(masks)).astype(int)
        size = _masks.popcounts(n)[masks]
        # a mask is a shape when the places up to split - 2 past its
        # elements cover every place up to its top
        reach = masks.copy()
        for t in range(1, split - 1):
            reach |= masks << t
        shape = (reach & ((2 << top) - 1)) == (2 << top) - 1
        phi = np.zeros((n, n + 1))
        with np.errstate(divide="ignore"):
            np.add.at(phi, (top[shape], size[shape]), np.log(table[shape]))
            log_full = np.log(table[-1])
        return phi, log_full, 1.0 + ((n - top) * table).sum()

    @pytest.mark.parametrize("left_bits,block", [(1, 1), (3, 5), (4, 1 << 17), (16, 1 << 17)])
    def test_matches_the_table(self, left_bits, block, monkeypatch):
        # narrow left tables and small blocks take every split of the masks,
        # at the split gap of the shift and with no split (D = n); blocks of
        # one entry stop at n = 10, where they are 2^9 blocks per route
        monkeypatch.setattr(_masks, "LEFT_BITS", left_bits)
        monkeypatch.setattr(_masks, "BLOCK_ENTRIES", block)
        for A in (SFT_I, GOLDEN_PAIR_II, LOG2_FAMILY_5, PRIMITIVE_5, PERIODIC, REDUCIBLE):
            s = Sft(A)
            w = np.linspace(0.3, 2.5, s.alphabet_size)
            for n in range(1, 11 if block == 1 else 15):
                R = s.reach_powers(n - 1)
                cases = [(0, np.ones(s.alphabet_size), R), (0, w, R * w[:, None])] + [
                    (k, *s.count_matrices(n, k)) for k in (2, 4)]
                for k, init, mats in cases:
                    for split in {s.split_gap(n, k), n}:
                        got = table_shape_sums(n, init, mats, split, with_counts=True)
                        for a, b in zip(got, self.from_table(n, init, mats, split)):
                            np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("A,gaps", [(SFT_I, (3, 4)), (GOLDEN_PAIR_II, (4, 5)),
                                        (PERIODIC, (None, None)), (REDUCIBLE, (None, None))])
    def test_split_gap(self, A, gaps):
        # the exponent p of a primitive shift, k + p - 1 for k-blocks; no
        # split (n) on a periodic or reducible shift
        s = Sft(A)
        for n in (1, 2, 9, 20):
            for block_k, gap in zip((0, 2), gaps):
                assert s.split_gap(n, block_k) == min(gap or n, n)
                assert rank_one_gap(*s.count_matrices(n, block_k)) == min(gap or n, n)

    @pytest.mark.parametrize("weighted", [False, True], ids=["counts", "potential"])
    def test_split_gap_is_where_the_matrices_turn_rank_one(self, weighted):
        # the formula of Sft.split_gap against a scan of the count matrices
        # for the first gap from which all are outer(init, ones)
        rng = np.random.default_rng(5)
        for s in split_gap_shifts():
            lw = rng.uniform(-3.0, 3.0, s.alphabet_size) if weighted else None
            for n in range(1, 24):
                for block_k in range(6):
                    # vertex weights take block_k <= 1 only
                    want = rank_one_gap(*s.count_matrices(n, block_k, lw if block_k <= 1 else None))
                    assert s.split_gap(n, block_k) == want, (s.adjacency.tolist(), n, block_k)

    def test_weights_take_single_places_only(self):
        with pytest.raises(ValueError, match="block_k <= 1"):
            Sft(SFT_I).count_matrices(5, 2, np.zeros(3))

    def test_exponent_is_the_first_all_ones_reach(self):
        # one boolean product at a time up to Wielandt's bound, apart from
        # reach_powers, which stops its products at the exponent
        for s in split_gap_shifts():
            A = R = s.adjacency > 0
            full = []
            for g in range(1, (s.alphabet_size - 1) ** 2 + 2):
                full += [g] if R.all() else []
                R = R @ A
            assert s.exponent == (full[0] if full else None)
        assert Sft(PERIODIC).exponent is None and Sft(REDUCIBLE).exponent is None
        assert [Sft(A).exponent for A in (SFT_I, GOLDEN_PAIR_II, PRIMITIVE_5)] == [3, 4, 5]
        assert Sft.full_shift(3).exponent == 1 and Sft.golden_mean().exponent == 2

    def test_zero_entry_gives_minus_inf(self, monkeypatch):
        monkeypatch.setattr(_masks, "LEFT_BITS", 3)
        # every gap leads to symbol 0, which init weighs 0: each mask of two
        # or more places has entry 0, below and past the left table alike;
        # its log is -inf with no divide warning (a warning fails the test)
        mats = np.array([[[1.0, 0.0], [1.0, 0.0]]] * 5)
        phi, log_full, _ = table_shape_sums(6, np.array([0.0, 1.0]), mats, 6)
        shapes = _masks._cluster_shapes(6, 5) > 0
        assert phi[0, 1] == 0.0
        assert (phi[shapes][1:] == -math.inf).all() and (phi[~shapes] == 0.0).all()
        assert log_full == -math.inf

    @pytest.mark.parametrize("left_bits", [4, 12])
    def test_underflowed_shape_gives_minus_inf_never_nan(self, left_bits, monkeypatch):
        # golden-pair/II weighted by exp(f - max f), f = (-800, 0, 0): the
        # weight of symbol 0 underflows to 0, and every pattern of some
        # shape of each size from 3 on uses it.  Those shapes sum to -inf,
        # and the shapes of 1 and 2 places stay finite; nothing is NaN
        monkeypatch.setattr(_masks, "LEFT_BITS", left_bits)
        s = Sft(GOLDEN_PAIR_II)
        for n in (10, 14, 16):
            init, mats = s.count_matrices(n, 0, np.array([-800.0, 0.0, 0.0]))
            split = s.split_gap(n)
            assert split == rank_one_gap(init, mats) == 4
            got = table_shape_sums(n, init, mats, split, with_counts=True)
            assert not any(np.isnan(a).any() for a in got)
            for a, b in zip(got, self.from_table(n, init, mats, split)):
                np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-13)
            shapes = _masks._cluster_shapes(n, split - 1) > 0
            assert np.isfinite(got[0][:, :3][shapes[:, :3]]).all()
            assert (got[0][:, 3:] == -math.inf).any(axis=0).all()

    def test_holds_no_full_table(self):
        # golden-pair/I: the table would be 2^(n-1) x 3 floats, 12.6 MB at
        # n = 20 and 101 MB at n = 23, split at D = 3 or not at all
        s = Sft(SFT_I)
        for n, split in [(20, 3), (20, 20), (23, 3), (23, 23)]:
            init, mats = s.count_matrices(n)
            tracemalloc.start()
            try:
                table_shape_sums(n, init, mats, split, with_counts=True)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 5 * 2**20


def loop_size_sums(values, n):
    # the per-top-element loop of the per-size sums of a value at the
    # canonical masks, kept as the reference of shape_sums
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
    # the per-size sums of a value per cluster span from the shapes,
    # placements and binomials rebuilt on every call, summed by size last
    values = np.asarray(span_values, dtype=float)
    binomials = np.array([[math.comb(f, i) for i in range(n + 1)] for f in range(n + 1)], float)
    a = np.arange(n)
    d = a[:, None]
    free = d - np.minimum(a, kappa) - np.minimum(d - a, kappa)
    G = np.zeros((n + 1, n + 1))
    G[1:] = (binomials[free, : n + 1] * (a <= d)[..., None]).sum(axis=1)
    placements = np.concatenate([G[:0:-1], (G[1:] - G[:-1])[::-1]], axis=1)
    M = (values[:, None] * _masks._cluster_shapes(n, min(kappa, n - 1))).T @ placements
    k = np.add.outer(np.arange(n + 1), np.arange(n + 1))
    sums = np.bincount(np.concatenate([k, k + 2 * n + 1], axis=1).ravel(),
                       weights=M.ravel(), minlength=4 * n + 2)
    return sums[: n + 1], sums[2 * n + 1 : 3 * n + 2]


# the check suites' systems and one whose weights span 1e-39 to 0.5 at n = 23
SYSTEMS = [*_systems(), CoefficientSystem.p_symmetric(0.02)]


def averaged(phi, n, kappa, system):
    # (n asc, n acc): the dot products with the moment tables
    return tuple(float(np.vdot(phi, t)) for t in moment_tables(system, n, kappa))


def weighted(every, with_zero, n, system):
    # the same from per-size sums and the weights row
    row = system.weights_row(n)
    return float(row @ every), float(row @ with_zero)


class TestWindowTables:
    @pytest.mark.parametrize("n", range(1, 24))
    def test_cluster_sums_match_the_loop(self, n):
        # log word counts grow with the span; the run kernel's shape sums,
        # one value per span times the cluster shapes, averaged by the
        # moment tables, against the loop's per-size sums and the weights
        values = np.log(2.0) * np.arange(1, n + 1) + np.random.default_rng(n).uniform(0, 1, n)
        for kappa in {1, 2, 5, n - 1, n + 3}:
            phi = values[:, None] * _masks._cluster_shapes(n, min(kappa, n - 1))
            loop = loop_cluster_size_sums(values, n, kappa)
            for system in SYSTEMS:
                got, want = averaged(phi, n, kappa, system), weighted(*loop, n, system)
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("n", range(1, 24))
    def test_size_sums_match_the_loop(self, n):
        # values on the masks below m <= n positions, as wide as the row
        # table and wider, binned as shapes of kappa = n - 1
        for m in {min(n, _masks.LEFT_BITS), min(n, 16)}:
            values = np.random.default_rng(m).uniform(0.5, 9.0, 1 << (m - 1))
            phi = shape_sums(values, n)
            loop = loop_size_sums(values, n)
            for system in SYSTEMS:
                got, want = averaged(phi, n, n - 1, system), weighted(*loop, n, system)
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("n", range(1, 24))
    def test_moment_tables_are_the_weights_at_the_reference_placement(self, n):
        # W[s, j] = sum over i of weight(n, j + i) P[s, i], and W0 the same
        # with P0, for the shapes (j <= s + 1) and every kappa; 0 elsewhere
        shapes = np.tril(np.ones((n, n + 1)), 1) > 0
        for kappa in range(n):
            placements = _size_placements(n, kappa)
            for system in SYSTEMS:
                row = system.weights_row(n)
                for table, P in zip(moment_tables(system, n, kappa), placements):
                    want = np.array([[row[j:] @ P[s, : n + 1 - j] for j in range(n + 1)]
                                     for s in range(n)])
                    np.testing.assert_allclose(table[shapes], want[shapes], rtol=1e-13, atol=0)
                    assert (table[~shapes] == 0).all()

    def test_moment_tables_warn_as_the_weights_row_does(self):
        # psym:1e-31 underflows weight(20, 10), kept for every kappa and call
        system = CoefficientSystem.p_symmetric(1e-31)
        tables = []
        for kappa in (0, 1, 19, 40, 1):
            with pytest.warns(RuntimeWarning, match=r"weight\(20,10\) underflowed") as caught:
                tables.append(moment_tables(system, 20, kappa))
            assert len(caught) == 1
        # kept once per (system, n, kappa); no gap of the window exceeds 19
        assert tables[1] is tables[4] and tables[2] is tables[3]

    def test_moment_tables_read_the_weight_rows(self, monkeypatch):
        # the weight rows are the one cache of moments: a first table
        # evaluates the rows N <= n not yet kept, a second kappa none
        evaluated = []
        moment = CoefficientSystem.moment
        monkeypatch.setattr(CoefficientSystem, "moment",
                            lambda system, n, k: evaluated.append(n) or moment(system, n, k))
        system = CoefficientSystem.p_symmetric(0.1234567)
        for n in (1, 2, 3):
            system.weights_row(n)
        evaluated.clear()
        first = moment_tables(system, 6, 2)
        assert sorted(evaluated) == [4] * 5 + [5] * 6 + [6] * 7
        evaluated.clear()
        second = moment_tables(system, 6, 1)
        assert evaluated == [] and second is not first

    def test_cached_arrays_are_read_only(self):
        arrays = [*moment_tables(UNIFORM, 6, 2), _masks._cluster_shapes(6, 2),
                  *_masks._shapes(5, 5), *_masks._shapes(5, 3, 2), *_size_placements(6, 2)]
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

    def test_terms_to_the_last_nonzero_weight(self):
        # 2^1024 overflows a float, so each weight is taken as 2^-k directly;
        # from 1075 terms on every weight is 0, refused as a cap
        s = Sft.golden_mean()
        for terms in (1022, 1074):
            est = asc_series(s, terms)
            assert est.value == pytest.approx(asc_series(s, 60).value, abs=1e-15)
            assert 0.0 < est.tail_bound < 1e-300
        with pytest.raises(CapExceeded, match="terms=1075"):
            asc_series(s, 1075)

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
