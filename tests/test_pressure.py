import math
import warnings

import numpy as np
import pytest

from intricacy.coeffs import CoefficientSystem
from intricacy.pressure import Potential, asp_profile, classical_pressure, weighted_count
from intricacy.sft import Sft, SubsetSpec
from intricacy.topo import finite_profile

UNIFORM = CoefficientSystem.uniform()
GOLDEN_PAIR_I = [[1, 1, 0], [0, 0, 1], [1, 1, 0]]
PAIR_A = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
PAIR_B = [[1, 1, 0], [0, 0, 1], [1, 1, 1]]
F1 = Potential.from_values({0: 0.0, 1: 0.0, 2: 1.0})
F2 = Potential.from_values({0: 0.0, 1: 1.0, 2: 0.0})


def zero_potential(r):
    return Potential.from_values({a: 0.0 for a in range(r)})


class TestWeightedCount:
    def test_zero_potential_reduces_to_count(self):
        s = Sft.full_shift(2)
        assert weighted_count(s, zero_potential(2), [0, 2, 3]) == 8.0

    def test_full_shift_independent_positions(self):
        got = weighted_count(Sft.full_shift(2), Potential.from_values({0: 0.0, 1: 1.0}), [0, 1])
        assert got == pytest.approx((1 + math.e) ** 2, rel=1e-12)

    def test_golden_mean_adjacent_pair(self):
        got = weighted_count(Sft.golden_mean(), Potential.from_values({0: 0.0, 1: 1.0}), [0, 1])
        assert got == pytest.approx(1 + 2 * math.e, rel=1e-12)

    def test_zero_potential_equals_count_exactly(self):
        s = Sft(PAIR_B)
        f0 = zero_potential(3)
        for n in (4, 7):
            for mask in range(1, 1 << n):
                spec = SubsetSpec(n, mask)
                assert weighted_count(s, f0, spec) == float(s.count_words_at(spec))

    def test_empty_set(self):
        assert weighted_count(Sft.full_shift(2), zero_potential(2), SubsetSpec(3, 0)) == 1.0

    def test_monotone_in_potential(self):
        s = Sft(PAIR_A)
        lo = Potential.from_values({0: 0.0, 1: 0.1, 2: 0.0})
        hi = Potential.from_values({0: 0.2, 1: 0.5, 2: 0.0})
        for mask in range(1, 1 << 6):
            spec = SubsetSpec(6, mask)
            assert weighted_count(s, lo, spec) <= weighted_count(s, hi, spec) + 1e-12

    def test_missing_symbol_rejected(self):
        with pytest.raises(ValueError):
            weighted_count(Sft(PAIR_A), Potential.from_values({0: 0.0, 1: 1.0}), [0, 1])


class TestAspProfile:
    def test_published_values_pair_a(self):
        s = Sft(PAIR_A)
        assert asp_profile(s, F1, UNIFORM, 10) == pytest.approx(0.660, abs=5e-4)
        assert asp_profile(s, F2, UNIFORM, 10) == pytest.approx(0.660, abs=5e-4)

    def test_published_values_pair_b(self):
        s = Sft(PAIR_B)
        assert asp_profile(s, F1, UNIFORM, 10) == pytest.approx(0.722, abs=5e-4)
        assert asp_profile(s, F2, UNIFORM, 10) == pytest.approx(0.633, abs=5e-4)

    def test_full_shift_approaches_closed_form(self):
        f = Potential.from_values({0: 0.0, 1: 1.0})
        target = 0.5 * math.log(1 + math.e)
        got = asp_profile(Sft.full_shift(2), f, UNIFORM, 14)
        assert got == pytest.approx(target, abs=1e-9)

    def test_zero_potential_equals_asc_bit_for_bit(self):
        for M in (PAIR_A, PAIR_B):
            s = Sft(M)
            for n in (4, 10):
                asc = finite_profile(s, UNIFORM, n).asc
                assert asp_profile(s, zero_potential(3), UNIFORM, n) == asc

    def test_monotone_in_potential(self):
        s = Sft(PAIR_B)
        lo = Potential.from_values({0: 0.0, 1: 0.0, 2: 0.0})
        hi = Potential.from_values({0: 0.0, 1: 0.3, 2: 0.1})
        assert asp_profile(s, lo, UNIFORM, 8) <= asp_profile(s, hi, UNIFORM, 8) + 1e-12

    def test_bounded_by_full_window_term(self):
        # each nonnegative-potential subset term is at most the full-window term
        s = Sft(PAIR_A)
        n = 8
        full = math.log(weighted_count(s, F1, SubsetSpec(n, (1 << n) - 1)))
        for mask in range(1, 1 << n, 3):
            assert math.log(weighted_count(s, F1, SubsetSpec(n, mask))) <= full + 1e-12

    def test_below_classical_pressure(self):
        s = Sft(PAIR_B)
        assert asp_profile(s, F1, UNIFORM, 10) <= classical_pressure(s, F1)


class TestClassicalPressure:
    def test_zero_potential_is_entropy(self):
        s = Sft.full_shift(2)
        assert classical_pressure(s, zero_potential(2)) == pytest.approx(math.log(2), abs=1e-12)

    def test_full_shift_rank_one(self):
        f = Potential.from_values({0: 0.0, 1: 1.0})
        assert classical_pressure(Sft.full_shift(2), f) == pytest.approx(
            math.log(1 + math.e), abs=1e-10
        )

    def test_golden_mean_zero_potential(self):
        phi = (1 + math.sqrt(5)) / 2
        got = classical_pressure(Sft.golden_mean(), zero_potential(2))
        assert got == pytest.approx(math.log(phi), abs=1e-10)

    def test_three_potential_closed_forms(self):
        # full r-shift: pressure is log of the total symbol weight
        for r, f in [(2, {0: 0.3, 1: -0.2}), (3, {0: 0.0, 1: 1.0, 2: 0.5}), (3, {0: 1.0, 1: 1.0, 2: 1.0})]:
            got = classical_pressure(Sft.full_shift(r), Potential.from_values(f))
            assert got == pytest.approx(math.log(sum(math.exp(v) for v in f.values())), abs=1e-6)


def eigen_pressure(A, f):
    """Independent reference: log rho(A diag(exp f)) from numpy eigenvalues,
    with f shifted by its maximum."""
    f = np.asarray(f, dtype=float)
    M = np.asarray(A, dtype=float) * np.exp(f - f.max())[None, :]
    return float(f.max() + np.log(np.max(np.abs(np.linalg.eigvals(M)))))


class TestExtremePotentials:
    def pressure_without_warning(self, A, f):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return classical_pressure(Sft(A), Potential.from_values(dict(enumerate(f))))

    def test_large_weight_on_one_symbol(self):
        got = self.pressure_without_warning(GOLDEN_PAIR_I, [0.0, 0.0, 30.0])
        assert got == pytest.approx(eigen_pressure(GOLDEN_PAIR_I, [0.0, 0.0, 30.0]), abs=1e-9)
        assert got == pytest.approx(15.000000153, abs=1e-9)

    def test_very_negative_constant_shifts_the_entropy(self):
        got = self.pressure_without_warning(GOLDEN_PAIR_I, [-800.0] * 3)
        h = Sft(GOLDEN_PAIR_I).topological_entropy()
        assert got == pytest.approx(h - 800.0, abs=1e-9)

    @pytest.mark.parametrize("const", [100.0, -800.0])
    def test_constant_potential_shifts_asp_exactly(self, const):
        # a constant c adds c E|S| / n = c / 2 under uniform weights; the
        # table is built from f - max f, so e^(100 n) never forms and
        # e^(-800) never underflows
        s = Sft.full_shift(2)
        f = Potential.from_values({0: const, 1: const})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = asp_profile(s, f, UNIFORM, 20)
        asc = finite_profile(s, UNIFORM, 20).asc
        assert got == pytest.approx(asc + const / 2, rel=1e-12)

    def test_spread_underflow_is_refused(self):
        # the golden mean cannot repeat 1, so every pattern on a long
        # enough S uses 0 several times: e^(-800 k) underflows to 0
        f = Potential.from_values({0: -800.0, 1: 0.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="spread 800"):
                asp_profile(Sft.golden_mean(), f, UNIFORM, 10)
