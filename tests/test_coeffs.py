import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intricacy.coeffs import (
    CoefficientSystem,
    parse_coeffs,
    validate,
)
from intricacy.errors import CapExceeded
from intricacy.properties import _systems

ALL_SYSTEMS = [
    CoefficientSystem.uniform(),
    CoefficientSystem.neural(),
    CoefficientSystem.p_symmetric(0.3),
    CoefficientSystem.from_measure([(0.25, 0.25)], lebesgue_mass=0.5),
]

PSYM_GRID = (0.05, 0.3, 0.5, 0.7, 0.95)


# the weights in closed form, apart from the moment code they are checked against
def uniform_form(n, k):
    return 2.0**-n


def neural_form(n, k):
    return 1.0 / ((n + 1) * math.comb(n, k))


def psym_form(p, n, k):
    q = 1.0 - p
    return 0.5 * (p**k * q ** (n - k) + q**k * p ** (n - k))


class TestWeightValues:
    def test_uniform(self):
        assert CoefficientSystem.uniform().weight(3, 2) == 0.125

    def test_neural(self):
        assert CoefficientSystem.neural().weight(2, 1) == pytest.approx(1 / 6, abs=1e-15)

    def test_point_mass_at_half_is_uniform(self):
        system = CoefficientSystem.from_measure([(0.5, 1.0)])
        assert system.weight(5, 3) == 0.03125

    def test_p_symmetric(self):
        # k=0 weight is the average of the two pure-product weights
        got = CoefficientSystem.p_symmetric(0.3).weight(2, 0)
        assert got == pytest.approx(0.5 * (0.7**2 + 0.3**2), abs=1e-15)
        assert got == pytest.approx(0.29, abs=1e-12)

    def test_closed_forms_to_the_horizon(self):
        uniform, neural = CoefficientSystem.uniform(), CoefficientSystem.neural()
        psyms = {p: CoefficientSystem.p_symmetric(p) for p in PSYM_GRID}
        for n in range(1, 65):
            for k in range(n + 1):
                assert uniform.weight(n, k) == uniform_form(n, k)
                assert neural.weight(n, k) == neural_form(n, k)
                for p, system in psyms.items():
                    assert system.weight(n, k) == psym_form(p, n, k)

    def test_horizon_and_range_errors(self):
        system = CoefficientSystem.uniform()
        with pytest.raises(CapExceeded):
            system.weight(65, 3)
        with pytest.raises(ValueError):
            system.weight(4, 5)
        with pytest.raises(ValueError):
            system.weight(4, -1)


class TestFromMeasure:
    def test_delta_half(self):
        system = CoefficientSystem.from_measure([(0.5, 1.0)])
        for n in range(1, 12):
            for k in range(n + 1):
                assert system.weight(n, k) == 0.5**n

    def test_pure_lebesgue_is_neural(self):
        system = CoefficientSystem.from_measure([], lebesgue_mass=1.0)
        for n in range(1, 65):
            for k in range(n + 1):
                assert system.weight(n, k) == neural_form(n, k)

    def test_mirrored_pair_matches_p_symmetric(self):
        system = CoefficientSystem.from_measure([(0.3, 0.5)])
        # the pair {0.3, 0.7} is stored once, at the point below 1/2
        assert (system.pairs, system.center_mass, system.lebesgue_mass) == (((0.3, 0.5),), 0, 0)
        for n in range(1, 65):
            for k in range(n + 1):
                assert system.weight(n, k) == psym_form(0.3, n, k)
        # an atom above 1/2 is stored as 1 - x, and 1 - (1 - x) == x there
        folded = CoefficientSystem.from_measure([(0.7, 0.5)])
        for n in range(1, 65):
            for k in range(n + 1):
                assert folded.weight(n, k) == psym_form(0.7, n, k)
        assert system.weight(2, 0) == pytest.approx(0.29, abs=1e-12)

    def test_rejects_boundary_atoms(self):
        with pytest.raises(ValueError):
            CoefficientSystem.from_measure([(0.0, 0.5), (0.25, 0.25)])
        with pytest.raises(ValueError):
            CoefficientSystem.from_measure([(1.0, 1.0)])

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            CoefficientSystem.from_measure([(0.3, -0.1)], lebesgue_mass=1.2)
        with pytest.raises(ValueError):
            CoefficientSystem.from_measure([(0.3, 0.2)])  # total 0.4

    @pytest.mark.parametrize(
        "spec,message",
        [("measure:0.3=nan", "mass nan is not finite"),
         ("measure:nan=0.5", "atom position nan is not in"),
         ("measure:0.3=0.25;lebesgue=nan", "lebesgue mass nan is not finite"),
         ("measure:0.3=inf", "mass inf is not finite")],
    )
    def test_rejects_non_finite(self, spec, message):
        # NaN passes the sign and total-mass comparisons
        with pytest.raises(ValueError, match=message):
            parse_coeffs(spec)

    def test_normalizes_within_tolerance(self):
        m = CoefficientSystem.from_measure([(0.3, 0.125 + 2e-10), (0.5, 0.25)], 0.5)
        total = 2.0 * sum(mass for _, mass in m.pairs) + m.center_mass + m.lebesgue_mass
        assert total == pytest.approx(1.0, abs=1e-15)

    def test_underflow_warns(self):
        system = CoefficientSystem.from_measure([(1e-200, 0.5)])
        with pytest.warns(RuntimeWarning, match="underflow"):
            assert system.weight(4, 2) == 0.0

    def test_rows_are_kept_read_only_and_warn_on_every_call(self):
        # the row is computed once per (measure, n); its underflow is not
        system = CoefficientSystem.from_measure([(1e-200, 0.5)])
        rows = []
        for again in (system, CoefficientSystem.from_measure([(1e-200, 0.5)])):
            with pytest.warns(RuntimeWarning, match=r"weight\(4,2\) underflowed") as caught:
                rows.append(again.weights_row(4))
            assert len(caught) == 1
        assert rows[0] is rows[1]
        assert not rows[0].flags.writeable
        with pytest.warns(RuntimeWarning):
            assert rows[0].tolist() == [system.weight(4, k) for k in range(5)]

    @pytest.mark.parametrize("system", _systems(), ids=lambda s: s.spec)
    def test_weight_is_the_row_entry(self, system):
        for n in range(1, 65):
            row = system.weights_row(n)
            assert [system.weight(n, k) for k in range(n + 1)] == row.tolist()
            assert all(type(system.weight(n, k)) is float for k in (0, n))

    def test_weight_warns_for_its_own_k_only(self):
        # of the row at n = 6, the weights of k = 2, 3, 4 underflow
        system = CoefficientSystem.from_measure([(1e-200, 0.5)])
        with pytest.warns(RuntimeWarning) as caught:
            system.weights_row(6)
        assert len(caught) == 3
        with pytest.warns(RuntimeWarning, match=r"weight\(6,3\) underflowed") as caught:
            assert system.weight(6, 3) == 0.0
        assert len(caught) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert system.weight(6, 1) > 0.0


class TestRecord:
    def test_value_type(self):
        # the key of the weight-row cache: immutable, equal and hashed by its fields
        m = CoefficientSystem.from_measure([(0.25, 0.25)], lebesgue_mass=0.5)
        same = CoefficientSystem(((0.25, 0.25),), 0.0, 0.5, "measure:0.25=0.25;lebesgue=0.5")
        assert m == same and hash(m) == hash(same)
        assert m != same._replace(lebesgue_mass=0.25)
        assert repr(m) == ("CoefficientSystem(pairs=((0.25, 0.25),), center_mass=0.0, "
                           "lebesgue_mass=0.5, spec='measure:0.25=0.25;lebesgue=0.5')")
        with pytest.raises(AttributeError):
            m.center_mass = 1.0
        assert m._replace(lebesgue_mass=0.25).lebesgue_mass == 0.25


class TestValidate:
    @pytest.mark.parametrize("system", ALL_SYSTEMS, ids=lambda s: s.spec)
    def test_builtins_pass(self, system):
        report = validate(system, 10)
        assert report.passed
        assert all(row["sum_deviation"] <= 1e-12 for row in report.rows)

    def test_uniform_deviation_is_zero(self):
        report = validate(CoefficientSystem.uniform(), 10)
        assert max(row["sum_deviation"] for row in report.rows) == 0.0

    def test_unnormalized_measure_fails(self):
        # built directly, so nothing normalized its total mass 0.5
        report = validate(CoefficientSystem(((0.3, 0.25),), 0.0, 0.0, "measure:0.3=0.25"), 3)
        assert not report.passed
        for row in report.rows:
            assert row["sum_deviation"] == pytest.approx(0.5, abs=1e-15)
            assert row["max_asymmetry"] == 0.0


class TestAxiomsProperty:
    @pytest.mark.parametrize("system", ALL_SYSTEMS, ids=lambda s: s.spec)
    def test_sum_to_one_and_symmetry_up_to_20(self, system):
        for n in range(1, 21):
            row = system.weights_row(n)
            total = sum(math.comb(n, k) * w for k, w in enumerate(row))
            assert abs(total - 1.0) <= 1e-12
            for k in range(n + 1):
                assert row[k] == row[n - k]  # exact as computed
                assert row[k] >= 0.0

    @given(p=st.floats(0.01, 0.99), n=st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_p_symmetric_axioms(self, p, n):
        system = CoefficientSystem.p_symmetric(p)
        row = system.weights_row(n)
        total = sum(math.comb(n, k) * w for k, w in enumerate(row))
        assert abs(total - 1.0) <= 1e-12
        assert all(row[k] == row[n - k] for k in range(n + 1))


class TestSpecStrings:
    @pytest.mark.parametrize(
        "spec",
        ["uniform", "neural", "psym:0.3", "measure:0.3=0.5", "measure:0.25=0.25;lebesgue=0.5"],
    )
    def test_roundtrip(self, spec):
        system = parse_coeffs(spec)
        again = parse_coeffs(system.spec)
        for n in (1, 4, 9):
            for k in range(n + 1):
                assert system.weight(n, k) == again.weight(n, k)

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            parse_coeffs("bogus:1")
        with pytest.raises(ValueError):
            parse_coeffs("measure:0.3=0.5;gamma=1")
