import math
from fractions import Fraction

import numpy as np
import pytest

from intricacy.coeffs import CoefficientSystem, SymmetricMeasure
from intricacy.errors import CapExceeded
from intricacy.markov import (
    _ROW_BLOCK,
    MarkovMeasure,
    asc_finite,
    asc_lambda,
    asc_series_markov,
    cylinder_measure,
    entropy_rate,
    gap_conditional_entropy,
    monte_carlo_asc,
    recode_higher_block,
    sampled_joint_entropy,
    sampled_joint_entropy_oracle,
    stationary,
)
from intricacy.sft import Sft, SubsetSpec

UNIFORM = CoefficientSystem.uniform()


def bernoulli_half():
    return MarkovMeasure.one_step([[0.5, 0.5], [0.5, 0.5]])


def gms_one_step(p00=0.618):
    return MarkovMeasure.one_step([[p00, 1 - p00], [1.0, 0.0]])


def full2(p00, p11):
    return MarkovMeasure.one_step([[p00, 1 - p00], [1 - p11, p11]])


def gms_two_step(p000, p100):
    P = [[p000, 1 - p000, 0.0], [0.0, 0.0, 1.0], [p100, 1 - p100, 0.0]]
    return MarkovMeasure(P, states=((0, 0), (0, 1), (1, 0)), block_len=2, alphabet_size=2)


def full2_two_block(p00, p11):
    # the 1-step full2 chain in its 2-block presentation (4 states)
    cond = {u + v: {"0": q0, "1": 1 - q0}
            for u in "01" for v, q0 in (("0", p00), ("1", 1 - p11))}
    return recode_higher_block(cond, Sft.full_shift(2))


def full3_two_step():
    # a genuine 2-step chain on three symbols: the next symbol depends on
    # both symbols of the block, and some transitions are zero (9 states)
    rows = [(0.2, 0.5, 0.3), (0.0, 0.6, 0.4), (0.7, 0.0, 0.3),
            (0.1, 0.1, 0.8), (0.5, 0.5, 0.0), (0.0, 0.0, 1.0),
            (0.3, 0.3, 0.4), (0.9, 0.0, 0.1), (0.25, 0.25, 0.5)]
    blocks = [u + v for u in "012" for v in "012"]
    cond = {b: {str(a): q for a, q in enumerate(row)} for b, row in zip(blocks, rows)}
    return recode_higher_block(cond, Sft.full_shift(3))


class TestStationary:
    def test_symmetric(self):
        np.testing.assert_allclose(stationary([[0.5, 0.5], [0.5, 0.5]]), [0.5, 0.5], atol=1e-14)

    def test_two_state_closed_form(self):
        p = stationary([[0.216, 0.784], [1.0, 0.0]])
        assert p[0] == pytest.approx((1 - 0.0) / (2 - 0.216 - 0.0), abs=1e-4)
        assert p[1] == pytest.approx((1 - 0.216) / (2 - 0.216), abs=1e-4)

    def test_gms_two_step_displayed_formula(self):
        p000 = p100 = 0.618
        m = gms_two_step(p000, p100)
        den = 2 * p000 - p100 - 2
        expected = [-p100 / den, p100 / (2 * den) + 0.5, p100 / (2 * den) + 0.5]
        np.testing.assert_allclose(m.p, expected, atol=1e-12)

    def test_reducible_rejected(self):
        with pytest.raises(ValueError, match="not unique"):
            stationary(np.eye(2))

    def test_fixed_by_chain(self):
        rng = np.random.Generator(np.random.PCG64(3))
        for _ in range(5):
            P = rng.uniform(0.05, 1.0, size=(3, 3))
            P /= P.sum(axis=1, keepdims=True)
            p = stationary(P)
            np.testing.assert_allclose(p @ P, p, atol=1e-10)
            assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_bad_rows(self):
        with pytest.raises(ValueError):
            stationary([[0.9, 0.2], [0.5, 0.5]])


class TestEntropyRate:
    def test_bernoulli(self):
        assert entropy_rate(bernoulli_half()) == pytest.approx(math.log(2), abs=1e-12)

    def test_gms(self):
        assert entropy_rate(gms_one_step()) == pytest.approx(0.481, abs=5e-4)

    def test_deterministic_chain(self):
        m = MarkovMeasure.one_step([[0.0, 1.0], [1.0, 0.0]], p=[0.5, 0.5])
        assert entropy_rate(m) == 0.0

    def test_block_chain_matches_base_process(self):
        assert entropy_rate(gms_two_step(0.618, 0.618)) == pytest.approx(0.481, abs=5e-4)


class TestGapConditionalEntropy:
    def test_bernoulli_any_gap(self):
        m = bernoulli_half()
        for i in (1, 2, 5, 9):
            assert gap_conditional_entropy(m, i) == pytest.approx(math.log(2), abs=1e-13)

    def test_gap_one_is_entropy_rate(self):
        m = gms_one_step()
        assert gap_conditional_entropy(m, 1) == pytest.approx(entropy_rate(m), abs=1e-12)

    def test_series_reproduces_published_value(self):
        assert asc_series_markov(gms_one_step(), 20).asc == pytest.approx(0.266, abs=1e-3)

    def test_block_len_cap(self):
        m = recode_higher_block(
            {"000": {"0": 0.5, "1": 0.5}, "001": {"0": 1.0}, "010": {"0": 0.5, "1": 0.5},
             "100": {"0": 0.5, "1": 0.5}, "101": {"0": 1.0}}, Sft.golden_mean()
        )
        with pytest.raises(ValueError):
            gap_conditional_entropy(m, 1)


class TestSeries:
    def test_bernoulli_row(self):
        s = asc_series_markov(full2(0.5, 0.5), 20)
        assert s.asc == pytest.approx(0.347, abs=5e-4)
        assert s.intricacy == pytest.approx(0.0, abs=5e-4)

    def test_interior_local_max_row(self):
        s = asc_series_markov(full2(0.905, 0.905), 20)
        assert s.asc == pytest.approx(0.209, abs=1e-3)
        assert s.intricacy == pytest.approx(0.104, abs=1e-3)

    def test_two_step_asc_max_row(self):
        s = asc_series_markov(gms_two_step(0.483, 0.569), 20)
        assert s.asc == pytest.approx(0.272, abs=1e-3)
        assert s.intricacy == pytest.approx(0.078, abs=1e-3)

    def test_intricacy_vanishes_on_independence_line(self):
        # the truncation error equals the tail bound exactly here, so
        # allow the comparison a few ulps
        for p00 in (0.2, 0.5, 0.8):
            s = asc_series_markov(full2(p00, 1 - p00), 20)
            assert abs(s.intricacy) <= s.tail_bound * (1 + 1e-9)

    def test_recoded_one_step_matches(self):
        # a 1-step chain pushed to its 2-block presentation keeps the series
        p00 = 0.618
        one = gms_one_step(p00)
        cond = {"00": {"0": p00, "1": 1 - p00}, "01": {"0": 1.0}, "10": {"0": p00, "1": 1 - p00}}
        two = recode_higher_block(cond, Sft.golden_mean())
        a1 = asc_series_markov(one, 20)
        a2 = asc_series_markov(two, 20)
        assert a2.asc == pytest.approx(a1.asc, abs=1e-12)
        assert a2.h == pytest.approx(a1.h, abs=1e-12)


class TestSampledJointEntropy:
    def test_bernoulli_counts_bits(self):
        m = bernoulli_half()
        for elems in ([0], [0, 3], [1, 2, 7]):
            assert sampled_joint_entropy(m, elems) == pytest.approx(
                len(elems) * math.log(2), abs=1e-12
            )

    def test_one_step_matches_oracle(self):
        m = gms_one_step()
        spec = SubsetSpec.from_elements(3, [0, 2])
        assert sampled_joint_entropy(m, spec) == pytest.approx(
            sampled_joint_entropy_oracle(m, spec), abs=1e-10
        )

    def test_two_step_block_window(self):
        # direct cylinder-measure enumeration over the admissible 3-words
        m = gms_two_step(0.618, 0.618)
        words = [w for w in _words(2, 3) if (1, 1) not in zip(w, w[1:])]
        assert len(words) == 5
        direct = -sum(
            cylinder_measure(m, w) * math.log(cylinder_measure(m, w)) for w in words
        )
        assert sampled_joint_entropy(m, [0, 1, 2]) == pytest.approx(direct, abs=1e-10)

    def test_exhaustive_oracle_small_windows(self):
        one = gms_one_step(0.37)
        two = gms_two_step(0.7, 0.25)
        for m in (one, two, full2_two_block(0.3, 0.8), full3_two_step()):
            for mask in range(1, 1 << 6):
                spec = SubsetSpec(6, mask)
                a = sampled_joint_entropy(m, spec)
                b = sampled_joint_entropy_oracle(m, spec)
                assert a == pytest.approx(b, abs=1e-12)

    def test_row_blocks_match_chain_rule(self):
        # 2^18 symbol tuples, more than one row block: the 2-block
        # presentation of a 1-step chain must give the chain-rule value
        assert 2**18 > _ROW_BLOCK
        spec = SubsetSpec.from_elements(
            40, [0, 1, 3, 4, 6, 9, 10, 12, 15, 17, 18, 21, 25, 26, 29, 33, 35, 39]
        )
        one = full2(0.3, 0.8)
        two = full2_two_block(0.3, 0.8)
        assert sampled_joint_entropy(two, spec) == pytest.approx(
            sampled_joint_entropy(one, spec), abs=1e-12
        )

    def test_tuple_cap(self):
        m = full3_two_step()
        assert sampled_joint_entropy(m, [0, 2, 5], cap=27) > 0
        with pytest.raises(CapExceeded):
            sampled_joint_entropy(m, [0, 2, 5, 6], cap=80)

    def test_entropy_below_log_count(self):
        sft = Sft.golden_mean()
        m = gms_one_step()
        for mask in range(1, 1 << 10):
            spec = SubsetSpec(10, mask)
            assert sampled_joint_entropy(m, spec) <= math.log(sft.count_words_at(spec)) + 1e-12


def _words(r, n):
    words = [()]
    for _ in range(n):
        words = [w + (a,) for w in words for a in range(r)]
    return words


class TestCylinderMeasure:
    def test_total_mass(self):
        for m in (gms_one_step(0.4), gms_two_step(0.3, 0.8)):
            for n in (1, 2, 4):
                total = sum(cylinder_measure(m, w) for w in _words(2, n))
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_forbidden_word_has_measure_zero(self):
        assert cylinder_measure(gms_two_step(0.3, 0.8), (1, 1, 0)) == 0.0

    def test_short_word_marginal(self):
        m = gms_two_step(0.618, 0.618)
        assert cylinder_measure(m, (0,)) == pytest.approx(m.p[0] + m.p[1], abs=1e-14)


class TestAscFinite:
    def test_bernoulli_exact(self):
        for n in (1, 5, 9):
            res = asc_finite(bernoulli_half(), UNIFORM, n)
            assert res.asc == pytest.approx(math.log(2) / 2, abs=1e-12)

    def test_gms_close_to_series(self):
        res = asc_finite(gms_one_step(), UNIFORM, 6)
        assert res.asc == pytest.approx(0.266, abs=0.02)
        assert res.series_value == pytest.approx(0.266, abs=1e-3)

    def test_boundary_family_row(self):
        # the window average converges to the published series value like
        # C/n: 0.019 away at n=10, inside 0.01 from n=20
        m = full2(0.216, 0.0)
        assert asc_finite(m, UNIFORM, 10).asc == pytest.approx(0.208, abs=0.02)
        assert asc_finite(m, UNIFORM, 20).asc == pytest.approx(0.208, abs=0.01)

    def test_intricacy_identity_uniform(self):
        res = asc_finite(gms_one_step(), UNIFORM, 8)
        assert res.intricacy == pytest.approx(2 * res.asc - res.h, abs=1e-12)
        assert res.intricacy >= -1e-12

    def test_two_step_matches_bruteforce_average(self):
        m = gms_two_step(0.618, 0.618)
        n = 5
        res = asc_finite(m, UNIFORM, n)
        direct = sum(
            sampled_joint_entropy_oracle(m, SubsetSpec(n, mask)) for mask in range(1 << n)
        ) / (n * 2**n)
        assert res.asc == pytest.approx(direct, abs=1e-10)

    @pytest.mark.parametrize(
        "make", [gms_one_step, lambda: full2(0.3, 0.8), lambda: gms_two_step(0.3, 0.8)],
        ids=["gms-1step", "full2", "gms-2step"],
    )
    def test_canonical_sums_match_every_mask(self, make):
        # brute force over all 2^n masks, each with its own complement
        m = make()
        asym = CoefficientSystem.from_table(
            {(n, k): (k + 1) / (n + 2) ** 3 for n in range(1, 9) for k in range(n + 1)}
        )
        for coeffs in (UNIFORM, CoefficientSystem.neural(), asym):
            for n in (1, 2, 5, 8):
                row = coeffs.weights_row(n)
                full = (1 << n) - 1
                H = [sampled_joint_entropy(m, SubsetSpec(n, mask)) for mask in range(1 << n)]
                asc = sum(row[bin(s).count("1")] * H[s] for s in range(1 << n)) / n
                intr = sum(
                    row[bin(s).count("1")] * (H[s] + H[full ^ s] - H[full]) for s in range(1 << n)
                ) / n
                res = asc_finite(m, coeffs, n, with_series=False)
                assert res.h == pytest.approx(H[full] / n, abs=1e-13)
                assert res.asc == pytest.approx(asc, abs=1e-13)
                assert res.intricacy == pytest.approx(intr, abs=1e-13)

    def test_finite_approaches_series_from_above(self):
        for m, n_max in [(gms_one_step(), 14), (full2(0.216, 0.0), 14), (gms_two_step(0.618, 0.618), 8)]:
            series = asc_series_markov(m, 20)
            gaps = []
            for n in range(4, n_max + 1):
                res = asc_finite(m, UNIFORM, n, with_series=False)
                gaps.append(res.asc - series.asc)
            assert all(g >= -series.tail_bound for g in gaps)
            assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))

    def test_caps(self):
        with pytest.raises(CapExceeded):
            asc_finite(gms_one_step(), UNIFORM, 21)
        with pytest.raises(CapExceeded):
            asc_finite(gms_two_step(0.5, 0.5), UNIFORM, 13)


class TestAscLambda:
    def test_delta_half_matches_series(self):
        for m in (bernoulli_half(), gms_one_step(), full2(0.216, 0.0)):
            lam = SymmetricMeasure.from_one_sided([(0.5, 1.0)])
            assert asc_lambda(m, lam, 20) == pytest.approx(
                asc_series_markov(m, 20).asc, abs=1e-12
            )

    def test_lebesgue_bernoulli_telescopes(self):
        lam = SymmetricMeasure.from_one_sided([], lebesgue_mass=1.0)
        K = 60
        partial = sum(Fraction(2, i * (i + 1) * (i + 2)) for i in range(1, K + 1))
        got = asc_lambda(bernoulli_half(), lam, K)
        assert got == pytest.approx(math.log(2) * float(partial), abs=1e-12)
        assert got == pytest.approx(math.log(2) / 2, abs=1e-3)

    def test_two_atom_measure_is_two_point_average(self):
        m = gms_one_step()
        lam = SymmetricMeasure.from_one_sided([(0.3, 0.5)])
        K = 40
        expected = 0.0
        for i in range(1, K + 1):
            h_i = gap_conditional_entropy(m, i)
            for p in (0.3, 0.7):
                expected += 0.5 * p**2 * (1 - p) ** (i - 1) * h_i
        assert asc_lambda(m, lam, K) == pytest.approx(expected, abs=1e-12)

    def test_block_chain_rejected(self):
        lam = SymmetricMeasure.from_one_sided([(0.5, 1.0)])
        with pytest.raises(ValueError):
            asc_lambda(gms_two_step(0.5, 0.5), lam, 10)


class TestMonteCarlo:
    def test_bernoulli_bias_is_exact_half_bit(self):
        est = monte_carlo_asc(bernoulli_half(), n=16, samples=2000, seed=42)
        target = math.log(2) / 2 * (1 + 1 / 32)
        assert abs(est.mean - target) <= 3 * est.stderr
        assert est.stderr > 0

    def test_gms_estimates_series_value(self):
        est = monte_carlo_asc(gms_one_step(), n=16, samples=5000, seed=42)
        series = asc_series_markov(gms_one_step(), 20)
        assert abs(est.mean - series.asc) <= 3 * est.stderr + 0.01

    def test_deterministic_for_fixed_seed(self):
        for make in (gms_one_step, lambda: gms_two_step(0.618, 0.618)):
            a = monte_carlo_asc(make(), n=8, samples=50, seed=7)
            b = monte_carlo_asc(make(), n=8, samples=50, seed=7)
            assert (a.mean, a.stderr) == (b.mean, b.stderr)
            c = monte_carlo_asc(make(), n=8, samples=50, seed=8)
            assert c.mean != a.mean

    @pytest.mark.parametrize("n", [8, 20])
    @pytest.mark.parametrize("make", [gms_one_step, lambda: full2(0.3, 0.8)], ids=["gms", "full2"])
    def test_one_step_matches_per_sample_loop(self, make, n):
        # the same PCG64 draws, summed sample by sample in Python
        m, samples, seed = make(), 300, 11
        rng = np.random.Generator(np.random.PCG64(seed))
        bits = rng.integers(0, 2, size=(samples, 2 * n), dtype=np.int64)
        bits[:, 0] = 1
        hs = {g: gap_conditional_entropy(m, g) for g in range(1, 2 * n)}
        hp = -sum(q * math.log(q) for q in m.p if q > 0)
        values = np.array([
            (hp + sum(hs[g] for g in np.diff(np.flatnonzero(row)))) / (2 * n) for row in bits
        ])
        est = monte_carlo_asc(m, n, samples, seed)
        assert est.mean == float(values.mean())
        assert est.stderr == float(values.std(ddof=1) / math.sqrt(samples))

    def test_single_sample_reproducible(self):
        a = monte_carlo_asc(gms_one_step(), n=8, samples=1, seed=123)
        b = monte_carlo_asc(gms_one_step(), n=8, samples=1, seed=123)
        assert a.mean == b.mean
        assert a.stderr == 0.0


class TestRecode:
    def test_gms_two_step_states_match_display(self):
        cond = {"00": {"0": 0.618, "1": 0.382}, "01": {"0": 1.0}, "10": {"0": 0.618, "1": 0.382}}
        m = recode_higher_block(cond, Sft.golden_mean())
        assert m.states == ((0, 0), (0, 1), (1, 0))
        np.testing.assert_allclose(
            m.P, [[0.618, 0.382, 0.0], [0.0, 0.0, 1.0], [0.618, 0.382, 0.0]], atol=1e-15
        )

    def test_one_step_recode_preserves_cylinders(self):
        p00 = 0.618
        one = gms_one_step(p00)
        cond = {"00": {"0": p00, "1": 1 - p00}, "01": {"0": 1.0}, "10": {"0": p00, "1": 1 - p00}}
        two = recode_higher_block(cond, Sft.golden_mean())
        for w in _words(2, 3):
            assert cylinder_measure(two, w) == pytest.approx(cylinder_measure(one, w), abs=1e-12)

    def test_bernoulli_recode_full_shift(self):
        cond = {
            "00": {"0": 0.5, "1": 0.5}, "01": {"0": 0.5, "1": 0.5},
            "10": {"0": 0.5, "1": 0.5}, "11": {"0": 0.5, "1": 0.5},
        }
        m = recode_higher_block(cond, Sft.full_shift(2))
        assert len(m.states) == 4
        assert entropy_rate(m) == pytest.approx(math.log(2), abs=1e-12)

    def test_support_violation_rejected(self):
        cond = {"00": {"0": 0.5, "1": 0.5}, "01": {"0": 0.9, "1": 0.1}, "10": {"0": 1.0}}
        with pytest.raises(ValueError, match="forbidden"):
            recode_higher_block(cond, Sft.golden_mean())

    def test_missing_row_rejected(self):
        with pytest.raises(ValueError, match="no conditional row"):
            recode_higher_block({"00": {"0": 1.0}}, Sft.golden_mean())


class TestMeasureValidation:
    def test_row_sums(self):
        with pytest.raises(ValueError):
            MarkovMeasure.one_step([[0.5, 0.4], [0.5, 0.5]])

    def test_overlap_condition(self):
        with pytest.raises(ValueError, match="overlap"):
            MarkovMeasure(
                [[0.5, 0.5], [0.5, 0.5]],
                states=((0, 0), (1, 1)),
                block_len=2,
            )

    def test_support_check(self):
        with pytest.raises(ValueError, match="admissible"):
            MarkovMeasure.one_step(
                [[0.5, 0.5], [0.5, 0.5]], support=Sft.golden_mean()
            )

    def test_supplied_p_checked(self):
        with pytest.raises(ValueError, match="stationary"):
            MarkovMeasure.one_step([[0.5, 0.5], [0.5, 0.5]], p=[0.9, 0.1])

    def test_from_dict_roundtrip(self):
        m = MarkovMeasure.from_dict(
            {"block_len": 2, "states": ["00", "01", "10"],
             "P": [[0.618, 0.382, 0.0], [0.0, 0.0, 1.0], [0.618, 0.382, 0.0]]}
        )
        assert m.block_len == 2
        assert m.states == ((0, 0), (0, 1), (1, 0))
