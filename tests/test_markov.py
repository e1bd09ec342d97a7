import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from intricacy import markov
from intricacy.coeffs import CoefficientSystem, parse_coeffs
from intricacy.errors import CapExceeded
from intricacy.markov import (
    _ROW_BLOCK,
    MarkovMeasure,
    _block_entropies,
    _joint_entropies,
    asc_finite,
    asc_lambda,
    asc_series_markov,
    entropy_rate,
    gap_entropies,
    monte_carlo_asc,
    recode_higher_block,
    sampled_joint_entropy,
    stationary,
)
from intricacy.properties import _systems, cylinder_measure, sampled_joint_entropy_oracle
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
    return MarkovMeasure(P, states=((0, 0), (0, 1), (1, 0)), block_len=2)


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

    # 2^-30 (about 9.3e-10) keeps 1 - eps exact; the rounding of 1 - 1e-9
    # (1.1e-16), times the condition, moves p by 7e-9
    @pytest.mark.parametrize("eps,unique", [(2.0**-30, True), (8e-11, False), (1e-11, False)])
    def test_condition_decides_uniqueness_without_a_warning(self, eps, unique):
        # the normalized system has condition 1/eps: refused from 1e10 on
        P = [[1 - eps, eps], [eps, 1 - eps]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if unique:
                np.testing.assert_allclose(stationary(P), [0.5, 0.5], rtol=0, atol=1e-12)
            else:
                with pytest.raises(ValueError, match="not unique"):
                    stationary(P)

    def test_one_factorization_and_one_solve_per_stack(self, monkeypatch):
        calls = []
        for name in ("svd", "solve", "cond"):
            def spy(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
                calls.append((_name, [np.shape(a) for a in args]))
                return _real(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, spy)
        P = np.array([[[a, 1 - a], [0.3, 0.7]] for a in (0.1, 0.5, 0.9)] + [np.eye(2)])
        p, reasons = markov._stationary_stack(P)
        # one right-hand side per system: numpy < 2 reads a (d, 1) one
        # against a (G, d, d) stack as a stack of G vectors
        assert calls == [("svd", [(4, 2, 2)]), ("solve", [(3, 2, 2), (3, 2, 1)])]
        assert reasons[:3] == [None] * 3 and "not unique" in reasons[3]
        np.testing.assert_allclose(np.einsum("gi,gij->gj", p[:3], P[:3]), p[:3], atol=1e-15)

    @staticmethod
    def gathered(P):
        # the solve with the accepted chains always gathered out of the
        # stack and scattered back, and e_d taken from the identity
        reasons = markov._refusals(P)
        G, d = P.shape[:2]
        idx = np.flatnonzero([r is None for r in reasons])
        A = P[idx].transpose(0, 2, 1) - np.eye(d)
        A[:, -1] = 1.0
        sv = np.linalg.svd(A, compute_uv=False)
        unique = sv[:, -1] > 1e-10 * sv[:, 0]
        for g in idx[~unique]:
            reasons[g] = ("stationary vector is not unique or is ill-conditioned; "
                          "supply p explicitly")
        idx, A = idx[unique], A[unique]
        b = np.broadcast_to(np.eye(d)[:, -1:], (len(A), d, 1))
        x = np.clip(np.linalg.solve(A, b)[..., 0], 0.0, None)
        p = np.zeros((G, d))
        p[idx] = x / x.sum(axis=1, keepdims=True)
        return p, reasons

    @pytest.mark.parametrize("mix", ["accepted", "refused", "not-unique", "mixed"])
    def test_stack_matches_the_gathered_solve_bit_for_bit(self, mix):
        rng = np.random.Generator(np.random.PCG64(17))
        P = rng.uniform(0.05, 1.0, size=(24, 3, 3))
        P /= P.sum(axis=2, keepdims=True)
        kinds = {"accepted": [0], "refused": [1, 2, 3], "not-unique": [4],
                 "mixed": [0, 1, 2, 3, 4]}[mix]
        for g, kind in enumerate(np.resize(kinds, len(P))):
            if kind == 1:
                P[g, 0, 0] = np.nan
            elif kind == 2:
                P[g, 1] = [1.2, -0.1, -0.1]
            elif kind == 3:
                P[g, 2] *= 1.5
            elif kind == 4:
                P[g] = np.eye(3)
        p, reasons = markov._stationary_stack(P)
        want_p, want_reasons = self.gathered(P)
        assert reasons == want_reasons
        assert [x.hex() for x in p.ravel()] == [x.hex() for x in want_p.ravel()]

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

    @pytest.mark.parametrize(
        "P,p,field",
        [([[math.nan, 1.0], [0.5, 0.5]], None, "P"),
         ([[math.nan, 1.0], [0.5, 0.5]], [1 / 3, 2 / 3], "P"),
         ([[0.5, 0.5], [0.5, 0.5]], [math.nan, 0.5], "p"),
         ([[math.inf, 0.0], [0.5, 0.5]], None, "P")],
        ids=["P", "P-with-p", "p", "P-inf"],
    )
    def test_non_finite_input_is_refused(self, P, p, field):
        # NaN passes every comparison of the other checks
        with pytest.raises(ValueError, match=f"^{field} has non-finite entries"):
            MarkovMeasure.one_step(P, p)
        if p is None:
            with pytest.raises(ValueError, match="^P has non-finite entries"):
                stationary(P)

    def test_singular_solve_is_refused(self, monkeypatch):
        def singular(A, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(ValueError, match="singular"):
            stationary([[0.5, 0.5], [0.5, 0.5]])


class TestEntropyRate:
    def test_bernoulli(self):
        assert entropy_rate(bernoulli_half()) == pytest.approx(math.log(2), abs=1e-12)

    def test_gms(self):
        assert entropy_rate(gms_one_step()) == pytest.approx(0.481, abs=5e-4)

    def test_deterministic_chain(self):
        m = MarkovMeasure.one_step([[0.0, 1.0], [1.0, 0.0]], p=[0.5, 0.5])
        assert entropy_rate(m) == 0.0
        # +0.0, not the negated sum of terms 0 log 0 and 1 log 1 (-0.0)
        assert math.copysign(1.0, entropy_rate(m)) == 1.0

    def test_block_chain_matches_base_process(self):
        assert entropy_rate(gms_two_step(0.618, 0.618)) == pytest.approx(0.481, abs=5e-4)


class TestGapConditionalEntropy:
    def test_bernoulli_any_gap(self):
        m = bernoulli_half()
        hs = gap_entropies(m, 9)
        for i in (1, 2, 5, 9):
            assert hs[i - 1] == pytest.approx(math.log(2), abs=1e-13)

    def test_gap_one_is_entropy_rate(self):
        m = gms_one_step()
        assert gap_entropies(m, 1)[0] == pytest.approx(entropy_rate(m), abs=1e-12)

    def test_series_reproduces_published_value(self):
        assert asc_series_markov(gms_one_step(), 20).asc == pytest.approx(0.266, abs=1e-3)

    def test_block_len_cap(self):
        m = recode_higher_block(
            {"000": {"0": 0.5, "1": 0.5}, "001": {"0": 1.0}, "010": {"0": 0.5, "1": 0.5},
             "100": {"0": 0.5, "1": 0.5}, "101": {"0": 1.0}}, Sft.golden_mean()
        )
        with pytest.raises(ValueError):
            gap_entropies(m, 1)

    @pytest.mark.parametrize("make", [gms_one_step, lambda: gms_two_step(0.3, 0.8)],
                             ids=["1-step", "2-block"])
    def test_matches_step_by_step_powers(self, make):
        # P^g by repeated Q @ P; a block chain sums the columns of the
        # target states that end in each symbol
        m = make()
        want, Q = [], m.P
        for _ in range(12):
            X = Q if m.block_len == 1 else np.stack(
                [Q[:, [j for j, v in enumerate(m.states) if v[-1] == z]].sum(axis=1)
                 for z in range(m.alphabet_size)], axis=1)
            xlogx = np.where(X > 0, X * np.log(np.where(X > 0, X, 1.0)), 0.0)
            want.append(float(-(m.p[:, None] * xlogx).sum()))
            Q = Q @ m.P
        assert gap_entropies(m, 12).tolist() == want

    @pytest.mark.parametrize("make", [gms_one_step, lambda: gms_two_step(0.3, 0.8)],
                             ids=["1-step", "2-block"])
    def test_one_stack_serves_every_count(self, make, monkeypatch):
        # each power is computed once; every call reads a read-only slice of
        # the one stack, bit for bit what a fresh measure computes
        walked = []

        def spy(P, count, head=None):
            walked.extend(range(0 if head is None else head.shape[1], count))
            return real(P, count, head)

        real = markov._powers
        monkeypatch.setattr(markov, "_powers", spy)
        m = make()
        got = [gap_entropies(m, c).copy() for c in (5, 3, 12, 0, 9)]
        powers = m.powers(12)
        assert walked == list(range(12))
        assert powers.tolist() == make().powers(12).tolist()
        for c, hs in zip((5, 3, 12, 0, 9), got):
            assert hs.tolist() == gap_entropies(make(), c).tolist()
        for stack in (gap_entropies(m, 4), m.powers(4)):
            with pytest.raises(ValueError, match="read-only"):
                stack[0] = 0.0
        for call in (lambda: gap_entropies(m, -1), lambda: m.powers(-1)):
            with pytest.raises(ValueError, match="count must be >= 0"):
                call()

    @pytest.mark.parametrize("make", [gms_one_step, lambda: gms_two_step(0.3, 0.8)],
                             ids=["1-step", "2-block"])
    def test_no_gaps(self, make):
        # a one-place subset has no gaps: no powers, and H(p) alone
        m = make()
        assert gap_entropies(m, 0).shape == (0,)
        assert m.powers(0).shape == (0, *m.P.shape)
        assert sampled_joint_entropy(m, [0], 1) == pytest.approx(
            sampled_joint_entropy_oracle(m, [0], 1), abs=1e-13)


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

    @pytest.mark.parametrize("terms", [0, -2])
    def test_terms_below_one_refused(self, terms):
        with pytest.raises(ValueError, match="terms"):
            asc_series_markov(gms_one_step(), terms)


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

    def test_row_blocks_match_chain_rule(self, monkeypatch):
        # the even places 0..34 have no run of 2 to cut at, so the 2-block
        # presentation of a 1-step chain takes them as one piece of 2^18
        # symbol tuples, more than one row block; it must give the
        # chain-rule value
        spec = SubsetSpec.from_elements(40, range(0, 35, 2))
        one = full2(0.3, 0.8)
        two = full2_two_block(0.3, 0.8)
        pieces = []

        def recorded(m, powers, places):
            pieces.append(np.asarray(places).sum(axis=1))
            return _block_entropies(m, powers, places)

        monkeypatch.setattr(markov, "_block_entropies", recorded)
        assert sampled_joint_entropy(two, spec) == pytest.approx(
            sampled_joint_entropy(one, spec), abs=1e-12
        )
        assert 2 ** int(pieces[0].max()) > 2**15 == _ROW_BLOCK

    def test_tuple_cap(self, monkeypatch):
        m = full3_two_step()
        monkeypatch.setattr("intricacy.markov.ENUMERATION_CAP", 27)
        assert sampled_joint_entropy(m, [0, 2, 5]) > 0
        monkeypatch.setattr("intricacy.markov.ENUMERATION_CAP", 80)
        with pytest.raises(CapExceeded):
            sampled_joint_entropy(m, [0, 2, 5, 6])

    def test_entropy_below_log_count(self):
        sft = Sft.golden_mean()
        m = gms_one_step()
        for mask in range(1, 1 << 10):
            spec = SubsetSpec(10, mask)
            assert sampled_joint_entropy(m, spec) <= math.log(sft.count_words_at(spec)) + 1e-12


def canonical_places(n):
    # row i marks the places of the canonical mask 2i+1, as asc_finite takes them
    return (2 * np.arange(1 << (n - 1))[:, None] + 1) >> np.arange(n) & 1


BLOCK_CHAINS = [lambda: gms_two_step(0.7, 0.25), lambda: full2_two_block(0.3, 0.8), full3_two_step]
BLOCK_IDS = ["gms-2step", "full2-2block", "full3-2step"]


class TestBlockEntropies:
    @pytest.mark.parametrize("make", BLOCK_CHAINS, ids=BLOCK_IDS)
    def test_every_canonical_mask_matches_oracle(self, make):
        # the canonical masks of n = 8 hold those of every narrower window
        m, n = make(), 8
        H = _block_entropies(m, m.powers(n - 1), canonical_places(n))
        for i, h in enumerate(H):
            assert h == pytest.approx(
                sampled_joint_entropy_oracle(m, SubsetSpec(n, 2 * i + 1)), abs=1e-12)

    def test_any_list_of_rows_matches_one_by_one(self):
        # repeated, translated and unsorted rows of several widths in one call
        m = full3_two_step()
        rng = np.random.Generator(np.random.PCG64(3))
        places = rng.integers(0, 2, size=(60, 9)).astype(bool)
        places[:, 4] = True
        places[40:] = places[:20]
        H = _block_entropies(m, m.powers(8), places)
        for row, h in zip(places, H):
            elems = np.flatnonzero(row).tolist()
            assert h == pytest.approx(sampled_joint_entropy_oracle(m, elems), abs=1e-12)
        assert H[40:].tolist() == H[:20].tolist()

    @pytest.mark.parametrize("make", BLOCK_CHAINS, ids=BLOCK_IDS)
    def test_row_blocks_of_16_match_the_unsplit_pass(self, make, monkeypatch):
        # 16 rows split every level: the root's rows alone extend to 14 or more
        m = make()
        spec = SubsetSpec.from_elements(12, [0, 1, 3, 4, 6, 9, 11])
        unsplit = (asc_finite(m, CoefficientSystem.neural(), 8),
                   monte_carlo_asc(m, 6, 20, 5), sampled_joint_entropy(m, spec))
        monkeypatch.setattr(markov, "_ROW_BLOCK", 16)
        split = (asc_finite(m, CoefficientSystem.neural(), 8),
                 monte_carlo_asc(m, 6, 20, 5), sampled_joint_entropy(m, spec))
        fin, mc, h = unsplit
        for a, b in ((split[0].asc, fin.asc), (split[0].h, fin.h),
                     (split[0].intricacy, fin.intricacy), (split[1].mean, mc.mean),
                     (split[1].stderr, mc.stderr), (split[2], h)):
            assert a == pytest.approx(b, rel=1e-13, abs=1e-15)

    def test_place_63_matches_chain_rule(self):
        # the widest horizon: a mask over 64 places does not fit a signed int64
        elems = [0, 2, 3, 7, 11, 12, 19, 24, 30, 31, 38, 45, 50, 51, 57, 63]
        one, two = full2(0.3, 0.8), full2_two_block(0.3, 0.8)
        spec = SubsetSpec.from_elements(64, elems)
        assert sampled_joint_entropy(two, spec) == pytest.approx(
            sampled_joint_entropy(one, spec), abs=1e-12)
        places = np.zeros((2, 64), dtype=bool)
        places[0, elems] = True
        places[1, [0, 63]] = True
        H = _block_entropies(two, two.powers(63), places)
        assert H[0] == pytest.approx(sampled_joint_entropy(one, spec), abs=1e-12)
        assert H[1] == pytest.approx(sampled_joint_entropy(one, [0, 63]), abs=1e-12)

    def test_cap_refuses_before_any_row_is_built(self, monkeypatch):
        m = full3_two_step()

        def no_rows(a):
            raise AssertionError("a row was built")

        monkeypatch.setattr(markov, "ENUMERATION_CAP", 80)  # 3^4 = 81 tuples
        monkeypatch.setattr(markov, "_xlogx", no_rows)
        # each call meets a piece of 4 places: {0, 2, 4, 6} of the window
        # of 7 has no run to cut at, nor has {0, 2, 5, 6} before its run
        with pytest.raises(CapExceeded):
            asc_finite(m, UNIFORM, 7)
        with pytest.raises(CapExceeded):
            monte_carlo_asc(m, 4, 50, 1)
        with pytest.raises(CapExceeded):
            sampled_joint_entropy(m, [0, 2, 5, 6])

    def test_cap_bounds_each_piece(self, monkeypatch):
        # 3^6 and 3^7 tuples over S, but cut at its runs of 2 places S falls
        # into pieces of at most 3 places, as does every subset of a window of 4
        m = full3_two_step()
        elems = [[0, 1, 2, 3, 4, 5], [0, 2, 3, 4, 5, 6, 7]]
        want = [sampled_joint_entropy_oracle(m, e) for e in elems]
        fin = asc_finite(m, UNIFORM, 4)
        monkeypatch.setattr(markov, "ENUMERATION_CAP", 80)
        for e, h in zip(elems, want):
            assert sampled_joint_entropy(m, e) == pytest.approx(h, abs=1e-12)
        assert asc_finite(m, UNIFORM, 4) == fin


def full2_three_step():
    # a 3-step chain on two symbols (8 states) with seeded conditionals
    q = np.random.Generator(np.random.PCG64(11)).uniform(0.1, 0.9, size=8)
    cond = {f"{b:03b}": {"0": q[b], "1": 1 - q[b]} for b in range(8)}
    return recode_higher_block(cond, Sft.full_shift(2))


def cut_rows(m, width, seed):
    # seeded subsets whose gaps are mostly 1, so runs of every length, then
    # the edges: no run (past width 12, more than one row block of 2^15), a
    # run longer than block_len from place 0, the last place alone and at
    # the end of a run (place 63 at width 64)
    k = m.block_len
    most, free = (12, 16) if m.alphabet_size == 2 else (8, 10)  # places per row
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = []
    for _ in range(40):
        start = int(rng.integers(0, width - 1))
        rows.append(start + np.cumsum([0, *rng.choice([1, 1, 1, 2, 3, 5, 8], size=most - 1)]))
    rows += [range(0, 2 * free, 2), range(k + 2), [0, width - 1],
             [0, 3, *range(width - k - 1, width)], range(width - k, width)]
    places = np.zeros((len(rows), width), dtype=bool)
    for i, elems in enumerate(rows):
        places[i, [e for e in elems if e < width]] = True
    return places


class TestCutEntropies:
    @pytest.mark.parametrize("width", [12, 40, 64])
    @pytest.mark.parametrize("make", [*BLOCK_CHAINS, full2_three_step],
                             ids=[*BLOCK_IDS, "full2-3step"])
    def test_cut_matches_the_uncut_pass(self, make, width):
        m = make()
        places = cut_rows(m, width, width)
        uncut = _block_entropies(m, m.powers(width - 1), places)
        np.testing.assert_allclose(_joint_entropies(m, places), uncut, rtol=0, atol=1e-12)

    def test_windows_narrower_than_a_block(self):
        m = full2_three_step()
        for elems in ([0], [0, 1], [0, 2]):
            assert sampled_joint_entropy(m, elems) == pytest.approx(
                sampled_joint_entropy_oracle(m, elems), abs=1e-12)

    @pytest.mark.parametrize("elems", [[0, 2, 4, 6, 8], [0, 3, 4, 7, 9], [0, 1, 2, 5, 7, 8, 9],
                                       [1, 2, 3, 4, 6, 8], [0, 1, 2, 4, 5, 6, 9]],
                             ids=["no-run", "no-run-uneven", "two-runs", "long-run", "run-pair"])
    def test_many_states_in_row_blocks_of_16(self, elems, monkeypatch):
        # a 3-step chain on the full 3-shift has 27 states; blocks of 16
        # rows halve every level of more than 5 rows (each extends to 3)
        q = np.random.Generator(np.random.PCG64(27)).dirichlet(np.ones(3), size=27)
        cond = {f"{a}{b}{c}": {str(z): q[9 * a + 3 * b + c, z] for z in range(3)}
                for a in range(3) for b in range(3) for c in range(3)}
        m = recode_higher_block(cond, Sft.full_shift(3))
        assert len(m.states) == 27
        monkeypatch.setattr(markov, "_ROW_BLOCK", 16)
        assert sampled_joint_entropy(m, elems) == pytest.approx(
            sampled_joint_entropy_oracle(m, elems), rel=0, abs=1e-12)


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
        m = gms_one_step()
        assert asc_finite(m, UNIFORM, 6).asc == pytest.approx(0.266, abs=0.02)
        assert asc_series_markov(m).asc == pytest.approx(0.266, abs=1e-3)

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

    def test_underflowed_weights_warn_end_to_end(self):
        # psym:1e-31 weighs the 10-subsets of 20 places below 1e-300, and
        # no subset of 19 places
        system = CoefficientSystem.p_symmetric(1e-31)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            asc_finite(gms_one_step(), system, 19)
        with pytest.warns(RuntimeWarning) as caught:
            res = asc_finite(gms_one_step(), system, 20)
        assert [str(w.message) for w in caught] == ["weight(20,10) underflowed to 0"]
        assert res.h == pytest.approx(0.4866278127509693, rel=1e-13)
        assert res.asc == pytest.approx(0.24331390637548464, rel=1e-13)
        assert res.intricacy == pytest.approx(0.0, abs=1e-15)

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
        for n in (1, 2, 5, 8):
            full = (1 << n) - 1
            H = [sampled_joint_entropy(m, SubsetSpec(n, mask)) for mask in range(1 << n)]
            for coeffs in (UNIFORM, CoefficientSystem.neural()):
                row = coeffs.weights_row(n)
                asc = sum(row[bin(s).count("1")] * H[s] for s in range(1 << n)) / n
                intr = sum(
                    row[bin(s).count("1")] * (H[s] + H[full ^ s] - H[full]) for s in range(1 << n)
                ) / n
                res = asc_finite(m, coeffs, n)
                assert res.h == pytest.approx(H[full] / n, abs=1e-13)
                assert res.asc == pytest.approx(asc, abs=1e-13)
                assert res.intricacy == pytest.approx(intr, abs=1e-13)

    def test_finite_approaches_series_from_above(self):
        for m, n_max in [(gms_one_step(), 14), (full2(0.216, 0.0), 14), (gms_two_step(0.618, 0.618), 8)]:
            series = asc_series_markov(m, 20)
            gaps = []
            for n in range(4, n_max + 1):
                res = asc_finite(m, UNIFORM, n)
                gaps.append(res.asc - series.asc)
            assert all(g >= -series.tail_bound for g in gaps)
            assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))

    def test_caps(self):
        # a plain chain takes every window the weights reach, block chains 12
        with pytest.raises(CapExceeded, match="n=65"):
            asc_finite(gms_one_step(), UNIFORM, 65)
        with pytest.raises(CapExceeded):
            asc_finite(gms_two_step(0.5, 0.5), UNIFORM, 13)

    @pytest.mark.parametrize("system", _systems(), ids=lambda c: c.spec)
    def test_plain_chain_at_the_horizon(self, system):
        # n = 64 under every system: no weight underflows, and the bounds
        # 0 <= intricacy and asc <= h hold
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = asc_finite(gms_one_step(), system, 64)
        assert got.intricacy >= 0.0 and got.asc <= got.h
        assert got.h == pytest.approx(entropy_rate(gms_one_step()), rel=1e-2)


class TestAscLambda:
    def test_delta_half_matches_series(self):
        for m in (bernoulli_half(), gms_one_step(), full2(0.216, 0.0)):
            lam = CoefficientSystem.from_measure([(0.5, 1.0)])
            assert asc_lambda(m, lam, 20) == pytest.approx(
                asc_series_markov(m, 20).asc, abs=1e-12
            )

    def test_lebesgue_bernoulli_telescopes(self):
        lam = CoefficientSystem.from_measure([], lebesgue_mass=1.0)
        K = 60
        partial = sum(Fraction(2, i * (i + 1) * (i + 2)) for i in range(1, K + 1))
        got = asc_lambda(bernoulli_half(), lam, K)
        assert got == pytest.approx(math.log(2) * float(partial), abs=1e-12)
        assert got == pytest.approx(math.log(2) / 2, abs=1e-3)

    def test_two_atom_measure_is_two_point_average(self):
        m = gms_one_step()
        lam = CoefficientSystem.from_measure([(0.3, 0.5)])
        K = 40
        expected = 0.0
        for i, h_i in enumerate(gap_entropies(m, K).tolist(), 1):
            for p in (0.3, 0.7):
                expected += 0.5 * p**2 * (1 - p) ** (i - 1) * h_i
        assert asc_lambda(m, lam, K) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("spec", ["neural", "psym:0.3", "measure:0.25=0.25;lebesgue=0.5"])
    def test_takes_any_system(self, spec):
        # the gap-i weight is the system's moment(i + 1, 2)
        lam, m, K = parse_coeffs(spec), gms_one_step(), 30
        expected = sum(lam.moment(i + 1, 2) * h_i
                       for i, h_i in enumerate(gap_entropies(m, K).tolist(), 1))
        assert asc_lambda(m, lam, K) == expected

    def test_block_chain_rejected(self):
        lam = CoefficientSystem.uniform()
        with pytest.raises(ValueError):
            asc_lambda(gms_two_step(0.5, 0.5), lam, 10)

    @pytest.mark.parametrize("terms", [0, -2])
    def test_terms_below_one_refused(self, terms):
        lam = CoefficientSystem.uniform()
        with pytest.raises(ValueError, match="terms"):
            asc_lambda(gms_one_step(), lam, terms)


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
        hs = dict(enumerate(gap_entropies(m, 2 * n - 1).tolist(), 1))
        hp = -sum(q * math.log(q) for q in m.p if q > 0)
        values = np.array([
            (hp + sum(hs[g] for g in np.diff(np.flatnonzero(row)))) / (2 * n) for row in bits
        ])
        est = monte_carlo_asc(m, n, samples, seed)
        assert est.mean == float(values.mean())
        assert est.stderr == float(values.std(ddof=1) / math.sqrt(samples))

    @pytest.mark.parametrize("P,n,samples,seed,mean,stderr", [
        ([[0.618, 0.382], [1.0, 0.0]], 16, 2000, 42, "0x1.1a60d218b1012p-2", "0x1.eff1c2c2452d0p-11"),
        ([[0.3, 0.7], [0.2, 0.8]], 20, 500, 3, "0x1.13c6256af5edap-2", "0x1.ef457a023feb4p-10"),
        ([[0.5, 0.5], [0.5, 0.5]], 5, 300, 9, "0x1.8c0f0a7d19edcp-2", "0x1.8cfd7f76db322p-8"),
    ])
    def test_one_step_estimates_are_pinned(self, P, n, samples, seed, mean, stderr):
        # the README promises 1-step estimates unchanged bit for bit
        est = monte_carlo_asc(MarkovMeasure.one_step(P), n, samples, seed)
        assert (est.mean.hex(), est.stderr.hex()) == (mean, stderr)

    @pytest.mark.parametrize("n", [0, -1])
    def test_window_below_one_refused(self, n):
        with pytest.raises(ValueError, match="n must be"):
            monte_carlo_asc(gms_one_step(), n=n, samples=10, seed=1)

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

    @pytest.mark.parametrize("k", [1, 2])
    def test_labels_that_skip_a_symbol(self, k):
        # forbidding "1" of 3 symbols leaves the labels 0 and 2 on two
        # vertices; the chain reads them as its symbols and is the same
        # chain as on the full 2-shift with 2 read as 1
        blocks = ["".join(w) for w in itertools.product("02", repeat=k)]
        cond = {b: {"0": 0.2 + 0.1 * i, "2": 0.8 - 0.1 * i} for i, b in enumerate(blocks)}
        m = recode_higher_block(cond, Sft.from_forbidden_words(3, ["1"]))
        as_01 = str.maketrans("2", "1")
        ref = recode_higher_block({b.translate(as_01): {"0": row["0"], "1": row["2"]}
                                   for b, row in cond.items()}, Sft.full_shift(2))
        assert m.states == tuple(tuple(int(c) for c in b) for b in blocks)
        assert entropy_rate(m) == pytest.approx(entropy_rate(ref), rel=1e-14)
        assert asc_finite(m, UNIFORM, 6).asc == pytest.approx(asc_finite(ref, UNIFORM, 6).asc,
                                                             rel=1e-14)
        assert cylinder_measure(m, (0, 2, 2)) == pytest.approx(cylinder_measure(ref, (0, 1, 1)),
                                                               rel=1e-14)

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

    def test_states_distinct(self):
        # two states on one block: the symbols read would not pin the state down
        with pytest.raises(ValueError, match="distinct"):
            MarkovMeasure([[0.5, 0.5], [0.5, 0.5]], states=((0, 0), (0, 0)), block_len=2)

    def test_supplied_p_checked(self):
        with pytest.raises(ValueError, match="stationary"):
            MarkovMeasure.one_step([[0.5, 0.5], [0.5, 0.5]], p=[0.9, 0.1])

    def test_states_give_block_length_and_alphabet(self):
        # forbidding "1" of 3 symbols leaves labels 0 and 2: the alphabet runs to 2
        m = recode_higher_block({"00": {"0": 0.5, "2": 0.5}, "02": {"0": 1.0},
                                 "20": {"0": 0.5, "2": 0.5}, "22": {"0": 1.0}},
                                Sft.from_forbidden_words(3, ["1"]))
        assert (m.block_len, m.alphabet_size) == (2, 3)
        m = MarkovMeasure([[0.4, 0.6, 0], [0, 0, 1], [0.6, 0.4, 0]], states=["00", "01", "10"])
        assert (m.block_len, m.alphabet_size) == (2, 2)
        assert MarkovMeasure.one_step([[0.5, 0.5], [0.5, 0.5]]).block_len == 1

    def test_from_dict_roundtrip(self):
        m = MarkovMeasure.from_dict(
            {"block_len": 2, "states": ["00", "01", "10"],
             "P": [[0.618, 0.382, 0.0], [0.0, 0.0, 1.0], [0.618, 0.382, 0.0]]}
        )
        assert m.block_len == 2
        assert m.states == ((0, 0), (0, 1), (1, 0))

    def test_caller_arrays_stay_writable_and_the_measure_keeps_its_own(self):
        P = np.array([[0.5, 0.5], [0.25, 0.75]])
        p = np.array([1 / 3, 2 / 3])
        m = MarkovMeasure.one_step(P, p)
        P[0, 0], p[0] = 0.4, 0.0
        assert m.P[0, 0] == 0.5 and m.p[0] == 1 / 3
        for frozen in (m.P, m.p):
            with pytest.raises(ValueError, match="read-only"):
                frozen[0] = 0.0
