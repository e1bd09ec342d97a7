"""Self-contained property and oracle suites.

Each suite checks one structural fact about the implementation against
an independent route (brute-force enumeration, an algebraic identity, or
an axiom) and reports its case count and failures.  The CLI ``check``
subcommand runs them and exits nonzero on any failure; the acceptance
tests run the same functions at their published sizes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._masks import MAX_TABLE_BITS, popcounts
from .benchmarks import PRESSURE_F1, SFT_BENCHMARKS
from .coeffs import CoefficientSystem, SymmetricMeasure, validate
from .markov import (MarkovMeasure, _block_entropies, _projected_entropies, asc_finite,
                     asc_lambda, asc_series_markov, sampled_joint_entropy)
from .pressure import Potential
from .sft import Sft, SubsetSpec, log_spectral_radius
from .topo import (ComplexityProfile, _check_window, _run_sums, _table_sums, finite_profile,
                   finite_profiles)

__all__ = ["PropertyReport", "SUITES", "run_suites"]


@dataclass
class PropertyReport:
    name: str
    cases: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, message: str) -> None:
        self.cases += 1
        if not ok:
            self.failures.append(message)


@functools.cache
def _dedup_sfts() -> tuple[tuple[str, Sft], ...]:
    # built once per process: an Sft is immutable
    out = [("full-2-shift", Sft.full_shift(2)), ("golden-mean", Sft.golden_mean())]
    seen = set()
    for bench in SFT_BENCHMARKS:
        if bench.adjacency not in seen:
            seen.add(bench.adjacency)
            out.append((bench.tag, Sft(np.asarray(bench.adjacency))))
    return tuple(out)


def _systems() -> list[CoefficientSystem]:
    return [
        CoefficientSystem.uniform(),
        CoefficientSystem.neural(),
        CoefficientSystem.p_symmetric(0.3),
        CoefficientSystem.from_measure([(0.25, 0.25)], lebesgue_mass=0.5),
    ]


def check_coefficient_axioms(n_max: int = 20) -> PropertyReport:
    """Normalization and complement symmetry of the four built-in
    weighting systems, at 1e-12."""
    rep = PropertyReport("coefficient-axioms")
    for system in _systems():
        r = validate(system, n_max)
        for row in r.rows:
            rep.check(row["ok"], f"{system.spec}: axiom deviation at n={row['n']}: {row}")
    return rep


def check_measure_agreement(n_max: int = 20) -> PropertyReport:
    """Weights equal their closed forms, written out here apart from the
    moment code, bit for bit: 2^-n (uniform, point mass at 1/2),
    1/2 (p^k q^(n-k) + q^k p^(n-k)) (p-symmetric at p = 0.05, 0.3, 0.5,
    0.7, 0.95, mirrored two-point measure) and 1/((n+1) C(n,k)) (neural,
    Lebesgue measure).  One case per (n, k) for the atomic systems and
    one for the Lebesgue ones."""
    rep = PropertyReport("measure-closed-forms")

    def two_point(p):
        q = 1.0 - p
        return lambda n, k: 0.5 * (p**k * q ** (n - k) + q**k * p ** (n - k))

    atomic = [(CoefficientSystem.uniform(), lambda n, k: 0.5**n),
              (CoefficientSystem.from_measure([(0.5, 1.0)]), lambda n, k: 0.5**n),
              (CoefficientSystem.from_measure([(0.3, 0.5)]), two_point(0.3))]
    atomic += [(CoefficientSystem.p_symmetric(p), two_point(p))
               for p in (0.05, 0.3, 0.5, 0.7, 0.95)]
    lebesgue = [CoefficientSystem.neural(), CoefficientSystem.from_measure([], lebesgue_mass=1.0)]
    for n in range(1, n_max + 1):
        for k in range(n + 1):
            off = [system.spec for system, form in atomic if system.weight(n, k) != form(n, k)]
            rep.check(not off, f"{off} off the closed form at ({n},{k})")
            beta = 1.0 / ((n + 1) * math.comb(n, k))
            off = [system.spec for system in lebesgue if system.weight(n, k) != beta]
            rep.check(not off, f"{off} off 1/((n+1) C(n,k)) at ({n},{k})")
    return rep


def check_subadditivity(n_max: int = 6) -> PropertyReport:
    """b_n = sum_S c_S^n log N(S) satisfies b_{n+m} <= b_n + b_m for the
    uniform, neural and p-symmetric systems."""
    rep = PropertyReport("subadditivity")
    systems = [
        CoefficientSystem.uniform(),
        CoefficientSystem.neural(),
        CoefficientSystem.p_symmetric(0.3),
    ]
    shifts = [("golden-mean", Sft.golden_mean()),
              ("golden-pair/II", Sft(np.asarray(SFT_BENCHMARKS[1].adjacency)))]
    for name, sft in shifts:
        profiles = {n: finite_profiles(sft, systems, n) for n in range(1, 2 * n_max + 1)}
        for i, system in enumerate(systems):
            b = {n: n * prof[i].asc for n, prof in profiles.items()}
            for n in range(1, n_max + 1):
                for m_ in range(1, n_max + 1):
                    rep.check(
                        b[n + m_] <= b[n] + b[m_] + 1e-12,
                        f"{name}/{system.spec}: b_{n + m_} > b_{n} + b_{m_}",
                    )
    return rep


def check_product_formula(n_max: int = 10) -> PropertyReport:
    """For shifts with strictly positive squared adjacency matrix the
    count at S factors over the runs of S: N(S) = prod N(run length),
    exactly, for every nonempty subset S of {0..n_max-1} (the subsets of
    every narrower window among them)."""
    rep = PropertyReport("product-formula")
    for name, sft in _dedup_sfts():
        if not sft.is_square_positive():
            continue
        counts = dict(enumerate(sft.word_counts(n_max), 1))
        for mask in range(1, 1 << n_max):
            spec = SubsetSpec(n_max, mask)
            expected = math.prod(counts[t] for t in spec.runs)
            ok = sft.count_words_at(spec) == expected
            rep.check(ok, "" if ok else f"{name}: N({spec.elements}) != {expected}")
    return rep


def check_count_oracle(n_max: int = 8) -> PropertyReport:
    """Transfer-matrix counts equal brute-force projection counts for
    every nonempty subset of {0..n_max-1} (the subsets of every narrower
    window among them), on every benchmark shift."""
    rep = PropertyReport("count-oracle")
    places = np.arange(n_max)
    for name, sft in _dedup_sfts():
        words = np.array(sft.enumerate_words(n_max), dtype=np.int64)
        # radix-encode each word's projection onto a mask to one integer
        # (fits easily in int64 for these alphabets and windows); a column
        # of codes per mask, sorted, has one step per further distinct
        # projection.  Blocks of masks keep the code matrix near 2^21 entries.
        encode = sft.alphabet_size ** places
        step = max(1, (1 << 21) // len(words))
        for lo in range(1, 1 << n_max, step):
            masks = np.arange(lo, min(lo + step, 1 << n_max))
            codes = np.sort(words @ ((masks >> places[:, None] & 1) * encode[:, None]), axis=0)
            seen = 1 + np.count_nonzero(np.diff(codes, axis=0), axis=0)
            for mask, distinct in zip(masks.tolist(), seen.tolist()):
                spec = SubsetSpec(n_max, mask)
                ok = sft.count_words_at(spec) == distinct
                rep.check(ok, "" if ok else f"{name}: count mismatch at {spec.elements}")
    return rep


def check_count_invariances(n_max: int = 8) -> PropertyReport:
    """Shift invariance N(S) = N(S - min S), monotonicity under subset
    inclusion, and submultiplicativity over disjoint unions."""
    rep = PropertyReport("count-invariances")
    for name, sft in [("golden-mean", Sft.golden_mean()),
                      ("golden-pair/I", Sft(np.asarray(SFT_BENCHMARKS[0].adjacency)))]:
        n = n_max
        N = {mask: sft.count_words_at(SubsetSpec(n, mask)) for mask in range(1 << n)}
        for mask in range(1, 1 << n):
            spec = SubsetSpec(n, mask)
            rep.check(
                N[mask] == N[spec.canonical().mask],
                f"{name}: shift invariance fails at {spec.elements}",
            )
            low = (mask - 1) & mask  # drop lowest set bit: a subset
            rep.check(N[low] <= N[mask], f"{name}: monotonicity fails at {spec.elements}")
        for mask in range(1, 1 << n):
            comp = ((1 << n) - 1) ^ mask
            sub = comp & ((1 << (n // 2)) - 1)
            rep.check(
                N[mask | sub] <= N[mask] * N[sub],
                f"{name}: submultiplicativity fails at mask={mask:#x}",
            )
    return rep


# random parameter points of each family, drawn from this PCG64 seed
_ORACLE_POINTS = 5
_ORACLE_SEED = 7


def check_entropy_oracle(n_max: int = 8) -> PropertyReport:
    """Joint entropies equal brute-force cylinder-measure enumeration
    (``_projected_entropies``, the window once per chain) to 1e-10 at every
    subset of the window, for 1-step and 2-step families at seeded random
    parameter points.  The chain rule or ``_block_entropies`` takes the
    canonical masks 2i+1 at once, as ``asc_finite`` does; each mask is
    held to its translate's value."""
    rep = PropertyReport("entropy-oracle")
    rng = np.random.Generator(np.random.PCG64(_ORACLE_SEED))
    masks = np.arange(1, 1 << n_max)
    places = masks[:, None] >> np.arange(n_max) & 1
    for _ in range(_ORACLE_POINTS if n_max >= 1 else 0):
        p00, p11 = rng.uniform(0.05, 0.95, size=2)
        one_step = MarkovMeasure.one_step([[p00, 1 - p00], [1 - p11, p11]])
        p000, p100 = rng.uniform(0.05, 0.95, size=2)
        two_step = MarkovMeasure([[p000, 1 - p000, 0.0], [0.0, 0.0, 1.0], [p100, 1 - p100, 0.0]],
                                 states=((0, 0), (0, 1), (1, 0)), block_len=2, alphabet_size=2)
        for m in (one_step, two_step):
            H = ([sampled_joint_entropy(m, SubsetSpec(n_max, s)) for s in masks[::2].tolist()]
                 if m.block_len == 1 else _block_entropies(m, m.powers(n_max - 1), places[::2]))
            oracle = _projected_entropies(m, places)
            for mask, b in zip(masks.tolist(), oracle.tolist()):
                a = H[(mask >> (mask & -mask).bit_length() - 1) // 2]
                ok = abs(a - b) <= 1e-10
                rep.check(ok, "" if ok else f"block_len={m.block_len}: joint entropy "
                          f"mismatch at {SubsetSpec(n_max, mask).elements}")
    return rep


def check_acc_identity(n_max: int = 10) -> PropertyReport:
    """Uniform-weight window identity
    asc_n = acc_n + ((n-1)/(2n)) asc_{n-1}, to 1e-12."""
    rep = PropertyReport("acc-identity")
    uniform = CoefficientSystem.uniform()
    for name, sft in _dedup_sfts():
        profiles = {n: finite_profile(sft, uniform, n) for n in range(1, n_max + 1)}
        for n in range(2, n_max + 1):
            lhs = profiles[n].asc
            rhs = profiles[n].acc + (n - 1) / (2.0 * n) * profiles[n - 1].asc
            rep.check(abs(lhs - rhs) <= 1e-12, f"{name}: acc identity off at n={n}")
    return rep


def check_bounds(n_max: int = 12) -> PropertyReport:
    """0 <= intricacy_n and asc_n <= h_n on every benchmark shift, for
    uniform weights up to n_max and the other systems up to 8."""
    rep = PropertyReport("bounds")
    systems = [
        (CoefficientSystem.uniform(), n_max),
        (CoefficientSystem.neural(), min(8, n_max)),
        (CoefficientSystem.p_symmetric(0.3), min(8, n_max)),
    ]
    for name, sft in _dedup_sfts():
        for n in range(1, n_max + 1):
            for prof in finite_profiles(sft, [s for s, cap in systems if n <= cap], n):
                rep.check(prof.intricacy >= -1e-12, f"{name}/{prof.coeffs_spec}: Int_{n} < 0")
                rep.check(
                    prof.asc <= prof.h + 1e-12, f"{name}/{prof.coeffs_spec}: Asc_{n} > H_{n}"
                )
    return rep


def check_lambda_delta(terms: int = 20) -> PropertyReport:
    """The general-weight series with the point mass at 1/2 equals the
    plain series to 1e-12."""
    rep = PropertyReport("lambda-delta-half")
    delta_half = SymmetricMeasure.from_one_sided([(0.5, 1.0)])
    chains = [
        MarkovMeasure.one_step([[0.5, 0.5], [0.5, 0.5]]),
        MarkovMeasure.one_step([[0.618, 0.382], [1.0, 0.0]]),
        MarkovMeasure.one_step([[0.216, 0.784], [1.0, 0.0]]),
    ]
    for m in chains:
        a = asc_lambda(m, delta_half, terms)
        b = asc_series_markov(m, terms).asc
        rep.check(abs(a - b) <= 1e-12, f"lambda-delta mismatch: {a} vs {b}")
    return rep


def check_spectral() -> PropertyReport:
    """Log spectral radii against independent routes, to 1e-12 relative:
    the full r-shift closed form log sum_a e^f(a) for r = 2..5 with |f| up
    to 800, constant-shift equivariance P(f + c) = P(f) + c for
    c = 60, -800 on the benchmark shifts, and the exact word-growth rate
    log(N(n+1)/N(n)) against the entropy on the primitive ones.  The
    growth rate is taken at n = 50, where it is already within 1e-14 of
    the entropy on every benchmark shift, so the exact counts stay cheap.
    Each matrix takes its potentials as one stack."""
    rep = PropertyReport("spectral")
    n = 50

    def close(a: float, b: float) -> bool:
        return abs(a - b) <= 1e-12 * max(1.0, abs(b))

    for r in range(2, 6):
        fs = [[0.0] * r, [0.1 * a - 0.2 for a in range(r)], [60.0] + [0.0] * (r - 1),
              [100.0, -800.0] + [-60.0] * (r - 2)]
        for f, got in zip(fs, log_spectral_radius(Sft.full_shift(r).adjacency, fs).tolist()):
            want = max(f) + math.log(sum(math.exp(v - max(f)) for v in f))
            rep.check(close(got, want), f"full {r}-shift, f={f}: P={got} != {want}")

    for name, sft in _dedup_sfts():
        f = np.array([PRESSURE_F1.get(a, 0.0) for a in sft.symbol_labels], dtype=float)
        h, p, *shifted = log_spectral_radius(
            sft.adjacency, [np.zeros_like(f), f, f + 60.0, f - 800.0]).tolist()
        for c, got in zip((60.0, -800.0), shifted):
            rep.check(close(got, p + c), f"{name}: P(f{c:+g}) = {got} != P(f){c:+g}")
        r = sft.alphabet_size
        # Wielandt: primitive iff this power is positive
        if sft.reach_powers((r - 1) ** 2 + 1)[-1].all():
            counts = sft.word_counts(n + 1)
            rate = math.log(counts[n]) - math.log(counts[n - 1])
            rep.check(close(rate, h), f"{name}: word growth {rate} != entropy {h}")
    return rep


def check_run_kernels(n_max: int = 16) -> PropertyReport:
    """The table-free kernels against the tables they replace, to 1e-12
    relative (absolute below 1), at n = min(n_max, 23): on every published
    shift with a positive square, the per-size sums behind finite_profile
    and asp_profile (all sizes, with and without 0, the full window and
    the uniform alt) with block_k 0, 2 and 5, and on the two pressure
    pairs also weighted by their PRESSURE_F1 potential.  The table route
    sums its logs in blocks of at most 2^16, so the two agree to about
    5e-15 up to n = 23.  Then the O(n^2) 1-step asc_finite on the
    golden-mean chain against a per-mask sum of sampled_joint_entropy over
    every subset and its complement, at n = min(n_max, 12) so the 2^n
    masks stay cheap."""
    rep = PropertyReport("runs")

    def close(a, b) -> bool:
        return bool(np.all(np.abs(np.subtract(a, b)) <= 1e-12 * np.maximum(1.0, np.abs(b))))

    n = min(n_max, MAX_TABLE_BITS)
    uniform = CoefficientSystem.uniform()
    c = np.asarray(uniform.weights_row(n))
    # one entry per matrix; the pressure pairs come last and keep their tags
    for bench in {b.adjacency: b for b in SFT_BENCHMARKS}.values():
        sft = Sft(np.asarray(bench.adjacency))
        if not sft.is_square_positive():
            continue
        cases = [(0, None), (2, None), (5, None)]
        if bench.asp10_f1 is not None:
            cases.append((0, Potential.from_values(PRESSURE_F1).log_weights(sft)))
        for block_k, lw in cases:
            # every, with_zero, log N(window) and alt in one vector per route
            a, b = (np.hstack(sums(sft, n, block_k, c, lw)) for sums in (_run_sums, _table_sums))
            ok = close(a, b)
            what = f"block_k={block_k}" + ("" if lw is None else ", weighted")
            rep.check(ok, "" if ok else f"{bench.tag}, n={n}, {what}: {a} != table {b}")

    n = min(n_max, 12)
    full = (1 << n) - 1
    m = MarkovMeasure.one_step([[0.618, 0.382], [1.0, 0.0]], p=np.array([1.0, 0.382]) / 1.382)
    # each subset has the joint entropy of its translate to 0
    memo = {0: 0.0}
    H = []
    for mask in range(full + 1):
        key = mask >> ((mask & -mask).bit_length() - 1) if mask else 0
        if key not in memo:
            memo[key] = sampled_joint_entropy(m, SubsetSpec(n, key))
        H.append(memo[key])
    size = [bin(mask).count("1") for mask in range(full + 1)]
    for system in (uniform, CoefficientSystem.neural()):
        w = system.weights_row(n)
        asc = sum(w[size[s]] * H[s] for s in range(full + 1)) / n
        intr = sum(w[size[s]] * (H[s] + H[full ^ s] - H[full]) for s in range(full + 1)) / n
        got = asc_finite(m, system, n)
        for what, a, b in (("h", got.h, H[full] / n), ("asc", got.asc, asc),
                           ("intricacy", got.intricacy, intr)):
            rep.check(close(a, b), f"gms chain/{system.spec}, n={n}: {what} {a} != per-mask {b}")
    return rep


def _finite_profile_slow(sft: Sft, coeffs: CoefficientSystem, n: int, block_k: int) -> ComplexityProfile:
    # reference route for the tests: every mask and its complement one by
    # one, each count exact and memoized on its shift-canonical form
    memo: dict[int, float] = {}
    weights = coeffs.weights_row(n)
    pc = popcounts(n)
    k = max(block_k, 1)

    def log_count(mask: int) -> float:
        if mask == 0:
            return 0.0
        spec = SubsetSpec(n, mask).dilate(k).canonical()
        hit = memo.get(spec.mask)
        if hit is None:
            hit = math.log(sft.count_words_at(spec))
            memo[spec.mask] = hit
        return hit

    full = (1 << n) - 1
    log_full = log_count(full)
    asc = intr = acc = alt = 0.0
    uniform = coeffs.kind == "uniform"
    for m in range(1 << n):
        c = weights[pc[m]]
        lm = log_count(m)
        asc += c * lm
        intr += c * (lm + log_count(full ^ m) - log_full)
        if m & 1:
            acc += c * lm
        if uniform:
            alt += math.exp(lm)
    return ComplexityProfile(
        n, block_k, log_full / n, asc / n, intr / n, acc / n,
        alt / 2.0**n if uniform else None, coeffs.spec,
    )


def _asc_reduced(sft: Sft, coeffs: CoefficientSystem, n: int, block_k: int = 0) -> float:
    """Same average as finite_profile().asc, computed the other way:
    enumerate only subsets containing 0 and weight each by the number of
    its translates inside the window.  Used to cross-check enumeration."""
    _check_window(n, block_k)
    weights = coeffs.weights_row(n)
    k = max(block_k, 1)
    total = 0.0
    for m in range(1, 1 << n, 2):
        spec = SubsetSpec(n, m)
        multiplicity = n - spec.elements[-1]
        lm = math.log(sft.count_words_at(spec.dilate(k)))
        total += multiplicity * weights[spec.size] * lm
    return total / n


SUITES = {
    "coeffs": check_coefficient_axioms,
    "measure-forms": check_measure_agreement,
    "subadd": check_subadditivity,
    "product": check_product_formula,
    "oracle-counts": check_count_oracle,
    "invariances": check_count_invariances,
    "oracle-entropy": check_entropy_oracle,
    "acc": check_acc_identity,
    "bounds": check_bounds,
    "lambda": check_lambda_delta,
    "spectral": check_spectral,
    "runs": check_run_kernels,
}

# the suites that take no window size
_UNSIZED = {"lambda", "spectral"}


def run_suites(suite: str = "all", max_n: int | None = None) -> list[PropertyReport]:
    """Run one suite (or all) and return the reports.  ``max_n`` scales
    the window size of the suites that take one; suite-specific defaults
    apply when it is None, and a max_n below 1 is refused before any
    suite runs."""
    if max_n is not None and max_n < 1:
        raise ValueError("max_n must be >= 1")
    names = list(SUITES) if suite == "all" else [suite]
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite(s) {unknown}; available: {sorted(SUITES)}")
    reports = []
    for name in names:
        fn = SUITES[name]
        reports.append(fn() if max_n is None or name in _UNSIZED else fn(n_max=max_n))
    return reports
