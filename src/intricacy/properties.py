"""Self-contained property and oracle suites.

Each suite checks one structural fact about the implementation against
an independent route (brute-force enumeration, an algebraic identity, or
an axiom) and reports its case count and failures.  The CLI ``check``
subcommand runs them and exits nonzero on any failure; the acceptance
tests run the same functions at their published sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .benchmarks import PRESSURE_F1, SFT_BENCHMARKS
from .coeffs import CoefficientSystem, SymmetricMeasure, validate
from .markov import (
    MarkovMeasure,
    asc_lambda,
    asc_series_markov,
    sampled_joint_entropy,
    sampled_joint_entropy_oracle,
)
from .pressure import Potential, classical_pressure
from .sft import Sft, SubsetSpec
from .topo import finite_profile

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


def _dedup_sfts(include_pairs: bool = True) -> list[tuple[str, Sft]]:
    out = [("full-2-shift", Sft.full_shift(2)), ("golden-mean", Sft.golden_mean())]
    seen = set()
    for bench in SFT_BENCHMARKS:
        key = bench.adjacency
        if key in seen:
            continue
        seen.add(key)
        out.append((bench.tag, Sft(np.asarray(bench.adjacency))))
    return out


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
    """Measure-backed weights agree with their closed forms: a mirrored
    two-point measure reproduces the p-symmetric weights and pure
    Lebesgue reproduces the neural weights, to 1e-12."""
    rep = PropertyReport("measure-closed-forms")
    p = 0.3
    two_point = CoefficientSystem.from_measure([(p, 0.5)])
    psym = CoefficientSystem.p_symmetric(p)
    lebesgue = CoefficientSystem.from_measure([], lebesgue_mass=1.0)
    neural = CoefficientSystem.neural()
    for n in range(1, n_max + 1):
        for k in range(n + 1):
            rep.check(
                abs(two_point.weight(n, k) - psym.weight(n, k)) <= 1e-12,
                f"two-point vs p-symmetric at ({n},{k})",
            )
            rep.check(
                abs(lebesgue.weight(n, k) - neural.weight(n, k)) <= 1e-12,
                f"lebesgue vs neural at ({n},{k})",
            )
    return rep


def check_subadditivity(nm_max: int = 6) -> PropertyReport:
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
        for system in systems:
            b = {n: n * finite_profile(sft, system, n).asc for n in range(1, 2 * nm_max + 1)}
            for n in range(1, nm_max + 1):
                for m_ in range(1, nm_max + 1):
                    rep.check(
                        b[n + m_] <= b[n] + b[m_] + 1e-12,
                        f"{name}/{system.spec}: b_{n + m_} > b_{n} + b_{m_}",
                    )
    return rep


def check_product_formula(n_max: int = 10) -> PropertyReport:
    """For shifts with strictly positive squared adjacency matrix the
    count at S factors over the runs of S: N(S) = prod N(run length),
    exactly, for every subset of every window up to n_max."""
    rep = PropertyReport("product-formula")
    for name, sft in _dedup_sfts():
        if not sft.is_square_positive():
            continue
        counts = {t: sft.complexity_count(t) for t in range(1, n_max + 1)}
        for n in range(1, n_max + 1):
            for mask in range(1, 1 << n):
                spec = SubsetSpec(n, mask)
                expected = math.prod(counts[t] for t in spec.runs)
                rep.check(
                    sft.count_words_at(spec) == expected,
                    f"{name}: N({spec.elements}) != {expected}",
                )
    return rep


def check_count_oracle(n_max: int = 8) -> PropertyReport:
    """Transfer-matrix counts equal brute-force projection counts for
    every subset of every window up to n_max, on every benchmark shift."""
    rep = PropertyReport("count-oracle")
    for name, sft in _dedup_sfts():
        words = np.array(sft.enumerate_words(n_max), dtype=np.int64)
        # radix-encode each projection to one integer (fits easily in int64
        # for these alphabets and windows)
        encode = sft.alphabet_size ** np.arange(n_max, dtype=np.int64)
        for n in range(1, n_max + 1):
            for mask in range(1, 1 << n):
                spec = SubsetSpec(n, mask)
                cols = list(spec.elements)
                seen = len(np.unique(words[:, cols] @ encode[: len(cols)]))
                rep.check(
                    sft.count_words_at(spec) == seen,
                    f"{name}: count mismatch at {spec.elements}",
                )
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


def check_entropy_oracle(size_max: int = 8, points: int = 5, seed: int = 7) -> PropertyReport:
    """Chain-rule / hidden-state joint entropies equal brute-force
    cylinder-measure enumeration to 1e-10, for 1-step and 2-step
    families at seeded random parameter points, over all subsets of the
    window."""
    rep = PropertyReport("entropy-oracle")
    rng = np.random.Generator(np.random.PCG64(seed))
    gms = Sft.golden_mean()
    for _ in range(points):
        p00, p11 = rng.uniform(0.05, 0.95, size=2)
        one_step = MarkovMeasure.one_step([[p00, 1 - p00], [1 - p11, p11]])
        p000, p100 = rng.uniform(0.05, 0.95, size=2)
        two_step = MarkovMeasure(
            [[p000, 1 - p000, 0.0], [0.0, 0.0, 1.0], [p100, 1 - p100, 0.0]],
            states=((0, 0), (0, 1), (1, 0)),
            block_len=2,
            alphabet_size=2,
        )
        for m in (one_step, two_step):
            for mask in range(1, 1 << size_max):
                spec = SubsetSpec(size_max, mask)
                a = sampled_joint_entropy(m, spec)
                b = sampled_joint_entropy_oracle(m, spec)
                rep.check(
                    abs(a - b) <= 1e-10,
                    f"block_len={m.block_len}: joint entropy mismatch at {spec.elements}",
                )
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
        for system, cap in systems:
            for n in range(1, cap + 1):
                prof = finite_profile(sft, system, n)
                rep.check(prof.intricacy >= -1e-12, f"{name}/{system.spec}: Int_{n} < 0")
                rep.check(
                    prof.asc <= prof.h + 1e-12, f"{name}/{system.spec}: Asc_{n} > H_{n}"
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
    the entropy on every benchmark shift, so the exact counts stay cheap."""
    rep = PropertyReport("spectral")
    n = 50

    def close(a: float, b: float) -> bool:
        return abs(a - b) <= 1e-12 * max(1.0, abs(b))

    for r in range(2, 6):
        full = Sft.full_shift(r)
        for f in ([0.0] * r, [0.1 * a - 0.2 for a in range(r)], [60.0] + [0.0] * (r - 1),
                  [100.0, -800.0] + [-60.0] * (r - 2)):
            want = max(f) + math.log(sum(math.exp(v - max(f)) for v in f))
            got = classical_pressure(full, Potential.from_values(dict(enumerate(f))))
            rep.check(close(got, want), f"full {r}-shift, f={f}: P={got} != {want}")

    for name, sft in _dedup_sfts():
        f = {a: PRESSURE_F1.get(a, 0.0) for a in sft.symbol_labels}
        p = classical_pressure(sft, Potential.from_values(f))
        for c in (60.0, -800.0):
            got = classical_pressure(sft, Potential.from_values({a: v + c for a, v in f.items()}))
            rep.check(close(got, p + c), f"{name}: P(f{c:+g}) = {got} != P(f){c:+g}")
        r = sft.alphabet_size
        if sft.reach((r - 1) ** 2 + 1).all():  # Wielandt: primitive iff this power is positive
            h = sft.topological_entropy()
            rate = math.log(sft.complexity_count(n + 1)) - math.log(sft.complexity_count(n))
            rep.check(close(rate, h), f"{name}: word growth {rate} != entropy {h}")
    return rep


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
}

_SIZE_ARG = {
    "coeffs": "n_max",
    "measure-forms": "n_max",
    "subadd": "nm_max",
    "product": "n_max",
    "oracle-counts": "n_max",
    "invariances": "n_max",
    "oracle-entropy": "size_max",
    "acc": "n_max",
    "bounds": "n_max",
}


def run_suites(suite: str = "all", max_n: int | None = None) -> list[PropertyReport]:
    """Run one suite (or all) and return the reports.  ``max_n`` scales
    the window size of the suites that take one; suite-specific defaults
    apply when it is None."""
    names = list(SUITES) if suite == "all" else [suite]
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite(s) {unknown}; available: {sorted(SUITES)}")
    reports = []
    for name in names:
        fn = SUITES[name]
        if max_n is not None and name in _SIZE_ARG:
            reports.append(fn(**{_SIZE_ARG[name]: max_n}))
        else:
            reports.append(fn())
    return reports
