"""Self-contained property and oracle suites.

Each suite checks one structural fact about the implementation against
an independent route (brute-force enumeration, an algebraic identity, or
an axiom) and reports its case count and failures.  The CLI ``check``
subcommand runs them and exits nonzero on any failure; the acceptance
tests run the same functions at their published sizes.

The enumeration oracles live here, apart from the library: the words of
a shift and the cylinder measures of a chain over a window, as dense
arrays with one axis per place.  ``count_words_at_oracle`` and
``sampled_joint_entropy_oracle`` project them onto one subset; the
``oracle-counts`` and ``oracle-entropy`` suites walk every subset of the
window from one enumeration (``_lattice``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._masks import MAX_TABLE_BITS, canonical_places, check_table_window, popcounts, product_table
from .benchmarks import PRESSURE_F1, SFT_BENCHMARKS
from .coeffs import CoefficientSystem, validate
from .errors import CapExceeded
from .markov import (MarkovMeasure, _joint_entropies, _stationary_stack,
                     _transition_codes, _xlogx, asc_finite, asc_lambda, asc_series_markov,
                     recode_higher_block)
from .sft import DEFAULT_ORACLE_CAP, Sft, SubsetSpec, _as_subset, log_spectral_radius
from .topo import (ComplexityProfile, _check_window, _count_sums, _table_split, _table_sums,
                   finite_profiles)

__all__ = ["PropertyReport", "SUITES", "run_suites", "count_words_at_oracle",
           "cylinder_measure", "sampled_joint_entropy_oracle"]


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

    def check_all(self, ok: np.ndarray, message) -> None:
        """One case per entry of the boolean array ok; message(i) names
        entry i where it is False."""
        self.cases += len(ok)
        self.failures += [message(i) for i in np.flatnonzero(~ok).tolist()]


def _close(a, b) -> bool:
    # 1e-12 relative, absolute below 1
    return bool(np.all(np.abs(np.subtract(a, b)) <= 1e-12 * np.maximum(1.0, np.abs(b))))


@functools.cache
def _size_placements(n: int, kappa: int) -> np.ndarray:
    """The reference placement of shape sums (``_masks``), from
    ``math.comb`` alone: [0, s, i] counts the ways to place a cluster of
    span s in a window of n positions and pick i more elements of S, none
    within kappa of it; [1, s, i] those whose S holds 0, the window's
    less those of the window {1..n-1}.  Exact integers; read-only."""
    def ways(d: int, i: int) -> int:  # d positions outside the span
        return sum(math.comb(d - min(a, kappa) - min(d - a, kappa), i) for a in range(d + 1))

    P = np.array([[[ways(n - 1 - s, i), ways(n - 1 - s, i) - ways(n - 2 - s, i)]
                   for i in range(n + 1)] for s in range(n)], dtype=float).transpose(2, 0, 1)
    P.setflags(write=False)
    return P


def _per_size_sums(phi: np.ndarray, n: int, kappa: int) -> np.ndarray:
    """[every, with_zero]: the sums of v(S) over the k-subsets of the
    window, k = 0..n, and over those that hold 0, from the shape sums phi
    of v placed by ``_size_placements``.  A symmetric weighting system
    cannot see an error that is antisymmetric in |S|; these sums can."""
    # [j, i] of phi^T P sums the shapes of j elements with i more; k = j + i
    k = np.add.outer(np.arange(n + 1), np.arange(n + 1)).ravel()
    return np.array([np.bincount(k, (phi.T @ P).ravel())[: n + 1]
                     for P in _size_placements(n, kappa)])


@functools.cache
def _published_sfts() -> tuple[tuple[str, Sft, bool], ...]:
    # (first tag, shift, weighted) per published matrix, built once per process
    # (an Sft is immutable); weighted where any of its benchmarks has asp10_f1
    tags, weighted = {}, {}
    for b in SFT_BENCHMARKS:
        tags.setdefault(b.adjacency, b.tag)
        weighted[b.adjacency] = weighted.get(b.adjacency, False) or b.asp10_f1 is not None
    return tuple((tag, Sft(np.asarray(a)), weighted[a]) for a, tag in tags.items())


@functools.cache
def _dedup_sfts() -> tuple[tuple[str, Sft], ...]:
    # the full 2-shift, the golden mean and the published shifts
    return (("full-2-shift", Sft.full_shift(2)), ("golden-mean", Sft.golden_mean()),
            *((tag, sft) for tag, sft, _ in _published_sfts()))


def _systems() -> list[CoefficientSystem]:
    # uniform, neural and p-symmetric first: the profile suites take those
    return [CoefficientSystem.uniform(), CoefficientSystem.neural(),
            CoefficientSystem.p_symmetric(0.3),
            CoefficientSystem.from_measure([(0.25, 0.25)], lebesgue_mass=0.5)]


def _canonical_counts(sft: Sft, n: int) -> np.ndarray:
    """N(S) at the masks 1..2^n-1 of n places, each the count of its translate
    to 0 from one table pass; exact while every count (at most r^n) is below
    2^53."""
    assert sft.alphabet_size**n < 1 << 53, f"counts of {sft} over {n} places pass 2^53"
    return product_table(n, *sft.count_matrices(n)).astype(np.int64)[_canonical_rows(n)]


def _canonical_rows(n: int) -> np.ndarray:
    # the row i of the canonical mask 2i+1 that translates each mask 1..2^n-1 to 0
    masks = np.arange(1, 1 << n)
    return masks // (masks & -masks) >> 1


# -- enumeration oracles ---------------------------------------------------


def _check_oracle_width(r: int, width: int) -> None:
    """Refuse an enumeration of r^width cells past DEFAULT_ORACLE_CAP."""
    if r**width > DEFAULT_ORACLE_CAP:
        raise CapExceeded(f"r^n = {r}^{width} exceeds oracle cap {DEFAULT_ORACLE_CAP}")


def _word_cells(sft: Sft, width: int) -> np.ndarray:
    """cells[a_0, ..., a_(width-1)] is True when the symbols a_i form a
    word of the shift (every consecutive pair an edge); r^width is capped
    at DEFAULT_ORACLE_CAP."""
    r = sft.alphabet_size
    _check_oracle_width(r, width)
    edge = sft.adjacency > 0
    cells = np.ones(r, dtype=bool)
    for _ in range(width - 1):
        cells = cells[..., None] & edge
    return cells


def _cylinder_cells(P: np.ndarray, p: np.ndarray, states, r: int, width: int) -> np.ndarray:
    """mu[g, a_0, ..., a_(width-1)]: the measure of the cylinder fixing the
    base symbols a_0..a_(width-1) under chain g of a stack on the same
    k-block states (P (G, d, d), stationary rows p (G, d)), width >= k.
    Never by P^g: a word weighs p of its first block times P along its
    blocks, 0 past a block that is no state.  r^width is capped at
    DEFAULT_ORACLE_CAP."""
    _check_oracle_width(r, width)
    G, d = p.shape
    k = len(states[0])
    # state[b]: the state of the k-block coded b (first symbol highest), d if none
    state = np.full(r**k, d)
    state[np.array(states) @ r ** np.arange(k - 1, -1, -1)] = np.arange(d)
    P, p = np.pad(P, ((0, 0), (0, 1), (0, 1))), np.pad(p, ((0, 0), (0, 1)))
    # step[g, b, a]: P from the block b to the block b[1:] + a
    blocks = np.arange(r**k)[:, None]
    step = P[:, state[:, None], state[blocks % r ** (k - 1) * r + np.arange(r)]]
    mu = p[:, state]
    for _ in range(width - k):
        mu = (mu.reshape(G, -1, r**k, 1) * step[:, None]).reshape(G, -1)
    return mu.reshape((G,) + (r,) * width)


def _lattice(root: np.ndarray, n: int, fold, lead: int = 0):
    """(mask, cells) for every subset of n places, the empty one included,
    depth first.  root holds the cells of the whole window, one axis per
    place after ``lead`` leading axes.  A mask's parent is the mask plus
    its lowest missing place b; the places below b are in both, so the
    mask's cells are fold(parent's cells, axis=lead + b) (``any`` for
    words, ``add`` for measures).  At most one chain of cells from the root
    is held, under twice the root's."""
    full = (1 << n) - 1
    yield full, root
    todo = [(full, root, b) for b in range(n)]
    while todo:
        parent, cells, b = todo.pop()
        mask = parent ^ (1 << b)
        cells = fold(cells, axis=lead + b)
        yield mask, cells
        todo += [(mask, cells, c) for c in range(b)]


def count_words_at_oracle(sft: Sft, S, n: int | None = None) -> int:
    """Brute-force cross-check of ``Sft.count_words_at``: enumerate every
    word covering S, project onto the places of S, count distinct
    projections."""
    spec = _as_subset(S, n)
    if spec.mask == 0:
        return 1
    width = spec.elements[-1] + 1
    cells = _word_cells(sft, width)
    return int(np.count_nonzero(cells.any(axis=tuple(set(range(width)) - set(spec.elements)))))


def cylinder_measure(m: MarkovMeasure, word) -> float:
    """Measure of the cylinder fixing the given consecutive base symbols."""
    w = tuple(int(a) for a in word)
    if not w:
        return 1.0
    k = m.block_len
    if len(w) < k:
        return float(sum(m.p[j] for j, v in enumerate(m.states) if v[: len(w)] == w))
    index = {v: j for j, v in enumerate(m.states)}
    blocks = [w[i : i + k] for i in range(len(w) - k + 1)]
    if any(b not in index for b in blocks):
        return 0.0
    prob = m.p[index[blocks[0]]]
    for a, b in zip(blocks, blocks[1:]):
        prob *= m.P[index[a], index[b]]
    return float(prob)


def sampled_joint_entropy_oracle(m: MarkovMeasure, S, n: int | None = None) -> float:
    """Brute-force cross-check of ``markov.sampled_joint_entropy``:
    enumerate every word covering S (a block at least), weight it by its
    cylinder measure, aggregate onto the projection, then take the entropy
    of the projected distribution."""
    spec = _as_subset(S, n)
    if spec.mask == 0:
        return 0.0
    width = max(spec.elements[-1] + 1, m.block_len)
    mu = _cylinder_cells(m.P[None], m.p[None], m.states, m.alphabet_size, width)[0]
    q = mu.sum(axis=tuple(set(range(width)) - set(spec.elements)))
    return float(-_xlogx(q).sum())


# -- suites ------------------------------------------------------------------


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
    uniform, neural and p-symmetric systems, for n, m <= n_max with
    n + m <= MAX_TABLE_BITS (23), the widest window the kernels take."""
    rep = PropertyReport("subadditivity")
    systems = _systems()[:3]
    shifts = [(name, sft) for name, sft in _dedup_sfts() if name in ("golden-mean", "golden-pair/II")]
    pairs = [(n, m_) for n in range(1, n_max + 1) for m_ in range(1, n_max + 1)
             if n + m_ <= MAX_TABLE_BITS]
    for name, sft in shifts:
        profiles = {n: finite_profiles(sft, systems, n)
                    for n in range(1, min(2 * n_max, MAX_TABLE_BITS) + 1)}
        for i, system in enumerate(systems):
            b = {n: n * prof[i].asc for n, prof in profiles.items()}
            for n, m_ in pairs:
                rep.check(
                    b[n + m_] <= b[n] + b[m_] + 1e-12,
                    f"{name}/{system.spec}: b_{n + m_} > b_{n} + b_{m_}",
                )
    return rep


def check_product_formula(n_max: int = 10) -> PropertyReport:
    """For shifts with strictly positive squared adjacency matrix the
    count at S factors over the runs of S: N(S) = prod N(run length),
    exactly, for every nonempty subset S of {0..n_max-1} (the subsets of
    every narrower window among them), each held to the count of its
    translate to 0 (``_canonical_counts``)."""
    check_table_window(n_max)
    rep = PropertyReport("product-formula")
    runs = [SubsetSpec(n_max, mask).runs for mask in range(1, 1 << n_max)]
    for name, sft in _dedup_sfts():
        if not sft.is_square_positive():
            continue
        counts = [1, *sft.word_counts(n_max)]
        expected = np.array([math.prod(counts[t] for t in lengths) for lengths in runs])
        ok = _canonical_counts(sft, n_max) == expected
        rep.check_all(ok, lambda i: f"{name}: N({SubsetSpec(n_max, i + 1).elements}) != {expected[i]}")
    return rep


def check_count_oracle(n_max: int = 8) -> PropertyReport:
    """Transfer-matrix counts equal brute-force projection counts for
    every nonempty subset of {0..n_max-1} (the subsets of every narrower
    window among them), on every benchmark shift: each mask against the
    count of its translate to 0 (``_canonical_counts``).  The window's
    words are enumerated once per shift; each mask's projections come from
    its parent's by one ``any`` (``_lattice``).  Then the per-size sums of
    log N over all subsets and those holding 0 match ``topo._count_sums``
    to 1e-12 relative at block_k 0 and, from n_max 2, at block_k 2 over
    n_max - 1 places (N(S | S << 1)): two more cases per shift."""
    # r >= 2, so this also keeps n_max within MAX_TABLE_BITS
    _check_oracle_width(max(sft.alphabet_size for _, sft in _dedup_sfts()), n_max)
    rep = PropertyReport("count-oracle")
    for name, sft in _dedup_sfts():
        N = np.empty(1 << n_max, dtype=np.int64)
        for mask, cells in _lattice(_word_cells(sft, n_max), n_max, np.logical_or.reduce):
            N[mask] = np.count_nonzero(cells)
        ok = N[1:] == _canonical_counts(sft, n_max)
        rep.check_all(ok, lambda i: f"{name}: count mismatch at {SubsetSpec(n_max, i + 1).elements}")
        logs = np.log(N)
        cases = [(0, n_max, logs)]
        if n_max >= 2:
            half = np.arange(1 << (n_max - 1))
            cases.append((2, n_max - 1, logs[half | half << 1]))
        for k, n, v in cases:
            size = popcounts(n)
            got = np.hstack([np.bincount(size, v, n + 1), np.bincount(size[1::2], v[1::2], n + 1)])
            phi, kappa = _count_sums(sft, n, k)[:2]
            want = _per_size_sums(phi, n, kappa).ravel()
            ok = _close(got, want)
            rep.check(ok, "" if ok else f"{name}: per-size sums of log N at block_k {k} off the "
                      f"production kernel by up to {np.max(np.abs(got - want)):.3g}")
    return rep


def check_count_invariances(n_max: int = 8) -> PropertyReport:
    """Shift invariance, ``Sft.count_words_at`` at S against the table
    count of S - min S (``_canonical_counts``, held to enumeration by
    ``oracle-counts``), monotonicity under subset inclusion, and
    submultiplicativity over disjoint unions."""
    check_table_window(n_max)
    rep = PropertyReport("count-invariances")
    for name, sft in [("golden-mean", Sft.golden_mean()),
                      ("golden-pair/I", Sft(np.asarray(SFT_BENCHMARKS[0].adjacency)))]:
        N = [sft.count_words_at(SubsetSpec(n_max, mask)) for mask in range(1 << n_max)]
        table = [1, *_canonical_counts(sft, n_max).tolist()]
        for mask in range(1, 1 << n_max):
            spec = SubsetSpec(n_max, mask)
            ok = N[mask] == table[mask]
            rep.check(ok, "" if ok else f"{name}: shift invariance fails at {spec.elements}")
            low = (mask - 1) & mask  # drop lowest set bit: a subset
            ok = N[low] <= N[mask]
            rep.check(ok, "" if ok else f"{name}: monotonicity fails at {spec.elements}")
        for mask in range(1, 1 << n_max):
            comp = ((1 << n_max) - 1) ^ mask
            sub = comp & ((1 << (n_max // 2)) - 1)
            ok = N[mask | sub] <= N[mask] * N[sub]
            rep.check(ok, "" if ok else f"{name}: submultiplicativity fails at mask={mask:#x}")
    return rep


# random parameter points of each family, drawn from this PCG64 seed
_ORACLE_POINTS = 5
_ORACLE_SEED = 7


def _chain_stack(P, states) -> list[MarkovMeasure]:
    # the chains of a (G, d, d) stack on the same base-2 block states, solved in one pass
    P = np.asarray(P, dtype=float)
    p, _ = _stationary_stack(P, _transition_codes(states), states)
    return [MarkovMeasure(Pg, pg, states=states) for Pg, pg in zip(P, p)]


def check_entropy_oracle(n_max: int = 8) -> PropertyReport:
    """Joint entropies equal brute-force cylinder-measure enumeration to
    1e-10 at every subset of the window, for 1-step and 2-step families at
    seeded random parameter points and, from a window of 3 places (the
    narrowest with a run of 3 to cut at), one fixed 3-step chain.  The
    canonical masks 2i+1 are taken at once, in one ``_joint_entropies``
    pass per chain (the chain rule for a 1-step chain, the cut block pass
    for a block chain), as ``asc_finite`` takes them; each mask is held to
    its translate's value.  The chains with the same states form one
    family: its cylinder measures over the window (a block at least) are
    enumerated once (``_cylinder_cells``), and every mask's marginals come
    from its parent's by one sum (``_lattice``)."""
    check_table_window(n_max)  # binary chains: 2^n_max is within DEFAULT_ORACLE_CAP
    rep = PropertyReport("entropy-oracle")
    rng = np.random.Generator(np.random.PCG64(_ORACLE_SEED))
    # per point: p00, p11 of the 1-step chain, then p000, p100 of the 2-step one
    p00, p11, p000, p100 = rng.uniform(0.05, 0.95, size=(_ORACLE_POINTS, 4)).T
    zero, one = np.zeros(_ORACLE_POINTS), np.ones(_ORACLE_POINTS)
    one_step = np.moveaxis([[p00, 1 - p00], [1 - p11, p11]], -1, 0)
    two_step = np.moveaxis([[p000, 1 - p000, zero], [zero, zero, one], [p100, 1 - p100, zero]],
                           -1, 0)
    families = [_chain_stack(one_step, ((0,), (1,))),
                _chain_stack(two_step, ((0, 0), (0, 1), (1, 0)))]
    if n_max >= 3:
        # the 3-step chain on the full 2-shift with P(next = 0 | block b) = 0.1 + 0.1 b
        three = {f"{b:03b}": {"0": 0.1 + 0.1 * b, "1": 0.9 - 0.1 * b} for b in range(8)}
        families.insert(0, [recode_higher_block(three, Sft.full_shift(2))])
    rows = _canonical_rows(n_max)
    canonical = canonical_places(n_max)
    for chains in families:
        head = chains[0]
        k, G = head.block_len, len(chains)
        width = max(n_max, k)
        mu = _cylinder_cells(np.array([m.P for m in chains]), np.array([m.p for m in chains]),
                             head.states, head.alphabet_size, width)
        # a window narrower than a block: sum out the places past it
        mu = mu.sum(axis=tuple(range(1 + n_max, 1 + width)))
        oracle = np.empty((G, 1 << n_max))
        for mask, cells in _lattice(mu, n_max, np.add.reduce, lead=1):
            oracle[:, mask] = -_xlogx(cells.reshape(G, -1)).sum(axis=1)
        for m, H in zip(chains, oracle[:, 1:]):
            ok = np.abs(_joint_entropies(m, canonical)[rows] - H) <= 1e-10
            rep.check_all(ok, lambda i: (
                f"block_len={k}: joint entropy mismatch at {SubsetSpec(n_max, i + 1).elements}"))
    return rep


def check_acc_identity(n_max: int = 10) -> PropertyReport:
    """Uniform-weight window identity
    asc_n = acc_n + ((n-1)/(2n)) asc_{n-1}, to 1e-12."""
    rep = PropertyReport("acc-identity")
    for name, sft in _dedup_sfts():
        profiles = {n: finite_profiles(sft, _systems()[:1], n)[0] for n in range(1, n_max + 1)}
        for n in range(2, n_max + 1):
            lhs = profiles[n].asc
            rhs = profiles[n].acc + (n - 1) / (2.0 * n) * profiles[n - 1].asc
            rep.check(abs(lhs - rhs) <= 1e-12, f"{name}: acc identity off at n={n}")
    return rep


def check_bounds(n_max: int = 12) -> PropertyReport:
    """0 <= intricacy_n and asc_n <= h_n on every benchmark shift, for
    uniform weights up to n_max and the other systems up to 8."""
    rep = PropertyReport("bounds")
    systems = _systems()[:3]
    for name, sft in _dedup_sfts():
        for n in range(1, n_max + 1):
            for prof in finite_profiles(sft, systems if n <= 8 else systems[:1], n):
                rep.check(prof.intricacy >= -1e-12, f"{name}/{prof.coeffs_spec}: Int_{n} < 0")
                rep.check(
                    prof.asc <= prof.h + 1e-12, f"{name}/{prof.coeffs_spec}: Asc_{n} > H_{n}"
                )
    return rep


def check_lambda_delta(terms: int = 20) -> PropertyReport:
    """The general-weight series with the point mass at 1/2 equals the
    plain series to 1e-12."""
    rep = PropertyReport("lambda-delta-half")
    delta_half = CoefficientSystem.from_measure([(0.5, 1.0)])
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
    for r in range(2, 6):
        fs = [[0.0] * r, [0.1 * a - 0.2 for a in range(r)], [60.0] + [0.0] * (r - 1),
              [100.0, -800.0] + [-60.0] * (r - 2)]
        for f, got in zip(fs, log_spectral_radius(Sft.full_shift(r).adjacency, fs).tolist()):
            want = max(f) + math.log(sum(math.exp(v - max(f)) for v in f))
            rep.check(_close(got, want), f"full {r}-shift, f={f}: P={got} != {want}")

    for name, sft in _dedup_sfts():
        f = np.array([PRESSURE_F1.get(a, 0.0) for a in sft.symbol_labels], dtype=float)
        h, p, *shifted = log_spectral_radius(
            sft.adjacency, [np.zeros_like(f), f, f + 60.0, f - 800.0]).tolist()
        for c, got in zip((60.0, -800.0), shifted):
            rep.check(_close(got, p + c), f"{name}: P(f{c:+g}) = {got} != P(f){c:+g}")
        if sft.exponent is not None:
            counts = sft.word_counts(n + 1)
            rate = math.log(counts[n]) - math.log(counts[n - 1])
            rep.check(_close(rate, h), f"{name}: word growth {rate} != entropy {h}")
    return rep


@functools.cache
def _random_primitive_sfts(count: int = 3) -> tuple[Sft, ...]:
    """count 0/1 matrices of 3-6 vertices drawn from the _ORACLE_SEED
    stream, kept when primitive of exponent 3 or more, so that the table
    route takes them with a split gap of 3 or more; built once per
    process."""
    rng = np.random.Generator(np.random.PCG64(_ORACLE_SEED))
    out = []
    while len(out) < count:
        r = int(rng.integers(3, 7))
        A = (rng.random((r, r)) < 0.4).astype(np.int64)
        # no vertex pruned away
        if A.any(axis=0).all() and A.any(axis=1).all():
            sft = Sft(A)
            if sft.exponent is not None and sft.exponent >= 3:
                out.append(sft)
    return tuple(out)


def check_run_kernels(n_max: int = 16) -> PropertyReport:
    """The kernel ``topo._count_sums`` picks against the table with no
    split, to 1e-12 relative (absolute below 1), at n = min(n_max, 23).
    Each case compares the shape sums behind finite_profile and
    asp_profile, placed by size with the reference placement
    (``_per_size_sums``: all sizes, with and without 0), the full window
    and the uniform alt, with block_k 0, 2 and 5, on every published
    shift and three seeded random primitive ones; the pressure pairs and
    the table shifts are also weighted by PRESSURE_F1 (0 off its symbols).
    The reference is D = n (split at D = 2 the table would copy the run
    kernel), so a case whose production is that table is skipped.

    The table route sums its logs in blocks of at most 2^16, so the routes
    agree to about 2e-14 up to n = 23.  Then the O(n^2) 1-step asc_finite
    on the golden-mean chain against a per-mask sum over every subset and
    its complement, at n = min(n_max, 12) so the 2^n masks stay cheap:
    each subset takes the joint entropy of its translate to 0, from one
    chain-rule ``_joint_entropies`` pass over the canonical masks."""
    rep = PropertyReport("runs")

    def route_sums(route, sft, n, block_k, lw):
        phi, kappa, log_full, alt = route(sft, n, block_k, True, lw)
        return np.hstack([*_per_size_sums(phi, n, kappa), log_full, alt])

    n = min(n_max, MAX_TABLE_BITS)
    drawn = [(f"random-{i}", sft, False) for i, sft in enumerate(_random_primitive_sfts())]
    for tag, sft, weighted in _published_sfts() + tuple(drawn):
        cases = [(0, None), (2, None), (5, None)]
        # the pressure pairs and every table shift are also weighted
        if weighted or _table_split(sft, n, 0) is not None:
            cases.append((0, np.array([PRESSURE_F1.get(a, 0.0) for a in sft.symbol_labels])))
        for block_k, lw in cases:
            split = _table_split(sft, n, block_k)
            if split == n:
                continue
            # every, with_zero, log N(window) and alt in one vector per route
            a, b = (route_sums(route, sft, n, block_k, lw) for route in (_count_sums, _table_sums))
            ok = _close(a, b)
            what = f"block_k={block_k}" + ("" if lw is None else ", weighted")
            fast = "run" if split is None else f"split at D={split}"
            rep.check(ok, "" if ok else f"{tag}, n={n}, {what}: {fast} {a} != unsplit {b}")

    n = min(n_max, 12)
    m = MarkovMeasure.one_step([[0.618, 0.382], [1.0, 0.0]], p=np.array([1.0, 0.382]) / 1.382)
    # each subset has the joint entropy of its translate to 0
    H = np.concatenate([[0.0], _joint_entropies(m, canonical_places(n))[_canonical_rows(n)]])
    size = popcounts(n)
    for system in (CoefficientSystem.uniform(), CoefficientSystem.neural()):
        w = system.weights_row(n)[size]
        asc = w @ H / n
        # the complement of mask s is 2^n - 1 - s
        intr = w @ (H + H[::-1] - H[-1]) / n
        got = asc_finite(m, system, n)
        for what, a, b in (("h", got.h, H[-1] / n), ("asc", got.asc, asc),
                           ("intricacy", got.intricacy, intr)):
            rep.check(_close(a, b), f"gms chain/{system.spec}, n={n}: {what} {a} != per-mask {b}")
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
    uniform = coeffs.all_at_half
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
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; available: {sorted(SUITES)}")
    names = list(SUITES) if suite == "all" else [suite]
    return [SUITES[name]() if max_n is None or name in _UNSIZED else SUITES[name](n_max=max_n)
            for name in names]
