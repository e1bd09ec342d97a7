"""Markov measures on shift spaces: entropy rate, subset-sampled joint
entropies, the conditional-entropy series for the averaged complexity,
general measure-weighted series, and a seeded Monte Carlo estimator.

All randomness comes from numpy's PCG64 generator, so runs are
bit-reproducible across platforms for a fixed seed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._masks import gap_size_sums, size_sums
from .coeffs import CoefficientSystem, SymmetricMeasure
from .errors import CapExceeded
from .sft import Sft, SubsetSpec, _as_subset

__all__ = [
    "MarkovMeasure",
    "MarkovSeries",
    "McEstimate",
    "SampledEntropyResult",
    "stationary",
    "entropy_rate",
    "gap_entropies",
    "asc_series_markov",
    "sampled_joint_entropy",
    "sampled_joint_entropy_oracle",
    "asc_finite",
    "asc_lambda",
    "monte_carlo_asc",
    "recode_higher_block",
    "cylinder_measure",
]

DEFAULT_TERMS = 20
ENUMERATION_CAP = 10**7
# a stationary solve above this condition number warns
_WARN_CONDITION = 1e12
# rows of symbol tuples a block-chain joint entropy holds per level
_ROW_BLOCK = 1 << 15


def _xlogx(a: np.ndarray) -> np.ndarray:
    # 0 log 0 = 0, branch-free
    a = np.asarray(a, dtype=float)
    return a * np.log(a, out=np.zeros_like(a), where=a > 0)


def _entropy(dist: np.ndarray) -> float:
    return float(-_xlogx(dist).sum())


def _check_transitions(P: np.ndarray) -> None:
    """Refuse a P that is not a square row-stochastic matrix.  NaN passes
    every comparison, so finiteness is tested first."""
    d = P.shape[0]
    if P.shape != (d, d):
        raise ValueError("P must be square")
    if not np.isfinite(P).all():
        raise ValueError("P has non-finite entries")
    if np.any(P < 0):
        raise ValueError("P has negative entries")
    if np.max(np.abs(P.sum(axis=1) - 1.0)) > 1e-12:
        raise ValueError("P rows must sum to 1 within 1e-12")


def stationary(P) -> np.ndarray:
    """Probability vector p with p P = p, by direct linear solve with one
    equation replaced by normalization.  Raises ValueError for chains
    whose stationary vector is not unique and for a singular solve; warns
    when the solve is badly conditioned."""
    P = np.asarray(P, dtype=float)
    _check_transitions(P)
    d = P.shape[0]
    sv = np.linalg.svd(P.T - np.eye(d), compute_uv=False)
    nullity = int(np.sum(sv < 1e-10 * max(1.0, sv[0])))
    if nullity != 1:
        raise ValueError(
            "stationary vector is not unique (reducible chain); supply p explicitly"
        )
    A = np.vstack([(P.T - np.eye(d))[:-1], np.ones(d)])
    cond = np.linalg.cond(A)
    if cond > _WARN_CONDITION:
        warnings.warn(f"stationary solve condition {cond:.2e}", RuntimeWarning)
    b = np.zeros(d)
    b[-1] = 1.0
    try:
        p = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        # unreachable once the nullity is 1: A is then nonsingular
        raise ValueError(f"stationary solve failed: singular matrix ({exc})") from exc
    p = np.clip(p, 0.0, None)
    return p / p.sum()


class MarkovMeasure:
    """Shift-invariant Markov measure, possibly on block states.

    ``block_len`` k is 1 for a plain chain on the alphabet; for k >= 2 the
    states are overlapping k-blocks of base symbols and P moves one base
    step at a time (successive blocks must overlap).  ``p`` is the
    stationary row vector (computed when not supplied).
    """

    def __init__(
        self,
        P,
        p=None,
        *,
        states=None,
        block_len: int = 1,
        alphabet_size: int | None = None,
        support: Sft | None = None,
    ):
        P = np.asarray(P, dtype=float)
        _check_transitions(P)
        d = P.shape[0]

        if states is None:
            if block_len != 1:
                raise ValueError("block_len >= 2 requires explicit states")
            states = tuple((a,) for a in range(d))
        else:
            states = tuple(tuple(int(x) for x in s) for s in states)
        if len(states) != d:
            raise ValueError("one state per row required")
        if any(len(s) != block_len for s in states):
            raise ValueError(f"every state must be a {block_len}-block")
        self.block_len = block_len
        self.states = states
        if alphabet_size is None:
            alphabet_size = max(max(s) for s in states) + 1
        self.alphabet_size = alphabet_size

        if block_len >= 2:
            for i, u in enumerate(states):
                for j, v in enumerate(states):
                    if P[i, j] > 0 and u[1:] != v[:-1]:
                        raise ValueError(
                            f"transition {u} -> {v} violates the block overlap condition"
                        )
        if support is not None:
            A = support.adjacency
            labels = {lab: idx for idx, lab in enumerate(support.symbol_labels)}
            for i, u in enumerate(states):
                for j, v in enumerate(states):
                    if P[i, j] > 0 and not A[labels[u[-1]], labels[v[-1]]]:
                        raise ValueError(
                            f"transition {u} -> {v} is not admissible in the support shift"
                        )

        if p is None:
            p = stationary(P)
        else:
            p = np.asarray(p, dtype=float)
            if not np.isfinite(p).all():
                raise ValueError("p has non-finite entries")
            if abs(p.sum() - 1.0) > 1e-10 or np.max(np.abs(p @ P - p)) > 1e-10:
                raise ValueError("supplied p is not stationary within 1e-10")
        self.P = P
        self.p = p
        self.P.setflags(write=False)
        self.p.setflags(write=False)
        symbols = np.arange(self.alphabet_size)
        # _start[a, j] = 1 when state j begins with base symbol a
        first = np.array([v[0] for v in states])
        self._start = (first == symbols[:, None]).astype(float)
        # _end[j, z] = 1 when state j ends with base symbol z (I for a 1-step chain)
        last = np.array([v[-1] for v in states])
        self._end = (last[:, None] == symbols).astype(float)

    @classmethod
    def one_step(cls, P, p=None, support: Sft | None = None) -> "MarkovMeasure":
        return cls(P, p, block_len=1, support=support)

    @classmethod
    def from_dict(cls, d: dict, support: Sft | None = None) -> "MarkovMeasure":
        """Input schema: {"block_len": 1, "P": [[...]], "p": optional} or
        {"block_len": k, "states": ["00", "01", ...], "P": [[...]]}."""
        k = int(d.get("block_len", 1))
        P = d["P"]
        p = d.get("p")
        if k == 1:
            return cls(P, p, block_len=1, support=support)
        states = [tuple(int(c) for c in s) for s in d["states"]]
        return cls(P, p, states=states, block_len=k, support=support)

    def powers(self, count: int) -> np.ndarray:
        """Stack of P^1..P^count, each the previous one times P."""
        Q = np.empty((count, *self.P.shape))
        for i in range(count):
            Q[i] = self.P if i == 0 else Q[i - 1] @ self.P
        return Q

    def __repr__(self) -> str:
        return f"MarkovMeasure(block_len={self.block_len}, states={len(self.states)})"


@dataclass(frozen=True)
class MarkovSeries:
    asc: float
    intricacy: float
    tail_bound: float
    terms: int
    h: float


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    samples: int
    seed: int


@dataclass(frozen=True)
class SampledEntropyResult:
    """Finite-horizon subset-averaged entropies of a Markov measure."""

    n: int
    asc: float
    intricacy: float
    h: float


def entropy_rate(m: MarkovMeasure) -> float:
    """h = -sum_j p_j sum_k P_jk log P_jk (nats).  For block chains this
    equals the entropy rate of the underlying base process."""
    return float(-(m.p[:, None] * _xlogx(m.P)).sum())


def gap_entropies(m: MarkovMeasure, count: int) -> np.ndarray:
    """Conditional entropies of the base symbol at gap i given the state
    at time 0, in nats, for i = 1..count: for a plain chain
    -sum_{j,k} p_j (P^i)_jk log (P^i)_jk; for 2-block chains each i-step
    matrix is first collapsed onto the final symbol of the target block."""
    if m.block_len > 2:
        raise ValueError("gap entropies support block_len 1 and 2")
    X = _xlogx(m.powers(count) @ m._end)
    return np.array([-(m.p[:, None] * x).sum() for x in X])


def asc_series_markov(m: MarkovMeasure, terms: int = DEFAULT_TERMS) -> MarkovSeries:
    """Conditional-entropy series for the limit averaged complexity of a
    1-step (or 2-block) chain: half of sum_i 2^-i H(symbol | symbol at
    gap i), truncated at ``terms`` with a geometric tail bound; the
    intricacy follows as twice that minus the entropy rate."""
    if terms < 1:
        raise ValueError("terms must be >= 1")
    if m.block_len not in (1, 2):
        raise ValueError("series supports block_len 1 and 2; recode higher blocks")
    asc = 0.0
    for i, h_i in enumerate(gap_entropies(m, terms).tolist(), 1):
        asc += h_i / 2.0**i
    asc /= 2.0
    h = entropy_rate(m)
    tail = math.log(m.alphabet_size) / 2.0**terms
    return MarkovSeries(asc, 2.0 * asc - h, tail, terms, h)


def sampled_joint_entropy(m: MarkovMeasure, S, n: int | None = None) -> float:
    """Joint entropy of the base symbols read at the places of S.

    For a plain chain the sampled process is itself Markov, so the exact
    chain rule H(p) + sum over gaps applies.  For block chains a forward
    pass goes level by level: a matrix holds one row per symbol tuple
    read so far (weights over the hidden block states, tuples in
    lexicographic order), and each gap g maps it through P^g and splits
    every row by the first symbol of the next state.  The pass costs
    about r^|S| * d^2 flops for d states (budget r^|S| <=
    ENUMERATION_CAP).  Past _ROW_BLOCK rows it continues block by block,
    depth-first, holding at most one _ROW_BLOCK x d array per further
    level, never all r^|S| rows at once."""
    spec = _as_subset(S, n)
    if spec.mask == 0:
        return 0.0
    count = max(spec.gaps, default=0)
    if m.block_len == 1:
        hs = gap_entropies(m, count).tolist()
        return _entropy(m.p) + sum(hs[g - 1] for g in spec.gaps)
    return _block_entropy(m, m.powers(count), spec)


def _block_entropy(m: MarkovMeasure, powers: np.ndarray, spec: SubsetSpec) -> float:
    # sampled_joint_entropy of a block chain, with P^1.. given as ``powers``
    if m.alphabet_size ** spec.size > ENUMERATION_CAP:
        raise CapExceeded(f"r^|S| exceeds the enumeration cap {ENUMERATION_CAP}")
    return _tuple_entropy(m, powers, m._start * m.p, spec.gaps)


def _tuple_entropy(m: MarkovMeasure, powers: np.ndarray, W: np.ndarray,
                   gaps: tuple[int, ...]) -> float:
    """-sum q log q over the symbol tuples that extend the rows of W
    (row = weights over hidden states of one tuple read so far) through
    the remaining gaps, powers[g-1] = P^g.  Once a level would pass
    _ROW_BLOCK rows, the rows go on in blocks, depth-first."""
    r, d = m._start.shape
    for level, g in enumerate(gaps):
        if len(W) * r > _ROW_BLOCK:
            step = _ROW_BLOCK // r
            return sum(_tuple_entropy(m, powers, W[lo : lo + step], gaps[level:])
                       for lo in range(0, len(W), step))
        W = ((W @ powers[g - 1])[:, None, :] * m._start).reshape(-1, d)
        W = W[W.any(axis=1)]
    return _entropy(W.sum(axis=1))


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
    """Brute-force cross-check: enumerate every word covering S, weight it
    by its cylinder measure, aggregate onto the projection, then take the
    entropy of the projected distribution."""
    spec = _as_subset(S, n)
    if spec.mask == 0:
        return 0.0
    elems = spec.elements
    length = elems[-1] + 1
    if m.alphabet_size**length > ENUMERATION_CAP:
        raise CapExceeded("oracle budget exceeded")
    out: dict[tuple[int, ...], float] = {}
    words = [()]
    for _ in range(length):
        words = [w + (a,) for w in words for a in range(m.alphabet_size)]
    for w in words:
        mu = cylinder_measure(m, w)
        if mu > 0:
            key = tuple(w[i] for i in elems)
            out[key] = out.get(key, 0.0) + mu
    return _entropy(np.array(list(out.values())))


def asc_finite(m: MarkovMeasure, coeffs: CoefficientSystem, n: int) -> SampledEntropyResult:
    """Average of the sampled joint entropies over all 2^n subsets of the
    window, divided by n.  Capped at n = 20 for plain chains and n = 12
    for block chains.

    For a plain chain the joint entropy at S is H(p) plus one gap entropy
    h_g per consecutive gap of S, so the k-subsets sum to
    C(n, k) H(p) + sum_g h_g (n - g) C(n - g - 1, k - 2) (``gap_size_sums``),
    O(n^2) with no table.  A block chain fills a table of the joint
    entropies at the 2^(n-1) canonical masks 2i+1 (every joint entropy is
    that of a translate containing 0) and sums it by subset size."""
    if n < 1:
        raise ValueError(f"n={n} must be >= 1")
    cap = 20 if m.block_len == 1 else 12
    if n > cap:
        raise CapExceeded(f"n={n} outside [1, {cap}] for block_len={m.block_len}")
    if m.block_len == 1:
        every = gap_size_sums(_entropy(m.p), gap_entropies(m, n - 1), n)
    else:
        Q = m.powers(n - 1)
        H = np.array([_block_entropy(m, Q, SubsetSpec(n, 2 * i + 1))
                      for i in range(1 << (n - 1))])
        every = size_sums(H, n)[0]
    total = float(np.asarray(coeffs.weights_row(n)) @ every)
    # the full window is the one n-subset; intricacy = 2 asc - h
    h_full = float(every[n])
    return SampledEntropyResult(n, total / n, (2.0 * total - h_full) / n, h_full / n)


def asc_lambda(m: MarkovMeasure, lam: SymmetricMeasure, terms: int = 40) -> float:
    """General-weight series: sum_i (integral of p^2 (1-p)^(i-1) dlam)
    times the gap-i conditional entropy.  The point mass at 1/2
    reproduces the plain series coefficients 2^-(i+1) exactly."""
    if terms < 1:
        raise ValueError("terms must be >= 1")
    if m.block_len != 1:
        raise ValueError("general-weight series supports block_len 1 only")
    hs = gap_entropies(m, terms).tolist()
    return sum(lam.moment(i + 1, 2) * h_i for i, h_i in enumerate(hs, 1))


def monte_carlo_asc(m: MarkovMeasure, n: int, samples: int, seed: int) -> McEstimate:
    """Estimate the limit averaged complexity by sampling windows: draw
    bit strings of length 2n with the first bit set and the rest fair
    coin flips (PCG64 stream from ``seed``), average
    H(symbols at set bits) / (2n).  The standard error is the sample
    standard deviation over sqrt(samples)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    width = 2 * n
    rng = np.random.Generator(np.random.PCG64(seed))
    bits = rng.integers(0, 2, size=(samples, width), dtype=np.int64)
    bits[:, 0] = 1
    if m.block_len == 1:
        # chain rule per row: H(p) plus the gap entropies between
        # consecutive set bits, summed in row order as a loop would
        hs = np.concatenate([[0.0], gap_entropies(m, width - 1)])
        rows, cols = np.nonzero(bits)
        inner = rows[1:] == rows[:-1]
        gap_sums = np.bincount(rows[1:][inner], weights=hs[np.diff(cols)[inner]],
                               minlength=samples)
        values = (_entropy(m.p) + gap_sums) / width
    else:
        Q = m.powers(width - 1)
        values = np.empty(samples)
        for i in range(samples):
            spec = SubsetSpec.from_elements(width, np.flatnonzero(bits[i]))
            values[i] = _block_entropy(m, Q, spec) / width
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return McEstimate(mean, stderr, samples, seed)


def recode_higher_block(conditionals: dict, sft: Sft) -> MarkovMeasure:
    """Build the block chain of a k-step specification.

    ``conditionals`` maps each admissible k-block (string or symbol
    tuple) to {next symbol: probability}.  States are the admissible
    k-blocks of the shift; inadmissible blocks are dropped.  Assigning
    positive probability to a transition the shift forbids is an error.
    """
    table: dict[tuple[int, ...], dict[int, float]] = {}
    for block, row in conditionals.items():
        key = tuple(int(c) for c in block)
        table[key] = {int(a): float(q) for a, q in row.items()}
    lens = {len(b) for b in table}
    if len(lens) != 1:
        raise ValueError("all conditioning blocks must have the same length")
    k = lens.pop()

    if len(set(sft.symbol_labels)) != sft.alphabet_size:
        raise ValueError(
            "higher-block recoding needs a shift whose vertices are the "
            "alphabet symbols themselves (forbidden words of length <= 2)"
        )
    label_index = {lab: idx for idx, lab in enumerate(sft.symbol_labels)}
    words = sft.enumerate_words(k)
    states = sorted(tuple(sft.symbol_labels[v] for v in w) for w in words)
    index = {s: i for i, s in enumerate(states)}
    P = np.zeros((len(states), len(states)))
    for s in states:
        row = table.get(s)
        if row is None:
            raise ValueError(f"no conditional row for admissible block {s}")
        if abs(sum(row.values()) - 1.0) > 1e-12:
            raise ValueError(f"conditional row for {s} does not sum to 1")
        for a, q in row.items():
            if q == 0.0:
                continue
            succ = s[1:] + (a,)
            if succ not in index or not sft.adjacency[label_index[s[-1]], label_index[a]]:
                raise ValueError(f"positive probability on forbidden transition {s} -> {a}")
            P[index[s], index[succ]] = q
    return MarkovMeasure(P, states=states, block_len=k, alphabet_size=sft.alphabet_size)
