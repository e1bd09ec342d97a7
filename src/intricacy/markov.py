"""Markov measures on shift spaces: entropy rate, subset-sampled joint
entropies, the conditional-entropy series for the averaged complexity,
general measure-weighted series, and a seeded Monte Carlo estimator.

All randomness comes from numpy's PCG64 generator, so runs are
bit-reproducible across platforms for a fixed seed.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ._masks import canonical_places, moment_tables, shape_sums
from .coeffs import HORIZON, CoefficientSystem
from .errors import (CapExceeded, are_numbers, check_terms, is_int, is_matrix, is_word, list_of,
                     optional, read_field, read_symbols)
from .sft import Sft, _as_subset

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
    "asc_finite",
    "asc_lambda",
    "monte_carlo_asc",
    "recode_higher_block",
]

DEFAULT_TERMS = 20
# the block lengths of the chains that have a conditional-entropy series
SERIES_BLOCK_LENS = (1, 2)
ENUMERATION_CAP = 10**7
# rows of symbol tuples the block-chain pass holds per level, depth first
_ROW_BLOCK = 1 << 15


def _check_series_block_len(block_len: int) -> None:
    """Refuse a chain of a block length outside ``SERIES_BLOCK_LENS``."""
    if block_len not in SERIES_BLOCK_LENS:
        raise ValueError(f"series supports block_len {' and '.join(map(str, SERIES_BLOCK_LENS))}; "
                         "recode higher blocks")


def _xlogx(a: np.ndarray) -> np.ndarray:
    # 0 log 0 = 0, branch-free
    a = np.asarray(a, dtype=float)
    return a * np.log(a, out=np.zeros_like(a), where=a > 0)


def _entropy(dist: np.ndarray) -> float:
    return float(-_xlogx(dist).sum())


def _chain_states(states, d: int, block_len: int | None = None):
    """(states, k): one k-block of base symbols per row of a chain of d
    rows, all of one length k, the symbols 0..d-1 (k = 1) where none are
    given; the alphabet runs to the largest symbol.  A given ``block_len``
    must be k."""
    if block_len is not None and block_len < 1:
        raise ValueError(f"block_len must be >= 1, got {block_len}")
    if states is None and block_len not in (None, 1):
        raise ValueError("block_len >= 2 requires explicit states")
    states = tuple((a,) for a in range(d)) if states is None else tuple(
        read_symbols(s, "state") for s in states)
    if len(states) != d:
        raise ValueError("one state per row required")
    lengths = {len(s) for s in states}
    if 0 in lengths:
        raise ValueError("every state must hold at least one symbol")
    if len(lengths) > 1:
        raise ValueError("every state must be a block of one length")
    (k,) = lengths or {1}
    if block_len not in (None, k):
        raise ValueError(f"block_len {block_len} disagrees with the states, which are {k}-blocks")
    if len(set(states)) != d:  # the symbols read must pin the state down
        raise ValueError("states must be distinct")
    return states, k


def _transition_codes(states, support: Sft | None = None) -> np.ndarray | None:
    """Per transition between ``states``: 2 where the blocks do not overlap,
    else 1 where the support forbids it, else 0 (it may carry mass); None if all 0."""
    if all(len(s) == 1 for s in states) and support is None:
        return None
    at = {} if support is None else {lab: i for i, lab in enumerate(support.symbol_labels)}
    return np.array([[2 if u[1:] != v[:-1] else int(
        support is not None and not support.adjacency[at[u[-1]], at[v[-1]]])
        for v in states] for u in states], dtype=np.int8)


def _end_matrix(states) -> np.ndarray:
    # [j, z] = 1 when state j ends with base symbol z (I for a 1-step chain)
    return np.eye(max(max(s) for s in states) + 1)[[s[-1] for s in states]]


def _refusals(P: np.ndarray, codes: np.ndarray | None = None, states=None) -> list[str | None]:
    """Why each matrix of a (G, d, d) stack is no transition matrix of a
    chain on ``states``, None where it is one: finite (NaN passes every
    other test), nonnegative, rows summing to 1 within 1e-12, positive only
    at ``codes`` 0 (overlap before support); the first test failed counts."""
    if P.ndim != 3 or P.shape[1] != P.shape[2]:
        raise ValueError("P must be square")
    flat = P.reshape(len(P), -1)
    used = (flat > 0) * (0 if codes is None else codes.reshape(-1))
    if (flat >= 0).all() and not used.any() and (np.abs(P.sum(axis=2) - 1.0) <= 1e-12).all():
        return [None] * len(P)  # each passes (NaN fails >= 0; inf, the row sum)
    with np.errstate(invalid="ignore"):  # inf - inf in a row: refused as non-finite first
        unbalanced = np.abs(P.sum(axis=2) - 1.0).max(axis=1) > 1e-12
    failed = np.array([~np.isfinite(flat).all(axis=1), (flat < 0).any(axis=1), unbalanced,
                       used.any(axis=1)])
    texts = ("P has non-finite entries", "P has negative entries",
             "P rows must sum to 1 within 1e-12")
    why = (None, "is not admissible in the support shift", "violates the block overlap condition")
    reasons: list[str | None] = [None] * len(P)
    for test, g in zip(*np.nonzero(failed)):
        if reasons[g] is None:
            i, j = divmod(int(used[g].argmax()), len(P[g]))  # first of the top code
            reasons[g] = texts[test] if test < 3 else (
                f"transition {states[i]} -> {states[j]} {why[used[g].max()]}")
    return reasons


def _stationary_stack(P: np.ndarray, codes=None, states=None) -> tuple[np.ndarray, list]:
    """(p, reasons): the ``_refusals`` of a (G, d, d) stack and, for each
    chain that passes, its stationary vector (0 elsewhere), from one
    batched SVD and solve of P^T - I with its last row set to 1^T.  That
    system is singular exactly when p is not unique (the rows of P^T - I
    sum to 0; 1^T p = 1 keeps 1^T out of their span); from condition 1e10
    (p off by about 1e-6) a chain is refused, with no warning.  Chains are
    gathered out of the stack, and their vectors scattered back, only when
    some chain is refused."""
    reasons = _refusals(P, codes, states)
    G, d = P.shape[:2]
    every = reasons.count(None) == G
    idx = np.arange(G) if every else np.flatnonzero([r is None for r in reasons])
    A = (P if every else P[idx]).transpose(0, 2, 1) - np.eye(d)
    A[:, -1] = 1.0
    sv = np.linalg.svd(A, compute_uv=False)
    unique = sv[:, -1] > 1e-10 * sv[:, 0]
    if not unique.all():
        for g in idx[~unique]:
            reasons[g] = ("stationary vector is not unique or is ill-conditioned; "
                          "supply p explicitly")
        idx, A, every = idx[unique], A[unique], False
    b = np.zeros((len(A), d, 1))  # e_d, one per chain
    b[:, -1] = 1.0
    try:
        x = np.clip(np.linalg.solve(A, b)[..., 0], 0.0, None)
    except np.linalg.LinAlgError as exc:
        # unreachable below condition 1e10: A is then nonsingular
        raise ValueError(f"stationary solve failed: singular matrix ({exc})") from exc
    x /= x.sum(axis=1, keepdims=True)
    if every:
        return x, reasons
    p = np.zeros((G, d))
    p[idx] = x
    return p, reasons


def stationary(P) -> np.ndarray:
    """Probability vector p with p P = p, by direct linear solve with one
    equation replaced by normalization (``_stationary_stack`` of one P).
    Raises ValueError for a matrix that is no transition matrix and for a
    chain whose p is not unique or is ill-conditioned (condition >= 1e10)."""
    (p,), (reason,) = _stationary_stack(np.asarray(P, dtype=float)[None])
    if reason is not None:
        raise ValueError(reason)
    return p


class MarkovMeasure:
    """Shift-invariant Markov measure, possibly on block states.

    The ``states`` (``_chain_states``) are k-blocks, k the ``block_len``:
    1 for a plain chain on the alphabet; for k >= 2 P moves one base step
    at a time (successive blocks must overlap).  ``p`` is the stationary
    row vector, solved for when not supplied; a supplied one must be
    finite, nonnegative and stationary, one entry per state.
    """

    def __init__(
        self,
        P,
        p=None,
        *,
        states=None,
        block_len: int | None = None,
        support: Sft | None = None,
    ):
        # copies: the arrays are frozen below, and the caller's stay writable
        P = np.array(P, dtype=float)
        states, block_len = _chain_states(states, len(np.atleast_1d(P)), block_len)
        codes = _transition_codes(states, support)
        if p is None:
            (p,), (reason,) = _stationary_stack(P[None], codes, states)
        else:  # the first test failed counts, those of P before those of p
            (reason,) = _refusals(P[None], codes, states)
            p = np.array(p, dtype=float)
            if reason is None and not np.isfinite(p).all():
                reason = "p has non-finite entries"
            elif reason is None and (p.shape != (len(states),) or (p < 0).any()):
                reason = "p must have one nonnegative entry per state"
            elif reason is None and (abs(p.sum() - 1.0) > 1e-10
                                     or np.max(np.abs(p @ P - p)) > 1e-10):
                reason = "supplied p is not stationary within 1e-10"
        if reason is not None:
            raise ValueError(reason)
        self.block_len = block_len
        self.states = states
        self._end = _end_matrix(states)
        self.alphabet_size = self._end.shape[1]
        self.P = P
        self.p = p
        self.P.setflags(write=False)
        self.p.setflags(write=False)
        # _start[a, j] = 1 when state j begins with base symbol a
        self._start = np.eye(self.alphabet_size)[[v[0] for v in states]].T.copy()
        # the longest stacks of powers and gap entropies computed so far
        self._power_stack = np.empty((0, *P.shape))
        self._gap_stack = np.empty(0)

    @classmethod
    def one_step(cls, P, p=None, support: Sft | None = None) -> "MarkovMeasure":
        return cls(P, p, support=support)

    @classmethod
    def from_dict(cls, d: dict, support: Sft | None = None) -> "MarkovMeasure":
        """Input schema: {"P": [[...]], "p": optional} for a plain chain, or
        {"states": ["00", "01", ...], "P": [[...]]}; "block_len" is
        optional, and where given it must be that of the states."""
        k = read_field(d, "block_len", is_int, "an integer", None)
        states = read_field(d, "states", optional(list_of(is_word)), "a list of states", None)
        P = read_field(d, "P", is_matrix, "a matrix of numbers")
        p = read_field(d, "p", optional(lambda v: isinstance(v, list) and are_numbers(v)),
                       "a list of numbers", None)
        return cls(P, p, states=states, block_len=k, support=support)

    def powers(self, count: int) -> np.ndarray:
        """Stack of P^1..P^count, each the previous one times P: a read-only
        slice of the longest stack this measure has computed, which a
        longer call extends, so no power is computed twice."""
        if count < 0:
            raise ValueError("count must be >= 0")
        Q = self._power_stack
        if count > len(Q):
            Q = _powers(self.P[None], count, Q[None])[0]
            Q.setflags(write=False)
            self._power_stack = Q
        return Q[:count]

    def __repr__(self) -> str:
        return f"MarkovMeasure(block_len={self.block_len}, states={len(self.states)})"


# a record takes the functional form with real types: class syntax would
# compile each field's annotation string at import
MarkovSeries = NamedTuple("MarkovSeries", [
    ("asc", float), ("intricacy", float), ("tail_bound", float), ("terms", int), ("h", float)])

McEstimate = NamedTuple("McEstimate", [
    ("mean", float), ("stderr", float), ("samples", int), ("seed", int)])


class SampledEntropyResult(NamedTuple("SampledEntropyResult", [
        ("n", int), ("asc", float), ("intricacy", float), ("h", float)])):
    """Finite-horizon subset-averaged entropies of a Markov measure."""

    __slots__ = ()


def _powers(P: np.ndarray, count: int, head: np.ndarray | None = None) -> np.ndarray:
    # (G, count, d, d): P^1..P^count of each matrix of a stack, each the last
    # times P, after ``head``, the first powers when they are known
    Q = np.empty((len(P), count, *P.shape[1:]))
    known = 0
    if head is not None:
        known = head.shape[1]
        Q[:, :known] = head
    for i in range(known, count):
        if i == 0:
            Q[:, 0] = P
        else:
            np.matmul(Q[:, i - 1], P, out=Q[:, i])
    return Q


def _gap_entropy_stack(Q: np.ndarray, p: np.ndarray, end: np.ndarray) -> np.ndarray:
    # (G, count): the gap entropies of each chain of a stack from its powers Q
    return -(p[:, None, :, None] * _xlogx(Q @ end)).sum(axis=(2, 3))


def _series_stack(P, p, gaps) -> tuple[np.ndarray, np.ndarray]:
    """Entropy rates and series asc (``asc_series_markov``, summed in the
    same order) of a stack of chains with stationary vectors p and gap
    entropies ``gaps`` (G, terms)."""
    # running sums in gap order; + 0.0 turns the -0.0 of an all-zero sum to 0.0
    asc = np.ldexp(gaps, -np.arange(1, gaps.shape[1] + 1)).cumsum(axis=1)
    return -(p[:, :, None] * _xlogx(P)).sum(axis=(1, 2)) + 0.0, (asc[:, -1] + 0.0) / 2.0


def entropy_rate(m: MarkovMeasure) -> float:
    """h = -sum_j p_j sum_k P_jk log P_jk (nats).  For block chains this
    equals the entropy rate of the underlying base process."""
    return float(-(m.p[:, None] * _xlogx(m.P)).sum() + 0.0)


def gap_entropies(m: MarkovMeasure, count: int) -> np.ndarray:
    """Conditional entropies of the base symbol at gap i given the state
    at time 0, in nats, for i = 1..count: for a plain chain
    -sum_{j,k} p_j (P^i)_jk log (P^i)_jk; for 2-block chains each i-step
    matrix is first collapsed onto the final symbol of the target block.
    A read-only slice of the longest stack the measure has computed; a
    longer call extends it from ``MarkovMeasure.powers``."""
    _check_series_block_len(m.block_len)
    if count < 0:
        raise ValueError("count must be >= 0")
    hs = m._gap_stack
    if count > len(hs):
        Q = m.powers(count)[len(hs):]
        hs = np.concatenate((hs, _gap_entropy_stack(Q[None], m.p[None], m._end)[0]))
        hs.setflags(write=False)
        m._gap_stack = hs
    return hs[:count]


def asc_series_markov(m: MarkovMeasure, terms: int = DEFAULT_TERMS) -> MarkovSeries:
    """Conditional-entropy series for the limit averaged complexity of a
    chain whose block length is in ``SERIES_BLOCK_LENS``: half of sum_i
    2^-i H(symbol | symbol at gap i), truncated at ``terms`` with a geometric tail bound; the
    intricacy follows as twice that minus the entropy rate."""
    check_terms(terms)
    gaps = gap_entropies(m, terms)
    h, asc = (float(x[0]) for x in _series_stack(m.P[None], m.p[None], gaps[None]))
    tail = math.ldexp(math.log(m.alphabet_size), -terms)
    return MarkovSeries(asc, 2.0 * asc - h, tail, terms, h)


def sampled_joint_entropy(m: MarkovMeasure, S, n: int | None = None) -> float:
    """Joint entropy of the base symbols read at the places of S.

    ``_joint_entropies`` of this one subset.  For a plain chain the
    sampled process is itself Markov, so the exact chain rule H(p) + sum
    over gaps applies.  A block chain is cut at its runs of block_len
    places (``_cut_entropies``) and each piece takes the forward pass of
    ``_block_entropies``: about r^|piece| * d^2 flops for d states,
    refused past r^|piece| = ENUMERATION_CAP."""
    spec = _as_subset(S, n)
    if spec.mask == 0:
        return 0.0
    return float(_joint_entropies(m, [[spec.mask >> i & 1 for i in range(spec.n)]])[0])


def _joint_entropies(m: MarkovMeasure, places) -> np.ndarray:
    """Joint entropies at the places of each row of ``places`` ((N, width)
    0/1, every row nonempty; only its gaps matter), from the gap stack up
    to the widest gap present.  A plain chain takes the chain rule, H(p)
    plus the gap entropies between consecutive places, summed in row
    order; a block chain is cut into pieces (``_cut_entropies``)."""
    places = np.asarray(places, dtype=bool)
    rows, cols = divmod(np.flatnonzero(places), places.shape[1])
    inner = rows[1:] == rows[:-1]
    gaps = np.diff(cols)[inner]
    count = int(gaps.max(initial=0))
    if m.block_len != 1:
        return _cut_entropies(m, m.powers(count), places)
    hs = gap_entropies(m, count)
    return _entropy(m.p) + np.bincount(rows[1:][inner], hs[gaps - 1], len(places))


def _cut_entropies(m: MarkovMeasure, powers: np.ndarray, places: np.ndarray) -> np.ndarray:
    """Joint entropies at the places of each row of ``places`` ((N, width)
    bool, every row nonempty), cut at every run of k = block_len places.

    A run c..c+k-1 reads the whole hidden state at c (the states are
    distinct k-blocks), so by the Markov property and stationarity
    H(X_S) = H(piece_0) + sum_i [H(piece_i) - H(p)]: piece 0 runs from the
    first place to the end of the first run, piece i from the start of run
    i to the end of run i+1 (or the last place), shifted to start at 0, so
    it begins with the head {0..k-1}, whose entropy is that of the state,
    H(p).  The distinct pieces of all rows take one ``_block_entropies``
    pass; one ``bincount`` sums them per row."""
    N, width = places.shape
    k = m.block_len
    wide = np.pad(places, ((0, 0), (0, max(width, k) - 1)))  # room for any piece's window
    run = wide[:, :width].copy()  # run[i, c]: places c..c+k-1 of row i are all set
    for j in range(1, k):
        run &= wide[:, j : j + width]
    cut_row, cut = divmod(np.flatnonzero(run), width)
    cuts = np.bincount(cut_row, minlength=N)
    # pieces [lo, hi] in row order, each row's piece 0 then one per run
    first = np.cumsum(cuts + 1) - (cuts + 1)
    ends_at = np.arange(len(cut)) + cut_row  # the piece that ends where run j ends
    lo, hi = np.empty((2, N + len(cut)), dtype=np.intp)
    lo[first], hi[first + cuts] = places.argmax(axis=1), width - 1 - places[:, ::-1].argmax(axis=1)
    hi[ends_at], lo[ends_at + 1] = cut + k - 1, cut
    owner = np.repeat(np.arange(N), cuts + 1)
    span = np.arange(int((hi - lo).max()) + 1)
    windows = np.lib.stride_tricks.sliding_window_view(wide, len(span), axis=1)
    pieces = windows[owner, lo] & (span <= (hi - lo)[:, None])
    # distinct pieces: equal rows of their bits packed into 64-bit words sort together
    words = np.packbits(pieces, axis=1, bitorder="little")
    words = np.pad(words, ((0, 0), (0, -words.shape[1] % 8))).view(np.uint64)
    order = np.lexsort(words.T)
    new = np.concatenate(([True], (words[order[1:]] != words[order[:-1]]).any(axis=1)))
    at = np.empty(len(order), dtype=np.intp)
    at[order] = np.cumsum(new) - 1
    H = _block_entropies(m, powers, pieces[order[new]])[at]
    tail = np.ones(len(owner), dtype=bool)
    tail[first] = False
    return np.bincount(owner, H - tail * _entropy(m.p), N)


def _block_entropies(m: MarkovMeasure, powers: np.ndarray, places) -> np.ndarray:
    """Joint entropies at the places of each nonempty row of ``places``
    ((N, width) 0/1; only its gaps matter), powers[g-1] = P^g, by one flat
    forward pass.  A row of the pass is one symbol tuple read so far of one
    subset: its hidden-state weights, tagged with the subset.  Per level the
    rows are stably sorted by their subset's next gap (unless all share
    one), and each run of equal gaps g is multiplied by P^g and split by
    the next state's first symbol in one product; zero rows drop, and the
    rows of the subsets that end there add -q log q (q the row's mass) to
    them, one ``bincount``.  No row holds a copy of P^g, so a level holds
    O(rows d) floats.  A level extends at most ``_ROW_BLOCK`` rows: larger
    blocks are halved, depth first.  r^|S| > ENUMERATION_CAP is refused
    first."""
    places = np.asarray(places, dtype=bool)
    rows, cols = divmod(np.flatnonzero(places), places.shape[1])
    sizes = np.bincount(rows, minlength=len(places))
    if m.alphabet_size ** int(sizes.max()) > ENUMERATION_CAP:
        raise CapExceeded(f"r^|piece| exceeds the enumeration cap {ENUMERATION_CAP}")
    # G[i, j] = the gap before place j of subset i: 0 at its first place and past its last
    rank = np.arange(len(cols)) - (np.cumsum(sizes) - sizes)[rows]
    G = np.zeros((len(sizes), int(sizes.max())), dtype=np.intp)
    G[rows, rank] = np.diff(cols, prepend=0) * (rank > 0)
    r, d = m._start.shape
    # Q[g] = P^g (P^0 = I) times each first symbol's states, side by side: (d, r d)
    Q = np.concatenate([np.eye(d)[None], powers])[:, :, None, :] * m._start
    Q = Q.reshape(len(Q), d, r * d)
    H = np.zeros(len(sizes))
    # depth first: (level, rows W before their level's place, subset of each row)
    stack = [(0, np.tile(m.p, (len(sizes), 1)), np.arange(len(sizes)))]
    while stack:
        level, W, at = stack.pop()
        if len(W) * r > _ROW_BLOCK and len(W) > 1:
            half = len(W) // 2
            stack += [(level, W[half:], at[half:]), (level, W[:half], at[:half])]
            continue
        gap = G[at, level]
        if gap.min() != gap.max():
            order = np.argsort(gap, kind="stable")
            W, at, gap = W[order], at[order], gap[order]
        X = np.empty((len(W), r * d))
        runs = np.flatnonzero(np.concatenate(([True], gap[1:] != gap[:-1], [True])))
        for a, b in zip(runs[:-1], runs[1:]):
            np.matmul(W[a:b], Q[gap[a]], out=X[a:b])
        X = X.reshape(-1, d)
        at = at.repeat(r)
        q = X @ np.ones(d)
        done = sizes[at] == level + 1
        H -= np.bincount(at[done], _xlogx(q[done]), len(H))
        alive = ~done & (q > 0)  # weights are >= 0: a row is zero where its sum is
        if alive.any():
            stack.append((level + 1, X[alive], at[alive]))
    return H


def asc_finite(m: MarkovMeasure, coeffs: CoefficientSystem, n: int) -> SampledEntropyResult:
    """Average of the sampled joint entropies over all 2^n subsets of the
    window, divided by n.  Capped at n = ``coeffs.HORIZON`` (64), where the
    weights stop, for plain chains and n = 12 for block chains.

    Each average is one dot product of shape sums with a moment table.
    For a plain chain the joint entropy at S is |S| H(p) less H(p) - h_g
    per consecutive gap g of S (h_g the gap entropy): a shape of span 0
    per element and one of span g and 2 elements per consecutive pair,
    kappa = 0, O(n^2) with no table.  A block chain bins the joint
    entropies at the 2^(n-1) canonical masks 2i+1 (one
    ``_joint_entropies`` pass) by top and size, kappa = n - 1."""
    if n < 1:
        raise ValueError(f"n={n} must be >= 1")
    cap = HORIZON if m.block_len == 1 else 12
    if n > cap:
        raise CapExceeded(f"n={n} outside [1, {cap}] for block_len={m.block_len}")
    if m.block_len == 1:
        # phi[span, size], one column past the window so a window of 1 has a size-2 column
        phi = np.zeros((n, n + 2))
        phi[0, 1] = H = _entropy(m.p)
        hs = gap_entropies(m, n - 1)
        phi[1:, 2] = hs - H
        phi, kappa = phi[:, : n + 1], 0
        # the full window: H(p) and n - 1 gaps of 1
        h_full = H + (n - 1) * float(hs[0]) if n > 1 else H
    else:
        phi, kappa = shape_sums(_joint_entropies(m, canonical_places(n)), n), n - 1
        # the full window is the one shape of span n - 1 and size n
        h_full = float(phi[n - 1, n])
    total = float(np.vdot(phi, moment_tables(coeffs, n, kappa)[0]))
    # intricacy = 2 asc - h
    return SampledEntropyResult(n, total / n, (2.0 * total - h_full) / n, h_full / n)


def asc_lambda(m: MarkovMeasure, lam: CoefficientSystem, terms: int = 40) -> float:
    """General-weight series: sum_i of the system lam's moment(i + 1, 2)
    (the integral of p^2 (1-p)^(i-1) over its measure) times the gap-i
    conditional entropy.  The point mass at 1/2 reproduces the plain
    series coefficients 2^-(i+1) exactly."""
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
    standard deviation over sqrt(samples).  All samples take one
    ``_joint_entropies`` pass."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    width = 2 * n
    rng = np.random.Generator(np.random.PCG64(seed))
    bits = rng.integers(0, 2, size=(samples, width), dtype=np.int64)
    bits[:, 0] = 1
    values = _joint_entropies(m, bits) / width
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
    # every label of the pruned shift starts a state, so the alphabet runs to
    # the largest label: forbidding "1" of 3 symbols leaves 0 and 2
    return MarkovMeasure(P, states=states)
