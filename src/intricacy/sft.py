"""Shifts of finite type and word counting at arbitrary index sets.

An Sft is a vertex shift: a finite directed graph whose bi-infinite paths
are the points of the system.  Forbidden-word input is recoded to a vertex
shift on overlapping blocks.  The central quantity is ``count_words_at``:
the number of distinct symbol patterns readable at the places of an index
set S, computed as a path count through gap-indexed reachability matrices.
A brute-force enumeration oracle is provided for cross-checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .errors import CapExceeded

__all__ = ["SubsetSpec", "Sft", "DEFAULT_ORACLE_CAP", "log_spectral_radius"]

DEFAULT_ORACLE_CAP = 10**7

MAX_SUBSET_HORIZON = 64


@dataclass(frozen=True)
class SubsetSpec:
    """A subset of {0, ..., n-1} as a bitmask with horizon n."""

    n: int
    mask: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_SUBSET_HORIZON:
            raise ValueError(f"horizon n={self.n} outside [1, {MAX_SUBSET_HORIZON}]")
        if not 0 <= self.mask < (1 << self.n):
            raise ValueError(f"mask {self.mask:#x} out of range for n={self.n}")

    @classmethod
    def from_elements(cls, n: int, elements) -> "SubsetSpec":
        mask = 0
        for e in elements:
            if not 0 <= e < n:
                raise ValueError(f"element {e} outside horizon {n}")
            mask |= 1 << e
        return cls(n, mask)

    @property
    def elements(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if self.mask >> i & 1)

    @property
    def size(self) -> int:
        return bin(self.mask).count("1")

    @property
    def gaps(self) -> tuple[int, ...]:
        """Differences between consecutive elements."""
        e = self.elements
        return tuple(b - a for a, b in zip(e, e[1:]))

    @property
    def runs(self) -> tuple[int, ...]:
        """Lengths of the maximal blocks of consecutive elements."""
        out = []
        run = 0
        for i in range(self.n + 1):
            if i < self.n and self.mask >> i & 1:
                run += 1
            elif run:
                out.append(run)
                run = 0
        return tuple(out)

    def complement(self) -> "SubsetSpec":
        return SubsetSpec(self.n, ((1 << self.n) - 1) ^ self.mask)

    def canonical(self) -> "SubsetSpec":
        """Shift so the smallest element is 0 (gaps are unchanged)."""
        if self.mask == 0:
            return self
        m = self.mask
        return SubsetSpec(self.n, m >> (m & -m).bit_length() - 1)

    def dilate(self, k: int) -> "SubsetSpec":
        """Replace each element s by the block {s, ..., s+k-1}; the horizon
        grows to n+k-1.  dilate(1) is the identity."""
        if k < 1:
            raise ValueError("dilation width must be >= 1")
        d = self.mask
        for j in range(1, k):
            d |= self.mask << j
        return SubsetSpec(self.n + k - 1, d)

    def __iter__(self):
        return iter(self.elements)


def log_spectral_radius(A, log_weights=None):
    """log of the spectral radius of A * diag(exp(log_weights)) for a
    nonnegative A, from the eigenvalues of the matrix.  log_weights holds
    a finite weight per vertex (none: 0), or is a (G, d) stack of them for
    G radii from one Karp recursion and one batched eigen-solve: an array,
    each entry equal to its one-row call bit for bit.

    Before the eigen-solve the log entries are scaled by a diagonal
    similarity and shifted by the maximum cycle mean lam (max-plus, Karp):
    the heaviest cycle then has entries 1 and no entry exceeds 1, so the
    radius left is between 1 and the dimension and lam carries the rest.
    Potentials of any size or spread neither overflow nor lose the
    heaviest cycle to underflow.  Raises ValueError when no cycle exists
    (radius 0) instead of returning -inf."""
    A = np.asarray(A, dtype=float)
    lw = np.zeros(A.shape[0]) if log_weights is None else np.asarray(log_weights, dtype=float)
    d = A.shape[0]
    edge = A > 0
    L = np.where(edge, np.log(A, out=np.zeros_like(A), where=edge) + lw.reshape(-1, 1, d), -np.inf)
    # Y[k, g, a] = heaviest walk of k edges starting at a, for each row g
    Y = np.zeros((d + 1, len(L), d))
    for k in range(1, d + 1):
        (L + Y[k - 1][:, None, :]).max(axis=2, out=Y[k])
    # a walk of d edges from a exists whatever the finite weights are
    cyclic = Y[d, 0] > -np.inf
    if not cyclic.any():
        raise ValueError("spectral radius is 0: the matrix has no cycle")
    Yc = Y[:, :, cyclic]
    lam = ((Yc[d] - Yc[:d]) / (d - np.arange(d))[:, None, None]).min(axis=0).max(axis=1)
    # potentials x: the heaviest walk of fewer than d edges less lam per
    # edge, so L[a, b] + x[b] - x[a] <= lam
    x = (Y[:d] - lam[:, None] * np.arange(d)[:, None, None]).max(axis=0)
    scaled = np.exp(np.where(edge, L + x[:, None, :] - x[:, :, None] - lam[:, None, None], -np.inf))
    radius = np.abs(np.linalg.eigvals(scaled)).max(axis=1)
    out = [c + math.log(r) for c, r in zip(lam.tolist(), radius.tolist())]
    return out[0] if lw.ndim == 1 else np.array(out)


def _as_subset(S, n: int | None = None) -> SubsetSpec:
    if isinstance(S, SubsetSpec):
        return S
    elems = sorted(S)
    if n is None:
        n = (max(elems) + 1) if elems else 1
    return SubsetSpec.from_elements(n, elems)


def _parse_word(word, alphabet_size: int) -> tuple[int, ...]:
    if isinstance(word, str):
        out = tuple(int(ch) for ch in word)
    else:
        out = tuple(int(a) for a in word)
    if not out:
        raise ValueError("empty forbidden word")
    if any(not 0 <= a < alphabet_size for a in out):
        raise ValueError(f"word {word!r} uses symbols outside the alphabet")
    return out


class Sft:
    """Vertex shift of finite type on ``alphabet_size`` symbols.

    ``adjacency[a][b] == 1`` means symbol b may follow symbol a.  Symbols
    with no outgoing or no incoming edge are pruned at construction (to a
    fixed point), so every finite path extends to a bi-infinite sequence.
    For shifts built from forbidden words, ``symbol_labels`` maps each
    vertex back to the symbol of the original alphabet it reads out.

    Immutable after construction, so instances are safe to share.
    """

    def __init__(self, adjacency, symbol_labels=None):
        M = np.asarray(adjacency)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        if not ((M == 0) | (M == 1)).all():
            raise ValueError("adjacency entries must be 0 or 1")
        M = M.astype(np.int64)
        labels = list(range(M.shape[0])) if symbol_labels is None else list(symbol_labels)
        if len(labels) != M.shape[0]:
            raise ValueError("one label per vertex required")

        keep = np.arange(M.shape[0])
        while True:
            alive = (M.sum(axis=1) > 0) & (M.sum(axis=0) > 0)
            if alive.all():
                break
            M = M[np.ix_(alive, alive)]
            keep = keep[alive]
            if M.size == 0:
                raise ValueError("empty shift: no symbol survives pruning")
        self.adjacency = M
        self.adjacency.setflags(write=False)
        self.alphabet_size = M.shape[0]
        self.symbol_labels = tuple(labels[i] for i in keep)

    # -- constructors ----------------------------------------------------

    @classmethod
    def full_shift(cls, r: int) -> "Sft":
        if r < 2:
            raise ValueError("alphabet size must be >= 2")
        return cls(np.ones((r, r), dtype=np.int64))

    @classmethod
    def golden_mean(cls) -> "Sft":
        return cls.from_forbidden_words(2, ["11"])

    @classmethod
    def from_forbidden_words(cls, alphabet_size: int, forbidden) -> "Sft":
        """Shift avoiding the given words, recoded as a vertex shift on
        (L-1)-blocks where L is the longest forbidden word."""
        if alphabet_size < 2:
            raise ValueError("alphabet size must be >= 2")
        words = [_parse_word(w, alphabet_size) for w in forbidden]
        banned_symbols = {w[0] for w in words if len(w) == 1}
        symbols = [a for a in range(alphabet_size) if a not in banned_symbols]
        if not symbols:
            raise ValueError("every symbol is forbidden")
        words = [w for w in words if len(w) > 1]
        L = max((len(w) for w in words), default=1)
        if L == 1:
            r = len(symbols)
            return cls(np.ones((r, r), dtype=np.int64), symbol_labels=symbols)

        bad = set(words)

        def clean(block: tuple[int, ...]) -> bool:
            return not any(
                block[i : i + l] in bad
                for l in range(2, len(block) + 1)
                for i in range(len(block) - l + 1)
            )

        blocks = [(a,) for a in symbols]
        for _ in range(L - 2):
            blocks = [b + (a,) for b in blocks for a in symbols if clean(b + (a,))]
        blocks = [b for b in blocks if clean(b)]
        if not blocks:
            raise ValueError("empty shift: no admissible block")
        index = {b: i for i, b in enumerate(blocks)}
        M = np.zeros((len(blocks), len(blocks)), dtype=np.int64)
        for b in blocks:
            for a in symbols:
                succ = b[1:] + (a,)
                if succ in index and clean(b + (a,)):
                    M[index[b], index[succ]] = 1
        labels = [b[0] for b in blocks]
        return cls(M, symbol_labels=labels)

    @classmethod
    def from_dict(cls, d: dict) -> "Sft":
        """Input schema: {"alphabet_size": r, "adjacency": [[...]]} or
        {"alphabet_size": r, "forbidden_words": ["11", ...]}; exactly one
        of adjacency / forbidden_words."""
        if ("adjacency" in d) == ("forbidden_words" in d):
            raise ValueError("exactly one of adjacency/forbidden_words required")
        r = int(d["alphabet_size"])
        if "adjacency" in d:
            M = np.asarray(d["adjacency"])
            if M.shape != (r, r):
                raise ValueError("adjacency shape disagrees with alphabet_size")
            return cls(M)
        return cls.from_forbidden_words(r, d["forbidden_words"])

    # -- reachability ----------------------------------------------------

    def reach_powers(self, count: int) -> np.ndarray:
        """Stack of 0/1 matrices for the gaps g = 1..count: R[g-1][a, b] == 1
        iff a path of length g runs from a to b.  Computed in the boolean
        semiring, so exact for any gap."""
        A = self.adjacency
        R = np.empty((count, *A.shape), dtype=np.int64)
        for g in range(count):
            R[g] = A if g == 0 else (R[g - 1] @ A) > 0
        return R

    def is_square_positive(self) -> bool:
        # path counts are nonnegative, so nonzero means positive
        M = self.adjacency
        return bool((M @ M).all())

    def log_word_weights(self, count: int, log_weights=None) -> np.ndarray:
        """out[m-1] = log of the sum over the words of length m of
        exp(sum of log_weights over the word's vertices), for m = 1..count;
        without weights, log complexity_count(m).

        One walk in the log domain (a log-sum-exp over the successors of
        each vertex), so weights of any size or spread neither overflow
        nor underflow."""
        f = np.zeros(self.alphabet_size) if log_weights is None else np.asarray(log_weights, float)
        # step[a, b] = f(a) on an edge a -> b, -inf off the edges
        step = np.where(self.adjacency > 0, f[:, None], -np.inf)
        # V[m-1, a] = log weight of the words of length m that start at a
        V = np.empty((count, self.alphabet_size))
        V[0] = f
        for m in range(1, count):
            np.logaddexp.reduce(step + V[m - 1], axis=1, out=V[m])
        return np.logaddexp.reduce(V, axis=1)

    # -- counting ----------------------------------------------------------

    def count_words_at(self, S, n: int | None = None) -> int:
        """|distinct patterns at the places of S| as an exact integer.

        The count is the number of symbol tuples (a_0, ..., a_{m-1}) with
        reach_powers(.)[g_i - 1][a_i, a_{i+1}] == 1 along consecutive gaps
        g_i.  The empty set counts 1 (its log contributes 0).
        """
        spec = _as_subset(S, n)
        if spec.mask == 0:
            return 1
        gaps = spec.gaps
        R = self.reach_powers(max(gaps, default=0)).tolist()
        v = [1] * self.alphabet_size
        for g in reversed(gaps):
            v = [sum(compress(v, row)) for row in R[g - 1]]
        return sum(v)

    def word_counts(self, count: int) -> list[int]:
        """Numbers of words of lengths 1..count as exact integers, from one
        walk: the counts of the words of length m starting at each vertex
        give those of length m + 1 by summing over successors."""
        if count < 1:
            raise ValueError("n must be >= 1")
        successors = [np.flatnonzero(row).tolist() for row in self.adjacency]
        v = [1] * self.alphabet_size
        out = [sum(v)]
        for _ in range(count - 1):
            v = [sum(map(v.__getitem__, succ)) for succ in successors]
            out.append(sum(v))
        return out

    def complexity_count(self, n: int) -> int:
        """Number of words of length n (exact integer)."""
        return self.word_counts(n)[-1]

    def topological_entropy(self) -> float:
        """log of the Perron eigenvalue of the adjacency matrix."""
        return log_spectral_radius(self.adjacency)

    # -- brute-force oracles ---------------------------------------------

    def enumerate_words(self, n: int) -> list[tuple[int, ...]]:
        """All words of length n, by path enumeration.  Guarded by the
        r^n <= DEFAULT_ORACLE_CAP budget of the oracle."""
        if n < 1:
            raise ValueError("n must be >= 1")
        if self.alphabet_size**n > DEFAULT_ORACLE_CAP:
            raise CapExceeded(
                f"r^n = {self.alphabet_size}^{n} exceeds oracle cap {DEFAULT_ORACLE_CAP}")
        M = self.adjacency
        words = [(a,) for a in range(self.alphabet_size)]
        for _ in range(n - 1):
            words = [w + (b,) for w in words for b in range(self.alphabet_size) if M[w[-1], b]]
        return words

    def count_words_at_oracle(self, S, n: int | None = None) -> int:
        """Independent oracle: enumerate every word covering S, project
        onto the places of S, count distinct projections."""
        spec = _as_subset(S, n)
        if spec.mask == 0:
            return 1
        elems = spec.elements
        length = elems[-1] + 1
        words = self.enumerate_words(length)
        return len({tuple(w[i] for i in elems) for w in words})

    def __repr__(self) -> str:
        return f"Sft(r={self.alphabet_size})"
