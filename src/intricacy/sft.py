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
import threading
from dataclasses import dataclass

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


def _max_plus_scaling(L: np.ndarray) -> tuple[float, np.ndarray]:
    """(lam, x) for a max-plus matrix L (-inf where there is no edge): lam
    is the maximum cycle mean, by Karp's formula over walks from every
    vertex, and x are potentials with L[a, b] + x[b] - x[a] <= lam.
    lam is -inf when the graph has no cycle."""
    d = L.shape[0]
    # Y[k, a] = heaviest walk of k edges starting at a
    Y = np.zeros((d + 1, d))
    for k in range(1, d + 1):
        Y[k] = np.max(L + Y[k - 1][None, :], axis=1)
    cyclic = Y[d] > -np.inf
    if not cyclic.any():
        return -math.inf, np.zeros(d)
    steps = (d - np.arange(d))[:, None]
    lam = float(np.max(np.min((Y[d, cyclic] - Y[:d, cyclic]) / steps, axis=0)))
    # x = max over walks of fewer than d edges of the weight less lam per edge
    x = np.max(Y[:d] - lam * np.arange(d)[:, None], axis=0)
    return lam, x


def log_spectral_radius(A, log_weights=None) -> float:
    """log of the spectral radius of A * diag(exp(log_weights)) for a
    nonnegative A, from the eigenvalues of the matrix.

    Before the eigen-solve the log entries are scaled by a diagonal
    similarity and shifted by the maximum cycle mean lam (max-plus, Karp):
    the heaviest cycle then has entries 1 and no entry exceeds 1, so the
    radius left is between 1 and the dimension and lam carries the rest.
    Potentials of any size or spread neither overflow nor lose the
    heaviest cycle to underflow.  Raises ValueError when no cycle exists
    (radius 0) instead of returning -inf."""
    A = np.asarray(A, dtype=float)
    lw = np.zeros(A.shape[0]) if log_weights is None else np.asarray(log_weights, dtype=float)
    edge = A > 0
    L = np.where(edge, np.log(A, out=np.zeros_like(A), where=edge) + lw[None, :], -np.inf)
    lam, x = _max_plus_scaling(L)
    if lam == -math.inf:
        raise ValueError("spectral radius is 0: the matrix has no cycle")
    scaled = np.exp(np.where(edge, L + x[None, :] - x[:, None] - lam, -np.inf))
    return lam + math.log(float(np.max(np.abs(np.linalg.eigvals(scaled)))))


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

    Immutable after construction; the per-gap reachability cache is
    populated lazily under a lock, so instances are safe to share.
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
        self._reach: dict[int, np.ndarray] = {1: (M > 0).astype(np.int64)}
        self._reach[1].setflags(write=False)
        self._lock = threading.Lock()
        self._entropy: float | None = None

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

    def reach(self, gap: int) -> np.ndarray:
        """0/1 matrix: reach(g)[a, b] == 1 iff a path of length g runs from
        a to b.  Computed in the boolean semiring, so exact for any gap."""
        if gap < 1:
            raise ValueError("gap must be >= 1")
        with self._lock:
            cached = self._reach.get(gap)
        if cached is not None:
            return cached
        best = max(g for g in self._reach if g <= gap)
        R = self._reach[best].astype(bool)
        A = self._reach[1].astype(bool)
        for _ in range(gap - best):
            R = (R.astype(np.int64) @ A) > 0
        R = R.astype(np.int64)
        R.setflags(write=False)
        with self._lock:
            self._reach.setdefault(gap, R)
        return R

    def is_square_positive(self) -> bool:
        M = self.adjacency
        return bool(np.all(M @ M > 0))

    # -- counting ----------------------------------------------------------

    def count_words_at(self, S, n: int | None = None) -> int:
        """|distinct patterns at the places of S| as an exact integer.

        The count is the number of symbol tuples (a_0, ..., a_{m-1}) with
        reach(g_i)[a_i, a_{i+1}] == 1 along consecutive gaps g_i.  The
        empty set counts 1 (its log contributes 0).
        """
        spec = _as_subset(S, n)
        if spec.mask == 0:
            return 1
        v = [1] * self.alphabet_size
        for g in reversed(spec.gaps):
            v = [sum(x * y for x, y in zip(row, v)) for row in self.reach(g).tolist()]
        return sum(v)

    def complexity_count(self, n: int) -> int:
        """Number of words of length n (exact integer)."""
        if n < 1:
            raise ValueError("n must be >= 1")
        successors = [np.flatnonzero(row).tolist() for row in self.adjacency]
        v = [1] * self.alphabet_size
        for _ in range(n - 1):
            v = [sum(map(v.__getitem__, succ)) for succ in successors]
        return sum(v)

    def topological_entropy(self) -> float:
        """log of the Perron eigenvalue of the adjacency matrix."""
        if self._entropy is None:
            self._entropy = log_spectral_radius(self.adjacency)
        return self._entropy

    # -- brute-force oracles ---------------------------------------------

    def enumerate_words(self, n: int, cap: int = DEFAULT_ORACLE_CAP) -> list[tuple[int, ...]]:
        """All words of length n, by path enumeration.  Guarded by the
        r^n <= cap budget of the oracle."""
        if n < 1:
            raise ValueError("n must be >= 1")
        if self.alphabet_size**n > cap:
            raise CapExceeded(f"r^n = {self.alphabet_size}^{n} exceeds oracle cap {cap}")
        M = self.adjacency
        words = [(a,) for a in range(self.alphabet_size)]
        for _ in range(n - 1):
            words = [w + (b,) for w in words for b in range(self.alphabet_size) if M[w[-1], b]]
        return words

    def count_words_at_oracle(self, S, n: int | None = None, cap: int = DEFAULT_ORACLE_CAP) -> int:
        """Independent oracle: enumerate every word covering S, project
        onto the places of S, count distinct projections."""
        spec = _as_subset(S, n)
        if spec.mask == 0:
            return 1
        elems = spec.elements
        length = elems[-1] + 1
        words = self.enumerate_words(length, cap)
        return len({tuple(w[i] for i in elems) for w in words})

    def __repr__(self) -> str:
        return f"Sft(r={self.alphabet_size})"
