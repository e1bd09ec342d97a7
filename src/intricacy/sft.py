"""Shifts of finite type and word counting at arbitrary index sets.

An Sft is a vertex shift: a finite directed graph whose bi-infinite paths
are the points of the system.  Forbidden-word input is recoded to a vertex
shift on overlapping blocks, whose vertex patterns every count reads
(``Sft.from_forbidden_words``).  The central quantity is
``count_words_at``: the number of distinct patterns at the places of an
index set S, a walk of the gap matrices every count kernel reads
(``Sft.count_matrices``), rank one from the split gap the exponent sets
(``Sft.split_gap``).  Its enumeration oracle lives in ``properties``.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property

import numpy as np

from .coeffs import HORIZON
from .errors import CapExceeded, is_int, is_word, list_of, read_field, read_symbols

__all__ = ["SubsetSpec", "Sft", "DEFAULT_ORACLE_CAP", "log_spectral_radius"]

DEFAULT_ORACLE_CAP = 10**7


class SubsetSpec:
    """A subset of {0, ..., n-1} as a bitmask with horizon n, equal and hashed by (n, mask)."""

    def __init__(self, n: int, mask: int):
        if not 1 <= n <= HORIZON:
            raise ValueError(f"horizon n={n} outside [1, {HORIZON}]")
        if not 0 <= mask < (1 << n):
            raise ValueError(f"mask {mask:#x} out of range for n={n}")
        vars(self).update(n=n, mask=mask)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"SubsetSpec is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.n == other.n and self.mask == other.mask

    def __hash__(self):
        return hash((self.n, self.mask))

    def __repr__(self):
        return f"SubsetSpec(n={self.n!r}, mask={self.mask!r})"

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
    out = read_symbols(word, "forbidden word")
    if not out:
        raise ValueError("empty forbidden word")
    if any(a >= alphabet_size for a in out):
        raise ValueError(f"word {word!r} uses symbols outside the alphabet")
    return out


class Sft:
    """Vertex shift of finite type on ``alphabet_size`` symbols.

    ``adjacency[a][b] == 1`` means symbol b may follow symbol a.  Symbols
    with no outgoing or no incoming edge are pruned at construction (to a
    fixed point), so every finite path extends to a bi-infinite sequence.
    For shifts built from forbidden words, ``symbol_labels`` maps each
    vertex back to the first symbol of the block it stands for.

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
        (L-1)-blocks where L is the longest forbidden word (on the allowed
        symbols where no word is longer than 1).  Counts read the
        vertices, so from L = 3 on they are those of the (L-1)-block
        cover: ["111"] on 2 symbols gives ``word_counts(5)`` = [4, 7, 13, 24,
        44], the symbol words of lengths 2..6, not 1..5 (2, 4, 7, 13, 24)."""
        if alphabet_size < 2:
            raise ValueError("alphabet size must be >= 2")
        words = [_parse_word(w, alphabet_size) for w in forbidden]
        banned_symbols = {w[0] for w in words if len(w) == 1}
        symbols = [a for a in range(alphabet_size) if a not in banned_symbols]
        if not symbols:
            raise ValueError("every symbol is forbidden")
        words = [w for w in words if len(w) > 1]
        L = max((len(w) for w in words), default=1)
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
        r = read_field(d, "alphabet_size", is_int, "an integer")
        if "adjacency" in d:
            M = np.asarray(d["adjacency"])  # the constructor checks every entry
            if M.shape != (r, r):
                raise ValueError("adjacency shape disagrees with alphabet_size")
            return cls(M)
        words = read_field(d, "forbidden_words", list_of(is_word), "a list of words")
        return cls.from_forbidden_words(r, words)

    # -- reachability ----------------------------------------------------

    def reach_powers(self, count: int) -> np.ndarray:
        """Stack of 0/1 matrices for the gaps g = 1..count: R[g-1][a, b] == 1
        iff a path of length g runs from a to b, in the boolean semiring, so
        exact for any gap.  The gaps from the exponent on are all ones."""
        A = self.adjacency
        p = self.exponent
        R = np.ones((count, *A.shape), dtype=np.int64)
        for g in range(count if p is None else min(count, p - 1)):
            R[g] = A if g == 0 else (R[g - 1] @ A) > 0
        return R

    @cached_property
    def exponent(self) -> int | None:
        """The least p at which paths of p steps, and so of more (every vertex
        has an incoming edge), run from every vertex to every vertex; None
        past Wielandt's bound (r - 1)^2 + 1: not primitive.  O(log p)
        boolean products (or of ands)."""
        A = self.adjacency > 0
        squares = [A]  # A^(2^k) up to the first that reaches everything
        while np.count_nonzero(squares[-1]) < A.size:
            if 1 << len(squares) - 1 > (self.alphabet_size - 1) ** 2:
                return None
            squares.append(squares[-1] @ squares[-1])
        if len(squares) == 1:
            return 1
        # the widest gap that misses a pair: 2^(K-1), plus each halving that keeps it so
        p, R = 1 << len(squares) - 2, squares[-2]
        for k in range(len(squares) - 3, -1, -1):
            T = R @ squares[k]
            if np.count_nonzero(T) < A.size:
                p, R = p + (1 << k), T
        return p + 1

    def is_square_positive(self) -> bool:
        """A @ A > 0: every vertex reaches every vertex in 2 steps."""
        return self.exponent is not None and self.exponent <= 2

    def split_gap(self, n: int, block_k: int = 0) -> int:
        """The gap D from which every ``count_matrices(n, block_k)`` matrix is
        outer(init, ones): k + p - 1 (at least 2), p the exponent and k =
        max(block_k, 1); n, no split, where that is not below n or no p is."""
        p = self.exponent
        gap = max(block_k, 1) + p - 1 if p is not None else n
        return max(2, gap) if gap <= n - 1 else n

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

    def count_matrices(self, n: int, block_k: int = 0, log_weights=None):
        """(init, gap_mats): with each place of n read as the block of k =
        block_k places from it, the count at S is 1^T M(g_1) ... M(g_m) init
        over its gaps, M(g) = gap_mats[g - 1]; integers, or weighted by
        exp(log_weights) per vertex, at k <= 1.  Places g < k apart touch
        (A^g); a wider gap is A^(k-1) times the reach of gap g - k + 1."""
        if log_weights is not None and block_k > 1:
            raise ValueError("vertex weights take block_k <= 1")
        R = self.reach_powers(n - 1)
        if block_k <= 1:
            if log_weights is None:
                return np.ones(self.alphabet_size, dtype=np.int64), R
            w = np.exp(log_weights)
            return w, R * w[:, None]
        paths = np.empty((block_k, self.alphabet_size, self.alphabet_size))
        paths[0] = np.eye(self.alphabet_size)
        for g in range(1, block_k):
            paths[g] = paths[g - 1] @ self.adjacency
        head = paths[-1]
        # gaps 1..min(k, n) - 1 touch; the gaps k..n-1 take one stacked product
        gap_mats = np.concatenate([paths[1:n], head @ R[:max(n - block_k, 0)]])
        return head.sum(axis=1), gap_mats

    def count_words_at(self, S, n: int | None = None) -> int:
        """|distinct patterns at the places of S|, exact; 1 for the empty set:
        the walk of ``count_matrices`` from the last place of S."""
        spec = _as_subset(S, n)
        if spec.mask == 0:
            return 1
        init, mats = self.count_matrices(max(spec.gaps, default=0) + 1)
        v, mats = init.tolist(), mats.tolist()
        for g in reversed(spec.gaps):
            v = [sum(map(operator.mul, row, v)) for row in mats[g - 1]]
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

    # -- enumeration -----------------------------------------------------

    def enumerate_words(self, n: int) -> list[tuple[int, ...]]:
        """All words of length n, by path enumeration.  Guarded by the
        r^n <= DEFAULT_ORACLE_CAP budget of the enumeration oracles."""
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

    def __repr__(self) -> str:
        return f"Sft(r={self.alphabet_size})"
