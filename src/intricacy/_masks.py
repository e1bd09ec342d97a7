"""Vectorized enumeration over the canonical subsets of {0..n-1}.

A shift-invariant quantity such as a pattern count or a joint entropy
depends only on the gaps of a subset, so every nonempty subset has the
value of its translate whose lowest element is 0.  The tables here hold
only those canonical masks: row i is the mask 2i+1, so a table over
n_bits positions has 2^(n_bits-1) rows, and rows [2^(j-1), 2^j) are the
masks whose top element is j.

A table is filled as row vectors, F[i] holding the product of the gap
matrices of mask 2i+1 from its lowest element up, in order of the top
element j, then of the second-highest element s.  Dropping the top
element of a mask leaves a canonical mask with top s, so each (j, s)
step is one contiguous block of rows computed from one contiguous block
of earlier rows, with no index arrays:

    F[2^(j-1) + 2^(s-1) : 2^(j-1) + 2^s] = F[2^(s-1) : 2^s] @ R(j - s)
    F[2^(j-1)] = F[0] @ R(j)

A whole table costs O(2^(n_bits-1) r^2) flops.  ``size_sums`` then folds
a table into per-size sums over all subsets of the window, weighting
each canonical mask by its number of translates, so every average over
the 2^n subsets is a dot product with the weights row.  The intricacy
needs no sum over complements: every weighting system is a symmetric
probability measure (``coeffs``), which makes it 2 asc - h.
``table_size_sums`` gives the same sums of log entries for windows of
any width while holding only the rows below ``LEFT_BITS`` positions: a
wider mask is the product of a row below that width, one gap matrix and
a column vector of the masks above it.

A table always spans the n sampled positions, whatever each place
reads: a cover that reads a block at every place changes the start
vector and the gap matrices (``topo``), never the number of rows.
Windows wider than ``MAX_TABLE_BITS`` positions are refused.

Two kinds of value need no table, because they are sums of local terms
whose per-size sums count in closed form:

- ``cluster_size_sums``: v(S) = sum over the clusters of S (maximal
  groups whose consecutive gaps are all <= kappa) of a weight that
  depends on the cluster's span.  A log pattern count of a shift whose
  adjacency matrix has a positive square is of this form.  O(n^2) per
  call once the window's weights are built (O(n^3)).
  ``cluster_product_sum`` gives the plain sum over S of the product of
  the exponentiated weights.
- ``gap_size_sums``: v(S) = a constant plus a term per consecutive gap,
  the joint entropy of a 1-step Markov chain.  O(n^2).

What does not depend on the shift is built once per window size and
kept read-only for the process: the cluster weights of each (n, kappa),
at most 1.2 MB for all windows a table covers, and the sizes and top
elements of the canonical masks below ``LEFT_BITS`` positions, 100 KB.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import CapExceeded

__all__ = [
    "TABLE_ROW_LIMIT",
    "MAX_TABLE_BITS",
    "check_table_window",
    "popcounts",
    "product_table",
    "table_size_sums",
    "size_sums",
    "cluster_size_sums",
    "cluster_product_sum",
    "gap_size_sums",
]

# most rows a table may hold: 2^22 rows, the canonical masks of 23 positions
TABLE_ROW_LIMIT = 1 << 22
MAX_TABLE_BITS = TABLE_ROW_LIMIT.bit_length()
# table_size_sums keeps the row vectors of the masks below this many
# positions, and reduces the entries of the wider ones this many at a time
LEFT_BITS = 12
BLOCK_ENTRIES = 1 << 16


def check_table_window(n: int) -> None:
    """Refuse a window of n positions that no table covers: n < 1 is bad
    input, n > MAX_TABLE_BITS a cap."""
    if n < 1:
        raise ValueError(f"n={n} must be >= 1")
    if n > MAX_TABLE_BITS:
        raise CapExceeded(f"n={n} outside [1, {MAX_TABLE_BITS}]")


def popcounts(n_bits: int) -> np.ndarray:
    """popcounts(n)[m] = number of set bits of m, for all m < 2^n."""
    pc = np.zeros(1, dtype=np.int64)
    for _ in range(n_bits):
        pc = np.concatenate([pc, pc + 1])
    return pc


def _row_vectors(n_bits: int, start: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """F[i] = start @ mats[g_1 - 1] @ ... @ mats[g_m - 1] over the gaps of
    the canonical mask 2i+1, from its lowest element up, for i <
    2^(n_bits-1).  A mask with top j and second-highest element s is one
    with top s plus the place j, so rows [2^(j-1) + 2^(s-1), 2^(j-1) + 2^s)
    are rows [2^(s-1), 2^s) times mats[j - s - 1] (row 2^(j-1) is row 0
    times mats[j - 1]): one contiguous block per (j, s)."""
    F = np.empty((1 << (n_bits - 1), len(start)))
    F[0] = start
    for j in range(1, n_bits):
        top = 1 << (j - 1)
        F[top] = F[0] @ mats[j - 1]
        for s in range(1, j):
            F[top + (1 << (s - 1)) : top + (1 << s)] = F[1 << (s - 1) : 1 << s] @ mats[j - s - 1]
    return F


def product_table(n_bits: int, init: np.ndarray, gap_mats) -> np.ndarray:
    """table[i] = sum over symbol tuples at the places of the canonical
    mask 2i+1 of init[a_last] * prod_i gap_mats[g_i - 1][a_i, a_{i+1}].

    gap_mats stacks the matrices of the gaps 1..n_bits-1.  With init =
    ones and 0/1 reachability matrices this is the pattern count
    N(2i+1); with exponential symbol weights it is the weighted count
    used by the pressure profile.  The table has 2^(n_bits-1) rows;
    ``table_size_sums`` reduces the same entries without holding them.
    """
    mats = np.asarray(gap_mats, dtype=np.float64)
    return _row_vectors(n_bits, np.ones(len(init)), mats) @ np.asarray(init, dtype=np.float64)


@np.errstate(divide="ignore")
def table_size_sums(n: int, init: np.ndarray, gap_mats, with_counts: bool = False):
    """Per-size sums of log T(S) over the subsets of {0..n-1}, where T(S)
    is the ``product_table(n, init, gap_mats)`` entry of the canonical
    mask of S, without holding that table.  Returns (every, with_zero,
    log T(window), count_every): the first two as ``size_sums`` gives
    them for the logs, count_every the same ``every`` for T itself when
    with_counts is set, else None.  A zero entry gives -inf sums, with no
    divide-by-zero warning.

    Masks whose top element is below ``left = min(n, LEFT_BITS)`` are the
    row vectors W of ``_row_vectors`` times init.  Any other mask is A
    (its canonical part below left), its first place b >= left, and a
    canonical mask B from b on: T = W[A] @ M(b - top A) @ V[B], with V[B]
    the column vector of B.  V[B] is the row vector of B's mirror image
    (same top, same size) under the transposed matrices, so one table of
    the 2^(n-left-1) masks of n - left positions holds every V[B].  Per b
    the entries are reduced in blocks of ``BLOCK_ENTRIES``: a pass holds
    O(2^LEFT_BITS r) floats whatever n is, where the table held 2^(n-1) r.
    """
    mats = np.asarray(gap_mats, dtype=np.float64)
    init = np.asarray(init, dtype=np.float64)
    left = min(n, LEFT_BITS)
    W = _row_vectors(left, np.ones(len(init)), mats)
    counts = W @ init
    every, with_zero = size_sums(np.log(counts), n)
    count_every = size_sums(counts, n)[0] if with_counts else None
    if left == n:
        return every, with_zero, float(np.log(counts[-1])), count_every
    V = _row_vectors(n - left, init, mats.transpose(0, 2, 1))
    log_full = float(np.log(W[-1] @ mats[0] @ V[-1]))
    # rows of A grouped by size, so one reduceat sums each size's rows
    _, _, order, starts = _mask_index(left)
    size_b = _mask_index(n - left)[0]
    width = max(1, BLOCK_ENTRIES >> (left - 1))
    U = np.empty_like(W)
    for b in range(left, n):
        U[0] = W[0] @ mats[b - 1]
        for t in range(1, left):
            U[1 << (t - 1) : 1 << t] = W[1 << (t - 1) : 1 << t] @ mats[b - t - 1]
        U_sorted = U[order]
        # B with top j: rows [2^(j-1), 2^j) of V (row 0 for j = 0); S has
        # top b + j and n - b - j translates
        for j in range(n - b):
            lo, hi = (0, 1) if j == 0 else (1 << (j - 1), 1 << j)
            for c in range(lo, hi, width):
                cols = slice(c, min(c + width, hi))
                block = U_sorted @ V[cols].T
                sizes = (np.arange(1, left + 1)[:, None] + size_b[None, cols]).ravel()
                if with_counts:
                    part = np.bincount(sizes, np.add.reduceat(block, starts).ravel(), n + 1)
                    count_every += (n - b - j) * part
                np.log(block, out=block)
                part = np.bincount(sizes, np.add.reduceat(block, starts).ravel(), n + 1)
                every += (n - b - j) * part
                with_zero += part
    return every, with_zero, log_full, count_every


@functools.cache
def _mask_index(m: int):
    """(size, top, order, starts) of the canonical masks 2i+1, i <
    2^(m-1): their sizes and top elements, the rows sorted stably by
    size, and where each size 1..m starts in that order; read-only."""
    size = popcounts(m - 1) + 1
    top = np.repeat(np.arange(m), [1] + [1 << (j - 1) for j in range(1, m)])
    order = np.argsort(size, kind="stable")
    starts = np.cumsum(np.bincount(size))[:m]
    for a in (size, top, order, starts):
        a.setflags(write=False)
    return size, top, order, starts


def size_sums(values: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-size sums over the subsets of {0..n-1} of a shift-invariant
    value given on the canonical masks whose top element is below m <= n
    (values[i] at mask 2i+1, i < 2^(m-1)); with m = n that is every
    subset.  Returns (every, with_zero): every[k] sums over the k-subsets,
    with_zero[k] over the k-subsets that contain 0.  The empty set adds
    nothing to either.  A mask with top j has n - j translates."""
    m = len(values).bit_length()
    # kept for the widths table_size_sums and the block chains ask for
    size, top = (_mask_index if m <= LEFT_BITS else _mask_index.__wrapped__)(m)[:2]
    every = np.bincount(size, values * (n - top), n + 1)
    return every, np.bincount(size, values, n + 1)


def _pascal(n: int) -> np.ndarray:
    B = np.zeros((n + 1, n + 1))
    B[:, 0] = 1.0
    for f in range(1, n + 1):
        B[f, 1:] = B[f - 1, 1:] + B[f - 1, :-1]
    return B


# _BINOMIALS[f, i] = C(f, i) for f, i <= MAX_TABLE_BITS, exact integers in
# float64 (every entry is below 2^53)
_BINOMIALS = _pascal(MAX_TABLE_BITS)
_BINOMIALS.setflags(write=False)


def _cluster_shapes(n: int, kappa: int) -> np.ndarray:
    # comp[s, j] = clusters of span s with j elements: the compositions of
    # s into j - 1 gaps of 1..kappa
    if kappa == 1:
        # a run of span s has s + 1 elements
        return np.eye(n, n + 1, 1)
    comp = np.zeros((n, n + 1))
    comp[0, 1] = 1.0
    for s in range(1, n):
        comp[s, 1:] = comp[max(0, s - kappa) : s, :-1].sum(axis=0)
    return comp


@functools.cache
def _cluster_weights(n: int, kappa: int) -> np.ndarray:
    """W[s, k] (every) and W[s, n + 1 + k] (with_zero): the number of
    (S, cluster) pairs with |S| = k and a cluster of span s, over all S
    or those that contain 0; read-only.  A cluster of span s with j
    elements comes in comp[s, j] shapes, and in a window with d = n - 1 - s
    positions outside its span it has d + 1 places; at place a the other
    k - j elements avoid the kappa positions next to each end, so they are
    chosen from d - min(a, kappa) - min(d - a, kappa) positions.  The
    subsets that miss 0 are the translates of those of a window one
    shorter, so with_zero takes the placements of d less those of d - 1.
    Every entry is an integer below 2^53, so exact."""
    a = np.arange(n)
    d = a[:, None]
    free = d - np.minimum(a, kappa) - np.minimum(d - a, kappa)
    # G[d + 1, i] = sum over the places a <= d of C(free, i), and G[0] = 0;
    # every takes G[d + 1], with_zero G[d + 1] - G[d]
    G = np.zeros((n + 1, n + 1))
    G[1:] = (_BINOMIALS[free, : n + 1] * (a <= d)[..., None]).sum(axis=1)
    # placements[s, 0, i] (every) and [s, 1, i] (with_zero) for the span s,
    # d = n - 1 - s; a k-subset has j + i = k
    placements = np.stack([G[:0:-1], (G[1:] - G[:-1])[::-1]], axis=1)
    comp = _cluster_shapes(n, kappa)
    W = np.zeros((n, 2, n + 1))
    for j in range(1, n + 1):
        W[:, :, j:] += comp[:, j, None, None] * placements[:, :, : n + 1 - j]
    W = W.reshape(n, 2 * n + 2)
    W.setflags(write=False)
    return W


def cluster_size_sums(span_values, n: int, kappa: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-size sums (every, with_zero), as ``size_sums`` returns them, of
    v(S) = sum over the clusters of S of span_values[span], for
    n <= MAX_TABLE_BITS.

    The clusters of S are its maximal groups of elements whose
    consecutive gaps are all <= kappa; a cluster's span is its last
    element minus its first, so span_values holds the spans 0..n-1.

    By linearity every[k] sums span_values[s] times the number of
    (S, cluster) pairs with |S| = k and a cluster of span s: one product
    with the table ``_cluster_weights(n, kappa)``.  No gap of a window
    exceeds n - 1, so a kappa >= n - 1 makes every subset one cluster and
    takes the table of kappa = n - 1."""
    sums = np.asarray(span_values, dtype=float) @ _cluster_weights(n, min(kappa, n - 1))
    return sums[: n + 1], sums[n + 1 :]


def cluster_product_sum(span_values, n: int, kappa: int) -> float:
    """Sum over all subsets S of {0..n-1}, the empty set included (it adds
    1), of the product over the clusters of S of exp(span_values[span]);
    clusters as in ``cluster_size_sums``.  O(n^2)."""
    # shapes[s] = clusters of span s of any size
    shapes = [1.0]
    for s in range(1, n):
        shapes.append(sum(shapes[max(0, s - kappa) : s]))
    weight = [count * math.exp(v) for count, v in zip(shapes, span_values)]
    # C[t + kappa + 1] = sum over the subsets of {0..t}; C[t] = 1 for t <= kappa.
    # A subset whose last cluster runs from e - s to e extends one that ends
    # before e - s - kappa.
    C = [1.0] * (kappa + 1)
    for e in range(n):
        C.append(C[-1] + sum(weight[s] * C[e - s] for s in range(e + 1)))
    return C[-1]


def gap_size_sums(first: float, gap_values, n: int) -> np.ndarray:
    """every[k] = sum over the k-subsets S of {0..n-1} (k >= 1) of
    first + the sum of gap_values[g - 1] over the consecutive gaps g of S;
    every[0] = 0.  gap_values holds the gaps 1..n-1, n <= MAX_TABLE_BITS.
    A gap g joins two elements i and i + g of S with none between them:
    n - g places, and the other k - 2 elements come from the n - g - 1
    positions outside [i, i + g].  O(n^2)."""
    B = _BINOMIALS
    every = first * B[n, : n + 1]
    every[0] = 0.0
    g = np.arange(1, n)
    every[2:] += (np.asarray(gap_values, dtype=float) * (n - g)) @ B[n - g - 1, : n - 1]
    return every
