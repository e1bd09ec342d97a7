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
a table into per-size sums over all subsets of the window, placing each
canonical mask at its translates (``_placed_sums``), so every average over
the 2^n subsets is a dot product with the weights row.  The intricacy
needs no sum over complements: every weighting system is a symmetric
probability measure (``coeffs``), which makes it 2 asc - h.
``table_size_sums`` gives the same sums of log entries for windows of
any width while holding only the rows below ``LEFT_BITS`` positions: a
wider mask is the product of a row below that width, one gap matrix and
a column vector of the masks above it.  Given a split gap D from which
every gap matrix is rank one, init 1^T, an entry is the product of the
entries of its clusters (maximal groups with gaps < D), so past
``LEFT_BITS`` positions it reduces only the shapes, the canonical masks
whose gaps are all < D, and places their per-(span, size) sums in the
window with the placement counts of the cluster sums below.  With
D = n every canonical mask is a shape, placed at its translates; a
window of n <= ``LEFT_BITS`` is its row table alone, placed the same way.

A table always spans the n sampled positions, whatever each place
reads: a cover that reads a block at every place changes the start
vector and the gap matrices (``topo``), never the number of rows.
Windows wider than ``MAX_TABLE_BITS`` positions are refused.

Values that are sums of local terms need no table, because their
per-size sums count in closed form.  ``cluster_size_sums`` takes
v(S) = sum over the clusters of S (maximal groups whose consecutive gaps
are all <= kappa) of a weight that depends on the cluster's span.  A log
pattern count of a shift whose adjacency matrix has a positive square
is of this form.  O(n^2) per call once the window's weights are built
(O(n^3)) by the one placement, ``_placed_sums``, which the tables share.
``cluster_product_sum`` gives the plain sum over S of the product of
per-cluster weights, from their sums per span; both kernels take their
uniform alt from it.  The joint entropy of a 1-step Markov chain, a term
per element and one per consecutive gap, is ``_placed_sums`` with no
cluster (kappa = 0) of those terms (``markov.asc_finite``).

What does not depend on the shift is built once per window size and
kept read-only for the process: the cluster weights and the placement
counts of each (n, kappa), at most 1.2 MB each for all windows a table
covers, and the cluster shapes, 0.6 MB; the shape indices of each
window part and split gap (``_shapes``; with the split at the width,
every canonical mask), at most 3.5 MB over every gap and window; and the
diagonal index of ``_placed_sums``, 80 KB: below 7 MB in all.
"""

from __future__ import annotations

import functools
import operator

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
]

# most rows a table may hold: 2^22 rows, the canonical masks of 23 positions
TABLE_ROW_LIMIT = 1 << 22
MAX_TABLE_BITS = TABLE_ROW_LIMIT.bit_length()
# table_size_sums keeps the row vectors of the masks below this many
# positions, and reduces the entries of the wider ones this many at a time
LEFT_BITS = 12
BLOCK_ENTRIES = 1 << 16
# table_size_sums bins a shape of span s and size j at s * _STRIDE + j
_STRIDE = MAX_TABLE_BITS + 1


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


def _row_vectors(n_bits: int, start: np.ndarray, mats: np.ndarray, split: int | None = None):
    """F[i] = start @ mats[g_1 - 1] @ ... @ mats[g_m - 1] over the gaps of
    the i-th shape of n_bits positions, from its lowest element up: the
    canonical masks whose gaps are all < split, in order of mask (every
    canonical mask when split is None, so F[i] is the mask 2i+1).  A
    shape with top j and second-highest element s is a shape with top s
    plus the place j, j - s < split, so the shapes of top j are those of
    each top s in (j - split, j) times mats[j - s - 1] in turn: one
    contiguous block per (j, s).  With no split the shapes of top j are
    rows [2^(j-1), 2^j)."""
    split = n_bits if split is None else min(split, n_bits)
    # first[t]: the number of shapes with top < t
    first = [0, 1]
    for j in range(1, n_bits):
        first.append(2 * first[j] - first[max(0, j - split + 1)])
    F = np.empty((first[-1], len(start)))
    F[0] = start
    for j in range(1, n_bits):
        at = first[j]
        if j < split:
            # the shape {0, j}
            F[at] = F[0] @ mats[j - 1]
            at += 1
        for s in range(max(1, j - split + 1), j):
            lo, hi = first[s], first[s + 1]
            F[at : at + hi - lo] = F[lo:hi] @ mats[j - s - 1]
            at += hi - lo
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
def table_size_sums(n: int, init: np.ndarray, gap_mats, split: int, with_counts: bool = False):
    """Per-size sums of log T(S) over the subsets of {0..n-1}, where T(S)
    is the ``product_table(n, init, gap_mats)`` entry of the canonical
    mask of S, without holding that table.  Returns (every, with_zero,
    log T(window), total): the first two as ``size_sums`` gives them for
    the logs, total the sum of T(S) over every subset, the empty one
    included (it adds 1), when with_counts is set, else None.  A zero
    entry gives -inf sums, never NaN, with no divide-by-zero warning.

    ``split`` is a gap D, 2 <= D <= n, such that every gap matrix from D
    on is outer(init, ones); D = n asks nothing of the matrices.  Then
    1^T P1 (init 1^T) P2 init = (1^T P1 init)(1^T P2 init), so T(S) is the
    product of T over the clusters of S, its maximal groups whose gaps
    are all < D.  Only the shapes, canonical masks whose gaps are all
    < D, are reduced: their logs binned by (span, size) are placed in the
    window with ``_placements(n, D - 1)`` (``_placed_sums``), and total
    is ``cluster_product_sum`` of their counts binned by span.  With
    D = n every canonical mask is a shape, placed at its n - span
    translates.

    Masks whose top element is below ``left = min(n, LEFT_BITS)`` are the
    row vectors W of ``_row_vectors`` times init.  Any other mask is A
    (its canonical part below left), its first place b >= left, and a
    canonical mask B from b on: T = W[A] @ M(b - top A) @ V[B], with V[B]
    the column vector of B.  V[B] is the row vector of B's mirror image
    (same top, same size) under the transposed matrices, so one table of
    the 2^(n-left-1) masks of n - left positions holds every V[B].  A
    shape has b - top A < D, so only b < left + D - 1 and the rows A with
    top > b - D take part, with the shape columns B.  Per b the entries
    are reduced in blocks of ``BLOCK_ENTRIES``: a pass holds
    O(2^LEFT_BITS r) floats whatever n is, where the table held 2^(n-1) r.
    A window of n <= ``LEFT_BITS`` positions is all W: it has no V and no
    first place b.
    """
    mats = np.asarray(gap_mats, dtype=np.float64)
    init = np.asarray(init, dtype=np.float64)
    left = min(n, LEFT_BITS)
    # W holds the shapes of left positions
    W = _row_vectors(left, np.ones(len(init)), mats, split)
    top, bins, first = _shapes(left, min(split, left))[:3]
    # phi[s, j]: the logs of the shapes of span s and size j, kept in rows
    # of _STRIDE
    counts = W @ init
    phi = np.bincount(bins, np.log(counts), n * _STRIDE)
    spans = np.bincount(top, counts, n) if with_counts else None
    if left < n:
        # V holds the shapes of n - left positions, for the loop over b below
        V = _row_vectors(n - left, init, mats.transpose(0, 2, 1), split)
        col_top, col_bins, col_first = _shapes(n - left, min(split, n - left))[:3]
        U = np.empty_like(W)
    for b in range(left, min(n, left + split - 1)):
        # the rows A with top >= low, in size order
        low = max(0, b - split + 1)
        take, starts, sizes = _shapes(left, min(split, left), low)[3:]
        for t in range(low, left):
            U[first[t] : first[t + 1]] = W[first[t] : first[t + 1]] @ mats[b - t - 1]
        A = U[take]
        # the columns B with top <= n - 1 - b; S has span b + top B
        hi = col_first[n - b]
        if with_counts:
            spans += np.bincount(b + col_top[:hi], np.ones(len(A)) @ A @ V[:hi].T, n)
        width = max(1, BLOCK_ENTRIES // len(A))
        for c in range(0, hi, width):
            span = slice(c, min(c + width, hi))
            block = A @ V[span].T
            np.log(block, out=block)
            part = np.add.reduceat(block, starts)
            at = sizes[:, None] + (b * _STRIDE + col_bins[span])
            phi += np.bincount(at.ravel(), part.ravel(), n * _STRIDE)
    phi = phi.reshape(n, _STRIDE)[:, : n + 1]
    every, with_zero = _placed_sums(phi, n, split - 1)
    total = cluster_product_sum(spans, n, split - 1) if with_counts else None
    # the window is the one shape of span n - 1 and size n
    return every, with_zero, float(phi[n - 1, n]), total


@functools.cache
def _shapes(m: int, split: int, low: int = 0):
    """(top, bins, first, take, starts, sizes) of the shapes of m
    positions, the canonical masks whose gaps are all < split, in the
    order of ``_row_vectors``: their tops, top * _STRIDE + size, and
    first[t], the number of shapes with top < t, for t <= m.  Then, of
    the shapes with top >= low, where each is in stable size order, where
    each size present starts in that order, and those sizes.  Read-only;
    a split >= m takes every mask, so callers pass min(split, m)."""
    if low:
        top, bins, first = _shapes(m, split)[:3]
    else:
        # rows i of the masks 2i+1: those of top j extend those of top s > j - split
        parts = [np.zeros(1, dtype=np.int64)]
        for j in range(1, m):
            parts.append((1 << (j - 1)) + np.concatenate(parts[max(0, j - split + 1) : j]))
        counts = [len(p) for p in parts]
        top = np.repeat(np.arange(m), counts)
        bins = top * _STRIDE + popcounts(m - 1)[np.concatenate(parts)] + 1
        first = np.concatenate([[0], np.cumsum(counts)])
    size = bins[first[low] :] % _STRIDE
    order = np.argsort(size, kind="stable")
    sizes, starts = np.unique(size[order], return_index=True)
    out = (top, bins, first, first[low] + order, starts, sizes)
    for a in out:
        a.setflags(write=False)
    return out


def size_sums(values: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-size sums over the subsets of {0..n-1} of a shift-invariant
    value given on the canonical masks whose top element is below m <= n
    (values[i] at mask 2i+1, i < 2^(m-1)); with m = n that is every
    subset.  Returns (every, with_zero): every[k] sums over the k-subsets,
    with_zero[k] over the k-subsets that contain 0.  The empty set adds
    nothing to either.  The values are binned by (top, size) and each
    mask is placed at its n - top translates (``_placed_sums`` with every
    subset one cluster)."""
    m = len(values).bit_length()
    phi = np.bincount(_shapes(m, m)[1], values, n * _STRIDE)
    return _placed_sums(phi.reshape(n, _STRIDE)[:, : n + 1], n, n - 1)


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


@functools.cache
def _cluster_shapes(n: int, kappa: int) -> np.ndarray:
    """comp[s, j]: the cluster shapes of span s with j elements, the
    compositions of s into j - 1 gaps of 1..kappa; read-only.  Exact
    integers."""
    comp = np.zeros((n, n + 1))
    comp[0, 1] = 1.0
    for s in range(1, n):
        comp[s, 1:] = comp[max(0, s - kappa) : s, :-1].sum(axis=0)
    comp.setflags(write=False)
    return comp


@functools.cache
def _placements(n: int, kappa: int) -> np.ndarray:
    """P[s, 0, i] (every) and P[s, 1, i] (with_zero): the number of ways
    to place a cluster of span s in the window and choose i further
    elements of S apart from it, over all S or those that contain 0;
    read-only.  In a window with d = n - 1 - s positions outside its span
    the cluster has d + 1 places; at place a the other elements avoid the
    kappa positions next to each end, so they are chosen from
    d - min(a, kappa) - min(d - a, kappa) positions.  The subsets that
    miss 0 are the translates of those of a window one shorter, so
    with_zero takes the placements of d less those of d - 1.  With
    kappa = n - 1 they are the n - s translates (i = 0).  Every entry is
    an integer below 2^53, so exact."""
    a = np.arange(n)
    d = a[:, None]
    free = d - np.minimum(a, kappa) - np.minimum(d - a, kappa)
    # G[d + 1, i] = sum over the places a <= d of C(free, i), and G[0] = 0;
    # every takes G[d + 1], with_zero G[d + 1] - G[d]
    G = np.zeros((n + 1, n + 1))
    G[1:] = (_BINOMIALS[free, : n + 1] * (a <= d)[..., None]).sum(axis=1)
    P = np.stack([G[:0:-1], (G[1:] - G[:-1])[::-1]], axis=1)
    P.setflags(write=False)
    return P


@functools.cache
def _diagonals(n: int) -> np.ndarray:
    """Where ``_placed_sums`` adds each entry of its (n + 1) x (2n + 2)
    product: entry [j, w (n + 1) + i] to w (2n + 1) + j + i; read-only."""
    i = np.arange(n + 1)
    at = np.add.outer(i, np.concatenate([i, i + 2 * n + 1])).ravel()
    at.setflags(write=False)
    return at


def _placed_sums(phi: np.ndarray, n: int, kappa: int) -> tuple[np.ndarray, np.ndarray]:
    """(every, with_zero) of v(S) = the sum over the clusters of S (gaps
    <= kappa) of a value per cluster shape, given phi[s, j], the values
    summed over the shapes of span s with j elements: every[k] = sum over
    s, j of phi[s, j] * ``_placements``[s, 0, k - j], with_zero the same
    with [s, 1].  A -inf in phi gives -inf wherever it is placed, never
    NaN where it is not."""
    P = _placements(n, kappa).reshape(n, 2 * n + 2)
    at = _diagonals(n)
    neg = phi == -np.inf
    underflow = neg.any()
    if underflow:
        phi = np.where(neg, 0.0, phi)
    sums = np.bincount(at, (phi.T @ P).ravel(), 4 * n + 2)
    if underflow:
        sums[np.bincount(at, (neg.T @ (P > 0)).ravel(), 4 * n + 2) > 0] = -np.inf
    return sums[: n + 1], sums[2 * n + 1 : 3 * n + 2]


@functools.cache
def _cluster_weights(n: int, kappa: int) -> np.ndarray:
    """W[s, k] (every) and W[s, n + 1 + k] (with_zero): the number of
    (S, cluster) pairs with |S| = k and a cluster of span s, over all S
    or those that contain 0; read-only.  Row s is ``_placed_sums`` of the
    shapes of span s alone (``_cluster_shapes``).  Exact, as the
    placement counts are."""
    comp = _cluster_shapes(n, kappa)
    W = np.array([np.concatenate(_placed_sums(comp * (np.arange(n) == s)[:, None], n, kappa))
                  for s in range(n)])
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


def cluster_product_sum(span_weights, n: int, kappa: int) -> float:
    """Sum over all subsets S of {0..n-1}, the empty set included (it adds
    1), of the product over the clusters of S of a weight per cluster,
    where span_weights[s] sums those weights over the cluster shapes of
    span s; clusters as in ``cluster_size_sums``.  O(n^2)."""
    weight = np.asarray(span_weights, dtype=float).tolist()
    # C[t + kappa + 1] = sum over the subsets of {0..t}; C[t] = 1 for t <= kappa.
    # A subset whose last cluster runs from e - s to e extends one that ends
    # before e - s - kappa, and while e <= kappa every such one is empty.
    C = [1.0] * (kappa + 1)
    head = 0.0
    for e in range(n):
        if e <= kappa:
            head += weight[e]
            C.append(C[-1] + head)
        else:
            C.append(C[-1] + sum(map(operator.mul, weight[: e + 1], C[e::-1])))
    return C[-1]

