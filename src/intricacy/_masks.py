"""Vectorized enumeration over the canonical subsets of {0..n-1}, and
the averages over every subset of a window.

A shift-invariant quantity such as a pattern count or a joint entropy
depends only on the gaps of a subset, so every nonempty subset has the
value of its translate whose lowest element is 0.  The tables here hold
only those canonical masks: row i is the mask 2i+1, so a table over
n_bits positions has 2^(n_bits-1) rows, and rows [2^(j-1), 2^j) are the
masks whose top element is j.  A table is filled as row vectors, F[i]
holding the product of the gap matrices of mask 2i+1 from its lowest
element up.  Dropping the top element j of a mask leaves a canonical
mask with top s, so each (j, s) step is one contiguous block of rows
computed from one contiguous block of earlier rows, with no index
arrays:

    F[2^(j-1) + 2^(s-1) : 2^(j-1) + 2^s] = F[2^(s-1) : 2^s] @ R(j - s)
    F[2^(j-1)] = F[0] @ R(j)

A whole table costs O(2^(n_bits-1) r^2) flops; ``table_shape_sums``
reduces its logs for a window of any width while holding only the rows
below ``LEFT_BITS`` positions.  A table always spans the n sampled
positions, whatever each place reads (``topo``), and windows wider than
``MAX_TABLE_BITS`` positions are refused.

Every kernel hands over shape sums.  The clusters of a subset S are its
maximal groups of elements whose consecutive gaps are all <= kappa, a
shape is a cluster moved to start at 0, and a kernel's value at S is a
sum over the clusters of S of a value per shape: phi[s, j] sums it over
the shapes of span s with j elements.  With kappa = n - 1 every subset
is one cluster and each canonical mask its own shape (``shape_sums``).
Every weighting system is a symmetric probability measure whose moments
mu(n, k) are the weights (the rows ``coeffs`` caches), so the weights of
the ways to fill the positions a placed cluster leaves free sum to one
moment, and n asc = <phi, W>, n acc = <phi, W0> with the tables of
``moment_tables``.  The intricacy is 2 asc - h: a symmetric measure
weighs a subset as its complement.  ``cluster_product_sum`` gives the
plain sum over S of a product of per-cluster weights, the uniform alt.

What does not depend on the shift is kept read-only for the process:
the cluster shapes of each (n, kappa), 0.6 MB for every window; the
shape indices of each window part and split gap (``_shapes``), at most
3.5 MB; and the moment tables of the latest 1024 (system, n, kappa),
9 KB each at n = 23, filled from the weight rows of that system.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from .coeffs import _weights_row
from .errors import CapExceeded

__all__ = [
    "TABLE_ROW_LIMIT",
    "MAX_TABLE_BITS",
    "check_table_window",
    "popcounts",
    "product_table",
    "table_shape_sums",
    "canonical_places",
    "shape_sums",
    "moment_tables",
    "cluster_product_sum",
]

# most rows a table may hold: 2^22 rows, the canonical masks of 23 positions
TABLE_ROW_LIMIT = 1 << 22
MAX_TABLE_BITS = TABLE_ROW_LIMIT.bit_length()
# table_shape_sums keeps the row vectors of the masks below this many
# positions, and reduces the entries of the wider ones this many at a time
LEFT_BITS = 12
BLOCK_ENTRIES = 1 << 16
# table_shape_sums bins a shape of span s and size j at s * _STRIDE + j
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
    # first[t]: the number of shapes with top < t, as ``_shapes`` orders them
    first = _shapes(n_bits, split)[2].tolist()
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
    used by the pressure profile.  The table has 2^(n_bits-1) rows.  The
    check suites take every count of a window from it
    (``properties._canonical_counts``); ``table_shape_sums`` reduces the
    same entries for the profiles without holding them.
    """
    mats = np.asarray(gap_mats, dtype=np.float64)
    return _row_vectors(n_bits, np.ones(len(init)), mats) @ np.asarray(init, dtype=np.float64)


@np.errstate(divide="ignore")
def table_shape_sums(n: int, init: np.ndarray, gap_mats, split: int, with_counts: bool = False):
    """(phi, log T(window), total) of log T(S), T(S) the
    ``product_table(n, init, gap_mats)`` entry of the canonical mask of S,
    without holding that table: phi the shape sums of clusters with gaps
    < D = ``split`` (kappa = D - 1), and total the sum of T(S) over every
    subset, the empty one included (it adds 1), when with_counts is set,
    else None.  A zero entry gives a -inf shape sum, never NaN, with no
    divide-by-zero warning.

    D, 2 <= D <= n, is a gap such that every gap matrix from D on is
    outer(init, ones); D = n asks nothing of the matrices.  Then
    1^T P1 (init 1^T) P2 init = (1^T P1 init)(1^T P2 init), so T(S) is the
    product of T over the clusters of S, its maximal groups whose gaps
    are all < D.  Only the shapes, canonical masks whose gaps are all
    < D, are reduced: their logs binned by (span, size) are phi, and total
    is ``cluster_product_sum`` of their counts binned by span.  With
    D = n every canonical mask is a shape.

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
    total = cluster_product_sum(spans, n, split - 1) if with_counts else None
    # the window is the one shape of span n - 1 and size n
    return phi, float(phi[n - 1, n]), total


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


def canonical_places(n: int) -> np.ndarray:
    """Row i marks the places of the canonical mask 2i+1 of n places, the
    order in which ``shape_sums`` reads its values."""
    return (2 * np.arange(1 << (n - 1))[:, None] + 1) >> np.arange(n) & 1


def shape_sums(values: np.ndarray, n: int) -> np.ndarray:
    """phi[s, j] in a window of n positions of a value given on the
    canonical masks whose top element is below m <= n (values[i] at mask
    2i+1, i < 2^(m-1)); with m = n that is every subset.  The values are
    binned by top and size, each mask its own shape (kappa = n - 1)."""
    m = len(values).bit_length()
    phi = np.bincount(_shapes(m, m)[1], values, n * _STRIDE)
    return phi.reshape(n, _STRIDE)[:, : n + 1]


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


def moment_tables(coeffs, n: int, kappa: int) -> tuple[np.ndarray, np.ndarray]:
    """(W, W0) of the weighting system ``coeffs`` for a window of n
    positions and clusters with gaps <= kappa (kappa >= n - 1 takes
    n - 1); a window whose weights underflow warns as ``weights_row``
    does, on every call."""
    coeffs.weights_row(n)
    return _moment_tables(coeffs, n, min(kappa, n - 1))


@functools.lru_cache(maxsize=1024)
def _moment_tables(coeffs, n: int, kappa: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only, 0 where no shape is (j > s + 1).  A cluster of span s at
    place a, of the d + 1 = n - s, leaves the other elements of S
    f = d - min(a, kappa) - min(d - a, kappa) positions, so its subsets
    weigh mu(N_a, j) together, N_a = n - f; W[s, j] sums them over a.
    Of the subsets that hold 0, a cluster at a = 0 keeps all, and one at
    a > kappa those with 0 among the others: mu(N_a + 1, j + 1) each.
    mu(N, j) is entry j of the weight row N <= n (``coeffs._weights_row``),
    so a second kappa at (coeffs, n) evaluates no moment."""
    # mu[N, j] for j <= N <= n; row 0 stands in for the places past d
    mu = np.zeros((n + 1, n + 2))
    for N in range(1, n + 1):
        mu[N, : N + 1] = _weights_row(coeffs, N)[0]
    s, a = np.arange(n)[:, None], np.arange(n)
    d = n - 1 - s
    N = s + 1 + np.minimum(a, kappa) + np.minimum(d - a, kappa)
    W = mu[np.where(a <= d, N, 0)].sum(axis=1)[:, : n + 1]
    inner = mu[np.where((a <= d) & (a > kappa), N + 1, 0)].sum(axis=1)
    W0 = mu[N[:, 0], : n + 1] + inner[:, 1:]
    tables = np.tril(W, 1), np.tril(W0, 1)
    for t in tables:
        t.setflags(write=False)
    return tables


def cluster_product_sum(span_weights, n: int, kappa: int) -> float:
    """Sum over all subsets S of {0..n-1}, the empty set included (it adds
    1), of the product over the clusters of S of a weight per cluster,
    where span_weights[s] sums those weights over the cluster shapes of
    span s; clusters as in the module docstring.  O(n^2)."""
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

