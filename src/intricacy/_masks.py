"""Vectorized enumeration over the canonical subsets of {0..n-1}.

A shift-invariant quantity such as a pattern count or a joint entropy
depends only on the gaps of a subset, so every nonempty subset has the
value of its translate whose lowest element is 0.  The tables here hold
only those canonical masks: row i is the mask 2i+1, so a table over
n_bits positions has 2^(n_bits-1) rows, and rows [2^(j-1), 2^j) are the
masks whose top element is j.

The table is stored as columns, V[:, i] holding the vector of mask 2i+1,
and filled in order of the top element j, then of the second element g.
Dropping the element 0 from a mask {0, g, ..., j} and shifting by g
gives the canonical mask {0, ..., j-g}, so each (j, g) step is one
strided slice of columns computed from one contiguous block of earlier
columns, with no index arrays:

    g < j:   V[:, 2^(j-1) + 2^(g-1) : 2^j : 2^g] = R(g) @ V[:, 2^(j-1-g) : 2^(j-g)]
    g == j:  V[:, 2^(j-1)] = R(j) @ V[:, 0]

A whole table costs O(2^(n_bits-1) r^2) flops.  ``size_sums`` then folds
a table into per-size sums over all subsets of the window, weighting
each canonical mask by its number of translates, so every average over
the 2^n subsets is a dot product with the weights row.

A table always spans the n sampled positions, whatever each place
reads: a cover that reads a block at every place changes the start
vector and the gap matrices (``topo``), never the number of rows.
Windows wider than ``MAX_TABLE_BITS`` positions are refused.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapExceeded

__all__ = [
    "TABLE_ROW_LIMIT",
    "MAX_TABLE_BITS",
    "check_table_window",
    "popcounts",
    "product_table",
    "additive_gap_table",
    "size_sums",
    "complement_sum",
]

# most rows a table may hold: 2^22 rows, the canonical masks of 23 positions
TABLE_ROW_LIMIT = 1 << 22
MAX_TABLE_BITS = TABLE_ROW_LIMIT.bit_length()


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


def _gap_steps(n_bits: int):
    # (dest slice, source slice, gap) for every mask with >= 2 elements,
    # in an order where each source entry is filled before it is read
    for j in range(1, n_bits):
        top = 1 << (j - 1)
        yield slice(top, top + 1), slice(0, 1), j
        for g in range(1, j):
            src = slice(1 << (j - 1 - g), 1 << (j - g))
            yield slice(top + (1 << (g - 1)), 1 << j, 1 << g), src, g


def product_table(n_bits: int, init: np.ndarray, gap_mats) -> np.ndarray:
    """table[i] = sum over symbol tuples at the places of the canonical
    mask 2i+1 of init[a_last] * prod_i gap_mats[g_i - 1][a_i, a_{i+1}].

    gap_mats stacks the matrices of the gaps 1..n_bits-1.  With init =
    ones and 0/1 reachability matrices this is the pattern count
    N(2i+1); with exponential symbol weights it is the weighted count
    used by the pressure profile.  The table has 2^(n_bits-1) rows.
    """
    V = np.empty((len(init), 1 << (n_bits - 1)), dtype=np.float64)
    V[:, 0] = init
    mats = np.asarray(gap_mats, dtype=np.float64)
    for dest, src, g in _gap_steps(n_bits):
        V[:, dest] = mats[g - 1] @ V[:, src]
    return V.sum(axis=0)


def additive_gap_table(n_bits: int, gap_values) -> np.ndarray:
    """table[i] = sum of gap_values[g_i - 1] over the consecutive gaps of
    the canonical mask 2i+1 (0 for the singleton {0}); gap_values holds
    the values of the gaps 1..n_bits-1."""
    G = np.empty(1 << (n_bits - 1), dtype=np.float64)
    G[0] = 0.0
    values = np.asarray(gap_values, dtype=np.float64)
    for dest, src, g in _gap_steps(n_bits):
        G[dest] = G[src] + values[g - 1]
    return G


def size_sums(values: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-size sums over the subsets of {0..n-1} of a shift-invariant
    value given on the canonical masks (values[i] at mask 2i+1, i <
    2^(n-1)).  Returns (every, with_zero): every[k] sums over all k-subsets,
    with_zero[k] over the k-subsets that contain 0.  The empty set adds
    nothing to either."""
    every = np.zeros(n + 1)
    with_zero = np.zeros(n + 1)
    with_zero[1] = values[0]
    every[1] = n * values[0]
    # rows [2^(j-1), 2^j) are the masks 1 + 2^j + 2t, t < 2^(j-1), of size
    # popcount(t) + 2; each has n - j translates in the window
    pc = popcounts(max(n - 2, 0))
    for j in range(1, n):
        half = 1 << (j - 1)
        part = np.bincount(pc[:half], weights=values[half : 2 * half], minlength=j)
        with_zero[2 : j + 2] += part
        every[2 : j + 2] += (n - j) * part
    return every, with_zero


def complement_sum(c: np.ndarray, every: np.ndarray, full: float) -> float:
    """sum over the subsets S of {0..n-1} of c[|S|] (v(S) + v(S^c) - full),
    where every = size_sums(v, n)[0] and full = v({0..n-1}).  v(S^c) enters
    through the weight of the complement's size, so c need not be
    symmetric."""
    n = len(c) - 1
    binom = np.array([math.comb(n, k) for k in range(n + 1)], dtype=np.float64)
    return float((c + c[::-1]) @ every) - float(binom @ c) * full
