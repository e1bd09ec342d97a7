"""Topological complexity profiles: averaged pattern counts over all
subsets of a time window, the intricacy balance, and the closed-form
series available when the adjacency matrix has a positive square.

Two exact kernels give the shape sums of the log pattern counts and log
weighted counts (``_masks``); ``_count_sums`` picks one from the shift,
and each average is one dot product with a moment table.  With a
positive square, every gap of 2 or more reaches every symbol, so the
count at S factors over the clusters of S: O(n^2) with no table.  Every
other shift reduces counts at canonical subsets, holding at most
2^(LEFT_BITS-1) row vectors at a time (``_masks.table_shape_sums``).  On
a primitive shift every gap from the split gap D on (``_split_gap``)
reaches every symbol too, so past LEFT_BITS positions the table reduces
only the cluster shapes, the canonical subsets whose gaps are all < D; a
shift with no split, and any window of n <= LEFT_BITS, reduces all
2^(n-1).  The ``runs`` check suite compares the cluster sums and the
split table against the table with no split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._masks import (
    LEFT_BITS,
    _cluster_shapes,
    check_table_window,
    cluster_product_sum,
    moment_tables,
    table_shape_sums,
)
from .coeffs import HORIZON, CoefficientSystem
from .errors import CapExceeded
from .sft import Sft

__all__ = [
    "ComplexityProfile",
    "SeriesEstimate",
    "RecursionReport",
    "finite_profile",
    "finite_profiles",
    "asc_series",
    "int_series",
    "recursion_check",
]


@dataclass(frozen=True)
class ComplexityProfile:
    """Finite-horizon complexity summary of one shift at one n.

    All values are in nats except ``alt``, which is a plain average count.
    ``alt`` is only defined for uniform weights and is None otherwise.
    """

    n: int
    block_k: int
    h: float
    asc: float
    intricacy: float
    acc: float
    alt: float | None
    coeffs_spec: str


@dataclass(frozen=True)
class SeriesEstimate:
    value: float
    tail_bound: float
    terms: int


@dataclass(frozen=True)
class RecursionReport:
    n: int
    direct: float
    recursed: float
    rel_error: float
    passed: bool


def _count_mats(sft: Sft, n: int, block_k: int = 0, log_weights=None):
    """(init, gap_mats) of the pattern counts over the canonical masks of
    n positions, each place read as the block of block_k positions
    starting there (k <= 1: the place alone): the table entry of mask
    2i+1 is the count at dilate(2i+1, k), weighted by exp(log_weights)
    per symbol when they are given (k <= 1 only).

    Each block reads a path of k - 1 steps, so the table starts from
    A^(k-1) 1.  Two places g < k apart touch, and every step between them
    is read (A^g); a wider gap reads the first block out and then only
    reaches the next place (A^(k-1) times the reach of gap g-k+1)."""
    R = sft.reach_powers(n - 1)
    if block_k <= 1:
        if log_weights is None:
            return np.ones(sft.alphabet_size), R
        w = np.exp(log_weights)
        return w, R * w[:, None]
    paths = np.empty((block_k, sft.alphabet_size, sft.alphabet_size))
    paths[0] = np.eye(sft.alphabet_size)
    for g in range(1, block_k):
        paths[g] = paths[g - 1] @ sft.adjacency
    head = paths[-1]
    # gaps 1..min(k, n) - 1 touch; the gaps k..n-1 take one stacked product
    gap_mats = np.concatenate([paths[1:n], head @ R[:max(n - block_k, 0)]])
    return head.sum(axis=1), gap_mats


def _check_window(n: int, block_k: int) -> None:
    check_table_window(n)
    if block_k < 0:
        raise ValueError("block_k must be >= 0")
    if n + block_k > HORIZON:
        raise CapExceeded(f"n + block_k = {n + block_k} exceeds the subset horizon {HORIZON}")


def finite_profile(
    sft: Sft,
    coeffs: CoefficientSystem,
    n: int,
    block_k: int = 0,
) -> ComplexityProfile:
    """Averages of log pattern counts over all 2^n subsets of {0..n-1}.

    With ``block_k`` = k >= 1 each sampled position s is widened to the
    block {s..s+k-1} before counting (the k-block cover refinement);
    positions past n-1 are counted without truncation.  k = 0 and k = 1
    both mean plain single positions.  n is at most
    ``_masks.MAX_TABLE_BITS`` (23) for every shift and every k; wider
    windows raise CapExceeded.

    The kernel follows from the shift (``_count_sums``).
    """
    return finite_profiles(sft, [coeffs], n, block_k)[0]


def finite_profiles(
    sft: Sft,
    systems: list[CoefficientSystem],
    n: int,
    block_k: int = 0,
) -> list[ComplexityProfile]:
    """``finite_profile`` under each of several weighting systems, in
    order, from one set of shape sums, each system's moment tables
    entering only the dot products at the end.  The intricacy is 2 asc - h."""
    _check_window(n, block_k)
    with_alt = any(coeffs.kind == "uniform" for coeffs in systems)
    phi, kappa, log_full, alt = _count_sums(sft, n, block_k, with_alt)
    profiles = []
    for coeffs in systems:
        W, W0 = moment_tables(coeffs, n, kappa)
        total = float(np.vdot(phi, W))
        profiles.append(ComplexityProfile(
            n, block_k, log_full / n, total / n, (2.0 * total - log_full) / n,
            float(np.vdot(phi, W0)) / n, alt if coeffs.kind == "uniform" else None, coeffs.spec))
    return profiles


def _count_sums(sft: Sft, n: int, block_k: int, with_alt: bool = False, log_weights=None):
    """(phi, kappa, log N(window), alt): the shape sums of log N(S) with
    clusters of gaps <= kappa (``_masks``), and, when with_alt is set,
    alt = the sum of N(S) under the uniform weights 2^-n, else None.
    With log_weights (block_k <= 1 only) a pattern weighs exp of the sum
    of its symbols' weights.  The one choice of kernel: ``_run_sums``
    for a shift with a positive square, else ``_table_sums``."""
    sums = _run_sums if sft.is_square_positive() else _table_sums
    return sums(sft, n, block_k, with_alt, log_weights)


def _table_sums(sft: Sft, n: int, block_k: int, with_alt: bool = False, log_weights=None,
                split: bool = True):
    """``_count_sums`` from the counts at the canonical masks
    (``_masks.table_shape_sums``, which holds at most BLOCK_ENTRIES of them
    at a time), split at ``_split_gap`` of the count matrices, or at n
    (no split) when split is False.  Windows of n <= LEFT_BITS take
    D = n, the split not looked for: on the table shifts it is 1.1-1.8x
    faster at n = 8..12 but slower at n <= 5, where small requests are.
    A weighted count that underflows to 0 gives a -inf shape sum."""
    init, mats = _count_mats(sft, n, block_k, log_weights)
    gap = _split_gap(init, mats) if split and n > LEFT_BITS else n
    phi, log_full, total = table_shape_sums(n, init, mats, gap, with_counts=with_alt)
    # uniform weights: every subset, the empty one included, weighs 2^-n
    alt = float(0.5**n * total) if with_alt else None
    return phi, gap - 1, log_full, alt


def _split_gap(init: np.ndarray, gap_mats) -> int:
    """The smallest gap D >= 2 from which every gap matrix is
    outer(init, ones), so that a count factors over the clusters of gaps
    < D (``_masks.table_shape_sums``); n, one more than the widest gap,
    when even that one is not.  The test is exact: the matrices hold 0/1
    reach times symbol weights, or integer path counts.  A primitive
    shift of exponent p has D = p for block_k <= 1 and k + p - 1 for
    block_k = k >= 2; a periodic or reducible one has no split."""
    mats = np.asarray(gap_mats, dtype=np.float64).reshape(-1, len(init), len(init))
    if len(mats) < 2 or (mats[-1] != init[:, None]).any():
        return len(mats) + 1
    # the gaps 2..n-2 that are not outer(init, ones); the split is past the last
    off = np.flatnonzero((mats[1:-1] != init[:, None]).any(axis=(1, 2)))
    return int(off[-1]) + 3 if off.size else 2


def _run_sums(sft: Sft, n: int, block_k: int, with_alt: bool = False, log_weights=None):
    """``_count_sums`` for a shift whose adjacency matrix has a positive
    square.  With k = max(block_k, 1), two places of S less than k + 1
    apart read blocks that touch or overlap; wider gaps leave at least 2
    steps between the blocks, which reach every symbol.  So N(S) is the
    product over the clusters of S (maximal groups with gaps <= k) of the
    weight of the words of length span + k, from one log-domain walk;
    kappa = min(k, n - 1), as no gap of the window is wider."""
    k = max(block_k, 1)
    kappa = min(k, n - 1)
    logs = sft.log_word_weights(n - 1 + k, log_weights)[k - 1 :]
    shapes = _cluster_shapes(n, kappa)
    alt = None
    if with_alt:
        # uniform weights: every subset, the empty one included, weighs 2^-n;
        # every cluster shape of span s weighs the words of length s + k
        weights = [count * math.exp(v) for count, v in zip(shapes.sum(axis=1).tolist(), logs)]
        alt = float(0.5**n * cluster_product_sum(weights, n, k))
    return logs[:, None] * shapes, kappa, float(logs[-1]), alt


def asc_series(sft: Sft, terms: int = 20) -> SeriesEstimate:
    """Closed-form series for the limit average sample complexity of a
    shift whose adjacency matrix has strictly positive square:
    one quarter of sum(log |words of length k| / 2^k).  The reported
    tail bound covers the truncation error."""
    if terms < 1:
        raise ValueError("terms must be >= 1")
    if not sft.is_square_positive():
        raise ValueError("the series requires a strictly positive squared adjacency matrix")
    value = sum(math.log(c) / 2.0**k for k, c in enumerate(sft.word_counts(terms), 1)) / 4.0
    tail = math.log(sft.alphabet_size) * (terms + 2) / 2.0 ** (terms + 2)
    return SeriesEstimate(value, tail, terms)


def int_series(sft: Sft, terms: int = 20) -> SeriesEstimate:
    """Limit intricacy via the same series: twice the complexity series
    minus the topological entropy."""
    a = asc_series(sft, terms)
    return SeriesEstimate(2.0 * a.value - sft.topological_entropy(), 2.0 * a.tail_bound, terms)


def recursion_check(sft: Sft, n: int) -> RecursionReport:
    """Validate the internal recursion of the series derivation:
    a_n = lam_n + 2 a_{n-1} + 2^{n-2} sum_{k<=n-2} lam_k / 2^k,
    where a_n sums log N(S) over all S in the window and lam_k is the
    log count of full length-k words.  Both sides are evaluated
    independently: a_n = 2^n <phi, W_uniform> and a_{n-1} come from the
    shape sums of the table route with no split (``_table_sums`` at
    D = n, which holds no whole table), not from the cluster
    factorization the recursion is derived from: split at D = 2, as the
    shift's positive square allows, the table would reduce the clusters.
    n takes the table's window, 1..``_masks.MAX_TABLE_BITS``."""
    check_table_window(n)
    if not sft.is_square_positive():
        raise ValueError("recursion requires a strictly positive squared adjacency matrix")
    lam = {k: math.log(c) for k, c in enumerate(sft.word_counts(n), 1)}

    def a(m: int) -> float:
        phi, kappa = _table_sums(sft, m, 0, split=False)[:2]
        return 2.0**m * float(np.vdot(phi, moment_tables(CoefficientSystem.uniform(), m, kappa)[0]))

    direct = a(n)
    if n == 1:
        recursed = lam[1]
    else:
        recursed = lam[n] + 2.0 * a(n - 1) + 2.0 ** (n - 2) * sum(
            lam[k] / 2.0**k for k in range(1, n - 1)
        )
    rel = abs(direct - recursed) / max(1.0, abs(direct))
    return RecursionReport(n, direct, recursed, rel, rel <= 1e-9)
