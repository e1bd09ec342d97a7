"""Topological complexity profiles: averaged pattern counts over all
subsets of a time window, the intricacy balance, and the closed-form
series available when the adjacency matrix has a positive square.

Two exact kernels give the shape sums of the log pattern counts and log
weighted counts (``_masks``) from ``Sft.count_matrices``; ``_count_sums``
picks one by the split gap D of the shift (``Sft.split_gap``), from which
every gap reaches every symbol, and each average is one dot product with
a moment table.  Where D <= max(block_k, 1) + 1 the count at S factors
over its clusters, each one word: O(n^2) with no table.  Elsewhere counts
are reduced at canonical subsets, at most 2^(LEFT_BITS-1) row vectors at
a time (``_masks.table_shape_sums``): past LEFT_BITS positions only the
shapes, the canonical subsets whose gaps are all < D.  The ``runs`` check
suite compares the kernel picked against the table with no split (D = n).
"""

from __future__ import annotations

import math
from typing import NamedTuple

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
from .errors import CapExceeded, check_terms
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


# a record takes the functional form with real types: class syntax would
# compile each field's annotation string at import
class ComplexityProfile(NamedTuple("ComplexityProfile", [
        ("n", int), ("block_k", int), ("h", float), ("asc", float), ("intricacy", float),
        ("acc", float), ("alt", float | None), ("coeffs_spec", str)])):
    """Finite-horizon complexity summary of one shift at one n.

    All values are in nats except ``alt``, which is a plain average count.
    ``alt`` is only defined where every weight is 2^-n (a weighting
    measure with all its mass at 1/2) and is None otherwise.
    """

    __slots__ = ()


SeriesEstimate = NamedTuple("SeriesEstimate", [
    ("value", float), ("tail_bound", float), ("terms", int)])

RecursionReport = NamedTuple("RecursionReport", [
    ("n", int), ("direct", float), ("recursed", float), ("rel_error", float), ("passed", bool)])


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
    with_alt = any(coeffs.all_at_half for coeffs in systems)
    phi, kappa, log_full, alt = _count_sums(sft, n, block_k, with_alt)
    profiles = []
    for coeffs in systems:
        W, W0 = moment_tables(coeffs, n, kappa)
        total = float(np.vdot(phi, W))
        profiles.append(ComplexityProfile(
            n, block_k, log_full / n, total / n, (2.0 * total - log_full) / n,
            float(np.vdot(phi, W0)) / n, alt if coeffs.all_at_half else None, coeffs.spec))
    return profiles


def _count_sums(sft: Sft, n: int, block_k: int, with_alt: bool = False, log_weights=None):
    """(phi, kappa, log N(window), alt): the shape sums of log N(S) with
    clusters of gaps <= kappa (``_masks``), and, when with_alt is set,
    alt = the sum of N(S) under the uniform weights 2^-n, else None.
    With log_weights (block_k <= 1 only) a pattern weighs exp of the sum
    of its symbols' weights.  The one choice of kernel: ``_table_split``."""
    split = _table_split(sft, n, block_k)
    if split is None:
        return _run_sums(sft, n, block_k, with_alt, log_weights)
    return _table_sums(sft, n, block_k, with_alt, log_weights, split)


def _table_split(sft: Sft, n: int, block_k: int) -> int | None:
    """The gap D = ``Sft.split_gap`` at which ``_count_sums`` splits
    ``_table_sums``, or n for n <= LEFT_BITS (the split is 1.1-1.8x faster
    at n = 8..12, but slower at n <= 5, where small requests are); None,
    for ``_run_sums``, where D <= max(block_k, 1) + 1."""
    gap = sft.split_gap(n, block_k)
    if gap <= max(block_k, 1) + 1:
        return None
    return gap if n > LEFT_BITS else n


def _table_sums(sft: Sft, n: int, block_k: int, with_alt: bool = False, log_weights=None,
                split: int | None = None):
    """``_count_sums`` from the counts at the canonical masks
    (``_masks.table_shape_sums``, which holds at most BLOCK_ENTRIES of them
    at a time), split at the gap ``split``, a split gap of the shift, or
    at n (no split) when it is None.  A weighted count that underflows to
    0 gives a -inf shape sum."""
    init, mats = sft.count_matrices(n, block_k, log_weights)
    gap = n if split is None else split
    phi, log_full, total = table_shape_sums(n, init, mats, gap, with_counts=with_alt)
    # uniform weights: every subset, the empty one included, weighs 2^-n
    alt = float(0.5**n * total) if with_alt else None
    return phi, gap - 1, log_full, alt


def _run_sums(sft: Sft, n: int, block_k: int, with_alt: bool = False, log_weights=None):
    """``_count_sums`` where the split gap D is at most k + 1, k =
    max(block_k, 1).  Two places of S less than k + 1 apart read blocks
    that touch or overlap, and every gap from D on reaches every symbol:
    wider gaps do, or the window has none (D = n).  So N(S) is the
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
    check_terms(terms)
    if not sft.is_square_positive():
        raise ValueError("the series requires a strictly positive squared adjacency matrix")
    # ldexp(x, -k) = x / 2^k, with no 2^k to overflow
    value = sum(math.ldexp(math.log(c), -k) for k, c in enumerate(sft.word_counts(terms), 1)) / 4.0
    tail = math.ldexp(math.log(sft.alphabet_size) * (terms + 2), -(terms + 2))
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
        phi, kappa = _table_sums(sft, m, 0)[:2]
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
