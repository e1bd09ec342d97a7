"""Topological complexity profiles: averaged pattern counts over all
subsets of a time window, the intricacy balance, and the closed-form
series available when the adjacency matrix has a positive square.

Two exact kernels give the per-size sums of the log pattern counts and
log weighted counts; ``_count_sums`` picks one from the shift.  With a
positive square, every gap of 2 or more reaches every symbol, so the
count at S factors over the clusters of S and the sums take O(n^3)
steps (``_masks.cluster_size_sums``).  Every other shift reduces one
count per canonical subset, 2^(n-1) of them, holding at most
2^(LEFT_BITS-1) row vectors at a time (``_masks.table_size_sums``); the
``runs`` check suite compares the cluster sums against that table route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._masks import (
    check_table_window,
    cluster_product_sum,
    cluster_size_sums,
    table_size_sums,
)
from .coeffs import CoefficientSystem
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
    paths = [np.eye(sft.alphabet_size)]
    for _ in range(block_k - 1):
        paths.append(paths[-1] @ sft.adjacency)
    head = paths[-1]
    gap_mats = [paths[g] if g < block_k else head @ R[g - block_k] for g in range(1, n)]
    return head.sum(axis=1), gap_mats


def _check_window(n: int, block_k: int) -> None:
    check_table_window(n)
    if block_k < 0:
        raise ValueError("block_k must be >= 0")
    if n + block_k > 64:
        raise CapExceeded(f"n + block_k = {n + block_k} exceeds the subset horizon 64")


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
    order, from one set of per-size sums: the sums do not depend on the
    weights, which only enter the dot products at the end.  Every system
    weighs a subset as its complement and sums to 1 over the subsets, so
    the intricacy is 2 asc - h."""
    _check_window(n, block_k)
    rows = [np.asarray(coeffs.weights_row(n)) for coeffs in systems]
    uniform = next((c for coeffs, c in zip(systems, rows) if coeffs.kind == "uniform"), None)
    every, with_zero, log_full, alt = _count_sums(sft, n, block_k, uniform)
    profiles = []
    for coeffs, c in zip(systems, rows):
        total = float(c @ every)
        profiles.append(ComplexityProfile(
            n, block_k, log_full / n, total / n, (2.0 * total - log_full) / n,
            float(c @ with_zero) / n, alt if coeffs.kind == "uniform" else None, coeffs.spec))
    return profiles


def _count_sums(sft: Sft, n: int, block_k: int, alt_weights=None, log_weights=None):
    """(every, with_zero, log N(window), alt): the ``size_sums`` of log N(S)
    over the subsets of {0..n-1}, and alt = the sum of N(S) under the
    uniform alt_weights when they are given.  With log_weights (block_k
    <= 1 only) a pattern weighs exp of the sum of its symbols' weights.
    The one choice of kernel: ``_run_sums`` (O(n^3)) for a shift with a
    positive square, else ``_table_sums``."""
    sums = _run_sums if sft.is_square_positive() else _table_sums
    return sums(sft, n, block_k, alt_weights, log_weights)


def _table_sums(sft: Sft, n: int, block_k: int, alt_weights=None, log_weights=None):
    """``_count_sums`` from the counts at the canonical masks
    (``_masks.table_size_sums``, which holds at most BLOCK_ENTRIES of them
    at a time).  A weighted count that underflows to 0 gives -inf sums."""
    every, with_zero, log_full, count_every = table_size_sums(
        n, *_count_mats(sft, n, block_k, log_weights), with_counts=alt_weights is not None)
    alt = None
    if alt_weights is not None:
        alt = float(alt_weights[0] + alt_weights @ count_every)
    return every, with_zero, log_full, alt


def _run_sums(sft: Sft, n: int, block_k: int, alt_weights=None, log_weights=None):
    """``_count_sums`` for a shift whose adjacency matrix has a positive
    square.  With k = max(block_k, 1), two places of S less than k + 1
    apart read blocks that touch or overlap; wider gaps leave at least 2
    steps between the blocks, which reach every symbol.  So N(S) is the
    product over the clusters of S (maximal groups with gaps <= k) of the
    weight of the words of length span + k, from one log-domain walk."""
    k = max(block_k, 1)
    logs = sft.log_word_weights(n - 1 + k, log_weights)[k - 1 :]
    every, with_zero = cluster_size_sums(logs, n, k)
    alt = None
    if alt_weights is not None:
        # uniform weights: every subset, the empty one included, weighs 2^-n
        alt = float(alt_weights[0] * cluster_product_sum(logs, n, k))
    return every, with_zero, float(logs[-1]), alt


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
    independently: a_n and a_{n-1} come from the per-size sums of the
    table route (``_table_sums``, which holds no whole table), not from
    the cluster factorization the recursion is derived from.  n takes
    the table's window, 1..``_masks.MAX_TABLE_BITS``."""
    check_table_window(n)
    if not sft.is_square_positive():
        raise ValueError("recursion requires a strictly positive squared adjacency matrix")
    lam = {k: math.log(c) for k, c in enumerate(sft.word_counts(n), 1)}

    def a(m: int) -> float:
        return float(_table_sums(sft, m, 0)[0].sum())

    direct = a(n)
    if n == 1:
        recursed = lam[1]
    else:
        recursed = lam[n] + 2.0 * a(n - 1) + 2.0 ** (n - 2) * sum(
            lam[k] / 2.0**k for k in range(1, n - 1)
        )
    rel = abs(direct - recursed) / max(1.0, abs(direct))
    return RecursionReport(n, direct, recursed, rel, rel <= 1e-9)
