"""Topological complexity profiles: averaged pattern counts over all
subsets of a time window, the intricacy balance, and the closed-form
series available when the adjacency matrix has a positive square.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._masks import (
    TABLE_ROW_LIMIT,
    complement_sum,
    dilate_masks,
    popcounts,
    product_table,
    size_sums,
)
from .coeffs import CoefficientSystem
from .errors import CapExceeded
from .sft import Sft, SubsetSpec

__all__ = [
    "ComplexityProfile",
    "SeriesEstimate",
    "RecursionReport",
    "finite_profile",
    "asc_series",
    "int_series",
    "recursion_check",
    "DEFAULT_N_CAP",
]

DEFAULT_N_CAP = 24


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


def _count_table(sft: Sft, n_bits: int) -> np.ndarray:
    """Pattern counts over the canonical masks of n_bits positions."""
    return product_table(n_bits, np.ones(sft.alphabet_size), sft.reach)


def _check_window(n: int, block_k: int, n_cap: int) -> int:
    if n < 1 or n > n_cap:
        raise CapExceeded(f"n={n} outside [1, {n_cap}]")
    if block_k < 0:
        raise ValueError("block_k must be >= 0")
    if n + block_k > 64:
        raise CapExceeded(f"n + block_k = {n + block_k} exceeds the subset horizon 64")
    return n + max(block_k - 1, 0)


def finite_profile(
    sft: Sft,
    coeffs: CoefficientSystem,
    n: int,
    block_k: int = 0,
    n_cap: int = DEFAULT_N_CAP,
) -> ComplexityProfile:
    """Averages of log pattern counts over all 2^n subsets of {0..n-1}.

    With ``block_k`` = k >= 1 each sampled position s is widened to the
    block {s..s+k-1} before counting (the k-block cover refinement);
    positions past n-1 are counted without truncation.  k = 0 and k = 1
    both mean plain single positions.
    """
    n_ext = _check_window(n, block_k, n_cap)
    if 1 << (n_ext - 1) > TABLE_ROW_LIMIT:
        return _finite_profile_slow(sft, coeffs, n, block_k)

    counts = _count_table(sft, n_ext)
    if block_k >= 2:
        # row of the dilated canonical mask d = dilate(2i+1) is d >> 1
        rows = dilate_masks(2 * np.arange(1 << (n - 1), dtype=np.int64) + 1, block_k) >> 1
        counts = counts[rows]
    logs = np.log(counts)
    every, with_zero = size_sums(logs, n)
    log_full = float(logs[-1])

    c = np.asarray(coeffs.weights_row(n))
    h = log_full / n
    asc = float(c @ every) / n
    intr = complement_sum(c, every, log_full) / n
    acc = float(c @ with_zero) / n
    alt = float(c[0] + c @ size_sums(counts, n)[0]) if coeffs.kind == "uniform" else None
    return ComplexityProfile(n, block_k, h, asc, intr, acc, alt, coeffs.spec)


def _finite_profile_slow(sft: Sft, coeffs: CoefficientSystem, n: int, block_k: int) -> ComplexityProfile:
    # per-mask path for windows too wide for the vectorized table; the
    # count of each dilated subset is memoized on its shift-canonical form
    memo: dict[int, float] = {}
    weights = coeffs.weights_row(n)
    pc = popcounts(n)
    k = max(block_k, 1)
    n_ext = n + k - 1

    def log_count(mask: int) -> float:
        if mask == 0:
            return 0.0
        spec = SubsetSpec(n_ext, mask).canonical()
        hit = memo.get(spec.mask)
        if hit is None:
            hit = math.log(sft.count_words_at(spec))
            memo[spec.mask] = hit
        return hit

    def dil(mask: int) -> int:
        d = mask
        for j in range(1, k):
            d |= mask << j
        return d

    full = (1 << n) - 1
    log_full = log_count(dil(full))
    asc = intr = acc = 0.0
    alt = 0.0
    uniform = coeffs.kind == "uniform"
    for m in range(1 << n):
        c = weights[pc[m]]
        lm = log_count(dil(m))
        asc += c * lm
        intr += c * (lm + log_count(dil(full ^ m)) - log_full)
        if m & 1:
            acc += c * lm
        if uniform:
            alt += math.exp(lm)
    return ComplexityProfile(
        n, block_k, log_full / n, asc / n, intr / n, acc / n,
        alt / 2.0**n if uniform else None, coeffs.spec,
    )


def _asc_reduced(sft: Sft, coeffs: CoefficientSystem, n: int, block_k: int = 0) -> float:
    """Same average as finite_profile().asc, computed the other way:
    enumerate only subsets containing 0 and weight each by the number of
    its translates inside the window.  Used to cross-check enumeration."""
    _check_window(n, block_k, DEFAULT_N_CAP)
    weights = coeffs.weights_row(n)
    k = max(block_k, 1)
    total = 0.0
    for m in range(1, 1 << n, 2):
        spec = SubsetSpec(n, m)
        multiplicity = n - spec.elements[-1]
        lm = math.log(sft.count_words_at(spec.dilate(k)))
        total += multiplicity * weights[spec.size] * lm
    return total / n


def asc_series(sft: Sft, terms: int = 20) -> SeriesEstimate:
    """Closed-form series for the limit average sample complexity of a
    shift whose adjacency matrix has strictly positive square:
    one quarter of sum(log |words of length k| / 2^k).  The reported
    tail bound covers the truncation error."""
    if terms < 1:
        raise ValueError("terms must be >= 1")
    if not sft.is_square_positive():
        raise ValueError("the series requires a strictly positive squared adjacency matrix")
    value = sum(math.log(sft.complexity_count(k)) / 2.0**k for k in range(1, terms + 1)) / 4.0
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
    independently (direct enumeration vs. the recursion)."""
    if n > 20:
        raise CapExceeded("recursion check capped at n = 20")
    if not sft.is_square_positive():
        raise ValueError("recursion requires a strictly positive squared adjacency matrix")
    lam = {k: math.log(sft.complexity_count(k)) for k in range(1, n + 1)}
    # a_n and a_{n-1} from one table: the first 2^(n-2) rows are the
    # canonical masks of the narrower window
    logs = np.log(_count_table(sft, n))
    direct = float(size_sums(logs, n)[0].sum())
    if n == 1:
        recursed = lam[1]
    else:
        a_prev = float(size_sums(logs[: 1 << (n - 2)], n - 1)[0].sum())
        recursed = lam[n] + 2.0 * a_prev + 2.0 ** (n - 2) * sum(
            lam[k] / 2.0**k for k in range(1, n - 1)
        )
    rel = abs(direct - recursed) / max(1.0, abs(direct))
    return RecursionReport(n, direct, recursed, rel, rel <= 1e-9)
