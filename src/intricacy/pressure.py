"""Average sample pressure for subshifts with single-coordinate
potentials, at cylinder-cover resolution, plus the classical pressure
baseline (log spectral radius of the weighted transfer matrix).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._masks import check_table_window, moment_tables
from .coeffs import CoefficientSystem
from .errors import are_numbers, read_field
from .sft import Sft, _walk_count, log_spectral_radius
from .topo import _count_sums

__all__ = ["Potential", "weighted_count", "asp_profile", "classical_pressure"]


@dataclass(frozen=True)
class Potential:
    """Real value per symbol of the original alphabet (nats)."""

    values: tuple[tuple[int, float], ...]

    def __post_init__(self):
        for symbol, value in self.values:
            if not math.isfinite(value):
                raise ValueError(f"potential value {value} at symbol {symbol} is not finite")

    @classmethod
    def from_dict(cls, d: dict) -> "Potential":
        """Input schema: {"values": {"0": 0.0, "1": 1.0, ...}}."""
        table = read_field(d, "values", lambda v: isinstance(v, dict) and are_numbers(v.values()),
                           "an object of numbers")
        return cls(tuple(sorted((int(k), float(v)) for k, v in table.items())))

    @classmethod
    def from_values(cls, values: dict[int, float]) -> "Potential":
        return cls(tuple(sorted((int(k), float(v)) for k, v in values.items())))

    def as_dict(self) -> dict[int, float]:
        return dict(self.values)

    def log_weights(self, sft: Sft) -> np.ndarray:
        """f per vertex, reading each vertex's symbol label; raises if some
        symbol of the shift has no assigned value."""
        table = self.as_dict()
        missing = [s for s in sft.symbol_labels if s not in table]
        if missing:
            raise ValueError(f"potential does not cover symbols {sorted(set(missing))}")
        return np.array([table[s] for s in sft.symbol_labels], dtype=float)


def weighted_count(sft: Sft, f: Potential, S, n: int | None = None) -> float:
    """Sum over the distinct patterns at the places of S of
    exp(sum of f over the pattern's symbols): the walk of the weighted
    count matrices (``Sft.count_matrices``) that counts the patterns.
    With f identically 0 this is exactly the pattern count; the empty set
    sums the single empty pattern, i.e. 1."""
    return float(_walk_count(sft, S, n, f.log_weights(sft)))


def asp_profile(sft: Sft, f: Potential, coeffs: CoefficientSystem, n: int) -> float:
    """Average over all 2^n subsets of the log weighted pattern count,
    divided by n.  With f identically 0 this equals the asc column of
    finite_profile bit for bit.  n is at most ``_masks.MAX_TABLE_BITS``
    (23); wider windows raise CapExceeded.

    The shape sums come from ``topo._count_sums``, the kernel choice of
    the pattern counts, with the symbol weights exp(f - max f): every
    weight is at most 1, so no product overflows, and since each pattern
    at S carries |S| symbols, max f * E|S| / n = max f / 2 is added back.
    Where the run kernel serves, the sums come from one log-domain walk
    (``Sft.log_word_weights``), so potentials of any size or spread are
    exact.  Other shifts reduce a table of weighted counts, where a spread
    past about 708 can underflow a subset's shifted count to 0, a -inf
    shape sum; that is refused as a ValueError naming the spread."""
    check_table_window(n)
    lw = f.log_weights(sft)
    top = float(lw.max())
    phi, kappa = _count_sums(sft, n, 0, log_weights=lw - top)[:2]
    W = moment_tables(coeffs, n, kappa)[0]
    # E|S| / n = 1/2 exactly: every weighting system is symmetric.  A count
    # of 0 makes the average -inf, where the dot product could take -inf * 0
    value = float(np.vdot(phi, W)) / n + top / 2 if np.isfinite(phi).all() else -math.inf
    if not math.isfinite(value):
        spread = top - float(lw.min())
        raise ValueError(
            f"asp underflows at n={n}: with potential spread {spread:.6g}, the "
            "weighted pattern count of some subset falls below float64's range "
            "(about e^-708) once f is shifted by its max"
        )
    return value


def classical_pressure(sft: Sft, f: Potential) -> float:
    """log spectral radius of adjacency * diag(exp f); the comparison
    baseline that the subset averages sit below."""
    return log_spectral_radius(sft.adjacency, f.log_weights(sft))
