"""Average sample pressure for subshifts with single-coordinate
potentials, at cylinder-cover resolution, plus the classical pressure
baseline (log spectral radius of the weighted transfer matrix).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ._masks import check_table_window, moment_tables
from .coeffs import CoefficientSystem
from .errors import are_numbers, read_field, read_symbol
from .sft import Sft, _as_subset, log_spectral_radius
from .topo import _count_sums

__all__ = ["Potential", "weighted_count", "asp_profile", "classical_pressure"]


class Potential(NamedTuple("Potential", [("values", tuple)])):
    """Real value per symbol of the original alphabet (nats)."""

    __slots__ = ()

    def __new__(cls, values: tuple[tuple[int, float], ...]):
        for symbol, value in values:
            if not math.isfinite(value):
                raise ValueError(f"potential value {value} at symbol {symbol} is not finite")
        return super().__new__(cls, values)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    @classmethod
    def from_dict(cls, d: dict) -> "Potential":
        """Input schema: {"values": {"0": 0.0, "1": 1.0, ...}}."""
        table = read_field(d, "values", lambda v: isinstance(v, dict) and are_numbers(v.values()),
                           "an object of numbers")
        return cls(tuple(sorted((read_symbol(k, "potential key"), float(v))
                                for k, v in table.items())))

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
    """Sum over the distinct patterns at the places of S of exp(sum of f
    over the pattern's symbols): exactly ``Sft.count_words_at`` for f = 0,
    else a log-sum-exp walk over the vertices each gap reaches (as in
    ``Sft.log_word_weights``).  A sum outside float64's positive range is
    refused as a ValueError naming the spread, never returned as inf or 0."""
    spec = _as_subset(S, n)
    lw = f.log_weights(sft)
    if spec.mask == 0 or not lw.any():
        return float(sft.count_words_at(spec))
    R = sft.reach_powers(max(spec.gaps, default=0))
    v = lw  # v[a] = log of the sum over the patterns from this place on that start at a
    for g in reversed(spec.gaps):
        v = lw + np.logaddexp.reduce(np.where(R[g - 1] > 0, v, -np.inf), axis=1)
    total = float(np.logaddexp.reduce(v))
    with np.errstate(over="ignore", under="ignore"):
        value = float(np.exp(total))
    if not 0.0 < value < math.inf:
        raise ValueError(f"weighted count at {spec.elements} leaves float64's positive range: "
                         f"log sum {total:.6g}, potential spread {float(lw.max() - lw.min()):.6g}")
    return value


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
