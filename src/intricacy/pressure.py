"""Average sample pressure for subshifts with single-coordinate
potentials, at cylinder-cover resolution, plus the classical pressure
baseline (log spectral radius of the weighted transfer matrix).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._masks import TABLE_ROW_LIMIT, product_table, size_sums
from .coeffs import CoefficientSystem
from .errors import CapExceeded
from .sft import Sft, SubsetSpec, _as_subset, log_spectral_radius
from .topo import DEFAULT_N_CAP

__all__ = ["Potential", "weighted_count", "asp_profile", "classical_pressure"]


@dataclass(frozen=True)
class Potential:
    """Real value per symbol of the original alphabet (nats)."""

    values: tuple[tuple[int, float], ...]

    @classmethod
    def from_dict(cls, d: dict) -> "Potential":
        """Input schema: {"values": {"0": 0.0, "1": 1.0, ...}}."""
        table = d["values"]
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

    def weight_vector(self, sft: Sft) -> np.ndarray:
        """exp(f) per vertex."""
        return np.exp(self.log_weights(sft))


def weighted_count(sft: Sft, f: Potential, S, n: int | None = None) -> float:
    """Sum over the distinct patterns at the places of S of
    exp(sum of f over the pattern's symbols).  With f identically 0 this
    is exactly the pattern count; the empty set sums the single empty
    pattern, i.e. 1."""
    spec = _as_subset(S, n)
    if spec.mask == 0:
        return 1.0
    w = f.weight_vector(sft)
    v = w.copy()
    for g in reversed(spec.gaps):
        v = (sft.reach(g) * w[:, None]) @ v
    return float(v.sum())


def asp_profile(
    sft: Sft,
    f: Potential,
    coeffs: CoefficientSystem,
    n: int,
    n_cap: int = DEFAULT_N_CAP,
) -> float:
    """Average over all 2^n subsets of the log weighted pattern count,
    divided by n.  With f identically 0 this equals the asc column of
    finite_profile bit for bit.

    The table is built from f - max f, so every symbol weight is at most
    1 and no product overflows; since each pattern at S carries |S|
    symbols, the shift adds back max f * E|S| / n exactly."""
    if n < 1 or n > n_cap:
        raise CapExceeded(f"n={n} outside [1, {n_cap}]")
    weights = coeffs.weights_row(n)
    if 1 << (n - 1) <= TABLE_ROW_LIMIT:
        lw = f.log_weights(sft)
        top = float(lw.max())
        w = np.exp(lw - top)
        table = product_table(n, w, lambda g: sft.reach(g) * w[:, None])
        # every S has a pattern, so a zero entry is an underflowed weight
        with np.errstate(divide="ignore"):
            logs = np.log(table)
        c = np.asarray(weights)
        mean_size = sum(math.comb(n, k) * c[k] * k for k in range(n + 1))
        value = float(c @ size_sums(logs, n)[0]) / n + top * mean_size / n
        if not math.isfinite(value):
            spread = top - float(lw.min())
            raise ValueError(
                f"asp underflows at n={n}: with potential spread {spread:.6g}, the "
                "weighted pattern count of some subset falls below float64's range "
                "(about e^-708) once f is shifted by its max"
            )
        return value
    total = 0.0
    for m in range(1, 1 << n):
        spec = SubsetSpec(n, m)
        total += weights[spec.size] * math.log(weighted_count(sft, f, spec.canonical()))
    return total / n


def classical_pressure(sft: Sft, f: Potential) -> float:
    """log spectral radius of adjacency * diag(exp f); the comparison
    baseline that the subset averages sit below."""
    return log_spectral_radius(sft.adjacency, f.log_weights(sft))
