"""Subset weighting systems used by all the averaged complexity measures.

A weighting system assigns a weight to every subset S of {0, ..., n-1}
that depends only on n and |S|.  Admissible systems are exactly the
moment families

    weight(n, k) = integral of x^k (1-x)^(n-k) over a symmetric
                   probability measure on [0, 1],

and a ``CoefficientSystem`` is such a measure: the uniform weights 2^-n
(point mass at 1/2), the neural-complexity weights 1/((n+1) C(n,k))
(Lebesgue measure), the two-point p-symmetric weights, and any
symmetric measure given by its atoms and Lebesgue part.  So the weights
of the 2^n subsets sum to 1 and a subset weighs what its complement
weighs, which makes the intricacy 2 asc - h for every system.  The
cached weight row of each (system, n) is the one cache of moments:
``weight``, ``weights_row`` and the ``_masks`` moment tables read it.
"""

from __future__ import annotations

import functools
import math
import warnings
from typing import NamedTuple

import numpy as np

from .errors import CapExceeded

__all__ = [
    "CoefficientSystem",
    "ValidationReport",
    "validate",
    "parse_coeffs",
    "HORIZON",
]

# the subset horizon: the largest window n any system weighs, any
# ``sft.SubsetSpec`` spans and any ``topo`` window with its blocks reads
HORIZON = 64

# Below this magnitude a weight is treated as having underflowed.
_UNDERFLOW = 1e-300
# largest axiom deviation ``validate`` accepts
_AXIOM_TOLERANCE = 1e-12


# a record takes the functional form with real types: class syntax would
# compile each field's annotation string at import
class CoefficientSystem(NamedTuple("CoefficientSystem", [
        ("pairs", tuple[tuple[float, float], ...]), ("center_mass", float),
        ("lebesgue_mass", float), ("spec", str)])):
    """A rule assigning weight(n, k) to every subset of {0..n-1} of size k:
    the moment of x^k (1-x)^(n-k) of a probability measure on [0,1]
    invariant under x -> 1-x, stored one-sided.  ``pairs`` holds (x, mass),
    each standing for the mirrored pair {x, 1-x} with the given mass at
    *each* point; ``center_mass`` sits at 1/2, ``lebesgue_mass`` is the
    absolutely continuous part, and ``spec`` is the canonical CLI spec
    string.  ``validate`` checks a system not built by a constructor.
    ``alt`` is defined where every weight is 2^-n (``all_at_half``).
    """

    __slots__ = ()

    # -- constructors ---------------------------------------------------

    @classmethod
    def uniform(cls) -> "CoefficientSystem":
        """2^-n: mass 1 at 1/2."""
        return cls((), 1.0, 0.0, "uniform")

    @classmethod
    def neural(cls) -> "CoefficientSystem":
        """1/((n+1) C(n,k)): Lebesgue measure."""
        return cls((), 0.0, 1.0, "neural")

    @classmethod
    def p_symmetric(cls, p: float) -> "CoefficientSystem":
        """1/2 (p^k q^(n-k) + q^k p^(n-k)), q = 1 - p: mass 1/2 at p and at
        1 - p.  p is stored as given, not folded below 1/2, so each weight
        is that formula term for term."""
        if not 0.0 < p < 1.0:
            raise ValueError("psym requires a probability 0 < p < 1")
        return cls(((p, 0.5),), 0.0, 0.0, f"psym:{p:g}")

    @classmethod
    def from_measure(
        cls,
        atoms: list[tuple[float, float]] | tuple[tuple[float, float], ...] = (),
        lebesgue_mass: float = 0.0,
    ) -> "CoefficientSystem":
        """System of the measure with one-sided atoms, each atom (x, m)
        with x != 1/2 mirrored to (1-x, m), plus an optional Lebesgue
        component.  The total after mirroring must be 1 within 1e-9; it
        is then renormalized exactly.  Every position and mass must be
        finite.
        """
        if not (math.isfinite(lebesgue_mass) and lebesgue_mass >= 0):
            raise ValueError(f"lebesgue mass {lebesgue_mass} is not finite and nonnegative")
        one_sided: dict[float, float] = {}
        center = 0.0
        for x, m in atoms:
            if not (math.isfinite(m) and m >= 0):
                raise ValueError(f"atom at {x}: mass {m} is not finite and nonnegative")
            if not 0.0 < x < 1.0:
                raise ValueError(
                    f"atom position {x} is not in (0, 1): point masses at 0 or 1 "
                    "contribute nothing to any weight and are rejected"
                )
            if x == 0.5:
                center += m
            else:
                key = x if x < 0.5 else 1.0 - x
                one_sided[key] = one_sided.get(key, 0.0) + m
        total = 2.0 * sum(one_sided.values()) + center + lebesgue_mass
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"total mass {total!r} differs from 1 by more than 1e-9")
        pairs = tuple(sorted((x, m / total) for x, m in one_sided.items()))
        center, lebesgue_mass = center / total, lebesgue_mass / total
        parts = [f"{x:g}={w:g}" for x, w in pairs]
        if center > 0:
            parts.append(f"0.5={center:g}")
        spec = "measure:" + ",".join(parts)
        if lebesgue_mass > 0:
            spec += f";lebesgue={lebesgue_mass:g}"
        return cls(pairs, center, lebesgue_mass, spec)

    # -- evaluation ------------------------------------------------------

    @property
    def all_at_half(self) -> bool:
        """Whether all the mass sits at 1/2, where every weight(n, k) is 2^-n."""
        return self.lebesgue_mass == 0 and all(x == 0.5 or m == 0 for x, m in self.pairs)

    def moment(self, n: int, k: int) -> float:
        """integral of x^k (1-x)^(n-k).  Mirrored atoms are summed pairwise
        so that moment(n, k) == moment(n, n - k) holds to the last bit."""
        out = 0.0
        for x, m in self.pairs:
            y = 1.0 - x
            out += m * (x**k * y ** (n - k) + y**k * x ** (n - k))
        if self.center_mass > 0:
            out += self.center_mass * (0.5**k * 0.5 ** (n - k))
        if self.lebesgue_mass > 0:
            # B(k+1, n-k+1) = k! (n-k)! / (n+1)! = 1 / ((n+1) C(n,k)), exact integers
            out += self.lebesgue_mass * (1.0 / ((n + 1) * math.comb(n, k)))
        return out

    def weight(self, n: int, k: int) -> float:
        """Weight of any subset of {0..n-1} with k elements: entry k of
        ``weights_row(n)``, warning only if that entry underflowed."""
        row, underflowed = _weights_row(self, n)
        if k < 0 or k > n:
            raise ValueError(f"k={k} outside [0, {n}]")
        if k in underflowed:
            warnings.warn(f"weight({n},{k}) underflowed to 0", RuntimeWarning)
        return row.item(k)

    def weights_row(self, n: int) -> np.ndarray:
        """weight(n, k) for k = 0..n, as a read-only float64 row.  Each row
        is computed once per (system, n) and kept for the process; a row
        with underflowed weights warns on every call, once per such k."""
        row, underflowed = _weights_row(self, n)
        for k in underflowed:
            warnings.warn(f"weight({n},{k}) underflowed to 0", RuntimeWarning)
        return row


@functools.lru_cache(maxsize=1024)
def _weights_row(system: CoefficientSystem, n: int) -> tuple[np.ndarray, tuple[int, ...]]:
    # the one place a moment becomes a weight: the read-only row of
    # ``weights_row``, and the k whose weight underflowed
    if n < 1 or n > HORIZON:
        raise CapExceeded(f"n={n} outside [1, horizon={HORIZON}]")
    row = np.array([system.moment(n, k) for k in range(n + 1)])
    # a moment of a measure with no mass at 0 or 1 is positive, so a
    # value this small can only be floating-point underflow
    underflowed = tuple(np.flatnonzero(row < _UNDERFLOW).tolist())
    row[row < _UNDERFLOW] = 0.0
    row.setflags(write=False)
    return row, underflowed


class ValidationReport:
    """Per-n axiom deviations for a coefficient system."""

    def __init__(self):
        self.rows: list[dict] = []
        self.passed = True

    def add(self, n: int, sum_dev: float, asym: float, min_weight: float) -> None:
        ok = sum_dev <= _AXIOM_TOLERANCE and asym <= _AXIOM_TOLERANCE and min_weight >= 0.0
        self.rows.append(
            {
                "n": n,
                "sum_deviation": sum_dev,
                "max_asymmetry": asym,
                "min_weight": min_weight,
                "ok": ok,
            }
        )
        self.passed = self.passed and ok


def validate(system: CoefficientSystem, n_max: int) -> ValidationReport:
    """Check the three axioms (nonnegativity, sum over all subsets = 1,
    complement symmetry) for every n <= n_max.  Failures are carried in
    the report, not raised."""
    if n_max > HORIZON:
        raise CapExceeded(f"n_max={n_max} exceeds horizon {HORIZON}")
    report = ValidationReport()
    for n in range(1, n_max + 1):
        row = system.weights_row(n).tolist()
        total = sum(math.comb(n, k) * row[k] for k in range(n + 1))
        asym = max(abs(row[k] - row[n - k]) for k in range(n + 1))
        report.add(n, abs(total - 1.0), asym, min(row))
    return report


def parse_coeffs(spec: str) -> CoefficientSystem:
    """Parse a CLI coefficient spec.

    Grammar: ``uniform`` | ``neural`` | ``psym:<p>`` |
    ``measure:<x1>=<m1>,...[;lebesgue=<m>]`` (one-sided atoms,
    auto-mirrored).
    """
    spec = spec.strip()
    if spec == "uniform":
        return CoefficientSystem.uniform()
    if spec == "neural":
        return CoefficientSystem.neural()
    if spec.startswith("psym:"):
        return CoefficientSystem.p_symmetric(float(spec[5:]))
    if spec.startswith("measure:"):
        body = spec[len("measure:") :]
        lebesgue = 0.0
        if ";" in body:
            body, tail = body.split(";", 1)
            key, _, val = tail.partition("=")
            if key.strip() != "lebesgue":
                raise ValueError(f"unknown measure option {key!r}")
            lebesgue = float(val)
        atoms = []
        if body.strip():
            for item in body.split(","):
                x, _, m = item.partition("=")
                atoms.append((float(x), float(m)))
        return CoefficientSystem.from_measure(atoms, lebesgue)
    raise ValueError(f"cannot parse coefficient spec {spec!r}")
