"""Subset weighting systems used by all the averaged complexity measures.

A weighting system assigns a weight to every subset S of {0, ..., n-1}
that depends only on n and |S|.  Admissible systems are exactly the
moment families

    weight(n, k) = integral of x^k (1-x)^(n-k) over a symmetric
                   probability measure on [0, 1],

and every ``CoefficientSystem`` is one: the uniform weights 2^-n (point
mass at 1/2), the neural-complexity weights 1/((n+1) C(n,k)) (Lebesgue
measure), the two-point p-symmetric weights, and any symmetric measure
given by its atoms and Lebesgue part.  So the weights of the 2^n
subsets sum to 1 and a subset weighs what its complement weighs, which
makes the intricacy 2 asc - h for every system.
"""

from __future__ import annotations

import functools
import math
import warnings
from typing import NamedTuple

import numpy as np

from .errors import CapExceeded

__all__ = [
    "SymmetricMeasure",
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
class SymmetricMeasure(NamedTuple("SymmetricMeasure", [
        ("pairs", tuple[tuple[float, float], ...]), ("center_mass", float),
        ("lebesgue_mass", float)])):
    """Probability measure on [0,1] invariant under x -> 1-x.

    Stored one-sided: ``pairs`` holds (x, mass), each standing for the
    mirrored pair {x, 1-x} with the given mass at *each* point;
    ``center_mass`` sits at 1/2 and ``lebesgue_mass`` is the absolutely
    continuous part.  ``from_one_sided`` keeps x < 1/2 and normalizes the
    masses to total 1; ``validate`` checks a measure built otherwise.
    """

    __slots__ = ()

    @classmethod
    def from_one_sided(
        cls,
        atoms: list[tuple[float, float]] | tuple[tuple[float, float], ...] = (),
        lebesgue_mass: float = 0.0,
    ) -> "SymmetricMeasure":
        """Build from one-sided atoms; each atom (x, m) with x != 1/2 is
        mirrored to (1-x, m).  The total after mirroring plus
        ``lebesgue_mass`` must be 1 within 1e-9; it is then renormalized
        exactly.  Every position and mass must be finite.
        """
        if not (math.isfinite(lebesgue_mass) and lebesgue_mass >= 0):
            raise ValueError(f"lebesgue mass {lebesgue_mass} is not finite and nonnegative")
        pairs: dict[float, float] = {}
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
                pairs[key] = pairs.get(key, 0.0) + m
        total = 2.0 * sum(pairs.values()) + center + lebesgue_mass
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"total mass {total!r} differs from 1 by more than 1e-9")
        return cls(
            pairs=tuple(sorted((x, m / total) for x, m in pairs.items())),
            center_mass=center / total,
            lebesgue_mass=lebesgue_mass / total,
        )

    @property
    def atoms(self) -> tuple[tuple[float, float], ...]:
        """Full (mirrored) atom list."""
        out = [(x, m) for x, m in self.pairs]
        out += [(1.0 - x, m) for x, m in self.pairs]
        if self.center_mass > 0:
            out.append((0.5, self.center_mass))
        return tuple(sorted(out))

    @property
    def all_at_half(self) -> bool:
        """Whether all the mass sits at 1/2, where every weight(n, k) is 2^-n."""
        return self.lebesgue_mass == 0 and all(x == 0.5 or m == 0 for x, m in self.pairs)

    def total_mass(self) -> float:
        return 2.0 * sum(m for _, m in self.pairs) + self.center_mass + self.lebesgue_mass

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


class CoefficientSystem:
    """A rule assigning weight(n, k) to every subset of {0..n-1} of size k:
    the moment of x^k (1-x)^(n-k) of a symmetric probability measure.

    ``spec`` is the canonical CLI spec string; ``alt`` is defined where
    every weight is 2^-n (``SymmetricMeasure.all_at_half``: ``uniform``,
    ``psym:0.5``, ``measure:0.5=1``).  Immutable after construction;
    ``weight`` computes on every call, ``weights_row`` once per (measure, n).
    """

    def __init__(self, measure: SymmetricMeasure, spec: str):
        self.measure = measure
        self.spec = spec

    # -- constructors ---------------------------------------------------

    @classmethod
    def uniform(cls) -> "CoefficientSystem":
        """2^-n: mass 1 at 1/2."""
        return cls(SymmetricMeasure((), 1.0, 0.0), "uniform")

    @classmethod
    def neural(cls) -> "CoefficientSystem":
        """1/((n+1) C(n,k)): Lebesgue measure."""
        return cls(SymmetricMeasure((), 0.0, 1.0), "neural")

    @classmethod
    def p_symmetric(cls, p: float) -> "CoefficientSystem":
        """1/2 (p^k q^(n-k) + q^k p^(n-k)), q = 1 - p: mass 1/2 at p and at
        1 - p.  p is stored as given, not folded below 1/2, so each weight
        is that formula term for term."""
        if not 0.0 < p < 1.0:
            raise ValueError("psym requires a probability 0 < p < 1")
        return cls(SymmetricMeasure(((p, 0.5),), 0.0, 0.0), f"psym:{p:g}")

    @classmethod
    def from_measure(
        cls,
        atoms: list[tuple[float, float]] | tuple[tuple[float, float], ...] = (),
        lebesgue_mass: float = 0.0,
    ) -> "CoefficientSystem":
        """Measure-backed system from a one-sided atom list (auto-mirrored)
        plus an optional Lebesgue component."""
        m = SymmetricMeasure.from_one_sided(atoms, lebesgue_mass)
        parts = [f"{x:g}={w:g}" for x, w in m.pairs]
        if m.center_mass > 0:
            parts.append(f"0.5={m.center_mass:g}")
        spec = "measure:" + ",".join(parts)
        if m.lebesgue_mass > 0:
            spec += f";lebesgue={m.lebesgue_mass:g}"
        return cls(m, spec)

    # -- evaluation ------------------------------------------------------

    def weight(self, n: int, k: int) -> float:
        """Weight of any subset of {0..n-1} with k elements."""
        if n < 1 or n > HORIZON:
            raise CapExceeded(f"n={n} outside [1, horizon={HORIZON}]")
        if k < 0 or k > n:
            raise ValueError(f"k={k} outside [0, {n}]")
        value = self.measure.moment(n, k)
        # a moment of a measure with no mass at 0 or 1 is positive, so a
        # value this small can only be floating-point underflow
        if value < _UNDERFLOW:
            warnings.warn(f"weight({n},{k}) underflowed to 0", RuntimeWarning)
            value = 0.0
        return value

    def weights_row(self, n: int) -> np.ndarray:
        """weight(n, k) for k = 0..n, as a read-only float64 row.  Each row
        is computed once per (measure, n) and kept for the process; a row
        with underflowed weights warns on every call, as ``weight`` does."""
        if n < 1 or n > HORIZON:
            raise CapExceeded(f"n={n} outside [1, horizon={HORIZON}]")
        row, underflowed = _weights_row(self.measure, n)
        for k in underflowed:
            warnings.warn(f"weight({n},{k}) underflowed to 0", RuntimeWarning)
        return row

    def __repr__(self) -> str:
        return f"CoefficientSystem({self.spec!r})"


@functools.lru_cache(maxsize=1024)
def _weights_row(measure: SymmetricMeasure, n: int) -> tuple[np.ndarray, tuple[int, ...]]:
    # the row of CoefficientSystem.weights_row and the k whose weight underflowed
    row = np.array([measure.moment(n, k) for k in range(n + 1)])
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
