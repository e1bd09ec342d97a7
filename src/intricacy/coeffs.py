"""Subset weighting systems used by all the averaged complexity measures.

A weighting system assigns a weight to every subset S of {0, ..., n-1}
that depends only on n and |S|.  Admissible systems are exactly the
moment families

    weight(n, k) = integral of x^k (1-x)^(n-k) over a symmetric
                   probability measure on [0, 1],

which includes the uniform weights 2^-n (point mass at 1/2), the
neural-complexity weights 1/((n+1) C(n,k)) (Lebesgue measure), and the
two-point p-symmetric weights.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

from .errors import CapExceeded

__all__ = [
    "SymmetricMeasure",
    "CoefficientSystem",
    "ValidationReport",
    "validate",
    "parse_coeffs",
    "HORIZON",
]

# largest window n any system weighs
HORIZON = 64

# Below this magnitude a weight is treated as having underflowed.
_UNDERFLOW = 1e-300
# largest axiom deviation ``validate`` accepts
_AXIOM_TOLERANCE = 1e-12


def _exact_beta(n: int, k: int) -> float:
    # B(k+1, n-k+1) = k! (n-k)! / (n+1)! = 1 / ((n+1) C(n,k)), exact integers
    return 1.0 / ((n + 1) * math.comb(n, k))


@dataclass(frozen=True)
class SymmetricMeasure:
    """Probability measure on [0,1] invariant under x -> 1-x.

    Stored one-sided: ``pairs`` holds (x, mass) with x < 1/2, each standing
    for the mirrored pair {x, 1-x} with the given mass at *each* point;
    ``center_mass`` sits at 1/2 and ``lebesgue_mass`` is the absolutely
    continuous part.  Masses are normalized to total 1 at construction.
    """

    pairs: tuple[tuple[float, float], ...]
    center_mass: float
    lebesgue_mass: float

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
            out += self.lebesgue_mass * _exact_beta(n, k)
        return out

    def falling_moment(self, i: int) -> float:
        """integral of p^2 (1-p)^(i-1); the weight of gap i in the
        general-weight conditional-entropy series."""
        out = 0.0
        for x, m in self.pairs:
            y = 1.0 - x
            out += m * (x**2 * y ** (i - 1) + y**2 * x ** (i - 1))
        if self.center_mass > 0:
            out += self.center_mass * (0.25 * 0.5 ** (i - 1))
        if self.lebesgue_mass > 0:
            # exact: B(3, i) = 2 / (i (i+1) (i+2))
            out += self.lebesgue_mass * (2.0 / (i * (i + 1) * (i + 2)))
        return out


class CoefficientSystem:
    """A rule assigning weight(n, k) to every subset of {0..n-1} of size k.

    Immutable after construction; each weight is computed on every call.
    """

    def __init__(
        self,
        kind: str,
        *,
        p: float | None = None,
        measure: SymmetricMeasure | None = None,
        table: dict[tuple[int, int], float] | None = None,
    ):
        if kind not in ("uniform", "neural", "psym", "measure", "table"):
            raise ValueError(f"unknown kind {kind!r}")
        if kind == "psym":
            if p is None or not 0.0 < p < 1.0:
                raise ValueError("psym requires a probability 0 < p < 1")
        if kind == "measure" and measure is None:
            raise ValueError("measure kind requires a SymmetricMeasure")
        if kind == "table" and table is None:
            raise ValueError("table kind requires an explicit table")
        self.kind = kind
        self.p = p
        self.measure = measure
        self._table = dict(table) if table else None

    # -- constructors ---------------------------------------------------

    @classmethod
    def uniform(cls) -> "CoefficientSystem":
        return cls("uniform")

    @classmethod
    def neural(cls) -> "CoefficientSystem":
        return cls("neural")

    @classmethod
    def p_symmetric(cls, p: float) -> "CoefficientSystem":
        return cls("psym", p=p)

    @classmethod
    def from_measure(
        cls,
        atoms: list[tuple[float, float]] | tuple[tuple[float, float], ...] = (),
        lebesgue_mass: float = 0.0,
    ) -> "CoefficientSystem":
        """Measure-backed system from a one-sided atom list (auto-mirrored)
        plus an optional Lebesgue component."""
        m = SymmetricMeasure.from_one_sided(atoms, lebesgue_mass)
        return cls("measure", measure=m)

    @classmethod
    def from_table(cls, table: dict[tuple[int, int], float]) -> "CoefficientSystem":
        """Explicit (n, k) -> weight table.  No axioms are enforced here;
        run validate() to check them."""
        return cls("table", table=table)

    # -- evaluation ------------------------------------------------------

    def weight(self, n: int, k: int) -> float:
        """Weight of any subset of {0..n-1} with k elements."""
        if n < 1 or n > HORIZON:
            raise CapExceeded(f"n={n} outside [1, horizon={HORIZON}]")
        if k < 0 or k > n:
            raise ValueError(f"k={k} outside [0, {n}]")
        value = self._compute(n, k)
        # every non-table kind is mathematically positive, so a value this
        # small can only be floating-point underflow
        if self.kind != "table" and value < _UNDERFLOW:
            warnings.warn(f"weight({n},{k}) underflowed to 0", RuntimeWarning)
            value = 0.0
        return value

    def _compute(self, n: int, k: int) -> float:
        if self.kind == "uniform":
            return 0.5**n
        if self.kind == "neural":
            return 1.0 / ((n + 1) * math.comb(n, k))
        if self.kind == "psym":
            p = self.p
            q = 1.0 - p
            # symmetric under k <-> n-k because the two summands swap
            return 0.5 * (p**k * q ** (n - k) + q**k * p ** (n - k))
        if self.kind == "measure":
            return self.measure.moment(n, k)
        return self._table.get((n, k), 0.0)

    def weights_row(self, n: int) -> list[float]:
        """weight(n, k) for k = 0..n."""
        return [self.weight(n, k) for k in range(n + 1)]

    @property
    def spec(self) -> str:
        """Canonical CLI spec string for this system."""
        if self.kind == "uniform":
            return "uniform"
        if self.kind == "neural":
            return "neural"
        if self.kind == "psym":
            return f"psym:{self.p:g}"
        if self.kind == "measure":
            parts = [f"{x:g}={m:g}" for x, m in self.measure.pairs]
            if self.measure.center_mass > 0:
                parts.append(f"0.5={self.measure.center_mass:g}")
            s = "measure:" + ",".join(parts)
            if self.measure.lebesgue_mass > 0:
                s += f";lebesgue={self.measure.lebesgue_mass:g}"
            return s
        return "table"

    def __repr__(self) -> str:
        return f"CoefficientSystem({self.spec!r})"


@dataclass
class ValidationReport:
    """Per-n axiom deviations for a coefficient system."""

    rows: list[dict] = field(default_factory=list)
    passed: bool = True

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
        row = system.weights_row(n)
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
