"""Parameter scans and maximizer searches over Markov families.

A family maps a parameter vector inside a box to a Markov measure; the
scan evaluates the conditional-entropy series on a regular grid and
collects boundary/interior maxima per objective, and ``maximize``
refines a start point with a box-clamped simplex search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.optimize import minimize

from .markov import MarkovMeasure, asc_series_markov
from .sft import Sft

__all__ = [
    "MarkovFamily",
    "GridPoint",
    "SweepResult",
    "MaximizeResult",
    "builtin_family",
    "family_from_dict",
    "scan",
    "maximize",
    "OBJECTIVES",
]

OBJECTIVES = ("h", "asc", "int")


@dataclass(frozen=True)
class MarkovFamily:
    name: str
    param_names: tuple[str, ...]
    box: tuple[tuple[float, float], ...]
    builder: Callable[[tuple[float, ...]], MarkovMeasure]

    @property
    def dimension(self) -> int:
        return len(self.param_names)


@dataclass(frozen=True)
class GridPoint:
    theta: tuple[float, ...]
    h: float
    asc: float
    intricacy: float

    def value(self, objective: str) -> float:
        return {"h": self.h, "asc": self.asc, "int": self.intricacy}[objective]


@dataclass
class SweepResult:
    objective: str
    grid: list[GridPoint]
    best_theta: tuple[float, ...]
    best_value: float
    boundary_flag: bool
    local_maxima: list[tuple[tuple[float, ...], float]]
    skipped: list[tuple[tuple[float, ...], str]] = field(default_factory=list)
    step: float = 0.0


@dataclass(frozen=True)
class MaximizeResult:
    theta: tuple[float, ...]
    value: float
    converged: bool
    iterations: int


def _full2_builder(theta):
    p00, p11 = theta
    P = [[p00, 1.0 - p00], [1.0 - p11, p11]]
    return MarkovMeasure.one_step(P)


def _gms1_builder(theta):
    (p00,) = theta
    P = [[p00, 1.0 - p00], [1.0, 0.0]]
    return MarkovMeasure.one_step(P, support=Sft.golden_mean())


def _gms2_builder(theta):
    p000, p100 = theta
    P = [
        [p000, 1.0 - p000, 0.0],
        [0.0, 0.0, 1.0],
        [p100, 1.0 - p100, 0.0],
    ]
    return MarkovMeasure(P, states=((0, 0), (0, 1), (1, 0)), block_len=2, alphabet_size=2)


_BUILTINS = {
    "full2-1step": MarkovFamily(
        "full2-1step", ("p00", "p11"), ((0.0, 1.0), (0.0, 1.0)), _full2_builder
    ),
    "gms-1step": MarkovFamily("gms-1step", ("p00",), ((0.0, 1.0),), _gms1_builder),
    "gms-2step": MarkovFamily(
        "gms-2step", ("p000", "p100"), ((0.0, 1.0), (0.0, 1.0)), _gms2_builder
    ),
}


def builtin_family(name: str) -> MarkovFamily:
    try:
        return _BUILTINS[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}; built-ins: {sorted(_BUILTINS)}") from None


def family_from_dict(d: dict) -> MarkovFamily:
    """Custom family schema: a template matrix whose cells are numbers,
    parameter names, or the per-row marker "rest" (one per row, set to
    whatever makes the row sum to 1)::

        {"name": ..., "params": ["a"], "box": {"a": [0, 1]},
         "template": [["a", "rest"], [1, 0]],
         "block_len": 1, "states": optional [...]}
    """
    name = d.get("name", "custom")
    params = tuple(d["params"])
    box = tuple(tuple(float(x) for x in d["box"][p]) for p in params)
    template = d["template"]
    block_len = int(d.get("block_len", 1))
    states = d.get("states")
    state_tuples = (
        tuple(tuple(int(c) for c in s) for s in states) if states is not None else None
    )

    def build(theta: tuple[float, ...]) -> MarkovMeasure:
        env = dict(zip(params, theta))
        P = []
        for row in template:
            vals = []
            rest_at = None
            for j, cell in enumerate(row):
                if cell == "rest":
                    if rest_at is not None:
                        raise ValueError("one 'rest' marker per row")
                    rest_at = j
                    vals.append(0.0)
                elif isinstance(cell, str):
                    vals.append(float(env[cell]))
                else:
                    vals.append(float(cell))
            if rest_at is not None:
                vals[rest_at] = 1.0 - sum(vals)
            P.append(vals)
        if state_tuples is not None:
            return MarkovMeasure(P, states=state_tuples, block_len=block_len)
        return MarkovMeasure.one_step(P)

    return MarkovFamily(name, params, box, build)


def _axis(lo: float, hi: float, step: float) -> np.ndarray:
    count = int(round((hi - lo) / step)) + 1
    return np.linspace(lo, hi, count)


def _evaluate(family: MarkovFamily, theta: tuple[float, ...], terms: int):
    try:
        m = family.builder(theta)
        s = asc_series_markov(m, terms)
        return GridPoint(theta, s.h, s.asc, s.intricacy)
    except ValueError as exc:
        return (theta, str(exc))


def scan(
    family: MarkovFamily,
    step: float = 0.005,
    terms: int = 20,
    objective: str = "asc",
) -> SweepResult:
    """Evaluate the series at every grid point of the box, pick the best
    value of the requested objective, and collect strict local maxima on
    the grid graph (4-neighborhood in dimension 2).  Points where the
    family fails to build (e.g. no unique stationary vector) are skipped
    and reported."""
    if not 0.0 < step <= 0.1:
        raise ValueError("step must be in (0, 0.1]")
    if terms < 10:
        raise ValueError("terms must be >= 10")
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}")

    axes = [_axis(lo, hi, step) for lo, hi in family.box]
    shape = tuple(len(a) for a in axes)
    thetas = [
        tuple(float(axes[d][i]) for d, i in enumerate(idx)) for idx in np.ndindex(*shape)
    ]
    results = [_evaluate(family, t, terms) for t in thetas]

    grid: list[GridPoint] = []
    skipped: list[tuple[tuple[float, ...], str]] = []
    by_index: dict[tuple[int, ...], GridPoint] = {}
    for idx, res in zip(np.ndindex(*shape), results):
        if isinstance(res, GridPoint):
            grid.append(res)
            by_index[idx] = res
        else:
            skipped.append(res)
    if not grid:
        raise ValueError("every grid point failed to build")

    values = {idx: pt.value(objective) for idx, pt in by_index.items()}
    best_idx = max(values, key=lambda idx: values[idx])
    best = by_index[best_idx]

    local_maxima = []
    for idx, val in values.items():
        neighbors = []
        for d in range(len(shape)):
            for delta in (-1, 1):
                j = list(idx)
                j[d] += delta
                j = tuple(j)
                if j in values:
                    neighbors.append(values[j])
        if neighbors and all(val > v for v in neighbors):
            local_maxima.append((by_index[idx].theta, val))
    local_maxima.sort(key=lambda tv: -tv[1])

    eps = 1e-12
    boundary = any(
        t <= lo + step + eps or t >= hi - step - eps
        for t, (lo, hi) in zip(best.theta, family.box)
    )
    return SweepResult(
        objective, grid, best.theta, values[best_idx], boundary, local_maxima, skipped, step
    )


def maximize(
    family: MarkovFamily,
    objective: str,
    start,
    terms: int = 20,
    diameter_tol: float = 1e-5,
    max_iter: int = 500,
) -> MaximizeResult:
    """Derivative-free simplex refinement clamped to the box, seeded at
    ``start``.  Stops when the simplex diameter falls below
    ``diameter_tol`` or after ``max_iter`` iterations (then the best
    point so far is returned with converged=False)."""
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}")
    theta0 = np.atleast_1d(np.asarray(start, dtype=float))
    if theta0.shape != (family.dimension,):
        raise ValueError("start has the wrong dimension")
    for t, (lo, hi) in zip(theta0, family.box):
        if not lo <= t <= hi:
            raise ValueError("start outside the box")

    def negated(theta: np.ndarray) -> float:
        res = _evaluate(family, tuple(float(t) for t in theta), terms)
        if isinstance(res, GridPoint):
            return -res.value(objective)
        return np.inf

    out = minimize(
        negated,
        theta0,
        method="Nelder-Mead",
        bounds=family.box,
        options={
            "xatol": diameter_tol,
            "fatol": 1e-12,
            "maxiter": max_iter,
            "initial_simplex": None,
        },
    )
    return MaximizeResult(
        tuple(float(t) for t in out.x), -float(out.fun), bool(out.success), int(out.nit)
    )
