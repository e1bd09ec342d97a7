"""Parameter scans and maximizer searches over Markov families.

A family maps a stack of parameter vectors in a box to the stack of
their transition matrices.  ``scan`` evaluates the series on a regular
grid, a block at a time, and collects boundary/interior maxima per
objective; ``maximize`` refines a start point with a compass search
clamped to the box, a round of polls at a time, both by ``_evaluate``.
"""

from __future__ import annotations

import numbers
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .markov import (
    MarkovMeasure, _chain_states, _end_matrix, _refusals, _series_stack, _stationary_stack,
    _transition_codes,
)

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
# grid points per stacked evaluation: bounds the memory a scan holds
_BLOCK = 1024
# compass polls a maximize takes at most
_POLL_BUDGET = 500


@dataclass(frozen=True, eq=False)
class MarkovFamily:
    """``stack`` maps a (G, dimension) array of parameter points to their
    (G, d, d) transition matrices on ``states``."""

    name: str
    param_names: tuple[str, ...]
    box: tuple[tuple[float, float], ...]
    stack: Callable[[np.ndarray], np.ndarray]
    states: tuple[tuple[int, ...], ...]
    block_len: int = 1

    @property
    def dimension(self) -> int:
        return len(self.param_names)

    @cached_property
    def codes(self) -> np.ndarray | None:  # the transitions that may carry mass
        return _transition_codes(self.states, self.block_len)

    @cached_property
    def end(self) -> np.ndarray:  # collapses a state onto its last base symbol
        return _end_matrix(self.states, max(max(s) for s in self.states) + 1)

    def builder(self, theta) -> MarkovMeasure:
        """The measure at one parameter point, the one-point case of ``stack``."""
        P = self.stack(np.array([theta], dtype=float))[0]
        return MarkovMeasure(P, states=self.states, block_len=self.block_len)


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


def _box_entry(name: str, entry) -> tuple[float, float]:
    """(lo, hi) of one parameter of a custom family's box: two numbers with
    0 <= lo <= hi <= 1, since template cells are transition probabilities
    (which also bounds the grid a scan builds).  NaN fails every comparison."""
    lo, hi = entry if isinstance(entry, (list, tuple)) and len(entry) == 2 else (None, None)
    if not all(isinstance(x, numbers.Real) for x in (lo, hi)) or not 0.0 <= lo <= hi <= 1.0:
        raise ValueError(f"box of {name!r} must be two numbers 0 <= lo <= hi <= 1, got {entry!r}")
    return float(lo), float(hi)


def _compile(template, params: tuple[str, ...]) -> Callable[[np.ndarray], np.ndarray]:
    """The stack builder of a template (see ``family_from_dict``); any
    other template is a ValueError naming the row or cell."""
    if not isinstance(template, list) or not template:
        raise ValueError("template must be a non-empty square matrix")
    d = len(template)
    for i, row in enumerate(template):
        if not isinstance(row, list) or len(row) != d:
            raise ValueError(f"template row {i} must hold {d} cells: the template is square")
        if row.count("rest") > 1:
            raise ValueError(f"template row {i} has more than one 'rest' marker")
        for j, cell in enumerate(row):
            if not (cell == "rest" or cell in params or isinstance(cell, numbers.Real)):
                raise ValueError(f"template cell ({i}, {j}) {cell!r} is neither a number, "
                                 f"'rest' nor a declared parameter {list(params)}")
    const = np.array([[float(c) if isinstance(c, numbers.Real) else 0.0 for c in row]
                      for row in template])
    pi, pj, pk = np.array([(i, j, params.index(c)) for i, row in enumerate(template) for j, c
                           in enumerate(row) if c in params], dtype=np.intp).reshape(-1, 3).T
    ri, rj = np.array([(i, row.index("rest")) for i, row in enumerate(template) if "rest" in row],
                      dtype=np.intp).reshape(-1, 2).T

    def stack(thetas: np.ndarray) -> np.ndarray:
        P = np.repeat(const[None], len(thetas), axis=0)
        P[:, pi, pj] = thetas[:, pk]
        # each "rest" cell, 0 so far, takes 1 less its row summed left to right
        P[:, ri, rj] = 1.0 - P[:, ri].cumsum(axis=2)[..., -1]
        return P

    return stack


def family_from_dict(d: dict) -> MarkovFamily:
    """Custom family schema, checked on load: a square template matrix whose
    cells are numbers, parameter names, or the per-row marker "rest" (at
    most one per row, set to whatever makes the row sum to 1)::

        {"name": ..., "params": ["a"], "box": {"a": [0, 1]},
         "template": [["a", "rest"], [1, 0]],
         "block_len": 1, "states": optional [...]}
    """
    params = tuple(d["params"])
    box = tuple(_box_entry(p, d["box"][p]) for p in params)
    stack = _compile(d["template"], params)
    block_len = int(d.get("block_len", 1))
    if block_len not in (1, 2):
        raise ValueError("series supports block_len 1 and 2; recode higher blocks")
    states = _chain_states(d.get("states"), block_len, len(d["template"]))
    return MarkovFamily(d.get("name", "custom"), params, box, stack, states, block_len)


# the built-ins are custom families over the whole unit box
_BUILTINS = {d["name"]: family_from_dict(dict(d, box={p: [0, 1] for p in d["params"]})) for d in (
    {"name": "full2-1step", "params": ["p00", "p11"],
     "template": [["p00", "rest"], ["rest", "p11"]]},
    {"name": "gms-1step", "params": ["p00"], "template": [["p00", "rest"], [1, 0]]},
    {"name": "gms-2step", "params": ["p000", "p100"], "block_len": 2, "states": ["00", "01", "10"],
     "template": [["p000", "rest", 0], [0, 0, 1], ["p100", "rest", 0]]},
)}


def builtin_family(name: str) -> MarkovFamily:
    try:
        return _BUILTINS[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}; built-ins: {sorted(_BUILTINS)}") from None


def _axis(lo: float, hi: float, step: float) -> np.ndarray:
    count = int(round((hi - lo) / step)) + 1
    return np.linspace(lo, hi, count)


def _check_request(objective: str, terms: int) -> None:
    if terms < 10:
        raise ValueError("terms must be >= 10")
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}")


def _compass(theta, step, box):
    """The points theta +- step along each axis, clamped to the box, less
    those the clamp puts back on theta."""
    for d, (lo, hi) in enumerate(box):
        for sign in (1, -1):
            t = min(max(theta[d] + sign * step, lo), hi)
            if t != theta[d]:
                yield theta[:d] + (t,) + theta[d + 1:]


def _evaluate(family: MarkovFamily, thetas: np.ndarray, terms: int) -> list:
    """A GridPoint per row of ``thetas``, from one stacked pass, or (theta,
    reason) where the family does not build: what ``MarkovMeasure`` raises."""
    P = family.stack(thetas)
    reasons = _refusals(P, family.codes, family.states)
    p = _stationary_stack(P, reasons)
    built = np.array([r is None for r in reasons], dtype=bool)
    h, asc = _series_stack(P[built], p[built], family.end, terms)
    values = zip(h.tolist(), asc.tolist(), (2.0 * asc - h).tolist())
    return [GridPoint(theta, *next(values)) if r is None else (theta, r)
            for theta, r in zip(map(tuple, thetas.tolist()), reasons)]


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
    _check_request(objective, terms)

    axes = [_axis(lo, hi, step) for lo, hi in family.box]
    shape = tuple(len(a) for a in axes)
    thetas = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    results = [res for lo in range(0, len(thetas), _BLOCK)
               for res in _evaluate(family, thetas[lo:lo + _BLOCK], terms)]
    grid = [res for res in results if isinstance(res, GridPoint)]
    skipped = [res for res in results if not isinstance(res, GridPoint)]
    if not grid:
        (reason, count), = Counter(reason for _, reason in skipped).most_common(1)
        raise ValueError(
            f"every grid point failed to build; {count} of {len(skipped)} points: {reason}")

    best = max(grid, key=lambda pt: pt.value(objective))

    # strict local maxima on the grid graph: beat every built neighbour
    # along each axis, and have at least one
    built = np.array([isinstance(res, GridPoint) for res in results]).reshape(shape)
    values = np.full(shape, -np.inf)
    values[built] = [pt.value(objective) for pt in grid]
    has_neighbor = np.zeros(shape, dtype=bool)
    beats = built.copy()
    for axis in range(len(shape)):
        lower = (slice(None),) * axis + (slice(None, -1),)
        upper = (slice(None),) * axis + (slice(1, None),)
        for here, there in ((lower, upper), (upper, lower)):
            has_neighbor[here] |= built[there]
            beats[here] &= ~built[there] | (values[here] > values[there])
    maxima = np.flatnonzero(beats & has_neighbor).tolist()
    local_maxima = [(results[i].theta, results[i].value(objective)) for i in maxima]
    local_maxima.sort(key=lambda tv: -tv[1])

    eps = 1e-12
    boundary = any(
        t <= lo + step + eps or t >= hi - step - eps
        for t, (lo, hi) in zip(best.theta, family.box)
    )
    return SweepResult(objective, grid, best.theta, best.value(objective),
                       boundary, local_maxima, skipped, step)


def maximize(
    family: MarkovFamily,
    objective: str,
    start,
    terms: int = 20,
) -> MaximizeResult:
    """Compass search from ``start``: move to the first of the ``_compass``
    points that strictly improves the objective, or halve the step (from
    0.01) when none does.  Converged once the step is below 1e-5; after
    500 polls the best point so far comes back with converged=False.  Each
    round is one stacked evaluation that counts its polls up to the first
    improving one.  A start that does not build raises ``ValueError``."""
    _check_request(objective, terms)
    theta0 = np.atleast_1d(np.asarray(start, dtype=float))
    if theta0.shape != (family.dimension,):
        raise ValueError("start has the wrong dimension")
    for t, (lo, hi) in zip(theta0, family.box):
        if not lo <= t <= hi:
            raise ValueError("start outside the box")

    (best,) = _evaluate(family, theta0[None], terms)
    if not isinstance(best, GridPoint):
        raise ValueError(f"start {best[0]} does not build: {best[1]}")
    step, polls = 0.01, 0
    while step >= 1e-5 and polls < _POLL_BUDGET:
        compass = list(_compass(best.theta, step, family.box))
        polled = compass[:_POLL_BUDGET - polls]
        results = _evaluate(family, np.array(polled), terms) if polled else []
        hit = next((i for i, res in enumerate(results) if isinstance(res, GridPoint)
                    and res.value(objective) > best.value(objective)), None)
        polls += len(polled) if hit is None else hit + 1
        if hit is not None:
            best = results[hit]
        elif len(polled) == len(compass):
            step /= 2
    return MaximizeResult(best.theta, best.value(objective), step < 1e-5, polls)
