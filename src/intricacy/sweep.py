"""Parameter scans and maximizer searches over Markov families.

A family maps a stack of parameter vectors in a box to the stack of
their transition matrices.  ``scan`` evaluates the series on a regular
grid, a block at a time, and collects boundary/interior maxima per
objective; ``maximize`` refines a start point by projected Newton steps,
each model from one stacked ``_evaluate`` of a stencil around it.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cache, cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import (CapExceeded, are_numbers, check_terms, is_int, is_number, is_text, is_word,
                     list_of, optional, read_field)
from .markov import (MarkovMeasure, _chain_states, _check_series_block_len, _end_matrix,
                     _gap_entropy_stack, _powers, _series_stack, _stationary_stack,
                     _transition_codes)

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
# most grid points a scan takes (about 470 B each, 120 MB): step 0.002 on a 2-D box fits
_GRID_POINTS = 1 << 18
# stencil spacing of a maximize step's model
_H = 1e-4
# rounding of an objective value (its spread over 1e-9 about a maximizer
# is 1-5e-16): no evaluation can show a step the model says gains less
_ROUNDING = 1e-15
# stacked evaluations a maximize takes at most
_EVALUATIONS = 40
# the GridPoint field of each objective: theta, then the objectives in order
_FIELDS = {objective: i for i, objective in enumerate(OBJECTIVES, 1)}


class MarkovFamily:
    """``stack`` maps a (G, dimension) array of parameter points to their
    (G, d, d) transition matrices on ``states``.  Equal only to itself; immutable."""

    def __init__(self, name: str, param_names: tuple[str, ...],
                 box: tuple[tuple[float, float], ...], stack: Callable[[np.ndarray], np.ndarray],
                 states: tuple[tuple[int, ...], ...]):
        vars(self).update(name=name, param_names=param_names, box=box, stack=stack,
                          states=states)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"MarkovFamily is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    @property
    def dimension(self) -> int:
        return len(self.param_names)

    @cached_property
    def codes(self) -> np.ndarray | None:  # the transitions that may carry mass
        return _transition_codes(self.states)

    @cached_property
    def end(self) -> np.ndarray:  # collapses a state onto its last base symbol
        return _end_matrix(self.states)

    def builder(self, theta) -> MarkovMeasure:
        """The measure at one parameter point, the one-point case of ``stack``."""
        P = self.stack(np.array([theta], dtype=float))[0]
        return MarkovMeasure(P, states=self.states)


# a record takes the functional form with real types: class syntax would
# compile each field's annotation string at import
class GridPoint(NamedTuple("GridPoint", [
        ("theta", tuple[float, ...]), ("h", float), ("asc", float), ("intricacy", float)])):
    __slots__ = ()

    def value(self, objective: str) -> float:
        return self[_FIELDS[objective]]


SweepResult = NamedTuple("SweepResult", [
    ("objective", str), ("grid", list[GridPoint]), ("best_theta", tuple[float, ...]),
    ("best_value", float), ("boundary_flag", bool),
    ("local_maxima", list[tuple[tuple[float, ...], float]]),
    ("skipped", list[tuple[tuple[float, ...], str]]), ("step", float)])

MaximizeResult = NamedTuple("MaximizeResult", [
    ("theta", tuple[float, ...]), ("value", float), ("converged", bool), ("iterations", int)])


def _box_entry(name: str, entry) -> tuple[float, float]:
    """(lo, hi) of one parameter of a custom family's box: two numbers with
    0 <= lo <= hi <= 1, since template cells are transition probabilities
    (which also bounds the grid a scan builds).  NaN fails every comparison."""
    lo, hi = entry if isinstance(entry, (list, tuple)) and len(entry) == 2 else (None, None)
    if not are_numbers((lo, hi)) or not 0.0 <= lo <= hi <= 1.0:
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
            if not (cell == "rest" or cell in params or is_number(cell)):
                raise ValueError(f"template cell ({i}, {j}) {cell!r} is neither a number, "
                                 f"'rest' nor a declared parameter {list(params)}")
    const = np.array([[float(c) if is_number(c) else 0.0 for c in row]
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
         "states": optional [...], "block_len": optional}

    with the states and block length of ``MarkovMeasure.from_dict``.
    """
    params = tuple(read_field(d, "params", list_of(is_text), "a list of names"))
    box = read_field(d, "box", lambda v: isinstance(v, dict), "an object")
    box = tuple(_box_entry(p, box[p]) for p in params)
    stack = _compile(d["template"], params)
    block_len = read_field(d, "block_len", is_int, "an integer", None)
    states = read_field(d, "states", optional(list_of(is_word)), "a list of states", None)
    states, block_len = _chain_states(states, len(d["template"]), block_len)
    _check_series_block_len(block_len)
    name = read_field(d, "name", is_text, "a string", "custom")
    return MarkovFamily(name, params, box, stack, states)


# the built-ins are custom families over the whole unit box, each built on first use
_BUILTINS = {d["name"]: dict(d, box={p: [0, 1] for p in d["params"]}) for d in (
    {"name": "full2-1step", "params": ["p00", "p11"],
     "template": [["p00", "rest"], ["rest", "p11"]]},
    {"name": "gms-1step", "params": ["p00"], "template": [["p00", "rest"], [1, 0]]},
    {"name": "gms-2step", "params": ["p000", "p100"], "states": ["00", "01", "10"],
     "template": [["p000", "rest", 0], [0, 0, 1], ["p100", "rest", 0]]},
)}


@cache
def builtin_family(name: str) -> MarkovFamily:
    """The built-in family of that name: one object per name."""
    if name not in _BUILTINS:
        raise ValueError(f"unknown family {name!r}; built-ins: {sorted(_BUILTINS)}")
    return family_from_dict(_BUILTINS[name])


def _check_request(objective: str, terms: int) -> None:
    check_terms(terms, least=10)
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}")


def _evaluate(family: MarkovFamily, thetas: np.ndarray, terms: int) -> list:
    """A GridPoint per row of ``thetas``, from one stacked pass, or (theta,
    reason) where the family does not build: what ``MarkovMeasure`` raises."""
    P = family.stack(thetas)
    p, reasons = _stationary_stack(P, family.codes, family.states)
    if reasons.count(None) < len(reasons):
        built = np.array([r is None for r in reasons], dtype=bool)
        P, p = P[built], p[built]
    h, asc = _series_stack(P, p, _gap_entropy_stack(_powers(P, terms), p, family.end))
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
    and reported.  A grid of more than ``_GRID_POINTS`` points is refused
    as a cap before any of it is built."""
    if not 0.0 < step <= 0.1:
        raise ValueError("step must be in (0, 0.1]")
    _check_request(objective, terms)

    spans = [(hi - lo) / step for lo, hi in family.box]  # inf for a step near 0: inf points
    shape = tuple(int(round(q)) + 1 if math.isfinite(q) else math.inf for q in spans)
    if math.prod(shape) > _GRID_POINTS:
        raise CapExceeded(f"step {step:g} gives {math.prod(shape)} grid points, "
                          f"more than the {_GRID_POINTS} a scan takes")
    axes = [np.linspace(lo, hi, count) for (lo, hi), count in zip(family.box, shape)]
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
    """Projected Newton search from ``start`` (Bertsekas 1982), each step's
    model from one stacked evaluation of a stencil around theta.

    A coordinate at a bound whose gradient points out of the box is held.
    The others take the Newton step where their Hessian block is negative
    definite, else a gradient step of 0.1; the candidate is theta plus the
    step, clamped to the box; where that step is 0 and no certificate
    holds (a flat point), the step is the Hessian's leading eigenvector, if
    its eigenvalue is positive, scaled to 0.1 and signed to gain more on the
    model once clamped.  Its stencil gives its value and the next model; a
    candidate whose value is lower, or whose stencil does not all build, is
    tried again with the step halved.  The search stops when the candidate
    is within 1e-9 of theta, after ``_EVALUATIONS`` stacked evaluations
    (``iterations``), or with the certificate that alone sets
    ``converged``: the free Hessian is negative definite, its Newton step
    gains less than ``_ROUNDING`` on the model (the free gradient is 0 to
    rounding), and each held coordinate's outward gradient is more than h
    times its curvature (beyond the stencil's error).  ``value`` is the
    ``_evaluate`` value at ``theta``.  A start that does not build raises
    ``ValueError``; one whose stencil does not all build comes back
    unconverged.

    The stencil, with h = ``_H``: theta, theta + u_i e_i and theta + k_i u_i
    e_i per axis, theta + u_i e_i + u_j e_j per pair i < j.  An axis takes
    a central pair (u = h, k = -1) where both points fit in the box, else
    a one-sided one (u = +-h pointing in, k = 2).  Axes narrower than 4h
    stay at the start.  The search runs in Python floats; numpy sees the
    stencil points, the free block and, at a flat point, the Hessian."""
    _check_request(objective, terms)
    theta = np.atleast_1d(np.asarray(start, dtype=float))
    if theta.shape != (family.dimension,):
        raise ValueError("start has the wrong dimension")
    theta, box = theta.tolist(), family.box
    if not all(lo <= t <= hi for t, (lo, hi) in zip(theta, box)):
        raise ValueError("start outside the box")
    axes = [a for a, (lo, hi) in enumerate(box) if hi - lo >= 4 * _H]
    m = len(axes)
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]

    def shifted(theta, offsets):  # theta plus {coordinate: offset}
        return [t + offsets.get(a, 0.0) for a, t in enumerate(theta)]

    def model(theta):
        t = [(theta[a], *box[a]) for a in axes]
        u = [-_H if x + _H > hi else _H for x, lo, hi in t]
        central = [x - _H >= lo and x + _H <= hi for x, lo, hi in t]
        points = [theta, *(shifted(theta, {a: ua}) for a, ua in zip(axes, u)),
                  *(shifted(theta, {a: (-1.0 if c else 2.0) * ua})
                    for a, ua, c in zip(axes, u, central)),
                  *(shifted(theta, {axes[i]: u[i], axes[j]: u[j]}) for i, j in pairs)]
        res = _evaluate(family, np.array(points), terms)
        if not all(isinstance(r, GridPoint) for r in res):
            return res[0], None, None
        f0, *f = [r.value(objective) for r in res]
        g, H = [], [[0.0] * m for _ in range(m)]
        for i, (c, f1, f2) in enumerate(zip(central, f, f[m:])):
            g.append((f1 - f2 if c else 4 * f1 - f2 - 3 * f0) / (2 * u[i]))
            H[i][i] = (f1 + f2 - 2 * f0 if c else f0 - 2 * f1 + f2) / _H ** 2
        for (i, j), fij in zip(pairs, f[2 * m:]):
            H[i][j] = H[j][i] = (fij - f[i] - f[j] + f0) / (u[i] * u[j])
        return res[0], g, H

    best, g, H = model(theta)
    if not isinstance(best, GridPoint):
        raise ValueError(f"start {best[0]} does not build: {best[1]}")
    evaluations, converged, moved = 1, False, g is not None
    while moved:
        held = [theta[a] <= box[a][0] and gi < 0 or theta[a] >= box[a][1] and gi > 0
                for a, gi in zip(axes, g)]
        free = [i for i in range(m) if not held[i]]
        gf = np.array([g[i] for i in free])
        Hf = np.array([[H[i][j] for j in free] for i in free]).reshape(len(gf), len(gf))
        concave = bool((np.linalg.eigvalsh(Hf) < 0).all())
        free_step = (np.linalg.solve(Hf, -gf) if concave
                     else 0.1 * gf / max(np.abs(gf).max(), 1e-300))
        converged = (concave and gf @ free_step / 2 < _ROUNDING
                     and all(abs(gi) > _H * abs(H[i][i]) for i, gi in enumerate(g) if held[i]))
        step = [0.0] * m
        for i, s in zip(free, free_step.tolist()):
            step[i] = s
        if not (converged or any(step)):  # a flat point: follow the curvature
            curvature, V = np.linalg.eigh(H)
            if curvature[-1] > 0:
                t, lo, hi = np.array([(theta[a], *box[a]) for a in axes]).T
                v = V[:, -1] * (0.1 / np.abs(V[:, -1]).max())
                step = max(np.clip(t + v, lo, hi) - t, np.clip(t - v, lo, hi) - t,
                           key=lambda d: g @ d + d @ H @ d / 2).tolist()
        moved, tried = False, theta
        while not (converged or moved) and evaluations < _EVALUATIONS:
            candidate = [min(max(c, lo), hi)
                         for c, (lo, hi) in zip(shifted(theta, dict(zip(axes, step))), box)]
            step = [s / 2 for s in step]
            if max(abs(c - t) for c, t in zip(candidate, theta)) < 1e-9:
                break
            if candidate != tried:  # the clamp may repeat a candidate
                tried = candidate
                point, g_next, H_next = model(candidate)
                evaluations += 1
                moved = g_next is not None and point.value(objective) >= best.value(objective)
        if moved:
            theta, best, g, H = candidate, point, g_next, H_next
    return MaximizeResult(best.theta, best.value(objective), converged, evaluations)
