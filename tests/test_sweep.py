import math

import numpy as np
import pytest

from intricacy import sweep
from intricacy.cli import main
from intricacy.errors import CapExceeded
from intricacy.markov import MarkovMeasure, asc_series_markov, stationary
from intricacy.sft import Sft
from intricacy.sweep import (
    GridPoint, MaximizeResult, _evaluate, builtin_family, family_from_dict, maximize, scan,
)

GOLDEN = (math.sqrt(5) - 1) / 2


class TestScan:
    def test_gms1_asc(self):
        res = scan(builtin_family("gms-1step"), step=0.01, objective="asc")
        assert res.best_theta[0] == pytest.approx(0.533, abs=0.011)
        assert res.best_value == pytest.approx(0.271, abs=1e-3)
        assert not res.boundary_flag

    def test_full2_int_boundary_maxima(self):
        res = scan(builtin_family("full2-1step"), step=0.02, objective="int")
        assert res.best_value == pytest.approx(0.124, abs=1e-3)
        assert res.boundary_flag
        thetas = [t for t, _ in res.local_maxima]
        assert any(abs(a - 0.22) < 0.03 and b == 0.0 for a, b in thetas)
        assert any(a == 0.0 and abs(b - 0.22) < 0.03 for a, b in thetas)
        # fully supported local maximum away from the boundary
        assert any(
            abs(a - 0.9) < 0.03 and abs(b - 0.9) < 0.03 and v == pytest.approx(0.104, abs=1.5e-3)
            for (a, b), v in res.local_maxima
        )

    def test_full2_reducible_corner_skipped(self):
        res = scan(builtin_family("full2-1step"), step=0.05, objective="h")
        assert any(t == (1.0, 1.0) for t, _ in res.skipped)

    def test_full2_surface_symmetric(self):
        res = scan(builtin_family("full2-1step"), step=0.1, objective="asc")
        values = {pt.theta: pt for pt in res.grid}
        for (a, b), pt in values.items():
            mirror = values.get((b, a))
            if mirror is not None:
                assert abs(pt.asc - mirror.asc) <= 1e-10
                assert abs(pt.h - mirror.h) <= 1e-10
                assert abs(pt.intricacy - mirror.intricacy) <= 1e-10

    def test_intricacy_zero_on_independence_line(self):
        res = scan(builtin_family("full2-1step"), step=0.05, objective="int")
        tail = math.log(2) / 2**20
        for pt in res.grid:
            if abs(pt.theta[0] - (1.0 - pt.theta[1])) < 1e-9:
                assert abs(pt.intricacy) <= tail * (1 + 1e-9)

    @pytest.mark.parametrize("family", ["full2-1step", "gms-2step"])
    def test_asc_surface_has_unique_grid_maximum(self, family):
        res = scan(builtin_family(family), step=0.01, objective="asc")
        assert len(res.local_maxima) == 1

    def test_step_validation(self):
        with pytest.raises(ValueError):
            scan(builtin_family("gms-1step"), step=0.2)
        with pytest.raises(ValueError):
            scan(builtin_family("gms-1step"), step=0.05, terms=5)
        with pytest.raises(ValueError):
            scan(builtin_family("gms-1step"), step=0.05, objective="entropy")


    def test_grid_past_the_budget_is_refused_before_it_is_built(self, monkeypatch, tmp_path):
        # step 0.0001 on gms-2step's box asks for 10001^2 points, 1.6 GB of
        # parameters alone; nothing of the grid may be built first
        def build(*args, **kwargs):
            raise AssertionError("grid built")

        monkeypatch.setattr(np, "linspace", build)
        monkeypatch.setattr(sweep, "_evaluate", build)
        with pytest.raises(CapExceeded, match="100020001 grid points"):
            scan(builtin_family("gms-2step"), step=0.0001)
        out = tmp_path / "surface.csv"
        argv = ["sweep", "--family", "gms-2step", "--step", "0.0001", "--output", str(out)]
        assert main(argv) == 2 and not out.exists()

    def test_grid_at_the_budget_is_taken(self, monkeypatch):
        # gms-1step at step 0.01 has 101 points, full2-1step at 0.1 has 121
        monkeypatch.setattr(sweep, "_GRID_POINTS", 101)
        assert len(scan(builtin_family("gms-1step"), step=0.01).grid) == 101
        with pytest.raises(CapExceeded, match="121 grid points, more than the 101"):
            scan(builtin_family("full2-1step"), step=0.1)


class TestMaximize:
    def test_gms1_asc(self):
        res = maximize(builtin_family("gms-1step"), "asc", [0.5])
        assert res.theta[0] == pytest.approx(0.533, abs=2e-3)
        assert res.value == pytest.approx(0.271, abs=1e-3)
        assert res.converged

    def test_gms1_entropy_recovers_golden_ratio(self):
        res = maximize(builtin_family("gms-1step"), "h", [0.5])
        assert res.theta[0] == pytest.approx(0.618, abs=2e-3)
        assert res.value == pytest.approx(0.481, abs=1e-3)

    def test_gms2_asc(self):
        res = maximize(builtin_family("gms-2step"), "asc", [0.5, 0.5])
        assert res.theta[0] == pytest.approx(0.483, abs=5e-3)
        assert res.theta[1] == pytest.approx(0.569, abs=5e-3)
        assert res.value == pytest.approx(0.272, abs=1e-3)

    def test_stays_inside_box(self):
        res = maximize(builtin_family("full2-1step"), "int", [0.1, 0.05])
        assert all(0.0 <= t <= 1.0 for t in res.theta)
        assert res.value == pytest.approx(0.124, abs=1.5e-3)

    def test_start_validation(self):
        with pytest.raises(ValueError):
            maximize(builtin_family("gms-1step"), "asc", [1.5])
        with pytest.raises(ValueError):
            maximize(builtin_family("gms-2step"), "asc", [0.5])

    def test_refuses_what_it_cannot_compute(self):
        gms1 = builtin_family("gms-1step")
        with pytest.raises(ValueError, match="terms must be >= 10"):
            maximize(gms1, "asc", [0.5], terms=0)
        with pytest.raises(ValueError, match="objective must be one of"):
            maximize(gms1, "entropy", [0.5])

    def test_start_that_does_not_build_is_refused(self):
        # full2-1step at (1, 1) is the identity chain: no unique stationary vector
        with pytest.raises(ValueError, match="does not build: stationary vector is not unique"):
            maximize(builtin_family("full2-1step"), "h", [1.0, 1.0])

    @pytest.mark.parametrize("family,objective,start", [
        ("gms-1step", "int", [0.2]), ("gms-1step", "asc", [1.0]), ("gms-2step", "int", [0.0, 0.4]),
    ])
    def test_refined_value_is_the_scan_value_and_no_worse_than_start(
            self, family, objective, start):
        fam = builtin_family(family)
        res = maximize(fam, objective, start)
        assert res.converged and res.iterations <= 500
        at_start, at_end = _evaluate(fam, np.array([start, res.theta]), 20)
        assert res.value >= at_start.value(objective)
        assert res.value == at_end.value(objective)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            builtin_family("gms-3step")

    def test_builtin_family_is_one_object_per_name(self):
        # built on first use, then the same object: its cached properties are computed once
        for name in ("full2-1step", "gms-1step", "gms-2step"):
            fam = builtin_family(name)
            assert builtin_family(name) is fam and fam.name == name
            assert fam == fam and fam != sweep.MarkovFamily(fam.name, fam.param_names, fam.box,
                                                            fam.stack, fam.states)
            # shared by every caller, so it cannot be changed under them
            with pytest.raises(AttributeError, match="immutable"):
                fam.stack = None
            with pytest.raises(AttributeError, match="immutable"):
                del fam.box


class TestCustomFamily:
    GMS_JSON = {
        "name": "gms-custom",
        "params": ["a"],
        "box": {"a": [0.0, 1.0]},
        "template": [["a", "rest"], [1, 0]],
    }

    def test_matches_builtin(self):
        fam = family_from_dict(self.GMS_JSON)
        ref = builtin_family("gms-1step")
        for theta in [(0.3,), (0.618,)]:
            a = asc_series_markov(fam.builder(theta), 20)
            b = asc_series_markov(ref.builder(theta), 20)
            assert a.asc == pytest.approx(b.asc, abs=1e-15)

    def test_block_template(self):
        fam = family_from_dict(
            {
                "name": "gms2-custom",
                "params": ["x", "y"],
                "box": {"x": [0, 1], "y": [0, 1]},
                "block_len": 2,
                "states": ["00", "01", "10"],
                "template": [["x", "rest", 0], [0, 0, 1], ["y", "rest", 0]],
            }
        )
        m = fam.builder((0.618, 0.618))
        s = asc_series_markov(m, 20)
        assert s.asc == pytest.approx(0.266, abs=1e-3)

    def test_states_set_the_block_length(self):
        # as in a Markov file: 2-block states need no block_len, and one
        # that is given must agree
        doc = {"name": "gms2-custom", "params": ["x", "y"], "box": {"x": [0, 1], "y": [0, 1]},
               "states": ["00", "01", "10"],
               "template": [["x", "rest", 0], [0, 0, 1], ["y", "rest", 0]]}
        fam = family_from_dict(doc)
        assert fam.builder((0.618, 0.618)).block_len == 2
        assert scan(fam, step=0.1).grid == scan(builtin_family("gms-2step"), step=0.1).grid
        with pytest.raises(ValueError, match="block_len 1 disagrees with the states"):
            family_from_dict(dict(doc, block_len=1))

    def test_rest_marker_required_once(self):
        bad = {
            "name": "x", "params": ["a"], "box": {"a": [0, 1]},
            "template": [["rest", "rest"], [1, 0]],
        }
        with pytest.raises(ValueError):
            family_from_dict(bad).builder((0.5,))

    @pytest.mark.parametrize(
        "box", [[0, math.nan], [0.8, 0.2], [0, math.inf], [-0.5, 0.5], [0, 2], [0.5], [0, 0.5, 1],
                "01", 0.5, [False, True]],
        ids=["nan", "reversed", "inf", "below-0", "above-1", "one-number", "three-numbers",
             "string", "scalar", "booleans"])
    def test_bad_box_is_refused(self, box):
        bad = dict(self.GMS_JSON, box={"a": box})
        with pytest.raises(ValueError, match="box of 'a'"):
            family_from_dict(bad)

    def test_degenerate_box_is_one_point(self):
        fam = family_from_dict(dict(self.GMS_JSON, box={"a": [0.5, 0.5]}))
        assert fam.box == ((0.5, 0.5),)
        assert [p.theta for p in scan(fam, step=0.05).grid] == [(0.5,)]
        res = maximize(fam, "asc", [0.5])
        assert res.theta == (0.5,) and res.converged and res.iterations == 1

    @pytest.mark.parametrize("change,where", [
        ({"template": [["a", "rest"], [1, 0, 0]]}, "row 1"),
        ({"template": [["a", "rest", 0], [1, 0, 0]]}, "row 0"),
        ({"template": [["a", "rest"], ["rest", 0.5, "rest"]]}, "row 1"),
        ({"template": [[0, 1], ["rest", "rest"]]}, "row 1 has more than one 'rest' marker"),
        ({"template": [["a", "rest"], ["b", "rest"]]}, r"cell \(1, 0\) 'b'"),
        ({"template": [["a", "rest"], [True, 0]]}, r"cell \(1, 0\) True"),
        ({"block_len": 2}, "requires explicit states"),
        ({"block_len": 0}, "block_len must be >= 1, got 0"),
        ({"states": ["", "1"]}, "every state must hold at least one symbol"),
        ({"block_len": 3, "states": ["000", "001"]}, "series supports block_len 1 and 2"),
    ], ids=["short-row", "long-rows", "ragged", "two-rest", "undeclared", "boolean",
            "block2-no-states", "block-len-0", "empty-state", "3-blocks"])
    def test_malformed_template_is_refused_at_load(self, change, where):
        with pytest.raises(ValueError, match=where):
            family_from_dict(dict(self.GMS_JSON, **change))

    def test_family_that_never_builds_names_the_reason(self):
        # rows of [[a, 0.6], [1, 0]] sum to 1 only at a = 0.4, outside the box
        fam = family_from_dict(dict(self.GMS_JSON, box={"a": [0, 0.3]},
                                    template=[["a", 0.6], [1, 0]]))
        with pytest.raises(ValueError, match=r"every grid point failed to build; 7 of 7 "
                                             r"points: P rows must sum to 1 within 1e-12"):
            scan(fam, step=0.05)


# Per-point references, each chain built by hand as a caller of markov would.
GMS2_STATES = ((0, 0), (0, 1), (1, 0))
BLOCK2_STATES = ["00", "01", "10", "11"]
BLOCK2_JSON = {
    "name": "full2-blocks", "params": ["x", "y"], "box": {"x": [0, 1], "y": [0, 1]},
    "block_len": 2, "states": BLOCK2_STATES,
    "template": [["x", "rest", 0, 0], [0, 0, "y", "rest"],
                 ["rest", "x", 0, 0], [0, 0, "rest", "y"]],
}
# three parameters: each row (x, 0.9 - x, 0.1) up to a cyclic shift, so at
# a = b = c the chain is doubly stochastic and h = H(x, 0.9 - x, 0.1)
CYC3_JSON = {
    "name": "cyc3", "params": ["a", "b", "c"],
    "box": {"a": [0, 0.9], "b": [0, 0.9], "c": [0, 0.9]},
    "template": [["a", "rest", 0.1], [0.1, "b", "rest"], ["rest", 0.1, "c"]],
}
REFERENCES = {
    "full2-1step": lambda a, b: MarkovMeasure([[a, 1 - a], [1 - b, b]]),
    "gms-1step": lambda a: MarkovMeasure([[a, 1 - a], [1, 0]], support=Sft.golden_mean()),
    "gms-2step": lambda a, c: MarkovMeasure([[a, 1 - a, 0], [0, 0, 1], [c, 1 - c, 0]],
                                            states=GMS2_STATES, block_len=2),
    "full2-blocks": lambda x, y: MarkovMeasure(
        [[x, 1 - x, 0, 0], [0, 0, y, 1 - y], [1 - x, x, 0, 0], [0, 0, 1 - y, y]],
        states=BLOCK2_STATES, block_len=2),
}


def _family(name):
    custom = {"full2-blocks": BLOCK2_JSON, "cyc3": CYC3_JSON}
    return family_from_dict(custom[name]) if name in custom else builtin_family(name)


def _per_point(name, theta):
    s = asc_series_markov(REFERENCES[name](*theta), 20)
    return s.h, s.asc, s.intricacy


# most polls the reference compass search takes
COMPASS_POLLS = 500


def _compass(theta, step, box):
    # the points theta +- step along each axis, clamped to the box, less
    # those the clamp puts back on theta
    for d, (lo, hi) in enumerate(box):
        for sign in (1, -1):
            t = min(max(theta[d] + sign * step, lo), hi)
            if t != theta[d]:
                yield theta[:d] + (t,) + theta[d + 1:]


def _sequential_compass(fam, objective, start):
    # the reference maximizer: a compass search with one evaluation per poll
    # that moves to the first improving poll, or halves its step (from 0.01)
    # when none does, until the step is below 1e-5
    def point(theta):
        return _evaluate(fam, np.array([theta]), 20)[0]

    best = point(tuple(start))
    step, polls = 0.01, 0
    while step >= 1e-5 and polls < COMPASS_POLLS:
        for theta in _compass(best.theta, step, fam.box):
            if polls == COMPASS_POLLS:
                break
            polls += 1
            res = point(theta)
            if isinstance(res, GridPoint) and res.value(objective) > best.value(objective):
                best = res
                break
        else:
            step /= 2
    return MaximizeResult(best.theta, best.value(objective), step < 1e-5, polls)


# maximize from the scan's best point of each built-in family and objective
# at steps 0.1 and 0.05, from the far starts (0, 0.4) and 0.05 (asc), and
# from cyc3's step-0.1 best points: (family, objective, start, theta and
# value as float.hex, converged, iterations): a change to the arithmetic of
# the search, or to its order, shows here
PINNED_MAXIMIZERS = [
    ("full2-1step", "h", [0.5, 0.5],
     ["0x1.0000000000000p-1", "0x1.0000000000000p-1"], "0x1.62e42fefa39efp-1", True, 1),
    ("full2-1step", "asc", [0.5, 0.5],
     ["0x1.0000000000000p-1", "0x1.0000000000000p-1"], "0x1.62e419c1609ffp-2", True, 1),
    ("full2-1step", "int", [0.0, 0.2],
     ["0x0.0p+0", "0x1.b999a04db4e50p-3"], "0x1.fd0dd7d5ec9d8p-4", True, 4),
    ("gms-1step", "h", [0.6000000000000001],
     ["0x1.3c6ef34599be8p-1"], "0x1.ecc2caec5160ap-2", True, 4),
    ("gms-1step", "asc", [0.5],
     ["0x1.10ad3d60dda86p-1"], "0x1.1563f8d3a4ff7p-2", True, 4),
    ("gms-1step", "asc", [0.55],
     ["0x1.10ad3e688abe8p-1"], "0x1.1563f8d3a4ff0p-2", True, 3),
    ("gms-1step", "int", [0.2],
     ["0x1.b999a04db5497p-3"], "0x1.fd0dd7d5ec9d4p-4", True, 4),
    ("gms-2step", "h", [0.6000000000000001, 0.6000000000000001],
     ["0x1.3c6ef326d04a1p-1", "0x1.3c6ef38419947p-1"], "0x1.ecc2caec51608p-2", True, 4),
    ("gms-2step", "asc", [0.5, 0.6000000000000001],
     ["0x1.eeb8b7cefdf50p-2", "0x1.235b7c65fac9bp-1"], "0x1.168ed18a53c20p-2", True, 4),
    ("gms-2step", "asc", [0.5, 0.55],
     ["0x1.eeb8b7cf8a095p-2", "0x1.235b7c666f268p-1"], "0x1.168ed18a53c1ep-2", True, 4),
    ("gms-2step", "int", [0.0, 0.4],
     ["0x0.0p+0", "0x1.761e1616f8f66p-2"], "0x1.57bda0b27e6b0p-3", True, 4),
    ("gms-2step", "int", [0.0, 0.35000000000000003],
     ["0x0.0p+0", "0x1.761e162231b68p-2"], "0x1.57bda0b27e6b8p-3", True, 4),
    ("gms-2step", "asc", [0.0, 0.4],
     ["0x1.eeb8b7d0f795ep-2", "0x1.235b7c673032ep-1"], "0x1.168ed18a53c21p-2", True, 9),
    ("gms-1step", "asc", [0.05],
     ["0x1.10ad3e18ffe63p-1"], "0x1.1563f8d3a4ff2p-2", True, 6),
    ("cyc3", "h", [0.4, 0.4, 0.4],
     ["0x1.cccccc5d7b09fp-2", "0x1.cccccc5d7bcf8p-2", "0x1.cccccc5d7ba4ap-2"],
     "0x1.e5d83e77ae3ecp-1", True, 4),
    ("cyc3", "asc", [0.4, 0.4, 0.4],
     ["0x1.cccccc02aca84p-2", "0x1.cccccc02a559ap-2", "0x1.cccccc02a52adp-2"],
     "0x1.05179384d06ccp-1", True, 4),
    ("cyc3", "int", [0.0, 0.0, 0.2],
     ["0x0.0p+0", "0x0.0p+0", "0x1.bb3e68b0cd284p-3"], "0x1.7b2b98fc789e4p-3", True, 4),
]


def _record_evaluations(monkeypatch):
    # the stacks of points ``sweep._evaluate`` is called with, in order
    calls, real = [], sweep._evaluate

    def spy(fam, thetas, terms):
        calls.append(thetas.copy())
        return real(fam, thetas, terms)

    monkeypatch.setattr(sweep, "_evaluate", spy)
    return calls


class TestBatch:
    @pytest.mark.parametrize("name", sorted(REFERENCES))
    def test_stacked_values_match_a_per_point_loop(self, name):
        fam = _family(name)
        thetas = np.random.default_rng(2024).random((300, fam.dimension))
        for theta, got in zip(thetas.tolist(), _evaluate(fam, thetas, 20)):
            assert isinstance(got, GridPoint), (theta, got)
            want = _per_point(name, theta)
            assert (got.h, got.asc, got.intricacy) == want

    def test_results_do_not_depend_on_the_block(self, monkeypatch):
        fams = [builtin_family(n) for n in ("full2-1step", "gms-1step", "gms-2step")]
        want = [scan(fam, step=0.05, objective="int") for fam in fams]
        for block in (1, 7, sweep._BLOCK):
            monkeypatch.setattr(sweep, "_BLOCK", block)
            assert [scan(fam, step=0.05, objective="int") for fam in fams] == want

    def test_skipped_points_carry_the_per_point_reasons(self):
        res = scan(builtin_family("full2-1step"), step=0.05, objective="h")
        with pytest.raises(ValueError) as exc:
            stationary(np.eye(2))
        assert res.skipped == [((1.0, 1.0), str(exc.value))]
        # per family: points refused for each reason in turn, then one that builds
        stacks = {
            "full2-1step": [[[math.nan, 1], [0, 1]], [[1.5, -0.5], [0, 1]], [[0.5, 0.6], [0, 1]],
                            [[1, 0], [0, 1]], [[0.5, 0.5], [0.5, 0.5]]],
            "gms-2step": [[[0.5, 0.25, 0.25], [0, 0, 1], [1, 0, 0]],
                          [[0.5, 0.5, 0], [0, 0, 1], [1, 0, 0]]],
        }
        for name, Ps in stacks.items():
            fam = builtin_family(name)
            given = sweep.MarkovFamily(fam.name, fam.param_names, fam.box,
                                       lambda thetas: np.array(Ps, dtype=float), fam.states)
            got = _evaluate(given, np.zeros((len(Ps), fam.dimension)), 20)
            reasons = [None if isinstance(res, GridPoint) else res[1] for res in got]
            want = []
            for P in Ps:
                try:
                    MarkovMeasure(P, states=fam.states)
                    want.append(None)
                except ValueError as exc:
                    want.append(str(exc))
            assert reasons == want
            assert want[-1] is None and all(want[:-1])

    @pytest.mark.parametrize("family,start", [
        ("gms-1step", [0.5]), ("gms-2step", [0.48, 0.57]), ("cyc3", [0.4, 0.4, 0.4]),
    ], ids=["gms-1step", "gms-2step", "cyc3"])
    def test_stacked_evaluations_of_a_maximize(self, monkeypatch, family, start):
        # one stacked evaluation per step: the stencil theta, theta + h e_i,
        # theta - h e_i and theta + h (e_i + e_j) per pair i < j (3, 6 and 10
        # points in 1, 2 and 3 dimensions), centred on each candidate
        calls = _record_evaluations(monkeypatch)
        res = maximize(_family(family), "asc", start)
        assert res.converged and len(calls) == res.iterations <= 4
        d = len(start)
        e = np.eye(d) * sweep._H
        pairs = [e[i] + e[j] for i in range(d) for j in range(i + 1, d)]
        offsets = np.concatenate([np.zeros((1, d)), e, -e, np.reshape(pairs, (-1, d))])
        assert len(offsets) == {1: 3, 2: 6, 3: 10}[d]
        assert np.array_equal(calls[0], np.array(start) + offsets)
        for thetas in calls:
            assert np.allclose(thetas - thetas[0], offsets, rtol=0, atol=1e-15)
        assert tuple(calls[-1][0]) == res.theta

    def test_stencil_is_one_sided_at_a_bound(self, monkeypatch):
        # p00 = 0 takes theta + h e_0 and theta + 2h e_0; p11 = 1 takes the
        # pair pointing down, theta - h e_1 and theta - 2h e_1
        calls = _record_evaluations(monkeypatch)
        maximize(builtin_family("full2-1step"), "int", [0.0, 1.0])
        h = sweep._H
        want = [(0, 1), (h, 1), (0, 1 - h), (2 * h, 1), (0, 1 - 2 * h), (h, 1 - h)]
        assert np.array_equal(calls[0], np.array(want))

    @pytest.mark.parametrize("family,objective,start", [
        ("gms-1step", "int", [0.2]), ("gms-1step", "h", [0.0]), ("gms-2step", "asc", [0.5, 0.5]),
        ("gms-2step", "int", [0.0, 0.4]), ("full2-1step", "int", [0.1, 0.05]),
        ("full2-1step", "h", [1.0, 0.97]), ("cyc3", "asc", [0.4, 0.4, 0.4]),
        ("cyc3", "int", [0.0, 0.0, 0.2]),
    ])
    @pytest.mark.parametrize("budget", [3, 10, 500, "one short"])
    def test_maximize_equals_a_sequential_compass(self, monkeypatch, family, objective, start,
                                                 budget):
        # the Newton search reaches the compass's maximum, to its 1e-5 step,
        # and certifies it; a budget that cuts it short returns the best
        # point of the same path so far, unconverged
        fam = _family(family)
        full = maximize(fam, objective, start)
        want = _sequential_compass(fam, objective, start)
        assert full.converged and want.converged
        assert full.value >= want.value - 1e-12
        assert max(abs(a - b) for a, b in zip(full.theta, want.theta)) <= 1e-4
        if budget == "one short":
            budget = full.iterations - 1
        monkeypatch.setattr(sweep, "_EVALUATIONS", budget)
        res = maximize(fam, objective, start)
        if budget >= full.iterations:
            assert res == full
        else:
            assert not res.converged and res.iterations == budget
            at_start, at_end = _evaluate(fam, np.array([start, res.theta]), 20)
            assert at_start.value(objective) <= res.value == at_end.value(objective) <= full.value

    @pytest.mark.parametrize("family,objective,starts,want", [
        ("gms-1step", "h", [[0.6], [0.0]], [GOLDEN]),
        ("gms-2step", "h", [[0.6, 0.6], [1.0, 1.0]], [GOLDEN, GOLDEN]),
        ("full2-1step", "h", [[0.4, 0.6], [0.0, 1.0]], [0.5, 0.5]),
        ("full2-1step", "asc", [[0.4, 0.6], [0.0, 0.0]], [0.5, 0.5]),
        ("cyc3", "h", [[0.9, 0.0, 0.45]], [0.45, 0.45, 0.45]),
    ])
    def test_closed_form_maximizers(self, family, objective, starts, want):
        # entropy peaks at p = 1/phi on the golden mean (the Parry measure),
        # at (1/2, 1/2) on the full 2-shift, as does asc there, and at a = b
        # = c = 0.45 on cyc3, the even split of what the 0.1 cells leave
        for start in starts:
            res = maximize(_family(family), objective, start)
            assert res.converged
            assert max(abs(a - b) for a, b in zip(res.theta, want)) <= 1e-7

    @pytest.mark.parametrize("family,start,most", [
        # the compass search took 76 and 54 stacked evaluations from these
        ("gms-2step", [0.0, 0.4], 12), ("gms-1step", [0.05], 10),
    ])
    def test_far_starts_take_few_evaluations(self, family, start, most):
        res = maximize(builtin_family(family), "asc", start)
        assert res.converged and res.iterations <= most

    def test_lower_candidate_is_refused_for_a_shorter_step(self, monkeypatch):
        # from p00 = 0.793 the Newton step from 0.493 clamps to 0, where
        # intricacy is 0: that candidate is refused and the next lies between
        fam = builtin_family("gms-1step")
        calls = _record_evaluations(monkeypatch)
        res = maximize(fam, "int", [0.793])
        centres = [float(thetas[0, 0]) for thetas in calls]
        refused = centres.index(0.0)
        best = centres[refused - 1]
        assert best == pytest.approx(0.493) and 0.0 < centres[refused + 1] < best
        assert res.converged and abs(res.theta[0] - 0.2156) < 1e-4
        # cut right after the refusal, the search returns the point before it
        monkeypatch.setattr(sweep, "_EVALUATIONS", refused + 1)
        cut = maximize(fam, "int", [0.793])
        assert cut.theta == (best,) and not cut.converged

    def test_three_parameter_entropy_maximum(self):
        # at a = b = c = 0.45 cyc3 is doubly stochastic: p is uniform and h
        # is the entropy of one row, H(0.45, 0.45, 0.1) = 0.948915...
        res = maximize(_family("cyc3"), "h", [0.4, 0.4, 0.4])
        assert res.converged and max(abs(t - 0.45) for t in res.theta) <= 1e-7
        want = -2 * 0.45 * math.log(0.45) - 0.1 * math.log(0.1)
        assert res.value == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("family,objective,start,theta,value,converged,iterations",
                             PINNED_MAXIMIZERS)
    def test_maximizers_are_pinned_bit_for_bit(self, family, objective, start, theta, value,
                                               converged, iterations):
        res = maximize(_family(family), objective, start)
        assert ([t.hex() for t in res.theta], res.value.hex(), res.converged,
                res.iterations) == (theta, value, converged, iterations)

    def test_flat_boundary_starts_leave_along_positive_curvature(self):
        # int is 0 at these corners and grows quadratically into the box: each
        # held axis has an outward gradient of about 1e-5, within the stencil's
        # error, and each free axis neither slope nor curvature, so the
        # projected Newton step is 0; the leading curvature direction leads
        # to a certified maximum
        for family, start in [("gms-1step", [1.0]), ("gms-2step", [1.0, 1.0]),
                              ("full2-1step", [0.0, 1.0]), ("full2-1step", [1.0, 0.0])]:
            fam = builtin_family(family)
            assert _evaluate(fam, np.array([start]), 20)[0].intricacy == 0.0
            res = maximize(fam, "int", start)
            assert res.converged and res.value > 0.0, (family, start, res)

    def test_start_whose_stencil_does_not_build_comes_back_unconverged(self):
        # rows of [[a, 0.6], [1, 0]] sum to 1 only at a = 0.4
        fam = family_from_dict(dict(TestCustomFamily.GMS_JSON, box={"a": [0.3, 0.5]},
                                    template=[["a", 0.6], [1, 0]]))
        res = maximize(fam, "asc", [0.4])
        assert res.theta == (0.4,) and not res.converged and res.iterations == 1
