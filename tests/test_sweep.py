import math

import pytest

from intricacy.markov import asc_series_markov
from intricacy.sweep import builtin_family, family_from_dict, maximize, scan


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

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            builtin_family("gms-3step")


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

    def test_rest_marker_required_once(self):
        bad = {
            "name": "x", "params": ["a"], "box": {"a": [0, 1]},
            "template": [["rest", "rest"], [1, 0]],
        }
        with pytest.raises(ValueError):
            family_from_dict(bad).builder((0.5,))
