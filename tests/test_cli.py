import argparse
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from intricacy.benchmarks import SFT_BENCHMARKS, provenance_for_adjacency
from intricacy.cli import _emit, build_parser, main
from intricacy.properties import SUITES


@pytest.fixture
def sft_file(tmp_path):
    path = tmp_path / "sftI.json"
    path.write_text(
        json.dumps({"alphabet_size": 3, "adjacency": [[1, 1, 0], [0, 0, 1], [1, 1, 0]]})
    )
    return str(path)


@pytest.fixture
def gms_file(tmp_path):
    path = tmp_path / "gms.json"
    path.write_text(json.dumps({"alphabet_size": 2, "forbidden_words": ["11"]}))
    return str(path)


@pytest.fixture
def potential_file(tmp_path):
    path = tmp_path / "f1.json"
    path.write_text(json.dumps({"values": {"0": 0.0, "1": 0.0, "2": 1.0}}))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestTopo:
    def test_published_row(self, capsys, sft_file):
        code, out, _ = run_cli(capsys, "topo", "--input", sft_file, "--n", "10", "--coeffs", "uniform")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        row = rows[0]
        assert row["Asc_n_rounded"] == "0.399"
        assert row["Int_n_rounded"] == "0.254"
        assert row["H_n_rounded"] == "0.545"
        assert row["coeffs_spec"] == "uniform"
        assert row["provenance"] == "golden-pair/I"
        assert abs(float(row["Asc_n"]) - 0.3994805512) < 1e-9

    def test_multiple_n_rows(self, capsys, gms_file):
        code, out, _ = run_cli(capsys, "topo", "--input", gms_file, "--n", "4", "--n", "8")
        assert code == 0
        rows = parse_csv(out)
        assert [r["n"] for r in rows] == ["4", "8"]

    def test_block_k_and_json_format(self, capsys, gms_file):
        code, out, _ = run_cli(
            capsys, "topo", "--input", gms_file, "--n", "6", "--block-k", "2",
            "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["block_k"] == 2
        assert isinstance(rows[0]["Asc_n"], float)

    def test_alt_blank_for_neural(self, capsys, gms_file):
        code, out, _ = run_cli(capsys, "topo", "--input", gms_file, "--n", "5", "--coeffs", "neural")
        assert code == 0
        assert parse_csv(out)[0]["Alt_n"] == ""

    def test_output_file_and_determinism(self, tmp_path, capsys, sft_file):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            assert main(["topo", "--input", sft_file, "--n", "9", "--output", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_bytes().endswith(b"\n")
        assert b"\r" not in out1.read_bytes()

    def test_bad_input_exit_code(self, capsys, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert main(["topo", "--input", missing, "--n", "5"]) == 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"alphabet_size": 2}))
        assert main(["topo", "--input", str(bad), "--n", "5"]) == 1

    def test_cap_exit_code(self, capsys, gms_file):
        assert main(["topo", "--input", gms_file, "--n", "30"]) == 2
        code, out, err = run_cli(capsys, "topo", "--input", gms_file, "--n", "24")
        assert (code, out) == (2, "")
        assert "n=24" in err

    @pytest.mark.parametrize(
        "spec,message",
        [("measure:0.3=nan", "mass nan is not finite"),
         ("measure:nan=0.5", "atom position nan is not in (0, 1)"),
         ("measure:0.3=0.25;lebesgue=nan", "lebesgue mass nan is not finite")],
    )
    def test_non_finite_coeffs_is_bad_input(self, capsys, gms_file, spec, message):
        code, out, err = run_cli(capsys, "topo", "--input", gms_file, "--n", "5", "--coeffs", spec)
        assert (code, out) == (1, "")
        assert message in err

    def test_usage_error_exits_one(self, capsys, gms_file):
        with pytest.raises(SystemExit) as exc:
            main(["topo", "--input", gms_file])
        assert exc.value.code == 1

    def test_exact_zero_intricacy_rounds_to_zero(self, capsys, tmp_path):
        # the full 2-shift has intricacy exactly 0; its sum comes out within
        # 1e-15 of 0 on either side
        path = tmp_path / "full2.json"
        path.write_text(json.dumps({"alphabet_size": 2, "adjacency": [[1, 1], [1, 1]]}))
        code, out, _ = run_cli(capsys, "topo", "--input", str(path), "--n", "9")
        assert code == 0
        row = parse_csv(out)[0]
        assert abs(float(row["Int_n"])) < 1e-15
        assert row["Int_n_rounded"] == "0.000"


@pytest.mark.parametrize(
    "fmt,want", [("csv", "x,x_rounded\n-1e-16,0.000\n"),
                 ("json", '[\n  {\n    "x": -1e-16,\n    "x_rounded": 0.0\n  }\n]\n')])
def test_rounded_column_has_no_negative_zero(capsys, fmt, want):
    _emit([{"x": -1e-16}], ["x"], fmt, None)
    assert capsys.readouterr().out == want


class TestPressure:
    def test_published_cell(self, capsys, tmp_path, potential_file):
        sft = tmp_path / "pairB.json"
        sft.write_text(
            json.dumps({"alphabet_size": 3, "adjacency": [[1, 1, 0], [0, 0, 1], [1, 1, 1]]})
        )
        code, out, _ = run_cli(
            capsys, "pressure", "--input", str(sft), "--potential", potential_file,
            "--n", "10",
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert row["Asp_n_rounded"] == "0.722"
        assert float(row["P_classical"]) > float(row["Asp_n"])

    def test_spread_underflow_is_bad_input(self, capsys, tmp_path):
        # golden-pair/II has no positive square, so its table can underflow
        sft = tmp_path / "pairII.json"
        sft.write_text(
            json.dumps({"alphabet_size": 3, "adjacency": [[0, 1, 1], [1, 0, 1], [1, 0, 0]]})
        )
        pot = tmp_path / "p.json"
        pot.write_text(json.dumps({"values": {"0": -800.0, "1": 0.0, "2": 0.0}}))
        code, out, err = run_cli(
            capsys, "pressure", "--input", str(sft), "--potential", str(pot), "--n", "10"
        )
        assert code == 1
        assert out == ""
        assert "underflows" in err and "spread 800" in err

    def test_window_past_widest_table_exits_two(self, capsys, tmp_path, gms_file):
        pot = tmp_path / "p.json"
        pot.write_text(json.dumps({"values": {"0": 0.0, "1": 1.0}}))
        code, out, err = run_cli(
            capsys, "pressure", "--input", gms_file, "--potential", str(pot), "--n", "24"
        )
        assert (code, out) == (2, "")
        assert "n=24" in err

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_non_finite_potential_is_bad_input(self, capsys, tmp_path, gms_file, value):
        # json reads NaN and Infinity as floats
        pot = tmp_path / "p.json"
        pot.write_text('{"values": {"0": %s, "1": 0.0}}' % value)
        code, out, err = run_cli(
            capsys, "pressure", "--input", gms_file, "--potential", str(pot), "--n", "6"
        )
        assert (code, out) == (1, "")
        assert "potential value" in err and "at symbol 0 is not finite" in err

    def test_missing_symbol_is_bad_input(self, capsys, tmp_path, gms_file):
        pot = tmp_path / "p.json"
        pot.write_text(json.dumps({"values": {"0": 0.0}}))
        assert main(["pressure", "--input", gms_file, "--potential", str(pot), "--n", "4"]) == 1


class TestMarkov:
    def test_family_series_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "markov", "--family", "gms-1step", "--param", "0.618", "--terms", "20"
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert row["method"] == "series"
        assert row["h_mu_rounded"] == "0.481"
        assert row["asc_mu_rounded"] == "0.266"
        assert row["int_mu_rounded"] == "0.051"
        assert row["provenance"] == "gms-1step/a"
        assert row["n_or_K"] == "20"

    def test_finite_and_mc_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "markov", "--family", "full2-1step", "--param", "0.5", "--param", "0.5",
            "--n", "8", "--samples", "50", "--seed", "11",
        )
        assert code == 0
        rows = parse_csv(out)
        assert [r["method"] for r in rows] == ["series", "finite", "mc"]
        assert rows[2]["stderr"] != ""

    @pytest.mark.parametrize("terms", ["0", "-2"])
    def test_terms_below_one_is_bad_input(self, capsys, terms):
        code, out, err = run_cli(
            capsys, "markov", "--family", "gms-1step", "--param", "0.5", "--terms", terms
        )
        assert (code, out) == (1, "")
        assert "terms must be >= 1" in err

    def test_seed_required_with_samples(self, capsys):
        assert main(["markov", "--family", "gms-1step", "--param", "0.5", "--samples", "10"]) == 1

    def test_input_file(self, capsys, tmp_path):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({"block_len": 1, "P": [[0.5, 0.5], [0.5, 0.5]]}))
        code, out, _ = run_cli(capsys, "markov", "--input", str(path))
        assert code == 0
        assert parse_csv(out)[0]["h_mu_rounded"] == "0.693"

    @pytest.mark.parametrize(
        "chain,field",
        [({"P": [[float("nan"), 1.0], [0.5, 0.5]]}, "P"),
         ({"P": [[float("nan"), 1.0], [0.5, 0.5]], "p": [0.5, 0.5]}, "P"),
         ({"P": [[0.5, 0.5], [0.5, 0.5]], "p": [float("nan"), 0.5]}, "p")],
        ids=["P", "P-with-p", "p"],
    )
    def test_non_finite_input_is_bad_input(self, capsys, tmp_path, chain, field):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({"block_len": 1, **chain}))
        code, out, err = run_cli(capsys, "markov", "--input", str(path), "--n", "4")
        assert (code, out) == (1, "")
        assert f"{field} has non-finite entries" in err

    def test_exactly_one_source(self, capsys):
        assert main(["markov", "--family", "gms-1step", "--param", "0.5", "--input", "x.json"]) == 1
        assert main(["markov"]) == 1

    def test_wrong_param_count(self, capsys):
        assert main(["markov", "--family", "gms-2step", "--param", "0.5"]) == 1


@pytest.mark.parametrize("cmd", ["topo", "pressure", "markov"])
def test_window_below_one_is_bad_input(capsys, tmp_path, gms_file, cmd):
    pot = tmp_path / "p.json"
    pot.write_text(json.dumps({"values": {"0": 0.0, "1": 1.0}}))
    source = {
        "topo": ["--input", gms_file],
        "pressure": ["--input", gms_file, "--potential", str(pot)],
        "markov": ["--family", "gms-1step", "--param", "0.618"],
    }[cmd]
    code, out, err = run_cli(capsys, cmd, *source, "--n", "0")
    assert (code, out) == (1, "")
    assert "bad input" in err and "n=0" in err


class TestSweep:
    def test_surface_and_summary(self, capsys, tmp_path):
        out = tmp_path / "surface.csv"
        code = main(
            ["sweep", "--family", "gms-1step", "--objective", "asc", "--step", "0.05",
             "--output", str(out)]
        )
        captured = capsys.readouterr()
        assert code == 0
        surface = parse_csv(out.read_text())
        assert len(surface) == 21
        assert set(surface[0]) >= {"p00", "h_mu", "asc_mu", "int_mu"}
        summary = parse_csv(captured.out)[0]
        assert summary["objective"] == "asc"
        assert abs(float(summary["best_p00"]) - 0.533) < 5e-3
        assert summary["value_rounded"] == "0.271"

    def test_requires_output(self, capsys):
        assert main(["sweep", "--family", "gms-1step", "--step", "0.05"]) == 1

    def test_custom_family_json(self, capsys, tmp_path):
        fam = tmp_path / "fam.json"
        fam.write_text(
            json.dumps(
                {"name": "gms-custom", "params": ["a"], "box": {"a": [0, 1]},
                 "template": [["a", "rest"], [1, 0]]}
            )
        )
        out = tmp_path / "surface.csv"
        code = main(["sweep", "--input", str(fam), "--objective", "h", "--step", "0.05",
                     "--output", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        summary = parse_csv(captured.out)[0]
        assert abs(float(summary["best_a"]) - 0.618) < 5e-3
        assert summary["value_rounded"] == "0.481"

    @pytest.mark.parametrize(
        "box", [[0, math.nan], [0.8, 0.2], [0, math.inf], [-0.5, 0.5], [0, 2], [0.5], "01"],
        ids=["nan", "reversed", "inf", "below-0", "above-1", "one-number", "string"])
    def test_bad_box_is_bad_input(self, capsys, tmp_path, box):
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps({"name": "gms-custom", "params": ["a"], "box": {"a": box},
                                   "template": [["a", "rest"], [1, 0]]}))
        out = tmp_path / "surface.csv"
        code, stdout, err = run_cli(capsys, "sweep", "--input", str(fam), "--step", "0.05",
                                    "--output", str(out))
        assert (code, stdout) == (1, "")
        assert "box of 'a'" in err
        assert not out.exists()

    @pytest.mark.parametrize("template,where", [
        ([["a", "rest"], [1, 0, 0]], "template row 1"),
        ([["rest", "rest"], [1, 0]], "template row 0"),
        ([["a", "rest"], ["b", "rest"]], "template cell (1, 0) 'b'"),
    ], ids=["not-square", "two-rest", "undeclared"])
    def test_malformed_template_is_bad_input(self, capsys, tmp_path, template, where):
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps({"name": "gms-custom", "params": ["a"], "box": {"a": [0, 1]},
                                   "template": template}))
        out = tmp_path / "surface.csv"
        code, stdout, err = run_cli(capsys, "sweep", "--input", str(fam), "--step", "0.05",
                                    "--output", str(out))
        assert (code, stdout) == (1, "")
        assert where in err
        assert not out.exists()

    def test_family_that_never_builds_is_bad_input_with_its_reason(self, capsys, tmp_path):
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps({"name": "never", "params": ["a"], "box": {"a": [0, 0.3]},
                                   "template": [["a", 0.6], [1, 0]]}))
        out = tmp_path / "surface.csv"
        code, stdout, err = run_cli(capsys, "sweep", "--input", str(fam), "--step", "0.1",
                                    "--output", str(out))
        assert (code, stdout) == (1, "")
        assert "4 of 4 points: P rows must sum to 1 within 1e-12" in err
        assert not out.exists()


class TestCheck:
    def test_all_suites_pass_quick(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--suite", "all", "--max-n", "4")
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert all("[PASS]" in l for l in lines)
        assert any(l.startswith("coefficient-axioms:") for l in lines)
        assert any(l.startswith("spectral:") for l in lines)

    def test_single_suite(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--suite", "lambda")
        assert code == 0
        assert out.startswith("lambda-delta-half:")

    @pytest.mark.parametrize("max_n,cases", [(1, 10), (2, 30)])
    def test_entropy_oracle_windows_narrower_than_a_block(self, capsys, max_n, cases):
        # the 2-block chain's oracle enumerates a whole block past a 1-place window
        code, out, _ = run_cli(capsys, "check", "--suite", "oracle-entropy", "--max-n", str(max_n))
        assert (code, out) == (0, f"entropy-oracle: {cases} cases, 0 failures [PASS]\n")

    @pytest.mark.parametrize("max_n", [0, -1])
    @pytest.mark.parametrize("suite", [*SUITES, "all"])
    def test_max_n_below_one_is_bad_input(self, capsys, monkeypatch, suite, max_n):
        # refused before any suite runs, whichever suite is asked for
        def ran(n_max=None):
            raise AssertionError("a suite ran")

        monkeypatch.setattr("intricacy.properties.SUITES", dict.fromkeys(SUITES, ran))
        code, out, err = run_cli(capsys, "check", "--suite", suite, "--max-n", str(max_n))
        assert (code, out) == (1, "")
        assert "max_n must be >= 1" in err

    def test_unknown_suite(self, capsys):
        assert main(["check", "--suite", "nope"]) == 1

    @pytest.mark.parametrize("flag", [["--output", "report.txt"], ["--format", "json"]])
    def test_output_flags_are_usage_errors(self, capsys, tmp_path, monkeypatch, flag):
        # check prints a status report, not a table: it takes neither flag
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["check", "--suite", "lambda", *flag])
        assert exc.value.code == 1
        assert not (tmp_path / "report.txt").exists()


def test_provenance_lookup_matches_registry_scan():
    def scan(M, prefer=None):
        hits = [b.tag for b in SFT_BENCHMARKS if np.array_equal(M, np.asarray(b.adjacency))]
        preferred = [tag for tag in hits if prefer and tag.startswith(prefer)]
        return (preferred or hits or [None])[0]

    for bench in SFT_BENCHMARKS:
        M = np.asarray(bench.adjacency)
        for prefer in (None, "pressure-pair"):
            assert provenance_for_adjacency(M, prefer) == scan(M, prefer)
    # pressure-pair/A is log2-family/2's matrix, first in registry order
    A = SFT_BENCHMARKS[-2].adjacency
    assert provenance_for_adjacency(A) == "log2-family/2"
    assert provenance_for_adjacency(A, prefer="pressure-pair") == "pressure-pair/A"
    assert provenance_for_adjacency([[1, 1], [1, 1]]) is None
    assert provenance_for_adjacency(np.ones((3, 3), dtype=int)) is None


def test_readme_flags_line_names_every_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    documented = set(re.findall(r"--[a-z][a-z-]*", re.search(r"Flags: `([^`]*)`", readme)[1]))
    (subcommands,) = [a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)]
    registered = {
        opt
        for sub in subcommands.choices.values()
        for action in sub._actions
        for opt in action.option_strings
        if opt.startswith("--") and opt != "--help"
    }
    assert documented == registered


def test_cli_import_loads_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, intricacy.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout == "[]\n"
