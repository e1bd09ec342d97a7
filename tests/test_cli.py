import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest

from intricacy import benchmarks, coeffs, markov, pressure, properties, sweep, topo
from intricacy.benchmarks import SFT_BENCHMARKS, provenance_for_adjacency
from intricacy.cli import _emit, build_parsers, main
from intricacy.coeffs import CoefficientSystem
from intricacy.properties import SUITES, run_suites
from intricacy.sft import Sft


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

    @pytest.mark.parametrize("spec", ["uniform", "psym:0.5", "measure:0.5=1"])
    def test_alt_wherever_every_weight_is_two_to_the_minus_n(self, capsys, gms_file, spec):
        # the weights, not the name of the system, decide that alt is defined
        code, out, _ = run_cli(capsys, "topo", "--input", gms_file, "--n", "6", "--coeffs", spec)
        assert code == 0
        assert parse_csv(out)[0]["Alt_n"] == "7"

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


def test_csv_matches_dict_writer_on_fields_that_need_quoting(capsys):
    rows = [{"a": 'x,"y"', "b": 1.5, "c": None, "d": "two\nlines"},
            {"a": "", "b": None, "c": "z", "d": " lead"}]
    _emit(rows, ["b"], "csv", None)
    rendered = [{"a": 'x,"y"', "b": "1.5", "b_rounded": "1.500", "c": "", "d": "two\nlines"},
                {"a": "", "b": "", "b_rounded": "", "c": "z", "d": " lead"}]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rendered[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rendered)
    assert capsys.readouterr().out == buf.getvalue()


class TestUsageErrors:
    def test_no_arguments_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_subcommand_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["nope"])
        assert exc.value.code == 1
        assert "invalid choice: 'nope'" in capsys.readouterr().err

    def test_unknown_option_is_named_by_the_subcommand(self, capsys, gms_file):
        with pytest.raises(SystemExit) as exc:
            main(["topo", "--input", gms_file, "--n", "4", "--bogus"])
        assert exc.value.code == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("intricacy topo: error: unrecognized arguments: --bogus")

    @pytest.mark.parametrize("argv,usage", [(["topo", "-h"], "usage: intricacy topo [-h]"),
                                            (["-h"], "usage: intricacy [-h]")])
    def test_help_exits_zero(self, capsys, argv, usage):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(usage)


class TestInputDocuments:
    """Each JSON input must hold an object with the keys it needs; anything
    else is bad input whose message names the file."""

    FLAGS = {
        "topo --input": lambda files: ["topo", "--input", files, "--n", "4"],
        "pressure --input": lambda files: ["pressure", "--input", files, "--potential",
                                           "good-f.json", "--n", "4"],
        "pressure --potential": lambda files: ["pressure", "--input", "good-sft.json",
                                               "--potential", files, "--n", "4"],
        "markov --input": lambda files: ["markov", "--input", files],
        "sweep --input": lambda files: ["sweep", "--input", files, "--output", "s.csv"],
    }

    @pytest.fixture(autouse=True)
    def good_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "good-sft.json").write_text(
            json.dumps({"alphabet_size": 2, "forbidden_words": ["11"]}))
        (tmp_path / "good-f.json").write_text(json.dumps({"values": {"0": 0.0, "1": 1.0}}))

    @pytest.mark.parametrize("flag,document", [
        ("topo --input", 3),
        ("pressure --input", [[1, 1], [1, 0]]),
        ("pressure --potential", [0.0, 1.0]),
        ("markov --input", [[0.5, 0.5], [0.5, 0.5]]),
        ("sweep --input", ["a"]),
    ])
    def test_document_that_is_no_object_is_bad_input(self, capsys, flag, document):
        with open("doc.json", "w") as fh:
            json.dump(document, fh)
        code, out, err = run_cli(capsys, *self.FLAGS[flag]("doc.json"))
        assert (code, out) == (1, "")
        kind = type(document).__name__
        assert err == f"intricacy: bad input: doc.json: expected a JSON object, got {kind}\n"

    @pytest.mark.parametrize("flag,document,key", [
        ("topo --input", {"forbidden_words": ["11"]}, "alphabet_size"),
        ("pressure --input", {"adjacency": [[1, 1], [1, 0]]}, "alphabet_size"),
        ("pressure --potential", {"value": {"0": 0.0}}, "values"),
        ("markov --input", {"p": [0.5, 0.5]}, "P"),
        ("sweep --input", {"params": ["a"], "template": [["a", "rest"], [1, 0]]}, "box"),
    ])
    def test_missing_key_is_named_with_its_file(self, capsys, flag, document, key):
        with open("doc.json", "w") as fh:
            json.dump(document, fh)
        code, out, err = run_cli(capsys, *self.FLAGS[flag]("doc.json"))
        assert (code, out) == (1, "")
        assert err == f"intricacy: bad input: doc.json: missing key '{key}'\n"

    @pytest.mark.parametrize("flag,document,key,expected,kind", [
        ("topo --input", {"alphabet_size": [2], "forbidden_words": ["11"]}, "alphabet_size",
         "an integer", "list"),
        # a string would read as the one-symbol words "1" and "1"
        ("topo --input", {"alphabet_size": 2, "forbidden_words": "11"}, "forbidden_words",
         "a list of words", "str"),
        ("pressure --input", {"alphabet_size": "2", "adjacency": [[1, 1], [1, 0]]},
         "alphabet_size", "an integer", "str"),
        ("pressure --potential", {"values": [0, 1]}, "values", "an object of numbers", "list"),
        ("markov --input", {"block_len": [1], "P": [[0.5, 0.5], [0.5, 0.5]]}, "block_len",
         "an integer", "list"),
        ("sweep --input", {"params": "a", "box": {"a": [0, 1]},
                           "template": [["a", "rest"], [1, 0]]}, "params", "a list of names",
         "str"),
    ], ids=["topo-alphabet-size", "topo-forbidden-words", "pressure-alphabet-size",
            "pressure-potential", "markov-block-len", "sweep-params"])
    def test_field_of_the_wrong_type_is_named_with_its_file(self, capsys, flag, document, key,
                                                           expected, kind):
        with open("doc.json", "w") as fh:
            json.dump(document, fh)
        code, out, err = run_cli(capsys, *self.FLAGS[flag]("doc.json"))
        assert (code, out) == (1, "")
        assert err == (f"intricacy: bad input: doc.json: key '{key}' must be {expected}, "
                       f"got {kind}\n")

    @pytest.mark.parametrize("flag,document,word", [
        ("topo --input", {"alphabet_size": 2, "forbidden_words": ["1a"]}, "forbidden word '1a'"),
        ("markov --input", {"states": ["a", "b"], "P": [[0.5, 0.5], [0.5, 0.5]]}, "state 'a'"),
        ("markov --input", {"states": [[0, -1], [1, 0]], "P": [[0.5, 0.5], [0.5, 0.5]]},
         "state [0, -1]"),
        ("sweep --input", {"params": ["a"], "box": {"a": [0, 1]}, "states": ["x", "y"],
                           "template": [["a", "rest"], [1, 0]]}, "state 'x'"),
    ], ids=["forbidden-word-letter", "markov-letter-state", "markov-negative-symbol",
            "family-letter-state"])
    def test_word_or_state_of_no_symbols_is_named(self, capsys, flag, document, word):
        # a string holds the digits 0-9, a list the nonnegative integers
        with open("doc.json", "w") as fh:
            json.dump(document, fh)
        code, out, err = run_cli(capsys, *self.FLAGS[flag]("doc.json"))
        assert (code, out) == (1, "")
        assert err == (f"intricacy: bad input: {word} must be digits 0-9 or a list of "
                       "nonnegative integers\n")

    @pytest.mark.parametrize("flag,document", [
        ("markov --input", {"P": [[0.5, 0.5], [0.5, 0.5]], "p": None, "states": None}),
        ("sweep --input", {"params": ["a"], "box": {"a": [0, 1]}, "states": None,
                           "template": [["a", "rest"], [1, 0]]}),
    ])
    def test_null_optional_field_reads_as_absent(self, capsys, flag, document):
        with open("doc.json", "w") as fh:
            json.dump(document, fh)
        assert run_cli(capsys, *self.FLAGS[flag]("doc.json"))[0] == 0


class TestJsonTypes:
    # JSON keeps each field's type: text that reads as a number stays text,
    # and a float field stays a number whatever its digits look like
    def test_family_name_that_reads_as_a_number_stays_text(self, capsys, tmp_path):
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps({"name": "1e3", "params": ["a"], "box": {"a": [0, 1]},
                                   "template": [["a", "rest"], [1, 0]]}))
        code, out, _ = run_cli(capsys, "sweep", "--input", str(fam), "--objective", "h",
                               "--step", "0.05", "--output", str(tmp_path / "surface.csv"),
                               "--format", "json")
        assert code == 0
        (summary,) = json.loads(out)
        assert summary["family"] == "1e3"
        assert isinstance(summary["best_a"], float) and abs(summary["best_a"] - 0.618) < 5e-3

    def test_input_path_that_reads_as_a_number_stays_text(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "12").write_text(json.dumps({"block_len": 1, "P": [[0.5, 0.5], [0.5, 0.5]]}))
        code, out, _ = run_cli(capsys, "markov", "--input", "12", "--format", "json")
        assert code == 0
        assert json.loads(out)[0]["source"] == "12"

    def test_negative_integral_float_stays_a_number(self, capsys, tmp_path):
        sft, pot = tmp_path / "flip.json", tmp_path / "f.json"
        sft.write_text(json.dumps({"alphabet_size": 2, "adjacency": [[0, 1], [1, 0]]}))
        pot.write_text(json.dumps({"values": {"0": -2.0, "1": -2.0}}))
        code, out, _ = run_cli(capsys, "pressure", "--input", str(sft), "--potential", str(pot),
                               "--n", "2", "--format", "json")
        assert code == 0
        row = json.loads(out)[0]
        assert (row["P_classical"], row["P_classical_rounded"]) == (-2.0, -2.0)
        assert isinstance(row["P_classical"], float)


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

    @pytest.mark.parametrize("key", ["a", "-1", " 1", "1 ", "01", "00", "+1", "1.0", "", "\u00b9"])
    def test_key_that_is_no_plain_symbol_is_named(self, capsys, tmp_path, gms_file, key):
        # "01" and " 1" once read as symbol 1, and "-1" was read and then ignored
        pot = tmp_path / "p.json"
        pot.write_text(json.dumps({"values": {"0": 0.0, "1": 1.0, key: 0.5}}))
        code, out, err = run_cli(
            capsys, "pressure", "--input", gms_file, "--potential", str(pot), "--n", "4"
        )
        assert (code, out) == (1, "")
        assert err == (f"intricacy: bad input: potential key {key!r} must be a nonnegative "
                       "decimal integer with no sign, spaces or leading zeros\n")

    def test_keys_past_nine_are_symbols(self, capsys, tmp_path, gms_file):
        pot = tmp_path / "p.json"
        pot.write_text(json.dumps({"values": {"0": 0.0, "1": 1.0, "10": 2.0}}))
        code, out, _ = run_cli(
            capsys, "pressure", "--input", gms_file, "--potential", str(pot), "--n", "3"
        )
        assert code == 0
        assert parse_csv(out)[0]["potential"] == '{"0":0.0,"1":1.0,"10":2.0}'

    def test_missing_symbol_is_bad_input(self, capsys, tmp_path, gms_file):
        pot = tmp_path / "p.json"
        pot.write_text(json.dumps({"values": {"0": 0.0}}))
        assert main(["pressure", "--input", gms_file, "--potential", str(pot), "--n", "4"]) == 1

    def test_potential_column_is_quoted_csv(self, capsys, tmp_path, gms_file):
        pot = tmp_path / "p.json"
        pot.write_text(json.dumps({"values": {"0": 0.0, "1": 1.0}}))
        code, out, _ = run_cli(capsys, "pressure", "--input", gms_file, "--potential", str(pot),
                               "--n", "3")
        assert code == 0
        assert out == (
            "n,Asp_n,Asp_n_rounded,P_classical,P_classical_rounded,coeffs_spec,potential,"
            "provenance\n"
            '3,0.54567981647,0.546,0.798799257084,0.799,uniform,"{""0"":0.0,""1"":1.0}",\n')


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

    @pytest.mark.parametrize("argv", [
        ["--family", "full2-1step", "--param", "0.3", "--param", "0.6", "--n", "12"],
        ["--family", "gms-2step", "--param", "0.4", "--param", "0.7", "--n", "6"],
    ], ids=["1-step", "2-block"])
    def test_one_walk_of_powers_per_request(self, capsys, monkeypatch, argv):
        # series, finite and Monte Carlo rows read one stack: each power is
        # computed once, P^1 first, each walk going on where the last stopped
        walks = []

        def spy(P, count, head=None):
            walks.append((0 if head is None else head.shape[1], count))
            return real(P, count, head)

        real = markov._powers
        monkeypatch.setattr(markov, "_powers", spy)
        code, out, _ = run_cli(capsys, "markov", *argv, "--samples", "30", "--seed", "5")
        assert code == 0 and len(parse_csv(out)) == 3
        assert walks[0][0] == 0 and all(a[1] == b[0] for a, b in zip(walks, walks[1:]))
        assert walks[0][1] == 20  # the series' terms

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

    def test_negative_samples_is_bad_input(self, capsys):
        # 0 means no Monte Carlo row; below 0 nothing is printed
        code, out, err = run_cli(capsys, "markov", "--family", "gms-1step", "--param", "0.5",
                                 "--samples", "-5", "--seed", "1")
        assert (code, out) == (1, "")
        assert "--samples must be >= 0, got -5" in err
        code, out, _ = run_cli(capsys, "markov", "--family", "gms-1step", "--param", "0.5",
                               "--samples", "0")
        assert code == 0 and [r["method"] for r in parse_csv(out)] == ["series"]

    @pytest.mark.parametrize("samples", ["10", "0"])
    def test_negative_seed_is_bad_input_naming_the_flag(self, capsys, samples):
        code, out, err = run_cli(capsys, "markov", "--family", "gms-1step", "--param", "0.5",
                                 "--samples", samples, "--seed", "-1")
        assert (code, out) == (1, "")
        assert "--seed must be >= 0, got -1" in err

    def test_infinite_parameter_is_refused_without_a_warning(self, capsys):
        # the "rest" cell is 1 - inf, so its row sums to inf - inf: no
        # RuntimeWarning before the refusal, which names the first failed test
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, "markov", "--family", "gms-1step", "--param", "1e400")
        assert (code, out) == (1, "")
        assert "P has non-finite entries" in err

    def test_series_of_1024_terms(self, capsys):
        # 2^1024 overflows a float: each weight is taken as 2^-i directly
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli(capsys, "markov", "--family", "gms-1step", "--param", "0.5",
                                   "--terms", "1024")
        assert code == 0
        (row,) = parse_csv(out)
        assert row["int_mu_rounded"] == "0.078" and row["n_or_K"] == "1024"
        assert 0.0 < float(row["tail_bound"]) < 1e-300

    def test_more_terms_than_weights_is_a_cap(self, capsys, monkeypatch):
        # from 1075 terms on every weight 2^-i is 0: refused before any power
        def no_powers(*args, **kwargs):
            raise AssertionError("powers computed")

        monkeypatch.setattr(markov, "_powers", no_powers)
        code, out, err = run_cli(capsys, "markov", "--family", "gms-1step", "--param", "0.5",
                                 "--terms", "1075")
        assert (code, out) == (2, "")
        assert "terms=1075 exceeds 1074" in err

    def test_input_file(self, capsys, tmp_path):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({"block_len": 1, "P": [[0.5, 0.5], [0.5, 0.5]]}))
        code, out, _ = run_cli(capsys, "markov", "--input", str(path))
        assert code == 0
        assert parse_csv(out)[0]["h_mu_rounded"] == "0.693"

    CHAIN_2BLOCK = {"states": ["00", "01", "10"],
                    "P": [[0.4, 0.6, 0], [0, 0, 1], [0.6, 0.4, 0]]}

    def test_states_set_the_block_length(self, capsys, tmp_path):
        # 2-block states with no block_len: a 2-block chain, not a 1-step
        # chain on 3 symbols (asc 0.360547094323)
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(self.CHAIN_2BLOCK))
        code, out, _ = run_cli(capsys, "markov", "--input", str(path), "--terms", "20")
        assert code == 0
        (row,) = parse_csv(out)
        assert (row["method"], row["asc_mu"]) == ("series", "0.269853937027")

    @pytest.mark.parametrize("chain,message", [
        ({"block_len": 1, **CHAIN_2BLOCK},
         "block_len 1 disagrees with the states, which are 2-blocks"),
        ({"block_len": 3, **CHAIN_2BLOCK},
         "block_len 3 disagrees with the states, which are 2-blocks"),
        ({"block_len": 0, "states": [""], "P": [[1.0]]}, "block_len must be >= 1, got 0"),
        ({"block_len": -1, "P": [[1.0]]}, "block_len must be >= 1, got -1"),
        ({"block_len": 0, "P": [[0.5, 0.5], [0.5, 0.5]]}, "block_len must be >= 1, got 0"),
        ({"states": ["", ""], "P": [[0.5, 0.5], [0.5, 0.5]]},
         "every state must hold at least one symbol"),
        ({"states": ["0", "01"], "P": [[0.5, 0.5], [0.5, 0.5]]},
         "every state must be a block of one length"),
        # no row, so no state to read a block length from
        ({"P": []}, "P must be square"),
    ], ids=["disagrees-1", "disagrees-3", "block-len-0-empty-state", "block-len-negative",
            "block-len-0", "empty-states", "mixed-lengths", "no-rows"])
    def test_block_length_and_states_that_do_not_fit_are_refused_by_name(self, capsys, tmp_path,
                                                                         chain, message):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(chain))
        code, out, err = run_cli(capsys, "markov", "--input", str(path), "--n", "3")
        assert (code, out, err) == (1, "", f"intricacy: bad input: {message}\n")

    def test_three_step_chain_prints_finite_and_mc_rows(self, capsys, tmp_path):
        # the series takes block_len 1 and 2 only; the 3-step chain of the
        # oracle-entropy suite still has its finite and Monte Carlo rows
        three = {f"{b:03b}": {"0": 0.1 + 0.1 * b, "1": 0.9 - 0.1 * b} for b in range(8)}
        m = markov.recode_higher_block(three, Sft.full_shift(2))
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({"block_len": 3, "P": m.P.tolist(),
                                    "states": ["".join(map(str, s)) for s in m.states]}))
        code, out, _ = run_cli(capsys, "markov", "--input", str(path), "--n", "6",
                               "--samples", "40", "--seed", "3")
        assert code == 0
        rows = parse_csv(out)
        assert [r["method"] for r in rows] == ["finite", "mc"]
        assert float(rows[0]["asc_mu"]) == pytest.approx(
            markov.asc_finite(m, CoefficientSystem.uniform(), 6).asc, rel=1e-11)
        assert rows[0]["asc_mu_rounded"] == "0.333"
        # with neither row asked for, there is nothing to print
        code, out, err = run_cli(capsys, "markov", "--input", str(path))
        assert (code, out) == (1, "")
        assert "series supports block_len 1 and 2" in err

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

    @pytest.mark.parametrize("p", [[1.5, -0.5], [0.5, 0.5, 0.0]], ids=["negative", "three-entries"])
    def test_supplied_p_must_be_a_probability_vector(self, capsys, tmp_path, p):
        # every p is stationary for the identity chain
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({"block_len": 1, "P": [[1, 0], [0, 1]], "p": p}))
        code, out, err = run_cli(capsys, "markov", "--input", str(path), "--n", "3")
        assert (code, out) == (1, "")
        assert "p must have one nonnegative entry per state" in err

    def test_deterministic_chain_prints_entropy_rate_zero(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "markov", "--family", "full2-1step", "--param", "0",
                               "--param", "0")
        assert code == 0
        assert parse_csv(out)[0]["h_mu"] == "0"
        surface = tmp_path / "surface.csv"
        assert main(["sweep", "--family", "gms-1step", "--step", "0.1",
                     "--output", str(surface)]) == 0
        rows = parse_csv(surface.read_text())
        assert [r["h_mu"] for r in rows if r["p00"] in ("0.0", "1.0")] == ["0", "0"]

    def test_input_path_with_comma_and_quotes_is_quoted_csv(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / 'two,"parts".json').write_text(json.dumps({"P": [[0.5, 0.5], [0.5, 0.5]]}))
        code, out, _ = run_cli(capsys, "markov", "--input", 'two,"parts".json', "--terms", "3")
        assert code == 0
        assert out == (
            "source,h_mu,h_mu_rounded,asc_mu,asc_mu_rounded,int_mu,int_mu_rounded,method,n_or_K,"
            "tail_bound,tail_bound_rounded,stderr,stderr_rounded,provenance\n"
            '"two,""parts"".json",0.69314718056,0.693,0.303251891495,0.303,-0.08664339757,'
            "-0.087,series,3,0.08664339757,0.087,,,\n")

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

    def test_series_of_1024_terms(self, capsys, tmp_path):
        out = tmp_path / "surface.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["sweep", "--family", "gms-1step", "--step", "0.1", "--terms", "1024",
                         "--output", str(out)])
        assert code == 0 and len(parse_csv(out.read_text())) == 11
        assert parse_csv(capsys.readouterr().out)[0]["value_rounded"] == "0.271"

    @pytest.mark.parametrize("argv,message", [
        (["--step", "0.1", "--terms", "1075"], "terms=1075 exceeds 1074"),
        (["--step", "1e-320"], "gives inf grid points"),
    ], ids=["terms", "step"])
    def test_caps_come_before_any_point(self, capsys, tmp_path, monkeypatch, argv, message):
        def no_points(*args, **kwargs):
            raise AssertionError("points evaluated")

        monkeypatch.setattr(sweep, "_evaluate", no_points)
        out = tmp_path / "surface.csv"
        code, stdout, err = run_cli(capsys, "sweep", "--family", "gms-1step", *argv,
                                    "--output", str(out))
        assert (code, stdout) == (2, "")
        assert message in err
        assert not out.exists()

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

    def test_subadd_takes_the_pairs_within_the_widest_window(self):
        # at --max-n 12 the pair (12, 12) would ask for a window of 24
        # positions; it is left out, and every other pair is checked
        (at_11,), (at_12,) = run_suites("subadd", 11), run_suites("subadd", 12)
        assert at_11.passed and at_12.passed
        assert (at_11.cases, at_12.cases) == (726, 858)

    def test_only_invariances_counts_one_subset_at_a_time(self, monkeypatch):
        # product and oracle-counts take every count of a window from one
        # table pass; invariances holds the per-subset walk to that table
        callers = []
        exact = Sft.count_words_at

        def count(self, S, n=None):
            # the suite the call came from (a comprehension has its own
            # frame before Python 3.12)
            frame = sys._getframe(1)
            while not frame.f_code.co_name.startswith("check_"):
                frame = frame.f_back
            callers.append(frame.f_code.co_name)
            return exact(self, S, n)

        monkeypatch.setattr(Sft, "count_words_at", count)
        assert all(rep.passed for rep in run_suites("all", 5))
        # every subset of 5 places on each of its 2 shifts, the empty one included
        assert callers == ["check_count_invariances"] * 2 * 32

    @pytest.mark.parametrize("suite,max_n,message", [
        ("product", 30, "n=30 outside [1, 23]"),
        ("invariances", 30, "n=30 outside [1, 23]"),
        ("oracle-counts", 30, "r^n = 3^30 exceeds oracle cap"),
        ("oracle-counts", 15, "r^n = 3^15 exceeds oracle cap"),
        ("oracle-entropy", 30, "n=30 outside [1, 23]"),
        ("all", 30, "n=30 outside [1, 23]"),
    ])
    def test_window_suites_refuse_a_cap_before_they_allocate(self, capsys, monkeypatch, suite,
                                                            max_n, message):
        def allocated(*args, **kwargs):
            raise AssertionError("allocated past a cap")

        for name in ("_canonical_rows", "product_table", "_word_cells", "_cylinder_cells"):
            monkeypatch.setattr(properties, name, allocated)
        monkeypatch.setattr(Sft, "count_words_at", allocated)
        code, out, err = run_cli(capsys, "check", "--suite", suite, "--max-n", str(max_n))
        assert (code, out) == (2, "")
        assert err.startswith("intricacy: cap exceeded: ") and message in err

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
    _, commands = build_parsers()
    registered = {
        opt
        for sub, _ in commands.values()
        for action in sub._actions
        for opt in action.option_strings
        if opt.startswith("--") and opt != "--help"
    }
    assert documented == registered


def test_cli_import_leaves_the_property_suites_out():
    # only ``check`` runs them, so no other request pays for compiling them
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, intricacy.cli; print('intricacy.properties' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout == "False\n"


def test_cli_import_leaves_dataclasses_and_the_families_unbuilt():
    # no record class generates code at import, and no built-in family is
    # compiled for a request that does not name one
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, intricacy, intricacy.cli; from intricacy.sweep import builtin_family; "
            "print('dataclasses' in sys.modules, builtin_family.cache_info().currsize)")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout == "False 0\n"


def test_cli_import_compiles_no_annotation_string():
    # records are built from real types: a ForwardRef per field would
    # compile its annotation string, about 1 ms of every start-up
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import builtins, numpy; real = builtins.compile; sources = []\n"
            "def spy(source, *args, **kwargs):\n"
            "    sources.append(source)\n"
            "    return real(source, *args, **kwargs)\n"
            "builtins.compile = spy\n"
            "import intricacy, intricacy.cli\n"
            "print([s for s in sources if isinstance(s, str)])")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout == "[]\n"


@pytest.mark.parametrize("record", [
    benchmarks.SftBenchmark, benchmarks.MarkovBenchmark, coeffs.CoefficientSystem,
    markov.MarkovSeries, markov.McEstimate, markov.SampledEntropyResult, sweep.GridPoint,
    sweep.SweepResult, sweep.MaximizeResult, topo.ComplexityProfile, topo.SeriesEstimate,
    topo.RecursionReport, pressure.Potential,
], ids=lambda record: record.__name__)
def test_records_are_tuples(record):
    values = [((0, 1.0),)] if record is pressure.Potential else list(range(len(record._fields)))
    rec = record(*values)
    assert isinstance(rec, tuple)
    assert len(rec) == len(values) and [*rec] == values and rec == tuple(values)
    changed = rec._replace(**{record._fields[-1]: values[0]})
    assert type(changed) is record and [*changed] == [*values[:-1], values[0]]
    assert record._fields == tuple(typing.get_type_hints(record))


def test_published_records_default_their_optional_columns():
    sft = benchmarks.SftBenchmark("t", ((1,),), 0.0, 0.1, 0.2, 0.3)
    assert sft[6:] == (None,) * 5 and sft.n_words_013 is None
    bench = benchmarks.MarkovBenchmark("t", "gms-1step", (0.5,), 0.1, 0.2, 0.3)
    assert bench.maximizes is None and bench.note is None


@pytest.mark.parametrize("name", ["topo", "pressure", "markov", "sweep", "check"])
def test_subcommand_parser_built_alone_matches_the_tree(name, capsys, monkeypatch):
    # a request builds only its own subcommand's parser; its help and usage
    # errors read as those of the whole tree's parser
    monkeypatch.setenv("COLUMNS", "80")
    sub = build_parsers()[1][name][0]
    for argv in (["--help"], ["--bogus"], ["--n", "x"], ["--format", "xml"], ["--max-n"]):
        with pytest.raises(SystemExit) as want:
            sub.parse_args(argv)
        expected = capsys.readouterr()
        with pytest.raises(SystemExit) as got:
            main([name, *argv])
        assert got.value.code == want.value.code and capsys.readouterr() == expected


def test_cli_import_loads_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, intricacy.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout == "[]\n"
