import argparse
import csv
import io
import json
import re
from pathlib import Path

import pytest

from intricacy.cli import build_parser, main


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

    def test_usage_error_exits_one(self, capsys, gms_file):
        with pytest.raises(SystemExit) as exc:
            main(["topo", "--input", gms_file])
        assert exc.value.code == 1


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

    def test_spread_underflow_is_bad_input(self, capsys, tmp_path, gms_file):
        pot = tmp_path / "p.json"
        pot.write_text(json.dumps({"values": {"0": -800.0, "1": 0.0}}))
        code, out, err = run_cli(
            capsys, "pressure", "--input", gms_file, "--potential", str(pot), "--n", "10"
        )
        assert code == 1
        assert out == ""
        assert "underflows" in err and "spread 800" in err

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

    def test_seed_required_with_samples(self, capsys):
        assert main(["markov", "--family", "gms-1step", "--param", "0.5", "--samples", "10"]) == 1

    def test_input_file(self, capsys, tmp_path):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({"block_len": 1, "P": [[0.5, 0.5], [0.5, 0.5]]}))
        code, out, _ = run_cli(capsys, "markov", "--input", str(path))
        assert code == 0
        assert parse_csv(out)[0]["h_mu_rounded"] == "0.693"

    def test_exactly_one_source(self, capsys):
        assert main(["markov", "--family", "gms-1step", "--param", "0.5", "--input", "x.json"]) == 1
        assert main(["markov"]) == 1

    def test_wrong_param_count(self, capsys):
        assert main(["markov", "--family", "gms-2step", "--param", "0.5"]) == 1


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
