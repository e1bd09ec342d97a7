"""Command-line front end.

Subcommands: ``topo`` (complexity profiles), ``pressure`` (weighted
profiles), ``markov`` (series / finite / Monte Carlo rows), ``sweep``
(parameter surfaces plus maxima), ``check`` (property suites).  Output
is CSV by default (UTF-8, LF, ``.`` decimals), or JSON mirroring the
same fields.  Floats are printed with 12 significant digits, each next
to a 3-decimal ``*_rounded`` sibling matching the published tables.
A row whose system and parameters coincide with a published table cell
carries that cell's tag in the ``provenance`` column.

Exit codes: 0 success, 1 bad input, 2 computation cap exceeded,
3 property-check failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys

from .benchmarks import provenance_for_adjacency, provenance_for_markov
from .coeffs import parse_coeffs
from .errors import CapExceeded, FieldTypeError
from .markov import (SERIES_BLOCK_LENS, MarkovMeasure, asc_finite, asc_series_markov,
                     monte_carlo_asc)
from .pressure import Potential, asp_profile, classical_pressure
from .sft import Sft
from .sweep import OBJECTIVES, builtin_family, family_from_dict, maximize, scan
from .topo import finite_profile

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_CAP = 2
EXIT_PROPERTY_FAILURE = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the CLI reserves 2 for
    # cap overruns, so usage problems map to the bad-input code instead
    def error(self, message):
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _load_json(path: str, build):
    """build(document) for the JSON object in the file at path.  Any other
    document, or one that lacks a key or holds one of the wrong type, is
    bad input that names the file."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    try:
        return build(doc)
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from None
    except FieldTypeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _emit(rows: list[dict], float_fields: list[str], fmt: str, path: str | None,
          bare_fields: list[str] = ()) -> None:
    """Render rows to CSV or JSON (``fmt``) and write them to ``path``, or to
    stdout when it is None.  The floats of ``float_fields`` get 12
    significant digits and a 3-decimal *_rounded sibling column, those of
    ``bare_fields`` the 12 digits alone.  JSON keeps each field's type:
    such a float is a number, its written digits read back (inf and nan
    stay text), and any other value is written as given.  None is '' in
    both formats."""
    out_rows = []
    for row in rows:
        rendered: dict[str, object] = {}
        for key, value in row.items():
            if value is None or (key not in float_fields and key not in bare_fields):
                rendered[key] = "" if value is None else value
                if key in float_fields:
                    rendered[key + "_rounded"] = ""
                continue
            texts = {key: _fmt(value)}
            if key in float_fields:
                # + 0.0 turns a -0.0 into 0.0, so nothing reads -0.000
                texts[key + "_rounded"] = f"{round(value, 3) + 0.0:.3f}"
            for name, text in texts.items():
                rendered[name] = float(text) if fmt == "json" and math.isfinite(value) else text
        out_rows.append(rendered)

    if fmt == "json":
        text = json.dumps(out_rows, indent=2) + "\n"
    else:
        buf = io.StringIO()
        if out_rows:
            # every rendered row has the first row's fields, in its order
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(out_rows[0])
            writer.writerows(row.values() for row in out_rows)
        text = buf.getvalue()

    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_topo(args) -> int:
    sft = _load_json(args.input, Sft.from_dict)
    coeffs = parse_coeffs(args.coeffs)
    tag = provenance_for_adjacency(sft.adjacency)
    rows = []
    for n in args.n:
        prof = finite_profile(sft, coeffs, n, block_k=args.block_k)
        rows.append(
            {
                "n": prof.n,
                "block_k": prof.block_k,
                "H_n": prof.h,
                "Asc_n": prof.asc,
                "Int_n": prof.intricacy,
                "Acc_n": prof.acc,
                "Alt_n": prof.alt,
                "coeffs_spec": prof.coeffs_spec,
                "provenance": tag,
            }
        )
    _emit(rows, ["H_n", "Asc_n", "Int_n", "Acc_n", "Alt_n"], args.format, args.output)
    return EXIT_OK


def _cmd_pressure(args) -> int:
    sft = _load_json(args.input, Sft.from_dict)
    f = _load_json(args.potential, Potential.from_dict)
    coeffs = parse_coeffs(args.coeffs)
    tag = provenance_for_adjacency(sft.adjacency, prefer="pressure-pair")
    p_classical = classical_pressure(sft, f)
    rows = []
    for n in args.n:
        rows.append(
            {
                "n": n,
                "Asp_n": asp_profile(sft, f, coeffs, n),
                "P_classical": p_classical,
                "coeffs_spec": coeffs.spec,
                "potential": json.dumps(dict(f.values), separators=(",", ":")),
                "provenance": tag,
            }
        )
    _emit(rows, ["Asp_n", "P_classical"], args.format, args.output)
    return EXIT_OK


def _markov_measure(args) -> tuple[MarkovMeasure, str, dict[str, float]]:
    if (args.input is None) == (args.family is None):
        raise ValueError("exactly one of --input / --family is required")
    if args.input:
        measure = _load_json(args.input, MarkovMeasure.from_dict)
        return measure, args.input, {}
    family = builtin_family(args.family)
    theta = tuple(args.param or ())
    if len(theta) != family.dimension:
        raise ValueError(
            f"family {family.name} needs {family.dimension} --param values, got {len(theta)}"
        )
    params = dict(zip(family.param_names, theta))
    return family.builder(theta), family.name, params


def _cmd_markov(args) -> int:
    if args.samples < 0:  # 0 asks for no Monte Carlo row
        raise ValueError(f"--samples must be >= 0, got {args.samples}")
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    if args.samples > 0 and args.seed is None:
        raise ValueError("--seed is required when --samples > 0")
    measure, source, params = _markov_measure(args)
    tag = (
        provenance_for_markov(args.family, tuple(args.param or ())) if args.family else None
    )
    coeffs = parse_coeffs(args.coeffs)

    def row(method, n_or_K, h, asc, intricacy, tail_bound=None, stderr=None):
        return {"source": source, **params, "h_mu": h, "asc_mu": asc, "int_mu": intricacy,
                "method": method, "n_or_K": n_or_K, "tail_bound": tail_bound,
                "stderr": stderr, "provenance": tag}

    rows = []
    # a chain with no series prints the other rows, if any
    if measure.block_len in SERIES_BLOCK_LENS or not (args.n or args.samples > 0):
        series = asc_series_markov(measure, args.terms)
        rows.append(row("series", args.terms, series.h, series.asc, series.intricacy,
                        tail_bound=series.tail_bound))
    for n in args.n or ():
        fin = asc_finite(measure, coeffs, n)
        rows.append(row("finite", n, fin.h, fin.asc, fin.intricacy))
    if args.samples > 0:
        n_mc = (args.n or [16])[-1]
        mc = monte_carlo_asc(measure, n_mc, args.samples, args.seed)
        rows.append(row("mc", n_mc, None, mc.mean, None, stderr=mc.stderr))
    _emit(rows, ["h_mu", "asc_mu", "int_mu", "tail_bound", "stderr"], args.format, args.output)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if (args.input is None) == (args.family is None):
        raise ValueError("exactly one of --input / --family is required")
    if args.output is None:
        raise ValueError("sweep requires --output for the surface table")
    family = (
        _load_json(args.input, family_from_dict) if args.input else builtin_family(args.family)
    )
    result = scan(family, step=args.step, terms=args.terms, objective=args.objective)
    refined = maximize(family, args.objective, result.best_theta, terms=args.terms)

    surface = [
        {
            **dict(zip(family.param_names, pt.theta)),
            "h_mu": pt.h,
            "asc_mu": pt.asc,
            "int_mu": pt.intricacy,
        }
        for pt in result.grid
    ]
    _emit(surface, ["h_mu", "asc_mu", "int_mu"], args.format, args.output)

    summary = [
        {
            "family": family.name,
            "objective": args.objective,
            "step": args.step,
            "terms": args.terms,
            **{f"best_{k}": v for k, v in zip(family.param_names, refined.theta)},
            "value": refined.value,
            "boundary_flag": result.boundary_flag,
            "local_maxima": len(result.local_maxima),
            "skipped": len(result.skipped),
        }
    ]
    _emit(summary, ["value"], args.format, None, [f"best_{k}" for k in family.param_names])
    return EXIT_OK


def _cmd_check(args) -> int:
    # imported here: no other subcommand needs the suites, and start-up
    # would pay for compiling them
    from .properties import run_suites

    reports = run_suites(args.suite, args.max_n)
    failed = False
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        sys.stdout.write(f"{rep.name}: {rep.cases} cases, {len(rep.failures)} failures [{status}]\n")
        for msg in rep.failures[:10]:
            sys.stdout.write(f"  - {msg}\n")
        failed = failed or not rep.passed
    return EXIT_PROPERTY_FAILURE if failed else EXIT_OK


_OUTPUT = [("--output", dict(help="write to this path instead of stdout")),
           ("--format", dict(choices=["csv", "json"], default="csv"))]
# each subcommand's help line, handler and options, as (flag, add_argument keywords)
_SUBCOMMANDS = {
    "topo": ("complexity profile rows per window size", _cmd_topo, [
        ("--input", dict(required=True, help="SFT JSON file")),
        ("--n", dict(type=int, action="append", required=True)),
        ("--block-k", dict(type=int, default=0)),
        ("--coeffs", dict(default="uniform")), *_OUTPUT]),
    "pressure": ("average sample pressure rows", _cmd_pressure, [
        ("--input", dict(required=True, help="SFT JSON file")),
        ("--potential", dict(required=True, help="potential JSON file")),
        ("--n", dict(type=int, action="append", required=True)),
        ("--coeffs", dict(default="uniform")), *_OUTPUT]),
    "markov": ("series / finite / Monte Carlo rows", _cmd_markov, [
        ("--input", dict(help="Markov JSON file")),
        ("--family", dict(help="built-in family name")),
        ("--param", dict(type=float, action="append", help="family parameter (repeatable)")),
        ("--terms", dict(type=int, default=20)),
        ("--n", dict(type=int, action="append")),
        ("--coeffs", dict(default="uniform")),
        ("--samples", dict(type=int, default=0)),
        ("--seed", dict(type=int)), *_OUTPUT]),
    "sweep": ("parameter surface scan plus refinement", _cmd_sweep, [
        ("--family", dict(help="built-in family name")),
        ("--input", dict(help="custom family JSON file")),
        ("--objective", dict(choices=OBJECTIVES, default="asc")),
        ("--step", dict(type=float, default=0.005)),
        ("--terms", dict(type=int, default=20)), *_OUTPUT]),
    "check": ("run the oracle and property suites", _cmd_check, [
        ("--suite", dict(default="all")),
        ("--max-n", dict(type=int, default=8))]),
}


def _with_options(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    for flag, kwargs in _SUBCOMMANDS[name][2]:
        parser.add_argument(flag, **kwargs)
    return parser


@functools.cache
def _own_parser(name: str) -> argparse.ArgumentParser:
    # a request's own parser, built alone on first use: the one the tree holds under name
    return _with_options(_Parser(prog=f"intricacy {name}"), name)


def build_parsers() -> tuple[argparse.ArgumentParser, dict[str, tuple]]:
    """The top-level parser, and the table from each subcommand's name to
    its parser and its handler."""
    parser = _Parser(prog="intricacy", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)
    return parser, {name: (_with_options(sub.add_parser(name, help=text), name), handler)
                    for name, (text, handler, _) in _SUBCOMMANDS.items()}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in _SUBCOMMANDS:
        args = _own_parser(argv[0]).parse_args(argv[1:])
        handler = _SUBCOMMANDS[argv[0]][1]
    else:  # help and usage errors build the whole tree and exit in here
        parser, commands = build_parsers()
        args = parser.parse_args(argv)
        handler = commands[args.subcommand][1]
    try:
        return handler(args)
    except CapExceeded as exc:
        sys.stderr.write(f"intricacy: cap exceeded: {exc}\n")
        return EXIT_CAP
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"intricacy: bad input: {exc}\n")
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
