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
import io
import json
import sys

from .benchmarks import provenance_for_adjacency, provenance_for_markov
from .coeffs import parse_coeffs
from .errors import CapExceeded
from .markov import MarkovMeasure, asc_finite, asc_series_markov, monte_carlo_asc
from .pressure import Potential, asp_profile, classical_pressure
from .properties import run_suites
from .sft import Sft
from .sweep import builtin_family, family_from_dict, maximize, scan
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


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--output", help="write to this path instead of stdout")
    sp.add_argument("--format", choices=["csv", "json"], default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="intricacy", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    topo = sub.add_parser("topo", help="complexity profile rows per window size")
    topo.add_argument("--input", required=True, help="SFT JSON file")
    topo.add_argument("--n", type=int, action="append", required=True)
    topo.add_argument("--block-k", type=int, default=0)
    topo.add_argument("--coeffs", default="uniform")
    _add_common(topo)

    pressure = sub.add_parser("pressure", help="average sample pressure rows")
    pressure.add_argument("--input", required=True, help="SFT JSON file")
    pressure.add_argument("--potential", required=True, help="potential JSON file")
    pressure.add_argument("--n", type=int, action="append", required=True)
    pressure.add_argument("--coeffs", default="uniform")
    _add_common(pressure)

    markov = sub.add_parser("markov", help="series / finite / Monte Carlo rows")
    markov.add_argument("--input", help="Markov JSON file")
    markov.add_argument("--family", help="built-in family name")
    markov.add_argument("--param", type=float, action="append", default=None,
                        help="family parameter (repeatable)")
    markov.add_argument("--terms", type=int, default=20)
    markov.add_argument("--n", type=int, action="append")
    markov.add_argument("--coeffs", default="uniform")
    markov.add_argument("--samples", type=int, default=0)
    markov.add_argument("--seed", type=int)
    _add_common(markov)

    sweep = sub.add_parser("sweep", help="parameter surface scan plus refinement")
    sweep.add_argument("--family", help="built-in family name")
    sweep.add_argument("--input", help="custom family JSON file")
    sweep.add_argument("--objective", choices=["h", "asc", "int"], default="asc")
    sweep.add_argument("--step", type=float, default=0.005)
    sweep.add_argument("--terms", type=int, default=20)
    _add_common(sweep)

    check = sub.add_parser("check", help="run the oracle and property suites")
    check.add_argument("--suite", default="all")
    check.add_argument("--max-n", type=int, default=8)
    return parser


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _emit(rows: list[dict], float_fields: list[str], args) -> None:
    """Render rows to CSV or JSON.  Floats get 12 significant digits and a
    3-decimal *_rounded sibling column."""
    out_rows = []
    for row in rows:
        rendered: dict[str, object] = {}
        for key, value in row.items():
            if key in float_fields:
                if value is None:
                    rendered[key] = ""
                    rendered[key + "_rounded"] = ""
                else:
                    rendered[key] = _fmt(value)
                    rendered[key + "_rounded"] = f"{value:.3f}"
            else:
                rendered[key] = "" if value is None else value
        out_rows.append(rendered)

    if args.format == "json":
        def relax(v):
            if isinstance(v, str):
                try:
                    return float(v) if ("." in v or "e" in v or v.isdigit()) else v
                except ValueError:
                    return v
            return v

        text = json.dumps(
            [{k: relax(v) for k, v in r.items()} for r in out_rows], indent=2
        ) + "\n"
    else:
        buf = io.StringIO()
        if out_rows:
            writer = csv.DictWriter(buf, fieldnames=list(out_rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(out_rows)
        text = buf.getvalue()

    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_topo(args) -> int:
    sft = Sft.from_dict(_load_json(args.input))
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
    _emit(rows, ["H_n", "Asc_n", "Int_n", "Acc_n", "Alt_n"], args)
    return EXIT_OK


def _cmd_pressure(args) -> int:
    sft = Sft.from_dict(_load_json(args.input))
    f = Potential.from_dict(_load_json(args.potential))
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
    _emit(rows, ["Asp_n", "P_classical"], args)
    return EXIT_OK


def _markov_measure(args) -> tuple[MarkovMeasure, str, dict[str, float]]:
    if (args.input is None) == (args.family is None):
        raise ValueError("exactly one of --input / --family is required")
    if args.input:
        measure = MarkovMeasure.from_dict(_load_json(args.input))
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
    if args.samples > 0 and args.seed is None:
        raise ValueError("--seed is required when --samples > 0")
    measure, source, params = _markov_measure(args)
    tag = (
        provenance_for_markov(args.family, tuple(args.param or ())) if args.family else None
    )
    coeffs = parse_coeffs(args.coeffs)
    base = {"source": source, **params}

    rows = []
    series = asc_series_markov(measure, args.terms)
    rows.append(
        {
            **base,
            "h_mu": series.h,
            "asc_mu": series.asc,
            "int_mu": series.intricacy,
            "method": "series",
            "n_or_K": args.terms,
            "tail_bound": series.tail_bound,
            "stderr": None,
            "provenance": tag,
        }
    )
    for n in args.n or ():
        fin = asc_finite(measure, coeffs, n, with_series=False)
        rows.append(
            {
                **base,
                "h_mu": fin.h,
                "asc_mu": fin.asc,
                "int_mu": fin.intricacy,
                "method": "finite",
                "n_or_K": n,
                "tail_bound": None,
                "stderr": None,
                "provenance": tag,
            }
        )
    if args.samples > 0:
        n_mc = (args.n or [16])[-1]
        mc = monte_carlo_asc(measure, n_mc, args.samples, args.seed)
        rows.append(
            {
                **base,
                "h_mu": None,
                "asc_mu": mc.mean,
                "int_mu": None,
                "method": "mc",
                "n_or_K": n_mc,
                "tail_bound": None,
                "stderr": mc.stderr,
                "provenance": tag,
            }
        )
    _emit(rows, ["h_mu", "asc_mu", "int_mu", "tail_bound", "stderr"], args)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if (args.input is None) == (args.family is None):
        raise ValueError("exactly one of --input / --family is required")
    if args.output is None:
        raise ValueError("sweep requires --output for the surface table")
    family = (
        family_from_dict(_load_json(args.input)) if args.input else builtin_family(args.family)
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
    surface_args = argparse.Namespace(output=args.output, format=args.format)
    _emit(surface, ["h_mu", "asc_mu", "int_mu"], surface_args)

    summary = [
        {
            "family": family.name,
            "objective": args.objective,
            "step": args.step,
            "terms": args.terms,
            **{f"best_{k}": _fmt(v) for k, v in zip(family.param_names, refined.theta)},
            "value": refined.value,
            "boundary_flag": result.boundary_flag,
            "local_maxima": len(result.local_maxima),
            "skipped": len(result.skipped),
        }
    ]
    summary_args = argparse.Namespace(output=None, format=args.format)
    _emit(summary, ["value"], summary_args)
    return EXIT_OK


def _cmd_check(args) -> int:
    reports = run_suites(args.suite, args.max_n)
    failed = False
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        sys.stdout.write(f"{rep.name}: {rep.cases} cases, {len(rep.failures)} failures [{status}]\n")
        for msg in rep.failures[:10]:
            sys.stdout.write(f"  - {msg}\n")
        failed = failed or not rep.passed
    return EXIT_PROPERTY_FAILURE if failed else EXIT_OK


_COMMANDS = {
    "topo": _cmd_topo,
    "pressure": _cmd_pressure,
    "markov": _cmd_markov,
    "sweep": _cmd_sweep,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.subcommand](args)
    except CapExceeded as exc:
        sys.stderr.write(f"intricacy: cap exceeded: {exc}\n")
        return EXIT_CAP
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"intricacy: bad input: {exc}\n")
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
