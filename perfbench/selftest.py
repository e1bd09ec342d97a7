"""Self-tests of the benchmark itself.

Run from the repository root::

    python3 perfbench/selftest.py

- a fixed seed gives an identical job list, another seed a different one;
- every checker passes the real output of a tiny job and flags the same
  output with one value perturbed;
- a tiny run of each workload completes, traced and untraced, and prints
  the result line the driver reads;
- without ``src/`` the benchmark exits non-zero and prints no result;
- README.md names every workload and every per-layer metric.
"""

from __future__ import annotations

import csv
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from checks import check  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402


def test_job_list_is_seeded():
    for name in WORKLOADS:
        a, b = generate(name, 7).as_json(), generate(name, 7).as_json()
        assert a == b, f"{name}: seed 7 gave two job lists"
        assert a != generate(name, 8).as_json(), f"{name}: seeds 7 and 8 agree"


def _bump(text: str, row: int, column: str, delta: float = 2e-3) -> str:
    rows = list(csv.DictReader(io.StringIO(text)))
    value = float(rows[row][column])
    rows[row][column] = f"{value * (1 + delta) + delta:.12g}"
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _perturbations(job, res):
    """(label, perturbed result) pairs for one job's real output."""
    from checks import Result

    def with_stdout(text):
        return Result(res.rc, text, res.stderr, res.error, dict(res.files))

    c = job.check
    if c.get("invalid"):
        yield "exit code", Result(0, res.stdout, res.stderr)
        return
    if job.cmd == "topo":
        for col in ("H_n", "Asc_n", "Int_n"):
            yield col, with_stdout(_bump(res.stdout, 0, col))
    elif job.cmd == "pressure":
        yield "P_classical", with_stdout(_bump(res.stdout, 0, "P_classical"))
        if c.get("pair") or c.get("published"):
            yield "Asp_n", with_stdout(_bump(res.stdout, 0, "Asp_n"))
    elif job.cmd == "markov" and not c.get("same_as"):
        rows = list(csv.DictReader(io.StringIO(res.stdout)))
        for i, row in enumerate(rows):
            # a Monte Carlo mean is only checked to within a few stderr
            delta = 0.05 if row["method"] == "mc" else 2e-3
            yield f"asc_mu row {i}", with_stdout(_bump(res.stdout, i, "asc_mu", delta))
        yield "series h_mu", with_stdout(_bump(res.stdout, 0, "h_mu"))
    elif job.cmd == "markov":
        yield "repeat", with_stdout(_bump(res.stdout, 0, "asc_mu"))
    elif job.cmd == "sweep":
        # lowered below the best grid value the surface holds
        yield "value", with_stdout(_bump(res.stdout, 0, "value", delta=-2e-3))
        surface = dict(res.files)
        surface[c["output"]] = _bump(surface[c["output"]], 0, "asc_mu")
        yield "surface", Result(res.rc, res.stdout, res.stderr, None, surface)
    elif job.cmd == "check":
        yield "suite status", with_stdout(res.stdout.replace(" 0 failures [PASS]",
                                                             " 1 failures [FAIL]", 1))


def test_checkers_flag_perturbed_values():
    import intricacy.cli as cli

    from run import _collect_files, _run_job

    for name in WORKLOADS:
        wl = generate(name, 3, tiny=True)
        work = tempfile.mkdtemp(dir=os.path.join(HERE, "_work"))
        try:
            os.makedirs(os.path.join(work, "out"))
            for fname, text in wl.files.items():
                with open(os.path.join(work, fname), "w", encoding="utf-8") as fh:
                    fh.write(text)
            results = {}
            for job in wl.jobs:
                results[job.id] = _run_job(cli, job, work)[1]
                _collect_files(job, results[job.id], work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        for job in wl.jobs:
            res = results[job.id]
            msgs = check(job, res, results)
            assert not msgs or job.known_defect, f"{job.id} {job.argv}: {msgs}"
            count = 0
            for label, bad in _perturbations(job, res):
                others = dict(results)
                others[job.id] = bad
                assert check(job, bad, others), f"{job.id}: perturbed {label} not flagged"
                count += 1
            assert count, f"{job.id}: no perturbation exercised"


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=600)


def test_tiny_runs_complete():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for name in WORKLOADS:
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            proc = _bench("--workload", name, "--seed", "5", "--seconds", "1",
                          "--trace", trace, "--size", "tiny")
            assert proc.returncode == 0, f"{name} trace={trace}: {proc.stderr[-800:]}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"], f"{name} trace={trace}: {proc.stdout[-800:]}"
            assert set(result["metrics"]) == {m["name"] for m in bench[section]}
            if trace == "1" and name == "markov-grid":
                assert result["metrics"]["masks.product_table_calls"]["value"] == 0
            if trace == "1" and name == "sft-wide":
                assert result["metrics"]["markov.stationary_calls"]["value"] == 0


def test_refuses_without_program():
    bare = tempfile.mkdtemp(dir=os.path.join(HERE, "_work"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cli-mix", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=180)
        assert proc.returncode != 0 and '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_readme_documents_workloads_and_layers():
    with open(os.path.join(HERE, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    missing = [w for w in WORKLOADS if f"`{w}`" not in text]
    missing += [name for name, _, _ in LAYER_METRICS if f"`{name}`" not in text]
    assert not missing, f"README.md does not mention {missing}"


def main() -> int:
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
