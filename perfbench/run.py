"""Benchmark for the ``intricacy`` CLI.

Usage, from the repository root::

    python3 perfbench/run.py --workload sft-wide --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0

One process per workload drives ``intricacy.cli.main(argv)`` in-process
with a single closed-loop client: the next job starts when the previous
one returns, and the harness starts no threads of its own.  The job list
and its input files come from ``workloads.generate(name, seed)``; the CLI
runs with its default flags only (no ``--threads``, no
``INTRICACY_CACHE_DIR``).  Every output is checked (``checks.py``).

A run measures whole passes over the job list until ``--seconds`` is
used up (and at least 100 jobs ran), after a warm-up that runs the first
job of each subcommand once.  With ``--trace 0`` it prints the end-to-end
metrics, taken over each job's fastest run; with ``--trace 1`` it
alternates untraced and traced passes and prints the per-layer metrics
(``tracing.py``).  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each job of the
list counts once in ``attempted`` and, if any of its runs fails a check,
once in ``failed``.  A failure of a job flagged as a known defect counts
in ``failed`` but leaves ``correct`` true.

The program is imported from ``src/`` of the working directory; without
it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

MIN_JOBS = 100  # job samples per run, so at least ten lie beyond p90
SETUP_REPEATS = 7

# A fresh interpreter imports the package and the CLI, then parses the
# workload's input files with the program's own loaders: the fixed cost
# every CLI call pays before it computes anything.
_SETUP_CHILD = r"""
import json, os, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import intricacy, intricacy.cli
loaders = {"sft": intricacy.Sft.from_dict, "potential": intricacy.Potential.from_dict,
           "markov": intricacy.MarkovMeasure.from_dict, "family": intricacy.family_from_dict}
for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as fh:
        loaders[os.path.basename(path).split("-")[0]](json.load(fh))
print(time.perf_counter() - t0)
"""


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full",
                   help="tiny: a few small jobs per workload, for the self-tests")
    return p.parse_args(argv)


def _run_job(cli, job, work):
    from checks import Result

    # a fresh interpreter shows each warning once per call site; resetting
    # the filters clears the once-per-site registries between jobs
    warnings.simplefilter("default")
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(job.resolved_argv(work))
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # any other exception is a failed job
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    return elapsed, Result(rc, out.getvalue(), err.getvalue(), error)


def _collect_files(job, res, work):
    """Read (and remove) the output file a job wrote, outside the timing."""
    target = job.check.get("output")
    if target:
        path = target.replace("{work}", work)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                res.files[target] = fh.read()
            os.remove(path)


def run_pass(cli, jobs, work):
    """One pass over the job list: (wall seconds, per-job seconds, results)."""
    gc.collect()
    latencies, results = [], {}
    t0 = time.perf_counter()
    for job in jobs:
        elapsed, res = _run_job(cli, job, work)
        latencies.append(elapsed)
        results[job.id] = res
    wall = time.perf_counter() - t0
    for job in jobs:
        _collect_files(job, results[job.id], work)
    return wall, latencies, results


class Ledger:
    """Check results of every measured pass.

    Each job of the list counts once: it fails when any of its runs fails a
    check.  So ``attempted`` and ``failed`` depend on the job list alone,
    not on how many passes fit into the time, and two runs of one seed
    report the same counts."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.first: dict[str, tuple] = {}
        self.runs = 0
        self.failures: dict[str, dict] = {}  # job id -> first failure

    def record(self, results) -> None:
        from checks import DEFECT, check

        for job in self.jobs:
            res = results[job.id]
            msgs = check(job, res, results)
            fingerprint = (res.rc, res.stdout, tuple(sorted(res.files.items())))
            if self.first.setdefault(job.id, fingerprint) != fingerprint:
                msgs.append("output differs from the first pass")
            self.runs += 1
            if not msgs:
                continue
            known = job.known_defect and all(m.startswith(DEFECT) for m in msgs)
            seen = self.failures.get(job.id)
            if seen is None:
                self.failures[job.id] = {"job": job.id, "argv": job.argv,
                                         "known_defect": job.known_defect if known else None,
                                         "messages": msgs[:5]}
            elif seen["known_defect"] and not known:  # an unexpected failure wins
                seen.update(known_defect=None, messages=msgs[:5])

    @property
    def attempted(self) -> int:
        return len(self.jobs)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def correct(self) -> bool:
        return all(f["known_defect"] for f in self.failures.values())


def measure_setup(root, work, workload, repeats):
    files = [os.path.join(work, name) for name in sorted(workload.files)
             if name.split("-")[0] in ("sft", "potential", "markov", "family")]
    env = {k: v for k, v in os.environ.items() if k not in ("INTRICACY_CACHE_DIR", "PYTHONPATH")}
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", _SETUP_CHILD, os.path.join(root, "src"),
                               *files], capture_output=True, text=True, env=env, timeout=120,
                              check=True, cwd=root)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


# Host speed.  The shared host's speed drifts by up to 1.75x over minutes,
# and a job's fastest run drifts with it.  After every pass the harness
# times a fixed probe that is independent of the program: small numpy
# operations driven from Python, the kind of work most jobs do.  The
# timings are reported at the probe's nominal speed: measured seconds
# times PROBE_NOMINAL_S over the probe's fastest run.  A program that gets
# twice as fast halves them; a host that gets slower leaves them alone.
PROBE_NOMINAL_S = 0.0146  # a fixed reference time; it only sets the scale
PROBE_ROUNDS = 4  # probe runs after each pass
_PROBE_P = None


def probe_once() -> float:
    """Seconds for one run of the host-speed probe."""
    import numpy as np

    global _PROBE_P
    if _PROBE_P is None:
        _PROBE_P = np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [0.3, 0.7, 0.0]])
    t0 = time.perf_counter()
    w, total = np.array([0.2, 0.3, 0.5]), 0.0
    for _ in range(1500):
        w2 = w @ _PROBE_P
        for idx in ((0, 1), (2,)):
            masked = np.zeros_like(w2)
            masked[list(idx)] = w2[list(idx)]
            if masked.any():
                q = masked.sum()
                total -= q * math.log(q)
        w = w2
    elapsed = time.perf_counter() - t0
    if not math.isfinite(total):
        raise RuntimeError("host probe went wrong")
    return elapsed


def _quantile(values, q):
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[q - 1]


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def metadata(args, root):
    import numpy
    import scipy

    model = next((ln.split(":", 1)[1].strip() for ln in _read("/proc/cpuinfo").splitlines()
                  if ln.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for level, var in (("L2", "LEVEL2_CACHE_SIZE"), ("L3", "LEVEL3_CACHE_SIZE")):
        try:
            caches[level] = int(subprocess.run(["getconf", var], capture_output=True,
                                               text=True, timeout=10).stdout.strip())
        except (OSError, ValueError, subprocess.SubprocessError):
            caches[level] = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                cwd=root, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "cpu_model": model,
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),  # the CLI's default --threads
        "l2_bytes_per_instance": caches["L2"],
        "l3_bytes": caches["L3"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit or "unknown (not a git checkout)",
    }


def _warm_up(cli, jobs, work):
    seen = set()
    for job in jobs:
        if job.cmd not in seen and job.expect_rc == 0:
            seen.add(job.cmd)
            _collect_files(job, _run_job(cli, job, work)[1], work)


def run(args, root) -> int:
    from workloads import generate

    workload = generate(args.workload, args.seed, tiny=args.size == "tiny")
    import intricacy
    import intricacy.cli as cli

    if not os.path.abspath(intricacy.__file__).startswith(os.path.join(root, "src") + os.sep):
        print(f"perfbench: imported intricacy from {intricacy.__file__}, not src/",
              file=sys.stderr)
        return 2
    work = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    outdir = os.path.join(HERE, "_out")
    os.makedirs(os.path.join(work, "out"), exist_ok=True)
    os.makedirs(outdir, exist_ok=True)
    try:
        for name, text in workload.files.items():
            with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        return _measure(args, root, workload, cli, work, outdir)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, root, workload, cli, work, outdir) -> int:
    meta = metadata(args, root)
    jobs = workload.jobs
    tiny = args.size == "tiny"
    min_jobs = 1 if tiny else MIN_JOBS
    setup = [] if args.trace else measure_setup(root, work, workload,
                                                1 if tiny else SETUP_REPEATS)
    _warm_up(cli, jobs, work)
    ledger = Ledger(jobs)
    walls, lats = [], []
    begin = time.perf_counter()

    def more(wall):
        if tiny:
            return False
        spent = time.perf_counter() - begin
        return len(lats) < min_jobs or spent + wall <= args.seconds

    wall, lat, results = run_pass(cli, jobs, work)
    walls.append(wall)
    lats += lat
    ledger.record(results)
    best = lat  # each job's fastest run so far
    if args.trace == 0:
        probes = [probe_once() for _ in range(PROBE_ROUNDS)]
        while more(wall):
            wall, lat, results = run_pass(cli, jobs, work)
            walls.append(wall)
            lats += lat
            best = [min(a, b) for a, b in zip(best, lat)]
            ledger.record(results)
            probes += [probe_once() for _ in range(PROBE_ROUNDS)]
        # The host's speed also swings by up to 1.9x from one pass to the
        # next, so a median over passes moves with the share of slow phases
        # a run happens to catch.  Each job's fastest run, like the probe's,
        # is its time when no neighbour loads the core; the job list's time
        # and the latency quantiles are taken over those.
        passes = len(walls)
        scale = PROBE_NOMINAL_S / min(probes)
        raw = {"wall_s": math.fsum(best), "job_p50_ms": _quantile(best, 50) * 1e3,
               "job_p90_ms": _quantile(best, 90) * 1e3, "setup_s": statistics.median(setup)}
        meta["host"] = {"probe_best_s": min(probes), "probe_runs": len(probes),
                        "scale": scale, "unscaled": raw}
        metrics = {
            "wall_s": (raw["wall_s"] * scale, "s", passes),
            "job_p50_ms": (raw["job_p50_ms"] * scale, "ms", len(best)),
            "job_p90_ms": (raw["job_p90_ms"] * scale, "ms", len(best)),
            "setup_s": (raw["setup_s"] * scale, "s", len(setup)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB", 1),
        }
        spans_path = None
    else:
        from tracing import LAYER_METRICS, Tracer

        # untraced and traced passes alternate, so host drift hits both sides
        # of the overhead alike
        tracer = Tracer()
        traced = []
        while True:
            first_span = tracer.span_count()
            tracer.install()
            try:
                wall, lat, results = run_pass(cli, jobs, work)
            finally:
                tracer.uninstall()
            traced.append(wall)
            lats += lat
            ledger.record(results)
            if not more(wall):
                break
            wall, lat, results = run_pass(cli, jobs, work)
            walls.append(wall)
            lats += lat
            ledger.record(results)
        layer = tracer.metrics(len(traced), statistics.median(traced),
                               statistics.median(walls), sum(traced))
        units = {name: unit for name, unit, _ in LAYER_METRICS}
        metrics = {k: (v, units[k], len(traced)) for k, v in layer.items()}
        meta["absent"] = tracer.absent
        spans_path = os.path.join(outdir, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.dump(spans_path, first_span)
    attempted, failed = ledger.attempted, ledger.failed
    meta["metrics"] = {k: {"unit": u, "samples": s} for k, (_, u, s) in metrics.items()}

    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"jobs={len(jobs)} passes={len(lats) // len(jobs)}")
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit:6s} n={samples}")
    if args.trace == 0:
        host = meta["host"]
        print(f"# at the measured host speed: " + ", ".join(
            f"{k} {v:.6g}" for k, v in host["unscaled"].items())
            + f", pass median {statistics.median(walls):.6g} s; probe best "
            f"{host['probe_best_s'] * 1e3:.4g} ms (nominal {PROBE_NOMINAL_S * 1e3:.4g} ms)")
    print(f"{'fail_frac':32s} {failed / attempted:14.6g} {'ratio':6s} n={attempted}")
    for f in ledger.failures.values():
        label = "known defect" if f["known_defect"] else "UNEXPECTED"
        print(f"# failed [{label}] {f['job']}: {f['messages'][0][:160]}")
    record = {
        "meta": meta,
        "metrics": {k: {"value": v, "unit": u, "samples": s} for k, (v, u, s) in metrics.items()},
        "fail_frac": failed / attempted,
        "pass_walls": walls,
        "traced_pass_walls": traced if args.trace else [],
        "job_runs": ledger.runs,
        "failures": list(ledger.failures.values()),
        "spans": spans_path and os.path.relpath(spans_path, root),
    }
    record_path = os.path.join(outdir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


def run_all(args, root) -> int:
    """Each workload in its own process, then one table of every metric."""
    from workloads import WORKLOADS

    rows, rc = [], 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=root)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode:
            rc = proc.returncode
            continue
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    for name, res in rows:
        print(f"== {name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} fail_frac={res['failed'] / res['attempted']:.4g}")
    print(json.dumps({"workloads": dict(rows)}))
    return rc


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "intricacy", "cli.py")):
        print("perfbench: src/intricacy not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    os.environ.pop("INTRICACY_CACHE_DIR", None)
    if args.workload == "all":
        return run_all(args, root)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {WORKLOADS}",
              file=sys.stderr)
        return 2
    return run(args, root)


if __name__ == "__main__":
    sys.exit(main())
