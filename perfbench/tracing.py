"""Span and counter tracing installed from outside the package.

``Tracer.install`` replaces each layer's public functions with wrappers
that record a span (name, thread, start, end, parent) and the layer's
work counters.  Because the package binds names with ``from .x import y``,
every module attribute that holds the same function object is replaced,
e.g. both ``intricacy.topo.finite_profile`` and
``intricacy.cli.finite_profile``.  A name that no longer exists is listed
as absent rather than failing the run.

Spans live in flat in-memory arrays and are written out once, at the end
of the run.  A span opened on a worker thread with no open span of its
own is parented to the innermost open span of the client thread, which
is the ``sweep.scan`` call that submitted the work to its pool.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import threading
import time
import warnings
from array import array
from collections import defaultdict

# (span name, module, attribute) for every traced function.  The span name
# prefix is the layer; ``masks`` is the ``_masks`` module.
SPANS = [
    ("cli.main", "intricacy.cli", "main"),
    ("cli.emit", "intricacy.cli", "_emit"),
    ("coeffs.weights_row", "intricacy.coeffs", "CoefficientSystem.weights_row"),
    ("masks.product_table", "intricacy._masks", "product_table"),
    ("masks.additive_gap_table", "intricacy._masks", "additive_gap_table"),
    ("masks.dilate", "intricacy._masks", "dilate_masks"),
    ("sft.reach", "intricacy.sft", "Sft.reach"),
    ("sft.topological_entropy", "intricacy.sft", "Sft.topological_entropy"),
    ("topo.finite_profile", "intricacy.topo", "finite_profile"),
    ("pressure.asp_profile", "intricacy.pressure", "asp_profile"),
    ("pressure.classical_pressure", "intricacy.pressure", "classical_pressure"),
    ("markov.measure_init", "intricacy.markov", "MarkovMeasure.__init__"),
    ("markov.stationary", "intricacy.markov", "stationary"),
    ("markov.power", "intricacy.markov", "MarkovMeasure.power"),
    ("markov.gap_entropy", "intricacy.markov", "gap_conditional_entropy"),
    ("markov.gap_entropy", "intricacy.markov", "_gap_step_entropy"),
    ("markov.series", "intricacy.markov", "asc_series_markov"),
    ("markov.asc_finite", "intricacy.markov", "asc_finite"),
    ("markov.joint_entropy", "intricacy.markov", "sampled_joint_entropy"),
    ("markov.mc", "intricacy.markov", "monte_carlo_asc"),
    ("sweep.scan", "intricacy.sweep", "scan"),
    ("sweep.maximize", "intricacy.sweep", "maximize"),
    ("properties.run_suites", "intricacy.properties", "run_suites"),
]

# Per-layer metrics: name, unit, and the end-to-end metric and workload it
# should move.  Times and counts are per pass over the job list.
LAYER_METRICS = [
    ("cli.main_s", "s", "self time; job_p50_ms on cli-mix"),
    ("cli.emit_s", "s", "job_p50_ms on cli-mix; wall_s on markov-grid (surface CSVs)"),
    ("cli.rows_out", "count", "job_p50_ms on cli-mix; wall_s on markov-grid"),
    ("cli.bytes_out", "B", "job_p50_ms on cli-mix; wall_s on markov-grid"),
    ("coeffs.weights_row_s", "s", "job_p50_ms on cli-mix"),
    ("coeffs.weights_row_calls", "count", "job_p50_ms on cli-mix"),
    ("masks.product_table_s", "s", "wall_s, job_p90_ms, peak_rss_mb on sft-wide; 0 on markov-grid"),
    ("masks.product_table_calls", "count", "sft-wide; predicted 0 on markov-grid"),
    ("masks.table_entries", "count", "sum of 2^n over tables; sft-wide"),
    ("masks.bytes_computed", "B", "sum of 2^n r 8 computed (not measured traffic); sft-wide"),
    ("masks.additive_gap_table_s", "s", "job_p90_ms on cli-mix (1-step finite rows)"),
    ("masks.dilate_s", "s", "wall_s on sft-wide"),
    ("masks.warnings", "count", "fail_frac on sft-wide (matmul overflow)"),
    ("sft.reach_s", "s", "job_p50_ms on sft-wide and cli-mix"),
    ("sft.reach_calls", "count", "base of sft.reach_hit_ratio"),
    ("sft.reach_hit_ratio", "ratio", "gap cached before the call / sft.reach_calls"),
    ("sft.topological_entropy_s", "s", "job_p50_ms on sft-wide and cli-mix"),
    ("topo.finite_profile_s", "s", "self time (gather, complement, reductions); wall_s on sft-wide"),
    ("pressure.asp_profile_s", "s", "wall_s on sft-wide"),
    ("pressure.classical_pressure_s", "s", "wall_s and fail_frac on sft-wide"),
    ("pressure.warnings", "count", "fail_frac on sft-wide"),
    ("markov.measure_init_s", "s", "self time; wall_s on markov-grid; 0 on sft-wide"),
    ("markov.stationary_s", "s", "wall_s on markov-grid"),
    ("markov.stationary_calls", "count", "markov-grid; predicted 0 on sft-wide"),
    ("markov.power_s", "s", "wall_s on markov-grid"),
    ("markov.power_calls", "count", "base of markov.power_hit_ratio"),
    ("markov.power_hit_ratio", "ratio", "power cached before the call / markov.power_calls"),
    ("markov.gap_entropy_s", "s", "wall_s on markov-grid"),
    ("markov.series_s", "s", "wall_s on markov-grid"),
    ("markov.warnings", "count", "wall_s on markov-grid"),
    ("markov.asc_finite_s", "s", "job_p90_ms on cli-mix"),
    ("markov.joint_entropy_s", "s", "job_p90_ms on cli-mix"),
    ("markov.joint_entropy_calls", "count", "job_p90_ms on cli-mix"),
    ("markov.mc_s", "s", "job_p90_ms on cli-mix"),
    ("markov.mc_samples_per_s", "1/s", "job_p90_ms on cli-mix"),
    ("sweep.scan_s", "s", "self time; wall_s on markov-grid"),
    ("sweep.points", "count", "grid points evaluated; wall_s on markov-grid"),
    ("sweep.points_skipped", "count", "grid points that failed to build"),
    ("sweep.points_per_s", "1/s", "sweep.points / scan wall time; wall_s on markov-grid"),
    ("sweep.parallelism", "ratio", "busy time of scan children / scan wall time"),
    ("sweep.maximize_s", "s", "job_p90_ms on markov-grid"),
    ("sweep.nm_iterations", "count", "job_p90_ms on markov-grid"),
    ("properties.run_suites_s", "s", "job_p90_ms on cli-mix"),
    ("properties.cases", "count", "job_p90_ms on cli-mix"),
    ("trace.wall_s", "s", "median traced pass over the job list"),
    ("trace.overhead_s", "s", "traced wall_s minus untraced wall_s"),
    ("trace.uncovered_frac", "ratio", "share of traced wall_s outside every span"),
    ("trace.cli_self_frac", "ratio", "share of traced wall_s in cli.main outside deeper spans"),
    ("trace.spans", "count", "spans recorded per pass"),
]

_SELF_TIME = {"cli.main", "topo.finite_profile", "markov.measure_init", "sweep.scan"}


def _arg(fn, name, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments.get(name)


# Counter probes: (before(args, kwargs) -> state, after(counts, args, kwargs, result, state))
def _probe_product_table(fn):
    def after(counts, args, kwargs, result, state):
        n_bits = _arg(fn, "n_bits", args, kwargs)
        r = len(_arg(fn, "init", args, kwargs))
        counts["masks.table_entries"] += 2**n_bits
        counts["masks.bytes_computed"] += 2**n_bits * r * 8
    return None, after


def _probe_cached(attr, counter):
    def before(args, kwargs):
        key = args[1] if len(args) > 1 else next(iter(kwargs.values()), None)
        return key in getattr(args[0], attr, {})

    def after(counts, args, kwargs, result, hit):
        counts[counter] += bool(hit)
    return before, after


def _probe_emit(fn):
    def before(args, kwargs):
        return sys.stdout.tell() if hasattr(sys.stdout, "tell") else 0

    def after(counts, args, kwargs, result, pos):
        rows = _arg(fn, "rows", args, kwargs)
        target = getattr(_arg(fn, "args", args, kwargs), "output", None)
        counts["cli.rows_out"] += len(rows)
        if target:
            counts["cli.bytes_out"] += os.path.getsize(target)
        elif hasattr(sys.stdout, "tell"):
            counts["cli.bytes_out"] += sys.stdout.tell() - pos
    return before, after


def _probe_result(counter, value):
    def after(counts, args, kwargs, result, state):
        for name, v in zip(counter, value(result, args, kwargs)):
            counts[name] += v
    return None, after


def _probes(name, fn):
    if name == "masks.product_table":
        return _probe_product_table(fn)
    if name == "sft.reach":
        return _probe_cached("_reach", "sft.reach_hits")
    if name == "markov.power":
        return _probe_cached("_powers", "markov.power_hits")
    if name == "cli.emit":
        return _probe_emit(fn)
    if name == "sweep.scan":
        return _probe_result(("sweep.points", "sweep.points_skipped"),
                             lambda r, a, k: (len(r.grid) + len(r.skipped), len(r.skipped)))
    if name == "sweep.maximize":
        return _probe_result(("sweep.nm_iterations",), lambda r, a, k: (r.iterations,))
    if name == "properties.run_suites":
        return _probe_result(("properties.cases",), lambda r, a, k: (sum(x.cases for x in r),))
    if name == "markov.mc":
        return _probe_result(("markov.mc_samples",),
                             lambda r, a, k: (_arg(fn, "samples", a, k),))
    return None, None


def _safe(probe, *args):
    """Run a counter probe; a probe that no longer fits the program (renamed
    argument, changed result type) counts nothing instead of failing the job."""
    try:
        return probe(*args)
    except (AttributeError, TypeError, KeyError, ValueError, OSError):
        return None


def _resolve(module, attr):
    owner = sys.modules.get(module)
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, parts[-1]):
        return None, None
    return owner, parts[-1]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.t0 = array("d")
        self.t1 = array("d")
        self.nid = array("i")
        self.parent = array("l")
        self.tid = array("l")
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._threads: dict[int, int] = {}
        self._showwarning = None

    # -- spans -----------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, nid: int) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else -1
        ident = threading.get_ident()
        with self._lock:
            tix = self._threads.setdefault(ident, len(self._threads))
            idx = len(self.t0)
            self.t0.append(time.perf_counter())
            self.t1.append(0.0)
            self.nid.append(nid)
            self.parent.append(parent)
            self.tid.append(tix)
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.t1[idx] = time.perf_counter()
        self._stack().pop()

    def _wrap(self, name: str, fn):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        before, after = _probes(name, fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = _safe(before, args, kwargs) if before else None
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after:
                _safe(after, tracer.counts, args, kwargs, result, state)
            return result

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every binding site of every traced function, and count the
        warnings each module shows."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "intricacy" or k.startswith("intricacy."))]
        self.absent = []
        for name, module, attr in SPANS:
            owner, leaf = _resolve(module, attr)
            if owner is None:
                self.absent.append(f"{module}.{attr}")
                continue
            original = owner.__dict__.get(leaf, getattr(owner, leaf))
            wrapped = self._wrap(name, original)
            if isinstance(owner, type):
                self._patches.append((owner, leaf, original))
                setattr(owner, leaf, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)
        self._showwarning = warnings.showwarning
        package = os.path.dirname(sys.modules["intricacy"].__file__)

        def count_warning(message, category, filename, lineno, file=None, line=None):
            if os.path.dirname(filename) == package:
                layer = os.path.splitext(os.path.basename(filename))[0].lstrip("_")
            else:
                layer = "other"
            self.counts[f"{layer}.warnings"] += 1
            self._showwarning(message, category, filename, lineno, file, line)

        warnings.showwarning = count_warning

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []
        if self._showwarning is not None:
            warnings.showwarning = self._showwarning
            self._showwarning = None

    # -- reduction -------------------------------------------------------

    def span_count(self) -> int:
        return len(self.t0)

    def metrics(self, passes: int, traced_wall: float, untraced_wall: float,
                traced_total: float) -> dict[str, float]:
        """Per-layer metrics per pass over the job list.  ``traced_total``
        is the summed wall time of the traced passes."""
        n = len(self.t0)
        names = [self.names[i] for i in self.nid]
        dur = [self.t1[i] - self.t0[i] for i in range(n)]
        children: dict[int, list[int]] = defaultdict(list)
        for i in range(n):
            if self.parent[i] >= 0:
                children[self.parent[i]].append(i)
        total = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        child_busy = defaultdict(float)
        root_time = 0.0
        for i in range(n):
            name = names[i]
            total[name] += dur[i]
            calls[name] += 1
            if self.parent[i] < 0:
                root_time += dur[i]
            kids = children.get(i)
            if name in _SELF_TIME or kids:
                covered = 0.0
                if kids:
                    # union of child intervals clipped to this span; children on
                    # pool threads may overlap each other
                    ivs = sorted((max(self.t0[k], self.t0[i]), min(self.t1[k], self.t1[i]))
                                 for k in kids)
                    start, end = ivs[0]
                    for a, b in ivs[1:]:
                        if a > end:
                            covered += end - start
                            start, end = a, b
                        else:
                            end = max(end, b)
                    covered += end - start
                    child_busy[name] += sum(dur[k] for k in kids)
                own[name] += dur[i] - covered
            else:
                own[name] += dur[i]
        c = self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        m = {
            "cli.main_s": own["cli.main"],
            "cli.emit_s": total["cli.emit"],
            "cli.rows_out": c["cli.rows_out"],
            "cli.bytes_out": c["cli.bytes_out"],
            "coeffs.weights_row_s": total["coeffs.weights_row"],
            "coeffs.weights_row_calls": calls["coeffs.weights_row"],
            "masks.product_table_s": total["masks.product_table"],
            "masks.product_table_calls": calls["masks.product_table"],
            "masks.table_entries": c["masks.table_entries"],
            "masks.bytes_computed": c["masks.bytes_computed"],
            "masks.additive_gap_table_s": total["masks.additive_gap_table"],
            "masks.dilate_s": total["masks.dilate"],
            "masks.warnings": c["masks.warnings"],
            "sft.reach_s": total["sft.reach"],
            "sft.reach_calls": calls["sft.reach"],
            "sft.reach_hit_ratio": ratio(c["sft.reach_hits"], calls["sft.reach"]),
            "sft.topological_entropy_s": total["sft.topological_entropy"],
            "topo.finite_profile_s": own["topo.finite_profile"],
            "pressure.asp_profile_s": total["pressure.asp_profile"],
            "pressure.classical_pressure_s": total["pressure.classical_pressure"],
            "pressure.warnings": c["pressure.warnings"],
            "markov.measure_init_s": own["markov.measure_init"],
            "markov.stationary_s": total["markov.stationary"],
            "markov.stationary_calls": calls["markov.stationary"],
            "markov.power_s": total["markov.power"],
            "markov.power_calls": calls["markov.power"],
            "markov.power_hit_ratio": ratio(c["markov.power_hits"], calls["markov.power"]),
            "markov.gap_entropy_s": total["markov.gap_entropy"],
            "markov.series_s": total["markov.series"],
            "markov.warnings": c["markov.warnings"],
            "markov.asc_finite_s": total["markov.asc_finite"],
            "markov.joint_entropy_s": total["markov.joint_entropy"],
            "markov.joint_entropy_calls": calls["markov.joint_entropy"],
            "markov.mc_s": total["markov.mc"],
            "markov.mc_samples_per_s": ratio(c["markov.mc_samples"], total["markov.mc"]),
            "sweep.scan_s": own["sweep.scan"],
            "sweep.points": c["sweep.points"],
            "sweep.points_skipped": c["sweep.points_skipped"],
            "sweep.points_per_s": ratio(c["sweep.points"], total["sweep.scan"]),
            "sweep.parallelism": ratio(child_busy["sweep.scan"], total["sweep.scan"]),
            "sweep.maximize_s": total["sweep.maximize"],
            "sweep.nm_iterations": c["sweep.nm_iterations"],
            "properties.run_suites_s": total["properties.run_suites"],
            "properties.cases": c["properties.cases"],
            "trace.spans": n,
        }
        ratios = {k for k, unit, _ in LAYER_METRICS if unit in ("ratio", "1/s")}
        out = {k: (v if k in ratios else v / passes) for k, v in m.items()}
        out["trace.wall_s"] = traced_wall
        out["trace.overhead_s"] = traced_wall - untraced_wall
        out["trace.uncovered_frac"] = ratio(traced_total - root_time, traced_total)
        out["trace.cli_self_frac"] = ratio(own["cli.main"], traced_total)
        return out

    def dump(self, path: str, first: int = 0) -> None:
        """Write the spans from index ``first`` on as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "absent": self.absent}) + "\n")
            for i in range(first, len(self.t0)):
                fh.write(f"[{self.nid[i]},{self.tid[i]},{self.t0[i]:.9f},"
                         f"{self.t1[i]:.9f},{self.parent[i]}]\n")
