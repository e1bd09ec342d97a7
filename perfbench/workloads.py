"""Seeded workload generator.

Each workload is a fixed list of CLI jobs plus the input files they read.
The generator only writes JSON inputs and argv lists; the program under
test sees nothing else.  Every job also carries the data its output
checker needs (reference matrices, expected exit code, published cells).

Costs are kept the same from seed to seed: each workload is a table of
*slots* whose window sizes, alphabet sizes, grid steps and sample counts
are fixed, and the seed only picks values inside a slot (which matrix of
that size, which weights, which potential, which objective, job order).
That keeps ``wall_s`` comparable across seeds while the inputs still vary.

Why each workload exists (see README.md for the full layer map):

- ``sft-wide``: wide windows (n = 16..21, n + block_k - 1 <= 22) where the
  2^n mask tables (``_masks.product_table``, ``Sft.reach``) and the
  ``topo`` reductions do nearly all the work; tables run from ~1 MB to
  ~100 MB, across the L2 and L3 sizes.  ``markov`` and ``sweep`` stay idle.
  Windows with n + block_k - 1 > 22 take the per-mask pure-Python path
  (minutes per job) and are left out to bound the run length.
- ``markov-grid``: ``sweep`` jobs over thousands of tiny chains, where the
  per-point overhead (measure construction, stationary solve, matrix
  powers, thread pool, Nelder-Mead) dominates.  ``_masks`` stays idle.
  Not listed in BENCHMARK.json while the scan thread pool makes its
  timings noisy (README.md).
- ``cli-mix``: many small requests over all five subcommands, including
  deliberately invalid ones; tables fit in cache and per-call overhead
  (argparse, weight rows, provenance lookup, output rendering) carries
  real weight.  Only workload for the ``cli`` and ``properties`` layers.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

WORKLOADS = ("sft-wide", "markov-grid", "cli-mix")

# Jobs flagged with one of these labels hit a defect already known when the
# benchmark was written; they stay in the workload and count as failed
# while the defect lasts.  Only the checks that the defect breaks (their
# messages start with checks.DEFECT) are excused; any other failure makes
# the run incorrect.
DEFECT_EXTREME_POTENTIAL = (
    "ROADMAP item 4: classical pressure / asp wrong or non-finite for |f| >= 20"
)
DEFECT_MC_WINDOW_BIAS = (
    "Monte Carlo stderr omits the O(1/n) window bias; rows can miss the series "
    "by more than 3 stderr + 0.01"
)


WORK = "{work}"  # placeholder for the run's scratch directory in argv


@dataclass
class Job:
    id: str
    cmd: str
    argv: list[str]
    expect_rc: int = 0
    check: dict = field(default_factory=dict)
    known_defect: str | None = None

    def resolved_argv(self, work: str) -> list[str]:
        return [a.replace(WORK, work) for a in self.argv]


@dataclass
class Workload:
    name: str
    seed: int
    jobs: list[Job]
    files: dict[str, str]  # file name in the work dir -> text

    def as_json(self) -> str:
        return json.dumps(
            {"name": self.name, "seed": self.seed,
             "jobs": [asdict(j) for j in self.jobs], "files": self.files},
            sort_keys=True,
        )


# ---------------------------------------------------------------------------
# shift generators


def _primitive(A: np.ndarray) -> bool:
    """Irreducible and aperiodic: some power up to Wielandt's bound is positive."""
    r = A.shape[0]
    if not (A.sum(axis=0).all() and A.sum(axis=1).all()):
        return False
    M = (A > 0).astype(np.int64)
    P = M.copy()
    for _ in range((r - 1) ** 2 + 1):
        if P.all():
            return True
        P = ((P @ M) > 0).astype(np.int64)
    return bool(P.all())


def _random_primitive(rng: np.random.Generator, r: int) -> list[list[int]]:
    while True:
        density = rng.uniform(0.35, 0.8)
        A = (rng.random((r, r)) < density).astype(np.int64)
        if _primitive(A):
            return A.tolist()


def recode_forbidden(alphabet: int, words: list[str]) -> tuple[np.ndarray, list[int]]:
    """Vertex graph of the shift avoiding ``words`` (all of one length L >= 2):
    vertices are the (L-1)-blocks, edges the admissible L-blocks.  Returns
    the adjacency and the first symbol of each vertex."""
    L = len(words[0])
    bad = set(words)
    blocks = [()]
    for _ in range(L - 1):
        blocks = [b + (a,) for b in blocks for a in range(alphabet)]
    blocks = [b for b in blocks if "".join(map(str, b)) not in bad]
    index = {b: i for i, b in enumerate(blocks)}
    A = np.zeros((len(blocks), len(blocks)), dtype=np.int64)
    for b in blocks:
        for a in range(alphabet):
            word = "".join(map(str, b + (a,)))
            succ = b[1:] + (a,)
            if word not in bad and succ in index:
                A[index[b], index[succ]] = 1
    return A, [b[0] for b in blocks]


def _forbidden_shift(rng: np.random.Generator, vertices: int) -> tuple[dict, np.ndarray, list[int]]:
    """Forbidden-word shift whose vertex graph has ``vertices`` vertices and
    is primitive: length-2 words on that many symbols, or, for 4 vertices,
    sometimes length-3 words on the binary alphabet."""
    while True:
        if vertices == 4 and rng.random() < 0.5:
            alphabet, L = 2, 3
        else:
            alphabet, L = vertices, 2
        all_words = ["".join(str(int(x)) for x in np.unravel_index(i, (alphabet,) * L))
                     for i in range(alphabet**L)]
        k = int(rng.integers(1, max(2, len(all_words) // 3) + 1))
        words = sorted(rng.choice(all_words, size=k, replace=False).tolist())
        A, labels = recode_forbidden(alphabet, words)
        if A.shape[0] == vertices and _primitive(A):
            return {"alphabet_size": alphabet, "forbidden_words": words}, A, labels


def _published_shifts():
    from intricacy.benchmarks import SFT_BENCHMARKS

    return [(b.tag, [list(row) for row in b.adjacency]) for b in SFT_BENCHMARKS]


def expected_tag(adjacency, prefer: str | None = None) -> str | None:
    """Registry tag a row on this adjacency must carry (first match, or the
    first match with the ``prefer`` prefix)."""
    from intricacy.benchmarks import SFT_BENCHMARKS

    A = np.asarray(adjacency)
    hits = [b.tag for b in SFT_BENCHMARKS
            if np.asarray(b.adjacency).shape == A.shape and np.array_equal(A, b.adjacency)]
    preferred = [t for t in hits if prefer and t.startswith(prefer)]
    return (preferred or hits or [None])[0]


def markov_tag(family: str, theta) -> str | None:
    """Registry tag of a family at a published parameter point."""
    from intricacy.benchmarks import MARKOV_BENCHMARKS

    return next((b.tag for b in MARKOV_BENCHMARKS if b.family == family
                 and len(b.theta) == len(theta)
                 and all(abs(a - t) <= 1e-9 for a, t in zip(b.theta, theta))), None)


def _coeffs(rng: np.random.Generator, kinds=("uniform", "neural", "psym", "measure")) -> str:
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "psym":
        return f"psym:{rng.uniform(0.05, 0.45):.3f}"
    if kind == "measure":
        x = rng.uniform(0.05, 0.45)
        return f"measure:{x:.3f}=0.25;lebesgue=0.5"
    return kind


class _Builder:
    """Accumulates files and jobs of one workload."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.rng = np.random.Generator(np.random.PCG64([seed, WORKLOADS.index(name)]))
        self.files: dict[str, str] = {}
        self.jobs: list[Job] = []

    def file(self, stem: str, payload) -> str:
        name = f"{stem}-{len(self.files):03d}.json"
        self.files[name] = payload if isinstance(payload, str) else json.dumps(payload)
        return f"{WORK}/{name}"

    def add(self, cmd: str, argv: list[str], **kw) -> Job:
        job = Job(f"{self.name}/{len(self.jobs):03d}", cmd, [cmd, *argv], **kw)
        self.jobs.append(job)
        return job

    def published(self, A) -> dict:
        """A published 3-symbol shift, in the form ``shift`` returns."""
        return {"path": self.file("sft", {"alphabet_size": 3, "adjacency": A}), "A": A,
                "labels": [0, 1, 2], "alphabet": 3,
                "tag": expected_tag(A), "ptag": expected_tag(A, "pressure-pair")}

    def shift(self, r: int) -> dict:
        """A shift with r vertices: published (r = 3 only), random primitive
        0/1 matrix, or forbidden words.  Returns the file path and the
        vertex graph the checkers use."""
        kinds = ["random", "forbidden"] + (["published"] if r == 3 else [])
        kind = kinds[int(self.rng.integers(len(kinds)))]
        if kind == "published":
            pub = _published_shifts()
            return self.published(pub[int(self.rng.integers(len(pub)))][1])
        if kind == "random":
            A = _random_primitive(self.rng, r)
            payload = {"alphabet_size": r, "adjacency": A}
            labels, alphabet = list(range(r)), r
        else:
            payload, A, labels = _forbidden_shift(self.rng, r)
            A = A.tolist()
            alphabet = payload["alphabet_size"]
        # recoded forbidden-word shifts are tagged too when their vertex
        # graph happens to equal a published matrix
        return {
            "path": self.file("sft", payload),
            "A": A,
            "labels": labels,
            "alphabet": alphabet,
            "tag": expected_tag(A),
            "ptag": expected_tag(A, "pressure-pair"),
        }

    def topo(self, sft: dict, ns: list[int], block_k: int, coeffs: str) -> Job:
        argv = ["--input", sft["path"]]
        for n in ns:
            argv += ["--n", str(n)]
        argv += ["--block-k", str(block_k), "--coeffs", coeffs]
        return self.add("topo", argv, check={
            "A": sft["A"], "ns": ns, "block_k": block_k, "coeffs": coeffs, "tag": sft["tag"]})

    def pressure(self, sft: dict, n: int, coeffs: str, values: dict[int, float],
                 pair: str | None = None, const: float | None = None) -> Job:
        path = self.file("potential", {"values": {str(k): v for k, v in values.items()}})
        extreme = max(abs(v) for v in values.values()) >= 20
        return self.add(
            "pressure",
            ["--input", sft["path"], "--potential", path, "--n", str(n), "--coeffs", coeffs],
            check={"A": sft["A"], "labels": sft["labels"], "n": n, "coeffs": coeffs,
                   "f": {str(k): v for k, v in values.items()}, "tag": sft["ptag"],
                   "pair": pair, "const": const},
            known_defect=DEFECT_EXTREME_POTENTIAL if extreme else None,
        )

    def potential(self, sft: dict, kind: str) -> tuple[dict[int, float], float | None]:
        syms = range(sft["alphabet"])
        if kind == "zero":
            return {s: 0.0 for s in syms}, 0.0
        if kind == "const":
            c = round(float(self.rng.uniform(-3, 3)), 3)
            return {s: c for s in syms}, c
        if kind.startswith("const"):  # const-100, const-neg800: over- and underflow
            c = float(kind[6:].replace("neg", "-"))
            return {s: c for s in syms}, c
        if kind == "random":
            return {s: round(float(self.rng.uniform(-3, 3)), 3) for s in syms}, None
        raise ValueError(kind)

    def extreme_pressure(self, n: int, self_loop: bool) -> Job:
        """Published shift with f in {20, 30} on one symbol: on a symbol with a
        self-loop the power iteration converges; on one without, the weighted
        matrix is nearly periodic and the classical pressure comes out wrong
        (ROADMAP item 4)."""
        pub = _published_shifts()
        choices = [(A, s) for _, A in pub for s in range(3) if bool(A[s][s]) == self_loop]
        A, sym = choices[int(self.rng.integers(len(choices)))]
        sft = self.published(A)
        f = {s: 0.0 for s in range(3)}
        f[sym] = float(self.rng.choice([20.0, 30.0]))
        return self.pressure(sft, n, _coeffs(self.rng), f)

    def finish(self) -> Workload:
        order = self.rng.permutation(len(self.jobs))
        jobs = [self.jobs[i] for i in order]
        return Workload(self.name, self.seed, jobs, self.files)


# ---------------------------------------------------------------------------
# sft-wide

# (n values, block_k, vertices): topo slots; the seed fills in shift and weights.
# Over half of all jobs cost about as much as an n = 16 table, so the median
# job lies inside that cluster, a few jobs below the step up to n = 17,
# whichever shifts the seed draws.
_SFT_TOPO_SLOTS = (
    [([16], 0, 3)] * 10 + [([16], 0, 4)] * 4 + [([16], 0, 5)] + [([16], 0, 6)] * 2
    + [([16], 1, 3), ([16], 1, 4), ([16], 2, 4), ([16, 17], 0, 3)]
    + [([17], 0, 3)] * 2 + [([17], 0, 5), ([17], 2, 3)]
    + [([18], 0, 3), ([18], 0, 4), ([18], 3, 3)]
    + [([19], 0, 3), ([19], 2, 3)]
    + [([20], 0, 3), ([20], 3, 3)]
    + [([21], 0, 3)]
)
# (n, vertices, potential kind): pressure slots.  The extreme slots are
# fixed so that their cost does not change with the seed: the non-converging
# power iteration costs ~0.13 s per call and the -800 potential is refused
# before any table is built.
_SFT_PRESSURE_SLOTS = (
    [(16, 3, "random")] * 3 + [(16, 4, "random"), (16, 5, "random"), (17, 3, "random"),
                               (18, 3, "random"), (19, 3, "random")]
    + [(16, 3, "extreme-loop"), (16, 3, "extreme-noloop"), (17, 3, "extreme-noloop"),
       (20, 3, "extreme-noloop"), (16, 4, "const-100"), (16, 3, "const-neg800")]
)
_SFT_PAIRED = 4  # topo slots (n = 16/17, block_k 0) that get zero/const pressure partners


def _sft_wide(b: _Builder, tiny: bool) -> None:
    topo_slots = _SFT_TOPO_SLOTS if not tiny else [([8], 0, 3), ([8], 2, 4)]
    pressure_slots = _SFT_PRESSURE_SLOTS if not tiny else [(8, 3, "random"),
                                                           (8, 3, "extreme-noloop")]
    paired = 0
    for ns, k, r in topo_slots:
        sft = b.shift(r)
        coeffs = _coeffs(b.rng)
        b.topo(sft, ns, k, coeffs)
        if k == 0 and len(ns) == 1 and paired < (_SFT_PAIRED if not tiny else 1):
            paired += 1
            kind = "zero" if paired % 2 else "const"
            f, c = b.potential(sft, kind)
            b.pressure(sft, ns[0], coeffs, f, pair=b.jobs[-1].id, const=c)
    for n, r, kind in pressure_slots:
        if kind.startswith("extreme"):
            b.extreme_pressure(n, self_loop=kind == "extreme-loop")
            continue
        sft = b.shift(r)
        f, c = b.potential(sft, kind)
        b.pressure(sft, n, _coeffs(b.rng), f, const=c if kind.startswith("const") else None)


# ---------------------------------------------------------------------------
# markov-grid


def _gms1(theta):
    (a,) = theta
    return [[a, 1 - a], [1.0, 0.0]]


def _full2(theta):
    a, b = theta
    return [[a, 1 - a], [1 - b, b]]


# Custom 1-step templates equivalent to a built-in family after relabelling.
# Each maps a built-in parameter point to the template's parameter point,
# so published maximizers carry over.
CUSTOM_TEMPLATES = {
    "gms-a": ("gms-1step", ["a"], [["a", "rest"], [1, 0]], "id"),
    "gms-flip": ("gms-1step", ["a"], [["rest", "a"], [1, 0]], "flip"),
    "gms-swap": ("gms-1step", ["a"], [[0, 1], ["rest", "a"]], "id"),
    "gms-swapflip": ("gms-1step", ["a"], [[0, 1], ["a", "rest"]], "flip"),
    "full2-ab": ("full2-1step", ["a", "b"], [["a", "rest"], ["rest", "b"]], "id"),
    "full2-flip": ("full2-1step", ["a", "b"], [["rest", "a"], ["b", "rest"]], "flip"),
    "full2-swap": ("full2-1step", ["a", "b"], [["b", "rest"], ["rest", "a"]], "swap"),
}


def map_theta(mapping: str, theta):
    if mapping == "flip":
        return tuple(1.0 - t for t in theta)
    if mapping == "swap":
        return tuple(reversed(theta))
    return tuple(theta)


# (family or custom dimension, step).  Objectives are dealt out in turn from
# a seeded order, so each appears about equally often whatever the seed.
_GRID_SLOTS = (
    [("gms-1step", s) for s in (0.1, 0.05, 0.02, 0.01, 0.005)]
    + [("custom-1", s) for s in (0.1, 0.05, 0.02, 0.01)]
    + [("full2-1step", 0.1), ("gms-2step", 0.1), ("custom-2", 0.1)] * 2
    + [("full2-1step", 0.05), ("gms-2step", 0.05)]
)
OBJECTIVES = ("h", "asc", "int")


def _grid_points(box, step: float) -> int:
    return math.prod(int(round((hi - lo) / step)) + 1 for lo, hi in box)


def _markov_grid(b: _Builder, tiny: bool) -> None:
    slots = _GRID_SLOTS if not tiny else [("gms-1step", 0.1), ("custom-2", 0.1)] * 3
    order = [OBJECTIVES[int(i)] for i in b.rng.permutation(3)]
    jobs = [(fam, step, order[i % 3]) for i, (fam, step) in enumerate(slots)]
    names1 = [k for k, v in CUSTOM_TEMPLATES.items() if len(v[1]) == 1]
    names2 = [k for k, v in CUSTOM_TEMPLATES.items() if len(v[1]) == 2]
    for fam, step, obj in jobs:
        if fam.startswith("custom"):
            names = names1 if fam == "custom-1" else names2
            tname = names[int(b.rng.integers(len(names)))]
            base, params, template, mapping = CUSTOM_TEMPLATES[tname]
            box = {p: [0, 1] for p in params}
            path = b.file("family", {"name": f"custom-{tname}", "params": params,
                                     "box": box, "template": template})
            source = ["--input", path]
            check = {"base": base, "mapping": mapping}
            dim = len(params)
        else:
            source = ["--family", fam]
            check = {"base": fam, "mapping": "id"}
            dim = 1 if fam == "gms-1step" else 2
        out = f"{WORK}/out/{len(b.jobs):03d}-surface.csv"
        b.add("sweep", [*source, "--objective", obj, "--step", repr(step), "--output", out],
              check={**check, "objective": obj, "step": step, "output": out,
                     "points": _grid_points([(0.0, 1.0)] * dim, step)})


# ---------------------------------------------------------------------------
# cli-mix


def _gms2_matrix(theta):
    a, c = theta
    return [[a, 1 - a, 0.0], [0.0, 0.0, 1.0], [c, 1 - c, 0.0]]


GMS2_STATES = [[0, 0], [0, 1], [1, 0]]


def _family_chain(family: str, theta) -> dict:
    if family == "gms-2step":
        return {"P": _gms2_matrix(theta), "block_len": 2, "states": GMS2_STATES}
    return {"P": (_gms1 if family == "gms-1step" else _full2)(theta), "block_len": 1}


def _random_chain(rng: np.random.Generator, d: int) -> list[list[float]]:
    P = rng.uniform(0.05, 1.0, size=(d, d))
    P /= P.sum(axis=1, keepdims=True)
    # round for a readable file, then put the rounding residue on the diagonal
    P = np.round(P, 6)
    P[np.arange(d), np.arange(d)] += 1.0 - P.sum(axis=1)
    return P.tolist()


def _cli_mix(b: _Builder, tiny: bool) -> None:
    from intricacy.benchmarks import MARKOV_BENCHMARKS, PRESSURE_F1, PRESSURE_F2

    rng = b.rng
    pub = _published_shifts()
    if tiny:
        pub = pub[:2]
    provenance_rows = set(rng.choice(len(pub), size=min(5, len(pub)), replace=False).tolist())
    # window sizes and widths are a fixed multiset dealt out by the seed
    sizes = iter(rng.permutation([(6, 0), (7, 1), (8, 2), (9, 0), (10, 1), (11, 2), (12, 0),
                                  (12, 1)]))
    topo_jobs = []
    for i, (tag, A) in enumerate(pub):
        sft = b.published(A)
        if i in provenance_rows:
            topo_jobs.append((b.topo(sft, [10], 0, "uniform"), sft))
        else:
            n, k = (int(x) for x in next(sizes))
            b.topo(sft, [n], k, _coeffs(rng))
    # pressure: published pairs at the published cell, zero/const partners, random f
    for tag, A in pub:
        if tag.startswith("pressure-pair"):
            sft = b.published(A)
            for name, f in (("f1", PRESSURE_F1), ("f2", PRESSURE_F2)):
                b.pressure(sft, 10, "uniform", {k: float(v) for k, v in f.items()},
                           pair=None, const=None).check["published"] = name
    for (job, sft), kind in zip(topo_jobs[:2], ("zero", "const")):
        f, c = b.potential(sft, kind)
        b.pressure(sft, 10, "uniform", f, pair=job.id, const=c)
    for n in (6, 8, 10, 12)[: 4 if not tiny else 1]:
        tag, A = pub[int(rng.integers(len(pub)))]
        sft = b.published(A)
        f, _ = b.potential(sft, "random")
        b.pressure(sft, n, _coeffs(rng), f)

    # markov: series rows, finite rows, Monte Carlo rows
    def markov(source: list[str], chain: dict, *, terms=20, ns=(), coeffs="uniform",
               samples=0, seed=None, defect=None, tag=None):
        argv = [*source, "--terms", str(terms), "--coeffs", coeffs]
        for n in ns:
            argv += ["--n", str(n)]
        if samples:
            argv += ["--samples", str(samples), "--seed", str(seed)]
        return b.add("markov", argv, known_defect=defect, check={
            **chain, "terms": terms, "ns": list(ns), "coeffs": coeffs, "samples": samples,
            "tag": tag})

    def family_source(family, theta):
        return ["--family", family] + [x for t in theta for x in ("--param", repr(float(t)))]

    published = list(MARKOV_BENCHMARKS)
    for i in rng.choice(len(published), size=4 if not tiny else 1, replace=False):
        bench = published[int(i)]
        markov(family_source(bench.family, bench.theta),
               _family_chain(bench.family, bench.theta), terms=20, tag=bench.tag)
    # finite rows: 1-step up to n = 16, 2-block up to n = 8
    finite_specs = [("full2-1step", 16), ("gms-1step", 14), ("input-1", 12),
                    ("gms-2step", 8), ("gms-2step", 6), ("input-2", 7)]
    for family, n in finite_specs[: 6 if not tiny else 2]:
        coeffs = _coeffs(rng, ("uniform", "neural", "psym"))
        terms = int(rng.choice([16, 20, 24]))
        if family == "input-1":
            d = int(rng.integers(2, 5))
            chain = {"P": _random_chain(rng, d), "block_len": 1}
            path = b.file("markov", {"block_len": 1, "P": chain["P"]})
            markov(["--input", path], chain, terms=terms, ns=[n - 2, n], coeffs=coeffs)
            continue
        if family == "input-2":
            theta = tuple(round(float(x), 4) for x in rng.uniform(0.05, 0.95, size=2))
            chain = _family_chain("gms-2step", theta)
            path = b.file("markov", {"block_len": 2, "states": ["00", "01", "10"],
                                     "P": chain["P"]})
            markov(["--input", path], chain, terms=terms, ns=[n], coeffs=coeffs)
            continue
        dim = 1 if family == "gms-1step" else 2
        theta = tuple(round(float(x), 4) for x in rng.uniform(0.05, 0.95, size=dim))
        markov(family_source(family, theta), _family_chain(family, theta), terms=terms,
               ns=[n], coeffs=coeffs, tag=markov_tag(family, theta))
    # Monte Carlo: 1-step at n = 20 (one repeated verbatim), 2-block at n = 6
    # and 8.  The window bias is 0.008-0.013 (1-step, n = 16..20) and
    # 0.02-0.04 (2-block, n <= 8), so every Monte Carlo row is flagged.
    # The 2-block joint-entropy DP costs ~2^|S| per sample, so the sample
    # stream decides the job's cost: those jobs keep one Monte Carlo seed per
    # slot and take only the chain from the workload seed.
    mc_specs = [("full2-1step", 20, 1000, None), ("gms-1step", 20, 1000, None),
                ("gms-2step", 6, 100, 6), ("gms-2step", 8, 100, 8)]
    for idx, (family, n, samples, mc_seed) in enumerate(mc_specs[: 4 if not tiny else 1]):
        dim = 1 if family == "gms-1step" else 2
        theta = tuple(round(float(x), 4) for x in rng.uniform(0.1, 0.9, size=dim))
        drawn = int(rng.integers(2**31))  # drawn either way, so later slots do not shift
        job = markov(family_source(family, theta), _family_chain(family, theta), ns=[n],
                     samples=samples, seed=drawn if mc_seed is None else mc_seed,
                     tag=markov_tag(family, theta), defect=DEFECT_MC_WINDOW_BIAS)
        if idx == 0:
            again = b.add("markov", list(job.argv[1:]), check=dict(job.check))
            # the repeat is only compared byte for byte, so it is not flagged
            again.check["same_as"] = job.id
    # check suites at a small --max-n
    # one suite from each group; the suites of a group cost about the same
    # at --max-n 5 (2, 4, 10 and 20-26 ms), so the seed does not move the
    # cost.  oracle-entropy alone costs as much as the others together, so
    # it runs only inside "all".
    b.add("check", ["--suite", "all", "--max-n", "4"], check={"suite": "all"})
    for group in (["coeffs", "measure-forms"], ["lambda", "invariances"], ["product", "acc"],
                  ["subadd", "bounds", "oracle-counts"])[: 4 if not tiny else 1]:
        suite = str(group[int(rng.integers(len(group)))])
        b.add("check", ["--suite", suite, "--max-n", "5"], check={"suite": suite})
    # small sweeps, one per objective (their costs differ, so the seed only
    # picks the order)
    for obj in (OBJECTIVES if not tiny else OBJECTIVES[:1]):
        out = f"{WORK}/out/{len(b.jobs):03d}-surface.csv"
        b.add("sweep", ["--family", "gms-1step", "--objective", obj, "--step", "0.1",
                        "--output", out],
              check={"base": "gms-1step", "mapping": "id", "objective": obj, "step": 0.1,
                     "output": out, "points": 11})
    # deliberately invalid requests; their exit codes are the expected outcome
    gm = b.file("sft", {"alphabet_size": 2, "forbidden_words": ["11"]})
    bad = b.file("broken", '{"alphabet_size": 3, "adjacency": [[1, 1], ')
    invalid = [
        (["topo", "--input", bad, "--n", "8"], 1),
        (["topo", "--input", gm, "--n", str(int(rng.integers(25, 30)))], 2),
        (["markov", "--family", "gms-2step", "--param", "0.5", "--param", "0.5",
          "--n", str(int(rng.integers(13, 16)))], 2),
        (["markov", "--family", "gms-1step", "--param", "0.5", "--samples", "100"], 1),
        (["markov", "--family", "no-such-family", "--param", "0.5"], 1),
        (["sweep", "--family", "gms-1step", "--step", "0.1"], 1),
    ]
    for argv, rc in invalid[: len(invalid) if not tiny else 2]:
        b.add(argv[0], argv[1:], expect_rc=rc, check={"invalid": True})


_BUILDERS = {"sft-wide": _sft_wide, "markov-grid": _markov_grid, "cli-mix": _cli_mix}


def generate(name: str, seed: int, tiny: bool = False) -> Workload:
    """The job list and input files of one workload for one seed."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    b = _Builder(name, seed)
    _BUILDERS[name](b, tiny)
    return b.finish()
