"""The benchmark workloads and the correctness gate.

Every workload draws its job list for a seed from a fixed candidate pool.  The
reference output of every pool member was generated once (`make_refs.py`) and
is committed under `refs/`, so the jobs of any seed can be checked.  A job has
a timed part (`run`, one call into ddlab) and an untimed part (`summarize`,
which turns the raw result into plain JSON-shaped data for the gate).

Tolerances of the gate (deviations are taken against the reference value r):
  kernel samples   |v - r| <= 1e-9 * (|r| + err_r) for the value and for err
  decay norms      |v - r| <= 1e-9 * |r| per (t, query); fitted slope 1e-9
  exponents        exact Fraction equality
  region membership  exact agreement with contains_bruteforce
  CLI jobs         exit code equal, CSV numbers within 1e-9 of the row scale
A reordering of floating-point sums moves values by ~1e-12 (the batching
prototype quoted in ROADMAP.md moved radial values by 3.7e-12; lattice chunks
of 16 rows instead of 64 pass), far inside these bounds.  A real change of
the numerics fails: raising the lattice tail tolerance from 1e-14 to 1e-13
moves kernel values by ~1.5e-9 of |ref|+err, and a 1e-7 change of t moves
decay norms by 6e-8 to 2e-6.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from ddlab import cli
from ddlab import decay as D
from ddlab import kernel as K
from ddlab import regions as R
from ddlab import spectral as S
from ddlab import symbol as sym

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFS = HERE / "refs"

KERNEL_RTOL = 1e-9
NORM_RTOL = 1e-9
CLI_RTOL = 1e-9

WORKLOADS = ("numerics", "lab-batch")


@dataclass
class Check:
    ok: bool
    dev: float = 0.0
    reason: str = ""
    disagreements: int = 0


@dataclass
class Job:
    id: str
    kind: str  # job class: "decay-n2", "radial-c09", "lattice-n3", "cli-all", "atlas", ...
    run: Callable[[], object]
    summarize: Callable[[object], tuple]  # raw -> (summary, info)
    check: Callable[[object, object], Check]  # (summary, reference) -> Check


@dataclass
class Workload:
    name: str
    jobs: list
    warmup: Job
    refs: dict


def load_refs(name):
    with open(REFS / f"{name}.json", encoding="ascii") as fh:
        return json.load(fh)


def build(name, seed, refs=None, workdir=None) -> Workload:
    """Inputs, job list and references for one workload and seed."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    refs = load_refs(name) if refs is None else refs
    rng = random.Random(seed)
    builder = {"numerics": _numerics, "lab-batch": _lab_batch}[name]
    jobs, warmup = builder(rng, workdir)
    ids = [j.id for j in jobs]
    if len(set(ids)) != len(ids):
        raise ValueError(f"{name}: duplicate job ids")
    missing = [j.id for j in jobs + [warmup] if j.id not in refs]
    if missing:
        raise ValueError(f"{name}: no reference for {missing[:3]}")
    return Workload(name, jobs, warmup, refs)


def pool(name, workdir=None):
    """Every candidate job of a workload (used to generate references)."""
    if name == "numerics":
        return _decay_pool() + _radial_pool() + _lattice_pool()
    return _lab_pool(workdir)


# ---------------------------------------------------------------------------
# Shared checks
# ---------------------------------------------------------------------------

def _kernel_summary(sample):
    return [sample.value.real, sample.value.imag, sample.err, bool(sample.flagged)], {}


def _kernel_check(got, ref):
    re, im, err, flagged = got
    rre, rim, rerr, rflagged = ref
    scale = max(abs(complex(rre, rim)) + rerr, 1e-300)
    dev = max(abs(complex(re - rre, im - rim)), abs(err - rerr)) / scale
    if flagged != rflagged:
        return Check(False, dev, f"flagged={flagged}, reference {rflagged}")
    if not dev <= KERNEL_RTOL:
        return Check(False, dev, f"kernel value off by {dev:.3e} of |ref|+err "
                                 f"(tolerance {KERNEL_RTOL:g})")
    return Check(True, dev)


def _rel_dev(got, ref):
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        return math.inf
    if got.size == 0:
        return 0.0
    scale = np.abs(ref)
    with np.errstate(divide="ignore", invalid="ignore"):
        dev = np.where(scale > 0, np.abs(got - ref) / scale,
                       np.where(got == ref, 0.0, np.inf))
    return float(np.max(dev))


def _frac_str(f):
    return f"{f.numerator}/{f.denominator}"


# ---------------------------------------------------------------------------
# numerics, part 1: verify_lp_lq over seeded admissible queries
# ---------------------------------------------------------------------------

DECAY_GRID = (2, 128, 16.0)  # n, N, L
DECAY_PER_ROUND = 30
_P_VALUES = (Fraction(1), Fraction(6, 5), Fraction(4, 3), Fraction(3, 2),
             Fraction(8, 5), Fraction(2))
_Q_VALUES = (Fraction(2), Fraction(8, 3), Fraction(3), Fraction(4), Fraction(6), math.inf)


def gaussian_data(g):
    """The benchmark's own data family: three centered Gaussians (widths 1.5,
    2.5, 3.5) and a ball indicator of radius 2 smoothed by a unit Gaussian
    multiplier, generated here so the inputs stay fixed whatever ddlab's
    default family becomes."""
    xs = g.x_grids()
    r2 = sum(x**2 for x in xs)
    data = [(f"gaussian(width={a})", np.exp(-r2 / (2.0 * a * a)).astype(complex))
            for a in (1.5, 2.5, 3.5)]
    ball = (np.sqrt(r2) <= 2.0).astype(complex)
    xi2 = sum(xi**2 for xi in g.xi_grids())
    data.append(("smoothed-ball", np.fft.ifftn(np.fft.fftn(ball) * np.exp(-0.5 * xi2))))
    return data


def _decay_queries():
    """Every admissible query for m = 4, n = 2: U (convolution route) on the
    conjugate line, V (multiplier route) on the whole half square."""
    conj = [(p, math.inf if p == 1 else p / (p - 1)) for p in _P_VALUES]
    u = [("U", regime, "convolution", p, q) for regime in ("small", "large")
         for p, q in conj]
    v = [("V", regime, "multiplier", p, q) for regime in ("small", "large")
         for p in _P_VALUES for q in _Q_VALUES]
    return u + v


def _q_str(q):
    return "inf" if q == math.inf else str(q)


class _DecayInputs:
    def __init__(self):
        n, N, L = DECAY_GRID
        self.symbol = sym.parse_symbol("1 + |x|^4", n)
        self.grid = S.make_grid(n, N, L)
        self.data = gaussian_data(self.grid)

    def job(self, part, regime, route, p, q):
        P, g, data = self.symbol, self.grid, self.data
        qr = D.ExponentQuery(part, regime, p, q, P.order, P.n, route=route)
        return Job(
            id=f"decay/n{g.n}-N{g.N}/{part}-{regime}-{route}/p={p}/q={_q_str(q)}",
            kind=f"decay-n{g.n}",
            run=lambda: D.verify_lp_lq(P, qr, grid=g, data=data),
            summarize=_decay_summary,
            check=_decay_check,
        )


def _decay_summary(rep):
    return {
        "theoretical": _frac_str(rep.theoretical),
        "fit": None if rep.fit is None else rep.fit.exponent,
        "t": [t for t, _ in rep.series],
        "lq": [v for _, v in rep.series],
        "l2": [row[1] for row in rep.norm_rows],
        "linf": [row[3] for row in rep.norm_rows],
        "verdict": rep.verdict,
    }, {"verdict": rep.verdict}


def _decay_check(got, ref):
    if got["theoretical"] != ref["theoretical"]:
        return Check(False, math.inf, f"exponent {got['theoretical']} != "
                                      f"reference {ref['theoretical']}")
    dev = max(_rel_dev(got[k], ref[k]) for k in ("t", "lq", "l2", "linf"))
    if (got["fit"] is None) != (ref["fit"] is None):
        return Check(False, dev, f"fit {got['fit']} vs reference {ref['fit']}")
    if got["fit"] is not None:
        dev = max(dev, abs(got["fit"] - ref["fit"]) / max(1.0, abs(ref["fit"])))
    if not dev <= NORM_RTOL:
        return Check(False, dev, f"decay norms off by {dev:.3e} relative "
                                 f"(tolerance {NORM_RTOL:g})")
    return Check(True, dev)


def _decay_pool():
    inp = _DecayInputs()
    return [inp.job(*qq) for qq in _decay_queries()]


def _decay_jobs(rng):
    inp = _DecayInputs()
    return [inp.job(*qq) for qq in rng.sample(_decay_queries(), DECAY_PER_ROUND)]


# ---------------------------------------------------------------------------
# numerics, part 2: criterion-09 and criterion-08 sample sets (radial path)
# ---------------------------------------------------------------------------

RADIAL_BASE = K.QuadConfig(eps_list=(0.2, 0.1, 0.05, 0.025), order=3, method="radial")
RADIAL_SETS = {
    # name: (n, kind, t values, |x| as a multiple of t (09) or absolute (08))
    "c09": (4, "I2", tuple(np.geomspace(1.0, 50.0, 9)), (0.0,), True),
    "c08": (2, "I1", tuple(np.geomspace(0.01, 0.5, 17)), (0.0, 0.25, 0.5), False),
}


class _RadialInputs:
    def __init__(self):
        self.symbols = {n: sym.parse_symbol("1 + |x|^4", n) for n in (2, 4)}

    def job(self, set_name, ti, ci, sign, direction=None):
        n, kind, ts, cs, relative = RADIAL_SETS[set_name]
        t = float(ts[ti])
        r = cs[ci] * t if relative else cs[ci]
        u = np.eye(n)[0] if direction is None else np.asarray(direction, dtype=float)
        x = r * u
        cfg = RADIAL_BASE if set_name == "c09" else K.scaled_config(RADIAL_BASE, t)
        P = self.symbols[n]
        return Job(
            id=f"radial/{set_name}/n{n}-{kind}/t[{ti}]={t:.4g}/r[{ci}]={r:.4g}/sign={sign:+d}",
            kind=f"radial-{set_name}",
            run=lambda: K.eval_kernel(P, kind, sign, t, x, cfg),
            summarize=_kernel_summary,
            check=_kernel_check,
        )


def _radial_keys():
    for set_name, (n, kind, ts, cs, _) in RADIAL_SETS.items():
        for ti in range(len(ts)):
            for ci in range(len(cs)):
                yield set_name, n, ti, ci


def _radial_pool():
    inp = _RadialInputs()
    return [inp.job(s, ti, ci, sign) for s, _, ti, ci in _radial_keys() for sign in (1, -1)]


def _unit(rng, n):
    v = np.array([rng.gauss(0.0, 1.0) for _ in range(n)])
    return v / np.linalg.norm(v)


def _radial_jobs(rng):
    inp = _RadialInputs()
    return [inp.job(s, ti, ci, rng.choice((1, -1)), _unit(rng, n))
            for s, n, ti, ci in _radial_keys()]


# ---------------------------------------------------------------------------
# numerics, part 3: lattice eval_kernel on the checked-in 2-D symbols
# ---------------------------------------------------------------------------

LATTICE_BASE = K.QuadConfig(eps_list=(0.4, 0.2, 0.1), order=2, lattice_N=512)
LATTICE3_BASE = K.QuadConfig(eps_list=(0.4, 0.2, 0.1), order=2, lattice_N=128)
LATTICE_SYMBOLS = {"beam2d": "1 + |x|^4", "aniso2d": "1 + |x|^4 + x1^2"}
LATTICE_T = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0)
LATTICE_X = (-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5)
LATTICE_WINDOW = (2, 2)  # t values x points per axis, per (symbol, kind, sign)
LATTICE3_T = (0.5, 1.0)
LATTICE3_X = ((0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (0.5, 0.5, 0.5))
_COMBOS = [(s, k, sg) for s in LATTICE_SYMBOLS for k in K.KINDS for sg in (1, -1)]


class _LatticeInputs:
    def __init__(self):
        self.symbols = {name: sym.parse_symbol(lit, 2) for name, lit in LATTICE_SYMBOLS.items()}
        self.symbols["beam3d"] = sym.parse_symbol("1 + |x|^4", 3)

    def job(self, sname, kind, sign, t, x):
        P = self.symbols[sname]
        base = LATTICE3_BASE if P.n == 3 else LATTICE_BASE
        cfg = K.scaled_config(base, t)
        xv = np.array(x, dtype=float)
        xs = ",".join(f"{v:g}" for v in x)
        return Job(
            id=f"lattice/{sname}-N{base.lattice_N}/{kind}/sign={sign:+d}/t={t:g}/x=({xs})",
            kind=f"lattice-n{P.n}",
            run=lambda: K.eval_kernel(P, kind, sign, t, xv, cfg),
            summarize=_kernel_summary,
            check=_kernel_check,
        )


def _lattice3_keys():
    return [(k, sg, t, x) for k in K.KINDS for sg in (1, -1) for t in LATTICE3_T
            for x in LATTICE3_X]


def _lattice_pool():
    inp = _LatticeInputs()
    jobs = [inp.job(s, k, sg, t, (x1, x2)) for s, k, sg in _COMBOS for t in LATTICE_T
            for x1 in LATTICE_X for x2 in LATTICE_X]
    jobs += [inp.job("beam3d", *key) for key in _lattice3_keys()]
    return jobs


def _lattice_jobs(rng):
    inp = _LatticeInputs()
    nt, nx = LATTICE_WINDOW
    jobs = []
    for s, k, sg in _COMBOS:
        t0 = rng.randrange(len(LATTICE_T) - nt + 1)
        i0 = rng.randrange(len(LATTICE_X) - nx + 1)
        j0 = rng.randrange(len(LATTICE_X) - nx + 1)
        for t in LATTICE_T[t0:t0 + nt]:
            for x1 in LATTICE_X[i0:i0 + nx]:
                for x2 in LATTICE_X[j0:j0 + nx]:
                    jobs.append(inp.job(s, k, sg, t, (x1, x2)))
    for kind in K.KINDS:  # one of each kind: I2 holds one more lattice array
        keys = [key for key in _lattice3_keys() if key[0] == kind]
        jobs.append(inp.job("beam3d", *rng.choice(keys)))
    return jobs


def _numerics(rng, workdir):
    jobs = _decay_jobs(rng) + _radial_jobs(rng) + _lattice_jobs(rng)
    rng.shuffle(jobs)
    # the warm-up sample takes the radial path, whose first call imports
    # scipy.stats lazily
    return jobs, _RadialInputs().job("c08", 0, 0, 1)


# ---------------------------------------------------------------------------
# lab-batch: in-process cli.run plus index-atlas sheets
# ---------------------------------------------------------------------------

CONFIGS = {"defaults": None, "beam2d": "configs/beam2d.ini",
           "anisotropic2d": "configs/anisotropic2d.ini"}
# The job classes differ in cost by orders of magnitude; the seed draws within
# each class, and the class sizes put the median job inside the n = 2
# check-symbol class and the tail job inside the n = 4 class, so the latency
# percentiles do not jump between classes from one seed to the next.
CHECK_SYMBOLS = {
    2: ("x1^4 + x2^4", "1 + |x|^4 + x1^2", "1 + x1^4 + x2^4", "1 - |x|^4",
        "2 + |x|^4 + x1*x2", "|x|^4 - x1^2", "1 + |x|^4 + x2^2"),
    3: ("1 + |x|^4", "x1^4 + x2^4 + x3^4", "1 + |x|^4 + x3^2", "1 + |x|^4 - 3*x1^2"),
    4: ("1 + |x|^4", "1 + |x|^4 + x4^2", "|x|^4 - x1^4"),
}
CHECK_SEEDS = (0, 1, 2, 3)
CHECK_PER_ROUND = {2: 13, 3: 6, 4: 7}
REGION_EXPORTS = tuple(
    [(m, n, "all") for m, n in ((4, 4), (4, 5), (4, 6), (4, 7), (6, 6), (6, 8), (8, 8),
                                 (8, 10))]
    + [(m, n, kind) for m, n in ((4, 6), (6, 9), (8, 12))
       for kind in ("delta_m", "AEF", "hexagon", "delta_0")]
    + [(m, n, "pentagon") for m, n in ((4, 3), (6, 4), (6, 5), (8, 5), (8, 6), (8, 7))])
REGIONS_PER_ROUND = 14
ATLAS_SHEETS = ((4, 4), (4, 6), (6, 6), (8, 8))  # sheets of similar cost
ATLAS_PER_ROUND = 3
ATLAS_DEN = 24
ATLAS_REGIONS = ("delta_m", "AEF", "hexagon", "delta_0")
ATLAS_QUERIES = (("U", "small", "convolution"), ("U", "large", "convolution"),
                 ("V", "small", "convolution"), ("V", "large", "convolution"),
                 ("V", "small", "multiplier"), ("V", "large", "multiplier"))
_CSV_FILES = ("samples.csv", "norms.csv")


class _LabInputs:
    def __init__(self, workdir):
        self.workdir = Path(workdir)
        self.count = itertools.count()

    def cli_job(self, job_id, argv):
        out_root = self.workdir
        counter = self.count

        def run():
            out = out_root / f"job{next(counter)}"
            return out, cli.run(argv + ["--out", str(out)])

        return Job(id=job_id, kind="cli-" + argv[0], run=run,
                   summarize=_cli_summary, check=_cli_check)

    def all_job(self, name):
        path = CONFIGS[name]
        argv = ["all"] if path is None else ["all", "--config", str(ROOT / path)]
        return self.cli_job(f"cli/all/{name}", argv)

    def check_job(self, n, poly, seed):
        return self.cli_job(f"cli/check-symbol/n{n}/{poly}/seed={seed}",
                            ["check-symbol", "--poly", poly, "--n", str(n),
                             "--seed", str(seed)])

    def regions_job(self, m, n, kind):
        return self.cli_job(f"cli/regions/m{m}-n{n}/{kind}",
                            ["regions", "--m", str(m), "--n", str(n), "--kind", kind])


def _cli_summary(raw):
    out, rc = raw
    files = {}
    nbytes = 0
    try:
        for path in sorted(out.iterdir()):
            nbytes += path.stat().st_size
            if path.name in _CSV_FILES:
                files[path.name] = _read_csv(path)
            elif path.name == "regions.json":
                files[path.name] = path.read_text(encoding="ascii")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return {"exit": rc, "files": files}, {"artifact_bytes": nbytes}


def _read_csv(path):
    lines = path.read_text(encoding="ascii").splitlines()
    rows = [lines[0].split(",")]
    for line in lines[1:]:
        row = []
        for cell in line.split(","):
            try:
                row.append(float(cell))
            except ValueError:
                row.append(cell)
        rows.append(row)
    return rows


def _cli_check(got, ref):
    if got["exit"] == 2:
        return Check(False, 0.0, "exit code 2 (usage or config error)")
    if got["exit"] != ref["exit"]:
        return Check(False, 0.0, f"exit code {got['exit']}, reference {ref['exit']}")
    if sorted(got["files"]) != sorted(ref["files"]):
        return Check(False, 0.0, f"artifacts {sorted(got['files'])}, "
                                 f"reference {sorted(ref['files'])}")
    dev = 0.0
    for name, rfile in ref["files"].items():
        gfile = got["files"][name]
        if isinstance(rfile, str):
            if gfile != rfile:
                return Check(False, math.inf, f"{name} differs from the reference")
            continue
        if len(gfile) != len(rfile) or gfile[0] != rfile[0]:
            return Check(False, math.inf, f"{name}: shape or header differs")
        for grow, rrow in zip(gfile[1:], rfile[1:]):
            nums = [v for v in rrow if isinstance(v, float)]
            scale = max((abs(v) for v in nums), default=0.0)
            if len(grow) != len(rrow):
                return Check(False, math.inf, f"{name}: row length differs")
            for gv, rv in zip(grow, rrow):
                if isinstance(rv, float) and isinstance(gv, float):
                    d = abs(gv - rv) / scale if scale > 0 else float(gv != rv) * math.inf
                    dev = max(dev, d)
                elif gv != rv:
                    return Check(False, math.inf, f"{name}: {gv!r} != {rv!r}")
        if not dev <= CLI_RTOL:
            return Check(False, dev, f"{name} numbers off by {dev:.3e} of the row "
                                     f"scale (tolerance {CLI_RTOL:g})")
    return Check(True, dev)


def _atlas_points():
    return [R.IndexPoint(Fraction(i, ATLAS_DEN), Fraction(j, ATLAS_DEN))
            for i in range(ATLAS_DEN + 1) for j in range(ATLAS_DEN + 1)]


def _atlas_query_points():
    half = ATLAS_DEN // 2
    return [(Fraction(ATLAS_DEN, i), Fraction(ATLAS_DEN, j) if j else math.inf)
            for i in range(half, ATLAS_DEN + 1) for j in range(0, half + 1)]


_LOC_CODE = {"interior": "i", "boundary": "b", "outside": "o"}


def atlas_sheet(m, n):
    """Classify the rational index square against each region of (m, n) and
    tabulate the exact exponent of every estimate at every admissible pair."""
    regions = {kind: R.build_region(kind, m, n) for kind in ATLAS_REGIONS}
    pts = _atlas_points()
    loc = {kind: "".join(_LOC_CODE[R.classify(reg, pt).location] for pt in pts)
           for kind, reg in regions.items()}
    exps = []
    for p, q in _atlas_query_points():
        for part, regime, route in ATLAS_QUERIES:
            try:
                e = D.theoretical_exponent(D.ExponentQuery(part, regime, p, q, m, n, route=route))
                exps.append(_frac_str(e))
            except R.RegionError:
                exps.append("-")
    return {"loc": loc, "exp": exps}


def atlas_reference(m, n, sheet):
    """Reference for one sheet: the membership the brute-force oracle gives."""
    pts = _atlas_points()
    member = {}
    for kind in ATLAS_REGIONS:
        reg = R.build_region(kind, m, n)
        member[kind] = "".join("1" if R.contains_bruteforce(reg, pt) else "0" for pt in pts)
    return {"member": member, "exp": sheet["exp"]}


def _atlas_job(m, n):
    return Job(id=f"atlas/m{m}-n{n}", kind="atlas", run=lambda: atlas_sheet(m, n),
               summarize=lambda sheet: (sheet, {}), check=_atlas_check)


def _atlas_check(got, ref):
    disagree = 0
    for kind, bits in ref["member"].items():
        codes = got["loc"].get(kind, "")
        if len(codes) != len(bits):
            return Check(False, math.inf, f"{kind}: {len(codes)} points, expected {len(bits)}")
        disagree += sum((c != "o") != (b == "1") for c, b in zip(codes, bits))
    wrong = sum(a != b for a, b in zip(got["exp"], ref["exp"]))
    wrong += abs(len(got["exp"]) - len(ref["exp"]))
    if disagree or wrong:
        return Check(False, 0.0, f"{disagree} membership disagreements with "
                                 f"contains_bruteforce, {wrong} exponents differ",
                     disagreements=disagree)
    return Check(True, 0.0)


def _lab_pool(workdir):
    inp = _LabInputs(workdir)
    jobs = [inp.all_job(name) for name in CONFIGS]
    jobs += [inp.check_job(n, poly, s) for n, polys in CHECK_SYMBOLS.items()
             for poly in polys for s in CHECK_SEEDS]
    jobs += [inp.regions_job(*spec) for spec in REGION_EXPORTS]
    jobs += [_atlas_job(m, n) for m, n in ATLAS_SHEETS]
    return jobs


def _lab_batch(rng, workdir):
    inp = _LabInputs(workdir)
    jobs = [inp.all_job(name) for name in CONFIGS]
    for n, count in CHECK_PER_ROUND.items():
        combos = [(poly, s) for poly in CHECK_SYMBOLS[n] for s in CHECK_SEEDS]
        jobs += [inp.check_job(n, poly, s) for poly, s in rng.sample(combos, count)]
    jobs += [inp.regions_job(*spec) for spec in rng.sample(REGION_EXPORTS, REGIONS_PER_ROUND)]
    jobs += [_atlas_job(m, n) for m, n in rng.sample(ATLAS_SHEETS, ATLAS_PER_ROUND)]
    rng.shuffle(jobs)
    return jobs, inp.check_job(2, "1 + |x|^4 + x1^2", 0)
