"""One workload in one fresh interpreter: set up, warm up, run rounds, report.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                --workdir DIR [--probe]

Started by run.py.  It prints exactly one JSON line on stdout.  With --probe it
stops once set-up is done; run.py uses probes to take the median set-up time.
A round is the seed's whole job list, sent back to back by one client (closed
loop); rounds repeat while another one fits in --seconds, and there is always
at least one.  With --trace 1, untraced and traced rounds alternate so the
tracing overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import env  # noqa: E402
from tracer import BENCH, LAYERS, Tracer  # noqa: E402

# Hand-measured figures quoted in ROADMAP.md, printed beside the traced spans.
BASELINES = {
    "setup.import_s": 0.57,
    "op.lattice_sample_n2_N512_ms": 26.0,
    "op.radial_I2_n4_ms": 470.0,
    "regions.locate_us": 137.0,
}


class _Sink:
    """Swallows what the CLI prints during jobs; stdout carries only the result."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def make_hooks():
    """Counter hooks for the traced run, keyed by wrapped function."""
    import numpy as np
    from ddlab import kernel as K

    def evaluate(tr, args, kwargs, result, exc, dur):
        tr.counters["symbol_points"] += math.prod(np.shape(_arg(args, kwargs, 1, "xi"))[:-1])

    def evaluate_on_axes(tr, args, kwargs, result, exc, dur):
        axes = _arg(args, kwargs, 1, "axes")
        pts = math.prod(len(ax) for ax in axes)
        tr.counters["symbol_points"] += pts
        parent = tr.stack[-1][0] if tr.stack else None
        if parent == "kernel.eval_kernel":
            tr.counters["symbol_points_in_lattice_samples"] += pts

    def eval_kernel(tr, args, kwargs, result, exc, dur):
        P = args[0]
        kind = _arg(args, kwargs, 1, "kind")
        cfg = _arg(args, kwargs, 5, "cfg") or K.QuadConfig()
        tr.counters["kernel_samples"] += 1
        if result is not None:
            tr.counters["kernel_flagged"] += int(result.flagged)
            if abs(result.value) > 0:
                rel = result.err / abs(result.value)
                tr.counters["kernel_err_rel_max"] = max(tr.counters["kernel_err_rel_max"], rel)
        if cfg.method == "lattice":
            grid = cfg.lattice_N ** P.n
            tr.counters["lattice_points"] += grid * len(cfg.eps_list)
            tr.counters["lattice_grid_points"] += grid
            if P.n == 2 and cfg.lattice_N == 512:
                tr.add_op("op.lattice_sample_n2_N512_ms", dur)
        elif kind == "I2" and P.n == 4:
            tr.add_op("op.radial_I2_n4_ms", dur)

    def propagate(tr, args, kwargs, result, exc, dur):
        tr.add_op("op.propagate_ms", dur)

    def verify(tr, args, kwargs, result, exc, dur):
        grid = _arg(args, kwargs, 2, "grid")
        qr = args[1]
        n, N = (qr.n, 128) if grid is None else (grid.n, grid.N)
        t_grid = _arg(args, kwargs, 3, "t_grid")
        data = _arg(args, kwargs, 4, "data")
        nt = 9 if t_grid is None else len(t_grid)
        nd = 4 if data is None else len(data)
        tr.counters["expected_propagates"] += nt * nd
        if (n, N) == (2, 128):
            tr.add_op("op.verify_n2_N128_s", dur)
        if result is not None:
            tr.counters[f"verdict.{result.verdict}"] += 1

    def fit(tr, args, kwargs, result, exc, dur):
        if exc is not None:
            tr.counters["fit_failures"] += 1

    return {
        "symbol.SymbolPoly.evaluate": evaluate,
        "symbol.SymbolPoly.evaluate_on_axes": evaluate_on_axes,
        "kernel.eval_kernel": eval_kernel,
        "spectral.propagate": propagate,
        "decay.verify_lp_lq": verify,
        "fitting.fit_power_law": fit,
    }


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class Runner:
    """Executes rounds and applies the gate to every execution."""

    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.failures = []
        self.first = {}  # job id -> first gated summary
        self.dev = Counter()  # job kind family -> max deviation from reference
        self.disagreements = 0
        self.artifact_bytes = 0
        self.verdicts = Counter()

    def execute(self, jobs, tracer=None):
        """Run jobs back to back, then gate them.

        Returns (wall_ns, latencies_ns, cpu_s, artifact_bytes) of the round.
        """
        raws, lats = [], []
        bytes0 = self.artifact_bytes
        cpu0 = _cpu_s()
        with contextlib.redirect_stdout(_Sink()):
            start = time.perf_counter_ns()
            for job in jobs:
                t0 = time.perf_counter_ns()
                try:
                    raw = tracer.job_span(job.run) if tracer else job.run()
                    raws.append((raw, None))
                except Exception as exc:
                    raws.append((None, f"raised {type(exc).__name__}: {exc}"))
                lats.append(time.perf_counter_ns() - t0)
            wall = time.perf_counter_ns() - start
        cpu = _cpu_s() - cpu0
        for job, (raw, error) in zip(jobs, raws):
            self._gate(job, raw, error)
        return wall, lats, cpu, self.artifact_bytes - bytes0

    def _fail(self, job, reason):
        self.failures.append({"job": job.id, "reason": reason})

    def _gate(self, job, raw, error):
        self.attempted += 1
        if error is not None:
            self._fail(job, error)
            return
        try:
            summary, info = job.summarize(raw)
        except Exception as exc:
            self._fail(job, f"output unreadable: {type(exc).__name__}: {exc}")
            return
        self.artifact_bytes += info.get("artifact_bytes", 0)
        if info.get("verdict"):
            self.verdicts[info["verdict"]] += 1
        if self.first.get(job.id) == summary:
            return  # identical to an execution that already passed the gate
        try:
            chk = job.check(summary, self.w.refs[job.id])
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            self._fail(job, f"output does not match the reference layout: "
                            f"{type(exc).__name__}: {exc}")
            return
        family = job.kind.split("-")[0]
        self.dev[family] = max(self.dev[family], chk.dev)
        self.disagreements += chk.disagreements
        if chk.ok:
            self.first.setdefault(job.id, summary)
        else:
            self._fail(job, chk.reason)


def job_stats(per_job_s):
    """Latency figures from each job's best time over the run's rounds.

    The best of a job's executions is its cost on an uncontended core; on a
    shared host other tenants slow stretches of a run by 1.2x to 2.3x, which
    the best of a few executions spread over the run mostly avoids.  Returns the sum
    over the job list (the list's time to verdict), the median job, and the
    job at the highest percentile that has at least ten jobs beyond it.
    """
    xs = sorted(min(v) for v in per_job_s.values())
    n = len(xs)
    k = max(0, n - 11)
    return sum(xs), statistics.median(xs), xs[k], 100.0 * (k + 1) / n, n


def run_rounds(runner, jobs, seconds, trace, tracer=None):
    """Untraced rounds (and, with trace, alternating traced rounds)."""
    walls, cpus, traced = [], [], []
    per_job = {j.id: [] for j in jobs}
    t_start = time.perf_counter()
    while True:
        wall, lats, cpu, _ = runner.execute(jobs)
        walls.append(wall / 1e9)
        cpus.append(cpu)
        for job, lat in zip(jobs, lats):
            per_job[job.id].append(lat / 1e9)
        if trace:
            tracer.reset()
            tracer.install()
            try:
                twall, _, _, nbytes = runner.execute(jobs, tracer)
            finally:
                tracer.uninstall()
            traced.append(snapshot(tracer, twall / 1e9, nbytes))
        elapsed = time.perf_counter() - t_start
        step = statistics.median(walls) + (statistics.median(t["wall_s"] for t in traced)
                                           if traced else 0.0)
        if elapsed + step > seconds:
            break
    return walls, cpus, per_job, traced


def snapshot(tr, wall_s, artifact_bytes):
    """Per-layer figures of one traced round."""
    fc = tr.func_calls
    c = tr.counters
    snap = {"wall_s": wall_s, "artifact_bytes": artifact_bytes,
            "self_s": {k: tr.self_ns[k] / 1e9 for k in LAYERS + (BENCH,)}}
    counts = {
        "spectral.propagate_calls": fc["spectral.propagate"],
        "spectral.fft_calls": c["fft_calls"],
        "spectral.fft_points": c["fft_points"],
        "spectral.fft_bytes_computed": 16 * c["fft_points"],
        "kernel.samples": c["kernel_samples"],
        "kernel.radial_evals": fc["kernel.eval_damped_radial"],
        "kernel.lattice_points": c["lattice_points"],
        "symbol.calls": tr.layer_calls["symbol"],
        "symbol.points_evaluated": c["symbol_points"],
        "decay.verify_calls": fc["decay.verify_lp_lq"],
        "decay.norm_calls": fc["decay.lq_norm"] + fc["decay.weak_lq_norm"],
        "decay.verdict.consistent": c["verdict.consistent"],
        "decay.verdict.contradicted": c["verdict.contradicted"],
        "decay.verdict.inconclusive": c["verdict.inconclusive"],
        "fitting.fit_calls": fc["fitting.fit_power_law"],
        "fitting.fit_failures": c["fit_failures"],
        "regions.locate_calls": fc["regions.locate"],
        "cli.runs": fc["cli.run"],
    }
    snap["counts"] = counts
    snap["fft_s"] = c["fft_ns"] / 1e9
    snap["locate_us"] = (tr.func_ns["regions.locate"] / fc["regions.locate"] / 1e3
                         if fc["regions.locate"] else 0.0)
    snap["flagged_frac"] = (c["kernel_flagged"] / c["kernel_samples"]
                            if c["kernel_samples"] else 0.0)
    snap["err_rel_max"] = float(c["kernel_err_rel_max"])
    snap["ops"] = {name: (calls, ns / 1e9) for name, (calls, ns) in tr.ops.items()}
    snap["rules"] = {
        "fft_in_propagate": (tr.fft_by_parent["spectral.propagate"],
                             6 * fc["spectral.propagate"]),
        "propagate_per_verify": (tr.edges[("decay.verify_lp_lq", "spectral.propagate")],
                                 c["expected_propagates"]),
        "lattice_symbol_points": (c["symbol_points_in_lattice_samples"],
                                  c["lattice_grid_points"]),
    }
    return snap


def per_layer_metrics(traced, walls, cpus, runner, setup):
    """Per-layer metrics and the trace consistency rules."""
    first = traced[0]
    med = statistics.median
    twall = med(t["wall_s"] for t in traced)
    m = {}
    for layer in LAYERS:
        self_s = med(t["self_s"][layer] for t in traced)
        m[f"{layer}.self_s"] = (self_s, "s")
        m[f"{layer}.self_share"] = (self_s / twall, "fraction")
    bench_s = med(t["self_s"][BENCH] for t in traced)
    m["bench.self_s"] = (bench_s, "s")
    units = {"fft_bytes_computed": "B", "lattice_points": "count"}
    for name, value in first["counts"].items():
        m[name] = (value, units.get(name.split(".", 1)[1], "count"))
    m["spectral.fft_s"] = (med(t["fft_s"] for t in traced), "s")
    m["kernel.flagged_frac"] = (first["flagged_frac"], "fraction")
    m["kernel.err_rel_max"] = (first["err_rel_max"], "ratio")
    m["kernel.ref_dev_max"] = (max(runner.dev["radial"], runner.dev["lattice"]), "ratio")
    m["decay.ref_dev_max"] = (runner.dev["decay"], "ratio")
    m["regions.locate_us"] = (med(t["locate_us"] for t in traced), "us")
    m["regions.oracle_disagreements"] = (runner.disagreements, "count")
    m["cli.artifact_bytes"] = (first["artifact_bytes"], "B")
    m["setup.import_s"] = (setup["import_s"], "s")
    m["setup.inputs_s"] = (setup["inputs_s"], "s")
    m["setup.warmup_s"] = (setup["warmup_s"], "s")
    m["run.cpu_s"] = (med(cpus), "s")
    m["trace.overhead_frac"] = (twall / med(walls) - 1.0, "fraction")
    scale = {"ms": 1e3, "s": 1.0}
    for op in ("op.lattice_sample_n2_N512_ms", "op.radial_I2_n4_ms", "op.propagate_ms",
               "op.verify_n2_N128_s"):
        means = [t["ops"][op][1] / t["ops"][op][0] for t in traced if op in t["ops"]]
        unit = op.rsplit("_", 1)[1]
        m[op] = (med(means) * scale[unit] if means else 0.0, unit)

    violations = []
    accounted = sum(first["self_s"].values())
    gap = abs(first["wall_s"] - accounted) / first["wall_s"]
    if gap > 0.02:
        violations.append(f"layer self times + bench account for {accounted:.4f} s of a "
                          f"{first['wall_s']:.4f} s traced round ({gap:.1%} apart)")
    for rule, (got, want) in first["rules"].items():
        if got != want:
            violations.append(f"{rule}: counted {got}, spans imply {want}")
    for t in traced[1:]:
        if t["counts"] != first["counts"]:
            violations.append("counters differ between traced rounds")
            break
    m["trace.unaccounted_frac"] = (gap, "fraction")
    m["trace.rule_violations"] = (len(violations), "count")
    return m, violations


def measure(runner, seconds, trace, setup):
    """Run the rounds of runner's workload and compute its metrics."""
    tracer = Tracer(make_hooks()) if trace else None
    walls, cpus, per_job, traced = run_rounds(runner, runner.w.jobs, seconds, trace, tracer)
    wall, p50, tail, pct, njobs = job_stats(per_job)
    failed = len(runner.failures)
    out = {
        "rounds": len(walls),
        "traced_rounds": len(traced),
        "jobs_per_round": len(runner.w.jobs),
        "attempted": runner.attempted,
        "failed": failed,
        "failures": runner.failures,
        "metrics": {
            "wall_s": (wall, "s"),
            "job_p50_ms": (p50 * 1e3, "ms"),
            "job_tail_ms": (tail * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "fail_frac": (failed / runner.attempted, "fraction"),
        },
        "round_wall_median_s": statistics.median(walls),
        "tail_percentile": pct,
        "tail_jobs": njobs,
        "verdicts": dict(runner.verdicts),
    }
    if trace:
        out["per_layer"], out["violations"] = per_layer_metrics(traced, walls, cpus, runner,
                                                                setup)
        out["baselines"] = BASELINES
    return out


def main(argv=None):
    spawned = time.monotonic()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import ddlab.cli  # noqa: F401  (imports every layer)
    t1 = time.perf_counter()
    import workloads as W
    workload = W.build(args.workload, args.seed, workdir=Path(args.workdir))
    t2 = time.perf_counter()
    runner = Runner(workload)
    runner.execute([workload.warmup])
    t3 = time.perf_counter()
    ready = time.monotonic()
    setup = {"import_s": t1 - t0, "inputs_s": t2 - t1, "warmup_s": t3 - t2,
             "ready_monotonic": ready}
    out = {"setup": setup}
    if not args.probe:
        out.update(measure(runner, args.seconds, args.trace, setup))
    out["env"] = env.record()
    out["spawned_monotonic"] = spawned
    sys.stdout.write(json.dumps(out) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
