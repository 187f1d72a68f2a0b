"""ddlab benchmark: run one workload (or all) and print every metric.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload runs in fresh interpreters
(worker.py): one process that runs the rounds, with set-up probes before and
after it.
Every job output is checked against the committed references.  The last line
of stdout is one JSON object {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Exit status is 0 when the run completed (whether or not outputs were
correct) and non-zero, with no result line, when it could not run.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import env  # noqa: E402

WORKLOADS = ("numerics", "lab-batch")  # as in workloads.py, which needs numpy
SETUP_PROBES = 4  # plus the measuring process itself: five set-up samples
TIME_LIMIT_S = 170.0
# The bounded end-to-end metrics of BENCHMARK.json.  The job latency
# percentiles and fail_frac are printed too but not bounded: the percentiles
# swing by more than any allowed bound on a shared VM, and fail_frac is 0.
E2E = ("setup_s", "wall_s", "peak_rss_mb")
PRINTED = ("setup_s", "wall_s", "job_p50_ms", "job_tail_ms", "peak_rss_mb")


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _worker(workload, seed, seconds, trace, probe, deadline, workdir):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(workdir)]
    if probe:
        cmd.append("--probe")
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env.pinned_env(), stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload}: worker exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited with status {proc.returncode}")
    lines = out.decode("ascii", "replace").strip().splitlines()
    if not lines:
        raise BenchError(f"{workload}: worker printed no result")
    result = json.loads(lines[-1])
    result["setup_sample_s"] = result["setup"]["ready_monotonic"] - spawned
    return result


def run_workload(workload, seed, seconds, trace, deadline):
    workdir = HERE / "out" / f"{workload}-{seed}-{trace}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    try:
        # probes before and after the measuring process, so the set-up
        # samples are spread over the run rather than taken in one burst
        def probe():
            return _worker(workload, seed, seconds, trace, True, deadline, workdir)

        half = 0 if trace else SETUP_PROBES // 2
        probes = [probe() for _ in range(half)]
        main = _worker(workload, seed, seconds, trace, False, deadline, workdir)
        probes += [probe() for _ in range(half)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    samples = [p["setup_sample_s"] for p in probes] + [main["setup_sample_s"]]
    main["setup_samples_s"] = samples
    main["metrics"]["setup_s"] = (statistics.median(samples), "s")
    return main


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(name, res, trace):
    """Human-readable lines for one workload (everything before the JSON line)."""
    e = res["env"]
    print(f"== {name}: {res['rounds']} untraced round(s) of {res['jobs_per_round']} jobs, "
          f"{res['traced_rounds']} traced; median round wall "
          f"{res['round_wall_median_s']:.4g} s")
    print(f"env nproc={e['nproc']} cpu={e['cpu_model']!r} python={e['python']} "
          f"numpy={e['numpy']} scipy={e['scipy']} os_threads={e['os_threads']} "
          f"pins={','.join(f'{k}={v}' for k, v in e['thread_pins'].items())}")
    if e["thread_flag"]:
        print(f"WARNING threads: {e['thread_flag_reason']}")
    m = res["metrics"]
    for key in PRINTED:
        value, unit = m[key]
        extra = ""
        if key == "setup_s":
            extra = f"  (median of {len(res['setup_samples_s'])} fresh processes)"
        elif key == "wall_s":
            extra = "  (sum of per-job best latencies)"
        elif key == "job_tail_ms":
            extra = (f"  (p{res['tail_percentile']:.1f} of {res['tail_jobs']} jobs, "
                     f"each at its best of {res['rounds']} round(s))")
        print(f"metric {key} = {_fmt(value)} {unit}{extra}")
    print(f"metric fail_frac = {_fmt(m['fail_frac'][0])} fraction  "
          f"({res['failed']} of {res['attempted']} executions)")
    if res["verdicts"]:
        print("verdicts " + ", ".join(f"{k}={v}" for k, v in sorted(res["verdicts"].items())))
    for f in res["failures"][:20]:
        print(f"FAILED {f['job']}: {f['reason']}")
    if trace:
        for key, (value, unit) in sorted(res["per_layer"].items()):
            base = res["baselines"].get(key)
            note = f"  (ROADMAP hand figure {base} {unit})" if base is not None else ""
            print(f"layer {key} = {_fmt(value)} {unit}{note}")
        for v in res["violations"]:
            print(f"TRACE RULE {v}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        missing = [p for p in (ROOT / "src" / "ddlab" / "__init__.py",
                               HERE / "refs" / "lab-batch.json") if not p.is_file()]
        if missing:
            raise BenchError(f"cannot run: {', '.join(map(str, missing))} not found")
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            if args.workload == "all":
                deadline = time.monotonic() + TIME_LIMIT_S
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            report(name, results[name], args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    def metrics(res):
        chosen = res["per_layer"] if args.trace else {k: res["metrics"][k] for k in E2E}
        return {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()}

    if len(results) == 1:
        res = next(iter(results.values()))
        mets = metrics(res)
    else:
        mets = {f"{n}.{k}": v for n, res in results.items() for k, v in metrics(res).items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": mets}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
