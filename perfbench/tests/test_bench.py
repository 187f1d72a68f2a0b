"""Tests of the benchmark itself: the gate catches drift and failures, and the
tracer's counters agree with its spans.

    python3 -m pytest perfbench/tests -q
"""

import copy
import dataclasses
import io
import math
import sys
from contextlib import redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import worker  # noqa: E402
import workloads as W  # noqa: E402
from tracer import Tracer  # noqa: E402


def _lattice(tmp_path, count):
    w = W.build("numerics", 3, workdir=tmp_path)
    w.jobs = [j for j in w.jobs if j.kind == "lattice-n2"][:count]
    return w


def test_todays_outputs_pass_the_gate(tmp_path):
    w = _lattice(tmp_path, 3)
    runner = worker.Runner(w)
    runner.execute(w.jobs)
    assert runner.failures == []
    assert runner.attempted == 3


def test_corrupt_reference_and_raising_job_are_reported(tmp_path):
    w = _lattice(tmp_path, 4)
    bad_ref, bad_run = w.jobs[0], w.jobs[1]
    w.refs = copy.deepcopy(w.refs)
    w.refs[bad_ref.id][0] *= 1.0 + 1e-6  # a drift of one part per million

    def boom():
        raise RuntimeError("injected failure")

    w.jobs[1] = dataclasses.replace(bad_run, run=boom)
    runner = worker.Runner(w)
    out = worker.measure(runner, 0.0, 0, setup={})
    assert out["metrics"]["fail_frac"][0] > 0
    assert out["failed"] == 2 and out["attempted"] == 4
    assert {f["job"] for f in out["failures"]} == {bad_ref.id, bad_run.id}

    out.update(env={"nproc": 1, "cpu_model": "test", "python": "", "numpy": "",
                    "scipy": "", "os_threads": 1, "thread_pins": {}, "thread_flag": False},
               setup_samples_s=[0.1])
    out["metrics"]["setup_s"] = (0.1, "s")
    text = io.StringIO()
    with redirect_stdout(text):
        run.report("numerics", out, 0)
    printed = text.getvalue()
    assert f"FAILED {bad_ref.id}: kernel value off by" in printed
    assert f"FAILED {bad_run.id}: raised RuntimeError: injected failure" in printed


def test_decay_drift_and_exponent_change_fail():
    ref = {"theoretical": "1/2", "fit": 0.99, "t": [0.1, 0.2], "lq": [1.0, 2.0],
           "l2": [1.0, 2.0], "linf": [3.0, 4.0], "verdict": "consistent"}
    assert W._decay_check(copy.deepcopy(ref), ref).ok
    drifted = copy.deepcopy(ref)
    drifted["lq"][1] *= 1.0 + 1e-8
    assert not W._decay_check(drifted, ref).ok
    reordered = copy.deepcopy(ref)
    reordered["lq"][1] *= 1.0 + 4e-12  # float reordering noise passes
    assert W._decay_check(reordered, ref).ok
    other = dict(ref, theoretical="1/3")
    assert not W._decay_check(other, ref).ok
    verdict_only = dict(ref, verdict="contradicted")  # verdicts are counted, not gated
    assert W._decay_check(verdict_only, ref).ok


def test_region_membership_must_match_the_oracle():
    sheet = W.atlas_sheet(4, 6)
    ref = W.atlas_reference(4, 6, sheet)
    assert W._atlas_check(sheet, ref).ok
    flipped = copy.deepcopy(ref)
    bits = flipped["member"]["AEF"]
    flipped["member"]["AEF"] = ("0" if bits[0] == "1" else "1") + bits[1:]
    chk = W._atlas_check(sheet, flipped)
    assert not chk.ok and chk.disagreements == 1


def test_trace_counters_agree_with_spans(tmp_path):
    w = W.build("numerics", 5, workdir=tmp_path)
    job = next(j for j in w.jobs if j.kind == "decay-n2")
    runner = worker.Runner(w)
    tracer = Tracer(worker.make_hooks())
    original = W.D.verify_lp_lq
    tracer.install()
    try:
        assert W.D.verify_lp_lq is not original
        wall, _, _, nbytes = runner.execute([job], tracer)
    finally:
        tracer.uninstall()
    assert W.D.verify_lp_lq is original
    assert runner.failures == []
    snap = worker.snapshot(tracer, wall / 1e9, nbytes)
    assert snap["counts"]["decay.verify_calls"] == 1
    assert snap["counts"]["spectral.propagate_calls"] == 36
    for rule, (got, want) in snap["rules"].items():
        assert got == want, rule
    accounted = sum(snap["self_s"].values())
    assert math.isclose(accounted, snap["wall_s"], rel_tol=0.02)
