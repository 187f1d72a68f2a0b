"""Regenerate the committed reference outputs of every workload's job pool.

    python3 perfbench/make_refs.py [workload ...]

Run from the repository root.  References pin today's outputs; regenerate them
only in a change that means to alter what the program computes, and say so.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import env  # noqa: E402

env.pin_threads()

import workloads as W  # noqa: E402


def generate(name):
    refs = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for job in W.pool(name, Path(tmp)):
            with contextlib.redirect_stdout(io.StringIO()):
                raw = job.run()
            summary, _ = job.summarize(raw)
            if job.kind == "atlas":
                m, n = (int(v[1:]) for v in job.id.split("/")[1].split("-"))
                summary = W.atlas_reference(m, n, summary)
            if job.id in refs:
                raise ValueError(f"duplicate pool job {job.id}")
            refs[job.id] = summary
    return refs


def main(names):
    W.REFS.mkdir(exist_ok=True)
    for name in names or W.WORKLOADS:
        t0 = time.perf_counter()
        refs = generate(name)
        with open(W.REFS / f"{name}.json", "w", encoding="ascii") as fh:
            json.dump(refs, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        print(f"{name}: {len(refs)} references in {time.perf_counter() - t0:.1f} s")


if __name__ == "__main__":
    main(sys.argv[1:])
