"""Thread pinning and the environment record attached to every result.

Stdlib only: it is imported before numpy so the pins take effect.
"""

from __future__ import annotations

import os
import platform
from pathlib import Path

# One closed-loop client on a small machine: every native thread pool is
# pinned to a single thread, which keeps runs steady and leaves a core free.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "DDLAB_THREADS")
PINNED = "1"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pinned_env(base=None) -> dict:
    env = dict(os.environ if base is None else base)
    for var in THREAD_VARS:
        env[var] = PINNED
    return env


def pin_threads():
    """Pin the current process (call before numpy is imported)."""
    os.environ.update({var: PINNED for var in THREAD_VARS})


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def os_threads() -> int:
    """Threads of this process right now."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        import threading
        return threading.active_count()


def record() -> dict:
    """nproc, CPU model, versions and thread pins of the current process."""
    import numpy
    import scipy
    pins = {var: os.environ.get(var, "") for var in THREAD_VARS}
    cores = nproc()
    over = [var for var, val in pins.items() if val.isdigit() and int(val) > cores]
    threads = os_threads()
    return {
        "nproc": cores,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_pins": pins,
        "os_threads": threads,
        "thread_flag": bool(over) or threads > cores,
        "thread_flag_reason": (f"pins above nproc: {over}" if over else
                               f"{threads} threads > nproc {cores}" if threads > cores
                               else ""),
    }
