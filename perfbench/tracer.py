"""Per-layer spans and work counters for the traced benchmark runs.

The tracer wraps, from outside the package, every public function and public
method defined in the seven ddlab layer modules, plus the n-d FFT entry points
of numpy.fft and scipy.fft.  Each wrapped call is a span; a layer's self time
is the time its spans spend outside child spans.  FFT calls are counted and
timed but are transparent: their time stays in the self time of the layer that
called them.  `uninstall` restores every original, so untraced rounds in the
same process run the unmodified program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("symbol", "spectral", "kernel", "decay", "fitting", "regions", "cli")
BENCH = "bench"  # the benchmark's own code inside a job
FFT_MODULES = ("numpy.fft", "scipy.fft")
FFT_ENTRY_POINTS = ("fftn", "ifftn", "fft2", "ifft2", "rfftn", "irfftn")


class Tracer:
    """Collects spans and counters; install() patches, uninstall() restores."""

    def __init__(self, hooks=None):
        # hooks: {"layer.func": fn(tracer, args, kwargs, result, exc, dur_ns)}
        self.hooks = dict(hooks or {})
        self._patches = []  # (owner, attribute name or dict key, original, is_dict)
        self.reset()

    def reset(self):
        self.stack = []
        self.self_ns = Counter()
        self.layer_calls = Counter()
        self.func_calls = Counter()
        self.func_ns = Counter()
        self.counters = Counter()
        self.fft_by_parent = Counter()
        self.edges = Counter()  # (caller key, callee key) -> calls
        self.ops = defaultdict(lambda: [0, 0])  # op name -> [calls, total ns]
        self._fft_depth = 0

    # -- spans ---------------------------------------------------------------

    def job_span(self, fn):
        """Run fn() as a job: a root span owned by the benchmark itself."""
        return self._call(fn, (), {}, BENCH, "bench.job")

    def _call(self, fn, args, kwargs, layer, key):
        frame = [key, 0]  # name, child time
        parent = self.stack[-1][0] if self.stack else None
        self.stack.append(frame)
        t0 = time.perf_counter_ns()
        result = exc = None
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as err:
            exc = err
            raise
        finally:
            dur = time.perf_counter_ns() - t0
            self.stack.pop()
            self.self_ns[layer] += dur - frame[1]
            if self.stack:
                self.stack[-1][1] += dur
            if layer != BENCH:
                self.layer_calls[layer] += 1
                self.func_calls[key] += 1
                self.func_ns[key] += dur
                self.edges[(parent, key)] += 1
            hook = self.hooks.get(key)
            if hook is not None:
                hook(self, args, kwargs, result, exc, dur)

    def add_op(self, name, dur_ns):
        rec = self.ops[name]
        rec[0] += 1
        rec[1] += dur_ns

    def _fft(self, fn, args, kwargs):
        if self._fft_depth:
            return fn(*args, **kwargs)
        self._fft_depth += 1
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter_ns() - t0
            self._fft_depth -= 1
            points = _size(args[0]) if args else 0
            self.counters["fft_calls"] += 1
            self.counters["fft_points"] += points
            self.counters["fft_ns"] += dur
            self.fft_by_parent[self.stack[-1][0] if self.stack else None] += 1

    # -- patching ------------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        replaced = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = importlib.import_module(f"ddlab.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replaced[id(obj)] = self._wrapper(obj, layer, f"{layer}.{name}")
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for mname, meth in list(vars(obj).items()):
                        if mname.startswith("_") or not inspect.isfunction(meth):
                            continue
                        wrapper = self._wrapper(meth, layer, f"{layer}.{name}.{mname}")
                        self._patch(obj, mname, meth, wrapper)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ddlab" or mod_name.startswith("ddlab.")):
                continue
            for name, val in list(vars(mod).items()):
                if id(val) in replaced and inspect.isfunction(val):
                    self._patch(mod, name, val, replaced[id(val)])
                elif isinstance(val, dict) and not name.startswith("__"):
                    for key, item in list(val.items()):
                        if id(item) in replaced and inspect.isfunction(item):
                            self._patch(val, key, item, replaced[id(item)], is_dict=True)
        for mod_name in FFT_MODULES:
            mod = importlib.import_module(mod_name)
            for name in FFT_ENTRY_POINTS:
                orig = getattr(mod, name, None)
                if orig is not None:
                    self._patch(mod, name, orig, self._fft_wrapper(orig))

    def uninstall(self):
        for owner, name, original, is_dict in reversed(self._patches):
            if is_dict:
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._patches = []

    def _patch(self, owner, name, original, wrapper, is_dict=False):
        if is_dict:
            owner[name] = wrapper
        else:
            setattr(owner, name, wrapper)
        self._patches.append((owner, name, original, is_dict))

    def _wrapper(self, fn, layer, key):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._call(fn, args, kwargs, layer, key)

        return wrapper

    def _fft_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._fft(fn, args, kwargs)

        return wrapper


def _size(a):
    size = getattr(a, "size", None)
    if size is not None:
        return int(size)
    try:
        import numpy as np
        return int(np.size(a))
    except (TypeError, ValueError):
        return 0
