"""Span tracing installed from outside kaf by wrapping its public entry points.

`Tracer.install()` replaces each traced function or method with a wrapper
that opens a span for each call: its layer (the kaf module that defines
it), its start and end, and the span that caused it. A function imported by name into
another module (`from .base import as_input`) is replaced in every kaf
module that holds it, since that is where it is looked up at call time.

Spans are aggregated as they close instead of being stored: per layer the
benchmark keeps the summed self time (span duration minus the part of it
covered by child spans) and per entry point the call count. A span opened
on a pool thread with no enclosing span there is a child of whatever span
the main thread had open when it started, so `run_trials` waiting on its
workers is not counted as its own work.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

# (module, function) pairs wrapped wherever they are bound, and
# (module, class, method) triples wrapped on the class.
FUNCTIONS = [
    ("kaf.base", "as_input"),
    ("kaf.kernels", "kernel_vector"),
    ("kaf.kernels", "kernel_eval"),
    ("kaf.experiments", "generate"),
    ("kaf.experiments", "run_trial"),
    ("kaf.experiments", "run_trials"),
    ("kaf.cli", "main"),
]
METHODS = [
    ("kaf.krls", "KrlsAldReg", "step"),
    ("kaf.krls", "KrlsAldReg", "predict"),
    ("kaf.klms", "Klms", "step"),
    ("kaf.klms", "Klms", "predict"),
    ("kaf.dictionary", "Dictionary", "ald_test"),
    ("kaf.dictionary", "Dictionary", "grow"),
    ("kaf.experiments", "LearningCurve", "append_csv_rows"),
]
LAYERS = ("base", "kernels", "dictionary", "krls", "klms", "experiments", "cli")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.cli_main_self: list[float] = []     # self time of each cli.main call
        self._local = threading.local()
        self._main_stack: list | None = None
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.cli_main_self.clear()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.current_thread() is threading.main_thread():
                self._main_stack = stack
        return stack

    def _wrap(self, fn, name: str, layer: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            owner = None
            if not stack and stack is not tracer._main_stack and tracer._main_stack:
                owner = tracer._main_stack[-1]
            frame = [0.0, []]          # child seconds, child intervals on other threads
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                elif owner is not None:
                    with tracer._lock:
                        owner[1].append((t0, t1))
                own = dur - frame[0] - _covered(frame[1], t0, t1)
                with tracer._lock:
                    tracer.self_s[layer] += own
                    tracer.calls[name] += 1
                    if name == "cli.main":
                        tracer.cli_main_self.append(own)

        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        kaf_modules = [m for n, m in list(sys.modules.items())
                       if (n == "kaf" or n.startswith("kaf.")) and m is not None]
        for modname, attr in FUNCTIONS:
            fn = getattr(sys.modules[modname], attr)
            layer = modname.split(".")[1]
            wrapper = self._wrap(fn, f"{layer}.{attr}", layer)
            for mod in kaf_modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._restore.append((mod, key, val))
                        setattr(mod, key, wrapper)
        for modname, cls_name, attr in METHODS:
            cls = getattr(sys.modules[modname], cls_name)
            layer = modname.split(".")[1]
            fn = cls.__dict__[attr]
            self._restore.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(fn, f"{layer}.{attr}", layer))

    def uninstall(self) -> None:
        for owner, key, val in reversed(self._restore):
            setattr(owner, key, val)
        self._restore.clear()
