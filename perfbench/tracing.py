"""In-memory span tracing of becsteer's public functions, installed from outside.

The program itself carries no tracing.  `Tracer.instrument` replaces every
public function and every public method of a public class defined in the
traced modules by a wrapper that records one span per call: (name, start,
end, parent), where parent is the index of the enclosing span or -1.  Spans
stay in memory; the probe writes them once, when the command has finished.

`summarise` turns a span list into per-name call counts, total time and self
time (a span's duration minus the time its child spans cover).
"""

import functools
import inspect
import sys
import time

# Layers that get spans.  `grid` runs inside the meanfield spans and `losses`
# is not on any workload's path, so neither is wrapped: wrapping grid's
# integrate/inner would add thousands of spans per step for no layer metric.
TRACED_MODULES = ("config", "sequence", "meanfield", "fockflow",
                  "correlators", "oracle4mode")


def clock():
    """System-wide monotonic clock, comparable between parent and child."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
        return traced

    def instrument(self, package="becsteer"):
        """Wrap the public callables of TRACED_MODULES in place.

        Module-level aliases (`from .x import f`) and default arguments that
        hold an original function (`evaluator=fock_sum_average`) are rebound
        to the wrapper, so every call path records a span.
        """
        replaced = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"{package}.{short}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self.wrap(f"{short}.{name}", obj)
                elif inspect.isclass(obj):
                    for attr, val in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(val):
                            w = self.wrap(f"{short}.{name}.{attr}", val)
                            replaced[id(val)] = w
                            setattr(obj, attr, w)
        rebind(package, replaced)
        for w in replaced.values():
            fn = w.__wrapped__
            if fn.__defaults__:
                fn.__defaults__ = tuple(replaced.get(id(d), d) for d in fn.__defaults__)
            if fn.__kwdefaults__:
                fn.__kwdefaults__ = {k: replaced.get(id(d), d)
                                     for k, d in fn.__kwdefaults__.items()}


def rebind(package, replaced):
    """Point every module-level alias of a replaced function, in the loaded
    modules of `package`, at its replacement; replaced maps id(original)
    to the replacement."""
    for mod in list(sys.modules.values()):
        if mod is None or not (mod.__name__ == package
                               or mod.__name__.startswith(package + ".")):
            continue
        for name, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                setattr(mod, name, replaced[id(obj)])


def summarise(spans):
    """{name: {"calls", "s", "self_s"}} plus the total time of top-level spans.

    Spans of one process never overlap except by nesting, so a span's self
    time is its duration minus the summed durations of its direct children.
    """
    child_time = [0.0] * len(spans)
    top = 0.0
    for name, start, end, parent in spans:
        if parent < 0:
            top += end - start
        else:
            child_time[parent] += end - start
    out = {}
    for (name, start, end, _), child in zip(spans, child_time):
        rec = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        rec["calls"] += 1
        rec["s"] += end - start
        rec["self_s"] += end - start - child
    return out, top
