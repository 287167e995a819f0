"""Span tracing for the benchmark's traced run.

The tracer wraps the public functions of the library's layer modules
from outside the package.  Modules import each other's functions by
name, so every `cantrans` module namespace that binds a wrapped function
gets the wrapper.  Spans are kept in memory as plain lists, with the id
of the enclosing span and of the benchmark task, and are written out
once at the end of the run.
"""

import importlib
import inspect
import json
import sys
from time import perf_counter

# The layers are the package's modules; `words`, `randgen` and
# `fixtures` only serve input generation or run inside their callers.
LAYERS = ("machine", "minimize", "algebra", "synchro", "classify",
          "document", "cli")

# Per-letter helpers stay unwrapped so the tracing overhead stays small;
# `entry` exits the process.
UNWRAPPED = {"machine.run_word", "cli.entry"}

# Span record fields.
ID, PARENT, NAME, TASK, START, END, STATES_IN, STATES_OUT, STATUS, EXTRA = \
    range(10)


def _states(value):
    return len(value.states) if type(value).__name__ == "Transducer" else 0


def _extra(name, args, result):
    """Layer-specific counts: bytes through the document layer, state
    pairs entering a core product."""
    if name == "document.parse" and args and isinstance(args[0], str):
        return len(args[0])
    if name == "document.serialize" and isinstance(result, str):
        return len(result)
    if name == "synchro.core_product" and len(args) == 2:
        return _states(args[0]) * _states(args[1])
    return 0


class Tracer:
    def __init__(self, refusals=()):
        """`refusals`: exception types that count as typed refusals (a
        span's `failed` status) rather than errors."""
        self.spans = []
        self.refusals = tuple(refusals)
        self._stack = []
        self._task = None
        self._bound = []

    def wrap(self, name, fn):
        spans, stack, refusals = self.spans, self._stack, self.refusals

        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else None, name,
                   self._task, 0.0, 0.0,
                   sum(_states(a) for a in args), 0, "ok", 0]
            spans.append(rec)
            stack.append(rec[ID])
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except refusals:
                rec[STATUS] = "failed"
                raise
            except BaseException:
                rec[STATUS] = "error"
                raise
            finally:
                rec[END] = perf_counter()
                stack.pop()
            rec[STATES_OUT] = _states(result)
            rec[EXTRA] = _extra(name, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self, package):
        """Wrap each layer's public functions and rebind the wrappers in
        every loaded module of `package`."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            for attr, fn in inspect.getmembers(module, inspect.isfunction):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in UNWRAPPED
                        or fn.__module__ != module.__name__):
                    continue
                wrappers[id(fn)] = self.wrap(name, fn)
        for modname, module in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._bound.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self):
        for module, attr, value in reversed(self._bound):
            setattr(module, attr, value)
        self._bound.clear()

    def task(self, task_id, name):
        """Open a root span for one benchmark task; returns the closer."""
        rec = [len(self.spans), None, "task:" + name, task_id,
               perf_counter(), 0.0, 0, 0, "ok", 0]
        self.spans.append(rec)
        self._stack.append(rec[ID])
        self._task = task_id

        def close():
            rec[END] = perf_counter()
            self._stack.pop()
            self._task = None
        return close

    def write(self, path):
        keys = ("id", "parent", "name", "task", "start", "end", "states_in",
                "states_out", "status", "extra")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover (overlapping children counted once)."""
    children = {}
    for rec in spans:
        if rec[PARENT] is not None:
            children.setdefault(rec[PARENT], []).append(
                (rec[START], rec[END]))
    out = {}
    for rec in spans:
        lo, hi = rec[START], rec[END]
        covered, reach = 0.0, lo
        for a, b in sorted(children.get(rec[ID], ())):
            a, b = max(a, reach), min(b, hi)
            if b > a:
                covered += b - a
                reach = b
        out[rec[ID]] = (hi - lo) - covered
    return out


def layer_stats(spans):
    """Totals per wrapped function: calls, self_s, states_in, states_out,
    failed (typed refusals) and the layer-specific extra count."""
    selfs = self_times(spans)
    stats = {}
    for rec in spans:
        if rec[NAME].startswith("task:"):
            continue
        s = stats.setdefault(rec[NAME], dict(
            calls=0, self_s=0.0, states_in=0, states_out=0, failed=0,
            extra=0))
        s["calls"] += 1
        s["self_s"] += selfs[rec[ID]]
        s["states_in"] += rec[STATES_IN]
        s["states_out"] += rec[STATES_OUT]
        s["failed"] += rec[STATUS] == "failed"
        s["extra"] += rec[EXTRA]
    return stats
