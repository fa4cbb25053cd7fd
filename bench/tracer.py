"""Span tracer installed from outside the package.

`Tracer.install` replaces every public function of the traced modules (and
the public methods of their public classes) with a wrapper that records a
span: name, start, end and parent.  A function bound into another module
with `from ... import` is replaced in that namespace too, so a call is
traced whichever name it is made through.  Spans are kept in memory, one
buffer per thread (a span's parent is the innermost open span of its own
thread), and analysed or written out when the run ends.
"""

import functools
import inspect
import threading
import time
from array import array

import numpy as np

MODULES = ("cli", "mcharness", "leakage", "outage", "powalloc", "linkstats",
           "specfun")
# the entry span of the CLI workloads; coverage below it is what matters
ENTRY = "cli.main"


def _arg(args, kwargs, position, name, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


def _trials(position):
    return lambda args, kwargs: int(_arg(args, kwargs, position, "trials", 0))


# counters recorded at span entry: traced name -> (counter, increment)
COUNTERS = {
    "mcharness.empirical_outage": ("mcharness.empirical_outage.trials", _trials(3)),
    "mcharness.empirical_rate": ("mcharness.empirical_rate.trials", _trials(3)),
    "leakage.antenna_pmf": ("leakage.antenna_pmf.trials", _trials(4)),
    # a block generator keyed with retry > 0 is a rank-deficiency redraw
    "mcharness.block_generator": (
        "mcharness.redraws",
        lambda args, kwargs: int(_arg(args, kwargs, 3, "retry", 0) > 0)),
}
# foreign callables traced under the name of the module that looks them up
FOREIGN = {"leakage": ("expm",)}


class Tracer:
    def __init__(self):
        self.names = []
        self.counters = {}
        self._local = threading.local()
        self._buffers = []
        self._lock = threading.Lock()

    def _thread_state(self):
        buf = (array("i"), array("d"), array("d"), array("q"))
        stack = [-1]
        self._local.buf, self._local.stack = buf, stack
        with self._lock:
            self._buffers.append(buf)
        return buf, stack

    def wrap(self, name, fn):
        sid = len(self.names)
        self.names.append(name)
        key, increment = COUNTERS.get(name, (None, None))
        if key is not None:
            self.counters[key] = 0
        local, clock, state = self._local, time.perf_counter, self._thread_state
        counters, lock = self.counters, self._lock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                buf, stack = local.buf, local.stack
            except AttributeError:
                buf, stack = state()
            names, starts, ends, parents = buf
            idx = len(starts)
            names.append(sid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            if key is not None:
                step = increment(args, kwargs)
                with lock:
                    counters[key] += step
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self, package):
        """Wrap the public functions and methods of package.<MODULES> and
        rebind every module-level name that refers to one of them."""
        modules = {short: getattr(package, short) for short in MODULES}
        wrapped = {}
        for short, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    wrapped[value] = self.wrap(f"{short}.{attr}", value)
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    self._wrap_methods(f"{short}.{attr}", value)
            for attr in FOREIGN.get(short, ()):
                setattr(module, attr, self.wrap(f"{short}.{attr}", getattr(module, attr)))
        for module in [package, *modules.values()]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, attr, wrapped[value])

    def _wrap_methods(self, prefix, cls):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(value, classmethod):
                setattr(cls, attr, classmethod(self.wrap(f"{prefix}.{attr}", value.__func__)))
            elif inspect.isfunction(value):
                setattr(cls, attr, self.wrap(f"{prefix}.{attr}", value))

    def spans(self):
        """All spans as numpy arrays (name id, start, end, parent index into
        the same arrays, -1 for a root)."""
        with self._lock:
            buffers = list(self._buffers)
        if not buffers:
            return (np.zeros(0, np.int32), np.zeros(0), np.zeros(0),
                    np.zeros(0, np.int64))
        names, starts, ends, parents, offset = [], [], [], [], 0
        for n, s, e, p in buffers:
            par = np.array(p, dtype=np.int64)
            par[par >= 0] += offset
            names.append(np.array(n, dtype=np.int32))
            starts.append(np.array(s, dtype=float))
            ends.append(np.array(e, dtype=float))
            parents.append(par)
            offset += len(s)
        cat = np.concatenate
        return cat(names), cat(starts), cat(ends), cat(parents)

    def save(self, path):
        names, starts, ends, parents = self.spans()
        np.savez(path, table=np.array(self.names), name=names, start=starts,
                 end=ends, parent=parents)


def covered(starts, ends, lo, hi):
    """Length of the union of [start, end] intervals clipped to [lo, hi]."""
    s, e = np.clip(starts, lo, hi), np.clip(ends, lo, hi)
    keep = e > s
    s, e = s[keep], e[keep]
    if s.size == 0:
        return 0.0
    order = np.argsort(s, kind="stable")
    s, e = s[order], e[order]
    reach = np.maximum.accumulate(e)
    first = np.empty(s.size, dtype=bool)
    first[0] = True
    first[1:] = s[1:] > reach[:-1]
    heads = np.flatnonzero(first)
    return float(np.sum(np.maximum.reduceat(e, heads) - s[heads]))


def layer_table(tracer, window):
    """Per function: calls, total_s and self_s (span time minus the time its
    child spans cover), plus the per-parent child counts used for ratios."""
    names, starts, ends, parents = tracer.spans()
    table = tracer.names
    dur = ends - starts
    has_parent = parents >= 0
    child_time = np.bincount(parents[has_parent], weights=dur[has_parent],
                             minlength=dur.size)
    self_time = dur - child_time
    k = len(table)
    calls = np.bincount(names, minlength=k)
    total = np.bincount(names, weights=dur, minlength=k)
    self_total = np.bincount(names, weights=self_time, minlength=k)
    rows = {table[i]: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(self_total[i])} for i in range(k)}
    pair = names[has_parent].astype(np.int64) * k + names[parents[has_parent]]
    pairs = np.bincount(pair, minlength=k * k).reshape(k, k)
    lo, hi = window
    wall = hi - lo
    module_of = np.array([name.split(".", 1)[0] for name in table])
    shares = {}
    for module in MODULES:
        mask = np.isin(names, np.flatnonzero(module_of == module))
        shares[module] = covered(starts[mask], ends[mask], lo, hi) / wall
    entry = table.index(ENTRY) if ENTRY in table else -1
    below = names != entry
    uncovered = 1.0 - covered(starts[below], ends[below], lo, hi) / wall
    return {"functions": rows, "child_calls": {
                f"{table[p]}>{table[c]}": int(pairs[c, p])
                for c in range(k) for p in range(k) if pairs[c, p]},
            "module_share": shares, "uncovered_share": uncovered,
            "wall_s": wall, "spans": int(dur.size)}
