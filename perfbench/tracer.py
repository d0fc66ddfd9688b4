"""Outside-in tracer.

Wraps the package's entry points by substituting module attributes, so
no file under src/ changes. The package looks these names up in its module
globals at call time, which means calls made from inside the package are
caught too. Coarse calls become spans (name, start, end, parent); the hot
scalar kernel `norm_eval` is only counted and timed against the span that
is open when it runs (layer `norms`), because storing a span per call would cost hundreds
of MiB on a full search.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import threading
import time

# (module, attribute, span name). The cli entries are the names cli.py
# imported from the other modules; wrapping them there is what catches the
# subcommands' calls.
SPAN_TARGETS = (
    ("normgeo.detect", "violation_search", "detect.violation_search"),
    ("normgeo.detect", "parallelogram_defect_search", "detect.parallelogram"),
    ("normgeo.detect", "dw_constant_estimate", "detect.dw"),
    ("normgeo.inequalities", "evaluate_inequality", "inequalities.evaluate_inequality"),
    ("normgeo.inequalities", "batch_min_slack", "inequalities.batch_min_slack"),
    ("normgeo.cli", "detect_inner_product", "detect.detect_inner_product"),
    ("normgeo.cli", "batch_min_slack", "inequalities.batch_min_slack"),
    ("normgeo.cli", "dw_constant_estimate", "detect.dw"),
    ("normgeo.cli", "n_curve", "functional.n_curve"),
    ("normgeo.cli", "validate_norm_axioms", "norms.validate_norm_axioms"),
)
COUNT_TARGETS = (
    ("normgeo.detect", "norm_eval"),
    ("normgeo.inequalities", "norm_eval"),
)


def family(spec):
    """Short family label of a spec: l1, l3, linf, wl2, gram, ..."""
    if spec.kind == "quadratic":
        return "gram"
    p = "inf" if spec.p == float("inf") else f"{spec.p:g}"
    return ("w" if spec.kind == "weighted_lp" else "") + "l" + p


def _attrs(name, args, kwargs, result):
    """What a span keeps of its call: enough to name per-family and
    per-objective figures and to count evaluations. Every wrapped entry
    point takes the spec first, except the inequality ones, which take the
    inequality id first."""
    spec = args[1] if name.startswith("inequalities.") else args[0]
    out = {"family": family(spec), "dim": spec.dim}
    if name == "detect.violation_search":
        objective, config = args[1], args[2]
        out["objective"] = str(getattr(objective, "value", objective))
        out["budget"] = config.restarts * config.iters_per_restart
        out["evals"] = result.evaluations
    elif name in ("detect.parallelogram", "detect.dw"):
        out["evals"] = result.evaluations
    elif name == "inequalities.batch_min_slack":
        out["trials"] = args[2] if len(args) > 2 else kwargs["trials"]
    return out


class Tracer:
    def __init__(self):
        self.spans = []  # [id, name, parent, start, end, attrs]
        self._cells = []  # one {span id: [calls, seconds]} of norm_eval per thread
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []
        self._main = threading.get_ident()
        self._saved = []

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _current(self):
        stack = self._stack()
        if stack:
            return stack[-1]
        # A pool thread reports to the span its submitter has open.
        return self._main_stack[-1] if self._main_stack else None

    def open(self, name, attrs=None):
        with self._lock:
            span = [len(self.spans), name, self._current(), time.perf_counter(), None, attrs or {}]
            self.spans.append(span)
        self._stack().append(span[0])
        return span

    def close(self, span):
        span[4] = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name, **attrs):
        """A span around the caller's own block."""
        span = self.open(name, attrs)
        try:
            yield span
        finally:
            self.close(span)

    def _wrap_span(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            span[5] = _attrs(name, args, kwargs, result)
            return result

        return wrapper

    def _wrap_count(self, fn):
        # Each thread counts into its own dict, so the pool threads of a
        # search never wait on a lock once per call.
        clock = time.perf_counter
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                try:
                    cells = local.cells
                except AttributeError:
                    cells = local.cells = {}
                    with self._lock:
                        self._cells.append(cells)
                key = self._current()
                cell = cells.get(key)
                if cell is None:
                    cells[key] = [1, dt]
                else:
                    cell[0] += 1
                    cell[1] += dt

        return wrapper

    @property
    def hot(self):
        """norm_eval calls and seconds per open span: {span id: [calls, seconds]}."""
        out = {}
        for cells in list(self._cells):
            for sid, (calls, secs) in cells.items():
                cell = out.setdefault(sid, [0, 0.0])
                cell[0] += calls
                cell[1] += secs
        return out

    def install(self):
        for module_name, attr, span_name in SPAN_TARGETS:
            self._substitute(module_name, attr, lambda fn, n=span_name: self._wrap_span(fn, n))
        for module_name, attr in COUNT_TARGETS:
            self._substitute(module_name, attr, self._wrap_count)
        return self

    def _substitute(self, module_name, attr, make):
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    def dump(self):
        return {
            "spans": self.spans,
            "hot": [[sid, calls, secs] for sid, (calls, secs) in self.hot.items()],
        }

    def merge(self, dumped):
        """Append spans recorded elsewhere (a child process), renumbered and
        hung under the span open here."""
        base = len(self.spans)
        parent = self._current()
        for sid, name, par, start, end, attrs in dumped["spans"]:
            self.spans.append([base + sid, name, parent if par is None else base + par, start, end, attrs])
        self._cells.append({None if sid is None else base + sid: [calls, secs]
                            for sid, calls, secs in dumped["hot"]})

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.dump(), fh)


def self_times(tracer):
    """Self time per layer: each span's duration minus what its child spans
    and counted kernel calls cover. Under a thread pool the children's summed
    time can exceed the parent's wall time, so a span's self time is floored
    at zero there."""
    child = {}
    for sid, _name, parent, start, end, _ in tracer.spans:
        if parent is not None:
            child[parent] = child.get(parent, 0.0) + (end - start)
    hot = {sid: secs for sid, (_, secs) in tracer.hot.items()}
    out = {"norms": sum(hot.values())}
    for sid, name, _parent, start, end, _ in tracer.spans:
        layer = name.split(".")[0]
        own = (end - start) - child.get(sid, 0.0) - hot.get(sid, 0.0)
        out[layer] = out.get(layer, 0.0) + max(0.0, own)
    return out
