"""Spans around the public functions of each ``ahft`` module.

The wrappers are installed from outside the program: each one replaces a
function at the module attribute its caller on the CLI path looks up, so
``src/ahft`` itself is not edited.  A span records its name, start, end,
parent span and the counts observed at that boundary; spans stay in
memory until the run ends and are aggregated per pass.

No per-row function is wrapped.  ``alt.predict_percentile`` in
particular is called once per row by ``validation.evaluate`` (through
the name ``validation`` bound at import) and once per grid point by
``alt.sweep_curve``; wrapping it would make the overhead scale with the
data instead of with the number of layer calls.  ``validation.fit_mle``
is only reached by ``recovery_check``, which no subcommand calls.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict


def _csv_bytes_read(args, kwargs, result):
    source = args[0] if args else kwargs["source"]
    if hasattr(source, "tell"):
        return {"csv_bytes_read": source.tell()}
    return {"csv_bytes_read": len(source)}


# (module, attribute, span name, counts taken from the call)
WRAPPED = (
    ("ahft.dataset", "load_csv", "dataset.load_csv", _csv_bytes_read),
    ("ahft.dataset", "serialize", "dataset.serialize",
     lambda a, k, r: {"csv_bytes_written": len(r)}),
    ("ahft.dataset:Dataset", "column", "dataset.column", None),
    ("ahft.pca", "correlation_matrix", "dataset.correlation", None),
    ("ahft.pca", "eigen_symmetric", "pca.eigen", None),
    ("ahft.pca", "run_pca", "pca.run_pca", None),
    ("ahft.alt", "fit_mle", "alt.fit_mle",
     lambda a, k, r: {"iterations": r.fit_meta.iterations}),
    ("ahft.alt", "log_likelihood", "alt.loglik", None),
    ("ahft.alt", "save_model", "alt.model_io", None),
    ("ahft.alt", "load_model", "alt.model_io", None),
    ("ahft.alt", "predict_with_interval", "alt.predict", None),
    ("ahft.alt", "sweep_curve", "alt.sweep", lambda a, k, r: {"sweep_points": len(r)}),
    ("ahft.validation", "generate_synthetic", "validation.generate",
     lambda a, k, r: {"rows_generated": r.n_rows}),
    ("ahft.validation", "evaluate", "validation.evaluate",
     lambda a, k, r: {"rows_evaluated": len(r.rows)}),
    ("ahft.svg", "line_chart", "svg.line_chart",
     lambda a, k, r: {"points": len(a[0] if a else k["points"])}),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts", "result", "args")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = time.perf_counter()
        self.end = None
        self.counts = None
        self.result = None
        self.args = None


class Tracer:
    """Records spans while ``enabled``; a no-op pass-through otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self._stack: list[int] = []
        self._restore = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append(Span(name, self._stack[-1] if self._stack else None))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index].end = time.perf_counter()

    def wrap(self, fn, name, counter):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            span = tracer.spans[index]
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            if name == "alt.fit_mle":  # for the log-likelihood probe, which drops them
                span.args, span.result = args, result
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for target, attr, name, counter in WRAPPED:
            module_name, _, class_name = target.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            original = getattr(owner, attr)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, counter))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def aggregate(spans: list[Span], first: int, last: int):
    """Per-layer seconds and counts of ``spans[first:last]``.

    Only spans under a ``cli.main`` root count towards the layers; the
    ``alt.loglik`` probe runs outside the CLI and is reported on its
    own.  ``<span>.self`` keys exclude the time covered by child spans.
    """
    child_time = defaultdict(float)
    root_name = {}
    for i in range(first, last):
        span = spans[i]
        root_name[i] = span.name if span.parent is None else root_name[span.parent]
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    seconds, counts = defaultdict(float), defaultdict(int)
    for i in range(first, last):
        span = spans[i]
        duration = span.end - span.start
        if root_name[i] == "alt.loglik":
            if span.parent is None:
                seconds["alt.loglik"] += duration
            continue
        seconds[span.name] += duration
        seconds[span.name + ".self"] += duration - child_time[i]
        counts[span.name + ".calls"] += 1
        for key, value in (span.counts or {}).items():
            counts[key] += value
    return seconds, counts
