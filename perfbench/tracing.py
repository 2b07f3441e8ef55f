"""Spans around the calls into each opcert layer, recorded from outside.

``Tracer.install(api)`` wraps the public functions where their callers look
them up and restores them on ``uninstall``.  Each call records a span
``[name, start, end, parent, job]`` in memory; counts are taken at the same
boundaries.  Self time of a span is its duration minus the time its child
spans cover.
"""

from __future__ import annotations

import collections
import functools
import json
import sys
from time import perf_counter

# per-layer metric -> span name whose self time it reports
SELF_TIMES = {
    "freealg.parse_s": "freealg.parse",
    "statements.parse_problem_s": "statements.parse_problem",
    "statements.translate_s": "statements.translate",
    "quiver.check_s": "quiver.check",
    "rewrite.overlaps_s": "rewrite.overlaps",
    "rewrite.retire_s": "rewrite.retire",
    "rewrite.normal_form_s": "rewrite.normal_form",
    "rewrite.process_self_s": "rewrite.process",
    "rewrite.interreduce_s": "rewrite.interreduce",
    "rewrite.expand_s": "rewrite.expand",
    "certify.self_s": "certify.certify",
    "certify.minimize_s": "certify.minimize",
    "certify.verify_s": "certify.verify",
    "certify.cert_load_s": "certify.cert_load",
    "matcheck.check_s": "matcheck.check",
}

# per-layer metric -> span name whose number of calls it reports
CALLS = {
    "freealg.parse_calls": "freealg.parse",
    "statements.workflow_steps": "statements.workflow_step",
}

# per-layer metric -> counter filled at the span boundaries
COUNTS = ("rewrite.overlap_rows", "rewrite.retired", "rewrite.reduction_steps",
          "certify.summands", "rewrite.obstructions_processed",
          "rewrite.elements_added", "rewrite.skipped_degree",
          "rewrite.queued_at_stop", "rewrite.active_at_stop")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts = collections.Counter()
        self.job = None
        self.missing: list = []
        self._stack: list = []
        self._engines: list = []
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around every call."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
        return traced

    def counted(self, key: str, fn, measure=len):
        """``fn`` adding ``measure(result)`` to the counter ``key``."""
        counts = self.counts

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[key] += measure(result)
            return result
        return counting

    def _normal_form(self, nf):
        counts = self.counts

        def counting(terms, items_of, steps, *args, **kwargs):
            before = len(steps)
            try:
                return nf(terms, items_of, steps, *args, **kwargs)
            finally:
                counts["rewrite.reduction_steps"] += len(steps) - before
        return self.wrap("rewrite.normal_form", counting)

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        own = vars(owner) if owner is not None else {}
        if attr not in own:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._undo.append((owner, attr, own[attr]))
        setattr(owner, attr, make(own[attr]))

    def install(self, api) -> None:
        """Wrap the layer boundaries of one ``workloads.Opcert`` import."""
        span = lambda name: lambda fn: self.wrap(name, fn)  # noqa: E731
        self._patch(api.freealg.FreeAlgebra, "parse", span("freealg.parse"))
        st = api.statements
        for attr, name in (("parse_problem", "statements.parse_problem"),
                           ("translate", "statements.translate"),
                           ("apply_cancellability", "statements.workflow_step"),
                           ("infer_signatures", "quiver.check"),
                           ("check_problem", "quiver.check"),
                           ("certify", "certify.certify")):
            self._patch(st, attr, span(name))
        cm = api.certify
        self._patch(cm, "certify", span("certify.certify"))
        self._patch(cm, "minimize_certificate", lambda fn: self.wrap(
            "certify.minimize", self.counted(
                "certify.summands", fn, lambda cert: len(cert.summands))))
        self._patch(cm, "verify_certificate", span("certify.verify"))
        self._patch(cm, "certificate_from_dict", span("certify.cert_load"))
        self._patch(cm, "CompletionEngine", self._engine_class)
        # the engine reaches the kernel through ``self.kernel``, a module
        kernel = getattr(api.rewrite, "KERNEL", None) or \
            sys.modules.get("opcert._kernel_py")
        for attr in ("batch_overlaps", "self_overlaps"):
            self._patch(kernel, attr, lambda fn: self.wrap(
                "rewrite.overlaps", self.counted("rewrite.overlap_rows", fn)))
        self._patch(kernel, "find_retirees", lambda fn: self.wrap(
            "rewrite.retire", self.counted("rewrite.retired", fn)))
        for attr in ("example1_check", "example2_check",
                     "fixture_penrose_report"):
            self._patch(api.matcheck, attr, span("matcheck.check"))

    def _engine_class(self, base):
        """A subclass of the completion engine that registers each instance
        and traces its phases; ``certify`` looks it up by name."""
        tracer = self

        class TracedEngine(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tracer._engines.append(self)
                reducer = getattr(self, "reducer", None)
                if reducer is not None:
                    reducer.normal_form = tracer._normal_form(
                        reducer.normal_form)

        for attr, name in (("process", "rewrite.process"),
                           ("interreduce", "rewrite.interreduce"),
                           ("expand_steps", "rewrite.expand")):
            if hasattr(base, attr):
                setattr(TracedEngine, attr,
                        self.wrap(name, getattr(base, attr)))
            else:
                self.missing.append(f"CompletionEngine.{attr}")
        TracedEngine.__name__ = TracedEngine.__qualname__ = base.__name__
        return TracedEngine

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def collect_engines(self) -> None:
        """Add the counters of the engines created so far at their stop."""
        for e in self._engines:
            stats = e.stats
            self.counts["rewrite.obstructions_processed"] += \
                stats.obstructions_processed
            self.counts["rewrite.elements_added"] += stats.elements_added
            self.counts["rewrite.skipped_degree"] += \
                stats.obstructions_skipped_degree
            self.counts["rewrite.queued_at_stop"] += len(e.queue)
            self.counts["rewrite.active_at_stop"] += len(e.active_indices())
        self._engines.clear()

    # -- reporting ---------------------------------------------------------

    def self_times(self) -> collections.Counter:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = collections.Counter()
        for k, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - covered[k]
        return out

    def layer_metrics(self, passes: int, scale: float = 1.0) -> dict:
        """Per-layer metrics, each per pass of the job list; self times are
        multiplied by ``scale``."""
        selfs = self.self_times()
        calls = collections.Counter(s[0] for s in self.spans)
        c = self.counts
        out = {m: selfs[name] * scale / passes
               for m, name in SELF_TIMES.items()}
        out.update({m: calls[name] / passes for m, name in CALLS.items()})
        out.update({m: c[m] / passes for m in COUNTS
                    if m != "rewrite.skipped_degree"})
        rows = c["rewrite.overlap_rows"]
        out["rewrite.degree_skip_ratio"] = \
            c["rewrite.skipped_degree"] / rows if rows else 0.0
        processed = c["rewrite.obstructions_processed"]
        out["rewrite.useful_obstruction_ratio"] = \
            c["rewrite.elements_added"] / processed if processed else 0.0
        out["trace.spans"] = len(self.spans) / passes
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines: a header, then one span a line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent",
                                            "job"]}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
