"""Span and count tracing of betaquad from outside the package.

``Tracer.install()`` replaces the public entry points of ``cli``,
``verify``, ``catalog``, ``specfun`` and ``quad`` with wrappers that
record a span around each call; ``uninstall()`` puts the originals back.
Spans stay in memory and are aggregated by ``Tracer.summary()`` when the
run ends.

Threads: a span's parent is the enclosing span on its own thread.  Spans
opened on a thread with no open span (the ``--jobs`` pool workers) take
the open ``verify.verify_all`` span as their parent, so self time and
concurrency are measured against it.

Quadrature: each top-level engine call is one integral.  Engine calls made
inside ``integrate_pv`` are its pieces and are counted as PV work only, so
per-engine totals never double-count.  The integrand (and, for PV, each
fold) is wrapped in a counter, giving Python-level integrand calls next to
the engine's own evaluation count.
"""

from __future__ import annotations

import statistics
import threading
import time
from collections import Counter, defaultdict

ENGINES = ("finite", "half_line", "real_line", "pv")
STATUSES = ("converged", "max_level", "diverging", "max_evals")
SPECFUN = ("gamma", "log_gamma", "beta", "log_beta", "digamma")
TOP_N = 10


class _Span:
    __slots__ = ("name", "parent", "start", "end")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = None


class Tracer:
    def __init__(self):
        self.spans: list[_Span] = []
        # (span index, engine, entry key or None, evaluations, fcalls, status)
        self.integrals: list[tuple] = []
        self._local = threading.local()
        self._root = None
        self._patched: list[tuple] = []

    # -- recording --------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        index = len(self.spans)
        self.spans.append(_Span(name, parent, time.perf_counter()))
        stack.append(index)
        return index

    def _close(self, index):
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    def _innermost(self):
        stack = self._stack()
        return self.spans[stack[-1]].name if stack else None

    def _span_wrapper(self, name, fn):
        def wrapped(*args, **kwargs):
            index = self._open(name)
            is_root = name == "verify.verify_all"
            if is_root:
                self._root = index
            try:
                return fn(*args, **kwargs)
            finally:
                if is_root:
                    self._root = None
                self._close(index)

        return wrapped

    def _specfun_wrapper(self, name, fn):
        span = self._span_wrapper(name, fn)

        def wrapped(*args, **kwargs):
            # specfun calling specfun stays inside the outer span
            inner = self._innermost()
            if inner is not None and inner.startswith("specfun."):
                return fn(*args, **kwargs)
            return span(*args, **kwargs)

        return wrapped

    def _sample_wrapper(self, fn):
        span = self._span_wrapper("catalog.sample_params", fn)

        def wrapped(rec, seed, index):
            # later engine calls on this thread belong to this sample
            self._local.entry = (rec.id, seed, index)
            return span(rec, seed, index)

        return wrapped

    def _engine_wrapper(self, engine, fn):
        name = f"quad.{engine}"

        def counted(f, counter):
            def g(*args):
                counter[0] += 1
                return f(*args)

            return g

        def wrapped(f, *args, **kwargs):
            if self._innermost() == "quad.pv":
                return fn(f, *args, **kwargs)  # a PV piece: counted by the PV call
            counter = [0]
            if engine == "pv":
                folds = kwargs.get("folds", args[2] if len(args) > 2 else None)
                if folds is not None:
                    folds = tuple(counted(fold, counter) for fold in folds)
                    if len(args) > 2:
                        args = args[:2] + (folds,) + args[3:]
                    else:
                        kwargs["folds"] = folds
            index = self._open(name)
            try:
                result = fn(counted(f, counter), *args, **kwargs)
            finally:
                self._close(index)
            in_consistency = any(
                self.spans[i].name == "verify.consistency" for i in self._stack()
            )
            entry = None if in_consistency else getattr(self._local, "entry", None)
            self.integrals.append(
                (index, engine, entry, result.evaluations, counter[0], result.status)
            )
            return result

        return wrapped

    # -- patching ---------------------------------------------------------

    def _patch(self, module, attr, wrapper):
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper(original))

    def install(self):
        from betaquad import catalog, cli, quad, specfun, verify

        self._patch(cli, "run", lambda fn: self._span_wrapper("cli", fn))
        for attr, name in (
            ("verify_all", "verify.verify_all"),
            ("verify_entry", "verify.verify_entry"),
            ("cross_check_consistency", "verify.consistency"),
            ("report_to_jsonl", "verify.report_to_jsonl"),
        ):
            self._patch(verify, attr, lambda fn, name=name: self._span_wrapper(name, fn))
        self._patch(catalog, "sample_params", self._sample_wrapper)
        self._patch(
            catalog, "closed_form_value",
            lambda fn: self._span_wrapper("catalog.closed_form_value", fn),
        )
        for attr in SPECFUN:
            self._patch(specfun, attr, lambda fn, attr=attr: self._specfun_wrapper(f"specfun.{attr}", fn))
        for engine in ENGINES:
            self._patch(
                quad, f"integrate_{engine}",
                lambda fn, engine=engine: self._engine_wrapper(engine, fn),
            )
        return self

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- aggregation ------------------------------------------------------

    def self_times(self):
        """Per-span duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append((span.start, span.end))
        out = []
        for index, span in enumerate(self.spans):
            covered = 0.0
            cursor = span.start
            for start, end in sorted(children.get(index, ())):
                start, end = max(start, cursor), min(end, span.end)
                if end > start:
                    covered += end - start
                    cursor = end
            out.append(span.end - span.start - covered)
        return out

    def summary(self):
        """Per-layer metrics, the costliest entries and the span count."""
        self_s = self.self_times()
        by_name = defaultdict(lambda: [0, 0.0, 0.0])
        for span, own in zip(self.spans, self_s):
            row = by_name[span.name]
            row[0] += 1
            row[1] += span.end - span.start
            row[2] += own
        layers: dict[str, float] = {}
        for name, (calls, total, own) in sorted(by_name.items()):
            layers[f"{name}.calls"] = calls
            layers[f"{name}.s"] = total
            layers[f"{name}.self_s"] = own
            layer = name.split(".")[0]
            if layer != name:
                layers[f"{layer}.self_s"] = layers.get(f"{layer}.self_s", 0.0) + own
            if layer == "specfun":
                layers["specfun.calls"] = layers.get("specfun.calls", 0) + calls
        layers.setdefault("specfun.calls", 0)
        layers.setdefault("specfun.self_s", 0.0)

        for engine in ENGINES:
            rows = [r for r in self.integrals if r[1] == engine]
            status = Counter(r[5] for r in rows)
            evals = sum(r[3] for r in rows)
            fcalls = sum(r[4] for r in rows)
            prefix = f"quad.{engine}"
            layers[f"{prefix}.integrals"] = len(rows)
            layers[f"{prefix}.evals"] = evals
            layers[f"{prefix}.fcalls"] = fcalls
            layers[f"{prefix}.evals_per_fcall"] = evals / fcalls if fcalls else 0.0
            layers[f"{prefix}.nonconverged"] = len(rows) - status["converged"]
            layers.setdefault(f"{prefix}.self_s", 0.0)
            for s in STATUSES:
                layers[f"{prefix}.status.{s}"] = status[s]

        # child span time of the verify layer's top spans over their wall
        tops = {
            i for i, s in enumerate(self.spans)
            if s.name in ("verify.verify_all", "verify.verify_entry")
        }
        top_wall = sum(self.spans[i].end - self.spans[i].start for i in tops)
        child_time = sum(s.end - s.start for s in self.spans if s.parent in tops)
        layers["verify.concurrency"] = child_time / top_wall if top_wall else 0.0

        per_entry = defaultdict(lambda: [0, 0.0, 0, 0])
        for index, engine, entry, evals, fcalls, _ in self.integrals:
            if entry is None:
                continue
            row = per_entry[entry[0]]
            row[0] += evals
            row[1] += self_s[index]
            row[2] += fcalls
            row[3] += 1

        def top(key):
            ranked = sorted(per_entry.items(), key=lambda kv: (-kv[1][key], kv[0]))
            return [
                {"entry_id": eid, "evals": e, "quad_self_s": s, "fcalls": c, "integrals": n}
                for eid, (e, s, c, n) in ranked[:TOP_N]
            ]

        return {
            "layers": layers,
            "top_by_evals": top(0),
            "top_by_quad_self_s": top(1),
            "spans": len(self.spans),
        }


def counts_of(layers):
    """The machine-independent counts that must repeat exactly per seed."""
    keys = [k for k in layers if k.startswith("quad.") and not k.endswith(("self_s", ".s"))]
    keys.append("catalog.sample_params.calls")
    return {k: layers.get(k, 0) for k in sorted(keys)}


def median_layers(summaries):
    """Merge the layer dicts of repeated traced runs by taking medians
    (the caller checks that their counts agree)."""
    merged = {}
    for key in summaries[0]:
        values = [s.get(key, 0) for s in summaries]
        merged[key] = statistics.median(values)
    return merged
