"""In-memory span tracer for the benchmark's traced run.

While active (``with tracer:``, which may be entered again) the tracer wraps
public bmwtower functions at the names they are looked up by (module
attributes and ``Matrix`` methods), records one span per call (id, parent
id, job id, name, start, end) and a few counters, and restores every
original on exit.  The program itself is not modified.  ``scalars``
gets counters only: its operations are too fine-grained for spans, so their
time shows in the self time of the calling layer.

Bookkeeping done after a call (operand fill, gcd usefulness) is kept out of
the span clock, so it does not inflate any layer's self time; it still
shows in the traced pass time, i.e. in the tracing overhead.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

# Span record fields.
ID, PARENT, JOB, NAME, T0, T1 = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.max_terms = 0
        self.fill = [0, 0]          # nonzero and dense operand entries of products
        self.job = None             # id of the job whose calls are being traced
        self._stack = []
        self._skew = 0.0
        self._patches = []

    def clock(self):
        return time.perf_counter() - self._skew

    def _wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span = [len(tracer.spans), stack[-1] if stack else None, tracer.job,
                    name, tracer.clock(), None]
            tracer.spans.append(span)
            stack.append(span[ID])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[T1] = tracer.clock()
                stack.pop()
            if after is not None:
                b0 = time.perf_counter()
                after(args, result)
                tracer._skew += time.perf_counter() - b0
            return result

        return wrapper

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def __enter__(self):
        from bmwtower import central, chains, cli, gauge, scalars, spectrum
        from bmwtower import combinatorics as comb
        from bmwtower import repbuilder as rb
        from bmwtower.linalg import Matrix

        for owner, attr, name, after in (
            (cli, "run", "cli.run", None),
            (rb, "build_rep", "repbuilder.build_rep", None),
            (rb, "verify_relations", "repbuilder.verify_relations", None),
            (rb, "kappa_block", "repbuilder.kappa_block", None),
            (rb, "sigma_block", "repbuilder.sigma_block", None),
            (rb, "solve", "linalg.solve", None),
            (gauge, "repair_position", "gauge.repair_position", self._after_repair),
            (central, "zhat_series", "central.zhat_series", None),
            (central, "central_report", "central.central_report", None),
            (central, "intertwiner_checks", "central.intertwiner_checks", None),
            (chains, "hamiltonian", "chains.hamiltonian", None),
            (chains, "eigenvalues_numeric", "chains.eigenvalues_numeric", None),
            (comb, "enumerate_paths", "combinatorics.enumerate_paths", None),
            (comb, "build_graph", "combinatorics.build_graph", None),
            (comb, "dims_json", "combinatorics.dims_json", None),
            (comb, "graph_dot", "combinatorics.graph_dot", None),
            (spectrum, "bijection_report", "spectrum.bijection_report", None),
            (spectrum, "spectra_json", "spectrum.spectra_json", None),
            (scalars, "reduce_fraction", "polygcd.reduce_fraction", self._after_reduce),
            (Matrix, "__mul__", "linalg.matmul", self._after_matmul),
            (Matrix, "inverse", "linalg.inverse", None),
            (Matrix, "equals", "linalg.equals", None),
            (Matrix, "__add__", "linalg.add", None),
            (Matrix, "__sub__", "linalg.sub", None),
            (Matrix, "scale", "linalg.scale", None),
            (Matrix, "shift", "linalg.shift", None),
        ):
            self._patch(owner, attr, self._wrap(name, getattr(owner, attr), after))

        init = scalars.ScalarFraction.__init__
        tracer = self

        def counted_init(obj, num, den=None):
            init(obj, num, den)
            tracer.counts["scalars.fractions_built"] += 1
            terms = len(obj.num.terms) + len(obj.den.terms)
            if terms > tracer.max_terms:
                tracer.max_terms = terms

        self._patch(scalars.ScalarFraction, "__init__", counted_init)
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    def _after_repair(self, args, result):
        if result[2] is not None:
            self.counts["gauge.rescaled"] += 1

    def _after_reduce(self, args, result):
        if _shape(result[0]) != _shape(args[0]) or _shape(result[1]) != _shape(args[1]):
            self.counts["polygcd.useful"] += 1

    def _after_matmul(self, args, result):
        for m in args:
            self.fill[0] += sum(sum(map(bool, row)) for row in m.rows)
            self.fill[1] += m.n * m.m


def _shape(terms):
    """A term dict up to a monomial shift."""
    mq = min(e[0] for e in terms)
    mn = min(e[1] for e in terms)
    return {(a - mq, b - mn): c for (a, b), c in terms.items()}


def self_times(spans):
    """Per span id: its duration minus the part of it its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append(s)
    out = {}
    for s in spans:
        covered, end = 0.0, s[T0]
        for c in sorted(children[s[ID]], key=lambda c: c[T0]):
            lo, hi = max(c[T0], end), min(c[T1], s[T1])
            if hi > lo:
                covered += hi - lo
            end = max(end, hi)
        out[s[ID]] = (s[T1] - s[T0]) - covered
    return out


def outer_time(spans, prefix):
    """Summed duration of spans named with ``prefix`` that are not nested in one."""
    by_id = {s[ID]: s for s in spans}
    total = 0.0
    for s in spans:
        if not s[NAME].startswith(prefix):
            continue
        p = s[PARENT]
        while p is not None and not by_id[p][NAME].startswith(prefix):
            p = by_id[p][PARENT]
        if p is None:
            total += s[T1] - s[T0]
    return total


LAYERS_WITH_SPANS = ("cli", "repbuilder", "gauge", "central", "chains",
                     "combinatorics", "spectrum", "linalg", "polygcd")

# name -> unit, in report order
PER_LAYER = {
    "polygcd.reduce_calls": "count",
    "polygcd.reduce_s": "s",
    "polygcd.useful_ratio": "ratio",
    "scalars.fractions_built": "count",
    "scalars.max_terms": "count",
    "linalg.matmul_calls": "count",
    "linalg.matmul_s": "s",
    "linalg.matmul_fill": "ratio",
    "linalg.inverse_calls": "count",
    "linalg.inverse_s": "s",
    "linalg.solve_s": "s",
    "linalg.equals_s": "s",
    "gauge.repair_calls": "count",
    "gauge.repair_s": "s",
    "gauge.rescaled_ratio": "ratio",
    "repbuilder.build_self_s": "s",
    "repbuilder.kappa_block_s": "s",
    "repbuilder.sigma_block_s": "s",
    "repbuilder.verify_s": "s",
    "repbuilder.verify_passes_per_irrep": "count",
    "central.zhat_calls": "count",
    "central.zhat_s": "s",
    "central.report_s": "s",
    "central.intertwiner_s": "s",
    "chains.hamiltonian_s": "s",
    "chains.eigen_s": "s",
    "combinatorics.paths_s": "s",
    "spectrum.s": "s",
    "cli.self_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS_WITH_SPANS if layer != "cli"},
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def layer_metrics(tracer):
    """Per-layer values of one traced pass (all but trace.overhead_s)."""
    spans = tracer.spans
    calls = Counter(s[NAME] for s in spans)
    own = self_times(spans)
    layer_self = defaultdict(float)
    build_self = 0.0
    for s in spans:
        layer_self[s[NAME].split(".")[0]] += own[s[ID]]
        if s[NAME] == "repbuilder.build_rep":
            build_self += own[s[ID]]

    def ratio(a, b):
        return a / b if b else 0.0

    out = {
        "polygcd.reduce_calls": calls["polygcd.reduce_fraction"],
        "polygcd.reduce_s": outer_time(spans, "polygcd.reduce_fraction"),
        "polygcd.useful_ratio": ratio(tracer.counts["polygcd.useful"],
                                      calls["polygcd.reduce_fraction"]),
        "scalars.fractions_built": tracer.counts["scalars.fractions_built"],
        "scalars.max_terms": tracer.max_terms,
        "linalg.matmul_calls": calls["linalg.matmul"],
        "linalg.matmul_s": outer_time(spans, "linalg.matmul"),
        "linalg.matmul_fill": ratio(*tracer.fill),
        "linalg.inverse_calls": calls["linalg.inverse"],
        "linalg.inverse_s": outer_time(spans, "linalg.inverse"),
        "linalg.solve_s": outer_time(spans, "linalg.solve"),
        "linalg.equals_s": outer_time(spans, "linalg.equals"),
        "gauge.repair_calls": calls["gauge.repair_position"],
        "gauge.repair_s": outer_time(spans, "gauge.repair_position"),
        "gauge.rescaled_ratio": ratio(tracer.counts["gauge.rescaled"],
                                      calls["gauge.repair_position"]),
        "repbuilder.build_self_s": build_self,
        "repbuilder.kappa_block_s": outer_time(spans, "repbuilder.kappa_block"),
        "repbuilder.sigma_block_s": outer_time(spans, "repbuilder.sigma_block"),
        "repbuilder.verify_s": outer_time(spans, "repbuilder.verify_relations"),
        "repbuilder.verify_passes_per_irrep": ratio(calls["repbuilder.verify_relations"],
                                                    calls["repbuilder.build_rep"]),
        "central.zhat_calls": calls["central.zhat_series"],
        "central.zhat_s": outer_time(spans, "central.zhat_series"),
        "central.report_s": outer_time(spans, "central.central_report"),
        "central.intertwiner_s": outer_time(spans, "central.intertwiner_checks"),
        "chains.hamiltonian_s": outer_time(spans, "chains.hamiltonian"),
        "chains.eigen_s": outer_time(spans, "chains.eigenvalues_numeric"),
        "combinatorics.paths_s": outer_time(spans, "combinatorics.enumerate_paths"),
        "spectrum.s": outer_time(spans, "spectrum."),
        "trace.spans": len(spans),
    }
    for layer in LAYERS_WITH_SPANS:
        out[f"{layer}.self_s"] = layer_self[layer]
    return out
