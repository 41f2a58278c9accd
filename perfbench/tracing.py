"""Spans around the public functions of each ``gammacomplex`` module.

``install`` replaces every named function, in every module namespace that
binds it (methods on their class), by a wrapper that records one span:
name, start, end and the index of the enclosing span.  Spans stay in
memory; ``layer_metrics`` turns them into per-layer self times and counts,
and ``write_spans`` writes them out once the first traced round is over.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from time import perf_counter_ns

# Per-layer self time: metric -> the spans whose self time it sums.
SELF_TIME = {
    "complexes.edges_s": ["complexes.FlagComplex.edges"],
    "complexes.subdivide_edge_s": ["complexes.subdivide_edge"],
    "complexes.clique_count_s": ["complexes.FlagComplex.clique_count_by_size"],
    "complexes.face_oracle_s": [
        "complexes.FaceComplex.__init__",
        "complexes.subdivide_face_general",
        "complexes.is_flag",
        "complexes.FlagComplex.to_face_complex",
    ],
    "polynomials.f_poly_s": ["polynomials.f_poly"],
    "polynomials.transform_s": ["polynomials.h_from_f", "polynomials.gamma_from_h"],
    "subdivision.extend_s": ["subdivision.extend"],
    "subdivision.random_sequence_s": ["subdivision.random_sequence"],
    "subdivision.from_json_s": [
        "subdivision.SubdivisionSequence.from_json",
        "subdivision.SubdivisionSequence.from_json_obj",
    ],
    "subdivision.verify_f_equals_gamma_s": ["subdivision.verify_f_equals_gamma"],
    "subdivision.induced_sequence_s": ["subdivision.induced_sequence"],
    "subdivision.k_w_phi_s": [
        "subdivision.k_set",
        "subdivision.k_set_at",
        "subdivision.w_set",
        "subdivision.w_set_at",
        "subdivision.phi",
    ],
    "checks.increment_identity_s": ["checks.increment_identity_failures"],
    "checks.k_rule_s": ["checks.k_rule_failures"],
    "checks.w_rule_s": ["checks.w_rule_failures"],
    "checks.link_recursion_s": ["checks.link_recursion_failures"],
    "checks.phi_image_s": ["checks.phi_image_failures"],
    "checks.gamma_restriction_s": ["checks.gamma_restriction_failures"],
    "checks.oracle_s": ["checks.oracle_failures"],
    "nestohedra.find_flag_ordering_s": ["nestohedra.find_flag_ordering"],
    "nestohedra.ordering_to_sequence_s": ["nestohedra.ordering_to_sequence"],
    "nestohedra.nested_set_faces_s": ["nestohedra.nested_set_faces"],
    "nestohedra.uv_gamma_complex_s": [
        "nestohedra.u_set",
        "nestohedra.v_set",
        "nestohedra.gamma_complex_of_ordering",
    ],
    "nestohedra.verify_ordering_equivalence_s": ["nestohedra.verify_ordering_equivalence"],
    "cli.self_s": ["cli.main"],
}

# Exact counts: metric -> the span whose calls it counts.
CALLS = {
    "complexes.edges_calls": "complexes.FlagComplex.edges",
    "polynomials.gamma_of_calls": "polynomials.gamma_of",
    "subdivision.extend_calls": "subdivision.extend",
    "subdivision.induced_sequence_calls": "subdivision.induced_sequence",
    "cli.invocations": "cli.main",
}

# Exact counts taken from return values: metric -> (span, measure of the result).
TALLIES = {
    "complexes.cliques_counted": (
        "complexes.FlagComplex.clique_count_by_size",
        lambda counts: sum(counts.values()),
    ),
    "nestohedra.nested_faces": ("nestohedra.nested_set_faces", lambda fc: len(fc.faces)),
}

# Generators are not timed; their yields are counted.
YIELDS = {"complexes.faces_yielded": "complexes.FlagComplex.faces"}

# Every per-layer metric the traced run reports, in output order, with its unit.
METRICS = (
    [(name, "s") for name in SELF_TIME]
    + [(name, "count") for name in list(CALLS) + list(TALLIES) + list(YIELDS)]
    + [("complexes.edges_per_step", "ratio"), ("trace.overhead_s", "s")]
)


class Tracer:
    """In-memory span log: one ``[name, start_ns, end_ns, parent]`` per call."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack = [-1]

    def reset(self) -> None:
        """Forget every span and count; only between calls, when no span is open."""
        self.spans.clear()
        self.counts.clear()

    def timed(self, name, fn, tally=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0, 0, stack[-1]]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter_ns()
                stack.pop()
            if tally is not None:
                counts[tally[0]] += tally[1](result)
            return result

        return traced

    def counted(self, metric, fn):
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[metric] += 1
                yield item

        return traced


def _rebind(path: str, make) -> None:
    """Replace the object at ``gammacomplex.<path>`` by ``make(original)``.

    A method is replaced on its class; a module-level function in every
    module of the package that binds the same object.
    """
    module_name, attr = path.split(".", 1)
    home = importlib.import_module(f"gammacomplex.{module_name}")
    if "." in attr:
        cls_name, method = attr.split(".")
        cls = getattr(home, cls_name)
        raw = cls.__dict__[method]
        if isinstance(raw, classmethod):
            setattr(cls, method, classmethod(make(raw.__func__)))
        else:
            setattr(cls, method, make(raw))
        return
    original = getattr(home, attr)
    wrapped = make(original)
    namespaces = [importlib.import_module("gammacomplex")] + [
        importlib.import_module(f"gammacomplex.{m}")
        for m in ("complexes", "polynomials", "subdivision", "checks", "nestohedra", "cli")
    ]
    for ns in namespaces:
        if ns.__dict__.get(attr) is original:
            setattr(ns, attr, wrapped)


def install(tracer: Tracer) -> None:
    spans = {name for names in SELF_TIME.values() for name in names} | set(CALLS.values())
    tallies = {span: (metric, measure) for metric, (span, measure) in TALLIES.items()}
    for name in sorted(spans):
        _rebind(name, lambda fn, name=name: tracer.timed(name, fn, tallies.get(name)))
    for metric, name in YIELDS.items():
        _rebind(name, lambda fn, metric=metric: tracer.counted(metric, fn))


def self_times(spans: list[list]) -> tuple[Counter, Counter]:
    """Self time in ns and call count per span name.

    Spans nest strictly (one thread, synchronous calls), so a span's self
    time is its duration minus the durations of its direct children.
    """
    covered = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: Counter = Counter()
    calls: Counter = Counter()
    for (name, start, end, _), inner in zip(spans, covered):
        totals[name] += end - start - inner
        calls[name] += 1
    return totals, calls


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead_s``, which needs an untraced run."""
    totals, calls = self_times(tracer.spans)
    out: dict[str, float] = {}
    for metric, names in SELF_TIME.items():
        out[metric] = sum(totals[n] for n in names) / 1e9
    for metric, name in CALLS.items():
        out[metric] = calls[name]
    for metric in list(TALLIES) + list(YIELDS):
        out[metric] = tracer.counts[metric]
    out["complexes.edges_per_step"] = out["complexes.edges_calls"] / out["subdivision.extend_calls"]
    return out


def write_spans(tracer: Tracer, path: str) -> None:
    with open(path, "w") as handle:
        handle.write("index,name,start_ns,end_ns,parent\n")
        for i, (name, start, end, parent) in enumerate(tracer.spans):
            handle.write(f"{i},{name},{start},{end},{parent}\n")
