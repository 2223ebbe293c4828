"""Per-layer tracing of gelfand from outside the program.

The tracer replaces public functions of each module by wrappers that
record a span (name, start, end, parent span, instance id); a function
imported into several modules is replaced in every one of them. Field
operations are only counted, since a span per operation would swamp
the numbers. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter, defaultdict

import gelfand
from gelfand import anisotropic, cli, covers, field_core, function_ring, poly

MODULES = (gelfand, field_core, poly, anisotropic, function_ring, covers, cli)
TEXT_SPANS = ("field_core.text", "poly.text")
MUL_SAMPLE_EVERY = 61      # keep every 61st multiplication's operands
MUL_SAMPLE_SIZE = 256      # per field kind


class Tracer:
    """Spans and counters for one traced pass; ``install`` patches the
    modules and ``uninstall`` restores them."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index, instance]
        self.instance = -1
        self.counts = Counter()
        self.mul_samples = defaultdict(list)
        self._stack = []
        self._undo = []

    def span(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else -1, self.instance])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if after is not None:
                after(result)
            return result
        return wrapper

    def _count(self, key, fn):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    def _count_mul(self, fn):
        counts, samples = self.counts, self.mul_samples

        def wrapper(a, b):
            counts["mul"] += 1
            if counts["mul"] % MUL_SAMPLE_EVERY == 0:
                batch = samples[a.field.kind]
                if len(batch) < MUL_SAMPLE_SIZE:
                    batch.append((a, b))
            return fn(a, b)
        return wrapper

    def _add(self, key, amount):
        self.counts[key] += amount

    def _patch_function(self, module, attr, make):
        original = getattr(module, attr)
        wrapped = make(original)
        for mod in MODULES:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapped)
                    self._undo.append((mod, name, original))

    def _patch_method(self, cls, attr, make):
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        self._undo.append((cls, attr, original))

    def install(self):
        fe = field_core.FieldElement
        self._patch_method(fe, "__mul__", self._count_mul)
        self._patch_method(fe, "__add__", lambda f: self._count("add", f))
        self._patch_method(fe, "__pow__", lambda f: self._count("pow", f))
        self._patch_method(fe, "inv", lambda f: self._count("inv", f))

        def spans(module, pairs):
            for attr, name, *after in pairs:
                self._patch_function(
                    module, attr,
                    lambda f, n=name, a=after: self.span(n, f, *a))

        spans(field_core, [
            ("find_rootfree_monic", "field_core.find_rootfree"),
            ("format_element", "field_core.text.format_element"),
            ("parse_element", "field_core.text.parse_element"),
            ("format_field", "field_core.text.format_field"),
            ("parse_field", "field_core.text.parse_field"),
        ])
        mp = poly.MultiPoly
        self._patch_method(mp, "evaluate",
                           lambda f: self.span("poly.evaluate", f))
        self._patch_method(mp, "__mul__", lambda f: self.span("poly.mul", f))
        spans(poly, [
            ("compose_last", "poly.compose_last"),
            ("format_poly", "poly.text.format_poly"),
            ("parse_poly", "poly.text.parse_poly"),
        ])
        spans(anisotropic, [
            ("build_fn", "anisotropic.build_fn",
             lambda r: self._add("form_terms", len(r.terms))),
            ("verify_vanishing_exhaustive", "anisotropic.verify",
             lambda r: self._add("points_checked",
                                 getattr(r, "points_checked", 0))),
            ("valuation_identity_check", "anisotropic.valuation",
             lambda r: self._add("samples_checked", getattr(r, "samples", 0))),
        ])
        self._patch_function(
            function_ring, "all_ring_elements",
            lambda f: self.span("function_ring.all_ring_elements", f,
                                lambda r: self._add("ring_elements", len(r))))
        self._patch_method(function_ring.IdealRepr, "is_maximal",
                           lambda f: self.span("function_ring.is_maximal", f))
        spans(function_ring, [
            ("max_spectrum", "function_ring.max_spectrum",
             lambda r: self._add("closed_sets", len(r.closed_sets))),
            ("enumerate_ideals_bruteforce", "function_ring.oracle"),
            ("check_homeomorphism", "function_ring.homeomorphism"),
        ])
        witness_terms = (lambda r: self._add("witness_terms",
                                             len(r.witness.terms)))
        spans(covers, [
            ("combine_case1", "covers.case1", witness_terms),
            ("combine_case2", "covers.case2", witness_terms),
            ("unit_combination_case3", "covers.case3",
             lambda r: self._add("case3_ok", 1)),
            ("certify", "covers.certify"),
            ("indicator_poly", "covers.indicator_poly"),
        ])

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self, report_bytes):
        """Per-layer totals over the traced pass. ``build_fn_s``,
        ``homeomorphism_s``, both ``text_s`` and ``cli.self_s`` are self
        times (span minus child spans; CLI self time keeps its text
        children: argparse, report assembly, formatting, JSON, write);
        the other times include child spans."""
        total, own, calls = Counter(), Counter(), Counter()
        child = [0.0] * len(self.spans)
        compute_child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
                if not name.startswith(TEXT_SPANS):
                    compute_child[parent] += end - start
        cli_self = 0.0
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[i]
            calls[name] += 1
            if name == "cli":
                cli_self += end - start - compute_child[i]
        c = self.counts
        verify_s = total["anisotropic.verify"]
        case3 = calls["covers.case3"]
        return {
            "field_core.mul_calls": c["mul"],
            "field_core.add_calls": c["add"],
            "field_core.pow_calls": c["pow"],
            "field_core.inv_calls": c["inv"],
            "field_core.find_rootfree_s": total["field_core.find_rootfree"],
            "field_core.text_s": sum(v for k, v in own.items()
                                     if k.startswith("field_core.text")),
            "poly.evaluate_s": total["poly.evaluate"],
            "poly.evaluate_calls": calls["poly.evaluate"],
            "poly.compose_last_s": total["poly.compose_last"],
            "poly.mul_s": total["poly.mul"],
            "poly.form_terms": c["form_terms"],
            "poly.text_s": sum(v for k, v in own.items()
                               if k.startswith("poly.text")),
            "anisotropic.build_fn_s": own["anisotropic.build_fn"],
            "anisotropic.verify_s": verify_s,
            "anisotropic.points_checked": c["points_checked"],
            "anisotropic.points_per_s": (c["points_checked"] / verify_s
                                         if verify_s else 0.0),
            "anisotropic.valuation_s": total["anisotropic.valuation"],
            "anisotropic.samples_checked": c["samples_checked"],
            "function_ring.max_spectrum_s":
                total["function_ring.max_spectrum"],
            "function_ring.ring_elements": c["ring_elements"],
            "function_ring.closed_sets": c["closed_sets"],
            "function_ring.oracle_s": total["function_ring.oracle"],
            "function_ring.is_maximal_s": total["function_ring.is_maximal"],
            "function_ring.homeomorphism_s":
                own["function_ring.homeomorphism"],
            "covers.case1_s": total["covers.case1"],
            "covers.case2_s": total["covers.case2"],
            "covers.case3_s": total["covers.case3"],
            "covers.certify_s": total["covers.certify"],
            "covers.indicator_poly_s": total["covers.indicator_poly"],
            "covers.witness_terms": c["witness_terms"],
            "covers.case3_applicable_ratio": (c["case3_ok"] / case3
                                              if case3 else 0.0),
            "cli.self_s": cli_self,
            "cli.report_bytes": report_bytes,
            "trace.spans": len(self.spans),
        }


def mul_ns(pairs, repeats=15):
    """Median nanoseconds per ``FieldElement.__mul__`` over the batch."""
    if not pairs:
        return 0.0
    per_op = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        for a, b in pairs:
            a * b
        per_op.append((time.perf_counter_ns() - t0) / len(pairs))
    return statistics.median(per_op)
