"""Spans and counters around the calls into fwaudit's modules.

Each call is wrapped where the calling module imported it, so the program
itself is unchanged: ``fwaudit.audit.exclusion`` is the exclusion the
audits call, ``fwaudit.cli.parse_ruleset`` the parse the commands call.
Coarse calls become spans (name, start, end, parent span, op id), kept in
memory.  Hot primitives are counted, not spanned; ``box_subtract`` is also
timed, and its time is taken out of the self time of the span around it.
A span's self time is its duration minus the time its children cover.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (module where the call is made, imported name, kind, layer name)
LAYERS = (
    ("fwaudit.cli", "parse_ruleset", "span", "rulefile.parse_ruleset"),
    ("fwaudit.cli", "emit_report", "span", "rulefile.emit_report"),
    ("fwaudit.cli", "serialize_ruleset", "span", "rulefile.serialize_ruleset"),
    ("fwaudit.cli", "complete_detection", "span", "audit.complete_detection"),
    ("fwaudit.cli", "detection", "span", "audit.detection"),
    ("fwaudit.cli", "rewrite", "span", "audit.rewrite"),
    ("fwaudit.cli", "sample_equivalent", "span", "oracle.sample_equivalent"),
    ("fwaudit.audit", "exclusion", "span", "rules.exclusion"),
    ("fwaudit.audit", "boxes_pairwise_disjoint", "span", "intervals.boxes_pairwise_disjoint"),
    ("fwaudit.audit", "box_intersects", "count", "audit.pair_tests"),
    ("fwaudit.rules", "box_subtract", "timed", "intervals.box_subtract"),
)

SPAN_COLUMNS = ("op", "id", "parent", "name", "start", "end", "self_s")


def _audit_counts(counters, args, report):
    counters["audit.rules_out"] += report.stats.output_rules
    counters["audit.boxes_out"] += report.stats.output_boxes
    counters["audit.warnings"] += len(report.warnings)


def _box_scans(counters, args, result):
    r1, r2, samples = args[:3]
    boxes = sum(len(r.condition) for r in r1.rules + r2.rules)
    counters["oracle.box_scans"] += samples * boxes


_ON_RESULT = {
    "audit.complete_detection": _audit_counts,
    "audit.detection": _audit_counts,
    "oracle.sample_equivalent": _box_scans,
}


class Tracer:
    """Records spans and counters while installed; ``op`` tags each span."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.op: int | None = None
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 0
        self._patches = []
        for module_name, attr, kind, layer in LAYERS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            wrap = {"span": self.span, "count": self._counted, "timed": self._timed}[kind]
            self._patches.append((module, attr, original, wrap(layer, original)))

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def span(self, name, fn):
        on_result = _ON_RESULT.get(name)

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            frame = [sid, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent[1] += t1 - t0
                self.spans.append((self.op, sid, parent[0] if parent else None, name,
                                   t0, t1, t1 - t0 - frame[1]))
            if on_result is not None:
                on_result(self.counters, args, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counters = self.counters

        def wrapper(*args):
            counters[name] += 1
            return fn(*args)

        return wrapper

    def _timed(self, name, fn):
        counters, stack = self.counters, self._stack
        calls, seconds = name + ".calls", name + ".s"

        def wrapper(*args):
            t0 = time.perf_counter()
            result = fn(*args)
            dt = time.perf_counter() - t0
            counters[calls] += 1
            counters[seconds] += dt
            counters["intervals.boxes_created"] += len(result)
            if stack:
                stack[-1][1] += dt
            return result

        return wrapper

    def take_op(self, op: int) -> dict[str, float]:
        """Per-layer metrics of op ``op``, whose spans end the span list.

        Resets the counters for the next op.
        """
        inclusive, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for s in reversed(self.spans):
            if s[0] != op:
                break
            name = s[3]
            inclusive[name] += s[5] - s[4]
            own[name] += s[6]
            calls[name] += 1
        c = self.counters
        pair_tests = c["audit.pair_tests"]
        oracle_s = inclusive["oracle.sample_equivalent"]
        op_s = inclusive["cli.main"]
        metrics = {
            "audit.complete_detection.self_s": own["audit.complete_detection"],
            "audit.pair_tests": pair_tests,
            "audit.touch_ratio": calls["rules.exclusion"] / pair_tests if pair_tests else 0.0,
            "audit.detection.self_s": own["audit.detection"],
            "rules.exclusion.calls": calls["rules.exclusion"],
            "rules.exclusion.s": inclusive["rules.exclusion"],
            "rules.exclusion.self_s": own["rules.exclusion"],
            "intervals.box_subtract.calls": c["intervals.box_subtract.calls"],
            "intervals.box_subtract.s": c["intervals.box_subtract.s"],
            "intervals.boxes_created": c["intervals.boxes_created"],
            "audit.rewrite.self_s": own["audit.rewrite"],
            "intervals.boxes_pairwise_disjoint.s": inclusive["intervals.boxes_pairwise_disjoint"],
            "oracle.sample_equivalent.s": oracle_s,
            "oracle.box_scans_per_s": c["oracle.box_scans"] / oracle_s if oracle_s else 0.0,
            "rulefile.parse_ruleset.s": inclusive["rulefile.parse_ruleset"],
            "rulefile.parse_ruleset.calls": calls["rulefile.parse_ruleset"],
            "rulefile.emit_report.s": inclusive["rulefile.emit_report"],
            "rulefile.serialize_ruleset.s": inclusive["rulefile.serialize_ruleset"],
            "cli.main.self_s": own["cli.main"],
            "audit.rules_out": c["audit.rules_out"],
            "audit.boxes_out": c["audit.boxes_out"],
            "audit.warnings": c["audit.warnings"],
            "trace.coverage": 1.0 - own["cli.main"] / op_s if op_s else 0.0,
        }
        c.clear()
        return metrics
