"""Ruleset audits: discover shadowed and redundant rules, rewrite to a
pairwise-disjoint equivalent, and reduce to permissions or prohibitions.

Two audits are offered.  ``detection`` strips every overlap between rules
and reports every rule that ends up empty as shadowed; it cannot tell
shadowing from redundancy.  ``complete_detection`` first strips overlap
only between rules with differing decisions, then probes each survivor
for absorption by later same-decision rules, so it can label the two
error kinds separately.  Both return rulesets whose rules are pairwise
disjoint and order-independent, packet-for-packet equivalent to the
input.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from enum import Enum

from .errors import DisjointnessError
from .intervals import Box, bounding_box, box_intersects, boxes_pairwise_disjoint
from .rules import Decision, Rule, Ruleset, exclusion


class WarningKind(str, Enum):
    SHADOWING = "shadowing"
    REDUNDANCY = "redundancy"


class RewriteMode(str, Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"


@dataclass(frozen=True, slots=True)
class RuleWarning:
    position: int
    kind: WarningKind


@dataclass(frozen=True, slots=True)
class AuditStats:
    input_rules: int
    output_rules: int
    output_boxes: int
    elapsed_ms: float


@dataclass(frozen=True, slots=True)
class AuditReport:
    """Outcome of one audit run.

    ``transformed`` holds the surviving rules (emptied rules removed);
    ``warnings`` lists every rule that was labelled, sorted by original
    position, and records which audit produced them via ``algorithm``.
    """

    algorithm: str
    transformed: Ruleset
    warnings: tuple[RuleWarning, ...]
    stats: AuditStats


def _assemble(
    algorithm: str, original: Ruleset, rules: list[Rule], kinds: list[WarningKind | None], t0: float
) -> AuditReport:
    # rules stay in position order and each carries at most one kind, so
    # the warnings come out sorted by position
    warnings = tuple(RuleWarning(r.position, k) for r, k in zip(rules, kinds) if k is not None)
    transformed = Ruleset(original.domain, tuple(r for r in rules if not r.is_empty))
    stats = AuditStats(
        input_rules=len(original.rules),
        output_rules=len(transformed.rules),
        output_boxes=transformed.total_boxes(),
        elapsed_ms=(time.perf_counter() - t0) * 1000.0,
    )
    return AuditReport(algorithm, transformed, warnings, stats)


def _hulls(rules: list[Rule]) -> list[Box | None]:
    return [bounding_box(r.condition) for r in rules]


def _hulls_touch(a: Box | None, b: Box | None) -> bool:
    # a rule pair whose condition hulls are disjoint is untouched by
    # exclusion, so the O(boxes * boxes) subtraction can be skipped
    return a is not None and b is not None and box_intersects(a, b)


def _exclude_forward(
    rules: list[Rule],
    hulls: list[Box | None],
    kinds: list[WarningKind | None],
    i: int,
    same_decision: bool | None,
) -> None:
    """Exclude rule i from later rules: all (None), same-decision (True) or differing (False).

    Every empty, unlabelled later rule is labelled shadowing, so empty
    input rules are reported too.
    """
    ri, hull = rules[i], hulls[i]
    for j in range(i + 1, len(rules)):
        rj = rules[j]
        picked = same_decision is None or (ri.decision == rj.decision) == same_decision
        if picked and _hulls_touch(hull, hulls[j]):
            rj = rules[j] = exclusion(rj, ri)
            hulls[j] = bounding_box(rj.condition)
        if kinds[j] is None and rj.is_empty:
            kinds[j] = WarningKind.SHADOWING


def detection(ruleset: Ruleset) -> AuditReport:
    """Exclude every earlier rule from every later one.

    Rules whose condition ends up empty are reported as shadowing, even
    when they are really redundant; use ``complete_detection`` to tell
    the two apart.
    """
    t0 = time.perf_counter()
    rules = list(ruleset.rules)
    hulls = _hulls(rules)
    kinds: list[WarningKind | None] = [None] * len(rules)
    for i in range(len(rules) - 1):
        _exclude_forward(rules, hulls, kinds, i, None)
    return _assemble("detection", ruleset, rules, kinds, t0)


def _absorbed_by_later(rules: list[Rule], hulls: list[Box | None], i: int) -> bool:
    """Is rule i's condition fully covered by later rules with its decision?"""
    temp = rules[i]
    hull = hulls[i]
    for j in range(i + 1, len(rules)):
        if temp.decision == rules[j].decision:
            if _hulls_touch(hull, hulls[j]):
                temp = exclusion(temp, rules[j])
                hull = bounding_box(temp.condition)
            if temp.is_empty:
                return True
    return False


def probe_redundancy(ruleset: Ruleset, i: int) -> bool:
    """Probe rule i (1-based) for absorption by later same-decision rules.

    Works on a copy; the ruleset is never modified.
    """
    if not 1 <= i <= len(ruleset.rules):
        raise IndexError(f"rule index {i} out of range 1..{len(ruleset.rules)}")
    rules = list(ruleset.rules)
    return _absorbed_by_later(rules, _hulls(rules), i - 1)


# deprecated alias, kept for one release: pytest collects names starting test_
test_redundancy = probe_redundancy


def complete_detection(ruleset: Ruleset) -> AuditReport:
    """Two-phase audit that separates shadowing from redundancy.

    Phase 1 excludes each rule from every later rule with a different
    decision, labelling emptied rules as shadowing.  Phase 2 walks the
    survivors in order: a rule absorbed by later same-decision rules is
    emptied and labelled redundant; otherwise it is excluded from later
    same-decision rules, labelling any newly emptied ones as shadowing.
    """
    t0 = time.perf_counter()
    rules = list(ruleset.rules)
    hulls = _hulls(rules)
    kinds: list[WarningKind | None] = [None] * len(rules)
    n = len(rules)

    for i in range(n - 1):
        _exclude_forward(rules, hulls, kinds, i, False)

    for i in range(n - 1):
        if rules[i].is_empty:
            # Already settled (and labelled) by an earlier step: excluding
            # against it is the identity, and probing it for redundancy
            # would only relabel a rule that is not really there anymore.
            continue
        if _absorbed_by_later(rules, hulls, i):
            rules[i] = replace(rules[i], condition=())
            hulls[i] = None
            kinds[i] = WarningKind.REDUNDANCY
        else:
            _exclude_forward(rules, hulls, kinds, i, True)
    return _assemble("complete", ruleset, rules, kinds, t0)


ALGORITHMS = {"detection": detection, "complete": complete_detection}


def rewrite(ruleset: Ruleset, mode: RewriteMode) -> Ruleset:
    """Keep only accept rules (positive) or only deny rules (negative).

    Valid only on a pairwise-disjoint ruleset, and equivalent to it only
    under the matching default policy: positive rewriting assumes a
    closed (default-deny) policy, negative an open (default-accept) one.
    Disjointness is verified, not trusted.
    """
    mode = RewriteMode(mode)
    all_boxes = [box for r in ruleset.rules for box in r.condition]
    if not boxes_pairwise_disjoint(all_boxes):
        raise DisjointnessError("rewrite needs a pairwise-disjoint ruleset; run an audit first")
    keep = Decision.ACCEPT if mode is RewriteMode.POSITIVE else Decision.DENY
    return Ruleset(ruleset.domain, tuple(r for r in ruleset.rules if r.decision is keep))
