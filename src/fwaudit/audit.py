"""Ruleset audits: discover shadowed and redundant rules, rewrite to a
pairwise-disjoint equivalent, and reduce to permissions or prohibitions.

Two audits are offered.  ``detection`` strips every overlap between rules
and reports every rule that ends up empty as shadowed; it cannot tell
shadowing from redundancy.  ``complete_detection`` first strips overlap
only between rules with differing decisions, then probes each survivor
for absorption by later same-decision rules, so it can label the two
error kinds separately, each as it holds for the original ruleset.  Both
return rulesets whose rules are pairwise disjoint and order-independent,
packet-for-packet equivalent to the input.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from enum import Enum

from .errors import DisjointnessError
from .intervals import box_intersects, boxes_pairwise_disjoint, coalesce, touching_pairs
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

    ``transformed`` holds the surviving rules, the boxes of each rule an
    exclusion changed coalesced; ``warnings`` lists the rules shadowed or
    redundant in the original ruleset, sorted by position, and
    ``algorithm`` names the audit that found them.  A labelled rule is
    usually absent from ``transformed``, but ``complete`` keeps one that
    carries packets of a rule it emptied before.
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


def _empty_input_labels(rules: list[Rule]) -> list[WarningKind | None]:
    # an empty input rule is never a first match; no exclusion reaches it,
    # so it is labelled here, once, before the scans
    return [WarningKind.SHADOWING if r.is_empty else None for r in rules]


def _hull(rule: Rule) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Lower and upper corner of the smallest box that holds the condition
    of a non-empty rule: the min and max of its boxes on each attribute."""
    first, *rest = rule.condition
    lo = [iv.lo for iv in first.intervals]
    hi = [iv.hi for iv in first.intervals]
    for box in rest:
        for k, iv in enumerate(box.intervals):
            lo[k], hi[k] = min(lo[k], iv.lo), max(hi[k], iv.hi)
    return tuple(lo), tuple(hi)


@dataclass(slots=True)
class _Hulls:
    """Condition hulls of a rule list, one pair of Python-int corners per row.

    ``accept`` marks the accept rules and ``alive`` the rules whose
    condition is not empty; the hull of a dead row is never read.  Python
    integers are exact, so domains wider than 64 bits need no special case.

    ``nbr[ptr[i]:ptr[i + 1]]`` lists, ascending, the rows whose input hull
    touches row i's; those before row i end and those after it start at
    ``split[i]``.  Exclusion only shrinks a condition, so every box a scan
    queries for row i lies inside row i's input hull and only these rows
    can touch it: copies share this index.
    """

    lo: list[tuple[int, ...] | None]
    hi: list[tuple[int, ...] | None]
    accept: list[bool]
    alive: list[bool]
    nbr: list[int]
    ptr: list[int]
    split: list[int]

    @classmethod
    def of(cls, rules: Sequence[Rule]) -> _Hulls:
        n = len(rules)
        alive = [not r.is_empty for r in rules]
        lo, hi = [None] * n, [None] * n
        for i in range(n):
            if alive[i]:
                lo[i], hi[i] = _hull(rules[i])
        # the index is built once; a dead row's list is empty
        ptr, split, nbr = touching_pairs(lo, hi)
        accept = [r.decision == Decision.ACCEPT for r in rules]
        return cls(lo, hi, accept, alive, nbr, ptr, split)

    def copy(self) -> _Hulls:
        return replace(self, lo=list(self.lo), hi=list(self.hi), alive=list(self.alive))

    def update(self, j: int, rule: Rule) -> None:
        self.alive[j] = not rule.is_empty
        if not rule.is_empty:
            self.lo[j], self.hi[j] = _hull(rule)

    def touching(
        self, i: int, later: bool, box: tuple[tuple[int, ...], tuple[int, ...]] | None = None,
        same_decision: bool | None = None, mask: list[bool] | None = None,
    ) -> list[int]:
        """Rows after (``later``) or before row i, ascending, that are live,
        have the same (True) or a differing (False) decision when asked,
        are kept by ``mask``, and whose hull shares a packet with ``box``,
        row i's hull by default.

        Excluding a rule whose hull does not touch is the identity, so a
        scan may visit only these rows.
        """
        start, stop = (self.split[i], self.ptr[i + 1]) if later else (self.ptr[i], self.split[i])
        if start == stop:
            return []
        blo, bhi = box if box is not None else (self.lo[i], self.hi[i])
        alive, accept, lo, hi = self.alive, self.accept, self.lo, self.hi
        # the decision a kept row must have, if one is asked for
        want = None if same_decision is None else accept[i] == same_decision
        rows = []
        for j in self.nbr[start:stop]:
            if alive[j] and (want is None or accept[j] == want) and (mask is None or mask[j]):
                for jl, jh, l, h in zip(lo[j], hi[j], blo, bhi):
                    if jh < l or h < jl:
                        break
                else:
                    rows.append(j)
        return rows


def _exclude_forward(
    rules: list[Rule],
    hulls: _Hulls,
    kinds: list[WarningKind | None],
    i: int,
    same_decision: bool | None,
) -> None:
    """Exclude rule i from later rules: all (None), same-decision (True) or differing (False).

    Every unlabelled later rule this empties is labelled shadowing.  A rule
    changed into several boxes is coalesced, which keeps its packets.
    """
    ri = rules[i]
    if ri.is_empty:
        return
    for j in hulls.touching(i, True, same_decision=same_decision):
        rj = exclusion(rules[j], ri)
        if rj is rules[j]:
            continue
        if len(rj.condition) > 1:
            rj = replace(rj, condition=tuple(coalesce(rj.condition)))
        rules[j] = rj
        hulls.update(j, rj)
        if kinds[j] is None and rj.is_empty:
            kinds[j] = WarningKind.SHADOWING


def detection(ruleset: Ruleset) -> AuditReport:
    """Exclude every earlier rule from every later one.

    Every kept rule an exclusion changed has its boxes coalesced.  Rules
    that end up empty are reported as shadowing, even when they are really
    redundant; use ``complete_detection`` to tell the two apart.
    """
    t0 = time.perf_counter()
    rules = list(ruleset.rules)
    hulls = _Hulls.of(rules)
    kinds = _empty_input_labels(rules)
    for i in range(len(rules) - 1):
        _exclude_forward(rules, hulls, kinds, i, None)
    return _assemble("detection", ruleset, rules, kinds, t0)


def _absorbed_by_later(rules: list[Rule], hulls: _Hulls, i: int) -> bool:
    """Is non-empty rule i's condition fully covered by later rules with its decision?"""
    # the hull of the probed copy only shrinks, so rows that miss rule i's
    # hull can never absorb any of it
    rows = hulls.touching(i, True, same_decision=True)
    # exact escape: a corner of one of rule i's boxes that no box of these
    # rows covers is a packet they leave, so rule i is not absorbed
    cover = [box.intervals for j in rows for box in rules[j].condition]
    for box in rules[i].condition:
        for corner in ([iv.lo for iv in box.intervals], [iv.hi for iv in box.intervals]):
            for ivs in cover:
                for iv, v in zip(ivs, corner):
                    if v < iv.lo or iv.hi < v:
                        break
                else:
                    break
            else:
                return False
    temp = rules[i]
    for j in rows:
        temp = exclusion(temp, rules[j])
        if temp.is_empty:
            return True
    return False


def _meets(a: Rule, b: Rule) -> bool:
    return any(box_intersects(x, y) for x in a.condition for y in b.condition)


def _shadowed_in(original: tuple[Rule, ...], hulls: _Hulls, j: int) -> bool:
    """Is original rule j covered by the rules before it, so never a first match?"""
    rest = original[j]
    for k in hulls.touching(j, False):
        rest = exclusion(rest, original[k])
        if rest.is_empty:
            break
    return rest.is_empty


def _redundant_in(
    original: tuple[Rule, ...],
    hulls: _Hulls,
    effective: Rule,
    i: int,
    is_shadowed: Callable[[int], bool],
) -> bool:
    """Would removing original rule i, whose first-match region is
    ``effective``, leave every packet's outcome unchanged?

    Walks the later original rules in order: same-decision rules use up
    what is left of the region, and the walk fails when nothing is left
    to catch the rest, or as soon as a differing-decision rule meets it.
    A differing-decision rule that is shadowed in the original is set
    aside: like the worked five-rule example's R4, it is a finding of its
    own, not a reason to keep rule i.
    """
    rest = effective
    for j in hulls.touching(i, True, _hull(effective)):
        rj = original[j]
        if rj.decision == rest.decision:
            rest = exclusion(rest, rj)
            if rest.is_empty:
                return True
        elif _meets(rest, rj) and not is_shadowed(j):
            return False
    return False


def complete_detection(ruleset: Ruleset) -> AuditReport:
    """Two-phase audit that separates shadowing from redundancy.

    Phase 1 excludes each rule from every later rule with a different
    decision, labelling emptied rules as shadowing.  Phase 2 walks the
    survivors in order: a labelled rule that later same-decision rules
    absorb is emptied; any other rule is excluded from later same-decision
    rules, labelling newly emptied ones as shadowing.  Every kept rule an
    exclusion changed has its boxes coalesced.

    Labels hold for the original ruleset.  When phase 2 reaches rule i,
    its condition minus the original conditions of the earlier
    same-decision rules phase 2 emptied is its first-match region in the
    original; if that is empty, rule i is shadowed.  Otherwise
    ``_redundant_in`` decides redundancy.  A redundant rule whose
    condition is its whole first-match region is always absorbed, so the
    walk runs only for absorbed rules and rules that overlap an emptied
    one.  A labelled rule that is not absorbed stays in the output: it
    carries packets of an emptied rule.
    """
    t0 = time.perf_counter()
    original = ruleset.rules
    rules = list(original)
    hulls = _Hulls.of(rules)
    original_hulls = hulls.copy()
    is_shadowed = functools.cache(lambda j: _shadowed_in(original, original_hulls, j))
    kinds = _empty_input_labels(rules)
    n = len(rules)
    emptied = [False] * n

    for i in range(n - 1):
        _exclude_forward(rules, hulls, kinds, i, False)

    for i in range(n):
        if rules[i].is_empty:
            # Already settled (and labelled) by an earlier step: excluding
            # against it is the identity, and probing it for redundancy
            # would only relabel a rule that is not really there anymore.
            continue
        effective = rules[i]
        overlapped = original_hulls.touching(
            i, False, (hulls.lo[i], hulls.hi[i]), same_decision=True, mask=emptied
        )
        for k in overlapped:
            effective = exclusion(effective, original[k])
        absorbed = _absorbed_by_later(rules, hulls, i)
        if effective.is_empty:
            kinds[i] = WarningKind.SHADOWING
        elif (absorbed or overlapped) and _redundant_in(
            original, original_hulls, effective, i, is_shadowed
        ):
            kinds[i] = WarningKind.REDUNDANCY
        if absorbed and kinds[i] is not None:
            rules[i] = replace(rules[i], condition=())
            hulls.alive[i] = False
            emptied[i] = True
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
