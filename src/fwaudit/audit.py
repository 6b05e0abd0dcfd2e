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
from dataclasses import dataclass
from enum import Enum

from .errors import DisjointnessError
from .intervals import Pairs, boxes_pairwise_disjoint, coalesce, exclude, hull, touching_pairs
# perfbench wraps these two where the audit imports them; the audit calls neither
from .intervals import box_intersects  # noqa: F401
from .rules import Decision, Rule, Ruleset, exclusion  # noqa: F401


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
    algorithm: str, original: Ruleset, conds: list, kinds: list, t0: float
) -> AuditReport:
    # rules stay in position order and each carries at most one kind, so
    # the warnings come out sorted by position
    warnings = tuple(RuleWarning(r.position, k) for r, k in zip(original.rules, kinds) if k)
    # a rule no exclusion changed is kept as it came in
    transformed = Ruleset(original.domain, tuple(
        r if c is r.condition else Rule(r.position, tuple(c), r.decision)
        for r, c in zip(original.rules, conds) if c
    ))
    stats = AuditStats(
        input_rules=len(original.rules),
        output_rules=len(transformed.rules),
        output_boxes=transformed.total_boxes(),
        elapsed_ms=(time.perf_counter() - t0) * 1000.0,
    )
    return AuditReport(algorithm, transformed, warnings, stats)


def _empty_input_labels(conds: list[Sequence[Pairs]]) -> list[WarningKind | None]:
    # an empty input rule is never a first match; no exclusion reaches it,
    # so it is labelled here, once, before the scans
    return [None if c else WarningKind.SHADOWING for c in conds]


@dataclass(frozen=True, slots=True)
class _Index:
    """The rows whose input conditions touch, built once per audit.

    ``before[i]`` and ``after[i]`` list, ascending, the rows before and
    after row i whose input hull touches row i's.  An empty input row
    touches none.  Exclusion only shrinks a condition, so every box a
    scan queries for row i lies inside row i's input hull, and excluding
    a row this index does not list returns the working set unchanged.
    Hull corners are Python integers, so domains wider than 64 bits need
    no special case.
    """

    accept: list[bool]
    before: list[Sequence[int]]
    after: list[Sequence[int]]

    @classmethod
    def of(cls, rules: Sequence[Rule]) -> _Index:
        lo, hi = [None] * len(rules), [None] * len(rules)
        for i, r in enumerate(rules):
            if len(r.condition) == 1:
                lo[i], hi[i] = zip(*r.condition[0])
            elif r.condition:
                lo[i], hi[i] = hull(r.condition)
        return cls([r.decision == Decision.ACCEPT for r in rules], *touching_pairs(lo, hi))

    def touching(
        self, conds: Sequence[Sequence[Pairs]], i: int, later: bool,
        same_decision: bool | None = None,
    ) -> Sequence[int]:
        """Rows after (``later``) or before row i, ascending, that the index
        lists for it, whose condition in ``conds`` is not empty, and that
        have the same (True) or a differing (False) decision when asked."""
        rows = (self.after if later else self.before)[i]
        if not rows:
            return rows
        accept = self.accept
        # the decision a kept row must have, if one is asked for
        want = None if same_decision is None else accept[i] == same_decision
        return [j for j in rows if conds[j] and (want is None or accept[j] == want)]


def _uncovered(
    rest: Sequence[Pairs], conds: Sequence[Sequence[Pairs]], rows: Sequence[int]
) -> Sequence[Pairs]:
    """The packets of ``rest`` that no condition of ``rows`` holds, excluding
    one row at a time until nothing is left; ``rest`` itself when none meets it."""
    for j in rows:
        rest = exclude(rest, conds[j])
        if not rest:
            break
    return rest


def _exclude_forward(
    conds: list[Sequence[Pairs]],
    kinds: list[WarningKind | None],
    cut: Sequence[Pairs],
    rows: Sequence[int],
) -> None:
    """Exclude ``cut`` from the conditions of the later ``rows``.

    Every unlabelled row this empties is labelled shadowing.  A rule
    changed into several boxes is coalesced, which keeps its packets.
    """
    for j in rows:
        cj = exclude(conds[j], cut)
        if cj is conds[j]:
            continue
        if len(cj) > 1:
            cj = coalesce(cj)
        conds[j] = cj
        if kinds[j] is None and not cj:
            kinds[j] = WarningKind.SHADOWING


def detection(ruleset: Ruleset) -> AuditReport:
    """Exclude every earlier rule from every later one.

    Every kept rule an exclusion changed has its boxes coalesced.  Rules
    that end up empty are reported as shadowing, even when they are really
    redundant; use ``complete_detection`` to tell the two apart.
    """
    t0 = time.perf_counter()
    index = _Index.of(ruleset.rules)
    conds = [r.condition for r in ruleset.rules]
    kinds = _empty_input_labels(conds)
    for i in range(len(conds) - 1):
        if conds[i]:
            _exclude_forward(conds, kinds, conds[i], index.touching(conds, i, True))
    return _assemble("detection", ruleset, conds, kinds, t0)


def _absorbed_by(conds: list[Sequence[Pairs]], i: int, rows: Sequence[int]) -> bool:
    """Is non-empty rule i's condition fully covered by the conditions of ``rows``?"""
    if not rows:
        return False
    # exact escape: a corner of one of rule i's boxes that no box of these
    # rows covers is a packet they leave, so rule i is not absorbed
    cover = [box for j in rows for box in conds[j]]
    for box in conds[i]:
        for corner in zip(*box):
            for pairs in cover:
                for (lo, hi), v in zip(pairs, corner):
                    if v < lo or hi < v:
                        break
                else:
                    break
            else:
                return False
    return not _uncovered(conds[i], conds, rows)


def _redundant_in(
    original: list[Pairs],
    index: _Index,
    effective: Sequence[Pairs],
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
    accept = index.accept
    # a row the index lists is never empty in the input
    for j in index.after[i]:
        if accept[j] == accept[i]:
            rest = exclude(rest, original[j])
            if not rest:
                return True
        # the kernel returns ``rest`` itself when no box of rule j meets it
        elif exclude(rest, original[j]) is not rest and not is_shadowed(j):
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
    walk runs only for absorbed rules and rules whose region an emptied
    one cut.  A labelled rule that is not absorbed stays in the output:
    it carries packets of an emptied rule.
    """
    t0 = time.perf_counter()
    index = _Index.of(ruleset.rules)
    original = [r.condition for r in ruleset.rules]
    conds = list(original)
    # is original rule j covered by the rules before it, so never a first match?
    is_shadowed = functools.cache(lambda j: not _uncovered(original[j], original, index.before[j]))
    kinds = _empty_input_labels(conds)
    n = len(conds)
    emptied: list[Sequence[Pairs]] = [()] * n  # the input condition of each rule phase 2 emptied

    for i in range(n - 1):
        if conds[i]:
            _exclude_forward(conds, kinds, conds[i], index.touching(conds, i, True, same_decision=False))

    for i in range(n):
        if not conds[i]:
            # Already settled (and labelled) by an earlier step: excluding
            # against it is the identity, and probing it for redundancy
            # would only relabel a rule that is not really there anymore.
            continue
        earlier = index.touching(emptied, i, False, same_decision=True)
        effective = _uncovered(conds[i], emptied, earlier)
        later = index.touching(conds, i, True, same_decision=True)
        absorbed = _absorbed_by(conds, i, later)
        if not effective:
            kinds[i] = WarningKind.SHADOWING
        elif (absorbed or effective is not conds[i]) and _redundant_in(
                original, index, effective, i, is_shadowed):
            kinds[i] = WarningKind.REDUNDANCY
        if absorbed and kinds[i] is not None:
            conds[i] = ()
            emptied[i] = original[i]
        else:
            _exclude_forward(conds, kinds, conds[i], later)
    return _assemble("complete", ruleset, conds, kinds, t0)


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
