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

import numpy as np

from .errors import DisjointnessError
from .intervals import (
    DomainSpec,
    bounds_dtype,
    box_bounds,
    box_intersects,
    boxes_pairwise_disjoint,
    coalesce,
    rows_touching,
    touching_pairs,
)
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


def _hull(rule: Rule, p: int, dtype: type) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds of the smallest box that holds the condition
    of a non-empty rule: the column-wise min and max of its box bounds."""
    lo, hi = box_bounds(rule.condition, p, dtype)
    return lo.min(axis=0), hi.max(axis=0)


@dataclass(slots=True)
class _Hulls:
    """Condition hulls of a rule list as (n, p) lower/upper bound arrays.

    ``accept`` marks the accept rules and ``alive`` the rules whose
    condition is not empty; the bounds of a dead row are never read.  The
    dtype is int64 when the domain fits it, else ``object``.

    ``nbr[ptr[i]:ptr[i + 1]]`` lists, ascending, the rows whose input hull
    touches row i's.  Exclusion only shrinks a condition, so every box a
    scan queries for row i lies inside row i's input hull and only these
    rows can touch it: copies share this index.
    """

    lo: np.ndarray
    hi: np.ndarray
    accept: np.ndarray
    alive: np.ndarray
    nbr: np.ndarray
    ptr: list[int]

    @classmethod
    def of(cls, rules: Sequence[Rule], domain: DomainSpec) -> _Hulls:
        dtype = bounds_dtype(
            min(a.lo for a in domain.attributes), max(a.hi for a in domain.attributes)
        )
        lo = np.zeros((len(rules), domain.p), dtype)
        hi = np.zeros_like(lo)
        accept = np.array([r.decision == Decision.ACCEPT for r in rules], dtype=bool)
        alive = np.array([not r.is_empty for r in rules], dtype=bool)
        live = np.flatnonzero(alive)
        for i in live:
            lo[i], hi[i] = _hull(rules[i], domain.p, dtype)
        ptr, nbr = touching_pairs(lo[live], hi[live])
        # back to row numbers; a dead row's list is empty
        ptr = ptr[np.searchsorted(live, np.arange(len(rules) + 1))]
        return cls(lo, hi, accept, alive, live[nbr], ptr.tolist())

    def copy(self) -> _Hulls:
        return replace(self, lo=self.lo.copy(), hi=self.hi.copy(), alive=self.alive.copy())

    def update(self, j: int, rule: Rule) -> None:
        self.alive[j] = not rule.is_empty
        if not rule.is_empty:
            self.lo[j], self.hi[j] = _hull(rule, self.lo.shape[1], self.lo.dtype)

    def touching(
        self, i: int, later: bool, box: tuple[np.ndarray, np.ndarray] | None = None,
        same_decision: bool | None = None, mask: np.ndarray | None = None,
    ) -> list[int]:
        """Rows after (``later``) or before row i, ascending, that are live,
        have the same (True) or a differing (False) decision when asked,
        are kept by ``mask``, and whose hull shares a packet with ``box``,
        row i's hull by default.

        Excluding a rule whose hull does not touch is the identity, so a
        scan may visit only these rows.
        """
        start, stop = self.ptr[i], self.ptr[i + 1]
        if start == stop:
            return []
        rows = self.nbr[start:stop]
        rows = rows[rows > i] if later else rows[rows < i]
        lo, hi = box if box is not None else (self.lo[i], self.hi[i])
        hit = self.alive[rows] & rows_touching(self.lo[rows], self.hi[rows], lo, hi)
        if same_decision is not None:
            hit &= (self.accept[rows] == self.accept[i]) == same_decision
        if mask is not None:
            hit &= mask[rows]
        return rows[hit].tolist()


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
        if len(rj.condition) > 1 and rj.condition != rules[j].condition:
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
    hulls = _Hulls.of(rules, ruleset.domain)
    kinds = _empty_input_labels(rules)
    for i in range(len(rules) - 1):
        _exclude_forward(rules, hulls, kinds, i, None)
    return _assemble("detection", ruleset, rules, kinds, t0)


def _absorbed_by_later(rules: list[Rule], hulls: _Hulls, i: int) -> bool:
    """Is rule i's condition fully covered by later rules with its decision?"""
    temp = rules[i]
    if temp.is_empty:
        return bool((hulls.accept[i + 1 :] == hulls.accept[i]).any())
    # the hull of temp only shrinks, so rows that miss its starting hull
    # can never absorb any of it
    for j in hulls.touching(i, True, same_decision=True):
        temp = exclusion(temp, rules[j])
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
    return _absorbed_by_later(rules, _Hulls.of(rules, ruleset.domain), i - 1)


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
    for j in hulls.touching(i, True, _hull(effective, hulls.lo.shape[1], hulls.lo.dtype)):
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
    hulls = _Hulls.of(rules, ruleset.domain)
    original_hulls = hulls.copy()
    is_shadowed = functools.cache(lambda j: _shadowed_in(original, original_hulls, j))
    kinds = _empty_input_labels(rules)
    n = len(rules)
    emptied = np.zeros(n, dtype=bool)

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
