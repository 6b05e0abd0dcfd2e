"""Filtering rules, ordered rulesets, and the exclusion transform.

A rule maps a condition (a list of disjoint boxes) to an accept/deny
decision.  Rules are immutable; transforms return fresh rules and never
touch their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

from .errors import ArityError
from .intervals import Box, DomainSpec, bounding_box, box_intersects, box_subtract


class Decision(str, Enum):
    ACCEPT = "accept"
    DENY = "deny"


@dataclass(frozen=True, slots=True)
class Rule:
    """One ordered filtering rule.

    ``position`` is the rule's place in the original configuration and is
    preserved through every transform.
    """

    position: int
    condition: tuple[Box, ...]
    decision: Decision

    def __post_init__(self):
        if self.position < 1:
            raise ValueError(f"rule position must be >= 1, got {self.position}")

    @property
    def is_empty(self) -> bool:
        return not self.condition


@dataclass(frozen=True, slots=True)
class Ruleset:
    """An ordered rule sequence over a shared attribute domain."""

    domain: DomainSpec
    rules: tuple[Rule, ...] = field(default_factory=tuple)

    def __post_init__(self):
        positions = [r.position for r in self.rules]
        if any(b >= a for a, b in zip(positions[1:], positions)):
            raise ValueError(f"rule positions must be strictly increasing, got {positions}")
        for r in self.rules:
            for box in r.condition:
                self.domain.check_box(box)

    def __len__(self) -> int:
        return len(self.rules)

    def rule_at(self, position: int) -> Rule:
        for r in self.rules:
            if r.position == position:
                return r
        raise IndexError(f"no rule at position {position}")

    def total_boxes(self) -> int:
        return sum(len(r.condition) for r in self.rules)


def exclusion(b: Rule, a: Rule) -> Rule:
    """Return a copy of rule b whose condition avoids everything a matches.

    The result keeps b's decision and position, and its condition covers
    exactly the packets of b's condition that are in none of a's boxes.
    a's boxes are subtracted one at a time from the whole working set,
    which keeps the output pairwise disjoint even when a has several boxes.
    """
    working = list(b.condition)
    for abox in a.condition:
        if not working:
            break
        hull = bounding_box(working)
        if not box_intersects(hull, abox):  # also validates arity
            continue
        arity = abox.p
        refined: list[Box] = []
        for wbox in working:
            if wbox.p != arity:
                raise ArityError(f"rules disagree on attribute count ({wbox.p} vs {arity})")
            refined.extend(box_subtract(wbox, abox))
        working = refined
    return replace(b, condition=tuple(working))
