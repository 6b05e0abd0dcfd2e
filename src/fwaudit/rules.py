"""Filtering rules, ordered rulesets, and the exclusion transform.

A rule maps a condition (a list of disjoint boxes) to an accept/deny
decision.  Rules are immutable; transforms return fresh rules and never
touch their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .errors import ArityError
from .intervals import Box, DomainSpec, Pairs, exclude
from .intervals import box_subtract  # noqa: F401  (perfbench wraps it here)


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
    condition: tuple[Pairs, ...]
    decision: Decision

    def __post_init__(self):
        if self.position < 1:
            raise ValueError(f"rule position must be >= 1, got {self.position}")


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

    def total_boxes(self) -> int:
        return sum(len(r.condition) for r in self.rules)


def exclusion(b: Rule, a: Rule) -> Rule:
    """Return rule b with a condition that avoids everything a matches.

    The result keeps b's decision and position, and its condition covers
    exactly the packets of b's condition in none of a's boxes, as
    ``intervals.exclude`` computes it; when none meets, it is b itself.
    """
    if len(arities := {len(box) for box in b.condition + a.condition}) > 1:
        raise ArityError(f"boxes have {min(arities)} and {max(arities)} attributes")
    if (rest := exclude(b.condition, a.condition)) is b.condition:
        return b
    return Rule(b.position, tuple(Box.from_pairs(*box) for box in rest), b.decision)
