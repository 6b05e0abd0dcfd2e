"""Synthetic ruleset generation.

Workload profiles model security officers by how often their rules
overlap earlier ones: beginners rarely collide (5%), experts write dense
exception chains (90%).  Separately, ``worst_case_family`` builds the
nested-box configurations whose audit output grows fastest, for growth
accounting.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .intervals import AttributeDomain, Box, DomainSpec, Interval, box_intersects
from .rules import Decision, Rule, Ruleset

_FRESH_TRIES = 10_000


@dataclass(frozen=True, slots=True)
class GeneratorProfile:
    """Knobs of the synthetic workload: how rules are drawn."""

    name: str
    overlap_probability: float
    decision_bias: float = 0.5  # P(accept)
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.overlap_probability <= 1.0:
            raise ValueError(f"overlap_probability {self.overlap_probability} not in [0,1]")
        if not 0.0 <= self.decision_bias <= 1.0:
            raise ValueError(f"decision_bias {self.decision_bias} not in [0,1]")


_PROFILE_OVERLAP = {"beginner": 0.05, "intermediate": 0.475, "expert": 0.90}

PROFILE_NAMES = tuple(_PROFILE_OVERLAP)


def profile(name: str, seed: int = 0, *, overlap_probability: float | None = None,
            decision_bias: float = 0.5) -> GeneratorProfile:
    """A named officer profile, with its conventional overlap probability."""
    if overlap_probability is None:
        try:
            overlap_probability = _PROFILE_OVERLAP[name]
        except KeyError:
            raise ValueError(
                f"unknown profile {name!r}; choose from {list(_PROFILE_OVERLAP)}"
            ) from None
    return GeneratorProfile(name, overlap_probability, decision_bias, seed)


def _width_cap(attr: AttributeDomain) -> int:
    # sqrt(span): wide enough for realistic prefixes and port ranges, small
    # enough that boxes stay placeable and audits stay tractable at n=1000
    return max(1, int(math.isqrt(attr.hi - attr.lo + 1)))


def _fresh_interval(rng: random.Random, attr: AttributeDomain) -> Interval:
    span = attr.hi - attr.lo + 1
    cap = _width_cap(attr)
    width = min(span, max(1, int(2 ** rng.uniform(0.0, math.log2(cap + 1)))))
    lo = rng.randint(attr.lo, attr.hi - width + 1)
    return Interval(lo, lo + width - 1)


def _derived_interval(rng: random.Random, attr: AttributeDomain, parent: Interval) -> Interval:
    # shrink-or-equal resize (exception chains narrow, and same-scale
    # children of one parent would overlap each other into blobs), then a
    # uniform shift over every placement that still meets the parent;
    # clamping to the domain only pushes the window further onto the
    # parent, so the intersection survives
    width = rng.randint(1, parent.size)
    lo = rng.randint(parent.lo - (width - 1), parent.hi)
    lo = max(attr.lo, min(lo, attr.hi - width + 1))
    return Interval(lo, lo + width - 1)


def generate(prof: GeneratorProfile, n: int, domain: DomainSpec) -> Ruleset:
    """Draw n single-box rules, deterministic given the profile's seed.

    Each rule after the first overlaps a uniformly chosen earlier rule on
    every attribute with probability ``overlap_probability`` (its box is a
    bounded shift/resize of the parent's); otherwise it is drawn fresh and
    kept disjoint from all earlier rules, so the overlap knob is exact.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(prof.seed)
    boxes: list[Box] = []
    rules: list[Rule] = []
    for k in range(1, n + 1):
        if boxes and rng.random() < prof.overlap_probability:
            parent = boxes[rng.randrange(len(boxes))]
            box = Box(
                tuple(
                    _derived_interval(rng, a, piv)
                    for a, piv in zip(domain.attributes, parent.intervals)
                )
            )
        else:
            box = _fresh_disjoint_box(rng, domain, boxes)
        decision = Decision.ACCEPT if rng.random() < prof.decision_bias else Decision.DENY
        rules.append(Rule(k, (box,), decision))
        boxes.append(box)
    return Ruleset(domain, tuple(rules))


def _fresh_disjoint_box(rng: random.Random, domain: DomainSpec, existing: list[Box]) -> Box:
    for _ in range(_FRESH_TRIES):
        box = Box(tuple(_fresh_interval(rng, a) for a in domain.attributes))
        if not any(box_intersects(box, other) for other in existing):
            return box
    raise ValueError(
        f"no disjoint box found in {_FRESH_TRIES} tries; the domain is too crowded"
    )


def worst_case_family(n: int, p: int) -> Ruleset:
    """Nested corner-anchored boxes that split maximally under auditing.

    Rule k spans [0, 10k] on each of p attributes, so every earlier rule
    cuts every surviving box of every later rule.  Decisions alternate so
    no rule is absorbed outright.
    """
    if n < 2 or p < 2:
        raise ValueError("worst-case family needs n >= 2 and p >= 2")
    domain = DomainSpec.of(*((f"x{k}", 0, 10 * n) for k in range(1, p + 1)))
    rules = tuple(
        Rule(
            k,
            (Box(tuple(Interval(0, 10 * k) for _ in range(p))),),
            Decision.ACCEPT if k % 2 else Decision.DENY,
        )
        for k in range(1, n + 1)
    )
    return Ruleset(domain, rules)
