import random

import pytest

from fwaudit import ArityError, Box, DomainSpec, Rule, Ruleset, equivalent, exclusion
from fwaudit.intervals import boxes_pairwise_disjoint
from fwaudit.rules import Decision

from conftest import box, rule


class TestExclusionExamples:
    def test_disjoint_rules_unchanged(self):
        b = rule(2, "accept", ((1, 50), (1, 50)))
        a = rule(1, "deny", ((80, 100), (1, 50)))
        assert exclusion(b, a).condition == b.condition

    def test_two_attribute_overlap_splits_destination(self):
        b = rule(2, "accept", ((1, 50), (1, 50)))
        a = rule(1, "deny", ((1, 60), (20, 30)))
        got = exclusion(b, a)
        assert got.condition == (box((1, 50), (1, 19)), box((1, 50), (31, 50)))

    def test_self_exclusion_empties(self):
        b = rule(3, "accept", ((10, 20), (30, 40)))
        assert exclusion(b, b).condition == ()

    def test_multi_box_operands(self):
        b = rule(5, "accept", ((31, 45), (20, 24)), ((31, 45), (36, 40)))
        a = rule(3, "accept", ((40, 60), (20, 24)), ((40, 60), (36, 45)))
        got = exclusion(b, a)
        assert got.condition == (box((31, 39), (20, 24)), box((31, 39), (36, 40)))


class TestRuleInvariants:
    def test_positions_start_at_one(self):
        with pytest.raises(ValueError):
            Rule(0, (), Decision.DENY)

    def test_ruleset_positions_strictly_increase(self):
        r1 = rule(1, "accept", ((1, 2), (1, 2)))
        with pytest.raises(ValueError):
            Ruleset(DomainSpec.of(("s", 0, 9), ("d", 0, 9)), (r1, r1))


class TestExclusionContract:
    def test_keeps_decision_resets_flags(self):
        b = Rule(7, (), Decision.DENY)
        a = rule(1, "accept", ((1, 5), (1, 5)))
        got = exclusion(b, a)
        assert got.decision is Decision.DENY
        assert got.position == 7

    def test_inputs_not_modified(self):
        b = rule(2, "accept", ((1, 50), (1, 50)))
        a = rule(1, "deny", ((1, 60), (20, 30)))
        before_b, before_a = b.condition, a.condition
        exclusion(b, a)
        assert b.condition == before_b and a.condition == before_a

    def test_empty_subtrahend_is_identity(self):
        b = rule(2, "accept", ((1, 50), (1, 50)))
        a = Rule(1, (), Decision.DENY)
        assert exclusion(b, a).condition == b.condition

    def test_empty_minuend_stays_empty(self):
        b = Rule(2, (), Decision.ACCEPT)
        a = rule(1, "deny", ((1, 60), (20, 30)))
        assert exclusion(b, a).condition == ()

    def test_arity_mismatch(self):
        b = rule(2, "accept", ((1, 50), (1, 50)))
        a = Rule(1, (Box.from_pairs((1, 60)),), Decision.DENY)
        with pytest.raises(ArityError):
            exclusion(b, a)

    def test_output_box_bound(self):
        # |result| <= |b.condition| * (2p)^|a.condition|
        rng = random.Random(5)
        for _ in range(50):
            b = _random_rule(rng, position=2, max_boxes=2)
            a = _random_rule(rng, position=1, max_boxes=2)
            got = exclusion(b, a)
            assert len(got.condition) <= len(b.condition) * (2 * 2) ** len(a.condition)
            assert boxes_pairwise_disjoint(got.condition)


def _random_box(rng, hi=15):
    pairs = []
    for _ in range(2):
        lo = rng.randint(0, hi)
        pairs.append((lo, rng.randint(lo, hi)))
    return Box.from_pairs(*pairs)


def _random_rule(rng, position, max_boxes=1, hi=15):
    boxes = [_random_box(rng, hi)]
    for _ in range(rng.randint(0, max_boxes - 1)):
        nxt = _random_box(rng, hi)
        if boxes_pairwise_disjoint(boxes + [nxt]):
            boxes.append(nxt)
    dec = Decision.ACCEPT if rng.random() < 0.5 else Decision.DENY
    return Rule(position, tuple(boxes), dec)


class TestExclusionSemantics:
    """Brute-force checks of the two-rule guarantees on a 16x16 domain."""

    dom = DomainSpec.of(("s", 0, 15), ("d", 0, 15))

    def _packets(self):
        return [(s, d) for s in range(16) for d in range(16)]

    def test_semantic_difference_and_lemmas(self):
        rng = random.Random(99)
        for _ in range(120):
            a = _random_rule(rng, position=1, max_boxes=2)
            b = _random_rule(rng, position=2, max_boxes=2)
            c = exclusion(b, a)

            in_a = lambda q: any(bx.contains(q) for bx in a.condition)
            in_b = lambda q: any(bx.contains(q) for bx in b.condition)
            in_c = lambda q: any(bx.contains(q) for bx in c.condition)

            for q in self._packets():
                # exclusion computes exactly b minus a
                assert in_c(q) == (in_b(q) and not in_a(q))
                # a and the excluded b never both apply
                assert not (in_a(q) and in_c(q))

            # the two-rule policies {a, b} and {a, exclusion(b, a)} agree
            assert equivalent(
                Ruleset(self.dom, (a, b)), Ruleset(self.dom, (a, c))
            )

    def test_excluded_rule_commutes_with_its_excluder(self):
        rng = random.Random(31)
        for _ in range(60):
            a = _random_rule(rng, position=1)
            b = _random_rule(rng, position=2)
            c = exclusion(b, a)
            swapped = Ruleset(
                self.dom,
                (Rule(1, c.condition, c.decision), Rule(2, a.condition, a.decision)),
            )
            assert equivalent(Ruleset(self.dom, (a, b)), swapped)
