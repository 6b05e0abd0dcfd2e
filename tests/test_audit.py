import random

import pytest

from fwaudit import (
    DisjointnessError,
    DomainSpec,
    Rule,
    Ruleset,
    complete_detection,
    detection,
    equivalent,
    find_redundant,
    find_shadowed,
    probe_redundancy,
    rewrite,
)
from fwaudit.audit import RewriteMode, RuleWarning, WarningKind
from fwaudit.intervals import boxes_pairwise_disjoint
from fwaudit.rules import Decision

from conftest import SD, box, rule


def warn_set(report):
    return {(w.position, w.kind.value) for w in report.warnings}


class TestDetection:
    def test_worked_five_rule_example(self, table1):
        report = detection(table1)
        got = {r.position: r for r in report.transformed.rules}
        assert set(got) == {1, 2, 3, 5}
        assert got[1].condition == (box((1, 30), (20, 45)),)
        assert got[2].condition == (box((31, 60), (25, 35)),)
        assert got[3].condition == (
            box((61, 70), (20, 45)),
            box((40, 60), (20, 24)),
            box((40, 60), (36, 45)),
        )
        assert got[5].condition == (box((31, 39), (20, 24)), box((31, 39), (36, 40)))
        assert warn_set(report) == {(4, "shadowing")}
        assert got[1].decision is Decision.DENY
        assert got[3].decision is Decision.ACCEPT

    def test_single_rule_unchanged(self):
        rs = Ruleset(SD, (rule(1, "accept", ((1, 10), (1, 10))),))
        report = detection(rs)
        assert report.transformed == rs
        assert report.warnings == ()

    def test_identical_pair_second_shadowed(self):
        rs = Ruleset(
            SD,
            (rule(1, "accept", ((1, 10), (1, 10))), rule(2, "deny", ((1, 10), (1, 10)))),
        )
        report = detection(rs)
        assert warn_set(report) == {(2, "shadowing")}
        assert [r.position for r in report.transformed.rules] == [1]

    def test_stats(self, table1):
        report = detection(table1)
        s = report.stats
        assert (s.input_rules, s.output_rules, s.output_boxes) == (5, 4, 7)
        assert s.elapsed_ms >= 0.0
        assert report.algorithm == "detection"


class TestTestRedundancy:
    @pytest.fixture
    def after_phase1(self):
        # the five-rule example once different-decision overlap is stripped
        return Ruleset(
            SD,
            (
                rule(1, "deny", ((1, 30), (20, 45))),
                rule(2, "accept", ((31, 60), (25, 35))),
                rule(3, "accept", ((40, 70), (20, 45))),
                rule(4, "deny", ((15, 30), (25, 30))),
                rule(5, "accept", ((31, 45), (20, 40))),
            ),
        )

    def test_absorbed_rule(self, after_phase1):
        assert probe_redundancy(after_phase1, 2) is True

    def test_not_absorbed(self, after_phase1):
        assert probe_redundancy(after_phase1, 1) is False

    def test_last_rule_never_absorbed(self, after_phase1):
        assert probe_redundancy(after_phase1, 5) is False

    def test_probe_does_not_mutate(self, after_phase1):
        before = after_phase1.rules
        probe_redundancy(after_phase1, 2)
        assert after_phase1.rules == before

    def test_index_out_of_range(self, after_phase1):
        with pytest.raises(IndexError):
            probe_redundancy(after_phase1, 0)
        with pytest.raises(IndexError):
            probe_redundancy(after_phase1, 6)


class TestCompleteDetection:
    def test_worked_five_rule_example(self, table1):
        report = complete_detection(table1)
        got = {r.position: r for r in report.transformed.rules}
        assert set(got) == {1, 3, 5}
        assert got[1].condition == (box((1, 30), (20, 45)),)
        assert got[1].decision is Decision.DENY
        assert got[3].condition == (box((40, 70), (20, 45)),)
        assert got[3].decision is Decision.ACCEPT
        assert got[5].condition == (box((31, 39), (20, 40)),)
        assert got[5].decision is Decision.ACCEPT
        assert warn_set(report) == {(2, "redundancy"), (4, "shadowing")}
        assert report.algorithm == "complete"

    def test_hidden_redundancy_behind_differing_decision(self):
        # R2 only ever fires on [51,70], which R3 also accepts
        dom = DomainSpec.of(("s", 0, 100))
        rs = Ruleset(
            dom,
            (
                rule(1, "deny", ((10, 50),)),
                rule(2, "accept", ((40, 70),)),
                rule(3, "accept", ((50, 80),)),
            ),
        )
        report = complete_detection(rs)
        assert warn_set(report) == {(2, "redundancy")}
        assert equivalent(rs, report.transformed)

    def test_shadowing_by_union_of_two_rules(self):
        dom = DomainSpec.of(("s", 0, 100))
        rs = Ruleset(
            dom,
            (
                rule(1, "accept", ((10, 50),)),
                rule(2, "accept", ((40, 90),)),
                rule(3, "deny", ((30, 80),)),
            ),
        )
        report = complete_detection(rs)
        assert warn_set(report) == {(3, "shadowing")}
        assert equivalent(rs, report.transformed)

    def test_disjoint_all_accept_unchanged(self):
        rs = Ruleset(
            SD,
            (
                rule(1, "accept", ((1, 10), (1, 10))),
                rule(2, "accept", ((20, 30), (1, 10))),
                rule(3, "accept", ((40, 50), (1, 10))),
            ),
        )
        report = complete_detection(rs)
        assert report.transformed == rs
        assert report.warnings == ()


class TestRewrite:
    def test_positive_keeps_accepts(self, table1):
        out = complete_detection(table1).transformed
        pos = rewrite(out, RewriteMode.POSITIVE)
        assert [r.position for r in pos.rules] == [3, 5]
        assert all(r.decision is Decision.ACCEPT for r in pos.rules)
        assert equivalent(table1, pos, default=Decision.DENY)

    def test_negative_keeps_denies(self, table1):
        out = complete_detection(table1).transformed
        neg = rewrite(out, RewriteMode.NEGATIVE)
        assert [r.position for r in neg.rules] == [1]
        assert equivalent(table1, neg, default=Decision.ACCEPT)

    def test_all_deny_negative_unchanged(self):
        rs = Ruleset(
            SD,
            (rule(1, "deny", ((1, 10), (1, 10))), rule(2, "deny", ((20, 30), (1, 10)))),
        )
        assert rewrite(rs, RewriteMode.NEGATIVE) == rs

    def test_non_disjoint_input_rejected(self, table1):
        with pytest.raises(DisjointnessError):
            rewrite(table1, RewriteMode.POSITIVE)

    def test_mode_accepts_plain_strings(self, table1):
        out = complete_detection(table1).transformed
        assert rewrite(out, "positive") == rewrite(out, RewriteMode.POSITIVE)


def _random_ruleset(seed, dom, max_rules=10):
    rng = random.Random(seed)
    n = rng.randint(1, max_rules)
    rules = []
    for k in range(1, n + 1):
        pairs = []
        for _ in range(dom.p):
            lo = rng.randint(0, 63)
            pairs.append((lo, rng.randint(lo, 63)))
        dec = "accept" if rng.random() < 0.5 else "deny"
        rules.append(rule(k, dec, tuple(pairs)))
    return Ruleset(dom, tuple(rules))


class TestAuditProperties:
    """Brute-force spot checks of the transformation guarantees."""

    dom = DomainSpec.of(("s", 0, 63), ("d", 0, 63))

    @pytest.mark.parametrize("algorithm", [detection, complete_detection])
    def test_empty_input_rule_is_shadowing(self, algorithm):
        # no earlier rule differs in decision from rule 2, and rule 1 is
        # absorbed by rule 3, so no exclusion ever reaches rule 2
        rs = Ruleset(
            DomainSpec.of(("s", 0, 100)),
            (
                rule(1, "accept", ((10, 20),)),
                Rule(2, (), Decision.ACCEPT),
                rule(3, "accept", ((0, 50),)),
            ),
        )
        assert (2, "shadowing") in warn_set(algorithm(rs))

    @pytest.mark.parametrize("algorithm", [detection, complete_detection])
    def test_equivalence_disjointness_idempotence(self, algorithm):
        for seed in range(40):
            rs = _random_ruleset(seed, self.dom)
            report = algorithm(rs)
            assert equivalent(rs, report.transformed), f"seed {seed}"
            assert boxes_pairwise_disjoint(
                [b for r in report.transformed.rules for b in r.condition]
            ), f"seed {seed}"
            again = algorithm(report.transformed)
            assert again.warnings == (), f"seed {seed}"
            assert again.transformed.rules == report.transformed.rules, f"seed {seed}"

    def test_detection_warnings_are_exactly_the_shadowed_rules(self):
        # every rule the exhaustive checker calls shadowed, and nothing else
        for seed in range(40):
            rs = _random_ruleset(seed, self.dom)
            report = detection(rs)
            assert {w.position for w in report.warnings} == find_shadowed(rs), f"seed {seed}"
            assert all(w.kind is WarningKind.SHADOWING for w in report.warnings)

    def test_complete_detection_warning_guarantees(self):
        # shadowing warnings are always confirmed by the exhaustive checker,
        # and every rule it calls shadowed is warned about (possibly as
        # redundancy when an absorbed rule was dropped first)
        for seed in range(40):
            rs = _random_ruleset(seed, self.dom)
            report = complete_detection(rs)
            shadowed = find_shadowed(rs)
            for w in report.warnings:
                if w.kind is WarningKind.SHADOWING:
                    assert w.position in shadowed, f"seed {seed}"
            warned = {w.position for w in report.warnings}
            assert shadowed <= warned, f"seed {seed}"

    def test_output_free_of_findings(self):
        for seed in range(40):
            rs = _random_ruleset(seed, self.dom)
            out = complete_detection(rs).transformed
            assert find_shadowed(out) == set(), f"seed {seed}"
            assert find_redundant(out) == set(), f"seed {seed}"

    def test_warnings_sorted_and_kinds_unique(self):
        for seed in range(40):
            rs = _random_ruleset(seed, self.dom)
            for report in (detection(rs), complete_detection(rs)):
                positions = [w.position for w in report.warnings]
                assert positions == sorted(positions)
                assert len(set(positions)) == len(positions)
