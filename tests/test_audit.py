import random
from dataclasses import replace

import pytest

from fwaudit import (
    Box,
    DisjointnessError,
    DomainSpec,
    Interval,
    Rule,
    Ruleset,
    complete_detection,
    detection,
    equivalent,
    evaluate,
    find_redundant,
    find_shadowed,
    rewrite,
)
from fwaudit.audit import (
    RewriteMode, RuleWarning, WarningKind, _absorbed_by_later, _exclude_forward, _Index
)
from fwaudit.intervals import boxes_pairwise_disjoint, coalesce, exclude, hull
from fwaudit.rules import Decision
from fwaudit.synth import generate, profile, worst_case_family

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

    def test_nested_family_slabs_are_coalesced(self):
        # unmerged, the slab decomposition leaves 462, 495 and 455 boxes
        counts = {(n, p): detection(worst_case_family(n, p)).stats.output_boxes
                  for n, p in ((7, 5), (9, 4), (13, 3))}
        assert counts == {(7, 5): 31, (9, 4): 33, (13, 3): 37}
        rs = worst_case_family(13, 3)  # 131^3 packets
        # a first rule inside the domain cuts a hole in every rule from the
        # seventh on, so boxes that agree elsewhere need not abut there
        holed = Ruleset(rs.domain, (rule(1, "deny", ((60, 70),) * 3),
                                    *(replace(r, position=r.position + 1) for r in rs.rules)))
        for case in (rs, holed):
            report = detection(case)
            assert equivalent(case, report.transformed)
            for r in report.transformed.rules:
                cond = [tuple(b) for b in r.condition]
                assert coalesce(cond) == cond


def absorbed(ruleset, i):
    """Probe rule i (1-based) of a ruleset for absorption by later same-decision rules."""
    index = _Index.of(ruleset.rules)
    return _absorbed_by_later([r.condition for r in ruleset.rules], index, i - 1)


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
        # every corner of R2 is covered, so the full probe runs
        assert absorbed(after_phase1, 2) is True

    def test_not_absorbed(self, after_phase1):
        # R4 touches R1 but misses its corner (1, 20): the escape answers
        assert absorbed(after_phase1, 1) is False

    def test_last_rule_never_absorbed(self, after_phase1):
        assert absorbed(after_phase1, 5) is False

    def test_probe_does_not_mutate(self, after_phase1):
        before = after_phase1.rules
        absorbed(after_phase1, 2)
        assert after_phase1.rules == before


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

    def test_copy_of_a_rule_is_shadowed_and_carries_its_packets(self):
        # either copy alone is enough: R1 is redundant, R2 is shadowed, and
        # R2 stays in the output with the packets of the dropped R1
        rs = Ruleset(
            DomainSpec.of(("s", 0, 100)),
            (rule(1, "accept", ((10, 20),)), rule(2, "accept", ((10, 20),))),
        )
        report = complete_detection(rs)
        assert warn_set(report) == {(1, "redundancy"), (2, "shadowing")}
        assert [r.position for r in report.transformed.rules] == [2]
        assert equivalent(rs, report.transformed)

    def test_rules_redundant_only_one_at_a_time_are_both_labelled(self):
        # removing R1 or R2 alone keeps every outcome, removing both loses
        # [1,2]; the audit drops R1 and keeps R2, which now carries [1,2]
        rs = Ruleset(
            DomainSpec.of(("s", 0, 9)),
            (
                rule(1, "accept", ((1, 4),)),
                rule(2, "accept", ((1, 5),)),
                rule(3, "accept", ((3, 7),)),
            ),
        )
        report = complete_detection(rs)
        assert warn_set(report) == {(1, "redundancy"), (2, "redundancy")}
        assert find_redundant(rs) == {1, 2}
        assert [r.position for r in report.transformed.rules] == [2, 3]
        assert equivalent(rs, report.transformed)

    @pytest.mark.parametrize("n, p", [(4, 2), (6, 2)])
    def test_nested_family_has_no_findings(self, n, p):
        # each rule is absorbed once the stripped ruleset is considered, but
        # in the original its packets would fall to the next, differing rule
        rs = worst_case_family(n, p)
        assert find_shadowed(rs) == find_redundant(rs) == set()
        report = complete_detection(rs)
        assert report.warnings == ()
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


class TestHulls:
    def test_hull_is_min_max_of_boxes(self):
        lo, hi = hull((((1, 2), (5, 9)), ((4, 8), (0, 3))))
        assert lo == (1, 0) and hi == (8, 9)
        assert hull((((4, 8), (0, 3)),)) == ((4, 0), (8, 3))
        # beyond int64 the bounds stay exact Python integers
        big = 2**64
        assert hull((((-big, 2), (5, big + 9)), ((4, big), (0, 3)))) == ((-big, 0), (big, big + 9))

    @pytest.mark.parametrize("shift", [0, 2**64], ids=["int64", "object"])
    def test_row_follows_a_split(self, shift):
        def shifted(position, decision, *boxes):
            moved = (tuple((lo + shift, hi + shift) for lo, hi in b) for b in boxes)
            return rule(position, decision, *moved)

        dom = DomainSpec.of(("s", 1 + shift, 100 + shift), ("d", 1 + shift, 100 + shift))
        rules = [
            shifted(1, "deny", ((25, 40), (1, 100))),
            shifted(2, "accept", ((1, 10), (1, 10)), ((20, 30), (20, 30))),
        ]
        index = _Index.of(rules)
        conds = [r.condition for r in rules]
        assert index.touching(conds, 0, True) == [1] and index.touching(conds, 1, False) == [0]
        _exclude_forward(conds, index, [None, None], 0, None)
        want = shifted(2, "accept", ((1, 10), (1, 10)), ((20, 24), (20, 30)))
        assert conds[1] == [tuple(b) for b in want.condition]


def _reference_absorbed(conds, decisions, i):
    # the plain subtraction walk over every later rule with rule i's
    # decision; the index is not consulted
    rest = conds[i]
    for j in range(i + 1, len(conds)):
        if decisions[j] is decisions[i]:
            rest = exclude(rest, conds[j])
    return not rest


def _probe_corpus():
    dom = DomainSpec.of(("s", 0, 63), ("d", 0, 63))
    for seed in range(1000):
        yield f"random seed {seed}", _random_ruleset(seed, dom)
    for seed in range(3):
        yield f"expert seed {seed}", generate(profile("expert", seed), 250, DomainSpec.five_tuple())


def test_corner_escape_is_exact():
    # on the input rules and again once phase 1 has split them into
    # several boxes, the escape never changes the probe's answer
    answers = set()
    for label, rs in _probe_corpus():
        index = _Index.of(rs.rules)
        conds = [r.condition for r in rs.rules]
        decisions = [r.decision for r in rs.rules]
        for phase1 in (False, True):
            if phase1:
                for i in range(len(conds) - 1):
                    _exclude_forward(conds, index, [None] * len(conds), i, False)
            for i, c in enumerate(conds):
                if c:
                    got = _absorbed_by_later(conds, index, i)
                    assert got == _reference_absorbed(conds, decisions, i), f"{label}, rule {i + 1}"
                    answers.add(got)
    assert answers == {True, False}


def test_rows_the_index_leaves_out_are_never_cut():
    # the audits scan only the rows the index lists.  After phase 1, excluding
    # row i leaves every later row it does not list as it is, and excluding
    # an earlier original row it does not list leaves row i as it is, both
    # now and as it came in.  Checked on every pair, without the index.
    dom = DomainSpec.of(("s", 0, 7), ("d", 0, 7))
    corpus = [(f"random seed {seed}", _random_ruleset(seed, dom)) for seed in range(1000)]
    corpus.append(("expert n = 250", generate(profile("expert", 0), 250, DomainSpec.five_tuple())))
    left_out = 0
    for label, rs in corpus:
        index = _Index.of(rs.rules)
        original = [r.condition for r in rs.rules]
        conds = list(original)
        for i in range(len(conds) - 1):
            _exclude_forward(conds, index, [None] * len(conds), i, False)
        for i in range(len(conds)):
            later = set(index.touching(conds, i, True))
            earlier = set(index.touching(original, i, False))
            for j in range(i + 1, len(conds)):
                if conds[j] and j not in later:
                    left_out += 1
                    assert exclude(conds[j], conds[i]) is conds[j], f"{label}, rows {i + 1}, {j + 1}"
            for k in set(range(i)) - earlier:
                left_out += 1
                for cond in (conds[i], original[i]):
                    assert exclude(cond, original[k]) is cond, f"{label}, rows {k + 1}, {i + 1}"
    assert left_out


@pytest.mark.parametrize("algorithm", [detection, complete_detection])
def test_output_rules_are_inputs_or_fresh_boxes(algorithm):
    # a rule no exclusion changed is handed back as the input object, and
    # a changed one holds Boxes of Intervals, not the kernel's plain tuples
    rs = generate(profile("beginner", 0), 300, DomainSpec.five_tuple())
    inputs = {r.position: r for r in rs.rules}
    out = algorithm(rs).transformed.rules
    # exclusion only removes packets, so an unchanged condition is equal to the input's
    kept = [r for r in out if r.condition == inputs[r.position].condition]
    changed = [r for r in out if r.condition != inputs[r.position].condition]
    assert kept and changed
    assert all(r is inputs[r.position] for r in kept)
    for r in changed:
        assert all(type(b) is Box and all(type(iv) is Interval for iv in b) for b in r.condition)


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
        for a in dom.attributes:
            lo = rng.randint(a.lo, a.hi)
            pairs.append((lo, rng.randint(lo, a.hi)))
        dec = "accept" if rng.random() < 0.5 else "deny"
        rules.append(rule(k, dec, tuple(pairs)))
    return Ruleset(dom, tuple(rules))


def _brute_force_labels(rs):
    # shadowed: never a first match; redundant: removing the rule keeps
    # every outcome once shadowed rules of the other decision are set aside
    shadowed = find_shadowed(rs)
    redundant = set()
    for r in rs.rules:
        if r.position in shadowed:
            continue
        kept = [x for x in rs.rules if x.position not in shadowed or x.decision == r.decision]
        without = [x for x in kept if x is not r]
        if equivalent(Ruleset(rs.domain, tuple(kept)), Ruleset(rs.domain, tuple(without))):
            redundant.add(r.position)
    return {(q, "shadowing") for q in shadowed} | {(q, "redundancy") for q in redundant}


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
    def test_empty_first_rule_is_shadowing(self, algorithm):
        # no rule comes before rule 1, so no exclusion can label it
        rs = Ruleset(
            DomainSpec.of(("s", 0, 100)),
            (Rule(1, (), Decision.ACCEPT), rule(2, "deny", ((0, 50),))),
        )
        assert find_shadowed(rs) == {1}
        assert warn_set(algorithm(rs)) == {(1, "shadowing")}

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

    @pytest.mark.parametrize("algorithm", [detection, complete_detection])
    def test_output_conditions_are_coalesced(self, algorithm):
        for seed in range(40):
            for r in algorithm(_random_ruleset(seed, self.dom)).transformed.rules:
                cond = [tuple(b) for b in r.condition]
                assert coalesce(cond) == cond, f"seed {seed}"

    def test_detection_warnings_are_exactly_the_shadowed_rules(self):
        # every rule the exhaustive checker calls shadowed, and nothing else
        for seed in range(40):
            rs = _random_ruleset(seed, self.dom)
            report = detection(rs)
            assert {w.position for w in report.warnings} == find_shadowed(rs), f"seed {seed}"
            assert all(w.kind is WarningKind.SHADOWING for w in report.warnings)

    def test_complete_detection_warning_guarantees(self):
        # shadowing warnings are always confirmed by the exhaustive checker,
        # and every rule it calls shadowed is warned about
        for seed in range(40):
            rs = _random_ruleset(seed, self.dom)
            report = complete_detection(rs)
            shadowed = find_shadowed(rs)
            for w in report.warnings:
                if w.kind is WarningKind.SHADOWING:
                    assert w.position in shadowed, f"seed {seed}"
            warned = {w.position for w in report.warnings}
            assert shadowed <= warned, f"seed {seed}"

    def test_complete_detection_labels_match_brute_force(self):
        # a dense 8x8 grid holds the cases the old labels got wrong: kept
        # shadowed rules (seeds 81, 95), rules redundant only one at a time
        # (498, 814) and the set-aside (29, 141)
        dom = DomainSpec.of(("s", 0, 7), ("d", 0, 7))
        for seed in range(1000):
            rs = _random_ruleset(seed, dom)
            assert warn_set(complete_detection(rs)) == _brute_force_labels(rs), f"seed {seed}"

    def test_empty_rules_in_the_middle(self):
        # dead rows get no neighbours in the touching-pair index, and no
        # live row lists one; labels still equal the brute-force ones
        dom = DomainSpec.of(("s", 0, 7), ("d", 0, 7))
        for seed in range(300):
            rs = _random_ruleset(seed, dom, max_rules=12)
            rng = random.Random(seed)
            rules = [
                replace(r, condition=()) if 0 < k < len(rs.rules) - 1 and rng.random() < 0.3 else r
                for k, r in enumerate(rs.rules)
            ]
            rs = Ruleset(dom, tuple(rules))
            index = _Index.of(rules)
            dead = {k for k, r in enumerate(rules) if r.is_empty}
            assert all(index.ptr[k] == index.ptr[k + 1] for k in dead), f"seed {seed}"
            assert not dead & set(index.nbr), f"seed {seed}"
            for k in range(len(rules)):
                assert index.ptr[k] <= index.split[k] <= index.ptr[k + 1], f"seed {seed}"
                earlier = index.nbr[index.ptr[k] : index.split[k]]
                later = index.nbr[index.split[k] : index.ptr[k + 1]]
                assert all(j < k for j in earlier) and all(j > k for j in later), f"seed {seed}"
            assert warn_set(complete_detection(rs)) == _brute_force_labels(rs), f"seed {seed}"
            report = detection(rs)
            assert {w.position for w in report.warnings} == find_shadowed(rs), f"seed {seed}"
            assert equivalent(rs, report.transformed), f"seed {seed}"

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


_FIVE_TUPLE_CASES = [(prof, n, seed) for prof, n in (("beginner", 250), ("intermediate", 300),
                                                    ("expert", 250)) for seed in (0, 1)]


@pytest.fixture(scope="module", params=_FIVE_TUPLE_CASES, ids=lambda c: f"{c[0]}-{c[1]}-seed{c[2]}")
def five_tuple_case(request):
    prof, n, seed = request.param
    rs = generate(profile(prof, seed=seed), n, DomainSpec.five_tuple())
    return seed, rs, complete_detection(rs)


class TestFiveTupleOracle:
    """The audits against the exact oracle on the real IPv4 five-tuple domain."""

    def test_labels(self, five_tuple_case):
        _, rs, report = five_tuple_case
        labels = {k: {w.position for w in report.warnings if w.kind is k} for k in WarningKind}
        assert labels[WarningKind.SHADOWING] == find_shadowed(rs)
        # the audit may also label rules redundant once shadowed rules of
        # the other decision are set aside
        assert find_redundant(rs) <= labels[WarningKind.REDUNDANCY]

    def test_outputs_are_equivalent(self, five_tuple_case):
        _, rs, report = five_tuple_case
        assert equivalent(rs, report.transformed)
        assert equivalent(rs, detection(rs).transformed)
        positive = rewrite(report.transformed, RewriteMode.POSITIVE)
        assert equivalent(rs, positive, default=Decision.DENY)

    def test_narrowed_box_is_caught(self, five_tuple_case):
        seed, rs, report = five_tuple_case
        rng = random.Random(seed)
        rules = list(report.transformed.rules)
        k = rng.randrange(len(rules))
        boxes = list(rules[k].condition)
        j = rng.randrange(len(boxes))
        pairs = list(boxes[j])
        a = rng.choice([a for a, (lo, hi) in enumerate(pairs) if lo < hi])
        pairs[a] = (pairs[a][0], pairs[a][1] - 1)
        boxes[j] = Box.from_pairs(*pairs)
        rules[k] = replace(rules[k], condition=tuple(boxes))
        narrowed = Ruleset(rs.domain, tuple(rules))
        res = equivalent(rs, narrowed)
        assert not res
        assert evaluate(rs, res.counterexample) is not evaluate(narrowed, res.counterexample)
        # the output is disjoint, so the dropped slab matches nothing now
        assert res.counterexample[a] == pairs[a][1] + 1
