import hashlib
import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fwaudit import (
    Box,
    DomainError,
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
    generate,
    parse_ruleset,
    profile,
    sample_equivalent,
    serialize_ruleset,
    worst_case_family,
)
from fwaudit.oracle import _CHUNK, _CODE_OUTCOME, Outcome, _sample_columns, _sample_outcomes
from fwaudit.rules import Decision

from conftest import SD, make_table1, rule

S100 = DomainSpec.of(("s", 0, 100))


class TestEvaluate:
    def test_first_match_wins(self, table1):
        assert evaluate(table1, (25, 30)) is Outcome.DENY  # R1 beats R2

    def test_later_rule_applies_when_alone(self, table1):
        assert evaluate(table1, (65, 22)) is Outcome.ACCEPT  # only R3 matches

    def test_empty_ruleset_no_match(self):
        assert evaluate(Ruleset(SD, ()), (1, 1)) is Outcome.NO_MATCH

    def test_out_of_domain_packet(self, table1):
        with pytest.raises(DomainError):
            evaluate(table1, (101, 1))

    def test_parsed_and_box_built_twins_agree(self):
        # evaluate reads any condition: exact tuples as parsed and audited, and
        # the same rules rebuilt as Boxes of Intervals, whose contains is the reference
        domain = DomainSpec.five_tuple()
        generated = generate(profile("intermediate", 2), 80, domain)
        parsed = parse_ruleset(serialize_ruleset(generated))
        for rs in (parsed, complete_detection(parsed).transformed):
            twin = Ruleset(domain, tuple(
                Rule(r.position, tuple(Box.from_pairs(*b) for b in r.condition), r.decision)
                for r in rs.rules
            ))
            assert twin == rs and type(rs.rules[0].condition[0]) is tuple
            rng = random.Random(7)
            # each packet inside a random box, so that most of them match some rule
            boxes = [b for r in rs.rules for b in r.condition]
            packets = [tuple(rng.randint(lo, hi) for lo, hi in rng.choice(boxes)) for _ in range(2000)]
            packets += [tuple(rng.randint(a.lo, a.hi) for a in domain.attributes) for _ in range(500)]
            outcomes = [evaluate(rs, q) for q in packets]
            assert outcomes == [evaluate(twin, q) for q in packets]
            reference = [
                next((Outcome(r.decision.value) for r in twin.rules
                      if any(b.contains(q) for b in r.condition)), Outcome.NO_MATCH)
                for q in packets
            ]
            assert outcomes == reference
            assert set(outcomes) >= {Outcome.ACCEPT, Outcome.DENY}

    def test_transform_preserves_every_sampled_judgement(self, table1):
        report = detection(table1)
        for q in [(s, d) for s in range(1, 101, 7) for d in range(1, 101, 7)]:
            assert evaluate(table1, q) is evaluate(report.transformed, q)


class TestEquivalent:
    def test_transform_is_equivalent(self, table1):
        assert equivalent(table1, detection(table1).transformed)

    def test_reflexive(self, table1):
        assert equivalent(table1, table1)

    def test_counterexample_is_first_lexicographic(self):
        dom = DomainSpec.of(("s", 1, 10))
        r1 = Ruleset(dom, (rule(1, "accept", ((1, 10),)),))
        r2 = Ruleset(dom, (rule(1, "accept", ((1, 9),)),))
        res = equivalent(r1, r2)
        assert not res
        assert res.counterexample == (10,)

    def test_symmetry_and_transitivity(self, table1):
        t_det = detection(table1).transformed
        t_com = complete_detection(table1).transformed
        assert equivalent(t_det, table1)
        assert equivalent(table1, t_det) and equivalent(table1, t_com)
        assert equivalent(t_det, t_com)

    def test_domain_mismatch(self, table1):
        other = Ruleset(DomainSpec.of(("s", 1, 100), ("d", 1, 101)), ())
        with pytest.raises(DomainError):
            equivalent(table1, other)

    def test_five_tuple_empty_against_any(self):
        dom = DomainSpec.five_tuple()
        empty = Ruleset(dom, ())
        everything = Box(tuple(Interval(a.lo, a.hi) for a in dom.attributes))
        anything = Ruleset(dom, (Rule(1, (everything,), Decision.ACCEPT),))
        assert equivalent(empty, empty) and equivalent(anything, anything)
        res = equivalent(empty, anything)
        assert not res and res.counterexample == (0, 0, 0, 0, 0)
        assert equivalent(empty, anything, default=Decision.ACCEPT)

    def test_default_policy_folding(self):
        dom = DomainSpec.of(("s", 1, 10))
        accepts = Ruleset(dom, (rule(1, "accept", ((1, 5),)),))
        with_deny = Ruleset(
            dom, (rule(1, "accept", ((1, 5),)), rule(2, "deny", ((6, 10),)))
        )
        assert not equivalent(accepts, with_deny)
        assert equivalent(accepts, with_deny, default=Decision.DENY)


class TestFindShadowed:
    def test_five_rule_example(self, table1):
        assert find_shadowed(table1) == {4}

    def test_disjoint_ruleset(self):
        rs = Ruleset(
            SD,
            (rule(1, "accept", ((1, 10), (1, 10))), rule(2, "deny", ((20, 30), (1, 10)))),
        )
        assert find_shadowed(rs) == set()

    def test_union_shadowing(self):
        rs = Ruleset(
            S100,
            (
                rule(1, "accept", ((10, 50),)),
                rule(2, "accept", ((40, 90),)),
                rule(3, "deny", ((30, 80),)),
            ),
        )
        assert find_shadowed(rs) == {3}


class TestFindRedundant:
    def test_redundancy_behind_differing_decision(self):
        rs = Ruleset(
            S100,
            (
                rule(1, "deny", ((10, 50),)),
                rule(2, "accept", ((40, 70),)),
                rule(3, "accept", ((50, 80),)),
            ),
        )
        assert find_redundant(rs) == {2}

    def test_five_rule_example_has_no_literally_removable_rule(self, table1):
        # The audit drops R2 (it is absorbed once R4's dead overlap is
        # stripped), but deleting R2 from the ruleset as configured is NOT
        # outcome-preserving: it would resurrect R4's deny over
        # s in [31,45], d in [25,30].  The removal experiment is therefore
        # empty here; (31,25) is a witness.
        assert find_redundant(table1) == set()
        without_r2 = Ruleset(SD, tuple(r for r in table1.rules if r.position != 2))
        assert evaluate(table1, (31, 25)) is Outcome.ACCEPT
        assert evaluate(without_r2, (31, 25)) is Outcome.DENY

    def test_single_rule(self):
        rs = Ruleset(S100, (rule(1, "accept", ((5, 9),)),))
        assert find_redundant(rs) == set()

    def test_shadowed_rules_excluded_from_redundancy(self):
        rs = Ruleset(
            S100,
            (rule(1, "accept", ((1, 10),)), rule(2, "accept", ((1, 10),))),
        )
        assert find_shadowed(rs) == {2}
        assert find_redundant(rs) == {1}


class TestSampleEquivalent:
    def test_equivalent_rulesets_agree(self, table1):
        assert sample_equivalent(table1, detection(table1).transformed, 5000, seed=3)

    def test_full_port_address_domains(self):
        # same five rules, but over the whole 32-bit five-tuple space
        dom = DomainSpec.five_tuple()

        def full(k):
            return Interval(dom.attributes[k].lo, dom.attributes[k].hi)

        def wide(pos, dec, s, d):
            b = Box((full(0), Interval(*s), full(2), Interval(*d), full(4)))
            return Rule(pos, (b,), Decision(dec))

        rs = Ruleset(
            dom,
            (
                wide(1, "deny", (1, 30), (20, 45)),
                wide(2, "accept", (20, 60), (25, 35)),
                wide(3, "accept", (40, 70), (20, 45)),
                wide(4, "deny", (15, 45), (25, 30)),
                wide(5, "accept", (25, 45), (20, 40)),
            ),
        )
        transformed = complete_detection(rs).transformed
        assert sample_equivalent(rs, transformed, 100_000, seed=11)

    def test_finds_planted_difference(self):
        dom = DomainSpec.of(("s", 1, 10))
        r1 = Ruleset(dom, (rule(1, "accept", ((1, 10),)),))
        r2 = Ruleset(dom, (rule(1, "accept", ((1, 9),)),))
        res = sample_equivalent(r1, r2, 200, seed=0)
        assert not res
        assert res.counterexample == (10,)

    def test_seeded_reproducibility(self, table1):
        t = complete_detection(table1).transformed
        a = sample_equivalent(table1, t, 1000, seed=42)
        b = sample_equivalent(table1, t, 1000, seed=42)
        assert a == b

    def test_rejects_zero_samples(self, table1):
        with pytest.raises(ValueError):
            sample_equivalent(table1, table1, 0, seed=1)

    def test_sampling_needs_int64_bounds(self):
        fits = DomainSpec.of(("s", -(2**63), 2**63 - 1))
        r1 = Ruleset(fits, (rule(1, "accept", ((-(2**63), -1),)),))
        r2 = Ruleset(fits, (rule(1, "accept", ((-(2**63), 2**63 - 1),)),))
        res = sample_equivalent(r1, r2, 50, seed=2)
        assert not res and res.counterexample[0] >= 0
        below = Ruleset(DomainSpec.of(("s", 0, 9), ("low", -(2**63) - 1, 0)), ())
        with pytest.raises(DomainError, match=r"attribute low \[-9223372036854775809,0\]"):
            sample_equivalent(below, below, 10, seed=1)

    @pytest.mark.parametrize("domain, digest", [
        (DomainSpec.five_tuple(),
         "sha256:797524169323e2d1763b21da0db5307c01ddf47a1e7ae2aec571422a278008a9"),
        (DomainSpec.of(("a", -300, 300), ("b", -(2**62), 2**62), ("c", 0, 1)),
         "sha256:bd54ed8549f24443cae8c827edf6f275677deb8034ea677ec87a2621bd29c58d"),
    ], ids=["five-tuple", "signed-and-wide"])
    def test_pinned_packets(self, domain, digest):
        # a column stored in a type that cannot hold its attribute, such as
        # float64 for the 2^62-wide one, changes the packets
        packets = [[int(v) for v in p] for p in zip(*_sample_columns(domain, 1000, 7))]
        assert "sha256:" + hashlib.sha256(json.dumps(packets).encode()).hexdigest() == digest

    @pytest.mark.parametrize("samples", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5])
    @pytest.mark.parametrize("domain", [
        DomainSpec.five_tuple(),
        DomainSpec.of(("a", -300, 300), ("b", -(2**62), 2**62), ("c", 0, 1)),
        DomainSpec.of(("s", -(2**63), 2**63 - 1), ("t", 0, 255)),
    ], ids=["five-tuple", "signed-and-wide", "int64"])
    def test_chunked_draws_equal_one_shot_draws(self, domain, samples):
        # draws continue one stream across chunks, so the chunk size never
        # shows in the packets
        rng = np.random.default_rng(11)
        columns = _sample_columns(domain, samples, 11)
        for a, column in zip(domain.attributes, columns):
            one_shot = rng.integers(a.lo, a.hi, size=samples, endpoint=True, dtype=np.int64)
            assert np.array_equal(column.astype(np.int64), one_shot)

    def test_many_hits_past_the_chunk_size(self):
        # nested boxes over most of a small domain: every bucket is marked
        # and most samples are candidates of every box
        ruleset = worst_case_family(7, 5)
        samples = 40_000
        assert samples > 2 * _CHUNK
        columns = _sample_columns(ruleset.domain, samples, 5)
        (codes,), _ = _sample_outcomes(ruleset.domain, (ruleset.rules,), columns)
        assert (codes != -1).sum() > samples // 2
        for packet, code in zip(_packets(columns), codes):
            assert _CODE_OUTCOME[int(code)] is evaluate(ruleset, packet)


@st.composite
def _domains(draw):
    """1-3 attributes: small ranges with negative bounds, 2^40-wide ones, or
    the full int64 range, where a bucket index taken as v - lo overflows."""
    attrs = []
    for k in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["small", "wide", "int64"]))
        if kind == "small":
            lo = draw(st.integers(-4, 2))
            hi = lo + draw(st.integers(0, 5))
        elif kind == "wide":
            lo, hi = -(2**40), 2**40
        else:
            lo, hi = -(2**63), 2**63 - 1
        attrs.append((f"a{k}", lo, hi))
    return DomainSpec.of(*attrs)


def _edges(a):
    """Values a box or a sample may sit on: both bounds and their neighbours."""
    return sorted({v for v in (a.lo, a.lo + 1, 0, a.hi - 1, a.hi) if a.lo <= v <= a.hi})


@st.composite
def _rulesets(draw, domain):
    """Up to 5 rules of 0-3 boxes each; boxes span full ranges or sit on edges."""
    def interval(a):
        if draw(st.booleans()):
            return Interval(a.lo, a.hi)
        lo, hi = sorted(draw(st.lists(st.sampled_from(_edges(a)), min_size=2, max_size=2)))
        return Interval(lo, hi)

    rules = []
    for pos in range(1, draw(st.integers(0, 5)) + 1):
        boxes = tuple(
            Box(tuple(interval(a) for a in domain.attributes))
            for _ in range(draw(st.integers(0, 3)))
        )
        rules.append(Rule(pos, boxes, draw(st.sampled_from(list(Decision)))))
    return Ruleset(domain, tuple(rules))


def _packets(columns):
    return [tuple(int(v) for v in p) for p in zip(*columns)]


class TestSampledOutcomesProperty:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_outcomes_equal_evaluate(self, data):
        domain = data.draw(_domains())
        ruleset = data.draw(_rulesets(domain))
        n = data.draw(st.integers(1, 12))
        # samples repeat on interval endpoints, where off-by-one bounds show
        columns = [
            np.array(data.draw(st.lists(st.sampled_from(_edges(a)), min_size=n, max_size=n)),
                     dtype=np.int64)
            for a in domain.attributes
        ]
        (codes,), screened = _sample_outcomes(domain, (ruleset.rules,), columns)
        for packet, code in zip(_packets(columns), codes):
            assert _CODE_OUTCOME[int(code)] is evaluate(ruleset, packet)
        # each box screens only the attribute where it covers the least share
        widths = [a.hi - a.lo + 1 for a in domain.attributes]
        assert screened == {
            min(range(domain.p), key=lambda j: (box[j][1] - box[j][0] + 1) / widths[j])
            for r in ruleset.rules
            for box in r.condition
        }

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_counterexample_is_first_disagreeing_sample(self, data):
        domain = data.draw(_domains())
        r1, r2 = data.draw(_rulesets(domain)), data.draw(_rulesets(domain))
        samples = data.draw(st.one_of(st.just(1), st.integers(1, 60)))
        seed = data.draw(st.integers(0, 2**16))
        res = sample_equivalent(r1, r2, samples, seed)
        packets = _packets(_sample_columns(domain, samples, seed))
        differing = [p for p in packets if evaluate(r1, p) is not evaluate(r2, p)]
        assert res.equivalent == (not differing)
        assert res.counterexample == (differing[0] if differing else None)


def _cut_packets(domain, *rulesets):
    """Packets whose every coordinate is the attribute's lo, or a box's lo or
    hi + 1 inside the domain, in ascending order.  Outcomes are constant
    between these cuts, so the set meets every region of constant outcome
    and holds the smallest packet on which two rulesets differ."""
    cuts = [{a.lo} for a in domain.attributes]
    for rs in rulesets:
        for r in rs.rules:
            for b in r.condition:
                for values, (lo, hi), a in zip(cuts, b, domain.attributes):
                    values.update(v for v in (lo, hi + 1) if v <= a.hi)
    return list(itertools.product(*map(sorted, cuts)))


class TestExactOracleProperty:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_agrees_with_evaluate_on_every_cut(self, data):
        domain = data.draw(_domains())
        r1, r2 = data.draw(_rulesets(domain)), data.draw(_rulesets(domain))
        default = data.draw(st.sampled_from([None, *Decision]))
        packets = _cut_packets(domain, r1, r2)

        def outcomes(rs, fold):
            return [fold.get(o, o) for o in (evaluate(rs, p) for p in packets)]

        fold = {Outcome.NO_MATCH: Outcome(default.value)} if default else {}
        differing = [p for p, a, b in zip(packets, outcomes(r1, fold), outcomes(r2, fold))
                     if a is not b]
        res = equivalent(r1, r2, default=default)
        assert (res.equivalent, res.counterexample) == (not differing, (differing or [None])[0])

        def first_match(p):
            matching = (r.position for r in r1.rules if any(b.contains(p) for b in r.condition))
            return next(matching, None)

        reached = {first_match(p) for p in packets}
        assert find_shadowed(r1) == {r.position for r in r1.rules} - reached
        base = outcomes(r1, {})
        removable = {
            r.position for r in r1.rules
            if r.position in reached
            and outcomes(Ruleset(domain, tuple(x for x in r1.rules if x is not r)), {}) == base
        }
        assert find_redundant(r1) == removable
